"""In-memory span tracer that wraps the package's public functions from outside.

Every public function, public method and constructor (``__init__``, which
runs ``__post_init__``) defined in one of :data:`LAYERS` is replaced by a
wrapper at every module binding that refers to it: ``from .bases import
decompose`` copies the function object into ``measures`` and ``verify``, so
patching ``ent23.bases`` alone would miss those internal calls.  Methods and
constructors are patched on their class, which every binding shares.

A span is ``(name, start_ns, end_ns, parent)``.  Spans live in flat arrays
until the run ends; :meth:`Tracer.drain` turns them into per-name call counts
and self times (a span's duration minus its direct children's durations).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from enum import Enum

import numpy as np

#: Package modules traced as layers, in ``<module>.<name>`` span names.
LAYERS = ("rng", "sampling", "measures", "bases", "linalg", "statefile",
          "verify", "cli")


class Tracer:
    """Records nested spans of wrapped calls; install, run, uninstall, drain."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._restore: list[tuple[object, str, object]] = []
        self._reset()

    def _reset(self) -> None:
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str):
        """``fn`` wrapped so that each call records one span named ``name``."""
        nid = self._id(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.name_id)
            stack = self._stack
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.start.append(0)
            self.end.append(0)
            stack.append(index)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.start[index] = t0
                self.end[index] = t1

        return traced

    def install(self, package: str = "ent23") -> None:
        """Wrap every traced callable at every binding under ``package``."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for layer in LAYERS:
            module = importlib.import_module(f"{package}.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapper = self.wrap(obj, f"{layer}.{attr}")
                    for mod in modules:
                        for bound_name, bound in list(vars(mod).items()):
                            if bound is obj:
                                self._patch(mod, bound_name, wrapper)
                elif inspect.isclass(obj) and not issubclass(obj, (Enum, BaseException)):
                    self._install_class(module, layer, obj)

    def _install_class(self, module, layer: str, cls: type) -> None:
        for attr, member in list(vars(cls).items()):
            if attr == "__init__":
                name = f"{layer}.{cls.__name__}"
            elif not attr.startswith("_") and inspect.isfunction(member):
                # A method is named like a function unless one shadows it.
                qualified = attr in vars(module)
                name = f"{layer}.{cls.__name__}.{attr}" if qualified else f"{layer}.{attr}"
            else:
                continue
            self._patch(cls, attr, self.wrap(member, name))

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Put back every original binding, newest patch first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def spans(self) -> dict[str, np.ndarray]:
        """The recorded spans as arrays, ready for ``numpy.savez``."""
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
        }

    def drain(self) -> dict[str, tuple[int, int]]:
        """Per-name ``(calls, self_ns)`` of the spans so far, then forget them."""
        spans = self.spans()
        self._reset()
        duration = spans["end_ns"] - spans["start_ns"]
        parent = spans["parent"]
        has_parent = parent >= 0
        children = np.zeros_like(duration)
        np.add.at(children, parent[has_parent], duration[has_parent])
        n = len(self.names)
        calls = np.bincount(spans["name_id"], minlength=n)
        self_ns = np.bincount(spans["name_id"], weights=duration - children, minlength=n)
        return {name: (int(calls[i]), int(self_ns[i])) for i, name in enumerate(self.names)}
