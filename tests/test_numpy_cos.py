"""``np.cos``, and :func:`ent23._exact.libm_map` of ``np.log``, ``np.log2``
and ``np.arccos``, have libm's bits on the inputs the package gives them, at
every SIMD level of NumPy that this host can run.

The random stream's Box-Muller and the 3x3 solver call ``np.cos`` where they
once applied ``math.cos`` per element; the stream's ``log``, the solver's
``acos`` and the entropies' ``log2`` go through ``libm_map``, which hands
NumPy a reversed input so that it runs its per-element loop.  The
:mod:`ent23._exact` notes list which NumPy functions keep libm's bits on
which level.  The ``cos`` inputs are the stream's own cosine arguments ``2 pi
k 2**-53``, the 2**21 + 1 floats nearest each of 0, pi/3, pi/2, 2pi/3, pi,
3pi/2 and 2pi, and the stream's grid around its two zeros.  The ``log``
inputs are the stream's; the ``log2`` inputs are the entropies' range (0,
1]: the 2**21 + 1 floats up to 1.0, and the smallest 2**21 + 1 subnormals;
the ``arccos`` inputs are the 2**21 + 1 floats nearest each of -1, 0 and 1
in [-1, 1].

NumPy picks its loops when it loads, from ``NPY_DISABLE_CPU_FEATURES``, so
each level runs in a subprocess of its own, one at a time: none disabled,
the X86_V4 targets disabled, and the X86_V3 and X86_V4 targets disabled.  The
target names come from the NumPy that runs.  libm does not read that
variable, so its outputs are computed once, here, and each process compares
sha256 digests of NumPy's outputs with theirs.  As controls, the forward
``np.log``, ``np.log2`` and ``np.arccos`` must each differ from libm on some
of their inputs wherever NumPy runs that function on an X86_V4 loop, as it
does on AVX-512 hosts with NumPy 2.4: that shows the check can fail.

Run as a script, this file prints the running process's digests, dispatch
targets and CPU features as JSON.
"""

import functools
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ent23
from ent23._exact import libm_map
from ent23.rng import _INV_2_53, _TWO_PI, RandomStream

STREAM_INPUTS = 1 << 20
ULPS = 1 << 20
POINTS = {"0": 0.0, "pi/3": math.pi / 3, "pi/2": math.pi / 2, "2pi/3": 2 * math.pi / 3,
          "pi": math.pi, "3pi/2": 3 * math.pi / 2, "2pi": 2 * math.pi}
#: The stream's ``k`` where ``2 pi k 2**-53`` crosses pi/2 and 3pi/2.
STREAM_ZEROS = {"stream k=2**51": 1 << 51, "stream k=3*2**51": 3 << 51}
#: Dispatch targets, besides the X86_V4 and AVX512 ones, that make up X86_V3
#: in NumPy 2 (``X86_V3``) and in NumPy 1 (the others).
X86_V3_TARGETS = ("X86_V3", "AVX", "F16C", "FMA3", "AVX2")
LEVELS = ("default", "X86_V4 off", "X86_V3+V4 off")
#: The functions that go through ``libm_map``, by their ``math`` names.
LIBM_MAPPED = {"log": "log", "log2": "log2", "arccos": "acos"}


def _around(x0):
    """The 2**21 + 1 floats nearest ``x0 >= 0``, ``x0`` in the middle."""
    offsets = np.arange(-ULPS, ULPS + 1)
    if x0 == 0.0:
        return np.ldexp(offsets.astype(float), -1074)
    return (np.float64(x0).view(np.int64) + offsets).view(np.float64)


def _up_to(x0):
    """The 2**21 + 1 floats nearest ``x0 > 0`` from below, ``x0`` last."""
    return (np.float64(x0).view(np.int64) - np.arange(2 * ULPS, -1, -1)).view(np.float64)


def _cases():
    """``(name, NumPy function name, inputs)``: the ``cos`` families, then the
    ``log``, ``log2`` and ``arccos`` ones, each built as the package builds
    its arguments."""
    words = RandomStream(20)._words(2 * STREAM_INPUTS)
    yield "cos stream", "cos", _TWO_PI * (words[1::2] * _INV_2_53)
    for name, x0 in POINTS.items():
        yield f"cos {name}", "cos", _around(x0)
    for name, k in STREAM_ZEROS.items():
        grid = np.arange(k - ULPS, k + ULPS + 1, dtype=np.uint64)
        yield f"cos {name}", "cos", _TWO_PI * (grid * _INV_2_53)
    yield "log stream", "log", (words[0::2] + np.uint64(1)) * _INV_2_53
    yield "log2 up to 1", "log2", _up_to(1.0)
    yield "log2 subnormals", "log2", np.ldexp(np.arange(1, 2 * ULPS + 2).astype(float), -1074)
    yield "arccos -1", "arccos", -_up_to(1.0)
    yield "arccos 0", "arccos", _around(0.0)
    yield "arccos 1", "arccos", _up_to(1.0)


def _digest(values):
    return hashlib.sha256(values.tobytes()).hexdigest()


@functools.cache
def _libm_digests():
    """libm's digest of every case: the forward call's, then ``libm_map``'s."""
    digests = {}
    for name, f, x in _cases():
        libm = getattr(math, LIBM_MAPPED.get(f, f))
        digests[name] = _digest(np.fromiter(map(libm, x.tolist()), float, x.size))
        if f in LIBM_MAPPED:
            digests[f"libm_map {name}"] = digests[name]
    return digests


def _targets():
    """The target NumPy runs each float64 function of :data:`LIBM_MAPPED` on,
    or {} where it cannot say (``numpy.lib.introspect`` is new in NumPy 2.0)."""
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:
        return {}
    loops = opt_func_info(func_name=f"^({'|'.join(LIBM_MAPPED)})$", signature="float64")
    return {f: loop["current"] for f, sigs in loops.items() for loop in sigs.values()}


def report():
    """This process's NumPy digests, dispatch targets and dispatch-target features."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # NumPy 1
        from numpy.core import _multiarray_umath as umath
    digests = {}
    for name, f, x in _cases():
        digests[name] = _digest(getattr(np, f)(x))
        if f in LIBM_MAPPED:
            digests[f"libm_map {name}"] = _digest(libm_map(getattr(np, f), x))
    return {"digests": digests, "targets": _targets(),
            "features": {n: umath.__cpu_features__[n] for n in umath.__cpu_dispatch__}}


def _is_x86_v4(target):
    return target == "X86_V4" or target.startswith("AVX512")


def _check(result):
    expected = _libm_digests()
    differ = [name for name, digest in result["digests"].items() if digest != expected[name]]
    assert [name for name in differ if name.startswith(("cos", "libm_map"))] == []
    for f, target in result["targets"].items():
        if _is_x86_v4(target):
            assert any(name.startswith(f"{f} ") for name in differ), \
                f"the control found no np.{f} mismatch"


@functools.cache
def _report_with(disabled):
    """:func:`report` from a fresh interpreter with ``NPY_DISABLE_CPU_FEATURES=disabled``."""
    path = os.pathsep.join(filter(None, (str(Path(ent23.__file__).parents[1]),
                                         os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=disabled, PYTHONPATH=path)
    result = subprocess.run([sys.executable, __file__], env=env, capture_output=True,
                            text=True, check=False, timeout=300)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def _disabled_targets(level):
    """The dispatch targets that ``level`` turns off, of those the host has on
    with nothing disabled."""
    on = [n for n, enabled in _report_with("")["features"].items() if enabled]
    v4 = [n for n in on if _is_x86_v4(n)]
    return v4 if level == "X86_V4 off" else v4 + [n for n in on if n in X86_V3_TARGETS]


def test_np_cos_has_libm_bits_in_process():
    _check(report())


@pytest.mark.parametrize("level", LEVELS)
def test_np_cos_has_libm_bits_at_simd_level(level):
    if level == "default":
        _check(_report_with(""))
        return
    targets = _disabled_targets(level)
    if not targets:
        pytest.skip(f"{level}: this NumPy has no such dispatch target on this host")
    result = _report_with(" ".join(targets))
    still_on = [n for n in targets if result["features"][n]]
    if still_on:
        pytest.skip(f"{level}: NumPy did not disable {still_on}")
    _check(result)


if __name__ == "__main__":
    print(json.dumps(report()))
