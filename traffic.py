"""List the statements of ``src/ent23`` that no benchmark workload executes.

Run from the repository root:

    python traffic.py

The package is imported, then each workload of ``perfbench/workloads.py``
(``WORKLOADS``) is built with seed 42 in a temporary directory and makes its
``warmup_calls + pass_calls`` calls, as one traced benchmark pass does, all
under a ``sys.settrace`` line tracer limited to ``src/ent23``.  The import is
traced because every benchmark process makes it: helpers that only build
tables at import are reached.  For each file the script then prints each run
of consecutive function-body statements that no call reached, as
``first-last  function  first line``.  A statement is reached when a line it
spans ran; the statements inside an unreached one are not listed again.  It
always exits 0: the listing shows what the workloads leave unmeasured, it is
not a gate.
"""

from __future__ import annotations

import ast
import importlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent
PACKAGE = ROOT / "src" / "ent23"
SEED = 42

_NESTED = ("body", "orelse", "finalbody")


class LineTrace:
    """The lines that ran during :meth:`run` calls, per file under ``root``."""

    def __init__(self, root: Path) -> None:
        self.root = root.resolve()
        self.ran: dict[Path, set[int]] = {}
        self._files: dict[str, set[int] | None] = {}

    def _lines(self, filename: str) -> set[int] | None:
        """The line set of ``filename``, or None when it lies outside ``root``."""
        if filename not in self._files:
            path = Path(filename).resolve()
            self._files[filename] = (self.ran.setdefault(path, set())
                                     if path.is_relative_to(self.root) else None)
        return self._files[filename]

    def run(self, call) -> None:
        """Call ``call()`` with line events of frames under ``root`` recorded."""

        def scope(frame, event, arg):
            lines = self._lines(frame.f_code.co_filename)
            if lines is None:
                return None

            def line(frame, event, arg):
                if event == "line":
                    lines.add(frame.f_lineno)
                return line

            return line

        previous = sys.gettrace()
        sys.settrace(scope)
        try:
            call()
        finally:
            sys.settrace(previous)


def _statement_lists(stmt: ast.stmt):
    """The statement lists nested directly in ``stmt``; none for a ``def``
    or ``class``, whose body is listed as its own scope."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return
    for name in _NESTED:
        yield getattr(stmt, name, [])
    for clause in getattr(stmt, "handlers", []) + getattr(stmt, "cases", []):
        yield clause.body


def unreached(source: str, ran: set[int]) -> list[tuple[int, int, str]]:
    """``(first line, last line, function)`` of each run of consecutive
    function-body statements of ``source`` that span no line in ``ran``."""
    found = []

    def visit(statements: list[ast.stmt], function: str) -> None:
        first = last = None
        for stmt in statements:
            if ran.isdisjoint(range(stmt.lineno, stmt.end_lineno + 1)):
                first = first or stmt.lineno
                last = stmt.end_lineno
                continue
            if first:
                found.append((first, last, function))
                first = None
            for nested in _statement_lists(stmt):
                visit(nested, function)
        if first:
            found.append((first, last, function))

    def scopes(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                docstring = ast.get_docstring(child, clean=False) is not None
                visit(child.body[docstring:], prefix + child.name)
                scopes(child, f"{prefix}{child.name}.")
            else:
                scopes(child, f"{prefix}{child.name}." if isinstance(child, ast.ClassDef)
                       else prefix)

    scopes(ast.parse(source), "")
    return sorted(found)


def report(files: list[Path], ran: dict[Path, set[int]], base: Path) -> list[str]:
    """For each of ``files``, its path relative to ``base`` and its count of
    unreached runs, then one line per run."""
    out = []
    for path in files:
        source = path.read_text(encoding="utf-8")
        runs = unreached(source, ran.get(path.resolve(), set()))
        out.append(f"{path.relative_to(base)}: {len(runs)} unreached")
        lines = source.splitlines()
        out += [f"  {first:>4}-{last:<4} {function}  {lines[first - 1].strip()}"
                for first, last, function in runs]
    return out


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    trace = LineTrace(PACKAGE)
    trace.run(lambda: importlib.import_module("workloads"))
    workloads = sys.modules["workloads"]
    counts = []
    for name, workload_class in workloads.WORKLOADS.items():
        with tempfile.TemporaryDirectory() as workdir:
            workload = workload_class(SEED, Path(workdir))
            calls = workload.warmup_calls + workload.pass_calls
            trace.run(lambda: [workload.invoke(index) for index in range(calls)])
        counts.append(f"{name} {calls} calls")
    print(f"seed {SEED}: " + ", ".join(counts))
    print("\n".join(report(sorted(PACKAGE.rglob("*.py")), trace.ran, ROOT)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
