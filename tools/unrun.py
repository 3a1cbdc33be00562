"""List the ``src/`` lines that no pinned run executes.

    python tools/unrun.py

Runs every case of ``tests/test_manifest.py`` (through its ``run_case``) and
the four scripts of ``demos/`` in this process under ``sys.settrace``, with
line events taken in ``src/`` only. It prints, for each function under
``src/``, the statement lines that none of them executed; a function that
never ran is marked so. A compound statement (``if``, ``for``, ``with``,
...) counts as executed when its header line or any statement inside it was.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import runpy
import sys
import tempfile
import threading
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _trace_src(executed: Dict[str, Set[int]]):
    """A ``sys.settrace`` function that records the lines executed in ``src/``."""
    prefix = str(SRC) + os.sep
    per_code: Dict[object, object] = {}

    def local_for(filename: str):
        lines = executed.setdefault(filename, set())

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    def tracer(frame, event, arg):
        code = frame.f_code
        if code not in per_code:
            name = code.co_filename
            per_code[code] = local_for(name) if name.startswith(prefix) else None
        return per_code[code]

    return tracer


def _run_everything() -> None:
    """Every manifest case and demo, in this process and quietly."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT / "tests"))
    from test_manifest import CASES, run_case

    sink = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(sink):
        for name, argv in CASES.items():
            where = Path(tmp) / name
            where.mkdir()
            run_case(argv, where)
        for script in sorted((ROOT / "demos").glob("*.py")):
            with contextlib.chdir(tmp):
                runpy.run_path(str(script), run_name="__main__")


def _statement_spans(node: ast.stmt) -> Tuple[int, int, List[ast.stmt]]:
    """First and last line of a statement's own code, and the statements nested in it."""
    inner: List[ast.stmt] = []
    for field in ("body", "orelse", "finalbody"):
        inner += getattr(node, field, [])
    for handler in getattr(node, "handlers", []):
        inner += handler.body
    for case in getattr(node, "cases", []):
        inner += case.body
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    last = node.end_lineno if not inner else max(first, min(s.lineno for s in inner) - 1)
    return first, last, inner


def _unrun_lines(body: List[ast.stmt], lines: Set[int], unrun: List[int]) -> bool:
    """Append to ``unrun`` the statements of ``body`` no line event reached; whether any was reached.

    Nested functions and classes are reported on their own, so only their
    definition line is looked at here.
    """
    ran_any = False
    for i, node in enumerate(body):
        if i == 0 and isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            continue  # a docstring is not executed
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        first, last, inner = _statement_spans(node)
        ran = any(n in lines for n in range(first, last + 1))
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            own: List[int] = []
            ran = _unrun_lines(inner, lines, own) or ran
            if ran:
                unrun += own
        if not ran:
            unrun.append(node.lineno)
        ran_any = ran_any or ran
    return ran_any


def _functions(tree: ast.AST, prefix: str = "") -> Iterator[Tuple[str, ast.AST]]:
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name, node
            yield from _functions(node, prefix + node.name + ".<locals>.")
        elif isinstance(node, ast.ClassDef):
            yield from _functions(node, prefix + node.name + ".")
        else:
            yield from _functions(node, prefix)


def _ranges(numbers: List[int]) -> str:
    spans: List[List[int]] = []
    for n in sorted(numbers):
        if spans and n == spans[-1][1] + 1:
            spans[-1][1] = n
        else:
            spans.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def report_unrun() -> None:
    executed: Dict[str, Set[int]] = {}
    tracer = _trace_src(executed)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        _run_everything()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    for path in sorted(SRC.rglob("*.py")):
        lines = executed.get(str(path), set())
        tree = ast.parse(path.read_text(), str(path))
        for name, node in _functions(tree):
            unrun: List[int] = []
            ran = _unrun_lines(node.body, lines, unrun)
            if not ran:
                print(f"{path.relative_to(ROOT)}:{node.lineno} {name}: never ran")
            elif unrun:
                print(f"{path.relative_to(ROOT)}:{node.lineno} {name}: lines {_ranges(unrun)}")


if __name__ == "__main__":
    report_unrun()
