"""List the ``raise`` and ``return`` lines of ``src/mfj`` that the in-process
tests never run:

    PYTHONPATH=src python tests/linetrace.py [PYTEST_ARGS...]

A line tracer (``sys.settrace``) is installed before anything imports
``mfj``, so lines that run at import time count too; then pytest runs in
this process, on ``tests`` unless PYTEST_ARGS are given.  Tests that run
``mfj`` in a child process are not traced.  Each unrun line is printed as
``file:line module.function: statement``.  The exit code is 1 unless the
unrun lines are exactly ``EXEMPT``.

A statement counts as run when any of its lines is.
Not a test module: pytest does not collect it.
"""

import ast
import pathlib
import sys
import threading

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src" / "mfj"

# Only a child process reaches it: a term too deep for the raised recursion
# limit of ``mfj check``/``run``/``soundness``.
EXEMPT = {"cli._depth_guard: raise SystemExit(2)"}


def exits(path: pathlib.Path) -> list:
    """``(first line, last line, owner)`` of every ``raise`` and ``return``
    statement of ``path``; the owner is the dotted name of the enclosing
    classes and functions."""
    out = []
    todo = [(ast.parse(path.read_text()), path.stem)]
    while todo:
        node, owner = todo.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                todo.append((child, f"{owner}.{child.name}"))
                continue
            if isinstance(child, (ast.Return, ast.Raise)):
                out.append((child.lineno, child.end_lineno, owner))
            todo.append((child, owner))
    return sorted(out)


def traced(pytest_args: list) -> tuple:
    """Run pytest on ``pytest_args`` under the tracer: its exit code, and
    for each file of ``src/mfj`` the set of its lines that ran."""
    runs = {path: set() for path in SRC.glob("*.py")}
    seen = {}  # code file name -> its set in ``runs``, or None

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        lines = seen.get(name, False)
        if lines is False:
            lines = seen[name] = runs.get(pathlib.Path(name).resolve())
        if lines is None:
            return None
        add = lines.add

        def on_line(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return on_line

        return on_line

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        import pytest

        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return code, runs


def unrun(runs: dict) -> list:
    """``(file:line, "module.function: statement")`` of each ``raise`` or
    ``return`` none of whose lines ran."""
    out = []
    for path, lines in sorted(runs.items()):
        text = path.read_text().splitlines()
        for first, last, owner in exits(path):
            if lines.isdisjoint(range(first, last + 1)):
                out.append((f"{path.name}:{first}",
                            f"{owner}: {text[first - 1].strip()}"))
    return out


def main() -> int:
    code, runs = traced(sys.argv[1:] or ["-q", "-p", "no:cacheprovider",
                                         str(HERE)])
    missed = unrun(runs)
    print(f"pytest exit code {int(code)}; {len(missed)} raise/return lines "
          f"of src/mfj never ran:")
    for where, what in missed:
        print(f"  {where} {what}")
    ok = {what for _, what in missed} == EXEMPT and len(missed) == len(EXEMPT)
    print("ok: only the exemption" if ok else
          f"FAIL: the exemption is {sorted(EXEMPT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
