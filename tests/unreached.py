"""Statements of `src/strongstab` that neither tier-1 nor the in-process sweep runs.

    PYTHONPATH=src python tests/unreached.py

Runs the tier-1 suite (`pytest -q --continue-on-collection-errors`, whose
summary it prints) and then every level of `tests/sweep.py --in-process`, in
this interpreter under `sys.settrace`, recording each line executed in the
package's files.  It then prints `path:line: text` for every statement that
no run reached, and their count.  A docstring is not a statement here; a
compound statement (`if`, `for`, `def`, ...) counts by its header lines, a
`try` by its clauses only.  Commands that tests run as subprocesses are not
traced.  It needs only the standard library and the test dependencies, and
takes about as long as tier-1 and the sweep together.
"""

import ast
import collections
import contextlib
import io
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "strongstab"


def _tracer(executed):
    """A `sys.settrace` function adding each line run in the package's files
    to executed[filename]; other frames are not traced line by line."""
    prefix = str(SRC)

    def line(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return line

    def call(frame, event, arg):
        return line if frame.f_code.co_filename.startswith(prefix) else None

    return call


def _spans(tree):
    """(first line, lines) of every statement of `tree` that emits code."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(
                node, (ast.Try, ast.Global, ast.Nonlocal)):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            continue        # a docstring
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = max(first, body[0].lineno - 1) if body else node.end_lineno
        yield first, range(first, last + 1)


def unreached(executed):
    """(path, line, text) of each statement of which `executed` holds no line."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text().splitlines()
        ran = executed[str(path)]
        for first, lines in sorted(_spans(ast.parse("\n".join(text)))):
            if not ran.intersection(lines):
                out.append((path.relative_to(ROOT), first, text[first - 1].strip()))
    return out


def main():
    executed = collections.defaultdict(set)
    sys.settrace(_tracer(executed))
    try:
        pytest.main(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
                     str(ROOT / "tests")])
        import sweep        # imports strongstab.cli: after the tracer is set

        with contextlib.redirect_stdout(io.StringIO()):
            for name in ("example1", "example2"):
                sweep.sweep(name, sweep.in_process)
    finally:
        sys.settrace(None)
    missed = unreached(executed)
    for path, line, text in missed:
        print(f"{path}:{line}: {text}")
    print(f"{len(missed)} statements unreached")


if __name__ == "__main__":
    main()
