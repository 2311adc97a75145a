"""Line coverage of the flatbeck package under the test suite, stdlib only.

    python3 bench/linecov.py [--package DIR] [pytest arguments ...]

Run it from the root of a flatbeck checkout.  It runs pytest in this
process under ``sys.settrace``, records which lines of the package's
modules (``src/flatbeck`` unless ``--package`` names another directory of
modules) ran, and prints, per module, the statements that never ran.  The
statements of a module are the lines its compiled code objects map
instructions to, so blank lines, comments and function docstrings never
count.  A code object stops being traced once every one of its lines has
run.  Bytecode caches are not written, so nothing lands under ``src/``;
pytest runs without its cache provider.  The default pytest arguments are
``-q tests``.
"""

from __future__ import annotations

import argparse
import sys
import threading
from collections import defaultdict
from pathlib import Path
from types import CodeType
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent


def _code_lines(code: CodeType) -> set[int]:
    """The lines code's own instructions map to (0 is a module's entry)."""
    return {line for _, _, line in code.co_lines() if line}


def statements(path: Path) -> set[int]:
    """The lines of the module at path that some compiled instruction maps
    to, over every code object nested in it."""
    out: set[int] = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        out |= _code_lines(code)
        todo += [c for c in code.co_consts if isinstance(c, CodeType)]
    return out


def trace_lines(package: Path, run: Callable[[], object]) -> tuple[object, dict[str, set[int]]]:
    """run()'s result and, per file under package, the lines that ran while
    it did, in this thread and in threads it started."""
    prefix = str(package.resolve()) + "/"
    ran: dict[str, set[int]] = defaultdict(set)
    lines_of: dict[CodeType, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(prefix):
            return None
        if code not in lines_of:
            lines_of[code] = _code_lines(code)
        seen = ran[code.co_filename]
        seen.add(frame.f_lineno)
        return None if lines_of[code] <= seen else local

    # restored afterwards, so a traced run of this module's own tests goes on
    outer = sys.gettrace(), threading.gettrace()
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        result = run()
    finally:
        sys.settrace(outer[0])
        threading.settrace(outer[1])
    return result, ran


def never_ran(package: Path, ran: dict[str, set[int]]) -> dict[str, tuple[int, list[int]]]:
    """Per module name under package, its statement count and the
    statements missing from ran."""
    out = {}
    for path in sorted(package.resolve().glob("*.py")):
        lines = statements(path)
        out[path.name] = len(lines), sorted(lines - ran.get(str(path), set()))
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--package", type=Path, default=ROOT / "src" / "flatbeck")
    args, pytest_args = p.parse_known_args(argv)
    import pytest

    package = args.package.resolve()
    saved = sys.dont_write_bytecode, list(sys.path)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(package.parent))
    try:
        argv = ["-p", "no:cacheprovider", *(pytest_args or ["-q", "tests"])]
        code, ran = trace_lines(package, lambda: pytest.main(argv))
    finally:
        sys.dont_write_bytecode, sys.path[:] = saved
    total = missed = 0
    for name, (count, lines) in never_ran(package, ran).items():
        total, missed = total + count, missed + len(lines)
        print(f"{name}: {len(lines)} of {count} statements never ran" + "".join(f" {x}" for x in lines))
    print(f"total: {missed} of {total} statements never ran; pytest exit code {int(code)}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
