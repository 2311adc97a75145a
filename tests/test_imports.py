"""Every name a module of the package imports is used in that module, every
local a function assigns is read, and every function, method and class the
package defines is read somewhere, and outside the tests for all but a
pinned set of objects of the paper's argument.

A stdlib ``ast`` walk stands in for a linter: an import is unused when the
name it binds is never read, neither in code, in an annotation (quoted ones
included) nor in ``__all__``.  A local is unused when no code in its
function, nested functions included, reads it; names starting with ``_``
are exempt.  A definition is unread when no module under ``src/``,
``tests/`` or ``perfbench/`` reads its name as a name, an attribute, an
imported name or an identifier string (``__all__`` entries, ``getattr``
keys); mentions in prose do not count, and dunders are exempt.  A
defaulted public parameter is unset when no call of its function's name
passes it, by keyword, by position or through a splat.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "flatbeck"
MODULES = sorted(PACKAGE.glob("*.py"))
READERS = sorted(
    path for tree in ("src", "tests", "perfbench") for path in (ROOT / tree).rglob("*.py")
)


def _bound_imports(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import in the module -> line of the import."""
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _names(tree: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


def _used_names(tree: ast.Module) -> set[str]:
    used = _names(tree)
    for ann in _annotations(tree):
        for n in ast.walk(ann) if ann is not None else ():
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                used |= _names(ast.parse(n.value, mode="eval"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return used


def unused_imports(source: str) -> list[tuple[str, int]]:
    tree = ast.parse(source)
    used = _used_names(tree)
    return sorted(
        (name, line) for name, line in _bound_imports(tree).items() if name not in used
    )


def unused_locals(source: str) -> list[tuple[str, str, int]]:
    """(function, name, line of first assignment) for every unread local."""
    found = set()
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stored: dict[str, int] = {}
        read: set[str] = set()
        for n in ast.walk(fn):
            if isinstance(n, ast.Name):
                if isinstance(n.ctx, ast.Store):
                    stored.setdefault(n.id, n.lineno)
                else:
                    read.add(n.id)
        found |= {
            (fn.name, name, line)
            for name, line in stored.items()
            if name not in read and not name.startswith("_")
        }
    return sorted(found)


class TestUnusedImports:
    def test_detector_flags_an_unused_name(self):
        src = "from math import floor, sqrt\nimport os\nx = sqrt(2)\n"
        assert unused_imports(src) == [("floor", 1), ("os", 2)]

    def test_detector_counts_annotations_and_all(self):
        src = (
            "from typing import Optional, Sequence\n"
            "from fractions import Fraction\n"
            "__all__ = ['Fraction']\n"
            "def f(a: Sequence) -> 'Optional[int]':\n"
            "    return None\n"
        )
        assert unused_imports(src) == []

    @pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
    def test_module_uses_every_import(self, path):
        assert unused_imports(path.read_text()) == []


class TestUnusedLocals:
    def test_detector_flags_an_unread_local(self):
        src = (
            "def f(xs):\n"
            "    total = 0\n"
            "    for i, x in enumerate(xs):\n"
            "        total += x\n"
            "    return len(xs)\n"
        )
        assert unused_locals(src) == [("f", "i", 3), ("f", "total", 2)]

    def test_detector_counts_closures_and_exempts_underscore(self):
        src = (
            "def f(xs):\n"
            "    k = 2\n"
            "    def g(x):\n"
            "        return x * k\n"
            "    return [g(x) for _ in xs for x in xs]\n"
        )
        assert unused_locals(src) == []

    @pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
    def test_module_reads_every_local(self, path):
        assert unused_locals(path.read_text()) == []


def _read_identifiers(tree: ast.AST) -> set[str]:
    read: set[str] = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            read.add(n.id)
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            read.add(n.attr)
        elif isinstance(n, ast.alias):
            read.add(n.name.rsplit(".", 1)[-1])
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.isidentifier():
            read.add(n.value)
    return read


def unused_definitions(
    defining: dict[str, str], readers: list[str]
) -> list[tuple[str, str, int]]:
    """(module, name, line) for every function, method or class defined in
    a defining source whose name no reader source reads."""
    read: set[str] = set()
    for source in readers:
        read |= _read_identifiers(ast.parse(source))
    return sorted(
        (module, n.name, n.lineno)
        for module, source in defining.items()
        for n in ast.walk(ast.parse(source))
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (n.name.startswith("__") and n.name.endswith("__"))
        and n.name not in read
    )


class TestUnusedDefinitions:
    def test_detector_flags_an_unread_definition(self):
        lib = (
            "class A:\n"
            "    def used(self):\n"
            "        return 1\n"
            "    def dead(self):\n"
            "        '''Call used() instead.'''\n"
            "    def __len__(self):\n"
            "        return 0\n"
            "def f():\n"
            "    return A().used()\n"
            "def g():\n"
            "    pass\n"
        )
        user = "from lib import f\nHANDLERS = {'go': getattr(f, 'g')}\n"
        assert unused_definitions({"lib": lib}, [lib, user]) == [("lib", "dead", 4)]

    def test_package_defines_nothing_unread(self):
        defining = {path.name: path.read_text() for path in MODULES}
        readers = [path.read_text() for path in READERS]
        assert unused_definitions(defining, readers) == []

    # Objects of the paper's argument that only tests read so far.  The set
    # only shrinks: each leaves it when the command that owns its object
    # reports it.
    PAPER_OBJECTS = {
        ("flatcollect.py", "find_minimal_subfamily"),
        ("measures.py", "good_position_margin"),
        ("stability.py", "projected_stability_check"),
        ("stability.py", "rank_inequality_report"),
        ("thin.py", "marginal_heavy_set"),
    }

    def test_no_definition_only_tests_read(self):
        """Every other definition has a reader outside the tests: the
        package, the benchmark, the bench scripts or the acceptance
        criteria.  A definition elsewhere with the same name counts as a
        read, so this walk cannot see such a name go unread."""
        defining = {path.name: path.read_text() for path in MODULES}
        readers = [
            path.read_text()
            for tree in ("src", "perfbench", "bench")
            for path in (ROOT / tree).rglob("*.py")
        ] + [(ROOT / "tests" / "test_acceptance.py").read_text()]
        found = {(module, name) for module, name, _ in unused_definitions(defining, readers)}
        assert found == self.PAPER_OBJECTS


def _public_functions(tree: ast.Module):
    """(name a call reads, function, whether it takes self or cls) for each
    public function and each public method, __init__ included under its
    class's name, of a public class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node, False
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef) and (fn.name == "__init__" or not fn.name.startswith("_")):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)
                    yield (node.name if fn.name == "__init__" else fn.name), fn, not static


def defaulted_parameters(source: str):
    """(function, parameter, positional index or None) for every parameter
    with a default, positional or keyword-only, of a public function or
    method."""
    for called, fn, bound in _public_functions(ast.parse(source)):
        a = fn.args
        positional = (a.posonlyargs + a.args)[bound:]
        for i, arg in enumerate(positional[len(positional) - len(a.defaults) :]):
            yield called, arg.arg, len(positional) - len(a.defaults) + i
        for arg, default in zip(a.kwonlyargs, a.kw_defaults):
            if default is not None:
                yield called, arg.arg, None


def unset_parameters(defining: dict[str, str], readers: list[str]) -> list[tuple[str, str, str]]:
    """(module, function, parameter) for every defaulted public parameter
    that no call in a reader source sets.  A call sets it when the call's
    name (a name or an attribute) is the function's and it passes the
    parameter by keyword, by position (a * splat reaches every position) or
    through a ** splat."""
    calls: dict[str, list[ast.Call]] = {}
    for source in readers:
        for n in ast.walk(ast.parse(source)):
            if isinstance(n, ast.Call) and isinstance(n.func, (ast.Name, ast.Attribute)):
                calls.setdefault(getattr(n.func, "id", None) or n.func.attr, []).append(n)

    def sets(call: ast.Call, name: str, index) -> bool:
        if any(k.arg in (name, None) for k in call.keywords):
            return True
        return index is not None and (
            len(call.args) > index or any(isinstance(x, ast.Starred) for x in call.args)
        )

    return sorted(
        (module, called, name)
        for module, source in defining.items()
        for called, name, index in defaulted_parameters(source)
        if not any(sets(c, name, index) for c in calls.get(called, ()))
    )


class TestUnsetParameters:
    LIB = (
        "class A:\n"
        "    def __init__(self, x, y=1, *, z=2):\n"
        "        pass\n"
        "    def m(self, a, b=0):\n"
        "        pass\n"
        "    @staticmethod\n"
        "    def s(a=0):\n"
        "        pass\n"
        "def f(p, q=1, r=2):\n"
        "    pass\n"
        "def _private(k=0):\n"
        "    pass\n"
    )

    def test_detector_flags_a_parameter_no_call_sets(self):
        assert len(list(defaulted_parameters(self.LIB))) == 6
        user = "A(0)\nA(0).m(1)\nf(1)\nA.s()\n"
        assert unset_parameters({"lib": self.LIB}, [user]) == [
            ("lib", "A", "y"), ("lib", "A", "z"), ("lib", "f", "q"), ("lib", "f", "r"),
            ("lib", "m", "b"), ("lib", "s", "a"),
        ]

    def test_detector_counts_keywords_positions_and_splats(self):
        user = "A(0, 5, z=3)\nobj.m(1, 2)\nf(1, **kw)\nA.s(*args)\n"
        assert unset_parameters({"lib": self.LIB}, [user]) == []

    def test_no_parameter_only_tests_set(self):
        """Every defaulted public parameter of the package is set by some
        call outside the tests: in the package, the benchmark, the bench
        scripts or the acceptance criteria.  The pinned set only shrinks."""
        defining = {path.name: path.read_text() for path in MODULES}
        readers = [
            path.read_text()
            for tree in ("src", "perfbench", "bench")
            for path in (ROOT / tree).rglob("*.py")
        ] + [(ROOT / "tests" / "test_acceptance.py").read_text()]
        assert set(unset_parameters(defining, readers)) == set()
