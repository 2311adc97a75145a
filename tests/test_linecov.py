import importlib.util
import sys
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "bench_linecov", Path(__file__).resolve().parent.parent / "bench" / "linecov.py"
)
linecov = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(linecov)

TOY = '''"""A toy module."""


def sign(x):
    """Docstrings are not statements."""
    if x >= 0:
        return 1
    return -1  # the dead branch
'''


def toy_package(tmp_path) -> Path:
    package = tmp_path / "linecov_toy"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "toy.py").write_text(TOY)
    return package


class TestLineCoverage:
    def test_statements_skip_blanks_comments_and_docstrings(self, tmp_path):
        assert linecov.statements(toy_package(tmp_path) / "toy.py") == {1, 4, 6, 7, 8}

    def test_dead_branch_is_the_one_line_never_run(self, tmp_path):
        package = toy_package(tmp_path)

        def run():
            spec = importlib.util.spec_from_file_location("linecov_toy_toy", package / "toy.py")
            toy = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(toy)
            return toy.sign(3), toy.sign(0)

        result, ran = linecov.trace_lines(package, run)
        assert result == (1, 1)
        assert linecov.never_ran(package, ran) == {"__init__.py": (0, []), "toy.py": (5, [8])}

    def test_pytest_run_reports_the_dead_branch_and_writes_no_bytecode(self, tmp_path, capsys):
        package = toy_package(tmp_path)
        test = tmp_path / "test_linecov_toy.py"
        test.write_text("from linecov_toy.toy import sign\n\n\ndef test_sign():\n    assert sign(2) == 1\n")
        assert linecov.main(["--package", str(package), "-q", str(test)]) == 0
        out = capsys.readouterr().out
        assert "toy.py: 1 of 5 statements never ran 8\n" in out
        assert "total: 1 of 5 statements never ran; pytest exit code 0" in out
        assert not (package / "__pycache__").exists()

    def test_ceiling_fails_a_run_that_misses_more_statements(self, tmp_path, capsys):
        package = toy_package(tmp_path)
        test = tmp_path / "test_linecov_toy.py"
        test.write_text("from linecov_toy.toy import sign\n\n\ndef test_sign():\n    assert sign(2) == 1\n")
        ceiling = tmp_path / "ceiling"
        for allowed, code in ((1, 0), (0, 1)):
            ceiling.write_text(f"{allowed}\n")
            for name in [m for m in sys.modules if m.startswith(("linecov_toy", "test_linecov_toy"))]:
                del sys.modules[name]  # so each run imports and traces the toy afresh
            assert linecov.main(["--package", str(package), "--ceiling", str(ceiling), "-q", str(test)]) == code
        out = capsys.readouterr().out
        assert out.count("ceiling: ") == 1
        assert f"ceiling: 1 statements never ran, above the 0 of {ceiling}\n" in out
