import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_record", Path(__file__).resolve().parent.parent / "bench" / "record.py"
)
record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)


def line(work_ref, setup_s=0.1, rss=20.0, correct=True, failed=0):
    """A benchmark result line as perfbench/run.py prints it last."""
    metrics = {"setup_s": (setup_s, "s"), "work_ref": (work_ref, "ref"), "peak_rss_mb": (rss, "MB")}
    return json.dumps(
        {
            "correct": correct,
            "attempted": 8,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    )


class TestSummarize:
    def test_medians_quartiles_and_wins(self):
        parent = [100.0, 104.0, 96.0, 110.0, 90.0]
        change = [60.0, 50.0, 97.0, 55.0, 58.0]  # loses the pair at seed 3
        runs = [("plate-mass", s, "parent", line(w, setup_s=0.05 + s / 100)) for s, w in enumerate(parent, 1)]
        runs += [("plate-mass", s, "change", line(w, rss=21.0 + s)) for s, w in enumerate(change, 1)]
        out = record.summarize(runs[::-1])["plate-mass"]
        assert out["pairs"] == 5 and out["work_ref_wins"] == 4
        assert out["parent"]["work_ref"] == {"median": 100.0, "q1": 96.0, "q3": 104.0}
        assert out["change"]["work_ref"] == {"median": 58.0, "q1": 55.0, "q3": 60.0}
        assert out["parent"]["setup_s"]["median"] == pytest.approx(0.08)
        assert out["change"]["peak_rss_mb"] == {"median": 24.0, "q1": 23.0, "q3": 25.0}
        assert out["parent"]["correct"] is True and out["parent"]["failed"] == 0
        assert out["parent"]["runs"] == out["change"]["runs"] == 5

    def test_a_wrong_or_failed_run_shows(self):
        runs = [
            ("cli-scenes", 1, "parent", line(200.0)),
            ("cli-scenes", 2, "parent", line(210.0)),
            ("cli-scenes", 1, "change", line(120.0, failed=2)),
            ("cli-scenes", 2, "change", line(130.0, correct=False)),
            ("beck-spans", 1, "parent", line(43.0)),
            ("beck-spans", 1, "change", line(43.0)),
        ]
        out = record.summarize(runs)
        assert list(out) == ["beck-spans", "cli-scenes"]
        assert out["cli-scenes"]["change"]["correct"] is False
        assert out["cli-scenes"]["change"]["failed"] == 2
        assert out["cli-scenes"]["parent"]["correct"] is True
        assert out["cli-scenes"]["work_ref_wins"] == 2
        # a single run is its own median and quartiles; a tie is no win
        assert out["beck-spans"]["parent"]["work_ref"] == {"median": 43.0, "q1": 43.0, "q3": 43.0}
        assert out["beck-spans"]["work_ref_wins"] == 0

    def test_unknown_side_rejected(self):
        with pytest.raises(ValueError):
            record.summarize([("plate-mass", 1, "base", line(1.0))])


def git(root, *args):
    return record._git(root, "-c", "user.name=t", "-c", "user.email=t@t", *args)


class TestIdentifySides:
    def test_parent_and_trees_follow_the_working_tree(self, tmp_path):
        git(tmp_path, "init", "-q")
        for c in record.CODE:
            (tmp_path / c).mkdir()
            (tmp_path / c / "a.py").write_text(f"{c} = 1\n")
        (tmp_path / ".gitignore").write_text("__pycache__/\n")
        git(tmp_path, "add", "-A")
        git(tmp_path, "commit", "-qm", "base")
        base = git(tmp_path, "rev-parse", "HEAD")
        (tmp_path / "src" / "a.py").write_text("src = 2\n")
        git(tmp_path, "commit", "-qam", "change")
        head = git(tmp_path, "rev-parse", "HEAD")

        # a clean tree is measured against the commit before it
        clean = record.identify_sides(tmp_path)
        assert clean["parent"]["sha"] == base
        assert clean["change"] == {
            "head_sha": head,
            "working_tree_dirty": False,
            "trees": {c: git(tmp_path, "rev-parse", f"HEAD:{c}") for c in record.CODE},
        }
        assert clean["parent"]["trees"]["src"] == git(tmp_path, "rev-parse", f"{base}:src")

        # an untracked file makes the tree dirty and enters its tree id; an
        # ignored one does not
        (tmp_path / "src" / "new.py").write_text("x = 1\n")
        (tmp_path / "src" / "__pycache__").mkdir()
        (tmp_path / "src" / "__pycache__" / "a.pyc").write_bytes(b"\0")
        dirty = record.identify_sides(tmp_path)
        assert dirty["parent"]["sha"] == head and dirty["change"]["working_tree_dirty"]
        assert dirty["change"]["trees"]["src"] != clean["change"]["trees"]["src"]
        assert dirty["change"]["trees"]["scenes"] == clean["change"]["trees"]["scenes"]
        git(tmp_path, "add", "-A")
        git(tmp_path, "commit", "-qm", "new")
        assert dirty["change"]["trees"]["src"] == git(tmp_path, "rev-parse", "HEAD:src")
        assert git(tmp_path, "status", "--porcelain") == ""


class TestSrcLines:
    def test_each_side_counts_its_own_package_sources(self, tmp_path):
        """The change side counts the working tree; the parent side counts
        the tree exported from the parent commit."""
        repo = tmp_path / "repo"
        pkg = repo / "src" / "flatbeck"
        pkg.mkdir(parents=True)
        (pkg / "a.py").write_text("a = 1\nb = 2\n")
        (pkg / "b.py").write_text("c = 3\n")
        (repo / "src" / "other.py").write_text("not = 'counted'\n")
        for c in ("perfbench", "scenes"):
            (repo / c).mkdir()
            (repo / c / "x.py").write_text("x = 1\n")
        git(repo, "init", "-q")
        git(repo, "add", "-A")
        git(repo, "commit", "-qm", "base")
        (pkg / "b.py").write_text("c = 3\nd = 4\ne = 5\n")
        (pkg / "c.py").write_text("f = 6\n")
        sides = record.identify_sides(repo)
        exported = tmp_path / "parent"
        exported.mkdir()
        record._export(repo, sides["parent"]["sha"], str(exported))
        assert record.src_files(exported) == {"a.py": 2, "b.py": 1}
        assert record.src_files(repo) == {"a.py": 2, "b.py": 3, "c.py": 1}
