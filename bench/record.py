"""Record a benchmark trajectory: the parent commit against the working tree.

    python3 bench/record.py --pr <n> [--first-seed 1]

Run it from anywhere inside a flatbeck checkout; it uses only the standard
library and git.  The working tree is the change side.  The parent side is
HEAD when the working tree differs from HEAD (untracked files included),
and HEAD's first parent when it does not, so a clean checkout of a commit
is measured against the commit before it.  The parent is exported with
``git archive`` into a temporary directory, so the repository gains no
worktree entry.  Then, for ten seeds from the first seed on and each
workload in BENCHMARK.json, it runs the benchmark command for the run length
BENCHMARK.json fixes, once on each side, alternating from pair to pair which
side runs first, and writes ``BENCH_<n>.json`` at the root of the checkout:
the SHAs, the git tree ids of the code each side ran, each side's line
count of ``src/flatbeck/*.py`` in total (``src_lines``) and per file
(``src_files``), the Python version, the number of usable
CPUs, every pair's end-to-end metrics and, per workload and side, the
median and quartiles of ``work_ref``, ``setup_s`` and ``peak_rss_mb`` with
``correct`` and ``failed``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRICS = ("work_ref", "setup_s", "peak_rss_mb")
SIDES = ("parent", "change")
PAIRS = 10
# the directories the benchmark command reads its code and inputs from
CODE = ("src", "perfbench", "scenes")


def _git(root: Path, *args: str, env=None) -> str:
    return subprocess.run(
        ["git", *args], cwd=root, capture_output=True, text=True, check=True, env=env
    ).stdout.strip()


def identify_sides(root: Path) -> dict[str, dict]:
    """The commit each side stands on and the git tree id of each CODE
    directory it runs.  The change side's trees are written from the working
    tree through a scratch index, so they equal ``git rev-parse
    <commit>:<dir>`` of any commit that holds the same files."""
    head = _git(root, "rev-parse", "HEAD")
    dirty = bool(_git(root, "status", "--porcelain"))
    parent = head if dirty else _git(root, "rev-parse", "--verify", "HEAD^")
    with tempfile.TemporaryDirectory(prefix="bench-index-") as d:
        env = {**os.environ, "GIT_INDEX_FILE": os.path.join(d, "index")}
        _git(root, "add", "--all", "--", *CODE, env=env)
        change = {c: _git(root, "write-tree", f"--prefix={c}/", env=env) for c in CODE}
    return {
        "parent": {"sha": parent, "trees": {c: _git(root, "rev-parse", f"{parent}:{c}") for c in CODE}},
        "change": {"head_sha": head, "working_tree_dirty": dirty, "trees": change},
    }


def src_files(root: Path) -> dict[str, int]:
    """The line count of each package source under root, src/flatbeck/*.py,
    by file name."""
    return {p.name: len(p.read_text().splitlines()) for p in sorted((root / "src" / "flatbeck").glob("*.py"))}


def _export(root: Path, sha: str, dest: str) -> None:
    """Write the tree of commit sha of the repository at root into dest."""
    data = subprocess.run(
        ["git", "archive", "--format=tar", sha], cwd=root, capture_output=True, check=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        # the archive comes from this repository; the filter only exists
        # on interpreters that have it
        tar.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))


def run_once(command: list[str], root: Path, workload: str, seed: int, seconds: float) -> str:
    """The last line of one benchmark run, the JSON result."""
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(command + args, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{root}: {workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return lines[-1]


def _spread(values: list[float]) -> dict[str, float]:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[tuple[str, int, str, str]]) -> dict[str, dict]:
    """Per workload, the summary of (workload, seed, side, result line)
    runs, side being "parent" or "change".  A pair is the two runs of one
    workload at one seed; work_ref_wins counts the pairs whose change has
    the lower work_ref."""
    by: dict[str, dict[str, dict[int, dict]]] = {}
    for workload, seed, side, line in runs:
        if side not in SIDES:
            raise ValueError(f"unknown side {side!r}")
        by.setdefault(workload, {s: {} for s in SIDES})[side][seed] = json.loads(line)
    out = {}
    for workload, sides in sorted(by.items()):
        summary: dict[str, object] = {}
        for side, results in sides.items():
            rs = [results[s] for s in sorted(results)]
            summary[side] = {
                "runs": len(rs),
                "correct": bool(rs) and all(r["correct"] is True for r in rs),
                "failed": sum(r["failed"] for r in rs),
                **{m: _spread([r["metrics"][m]["value"] for r in rs]) for m in METRICS if rs},
            }
        paired = sorted(set(sides["parent"]) & set(sides["change"]))
        summary["pairs"] = len(paired)
        summary["work_ref_wins"] = sum(
            sides["change"][s]["metrics"]["work_ref"]["value"]
            < sides["parent"][s]["metrics"]["work_ref"]["value"]
            for s in paired
        )
        out[workload] = summary
    return out


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--pr", type=int, required=True, help="number in the output name BENCH_<pr>.json")
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args(argv)
    sides = identify_sides(ROOT)
    workloads = [w["name"] for w in bench["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + PAIRS))
    runs, pairs = [], []
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as parent_root:
        _export(ROOT, sides["parent"]["sha"], parent_root)
        roots = {"parent": Path(parent_root), "change": ROOT}
        files = {side: src_files(root) for side, root in roots.items()}
        for i, seed in enumerate(seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for workload in workloads:
                pair = {"workload": workload, "seed": seed, "first": order[0]}
                for side in order:
                    line = run_once(bench["command"], roots[side], workload, seed, bench["run_seconds"])
                    runs.append((workload, seed, side, line))
                    result = json.loads(line)
                    pair[side] = {m: result["metrics"][m]["value"] for m in METRICS}
                    pair[side].update(correct=result["correct"], failed=result["failed"])
                    print(f"seed {seed} {workload} {side}: {pair[side]}", file=sys.stderr)
                pairs.append(pair)
    record = {
        "sides": sides,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "seconds": bench["run_seconds"],
        "seeds": seeds,
        "src_lines": {side: sum(counts.values()) for side, counts in files.items()},
        "src_files": files,
        "workloads": summarize(runs),
        "pairs": pairs,
    }
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
