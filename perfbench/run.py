"""flatbeck benchmark: one workload per run, timed in whole passes.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a flatbeck checkout; it imports flatbeck from
``src/``.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones (``setup_s``, ``work_ref``,
``peak_rss_mb``); with ``--trace 1`` they are the per-layer counts and self
times of one set-up plus one pass.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import refkernel
import workloads

ROOT = Path(__file__).resolve().parent.parent

# set-up is repeated at least this many times and for at least this long,
# and the median reported
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
MIN_PASSES = 2
# a kernel window lasts at least this long, and at least this share of the
# items on either side of it
WINDOW_MIN_S = 0.025
WINDOW_SHARE = 0.1


def _import_flatbeck() -> float:
    """Import every flatbeck module afresh; seconds taken."""
    for name in [m for m in sys.modules if m == "flatbeck" or m.startswith("flatbeck.")]:
        del sys.modules[name]
    t0 = time.perf_counter()
    import flatbeck.cli  # noqa: F401  (pulls in every other module)
    return time.perf_counter() - t0


def _kernel_window(*item_seconds: float) -> float:
    """Seconds per kernel run, over a window sized to the given items."""
    seconds = max((WINDOW_SHARE * t for t in item_seconds), default=0.0)
    return refkernel.window(max(WINDOW_MIN_S, seconds))


def _setup(build, seed: int):
    """Import flatbeck and build the workload, repeatedly, with a kernel
    window after each repetition.  Returns the last build's items, the raw
    seconds of every repetition, and each in seconds at the kernel's
    nominal speed."""
    raw, norm = [], []
    before = _kernel_window()
    while len(raw) < SETUP_REPEATS or sum(raw) < SETUP_MIN_S:
        t_import = _import_flatbeck()
        t0 = time.perf_counter()
        items = build(seed)
        dt = t_import + time.perf_counter() - t0
        after = _kernel_window(dt)
        raw.append(dt)
        norm.append(dt * refkernel.NOMINAL_S / ((before + after) / 2))
        before = after
    return items, raw, norm


def _run_item(item):
    """(seconds, result, error) of one timed call."""
    t0 = time.perf_counter()
    try:
        result = item.run()
    except Exception:  # a crashing item is counted as failed, the run goes on
        return time.perf_counter() - t0, None, traceback.format_exc(limit=3)
    return time.perf_counter() - t0, result, None


class Passes:
    """Runs whole passes over the items until the time is up, timing the
    reference kernel between consecutive items."""

    def __init__(self, items):
        self.items = items
        self.norm: list[float] = []  # per pass: sum of item time / kernel time
        self.raw: list[float] = []  # per pass: sum of item wall seconds
        self.kernel: list[float] = []  # seconds per kernel run, per window
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.faults: set[str] = set()
        self._digests: dict[str, object] = {}
        self._prev_dts: list[float] = []

    def _window(self, *item_seconds: float) -> float:
        per_run = _kernel_window(*item_seconds)
        self.kernel.append(per_run)
        return per_run

    def one_pass(self) -> None:
        # the window between two items is sized to both: the one just run
        # and the next one as long as it took in the previous pass
        prev = self._prev_dts or [0.0] * len(self.items)
        before = self._window(prev[0])
        norm = 0.0
        dts, results = [], []
        for i, item in enumerate(self.items):
            dt, result, error = _run_item(item)
            after = self._window(dt, prev[i + 1] if i + 1 < len(prev) else 0.0)
            norm += dt / ((before + after) / 2)
            before = after
            dts.append(dt)
            results.append((item, result, error))
        self._prev_dts = dts
        self.norm.append(norm)
        self.raw.append(sum(dts))
        for item, result, error in results:
            self._check(item, result, error)

    def _check(self, item, result, error) -> None:
        self.attempted += 1
        fault = error or item.known_fault(result)
        if fault:
            self.failed += 1
            self.faults.add(f"{item.label}: {fault.strip()}")
            return
        digest = item.digest(result)
        if item.label not in self._digests:
            self._digests[item.label] = digest
            self.problems += [f"{item.label}: {p}" for p in item.verify(result)]
        elif digest != self._digests[item.label]:
            self.problems.append(f"{item.label}: result differs from the first pass")

    def run(self, seconds: float) -> None:
        start = time.perf_counter()
        while len(self.norm) < MIN_PASSES or time.perf_counter() - start < seconds:
            self.one_pass()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    os.chdir(ROOT)
    src = ROOT / "src"
    if not (src / "flatbeck" / "__init__.py").is_file():
        print(f"no flatbeck sources under {src}: run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    build = workloads.BUILDERS[args.workload]
    tracer = None
    if args.trace:
        import tracing

        _import_flatbeck()
        tracer = tracing.install()
        items = build(args.seed)
        setup_metrics = tracer.metrics()
        setup_raw = setup_s = []
    else:
        items, setup_raw, setup_s = _setup(build, args.seed)

    passes = Passes(items)
    passes.run(args.seconds)

    work_ref = statistics.median(passes.norm)
    print(f"workload {args.workload} seed {args.seed}: {len(passes.norm)} passes of {len(items)} items")
    print("set-up raw s: " + " ".join(f"{x:.4f}" for x in setup_raw))
    print("set-up s:     " + " ".join(f"{x:.4f}" for x in setup_s))
    print("pass raw s:   " + " ".join(f"{x:.4f}" for x in passes.raw))
    print("pass ref:     " + " ".join(f"{x:.4f}" for x in passes.norm))
    print(
        f"kernel ms: median {1000 * statistics.median(passes.kernel):.3f} "
        f"min {1000 * min(passes.kernel):.3f} max {1000 * max(passes.kernel):.3f}"
    )
    for fault in sorted(passes.faults):
        print(f"failed item: {fault}")
    for problem in passes.problems:
        print(f"WRONG: {problem}")

    if tracer is not None:
        total = tracer.metrics()
        n = len(passes.norm)
        metrics = {
            # one set-up plus the mean pass
            name: setup_metrics[name] + (total[name] - setup_metrics[name]) / n
            for name in total
        }
        # a ratio does not add up: take it over the whole run
        metrics["beck.distinct_per_candidate"] = total["beck.distinct_per_candidate"]
        print(f"traced work_ref {work_ref:.4f}")
        units = {name: ("ms" if name.endswith("_ms") else "count") for name in metrics}
        units["beck.distinct_per_candidate"] = "ratio"
        out_metrics = {k: {"value": metrics[k], "unit": units[k]} for k in sorted(metrics)}
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out_metrics = {
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "work_ref": {"value": work_ref, "unit": "ref"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
    print(
        json.dumps(
            {
                "correct": not passes.problems,
                "attempted": passes.attempted,
                "failed": passes.failed,
                "metrics": out_metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
