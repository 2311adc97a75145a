"""Per-layer counts and self times, measured from outside the program.

A layer is one flatbeck module.  ``install`` wraps every public function a
module defines, and rebinds the wrapper wherever a flatbeck module holds the
original (``from .exactlin import rank`` binds its own name, and
``cli.HANDLERS`` holds the command functions), plus the two hot methods
``AffineFlat.from_points`` and ``PlateMassOracle.masses_near_line``.  A
layer's self time is the time inside its wrapped calls minus the time in
wrapped calls they made; work in unwrapped code (methods, dunders) counts to
the nearest wrapped caller.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter

LAYERS = (
    "beck",
    "cli",
    "decompose",
    "exactlin",
    "flatcollect",
    "flats",
    "genscenes",
    "measures",
    "project",
    "stability",
    "thin",
)

# calls counted one by one, as "<layer>.<function>.calls"
COUNTED = (
    "exactlin.det",
    "exactlin.rank",
    "exactlin.canonical_rref",
    "stability.minor_floors",
    "stability.build_matrix",
    "flats.affinely_independent",
    "flats.from_points",
    "flats.dist2_point_flat",
    "beck.enumerate_spanned_flats",
    "measures.mass_near_flat",
    "project.join_meet",
    "thin.masses_near_line",
)


class Tracer:
    def __init__(self):
        self.counts: Counter = Counter()
        self.self_s: Counter = Counter()
        self._children: list[float] = []  # time in wrapped callees, per open call

    def _enter(self, key: str, layer: str) -> None:
        self.counts[layer] += 1
        self.counts[key] += 1
        self._children.append(0.0)

    def _leave(self, layer: str, elapsed: float) -> None:
        self.self_s[layer] += elapsed - self._children.pop()
        if self._children:
            self._children[-1] += elapsed

    def wrap(self, layer: str, name: str, fn):
        key = f"{layer}.{name}"
        clock = time.perf_counter

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                self._enter(key, layer)
                t0 = clock()
                try:
                    inner = fn(*args, **kwargs)
                finally:
                    self._leave(layer, clock() - t0)
                while True:
                    self._children.append(0.0)
                    t0 = clock()
                    try:
                        value = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._leave(layer, clock() - t0)
                    self.counts[key + ".yields"] += 1
                    yield value

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._enter(key, layer)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._leave(layer, clock() - t0)

        return wrapper

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric from the counts so far."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.counts[layer]
            out[f"{layer}.self_ms"] = self.self_s[layer] * 1000.0
        for key in COUNTED:
            out[f"{key}.calls"] = self.counts[key]
        out["stability.minor_floors.exact_calls"] = self.counts["stability.minor_floors.exact"]
        out["flatcollect.partitions"] = self.counts["flatcollect.iter_partitions.yields"]
        out["beck.distinct_per_candidate"] = self.counts["beck.distinct"] / max(
            1, self.counts["beck.candidates"]
        )
        return out


def _count_exact(tracer: Tracer, fn):
    """minor_floors(m, r, exact): count the calls that take the exact route."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if kwargs.get("exact", args[2] if len(args) > 2 else False):
            tracer.counts["stability.minor_floors.exact"] += 1
        return fn(*args, **kwargs)

    return wrapper


def _count_distinct(tracer: Tracer, fn):
    """enumerate_spanned_flats: distinct flats returned over the subsets it
    tested for affine independence."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        before = tracer.counts["flats.affinely_independent"]
        out = fn(*args, **kwargs)
        tracer.counts["beck.candidates"] += tracer.counts["flats.affinely_independent"] - before
        tracer.counts["beck.distinct"] += len(out)
        return out

    return wrapper


def install() -> Tracer:
    """Wrap the public functions of every layer; returns the tracer that
    collects their counts.  Meant for a process of its own: nothing is
    unwrapped afterwards."""
    tracer = Tracer()
    modules = {layer: importlib.import_module(f"flatbeck.{layer}") for layer in LAYERS}
    replaced: dict[int, object] = {}
    for layer, mod in modules.items():
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                wrapped = tracer.wrap(layer, name, obj)
                if (layer, name) == ("stability", "minor_floors"):
                    wrapped = _count_exact(tracer, wrapped)
                if (layer, name) == ("beck", "enumerate_spanned_flats"):
                    wrapped = _count_distinct(tracer, wrapped)
                replaced[id(obj)] = wrapped
    for mod in modules.values():
        for name, obj in list(vars(mod).items()):
            if id(obj) in replaced:
                setattr(mod, name, replaced[id(obj)])
            elif isinstance(obj, dict):
                for k, v in list(obj.items()):
                    if id(v) in replaced:
                        obj[k] = replaced[id(v)]
    flats, thin = modules["flats"], modules["thin"]
    flats.AffineFlat.from_points = classmethod(
        tracer.wrap("flats", "from_points", flats.AffineFlat.from_points.__func__)
    )
    thin.PlateMassOracle.masses_near_line = tracer.wrap(
        "thin", "masses_near_line", thin.PlateMassOracle.masses_near_line
    )
    return tracer
