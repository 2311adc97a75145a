"""Iterative extraction of minimal-dimension concentration flats.

The loop keeps a collection of flats; while its partition cost stays below
the ambient dimension it removes the w-neighborhood of the blockwise joins
of the lexicographically least minimizing partition, finds the lowest-
dimensional flat capturing a theta-fraction of what is left, and appends it.
The trace records cost and minimizing-partition count at every step; on any
cost plateau the count must drop strictly, which is what forces termination.
Every mass and atom mask comes from the measure's own plate oracle; the
concentration search counts pick spans and builds only the flat it returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .exactlin import frac
from .flats import AffineFlat, _node_flat, _pencils, _pick_span
from .flatcollect import FlatCollection, Partition
from .measures import DiscreteMeasure, _oracle_modulus

MAX_STEPS = 200


class NotDiscretelyNC(ValueError):
    pass


@dataclass(frozen=True)
class TraceStep:
    step: int
    cost: int
    n_count: int
    chosen_partition: Partition


@dataclass
class DecompositionResult:
    flats: list[AffineFlat]
    pieces: list[DiscreteMeasure]
    trace: list[TraceStep]
    final_cost: int


def minimal_concentration_flat(mu: DiscreteMeasure, w, theta) -> AffineFlat:
    """Lowest-dimensional flat of dimension at least 1 whose w-neighborhood
    captures at least a theta-fraction of the total mass; candidates are
    spans of atom subsets, searched by dimension then in atom order
    (deterministic tie-break).

    The full space qualifies at dimension n, so for theta <= 1 this always
    returns.  Points are never candidates: zero-dimensional flats add
    nothing to the partition cost, so the extraction loop would lose both
    termination and the plateau invariants.
    """
    w = frac(w)
    theta = frac(theta)
    if not 0 < theta <= 1:
        raise ValueError("theta must lie in (0, 1]")
    threshold = theta * mu.total_mass * mu.weight_den  # as a count over W
    n, oracle, lifted = mu.ambient_dim, mu.oracle, mu.oracle._lifted
    for picks, rows, _ in _pencils(lifted, (), 0, n):
        if len(picks) > 1:
            span = _pick_span([lifted[i] for i in picks])
            if oracle._counts([span], [w * w], (oracle.int_weights,))[0][0][0] >= threshold:
                return _node_flat(mu.points(), lifted, picks, rows)
    return AffineFlat.full_space(n)


def decompose(x: DiscreteMeasure, n: int, w, theta) -> DecompositionResult:
    """Extract concentration flats until the collection's cost reaches n."""
    if x.ambient_dim != n:
        raise ValueError("measure ambient dimension differs from n")
    w = frac(w)
    w2 = w * w
    flats: list[AffineFlat] = []
    pieces: list[DiscreteMeasure] = []
    trace: list[TraceStep] = []
    for step in range(MAX_STEPS + 1):
        coll = FlatCollection(flats)
        cost = coll.cost()
        if cost >= n:
            return DecompositionResult(flats, pieces, trace, final_cost=cost)
        if step == MAX_STEPS:
            raise RuntimeError("decomposition failed to terminate within the step cap")
        n_count, _ = coll.minimizing_census()
        partition = coll.lexicographically_least_minimizer()
        covered = 0
        for block in partition:
            covered |= x.oracle.atoms_near_flat(coll.subset_join(block), w2)
        kept = [a for i, a in enumerate(x.atoms) if not covered >> i & 1]
        if not kept or sum(wt for _, wt in kept) == 0:
            raise NotDiscretelyNC(
                f"input not discretely NC at scale {w}: nothing remains off the "
                f"cost-{cost} cover at step {step}"
            )
        rest = DiscreteMeasure(kept, x.resolution)
        v = minimal_concentration_flat(rest, w, theta)
        near = rest.oracle.atoms_near_flat(v, w2)
        piece_atoms = [a for i, a in enumerate(rest.atoms) if near >> i & 1]
        total = sum(wt for _, wt in piece_atoms)
        piece = DiscreteMeasure(
            [(p, wt / total) for p, wt in piece_atoms], x.resolution
        )
        trace.append(TraceStep(step, cost, n_count, partition))
        flats.append(v)
        pieces.append(piece)


@dataclass
class ClauseReport:
    name: str
    passed: bool
    witness: Optional[str] = None


@dataclass
class DecompositionReport:
    clauses: list[ClauseReport] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.clauses)

    def add(self, name: str, passed: bool, witness: Optional[str] = None):
        self.clauses.append(ClauseReport(name, passed, witness))


def verify_decomposition(r: DecompositionResult, n: int, w, tau) -> DecompositionReport:
    """Check the three output clauses plus the trace invariants.

    (i) every piece is (w, tau)-irreducible within its flat (pieces on point
    flats pass vacuously: a point has no proper subflat), (ii) supports are
    pairwise disjoint, (iii) the flat collection has cost >= n.  The trace
    must have nondecreasing cost, strictly decreasing minimizing-partition
    count on every plateau, and at most one minimizing extension per
    minimizing partition across each plateau step.  The supports check,
    each piece within max(w, its resolution) of its flat, is the one the
    modulus of (i) needs: one core call per piece, at radii 0 and that
    tolerance, gives the modulus its atoms on the flat and the check its mask.
    """
    w = frac(w)
    tau = frac(tau)
    report = DecompositionReport()

    stray = None
    on_flat = []  # per piece, the mask of its atoms on its flat
    for i, (piece, flat) in enumerate(zip(r.pieces, r.flats)):
        radii2 = [Fraction(0), max(w, piece.resolution) ** 2]
        on, near = piece.oracle._flat_counts(flat, radii2, [1 << j for j in range(len(piece))])
        on_flat.append(on)
        off = ~near & ((1 << len(piece)) - 1)
        if off:
            stray = (i, piece.atoms[(off & -off).bit_length() - 1][0])
            break
    report.add(
        "supports-in-flats",
        stray is None,
        None if stray is None else f"piece {stray[0]} atom {stray[1]} off its flat",
    )

    worst: Optional[tuple[int, Fraction]] = None
    if stray is None:
        for i, (piece, flat) in enumerate(zip(r.pieces, r.flats)):
            if flat.dim == 0:
                continue
            mod = _oracle_modulus(piece, flat, w, on_flat[i])
            if worst is None or mod > worst[1]:
                worst = (i, mod)
    if worst is None:
        report.add("irreducible-pieces", stray is None)
    else:
        ok = worst[1] <= tau
        report.add(
            "irreducible-pieces",
            ok,
            None if ok else f"piece {worst[0]} has modulus {worst[1]} > tau {tau}",
        )

    shared = None
    seen: dict[tuple, int] = {}
    for i, piece in enumerate(r.pieces):
        for p, _ in piece.atoms:
            if p in seen and seen[p] != i:
                shared = (seen[p], i, p)
                break
            seen[p] = i
        if shared:
            break
    report.add(
        "disjoint-supports",
        shared is None,
        None if shared is None else f"atom {shared[2]} in pieces {shared[0]} and {shared[1]}",
    )

    coll = FlatCollection(r.flats)
    final_cost = coll.cost()
    report.add(
        "cost-at-least-n",
        final_cost >= n,
        None if final_cost >= n else f"final cost {final_cost} < {n}",
    )

    costs = [t.cost for t in r.trace] + [final_cost]
    counts = [t.n_count for t in r.trace]
    mono = all(a <= b for a, b in zip(costs, costs[1:]))
    report.add("trace-cost-nondecreasing", mono, None if mono else f"costs {costs}")

    plateau_ok = True
    plateau_witness = None
    for i in range(len(r.trace) - 1):
        if r.trace[i].cost == r.trace[i + 1].cost:
            if not counts[i + 1] < counts[i]:
                plateau_ok = False
                plateau_witness = f"plateau at step {i}: N {counts[i]} -> {counts[i+1]}"
                break
    report.add("plateau-count-strictly-decreasing", plateau_ok, plateau_witness)

    ext_ok, ext_witness = _check_extension_uniqueness(r, coll)
    report.add("at-most-one-minimizing-extension", ext_ok, ext_witness)
    return report


def _check_extension_uniqueness(r: DecompositionResult, coll: FlatCollection) -> tuple[bool, Optional[str]]:
    """On each plateau step i, every minimizing partition of the first i
    flats (mask prev of coll's one search) may gain at most one minimizing
    extension: adding flat i to its block b costs least(prev) - dim join(b) +
    dim join(b + (i,)), minimizing when it equals least(prev + flat i)."""
    least, _, minimizers = coll._search
    dim = coll.subset_join_dim
    for i in range(len(r.trace) - 1):
        if r.trace[i].cost != r.trace[i + 1].cost:
            continue
        prev = (1 << i) - 1
        nxt = prev | 1 << i
        for part in minimizers(prev):
            extensions = sum(least[prev] - dim(b) + dim(b + (i,)) == least[nxt] for b in part)
            if extensions > 1:
                return False, f"partition {part} at step {i} has {extensions} minimizing extensions"
    return True, None
