"""Discrete Beck dichotomy: enumerate spanned flats of a finite point set,
search for low-dimensional concentration families, count hyperplanes through
a given flat.

The dichotomy buckets the nodes of one pencil walk by dimension, prunes
cover-search subtrees that cannot reach the target, and caps its nodes; it
builds flats only for the family it returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .exactlin import BudgetExceeded, int_rref, vec
from .flats import AffineFlat, _lifted_integer_points, _node_flat, _pencils, spanned_flats

DEFAULT_POINT_BUDGET = 60
COVER_NODE_BUDGET = 1_000_000  # cover-search nodes a dichotomy may expand


class EnumerationBudgetExceeded(BudgetExceeded):
    pass


class PointConfig:
    """Finite set of pairwise distinct rational points."""

    def __init__(self, points: Sequence[Sequence]):
        pts = [vec(p) for p in points]
        if not pts:
            raise ValueError("empty point set")
        n = len(pts[0])
        if any(len(p) != n for p in pts):
            raise ValueError("dimension mismatch")
        if len(set(pts)) != len(pts):
            raise ValueError("points must be pairwise distinct")
        self.ambient_dim = n
        self.points = pts


def enumerate_spanned_flats(x: PointConfig, k: int) -> set[AffineFlat]:
    """All k-planes spanned by k+1 affinely independent points of x,
    deduplicated through the canonical form."""
    n = x.ambient_dim
    if not 1 <= k <= n - 1:
        raise ValueError("need 1 <= k <= n-1")
    return {f for f, _ in spanned_flats(x.points, k, k)}


def concentrated_span_count(x: PointConfig, f: AffineFlat) -> int:
    """Number of spanned hyperplanes containing the given proper flat.

    Such a hyperplane H is spanned by the points of x on it, so the lifted
    f extends to a basis of the lifted H by points of x off f: H is the span
    of f and some n - 1 - dim f points of x off f.  The pencil walk from f
    (flats._pencils, with the points on f as its mask) gives each such span
    once with the points on it; it counts when they span it.
    """
    n = x.ambient_dim
    if f.dim >= n:
        raise ValueError("flat must be proper")
    if f.ambient_dim != n:
        raise ValueError("ambient dimensions differ")
    lifted = _lifted_integer_points(x.points)
    on_f = sum(1 << i for i, v in enumerate(lifted) if f._spans(v))
    return sum(
        len(int_rref([v for i, v in enumerate(lifted) if mask >> i & 1])[0]) == n
        for picks, _, mask in _pencils(lifted, f._rows, on_f, n - 1 - f.dim)
        if len(picks) == n - 1 - f.dim
    )


@dataclass
class DichotomyReport:
    concentrated: Optional[bool]  # None when a budget cut the search off
    family: Optional[list[AffineFlat]]
    covered: Optional[int]
    hyperplane_count: Optional[int]
    ratio: Optional[float]
    complete: bool
    note: Optional[str] = None


def dichotomy_report(
    x: PointConfig,
    epsilon: Fraction = Fraction(1, 10),
    budget: int = DEFAULT_POINT_BUDGET,
) -> DichotomyReport:
    """Either exhibit flats with dimension sum <= n-1 covering at least a
    (1 - epsilon) fraction of the points, or report that none exists.  Both
    outcomes carry the spanned hyperplane count and its ratio to N^n.

    Candidate flats are spanned by point subsets and have dimension >= 1
    (zero-dimensional flats would cover any finite set for free and void the
    dichotomy); the search walks families in decreasing dimension budget.
    Over a budget the report is incomplete and its verdict None.
    """
    n = x.ambient_dim
    big_n = len(x.points)
    if big_n > budget:
        return DichotomyReport(
            None, None, None, None, None, complete=False,
            note=f"point count {big_n} exceeds budget {budget}",
        )
    if n < 2:
        raise ValueError("spanned hyperplanes need ambient dimension >= 2")
    need = big_n - math.floor(epsilon * big_n)
    # (popcount, cover mask, (picks, rows)) per dimension 1..n-1, from one walk
    lifted = _lifted_integer_points(x.points)
    by_dim: list[list] = [[] for _ in range(n)]
    for picks, rows, mask in _pencils(lifted, (), 0, n):
        if len(picks) > 1:
            by_dim[len(picks) - 1].append((mask.bit_count(), mask, (picks, rows)))
    for cands in by_dim:
        cands.sort(key=lambda t: -t[0])  # dominated masks are useless for covering
    count = len(by_dim[n - 1])
    ratio = count / float(big_n) ** n
    # best[b]: the most points a family of dimension sum <= b can cover
    top = [c[0][0] if c else 0 for c in by_dim]
    best = [0]
    for b in range(1, n):
        best.append(max(top[d] + best[b - d] for d in range(1, b + 1)))
    try:
        hit = _first_cover(by_dim, best, need, n - 1, 0, [], n - 1, [0])
    except EnumerationBudgetExceeded as e:
        return DichotomyReport(None, None, None, count, ratio, complete=False, note=str(e))
    if hit is not None:
        family = [_node_flat(x.points, lifted, picks, rows) for picks, rows in hit[1]]
        return DichotomyReport(True, family, hit[0], count, ratio, complete=True)
    return DichotomyReport(False, None, None, count, ratio, complete=True)


def _first_cover(
    by_dim: list[list[tuple[int, int, tuple]]], best: list[int], need: int,
    dim_budget: int, mask: int, chosen: list[tuple], start_dim: int, nodes: list[int],
) -> Optional[tuple[int, list[tuple]]]:
    """(covered, family) for the first family of pencil nodes (picks, rows),
    in decreasing dimension, that extends chosen within dim_budget and
    covers at least need points; None when there is none.  Subtrees where
    covered + best[b] cannot reach need are skipped, and a dimension's
    candidates, by popcount highest first, stop at the first that cannot,
    so the first hit is the unbounded search's.  nodes[0] counts expanded
    nodes against COVER_NODE_BUDGET.  Module-level, not a recursive
    closure: a closure that calls itself is a reference cycle that would
    keep by_dim alive until the cycle collector runs."""
    covered = mask.bit_count()
    if covered >= need:
        return covered, chosen
    if covered + best[dim_budget] < need:
        return None
    if nodes[0] >= COVER_NODE_BUDGET:
        raise EnumerationBudgetExceeded(f"cover search exceeds {COVER_NODE_BUDGET} nodes")
    nodes[0] += 1
    for d in range(min(start_dim, dim_budget), 0, -1):
        rest = best[dim_budget - d]
        for pop, cov, node in by_dim[d]:
            if covered + pop + rest < need:
                break
            if cov & ~mask == 0:
                continue  # adds nothing
            hit = _first_cover(by_dim, best, need, dim_budget - d, mask | cov, chosen + [node], d, nodes)
            if hit is not None:
                return hit  # first hit is enough: report it
    return None
