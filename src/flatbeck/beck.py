"""Discrete Beck dichotomy: enumerate spanned flats of a finite point set,
search for low-dimensional concentration families, count hyperplanes through
a given flat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .exactlin import BudgetExceeded, pivot_columns, vec
from .flats import AffineFlat, _lifted_integer_points, _pencils, _spanned, spanned_flats

DEFAULT_POINT_BUDGET = 60


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

    def __len__(self) -> int:
        return len(self.points)


def enumerate_spanned_flats(x: PointConfig, k: int) -> set[AffineFlat]:
    """All k-planes spanned by k+1 affinely independent points of x,
    deduplicated through the canonical form."""
    n = x.ambient_dim
    if not 1 <= k <= n - 1:
        raise ValueError("need 1 <= k <= n-1")
    return set(spanned_flats(x.points, [k]))


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
        len(pivot_columns([v for i, v in enumerate(lifted) if mask >> i & 1])) == n
        for _, _, mask in _pencils(lifted, f._rows, on_f, -1, n - 1 - f.dim)
    )


@dataclass
class DichotomyReport:
    concentrated: bool
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
    """
    n = x.ambient_dim
    big_n = len(x.points)
    if big_n > budget:
        return DichotomyReport(
            False, None, None, None, None, complete=False,
            note=f"point count {big_n} exceeds budget {budget}",
        )
    if n < 2:
        raise ValueError("spanned hyperplanes need ambient dimension >= 2")
    need = big_n - math.floor(epsilon * big_n)
    # candidate flats of each dimension 1..n-1 with their cover masks
    by_dim = {d: [(mask, f) for f, mask in _spanned(x.points, d)] for d in range(1, n)}
    for cands in by_dim.values():
        # dominated masks are useless for covering
        cands.sort(key=lambda t: -bin(t[0]).count("1"))
    count = len(by_dim[n - 1])
    ratio = count / float(big_n) ** n

    hit = _first_cover(by_dim, need, n - 1, 0, [], n - 1)
    if hit is not None:
        return DichotomyReport(True, hit[1], hit[0], count, ratio, complete=True)
    return DichotomyReport(False, None, None, count, ratio, complete=True)


def _first_cover(
    by_dim: dict[int, list[tuple[int, AffineFlat]]],
    need: int,
    dim_budget: int,
    mask: int,
    chosen: list[AffineFlat],
    start_dim: int,
) -> Optional[tuple[int, list[AffineFlat]]]:
    """(covered, family) for the first family, in decreasing dimension, that
    extends chosen within dim_budget and covers at least need points; None
    when there is none.  Module-level, not a recursive closure: a closure
    that calls itself is a reference cycle that would keep by_dim alive
    until the cycle collector runs."""
    covered = bin(mask).count("1")
    if covered >= need:
        return covered, chosen
    if dim_budget == 0:
        return None
    for d in range(min(start_dim, dim_budget), 0, -1):
        for cov, f in by_dim[d]:
            if cov & ~mask == 0:
                continue  # adds nothing
            hit = _first_cover(by_dim, need, dim_budget - d, mask | cov, chosen + [f], d)
            if hit is not None:
                return hit  # first hit is enough: report it
    return None
