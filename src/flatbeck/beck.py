"""Discrete Beck dichotomy: enumerate spanned flats of a finite point set,
search for low-dimensional concentration families, count hyperplanes through
a given flat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Optional, Sequence

from .exactlin import BudgetExceeded, _integerized_rows, vec
from .flats import AffineFlat, _lifted_integer_points, spanned_flats

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
    """Number of spanned hyperplanes containing the given proper flat."""
    n = x.ambient_dim
    if f.dim >= n:
        raise ValueError("flat must be proper")
    return sum(
        1 for h in enumerate_spanned_flats(x, n - 1) if h.contains_flat(f)
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


def _cover_mask(lifted: list[tuple[int, ...]], f: AffineFlat) -> int:
    """Bit i set iff the integer lifted point lifted[i] = (den p, den) lies
    on f.  With the flat's integer RREF rows K_j, pivot k_j in column c_j
    and L = lcm(k_j), v is in their span iff L v = sum_j (L / k_j) v[c_j] K_j;
    the pivot columns agree by construction, so only the others are tested.
    """
    rows = _integerized_rows(f.canon)
    pivots = [next(c for c, x in enumerate(r) if x) for r in rows]
    big_l = math.lcm(*(r[c] for r, c in zip(rows, pivots)))
    scaled = [[big_l // r[c] * x for x in r] for r, c in zip(rows, pivots)]
    free = [(j, [s[j] for s in scaled]) for j in range(len(rows[0])) if j not in pivots]
    mask = 0
    for i, v in enumerate(lifted):
        coeffs = [v[c] for c in pivots]
        if all(big_l * v[j] == sum(map(mul, coeffs, col)) for j, col in free):
            mask |= 1 << i
    return mask


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
    by_dim: dict[int, list[tuple[int, AffineFlat]]] = {d: [] for d in range(1, n)}
    lifted = _lifted_integer_points(x.points)
    for f in spanned_flats(x.points, range(1, n)):
        by_dim[f.dim].append((_cover_mask(lifted, f), f))
    for cands in by_dim.values():
        # dominated masks are useless for covering
        cands.sort(key=lambda t: -bin(t[0]).count("1"))
    count = len(by_dim[n - 1])
    ratio = count / float(big_n) ** n

    best: Optional[tuple[int, list[AffineFlat]]] = None

    def search(dim_budget: int, mask: int, chosen: list[AffineFlat], start_dim: int):
        nonlocal best
        covered = bin(mask).count("1")
        if covered >= need:
            if best is None or covered > best[0]:
                best = (covered, list(chosen))
            return True
        if dim_budget == 0:
            return False
        for d in range(min(start_dim, dim_budget), 0, -1):
            for cov, f in by_dim[d]:
                if cov & ~mask == 0:
                    continue  # adds nothing
                if search(dim_budget - d, mask | cov, chosen + [f], d):
                    return True  # first hit is enough: report it
        return False

    if search(n - 1, 0, [], n - 1) and best is not None:
        return DichotomyReport(True, best[1], best[0], count, ratio, complete=True)
    return DichotomyReport(False, None, None, count, ratio, complete=True)
