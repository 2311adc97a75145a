"""Fraction references for the integer span algebra: plain Gauss-Jordan
over ``Fraction`` and the join, meet, kernel, solve and flat-distance
constructions built on it, independent of ``int_rref``, a brute-force
spanned-flat enumerator that shares no code with ``flats.spanned_flats``,
a brute-force ball mass that shares none with the plate oracle, and the
hyperplane chart's box key over ``Fraction``.
"""

import itertools
import math
from fractions import Fraction
from typing import Optional, Sequence

from flatbeck.exactlin import Matrix, Vector, vadd, vec, vscale, vsub, zero_vec
from flatbeck.flats import AffineFlat


def fraction_rref(m: Matrix) -> Matrix:
    """Reference reduced row-echelon form: Gauss-Jordan over Fraction, zero
    rows at the bottom."""
    rows = [list(r) for r in m.entries]
    nr, nc = m.rows, m.cols
    pr = 0
    for pc in range(nc):
        if pr >= nr:
            break
        piv = next((i for i in range(pr, nr) if rows[i][pc] != 0), None)
        if piv is None:
            continue
        rows[pr], rows[piv] = rows[piv], rows[pr]
        inv = 1 / rows[pr][pc]
        rows[pr] = [x * inv for x in rows[pr]]
        for i in range(nr):
            if i != pr and rows[i][pc] != 0:
                f = rows[i][pc]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[pr])]
        pr += 1
    return Matrix(rows)


def row_space(rows: Sequence[Sequence]) -> tuple[Vector, ...]:
    """The nonzero rows of the reference RREF."""
    if not rows:
        return ()
    return tuple(r for r in fraction_rref(Matrix(rows)).entries if any(r))


def _pivot_rows(red: Matrix) -> dict[int, Vector]:
    """Pivot column -> RREF row, for the nonzero rows of red."""
    return {next(j for j, x in enumerate(r) if x): r for r in red.entries if any(r)}


def reference_nullspace(m: Matrix) -> list[Vector]:
    """The free-column kernel basis read off the reference RREF: 1 at the
    free column f and minus the RREF entry in column f at each pivot."""
    pivots = _pivot_rows(fraction_rref(m))
    basis = []
    for f in range(m.cols):
        if f in pivots:
            continue
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for c, r in pivots.items():
            v[c] = -r[f]
        basis.append(tuple(v))
    return basis


def reference_solve(m: Matrix, rhs: Sequence) -> Optional[Vector]:
    """The pivot solution of m x = rhs off the reference RREF of the
    augmented matrix, or None when a pivot lands in the rhs column."""
    pivots = _pivot_rows(fraction_rref(Matrix(r + (b,) for r, b in zip(m.entries, vec(rhs)))))
    if m.cols in pivots:
        return None
    return tuple(pivots[c][-1] if c in pivots else Fraction(0) for c in range(m.cols))


def flat_from_span(span_rows: Sequence[Vector]) -> Optional[AffineFlat]:
    """The flat whose lifted span is span(span_rows): the first RREF row with
    a nonzero last coordinate, scaled to 1 there, is the lifted basepoint,
    and the other rows minus their multiple of it are the directions."""
    rows = row_space(span_rows)
    pivot = next((i for i, r in enumerate(rows) if r[-1] != 0), None)
    if pivot is None:
        return None
    base_row = vscale(1 / rows[pivot][-1], rows[pivot])
    dirs = [vsub(r, vscale(r[-1], base_row))[:-1] for i, r in enumerate(rows) if i != pivot]
    return AffineFlat(base_row[:-1], dirs)


def reference_join(fs: Sequence[AffineFlat]) -> AffineFlat:
    return flat_from_span([r for f in fs for r in f.canon])


def reference_meet(f: AffineFlat, g: AffineFlat) -> Optional[AffineFlat]:
    """v = B1^T a = B2^T b for the lifted bases B1, B2: the kernel of
    [B1^T | -B2^T] gives the coefficient vectors (a, b)."""
    b1, b2 = f.canon, g.canon
    m = Matrix.from_cols(list(b1) + [vscale(-1, r) for r in b2], rows=f.ambient_dim + 1)
    inter = []
    for coeffs in reference_nullspace(m):
        v = zero_vec(f.ambient_dim + 1)
        for c, row in zip(coeffs, b1):
            v = vadd(v, vscale(c, row))
        if any(v):
            inter.append(v)
    return flat_from_span(inter) if inter else None


def reference_dist2_flats(f: AffineFlat, g: AffineFlat) -> Fraction:
    """Normal equations: the residual of the offset between the basepoints
    after its least-squares fit by the directions of f and g."""
    r = vsub(g.basepoint, f.basepoint)
    cols = list(f.directions) + [vscale(-1, d) for d in g.directions]
    if not cols:
        return sum((x * x for x in r), Fraction(0))
    m = Matrix.from_cols(cols, rows=f.ambient_dim)
    mt = m.transpose()
    x = reference_solve(mt.mat_mul(m), mt.mat_vec(r))
    assert x is not None  # normal equations are always consistent
    res = vsub(r, m.mat_vec(x))
    return sum((x * x for x in res), Fraction(0))


def reference_spanned_flats(points, dims) -> list[AffineFlat]:
    """Brute force over Fraction: every subset whose lifted points have full
    Fraction rank builds its flat from its first point and the reference
    RREF of its differences, and the flats are deduplicated on the reference
    RREF of the lifted subset."""
    seen = set()
    out = []
    for d in dims:
        for combo in itertools.combinations([vec(p) for p in points], d + 1):
            span = row_space([p + (Fraction(1),) for p in combo])
            if len(span) == d + 1 and span not in seen:
                seen.add(span)
                out.append(AffineFlat(combo[0], row_space([vsub(p, combo[0]) for p in combo[1:]])))
    return out


def reference_max_ball_mass(atoms, radius: Fraction) -> Fraction:
    """Brute force over Fraction: the heaviest closed ball of the radius
    about an atom, for atoms given as (point, weight) pairs."""
    r2 = radius * radius
    return max(
        sum((w for q, w in atoms if sum((a - b) ** 2 for a, b in zip(p, q)) <= r2), Fraction(0))
        for p, _ in atoms
    )


def reference_chart_key(points: Sequence[Sequence], s: Fraction) -> tuple[int, ...]:
    """The box of side s holding the chart point of the hyperplane through
    n affinely independent points of Q^n: with its Fraction normal a from
    the reference kernel of the differences, b = a.p for its first point p,
    and i the first index of maximal |a_i|, the key is i and the floors of
    a_j / a_i (j != i) and b / a_i over s."""
    pts = [vec(p) for p in points]
    (a,) = reference_nullspace(Matrix([vsub(p, pts[0]) for p in pts[1:]]))
    b = sum((x * y for x, y in zip(a, pts[0])), Fraction(0))
    mags = [abs(x) for x in a]
    i = mags.index(max(mags))
    coords = [x / a[i] for j, x in enumerate(a) if j != i] + [b / a[i]]
    return (i, *[math.floor(x / s) for x in coords])
