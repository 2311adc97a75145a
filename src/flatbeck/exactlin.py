"""Exact rational linear algebra on integers.

Vectors are tuples of ``Fraction``; matrices are lists of integer rows, as
callers scale rational ones row by row or column by column, which keeps
ranks, row spaces and normalized minors.  Every elimination runs
fraction-free, so entries stay bounded at the sizes used here (sides up to
a dozen or so).  ``int_rref`` is the one elimination: a Gauss-Jordan pass
whose pivot columns give every rank and whose primitive integer rows are
the canonical form of a row space; ``_residual`` reads the integer kernel
basis off those rows, and ``int_kernel`` is that basis for any rows.
``_wedge`` is the one minor kernel: it grows the row-subset minors of a
column set by a column, so its chain over a square matrix's columns gives
the determinant, and it serves stability certificates, distance forms and
hyperplane normals; ``_cofactors`` wedges each unit column onto a set, and
``wedge_norm2`` sums the squared minors, a Gram determinant.
``orthogonalize`` is the one Gram-Schmidt: unnormalized orthogonal bases
for the basis columns of stability frames.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Iterable, Sequence

Vector = tuple[Fraction, ...]


class BudgetExceeded(RuntimeError):
    """A cap or budget refused the work it bounds; never a ValueError, so
    no input-error handler can swallow it."""


def frac(x) -> Fraction:
    """Coerce ints, strings like '2/3' and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError("refusing to coerce float %r to an exact rational" % (x,))
    return Fraction(x)


def vec(entries: Iterable) -> Vector:
    return tuple(frac(x) for x in entries)


def vadd(a: Vector, b: Vector) -> Vector:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vsub(a: Vector, b: Vector) -> Vector:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def vscale(c, a: Vector) -> Vector:
    c = frac(c)
    return tuple(c * x for x in a)


def dot(a: Vector, b: Vector) -> Fraction:
    return sum((x * y for x, y in zip(a, b, strict=True)), Fraction(0))


def norm2(a: Vector) -> Fraction:
    return dot(a, a)


def zero_vec(n: int) -> Vector:
    return (Fraction(0),) * n


def unit_vec(n: int, i: int) -> Vector:
    return tuple(Fraction(1 if j == i else 0) for j in range(n))


def orthogonalize(cols: Sequence[Sequence]) -> list[Vector]:
    """Gram-Schmidt without normalization."""
    basis: list[Vector] = []
    norms: list[Fraction] = []
    for c in cols:
        v = vec(c)
        for o, s in zip(basis, norms):
            v = vsub(v, vscale(dot(v, o) / s, o))
        if all(x == 0 for x in v):
            raise ValueError("dependent columns in basis input")
        basis.append(v)
        norms.append(norm2(v))
    return basis


def _integerized_rows(rows: Iterable[Vector]) -> list[list[int]]:
    """Row-scaled integer copy: each row times the lcm of its denominators
    (row scaling preserves rank and row spaces)."""
    out = []
    for r in rows:
        den = math.lcm(*(x.denominator for x in r)) if r else 1
        out.append([x.numerator * (den // x.denominator) for x in r])
    return out


def _integerized_points(
    points: Sequence[Vector], den: int = 1
) -> tuple[list[tuple[int, ...]], int]:
    """Scale all points by a common denominator, a multiple of den, so
    distances are integers."""
    for p in points:
        for x in p:
            den = math.lcm(den, x.denominator)
    return [tuple(x.numerator * (den // x.denominator) for x in p) for p in points], den


def _wedge(minors: dict[int, int], col: Sequence[int]) -> dict[int, int]:
    """The one minor kernel.  minors maps a row bit mask to the determinant
    of a column set on those rows, zeros left out; the same for the set with
    col appended, by expansion along col: row i's term takes the sign of the
    number of rows of the new mask after i.  Empty exactly when col is in
    the set's span."""
    out: dict[int, int] = {}
    for mask, d in minors.items():
        for i, x in enumerate(col):
            if x and not mask >> i & 1:
                key = mask | 1 << i
                t = -x * d if (mask >> i).bit_count() & 1 else x * d
                out[key] = out.get(key, 0) + t
    return {k: v for k, v in out.items() if v}


def _cofactors(minors: dict[int, int], width: int) -> list[dict[int, int]]:
    """Per unit vector e_i of Q^width, the minors of the column set of
    minors with e_i appended (_wedge): the coefficients of v_i in the
    minors of the set with v appended, which are linear in v."""
    return [_wedge(minors, [int(j == i) for j in range(width)]) for i in range(width)]


def wedge_norm2(cols: Sequence[Sequence[int]]) -> int:
    """|c_1 ^ ... ^ c_k|^2 = det(C^T C) for integer columns C: by
    Cauchy-Binet, the sum of the squared minors of the wedge chain; 0
    exactly when the columns are dependent, 1 for no columns."""
    return sum(d * d for d in functools.reduce(_wedge, cols, {0: 1}).values())


def _primitive(v: Sequence[int]) -> tuple[int, ...]:
    """v over the gcd of its entries, its first nonzero entry positive."""
    g = math.gcd(*v)
    return tuple([x // g for x in v] if next(filter(None, v)) > 0 else [-x // g for x in v])


def int_rref(rows: Sequence[Sequence[int]]) -> tuple[list[int], list[list[int]]]:
    """Fraction-free Gauss-Jordan elimination of an integer matrix.

    Returns the pivot columns and one row per pivot: the reduced row-echelon
    rows scaled to primitive integer vectors (gcd 1) with positive pivots.
    That scaling is unique, so equal row spaces give equal output.
    """
    m = [list(r) for r in rows]
    nr = len(m)
    pivots: list[int] = []
    for pc in range(len(m[0]) if m else 0):
        pr = len(pivots)
        if pr == nr:
            break
        piv = next((i for i in range(pr, nr) if m[i][pc]), None)
        if piv is None:
            continue
        m[pr], m[piv] = m[piv], m[pr]
        mp = m[pr] = list(_primitive(m[pr]))
        p = mp[pc]
        for i in range(nr):
            f = m[i][pc]
            if f and i != pr:
                r = [a * p - f * b for a, b in zip(m[i], mp)]
                g = math.gcd(*r)
                m[i] = [x // g for x in r] if g > 1 else r
        pivots.append(pc)
    return pivots, m[: len(pivots)]


def _residual(rows: Sequence[Sequence[int]], width: int) -> tuple[list, list, list]:
    """(pivots, free columns, forms) for primitive integer RREF rows in
    Q^width; the residual of v is [sum(map(mul, a, v)) for a in forms].

    With the rows K_i, pivot k_i in column c_i and L = lcm(k_i), the residual
    lists L v[j] - sum_i (L / k_i) v[c_i] K_i[j] over the free columns j: the
    free part of the vector of span(rows, v) that is zero at every pivot.  So
    it is zero iff v lies in the span, and span(rows, u) = span(rows, v) iff
    u's is a multiple of v's.  Scaling v does not change the answer.  The
    forms are an integer basis of the kernel of the rows (int_kernel).
    """
    pivots = [next(c for c, x in enumerate(r) if x) for r in rows]
    big_l = math.lcm(*(r[c] for r, c in zip(rows, pivots)))
    scaled = [[big_l // r[c] * x for x in r] for r, c in zip(rows, pivots)]
    free = [j for j in range(width) if j not in pivots]
    at = dict(zip(pivots, scaled))
    forms = [[-at[c][j] if c in at else big_l * (c == j) for c in range(width)] for j in free]
    return pivots, free, forms


def int_kernel(rows: Sequence[Sequence[int]], width: int) -> list[list[int]]:
    """Integer basis of the right kernel {x in Q^width : rows x = 0}: the
    residual forms of the int_rref rows, the one for free column f ending at f."""
    return _residual(int_rref(rows)[1], width)[2]
