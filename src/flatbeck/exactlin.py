"""Exact rational linear algebra kernel.

Vectors are tuples of ``Fraction``; matrices are immutable row-major grids.
Every elimination runs fraction-free on integerized copies, so intermediate
entries stay bounded at the matrix sizes used here (sides up to a dozen or
so): ``bareiss``, the one Bareiss pass, gives pivot columns (ranks) and
determinants together, and ``int_rref`` is the Gauss-Jordan whose
primitive integer rows are the canonical form of a row space.
``int_kernel`` reads an integer kernel basis off those rows; ``nullspace``
and ``solve`` are their Fraction views.  ``_wedge`` is the one minor
kernel: it grows the row-subset minors of a column set by a column, for
stability certificates, the good-position margin and the hyperplane chart.
``orthogonalize`` is the one Gram-Schmidt: unnormalized orthogonal bases
for the basis columns of stability frames (distances are integer
numerators, see ``flats._dist2_numerators``).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

Scalar = Fraction
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


def orthogonalize(cols: Sequence[Sequence]) -> tuple[list[Vector], list[Fraction]]:
    """Gram-Schmidt without normalization; returns vectors and squared norms."""
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
    return basis, norms


class Matrix:
    """Immutable exact matrix over Q."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: Iterable[Iterable]):
        ents = tuple(vec(r) for r in rows)
        if ents:
            w = len(ents[0])
            if any(len(r) != w for r in ents):
                raise ValueError("inconsistent row widths")
        else:
            w = 0
        object.__setattr__(self, "entries", ents)
        object.__setattr__(self, "rows", len(ents))
        object.__setattr__(self, "cols", w)

    def __setattr__(self, *a):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def from_cols(cls, cols: Sequence[Sequence], rows: int | None = None) -> "Matrix":
        cols = [vec(c) for c in cols]
        if not cols:
            return cls([() for _ in range(rows or 0)])
        return cls(zip(*cols, strict=True))

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([unit_vec(n, i) for i in range(n)])

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls([zero_vec(cols) for _ in range(rows)])

    def __eq__(self, other) -> bool:
        return isinstance(other, Matrix) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in r) for r in self.entries)
        return f"Matrix[{self.rows}x{self.cols}]({body})"

    def row(self, i: int) -> Vector:
        return self.entries[i]

    def col(self, j: int) -> Vector:
        return tuple(r[j] for r in self.entries)

    def col_list(self) -> list[Vector]:
        return [self.col(j) for j in range(self.cols)]

    def transpose(self) -> "Matrix":
        return Matrix.from_cols(self.entries, rows=self.cols)

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise ValueError("row counts differ")
        return Matrix(a + b for a, b in zip(self.entries, other.entries))

    def mat_vec(self, v: Sequence) -> Vector:
        v = vec(v)
        return tuple(dot(r, v) for r in self.entries)

    def mat_mul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        ocols = other.col_list()
        return Matrix([tuple(dot(r, c) for c in ocols) for r in self.entries])

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "Matrix":
        return Matrix([tuple(self.entries[i][j] for j in col_idx) for i in row_idx])


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


def bareiss(rows: Sequence[Sequence[int]]) -> tuple[list[int], int]:
    """The one elimination kernel: fraction-free (Bareiss) elimination of an
    integer matrix.  Returns its pivot columns, the columns outside the span
    of the columns before them, and its determinant, 0 unless the matrix is
    square and nonsingular.  Scaling rows or columns by nonzero factors
    leaves the pivots unchanged."""
    m = [list(r) for r in rows]
    nr, nc = len(m), len(m[0]) if m else 0
    prev = sign = 1
    pivots: list[int] = []
    for pc in range(nc):
        pr = len(pivots)
        if pr == nr:
            break
        piv = next((i for i in range(pr, nr) if m[i][pc]), None)
        if piv is None:
            continue
        if piv != pr:
            m[pr], m[piv] = m[piv], m[pr]
            sign = -sign
        mp = m[pr]
        for i in range(pr + 1, nr):
            mi = m[i]
            f = mi[pc]
            if f:
                for j in range(pc + 1, nc):
                    mi[j] = (mi[j] * mp[pc] - f * mp[j]) // prev
            elif prev != 1 or mp[pc] != 1:
                for j in range(pc + 1, nc):
                    mi[j] = (mi[j] * mp[pc]) // prev
            mi[pc] = 0
        prev = mp[pc]
        pivots.append(pc)
    return pivots, sign * prev if len(pivots) == nr == nc else 0


def pivot_columns(rows: Sequence[Sequence[int]]) -> list[int]:
    """The pivot columns of an integer matrix (bareiss)."""
    return bareiss(rows)[0]


def rank(m: Matrix) -> int:
    """Column-space dimension, exact."""
    return len(pivot_columns(_integerized_rows(m.entries)))


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


def det(m: Matrix) -> Fraction:
    """Exact determinant of a square matrix (fraction-free elimination)."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    scale = Fraction(1)
    rows = []
    for r in m.entries:
        den = math.lcm(*(x.denominator for x in r))
        scale *= den
        rows.append([int(x * den) for x in r])
    return Fraction(bareiss(rows)[1], 1) / scale


def gram_det(m: Matrix) -> Fraction:
    """det(m^T m): the sum of squared maximal minors, i.e. the squared
    volume of the parallelepiped spanned by the columns.

    Requires cols <= rows so the Gram matrix can be nonsingular at all.
    """
    if m.cols > m.rows:
        raise ValueError("gram_det needs cols <= rows")
    return det(m.transpose().mat_mul(m))


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
        g = math.gcd(*m[pr])
        if m[pr][pc] < 0:
            g = -g
        mp = m[pr] = [x // g for x in m[pr]]
        p = mp[pc]
        for i in range(nr):
            f = m[i][pc]
            if f and i != pr:
                r = [a * p - f * b for a, b in zip(m[i], mp)]
                g = math.gcd(*r)
                m[i] = [x // g for x in r] if g > 1 else r
        pivots.append(pc)
    return pivots, m[: len(pivots)]


def int_kernel(rows: Sequence[Sequence[int]], width: int) -> list[list[int]]:
    """Integer basis of the right kernel {x in Q^width : rows x = 0}.

    Read off int_rref: with the rows K_i, pivot k_i in column c_i and
    L = lcm(k_i), the vector for the free column f has L at f,
    -(L / k_i) K_i[f] at each c_i and 0 elsewhere.  Its last nonzero entry
    is the one at f, since K_i[f] != 0 needs c_i < f.
    """
    pivots, red = int_rref(rows)
    big_l = math.lcm(*(r[c] for r, c in zip(red, pivots)))
    basis = []
    for f in range(width):
        if f in pivots:
            continue
        v = [0] * width
        v[f] = big_l
        for c, r in zip(pivots, red):
            v[c] = -(big_l // r[c]) * r[f]
        basis.append(v)
    return basis


def nullspace(m: Matrix) -> list[Vector]:
    """Basis of the right kernel {x : m x = 0}, each vector 1 at its free
    column: the int_kernel basis over Q."""
    out = []
    for v in int_kernel(_integerized_rows(m.entries), m.cols):
        lead = next(x for x in reversed(v) if x)
        out.append(tuple(Fraction(x, lead) for x in v))
    return out


def solve(m: Matrix, rhs: Sequence) -> Vector | None:
    """One exact solution of m x = rhs, or None when inconsistent: the
    pivot solution, 0 at every free column."""
    rhs = vec(rhs)
    if len(rhs) != m.rows:
        raise ValueError("rhs length mismatch")
    pivots, red = int_rref(_integerized_rows([r + (b,) for r, b in zip(m.entries, rhs)]))
    if pivots and pivots[-1] == m.cols:
        return None
    x = [Fraction(0)] * m.cols
    for c, r in zip(pivots, red):
        x[c] = Fraction(r[-1], r[c])
    return tuple(x)
