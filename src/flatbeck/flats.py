"""Affine flats of Q^n: linearization, join, meet, exact distances, the
squared-sine angle surrogate and the enumerator of flats spanned by point
subsets.

A flat is stored as basepoint + direction basis, but identity (equality,
hashing, dedup) goes through the primitive integer RREF rows (``int_rref``)
of its linearization, the linear span of F x {1} in Q^(n+1); ``canon``, the
same rows over Q, is derived from them on first read.  Point and flat
membership, join and meet are integer computations on those rows.  All
metric predicates compare squared quantities so everything stays inside Q.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import mul
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .exactlin import (
    Matrix,
    Vector,
    _integerized_points,
    _integerized_rows,
    dot,
    gram_det,
    int_kernel,
    int_rref,
    norm2,
    orthogonalize,
    pivot_columns,
    solve,
    unit_vec,
    vec,
    vsub,
    vadd,
    vscale,
    zero_vec,
)


class AffineFlat:
    """Affine subspace of Q^n with a canonical form for identity."""

    __slots__ = ("ambient_dim", "basepoint", "directions", "_rows", "_canon", "_member", "_ortho")

    def __init__(self, basepoint: Sequence, directions: Iterable[Sequence] = ()):
        bp = vec(basepoint)
        dirs = tuple(vec(d) for d in directions)
        n = len(bp)
        if any(len(d) != n for d in dirs):
            raise ValueError("direction length mismatch")
        lifted = [d + (Fraction(0),) for d in dirs] + [bp + (Fraction(1),)]
        _, rows = int_rref(_integerized_rows(lifted))
        # the lifted basepoint lies off the span of the lifted directions
        if len(rows) != len(dirs) + 1:
            raise ValueError("directions are linearly dependent")
        self._set(bp, dirs, rows)

    def _set(
        self, basepoint: Vector, directions: tuple[Vector, ...], rows: Sequence[Sequence[int]]
    ) -> None:
        for name, value in (
            ("ambient_dim", len(basepoint)),
            ("basepoint", basepoint),
            ("directions", directions),
            ("_rows", tuple(map(tuple, rows))),
            ("_canon", None),  # filled by canon
            ("_member", None),  # filled by _spans
            ("_ortho", None),  # filled by dist2_point_flat
        ):
            object.__setattr__(self, name, value)

    @classmethod
    def _from_rows(
        cls, basepoint: Vector, rows: Sequence[Sequence[int]], directions: tuple[Vector, ...]
    ) -> "AffineFlat":
        """The flat through basepoint with the given directions whose lifted
        span has the primitive int_rref rows `rows`.  Runs no elimination
        and no rank check."""
        f = cls.__new__(cls)
        f._set(basepoint, directions, rows)
        return f

    def __setattr__(self, *a):
        raise AttributeError("AffineFlat is immutable")

    @property
    def dim(self) -> int:
        return len(self.directions)

    @property
    def canon(self) -> tuple[Vector, ...]:
        """The reduced row-echelon basis of the linearization, over Q."""
        if self._canon is None:
            object.__setattr__(self, "_canon", _reduced(self._rows))
        return self._canon

    def __eq__(self, other) -> bool:
        return isinstance(other, AffineFlat) and self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def __repr__(self) -> str:
        return f"AffineFlat(dim={self.dim}, ambient={self.ambient_dim})"

    @classmethod
    def point(cls, p: Sequence) -> "AffineFlat":
        return cls(p, ())

    @classmethod
    def full_space(cls, n: int) -> "AffineFlat":
        return cls(zero_vec(n), [unit_vec(n, i) for i in range(n)])

    @classmethod
    def from_points(cls, points: Sequence[Sequence]) -> "AffineFlat":
        """Affine span of a nonempty point list."""
        pts = [vec(p) for p in points]
        if not pts:
            raise ValueError("empty point list")
        lifted = _lifted_integer_points(pts)
        _, rows = int_rref(lifted)
        return cls._from_rows(pts[0], rows, _directions(lifted))

    def _spans(self, v: Sequence[int]) -> bool:
        """True iff the integer vector v of Q^(n+1) lies in the linear span
        of the lifted flat (see _span_test)."""
        if self._member is None:
            object.__setattr__(self, "_member", _span_test(self._rows))
        return self._member(v)

    def contains_point(self, p: Sequence) -> bool:
        v = vec(p)
        if len(v) != self.ambient_dim:
            raise ValueError("ambient dimensions differ")
        return self._spans(_lifted_integer_points([v])[0])

    def contains_flat(self, other: "AffineFlat") -> bool:
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimensions differ")
        return all(self._spans(r) for r in other._rows)


def _span_test(rows: Sequence[Sequence[int]]) -> Callable[[Sequence[int]], bool]:
    """Membership in the span of primitive integer RREF rows.

    With the rows K_i, pivot k_i in column c_i and L = lcm(k_i), an integer
    vector v lies in their span iff L v = sum_i (L / k_i) v[c_i] K_i; the
    pivot columns agree by construction, so only the others are tested.
    Scaling v by a nonzero integer does not change the answer.
    """
    pivots = [next(c for c, x in enumerate(r) if x) for r in rows]
    big_l = math.lcm(*(r[c] for r, c in zip(rows, pivots)))
    scaled = [[big_l // r[c] * x for x in r] for r, c in zip(rows, pivots)]
    free = [(j, [s[j] for s in scaled]) for j in range(len(rows[0])) if j not in pivots]

    def spans(v: Sequence[int]) -> bool:
        coeffs = [v[c] for c in pivots]
        return all(big_l * v[j] == sum(map(mul, coeffs, col)) for j, col in free)

    return spans


def _reduced(rows: Sequence[Sequence[int]]) -> tuple[Vector, ...]:
    """Integer RREF rows divided by their pivots: the RREF over Q."""
    out = []
    for r in rows:
        p = next(x for x in r if x)
        out.append(tuple(Fraction(x, p) for x in r))
    return tuple(out)


def _directions(lifted: Sequence[Sequence[int]]) -> tuple[Vector, ...]:
    """The RREF over Q of the differences from the first lifted point; the
    lifted points share their last coordinate, which is dropped."""
    base = lifted[0]
    _, rows = int_rref([[a - b for a, b in zip(v[:-1], base)] for v in lifted[1:]])
    return _reduced(rows)


def linearize(f: AffineFlat) -> Matrix:
    """(n+1)-row matrix whose column space is span(F x {1}).

    Column count is dim F + 1: the direction vectors padded with 0, then the
    lifted basepoint.
    """
    cols = [d + (Fraction(0),) for d in f.directions] + [f.basepoint + (Fraction(1),)]
    return Matrix.from_cols(cols, rows=f.ambient_dim + 1)


def _flat_from_span(rows: Sequence[Sequence[int]]) -> Optional[AffineFlat]:
    """The flat whose lifted span has the primitive int_rref rows `rows`, or
    None when no vector of the span has a nonzero last coordinate (the
    empty flat).  The first RREF row with a nonzero last coordinate, scaled
    to 1 there, is the lifted basepoint; the other rows minus their multiple
    of it are the lifted directions."""
    red = _reduced(rows)
    i = next((i for i, r in enumerate(red) if r[-1]), None)
    if i is None:
        return None
    base = vscale(1 / red[i][-1], red[i])
    dirs = tuple(vsub(r, vscale(r[-1], base))[:-1] for j, r in enumerate(red) if j != i)
    return AffineFlat._from_rows(base[:-1], rows, dirs)


def _span_meet(
    a: Sequence[Sequence[int]], b: Sequence[Sequence[int]], width: int
) -> list[list[int]]:
    """Primitive int_rref rows of span(a) meet span(b) in Q^width: the
    vectors orthogonal to both kernels, ker(ker a + ker b)."""
    _, rows = int_rref(int_kernel(int_kernel(a, width) + int_kernel(b, width), width))
    return rows


def join(fs: Sequence[AffineFlat]) -> AffineFlat:
    """Smallest flat containing every flat in the (nonempty) list."""
    if not fs:
        raise ValueError("join of an empty family")
    n = fs[0].ambient_dim
    if any(f.ambient_dim != n for f in fs):
        raise ValueError("ambient dimensions differ")
    _, rows = int_rref([r for f in fs for r in f._rows])
    out = _flat_from_span(rows)
    assert out is not None  # every flat contributes an affine point
    return out


def meet(f: AffineFlat, g: AffineFlat) -> Optional[AffineFlat]:
    """Intersection flat, or None when the flats do not meet."""
    if f.ambient_dim != g.ambient_dim:
        raise ValueError("ambient dimensions differ")
    return _flat_from_span(_span_meet(f._rows, g._rows, f.ambient_dim + 1))


def dist2_point_flat(p: Sequence, f: AffineFlat) -> Fraction:
    """Squared Euclidean distance from a point to a flat, exact."""
    if f._ortho is None:
        object.__setattr__(f, "_ortho", orthogonalize(f.directions))
    basis, sq = f._ortho
    r = vsub(vec(p), f.basepoint)
    total = norm2(r)
    for o, s in zip(basis, sq):
        c = dot(r, o)
        total -= c * c / s
    return total


def dist2_flats(f: AffineFlat, g: AffineFlat) -> Fraction:
    """Squared distance between two flats (0 iff they intersect)."""
    if f.ambient_dim != g.ambient_dim:
        raise ValueError("ambient dimensions differ")
    # the distance from g's basepoint to f translated along g
    _, rows = int_rref(_integerized_rows(f.directions + g.directions))
    return dist2_point_flat(g.basepoint, AffineFlat(f.basepoint, _reduced(rows)))


def wedge_angle_sin2(b: Matrix, a: Matrix) -> Fraction:
    """Squared sine factor between the column blocks b and a:

        det((b,a)^T (b,a)) / (gram_det(b) * gram_det(a))

    which is the square of the |sin| factor in |u_1 ^ ... ^ u_m| =
    |w_wedge| * |v_wedge| * |sin|.  Rank-deficient (b, a) gives 0; a factor
    with degenerate columns is an error.
    """
    if b.rows != a.rows:
        raise ValueError("row counts differ")
    if b.cols + a.cols > b.rows:
        raise ValueError("more columns than rows")
    gb = gram_det(b)
    ga = gram_det(a)
    if gb == 0 or ga == 0:
        raise ValueError("degenerate factor")
    concat = b.hstack(a)
    return gram_det(concat) / (gb * ga)


class FlatChart:
    """Exact affine chart identifying a flat with Q^dim."""

    def __init__(self, f: AffineFlat):
        self.flat = f
        self._dirmat = Matrix.from_cols(list(f.directions), rows=f.ambient_dim)

    def to_coords(self, p: Sequence) -> Vector:
        r = vsub(vec(p), self.flat.basepoint)
        x = solve(self._dirmat, r)
        if x is None or self._dirmat.mat_vec(x) != r:
            raise ValueError("point not on the chart flat")
        return x

    def to_ambient(self, coords: Sequence) -> Vector:
        return vadd(self.flat.basepoint, self._dirmat.mat_vec(vec(coords)))

    def flat_to_coords(self, g: AffineFlat) -> AffineFlat:
        """Image of a subflat g of the chart flat in chart coordinates."""
        base = self.to_coords(g.basepoint)
        dirs = []
        for d in g.directions:
            x = solve(self._dirmat, d)
            if x is None or self._dirmat.mat_vec(x) != vec(d):
                raise ValueError("subflat leaves the chart flat")
            dirs.append(x)
        return AffineFlat(base, dirs)

    def flat_to_ambient(self, g: AffineFlat) -> AffineFlat:
        base = self.to_ambient(g.basepoint)
        dirs = [self._dirmat.mat_vec(d) for d in g.directions]
        return AffineFlat(base, dirs)


def independence_test(point_lists: Sequence[Sequence[Sequence]]) -> Callable[[Sequence[int]], bool]:
    """Affine independence of one point picked by index from each list, as
    in affinely_independent; each list is lifted once, and the rank ignores
    row scales, so lists over different denominators mix."""
    lifted = [_lifted_integer_points([vec(p) for p in pts]) for pts in point_lists]
    return lambda picks: len(pivot_columns([rows[i] for rows, i in zip(lifted, picks)])) == len(picks)


def affinely_independent(points: Sequence[Vector]) -> bool:
    """True iff the points span a flat of dimension len(points) - 1."""
    pts = [vec(p) for p in points]
    return len(pivot_columns(_lifted_integer_points(pts))) == len(pts)


def lifted_tuple_matrix(points: Sequence[Sequence]) -> Matrix:
    """Columns (x; 1) for each point: the linearized tuple matrix."""
    pts = [vec(p) for p in points]
    return Matrix.from_cols([p + (Fraction(1),) for p in pts], rows=len(pts[0]) + 1)


def _lifted_integer_points(points: Sequence[Vector]) -> list[tuple[int, ...]]:
    """The lifted points (den p, den), with den the common denominator."""
    ints, den = _integerized_points(points)
    return [p + (den,) for p in ints]


def spanned_flats(points: Sequence[Vector], dims: Iterable[int]) -> Iterator[AffineFlat]:
    """Distinct flats spanned by point subsets, dimension by dimension in the
    order of dims and, within a dimension, in combination order.

    A flat of dimension d comes from an affinely independent subset of d + 1
    points; dependent subsets are skipped because their span already arises
    from a smaller independent subset.  Each flat is yielded once, as built
    from the first subset that spans it.  The points are lifted to integer
    rows once; one integer elimination per subset gives its rank and its
    primitive RREF rows, which identify the span and become the new flat's
    canonical rows.  One more small elimination of the differences gives
    its directions.
    """
    lifted = _lifted_integer_points(points)
    seen = set()
    for d in dims:
        for combo in itertools.combinations(range(len(points)), d + 1):
            sub = [lifted[i] for i in combo]
            _, rows = int_rref(sub)
            if len(rows) <= d:
                continue
            key = tuple(map(tuple, rows))
            if key not in seen:
                seen.add(key)
                yield AffineFlat._from_rows(vec(points[combo[0]]), key, _directions(sub))
