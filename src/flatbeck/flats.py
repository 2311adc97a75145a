"""Affine flats of Q^n: linearization, join, meet, the join-meet projector,
exact distances, the squared-sine angle surrogate and the enumerator of
flats spanned by point subsets.

A flat is stored as a basepoint with its direction basis, but identity
(equality, hashing, dedup) goes through the primitive integer RREF rows
(``int_rref``) of its linearization, the linear span of F x {1} in
Q^(n+1); ``canon``, the same rows over Q, is derived from them on first
read, and ``dim`` is their count minus one.  Point and flat membership, join
and meet are integer computations on those rows and on their kernel, kept
once read.  All metric predicates compare squared quantities so everything
stays inside Q.

projector is the one radial projection x -> aff(x, Q) meet U: one integer
matrix for a centre Q and a screen U whose lifted spans are complementary,
built once per pair by its callers and applied to every point and flat
(radial_point, radial_flat).

_dist2_form is the one squared distance: an integer quadratic form M over
one integer g for the span of independent integer rows, read by
Cauchy-Binet off the rows' wedge chain and its cofactors (closed for no
row and for one).  The plate oracle
packs the forms of a batch of spans and runs them over a measure's atoms;
dist2_point_flat and dist2_flats are its one-offset Fraction views.

The enumerator walks pencils of flats (see _pencils) and builds no
elimination per subset; one walk, in preorder, serves every dimension up to
its depth.  Enumerated flats keep their picks, joins and meets their rows:
their Fraction directions are derived only when read.
FlatChart reads chart coordinates off one int_rref per chart and tests an
offset against the flat's own kernel forms.
_plane_rows is the cofactor-normal kernel: the matrix taking a lifted point
to the normal of its hyperplane with n - 1 given ones.  _normals runs it
over thin-graph tuples and over the point subsets whose general position
genscenes tests.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from operator import add, itemgetter, mul, sub
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .exactlin import (
    Vector,
    _cofactors,
    _integerized_points,
    _integerized_rows,
    _residual,
    _wedge,
    dot,
    int_kernel,
    int_rref,
    unit_vec,
    vadd,
    vec,
    vsub,
    wedge_norm2,
    zero_vec,
)


class AffineFlat:
    """Affine subspace of Q^n with a canonical form for identity."""

    __slots__ = ("ambient_dim", "basepoint", "_dirs", "_picks", "_rows", "_canon", "_member")

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
        self._set(bp, dirs, rows, None)

    def _set(self, basepoint: Vector, directions, rows: Sequence[Sequence[int]], picks) -> None:
        for name, value in (
            ("ambient_dim", len(basepoint)),
            ("basepoint", basepoint),
            ("_dirs", directions),  # None: filled from picks by directions
            ("_picks", picks),
            ("_rows", tuple(map(tuple, rows))),
            ("_canon", None),  # filled by canon
            ("_member", None),  # filled by _spans
        ):
            object.__setattr__(self, name, value)

    @classmethod
    def _from_rows(
        cls, basepoint: Vector, rows: Sequence[Sequence[int]], directions, picks=None
    ) -> "AffineFlat":
        """The flat through basepoint whose lifted span has the primitive
        int_rref rows `rows`, with the given directions or, when None, those
        of picks: independent lifted integer points spanning it, the first at
        basepoint.  Runs no elimination and no rank check."""
        f = cls.__new__(cls)
        f._set(basepoint, directions, rows, picks)
        return f

    def __setattr__(self, *a):
        raise AttributeError("AffineFlat is immutable")

    @property
    def dim(self) -> int:
        return len(self._rows) - 1

    @property
    def directions(self) -> tuple[Vector, ...]:
        """A basis of the direction space, derived on first read when not
        given: for a flat built from picks, the RREF over Q of their
        differences; for a join or meet, that of _span_directions."""
        if self._dirs is None:
            if self._picks is None:
                rows, divisors = _span_directions(self._rows)
                dirs = tuple(tuple(Fraction(x, s) for x in d) for d, s in zip(rows, divisors))
            else:
                dirs = _directions(self._picks)
            object.__setattr__(self, "_dirs", dirs)
        return self._dirs

    def _direction_rows(self) -> list[tuple[int, ...]]:
        """Integer rows spanning the directions: the picks' differences, or
        those read off the lifted rows by _span_directions."""
        if self._picks is None:
            return _span_directions(self._rows)[0]
        return _pick_span(self._picks)[1]

    def _span(self) -> tuple[tuple[int, ...], list[tuple[int, ...]]]:
        """The first pick, or the lifted basepoint, and _direction_rows."""
        anchor = self._picks[0] if self._picks else _lifted_integer_points([self.basepoint])[0]
        return anchor, self._direction_rows()

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

    def _kernel(self) -> list[list[int]]:
        """The residual forms of the lifted rows, a kernel basis, kept once read."""
        if self._member is None:
            object.__setattr__(self, "_member", _residual(self._rows, len(self._rows[0]))[2])
        return self._member

    def _spans(self, v: Sequence[int]) -> bool:
        """True iff the integer vector v of Q^(n+1) lies in the lifted span: a zero residual."""
        return not any(sum(map(mul, a, v)) for a in self._kernel())

    def contains_point(self, p: Sequence) -> bool:
        v = vec(p)
        if len(v) != self.ambient_dim:
            raise ValueError("ambient dimensions differ")
        return self._spans(_lifted_integer_points([v])[0])

    def contains_flat(self, other: "AffineFlat") -> bool:
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimensions differ")
        return all(self._spans(r) for r in other._rows)


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


def linearize(f: AffineFlat) -> list[Vector]:
    """dim F + 1 columns spanning span(F x {1}) in Q^(n+1): the direction
    vectors padded with 0, then the lifted basepoint."""
    return [d + (Fraction(0),) for d in f.directions] + [f.basepoint + (Fraction(1),)]


def _span_directions(rows: Sequence[Sequence[int]]) -> tuple[list[tuple[int, ...]], list[int]]:
    """Integer direction rows of a flat with the primitive int_rref rows
    `rows`, and the divisor of each: with b the first row whose last entry t
    is nonzero, and k the pivot of another row r, (t r - r[-1] b) / (t k),
    last entry 0 dropped, is r's RREF row minus its multiple of the lifted
    basepoint b / t (see _flat_from_span)."""
    b = next(r for r in rows if r[-1])
    t = b[-1]
    out, divisors = [], []
    for r in rows:
        if r is not b:
            out.append(tuple(t * x - r[-1] * y for x, y in zip(r[:-1], b)))
            divisors.append(t * next(x for x in r if x))
    return out, divisors


def _flat_from_span(rows: Sequence[Sequence[int]]) -> Optional[AffineFlat]:
    """The flat whose lifted span has the primitive int_rref rows `rows`, or
    None when no vector of the span has a nonzero last coordinate (the
    empty flat).  The first row with a nonzero last coordinate, scaled to 1
    there, is the lifted basepoint; the directions, the other RREF rows
    minus their multiple of it, are derived on first read."""
    b = next((r for r in rows if r[-1]), None)
    if b is None:
        return None
    return AffineFlat._from_rows(tuple(Fraction(x, b[-1]) for x in b[:-1]), rows, None)


def _span_meet(kernels: Sequence[Sequence[int]], width: int) -> list[list[int]]:
    """Primitive int_rref rows of the meet of spans in Q^width, given the
    rows of their kernels: the vectors orthogonal to every one of them."""
    return int_rref(int_kernel(kernels, width))[1]


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
    return _flat_from_span(_span_meet(f._kernel() + g._kernel(), f.ambient_dim + 1))


class NonGenericScreen(ValueError):
    """A join with the projection centre that misses the screen."""


def projector(q: AffineFlat, u: AffineFlat) -> list[list[int]]:
    """The join-meet projection x -> aff(x, q) meet u from the centre q onto
    the screen u, as the integer matrix L = d P on lifted points: with Q q's
    rows, K u's kernel forms and G = K Q^T, P = I - Q^T G^-1 K projects
    onto u's lifted span along q's.  int_rref([G | I]) has the rows
    (k_i e_i | C_i), so d G^-1 = ((d / k_i) C_i) for d = lcm(k_i).  A
    ValueError unless G is square and invertible, which holds exactly when
    the lifted spans are complementary."""
    if q.ambient_dim != u.ambient_dim:
        raise ValueError("ambient dimensions differ")
    kernel, m = u._kernel(), len(q._rows)
    eye = [[int(i == j) for j in range(m)] for i in range(m)]
    pivots, rows = int_rref([[sum(map(mul, a, r)) for r in q._rows] + e for a, e in zip(kernel, eye)])
    if len(kernel) != m or pivots != list(range(m)):
        raise ValueError("centre and screen are not complementary")
    d = math.lcm(*(r[i] for i, r in enumerate(rows)))
    dk = [[sum(d // r[i] * c * a for c, a in zip(r[m:], col)) for col in zip(*kernel)] for i, r in enumerate(rows)]
    return [[d * (i == j) - sum(map(mul, qi, col)) for j, col in enumerate(zip(*dk))] for i, qi in enumerate(zip(*q._rows))]


def radial_point(proj: Sequence[Sequence[int]], p: Sequence) -> Vector:
    """aff(p, q) meet u for the projector of (q, u): L p^ over its last
    entry; NonGenericScreen when that entry is 0 (the ray from q through p
    is parallel to u) and a ValueError when L p^ = 0 (p lies on q)."""
    v = _lifted_integer_points([vec(p)])[0]
    y = [sum(map(mul, r, v)) for r in proj]
    if not any(y):
        raise ValueError("point lies on the projection center")
    if y[-1] == 0:
        raise NonGenericScreen("join does not meet the screen in a point")
    return tuple(Fraction(x, y[-1]) for x in y[:-1])


def radial_flat(proj: Sequence[Sequence[int]], f: AffineFlat) -> Optional[AffineFlat]:
    """aff(f, q) meet u for the projector of (q, u): the flat of the span of
    L F^, None when it is empty."""
    return _flat_from_span(int_rref([[sum(map(mul, r, v)) for r in proj] for v in f._rows])[1])


def _dist2_form(dirs: Sequence[Sequence[int]], n: int) -> tuple[int, list[list[int]]]:
    """The one exact squared distance: g and the integer n x n form M, so
    that an integer offset r lies at squared distance r^T M r / g from the
    span of the independent integer rows D = dirs.  g = det(D D^T) is the
    sum of the squared minors of the wedge chain over D, and by
    Cauchy-Binet r^T M r = |D ^ r|^2, the sum of the squared minors of D
    with r appended; those minors are linear in r, with coefficients the
    cofactor minors c_i, so M = sum over row sets of c c^T.  M is g times
    the projection off the span, so 0 <= r^T M r <= g |r|^2, and M / g does
    not depend on the basis of the span.  Dependent rows (g = 0) are a
    ValueError."""
    if not dirs:  # closed forms: 1 and I for no rows, g I - d d^T for one
        return 1, [[int(a == b) for b in range(n)] for a in range(n)]
    if len(dirs) == 1:
        d = dirs[0]
        g = sum(x * x for x in d)
        if g == 0:
            raise ValueError("directions are linearly dependent")
        return g, [[g * (a == b) - x * y for b, y in enumerate(d)] for a, x in enumerate(d)]
    minors = functools.reduce(_wedge, dirs, {0: 1})
    if not minors:
        raise ValueError("directions are linearly dependent")
    cols = _cofactors(minors, n)
    masks = set().union(*cols)
    vs = [[c.get(mask, 0) for mask in masks] for c in cols]
    return sum(d * d for d in minors.values()), [[sum(map(mul, u, v)) for v in vs] for u in vs]


def _dist2_offset(r: Sequence[int], dirs: Sequence[Sequence[int]], den: int) -> Fraction:
    """Squared distance of the offset r / den from the span of the
    independent integer rows dirs: r^T M r / (g den^2), with (g, M) the
    _dist2_form of dirs."""
    g, m = _dist2_form(dirs, len(r))
    return Fraction(sum(x * sum(map(mul, row, r)) for x, row in zip(r, m)), g * den * den)


def dist2_point_flat(p: Sequence, f: AffineFlat) -> Fraction:
    """Squared Euclidean distance from a point to a flat, exact."""
    v = vec(p)
    if len(v) != f.ambient_dim:
        raise ValueError("ambient dimensions differ")
    (a, b), den = _integerized_points([v, f.basepoint])
    return _dist2_offset(tuple(map(sub, a, b)), f._direction_rows(), den)


def dist2_flats(f: AffineFlat, g: AffineFlat) -> Fraction:
    """Squared distance between two flats (0 iff they intersect): the
    distance of the offset between the basepoints from the sum of the
    direction spaces."""
    if f.ambient_dim != g.ambient_dim:
        raise ValueError("ambient dimensions differ")
    (a, b), den = _integerized_points([g.basepoint, f.basepoint])
    _, rows = int_rref(f._direction_rows() + g._direction_rows())
    return _dist2_offset(tuple(map(sub, a, b)), rows, den)


def wedge_angle_sin2(b: Sequence[Sequence], a: Sequence[Sequence]) -> Fraction:
    """Squared sine factor between the column lists b and a:

        |b ^ a|^2 / (|b_wedge|^2 * |a_wedge|^2)

    with each squared wedge the Gram determinant of its columns
    (wedge_norm2); it is the square of the |sin| factor in
    |u_1 ^ ... ^ u_m| = |w_wedge| * |v_wedge| * |sin|.  Each column is
    scaled to integers on its own, a factor that cancels.  Rank-deficient
    (b, a) gives 0; a factor with degenerate columns is an error.
    """
    cols = _integerized_rows([*b, *a])
    if len({len(c) for c in cols}) > 1:
        raise ValueError("row counts differ")
    if cols and len(cols) > len(cols[0]):
        raise ValueError("more columns than rows")
    gb, ga = wedge_norm2(cols[: len(b)]), wedge_norm2(cols[len(b) :])
    if gb == 0 or ga == 0:
        raise ValueError("degenerate factor")
    return Fraction(wedge_norm2(cols), gb * ga)


class FlatChart:
    """Exact affine chart identifying a flat with Q^dim: the coordinates of
    a point are those of its offset from the basepoint in the basis
    f.directions.

    With D the directions over their common denominator den, one int_rref
    of [D | I] gives the rows [R | C] with R = C D: R are the primitive RREF
    rows of D, pivot k_i in column c_i.  An offset r of the direction space
    is sum_i (r[c_i] / k_i) R_i, so its coordinates are
    den sum_i (r[c_i] / k_i) C_i; an offset off it lifts to (r, 0) outside
    the flat's lifted span (AffineFlat._spans).
    """

    def __init__(self, f: AffineFlat):
        self.flat = f
        n, k = f.ambient_dim, f.dim
        dirs, self._den = _integerized_points(f.directions)
        eye = [tuple(int(i == j) for j in range(k)) for i in range(k)]
        self._pivots, rows = int_rref([d + e for d, e in zip(dirs, eye)])
        self._scale = math.lcm(*(r[c] for r, c in zip(rows, self._pivots)))
        # coordinate j of r / d is den sum_i r[c_i] inverse[j][i] / (scale d)
        scaled = [[self._scale // r[c] * x for x in r[n:]] for r, c in zip(rows, self._pivots)]
        self._inverse = list(zip(*scaled))
        self._dir_cols = list(zip(*f.directions)) or [()] * n

    def _coords(self, v: Sequence, error: str) -> Vector:
        """Coordinates of the offset v in the basis f.directions, or a
        ValueError with the message error when v leaves their span."""
        (r,), den = _integerized_points([vec(v)])
        if not self.flat._spans(r + (0,)):
            raise ValueError(error)
        at = [r[c] for c in self._pivots]
        return tuple(
            Fraction(self._den * sum(map(mul, at, row)), self._scale * den) for row in self._inverse
        )

    def _linear(self, coords: Sequence) -> Vector:
        return tuple(dot(vec(coords), c) for c in self._dir_cols)

    def to_coords(self, p: Sequence) -> Vector:
        return self._coords(vsub(vec(p), self.flat.basepoint), "point not on the chart flat")

    def to_ambient(self, coords: Sequence) -> Vector:
        return vadd(self.flat.basepoint, self._linear(coords))

    def flat_to_coords(self, g: AffineFlat) -> AffineFlat:
        """Image of a subflat g of the chart flat in chart coordinates."""
        base = self.to_coords(g.basepoint)
        dirs = [self._coords(d, "subflat leaves the chart flat") for d in g.directions]
        return AffineFlat(base, dirs)

    def flat_to_ambient(self, g: AffineFlat) -> AffineFlat:
        return AffineFlat(self.to_ambient(g.basepoint), [self._linear(d) for d in g.directions])


def affinely_independent(points: Sequence[Vector]) -> bool:
    """True iff the points span a flat of dimension len(points) - 1."""
    pts = [vec(p) for p in points]
    return len(int_rref(_lifted_integer_points(pts))[0]) == len(pts)


def _lifted_integer_points(points: Sequence[Vector]) -> list[tuple[int, ...]]:
    """The lifted points (den p, den), with den the common denominator."""
    ints, den = _integerized_points(points)
    return [p + (den,) for p in ints]


def _pencils(
    lifted: Sequence[Sequence[int]], rows: tuple, mask: int, last: int, depth: int
) -> Iterator[tuple[tuple[int, ...], Callable[[], tuple], int]]:
    """(picks, rows, mask) for span(rows) and each distinct span of it and up
    to `depth` more lifted points, in preorder, so a walk to any depth gives
    the nodes of a shallower one in its order; a node's depth is len(picks),
    rows() gives its rows and bit i of a mask is set iff lifted[i] is on it.

    One residual pass groups the points off the mask by primitive residual
    with a positive first entry: a group is the points new to one child
    span(rows, v).  The child is walked only when its first point k comes
    after the last pick; then the picks are its lexicographically least
    basis, so each span comes once, in combination order.  Its rows are
    _pencil_rows', and its mask is the parent's OR the group.  The last
    level yields its children without walking them or building their rows.
    """
    yield (), lambda: rows, mask
    if depth == 0 or not lifted:
        return
    width = len(lifted[0])
    pivots, free, forms = _residual(rows, width)
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, v in enumerate(lifted):
        if mask >> i & 1:
            continue
        w = [sum(map(mul, a, v)) for a in forms]
        g = math.gcd(*w)
        if next(filter(None, w)) < 0:
            g = -g
        key = tuple([x // g for x in w])
        if key in groups:
            groups[key][1] |= 1 << i
        else:
            groups[key] = [i, 1 << i]
    for key, (k, group) in groups.items():
        if k < last:
            continue
        child = functools.partial(_pencil_rows, rows, pivots, free, key)
        if depth == 1:
            yield (k,), child, mask | group
            continue
        for picks, out, m in _pencils(lifted, child(), mask | group, k, depth - 1):
            yield (k, *picks), out, m


def _pencil_rows(rows: tuple, pivots: list, free: list, key: tuple) -> tuple:
    """The rows of span(rows, v), v with primitive residual key: those rows
    reduced at the residual's pivot, plus the residual: exactly int_rref's."""
    w = [0] * (len(pivots) + len(free))
    for j, x in zip(free, key):
        w[j] = x
    p = next(filter(None, key))
    c = free[key.index(p)]
    child = []
    for r in rows:
        f = r[c]
        if f:
            r = [a * p - f * b for a, b in zip(r, w)]
            g = math.gcd(*r)
            r = tuple([x // g for x in r])
        child.append(r)
    child.insert(len([q for q in pivots if q < c]), tuple(w))
    return tuple(child)


def _plane_rows(prefix: Sequence[Sequence[int]], width: int, shift: int) -> list[list[int]]:
    """Rows L for width - 2 lifted points (den p, den): for a lifted point v,
    L v = 2^shift (a, b) with {x : a.x = b} the hyperplane through the
    prefix's points and v's, and a = 0 when they do not span one.

    (a, -b) is the cofactor normal: entry k is (-1)^k times the maximal
    minor of (prefix, v) without row k, so it is orthogonal to every lifted
    point.  That minor is linear in v, and its coefficient of v_i is read
    off the wedge of the prefix's minors with the unit vector e_i."""
    minors = functools.reduce(_wedge, prefix, {0: 1})
    full = (1 << width) - 1
    cols = _cofactors(minors, width)
    signs = [(-1) ** k for k in range(width - 1)] + [(-1) ** width]
    return [[sign * c.get(full ^ 1 << k, 0) << shift for c in cols] for k, sign in enumerate(signs)]


def _normals(lifted: list, tuples: Iterable, shift: int = 0) -> Iterator:
    """(ts, normals) per run ts of tuples of n atom indices sharing a prefix,
    in order: per tuple t, L v = 2^shift (a, b) with {x : a.x = b} the
    hyperplane spanned by t's lifted points, a = 0 when they span none.  L
    is the plane rows of the prefix t[:-1], v is t's last lifted point, and
    each row of L combines the columns of the run's v at once."""
    width = len(lifted[0][0])
    for prefix, run in itertools.groupby(tuples, key=itemgetter(slice(-1))):
        rows = _plane_rows([pts[i] for pts, i in zip(lifted, prefix)], width, shift)
        ts = list(run)
        cols = list(zip(*map(lifted[-1].__getitem__, map(itemgetter(-1), ts))))
        terms = [[map(mul, c, itertools.repeat(x)) for x, c in zip(row, cols) if x] for row in rows]
        yield ts, zip(*[functools.reduce(functools.partial(map, add), t, [0] * len(ts)) for t in terms])


def _pick_span(picks: Sequence[Sequence[int]]) -> tuple[Sequence[int], list[tuple[int, ...]]]:
    """The span (anchor, dirs) of lifted picks that the plate oracle's core
    reads: the first pick and the others' differences from it, last entry
    (their shared denominator) dropped."""
    base = picks[0]
    return base, [tuple(map(sub, v[:-1], base)) for v in picks[1:]]


def _spanned(points: Sequence[Vector], d: int, low: Optional[int] = None) -> Iterator[tuple[AffineFlat, int]]:
    """(flat, mask) for each distinct flat of dimension low..d (d alone when
    low is None) spanned by points: the nodes of one pencil walk to d + 1
    picks, so each dimension comes in the order of spanned_flats.  Bit i of
    mask is set iff points[i] is on the flat."""
    pts = [vec(p) for p in points]
    lifted = _lifted_integer_points(pts)
    for picks, rows, mask in _pencils(lifted, (), 0, -1, d + 1):
        if len(picks) > (d if low is None else low):
            yield AffineFlat._from_rows(pts[picks[0]], rows(), None, [lifted[i] for i in picks]), mask


def spanned_flats(points: Sequence[Vector], dims: Iterable[int]) -> Iterator[AffineFlat]:
    """Distinct flats spanned by point subsets, dimension by dimension in the
    order of dims and, within a dimension, in combination order.

    A flat of dimension d comes from an affinely independent subset of d + 1
    points.  Each flat is yielded once, as built from the first subset that
    spans it, by the pencil walk of _pencils.
    """
    for d in dict.fromkeys(dims):
        for f, _ in _spanned(points, d):
            yield f
