"""Discrete stand-ins for Frostman measures.

A measure is a finite weighted atom set at a declared resolution.  Ball and
plate masses are exact; only the fitted Frostman constants (C, s) are floats.
PlateMassOracle runs the one distance, ``flats._dist2_form`` (for a
hyperplane's normal, a linear numerator) over the atoms for a batch of
spans per pass: plate and ball masses and masks of atoms near a flat.  A
measure owns its oracle: ``DiscreteMeasure.oracle`` builds it on first
read, so every caller of the same measure shares one integerization.
"""

from __future__ import annotations

import itertools
import math
import statistics
from operator import mul
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .exactlin import Vector, _integerized_points, _primitive, frac, int_rref, norm2, vec, wedge_norm2
from .flats import AffineFlat, _dist2_form, _lifted_integer_points, _normals, _pick_span, _span_directions


class DiscreteMeasure:
    """Finite weighted atom set at a declared resolution delta."""

    __slots__ = ("ambient_dim", "atoms", "resolution", "total_mass", "weight_den", "_oracle")

    def __init__(self, atoms: Sequence[tuple[Sequence, object]], resolution):
        ats = tuple((vec(p), frac(w)) for p, w in atoms)
        if not ats:
            raise ValueError("measure needs at least one atom")
        n = len(ats[0][0])
        if any(len(p) != n for p, _ in ats):
            raise ValueError("atom dimension mismatch")
        if any(w < 0 for _, w in ats):
            raise ValueError("negative atom weight")
        object.__setattr__(self, "ambient_dim", n)
        object.__setattr__(self, "atoms", ats)
        object.__setattr__(self, "resolution", frac(resolution))
        object.__setattr__(self, "total_mass", sum(w for _, w in ats))
        # the common denominator W of the weights: exact masses are counts over W
        object.__setattr__(self, "weight_den", math.lcm(*(w.denominator for _, w in ats)))
        object.__setattr__(self, "_oracle", None)  # filled by oracle

    def __setattr__(self, *a):
        raise AttributeError("DiscreteMeasure is immutable")

    def __len__(self) -> int:
        return len(self.atoms)

    @property
    def oracle(self) -> "PlateMassOracle":
        """The measure's plate mass oracle, built on first read."""
        if self._oracle is None:
            object.__setattr__(self, "_oracle", PlateMassOracle(self))
        return self._oracle

    def points(self) -> list[Vector]:
        return [p for p, _ in self.atoms]

    def weights(self) -> list[Fraction]:
        return [w for _, w in self.atoms]

    def support_flat(self) -> AffineFlat:
        return AffineFlat.from_points([p for p, w in self.atoms if w > 0])

    def in_unit_ball(self) -> bool:
        return all(norm2(p) <= 1 for p, _ in self.atoms)

    @classmethod
    def uniform(cls, points: Sequence[Sequence], resolution) -> "DiscreteMeasure":
        return cls([(p, Fraction(1, len(points))) for p in points], resolution)


class PlateMassOracle:
    """Exact masses a measure gives to the closed neighborhoods of flats.

    The atoms are integerized once, as points P over a common denominator
    den, and the weights as integers over the measure's weight denominator
    W.  A span is a lifted anchor (A, e), the point a = A / e, and integer
    direction rows D.  With L = lcm(den, e) and r = L (P / den - a), an atom
    lies at squared distance num / (g L^2), num = r^T M r with (g, M) =
    _dist2_form(D), a quadratic in P: within p / q when num <= floor(p g L^2
    / q).  The core _counts gives, per span, weighting (integer weights over
    W) and squared radius, the weight within as a count over W, and
    _hyperplane_counts does so for hyperplanes, num linear in P; the public
    methods are batches of one, and atoms_near_flat weights atom i by 2^i.
    """

    def __init__(self, mu: DiscreteMeasure):
        self.ambient_dim = n = mu.ambient_dim
        self._int_pts, self._den = _integerized_points(mu.points())
        self._lifted = [p + (self._den,) for p in self._int_pts]
        self._wden = mu.weight_den
        self.int_weights = [w.numerator * (self._wden // w.denominator) for w in mu.weights()]
        # per atom, the monomials P_j P_k (twice for j < k), -2 P_j and 1 of num
        self._monomials = [tuple(p[j] * p[k] * (1 + (j < k)) for j in range(n) for k in range(j, n))
                           + tuple(-2 * x for x in p) + (1,) for p in self._int_pts]
        self._norm2 = max(sum(x * x for x in p) for p in self._int_pts)

    def masses_near_span(
        self, points: Sequence[Vector], radii2: Sequence[Fraction]
    ) -> list[Fraction]:
        """Masses within each squared radius of the affine span of the
        points, which must be affinely independent."""
        if any(len(p) != self.ambient_dim for p in points):
            raise ValueError("ambient dimensions differ")
        return self._fractions(self._counts([_pick_span(_lifted_integer_points(points))], radii2, (self.int_weights,))[0][0])

    def masses_near_flat(self, f: AffineFlat, radii2: Sequence[Fraction]) -> list[Fraction]:
        """Masses within each squared radius of the flat f."""
        return self._fractions(self._flat_counts(f, radii2, self.int_weights))

    def atoms_near_flat(self, f: AffineFlat, r2: Fraction) -> int:
        """The mask of the atoms within squared radius r2 of the flat f: bit
        i is set iff atom i is."""
        return self._flat_counts(f, [r2], [1 << i for i in range(len(self._int_pts))])[0]

    def _flat_counts(self, f: AffineFlat, radii2: Sequence[Fraction], weights) -> list[int]:
        if f.ambient_dim != self.ambient_dim:
            raise ValueError("ambient dimensions differ")
        return self._counts([f._span()], radii2, (weights,))[0][0]

    def masses_near_line(self, a: Vector, b: Vector, radii2: Sequence[Fraction]) -> list[Fraction]:
        """Masses within each squared radius of the line through a and b."""
        return self.masses_near_span((a, b), radii2)

    def _fractions(self, counts: list[int]) -> list[Fraction]:
        return [Fraction(c, self._wden) for c in counts]

    def _counts(self, spans, radii2, weightings) -> list[list[list[int]]]:
        """The quadratic core: per span (anchor, dirs), per weighting, the
        weight of the atoms within each squared radius, by _tally over the
        atoms' monomials: num_t <= floor(p g L^2 / q), and 0 <= num_t <=
        g |r|^2 <= 2 g (s^2 max|P|^2 + |b|^2)."""
        n, den = self.ambient_dim, self._den
        coeffs, scales, bounds = [], [], []
        for anchor, dirs in spans:
            g, m = _dist2_form(dirs, n)
            big = math.lcm(den, anchor[-1])
            s = big // den  # r = s P - b
            b = [big // anchor[-1] * x for x in anchor[:-1]]
            mb = [sum(map(mul, row, b)) for row in m]
            coeffs.append([s * s * m[j][k] for j in range(n) for k in range(j, n)]
                          + [s * x for x in mb] + [sum(map(mul, b, mb))])
            scales.append(g * big * big)
            bounds.append(2 * g * (s * s * self._norm2 + sum(x * x for x in b)))
        return _tally(self._monomials, coeffs, scales, bounds, radii2, weightings, False)

    def _hyperplane_counts(self, normals, radii2, weightings) -> list[list[list[int]]]:
        """The hyperplane core: _counts for the hyperplanes {x : a.x = b} of
        integer normals (a, b), a != 0.  Atom P / den lies at squared
        distance num^2 / (|a|^2 den^2), num = a.P - b den, linear in the
        lifted atom (P, den), and |num| <= isqrt(|a|^2 max|P|^2) + 1 + |b| den."""
        den = self._den
        norms = [sum(x * x for x in v[:-1]) for v in normals]
        bounds = [math.isqrt(a2 * self._norm2) + 1 + abs(v[-1]) * den for a2, v in zip(norms, normals)]
        coeffs = [(*v[:-1], -v[-1]) for v in normals]
        return _tally(self._lifted, coeffs, [a2 * den * den for a2 in norms], bounds, radii2, weightings, True)


SPAN_CHUNK = 256  # spans per pass of the plate oracle's cores: the lanes of one int


def _tally(rows, coeffs, scales, bounds, radii2, weightings, linear: bool) -> list[list[list[int]]]:
    """The packed pass of both cores: per span t and weighting, the weight
    of the rows whose num_t = row . coeffs[t] is within each squared radius
    p / q: num_t <= cut_t = floor(p scales[t] / q) or, linear, |num_t| <=
    cut_t = isqrt of it, clamped to [-1, bounds[t]] >= |num_t|.  Lane t,
    bits [w t, w t + w) of an int, holds span t's value: per row, one sum
    of products with the packed coefficients gives every num_t; per radius,
    the top bit of lane t of CUT + 2^(w-1) - NUM (and, linear, of CUT +
    2^(w-1) + NUM) is set exactly when num_t <= cut_t (-num_t <= cut_t),
    as 2^(w-1) exceeds each bound (twice it, linear).  The flags, times the
    row's weight, add up, and 2^w exceeds each weighting's total."""
    out: list = []
    for start in range(0, len(coeffs), SPAN_CHUNK):
        part = slice(start, start + SPAN_CHUNK)
        chunk, bound = coeffs[part], bounds[part]
        width = 1 + max((max(bound) << linear).bit_length(), *(sum(ws).bit_length() for ws in weightings))
        top = 1 << (width - 1)
        packed = [_pack(c, width) for c in zip(*chunk)]
        cuts = [_pack([top + min(math.isqrt(v) if linear and v >= 0 else max(v, -1), u)
                       for v, u in zip((p * c // q for c in scales[part]), bound)], width)
                for p, q in ((r2.numerator, r2.denominator) for r2 in radii2)]
        ones = _pack([1] * len(chunk), width)
        acc = [[0] * len(cuts) for _ in weightings]
        for z, row in enumerate(rows):
            ws = [w[z] for w in weightings]
            if any(ws):
                num = sum(map(mul, row, packed))
                if linear:
                    flags = [((c - num) & (c + num)) >> (width - 1) & ones for c in cuts]
                else:
                    flags = [(c - num) >> (width - 1) & ones for c in cuts]
                for a, wt in zip(acc, ws):
                    for i, f in enumerate(flags if wt else ()):
                        a[i] += wt * f
        lane = (1 << width) - 1
        out += [[[x >> (width * t) & lane for x in a] for a in acc] for t in range(len(chunk))]
    return out


def _pack(values: Sequence[int], width: int) -> int:
    """sum_t values[t] 2^(width t); a negative value borrows from the lanes above."""
    out = 0
    for v in reversed(values):
        out = (out << width) + v
    return out


@dataclass(frozen=True)
class FrostmanFit:
    constant: float
    exponent: float
    table: tuple[tuple[Fraction, Fraction], ...]  # (scale, max ball mass)


def _max_ball_masses(mu: DiscreteMeasure, radii: Sequence[Fraction]) -> dict[Fraction, Fraction]:
    """Per-radius max over atom centers of the closed-ball mass; exact.

    Each center's ball counts come from one oracle call, as the
    neighbourhoods of the point flats at the centers; weights are the
    oracle's integers over W.
    """
    oracle = mu.oracle
    counts = oracle._counts([(p, []) for p in oracle._lifted], [r * r for r in radii], (oracle.int_weights,))
    best = [max(col) for col in zip(*(c for (c,) in counts))]
    return {r: Fraction(b, mu.weight_den) for r, b in zip(radii, best)}


def frostman_fit(mu: DiscreteMeasure, scales: Sequence) -> FrostmanFit:
    """Least-squares fit of log max-ball-mass against log scale.

    Centers are restricted to atoms (the max over arbitrary centers is
    attained within one resolution step of an atom, shifting the constant by
    a bounded factor only).  Scales must all be >= the resolution.
    """
    rs = sorted({frac(s) for s in scales})
    if len(rs) < 2:
        raise ValueError("need at least two distinct scales")
    if any(r < mu.resolution for r in rs):
        raise ValueError("scale below the measure resolution")
    masses = _max_ball_masses(mu, rs)
    table = tuple((r, masses[r]) for r in rs)
    xs = [math.log(float(r)) for r, _ in table]
    ys = [math.log(float(m)) for _, m in table if m > 0]
    if len(ys) != len(xs):
        raise ValueError("zero ball mass at some scale; measure is empty?")
    slope, intercept = statistics.linear_regression(xs, ys)
    return FrostmanFit(constant=math.exp(intercept), exponent=slope, table=table)


def irreducibility_modulus(
    mu: DiscreteMeasure,
    v: AffineFlat,
    w,
    support_tolerance=None,
) -> Fraction:
    """tau* = max over candidate proper subflats H of v of mu(H(w)) divided
    by the total mass.  The measure is (w, tau)-irreducible in v for any
    tau >= tau*.

    Candidates are the flats spanned by atoms on v, of dimension < k = dim v
    (exact for w = 0: the heaviest proper subflat can be replaced by the
    span of the atoms it captures).  F in H gives F(w) in H(w), so with S
    their span, only the spanned hyperplanes of v are measured when dim S
    >= k - 1 (a basis of S extends any spanned flat to one), else S alone.
    """
    if v.dim == 0:
        raise ValueError("no proper subflats of a point")
    if mu.total_mass == 0:
        raise ValueError("measure has zero total mass")
    tol = mu.resolution if support_tolerance is None else frac(support_tolerance)
    on_v, near = mu.oracle._flat_counts(v, [Fraction(0), tol * tol], [1 << i for i in range(len(mu))])
    if near != (1 << len(mu)) - 1:
        raise ValueError("support leaves the tolerance neighborhood of v")
    return _oracle_modulus(mu, v, frac(w), on_v)


def _oracle_modulus(mu: DiscreteMeasure, v: AffineFlat, w: Fraction, on_v: int) -> Fraction:
    """irreducibility_modulus for a caller that has checked the support; on_v
    masks atoms exactly on v (a subset of the radius-0 mask).  One _normals
    pass over their k-tuples, charted on the pivot columns c of v's RREF
    direction rows B (one-to-one on v), gives each hyperplane (a, b) of v, a
    = 0 for none, kept once as primitive.  With (g, M) = _dist2_form(B) and
    ã = a placed on c, N = (g I - M) ã is g ã projected on dir(v), and N.x =
    g ã.x - ã.M P0 / den on v, P0 the first lifted atom: _hyperplane_counts
    counts the atoms of on_v on the slab (den N).x = den g b - ã.M P0, and
    _counts the rest on a tuple's span.  No atom in on_v: modulus 0."""
    oracle, k = mu.oracle, v.dim
    lifted = [p for i, p in enumerate(oracle._lifted) if on_v >> i & 1]
    if not lifted:
        return Fraction(0)
    pivots, rows = int_rref(v._direction_rows())
    chart = [tuple(p[c] for c in pivots) + p[-1:] for p in lifted]
    tuples = itertools.combinations(range(len(lifted)), k)
    hyper = {_primitive(ab): t for ts, ns in _normals([chart] * k, tuples) for t, ab in zip(ts, ns) if any(ab[:-1])}
    if not hyper:  # dim S < k - 1: S alone, on the quadratic core
        c = oracle._counts([(lifted[0], _span_directions(int_rref(lifted)[1])[0])], [w * w], (oracle.int_weights,))
        return Fraction(c[0][0][0], mu.weight_den) / mu.total_mass
    on, rest = ([x * (on_v >> i & 1 == s) for i, x in enumerate(oracle.int_weights)] for s in (1, 0))
    g, m = _dist2_form(rows, mu.ambient_dim)
    lift = [[oracle._den * (g * (i == c) - row[c]) for c in pivots] + [0] for i, row in enumerate(m)]
    lift.append([-sum(map(mul, m[c], lifted[0])) for c in pivots] + [oracle._den * g])
    best, candidates = 0, iter(hyper.items())
    while chunk := list(itertools.islice(candidates, SPAN_CHUNK)):
        normals = [_primitive([sum(map(mul, row, ab)) for row in lift]) for ab, _ in chunk]
        counts = [c for ((c,),) in oracle._hyperplane_counts(normals, [w * w], (on,))]
        if any(rest):
            spans = [_pick_span([lifted[i] for i in t]) for _, t in chunk]
            counts = [c + d for c, ((d,),) in zip(counts, oracle._counts(spans, [w * w], (rest,)))]
        best = max(best, *counts)
    return Fraction(best, mu.weight_den) / mu.total_mass


def good_position_margin(mus: Sequence[DiscreteMeasure]) -> Fraction:
    """Minimum over support tuples of the normalized Gram determinant of the
    lifted tuple matrix, columns (p; 1); 0 exactly when some tuple is
    affinely dependent (the tuple hits the degenerate set): wedge_norm2 of
    the lifted integer columns over the product of their squared norms,
    which does not depend on the columns' scales.
    """
    if not mus:
        raise ValueError("no measures")
    n = mus[0].ambient_dim
    if any(m.ambient_dim != n for m in mus):
        raise ValueError("ambient dimensions differ")
    for m in mus:
        if not m.in_unit_ball():
            raise ValueError("supports must lie in the closed unit ball")
    best: Optional[Fraction] = None
    for combo in itertools.product(*(_lifted_integer_points(m.points()) for m in mus)):
        val = Fraction(wedge_norm2(combo), math.prod(sum(x * x for x in c) for c in combo))
        if best is None or val < best:
            best = val
        if best == 0:
            break
    assert best is not None
    return best


def support_dist2(a: DiscreteMeasure, b: DiscreteMeasure) -> Fraction:
    """Minimum squared distance between the two supports, scanned on the
    atoms of both integerized over one common denominator."""
    pts, den = _integerized_points(a.points() + b.points())
    near = min(
        sum((x - y) ** 2 for x, y in zip(p, q)) for p in pts[: len(a)] for q in pts[len(a) :]
    )
    return Fraction(near, den * den)


def dyadic_scales(finest: int, coarsest: int = 1) -> list[Fraction]:
    """Scales 2^-coarsest down to 2^-finest, descending."""
    if finest < coarsest:
        raise ValueError("finest must be <= coarsest as an exponent")
    return [Fraction(1, 2) ** j for j in range(coarsest, finest + 1)]
