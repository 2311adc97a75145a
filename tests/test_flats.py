import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from flatbeck.exactlin import vec, vsub
from flatbeck.flats import (
    AffineFlat,
    FlatChart,
    NonGenericScreen,
    dist2_flats,
    join,
    linearize,
    meet,
    projector,
    radial_flat,
    radial_point,
    spanned_flats,
    wedge_angle_sin2,
)
from flatbeck import flats as flats_module
from flatbeck.genscenes import generic_points
from flatbeck.measures import DiscreteMeasure, PlateMassOracle
from fraction_reference import (
    reference_chart_coords,
    reference_dist2_flats,
    reference_dist2_form,
    reference_gram_det,
    reference_join,
    reference_join_meet,
    reference_meet,
    reference_rank,
    reference_solve,
    reference_spanned_flats,
    row_space,
)

fracs = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 2))


def x_axis(n=2):
    return AffineFlat([0] * n, [[1] + [0] * (n - 1)])


def y_axis(n=2):
    return AffineFlat([0] * n, [[0, 1] + [0] * (n - 2)])


class TestLinearize:
    def test_point_origin_in_plane(self):
        assert linearize(AffineFlat.point([0, 0])) == [vec([0, 0, 1])]

    def test_x_axis(self):
        cols = linearize(x_axis())
        assert len(cols) == 2
        # column space must contain (t, 0, s) exactly
        assert reference_rank(cols + [vec([5, 0, 3])]) == 2

    def test_full_plane(self):
        assert len(linearize(AffineFlat.full_space(2))) == 3


class TestJoin:
    def test_two_axes_span_plane(self):
        assert join([x_axis(), y_axis()]) == AffineFlat.full_space(2)

    def test_single_point(self):
        p = AffineFlat.point([1, 2])
        assert join([p]) == p

    def test_parallel_lines_span_2flat(self):
        l1 = AffineFlat([0, 0, 0], [[1, 0, 0]])
        l2 = AffineFlat([0, 1, 0], [[1, 0, 0]])
        j = join([l1, l2])
        assert j.dim == 2
        assert reference_rank(linearize(l1) + linearize(l2)) == 3

    def test_commutative_associative_up_to_canon(self):
        l1 = AffineFlat([0, 0, 0], [[1, 0, 0]])
        l2 = AffineFlat([0, 1, 0], [[0, 1, 2]])
        p = AffineFlat.point([1, 1, 1])
        a = join([join([l1, l2]), p])
        b = join([p, join([l2, l1])])
        assert a == b == join([l1, l2, p])


class TestMeet:
    def test_axes_meet_in_origin(self):
        got = meet(x_axis(), y_axis())
        assert got == AffineFlat.point([0, 0])

    def test_parallel_lines_empty(self):
        l1 = AffineFlat([0, 0], [[1, 0]])
        l2 = AffineFlat([0, 1], [[1, 0]])
        assert meet(l1, l2) is None

    def test_coordinate_planes_meet_in_axis(self):
        z0 = AffineFlat([0, 0, 0], [[1, 0, 0], [0, 1, 0]])
        y0 = AffineFlat([0, 0, 0], [[1, 0, 0], [0, 0, 1]])
        assert meet(z0, y0) == x_axis(3)


def random_linear_subspace(rng, n=5):
    d = rng.randint(0, n)
    dirs = []
    while len(dirs) < d:
        cand = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
        if reference_rank(dirs + [cand]) == len(dirs) + 1:
            dirs.append(cand)
    return AffineFlat([0] * n, dirs)


class TestPointDistanceOracle:
    """dist2_flats from a point flat (integer numerators) against the normal-equations
    distance from a point flat, on a flat and on an equal flat built
    separately."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(fracs, min_size=3, max_size=3),
        st.lists(fracs, min_size=3, max_size=3),
        st.lists(st.lists(fracs, min_size=3, max_size=3), min_size=0, max_size=2),
        st.integers(1, 3),
        fracs,
    )
    def test_matches_normal_equations(self, p, base, dirs, scale, shift):
        assume(reference_rank(dirs) == len(dirs))
        f = AffineFlat(base, dirs)
        # the same flat from another basepoint and a sheared, scaled basis
        other_dirs = [vec(scale * x for x in d) for d in dirs]
        if len(dirs) == 2:
            other_dirs[1] = vec(x + shift * y for x, y in zip(other_dirs[1], dirs[0]))
        offset = vec(shift * x for x in dirs[0]) if dirs else vec([0, 0, 0])
        g = AffineFlat(vec(a + b for a, b in zip(vec(base), offset)), other_dirs)
        assert g == f
        want = reference_dist2_flats(AffineFlat.point(p), f)
        assert dist2_flats(AffineFlat.point(p), f) == want
        assert dist2_flats(AffineFlat.point(p), g) == want
        assert dist2_flats(AffineFlat.point(p), f) == want  # a second call on the same flat


@st.composite
def direction_rows(draw):
    """(n, rows): 0 to n integer rows in Z^n for n from 1 to 4, the last
    sometimes an integer combination of the others, so dependent rows
    occur."""
    n = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(st.integers(-5, 5), min_size=n, max_size=n), max_size=n))
    if rows and draw(st.booleans()):
        cs = draw(st.lists(st.integers(-2, 2), min_size=len(rows) - 1, max_size=len(rows) - 1))
        rows[-1] = [sum(c * r[i] for c, r in zip(cs, rows)) for i in range(n)]
    return n, rows


class TestDist2FormAgainstGramAdjugate:
    @settings(max_examples=400, deadline=None)
    @given(direction_rows())
    def test_cauchy_binet_form_is_the_gram_adjugate_form(self, case):
        """_dist2_form's (g, M) are the Gram-adjugate integers, and
        dependent rows raise ValueError in both."""
        n, rows = case
        try:
            want = reference_dist2_form(rows, n)
        except ValueError:
            with pytest.raises(ValueError):
                flats_module._dist2_form(rows, n)
            return
        assert flats_module._dist2_form(rows, n) == want


class TestDimensionSumFormula:
    def test_random_linear_subspaces_of_q5(self):
        rng = random.Random(7)
        for _ in range(60):
            f = random_linear_subspace(rng)
            g = random_linear_subspace(rng)
            j = join([f, g])
            m = meet(f, g)
            assert m is not None  # both contain the origin
            assert j.dim + m.dim == f.dim + g.dim


class TestAffineDimensionFormula:
    def test_meeting_affine_flats_satisfy_modular_law(self):
        # for affine flats with nonempty intersection:
        # dim join + dim meet = dim f + dim g
        rng = random.Random(23)
        checked = 0
        while checked < 40:
            f = random_linear_subspace(rng, 4)
            g = random_linear_subspace(rng, 4)
            shift = [Fraction(rng.randint(-2, 2)) for _ in range(4)]
            f = AffineFlat([b + s for b, s in zip(f.basepoint, shift)], f.directions)
            g = AffineFlat([b + s for b, s in zip(g.basepoint, shift)], g.directions)
            m = meet(f, g)
            if m is None:
                continue
            checked += 1
            assert join([f, g]).dim + m.dim == f.dim + g.dim


def in_neighborhood(p, f, w) -> bool:
    """Whether the w-neighborhood of f holds p, read off the mass oracle as
    the mask of the atoms near f of a one-atom measure at p."""
    oracle = PlateMassOracle(DiscreteMeasure([(p, 1)], Fraction(1, 1024)))
    return oracle.atoms_near_flat(f, Fraction(w) ** 2) == 1


class TestNeighborhood:
    def test_point_on_flat(self):
        assert in_neighborhood([3, 0], x_axis(), 0)

    def test_just_too_far(self):
        assert not in_neighborhood([0, 1], x_axis(), Fraction(1, 2))

    def test_boundary_included(self):
        assert in_neighborhood([0, 1], x_axis(), 1)

    @settings(max_examples=60)
    @given(st.lists(fracs, min_size=3, max_size=3))
    def test_gram_ratio_oracle(self, p):
        # dist^2 = gram(D, p - b) / gram(D): an independent volume-ratio route
        f = AffineFlat([0, 0, 1], [[1, 0, 0], [1, 1, 0]])
        offset = [p[0] - 0, p[1] - 0, p[2] - 1]
        expected = reference_gram_det(list(f.directions) + [offset]) / reference_gram_det(f.directions)
        assert dist2_flats(AffineFlat.point(p), f) == expected


class TestFlatDistance:
    def test_parallel_lines(self):
        l1 = AffineFlat([0, 0], [[1, 0]])
        l2 = AffineFlat([0, 1], [[1, 0]])
        assert dist2_flats(l1, l2) == 1

    def test_intersecting(self):
        assert dist2_flats(x_axis(), y_axis()) == 0

    def test_skew_lines(self):
        l1 = AffineFlat([0, 0, 0], [[1, 0, 0]])
        l2 = AffineFlat([0, 1, 1], [[0, 0, 1]])
        assert dist2_flats(l1, l2) == 1


class TestWedgeAngle:
    def test_orthogonal_axes(self):
        assert wedge_angle_sin2([vec([1, 0])], [vec([0, 1])]) == 1

    def test_diagonal_half(self):
        assert wedge_angle_sin2([vec([1, 0])], [vec([1, 1])]) == Fraction(1, 2)

    def test_rank_deficient_returns_zero(self):
        b = [vec([1, 0])]
        assert wedge_angle_sin2(b, b) == 0

    def test_degenerate_factor_errors(self):
        with pytest.raises(ValueError):
            wedge_angle_sin2([vec([0, 0])], [vec([0, 1])])

    def test_range_and_column_op_invariance(self):
        rng = random.Random(3)
        for _ in range(40):
            b_cols = [[Fraction(rng.randint(-3, 3)) for _ in range(4)] for _ in range(2)]
            a_cols = [[Fraction(rng.randint(-3, 3)) for _ in range(4)] for _ in range(2)]
            try:
                s = wedge_angle_sin2(b_cols, a_cols)
            except ValueError:
                continue
            assert 0 <= s <= 1
            # shear one column of b by the other: value unchanged
            sheared = [b_cols[0], [x + 2 * y for x, y in zip(b_cols[1], b_cols[0])]]
            assert wedge_angle_sin2(sheared, a_cols) == s

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_the_fraction_gram_ratio(self, data):
        """Against det((b,a)^T (b,a)) / (det(b^T b) det(a^T a)) by the
        Fraction elimination, on columns of Q^2..Q^5 with mixed
        denominators, a's first column sometimes in the span of b."""
        n = data.draw(st.integers(2, 5))
        column = st.lists(coords, min_size=n, max_size=n)
        b = data.draw(st.lists(column, min_size=1, max_size=n - 1))
        a = data.draw(st.lists(column, min_size=1, max_size=n - len(b)))
        if data.draw(st.booleans()):
            ts = data.draw(st.lists(coords, min_size=len(b), max_size=len(b)))
            a[0] = [sum(t * c[i] for t, c in zip(ts, b)) for i in range(n)]
        gb, ga = reference_gram_det(b), reference_gram_det(a)
        if gb == 0 or ga == 0:
            with pytest.raises(ValueError, match="degenerate factor"):
                wedge_angle_sin2(b, a)
        else:
            assert wedge_angle_sin2(b, a) == reference_gram_det(b + a) / (gb * ga)


class TestChart:
    def test_round_trip(self):
        f = AffineFlat([1, 0, 0], [[0, 1, 0], [0, 1, 1]])
        chart = FlatChart(f)
        p = chart.to_ambient([2, 3])
        assert chart.to_coords(p) == vec([2, 3])

    def test_off_flat_point_rejected(self):
        chart = FlatChart(x_axis(3))
        with pytest.raises(ValueError):
            chart.to_coords([0, 1, 0])

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_the_fraction_reference(self, data):
        """On flats of Q^2..Q^4 of every dimension over denominators 1..7,
        given by their directions or as a join (directions derived from
        the rows): coordinates are those of the reference solve in the
        basis f.directions, to_ambient inverts them, and points and
        subflats off the flat are rejected."""
        n = data.draw(st.integers(2, 4))
        f = data.draw(random_flats(n))
        if data.draw(st.booleans()):
            f = join([AffineFlat.point(f.basepoint), f])
        chart = FlatChart(f)
        x = data.draw(st.lists(coords, min_size=f.dim, max_size=f.dim))
        p = on_flat(f.basepoint, f.directions, x)
        assert chart.to_ambient(x) == p
        assert chart.to_coords(p) == reference_chart_coords(f, p) == tuple(x)
        q = data.draw(st.tuples(*[coords] * n))
        want = reference_chart_coords(f, q)
        if want is None:
            with pytest.raises(ValueError, match="point not on the chart flat"):
                chart.to_coords(q)
        else:
            assert chart.to_coords(q) == want
        factors = st.lists(coords, min_size=f.dim, max_size=f.dim)
        on = [on_flat(f.basepoint, f.directions, data.draw(factors)) for _ in range(data.draw(st.integers(1, 3)))]
        g = AffineFlat.from_points(on + data.draw(st.lists(st.just(q), max_size=1)))
        if not f.contains_flat(g):
            with pytest.raises(ValueError, match="subflat leaves the chart flat"):
                chart.flat_to_coords(g)
            return
        image = chart.flat_to_coords(g)
        assert image.basepoint == reference_chart_coords(f, g.basepoint)
        assert image.directions == tuple(
            reference_solve([list(c) for c in zip(*f.directions)], d) for d in g.directions
        )
        assert chart.flat_to_ambient(image) == g


coords = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 7))


@st.composite
def forced_point_sets(draw):
    """Points of Q^2..Q^4 over denominators 1..7 and a dimension range
    (low, high) within 0..n-1.  Later points may be forced onto the line
    through two earlier points or the plane through three, or repeat one."""
    n = draw(st.integers(2, 4))
    pts = draw(st.lists(st.tuples(*[coords] * n), min_size=2, max_size=4))
    for _ in range(draw(st.integers(0, 3))):
        on = draw(st.lists(st.sampled_from(pts), min_size=2, max_size=3))
        ts = draw(st.lists(coords, min_size=len(on) - 1, max_size=len(on) - 1))
        pts.append(tuple(
            on[0][j] + sum(t * (q[j] - on[0][j]) for t, q in zip(ts, on[1:]))
            for j in range(n)
        ))
    low = draw(st.integers(0, n - 1))
    return pts, (low, draw(st.integers(low, n - 1)))


def count_builds(monkeypatch) -> list:
    """Record the flat of every AffineFlat._from_rows call: the one
    constructor behind spanned_flats and from_points."""
    calls = []
    build = AffineFlat._from_rows.__func__

    def counting(cls, *args):
        calls.append(build(cls, *args))
        return calls[-1]

    monkeypatch.setattr(AffineFlat, "_from_rows", classmethod(counting))
    return calls


class TestSpannedFlats:
    @settings(max_examples=200, deadline=None)
    @given(forced_point_sets())
    def test_matches_fraction_reference(self, case):
        """One walk over low..high gives the brute force's flats in its
        order, each with the mask of the points on it by Fraction rank."""
        pts, (low, high) = case
        got = list(spanned_flats(pts, low, high))
        want = reference_spanned_flats(pts, range(low, high + 1))
        assert [(f.canon, f.basepoint, f.directions) for f, _ in got] == [
            (f.canon, f.basepoint, f.directions) for f in want
        ]
        for f, mask in got:
            span = list(f.canon)
            on = [reference_rank(span + [vec(p) + (Fraction(1),)]) == len(span) for p in pts]
            assert mask == sum(1 << i for i, hit in enumerate(on) if hit)

    @settings(max_examples=200, deadline=None)
    @given(forced_point_sets())
    def test_from_points_matches_fraction_construction(self, case):
        """from_points against the Fraction build: the RREF of the
        differences as directions, the RREF of the lifted basis as canon."""
        pts, _ = case
        base = vec(pts[0])
        for k in range(1, len(pts) + 1):
            diffs = [vsub(vec(p), base) for p in pts[1:k]]
            dirs = row_space(diffs)
            lifted = [d + (Fraction(0),) for d in dirs] + [base + (Fraction(1),)]
            f = AffineFlat.from_points(pts[:k])
            assert (f.basepoint, f.directions, f.canon) == (base, dirs, row_space(lifted))
            assert f == AffineFlat(base, dirs) and hash(f) == hash(AffineFlat(base, dirs))

    def test_coplanar_lattice_builds_each_flat_once(self, monkeypatch):
        calls = count_builds(monkeypatch)
        flats = [f for f, _ in spanned_flats(coplanar_lattice(), 1, 2)]
        assert [f.dim for f in flats].count(2) == 1
        assert len(calls) == len(flats)

    @pytest.mark.parametrize("kind", ["lattice", "generic"])
    def test_enumeration_runs_no_elimination(self, kind, monkeypatch):
        """The pencil walk extends its parent's rows: with int_rref raising,
        the enumeration still completes, and reading a flat's directions
        (derived lazily) is what first eliminates."""
        pts = coplanar_lattice() if kind == "lattice" else generic_points(random.Random(5), 3, 16)

        def refuse(rows):
            raise AssertionError("int_rref called")

        monkeypatch.setattr(flats_module, "int_rref", refuse)
        got = [f for f, _ in spanned_flats(pts, 0, 2)]
        assert [f.dim for f in got].count(0) == len(pts)
        with pytest.raises(AssertionError, match="int_rref called"):
            got[-1].directions

    @settings(max_examples=200, deadline=None)
    @given(forced_point_sets())
    def test_rows_match_the_fraction_construction(self, case):
        """Each enumerated flat's rows, hash and dim equal those of the flat
        rebuilt from its basepoint and Fraction directions."""
        pts, (low, high) = case
        for f, _ in spanned_flats(pts, low, high):
            g = AffineFlat(f.basepoint, f.directions)
            assert f == g and hash(f) == hash(g)
            assert f.dim == len(f.directions)


def coplanar_lattice():
    """A 5 x 4 lattice in a plane of Q^3."""
    base, u, v = vec([1, 2, 3]), vec([Fraction(1, 3), 1, 0]), vec([0, Fraction(1, 5), 2])
    return [
        tuple(b + i * x + j * y for b, x, y in zip(base, u, v))
        for i in range(5)
        for j in range(4)
    ]


def on_flat(base, dirs, ts):
    return tuple(b + sum(t * d[j] for t, d in zip(ts, dirs)) for j, b in enumerate(base))


@st.composite
def membership_cases(draw):
    """A flat of Q^2..Q^4 over denominators 1..7, built by AffineFlat from
    its directions scaled and mixed by foreign rationals, or by from_points
    from points on it; points on it and anywhere; flats inside it and
    anywhere."""
    n = draw(st.integers(2, 4))
    d = draw(st.integers(0, n))
    vectors = st.tuples(*[coords] * n)
    base = draw(vectors)
    dirs = draw(st.lists(vectors, min_size=d, max_size=d))
    assume(reference_rank(dirs) == d)
    factors = st.lists(coords, min_size=d, max_size=d)
    if draw(st.booleans()):
        scales = draw(st.lists(coords.filter(bool), min_size=d, max_size=d))
        mixed = [tuple(s * x for x in v) for s, v in zip(scales, dirs)]
        if d > 1:
            t = draw(coords)
            mixed[0] = tuple(a + t * b for a, b in zip(mixed[0], mixed[1]))
        f = AffineFlat(base, mixed)
    else:
        spanning = [base] + [tuple(b + x for b, x in zip(base, v)) for v in dirs]
        extra = [on_flat(base, dirs, draw(factors)) for _ in range(draw(st.integers(0, 2)))]
        f = AffineFlat.from_points(draw(st.permutations(spanning + extra)))
    points = [on_flat(base, dirs, draw(factors)) for _ in range(3)] + draw(
        st.lists(vectors, min_size=1, max_size=3)
    )
    inside = [
        AffineFlat.from_points(draw(st.lists(st.sampled_from(points[:3]), min_size=1, max_size=3)))
    ]
    anywhere = [AffineFlat.from_points(draw(st.lists(st.sampled_from(points), min_size=1, max_size=n)))]
    return f, points, inside + anywhere


class TestIntegerMembership:
    @settings(max_examples=300, deadline=None)
    @given(membership_cases())
    def test_matches_fraction_reference(self, case):
        f, points, others = case
        for p in points:
            assert f.contains_point(p) == (dist2_flats(AffineFlat.point(p), f) == 0)
        for g in others:
            want = reference_rank(f.canon + g.canon) == reference_rank(f.canon)
            assert f.contains_flat(g) == want
        assert f.contains_flat(others[0])

    def test_contains_flat_tests_every_row(self):
        # the plane's first RREF row (1, 0, 0, 0) lies in the line's span
        line, plane = x_axis(3), AffineFlat([0, 0, 0], [[1, 0, 0], [0, 1, 0]])
        assert plane.contains_flat(line) and not line.contains_flat(plane)
        assert line != plane

    def test_ambient_mismatch_raises(self):
        f = x_axis(3)
        with pytest.raises(ValueError):
            f.contains_flat(x_axis(2))
        with pytest.raises(ValueError):
            f.contains_point([0, 0])


@st.composite
def random_flats(draw, n, d=None):
    """A flat of Q^n over denominators 1..7 with independent directions, of
    dimension d or, when None, of any dimension."""
    if d is None:
        d = draw(st.integers(0, n))
    vectors = st.tuples(*[coords] * n)
    dirs = draw(st.lists(vectors, min_size=d, max_size=d))
    assume(reference_rank(dirs) == d)
    return AffineFlat(draw(vectors), dirs)


@st.composite
def flat_pairs(draw):
    """Two flats of Q^2..Q^4: the second nested in the first, equal to it,
    parallel to it, crossing it at a point of it, or drawn independently
    (skew, disjoint or crossing by chance)."""
    n = draw(st.integers(2, 4))
    f = draw(random_flats(n))
    factors = st.lists(coords, min_size=f.dim, max_size=f.dim)
    kind = draw(st.sampled_from(["nested", "equal", "parallel", "crossing", "free"]))
    if kind == "nested":
        pts = [on_flat(f.basepoint, f.directions, draw(factors)) for _ in range(draw(st.integers(1, 3)))]
        g = AffineFlat.from_points(pts)
    elif kind == "equal":
        g = AffineFlat.from_points(
            [on_flat(f.basepoint, f.directions, draw(factors)) for _ in range(f.dim + 2)]
        )
        assume(g == f)
    elif kind == "parallel":
        offset = draw(st.tuples(*[coords] * n))
        dirs = draw(st.lists(st.sampled_from(f.directions), unique=True)) if f.dim else []
        g = AffineFlat(vec(a + b for a, b in zip(f.basepoint, offset)), dirs)
    elif kind == "crossing":
        g = draw(random_flats(n))
        g = AffineFlat(on_flat(f.basepoint, f.directions, draw(factors)), g.directions)
    else:
        g = draw(random_flats(n))
    return f, g


def flat_key(f):
    return None if f is None else (f.basepoint, f.directions, f.canon)


class TestSpanAlgebraAgainstFractionReference:
    """join, meet and dist2_flats on integer rows against the Fraction
    constructions: the RREF of the span over Q, the nullspace of the stacked
    bases and the normal equations.  Basepoints and directions must agree
    exactly, not only the flats."""

    @settings(max_examples=300, deadline=None)
    @given(flat_pairs())
    def test_pairs_match(self, pair):
        f, g = pair
        assert flat_key(meet(f, g)) == flat_key(reference_meet(f, g))
        assert flat_key(meet(g, f)) == flat_key(reference_meet(g, f))
        assert flat_key(join([f, g])) == flat_key(reference_join([f, g]))
        assert dist2_flats(f, g) == reference_dist2_flats(f, g)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 4).flatmap(lambda n: st.lists(random_flats(n), min_size=1, max_size=3)))
    def test_joins_match(self, fs):
        assert flat_key(join(fs)) == flat_key(reference_join(fs))


@st.composite
def projection_cases(draw):
    """A centre q and a screen u of Q^2..Q^4 with complementary lifted
    spans, a point x and a flat v.  x is free, on the centre, on the screen
    or on a ray from the centre parallel to the screen; v is free, through
    a point of the centre, inside the screen or a flat through the centre
    along the screen's directions, whose image is empty."""
    n = draw(st.integers(2, 4))
    dq = draw(st.integers(0, n - 1))
    q, u = draw(random_flats(n, dq)), draw(random_flats(n, n - 1 - dq))
    assume(reference_rank(q.canon + u.canon) == n + 1)

    def on(f):
        return on_flat(f.basepoint, f.directions, draw(st.lists(coords, min_size=f.dim, max_size=f.dim)))

    x_kind = draw(st.sampled_from(["free", "centre", "screen", "parallel"]))
    if x_kind == "free":
        x = draw(st.tuples(*[coords] * n))
    elif x_kind == "centre":
        x = on(q)
    elif x_kind == "screen":
        x = on(u)
    else:
        offset = on(AffineFlat([0] * n, u.directions))
        assume(any(offset))
        x = tuple(a + b for a, b in zip(on(q), offset))
    v_kind = draw(st.sampled_from(["free", "centre", "screen", "missing"]))
    if v_kind == "free":
        v = draw(random_flats(n))
    elif v_kind == "centre":
        v = AffineFlat(on(q), draw(random_flats(n)).directions)
    elif v_kind == "screen":
        v = AffineFlat.from_points([on(u) for _ in range(draw(st.integers(1, 3)))])
    else:
        v = AffineFlat(on(q), draw(st.lists(st.sampled_from(u.directions), unique=True)) if u.dim else [])
    return q, u, x, v


class TestProjectorAgainstJoinMeet:
    """The centre-screen projector against the join, then meet, of the
    Fraction references: on complementary pairs a point's image is the
    meet's one point, NonGenericScreen when the meet is empty and a
    ValueError on the centre; a flat's image is the meet, basepoint and
    directions alike."""

    @settings(max_examples=400, deadline=None)
    @given(projection_cases())
    def test_images_match(self, case):
        q, u, x, v = case
        proj = projector(q, u)
        want = reference_join_meet(q, u, x)
        if q.contains_point(x):
            assert want is None
            with pytest.raises(ValueError, match="point lies on the projection center"):
                radial_point(proj, x)
        elif want is None:
            with pytest.raises(NonGenericScreen):
                radial_point(proj, x)
        else:
            assert want.dim == 0 and radial_point(proj, x) == want.basepoint
        assert flat_key(radial_flat(proj, v)) == flat_key(reference_join_meet(q, u, v))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 4).flatmap(lambda n: st.tuples(random_flats(n), random_flats(n))))
    def test_refuses_exactly_the_non_complementary_pairs(self, pair):
        q, u = pair
        n = q.ambient_dim
        if q.dim + u.dim == n - 1 and reference_rank(q.canon + u.canon) == n + 1:
            assert len(projector(q, u)) == n + 1
        else:
            with pytest.raises(ValueError, match="centre and screen are not complementary"):
                projector(q, u)

    def test_refuses_a_centre_meeting_the_screen(self):
        q = AffineFlat([0, 0, 0], [[0, 0, 1]])
        with pytest.raises(ValueError, match="centre and screen are not complementary"):
            projector(q, AffineFlat([0, 0, 5], [[1, 0, 0]]))
        assert projector(q, AffineFlat([0, 1, 0], [[1, 0, 0]]))

    def test_refuses_a_centre_sharing_a_direction_with_the_screen(self):
        # disjoint, but the lifted spans share (0, 0, 1, 0)
        q = AffineFlat([0, 0, 0], [[0, 0, 1]])
        with pytest.raises(ValueError, match="centre and screen are not complementary"):
            projector(q, AffineFlat([0, 1, 0], [[0, 0, 1]]))


class TestAffineFlatRefusals:
    def test_direction_length_mismatch(self):
        with pytest.raises(ValueError, match="direction length mismatch"):
            AffineFlat([0, 0], [[0, 1], [1, 0, 0]])

    def test_dependent_directions(self):
        with pytest.raises(ValueError, match="directions are linearly dependent"):
            AffineFlat([0, 0, 0], [[1, 2, 0], [2, 4, 0]])

    def test_immutable(self):
        f = AffineFlat([0, 0], [[1, 0]])
        with pytest.raises(AttributeError, match="AffineFlat is immutable"):
            f.basepoint = (Fraction(1), Fraction(0))
        assert f.basepoint == (0, 0)

    def test_repr_names_dimension_and_ambient(self):
        """The repr reads the flat's dimension and its ambient dimension, in
        that order, and nothing of its coordinates."""
        assert repr(AffineFlat([1, 2, 3], [[1, 0, 0], [0, 1, 1]])) == "AffineFlat(dim=2, ambient=3)"
        assert repr(AffineFlat.point([Fraction(1, 3)])) == "AffineFlat(dim=0, ambient=1)"


class TestRefusals:
    LINE2 = AffineFlat([0, 0], [[1, 0]])
    LINE3 = AffineFlat([0, 0, 0], [[1, 0, 0]])

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: AffineFlat.from_points([]), "empty point list"),
            (lambda: join([]), "join of an empty family"),
            (lambda: join([TestRefusals.LINE2, TestRefusals.LINE3]), "ambient dimensions differ"),
            (lambda: meet(TestRefusals.LINE2, TestRefusals.LINE3), "ambient dimensions differ"),
            (lambda: projector(AffineFlat.point((0, 1)), TestRefusals.LINE3), "ambient dimensions differ"),
            (lambda: wedge_angle_sin2([[1, 0]], [[1, 0, 0]]), "row counts differ"),
            (lambda: wedge_angle_sin2([[1, 0], [0, 1]], [[1, 1]]), "more columns than rows"),
        ],
        ids=["from-no-points", "join-nothing", "join-dimensions", "meet-dimensions", "projector-dimensions",
             "wedge-row-counts", "wedge-too-many-columns"],
    )
    def test_refused(self, call, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()
