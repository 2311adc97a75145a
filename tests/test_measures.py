import itertools
import math
import random
from operator import add, mul
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, event, given, settings, strategies as st

from flatbeck import measures
from flatbeck.exactlin import norm2
from flatbeck.flats import AffineFlat, dist2_flats, spanned_flats
from flatbeck.measures import (
    DiscreteMeasure,
    PlateMassOracle,
    SPAN_CHUNK,
    dyadic_scales,
    frostman_fit,
    good_position_margin,
    irreducibility_modulus,
    support_dist2,
)
from fraction_reference import (
    reference_affinely_independent,
    reference_dist2_flats,
    reference_gram_det,
    reference_max_ball_mass,
    reference_rank,
    reference_spanned_flats,
)
from test_flats import count_builds

D = Fraction(1, 1024)


def segment_measure(n_atoms=16, y=0):
    pts = [(Fraction(i, n_atoms), Fraction(y)) for i in range(n_atoms)]
    return DiscreteMeasure.uniform(pts, Fraction(1, n_atoms))


class TestMassInPlate:
    def test_plate_containing_everything(self):
        mu = segment_measure()
        core = AffineFlat([0, 0], [[1, 0]])
        assert PlateMassOracle(mu).masses_near_flat(core, [1]) == [mu.total_mass]

    def test_far_core_zero(self):
        mu = segment_measure()
        core = AffineFlat([0, 5], [[1, 0]])
        assert PlateMassOracle(mu).masses_near_flat(core, [Fraction(1, 100) ** 2]) == [0]

    def test_atoms_on_core(self):
        mu = DiscreteMeasure.uniform(
            [(Fraction(i), Fraction(0)) for i in range(4)], Fraction(1, 4)
        )
        core = AffineFlat([0, 0], [[1, 0]])
        got = PlateMassOracle(mu).masses_near_flat(core, [Fraction(1, 10**9) ** 2])
        assert got == [mu.total_mass]

    def test_monotone_in_radius_and_additive(self):
        mu = segment_measure()
        core = AffineFlat.point([0, 0])
        masses = PlateMassOracle(mu).masses_near_flat(
            core, [Fraction(1, 2**j) ** 2 for j in (3, 2, 1)]
        )
        assert masses == sorted(masses)


# atoms share small denominators; span points and direction scales use
# denominators foreign to them, so the oracle must rescale exactly; weights
# have mixed denominators, so their integer sums must be rescaled too
atom_coord = st.builds(Fraction, st.integers(-8, 8), st.sampled_from([1, 2, 4]))
span_coord = st.builds(Fraction, st.integers(-8, 8), st.sampled_from([3, 5, 7]))
weight = st.builds(Fraction, st.integers(0, 5), st.integers(1, 6))


@st.composite
def plate_cases(draw):
    n = draw(st.integers(2, 4))
    atoms = draw(
        st.lists(
            st.tuples(st.tuples(*[atom_coord] * n), weight),
            min_size=1,
            max_size=8,
        )
    )
    k = draw(st.integers(0, n - 1))
    span = draw(st.lists(st.tuples(*[span_coord] * n), min_size=k + 1, max_size=k + 1))
    radii2 = draw(st.lists(st.builds(Fraction, st.integers(0, 40), st.integers(1, 9)), max_size=3))
    hit = draw(st.integers(0, len(atoms) - 1))
    stretch = draw(span_coord.filter(lambda c: c != 0))
    return atoms, span, radii2, hit, stretch


def reference_dist2(p, f):
    """The Fraction reference squared distance from the point p to f."""
    return reference_dist2_flats(AffineFlat.point(p), f)


def reference_masses(mu, f, radii2):
    """Fraction reference: the weight of atoms within each squared radius."""
    d2 = [reference_dist2(p, f) for p in mu.points()]
    return [sum((w for x, w in zip(d2, mu.weights()) if x <= r2), Fraction(0)) for r2 in radii2]


class TestDiscreteMeasureRefusals:
    @pytest.mark.parametrize(
        "atoms, message",
        [
            ([], "measure needs at least one atom"),
            ([((0, 0), 1), ((0, 0, 0), 1)], "atom dimension mismatch"),
        ],
        ids=["empty", "mixed-dimensions"],
    )
    def test_refused(self, atoms, message):
        with pytest.raises(ValueError, match=message):
            DiscreteMeasure(atoms, D)


class TestPlateMassOracle:
    @settings(max_examples=150, deadline=None)
    @given(plate_cases())
    def test_matches_the_fraction_reference(self, case):
        atoms, span, radii2, hit, stretch = case
        assume(reference_affinely_independent(span))
        mu = DiscreteMeasure(atoms, D)
        f = AffineFlat.from_points(span)
        # one radius exactly at an atom's squared distance: the boundary is closed
        radii2 = radii2 + [reference_dist2(mu.atoms[hit][0], f)]
        want = reference_masses(mu, f, radii2)
        oracle = PlateMassOracle(mu)
        assert oracle.masses_near_span(span, radii2) == want
        assert oracle.masses_near_flat(f, radii2) == want
        stretched = AffineFlat(f.basepoint, [[stretch * x for x in d] for d in f.directions])
        assert oracle.masses_near_flat(stretched, radii2) == want

    def test_dependent_span_rejected(self):
        oracle = PlateMassOracle(segment_measure())
        with pytest.raises(ValueError):
            oracle.masses_near_span([(0, 0), (1, 1), (2, 2)], [Fraction(1)])

    def test_a_measure_owns_one_oracle(self):
        mu = segment_measure()
        assert mu.oracle is mu.oracle
        radii2 = [Fraction(0), Fraction(1, 16)]
        assert mu.oracle.masses_near_span([(0, 0), (1, 0)], radii2) == PlateMassOracle(
            mu
        ).masses_near_span([(0, 0), (1, 0)], radii2)

    def test_thin_uses_the_same_oracle(self):
        from flatbeck import thin

        assert thin.PlateMassOracle is PlateMassOracle


@st.composite
def packed_batches(draw):
    """Atoms of Q^2 to Q^4, two weightings with zeros, and a batch of 0 to
    8 spans of mixed dimension.  A span is a lifted anchor (k A, k e) of the
    point A / e, whose coordinates have denominators foreign to the atoms',
    and integer direction rows; with dependent, one span gets a repeated or
    zero row.  With big, every coordinate and radius is scaled by 2^40 (its
    square for the radii), so the numerators pass 2^70."""
    n = draw(st.integers(2, 4))
    scale = 2**40 if draw(st.booleans()) else 1
    pts = draw(st.lists(st.tuples(*[atom_coord] * n), min_size=1, max_size=6))
    pts = [tuple(scale * x for x in p) for p in pts]
    weightings = [draw(st.lists(st.integers(0, 5), min_size=len(pts), max_size=len(pts))) for _ in range(2)]
    spans = []
    for _ in range(draw(st.integers(0, 8))):
        anchor = [scale * draw(span_coord) for _ in range(n)]
        e = math.lcm(*(x.denominator for x in anchor)) * draw(st.integers(1, 3))
        k = draw(st.integers(0, n - 1))
        dirs = draw(st.lists(st.tuples(*[st.integers(-4, 4)] * n), min_size=k, max_size=k))
        spans.append(((*(int(x * e) for x in anchor), e), dirs))
    dependent = bool(spans) and draw(st.booleans())
    if dependent:
        _, dirs = spans[draw(st.integers(0, len(spans) - 1))]
        dirs.append(dirs[0] if dirs else (0,) * n)
    radii2 = draw(st.lists(st.builds(Fraction, st.integers(0, 40), st.integers(1, 9)), max_size=2))
    hit = draw(st.integers(0, 7)), draw(st.integers(0, len(pts) - 1))
    return pts, weightings, spans, [r * scale * scale for r in radii2], hit, dependent, scale > 1


class TestPackedCore:
    """PlateMassOracle._counts, the batched core, against the Fraction
    reference distance of every atom from every span of the batch."""

    @settings(max_examples=200, deadline=None)
    @given(packed_batches())
    def test_matches_the_fraction_reference(self, case):
        pts, weightings, spans, radii2, hit, dependent, big = case
        oracle = PlateMassOracle(DiscreteMeasure([(p, 1) for p in pts], D))
        if dependent:
            with pytest.raises(ValueError, match="dependent"):
                oracle._counts(spans, radii2, weightings)
            return
        assume(all(
            reference_affinely_independent([a[:-1]] + [tuple(x + a[-1] * y for x, y in zip(a, d)) for d in dirs])
            for a, dirs in spans
        ))
        flats = [AffineFlat([Fraction(x, a[-1]) for x in a[:-1]], dirs) for a, dirs in spans]
        d2 = [[reference_dist2(p, f) for p in pts] for f in flats]
        # a negative radius and one past every atom, whose thresholds must
        # be clamped into the lane, and one exactly at an atom's squared
        # distance: the boundary is closed
        radii2 = radii2 + [Fraction(-10**40), Fraction(10**40)] + ([d2[hit[0] % len(spans)][hit[1]]] if spans else [])
        want = [[[sum(w for x, w in zip(row, ws) if x <= r2) for r2 in radii2] for ws in weightings] for row in d2]
        with mock.patch.object(measures, "_pack", wraps=measures._pack) as pack:
            assert oracle._counts(spans, radii2, weightings) == want
        if big and spans and any(map(any, pts)):
            assert max(width for (_, width), _ in pack.call_args_list) > 70
        with mock.patch.object(measures, "SPAN_CHUNK", 3):  # batches of up to 8 cross it
            assert oracle._counts(spans, radii2, weightings) == want
        assert oracle._counts([], radii2, weightings) == []


class TestAtomsNearFlat:
    """atoms_near_flat and dist2_flats from a point against the normal-equations
    distance of the Fraction reference, on random flats of Q^2 to Q^4."""

    @settings(max_examples=150, deadline=None)
    @given(plate_cases())
    def test_matches_the_fraction_reference(self, case):
        atoms, span, radii2, hit, _ = case
        assume(reference_affinely_independent(span))
        mu = DiscreteMeasure(atoms, D)
        f = AffineFlat.from_points(span)
        d2 = [reference_dist2(p, f) for p in mu.points()]
        assert [dist2_flats(AffineFlat.point(p), f) for p in mu.points()] == d2
        oracle = PlateMassOracle(mu)
        # one radius exactly at an atom's squared distance: the boundary is inside
        for r2 in radii2 + [d2[hit]]:
            assert oracle.atoms_near_flat(f, r2) == sum(1 << i for i, x in enumerate(d2) if x <= r2)
        assert oracle.atoms_near_flat(f, d2[hit]) >> hit & 1

    def test_ambient_mismatch_rejected(self):
        oracle = PlateMassOracle(segment_measure())  # in Q^2
        line = AffineFlat([0, 0, 0], [[1, 0, 0]])
        with pytest.raises(ValueError, match="ambient"):
            oracle.atoms_near_flat(line, Fraction(1))
        with pytest.raises(ValueError, match="ambient"):
            dist2_flats(AffineFlat.point((0, 0)), line)
        with pytest.raises(ValueError, match="ambient"):
            dist2_flats(AffineFlat.point((0, 0, 0, 0)), line)


@st.composite
def enumerated_flat_cases(draw):
    """Atoms of Q^2 or Q^3 (later ones may repeat an earlier one or sit on
    the line through two), squared radii and an atom to put on a boundary."""
    n = draw(st.integers(2, 3))
    pts = draw(st.lists(st.tuples(*[atom_coord] * n), min_size=1, max_size=5))
    for _ in range(draw(st.integers(0, 2))):
        a, b = draw(st.sampled_from(pts)), draw(st.sampled_from(pts))
        t = draw(atom_coord)
        pts.append(tuple(x + t * (y - x) for x, y in zip(a, b)))
    atoms = [(p, draw(weight)) for p in pts]
    radii2 = draw(st.lists(st.builds(Fraction, st.integers(0, 40), st.integers(1, 9)), max_size=2))
    return atoms, radii2, draw(st.integers(0, len(atoms) - 1))


class TestMassesNearEnumeratedFlats:
    @settings(max_examples=100, deadline=None)
    @given(enumerated_flat_cases())
    def test_picks_basis_matches_directions_and_reference(self, case):
        """A flat from spanned_flats is measured on its picks' integer
        differences; the masses equal those of the same flat rebuilt from
        its Fraction directions and the Fraction reference."""
        atoms, radii2, hit = case
        mu = DiscreteMeasure(atoms, D)
        oracle = PlateMassOracle(mu)
        for f in spanned_flats(mu.points(), range(mu.ambient_dim)):
            got = oracle.masses_near_flat(f, radii2)
            assert f._dirs is None  # the Fraction directions were not built
            rs = radii2 + [reference_dist2(mu.atoms[hit][0], f)]
            want = reference_masses(mu, f, rs)
            assert got == want[:-1]
            assert oracle.masses_near_flat(f, rs) == want
            assert oracle.masses_near_flat(AffineFlat(f.basepoint, f.directions), rs) == want


@st.composite
def anchored_call_sequences(draw):
    """Atoms, two distinct anchors A and B, and a sequence of calls through
    them that starts A, A, B, A.  Each call has k = 0..n-1 directions
    scaled by rationals with denominators foreign to the atoms, a door
    into the oracle, a few radii and the atom that sets one more."""
    n = draw(st.integers(2, 4))
    atoms = draw(
        st.lists(st.tuples(st.tuples(*[atom_coord] * n), weight), min_size=1, max_size=8)
    )
    anchors = draw(st.lists(st.tuples(*[span_coord] * n), min_size=2, max_size=2, unique=True))
    order = [0, 0, 1, 0] + draw(st.lists(st.integers(0, 1), max_size=4))
    calls = []
    for a in order:
        k = draw(st.integers(0, n - 1))
        dirs = draw(st.lists(st.tuples(*[atom_coord] * n), min_size=k, max_size=k))
        stretch = draw(st.lists(span_coord.filter(lambda c: c != 0), min_size=k, max_size=k))
        dirs = [tuple(s * x for x in d) for s, d in zip(stretch, dirs)]
        door = draw(st.sampled_from(["span", "flat", "line"] if k == 1 else ["span", "flat"]))
        radii2 = draw(st.lists(st.builds(Fraction, st.integers(0, 40), st.integers(1, 9)), max_size=3))
        hit = draw(st.integers(0, len(atoms) - 1))
        calls.append((anchors[a], dirs, door, radii2, hit))
    return atoms, calls


class TestAnchorMemo:
    """Calls that share an anchor, as runs of enumerated flats and graph
    tuples do, and calls that switch it: no call leaks into the next."""

    @settings(max_examples=200, deadline=None)
    @given(anchored_call_sequences())
    def test_call_sequences_match_the_fraction_reference(self, case):
        atoms, calls = case
        mu = DiscreteMeasure(atoms, D)
        oracle = PlateMassOracle(mu)
        for anchor, dirs, door, radii2, hit in calls:
            span = [anchor] + [tuple(a + x for a, x in zip(anchor, d)) for d in dirs]
            if not reference_affinely_independent(span):
                with pytest.raises(ValueError):
                    oracle.masses_near_span(span, [Fraction(1)])
                continue
            f = AffineFlat(anchor, dirs)
            d2 = reference_dist2(mu.atoms[hit][0], f)
            # unsorted, with a duplicate, 0, exactly an atom's squared
            # distance (the boundary is closed) and just below it, where the
            # integer threshold must round down
            radii2 = radii2 + radii2[:1] + [Fraction(0), d2, d2 - Fraction(1, 10**40)]
            random.Random(hit).shuffle(radii2)
            want = reference_masses(mu, f, radii2)
            if door == "span":
                got = oracle.masses_near_span(span, radii2)
            elif door == "flat":
                got = oracle.masses_near_flat(f, radii2)
            else:
                got = oracle.masses_near_line(*span, radii2)
            assert got == want

    def test_modulus_measures_each_candidate_once(self, monkeypatch):
        """Every atom of the grid lies on the plane v, so the candidates are
        its lines: each distinct one reaches the hyperplane core once, as a
        normal (a, b) whose hyperplane meets the grid in that line's atoms,
        no pencil walk runs, and the quadratic core sees only the tolerance
        check at v."""
        grid = [(Fraction(i, 8), Fraction(j, 8), Fraction(0)) for i in range(-4, 5) for j in range(-4, 5)]
        mu = DiscreteMeasure.uniform(grid, D)
        v = AffineFlat([0, 0, 0], [[1, 0, 0], [0, 1, 0]])
        lines = [frozenset(i for i, p in enumerate(grid) if f.contains_point(p)) for f in spanned_flats(grid, [1])]
        assert len(lines) > 800
        counts = count_calls(monkeypatch, "_counts")
        normals = count_calls(monkeypatch, "_hyperplane_counts")
        walks = []
        monkeypatch.setattr("flatbeck.flats._pencils", lambda *a: walks.append(a))
        monkeypatch.setattr(measures, "_pencils", lambda *a: walks.append(a), raising=False)
        assert irreducibility_modulus(mu, v, Fraction(1, 8)) == Fraction(1, 3)
        assert walks == []
        assert counts == [[v._span()]]
        got = [frozenset(i for i, p in enumerate(grid) if sum(map(mul, nu, p)) == nu[-1])
               for batch in normals for nu in batch]
        assert sorted(got, key=sorted) == sorted(lines, key=sorted)

    def test_errors_after_the_anchor_is_memoised(self):
        oracle = PlateMassOracle(segment_measure())
        line = [(0, 0), (1, 0)]
        assert oracle.masses_near_span(line, [Fraction(0)]) == [1]
        with pytest.raises(ValueError, match="dependent"):
            oracle.masses_near_span([(0, 0), (1, 1), (2, 2)], [Fraction(1)])
        with pytest.raises(ValueError, match="ambient"):
            oracle.masses_near_span([(0, 0, 0), (1, 0, 0)], [Fraction(1)])
        with pytest.raises(ValueError, match="ambient"):
            oracle.masses_near_flat(AffineFlat([0, 0, 0], [[1, 0, 0]]), [Fraction(1)])
        with pytest.raises(ValueError, match="ambient"):  # the anchor fits, a later point does not
            oracle.masses_near_span([(0, 0), (1, 0, 7)], [Fraction(0)])
        assert oracle.masses_near_span(line, [Fraction(0)]) == [1]


def count_calls(monkeypatch, name):
    """Record the first argument of every call to the named
    PlateMassOracle method."""
    calls = []
    method = getattr(PlateMassOracle, name)

    def counted(self, *args):
        calls.append(args[0])
        return method(self, *args)

    monkeypatch.setattr(PlateMassOracle, name, counted)
    return calls


class TestFrostmanFit:
    def test_uniform_segment_exponent_near_one(self):
        mu = segment_measure(n_atoms=256)
        fit = frostman_fit(mu, dyadic_scales(6, 1))
        assert abs(fit.exponent - 1) <= Fraction(1, 10)

    def test_single_atom_exponent_near_zero(self):
        mu = DiscreteMeasure([((0, 0), 1)], Fraction(1, 16))
        fit = frostman_fit(mu, dyadic_scales(4, 1))
        assert abs(fit.exponent) < 1e-9

    def test_grid_square_exponent_near_two(self):
        g = 32
        pts = [(Fraction(i, g), Fraction(j, g)) for i in range(g) for j in range(g)]
        mu = DiscreteMeasure.uniform(pts, Fraction(1, g))
        fit = frostman_fit(mu, dyadic_scales(4, 1))
        assert abs(fit.exponent - 2) <= Fraction(1, 10)

    def test_single_scale_rejected(self):
        with pytest.raises(ValueError):
            frostman_fit(segment_measure(), [Fraction(1, 2)])

    def test_table_is_exact(self):
        mu = segment_measure(n_atoms=8)
        fit = frostman_fit(mu, [Fraction(1, 2), Fraction(1, 4)])
        for scale, mass in fit.table:
            assert mass == measures._max_ball_masses(mu, [scale])[scale]
            assert isinstance(mass, Fraction)


class TestDyadicScales:
    def test_exact_for_every_integer_exponent(self):
        """A negative exponent gives a scale above 1, not a TypeError."""
        assert dyadic_scales(3, -1) == [2, 1, Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)]
        assert all(isinstance(s, Fraction) for s in dyadic_scales(3, -1))


@st.composite
def ball_cases(draw):
    """Atoms of Q^2 or Q^3, on one line through two of them or not, and a
    few radii."""
    n = draw(st.integers(2, 3))
    pts = draw(st.lists(st.tuples(*[atom_coord] * n), min_size=1, max_size=7))
    if draw(st.booleans()):
        a, b = pts[0], pts[-1]
        pts = [tuple(x + t * (y - x) for x, y in zip(a, b)) for t in draw(
            st.lists(span_coord, min_size=1, max_size=7))]
    atoms = [(p, draw(weight)) for p in pts]
    radii = draw(st.lists(st.builds(Fraction, st.integers(0, 12), st.integers(1, 8)), min_size=1, max_size=3))
    return atoms, radii


class TestBallMassesAgainstFractionReference:
    """The ball masses, the oracle's point-flat counts, against brute force
    over Fraction on collinear and spread supports; radii at atom distances
    check that balls are closed."""

    def test_collinear_segment(self):
        # (1, 2, 2) / 3 is a unit vector, so atoms t apart along it are t apart
        ts = [Fraction(0), Fraction(1, 6), Fraction(1, 4), Fraction(1, 2), Fraction(2, 3), Fraction(1)]
        base = (Fraction(1, 5), Fraction(0), Fraction(-1, 3))
        atoms = [
            (tuple(b + t * x / 3 for b, x in zip(base, (1, 2, 2))), Fraction(k + 1, 21))
            for k, t in enumerate(ts)
        ]
        mu = DiscreteMeasure(atoms, Fraction(1, 16))
        radii = [Fraction(1, 12), Fraction(1, 6), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2)]
        fit = frostman_fit(mu, radii)
        for r, mass in fit.table:
            assert mass == measures._max_ball_masses(mu, [r])[r] == reference_max_ball_mass(atoms, r)

    def test_non_collinear_grid(self):
        atoms = [
            ((Fraction(i, 4), Fraction(j, 4)), Fraction(1 + (i * j) % 3, 40))
            for i in range(4)
            for j in range(4)
        ]
        mu = DiscreteMeasure(atoms, Fraction(1, 8))
        radii = [Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(3, 4)]
        fit = frostman_fit(mu, radii)
        for r, mass in fit.table:
            assert mass == measures._max_ball_masses(mu, [r])[r] == reference_max_ball_mass(atoms, r)

    @settings(max_examples=150, deadline=None)
    @given(ball_cases())
    def test_random_supports(self, case):
        atoms, radii = case
        mu = DiscreteMeasure(atoms, D)
        for r in radii:
            assert measures._max_ball_masses(mu, [r])[r] == reference_max_ball_mass(mu.atoms, r)


@st.composite
def modulus_cases(draw):
    """A flat v of dimension k = 1..n in Q^n, n = 1..4 (k = n is the whole
    space), with directions of small entries, often axes; 0 to 5 atoms on
    v, at combinations of the first r <= k directions (r < k - 1 puts them
    in a flat below v's hyperplanes); 0 to 3 atoms
    off v by at most 1/16 a coordinate, within any tolerance >= 1/8; mixed
    weights with zeros; and a w."""
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, n))
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, -3, 4])
    dirs = draw(st.lists(st.tuples(*[entry] * n), min_size=k, max_size=k))
    assume(reference_rank(dirs) == k)
    base = draw(st.tuples(*[span_coord] * n))
    v = AffineFlat(base, dirs)
    r = draw(st.integers(0, k))
    t = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2, 4]))
    pts = []
    for _ in range(draw(st.integers(0, 5))):
        ts = [draw(t) if j < r else 0 for j in range(k)]
        pts.append(tuple(b + sum(c * d[i] for c, d in zip(ts, dirs)) for i, b in enumerate(base)))
    for _ in range(draw(st.integers(0 if pts else 1, 3))):
        p = draw(st.sampled_from(pts)) if pts else base
        shift = draw(st.tuples(*[st.builds(Fraction, st.integers(-1, 1), st.just(16))] * n))
        pts.append(tuple(map(add, p, shift)))
    atoms = [(p, draw(weight)) for p in pts]
    return atoms, v, draw(st.sampled_from([Fraction(0), Fraction(1, 8), Fraction(1, 2)]))


class TestIrreducibilityModulus:
    def test_all_atoms_on_one_hyperplane(self):
        v = AffineFlat.full_space(2)
        mu = segment_measure()  # supported on the x-axis inside Q^2
        assert irreducibility_modulus(mu, v, 0) == 1

    def test_four_affinely_independent_atoms_in_q3(self):
        v = AffineFlat.full_space(3)
        pts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
        mu = DiscreteMeasure.uniform(pts, Fraction(1, 16))
        assert irreducibility_modulus(mu, v, 0) == Fraction(3, 4)

    def test_simplex_vertices_in_qn(self):
        for n in (2, 3):
            v = AffineFlat.full_space(n)
            pts = [tuple(Fraction(0) for _ in range(n))] + [
                tuple(Fraction(1 if j == i else 0) for j in range(n)) for i in range(n)
            ]
            mu = DiscreteMeasure.uniform(pts, Fraction(1, 16))
            assert irreducibility_modulus(mu, v, 0) == Fraction(n, n + 1)

    def test_brute_force_oracle_on_random_atoms(self):
        # exhaustive check over all atom-subset hyperplanes at w = 0
        rng = random.Random(5)
        pts = [
            (Fraction(rng.randint(-4, 4), 4), Fraction(rng.randint(-4, 4), 4))
            for _ in range(6)
        ]
        pts = list(dict.fromkeys(pts))
        mu = DiscreteMeasure.uniform(pts, Fraction(1, 16))
        v = AffineFlat.full_space(2)
        got = irreducibility_modulus(mu, v, 0)
        best = Fraction(0)
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                if pts[i] == pts[j]:
                    continue
                f = AffineFlat.from_points([pts[i], pts[j]])
                mass = sum(w for p, w in mu.atoms if f.contains_point(p))
                best = max(best, mass)
        for p in pts:  # single-point flats
            mass = sum(w for q, w in mu.atoms if q == p)
            best = max(best, mass)
        assert got == best / mu.total_mass

    def test_monotone_in_w(self):
        v = AffineFlat.full_space(2)
        pts = [(0, 0), (1, 0), (0, 1), (Fraction(1, 2), Fraction(1, 3))]
        mu = DiscreteMeasure.uniform(pts, Fraction(1, 16))
        vals = [
            irreducibility_modulus(mu, v, w)
            for w in (0, Fraction(1, 8), Fraction(1, 2))
        ]
        assert vals == sorted(vals)

    def test_no_atom_exactly_on_v(self):
        """Every atom lies within the tolerance of the plane z = 0 and none
        on it: no candidate flat lies in v, so the modulus is 0 and the
        walk over no atoms yields no span."""
        pts = [(Fraction(i, 4), Fraction(j, 4), Fraction(1, 2048)) for i in range(2) for j in range(2)]
        mu = DiscreteMeasure.uniform(pts, Fraction(1, 1024))
        v = AffineFlat([0, 0, 0], [[1, 0, 0], [0, 1, 0]])
        assert irreducibility_modulus(mu, v, Fraction(1, 8)) == 0

    @settings(max_examples=60, deadline=None)
    @given(
        enumerated_flat_cases(),
        st.sampled_from([Fraction(0), Fraction(1, 8), Fraction(1, 2)]),
        st.integers(0, 255),
        st.integers(1, 3),
    )
    def test_walk_matches_the_reference_flats(self, case, w, on_v, k):
        """The modulus builds no AffineFlat; it equals the heaviest reference
        mass over the brute-force flats of dimension < dim v spanned by the
        atoms of the mask on_v, and 0 when the mask holds no atom.  on_v is
        a subset of the atoms exactly on v, as both callers pass."""
        atoms, _, _ = case
        mu = DiscreteMeasure(atoms, D)
        assume(mu.total_mass > 0)
        n = mu.ambient_dim
        v = AffineFlat([0] * n, [[int(i == j) for j in range(n)] for i in range(min(k, n))])
        on_v &= sum(1 << i for i, p in enumerate(mu.points()) if reference_dist2(p, v) == 0)
        with pytest.MonkeyPatch.context() as patch:
            calls = count_builds(patch)
            got = measures._oracle_modulus(mu, v, w, on_v)
        assert calls == []
        flats = reference_spanned_flats([p for i, p in enumerate(mu.points()) if on_v >> i & 1], range(v.dim))
        want = max((reference_masses(mu, f, [w * w])[0] for f in flats), default=0)
        assert got == want / mu.total_mass

    @settings(max_examples=100, deadline=None)
    @given(modulus_cases(), st.data())
    def test_hyperplane_pass_matches_the_reference_flats(self, case, data):
        """The modulus, through both doors, against the heaviest reference
        mass over every brute-force flat of dimension < dim v spanned by the
        atoms on v; w is often exactly an atom's distance from one of them,
        where the closed neighbourhood must count it."""
        atoms, v, w = case
        mu = DiscreteMeasure(atoms, D)
        assume(mu.total_mass > 0)
        on_v = sum(1 << i for i, p in enumerate(mu.points()) if reference_dist2(p, v) == 0)
        cands = reference_spanned_flats([p for i, p in enumerate(mu.points()) if on_v >> i & 1], range(v.dim))
        exact = sorted({d2 for f in cands for p in mu.points() if (d2 := reference_dist2(p, f)) > 0
                        and all(math.isqrt(x) ** 2 == x for x in (d2.numerator, d2.denominator))})
        if exact and data.draw(st.booleans()):
            d2 = data.draw(st.sampled_from(exact))
            w = Fraction(math.isqrt(d2.numerator), math.isqrt(d2.denominator))
        # the cases the pass must get right, on the statistics page
        event(f"dim v {'= n' if v.dim == mu.ambient_dim else '< n'}")
        event("atoms off v" if on_v != (1 << len(mu)) - 1 else "every atom on v")
        rank = reference_rank([p + (1,) for i, p in enumerate(mu.points()) if on_v >> i & 1])
        event("no atom on v" if rank == 0 else "on-v span below k - 1" if rank < v.dim else "on-v span >= k - 1")
        event("w an atom's distance" if w * w in exact else "w drawn")
        want = max((reference_masses(mu, f, [w * w])[0] for f in cands), default=0) / mu.total_mass
        assert measures._oracle_modulus(mu, v, w, on_v) == want
        assert irreducibility_modulus(mu, v, w, support_tolerance=1) == want
        with mock.patch.object(measures, "SPAN_CHUNK", 2):  # the candidates cross chunks
            assert measures._oracle_modulus(mu, v, w, on_v) == want

    def test_support_beyond_the_tolerance_rejected(self):
        """An atom 1/8 off the plane z = 0 is refused at the default
        tolerance, the resolution 1/1024, and measured at tolerance 1/8: the
        one atom on v spans a point, which holds half the mass."""
        pts = [(Fraction(0), Fraction(0), Fraction(0)), (Fraction(1), Fraction(0), Fraction(1, 8))]
        mu = DiscreteMeasure.uniform(pts, Fraction(1, 1024))
        v = AffineFlat([0, 0, 0], [[1, 0, 0], [0, 1, 0]])
        with pytest.raises(ValueError, match="support leaves the tolerance neighborhood of v"):
            irreducibility_modulus(mu, v, 0)
        assert irreducibility_modulus(mu, v, Fraction(1, 8), support_tolerance=Fraction(1, 8)) == Fraction(1, 2)

    def test_point_flat_rejected(self):
        mu = DiscreteMeasure([((0, 0), 1)], Fraction(1, 4))
        with pytest.raises(ValueError):
            irreducibility_modulus(mu, AffineFlat.point([0, 0]), 0)


margin_coord = st.sampled_from([Fraction(-1, 2), Fraction(0), Fraction(1, 3), Fraction(1, 2)])


@st.composite
def margin_cases(draw):
    """One to n + 1 measures on Q^n, n = 1..3, with one or two atoms each
    from a small coordinate set, so dependent tuples are common; every atom
    lies in the unit ball."""
    n = draw(st.integers(1, 3))
    k = draw(st.integers(1, n + 1))
    atoms = st.lists(st.tuples(*[margin_coord] * n), min_size=1, max_size=2, unique=True)
    return [DiscreteMeasure.uniform(draw(atoms), D) for _ in range(k)]


class TestGoodPositionMargin:
    @settings(max_examples=150, deadline=None)
    @given(margin_cases())
    def test_matches_the_normalized_gram_determinant(self, mus):
        """Against the Fraction Gram determinant of the lifted tuple matrix
        over the product of its squared column norms, dependent tuples
        included."""
        want = []
        for combo in itertools.product(*(m.points() for m in mus)):
            cols = [p + (Fraction(1),) for p in combo]
            want.append(reference_gram_det(cols) / math.prod(map(norm2, cols)))
        assert good_position_margin(mus) == min(want)

    def test_two_distinct_singletons_positive(self):
        a = DiscreteMeasure([((0, 0), 1)], D)
        b = DiscreteMeasure([((Fraction(1, 2), 0), 1)], D)
        assert good_position_margin([a, b]) > 0

    def test_three_collinear_singletons_zero(self):
        mus = [
            DiscreteMeasure([((Fraction(i, 4), Fraction(i, 4)), 1)], D)
            for i in range(3)
        ]
        assert good_position_margin(mus) == 0

    def test_simplex_vertices_exact_value(self):
        a = DiscreteMeasure([((0, 0), 1)], D)
        b = DiscreteMeasure([((1, 0), 1)], D)
        c = DiscreteMeasure([((0, 1), 1)], D)
        margin = good_position_margin([a, b, c])
        # lifted columns (0,0,1),(1,0,1),(0,1,1): det = 1, so gram det = 1;
        # squared column norms are 1, 2, 2
        assert margin == Fraction(1, 4)


def raw_points():
    """1 to 5 (x, y, d) triples for the point (x/d, y/(d + 1))."""
    return st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9), st.integers(1, 12)), min_size=1, max_size=5)


class TestSupportDistance:
    def test_parallel_segments(self):
        assert support_dist2(segment_measure(y=0), segment_measure(y=1)) == 1

    @settings(max_examples=100, deadline=None)
    @given(raw_points(), raw_points())
    def test_integer_scan_matches_fraction_reference(self, raw_a, raw_b):
        # atoms over different denominators, so one common denominator is needed
        a, b = (
            DiscreteMeasure([((Fraction(x, d), Fraction(y, d + 1)), 1) for x, y, d in raw], D)
            for raw in (raw_a, raw_b)
        )
        want = min(
            sum((s - t) ** 2 for s, t in zip(p, q)) for p in a.points() for q in b.points()
        )
        assert support_dist2(a, b) == want
