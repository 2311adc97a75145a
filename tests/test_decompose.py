import math
from fractions import Fraction

import pytest
from hypothesis import event, given, settings, strategies as st

from flatbeck import decompose as decompose_module, flats
from flatbeck.decompose import (
    DecompositionResult,
    NotDiscretelyNC,
    TraceStep,
    decompose,
    minimal_concentration_flat,
    verify_decomposition,
)
from flatbeck.flatcollect import FlatCollection
from flatbeck.flats import AffineFlat
from flatbeck.measures import DiscreteMeasure
from fraction_reference import reference_extension_check, reference_spanned_flats
from test_flats import count_builds
from test_measures import reference_dist2, reference_masses

RES = Fraction(1, 1024)


def weighted(points, total):
    w = Fraction(total) / len(points)
    return [(p, w) for p in points]


def skew_lines_cloud_scene():
    """Two skew lines carrying most of the mass plus a light generic cloud."""
    line1 = [(Fraction(i, 8), Fraction(0), Fraction(0)) for i in range(8)]
    line2 = [(Fraction(0), Fraction(1), Fraction(i, 8)) for i in range(8)]
    cloud = [
        (Fraction(1, 3), Fraction(1, 2), Fraction(1, 5)),
        (Fraction(2, 3), Fraction(1, 3), Fraction(3, 5)),
        (Fraction(1, 5), Fraction(2, 3), Fraction(4, 5)),
        (Fraction(3, 5), Fraction(1, 7), Fraction(2, 7)),
    ]
    atoms = (
        weighted(line1, Fraction(9, 20))
        + weighted(line2, Fraction(9, 20))
        + weighted(cloud, Fraction(1, 10))
    )
    return DiscreteMeasure(atoms, RES)


def plateau_scene():
    """Three lines inside the plane z = 0 plus one line off it.

    Extracting the third in-plane line keeps the cost at 2 while the
    minimizing-partition count drops, which exercises the plateau invariant
    non-vacuously.
    """
    l1 = [(Fraction(i, 8), Fraction(0), Fraction(0)) for i in range(1, 8)]
    l2 = [(Fraction(0), Fraction(i, 8), Fraction(0)) for i in range(1, 7)]
    l3 = [
        (Fraction(i, 8), Fraction(i, 8) + Fraction(1, 2), Fraction(0))
        for i in range(1, 6)
    ]
    l4 = [(Fraction(i, 8), Fraction(0), Fraction(1)) for i in range(1, 5)]
    atoms = (
        weighted(l1, Fraction(35, 100))
        + weighted(l2, Fraction(30, 100))
        + weighted(l3, Fraction(20, 100))
        + weighted(l4, Fraction(15, 100))
    )
    return DiscreteMeasure(atoms, RES)


def rational_sqrt(q: Fraction):
    """The rational square root of q >= 0, or None when it has none."""
    a, b = math.isqrt(q.numerator), math.isqrt(q.denominator)
    return Fraction(a, b) if (a * a, b * b) == (q.numerator, q.denominator) else None


near = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2, 4]))


@st.composite
def concentration_cases(draw):
    """Atoms of Q^2 or Q^3 with positive weights, some shifted along an axis
    from earlier ones so that some distances to candidate flats are
    rational; theta 1 or k/6; and w drawn, or (exact) exactly the distance
    of an atom from a candidate of the reference."""
    n = draw(st.integers(2, 3))
    pts = draw(st.lists(st.tuples(*[near] * n), min_size=1, max_size=4))
    for _ in range(draw(st.integers(0, 3))):
        p = list(draw(st.sampled_from(pts)))
        p[draw(st.integers(0, n - 1))] += draw(near)
        pts.append(tuple(p))
    pts = list(dict.fromkeys(pts))
    mu = DiscreteMeasure([(p, Fraction(draw(st.integers(1, 5)), draw(st.integers(1, 6)))) for p in pts], RES)
    theta = draw(st.one_of(st.just(Fraction(1)), st.builds(Fraction, st.integers(1, 6), st.just(6))))
    cands = reference_spanned_flats(pts, range(1, n))
    at = sorted({r for f in cands for p in pts if (r := rational_sqrt(reference_dist2(p, f)))})
    exact = bool(at) and draw(st.booleans())
    w = draw(st.sampled_from(at)) if exact else draw(st.builds(Fraction, st.integers(0, 4), st.integers(1, 4)))
    return mu, w, theta, exact


class TestMinimalConcentrationFlat:
    def test_all_mass_on_a_line(self):
        mu = DiscreteMeasure.uniform(
            [(Fraction(i, 4), Fraction(0), Fraction(0)) for i in range(4)], RES
        )
        got = minimal_concentration_flat(mu, 0, 1)
        assert got == AffineFlat([0, 0, 0], [[1, 0, 0]])

    def test_generic_cloud_needs_full_space(self):
        mu = DiscreteMeasure.uniform(
            [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)], RES
        )
        assert minimal_concentration_flat(mu, 0, 1) == AffineFlat.full_space(3)

    def test_two_thirds_on_a_plane(self):
        plane_pts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]
        off_pts = [(0, 0, 1), (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3))]
        mu = DiscreteMeasure.uniform(plane_pts + off_pts, RES)
        got = minimal_concentration_flat(mu, 0, Fraction(1, 2))
        assert got == AffineFlat([0, 0, 0], [[1, 0, 0], [0, 1, 0]])

    def test_heavy_atom_still_needs_a_line(self):
        """One atom carries 3/4 of the mass, but a point is never a
        candidate: the search returns the line through both atoms."""
        mu = DiscreteMeasure([((0, 0), Fraction(3, 4)), ((1, 0), Fraction(1, 4))], RES)
        assert minimal_concentration_flat(mu, 0, Fraction(1, 2)) == AffineFlat([0, 0], [[1, 0]])

    @pytest.mark.parametrize("theta", [0, Fraction(-1, 2), Fraction(3, 2)])
    def test_theta_outside_the_unit_interval_refused(self, theta):
        mu = DiscreteMeasure.uniform([(0, 0), (1, 0)], RES)
        with pytest.raises(ValueError, match=r"^theta must lie in \(0, 1\]$"):
            minimal_concentration_flat(mu, 0, theta)

    def test_one_walk_per_call(self, monkeypatch):
        """Every dimension comes off one pencil walk: on the generic cloud
        the search runs through every level to the full space, and on the
        plane scene it stops at its plane, with one _pencils call each (the
        name the search reads is patched)."""
        walks = []
        walk = flats._pencils
        monkeypatch.setattr(decompose_module, "_pencils", lambda *a: walks.append(a) or walk(*a))
        cloud = DiscreteMeasure.uniform([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)], RES)
        assert minimal_concentration_flat(cloud, 0, 1) == AffineFlat.full_space(3)
        plane = DiscreteMeasure.uniform([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)], RES)
        assert minimal_concentration_flat(plane, 0, Fraction(1, 2)).dim == 2
        assert len(walks) == 2

    def test_only_the_returned_flat_is_built(self, monkeypatch):
        """The search counts its candidates on their pick spans: on the
        plane scene it builds one flat, the plane it returns, and on the
        generic cloud none, as the full space comes from AffineFlat's own
        constructor."""
        calls = count_builds(monkeypatch)
        plane = DiscreteMeasure.uniform([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)], RES)
        assert calls == [minimal_concentration_flat(plane, 0, Fraction(1, 2))]
        calls.clear()
        cloud = DiscreteMeasure.uniform([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)], RES)
        assert minimal_concentration_flat(cloud, 0, 1) == AffineFlat.full_space(3)
        assert calls == []

    @settings(max_examples=150, deadline=None)
    @given(concentration_cases())
    def test_first_reference_flat_that_captures_theta(self, case):
        """The search returns the first flat of the brute-force enumeration
        over dimensions 1..n-1, in its order, whose w-neighbourhood
        holds theta of the mass, and the full space when none does."""
        mu, w, theta, exact = case
        n = mu.ambient_dim
        cands = reference_spanned_flats(mu.points(), range(1, n))
        want = next((f for f in cands if reference_masses(mu, f, [w * w])[0] >= theta * mu.total_mass), None)
        got = minimal_concentration_flat(mu, w, theta)
        if exact:
            event("w at an atom's distance")
        if want is None:
            event(f"full space at theta {'1' if theta == 1 else '< 1'}")
            assert got == AffineFlat.full_space(n)
        else:
            assert (got.canon, got.basepoint, got.directions) == (want.canon, want.basepoint, want.directions)


class TestDecompose:
    def test_skew_lines_scene_terminates_with_cost_three(self):
        x = skew_lines_cloud_scene()
        result = decompose(x, 3, 0, Fraction(2, 5))
        assert result.final_cost >= 3
        assert len(result.flats) == 3
        assert [f.dim for f in result.flats] == [1, 1, 1]
        report = verify_decomposition(result, 3, 0, Fraction(1, 2))
        assert report.passed, [c for c in report.clauses if not c.passed]

    def test_all_on_one_line_not_nc(self):
        mu = DiscreteMeasure.uniform(
            [(Fraction(i, 8), Fraction(0), Fraction(0)) for i in range(8)], RES
        )
        with pytest.raises(NotDiscretelyNC):
            decompose(mu, 3, 0, Fraction(1, 2))

    def test_simplex_vertices_in_plane(self):
        mu = DiscreteMeasure.uniform([(0, 0), (1, 0), (0, 1)], RES)
        result = decompose(mu, 2, 0, Fraction(1, 2))
        assert result.final_cost >= 2
        assert len(result.flats) <= 2

    def test_plateau_trace(self):
        x = plateau_scene()
        result = decompose(x, 3, 0, Fraction(3, 10))
        costs = [t.cost for t in result.trace]
        counts = [t.n_count for t in result.trace]
        assert costs == [0, 1, 2, 2]
        assert counts[2] > counts[3]  # strict decrease on the plateau
        assert result.final_cost >= 3
        report = verify_decomposition(result, 3, 0, Fraction(1, 2))
        assert report.passed, [c for c in report.clauses if not c.passed]
        assert reference_extension_check(result.flats, costs) == (True, None)

    def test_runs_are_deterministic(self):
        a = decompose(skew_lines_cloud_scene(), 3, 0, Fraction(2, 5))
        b = decompose(skew_lines_cloud_scene(), 3, 0, Fraction(2, 5))
        assert [f.canon for f in a.flats] == [f.canon for f in b.flats]
        assert a.trace == b.trace
        assert [p.atoms for p in a.pieces] == [p.atoms for p in b.pieces]

    def test_trace_costs_nondecreasing_everywhere(self):
        for scene, n, theta in [
            (skew_lines_cloud_scene(), 3, Fraction(2, 5)),
            (plateau_scene(), 3, Fraction(3, 10)),
        ]:
            result = decompose(scene, n, 0, theta)
            costs = [t.cost for t in result.trace] + [result.final_cost]
            assert all(a <= b for a, b in zip(costs, costs[1:]))

    def test_ambient_mismatch_refused(self):
        with pytest.raises(ValueError, match="^measure ambient dimension differs from n$"):
            decompose(skew_lines_cloud_scene(), 2, 0, Fraction(2, 5))

    def test_step_cap_is_an_error(self, monkeypatch):
        """The skew-lines scene extracts three flats and reaches cost 3 at
        the check after the third; the cap admits MAX_STEPS extractions, so
        capped at two, the loop raises rather than return what it has."""
        monkeypatch.setattr(decompose_module, "MAX_STEPS", 2)
        with pytest.raises(RuntimeError, match="^decomposition failed to terminate within the step cap$"):
            decompose(skew_lines_cloud_scene(), 3, 0, Fraction(2, 5))
        monkeypatch.setattr(decompose_module, "MAX_STEPS", 3)
        result = decompose(skew_lines_cloud_scene(), 3, 0, Fraction(2, 5))
        assert result.final_cost == 3 and len(result.flats) == 3


class TestRandomizedInvariants:
    def test_seeded_random_scenes_keep_trace_invariants(self):
        import random

        from flatbeck.decompose import NotDiscretelyNC

        rng = random.Random(321)
        ran = 0
        for _ in range(12):
            n = rng.choice([2, 3])
            atoms = []
            for _ in range(rng.randint(4, 9)):
                p = tuple(Fraction(rng.randint(-8, 8), 8) for _ in range(n))
                w = Fraction(rng.randint(1, 4), 16)
                atoms.append((p, w))
            seen = set()
            atoms = [a for a in atoms if not (a[0] in seen or seen.add(a[0]))]
            if len(atoms) < 2:
                continue
            mu = DiscreteMeasure(atoms, RES)
            try:
                result = decompose(mu, n, 0, Fraction(1, 2))
            except NotDiscretelyNC:
                continue
            ran += 1
            report = verify_decomposition(result, n, 0, Fraction(1))
            names = {c.name: c.passed for c in report.clauses}
            assert names["trace-cost-nondecreasing"]
            assert names["plateau-count-strictly-decreasing"]
            assert names["at-most-one-minimizing-extension"]
            assert names["disjoint-supports"]
            assert result.final_cost >= n
        assert ran >= 4  # the sweep must actually exercise full runs


class TestVerifyDecomposition:
    def test_overlapping_supports_detected(self):
        x = skew_lines_cloud_scene()
        result = decompose(x, 3, 0, Fraction(2, 5))
        # merge piece 0's atoms into piece 1 to break disjointness
        broken = result.pieces[1]
        merged = DiscreteMeasure(
            list(broken.atoms) + [result.pieces[0].atoms[0]], RES
        )
        result.pieces[1] = merged
        report = verify_decomposition(result, 3, 0, Fraction(1, 2))
        clause = {c.name: c for c in report.clauses}["disjoint-supports"]
        assert not clause.passed and clause.witness

    def test_reducible_piece_detected(self):
        x = skew_lines_cloud_scene()
        result = decompose(x, 3, 0, Fraction(2, 5))
        # replace a line piece with one concentrated on a single atom pair
        pts = [p for p, _ in result.pieces[0].atoms][:1]
        result.pieces[0] = DiscreteMeasure.uniform(pts, RES)
        report = verify_decomposition(result, 3, 0, Fraction(1, 2))
        clause = {c.name: c for c in report.clauses}["irreducible-pieces"]
        assert not clause.passed and "modulus" in clause.witness

    def test_cost_clause_detects_low_dimension(self):
        x = skew_lines_cloud_scene()
        result = decompose(x, 3, 0, Fraction(2, 5))
        result.flats.pop()
        result.pieces.pop()
        report = verify_decomposition(result, 3, 0, Fraction(1, 2))
        clause = {c.name: c for c in report.clauses}["cost-at-least-n"]
        assert not clause.passed

    def test_point_flat_piece_passes_vacuously(self):
        """A piece on a point flat has no proper subflat to concentrate on,
        so it is not measured and its clause passes even at tau = 0."""
        r = trace_of([AffineFlat.point((1, 1)), AffineFlat((0, 0), [(1, 0)])])
        r.pieces = [
            DiscreteMeasure([((1, 1), 1)], RES),
            DiscreteMeasure.uniform([(0, 0), (1, 0), (2, 0)], RES),
        ]
        clauses = {c.name: c for c in verify_decomposition(r, 2, 0, Fraction(1, 3)).clauses}
        assert clauses["supports-in-flats"].passed
        assert (clauses["irreducible-pieces"].passed, clauses["irreducible-pieces"].witness) == (True, None)
        r.pieces[0] = DiscreteMeasure.uniform([(1, 1), (1, 2)], RES)
        clauses = {c.name: c for c in verify_decomposition(r, 2, 0, Fraction(1, 3)).clauses}
        assert clauses["supports-in-flats"].witness == "piece 0 atom (Fraction(1, 1), Fraction(2, 1)) off its flat"


def trace_of(flats) -> DecompositionResult:
    """A result with no pieces whose trace is the flats' own: step s holds
    the cost, minimizing-partition count and least minimizer of the first
    s flats."""
    trace = []
    for s in range(len(flats)):
        coll = FlatCollection(flats[:s])
        trace.append(TraceStep(s, coll.cost(), coll.minimizing_census()[0], coll.lexicographically_least_minimizer()))
    return DecompositionResult(list(flats), [], trace, FlatCollection(flats).cost())


class TestTraceClauses:
    """Hand-built traces that break the plateau and extension clauses."""

    def test_count_that_does_not_drop_on_a_plateau(self):
        # a second point keeps the cost at 0 and the count at 1
        r = trace_of([AffineFlat.point((0, 0)), AffineFlat.point((1, 0))])
        clauses = {c.name: c for c in verify_decomposition(r, 2, 0, 1).clauses}
        assert clauses["plateau-count-strictly-decreasing"].witness == "plateau at step 0: N 1 -> 1"
        assert clauses["at-most-one-minimizing-extension"].passed

    def test_partition_with_two_minimizing_extensions(self):
        # the origin lies on both axes, so it joins either block of
        # {x axis}, {y axis} at the same cost 2
        axes = [AffineFlat((0, 0), [(1, 0)]), AffineFlat((0, 0), [(0, 1)])]
        r = trace_of(axes + [AffineFlat.point((0, 0)), AffineFlat.point((1, 1))])
        clause = {c.name: c for c in verify_decomposition(r, 2, 0, 1).clauses}["at-most-one-minimizing-extension"]
        assert clause.witness == "partition ((0,), (1,)) at step 2 has 2 minimizing extensions"


# a point or a line of Q^2 through points of {-1, 0, 1}^2: many flats share a
# point or a line, so costs plateau and blocks tie often
plane_flat = st.lists(st.tuples(*[st.integers(-1, 1)] * 2), min_size=1, max_size=2).map(AffineFlat.from_points)


class TestExtensionCheckAgainstThePrefixCollections:
    """The extension clause, read off one search of the result's flats, against
    the check that searches every prefix collection afresh."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(plane_flat, min_size=2, max_size=7))
    def test_degenerate_traces(self, fs):
        r = trace_of(fs)
        clause = {c.name: c for c in verify_decomposition(r, 2, 0, 1).clauses}["at-most-one-minimizing-extension"]
        want = reference_extension_check(r.flats, [t.cost for t in r.trace])
        event(f"passed: {want[0]}")
        assert (clause.passed, clause.witness) == want
