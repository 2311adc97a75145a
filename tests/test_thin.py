import math
from fractions import Fraction
from operator import add
from unittest import mock

import pytest
from hypothesis import assume, event, given, settings, strategies as st

from flatbeck import flats, measures, stability, thin
from flatbeck.exactlin import BudgetExceeded, _integerized_points
from flatbeck.flats import AffineFlat
from flatbeck.genscenes import parallel_segments, segment_grid, square_grid
from flatbeck.measures import DiscreteMeasure, dyadic_scales, support_dist2
from flatbeck.stability import StableFrame
from flatbeck.thin import (
    NotMinimalStable,
    ThinGraph,
    TupleInDegenerateSet,
    marginal_heavy_set,
    product_graph,
    prune_against_measure,
    prune_planes,
    pushforward_frostman,
    thin_implies_nc,
    tubes_to_planes,
    verify_thin_planes,
    verify_thin_tubes,
)
from fraction_reference import (
    flat_from_span,
    reference_affinely_independent,
    reference_c1,
    reference_chart_key,
    reference_delta0,
    reference_dist2_flats,
    reference_k_prime,
    reference_rank,
)
from test_cli import count_numerator_passes

RES = Fraction(1, 1024)
SCALES6 = dyadic_scales(6, 1)


def tuple_atoms(g, t):
    """The points of the tuple t of g, one atom per measure, and the product
    of their weights."""
    atoms = [m.atoms[i] for i, m in zip(t, g.measures)]
    return [p for p, _ in atoms], math.prod(w for _, w in atoms)


def single_atom_graph():
    # a single atom keeps full mass on the span at every scale, so K must
    # cover the finest window scale: K >= (1/16)^-1 for the 2^-1..2^-4 window
    a = DiscreteMeasure([((0, 0), 1)], RES)
    b = DiscreteMeasure([((1, 1), 1)], RES)
    return ThinGraph([a, b], [(0, 0)], sigma=1.0, big_k=16.0)


class TestVerifyThinPlanes:
    def test_single_atoms_pass_with_large_k(self):
        g = single_atom_graph()
        out = verify_thin_planes(g, dyadic_scales(4, 1))
        assert out.ok and out.density == 1

    def test_span_capturing_a_support_fails(self):
        # mu1 entirely on the line spanned by the only tuple
        a = DiscreteMeasure([((0, 0), 1)], RES)
        b = DiscreteMeasure.uniform([(Fraction(i, 8), 1) for i in range(8)], RES)
        # tuple (0, 0): line through (0,0) and (0,1)... use points spanning
        # the support line instead: center atom on the same horizontal line
        a2 = DiscreteMeasure([((Fraction(-1, 2), 1), 1)], RES)
        g = ThinGraph([a2, b], [(0, 0)], sigma=1.0, big_k=2.0)
        out = verify_thin_planes(g, dyadic_scales(4, 1))
        assert not out.ok
        assert out.worst.mass == 1  # the whole companion measure is caught

    def test_parallel_segment_grids_pass_at_k8(self):
        mu0, mu1 = parallel_segments(8)
        g = ThinGraph.complete([mu0, mu1], sigma=1.0, big_k=8.0)
        # spot-check a subsample of tuples over the standard dyadic window
        sub = ThinGraph(
            [mu0, mu1],
            [(i * 37 % 256, i * 91 % 256) for i in range(40)],
            sigma=1.0,
            big_k=8.0,
        )
        out = verify_thin_planes(sub, SCALES6)
        assert out.ok, out.failure

    def test_degenerate_tuple_detected(self):
        a = DiscreteMeasure([((0, 0), 1)], RES)
        b = DiscreteMeasure([((0, 0), 1)], RES)
        g = ThinGraph([a, b], [(0, 0)], sigma=1.0, big_k=2.0)
        with pytest.raises(TupleInDegenerateSet):
            verify_thin_planes(g, dyadic_scales(4, 1))

    def test_independence_on_lifted_atoms_mixes_denominators(self):
        # three measures over denominators 2, 3 and 5; (0,0), (1/2,1/2) and
        # (1/3,1/3) are collinear, and so is every tuple with (2/5,2/5)
        a = DiscreteMeasure.uniform([(0, 0), (Fraction(1, 2), 0)], RES)
        b = DiscreteMeasure.uniform([(Fraction(1, 2), Fraction(1, 2)), (0, Fraction(2, 3))], RES)
        c = DiscreteMeasure.uniform([(Fraction(1, 3), Fraction(1, 3)), (Fraction(2, 5), Fraction(2, 5))], RES)
        g = ThinGraph.complete([a, b, c], sigma=1.0, big_k=2.0)
        got = {t: reference_affinely_independent(tuple_atoms(g, t)[0]) for t in g.iter_tuples()}
        assert not got[(0, 0, 0)] and not got[(0, 0, 1)] and got[(1, 0, 0)]
        with pytest.raises(TupleInDegenerateSet):
            verify_thin_planes(g, dyadic_scales(4, 1))
        kept = set(prune_planes(g, 0.5, dyadic_scales(4, 1)).graph.iter_tuples())
        assert kept == {t for t, ok in got.items() if ok}

    def test_subgraph_monotone(self):
        mu0, mu1 = parallel_segments(5)
        g = ThinGraph.complete([mu0, mu1], sigma=1.0, big_k=6.0)
        full = verify_thin_planes(g, dyadic_scales(5, 1))
        sub = g.without([(0, 0), (1, 1)])
        out = verify_thin_planes(sub, dyadic_scales(5, 1))
        assert full.ok and out.ok
        assert out.max_ratio <= full.max_ratio


class TestVerifyThinTubes:
    def test_single_direction_atom_passes(self):
        # passes once K covers radii down to the separation-derived window
        mu0 = DiscreteMeasure([((0, 0), 1)], RES)
        mu1 = DiscreteMeasure([((0, 1), 1)], RES)
        g = ThinGraph.complete([mu0, mu1], sigma=1.0, big_k=8.0)
        out = verify_thin_tubes(g, dyadic_scales(3, 1))
        assert out.ok

    def test_collinear_segment_fails(self):
        mu0 = DiscreteMeasure([((Fraction(-1, 2), 0), 1)], RES)
        mu1 = segment_grid(4)
        g = ThinGraph.complete([mu0, mu1], sigma=1.0, big_k=4.0)
        out = verify_thin_tubes(g, dyadic_scales(4, 1))
        assert not out.ok  # one tube captures the whole companion segment

    def test_parallel_segments_pass(self):
        mu0, mu1 = parallel_segments(6)
        g = ThinGraph.complete([mu0, mu1], sigma=1.0, big_k=6.0)
        out = verify_thin_tubes(g, SCALES6)
        assert out.ok, out.failure

    def test_unseparated_supports_rejected(self):
        mu0 = segment_grid(3)
        g = ThinGraph.complete([mu0, mu0], sigma=1.0, big_k=6.0)
        with pytest.raises(ValueError):
            verify_thin_tubes(g, dyadic_scales(3, 1))

    def test_one_shared_atom_rejected(self):
        mu0 = DiscreteMeasure.uniform([(0, 0), (0, 1)], RES)
        mu1 = DiscreteMeasure.uniform([(1, 0), (0, 1)], RES)
        g = ThinGraph.complete([mu0, mu1], sigma=1.0, big_k=6.0)
        with pytest.raises(ValueError, match="supports are not separated"):
            verify_thin_tubes(g, dyadic_scales(3, 1))


@pytest.mark.parametrize("arity", [1, 3])
@pytest.mark.parametrize("check", ["verify_thin_tubes", "tubes_to_planes"])
def test_tube_checks_refuse_other_arities(check, arity):
    mus = [DiscreteMeasure([((i, 0), 1)], RES) for i in range(arity)]
    g = ThinGraph.complete(mus, sigma=1.0, big_k=8.0)
    call = {"verify_thin_tubes": lambda: verify_thin_tubes(g, dyadic_scales(3, 1)),
            "tubes_to_planes": lambda: tubes_to_planes(g, 0.5, dyadic_scales(3, 1))}
    with pytest.raises(ValueError, match="^a tube check needs an arity-2 graph$"):
        call[check]()


class TestPrunePlanes:
    def test_already_thin_graph_untouched(self):
        mu0, mu1 = parallel_segments(5)
        g = ThinGraph.complete([mu0, mu1], sigma=1.0, big_k=6.0)
        out = prune_planes(g, epsilon=0.25, scales=dyadic_scales(5, 1))
        assert out.ok
        assert out.removed_mass == 0
        assert len(list(out.graph.iter_tuples())) == len(list(g.iter_tuples()))

    def test_heavy_line_tuples_removed(self):
        # three of mu1's atoms share the horizontal line through mu0's first
        # atom: those spans swallow 3/4 of mu1 and must be pruned, while the
        # generic tuples stay (C1 K = 7.24 / 3, so the cut at 1/16 is 0.60)
        mu0 = DiscreteMeasure.uniform([(0, 0), (0, 1)], RES)
        mu1 = DiscreteMeasure.uniform([(1, 0), (2, 0), (3, 0), (1, 1)], RES)
        g = ThinGraph.complete([mu0, mu1], sigma=1.0, big_k=Fraction(1, 3))
        out = prune_planes(g, epsilon=0.5, scales=dyadic_scales(4, 1))
        removed = set(g.iter_tuples()) - set(out.graph.iter_tuples())
        assert removed == {(0, 0), (0, 1), (0, 2)}  # the y = 0 tuples
        assert out.ok

    def test_output_verifies_at_weakened_parameters(self):
        mu0, mu1 = parallel_segments(5)
        g = ThinGraph.complete([mu0, mu1], sigma=1.0, big_k=6.0)
        out = prune_planes(g, epsilon=0.25, scales=dyadic_scales(5, 1))
        check = verify_thin_planes(out.graph, dyadic_scales(5, 1))
        assert check.ok, check.failure
        assert out.graph.sigma == pytest.approx(0.75)


class TestTubesToPlanes:
    def test_two_single_atoms_convert(self):
        mu0 = DiscreteMeasure([((0, 0), 1)], RES)
        mu1 = DiscreteMeasure([((0, 1), 1)], RES)
        g = ThinGraph.complete([mu0, mu1], sigma=1.0, big_k=8.0)
        out = tubes_to_planes(g, epsilon=0.5, scales=dyadic_scales(3, 1))
        assert out.ok, out.witness

    def test_parallel_segments_convert_and_verify(self):
        mu0, mu1 = parallel_segments(5)
        g = ThinGraph.complete([mu0, mu1], sigma=1.0, big_k=6.0)
        out = tubes_to_planes(g, epsilon=0.25, scales=dyadic_scales(5, 1))
        assert out.ok, out.witness
        assert out.planes_check.ok
        assert float(out.removed_mass) <= out.b_const * 0.25
        assert out.graph.sigma == pytest.approx(0.75)

    def test_adversarial_graph_fails_precondition(self):
        mu0 = DiscreteMeasure([((Fraction(-1, 2), 0), 1)], RES)
        mu1 = segment_grid(4)
        g = ThinGraph.complete([mu0, mu1], sigma=1.0, big_k=4.0)
        out = tubes_to_planes(g, epsilon=0.25, scales=dyadic_scales(4, 1))
        assert not out.ok
        assert "precondition" in out.witness

    def test_heavy_line_through_a_light_pair_is_removed(self):
        """Both atoms of the one pair are light, so each section passes its
        tube check, but mu1's unpaired atoms are heavy and lie on the pair's
        line: its full count 1 crosses 10 c K r^(sigma - eps) / eps^2 =
        40 r^(1/2) / 64 (c = 1), so the pair goes."""
        res = Fraction(1, 16)
        mu0 = DiscreteMeasure([((0, 0), Fraction(1, 1024)), ((0, 1), Fraction(1023, 1024))], res)
        mu1 = DiscreteMeasure(
            [((1, 0), Fraction(1, 1024)), ((2, 0), Fraction(1, 2)), ((3, 0), Fraction(511, 1024))], res
        )
        g = ThinGraph([mu0, mu1], [(0, 0)], sigma=1, big_k=Fraction(1, 64))
        out = tubes_to_planes(g, epsilon=Fraction(1, 2), scales=dyadic_scales(3, 1))
        assert all(check.ok for check in out.tube_checks)
        assert not list(out.graph.iter_tuples())
        assert out.removed_mass == g.density() == Fraction(1, 1024**2)

    def test_far_pair_loses_more_than_the_density_budget(self):
        """Two single atoms 300 apart, K = 8, pass both tube checks, but the
        pair's full count 1 exceeds 10 c K r^(3/4) / eps^2 (c = 1/300) at r
        = 1/8, so the pair goes; the empty output verifies, and the loss,
        the whole density 1, exceeds B eps = 4 eps^2 S = 0.5357."""
        mu0 = DiscreteMeasure([((0, 0), 1)], RES)
        mu1 = DiscreteMeasure([((300, 0), 1)], RES)
        g = ThinGraph.complete([mu0, mu1], sigma=1, big_k=8)
        out = tubes_to_planes(g, epsilon=Fraction(1, 4), scales=dyadic_scales(3, 1))
        assert all(check.ok for check in out.tube_checks) and out.planes_check.ok
        assert not out.ok and out.removed_mass == 1
        assert out.witness == f"density loss 1 exceeds B*eps = {out.b_const / 4:.6g}" == "density loss 1 exceeds B*eps = 0.535652"

    def test_support_distance_scanned_once(self, monkeypatch):
        calls = []

        def counting(a, b):
            calls.append(1)
            return support_dist2(a, b)

        monkeypatch.setattr(thin, "support_dist2", counting)
        mu0, mu1 = parallel_segments(5)
        g = ThinGraph.complete([mu0, mu1], sigma=1.0, big_k=6.0)
        assert tubes_to_planes(g, epsilon=0.25, scales=dyadic_scales(5, 1)).ok
        assert len(calls) == 1


class TestVerdictFromMassesInHand:
    """prune_planes and tubes_to_planes verify their output from the masses
    their removal loops measured; the verdict must be the one a fresh
    verify_thin_planes of the output gives, witness and table included."""

    @pytest.mark.parametrize("eps", [0.25, 2.0, 3.0])
    def test_parallel_segments(self, eps):
        mu0, mu1 = parallel_segments(4)
        g = ThinGraph.complete([mu0, mu1], sigma=1.0, big_k=6.0)
        scales = dyadic_scales(4, 1)
        pruned = prune_planes(g, eps, scales)
        assert pruned.check == verify_thin_planes(pruned.graph, scales)
        conv = tubes_to_planes(g, eps, scales)
        assert conv.planes_check == verify_thin_planes(conv.graph, scales)
        if eps == 3.0:  # the weakened bound at sigma - eps = -2 fails
            w = conv.planes_check.worst
            assert not conv.planes_check.ok and not conv.ok
            assert (w.tuple_, w.measure_index, w.scale) == ((0, 7), 1, Fraction(1, 2))

    @pytest.mark.parametrize("eps", [0.25, 3.0])
    def test_sparse_graph_reads_full_line_counts(self, eps):
        # on a sparse graph each G-section is lighter than the measure, so
        # the removal and the output verdict must read the full line counts
        # that the tube passes took, not the section counts
        mu0, mu1 = parallel_segments(4)
        tuples = [(i, j) for i in range(len(mu0)) for j in range(len(mu1)) if (i + 2 * j) % 3]
        g = ThinGraph([mu0, mu1], tuples, sigma=1, big_k=6)
        scales = dyadic_scales(4, 1)
        conv = tubes_to_planes(g, eps, scales)
        assert all(check.ok for check in conv.tube_checks)
        assert conv.planes_check == verify_thin_planes(conv.graph, scales)
        fresh = verify_thin_tubes(g, scales)
        assert conv.tube_checks[0] == fresh

    def test_prune_that_removes_tuples(self):
        mu0 = DiscreteMeasure.uniform([(0, 0), (0, 1)], RES)
        mu1 = DiscreteMeasure.uniform([(1, 0), (2, 0), (3, 0), (1, 1)], RES)
        g = ThinGraph.complete([mu0, mu1], sigma=1.0, big_k=Fraction(1, 3))
        scales = dyadic_scales(4, 1)
        out = prune_planes(g, epsilon=0.5, scales=scales)
        assert len(list(out.graph.iter_tuples())) == len(list(g.iter_tuples())) - 3
        assert out.check == verify_thin_planes(out.graph, scales)
        assert out.check.density == out.graph.density() == Fraction(5, 8)

    def test_prune_checks_resolution_before_measuring(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("measured before the window was checked")

        monkeypatch.setattr(thin.PlateMassOracle, "_counts", refuse)
        monkeypatch.setattr(thin.PlateMassOracle, "_hyperplane_counts", refuse)
        mu0, mu1 = parallel_segments(4)
        g = ThinGraph.complete([mu0, mu1], sigma=1.0, big_k=6.0)
        with pytest.raises(ValueError, match="below a measure resolution"):
            prune_planes(g, 0.25, dyadic_scales(5, 1))


class TestPruneAgainstMeasure:
    @pytest.mark.parametrize("coarse", ["graph", "nu"])
    def test_window_checked_against_every_resolution_first(self, coarse, monkeypatch):
        """A window below the graph's resolution (1/16 under 2^-7) or below
        nu's (1/4 under 2^-4) is refused before any margin or mass."""
        def refuse(*args):
            raise AssertionError("measured before the window was checked")

        monkeypatch.setattr(thin.PlateMassOracle, "_counts", refuse)
        monkeypatch.setattr(thin.PlateMassOracle, "_hyperplane_counts", refuse)
        monkeypatch.setattr(thin, "_margin2", refuse)
        mu0, mu1 = parallel_segments(4)
        g = ThinGraph.complete([mu0, mu1], sigma=1.0, big_k=6.0)
        nu, fine = (mu0, 7) if coarse == "graph" else (DiscreteMeasure([((10, 10), 1)], Fraction(1, 4)), 4)
        with pytest.raises(ValueError, match="below a measure resolution"):
            prune_against_measure(g, nu, Fraction(1, 4), dyadic_scales(fine, 1))

    def test_far_measure_removes_nothing(self):
        mu0, mu1 = parallel_segments(4)
        g = ThinGraph.complete([mu0, mu1], sigma=1.0, big_k=6.0)
        nu = DiscreteMeasure([((10, 10), 1)], RES)
        out = prune_against_measure(g, nu, epsilon=0.5, scales=dyadic_scales(4, 1))
        assert out.ok and out.removed_mass == 0

    def test_nu_in_another_dimension_rejected(self):
        mu0, mu1 = parallel_segments(4)
        g = ThinGraph.complete([mu0, mu1], sigma=1.0, big_k=6.0)
        nu = DiscreteMeasure([((0, 0, 0), 1)], RES)
        with pytest.raises(ValueError, match="ambient dimensions differ"):
            prune_against_measure(g, nu, epsilon=0.5, scales=dyadic_scales(4, 1))

    @pytest.mark.parametrize(
        "eps, delta0, trimmed", [(1, Fraction(1, 2), Fraction(1, 4)), (Fraction(1, 4), Fraction(1, 8), 0)]
    )
    def test_margin_is_the_largest_affordable_scale(self, eps, delta0, trimmed):
        """Only the tuple of (0, 0) and (1/8, 0), a quarter of the product
        mass, has a margin below 1/2: eps / 2 = 1/2 affords trimming it at
        delta0 = 1/2, while eps / 2 = 1/8 does not, and delta0 falls to
        1/8, the largest scale the margin 1/8 is not below."""
        mu0 = DiscreteMeasure.uniform([(0, 0), (0, 1)], RES)
        mu1 = DiscreteMeasure.uniform([(Fraction(1, 8), 0), (1, 1)], RES)
        g = ThinGraph.complete([mu0, mu1], sigma=1.0, big_k=1.0)
        out = prune_against_measure(g, DiscreteMeasure([((10, 10), 1)], RES), eps, dyadic_scales(4, 1))
        assert (out.delta0, out.margin_removed, out.removed_mass) == (delta0, trimmed, trimmed)
        assert ((0, 0) in out.graph.iter_tuples()) == (not trimmed)

    def test_dirac_on_one_span_removes_its_tuples(self):
        mu0 = DiscreteMeasure.uniform([(0, 0), (0, Fraction(1, 4))], RES)
        mu1 = DiscreteMeasure.uniform([(1, 0), (1, Fraction(1, 4))], RES)
        # every margin is at least 1, so delta0 = 1/16 and K' = 85.5 K = 0.67
        g = ThinGraph.complete([mu0, mu1], sigma=1.0, big_k=Fraction(1, 128))
        nu = DiscreteMeasure([((Fraction(1, 2), 0), 1)], RES)  # on span of (0,0)-(1,0)
        out = prune_against_measure(g, nu, epsilon=0.9, scales=dyadic_scales(6, 4))
        assert out.delta0 == Fraction(1, 16)
        kept = set(out.graph.iter_tuples())
        assert (0, 0) not in kept  # the horizontal tuple through nu is gone
        assert (1, 1) in kept


coord = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 5]))


class TestEpsilonRefused:
    @pytest.mark.parametrize("eps", [0, Fraction(-1, 4), -0.5], ids=["zero", "negative", "negative-double"])
    @pytest.mark.parametrize("step", ["prune_planes", "tubes_to_planes", "prune_against_measure"])
    def test_non_positive_epsilon(self, step, eps, monkeypatch):
        """Each pruning step refuses epsilon <= 0 before it measures anything."""
        def refuse(*args):
            raise AssertionError("measured before epsilon was checked")

        monkeypatch.setattr(thin.PlateMassOracle, "_counts", refuse)
        monkeypatch.setattr(thin.PlateMassOracle, "_hyperplane_counts", refuse)
        mu0, mu1 = parallel_segments(4)
        g = ThinGraph.complete([mu0, mu1], sigma=1.0, big_k=6.0)
        scales = dyadic_scales(4, 1)
        calls = {
            "prune_planes": lambda: prune_planes(g, eps, scales),
            "tubes_to_planes": lambda: tubes_to_planes(g, eps, scales),
            "prune_against_measure": lambda: prune_against_measure(g, mu0, eps, scales),
        }
        with pytest.raises(ValueError, match="^epsilon must be positive$"):
            calls[step]()


@st.composite
def margin_tuples(draw):
    """2 to n + 1 points of Q^n, n = 2 or 3; the last may repeat an earlier
    one or sit on the line through two, so some tuples are dependent."""
    n = draw(st.integers(2, 3))
    pts = draw(st.lists(st.tuples(*[coord] * n), min_size=1, max_size=n))
    a, b = draw(st.sampled_from(pts)), draw(st.sampled_from(pts))
    t = draw(coord)
    pts.append(draw(st.sampled_from([a, tuple(x + t * (y - x) for x, y in zip(a, b))])))
    if draw(st.booleans()):
        pts.append(draw(st.tuples(*[coord] * n)))
    return pts[: n + 1]


class TestMarginAgainstFractionReference:
    @settings(max_examples=150, deadline=None)
    @given(margin_tuples())
    def test_least_distance_to_the_span_of_the_others(self, pts):
        """The prune margin on integer points against the normal-equations
        distance of each point from the reference flat of the others; 0
        exactly for a dependent tuple."""
        ps = [tuple(map(Fraction, p)) for p in pts]
        want = min(
            reference_dist2_flats(
                AffineFlat.point(p),
                flat_from_span([q + (Fraction(1),) for q in ps[:j] + ps[j + 1 :]]),
            )
            for j, p in enumerate(ps)
        )
        ints, den = _integerized_points(ps)
        assert thin._margin2(ints, den) == want
        assert (want == 0) == (not reference_affinely_independent(ps))


step = st.sampled_from([Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3, 2)])


@st.composite
def span_graphs(draw):
    """(graph, index of the measure holding the planted atom, t): k = 1..n
    measures on Q^n, n = 2..4, each over its own denominator with some zero
    weights.  Atom 0 of measure j is base + lambda_j e_(j-1) (base for
    j = 0), so tuple (0, ..., 0) spans base + span(e_0, ..., e_(k-2)); the
    planted atom is base + t e_(k-1) + a part along that span, at distance
    exactly t from it.  Sometimes the last measure also holds base, which
    makes a tuple with two coincident points."""
    n = draw(st.integers(2, 4))
    k = draw(st.integers(1, n))
    base = draw(st.tuples(*[coord] * n))
    firsts = [base] + [
        tuple(x + draw(step) * (i == j) for i, x in enumerate(base)) for j in range(k - 1)
    ]
    atoms = []
    for first in firsts:
        den = draw(st.sampled_from([1, 2, 3, 5, 7]))
        c = st.builds(Fraction, st.integers(-8, 8), st.just(den))
        extra = draw(st.lists(st.tuples(st.tuples(*[c] * n), st.integers(0, 3)), max_size=2))
        atoms.append([(first, Fraction(1, den))] + [(p, Fraction(w, den)) for p, w in extra])
    t = draw(st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]))
    along = [draw(coord) if i < k - 1 else t * (i == k - 1) for i in range(n)]
    planted = draw(st.integers(0, k - 1))
    atoms[planted].append((tuple(map(add, base, along)), Fraction(draw(st.integers(1, 3)), 4)))
    if k > 1 and draw(st.booleans()):
        atoms[-1].append((base, Fraction(1, 3)))
    mus = [DiscreteMeasure(a, RES) for a in atoms]
    index = st.tuples(*[st.integers(0, len(m) - 1) for m in mus])
    tuples = {(0,) * k, *draw(st.lists(index, max_size=6))}
    if k > 1 and mus[-1].atoms[-1][0] == base:
        tuples.add((0,) * (k - 1) + (len(mus[-1]) - 1,))
    sigma = draw(st.sampled_from([Fraction(1), Fraction(1, 2)]))
    big_k = draw(st.sampled_from([Fraction(1), Fraction(3, 2)]))
    return ThinGraph(mus, tuples, sigma, big_k), planted, t


def reference_span(g, t):
    """The reference flat spanned by the points of tuple t, None when they
    are affinely dependent."""
    return reference_span_of(tuple_atoms(g, t)[0])


def reference_span_of(points):
    """The reference flat spanned by the points, None when they are
    affinely dependent."""
    lifted = [tuple(map(Fraction, p)) + (Fraction(1),) for p in points]
    return flat_from_span(lifted) if reference_rank(lifted) == len(lifted) else None


def reference_masses(mu, flat, scales):
    """mu's mass within each scale of the flat, by normal-equations
    distances."""
    d2 = [(reference_dist2_flats(AffineFlat.point(p), flat), w) for p, w in mu.atoms]
    return [sum((w for d, w in d2 if d <= s * s), Fraction(0)) for s in scales]


def reference_margin2(g, t):
    """The least squared distance from a point of t to the reference span of
    the others; None for one point."""
    pts, _ = tuple_atoms(g, t)
    if len(pts) == 1:
        return None
    return min(
        reference_dist2_flats(
            AffineFlat.point(p), flat_from_span([q + (Fraction(1),) for q in pts[:j] + pts[j + 1 :]])
        )
        for j, p in enumerate(pts)
    )


class TestSpanPassAgainstFractionReference:
    """verify_thin_planes, prune_planes and prune_against_measure read
    their counts from one span pass; each is checked against masses from
    the Fraction reference distance, with a window scale exactly at the
    planted atom's distance from the span of tuple (0, ..., 0)."""

    EPS = Fraction(1, 4)

    @settings(max_examples=120, deadline=None)
    @given(span_graphs())
    def test_verify_thin_planes(self, case):
        g, planted, t = case
        scales = sorted({Fraction(1, 8), Fraction(1, 2), t}, reverse=True)
        spans = {u: reference_span(g, u) for u in g.iter_tuples()}
        assert spans[(0,) * g.arity] is not None
        if None in spans.values():
            with pytest.raises(TupleInDegenerateSet):
                verify_thin_planes(g, scales)
            return
        want = {(u, j): reference_masses(m, f, scales) for u, f in spans.items() for j, m in enumerate(g.measures)}
        items = thin._plane_items(g, [s * s for s in scales])
        got = {(u, j): [Fraction(c, g.measures[j].weight_den) for c in cs] for u, j, cs in items}
        assert got == want
        # the planted atom sits exactly at radius t, so it counts there
        mu = g.measures[planted]
        assert reference_dist2_flats(AffineFlat.point(mu.atoms[-1][0]), spans[(0,) * g.arity]) == t * t
        check = verify_thin_planes(g, scales)
        over = [key for key, ms in want.items() for s, m in zip(scales, ms)
                if not exactly_within(m, g.k_exact, g.sigma_exact, s)]
        assert check.ok == (not over)
        assert [m for _, m, _, _ in check.table] == [
            max(ms[i] for ms in want.values()) for i in reversed(range(len(scales)))
        ]

    @settings(max_examples=120, deadline=None)
    @given(span_graphs(), st.sampled_from([Fraction(1, 64), Fraction(1, 8), Fraction(1, 2), Fraction(1)]))
    def test_prune_planes(self, case, shrink):
        """The graph's K shrunk by a factor reaches cuts C1 K of every size."""
        g, _, t = case
        g = ThinGraph(g.measures, g.tuples, g.sigma_exact, g.k_exact * shrink)
        scales = sorted({Fraction(1, 8), Fraction(1, 2), t}, reverse=True)
        eps = float(self.EPS)
        c1 = reference_c1(g.arity, scales, eps)
        bounds = [Fraction(c1 * g.big_k * float(s) ** (g.sigma - eps)) for s in scales]
        kept = set()
        for u in g.iter_tuples():
            f = reference_span(g, u)
            if f is None:
                continue
            if all(m <= b for mu in g.measures for m, b in zip(reference_masses(mu, f, scales), bounds)):
                kept.add(u)
            else:
                event("a tuple over the cut")
        out = prune_planes(g, self.EPS, scales)
        assert out.constant == c1
        assert set(out.graph.iter_tuples()) == kept
        assert out.check == verify_thin_planes(out.graph, scales)

    @settings(max_examples=120, deadline=None)
    @given(
        span_graphs(),
        st.sampled_from([Fraction(1, 4096), Fraction(1, 256), Fraction(1, 16), Fraction(1)]),
        st.sampled_from([EPS, Fraction(3, 2)]),
    )
    def test_prune_against_measure(self, case, shrink, eps_q):
        """delta0 and K' as their docstring derives them; the graph's K
        shrunk by a factor reaches cuts K' of every size, and the larger
        epsilon affords a margin trim more often."""
        g, planted, t = case
        g = ThinGraph(g.measures, g.tuples, g.sigma_exact, g.k_exact * shrink)
        nu = g.measures[planted]
        scales = sorted({Fraction(1, 8), Fraction(1, 2), t}, reverse=True)
        eps = float(eps_q)
        margins = {u: reference_margin2(g, u) for u in g.iter_tuples()}
        total = math.prod(mu.total_mass for mu in g.measures)
        trims = [(m2, tuple_atoms(g, u)[1] / total) for u, m2 in margins.items()]
        delta0 = reference_delta0(trims, scales, eps_q)
        k_prime = reference_k_prime(g.big_k, g.sigma, delta0, scales, eps)
        bounds = [Fraction(k_prime * float(s) ** (g.sigma - eps)) for s in scales]
        kept = set()
        for u, m2 in margins.items():
            f = reference_span(g, u)
            if f is None:
                continue
            if m2 is not None and m2 < delta0 * delta0:
                event("a tuple under the margin")
            elif all(m <= b for m, b in zip(reference_masses(nu, f, scales), bounds)):
                kept.add(u)
            else:
                event("a tuple over the cut")
        out = prune_against_measure(g, nu, eps_q, scales)
        assert (out.delta0, out.k_prime) == (delta0, k_prime)
        assert set(out.graph.iter_tuples()) == kept


atom_coord = st.builds(Fraction, st.integers(-8, 8), st.sampled_from([1, 2, 4]))
plane_coord = st.builds(Fraction, st.integers(-8, 8), st.sampled_from([3, 5, 7]))


@st.composite
def hyperplane_batches(draw):
    """(atoms, points, dependent, radii2, hit): atoms of Q^n, n = 2..4, with
    weights of mixed denominators, zeros among them, and 1 to 8 tuples of n
    points over denominators foreign to the atoms'; with dependent, the last
    point of one tuple lies on the line through its first two (n > 2) or on
    its first (n = 2)."""
    n = draw(st.integers(2, 4))
    weight = st.builds(Fraction, st.integers(0, 5), st.integers(1, 6))
    atoms = draw(st.lists(st.tuples(st.tuples(*[atom_coord] * n), weight), min_size=1, max_size=8))
    points = draw(st.lists(st.lists(st.tuples(*[plane_coord] * n), min_size=n, max_size=n), min_size=1, max_size=8))
    dependent = draw(st.booleans())
    if dependent:
        t, c = draw(st.integers(0, len(points) - 1)), draw(plane_coord) if n > 2 else 0
        a, b = points[t][0], points[t][1]
        points[t][-1] = tuple(x + c * (y - x) for x, y in zip(a, b))
    radii2 = draw(st.lists(st.builds(Fraction, st.integers(0, 40), st.integers(1, 9)), max_size=2))
    hit = draw(st.integers(0, 7)), draw(st.integers(0, len(atoms) - 1))
    return atoms, points, dependent, radii2, hit


class TestHyperplaneCore:
    """PlateMassOracle._hyperplane_counts on the cofactor normals of
    flats._normals, against the Fraction reference distance of every atom
    from the reference hyperplane of every tuple."""

    @settings(max_examples=200, deadline=None)
    @given(hyperplane_batches())
    def test_matches_the_fraction_reference(self, case):
        atoms, points, dependent, radii2, hit = case
        n = len(points[0])
        # measure j holds point j of every tuple; tuple k picks atom k of each
        lifted = thin._lifted_atoms(ThinGraph([DiscreteMeasure([(p, 1) for p in col], RES) for col in zip(*points)], None, 1, 1))
        normals = [v for _, vs in flats._normals(lifted, [(k,) * n for k in range(len(points))]) for v in vs]
        planes = [reference_span_of(pts) for pts in points]
        assert [f is None for f in planes] == [not any(v[:-1]) for v in normals]
        assert None in planes or not dependent
        if None in planes:
            k = planes.index(None)
            g = ThinGraph([DiscreteMeasure([(p, 1)], RES) for p in points[k]], None, 1, 1)
            with pytest.raises(TupleInDegenerateSet):
                verify_thin_planes(g, [Fraction(1, 2)])
            return
        mu = DiscreteMeasure(atoms, RES)
        oracle = mu.oracle
        weightings = [oracle.int_weights, [i % 3 for i in range(len(atoms))]]
        d2 = [[reference_dist2_flats(AffineFlat.point(p), f) for p, _ in atoms] for f in planes]
        # a negative radius and one past every atom, whose cuts must be
        # clamped into the lane, and one exactly at an atom's squared
        # distance: the boundary is closed
        radii2 = radii2 + [Fraction(-10**40), Fraction(10**40), d2[hit[0] % len(planes)][hit[1]]]
        want = [[[sum(w for x, w in zip(row, ws) if x <= r2) for r2 in radii2] for ws in weightings] for row in d2]
        assert oracle._hyperplane_counts(normals, radii2, weightings) == want
        with mock.patch.object(measures, "SPAN_CHUNK", 3):  # batches of up to 8 cross it
            assert oracle._hyperplane_counts(normals, radii2, weightings) == want
        assert oracle._hyperplane_counts([], radii2, weightings) == []
        # masks on the second weighting: row z counts toward plane t only
        # when bit t of its mask is set, in chunks of 256 planes and of 3
        masks = [None, [sum(1 << t for t in range(len(planes)) if (z + t) % 4) for z in range(len(atoms))]]
        want[:] = [[ws, [sum(w for z, (x, w) in enumerate(zip(row, weightings[1])) if x <= r2 and masks[1][z] >> t & 1)
                         for r2 in radii2]] for t, ((ws, _), row) in enumerate(zip(want, d2))]
        for chunk in (measures.SPAN_CHUNK, 3):
            with mock.patch.object(measures, "SPAN_CHUNK", chunk):
                assert oracle._hyperplane_counts(normals, radii2, weightings, masks) == want

    def test_lanes_about_half_as_wide_as_the_quadratic_cores(self):
        """The line through (0, 0) and (3, 4) in Q^2, against atoms of size
        2^40: the quadratic core's lanes hold g |r|^2, about 2 * 40 + 2 * 3
        bits, the hyperplane core's |a| |P| + |b| den, about 40 + 3, and the
        counts agree.  The hyperplane core's width is 1 + the bit size of
        its reach 2 u, u = isqrt(|a|^2 max|P|^2) + 1 + |b| den."""
        big = 2**40
        mu = DiscreteMeasure([((big, 0), 1), ((0, big), 1), ((3 * big, 4 * big), 1)], RES)
        oracle = mu.oracle
        # the atoms lie at squared distances 16 big^2 / 25, 9 big^2 / 25 and 0
        radii2 = [Fraction(0), Fraction(9 * big * big, 25), Fraction(16 * big * big, 25) - 1]
        weightings = [oracle.int_weights]
        widths = {}
        for name, spans in (("_counts", [((0, 0, 1), [(3, 4)])]), ("_hyperplane_counts", [(4, -3, 0)])):
            with mock.patch.object(measures, "_pack", wraps=measures._pack) as pack:
                got = getattr(oracle, name)(spans, radii2, weightings)
            widths[name] = {width for (_, width), _ in pack.call_args_list}
            assert got == [[[1, 2, 2]]]
        u = math.isqrt(25 * 25 * big * big) + 1
        assert widths["_hyperplane_counts"] == {1 + (2 * u).bit_length()} == {47}
        # the quadratic reach: 2 g (s^2 max|P|^2 + |b|^2) with g = |d|^2 = 25
        assert widths["_counts"] == {1 + (2 * 25 * 25 * big * big).bit_length()} == {92}


tube_coord = st.integers(-3, 3)


@st.composite
def tube_graphs(draw):
    """(graph, radius2, eps): an arity-2 graph over separated (mu0, mu1) in Q^2
    or Q^3 (so the hyperplane and the quadratic core both take masks), each
    measure over its own coordinate and weight denominators, with zero
    weights among them; mu1 also holds points of the line through atom 0 of
    each measure.  The tuples are all pairs or a sparse set, which leaves
    centres with no pair; radius2 is one atom's exact squared distance from
    one line, the closed boundary, and eps the conversion's."""
    n = draw(st.integers(2, 3))

    def atoms():
        den, wden = draw(st.sampled_from([1, 2, 3, 5])), draw(st.sampled_from([1, 3, 7, 64]))
        c = st.builds(Fraction, tube_coord, st.just(den))
        pts = draw(st.lists(st.tuples(*[c] * n), min_size=1, max_size=4, unique=True))
        ws = [draw(st.integers(1, 3))] + draw(st.lists(st.integers(0, 3), min_size=len(pts) - 1, max_size=len(pts) - 1))
        return [(p, Fraction(w, wden)) for p, w in zip(pts, ws)]

    a0, a1 = atoms(), atoms()
    x, y = a0[0][0], a1[0][0]
    for t in draw(st.lists(st.sampled_from([Fraction(-1), Fraction(1, 2), Fraction(2)]), max_size=2)):
        a1.append((tuple(p + t * (q - p) for p, q in zip(x, y)), draw(st.sampled_from([Fraction(1, 3), Fraction(8)]))))
    on0 = {p for p, _ in a0}
    a1 = [(p, w) for p, w in a1 if p not in on0]
    assume(any(w for _, w in a1))
    mus = [DiscreteMeasure(a0, RES), DiscreteMeasure(a1, RES)]
    pair = st.tuples(st.integers(0, len(a0) - 1), st.integers(0, len(a1) - 1))
    tuples = draw(st.none() | st.lists(pair, max_size=6).map(lambda ts: [(0, 0), *ts]))
    sigma = draw(st.sampled_from([Fraction(1), Fraction(1, 2)]))
    big_k = draw(st.sampled_from([Fraction(1, 2), Fraction(4), Fraction(32)]))
    i0, i1 = draw(st.integers(0, len(a0) - 1)), draw(st.integers(0, len(a1) - 1))
    hit = draw(st.sampled_from(a0 + a1))[0]
    line = reference_span_of([a0[i0][0], a1[i1][0]])
    eps = draw(st.sampled_from([Fraction(1, 4), Fraction(1)]))
    return ThinGraph(mus, tuples, sigma, big_k), reference_dist2_flats(AffineFlat.point(hit), line), eps


def reference_tube_lines(g, radii2):
    """Per line x_i0 -> y_i1 in pair order, the Fraction masses within each
    squared radius of mu1's G-section at x_i0, of mu1, of mu0's G-section at
    y_i1 and of mu0, by normal-equations distances."""
    (mu0, mu1), pairs = g.measures, set(g.iter_tuples())

    def masses(mu, line, keep):
        d2 = [(reference_dist2_flats(AffineFlat.point(p), line), w) for k, (p, w) in enumerate(mu.atoms) if keep(k)]
        return [sum((w for d, w in d2 if d <= r2), Fraction(0)) for r2 in radii2]

    out = []
    for i0, (x, _) in enumerate(mu0.atoms):
        for i1, (y, _) in enumerate(mu1.atoms):
            line = reference_span_of([x, y])
            out.append([
                masses(mu1, line, lambda j: (i0, j) in pairs),
                masses(mu1, line, lambda j: True),
                masses(mu0, line, lambda i: (i, i1) in pairs),
                masses(mu0, line, lambda i: True),
            ])
    return out


def reference_tube_checks(g, scales, lines):
    """Both tube verdicts of g from the reference masses in lines: the
    forward items per centre x_i0 of g in order, the reverse ones per
    centre y_i1 of the reverse graph in order, each to every atom of the
    other measure."""
    (mu0, mu1), n1 = g.measures, len(g.measures[1])
    g_rev = ThinGraph((mu1, mu0), [(b, a) for a, b in g.iter_tuples()], g.sigma_exact, g.k_exact)
    fwd = [((i0, i1), 1, [m * mu1.weight_den for m in lines[i0 * n1 + i1][0]])
           for i0 in sorted({t[0] for t in g.iter_tuples()}) for i1 in range(n1)]
    rev = [((i1, i0), 1, [m * mu0.weight_den for m in lines[i0 * n1 + i1][2]])
           for i1 in sorted({t[1] for t in g.iter_tuples()}) for i0 in range(len(mu0))]
    return [thin._verdict(h, scales, items, thin._TUBE_FAILURE) for h, items in ((g, fwd), (g_rev, rev))]


def counts_as_masses(g, lines):
    """_tube_lines' counts over each measure's W as Fractions."""
    dens = [g.measures[1].weight_den] * 2 + [g.measures[0].weight_den] * 2
    return [[[Fraction(c, w) for c in cs] for cs, w in zip(line, dens)] for line in lines]


def sixteen_by_seventeen():
    """A sparse graph of 272 lines: mu0 holds 16 atoms on y = 0 and mu1 17
    on y = 1/2, over other denominators; centre 5 and atom 7 have no pair,
    and K = 32 passes both tube checks.
    Centre 15's lines, 255..271, cross the chunk boundary at 256, and
    every mu0 row's mask spans all chunks."""
    mu0 = DiscreteMeasure([((Fraction(i, 16), 0), Fraction(1 + i % 3, 4)) for i in range(16)], RES)
    mu1 = DiscreteMeasure([((Fraction(j, 17), Fraction(1, 2)), Fraction(j % 4, 3)) for j in range(17)], RES)
    tuples = [(i, j) for i in range(16) for j in range(17) if (i + 2 * j) % 3 and i != 5 and j != 7]
    return ThinGraph([mu0, mu1], tuples, sigma=1, big_k=32)


class TestTubePassAgainstFractionReference:
    """Both tube checks and the conversion read one pass over every line
    x_i0 -> y_i1 that counts four weightings, two of them G-sections masked
    per row: each count is checked against the Fraction reference, with
    the pass in chunks of 256 lines and of 3, and the verdicts against ones
    built from the reference masses."""

    SCALES = [Fraction(1, 2), Fraction(1, 8)]

    def check(self, g, radius2, eps) -> list[str]:
        """The checks on g, and what they met: a failing tube check, a
        removed pair."""
        radii2 = [Fraction(0), Fraction(1, 64), Fraction(1, 4), radius2, Fraction(10**6)]
        want = reference_tube_lines(g, radii2)
        for chunk in (measures.SPAN_CHUNK, 3):
            with mock.patch.object(thin, "SPAN_CHUNK", chunk), mock.patch.object(measures, "SPAN_CHUNK", chunk):
                lines = thin._tube_lines(g, radii2, True)
                assert counts_as_masses(g, lines) == want
                assert thin._tube_lines(g, radii2, False) == [line[:1] for line in lines]
        scales = self.SCALES
        fwd, rev = reference_tube_checks(g, scales, reference_tube_lines(g, [s * s for s in scales]))
        assert verify_thin_tubes(g, scales) == fwd
        conv = tubes_to_planes(g, eps, scales)
        assert conv.tube_checks == [fwd, rev]
        if not (fwd.ok and rev.ok):
            return ["a tube check fails"]
        # the removal reads the full counts against 10 c K s^(sigma - eps) / eps^2
        mu0, mu1 = g.measures
        c = 1.0 / float(thin.rational_sqrt_lower(support_dist2(mu0, mu1)))
        bounds = [Fraction(10.0 * c * g.big_k / float(eps) ** 2 * float(s) ** (g.sigma - float(eps))) for s in scales]
        full = reference_tube_lines(g, [s * s for s in scales])
        n1 = len(mu1)
        removed = {t for t in g.iter_tuples()
                   if any(m > b for k in (1, 3) for m, b in zip(full[t[0] * n1 + t[1]][k], bounds))}
        assert set(conv.graph.iter_tuples()) == set(g.iter_tuples()) - removed
        assert conv.planes_check == verify_thin_planes(conv.graph, scales)
        return ["a pair removed"] if removed else []

    @settings(max_examples=120, deadline=None)
    @given(tube_graphs())
    def test_sections_and_full_counts(self, case):
        for met in self.check(*case):
            event(met)

    def test_masks_cross_a_chunk(self, monkeypatch):
        g = sixteen_by_seventeen()
        calls = count_numerator_passes(monkeypatch)
        assert thin._tube_lines(g, [Fraction(1, 4)], True)
        assert calls == [256, 16]
        assert self.check(g, Fraction(1, 16), Fraction(1, 4)) == []

    def test_heavy_unpaired_atoms_remove_the_pair(self):
        """The one pair's atoms weigh 1/64 each, so both sections pass, but
        two unpaired atoms of weight 8 lie on its line: the full count 16 +
        1/64 exceeds 10 c K = 10 (c = 2, K = 1/2, eps = 1), so it goes."""
        mu0 = DiscreteMeasure([((0, 0), Fraction(1, 64))], RES)
        mu1 = DiscreteMeasure([((1, 0), Fraction(1, 64)), ((2, 0), 8), ((Fraction(1, 2), 0), 8)], RES)
        g = ThinGraph([mu0, mu1], [(0, 0)], sigma=1, big_k=Fraction(1, 2))
        assert self.check(g, Fraction(1, 4), Fraction(1)) == ["a pair removed"]


@st.composite
def sparse_graphs(draw):
    """2 or 3 measures on Q^2, weights of mixed denominators with zeros,
    and a sparse tuple set."""
    k = draw(st.integers(2, 3))
    weight = st.builds(Fraction, st.integers(0, 5), st.sampled_from([1, 2, 3, 7, 12]))
    mus = []
    for j in range(k):
        ws = draw(st.lists(weight, min_size=1, max_size=4).filter(any))
        mus.append(DiscreteMeasure([((i, j), w) for i, w in enumerate(ws)], RES))
    index = st.tuples(*[st.integers(0, len(m) - 1) for m in mus])
    return ThinGraph(mus, draw(st.lists(index, max_size=12)), 1, 1)


class TestIntegerWeights:
    @settings(max_examples=150, deadline=None)
    @given(sparse_graphs(), st.integers(0, 2))
    def test_density_and_sections_match_the_fraction_sums(self, g, i):
        """density() and marginal_heavy_set sum products of the oracles'
        integer weights and divide once; the Fraction sums (of tuple weights
        for the density) give the same values."""
        totals = math.prod(m.total_mass for m in g.measures)
        assert g.density() == sum(tuple_atoms(g, t)[1] for t in g.iter_tuples()) / totals
        i %= g.arity
        others = [j for j in range(g.arity) if j != i]
        rep = marginal_heavy_set(g, i, Fraction(1, 3))
        want = {a: Fraction(0) for a in range(len(g.measures[i]))}
        for t in g.iter_tuples():
            want[t[i]] += math.prod(g.measures[j].atoms[t[j]][1] for j in others)
        other_total = math.prod(g.measures[j].total_mass for j in others)
        assert rep.section_ratios == {a: m / other_total for a, m in want.items()}
        assert rep.fubini_total == g.density()


class TestProductGraph:
    def axes_frame(self):
        lx = AffineFlat([0, 0], [[1, 0]])
        ly = AffineFlat([0, 0], [[0, 1]])
        mx = DiscreteMeasure.uniform(
            [(Fraction(8 + i, 32), Fraction(0)) for i in range(4)], RES
        )
        my = DiscreteMeasure.uniform(
            [(Fraction(0), Fraction(8 + i, 32)) for i in range(4)], RES
        )
        return StableFrame([lx, ly], [[mx], [my]]), mx, my

    def test_transversal_lines_product_verifies(self):
        frame, mx, my = self.axes_frame()
        g0 = ThinGraph([mx], [(i,) for i in range(4)], sigma=1.0, big_k=8.0)
        g1 = ThinGraph([my], [(i,) for i in range(4)], sigma=1.0, big_k=8.0)
        out, check = product_graph([g0, g1], frame, dyadic_scales(5, 1))
        assert check.ok, check.failure
        assert out.arity == 2
        assert len(list(out.iter_tuples())) == 16

    def test_product_measures_each_mass_once(self, monkeypatch):
        """K = 8 fails on the axes frame, so the graph is verified again at
        the achieved K from the same counts: the 16 tuples' spans go through
        the oracle's integer cores once, each counting both measures, and
        the result is that of a fresh verification."""
        frame, mx, my = self.axes_frame()
        g0 = ThinGraph([mx], [(i,) for i in range(4)], sigma=1.0, big_k=8.0)
        g1 = ThinGraph([my], [(i,) for i in range(4)], sigma=1.0, big_k=8.0)
        calls = count_numerator_passes(monkeypatch)
        out, check = product_graph([g0, g1], frame, dyadic_scales(5, 1))
        assert calls == [16]
        assert out.big_k == 24.0
        assert check == verify_thin_planes(out, dyadic_scales(5, 1))

    @pytest.mark.parametrize(
        "sigma", [Fraction(1), Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(5, 7)]
    )
    def test_achieved_k_is_the_least_double_that_verifies(self, sigma):
        frame, mx, my = self.axes_frame()
        gs = [ThinGraph([m], [(i,) for i in range(4)], sigma=sigma, big_k=1) for m in (mx, my)]
        scales = dyadic_scales(5, 1)
        out, check = product_graph(gs, frame, scales)
        assert check.ok, check.failure
        below = math.nextafter(out.big_k, 0.0)
        peaks = [(s, m) for s, m, _, _ in check.table]
        assert all(exactly_within(m, out.k_exact, sigma, s) for s, m in peaks)
        assert not all(exactly_within(m, Fraction(below), sigma, s) for s, m in peaks)
        assert not verify_thin_planes(ThinGraph(out.measures, out.tuples, sigma, below), scales).ok

    def test_one_walk_per_call(self, monkeypatch):
        """Both certificates are read from one minimal rank table: one budget
        check, then one trie, per call (one of each per certificate, three
        in all, when each rank was walked on its own)."""
        frame, mx, my = self.axes_frame()
        gs = [ThinGraph([m], [(i,) for i in range(4)], sigma=1.0, big_k=8.0) for m in (mx, my)]
        calls = []
        for name in ("_check_picks", "_trie"):
            real = getattr(stability, name)
            monkeypatch.setattr(stability, name, lambda *a, name=name, real=real: calls.append(name) or real(*a))
        product_graph(gs, frame, dyadic_scales(5, 1))
        assert calls == ["_check_picks", "_trie"]

    @pytest.mark.parametrize(
        "case, message",
        [
            ("one-flat", r"dimension sums do not fill the ambient space"),
            ("graph-count", r"one graph per frame flat required"),
            ("arity", r"graph 0 arity differs from flat 0 measures"),
            ("measures", r"graph 1 measures differ from the frame's"),
        ],
    )
    def test_refused(self, case, message):
        """Each refusal before the ranks, on the axes frame or a variant of
        it: a lone line in Q^2, one graph for two flats, a graph of arity 2
        on a flat with one measure, and a graph on another measure than its
        flat's."""
        frame, mx, my = self.axes_frame()
        g0 = ThinGraph([mx], [(i,) for i in range(4)], sigma=1.0, big_k=8.0)
        g1 = ThinGraph([my], [(i,) for i in range(4)], sigma=1.0, big_k=8.0)
        gs = [g0, g1]
        if case == "one-flat":
            frame, gs = StableFrame(frame.flats[:1], [[mx]]), [g0]
        elif case == "graph-count":
            gs = [g0]
        elif case == "arity":
            gs = [ThinGraph([mx, mx], [(0, 1)], sigma=1.0, big_k=8.0), g1]
        else:
            gs = [g0, ThinGraph([mx], [(i,) for i in range(4)], sigma=1.0, big_k=8.0)]
        with pytest.raises(NotMinimalStable, match=message):
            product_graph(gs, frame, dyadic_scales(5, 1))

    def test_concurrent_coplanar_lines_rejected(self):
        # three lines through the origin inside one plane of Q^3
        l1 = AffineFlat([0, 0, 0], [[1, 0, 0]])
        l2 = AffineFlat([0, 0, 0], [[0, 1, 0]])
        l3 = AffineFlat([0, 0, 0], [[1, 1, 0]])
        ms = [
            [DiscreteMeasure([((Fraction(1, 2), 0, 0), 1)], RES)],
            [DiscreteMeasure([((0, Fraction(1, 2), 0), 1)], RES)],
            [DiscreteMeasure([((Fraction(1, 4), Fraction(1, 4), 0), 1)], RES)],
        ]
        frame = StableFrame([l1, l2, l3], ms)
        gs = [
            ThinGraph(ms[j], [(0,)], sigma=1.0, big_k=4.0) for j in range(3)
        ]
        with pytest.raises(NotMinimalStable, match=r"rank certificate r\(full, \{\}\) = 2 != 3"):
            product_graph(gs, frame, dyadic_scales(4, 1))

    def test_coplanar_lines_fail_the_block_certificate(self):
        """Three lines in the plane z = 0 of Q^3 with affinely independent
        atoms pass r(full, {}) = 3, but with any block's own basis the
        columns stay in that plane: r(minus 0, {0}) = 3, not 4."""
        l1 = AffineFlat([0, 0, 0], [[1, 0, 0]])
        l2 = AffineFlat([0, 0, 0], [[0, 1, 0]])
        l3 = AffineFlat([0, Fraction(1, 4), 0], [[1, 0, 0]])
        ms = [
            [DiscreteMeasure([((Fraction(1, 2), 0, 0), 1)], RES)],
            [DiscreteMeasure([((0, Fraction(1, 2), 0), 1)], RES)],
            [DiscreteMeasure([((Fraction(1, 8), Fraction(1, 4), 0), 1)], RES)],
        ]
        frame = StableFrame([l1, l2, l3], ms)
        gs = [ThinGraph(ms[j], [(0,)], sigma=1.0, big_k=4.0) for j in range(3)]
        with pytest.raises(NotMinimalStable, match=r"rank certificate r\(minus 0, \{0\}\) = 3 != 4"):
            product_graph(gs, frame, dyadic_scales(4, 1))

    def test_single_flat_product_is_input(self):
        lx = AffineFlat([0, 0], [[1, 0]])
        mx = DiscreteMeasure.uniform(
            [(Fraction(8 + i, 32), Fraction(0)) for i in range(4)], RES
        )
        # a 1-flat frame only fits the p = 0 path when n = 1... use the
        # 2-flat ambient with a full-dimension flat instead
        plane = AffineFlat.full_space(2)
        mu_a = DiscreteMeasure.uniform([(Fraction(1, 4), 0), (0, Fraction(1, 4))], RES)
        mu_b = DiscreteMeasure.uniform(
            [(Fraction(1, 2), Fraction(1, 8)), (Fraction(1, 8), Fraction(1, 2))], RES
        )
        frame = StableFrame([plane], [[mu_a, mu_b]])
        g = ThinGraph([mu_a, mu_b], [(0, 0), (1, 1)], sigma=1.0, big_k=16.0)
        out, check = product_graph([g], frame, dyadic_scales(4, 1))
        assert set(out.iter_tuples()) == set(g.iter_tuples())


def exactly_within(mass: Fraction, big_k: Fraction, sigma: Fraction, s: Fraction) -> bool:
    """mass <= K s^sigma over Fractions, for K > 0: (mass / K)^q <= s^p."""
    return (mass / big_k) ** sigma.denominator <= s**sigma.numerator


class TestExactCuts:
    @settings(max_examples=400, deadline=None)
    @given(
        st.integers(1, 60),
        st.fractions(min_value=Fraction(1, 12), max_value=50, max_denominator=12),
        st.integers(-6, 6),
        st.integers(1, 6),
        st.fractions(min_value=Fraction(1, 70), max_value=1, max_denominator=70),
    )
    def test_cut_is_the_floor_of_the_exact_bound(self, w, big_k, p, q, s):
        # T^q <= (w K)^q s^p < (T + 1)^q, p and q as drawn (not reduced)
        t = thin._cut(w, big_k, Fraction(p, q), s)
        power = (w * big_k) ** q * s**p
        assert 0 <= t and t**q <= power < (t + 1) ** q

    @pytest.mark.parametrize(
        "n, q", [(0, 3), (1, 5), (7, 1), (2**64, 2), (2**64 - 1, 2), (10**30, 7), (3**40, 40)]
    )
    def test_integer_root(self, n, q):
        t = thin._iroot(n, q)
        assert t**q <= n < (t + 1) ** q

    @pytest.mark.parametrize("sigma", [Fraction(1), Fraction(2, 3), Fraction(-3, 2)])
    def test_cut_without_a_positive_bound(self, sigma):
        """K = 0 bounds every count by 0 and K < 0 bounds none, below 0."""
        for w in (1, 7, 600):
            assert thin._cut(w, Fraction(0), sigma, Fraction(1, 4)) == 0
            assert thin._cut(w, Fraction(-1, 3), sigma, Fraction(1, 4)) == -1

    def test_graph_without_a_positive_bound(self):
        """Each tuple (i, i) spans the line y = 2i through weightless atoms
        for i = 0, so every count near that line is 0 at the window, and
        through weighted atoms for i = 1.  K = 0 passes the zero counts and
        fails at the first positive one; K < 0 fails at count 0 already."""
        mus = [DiscreteMeasure([((x, 0), 0), ((x, 2), 1)], RES) for x in (0, 1)]
        scales = dyadic_scales(2, 1)
        assert verify_thin_planes(ThinGraph(mus, [(0, 0)], sigma=1, big_k=0), scales).ok
        out = verify_thin_planes(ThinGraph(mus, [(0, 0), (1, 1)], sigma=1, big_k=0), scales)
        assert not out.ok and out.worst.tuple_ == (1, 1) and out.worst.mass == 1
        out = verify_thin_planes(ThinGraph(mus, [(0, 0)], sigma=1, big_k=-1), scales)
        assert not out.ok and out.worst.tuple_ == (0, 0) and out.worst.mass == 0

    def test_binary_float_sigma_is_refused_before_the_root(self):
        # 0.1 as a double is 3602879701896397 / 2^55
        with pytest.raises(BudgetExceeded, match="root"):
            thin._cut(32, Fraction(6), Fraction(0.1), Fraction(1, 2))
        # a zero bound takes no root, so the same sigma is not refused there
        assert thin._cut(32, Fraction(0), Fraction(0.1), Fraction(1, 2)) == 0
        g = ThinGraph.complete(parallel_segments(4), sigma=0.1, big_k=6.0)
        with pytest.raises(BudgetExceeded):
            verify_thin_planes(g, dyadic_scales(2, 1))


def weighted_abscissae():
    """2 to 4 distinct abscissae in 0..8, each with an integer weight 1..5."""
    atom = st.tuples(st.integers(0, 8), st.integers(1, 5))
    return st.lists(atom, min_size=2, max_size=4, unique_by=lambda a: a[0])


class TestExactThinVerdicts:
    """K = 5, sigma = 1 and scale 1/6 put the bound at 5/6, where the float
    ratio of an exact tie reads 1.0000000000000002."""

    TIE = Fraction(5, 6)
    W = 600

    def line_graph(self, near: Fraction, sigma=1, big_k=5) -> ThinGraph:
        # weight near on the line y = 0 for both measures; a far atom of
        # weight 1/600 fixes the weight denominator at W = 600
        far = Fraction(1, self.W)
        mus = [
            DiscreteMeasure([((x, 0), near), ((x, 1), 1 - near - far), ((x, 2), far)], RES)
            for x in (0, 1)
        ]
        return ThinGraph(mus, [(0, 0)], sigma=sigma, big_k=big_k)

    def test_exact_tie_passes(self):
        g = self.line_graph(self.TIE)
        assert g.measures[0].weight_den == self.W
        check = verify_thin_planes(g, [Fraction(1, 6)])
        assert check.ok, check.failure
        assert check.max_ratio > 1.0  # the float view of the same tie
        assert check.worst.mass == self.TIE

    def test_one_part_in_w_above_fails_with_its_witness(self):
        check = verify_thin_planes(self.line_graph(self.TIE + Fraction(1, self.W)), [Fraction(1, 6)])
        assert not check.ok
        w = check.worst
        assert (w.tuple_, w.measure_index, w.scale) == ((0, 0), 0, Fraction(1, 6))
        assert w.mass == Fraction(501, 600) > 5 * Fraction(1, 6)
        assert check.failure == "tuple (0, 0) measure 0 at scale 1/6: mass 167/200 > bound 0.833333"

    @settings(max_examples=60, deadline=None)
    @given(
        weighted_abscissae(),
        weighted_abscissae(),
        st.sampled_from([Fraction(1, 2), Fraction(2, 3), Fraction(1), Fraction(3, 4), Fraction(-1, 3)]),
        st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=9),
    )
    def test_verdict_matches_fraction_reference(self, raw0, raw1, sigma, big_k):
        # atoms on y = 0 and y = 1/2 with integer weights; spans are lines
        mus = [
            DiscreteMeasure([((Fraction(x, 8), y), w) for x, w in raw], RES)
            for raw, y in ((raw0, 0), (raw1, Fraction(1, 2)))
        ]
        g = ThinGraph.complete(mus, sigma=sigma, big_k=big_k)
        scales = dyadic_scales(3, 1)
        check = verify_thin_planes(g, scales)
        oracles = [thin.PlateMassOracle(m) for m in mus]
        over = [
            (t, j, s, m)
            for t in g.iter_tuples()
            for j, o in enumerate(oracles)
            for s, m in zip(scales, o.masses_near_span(tuple_atoms(g, t)[0], [s * s for s in scales]))
            if not exactly_within(m, big_k, sigma, s)
        ]
        assert check.ok == (not over)
        if over:
            w = check.worst
            assert not exactly_within(w.mass, big_k, sigma, w.scale)
            assert (w.tuple_, w.measure_index, w.scale, w.mass) in over


chart_coord = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
chart_weight = st.builds(Fraction, st.integers(1, 5), st.integers(1, 3))


@st.composite
def chart_graphs(draw):
    """A complete graph of n measures on Q^n, n = 2 or 3, with one to three
    atoms each, and one to four distinct exponents k of scales 2^-k."""
    n = draw(st.integers(2, 3))
    atoms = st.lists(st.tuples(st.tuples(*[chart_coord] * n), chart_weight), min_size=1, max_size=3)
    g = ThinGraph.complete([DiscreteMeasure(draw(atoms), RES) for _ in range(n)], sigma=1, big_k=1)
    return g, draw(st.lists(st.integers(0, 7), min_size=1, max_size=4, unique=True))


def spans_hyperplanes(g):
    return all(reference_affinely_independent(tuple_atoms(g, t)[0]) for t in g.iter_tuples())


class TestPushforwardFrostman:
    def test_coincident_spans_give_zero_exponent(self):
        # every tuple spans the same horizontal line
        mu0 = DiscreteMeasure.uniform([(0, 0)], RES)
        mu1 = DiscreteMeasure.uniform([(1, 0), (2, 0)], RES)
        g = ThinGraph.complete([mu0, mu1], sigma=1.0, big_k=4.0)
        fit = pushforward_frostman(g, dyadic_scales(6, 2))
        assert abs(fit.exponent) < 1e-9

    def test_coplanar_tuples_give_zero_exponent(self):
        mus = [
            DiscreteMeasure.uniform(pts, RES)
            for pts in ([(0, 0, 1)], [(1, 0, 1)], [(0, 1, 1), (0, 2, 1), (3, 5, 1)])
        ]
        fit = pushforward_frostman(ThinGraph.complete(mus, sigma=1, big_k=4), dyadic_scales(6, 2))
        assert [c for _, c, _ in fit.table] == [1] * 5
        assert fit.exponent == 0

    def test_parallel_segments_exponent_near_two(self):
        mu0, mu1 = parallel_segments(10)
        g = ThinGraph.complete([mu0, mu1], sigma=1.0, big_k=8.0)
        fit = pushforward_frostman(g, dyadic_scales(6, 2))
        assert 1.8 <= fit.exponent <= 2.1

    def test_wrong_arity_rejected(self):
        mu0 = DiscreteMeasure([((0, 0, 0), 1)], RES)
        mu1 = DiscreteMeasure([((1, 0, 0), 1)], RES)
        g = ThinGraph.complete([mu0, mu1], sigma=1.0, big_k=4.0)
        with pytest.raises(ValueError):
            pushforward_frostman(g, dyadic_scales(4, 2))

    @settings(max_examples=150, deadline=None)
    @given(chart_graphs())
    def test_boxes_match_the_fraction_reference(self, case):
        """Every box key, at every scale, is the Fraction reference's key,
        and its weight over prod W_j is the sum of its tuples' weights."""
        g, ks = case
        if not spans_hyperplanes(g):
            with pytest.raises(TupleInDegenerateSet):
                thin._chart_boxes(g, ks)
            return
        den = math.prod(m.weight_den for m in g.measures)
        for k, boxes in zip(ks, thin._chart_boxes(g, ks)):
            want = {}
            for t in g.iter_tuples():
                points, weight = tuple_atoms(g, t)
                key = reference_chart_key(points, Fraction(1, 2**k))
                want[key] = want.get(key, 0) + weight * den
            assert boxes == want

    @settings(max_examples=100, deadline=None)
    @given(chart_graphs())
    def test_a_shift_equals_per_scale_division(self, case):
        g, ks = case
        assume(spans_hyperplanes(g))
        assert thin._chart_boxes(g, ks) == [thin._chart_boxes(g, [k])[0] for k in ks]

    @pytest.mark.parametrize("points", [[(0, 0), (1, 1)], [(0, 0, 0), (1, 0, 0), (0, 1, 1)]])
    def test_a_tie_charts_by_the_first_index(self, points):
        # |a_0| = |a_1| for the line x = y; |a_1| = |a_2| for the plane y = z
        g = ThinGraph.complete([DiscreteMeasure([(p, 1)], RES) for p in points], sigma=1, big_k=1)
        (boxes,) = thin._chart_boxes(g, [3])
        assert list(boxes) == [reference_chart_key(points, Fraction(1, 8))]

    def test_dependent_tuple_rejected(self):
        mu = DiscreteMeasure([((Fraction(1, 3), 0), 1)], RES)
        with pytest.raises(TupleInDegenerateSet):
            pushforward_frostman(ThinGraph.complete([mu, mu], sigma=1, big_k=1), dyadic_scales(4, 2))
        collinear = [DiscreteMeasure([((i, i, 0), 1)], RES) for i in range(3)]
        with pytest.raises(TupleInDegenerateSet):
            pushforward_frostman(ThinGraph.complete(collinear, sigma=1, big_k=1), dyadic_scales(4, 2))

    def test_scale_not_a_power_of_two_rejected(self):
        mu0, mu1 = parallel_segments(3)
        g = ThinGraph.complete([mu0, mu1], sigma=1.0, big_k=8.0)
        with pytest.raises(ValueError, match="3/16"):
            pushforward_frostman(g, [Fraction(1, 4), Fraction(3, 16)])


class TestMarginalHeavySet:
    def test_full_graph_everything_heavy(self):
        mu0, mu1 = parallel_segments(3)
        g = ThinGraph.complete([mu0, mu1], sigma=1.0, big_k=4.0)
        rep = marginal_heavy_set(g, 0, 1)
        assert rep.heavy_atoms == list(range(len(mu0)))
        assert rep.fubini_total == g.density()

    def test_empty_graph_nothing_heavy(self):
        mu0, mu1 = parallel_segments(3)
        g = ThinGraph([mu0, mu1], [], sigma=1.0, big_k=4.0)
        rep = marginal_heavy_set(g, 0, Fraction(1, 100))
        assert rep.heavy_atoms == []

    def test_half_graph_hand_values(self):
        mu0 = DiscreteMeasure.uniform([(0, 0), (0, 1)], RES)
        mu1 = DiscreteMeasure.uniform([(1, 0), (1, 1)], RES)
        g = ThinGraph([mu0, mu1], [(0, 0), (0, 1)], sigma=1.0, big_k=4.0)
        rep = marginal_heavy_set(g, 0, Fraction(1, 2))
        assert rep.section_ratios[0] == 1
        assert rep.section_ratios[1] == 0
        rep1 = marginal_heavy_set(g, 1, Fraction(1, 2))
        assert rep1.section_ratios == {0: Fraction(1, 2), 1: Fraction(1, 2)}
        assert rep1.fubini_total == g.density()


class TestPlateOracleRescaling:
    def test_foreign_denominator_endpoints_are_exact(self):
        # the oracle's atoms use denominator 4; the span endpoints use 3;
        # a truncating integerization would move the line off the atom
        mu = DiscreteMeasure([((Fraction(1, 3), Fraction(1, 3)), 1)], RES)
        from flatbeck.thin import PlateMassOracle

        oracle = PlateMassOracle(
            DiscreteMeasure.uniform([(Fraction(1, 4), Fraction(1, 4)), (0, 1)], RES)
        )
        # line y = x passes exactly through (1/4, 1/4) but not (0, 1)
        got = oracle.masses_near_line(
            (Fraction(1, 3), Fraction(1, 3)), (Fraction(2, 3), Fraction(2, 3)), [Fraction(0)]
        )
        assert got == [Fraction(1, 2)]


class TestThinImpliesNC:
    def test_parallel_segments_supports_are_nc(self):
        mu0, mu1 = parallel_segments(5)
        g = ThinGraph.complete([mu0, mu1], sigma=1.0, big_k=6.0)
        ok, coll, check = thin_implies_nc(g, dyadic_scales(5, 1))
        assert ok and check.ok and coll.is_nc()

    def test_negative_control_high_sigma_grid(self):
        # sigma = 1.5 cannot hold for 1-planes against full-dimensional grids
        mu = square_grid(5)
        tuples = [(0, 37), (100, 900), (500, 220), (33, 777)]
        g = ThinGraph([mu, mu], tuples, sigma=1.5, big_k=4.0)
        out = verify_thin_planes(g, dyadic_scales(5, 1))
        assert not out.ok


class TestRefusals:
    @staticmethod
    def points(*pts):
        return DiscreteMeasure.uniform(list(pts), RES)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: ThinGraph([], None, 1, 1), "graph needs at least one measure"),
            (lambda: ThinGraph([TestRefusals.points((0, 0)), TestRefusals.points((0, 0, 0))], None, 1, 1),
             "ambient dimensions differ"),
            (lambda: ThinGraph([TestRefusals.points((0, 0), (1, 0))], [(2,)], 1, 1),
             r"tuple \(2,\) indexes a missing atom"),
            (lambda: ThinGraph([TestRefusals.points((0, 0)), DiscreteMeasure([((1, 0), 0)], RES)], None, 1, 1),
             "measure has zero total mass"),
            (lambda: pushforward_frostman(
                ThinGraph.complete([TestRefusals.points((0, 0)), TestRefusals.points((1, 0))], 1, 1), [Fraction(1, 2)]),
             "need at least two distinct scales"),
            (lambda: pushforward_frostman(
                ThinGraph([TestRefusals.points((0, 0)), TestRefusals.points((1, 0))], [], 1, 1), dyadic_scales(2, 1)),
             "graph carries no mass"),
            (lambda: thin_implies_nc(ThinGraph.complete([TestRefusals.points((0, 0))], 1, 1), dyadic_scales(2, 1)),
             "NC transfer needs an arity-n graph"),
        ],
        ids=["no-measures", "mixed-dimensions", "missing-atom", "zero-mass", "one-scale", "no-mass", "nc-arity"],
    )
    def test_refused(self, call, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()
