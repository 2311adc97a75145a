import itertools
import math
import random
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from flatbeck import beck, flats, genscenes
from flatbeck.beck import (
    PointConfig,
    concentrated_span_count,
    dichotomy_report,
    enumerate_spanned_flats,
)
from flatbeck.cli import main
from flatbeck.exactlin import int_rref
from flatbeck.flats import AffineFlat, _lifted_integer_points, dist2_flats, spanned_flats
from flatbeck.genscenes import generic_points
from fraction_reference import (
    reference_dichotomy,
    reference_generic_points,
    reference_pencils,
    reference_rank,
    reference_spanned_flats,
)

SCENES = Path(__file__).resolve().parent.parent / "scenes"


class TestEnumerateSpannedFlats:
    def test_triangle_spans_three_lines(self):
        x = PointConfig([(0, 0), (1, 0), (0, 1)])
        assert len(enumerate_spanned_flats(x, 1)) == 3

    def test_collinear_points_span_one_line(self):
        x = PointConfig([(Fraction(i, 8), Fraction(i, 4)) for i in range(6)])
        assert len(enumerate_spanned_flats(x, 1)) == 1

    def test_four_generic_points_span_four_planes(self):
        x = PointConfig([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert len(enumerate_spanned_flats(x, 2)) == 4

    def test_generic_count_matches_binomial(self):
        rng = random.Random(99)
        pts = generic_points(rng, 3, 10)
        x = PointConfig(pts)
        assert len(enumerate_spanned_flats(x, 2)) == math.comb(10, 3)

    def test_upper_bound_always(self):
        # eight distinct points of the grid {-1, 0, 1}^3, not in general position
        pts = random.Random(5).sample(list(itertools.product(range(-1, 2), repeat=3)), 8)
        x = PointConfig(pts)
        assert len(enumerate_spanned_flats(x, 2)) <= math.comb(8, 3)


class TestRefusals:
    @pytest.mark.parametrize(
        "points, message",
        [
            ([], "empty point set"),
            ([(0, 0), (0, 0, 0)], "dimension mismatch"),
            ([(0, 0), (1, 0), (Fraction(0), Fraction(0, 3))], "points must be pairwise distinct"),
        ],
        ids=["empty", "mixed-dimensions", "repeated"],
    )
    def test_point_set(self, points, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            PointConfig(points)

    @pytest.mark.parametrize("k", [0, 3])
    def test_dimension_outside_one_to_n_minus_one(self, k):
        x = PointConfig([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
        with pytest.raises(ValueError, match="^need 1 <= k <= n-1$"):
            enumerate_spanned_flats(x, k)

    def test_span_count_needs_a_proper_flat(self):
        x = PointConfig([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
        with pytest.raises(ValueError, match="^flat must be proper$"):
            concentrated_span_count(x, AffineFlat.full_space(3))

    def test_dichotomy_needs_two_dimensions(self):
        with pytest.raises(ValueError, match=r"^spanned hyperplanes need ambient dimension >= 2$"):
            dichotomy_report(PointConfig([(0,), (1,), (2,)]))


class TestGenericPointsAgainstFractionReference:
    """generic_points' incidence test draws and keeps the same points as
    the reference loop with a rank per subset, and exhausts its tries on
    the same seeds with the same error; on the two small grids, set through
    the module constants, some seeds exhaust and some finish."""

    @staticmethod
    def small_grid(monkeypatch, span, den=16, tries=100_000) -> dict:
        """Patch the grid constants; the same settings as reference keywords."""
        for name, value in (("GENERIC_SPAN", span), ("GENERIC_DEN", den), ("GENERIC_TRIES", tries)):
            monkeypatch.setattr(genscenes, name, value)
        return {"span": span, "den": den, "max_tries": tries}

    @pytest.mark.parametrize(
        "n, count, grid",
        [(2, 10, None), (3, 12, None), (4, 7, None), (2, 8, (2, 1, 300)), (3, 7, (1, 1, 300))],
    )
    def test_same_points_or_error_on_every_seed(self, n, count, grid, monkeypatch):
        kw = {} if grid is None else self.small_grid(monkeypatch, *grid)

        def outcome(fn, seed, **kw):
            try:
                return fn(random.Random(seed), n, count, **kw)
            except RuntimeError as e:
                return str(e)

        exhausted = 0
        for seed in range(15):
            want = outcome(reference_generic_points, seed, **kw)
            assert outcome(generic_points, seed) == want
            exhausted += want == "rejection sampling exhausted"
        assert 0 < exhausted < 15 if grid else exhausted == 0

    def test_exhausted_grid_stops_drawing(self, monkeypatch):
        """Q^1 at span 1 has three grid points, so a fourth cannot be drawn:
        the loop raises once all three are decided, after a handful of
        draws, where the reference loop draws until max_tries."""
        kw = self.small_grid(monkeypatch, 1)
        rng = random.Random(0)
        draws = []
        draw = rng.randint
        rng.randint = lambda a, b: draws.append((a, b)) or draw(a, b)
        with pytest.raises(RuntimeError, match="^rejection sampling exhausted$"):
            generic_points(rng, 1, 4)
        assert 3 <= len(draws) <= 20
        with pytest.raises(RuntimeError, match="^rejection sampling exhausted$"):
            reference_generic_points(random.Random(0), 1, 4, **{**kw, "max_tries": 1_000})
        got = generic_points(random.Random(0), 1, 3)
        assert got == reference_generic_points(random.Random(0), 1, 3, **kw)


class TestConcentratedSpanCount:
    def test_points_on_a_plane_give_one(self):
        pts = [(Fraction(i, 4), Fraction(j, 4), Fraction(0)) for i in range(2) for j in range(2)]
        x = PointConfig(pts)
        plane = AffineFlat([0, 0, 0], [[1, 0, 0], [0, 1, 0]])
        assert concentrated_span_count(x, plane) == 1

    def test_line_with_generic_points(self):
        # 5 generic points off a line f: each spans one plane through f
        # together with the two line points
        line_pts = [(0, 0, 0), (1, 0, 0)]
        rng = random.Random(17)
        off = generic_points(rng, 3, 5)
        off = [p for p in off if p[1:] != (0, 0)][:5]
        x = PointConfig(line_pts + off)
        f = AffineFlat([0, 0, 0], [[1, 0, 0]])
        got = concentrated_span_count(x, f)
        distinct_planes = {
            AffineFlat.from_points(line_pts + [p]).canon for p in off
        }
        assert got == len(distinct_planes)

    def test_disjoint_flat_gives_zero(self):
        x = PointConfig([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
        far = AffineFlat([5, 5, 5], [[1, 0, 0]])
        assert concentrated_span_count(x, far) == 0

    def test_hyperplane_not_spanned_gives_zero(self):
        # three collinear points on z = 0 span a line, not the plane
        x = PointConfig([(0, 0, 0), (1, 1, 0), (2, 2, 0), (0, 0, 1), (1, 0, 2)])
        plane = AffineFlat([0, 0, 0], [[1, 0, 0], [0, 1, 0]])
        assert concentrated_span_count(x, plane) == 0

    def test_ambient_mismatch_raises(self):
        x = PointConfig([(0, 0, 0), (1, 0, 0), (0, 1, 0)])
        with pytest.raises(ValueError):
            concentrated_span_count(x, AffineFlat([0, 0], [[1, 0]]))


class TestDichotomy:
    def test_coplanar_points_find_the_plane(self):
        pts = [
            (Fraction(i, 4), Fraction(j, 4), Fraction(0))
            for i in range(4)
            for j in range(3)
        ]
        x = PointConfig(pts)
        rep = dichotomy_report(x, epsilon=0.1)
        assert rep.concentrated
        assert sum(f.dim for f in rep.family) <= 2
        assert rep.covered == len(pts)
        assert rep.hyperplane_count == len(enumerate_spanned_flats(x, 2))

    def test_generic_points_count_hyperplanes(self):
        rng = random.Random(41)
        pts = generic_points(rng, 3, 12)
        rep = dichotomy_report(PointConfig(pts), epsilon=0.1)
        assert not rep.concentrated
        assert rep.hyperplane_count == math.comb(12, 3)
        assert rep.ratio == pytest.approx(math.comb(12, 3) / 12**3)

    def test_two_skew_lines_concentrate(self):
        l1 = [(Fraction(i, 8), Fraction(0), Fraction(0)) for i in range(8)]
        l2 = [(Fraction(0), Fraction(1), Fraction(i, 8)) for i in range(8)]
        x = PointConfig(l1 + l2)
        rep = dichotomy_report(x, epsilon=0.1)
        assert rep.concentrated
        assert sum(f.dim for f in rep.family) <= 2
        assert rep.covered == 16
        assert rep.hyperplane_count == len(enumerate_spanned_flats(x, 2))

    def test_budget_flagged(self):
        pts = [(Fraction(i), Fraction(i * i), Fraction(1)) for i in range(12)]
        rep = dichotomy_report(PointConfig(pts), budget=5)
        assert not rep.complete and rep.note


class TestCoverStructure:
    def test_spanned_hyperplanes_meet_heavy_flat(self):
        # points on two disjoint skew lines: every spanned plane contains
        # a flat holding more points than its dimension
        l1 = [(Fraction(i, 4), Fraction(0), Fraction(0)) for i in range(4)]
        l2 = [(Fraction(0), Fraction(1), Fraction(i, 4)) for i in range(4)]
        x = PointConfig(l1 + l2)
        f1 = AffineFlat([0, 0, 0], [[1, 0, 0]])
        f2 = AffineFlat([0, 1, 0], [[0, 0, 1]])
        for h in enumerate_spanned_flats(x, 2):
            on_h1 = sum(1 for p in l1 if h.contains_point(p))
            on_h2 = sum(1 for p in l2 if h.contains_point(p))
            assert (h.contains_flat(f1) and on_h1 > 1) or (
                h.contains_flat(f2) and on_h2 > 1
            )


coords = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 7))


@st.composite
def concentrated_points(draw):
    """Points of Q^2..Q^4 over denominators 1..7, some forced onto lines and
    planes through earlier points."""
    n = draw(st.integers(2, 4))
    pts = draw(st.lists(st.tuples(*[coords] * n), min_size=2, max_size=4))
    for _ in range(draw(st.integers(1, 4))):
        on = draw(st.lists(st.sampled_from(pts), min_size=2, max_size=3))
        ts = draw(st.lists(coords, min_size=len(on) - 1, max_size=len(on) - 1))
        pts.append(tuple(
            on[0][j] + sum(t * (q[j] - on[0][j]) for t, q in zip(ts, on[1:]))
            for j in range(n)
        ))
    return pts


@st.composite
def repeated_points(draw):
    """concentrated_points with up to three points repeated, shuffled."""
    pts = draw(concentrated_points())
    return draw(st.permutations(pts + draw(st.lists(st.sampled_from(pts), max_size=3))))


class TestCoverMasks:
    @settings(max_examples=150, deadline=None)
    @given(repeated_points())
    def test_integer_masks_match_contains_point(self, pts):
        for f, mask in spanned_flats(pts, 0, len(pts[0]) - 1):
            want = sum(1 << i for i, p in enumerate(pts) if dist2_flats(AffineFlat.point(p), f) == 0)
            assert mask == want


def brute_span_count(pts, f) -> int:
    """Every spanned hyperplane of the Fraction brute force, kept when the
    Fraction rank of its canonical rows does not grow with f's."""
    n = len(pts[0])
    return sum(
        1
        for h in reference_spanned_flats(pts, [n - 1])
        if reference_rank(h.canon + f.canon) == reference_rank(h.canon)
    )


@st.composite
def span_count_cases(draw):
    """Distinct points from concentrated_points and a proper flat f: spanned
    by some of the points, through one point with free directions, or
    anywhere (mostly missing every point); of any dimension 0..n-1."""
    pts = list(dict.fromkeys(draw(concentrated_points())))
    n = len(pts[0])
    kind = draw(st.sampled_from(["spanned", "through", "free"]))
    if kind == "spanned":
        return pts, AffineFlat.from_points(
            draw(st.lists(st.sampled_from(pts), min_size=1, max_size=n, unique=True))
        )
    base = draw(st.sampled_from(pts)) if kind == "through" else draw(st.tuples(*[coords] * n))
    d = draw(st.integers(0, n - 1))
    dirs = draw(st.lists(st.tuples(*[coords] * n), min_size=d, max_size=d))
    assume(reference_rank(dirs) == d)
    return pts, AffineFlat(base, dirs)


class TestSpanCountAgainstBruteForce:
    @settings(max_examples=300, deadline=None)
    @given(span_count_cases())
    def test_quotient_count_matches_enumeration(self, case):
        pts, f = case
        assert concentrated_span_count(PointConfig(pts), f) == brute_span_count(pts, f)


class TestOneWalk:
    @settings(max_examples=100, deadline=None)
    @given(repeated_points())
    def test_buckets_equal_single_dimension_walks(self, pts):
        """One walk to every dimension gives, per dimension, the flats,
        masks and picks of a walk to that dimension alone, in its order."""
        n = len(pts[0])
        walk = list(spanned_flats(pts, 0, n - 1))
        for d in range(n):
            bucket = [(f._rows, f._picks, m) for f, m in walk if f.dim == d]
            assert bucket == [(f._rows, f._picks, m) for f, m in spanned_flats(pts, d, d)]

    @settings(max_examples=60, deadline=None)
    @given(repeated_points())
    def test_leaf_rows_built_only_when_read(self, pts):
        """A walk read for picks and masks builds the rows of its inner
        nodes only, one _pencil_rows call per node above the last level;
        read, a leaf's rows are int_rref's of its lifted picks."""
        lifted = _lifted_integer_points(pts)
        depth = len(pts[0])
        with mock.patch.object(flats, "_pencil_rows", wraps=flats._pencil_rows) as built:
            nodes = list(flats._pencils(lifted, (), 0, depth))
        inner = sum(0 < len(picks) < depth for picks, _, _ in nodes)
        assert built.call_count == inner
        for picks, rows, _ in nodes:
            assert rows() == tuple(map(tuple, int_rref([lifted[i] for i in picks])[1]))


@st.composite
def planted_sets(draw):
    """Points of Q^3 or Q^4 over denominators 1..7: a few planted lines and
    planes (in Q^4 also 3-flats) through drawn points, each carrying up to
    four points, plus up to three stray points; at most 9 points in Q^3 and
    8 in Q^4, so the unbounded reference search stays small."""
    n = draw(st.integers(3, 4))
    pts = []
    for _ in range(draw(st.integers(1, 3))):
        d = draw(st.integers(1, n - 1))
        base = draw(st.tuples(*[coords] * n))
        dirs = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * n), min_size=d, max_size=d))
        for _ in range(draw(st.integers(2, 4))):
            ts = draw(st.lists(coords, min_size=d, max_size=d))
            pts.append(tuple(b + sum(t * u[j] for t, u in zip(ts, dirs)) for j, b in enumerate(base)))
    pts += draw(st.lists(st.tuples(*[coords] * n), max_size=3))
    pts = list(dict.fromkeys(pts))[: 9 if n == 3 else 8]
    assume(len(pts) >= 2)
    return pts, draw(st.sampled_from([Fraction(0), Fraction(1, 10), Fraction(2, 10), Fraction(3, 10)]))


def count_nodes(monkeypatch) -> list:
    """Record every call of beck._first_cover, the search's one node
    function, which calls itself through the module."""
    calls = []
    search = beck._first_cover

    def counting(*args):
        calls.append(1)
        return search(*args)

    monkeypatch.setattr(beck, "_first_cover", counting)
    return calls


SKEW_LINES = [(Fraction(i, 8), 0, 0) for i in range(8)] + [(0, 1, Fraction(i, 8)) for i in range(8)]
PLANAR_GRID = [(Fraction(i, 4), Fraction(j, 4), Fraction(i + 2 * j, 4)) for i in range(5) for j in range(4)]


class TestBoundedCoverSearch:
    @settings(max_examples=40, deadline=None)
    @given(planted_sets())
    @example((SKEW_LINES, Fraction(1, 10)))
    @example((PLANAR_GRID, Fraction(1, 10)))
    def test_matches_the_unbounded_search(self, case):
        """The bound drops only subtrees without a hit: the verdict, the
        cover and the family are the unbounded search's, each flat with its
        basepoint and directions.  The family's flats are the only flats
        built, each once (explicit: skew lines 8 + 8 in Q^3 and a 5 x 4 grid
        in a plane of Q^3)."""
        pts, eps = case
        with mock.patch.object(AffineFlat, "_from_rows", wraps=AffineFlat._from_rows) as built:
            rep = dichotomy_report(PointConfig(pts), eps)
        want = reference_dichotomy(pts, eps)
        assert rep.complete
        assert rep.concentrated == (want is not None)
        assert built.call_count == len(rep.family or [])
        assert len({c.args[1] for c in built.call_args_list}) == built.call_count
        if want is not None:
            shown = [[(f.canon, f.basepoint, f.directions) for f in fam] for fam in (rep.family, want[1])]
            assert (rep.covered, shown[0]) == (want[0], shown[1])

    def test_backtracks_from_a_node_whose_candidates_all_fail(self, monkeypatch):
        """Lines A, B and C of Q^3 with four of the ten points each, A
        through a point of each of the skew lines B and C, and 8 points
        needed.  No plane holds 8.  A, enumerated first, passes the bound
        (4 + 4 >= 8), but A with B or with C covers 7, so A's node runs out
        of candidates and the search backtracks to B and C, the unbounded
        search's family: root, A, A + B, A + C, B, B + A, B + C."""
        a = [(0, 0, 0), (0, 1, 0), (0, Fraction(1, 2), 0), (0, Fraction(1, 4), 0)]
        pts = a + [(Fraction(i, 8), 0, 0) for i in (1, 2, 3)] + [(0, 1, Fraction(i, 8)) for i in (1, 2, 3)]
        calls = count_nodes(monkeypatch)
        rep = dichotomy_report(PointConfig(pts), Fraction(1, 5))
        want = reference_dichotomy(pts, Fraction(1, 5))
        assert len(calls) == 7
        shown = [[(f.canon, f.basepoint, f.directions) for f in fam] for fam in (rep.family, want[1])]
        assert (rep.covered, shown[0]) == (want[0], shown[1])
        assert [f.directions for f in rep.family] == [((1, 0, 0),), ((0, 0, 1),)]

    def test_one_node_when_the_top_covers_fall_short(self, tmp_path, monkeypatch):
        """20 generic points of Q^3: the best line and plane cover at most
        2 + 3 points of the 18 needed, so the root is the only node."""
        calls = count_nodes(monkeypatch)
        scene = str(SCENES / "beck-generic20.json")
        assert main(["beck", "--scene", scene, "--out", str(tmp_path)]) == 0
        assert calls == [1]

    def test_sixteen_generic_points_of_q4(self, monkeypatch):
        """The unbounded search visits 1,720,301 nodes here; the bound
        (best[3] = 6 of the 15 needed) stops at the root."""
        calls = count_nodes(monkeypatch)
        rep = dichotomy_report(PointConfig(generic_points(random.Random(0), 4, 16)))
        assert (rep.complete, rep.concentrated, rep.hyperplane_count) == (True, False, 1820)
        assert calls == [1]

    def test_node_budget_cuts_the_search_off(self, monkeypatch):
        """Two skew lines need the root and one line node; a budget of one
        node leaves the report incomplete, never read as not concentrated."""
        l1 = [(Fraction(i, 8), Fraction(0), Fraction(0)) for i in range(8)]
        l2 = [(Fraction(0), Fraction(1), Fraction(i, 8)) for i in range(8)]
        x = PointConfig(l1 + l2)
        monkeypatch.setattr(beck, "COVER_NODE_BUDGET", 2)
        assert dichotomy_report(x).concentrated is True
        monkeypatch.setattr(beck, "COVER_NODE_BUDGET", 1)
        rep = dichotomy_report(x)
        assert (rep.complete, rep.concentrated, rep.family) == (False, None, None)
        assert rep.note == "cover search exceeds 1 nodes"
        assert rep.hyperplane_count == len(enumerate_spanned_flats(x, 2))


def walk_nodes(walk, lifted, rows, mask, depth) -> list:
    """A pencil walk's whole node list: picks, read rows and mask, in order."""
    return [(picks, rows(), m) for picks, rows, m in walk(lifted, rows, mask, depth)]


class TestCarriedResiduals:
    """flats._pencils carries each node's residuals down from its parent;
    reference_pencils recomputes them from the node's own rows."""

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(repeated_points(), planted_sets().map(lambda case: case[0])))
    def test_nodes_equal_the_reference_walk(self, pts):
        lifted = _lifted_integer_points(pts)
        for depth in range(1, len(pts[0]) + 1):
            want = walk_nodes(reference_pencils, lifted, (), 0, depth)
            assert walk_nodes(flats._pencils, lifted, (), 0, depth) == want

    @settings(max_examples=150, deadline=None)
    @given(span_count_cases())
    def test_walks_from_a_flat_equal_the_reference_walk(self, case):
        """Started from a flat's rows with the points on it as the mask, as
        concentrated_span_count starts it."""
        pts, f = case
        lifted = _lifted_integer_points(pts)
        on_f = sum(1 << i for i, v in enumerate(lifted) if f._spans(v))
        for depth in range(1, len(pts[0]) - f.dim + 1):
            want = walk_nodes(reference_pencils, lifted, f._rows, on_f, depth)
            assert walk_nodes(flats._pencils, lifted, f._rows, on_f, depth) == want

    @settings(max_examples=30, deadline=None)
    @given(repeated_points())
    def test_one_residual_call_per_walk(self, pts):
        """One call at every depth 1..n, and none for a walk that yields
        only its root."""
        lifted = _lifted_integer_points(pts)
        for depth in range(len(pts[0]) + 1):
            with mock.patch.object(flats, "_residual", wraps=flats._residual) as residual:
                list(flats._pencils(lifted, (), 0, depth))
            assert residual.call_count == min(depth, 1)

    def test_one_residual_call_on_sixteen_generic_points(self):
        """A walk that ran _residual per expanded node would make
        1 + 16 + 120 = 137 calls here."""
        lifted = _lifted_integer_points(generic_points(random.Random(1), 3, 16))
        with mock.patch.object(flats, "_residual", wraps=flats._residual) as residual:
            nodes = list(flats._pencils(lifted, (), 0, 3))
        assert (residual.call_count, len(nodes)) == (1, 1 + 16 + 120 + 560)
