import functools
import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from flatbeck import genscenes, stability
from flatbeck.cli import parse_scene
from flatbeck.exactlin import BudgetExceeded, int_rref, norm2
from flatbeck.flats import AffineFlat, NonGenericScreen
from flatbeck.genscenes import random_minimal_frame
from flatbeck.measures import DiscreteMeasure, PlateMassOracle, dyadic_scales
from flatbeck.stability import (
    CertificationBudgetExceeded,
    IndexPair,
    RankInconsistency,
    RankRuleViolation,
    StabilizationError,
    StableFrame,
    build_matrix,
    certify_stability,
    minimal_rank_report,
    minor_floors,
    projected_stability_check,
    rank_inequality_report,
    stabilize,
)
from flatbeck.thin import ThinGraph, product_graph
from fraction_reference import columns, reference_rank

RES = Fraction(1, 1024)


def two_axes_frame():
    """Coordinate axes in Q^2, one single-atom measure per line."""
    lx = AffineFlat([0, 0], [[1, 0]])
    ly = AffineFlat([0, 0], [[0, 1]])
    mx = DiscreteMeasure([((Fraction(1, 2), Fraction(0)), 1)], RES)
    my = DiscreteMeasure([((Fraction(0), Fraction(1, 2)), 1)], RES)
    return StableFrame([lx, ly], [[mx], [my]])


def transversal_lines_grid_frame():
    """Axes in Q^2 with 3-atom grid measures clustered away from the origin."""
    lx = AffineFlat([0, 0], [[1, 0]])
    ly = AffineFlat([0, 0], [[0, 1]])
    mx = DiscreteMeasure.uniform(
        [(Fraction(8 + i, 32), Fraction(0)) for i in range(3)], RES
    )
    my = DiscreteMeasure.uniform(
        [(Fraction(0), Fraction(8 + i, 32)) for i in range(3)], RES
    )
    return StableFrame([lx, ly], [[mx], [my]])


def coincident_atoms_frame() -> StableFrame:
    """Axes in Q^2 whose measures share the origin as their second atom."""
    lx = AffineFlat([0, 0], [[1, 0]])
    ly = AffineFlat([0, 0], [[0, 1]])
    shared = (Fraction(0), Fraction(0))
    mx = DiscreteMeasure.uniform([(Fraction(1, 2), 0), shared], RES)
    my = DiscreteMeasure.uniform([(0, Fraction(1, 2)), shared], RES)
    return StableFrame([lx, ly], [[mx], [my]])


class TestBuildMatrix:
    def test_basis_only(self):
        frame = two_axes_frame()
        cols = build_matrix(frame, {}, IndexPair.of((), [0]))
        assert [len(col) for _, col, _ in cols] == [3, 3]

    def test_single_lifted_atom(self):
        frame = two_axes_frame()
        [(scale, col, norm)] = build_matrix(frame, {(0, 0): 0}, IndexPair.of([(0, 0)], ()))
        assert tuple(Fraction(x, scale) for x in col) == (Fraction(1, 2), Fraction(0), Fraction(1))
        assert norm == sum(x * x for x in col)

    def test_two_lines_one_atom_each_rank_two(self):
        frame = two_axes_frame()
        cols = build_matrix(
            frame, {(0, 0): 0, (1, 0): 0}, IndexPair.of([(0, 0), (1, 0)], ())
        )
        assert [len(col) for _, col, _ in cols] == [3, 3]
        assert len(int_rref(int_rows(cols))[0]) == 2

    def test_missing_pick_rejected(self):
        frame = two_axes_frame()
        with pytest.raises(ValueError):
            build_matrix(frame, {}, IndexPair.of([(0, 0)], ()))


class TestRankR:
    """Single values of the rank function r(I, J), read off the minimal rank
    table, whose walker walks each block-level index pair once over one
    trie, or off the walker itself."""

    def test_full_atoms_span_the_ambient(self):
        table, _ = minimal_rank_report(transversal_lines_grid_frame())
        assert table[((0, 1), ())] == 2

    def test_atom_plus_other_flat_base_fills_lift(self):
        table, _ = minimal_rank_report(transversal_lines_grid_frame())
        assert table[((0,), (1,))] == 3

    def test_empty_pair(self):
        table, _ = minimal_rank_report(two_axes_frame())
        assert table[((), ())] == 0

    def test_inconsistency_detected(self):
        """The walker returns the RankInconsistency; the minimal rank table
        leaves the pair out and names it a rank-constant violation."""
        # second atom of the x measure placed at the origin: picking it
        # together with the y-axis basis drops the rank
        lx = AffineFlat([0, 0], [[1, 0]])
        ly = AffineFlat([0, 0], [[0, 1]])
        mx = DiscreteMeasure.uniform([(Fraction(1, 2), 0), (0, 0)], RES)
        my = DiscreteMeasure([((0, Fraction(1, 2)), 1)], RES)
        frame = StableFrame([lx, ly], [[mx], [my]])
        [(_, got)] = stability._walks(frame, stability.PICK_BUDGET, [IndexPair.of([(0, 0)], [1])])
        assert isinstance(got, RankInconsistency)
        table, violations = minimal_rank_report(frame)
        assert ((0,), (1,)) not in table
        assert [(v.rule, v.i_set, v.j_set) for v in violations] == [("rank-constant", (0,), (1,))]


def fresh_chain(frame: StableFrame, idx: IndexPair, pick) -> stability.WedgeState:
    """The wedge chain over every column of build_matrix, one column at a
    time, with no memo: greedy pivots, their minors and the products of
    their squared norms and scales."""
    state = {0: 1}, (), 1, 1
    for c, (scale, col, _) in enumerate(build_matrix(frame, pick, idx)):
        minors, pivots, nprod, sprod = state
        if len(pivots) < len(col) and (grown := stability._wedge(minors, col)):
            state = grown, pivots + (c,), nprod * sum(x * x for x in col), sprod * scale
    return state


class TestPrefixMemo:
    """The pick walk shares chains in a trie, a node per atom entry and
    then per flat; a shared trie must give every state a fresh chain gives."""

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**6), st.randoms(use_true_random=False))
    def test_memoised_states_equal_fresh_chains(self, seed, rnd):
        """Every index pair of a frame, in a drawn order, walked through one
        trie, so states are read back after other pairs made atom and flat
        nodes: each walk gives every pick once, in product order, and each
        (index pair, pick) the state of a fresh chain."""
        frame, _ = random_minimal_frame(random.Random(seed), 3, (1, 1, 1), atoms_per_measure=2)
        pairs = stability._index_pairs(frame)
        rnd.shuffle(pairs)
        trie = stability._trie()
        for idx in pairs:
            slots = idx.sorted_atoms()
            walked = stability._pick_states(frame, idx, trie, constant=False)
            assert [pick for pick, _ in walked] == list(itertools.product(range(2), repeat=len(slots)))
            for pick, state in walked:
                assert state == fresh_chain(frame, idx, dict(zip(slots, pick)))

    def test_each_pick_descends_from_the_first_changed_slot(self, monkeypatch):
        """A walk in product order takes one step per atom node of the
        picks' prefixes, prod(sizes[:s + 1]) at slot s, and one per flat of J
        and pick: no pick descends again through a slot that did not change."""
        frame, _ = random_minimal_frame(random.Random(1), 4, (2, 1, 1), atoms_per_measure=2)
        steps = []
        child = stability._child

        def counting(frame, node, key):
            steps.append(key)
            return child(frame, node, key)

        monkeypatch.setattr(stability, "_child", counting)
        trie = stability._trie()
        for idx in stability._index_pairs(frame):
            steps.clear()
            walked = stability._pick_states(frame, idx, trie, constant=False)
            sizes = [len(frame.measures[j][i]) for j, i in idx.sorted_atoms()]
            atom_steps = sum(math.prod(sizes[: s + 1]) for s in range(len(sizes)))
            assert len(steps) == atom_steps + len(walked) * len(idx.flats_index)

    def test_wedge_count_on_a_seeded_frame(self, monkeypatch):
        """Frame 0 of the seed-1 frames-certify workload: with flat nodes in
        the trie, certification runs 753 wedges (1,538 with atom nodes
        alone) and the minimal rank table 147 (180), at the same floor."""
        frame, cert = random_minimal_frame(random.Random(1), 4, (2, 1, 1), atoms_per_measure=2)
        calls = []
        wedge = stability._wedge

        def counting(minors, col):
            calls.append(1)
            return wedge(minors, col)

        monkeypatch.setattr(stability, "_wedge", counting)
        got = certify_stability(frame, cert.floor)
        assert (len(calls), got.floor, got.raw_floor) == (753, cert.floor, cert.raw_floor)
        calls.clear()
        minimal_rank_report(frame)
        assert len(calls) == 147


class TestCertify:
    def test_axes_with_clusters_certify(self):
        frame = transversal_lines_grid_frame()
        cert = certify_stability(frame, Fraction(1, 10**12))
        assert cert.ok and cert.floor > 0

    def test_coincident_atoms_fail(self):
        cert = certify_stability(coincident_atoms_frame(), Fraction(1, 10**12))
        assert not cert.ok and cert.witness

    def test_deterministic_verdict(self):
        frame = transversal_lines_grid_frame()
        a = certify_stability(frame, Fraction(1, 10**9))
        b = certify_stability(frame, Fraction(1, 10**9))
        assert a.ok == b.ok and a.floor == b.floor


AXES_SCENE = Path(__file__).resolve().parent.parent / "scenes" / "stability-axes.json"


def refuse_index_pairs(monkeypatch):
    def refuse(frame):
        raise AssertionError("index pairs built before the budget check")

    monkeypatch.setattr(stability, "_index_pairs", refuse)


class TestBudgetsBeforeWork:
    def test_certification_budget_checked_before_index_pairs(self, monkeypatch):
        refuse_index_pairs(monkeypatch)
        with pytest.raises(CertificationBudgetExceeded):
            certify_stability(transversal_lines_grid_frame(), Fraction(0), budget=1)

    def test_pick_budget_checked_before_index_pairs(self, monkeypatch):
        refuse_index_pairs(monkeypatch)
        with pytest.raises(BudgetExceeded, match="160 rank evaluations exceed budget 1"):
            stabilize(transversal_lines_grid_frame(), budget=1)

    def test_closed_form_matches_the_per_pair_sum(self):
        frame = parse_scene(str(AXES_SCENE)).frames["axes"]
        sizes = frame.support_sizes()
        per_pair = sum(
            math.prod(sizes[s] for s in idx.atoms_index)
            for idx in stability._index_pairs(frame)
        )
        assert per_pair == 2**2 * (1 + 3) ** 2
        with pytest.raises(CertificationBudgetExceeded, match=f"^{per_pair} "):
            certify_stability(frame, Fraction(0), budget=per_pair - 1)
        assert certify_stability(frame, Fraction(0), budget=per_pair).ok

    def test_stabilize_work_checked_before_any_rank(self, monkeypatch):
        """9 picks fit budget 9, but the search would run (9 + 1) * 2^(2 + 2)
        = 160 ranks: it is refused before the first one."""
        frame = parse_scene(str(AXES_SCENE)).frames["axes"]
        calls = []
        wedge = stability._wedge

        def counting(minors, col):
            calls.append(1)
            return wedge(minors, col)

        monkeypatch.setattr(stability, "_wedge", counting)
        with pytest.raises(BudgetExceeded, match="^160 rank evaluations exceed budget 9"):
            stabilize(frame, budget=9)
        assert calls == []


DEFAULT_BUDGET_WALKS = {
    "certify_stability": lambda frame: certify_stability(frame, Fraction(0)),
    "minimal_rank_report": minimal_rank_report,
    "stabilize": stabilize,
}


def product_certificates(frame: StableFrame, budget: int) -> None:
    """product_graph over one complete graph per flat of the frame, which
    reads its rank certificates off minimal_rank_report without a budget."""
    gs = [ThinGraph.complete(ms, 1, 8) for ms in frame.measures]
    product_graph(gs, frame, dyadic_scales(5, 1))


RANK_WALKS = {
    "product_graph": product_certificates,
    "minimal_rank_report": lambda frame, budget: minimal_rank_report(frame, budget=budget),
    "rank_inequality_report": lambda frame, budget: rank_inequality_report(frame),
}


class TestOnePickBudget:
    """Every rank walk is bounded by the frame's 2^k prod(1 + |supp mu|)
    (index pair, pick) combinations, 2^2 (1 + 3)^2 = 64 on the grid frame:
    minimal_rank_report against its budget, product_graph's certificates
    and rank_inequality_report against PICK_BUDGET as it reads when
    called."""

    @pytest.mark.parametrize("walk", sorted(RANK_WALKS))
    def test_refused_one_below_the_combinations(self, walk, monkeypatch):
        frame = transversal_lines_grid_frame()
        monkeypatch.setattr(stability, "PICK_BUDGET", 64)
        RANK_WALKS[walk](frame, 64)
        monkeypatch.setattr(stability, "PICK_BUDGET", 63)
        refuse_index_pairs(monkeypatch)

        def refuse(minors, col):
            raise AssertionError("a wedge ran before the budget check")

        monkeypatch.setattr(stability, "_wedge", refuse)
        with pytest.raises(CertificationBudgetExceeded, match=r"^64 \(index, pick\) combinations exceed budget 63$"):
            RANK_WALKS[walk](frame, 63)

    @pytest.mark.parametrize("walk", sorted(DEFAULT_BUDGET_WALKS))
    def test_no_budget_reads_pick_budget_when_called(self, walk, monkeypatch):
        """Called without a budget, each walk is held to PICK_BUDGET as it
        reads at the call, so 1 refuses the grid frame before any index
        pair is built."""
        monkeypatch.setattr(stability, "PICK_BUDGET", 1)
        refuse_index_pairs(monkeypatch)
        with pytest.raises(BudgetExceeded, match=r" exceed budget 1$"):
            DEFAULT_BUDGET_WALKS[walk](transversal_lines_grid_frame())


def laplace_minors(rows):
    """minor(cols): the determinant of rows on the column tuple cols, by
    cofactor expansion along the rows; each minor of the lower rows is
    computed once and shared across column sets."""
    n = len(rows)

    @functools.cache
    def minor(cols: tuple[int, ...]) -> Fraction:
        if not cols:
            return Fraction(1)
        row = rows[n - len(cols)]
        return sum(
            (
                (-1) ** k * row[c] * minor(cols[:k] + cols[k + 1 :])
                for k, c in enumerate(cols)
                if row[c]
            ),
            Fraction(0),
        )

    return minor


def oracle_floors(m, r: int, col_sets) -> tuple[Fraction, Fraction]:
    """(normalized, raw) squared-minor maxima over the given column sets,
    by Laplace expansion on the rows of Fraction entries m."""
    norms = [norm2(c) for c in zip(*m)]
    col_sets = [tuple(cs) for cs in col_sets]
    best_norm, best_raw = Fraction(0), Fraction(0)
    for rs in itertools.combinations(m, r):
        minor = laplace_minors(rs)
        for cs in col_sets:
            denom = math.prod(norms[c] for c in cs)
            d2 = minor(cs) ** 2
            best_raw = max(best_raw, d2)
            if denom:
                best_norm = max(best_norm, d2 / denom)
    return best_norm, best_raw


fracs = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2, 3, 1024]))
small_matrices = st.integers(1, 5).flatmap(
    lambda nr: st.integers(1, 5).flatmap(
        lambda nc: st.lists(
            st.lists(fracs, min_size=nc, max_size=nc), min_size=nr, max_size=nr
        )
    )
)


def int_columns(m) -> list[tuple[int, tuple[int, ...], int]]:
    """Column-integerized copy of the rows m, as build_matrix gives a
    matrix: per column its scale, integer column and squared norm."""
    out = []
    for c in zip(*m):
        scale = math.lcm(*(x.denominator for x in c))
        col = tuple(x.numerator * (scale // x.denominator) for x in c)
        out.append((scale, col, sum(x * x for x in col)))
    return out


def int_rows(cols) -> list[list[int]]:
    """The integer rows of a matrix given as build_matrix columns."""
    return [list(r) for r in zip(*(col for _, col, _ in cols))]


def greedy_pivots(m) -> list[int]:
    """Columns that raise the Fraction rank of the column prefix."""
    ranks = [reference_rank([row[:c] for row in m]) for c in range(len(m[0]) + 1)]
    return [c for c in range(len(m[0])) if ranks[c + 1] > ranks[c]]


class TestMinorFloors:
    @settings(max_examples=150, deadline=None)
    @given(small_matrices)
    def test_exact_route_matches_laplace(self, m):
        r = reference_rank(m)
        im = int_columns(m)
        assert len(int_rref(int_rows(im))[0]) == r
        want = oracle_floors(m, r, itertools.combinations(range(len(m[0])), r))
        assert minor_floors(im, r) == (want if r else (1, 1))


@st.composite
def degenerate_matrices(draw) -> list:
    """small_matrices with some rows zeroed and a combination of two of its
    columns inserted, so that the chain meets zero rows and dependent
    columns."""
    rows = [list(r) for r in draw(small_matrices)]
    for i in draw(st.sets(st.integers(0, len(rows) - 1), max_size=2)):
        rows[i] = [Fraction(0)] * len(rows[i])
    a, b = draw(st.integers(0, len(rows[0]) - 1)), draw(st.integers(0, len(rows[0]) - 1))
    k, at = draw(fracs), draw(st.integers(0, len(rows[0])))
    for r in rows:
        r.insert(at, r[a] + k * r[b])
    return rows


class TestWedge:
    @settings(max_examples=200, deadline=None)
    @given(degenerate_matrices())
    def test_chain_matches_greedy_pivots_and_laplace(self, m):
        """Along the chain over the columns, the pivots are the greedy ones
        and after k pivots every k-row minor of them is the Laplace minor of
        the Fraction columns times their scales."""
        cols = int_columns(m)
        minors, pivots = {0: 1}, []
        for c, (_, col, _) in enumerate(cols):
            grown = stability._wedge(minors, col)
            if not grown:
                continue
            minors = grown
            pivots.append(c)
            scale = math.prod(cols[p][0] for p in pivots)
            for rs in itertools.combinations(range(len(m)), len(pivots)):
                want = laplace_minors([m[i] for i in rs])(tuple(pivots)) * scale
                assert minors.get(sum(1 << i for i in rs), 0) == want
            assert 0 not in minors.values()
        assert pivots == greedy_pivots(m)


def reference_certificate(frame: StableFrame, c2: Fraction) -> tuple:
    """certify_stability the textbook way, as (ok, floor, raw_floor, ranks,
    witness): Fraction matrices with the lifted atoms and frame.bases as
    columns, ranks by the Fraction elimination, floors by Laplace expansion on
    the greedy pivots and, below c2, over all column sets.  Within an index
    pair every pick's rank is checked before any floor."""
    ranks: dict = {}
    floor = raw_floor = None
    for idx in stability._index_pairs(frame):
        slots, flats = idx.sorted_atoms(), idx.sorted_flats()
        where = f"Ibar={slots} J={flats}"
        mats = []
        for combo in itertools.product(*(range(len(frame.measures[j][i])) for j, i in slots)):
            pick = dict(zip(slots, combo))
            cols = [frame.measures[j][i].atoms[pick[(j, i)]][0] + (Fraction(1),) for j, i in slots]
            for j in flats:
                cols += frame.bases[j]
            mats.append((pick, columns(cols, frame.ambient_dim + 1)))
        r = reference_rank(mats[0][1])
        for pick, m in mats:
            if reference_rank(m) != r:
                witness = (
                    f"rank not constant on {where}: {r} vs {reference_rank(m)} "
                    f"at picks {mats[0][0]} and {pick}"
                )
                return False, None, None, ranks, witness
        ranks[idx] = r
        for pick, m in mats:
            val, raw = oracle_floors(m, r, [greedy_pivots(m)]) if r else (1, 1)
            if val < c2:
                val, raw = oracle_floors(m, r, itertools.combinations(range(len(m[0])), r))
            if val < c2:
                witness = f"normalized minor {val} < c2 {c2} at {where} pick={pick}"
                return False, val, raw, ranks, witness
            floor = val if floor is None else min(floor, val)
            raw_floor = raw if raw_floor is None else min(raw_floor, raw)
    return True, floor, raw_floor, ranks, None


class TestCertificateAgainstFractionReference:
    @staticmethod
    def check(frame, c2):
        cert = certify_stability(frame, c2)
        got = (cert.ok, cert.floor, cert.raw_floor, cert.ranks, cert.witness)
        assert got == reference_certificate(frame, c2)
        return cert

    def test_random_minimal_frames_at_and_above_their_floor(self):
        # at twice the generator's (greedy-pivot) floor every pick below c2
        # takes the exact route: one frame still fails and gives its
        # witness, the others pass on a better column set
        rng = random.Random(4161)
        above = []
        for _ in range(3):
            frame, gen = random_minimal_frame(rng, 4, (2, 1, 1))
            assert self.check(frame, gen.floor).ok
            above.append(self.check(frame, 2 * gen.floor))
        assert [c.ok for c in above] == [False, True, True]
        assert above[0].witness.startswith("normalized minor")

    def test_floor_at_c2_zero_reads_the_greedy_pivots(self, monkeypatch):
        """At c2 = 0 no pick is rescored: the floors are the least
        greedy-pivot Laplace floors over every pick, read off the trie,
        with no call to minor_floors."""
        def refuse(*args):
            raise AssertionError("a pick rescored at c2 = 0")

        rng = random.Random(4161)
        frames = [random_minimal_frame(rng, 4, (2, 1, 1))[0] for _ in range(3)]
        monkeypatch.setattr(stability, "minor_floors", refuse)
        for frame in frames:
            cert = self.check(frame, Fraction(0))
            assert cert.ok and cert.floor > 0 and cert.raw_floor > 0

    def test_witness_names_the_pick_just_below_c2(self):
        # at 11/10 of the generator's floor the first frame fails on the
        # exact floor v of one pick; every pick before it is above 11/10 of
        # the floor, so with c2 just above v the witness names the same
        # (index pair, pick), and at c2 = v that pick passes
        frame, gen = random_minimal_frame(random.Random(4161), 4, (2, 1, 1))
        low = self.check(frame, gen.floor * Fraction(11, 10))
        assert not low.ok
        where = low.witness.split(" at ")[1]
        above = self.check(frame, low.floor + Fraction(1, 10**40))
        assert not above.ok and above.witness.split(" at ")[1] == where
        at = self.check(frame, low.floor)
        assert at.ok or at.witness.split(" at ")[1] != where

    def test_rank_inconsistency_comes_before_any_floor(self):
        # on Ibar = {(0,0)}, J = {1} the first pick has rank 3 and the
        # normalized minor 1/5, the second (the origin) rank 2: at c2 = 1/4
        # the first pick fails its floor, but the rank drop is reported
        for c2 in (Fraction(1, 10**12), Fraction(1, 4)):
            cert = self.check(coincident_atoms_frame(), c2)
            assert not cert.ok and cert.witness.startswith("rank not constant")
            assert cert.witness.endswith("at picks {(0, 0): 0} and {(0, 0): 1}")


class TestStabilize:
    def test_irreducible_grids_stabilize(self):
        frame = transversal_lines_grid_frame()
        restricted, c2 = stabilize(frame)
        assert c2 > 0
        cert = certify_stability(restricted, c2)
        assert cert.ok

    def test_stable_frame_keeps_floor(self):
        frame = two_axes_frame()  # singleton supports: already stable
        restricted, c2 = stabilize(frame)
        assert certify_stability(restricted, c2).ok

    @pytest.mark.parametrize("demo", [True, False], ids=["demo", "three-halvings"])
    def test_one_plate_oracle_per_original_measure(self, demo, monkeypatch):
        """Every halving cuts the original measures to balls; each of them
        builds its plate oracle once.  The README demo stabilizes at the
        first radius, the coincident-atoms frame at the third."""
        built, radii = [], []
        init, restricted = PlateMassOracle.__init__, StableFrame.restricted

        def counting(self, mu):
            built.append(mu)
            init(self, mu)

        def halving(self, centers, radius):
            radii.append(radius)
            return restricted(self, centers, radius)

        monkeypatch.setattr(PlateMassOracle, "__init__", counting)
        monkeypatch.setattr(StableFrame, "restricted", halving)
        frame = parse_scene(str(AXES_SCENE)).frames["axes"] if demo else coincident_atoms_frame()
        stabilize(frame)
        assert len(radii) == (1 if demo else 3)
        assert sorted(map(id, built)) == sorted(id(mu) for row in frame.measures for mu in row)

    def test_atoms_closer_than_the_last_radius_never_stabilize(self):
        """The x measure's atoms, (2^-50, 0) and the origin, sit closer
        than the last ball radius 2^-(HALVINGS - 1): every ball around the
        chosen atom keeps both, and picking the origin drops r({(0,0)}, {1})."""
        lx = AffineFlat([0, 0], [[1, 0]])
        ly = AffineFlat([0, 0], [[0, 1]])
        mx = DiscreteMeasure.uniform([(Fraction(1, 2**50), 0), (0, 0)], RES)
        my = DiscreteMeasure.uniform([(0, Fraction(1, 2)), (0, 0)], RES)
        assert Fraction(1, 2**50) < Fraction(1, 2 ** (stability.HALVINGS - 1))
        with pytest.raises(StabilizationError, match="^cannot stabilize at configured ball radii$"):
            stabilize(StableFrame([lx, ly], [[mx], [my]]))


class TestStableFrameRefusals:
    @pytest.mark.parametrize(
        "flats, measures, message",
        [
            ([], [], "empty frame"),
            ([AffineFlat([0, 0], [[1, 0]])], [], "one measure list per flat required"),
            (
                [AffineFlat([0, 0], [[1, 0]]), AffineFlat([0, 0, 0], [[1, 0, 0]])],
                [[DiscreteMeasure([((Fraction(1, 2), 0), 1)], RES)], [DiscreteMeasure([((Fraction(1, 2), 0, 0), 1)], RES)]],
                "ambient dimensions differ",
            ),
            ([AffineFlat([0, 0], [[1, 0]])], [[]], "flat 0 carries no measures"),
            (
                [AffineFlat([0, 0], [[1, 0]])],
                [[DiscreteMeasure([((Fraction(1, 2), 0), 1)], RES), DiscreteMeasure([((0, Fraction(1, 2)), 1)], RES)]],
                r"measure \(0,1\) has an atom off flat 0",
            ),
            (
                [AffineFlat([0, 0], [[1, 0]])],
                [[DiscreteMeasure([((Fraction(3, 2), 0), 1)], RES)]],
                r"measure \(0,0\) leaves the unit ball",
            ),
        ],
        ids=["empty", "measure-lists", "ambient", "no-measures", "off-flat", "unit-ball"],
    )
    def test_refused(self, flats, measures, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            StableFrame(flats, measures)


class TestMinimalFrameDraw:
    """random_minimal_frame draws again after a refused draw and gives up
    after 200 refusals."""

    def test_refused_draw_is_retried(self, monkeypatch):
        draw = genscenes.random_minimal_flats
        calls = []

        def refuse_once(*args):
            calls.append(1)
            if len(calls) == 1:
                raise ValueError("refused draw")
            return draw(*args)

        want, _ = random_minimal_frame(random.Random(3), 3, (1, 1, 1))
        monkeypatch.setattr(genscenes, "random_minimal_flats", refuse_once)
        frame, cert = random_minimal_frame(random.Random(3), 3, (1, 1, 1))
        # the refusal drew nothing, so the retry draws the unpatched frame
        assert len(calls) == 2 and cert.ok and cert.floor > 0
        assert frame.flats == want.flats

    def test_gives_up_after_every_draw_is_refused(self, monkeypatch):
        calls = []

        def refuse(*args):
            calls.append(1)
            raise RuntimeError("refused draw")

        monkeypatch.setattr(genscenes, "random_minimal_flats", refuse)
        with pytest.raises(RuntimeError, match="^failed to build a certified minimal frame$"):
            random_minimal_frame(random.Random(3), 3, (1, 1, 1))
        assert len(calls) == 200


class TestMinimalRankTable:
    def test_random_certified_frames_q4(self):
        rng = random.Random(2024)
        for _ in range(3):
            frame, cert = random_minimal_frame(rng, 4, (2, 1, 1))
            table, violations = minimal_rank_report(frame)
            assert violations == []
            # spot values: full I empty J gives n; complements give n+1
            assert table[((0, 1, 2), ())] == 4
            assert table[((1, 2), (0,))] == 5
            assert table[((), (0, 1, 2))] == 5

    def test_rule_violations_reported(self):
        """Two copies of one line in Q^2: r({0}, {1}) = 2 < n_01 + 1 = 3.
        With two measures on the x axis, r({0}, {}) = 2 != n_0 = 1."""
        lx = AffineFlat([0, 0], [[1, 0]])
        ly = AffineFlat([0, 0], [[0, 1]])
        m0 = DiscreteMeasure([((Fraction(1, 2), Fraction(0)), 1)], RES)
        m1 = DiscreteMeasure([((Fraction(1, 4), Fraction(0)), 1)], RES)
        _, violations = minimal_rank_report(StableFrame([lx, lx], [[m0], [m1]]))
        assert violations == [
            RankRuleViolation(rule, i_set, j_set, 2, 3)
            for i_set, j_set in (((), (0, 1)), ((0,), (1,)), ((1,), (0,)))
            for rule in ("r(I,J)>=n_IJ+1", "r(I,[k]-I)=n+1")
        ]
        my = DiscreteMeasure([((Fraction(0), Fraction(1, 2)), 1)], RES)
        _, violations = minimal_rank_report(StableFrame([lx, ly], [[m0, m1], [my]]))
        assert RankRuleViolation("r(I,0)=n_I", (0,), (), 2, 1) in violations

    def test_pick_dependent_ranks_reported(self):
        """The axes share the origin as their second atom: picking it drops
        r({0}, {1}), r({1}, {0}) and r({0, 1}, {}) by one, and those block
        pairs leave the table."""
        table, violations = minimal_rank_report(coincident_atoms_frame())
        assert violations == [
            RankRuleViolation("rank-constant", (0,), (1,), 2, 3),
            RankRuleViolation("rank-constant", (1,), (0,), 2, 3),
            RankRuleViolation("rank-constant", (0, 1), (), 1, 2),
        ]
        assert sorted(table) == [((), ()), ((), (0,)), ((), (0, 1)), ((), (1,)), ((0,), ()), ((1,), ())]

    def test_rank_inequalities_refuse_pick_dependent_ranks(self):
        with pytest.raises(StabilizationError, match="^rank not pick-independent; certify first$"):
            rank_inequality_report(coincident_atoms_frame())

    def test_fill_step_violated_by_a_plane_with_one_measure(self):
        """Q^2 as a plane with one single-atom measure: its slots add one
        column, its basis three, so r({(0,0)}, {}) = 1 < r({}, {0}) - 1 = 2,
        and the same from Ibar = {(0,0)}."""
        plane = AffineFlat([0, 0], [[1, 0], [0, 1]])
        frame = StableFrame([plane], [[DiscreteMeasure([((Fraction(1, 2), Fraction(1, 4)), 1)], RES)]])
        assert rank_inequality_report(frame) == [
            RankRuleViolation("fill-step", (), (), 1, 2),
            RankRuleViolation("fill-step", ((0, 0),), (), 1, 2),
        ]

    def test_rank_inequalities_hold(self):
        rng = random.Random(7)
        frame, _ = random_minimal_frame(rng, 3, (1, 1, 1), atoms_per_measure=2)
        assert rank_inequality_report(frame) == []

    def test_rank_inequalities_rank_each_index_pair_once(self, monkeypatch):
        rng = random.Random(7)
        frame, _ = random_minimal_frame(rng, 3, (1, 1, 1), atoms_per_measure=2)
        calls = []
        pick_states = stability._pick_states

        def counting(frame, idx, trie, constant):
            calls.append(idx)
            return pick_states(frame, idx, trie, constant)

        monkeypatch.setattr(stability, "_pick_states", counting)
        assert rank_inequality_report(frame) == []
        # 352 evaluations when every grown pair was ranked again
        assert len(calls) == len(set(calls)) == 64


def three_lines_and_screen():
    """A seeded frame of three lines in Q^3 and a generic plane screen
    transversal to its first picked atom."""
    rng = random.Random(31)
    frame, cert = random_minimal_frame(rng, 3, (1, 1, 1), atoms_per_measure=2)
    from flatbeck.genscenes import random_flat
    from flatbeck.flats import meet, join

    for _ in range(50):
        u = random_flat(rng, 3, 2)
        first = frame.measures[0][0].atoms[0][0]
        center = AffineFlat.point(first)
        if meet(u, center) is None and join([u, center]).dim == 3:
            break
    return frame, u


class TestProjectedStability:
    def test_three_lines_project_to_certified_pair(self):
        frame, u = three_lines_and_screen()
        report = projected_stability_check(frame, [(0, 0)], u)
        assert report.ok, report.witness
        assert report.sin2_theta > 0
        assert report.achieved_c2 > 0
        assert report.image_frame.k == 2

    def test_non_transversal_screen_rejected(self):
        frame = transversal_lines_grid_frame()
        # screen containing the center atom: join dimension collapses
        atom = frame.measures[0][0].atoms[0][0]
        u = AffineFlat(atom, [])  # a point; wrong dimension too
        with pytest.raises(ValueError):
            projected_stability_check(frame, [(0, 0)], u)

    def test_empty_i0_rejected(self):
        frame = transversal_lines_grid_frame()
        u = AffineFlat([0, Fraction(1, 3)], [[1, 1]])
        with pytest.raises(ValueError):
            projected_stability_check(frame, [], u)

    def test_screen_through_the_center_rejected(self):
        # a line, the right dimension, through the center atom (1/4, 0)
        u = AffineFlat([Fraction(1, 4), 0], [[1, 1]])
        with pytest.raises(ValueError, match="centre and screen are not complementary"):
            projected_stability_check(transversal_lines_grid_frame(), [(0, 0)], u)

    def test_atom_on_a_parallel_ray_rejected(self):
        # the ray from (1/4, 0) through the atom (0, 1/4) runs along the screen
        u = AffineFlat([0, -1], [[-1, 1]])
        with pytest.raises(NonGenericScreen, match="join does not meet the screen in a point"):
            projected_stability_check(transversal_lines_grid_frame(), [(0, 0)], u)

    def test_images_outside_the_unit_ball_rescaled(self):
        # from (1/4, 0), the atom (0, t) lands at x = 1/4 + 1/(4t) on y = -1,
        # chart coordinate 16 x, up to 20: halved five times, to 20/32
        u = AffineFlat([0, -1], [[Fraction(1, 16), 0]])
        report = projected_stability_check(transversal_lines_grid_frame(), [(0, 0)], u)
        assert report.ok, report.witness
        [[mu]] = report.image_frame.measures
        ts = [Fraction(8 + i, 32) for i in range(3)]
        assert [p for p, _ in mu.atoms] == [(16 * (Fraction(1, 4) + 1 / (4 * t)) / 32,) for t in ts]

    def test_rescaled_image_frame_matches_the_unscaled_one(self):
        """Screen directions 4 times shorter put every chart image 4 times
        further out, past the unit ball; halving twice gives back the frame
        of the longer directions, flats and atoms alike."""
        frame, u = three_lines_and_screen()
        near, far = (
            projected_stability_check(
                frame, [(0, 0)], AffineFlat(u.basepoint, [[x / s for x in d] for d in u.directions])
            ).image_frame
            for s in (4, 16)
        )
        assert max(norm2(p) for row in near.measures for mu in row for p, _ in mu.atoms) * 16 > 1
        assert [(f, f.basepoint) for f in far.flats] == [(f, f.basepoint) for f in near.flats]
        assert [[mu.atoms for mu in row] for row in far.measures] == [[mu.atoms for mu in row] for row in near.measures]

    def test_image_frame_refusal_reported(self, monkeypatch):
        """The image frame is built from the projected atoms; a refusal of
        StableFrame is a failing report that carries its message."""
        frame = transversal_lines_grid_frame()

        def refuse(flats, measures):
            raise ValueError("image frame refused")

        monkeypatch.setattr(stability, "StableFrame", refuse)
        report = projected_stability_check(frame, [(0, 0)], AffineFlat([0, -1], [[1, 0]]))
        assert (report.ok, report.image_frame, report.witness) == (False, None, "image frame refused")

    def test_flat_along_the_screen_projects_to_nothing(self):
        """The x axis carries the centre atom (1/4, 0) and one more measure;
        it is parallel to the screen y = -1, so its image is empty."""
        frame = transversal_lines_grid_frame()
        frame = StableFrame(frame.flats, [frame.measures[0] * 2, frame.measures[1]])
        report = projected_stability_check(frame, [(0, 0)], AffineFlat([0, -1], [[1, 0]]))
        assert (report.ok, report.image_frame, report.witness) == (False, None, "flat 0 projects to nothing")

    def test_i0_covering_every_measure_rejected(self):
        # the centre is the line x + y = 1/4, so the screen is a point
        with pytest.raises(ValueError, match="i0 covers every measure; nothing to project"):
            projected_stability_check(transversal_lines_grid_frame(), [(0, 0), (1, 0)], AffineFlat.point([1, 1]))

    def test_failed_certification_reported(self):
        """From (0, 0, 1/2) onto z = 0 the x and y axes and their atoms stay
        put: the image is coincident_atoms_frame, whose rank drops at the
        shared origin."""
        half, origin = Fraction(1, 2), (0, 0, 0)
        axes = [AffineFlat(origin, [[int(i == j) for j in range(3)]]) for i in range(3)]
        atoms = [[(half, 0, 0), origin], [(0, half, 0), origin], [(0, 0, half)]]
        frame = StableFrame(axes, [[DiscreteMeasure.uniform(a, RES)] for a in atoms])
        report = projected_stability_check(frame, [(2, 0)], AffineFlat(origin, [[1, 0, 0], [0, 1, 0]]))
        assert not report.ok and report.image_frame is not None
        assert report.witness.startswith("rank not constant")
