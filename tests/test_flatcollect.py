import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import event, given, settings, strategies as st

from flatbeck import flatcollect
from flatbeck.flats import AffineFlat, join
from flatbeck.flatcollect import (
    FlatCollection,
    NotNonConcentrated,
    PartitionSpaceTooLarge,
    bell_number,
    find_minimal_subfamily,
    normalize_partition,
)

from fraction_reference import (
    iter_partitions,
    reference_is_minimal,
    reference_join,
    reference_least_partitions,
)


def line(base, direction):
    return AffineFlat(base, [direction])


X_AXIS2 = line([0, 0], [1, 0])
Y_AXIS2 = line([0, 0], [0, 1])


class TestPartitionEnumeration:
    def test_counts_match_bell_numbers(self):
        for m in range(7):
            assert len(list(iter_partitions(m))) == bell_number(m)

    def test_partitions_are_canonical_and_distinct(self):
        got = list(iter_partitions(4))
        assert len(set(got)) == len(got)
        for p in got:
            assert p == normalize_partition(p, 4)

    def test_normalize_rejects_overlap(self):
        with pytest.raises(ValueError):
            normalize_partition([[0, 1], [1, 2]], 3)

    def test_normalize_rejects_gap(self):
        with pytest.raises(ValueError):
            normalize_partition([[0], [2]], 3)


class TestCost:
    def test_two_axes_either_partition_costs_two(self):
        v = FlatCollection([X_AXIS2, Y_AXIS2])
        assert v.subset_join_dim([0]) + v.subset_join_dim([1]) == 2
        assert v.subset_join_dim([0, 1]) == 2

    def test_single_flat_partition(self):
        v = FlatCollection([line([0, 0, 0], [1, 2, 0])])
        assert v.subset_join_dim([0]) == 1

    def test_empty_collection_costs_zero(self):
        # the one partition of no flats is the empty one, of cost 0
        assert list(iter_partitions(0)) == [()]
        assert FlatCollection([]).cost() == 0
        assert FlatCollection([]).minimizing_census() == (1, [()])

    def test_two_axes_cost(self):
        assert FlatCollection([X_AXIS2, Y_AXIS2]).cost() == 2

    def test_one_line_in_q3(self):
        assert FlatCollection([line([0, 0, 0], [1, 0, 0])]).cost() == 1

    def test_cap_enforced(self, monkeypatch):
        monkeypatch.setattr(flatcollect, "PARTITION_CAP", 4)
        pts = [AffineFlat.point([i, 0]) for i in range(5)]
        with pytest.raises(PartitionSpaceTooLarge):
            FlatCollection(pts).cost()

    def test_monotone_under_extension(self):
        rng = random.Random(11)
        flats = []
        for _ in range(5):
            d = [Fraction(rng.randint(-3, 3)) for _ in range(3)]
            if all(x == 0 for x in d):
                d = [Fraction(1), Fraction(0), Fraction(0)]
            b = [Fraction(rng.randint(-3, 3)) for _ in range(3)]
            flats.append(line(b, d))
        prev = FlatCollection([])
        for f in flats:
            ext = FlatCollection(prev.flats + [f])
            assert ext.cost() >= prev.cost()
            prev = ext


class TestCensus:
    def test_two_axes_census(self):
        n, parts = FlatCollection([X_AXIS2, Y_AXIS2]).minimizing_census()
        assert n == 2
        assert ((0,), (1,)) in parts and ((0, 1),) in parts

    def test_single_flat(self):
        n, parts = FlatCollection([X_AXIS2]).minimizing_census()
        assert n == 1 and parts == [((0,),)]

    def test_two_identical_lines(self):
        # both on the x-axis: merged partition costs 1, split costs 2
        v = FlatCollection([X_AXIS2, line([1, 0], [2, 0])])
        n, parts = v.minimizing_census()
        assert v.cost() == 1
        assert n == 1 and parts == [((0, 1),)]


# a flat of Q^3 spanned by one to three small integer points, in the plane
# z = 0 three times in four, so that many flats share a plane, a line or a point
degenerate_flat = st.tuples(
    st.integers(0, 3),
    st.lists(st.tuples(*[st.integers(-1, 1)] * 3), min_size=1, max_size=3),
).map(lambda d: AffineFlat.from_points([(x, y, z if d[0] == 0 else 0) for x, y, z in d[1]]))


class TestLeastPartitionSearch:
    """The search over index bit masks against the Bell sweep over every
    set partition, on degenerate families, where costs tie often."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(degenerate_flat, min_size=1, max_size=8))
    def test_search_matches_the_bell_sweep(self, flats):
        v = FlatCollection(flats)
        cost, minimizers = reference_least_partitions(len(flats), v.subset_join_dim)
        assert v.cost() == cost
        assert v.minimizing_census() == (len(minimizers), minimizers)
        assert v.lexicographically_least_minimizer() == minimizers[0]

    def test_coincident_points_tie_at_every_partition(self):
        # every block of one repeated point joins to a point: all Bell(5)
        # partitions cost 0
        v = FlatCollection([AffineFlat.point([1, 2])] * 5)
        assert v.minimizing_census() == (bell_number(5), sorted(iter_partitions(5)))


class TestPrefixJoins:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(degenerate_flat, min_size=1, max_size=6))
    def test_prefix_joins_are_the_from_scratch_joins(self, flats):
        """Each subset join, built on its cached prefix, is the join of all
        its flats at once: the same canonical form, basepoint and
        directions."""
        v = FlatCollection(flats)
        v.cost()
        for size in range(1, len(flats) + 1):
            for idx in itertools.combinations(range(len(flats)), size):
                got, want = v.subset_join(idx), join([flats[i] for i in idx])
                assert (got.canon, got.basepoint, got.directions) == (want.canon, want.basepoint, want.directions)


class TestIsNC:
    def test_two_axes_nc_in_plane(self):
        assert FlatCollection([X_AXIS2, Y_AXIS2]).is_nc()

    def test_single_line_not_nc_in_plane(self):
        assert not FlatCollection([X_AXIS2]).is_nc()

    def test_three_generic_lines_in_q3(self):
        l1 = line([0, 0, 0], [1, 0, 0])
        l2 = line([0, 1, 0], [0, 0, 1])
        l3 = line([1, 0, 1], [0, 1, 0])
        v = FlatCollection([l1, l2, l3])
        assert v.is_nc() == (v.cost() >= 3)
        assert v.is_nc()

    def test_nc_implies_dimension_sum(self):
        v = FlatCollection([X_AXIS2, Y_AXIS2])
        if v.is_nc():
            assert sum(f.dim for f in v.flats) >= 2


class TestIsMinimal:
    def test_three_pairwise_skew_lines_q3(self):
        l1 = line([0, 0, 0], [1, 0, 0])
        l2 = line([0, 1, 0], [0, 0, 1])
        l3 = line([1, 0, 1], [0, 1, 0])
        assert FlatCollection([l1, l2, l3]).is_minimal()

    def test_two_intersecting_lines_q3_not_minimal(self):
        l1 = line([0, 0, 0], [1, 0, 0])
        l2 = line([0, 0, 0], [0, 1, 0])
        # spans only a plane: the full-join condition fails
        assert not FlatCollection([l1, l2]).is_minimal()

    def test_full_space_alone_is_minimal(self):
        assert FlatCollection([AffineFlat.full_space(3)]).is_minimal()

    def test_three_coplanar_lines_break_proper_subfamily_condition(self):
        l1 = line([0, 0, 0], [1, 0, 0])
        l2 = line([0, 0, 0], [0, 1, 0])
        l3 = line([1, 1, 0], [1, -1, 0])  # all three in the plane z = 0
        l4 = line([0, 0, 1], [0, 1, 1])
        assert join([l1, l2, l3, l4]).dim == 3  # full-join condition holds
        # but {l1, l2, l3} joins to dimension 2 < 3
        assert not FlatCollection([l1, l2, l3, l4]).is_minimal()


class TestMinimalityAgainstTheFromScratchTest:
    """is_minimal and the in-span condition against the minimality test that
    joins every subfamily afresh, on degenerate families."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(degenerate_flat, min_size=1, max_size=6))
    def test_every_subfamily_matches(self, flats):
        v = FlatCollection(flats)
        event(f"minimal: {v.is_minimal()}")
        assert v.is_minimal() == reference_is_minimal(flats)
        for size in range(1, len(flats) + 1):
            for idx in itertools.combinations(range(len(flats)), size):
                sub = [flats[i] for i in idx]
                assert v._minimal_in_span(idx) == reference_is_minimal(sub, reference_join(sub).dim)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(degenerate_flat, st.integers(0, 3)), min_size=2, max_size=7))
    def test_subfamily_search_matches(self, labelled):
        """find_minimal_subfamily on a partition of a degenerate family: the
        first combination by size, then in order, of at least two block
        joins that is minimal inside its span, else all of them."""
        flats = [f for f, _ in labelled]
        parts = [[i for i, (_, b) in enumerate(labelled) if b == label] for label in {b for _, b in labelled}]
        v = FlatCollection(flats)
        event(f"nc: {v.is_nc()}")
        if not v.is_nc():
            with pytest.raises(NotNonConcentrated):
                find_minimal_subfamily(parts, v)
            return
        joined = [reference_join([flats[i] for i in b]) for b in normalize_partition(parts, len(flats))]
        t = len(joined)
        want = next(
            (
                combo
                for size in range(2, t)
                for combo in itertools.combinations(range(t), size)
                if reference_is_minimal([joined[i] for i in combo], reference_join([joined[i] for i in combo]).dim)
            ),
            tuple(range(t)),
        )
        event(f"all blocks: {want == tuple(range(t))}")
        assert find_minimal_subfamily(parts, v) == want


class TestFindMinimalSubfamily:
    def three_skew_lines(self):
        return [
            line([0, 0, 0], [1, 0, 0]),
            line([0, 1, 0], [0, 0, 1]),
            line([1, 0, 1], [0, 1, 0]),
        ]

    def test_trivial_partition_of_minimal_collection(self):
        v = FlatCollection(self.three_skew_lines())
        got = find_minimal_subfamily([[0], [1], [2]], v)
        assert got == (0, 1, 2)

    def test_coplanar_pair_found(self):
        l1 = line([0, 0, 0], [1, 0, 0])
        l2 = line([0, 0, 0], [0, 1, 0])  # meets l1: joint span is a plane
        l3 = line([0, 0, 1], [0, 1, 1])
        l4 = line([1, 1, 1], [1, 1, 0])
        v = FlatCollection([l1, l2, l3, l4])
        assert v.is_nc()
        got = find_minimal_subfamily([[0], [1], [2], [3]], v)
        assert got == (0, 1)
        joined = [v.flats[i] for i in got]
        # the found subfamily is minimal inside its own span
        assert reference_is_minimal(joined, ambient_dim=reference_join(joined).dim)

    def test_requires_nc(self):
        v = FlatCollection([X_AXIS2])
        with pytest.raises(NotNonConcentrated):
            find_minimal_subfamily([[0]], v)

    def test_each_block_subset_is_joined_once(self, monkeypatch):
        """After the collection's own search, the subfamily search joins each
        set of blocks at most once.  A flat made before the subfamily search
        is its own block, and a join's blocks are those of the flats it
        joins.  Three points of the moment curve and three skew lines: the
        search reads the 6 blocks, their 15 pairs and their 20 triples, the
        lines last, so it makes 41 joins."""
        flats = [AffineFlat.point([i, i * i, i**3]) for i in (2, 3, 4)] + [
            line([0, 0, 0], [1, 0, 0]),
            line([0, 1, 0], [0, 0, 1]),
            line([1, 0, 1], [0, 1, 0]),
        ]
        v = FlatCollection(flats)
        assert v.is_nc()
        real, blocks_of, joined = flatcollect.join, {}, []

        def tracking_join(fs):
            key = frozenset().union(*(blocks_of.get(id(f), {id(f)}) for f in fs))
            out = real(fs)
            joined.append((key, out))  # holds out, so no later flat reuses its id
            blocks_of[id(out)] = key
            return out

        monkeypatch.setattr(flatcollect, "join", tracking_join)
        assert find_minimal_subfamily([[i] for i in range(6)], v) == (3, 4, 5)
        keys = [key for key, _ in joined]
        assert len(keys) == len(set(keys)) == 6 + 15 + 20

    def test_randomized_subfamilies_are_minimal_inside_their_span(self):
        from flatbeck.genscenes import nc_line_collection

        rng = random.Random(57)
        for _ in range(10):
            coll = nc_line_collection(rng, 3, rng.choice([3, 4]))
            parts = [[i] for i in range(len(coll.flats))]
            got = find_minimal_subfamily(parts, coll)
            assert len(got) >= 2
            blocks = [coll.flats[i] for i in got]
            assert reference_is_minimal(blocks, ambient_dim=reference_join(blocks).dim)


class TestRefusals:
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: normalize_partition([(0,), ()], 1), "empty partition block"),
            (lambda: FlatCollection([X_AXIS2, line([0, 0, 0], [1, 0, 0])]), "ambient dimensions differ"),
            (lambda: FlatCollection([X_AXIS2, Y_AXIS2]).subset_join([]), "empty index subset"),
            (lambda: FlatCollection([]).is_nc(), "empty collection has no ambient dimension"),
            (lambda: FlatCollection([]).is_minimal(), "empty collection"),
        ],
        ids=["empty-block", "mixed-dimensions", "empty-subset", "empty-nc", "empty-minimal"],
    )
    def test_refused(self, call, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()


class TestCollectionGenerators:
    def test_minimal_flats_refuse_a_short_dimension_sum(self):
        from flatbeck.genscenes import random_minimal_flats

        # two lines cannot join to Q^3
        with pytest.raises(ValueError, match="dimension sum below ambient dimension"):
            random_minimal_flats(random.Random(1), 3, [1, 1])

    def test_minimal_flats_give_up(self):
        from flatbeck.genscenes import random_minimal_flats

        # a plane of Q^2 and any line join to dimension 2 < 3, so no draw is minimal
        with pytest.raises(RuntimeError, match="^failed to draw a minimal collection$"):
            random_minimal_flats(random.Random(1), 2, [2, 1, 1])

    def test_nc_lines_give_up(self):
        from flatbeck.genscenes import nc_line_collection

        # one line of Q^3 costs 1 < 3, so no draw is NC
        with pytest.raises(RuntimeError, match="failed to draw an NC line collection"):
            nc_line_collection(random.Random(1), 3, 1)
