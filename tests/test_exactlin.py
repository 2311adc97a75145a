import functools
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from flatbeck import exactlin
from flatbeck.exactlin import (
    _expansion,
    _integerized_rows,
    _wedge,
    frac,
    int_kernel,
    int_rref,
    orthogonalize,
    vec,
    wedge_norm2,
)
from flatbeck.flats import _reduced
from fraction_reference import (
    fraction_rref,
    reference_det,
    reference_gram_det,
    reference_nullspace,
    reference_rank,
    reference_solve,
)

fracs = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


def matrices(max_rows=5, max_cols=5):
    """Lists of Fraction rows of one width."""
    return st.integers(1, max_rows).flatmap(
        lambda r: st.integers(1, max_cols).flatmap(
            lambda c: st.lists(st.lists(fracs, min_size=c, max_size=c), min_size=r, max_size=r)
        )
    )


def rank(rows) -> int:
    """The rank of a Fraction matrix by the int_rref pivots of its rows,
    each scaled to integers."""
    return len(int_rref(_integerized_rows(rows))[0])


def row_scales(rows) -> int:
    """The product of the scales _integerized_rows gives the rows."""
    return math.prod(math.lcm(*(x.denominator for x in r)) for r in rows)


def transpose(rows):
    return [list(c) for c in zip(*rows)]


def wedge_det(rows) -> int:
    """The determinant of an integer matrix as the full minor of the _wedge
    chain over its columns: 0 unless the matrix is square, and 1 for no
    rows."""
    return functools.reduce(_wedge, zip(*rows), {0: 1}).get((1 << len(rows)) - 1, 0)


class TestRank:
    def test_identity(self):
        assert int_rref([[1, 0], [0, 1]])[0] == [0, 1]

    def test_zero(self):
        assert int_rref([[0] * 3] * 3)[0] == []

    def test_dependent_rows(self):
        assert int_rref([[1, 2], [2, 4]])[0] == [0]

    @settings(max_examples=200)
    @given(matrices())
    def test_matches_gaussian_oracle(self, m):
        assert rank(m) == reference_rank(m)

    @given(matrices(4, 4))
    def test_transpose_invariant(self, m):
        assert rank(m) == rank(transpose(m))

    @settings(max_examples=200)
    @given(matrices(), st.lists(st.integers(1, 6), min_size=5, max_size=5))
    def test_pivot_columns_are_the_greedy_basis(self, m, col_scales):
        """Pivot columns are the columns outside the span of those before
        them, whatever the column scaling."""
        want = [
            c for c in range(len(m[0]))
            if reference_rank([r[: c + 1] for r in m]) > reference_rank([r[:c] for r in m])
        ]
        ints = [
            [x.numerator * 6 // x.denominator * col_scales[c] for c, x in enumerate(r)]
            for r in m
        ]
        assert int_rref(ints)[0] == want


class TestDet:
    """The wedge chain's determinant against the Fraction elimination, on
    rows scaled to integers: scaling a row scales the determinant."""

    def test_identity(self):
        assert wedge_det([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 1

    def test_known_2x2(self):
        assert wedge_det([[1, 2], [3, 4]]) == -2

    def test_fractional(self):
        m = [[Fraction(1, 2), 0], [0, Fraction(2, 3)]]
        assert _integerized_rows(m) == [[1, 0], [0, 2]]
        assert wedge_det(_integerized_rows(m)) == reference_det(m) * 6 == 2

    @settings(max_examples=150)
    @given(matrices(4, 4))
    def test_laplace_oracle(self, m):
        if len(m) != len(m[0]):
            return

        def laplace(rows):
            n = len(rows)
            if n == 1:
                return rows[0][0]
            total = Fraction(0)
            for j in range(n):
                minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
                sign = -1 if j % 2 else 1
                total += sign * rows[0][j] * laplace(minor)
            return total

        want = laplace(m)
        assert reference_det(m) == want
        assert wedge_det(_integerized_rows(m)) == want * row_scales(m)


def leibniz_det(rows) -> int:
    """Sum over permutations, each signed by its inversion count."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


class TestBareiss:
    """The wedge determinant and int_rref's pivots on the same small integer
    matrices."""

    @settings(max_examples=200)
    @given(st.integers(1, 4).flatmap(lambda r: st.integers(1, 4).flatmap(
        lambda c: st.lists(st.lists(st.integers(-3, 3), min_size=c, max_size=c), min_size=r, max_size=r)
    )))
    def test_one_pass_gives_pivots_and_det(self, rows):
        """The wedge chain's determinant is Leibniz's, sign included, for a
        square matrix and 0 otherwise, nonzero exactly when int_rref
        gives every row a pivot; int_rref leaves its input as it is (the
        pivots are checked in TestRank)."""
        copy = [r[:] for r in rows]
        pivots = int_rref(rows)[0]
        assert rows == copy
        square = len(rows) == len(rows[0])
        d = wedge_det(rows)
        assert d == (leibniz_det(rows) if square else 0)
        assert (d != 0) == (square and len(pivots) == len(rows))

    def test_empty_matrix_has_det_one(self):
        assert int_rref([]) == ([], [])
        assert wedge_det([]) == 1


ENTRIES = st.integers(-3, 3) | st.sampled_from([10**20, -(10**20)])


def wedge_columns(width: int):
    """Integer columns of the width, dense or at most two nonzero entries."""
    dense = st.lists(ENTRIES, min_size=width, max_size=width)
    sparse = st.dictionaries(st.integers(0, width - 1), ENTRIES, max_size=2).map(
        lambda at: [at.get(i, 0) for i in range(width)]
    )
    return dense | sparse


class TestWedgeChain:
    """Each step of the _wedge chain against the Fraction determinant of
    every row subset of the columns so far."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 7).flatmap(
        lambda w: st.tuples(st.just(w), st.lists(wedge_columns(w), max_size=w + 1))
    ))
    def test_every_step_holds_exactly_the_nonzero_minors(self, chain):
        width, cols = chain
        minors = {0: 1}
        for k, col in enumerate(cols, 1):
            minors = _wedge(minors, col)
            want = {}
            for rows in itertools.combinations(range(width), k):
                d = reference_det([[c[i] for c in cols[:k]] for i in rows])
                if d:
                    want[sum(1 << i for i in rows)] = d
            assert minors == want

    def test_plan_depends_on_the_width(self):
        """Chains of two widths from the same masks read different plans."""
        assert _wedge({0: 1}, [1, 2]) == {1: 1, 2: 2}
        assert _wedge({0: 1}, [1, 2, 3]) == {1: 1, 2: 2, 4: 3}
        assert _wedge({1: 1}, [0, 5]) == {3: 5}
        assert _wedge({1: 1}, [0, 5, 7]) == {3: 5, 5: 7}

    def test_plan_cache_is_bounded(self):
        maxsize = _expansion.cache_info().maxsize
        assert isinstance(maxsize, int) and maxsize == exactlin.PLAN_CACHE > 0


class TestGramDet:
    """wedge_norm2, the Gram determinant of integer columns."""

    def test_orthonormal_integer_columns(self):
        assert wedge_norm2([[1, 0, 0], [0, 1, 0]]) == 1

    def test_single_column(self):
        assert wedge_norm2([[3, 4]]) == 25

    def test_rank_deficient(self):
        assert wedge_norm2([[1, 2, 0], [2, 4, 0]]) == 0

    @settings(max_examples=100)
    @given(matrices(3, 6))
    def test_cauchy_binet_brute_force(self, cols):
        """Against the Fraction Gram determinant and the sum of the squared
        maximal minors, times the squared scales of the integer columns."""
        if len(cols) > len(cols[0]):
            return
        total = sum(
            reference_det([[c[i] for c in cols] for i in rows]) ** 2
            for rows in itertools.combinations(range(len(cols[0])), len(cols))
        )
        assert reference_gram_det(cols) == total
        assert wedge_norm2(_integerized_rows(cols)) == total * row_scales(cols) ** 2


class TestCanonicalRref:
    """int_rref rows as the canonical form of a row space."""

    def test_identity_fixed(self):
        i3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert int_rref(i3) == ([0, 1, 2], i3)

    def test_row_scaling(self):
        assert int_rref([[2, 4]]) == ([0], [[1, 2]])

    def test_elimination(self):
        assert int_rref([[1, 1], [2, 2]]) == ([0], [[1, 1]])

    @given(matrices())
    def test_idempotent(self, m):
        once = int_rref(_integerized_rows(m))
        assert int_rref(once[1]) == once

    @settings(max_examples=100)
    @given(matrices(4, 4), fracs, fracs)
    def test_row_space_invariant(self, m, c1, c2):
        if len(m) < 2:
            return
        rows = [list(r) for r in m]
        rows[0] = [a + c1 * b for a, b in zip(rows[0], rows[1])]
        if c2 != 0:
            rows[1] = [c2 * x for x in rows[1]]
        assert int_rref(_integerized_rows(rows)) == int_rref(_integerized_rows(m))


mixed_fracs = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 7))


@st.composite
def deficient_matrices(draw):
    """Matrices over denominators 1..7 whose later rows may be zero or
    rational combinations of earlier ones, so every rank occurs."""
    nc = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(mixed_fracs, min_size=nc, max_size=nc), min_size=1, max_size=3))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["zero", "combination", "free"]))
        if kind == "zero":
            rows.append([Fraction(0)] * nc)
        elif kind == "combination":
            cs = draw(st.lists(mixed_fracs, min_size=len(rows), max_size=len(rows)))
            rows.append([sum((c * r[j] for c, r in zip(cs, rows)), Fraction(0)) for j in range(nc)])
        else:
            rows.append(draw(st.lists(mixed_fracs, min_size=nc, max_size=nc)))
    order = draw(st.permutations(range(len(rows))))
    return [rows[i] for i in order]


def primitive_rows(red) -> list[list[int]]:
    """Nonzero RREF rows scaled to primitive integer rows; RREF pivots are
    1, so the scaled pivots are positive."""
    return _integerized_rows([r for r in red if any(r)])


class TestIntRref:
    """int_rref against the Fraction Gauss-Jordan."""

    @settings(max_examples=400)
    @given(deficient_matrices())
    def test_canonical_rref_matches_fraction_reference(self, m):
        """The rows divided by their pivots, as AffineFlat.canon reads
        them, are the reference RREF's nonzero rows."""
        _, rows = int_rref(_integerized_rows(m))
        red = list(_reduced(rows))
        assert red + [(0,) * len(m[0])] * (len(m) - len(red)) == fraction_rref(m)

    @settings(max_examples=300)
    @given(deficient_matrices(), st.lists(st.integers(-5, 5).filter(bool), min_size=6, max_size=6))
    def test_primitive_rows_of_the_row_space(self, m, scales):
        """Rows scaled by any nonzero integers, of either sign, give the
        primitive, positive-pivot RREF rows of the row space."""
        ints = [[scales[i] * x for x in r] for i, r in enumerate(_integerized_rows(m))]
        pivots, rows = int_rref(ints)
        want = primitive_rows(fraction_rref(m))
        assert rows == want
        assert pivots == [next(c for c, x in enumerate(r) if x) for r in want]
        assert int_rref(rows) == (pivots, rows)

    def test_rows_are_primitive_with_positive_pivots(self):
        assert int_rref([[0, -4, 6], [0, 2, 2]]) == ([1, 2], [[0, 1, 0], [0, 0, 1]])
        assert int_rref([[-2, 4, 6]]) == ([0], [[1, -2, -3]])
        assert int_rref([[2, 4, 6], [1, 2, 4], [0, 0, 0]]) == ([0, 2], [[1, 2, 0], [0, 0, 1]])
        assert int_rref([[0, 0], [0, 0]]) == ([], [])
        assert int_rref([]) == ([], [])


def apply(m, x) -> tuple:
    return tuple(sum((a * b for a, b in zip(r, x, strict=True)), Fraction(0)) for r in m)


def kernel_solution(m, rhs):
    """Solve m x = rhs by int_kernel of [m | rhs]: the rhs column is free
    exactly when the system is consistent, and then its kernel vector v,
    the last one, gives the pivot solution -v[:-1] / v[-1]."""
    basis = int_kernel(_integerized_rows([list(r) + [b] for r, b in zip(m, rhs)]), len(m[0]) + 1)
    if not basis or not basis[-1][-1]:
        return None
    return tuple(Fraction(-x, basis[-1][-1]) for x in basis[-1][:-1])


class TestSolveNullspace:
    """int_kernel: kernels, and solutions as kernel vectors of the
    augmented matrix."""

    def test_unique_solution(self):
        assert int_kernel([[2, 0, 1], [0, 4, 2]], 3) == [[-1, -1, 2]]
        assert kernel_solution([[2, 0], [0, 4]], [1, 2]) == (Fraction(1, 2), Fraction(1, 2))

    def test_inconsistent(self):
        assert int_kernel([[1, 1, 0], [1, 1, 1]], 3) == [[-1, 1, 0]]
        assert kernel_solution([[1, 1], [1, 1]], [0, 1]) is None

    @settings(max_examples=100)
    @given(matrices(4, 4))
    def test_nullspace_annihilates(self, m):
        basis = int_kernel(_integerized_rows(m), len(m[0]))
        assert len(basis) == len(m[0]) - reference_rank(m)
        for v in basis:
            assert not any(apply(m, v))

    @settings(max_examples=100)
    @given(matrices(4, 4), st.lists(fracs, min_size=4, max_size=4))
    def test_solution_verifies(self, m, x):
        rhs = apply(m, x[: len(m[0])])
        got = kernel_solution(m, rhs)
        assert got is not None
        assert apply(m, got) == rhs

    def test_kernel_of_no_rows_is_the_standard_basis(self):
        assert int_kernel([], 3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert int_kernel([[0, 2, 4]], 3) == [[1, 0, 0], [0, -2, 1]]

    @settings(max_examples=300)
    @given(deficient_matrices())
    def test_nullspace_matches_free_column_basis(self, m):
        """Each vector is one common multiple L of the reference's vector of
        its free column, with L at that column."""
        got = int_kernel(_integerized_rows(m), len(m[0]))
        want = reference_nullspace(m, len(m[0]))
        assert len(got) == len(want)
        if got:
            big_l = next(x for x in reversed(got[0]) if x)
            assert [tuple(Fraction(x, big_l) for x in v) for v in got] == want

    @settings(max_examples=300)
    @given(deficient_matrices(), st.lists(mixed_fracs, min_size=5, max_size=5), st.booleans())
    def test_solve_matches_reference(self, m, x, consistent):
        """A right-hand side m x is consistent; a free one, on a
        rank-deficient m, usually is not."""
        rhs = apply(m, x[: len(m[0])]) if consistent else (x + [Fraction(0)] * 5)[: len(m)]
        got = kernel_solution(m, rhs)
        assert got == reference_solve(m, rhs)
        assert (got is None) == (reference_rank([list(r) + [b] for r, b in zip(m, rhs)]) > reference_rank(m))
        if got is not None:
            assert apply(m, got) == tuple(rhs)


class TestRefusals:
    def test_float_is_never_coerced(self):
        """The exact-arithmetic contract: a float reaches no rational."""
        with pytest.raises(TypeError, match="refusing to coerce float 0.5"):
            frac(0.5)
        with pytest.raises(TypeError, match="refusing to coerce float"):
            vec([Fraction(1, 2), 0.25])

    def test_orthogonalize_refuses_dependent_columns(self):
        with pytest.raises(ValueError, match="dependent columns"):
            orthogonalize([[1, 2, 0], [0, 1, 0], [1, 3, 0]])
