import itertools
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from flatbeck.exactlin import (
    Matrix,
    _integerized_rows,
    bareiss,
    det,
    gram_det,
    int_kernel,
    int_rref,
    nullspace,
    pivot_columns,
    rank,
    solve,
)
from flatbeck.flats import _reduced
from fraction_reference import fraction_rref, reference_nullspace, reference_solve

fracs = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


def matrices(max_rows=5, max_cols=5):
    return st.integers(1, max_rows).flatmap(
        lambda r: st.integers(1, max_cols).flatmap(
            lambda c: st.lists(
                st.lists(fracs, min_size=c, max_size=c), min_size=r, max_size=r
            ).map(Matrix)
        )
    )


def oracle_rank(m: Matrix) -> int:
    """Plain Gaussian elimination over Fraction, independent of Bareiss."""
    rows = [list(r) for r in m.entries]
    r = 0
    for c in range(m.cols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c] / rows[r][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


class TestRank:
    def test_identity(self):
        assert rank(Matrix.identity(2)) == 2

    def test_zero(self):
        assert rank(Matrix.zero(3, 3)) == 0

    def test_dependent_rows(self):
        assert rank(Matrix([[1, 2], [2, 4]])) == 1

    @settings(max_examples=200)
    @given(matrices())
    def test_matches_gaussian_oracle(self, m):
        assert rank(m) == oracle_rank(m)

    @given(matrices(4, 4))
    def test_transpose_invariant(self, m):
        assert rank(m) == rank(m.transpose())

    @settings(max_examples=200)
    @given(matrices(), st.lists(st.integers(1, 6), min_size=5, max_size=5))
    def test_pivot_columns_are_the_greedy_basis(self, m, col_scales):
        """Pivot columns are the columns outside the span of those before
        them, whatever the column scaling."""
        want = [
            c for c in range(m.cols)
            if oracle_rank(Matrix([r[: c + 1] for r in m.entries]))
            > oracle_rank(Matrix([r[:c] for r in m.entries]))
        ]
        ints = [
            [x.numerator * 6 // x.denominator * col_scales[c] for c, x in enumerate(r)]
            for r in m.entries
        ]
        assert pivot_columns(ints) == want


class TestDet:
    def test_identity(self):
        assert det(Matrix.identity(3)) == 1

    def test_known_2x2(self):
        assert det(Matrix([[1, 2], [3, 4]])) == -2

    def test_fractional(self):
        assert det(Matrix([[Fraction(1, 2), 0], [0, Fraction(2, 3)]])) == Fraction(1, 3)

    @settings(max_examples=150)
    @given(matrices(4, 4))
    def test_laplace_oracle(self, m):
        if m.rows != m.cols:
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

        assert det(m) == laplace([list(r) for r in m.entries])


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
    @settings(max_examples=200)
    @given(st.integers(1, 4).flatmap(lambda r: st.integers(1, 4).flatmap(
        lambda c: st.lists(st.lists(st.integers(-3, 3), min_size=c, max_size=c), min_size=r, max_size=r)
    )))
    def test_one_pass_gives_pivots_and_det(self, rows):
        """The determinant is Leibniz's for a square matrix and 0 otherwise,
        nonzero exactly when every row has a pivot; the input is not
        modified (the pivots are checked in TestRank)."""
        copy = [r[:] for r in rows]
        pivots, d = bareiss(rows)
        assert rows == copy
        square = len(rows) == len(rows[0])
        assert d == (leibniz_det(rows) if square else 0)
        assert (d != 0) == (square and len(pivots) == len(rows))

    def test_empty_matrix_has_det_one(self):
        assert bareiss([]) == ([], 1)


class TestGramDet:
    def test_orthonormal_integer_columns(self):
        assert gram_det(Matrix([[1, 0], [0, 1], [0, 0]])) == 1

    def test_single_column(self):
        assert gram_det(Matrix([[3], [4]])) == 25

    def test_rank_deficient(self):
        assert gram_det(Matrix([[1, 2], [2, 4], [0, 0]])) == 0

    @settings(max_examples=100)
    @given(matrices(6, 3))
    def test_cauchy_binet_brute_force(self, m):
        if m.cols > m.rows:
            return
        total = Fraction(0)
        for rows_idx in itertools.combinations(range(m.rows), m.cols):
            total += det(m.submatrix(rows_idx, range(m.cols))) ** 2
        assert gram_det(m) == total


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
        once = int_rref(_integerized_rows(m.entries))
        assert int_rref(once[1]) == once

    @settings(max_examples=100)
    @given(matrices(4, 4), fracs, fracs)
    def test_row_space_invariant(self, m, c1, c2):
        if m.rows < 2:
            return
        rows = [list(r) for r in m.entries]
        rows[0] = [a + c1 * b for a, b in zip(rows[0], rows[1])]
        if c2 != 0:
            rows[1] = [c2 * x for x in rows[1]]
        assert int_rref(_integerized_rows(rows)) == int_rref(_integerized_rows(m.entries))


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
    return Matrix([rows[i] for i in order])


def primitive_rows(red: Matrix) -> list[list[int]]:
    """Nonzero RREF rows scaled to primitive integer rows; RREF pivots are
    1, so the scaled pivots are positive."""
    return _integerized_rows([r for r in red.entries if any(r)])


class TestIntRref:
    """int_rref against the Fraction Gauss-Jordan."""

    @settings(max_examples=400)
    @given(deficient_matrices())
    def test_canonical_rref_matches_fraction_reference(self, m):
        """The rows divided by their pivots, as AffineFlat.canon reads
        them, are the reference RREF's nonzero rows."""
        _, rows = int_rref(_integerized_rows(m.entries))
        red = list(_reduced(rows))
        assert Matrix(red + [(0,) * m.cols] * (m.rows - len(red))) == fraction_rref(m)

    @settings(max_examples=300)
    @given(deficient_matrices(), st.lists(st.integers(-5, 5).filter(bool), min_size=6, max_size=6))
    def test_primitive_rows_of_the_row_space(self, m, scales):
        """Rows scaled by any nonzero integers, of either sign, give the
        primitive, positive-pivot RREF rows of the row space."""
        ints = [[scales[i] * x for x in r] for i, r in enumerate(_integerized_rows(m.entries))]
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


class TestSolveNullspace:
    def test_unique_solution(self):
        m = Matrix([[2, 0], [0, 4]])
        assert solve(m, [1, 2]) == (Fraction(1, 2), Fraction(1, 2))

    def test_inconsistent(self):
        m = Matrix([[1, 1], [1, 1]])
        assert solve(m, [0, 1]) is None

    @settings(max_examples=100)
    @given(matrices(4, 4))
    def test_nullspace_annihilates(self, m):
        basis = nullspace(m)
        assert len(basis) == m.cols - rank(m)
        for v in basis:
            assert all(x == 0 for x in m.mat_vec(v))

    @settings(max_examples=100)
    @given(matrices(4, 4), st.lists(fracs, min_size=4, max_size=4))
    def test_solution_verifies(self, m, x):
        rhs = m.mat_vec(x[: m.cols] + [Fraction(0)] * max(0, m.cols - 4))
        got = solve(m, rhs)
        assert got is not None
        assert m.mat_vec(got) == rhs

    def test_kernel_of_no_rows_is_the_standard_basis(self):
        assert int_kernel([], 3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert int_kernel([[0, 2, 4]], 3) == [[1, 0, 0], [0, -2, 1]]

    @settings(max_examples=300)
    @given(deficient_matrices())
    def test_nullspace_matches_free_column_basis(self, m):
        assert nullspace(m) == reference_nullspace(m)

    @settings(max_examples=300)
    @given(deficient_matrices(), st.lists(mixed_fracs, min_size=5, max_size=5), st.booleans())
    def test_solve_matches_reference(self, m, x, consistent):
        """A right-hand side m x is consistent; a free one, on a
        rank-deficient m, usually is not."""
        rhs = m.mat_vec(x[: m.cols]) if consistent else x[: m.rows] + [Fraction(0)] * (m.rows - 5)
        got = solve(m, rhs)
        assert got == reference_solve(m, rhs)
        assert (got is None) == (rank(m.hstack(Matrix.from_cols([rhs], rows=m.rows))) > rank(m))
        if got is not None:
            assert m.mat_vec(got) == tuple(rhs)
