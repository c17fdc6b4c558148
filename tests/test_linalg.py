import random
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from operator import mul

import pytest

from helpers import (
    box_negdef_oracle,
    dense_inertia,
    entry_variants,
    gauss_jordan,
    leading_minor_negdef,
    leibniz_det,
    mat_vec,
    naive_ellipsoid_points,
    random_positive_definite,
    random_tree_edges,
    reference_solve,
)
from mmpkit.errors import NotSymmetricError, SingularMatrixError, ZeroVectorError
from mmpkit.linalg import (
    _eliminate,
    _factor,
    column_hermite_form,
    column_supports,
    coordinates_in_supports,
    cross_normal,
    det_bareiss,
    dot,
    ellipsoid_points,
    inertia,
    integer_kernel,
    is_negative_definite,
    matrix_rank,
    primitive,
    solve_exact,
)


class TestSolveExact:
    def test_one_by_one(self):
        assert solve_exact([[-2]], [0]) == (Fraction(0),)

    def test_identity(self):
        eye = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert solve_exact(eye, [1, 2, 3]) == (1, 2, 3)

    def test_hand_elimination(self):
        assert solve_exact([[-2, 1], [1, -2]], [-1, 0]) == (Fraction(2, 3), Fraction(1, 3))

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            solve_exact([[1, 2], [2, 4]], [1, 1])

    def test_dimension_mismatch(self):
        # a right-hand side one entry short or long is an error, not a system
        # with the surplus rows or entries dropped
        message = "^dimension mismatch between matrix and right-hand side$"
        for b in ([1], [1, 5, 0]):
            with pytest.raises(ValueError, match=message):
                solve_exact([[1, 2], [3, 4]], b)

    def test_errors_come_in_order(self):
        # not square, then the length of b, then singular
        with pytest.raises(ValueError, match="^matrix is not square$"):
            solve_exact([[1, 0]], [1, 5])
        with pytest.raises(ValueError, match="^dimension mismatch"):
            solve_exact([[1, 1], [1, 1]], [1])
        with pytest.raises(SingularMatrixError):
            solve_exact([[1, 1], [1, 1]], [0, 1])

    def test_empty_system(self):
        assert solve_exact([], []) == ()

    def test_rational_entries(self):
        a = [[Fraction(1, 2), 0], [0, Fraction(3)]]
        assert solve_exact(a, [1, 1]) == (2, Fraction(1, 3))

    def test_resubstitution_is_exact(self):
        rng = random.Random(11)
        checked = 0
        while checked < 200:
            n = rng.randint(1, 5)
            a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            if det_bareiss(a) == 0:
                continue
            b = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)]
            x = solve_exact(a, b)
            assert list(mat_vec(a, x)) == b
            checked += 1


class TestDetBareiss:
    def test_fraction_entries_are_exact(self):
        # both were 1, the determinant of the matrix scaled to integers
        assert det_bareiss([[Fraction(1, 2)]]) == Fraction(1, 2)
        assert det_bareiss([[Fraction(1, 2), 0], [0, Fraction(1, 3)]]) == Fraction(1, 6)

    def test_det_of_a_over_k(self):
        rng = random.Random(61)
        for _ in range(300):
            n = rng.randint(1, 5)
            a = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            k = rng.randint(2, 7)
            det = det_bareiss(a)
            assert isinstance(det, int)
            assert det_bareiss([[Fraction(x, k) for x in row] for row in a]) == Fraction(det, k**n), (a, k)

    def test_not_square(self):
        with pytest.raises(ValueError, match="^matrix is not square$"):
            det_bareiss([[1, 2]])


class TestEchelonReaders:
    def test_row_skipping_matches_gauss_jordan_and_leibniz(self):
        # the kernel leaves alone a row with a 0 in the pivot column and
        # pivots on the first row with a nonzero, not the next one; the
        # solves, the rank and the determinant must still be those of
        # Gauss-Jordan over Fractions and of the Leibniz expansion
        rng = random.Random(43)
        seen = Counter()
        for k in range(1200):
            kind = ECHELON_SHAPES[k % len(ECHELON_SHAPES)]
            a = random_echelon_matrix(rng, kind)
            if rng.random() < 1 / 3:
                a = [[Fraction(x, rng.randint(1, 4)) for x in row] for row in a]
                seen["fractions"] += 1
            rows, cols = len(a), len(a[0])
            _, order, late = gauss_jordan(a)
            assert matrix_rank(a) == len(order), a
            seen["skipped, then reached"] += late > 0
            if rows != cols:
                continue
            # any right-hand side, and one in the image of A, so consistent when A is singular
            b = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rows)]
            rhss = (b, list(mat_vec(a, [rng.randint(-3, 3) for _ in range(cols)])))
            if len(order) < rows:
                seen["singular"] += 1
                for rhs in rhss:
                    with pytest.raises(SingularMatrixError):
                        solve_exact(a, rhs)
            else:
                seen["solved"] += 1
                for rhs in rhss:
                    assert solve_exact(a, rhs) == reference_solve(a, rhs)[0], (a, rhs)
                perm = [p for p, _ in order]
                seen["odd order"] += sum(x > y for i, x in enumerate(perm) for y in perm[i + 1:]) % 2
            if rows <= 6:
                det = det_bareiss(a)
                assert det == leibniz_det(a), a
                assert isinstance(det, int) or any(isinstance(x, Fraction) for row in a for x in row)
        for key in ("fractions", "skipped, then reached", "odd order", "singular", "solved"):
            assert seen[key] >= 100, seen


class TestIntegerInput:
    def test_ints_fractions_mixed_and_bool_agree_with_the_fraction_oracles(self):
        # a matrix of exact ints is eliminated as given; a Fraction or a bool
        # anywhere sends it through the rescale, with the same answers
        rng = random.Random(61)
        seen = Counter()
        for k in range(300):
            n = rng.randint(1, 5)
            a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            a[0][0] = 1
            if k % 2:
                a = [[a[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
            if k % 3 == 0 and n > 1:
                # the last row a copy of the first, and so the last column
                # when a is symmetric: singular
                a[-1] = a[0][:]
                if k % 2:
                    for row in a:
                        row[-1] = row[0]
            b = [rng.randint(-4, 4) for _ in range(n)]
            for kind, m in entry_variants(rng, a).items():
                _, order, _ = gauss_jordan(m)
                assert matrix_rank(m) == len(order), (kind, m)
                det = det_bareiss(m)
                assert det == leibniz_det(m) and type(det) is int, (kind, m)
                if det:
                    assert solve_exact(m, b) == reference_solve(m, b)[0], (kind, m, b)
                else:
                    with pytest.raises(SingularMatrixError):
                        solve_exact(m, b)
                if k % 2:
                    assert inertia(m) == dense_inertia(m), (kind, m)
                rows, _, den = _eliminate(m)
                # True in the first pivot row would survive a bare copy
                assert den == 1 and all(type(x) is int for row in rows for x in row), kind
                seen[kind, bool(det)] += 1
        assert min(seen.values()) >= 30 and len(seen) == 8, seen


#: shapes of random_echelon_matrix
ECHELON_SHAPES = ("chain", "tree", "blocks", "zero lead", "low rank")


def random_echelon_matrix(rng, kind):
    """A random integer matrix of one shape: a chain (tridiagonal, some
    links 0); a tree with its vertices in random order; block diagonal
    with its rows and its columns shuffled apart; dense with a 0 leading
    entry and often more zeros down the first column, so that the first
    pivot row is not the first row; or a rectangular L R through an inner
    dimension that is often smaller, so often of lower rank.  Only the
    last is rectangular."""
    n = rng.randint(1, 7)
    a = [[0] * n for _ in range(n)]
    if kind == "chain":
        for i in range(n):
            a[i][i] = rng.randint(-3, 2)
            if i + 1 < n:
                a[i][i + 1], a[i + 1][i] = rng.choice((-1, 0, 1, 2)), rng.choice((-1, 0, 1, 1))
    elif kind == "tree":
        for i in range(n):
            a[i][i] = rng.choice((-3, -2, -2, -1, 0, 1))
        for i, j, _ in random_tree_edges(rng, n):
            a[i][j], a[j][i] = rng.choice((-1, 1, 2)), rng.choice((-1, 1, 1))
        order = rng.sample(range(n), n)
        a = [[a[i][j] for j in order] for i in order]
    elif kind == "blocks":
        start = 0
        while start < n:
            size = rng.randint(1, n - start)
            for i in range(start, start + size):
                for j in range(start, start + size):
                    a[i][j] = rng.randint(-2, 2)
            start += size
        rows, cols = rng.sample(range(n), n), rng.sample(range(n), n)
        a = [[a[i][j] for j in cols] for i in rows]
    elif kind == "zero lead":
        a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        for i in range(rng.randint(1, n)):
            a[i][0] = 0
    else:
        rows, cols = rng.randint(1, 6), rng.randint(1, 7)
        inner = rng.randint(0, min(rows, cols))
        left = [[rng.randint(-2, 2) for _ in range(inner)] for _ in range(rows)]
        right = [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(inner)]
        a = [[sum(x * r[j] for x, r in zip(row, right)) for j in range(cols)] for row in left]
    return a


class TestNegativeDefinite:
    def test_examples(self):
        assert is_negative_definite([[-2, 1], [1, -2]]) is True
        assert is_negative_definite([[-1, 0], [0, 0]]) is False
        assert is_negative_definite([[1]]) is False

    def test_not_symmetric_raises(self):
        with pytest.raises(NotSymmetricError):
            is_negative_definite([[1, 2], [3, 4]])

    def test_agrees_with_box_sampling(self):
        # exhaustive sign sampling over {-3..3}^n is an independent oracle
        # for matrices with small entries
        rng = random.Random(23)
        for _ in range(300):
            n = rng.randint(1, 4)
            limit = 5 if n <= 2 else 3
            m = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    m[i][j] = m[j][i] = rng.randint(-limit, limit)
            assert is_negative_definite(m) == box_negdef_oracle(m)


class TestPrimitive:
    def test_examples(self):
        assert primitive((2, 4)) == (1, 2)
        assert primitive((3, -5)) == (3, -5)

    def test_zero_raises(self):
        with pytest.raises(ZeroVectorError):
            primitive((0, 0))

    def test_scaling_invariance(self):
        rng = random.Random(3)
        for _ in range(200):
            n = rng.randint(1, 5)
            v = [rng.randint(-9, 9) for _ in range(n)]
            if all(x == 0 for x in v):
                v[0] = 1
            k = rng.randint(1, 12)
            assert primitive([k * x for x in v]) == primitive(v)


class TestKernelAndHermite:
    def test_sum_zero_kernel(self):
        assert integer_kernel(((1, 1, 1),)) == [(1, 0, -1), (0, 1, -1)]

    def test_last_coordinate_kernel(self):
        assert integer_kernel(((0, 0, -1),)) == [(1, 0, 0), (0, 1, 0)]

    def test_full_rank_kernel_empty(self):
        assert integer_kernel(((1, 0), (0, 1))) == []

    @pytest.mark.parametrize("a", [[[1, 2], [3]], [[1, 2], [3, 4, 5]], [[1], [2], []]])
    def test_ragged_rows_are_an_input_error(self, a):
        # a short row ended in an IndexError, and a long one gave an empty kernel
        with pytest.raises(ValueError) as info:
            integer_kernel(a)
        bad = next(k for k, row in enumerate(a) if len(row) != len(a[0]))
        assert (info.value.code, info.value.field) == ("row_length", f"a[{bad}]")

    def test_kernel_vectors_annihilate(self):
        rng = random.Random(17)
        for _ in range(100):
            rows = rng.randint(1, 3)
            cols = rng.randint(1, 5)
            a = tuple(tuple(rng.randint(-5, 5) for _ in range(cols)) for _ in range(rows))
            basis = integer_kernel(a)
            assert len(basis) == cols - matrix_rank(a)
            for v in basis:
                assert all(x == 0 for x in mat_vec(a, v))

    def test_hermite_is_canonical(self):
        # unimodular changes of basis leave the Hermite form unchanged
        b1 = [(1, 0, -1), (0, 1, -1)]
        b2 = [(1, 1, -2), (0, 1, -1)]
        b3 = [(-1, 0, 1), (1, -1, 0)]
        assert column_hermite_form(b2) == column_hermite_form(b1)
        assert column_hermite_form(b3) == column_hermite_form(b1)

    def test_coordinates_roundtrip(self):
        rng = random.Random(29)
        basis = integer_kernel(((1, 1, 1, 1),))
        for _ in range(100):
            coeffs = [rng.randint(-5, 5) for _ in basis]
            v = [sum(c * b[i] for c, b in zip(coeffs, basis)) for i in range(4)]
            assert coordinates_in_supports(column_supports(basis), v) == tuple(coeffs)

    def test_coordinates_reject_outside(self):
        basis = integer_kernel(((1, 1, 1),))
        with pytest.raises(ValueError, match="^vector is not in the lattice spanned by the basis$"):
            coordinates_in_supports(column_supports(basis), (1, 0, 0))

    def test_coordinates_in_random_hermite_bases(self):
        # pivots above 1 and dense columns, unlike a contraction basis
        rng = random.Random(53)
        big_pivots = dense = 0
        for _ in range(200):
            n = rng.randint(1, 5)
            cols = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(rng.randint(1, n))]
            basis = [c for c in column_hermite_form(cols) if any(c)]
            if not basis:
                continue
            pivots = [next(i for i, x in enumerate(c) if x) for c in basis]
            big_pivots += any(c[i] > 1 for c, i in zip(basis, pivots))
            dense += any(all(c[i:]) for c, i in zip(basis, pivots))
            y = tuple(rng.randint(-4, 4) for _ in basis)
            v = tuple(sum(yk * c[i] for yk, c in zip(y, basis)) for i in range(n))
            assert coordinates_in_supports(column_supports(basis), v) == y
            # one more at a pivot above 1 leaves the lattice
            for c, i in zip(basis, pivots):
                if c[i] > 1:
                    w = list(v)
                    w[i] += 1
                    with pytest.raises(ValueError, match="^vector is not in the lattice spanned by the basis$"):
                        coordinates_in_supports(column_supports(basis), w)
        assert big_pivots >= 50 and dense >= 50

    def test_coordinates_check_the_length(self):
        # the supports record the length of the columns they were read from
        supports = column_supports([(1, 0, -1), (0, 1, -1)])
        assert coordinates_in_supports(supports, (1, 2, -3)) == (1, 2)
        for v in [(1, 2, -3, 0), (1,), ()]:
            with pytest.raises(ValueError, match=f"^vector of length {len(v)}, basis columns of length 3$"):
                coordinates_in_supports(supports, v)

    def test_coordinates_reject_a_zero_column(self):
        with pytest.raises(ValueError, match="^zero column in basis$"):
            coordinates_in_supports(column_supports([(1, 0), (0, 0)]), (1, 0))

    def test_supports_reject_ragged_columns(self):
        # the length recorded from the first column would let (0, 1) be read past its end
        for columns in [[(1, 0), (0, 1, 5)], [(1, 0, 0), (0, 1)]]:
            with pytest.raises(ValueError, match="^basis columns of different lengths$"):
                column_supports(columns)

    def test_hermite_form_of_no_columns(self):
        assert column_hermite_form([]) == []


class TestInertia:
    def test_diagonal(self):
        assert inertia([[1, 0], [0, -1]]) == (1, 1, 0)
        assert inertia([[-2]]) == (0, 1, 0)
        assert inertia([[0, 0], [0, 0]]) == (0, 0, 2)

    def test_not_symmetric(self):
        with pytest.raises(NotSymmetricError, match="^inertia needs a symmetric matrix$"):
            inertia([[1, 2], [0, 1]])

    def test_hyperbolic_plane(self):
        assert inertia([[0, 1], [1, 0]]) == (1, 1, 0)

    def test_blowup_gram(self):
        gram = [[1, 0, 0], [0, -1, 0], [0, 0, -1]]
        assert inertia(gram) == (1, 2, 0)

    def test_row_skipping_matches_dense_references(self):
        # the kernel leaves rows with a 0 in the pivot column alone; on forms
        # where that happens often it must give the dense reference loop's
        # signature and the leading-minor rule's verdict
        rng = random.Random(41)
        seen = Counter()
        for k in range(3500):
            kind = SHAPES[k % len(SHAPES)]
            m = random_sparse_form(rng, kind)
            if rng.random() < 1 / 3:
                # a congruence by a diagonal of unit fractions
                d = [rng.randint(1, 4) for _ in m]
                m = [[Fraction(x, d[i] * d[j]) for j, x in enumerate(row)] for i, row in enumerate(m)]
                seen["fractions"] += 1
            sig = inertia(m)
            assert sig == dense_inertia(m), (kind, m)
            assert is_negative_definite(m) == leading_minor_negdef(m), (kind, m)
            seen[kind, "definite" if sig[1] == len(m) else "singular" if sig[2] else "other"] += 1
        # a zero diagonal block is never definite, and a rank below n singular
        for kind in SHAPES:
            verdicts = {"zero diagonal block": ("singular", "other"), "low rank": ("singular",)}.get(
                kind, ("definite", "singular", "other")
            )
            assert min(seen[kind, v] for v in verdicts) >= 10, seen
        assert seen["fractions"] >= 1000


#: shapes of random_sparse_form
SHAPES = ("dense", "blocks", "chain", "tree", "zero diagonal block", "cancelling", "low rank")


def random_sparse_form(rng, kind):
    """A random symmetric integer matrix of one shape: dense with zeros;
    block diagonal; a chain; a tree with its vertices in random order; a
    block with a zero diagonal that only the congruence step can pivot on,
    reached after the rows of a second block were skipped; entries in
    {-1, 0, 1} whose Schur diagonals cancel, so that the congruence step
    also pairs a row some pivot reached with one it skipped; or B^T D B of
    lower rank.  Rows and columns are shuffled by one permutation, except
    for the chain."""
    n = rng.randint(1, 9)
    m = [[0] * n for _ in range(n)]

    def put(i, j, x):
        m[i][j] = m[j][i] = x

    if kind == "dense":
        for i in range(n):
            for j in range(i, n):
                put(i, j, rng.randint(-5, 1) if i == j else rng.choice((0, 0, rng.randint(-2, 2))))
    elif kind == "blocks":
        start = 0
        while start < n:
            size = rng.randint(1, n - start)
            for i in range(start, start + size):
                for j in range(i, start + size):
                    put(i, j, rng.randint(-4, 1) if i == j else rng.randint(-1, 1))
            start += size
    elif kind in ("chain", "tree"):
        edges = [(i, i + 1, 1) for i in range(n - 1)] if kind == "chain" else random_tree_edges(rng, n)
        for i in range(n):
            put(i, i, rng.choice((-3, -2, -2, -1, 0, 1)))
        for i, j, _ in edges:
            put(i, j, rng.choice((-1, 1, 1, 2)))
    elif kind == "zero diagonal block":
        split = rng.randint(0, n - 1)
        for i in range(split):
            for j in range(i, split):
                put(i, j, rng.randint(-3, -1) if i == j else rng.randint(-1, 1))
        for i in range(split, n):
            for j in range(i + 1, n):
                put(i, j, rng.randint(-2, 2))
    elif kind == "cancelling":
        for i in range(n):
            for j in range(i, n):
                put(i, j, rng.choice((-1, 0) if i == j else (-1, 0, 0, 1)))
    else:
        b = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(0, n - 1))]
        d = [rng.choice((-2, -1, -1, 1)) for _ in b]
        for i in range(n):
            for j in range(i, n):
                put(i, j, sum(dk * row[i] * row[j] for dk, row in zip(d, b)))
    if kind == "chain":
        return m
    order = rng.sample(range(n), n)
    return [[m[i][j] for j in order] for i in order]


class TestEllipsoidPoints:
    def test_matches_the_box_oracle_on_seeded_forms(self):
        # forms M^T M + I of rank 1 to 5, centres A^-1 b integral and
        # rational, and values r through a lattice point next to the centre,
        # off it by 1, or below every value the form takes
        rng = random.Random(26)
        seen = Counter()
        for k in range(400):
            d = 1 + k % 5
            a = random_positive_definite(rng, d, spread=2 if d <= 3 else 1)
            b = mat_vec(a, [rng.randint(-4, 4) for _ in range(d)])
            if k % 2:
                b = [x + rng.randint(-2, 2) for x in b]
            centre = reference_solve(a, b)[0]
            p = [round(x) for x in centre]
            # the oracle's box grows with the radius, so rank 4 and 5 move one coordinate
            for i in range(d) if d <= 3 else [rng.randrange(d)]:
                p[i] += rng.randint(-1, 1)
            r = sum(map(mul, p, mat_vec(a, p))) - 2 * sum(map(mul, b, p))
            r += (0, 0, 0, 1, -1, -(10**4))[k % 6]
            got = ellipsoid_points(a, b, r)
            assert len(set(got)) == len(got), (a, b, r)
            assert sorted(got) == sorted(naive_ellipsoid_points(a, b, r)), (a, b, r)
            assert all(type(x) is int for w in got for x in w)
            seen["rational centre"] += any(x.denominator != 1 for x in centre)
            seen["below the minimum"] += r + sum(map(mul, b, centre)) < 0
            seen[d, min(len(got), 2)] += 1
        assert seen["rational centre"] and seen["below the minimum"], seen
        # every rank has forms with no point, one point and several
        assert all(seen[d, n] for d in range(1, 6) for n in range(3)), seen

    def test_exactly_one_point_at_an_integral_centre(self):
        a = [[2, 1], [1, 2]]
        b = mat_vec(a, [1, -2])
        # (w - c)^T A (w - c) = r + c^T A c = 0 holds at the centre c alone
        assert ellipsoid_points(a, b, -6) == [(1, -2)]
        assert naive_ellipsoid_points(a, b, -6) == [(1, -2)]

    def test_rational_centre(self):
        # 2 w^2 - 2 w = r: the centre is 1/2, r = 4 is met at -1 and 2, and r = 1 at no integer
        assert sorted(ellipsoid_points([[2]], [1], 4)) == [(-1,), (2,)]
        assert ellipsoid_points([[2]], [1], 1) == []

    def test_below_the_minimum_is_empty(self):
        # R < 0: the radius has no square root, and no point is searched for
        assert ellipsoid_points([[1, 0], [0, 1]], [0, 0], -1) == []
        assert ellipsoid_points([[3]], [1], -1) == []
        assert naive_ellipsoid_points([[3]], [1], -1) == []

    def test_rank_zero(self):
        assert ellipsoid_points([], [], 0) == [()]
        for r in (1, -1):
            assert ellipsoid_points([], [], r) == []
        for r in (0, 1, -1):
            assert naive_ellipsoid_points([], [], r) == ellipsoid_points([], [], r)

    @pytest.mark.parametrize(
        "a, b",
        [
            ([[2, 1], [0, 2]], [0, 0]),  # not symmetric
            ([[1, 0]], [0]),  # not square
            ([[1, 0], [0, -1]], [0, 0]),  # indefinite
            ([[0, 1], [1, 0]], [0, 0]),  # a zero pivot, off the diagonal
            ([[1, 1], [1, 1]], [0, 0]),  # semidefinite
            ([[-1]], [0]),  # negative definite
            ([[2, 1], [1, 2]], [0]),  # b too short
            ([[2, 1], [1, 2]], [0, 0, 0]),  # b too long
            ([], [1]),  # b too long for rank 0
        ],
    )
    def test_bad_input_is_a_value_error(self, a, b):
        with pytest.raises(ValueError):
            ellipsoid_points(a, b, 1)


def random_form(rng, d):
    """A d by d symmetric int matrix: negative definite, positive definite,
    a tree in random vertex order, whose rows are skipped by a pivot and
    reached by a later one, or a form with any small entries."""
    kind = rng.choice(("negative", "positive", "tree", "any"))
    if kind in ("negative", "positive"):
        a = random_positive_definite(rng, d)
        return a if kind == "positive" else [[-x for x in row] for row in a]
    a = [[0] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            a[i][j] = a[j][i] = rng.randint(-3, 3) if kind == "any" else 0
    if kind == "tree":
        for i in range(d):
            a[i][i] = rng.choice((-4, -3, -2, -2, -1, 0))
        for i, j, _ in random_tree_edges(rng, d):
            a[i][j] = a[j][i] = rng.choice((-1, 1, 1, 2))
        order = rng.sample(range(d), d)
        a = [[a[i][j] for j in order] for i in order]
    return a


def answer(call, *args):
    """The value of call(*args), or the type and message of what it raised."""
    try:
        return call(*args)
    except (ValueError, SingularMatrixError) as e:
        return type(e), str(e)


class TestKeptFactorization:
    """is_negative_definite, solve_exact and ellipsoid_points share the
    echelon factorization of the last square matrix, kept by its value.
    Interleaved on one form or on the next, each must answer as its oracle
    does and as it does cold, after the kept factorization is dropped."""

    def test_interleaved_readers_agree_with_the_oracles_and_cold(self):
        rng = random.Random(33)
        seen = Counter()
        a = random_form(rng, 2)
        for step in range(1500):
            event = rng.choice(("same", "same", "new", "singular", "container", "fractions", "mutate"))
            if event == "new":
                a = random_form(rng, rng.randint(1, 5))
            elif event == "singular" and leading_minor_negdef(a):
                # the same shape, right after a definite form was factored
                a = [list(row) for row in a]
                a[-1] = list(a[0])
                for row in a:
                    row[-1] = row[0]
                seen["singular after definite"] += 1
            elif event == "container":
                # equal entries in a tuple of tuples or a list of lists
                a = tuple(map(tuple, a)) if isinstance(a, list) else [list(row) for row in a]
                seen["list and tuple"] += 1
            elif event == "fractions":
                k = rng.choice((1, 1, 2, 3))
                a = [[Fraction(x, k) for x in row] for row in a]
            elif event == "mutate" and isinstance(a, list):
                # a list changed in place after it was factored is factored anew
                i, j = rng.randrange(len(a)), rng.randrange(len(a))
                a[i][j] += 1
                a[j][i] = a[i][j]
                seen["mutated"] += 1
            n, op = len(a), rng.choice(("definite", "solve", "ellipsoid"))
            if op == "ellipsoid" and any(Fraction(x).denominator != 1 for row in a for x in row):
                op = "solve"
            hits = _factor.cache_info().hits
            if op == "definite":
                call, args = is_negative_definite, (a,)
                want = leading_minor_negdef(a)
            elif op == "solve":
                b = [Fraction(rng.randint(-4, 4), rng.choice((1, 1, 3))) for _ in range(n)]
                call, args = solve_exact, (a, [y.numerator if y.denominator == 1 else y for y in b])
                want = (SingularMatrixError, "matrix is singular")
                if len(gauss_jordan(a)[1]) == n:
                    want = reference_solve(a, b)[0]
                seen["fraction b"] += any(y.denominator != 1 for y in b)
            else:
                # as ints, so equal in value to a form of integral Fractions just factored
                a = [[int(x) for x in row] for row in a]
                b, r = [rng.randint(-4, 4) for _ in range(n)], rng.randint(-1, 2)
                positive = leading_minor_negdef([[-x for x in row] for row in a])
                if positive:
                    # r through a lattice point next to the centre, or off it by 1 or 2
                    p = [round(x) for x in reference_solve(a, b)[0]]
                    r += sum(map(mul, p, mat_vec(a, p))) - 2 * sum(map(mul, b, p))
                call, args = ellipsoid_points, (a, b, r)
                want = (ValueError, "matrix is not positive definite")
                if positive:
                    # the box oracle grows with the rank; above 3 each point is checked instead
                    want = sorted(naive_ellipsoid_points(a, b, r)) if n <= 3 else None
            got = answer(call, *args)
            if op == "ellipsoid" and positive:
                if want is None:
                    want = sorted({w for w in got if sum(map(mul, w, mat_vec(a, w))) - 2 * sum(map(mul, b, w)) == r})
                seen["points"] += len(got)
                assert len(got) == len(want) and sorted(got) == want, (step, op, args)
            else:
                assert got == want, (step, op, args)
            seen[op, _factor.cache_info().hits > hits] += 1
            _factor.cache_clear()
            assert answer(call, *args) == got, (step, op, args)
        for key in ("singular after definite", "list and tuple", "mutated", "fraction b", "points"):
            assert seen[key] >= 20, seen
        # every reader answers both from a kept factorization and from its own
        assert all(seen[op, hit] >= 50 for op in ("definite", "solve", "ellipsoid") for hit in (True, False)), seen

    def test_entries_are_read_by_value_whatever_their_type(self):
        # equal forms share the kept factorization, so a float or Decimal form
        # read back from a Fraction form's answers as it does cold, in either order
        # (dyadic entries, so each float and Decimal is exact)
        kinds = (Fraction, float, lambda x: Decimal(float(x)), int)
        for a, b in (
            ([[-2, 1], [1, -2]], [1, 0]),
            ([[Fraction(1, 2)]], [1]),
            ([[Fraction(-5, 2), Fraction(1, 4)], [Fraction(1, 4), Fraction(-3, 2)]], [1, -2]),
        ):
            want, definite = reference_solve(a, b)[0], leading_minor_negdef(a)
            integral = all(Fraction(x).denominator == 1 for row in a for x in row)
            forms = [[[kind(x) for x in row] for row in a] for kind in kinds[: 4 if integral else 3]]
            for order in (forms, forms[::-1]):
                for cold in (False, True):
                    _factor.cache_clear()
                    for form in order:
                        if cold:
                            _factor.cache_clear()
                        got = solve_exact(form, b)
                        assert got == want and all(type(x) is Fraction for x in got), (form, cold)
                        assert is_negative_definite(form) is definite, (form, cold)

    def test_the_right_hand_side_is_read_by_value_whatever_its_type(self):
        # a float, Decimal or bool entry of b is the Fraction it equals, on the
        # kept form or cold after it is dropped (dyadic, so each float is exact)
        a = [[-2, 1], [1, -2]]
        for b, others in (
            ([Fraction(1, 2), Fraction(-3, 4)], ([0.5, -0.75], [Decimal("0.5"), Decimal("-0.75")], [0.5, Fraction(-3, 4)])),
            ([1, 0], ([True, False], [1.0, 0.0], [Decimal(1), 0], [1, False])),
        ):
            want = reference_solve(a, b)[0]
            for cold in (False, True):
                _factor.cache_clear()
                for rhs in (b, *others):
                    if cold:
                        _factor.cache_clear()
                    got = solve_exact(a, rhs)
                    assert got == want and all(type(x) is Fraction for x in got), (rhs, cold)
        assert solve_exact([[2]], [0.5]) == solve_exact([[2]], [Decimal("0.5")]) == (Fraction(1, 4),)
        assert solve_exact([[2]], [True]) == (Fraction(1, 2),)

    def test_errors_keep_their_order_whatever_is_kept(self):
        # not square, then the length of b, then singular, with the form kept or not
        a, singular = [[-2, 1], [1, -2]], [[-2, 1], [-2, 1]]
        for warm in (True, False):
            _factor.cache_clear()
            if warm:
                assert is_negative_definite(a)
            with pytest.raises(ValueError, match="^matrix is not square$"):
                solve_exact([[-2, 1]], [1])
            with pytest.raises(ValueError, match="^dimension mismatch"):
                solve_exact(a, [1])
            with pytest.raises(ValueError, match="^dimension mismatch"):
                solve_exact(singular, [1, 2, 3])
            with pytest.raises(SingularMatrixError):
                solve_exact(singular, [1, 2])
            assert solve_exact(a, [1, 0]) == (Fraction(-2, 3), Fraction(-1, 3))


class TestSmallHelpers:
    def test_cross_normal_2d(self):
        assert cross_normal([(0, 1)], 2) == (1, 0)

    def test_cross_normal_needs_dim_minus_one_rows(self):
        with pytest.raises(ValueError, match="^need exactly dim-1 vectors$"):
            cross_normal([], 3)

    def test_dot_needs_equal_lengths(self):
        with pytest.raises(ValueError, match="^dimension mismatch$"):
            dot((1,), (1, 2))

    def test_cross_normal_orthogonal(self):
        rows = [(1, 0, 1), (0, 1, 1)]
        n = cross_normal(rows, 3)
        assert all(sum(a * b for a, b in zip(n, row)) == 0 for row in rows)

    def test_cross_normal_matches_cofactor_definition(self):
        # the signed det_bareiss minors, for the expanded 1x1 and 2x2 minors and the rest,
        # on rows with a zero row or a dependent row a third of the time each
        rng = random.Random(19)
        for dim in range(2, 6):
            for k in range(60):
                rows = [[rng.randint(-4, 4) for _ in range(dim)] for _ in range(dim - 1)]
                if k % 3 == 1:
                    rows[rng.randrange(dim - 1)] = [0] * dim
                elif k % 3 == 2 and dim > 2:
                    i, j = rng.sample(range(dim - 1), 2)
                    rows[i] = [rng.randint(-2, 2) * x for x in rows[j]]
                minors = [[[row[j] for j in range(dim) if j != i] for row in rows] for i in range(dim)]
                expected = tuple((-1) ** i * det_bareiss(minor) for i, minor in enumerate(minors))
                assert cross_normal(rows, dim) == expected, rows
                assert all(type(x) is int for x in cross_normal(rows, dim)), rows
