import random
from fractions import Fraction

import pytest

from helpers import box_negdef_oracle
from mmpkit.errors import NotSymmetricError, SingularMatrixError, ZeroVectorError
from mmpkit.linalg import (
    column_hermite_form,
    coordinates_in_basis,
    cross_normal,
    det_bareiss,
    inertia,
    integer_kernel,
    is_negative_definite,
    mat_vec,
    matrix_rank,
    primitive,
    smith_normal_form,
    solve_exact,
    solve_possibly_singular,
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
        with pytest.raises(ValueError):
            solve_exact([[1, 2], [3, 4]], [1])

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


class TestSmithNormalForm:
    def test_examples(self):
        assert smith_normal_form([[1, 0], [0, 1]]) == [1, 1]
        assert smith_normal_form([[2, 4], [6, 8]]) == [2, 4]
        assert smith_normal_form([[0, 0], [0, 0]]) == []
        assert smith_normal_form([]) == []
        assert smith_normal_form([[0, 0, 0]]) == []
        assert smith_normal_form([[0], [6], [4]]) == [2]
        # five alternating Hermite rounds before the matrix is monomial
        assert smith_normal_form([[8, -8, 6], [-4, -2, -9], [-1, 4, 1]]) == [1, 1, 60]

    def test_known_diagonal(self):
        assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]

    def test_rectangular(self):
        assert smith_normal_form([[2, 0, 0], [0, 3, 0]]) == [1, 6]

    def test_chain_and_determinant(self):
        rng = random.Random(5)
        for _ in range(200):
            n = rng.randint(1, 4)
            a = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
            factors = smith_normal_form(a)
            for x, y in zip(factors, factors[1:]):
                assert y % x == 0
            det = det_bareiss(a)
            if det != 0:
                prod = 1
                for f in factors:
                    prod *= f
                assert prod == abs(det)
                assert len(factors) == n

    def test_against_determinantal_divisor_oracle(self):
        # invariant factors are quotients of gcds of k-by-k minors
        from itertools import combinations
        from math import gcd

        def oracle(a):
            rows, cols = len(a), len(a[0])
            prev = 1
            out = []
            for k in range(1, min(rows, cols) + 1):
                g = 0
                for rsel in combinations(range(rows), k):
                    for csel in combinations(range(cols), k):
                        minor = det_bareiss([[a[i][j] for j in csel] for i in rsel])
                        g = gcd(g, abs(minor))
                if g == 0:
                    break
                out.append(g // prev)
                prev = g
            return out

        rng = random.Random(43)
        for size, count in ((7, 150), (10**12, 100)):
            for _ in range(count):
                rows = rng.randint(1, 3)
                cols = rng.randint(1, 4)
                a = [[rng.randint(-size, size) for _ in range(cols)] for _ in range(rows)]
                assert smith_normal_form(a) == oracle(a)


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
            assert coordinates_in_basis(basis, v) == tuple(coeffs)

    def test_coordinates_reject_outside(self):
        basis = integer_kernel(((1, 1, 1),))
        with pytest.raises(ValueError, match="^vector is not in the lattice spanned by the basis$"):
            coordinates_in_basis(basis, (1, 0, 0))

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
            assert coordinates_in_basis(basis, v) == y
            # one more at a pivot above 1 leaves the lattice
            for c, i in zip(basis, pivots):
                if c[i] > 1:
                    w = list(v)
                    w[i] += 1
                    with pytest.raises(ValueError, match="^vector is not in the lattice spanned by the basis$"):
                        coordinates_in_basis(basis, w)
        assert big_pivots >= 50 and dense >= 50

    def test_coordinates_reject_a_zero_column(self):
        with pytest.raises(ValueError, match="^zero column in basis$"):
            coordinates_in_basis([(1, 0), (0, 0)], (1, 0))


class TestInertia:
    def test_diagonal(self):
        assert inertia([[1, 0], [0, -1]]) == (1, 1, 0)
        assert inertia([[-2]]) == (0, 1, 0)
        assert inertia([[0, 0], [0, 0]]) == (0, 0, 2)

    def test_hyperbolic_plane(self):
        assert inertia([[0, 1], [1, 0]]) == (1, 1, 0)

    def test_blowup_gram(self):
        gram = [[1, 0, 0], [0, -1, 0], [0, 0, -1]]
        assert inertia(gram) == (1, 2, 0)

    def test_matches_definiteness(self):
        rng = random.Random(41)
        for _ in range(200):
            n = rng.randint(1, 4)
            m = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    m[i][j] = m[j][i] = rng.randint(-4, 4)
            pos, neg, zero = inertia(m)
            assert pos + neg + zero == n
            assert is_negative_definite(m) == (neg == n)


class TestSmallHelpers:
    def test_cross_normal_2d(self):
        assert cross_normal([(0, 1)], 2) == (1, 0)

    def test_cross_normal_orthogonal(self):
        rows = [(1, 0, 1), (0, 1, 1)]
        n = cross_normal(rows, 3)
        assert all(sum(a * b for a, b in zip(n, row)) == 0 for row in rows)

    def test_solve_possibly_singular_inconsistent(self):
        assert solve_possibly_singular([[1, 1], [1, 1]], [0, 1]) is None

    def test_solve_possibly_singular_underdetermined(self):
        sol = solve_possibly_singular([[1, 1]], [2])
        assert sol is not None and sol[1] is False
