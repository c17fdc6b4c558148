"""The exact linear algebra checked against sympy as an independent oracle.

Inputs are seeded random int and Fraction matrices, many of them rank
deficient (built as a product L R through a smaller inner dimension) and
many rectangular.  The smoothness of a simplicial cone is checked against
sympy's invariant factors of its ray matrix.
"""

import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest

sympy = pytest.importorskip("sympy")
from sympy.matrices.normalforms import invariant_factors  # noqa: E402
from sympy.polys.domains import ZZ  # noqa: E402

from helpers import entry_variants, mat_vec, random_q_gorenstein_cone  # noqa: E402
from mmpkit.errors import SingularMatrixError  # noqa: E402
from mmpkit.linalg import (  # noqa: E402
    det_bareiss,
    inertia,
    integer_kernel,
    is_negative_definite,
    matrix_rank,
    solve_exact,
)
from mmpkit.toric import ConeClass, classify_cone, cone_from_rays, q_gorenstein_functional  # noqa: E402

CASES = 100


def to_sympy(a):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in a])


def random_matrix(rng, rows, cols, fractions=False):
    """Entries in [-4, 4], or a product through a smaller inner dimension."""
    if rng.random() < 0.5:
        inner = rng.randint(0, min(rows, cols))
        left = [[rng.randint(-2, 2) for _ in range(inner)] for _ in range(rows)]
        right = [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(inner)]
        a = [[sum(l * r for l, r in zip(lrow, col)) for col in zip(*right)] for lrow in left]
        if inner == 0:
            a = [[0] * cols for _ in range(rows)]
    else:
        a = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
    if fractions:
        a = [[Fraction(x, rng.randint(1, 5)) for x in row] for row in a]
    return a


def random_symmetric(rng, n, fractions=False):
    """Symmetric; half are -(B^T B) minus a small shift, often definite."""
    if rng.random() < 0.5:
        b = random_matrix(rng, rng.randint(1, n + 1), n)
        shift = rng.randint(0, 1)
        a = [
            [-sum(r[i] * r[j] for r in b) - (shift if i == j else 0) for j in range(n)]
            for i in range(n)
        ]
    else:
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                a[i][j] = a[j][i] = rng.randint(-4, 4)
    if fractions:
        d = rng.randint(1, 5)
        a = [[Fraction(x, d) for x in row] for row in a]
    return a


def rational_vector(rng, n, fractions):
    return [Fraction(rng.randint(-5, 5), rng.randint(1, 4) if fractions else 1) for _ in range(n)]


def sign_changes(coeffs):
    signs = [c > 0 for c in coeffs if c != 0]
    return sum(x != y for x, y in zip(signs, signs[1:]))


def descartes_inertia(a):
    """A symmetric matrix has only real eigenvalues, so Descartes' rule of
    signs counts the positive roots of its characteristic polynomial p(x)
    exactly, and those of p(-x) count the negative ones."""
    p = to_sympy(a).charpoly(sympy.Symbol("x"))
    low_first = p.all_coeffs()[::-1]
    mirrored = [c * (-1) ** k for k, c in enumerate(low_first)]
    zero = next(k for k, c in enumerate(low_first) if c != 0)
    return sign_changes(low_first), sign_changes(mirrored), zero


class TestAgainstSympy:
    def test_det_bareiss(self):
        rng = random.Random(101)
        for i in range(CASES):
            n = rng.randint(1, 5)
            a = random_matrix(rng, n, n)
            det = det_bareiss(a)
            assert det == to_sympy(a).det(), a
            assert isinstance(det, int)

    def test_matrix_rank(self):
        rng = random.Random(102)
        for i in range(CASES):
            a = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 6), fractions=i % 2 == 1)
            assert matrix_rank(a) == to_sympy(a).rank(), a

    def test_solve_exact(self):
        rng = random.Random(103)
        for i in range(CASES):
            n = rng.randint(1, 5)
            fractions = i % 2 == 1
            a = random_matrix(rng, n, n, fractions)
            b = rational_vector(rng, n, fractions)
            if to_sympy(a).det() == 0:
                with pytest.raises(SingularMatrixError):
                    solve_exact(a, b)
            else:
                x = solve_exact(a, b)
                assert all(isinstance(v, Fraction) for v in x)
                assert list(mat_vec(a, x)) == b, (a, b)

    def test_q_gorenstein_functional(self):
        # full-dimensional cones of rank 1-4, Q-Gorenstein or on random rays (up
        # to two more than the rank), simplicial or not: m is sympy's unique
        # solution of rays . m = 1, or None when that system is inconsistent
        rng = random.Random(104)
        seen = Counter()
        for k in range(2 * CASES):
            d = rng.randint(1, 4)
            if k % 2 or d == 1:
                cone = random_q_gorenstein_cone(rng, d, rng.randint(0, 2) if d > 1 else 0)
            else:
                rays = {tuple(x // gcd(*r) for x in r) for r in random_matrix(rng, rng.randint(d, d + 2), d) if any(r)}
                if not rays or matrix_rank(list(rays)) < d:
                    continue
                cone = cone_from_rays(sorted(rays))
            try:
                solution, free = sympy.Matrix(cone.rays).gauss_jordan_solve(sympy.ones(len(cone.rays), 1))
            except ValueError:
                expected = None
            else:
                assert free.shape[0] == 0, cone.rays
                expected = tuple(Fraction(int(x.p), int(x.q)) for x in solution)
            assert q_gorenstein_functional(cone) == expected, cone.rays
            seen[expected is not None, len(cone.rays) > d] += 1
        # a simplicial full-dimensional cone always has m
        assert seen[False, False] == 0 and min(seen[True, False], seen[True, True], seen[False, True]) >= 20, seen

    def test_is_negative_definite(self):
        rng = random.Random(105)
        seen = set()
        for i in range(CASES):
            a = random_symmetric(rng, rng.randint(1, 5), fractions=i % 2 == 1)
            verdict = is_negative_definite(a)
            assert verdict == to_sympy(a).is_negative_definite, a
            seen.add(verdict)
        assert seen == {True, False}

    def test_smooth_iff_every_invariant_factor_is_one(self):
        # the cone on the primitive rows of a random nonsingular matrix
        rng = random.Random(106)
        verdicts = Counter()
        while sum(verdicts.values()) < CASES:
            n = rng.randint(1, 4)
            a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            if det_bareiss(a) == 0:
                continue
            rays = [[x // gcd(*row) for x in row] for row in a]
            factors = invariant_factors(sympy.Matrix(rays), domain=ZZ)
            smooth = classify_cone(cone_from_rays(rays)).kind is ConeClass.SMOOTH
            assert smooth == all(abs(int(f)) == 1 for f in factors), rays
            verdicts[smooth] += 1
        assert min(verdicts[True], verdicts[False]) >= 20, verdicts

    def test_integer_kernel(self):
        rng = random.Random(107)
        for _ in range(CASES):
            rows, cols = rng.randint(1, 4), rng.randint(1, 6)
            a = random_matrix(rng, rows, cols)
            basis = integer_kernel(a)
            assert len(basis) == cols - to_sympy(a).rank(), a
            for v in basis:
                assert mat_vec(a, v) == (0,) * rows, (a, v)
            if basis:
                # saturated: Z^n / span is torsion free, so every factor is 1
                factors = invariant_factors(sympy.Matrix(basis), domain=ZZ)
                assert [abs(int(f)) for f in factors] == [1] * len(basis), (a, basis)

    def test_int_fraction_mixed_and_bool_entries(self):
        # the branch for a matrix of exact ints and the rescale give sympy's
        # answers, a bool entry taking the rescale
        rng = random.Random(109)
        for i in range(CASES):
            n = rng.randint(1, 5)
            a = random_symmetric(rng, n) if i % 2 else random_matrix(rng, n, n)
            b = rational_vector(rng, n, fractions=False)
            for kind, m in entry_variants(rng, a).items():
                oracle = to_sympy(m)
                det = det_bareiss(m)
                assert det == oracle.det() and isinstance(det, int), (kind, m)
                assert matrix_rank(m) == oracle.rank(), (kind, m)
                if det:
                    assert list(mat_vec(m, solve_exact(m, b))) == b, (kind, m, b)
                if i % 2:
                    assert is_negative_definite(m) == oracle.is_negative_definite, (kind, m)
                    assert inertia(m) == descartes_inertia(m), (kind, m)

    def test_inertia(self):
        rng = random.Random(108)
        for i in range(CASES):
            n = rng.randint(1, 5)
            a = random_symmetric(rng, n, fractions=i % 2 == 1)
            assert inertia(a) == descartes_inertia(a), a
