"""Exact integer and rational linear algebra.

Everything here runs over Python's arbitrary-precision ``int`` and
``fractions.Fraction``; no floating point is used anywhere.  Vectors are
tuples of ints (or Fractions), matrices are tuples of row tuples.

The routines cover what the geometric layers need.  One fraction-free
(Bareiss) row echelon pass serves exact solving, rank, determinants and
the Sylvester negative-definiteness test, whose leading principal minors
are its pivots when no row swap is needed.  One column Hermite form
serves integer kernels in a canonical basis and the Smith normal form,
which alternates it on columns and rows.  Beside them sits the inertia
of a symmetric form.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import NotSymmetricError, SingularMatrixError, ZeroVectorError

IntVector = tuple[int, ...]
IntMatrix = tuple[tuple[int, ...], ...]
RatVector = tuple[Fraction, ...]
RatMatrix = tuple[tuple[Fraction, ...], ...]


def as_vector(v) -> IntVector:
    return tuple(int(x) for x in v)


def is_symmetric(a) -> bool:
    n = len(a)
    return all(len(row) == n for row in a) and all(
        a[i][j] == a[j][i] for i in range(n) for j in range(i + 1, n)
    )


def vector_gcd(v) -> int:
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    return g


def primitive(v) -> IntVector:
    """v divided by the gcd of its entries.  Raises ZeroVectorError on 0."""
    v = as_vector(v)
    g = vector_gcd(v)
    if g == 0:
        raise ZeroVectorError("the zero vector has no primitive representative")
    return tuple(x // g for x in v)


def dot(u, v):
    if len(u) != len(v):
        raise ValueError("dimension mismatch")
    return sum(x * y for x, y in zip(u, v))


def mat_vec(a, x):
    return tuple(dot(row, x) for row in a)


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def _echelon(rows):
    """Fraction-free (Bareiss) row echelon form: (m, pivots, swaps).

    m is the reduced rows as int lists, pivots the column of each pivot row
    and swaps the number of row swaps.  A row with Fraction entries is first
    scaled by the lcm of its denominators, which changes neither the rank
    nor the solution set.  By Sylvester's identity each division is exact,
    and pivot k is the minor of the swapped, scaled matrix on rows 0..k and
    columns pivots[0..k].
    """
    m = []
    for row in rows:
        den = lcm(*(x.denominator for x in row))
        m.append([x.numerator * (den // x.denominator) for x in row])
    pivots: list[int] = []
    swaps, prev = 0, 1
    for col in range(len(m[0]) if m else 0):
        r = len(pivots)
        p = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if p is None:
            continue
        if p != r:
            m[r], m[p] = m[p], m[r]
            swaps += 1
        top, pv = m[r], m[r][col]
        for i in range(r + 1, len(m)):
            row, f = m[i], m[i][col]
            row[col:] = [(pv * x - f * y) // prev for x, y in zip(row[col:], top[col:])]
        prev = pv
        pivots.append(col)
        if r + 1 == len(m):
            break
    return m, pivots, swaps


def _solve(a, b, cols):
    """(x, unique) for A x = b with the free variables 0, or None when the
    echelon form of [A | b] has a pivot in the column of b."""
    m, pivots, _ = _echelon([list(row) + [y] for row, y in zip(a, b)])
    if pivots and pivots[-1] == cols:
        return None
    # by Cramer's rule den * x is integral, den the last pivot (the minor
    # on the pivot rows and columns), so back-substitution stays in ints
    den = m[len(pivots) - 1][pivots[-1]] if pivots else 1
    y = [0] * cols
    for k in reversed(range(len(pivots))):
        row, c = m[k], pivots[k]
        y[c] = (den * row[cols] - sum(row[j] * y[j] for j in pivots[k + 1:])) // row[c]
    return tuple(Fraction(v, den) for v in y), len(pivots) == cols


def solve_exact(a, b) -> RatVector:
    """Solve A x = b exactly over the rationals.

    A must be square and nonsingular; entries may be ints or Fractions.
    Raises SingularMatrixError when det(A) = 0.
    """
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix is not square")
    if len(b) != n:
        raise ValueError("dimension mismatch between matrix and right-hand side")
    sol = _solve(a, b, n)
    if sol is None or not sol[1]:
        raise SingularMatrixError("matrix is singular")
    return sol[0]


def solve_possibly_singular(a, b):
    """Solve A x = b allowing rectangular / singular systems.

    Returns (solution, unique) where free variables are set to 0, or None
    when the system is inconsistent.
    """
    cols = len(a[0]) if a else 0
    if any(len(row) != cols for row in a):
        raise ValueError("matrix rows have unequal lengths")
    return _solve(a, b, cols)


def matrix_rank(a) -> int:
    return len(_echelon(a)[1])


def det_bareiss(a) -> int:
    """Exact determinant of an integer matrix from its Bareiss pivots."""
    n = len(a)
    if n == 0:
        return 1
    if any(len(row) != n for row in a):
        raise ValueError("matrix is not square")
    m, pivots, swaps = _echelon(a)
    if len(pivots) < n:
        return 0
    return (-1) ** swaps * m[-1][-1]


def is_negative_definite(a) -> bool:
    """Sylvester test: (-1)^k * (k-th leading principal minor) > 0 for all k.

    With no row swap, Bareiss pivot k is the (k+1)-th leading principal
    minor (row scaling by positive lcms keeps its sign); a swap or a skipped
    column means a leading minor vanished.
    """
    if not is_symmetric(a):
        raise NotSymmetricError("negative-definiteness test needs a symmetric matrix")
    m, pivots, swaps = _echelon(a)
    return (
        swaps == 0
        and pivots == list(range(len(a)))
        and all((-1) ** (k + 1) * m[k][k] > 0 for k in pivots)
    )


def smith_normal_form(a) -> list[int]:
    """Invariant factors d_1 | d_2 | ... | d_r of an integer matrix.

    Only the nonzero factors are returned, so the zero matrix yields [].
    Kannan and Bachem (SIAM J. Comput. 8, 1979): take the column Hermite
    form, drop its zero columns, transpose, and repeat until every column
    has one nonzero entry.  Hermite pivot rows are distinct, so the matrix
    is then monomial, and the gcd/lcm chain of its entries gives the
    factors.  The loop ends: after a round the top pivot g is alone in its
    row.  If g divides its column, the next round leaves it alone in its
    row and column too (the Hermite form of a lattice is unique), later
    rounds keep it so, and the argument repeats on the smaller block.  If
    not, the next round replaces g by the gcd of its column, a proper
    divisor.
    """
    cols = list(zip(*a))
    while True:
        cols = [c for c in column_hermite_form(cols) if any(c)]
        if all(sum(x != 0 for x in c) == 1 for c in cols):
            break
        cols = list(zip(*cols))
    factors = [next(x for x in c if x) for c in cols]
    # enforce the divisibility chain
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            if factors[j] % factors[i] != 0:
                g = gcd(factors[i], factors[j])
                factors[i], factors[j] = g, factors[i] * factors[j] // g
    return factors


def _combine_columns(cols, j0, j, row):
    """Unimodular combination putting gcd at (row, j0) and 0 at (row, j)."""
    a, b = cols[j0][row], cols[j][row]
    g, x, y = xgcd(a, b)
    u, v = a // g, b // g
    c0, c1 = cols[j0], cols[j]
    for k in range(len(c0)):
        c0[k], c1[k] = x * c0[k] + y * c1[k], -v * c0[k] + u * c1[k]


def column_hermite_form(columns) -> list[IntVector]:
    """Canonical column Hermite form of a set of columns.

    Pivot rows strictly increase left to right, pivots are positive, and in
    each pivot row the entries of earlier columns are reduced into
    [0, pivot).  Columns beyond the rank come out zero, at the end.  The
    result depends only on the lattice the columns span.
    """
    cols = [list(c) for c in columns]
    if not cols:
        return []
    nrows = len(cols[0])
    c = 0
    for row in range(nrows):
        if c >= len(cols):
            break
        nz = [j for j in range(c, len(cols)) if cols[j][row] != 0]
        if not nz:
            continue
        j0 = nz[0]
        for j in nz[1:]:
            _combine_columns(cols, j0, j, row)
        cols[c], cols[j0] = cols[j0], cols[c]
        if cols[c][row] < 0:
            cols[c] = [-x for x in cols[c]]
        piv = cols[c][row]
        for j in range(c):
            q = cols[j][row] // piv
            if q:
                cols[j] = [x - q * y for x, y in zip(cols[j], cols[c])]
        c += 1
    return [tuple(col) for col in cols]


def integer_kernel(a) -> list[IntVector]:
    """Basis of { x in Z^n : A x = 0 }, in canonical column Hermite form.

    The Hermite form of the columns of A stacked over the identity is
    [A; I] U with U unimodular; the bottom blocks of its columns with a
    zero top block are a kernel basis, already in Hermite form.
    """
    nr = len(a)
    nc = len(a[0]) if nr else 0
    stacked = [[row[j] for row in a] + [int(k == j) for k in range(nc)] for j in range(nc)]
    return [col[nr:] for col in column_hermite_form(stacked) if not any(col[:nr])]


def coordinates_in_basis(columns, v) -> IntVector:
    """Integer coordinates of v in an echelon (column Hermite form) basis.

    Raises ValueError when v is not in the lattice the columns span.
    """
    work = list(v)
    coeffs = []
    for col in columns:
        # a Hermite column is zero above its pivot, and often below it too
        support = [(i, x) for i, x in enumerate(col) if x]
        if not support:
            raise ValueError("zero column in basis")
        q, rem = divmod(work[support[0][0]], support[0][1])
        if rem != 0:
            raise ValueError("vector is not in the lattice spanned by the basis")
        coeffs.append(q)
        if q:
            for i, x in support:
                work[i] -= q * x
    if any(w != 0 for w in work):
        raise ValueError("vector is not in the lattice spanned by the basis")
    return tuple(coeffs)


def inertia(a) -> tuple[int, int, int]:
    """Signature (n_plus, n_minus, n_zero) of a symmetric matrix.

    Symmetric fraction-free elimination with diagonal pivots, after scaling
    by the lcm of the denominators.  As in Bareiss, the remaining block is
    prev times the Schur complement, prev the last pivot (a principal
    minor), so the sign of pivot / prev is the sign of a Gaussian pivot.
    With no nonzero diagonal left, the congruence adding row/column j to
    row/column i makes m[i][i] = 2 m[i][j].
    """
    if not is_symmetric(a):
        raise NotSymmetricError("inertia needs a symmetric matrix")
    n = len(a)
    den = lcm(*(x.denominator for row in a for x in row))
    m = [[x.numerator * (den // x.denominator) for x in row] for row in a]
    remaining = list(range(n))
    pos = neg = 0
    prev = 1
    while remaining:
        piv = next((i for i in remaining if m[i][i] != 0), None)
        if piv is None:
            pair = next(
                ((i, j) for i in remaining for j in remaining if i < j and m[i][j] != 0),
                None,
            )
            if pair is None:
                break
            i, j = pair
            for k in remaining:
                m[i][k] += m[j][k]
            for k in remaining:
                m[k][i] += m[k][j]
            piv = i
        d = m[piv][piv]
        if (d > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        remaining.remove(piv)
        top = m[piv]
        for i in remaining:
            row, f = m[i], m[i][piv]
            for j in remaining:
                row[j] = (d * row[j] - f * top[j]) // prev
        prev = d
    return pos, neg, n - pos - neg


def cross_normal(rows, dim) -> IntVector:
    """Generalized cross product: an integer normal to dim-1 row vectors."""
    if len(rows) != dim - 1:
        raise ValueError("need exactly dim-1 vectors")
    normal = []
    for i in range(dim):
        minor = [[row[j] for j in range(dim) if j != i] for row in rows]
        normal.append((-1) ** i * det_bareiss(minor))
    return tuple(normal)
