"""Exact integer and rational linear algebra.

Everything here runs over Python's arbitrary-precision ``int`` and
``fractions.Fraction``; no floating point is used anywhere.  Vectors are
tuples of ints (or Fractions), matrices are tuples of row tuples.

The routines cover what the geometric layers need.  One fraction-free
(Bareiss) elimination, which leaves alone the rows a pivot does not
reach, serves two pivot rules.  The echelon rule, the first column with
a nonzero and its first such row, gives rank, determinants and, kept for
the last square matrix by its value, the factorization that exact
solving replays on the right-hand side, whose pivots decide definiteness
by Sylvester's criterion and whose rows drive ``ellipsoid_points``, the
Fincke-Pohst search for the integer points on a positive-definite
ellipsoid (its oracle, ``naive_ellipsoid_points`` in the tests, scans a
box proven to hold them all); the symmetric rule, a nonzero diagonal
entry, gives the signature of a form (``inertia``).  One column Hermite
form serves the coset boxes of ``toric`` and integer kernels in a
canonical basis, in which a vector's coordinates are read one way:
``column_supports`` of the basis once, which carry the columns' length,
then ``coordinates_in_supports``, which checks it.  Beside them sits the
toolkit's one rule for integer input (``as_int``, ``as_vector``,
``as_rows``): an int that is not a bool, in a list or tuple, is kept as
given, and anything else is ``wrong_type``.  A rational slot
(``as_fraction``) takes such an int or a ``Fraction``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd, isqrt, lcm
from operator import mul

from .errors import InvalidInputError, NotSymmetricError, SingularMatrixError, ZeroVectorError

IntVector = tuple[int, ...]
IntMatrix = tuple[tuple[int, ...], ...]
RatVector = tuple[Fraction, ...]
RatMatrix = tuple[tuple[Fraction, ...], ...]


def as_int(x, field: str) -> int:
    """x itself when it is an int and not a bool, else a wrong_type error on field."""
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    raise InvalidInputError(f"expected an integer, got {x!r}", "wrong_type", field)


def as_fraction(x, field: str) -> Fraction:
    """x as a Fraction when it is one or an int that is not a bool, else a wrong_type error on field."""
    if isinstance(x, Fraction) or (isinstance(x, int) and not isinstance(x, bool)):
        return Fraction(x)
    raise InvalidInputError(f"expected an integer or a Fraction, got {x!r}", "wrong_type", field)


def as_vector(v, field: str) -> IntVector:
    """v as a tuple: a list or tuple whose entries pass as_int on field[k]."""
    if not isinstance(v, (list, tuple)):
        raise InvalidInputError("expected a list of integers", "wrong_type", field)
    return tuple(x if type(x) is int else as_int(x, f"{field}[{k}]") for k, x in enumerate(v))


def as_rows(rows, field: str) -> IntMatrix:
    """rows as a tuple of as_vector tuples; a rows that is no list or tuple is wrong_type on field."""
    if not isinstance(rows, (list, tuple)):
        raise InvalidInputError("expected a list", "wrong_type", field)
    return tuple(as_vector(row, f"{field}[{k}]") for k, row in enumerate(rows))


def is_symmetric(a) -> bool:
    # zip stops at the shortest row, so only a square a can equal its transpose
    return list(zip(*a)) == list(map(tuple, a))


def primitive(v) -> IntVector:
    """v divided by the gcd of its entries.  Raises ZeroVectorError on 0."""
    v = as_vector(v, "v")
    g = gcd(*v)
    if g == 0:
        raise ZeroVectorError("the zero vector has no primitive representative")
    return tuple(x // g for x in v)


def dot(u, v):
    if len(u) != len(v):
        raise ValueError("dimension mismatch")
    return sum(map(mul, u, v))


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


def _eliminate(a, symmetric=False, ops=None):
    """Fraction-free (Bareiss) elimination of a: (m, order, den).

    a, each entry read as the Fraction it equals, is scaled by den, the lcm
    of its denominators, into the int rows m, which changes neither the rank
    nor the solution set; exact ints (no bool) give den = 1 and are only
    copied.  order is the (row, column) of each pivot.  The echelon rule pivots on the first
    column with a nonzero in a live row, in its first such row.  The
    symmetric rule pivots on a nonzero diagonal entry; with none left, the
    congruence adding row and column j to row and column i makes
    m[i][i] = 2 m[i][j].  As in Bareiss, a live entry is prev times a
    Gaussian one, prev the last pivot, and pivot k is the minor of the
    scaled matrix on the first k + 1 pivot rows and columns, in pivot
    order.  A row with a 0 in the pivot column would only be scaled by
    pivot / prev, so it is left alone: it is prev / at[i] times its Bareiss
    row, at[i] the pivot that last reached it, so its next update divides
    by at[i] instead of prev, exactly by Sylvester's identity, and a chain
    or a tree costs O(n^2), not O(n^3).  A pivot row is brought to scale
    and then kept; only its entries in the columns live then are read.
    A list ops gets, per pivot, the scale its row had and the (row, entry
    in the pivot column, divisor) of each row it reached.
    """
    m, den = [list(row) for row in a], 1
    if not all([type(x) is int for row in m for x in row]):
        a = [[Fraction(x) for x in row] for row in m]
        den = lcm(*(x.denominator for row in a for x in row))
        m = [[x.numerator * (den // x.denominator) for x in row] for row in a]
    rows, at, order, prev = list(range(len(m))), [1] * len(m), [], 1
    cols = rows if symmetric else range(len(m[0]) if m else 0)
    while rows:
        if not symmetric:
            for c in cols:
                for p in rows:
                    if m[p][c]:
                        break
                else:
                    continue
                break
            else:
                break  # no nonzero in a live row
            cols = range(c + 1, cols.stop)
        elif (p := next((i for i in rows if m[i][i]), None)) is None:
            p, j = next(((i, j) for i in rows for j in rows if m[i][j]), (None, None))
            if p is None:
                break
            m[p], at[p] = [x * prev // at[p] + y * prev // at[j] for x, y in zip(m[p], m[j])], prev
            for k in rows:
                m[k][p] += m[k][j]
        if symmetric:
            c = p
        if at[p] != prev:
            m[p] = [x * prev // at[p] for x in m[p]]
        top, d = m[p], m[p][c]
        rows.remove(p)
        reached = [(i, m[i][c], at[i]) for i in rows if m[i][c]]
        for i, f, q in reached:
            row, at[i] = m[i], d
            for j in cols:
                row[j] = (d * row[j] - f * top[j]) // q
        if ops is not None:
            ops.append((at[p], reached))
        order.append((p, c))
        prev = d
    return m, order, den


@lru_cache(maxsize=1)
def _factor(a):
    """The echelon elimination of the square matrix a, a tuple of row
    tuples, with its row operations: (m, order, den, ops).  The last is
    kept, so the readers of one form, which change none of it, share it."""
    ops = []
    return *_eliminate(a, ops=ops), ops


def solve_exact(a, b) -> RatVector:
    """Solve A x = b exactly over the rationals.

    A must be square and nonsingular; each entry of A and of b, an int,
    Fraction, float or Decimal, is read by value as the Fraction it equals.
    Raises ValueError when A is not square, then when b is not of its
    length, and SingularMatrixError when det(A) = 0.
    """
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix is not square")
    if len(b) != n:
        raise ValueError("dimension mismatch between matrix and right-hand side")
    m, order, den, ops = _factor(tuple(map(tuple, a)))
    if len(order) < n:
        raise SingularMatrixError("matrix is singular")
    b = [y if isinstance(y, (int, Fraction)) else Fraction(y) for y in b]
    # v = s b in ints is the last column of [den A | v] under the row operations, exactly
    s = lcm(*(y.denominator for y in b))
    v, prev = [y.numerator * (s // y.denominator) for y in b], 1
    for (p, c), (at, reached) in zip(order, ops):
        v[p] = v[p] * prev // at
        prev = m[p][c]
        for i, f, q in reached:
            v[i] = (prev * v[i] - f * v[p]) // q
    # by Cramer's rule det * y is integral for (den A) y = v, det the last pivot
    # (the minor on the pivot rows and columns), so x = den y / s is found in ints
    det = m[order[-1][0]][n - 1] if n else 1
    x = [0] * n
    for p, c in reversed(order):
        row = m[p]
        x[c] = (det * v[p] - sum(map(mul, row[c + 1 :], x[c + 1 :]))) // row[c]
    return tuple(Fraction(y * den, det * s) for y in x)


def matrix_rank(a) -> int:
    return len(_eliminate(a)[1])


def det_bareiss(a) -> int | Fraction:
    """Exact determinant of a square matrix, each entry read as the Fraction
    it equals, an int when every entry is an int.

    The last pivot is the determinant of den * A with its rows in pivot
    order, so det A is that pivot over den^n, negated when the order is odd.
    """
    n = len(a)
    if n == 0:
        return 1
    if any(len(row) != n for row in a):
        raise ValueError("matrix is not square")
    m, order, den = _eliminate(a)
    if len(order) < n:
        return 0
    perm = [p for p, _ in order]
    det = (-1) ** sum(x > y for x, y in combinations(perm, 2)) * m[perm[-1]][n - 1]
    return det if den == 1 else Fraction(det, den**n)


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
    a = as_rows(a, "a")
    nr = len(a)
    nc = len(a[0]) if nr else 0
    for k, row in enumerate(a):
        if len(row) != nc:
            raise InvalidInputError(f"expected {nc} entries, as in a[0]", "row_length", f"a[{k}]")
    stacked = [[row[j] for row in a] + [int(k == j) for k in range(nc)] for j in range(nc)]
    return [col[nr:] for col in column_hermite_form(stacked) if not any(col[:nr])]


class _Supports(tuple):
    """The supports of a basis's columns; ``length`` is the columns' length."""


def column_supports(columns) -> _Supports:
    """The (row, entry) pairs of the nonzeros of each column of an echelon
    basis, as tuples that record the columns' length, read once for any
    number of coordinates_in_supports calls.

    Raises ValueError on a zero column, then on columns of different lengths.
    """
    supports = _Supports([tuple([(i, x) for i, x in enumerate(col) if x]) for col in columns])
    if not all(supports):
        raise ValueError("zero column in basis")
    supports.length = len(columns[0]) if supports else 0
    if any(len(col) != supports.length for col in columns):
        raise ValueError("basis columns of different lengths")
    return supports


def coordinates_in_supports(supports, v) -> IntVector:
    """Integer coordinates of v in the echelon basis with these column_supports;
    a ValueError when v is not of their columns' length or not in their lattice."""
    if supports and len(v) != supports.length:
        raise ValueError(f"vector of length {len(v)}, basis columns of length {supports.length}")
    work = list(v)
    coeffs = []
    # a Hermite column is zero above its pivot, and often below it too
    for support in supports:
        p, piv = support[0]
        q, rem = divmod(work[p], piv)
        if rem != 0:
            raise ValueError("vector is not in the lattice spanned by the basis")
        coeffs.append(q)
        if q:
            for i, x in support:
                work[i] -= q * x
    if any(work):
        raise ValueError("vector is not in the lattice spanned by the basis")
    return tuple(coeffs)


def _signature(a) -> tuple[int, int, int]:
    """(n_plus, n_minus, n_zero) of a symmetric matrix from its symmetric
    pivots: pivot / prev has the sign of a Gaussian pivot, prev the one
    before it."""
    m, order, _ = _eliminate(a, symmetric=True)
    pos, prev = 0, 1
    for p, _ in order:
        pos += (m[p][p] > 0) == (prev > 0)
        prev = m[p][p]
    return pos, len(order) - pos, len(a) - len(order)


def inertia(a) -> tuple[int, int, int]:
    """Signature (n_plus, n_minus, n_zero) of a symmetric matrix."""
    if not is_symmetric(a):
        raise NotSymmetricError("inertia needs a symmetric matrix")
    return _signature(a)


def is_negative_definite(a) -> bool:
    """True when the leading minors D_k of the symmetric matrix a have the signs
    (-1)^k (Sylvester): its echelon pivots run down the diagonal in order, as
    den^k D_k, since a pivot off it means some D_k = 0."""
    if not is_symmetric(a):
        raise NotSymmetricError("negative-definiteness test needs a symmetric matrix")
    m, order, _, _ = _factor(tuple(map(tuple, a)))
    alternating = (p == c == k and (m[p][c] > 0) == (k % 2 == 1) for k, (p, c) in enumerate(order))
    return len(order) == len(a) and all(alternating)


def ellipsoid_points(a, b, r) -> list[IntVector]:
    """Every integer w with w^T A w - 2 b.w = r, in search order, for A a
    symmetric positive-definite int matrix and b, r ints (Fincke-Pohst).

    With m = A^-1 b, row_k the Bareiss rows of A and D_k its leading minors,
    that is sum_k (row_k . (w - m))^2 / (D_k D_{k+1}) = R, and det(A) m,
    row_k . m and det(A) R are integral: scaled by N = lcm of the D_k D_{k+1},
    each bound on w_k is an integer test, and w_0 is solved for.  Raises
    ValueError unless A is square, symmetric and positive definite (Sylvester:
    each D_k > 0; a pivot off the diagonal leaves its D_k = 0) and b is of its length."""
    d = len(a)
    if not is_symmetric(a):
        raise ValueError("matrix is not square and symmetric")
    m = _factor(tuple(map(tuple, a)))[0]
    minors = [1] + [m[k][k] for k in range(d)]
    if min(minors) <= 0:
        raise ValueError("matrix is not positive definite")
    det = minors[d]
    det_m = [c.numerator * (det // c.denominator) for c in solve_exact(a, b)]
    det_radius = det * r + sum(map(mul, b, det_m))
    shifts = [sum(map(mul, m[k][k:], det_m[k:])) // det for k in range(d)]
    scale = lcm(*(minors[k] * minors[k + 1] for k in range(d)))
    weights = [scale // (minors[k] * minors[k + 1]) for k in range(d)]
    w, out = [0] * d, []

    def descend(k, budget, c):
        # c = row_k . (w - m) without the w_k term
        piv, weight = minors[k + 1], weights[k]
        h = isqrt(budget // weight)
        if k == 0:
            # the last coordinate must use up the budget exactly
            for t in {h, -h} if weight * h * h == budget else ():
                w[0], off = divmod(t - c, piv)
                if off == 0:
                    out.append(tuple(w))
            return
        row, lo = m[k - 1], -((h + c) // piv)
        cc = sum(map(mul, row[k + 1 :], w[k + 1 :])) - shifts[k - 1] + lo * row[k]
        for wk in range(lo, (h - c) // piv + 1):
            t = piv * wk + c
            w[k] = wk
            descend(k - 1, budget - weight * t * t, cc)
            cc += row[k]

    if d and det_radius >= 0:
        descend(d - 1, det_radius * (scale // det), -shifts[d - 1])
    return out if d else [()] if r == 0 else []


def cross_normal(rows, dim) -> IntVector:
    """Generalized cross product: an integer normal to dim-1 row vectors, the signed
    minors of their matrix; a 1x1 minor is its entry and a 2x2 one ad - bc."""
    if len(rows) != dim - 1:
        raise ValueError("need exactly dim-1 vectors")
    if dim == 2:
        ((a, b),) = rows
        return (b, -a)
    if dim == 3:
        (a, b, c), (d, e, f) = rows
        return (b * f - c * e, c * d - a * f, a * e - b * d)
    normal = []
    for i in range(dim):
        minor = [[row[j] for j in range(dim) if j != i] for row in rows]
        normal.append((-1) ** i * det_bareiss(minor))
    return tuple(normal)
