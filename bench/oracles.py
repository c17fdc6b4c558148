"""Answer checks that do not go through mmpkit's code paths.

Each check takes plain data (ints, Fractions, strings, lists) and raises
WrongAnswer when the answer contradicts an identity of the mathematics:
the classical list of (-1)-classes on the plane blown up in r <= 8
points, the invariants of a finished surface MMP, M.d = rhs for dual
graph discrepancies, the determinant of an ADE Cartan matrix, a direct
scan of the toric lattice points under the support functional, and exact
integer comparisons for the plurigenus growth estimate.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm


class WrongAnswer(Exception):
    """An answer that contradicts its oracle."""


def expect(condition, message):
    if not condition:
        raise WrongAnswer(message)


# -- small exact linear algebra (independent of mmpkit.linalg) -----------------


def pair(gram, x, y):
    return sum(x[i] * gram[i][j] * y[j] for i in range(len(x)) for j in range(len(y)))


def det(rows) -> Fraction:
    m = [[Fraction(x) for x in row] for row in rows]
    n, sign, out = len(m), 1, Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p], sign = m[p], m[c], -sign
        out *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return sign * out


def negative_definite(rows) -> bool:
    """Sylvester: the k-th leading minor has sign (-1)^k for every k."""
    return all(
        (-1) ** k * det([row[:k] for row in rows[:k]]) > 0 for k in range(1, len(rows) + 1)
    )


def unique_solution(rows, rhs):
    """The unique x with rows . x = rhs, or None when there is none or many."""
    ncols = len(rows[0])
    m = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            return None
        m[r], m[p] = m[p], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    if any(row[-1] for row in m[r:]):
        return None
    return tuple(m[i][-1] for i in range(ncols))


# -- (-1)-classes on the plane blown up in r <= 8 points -----------------------

# Classes a H - sum m_i E_i by degree a (Manin, Cubic Forms, IV.26); E_i is
# written with coefficient +1.  Each entry: degree, multiset of E-coefficients.
_MINUS_ONE_TYPES = (
    (0, (1,)),
    (1, (-1, -1)),
    (2, (-1,) * 5),
    (3, (-2,) + (-1,) * 6),
    (4, (-2,) * 3 + (-1,) * 5),
    (5, (-2,) * 6 + (-1,) * 2),
    (6, (-3,) + (-2,) * 7),
)

def _placements(r, values):
    """Every vector of length r holding the multiset `values`, zeros elsewhere."""
    if not values:
        yield (0,) * r
        return
    head = values[0]
    count = values.count(head)
    rest = tuple(v for v in values if v != head)
    for where in combinations(range(r), count):
        for tail in _placements(r - count, rest):
            it = iter(tail)
            yield tuple(head if i in where else next(it) for i in range(r))


def standard_minus_one_classes(r: int) -> list[tuple[int, ...]]:
    """All (-1)-classes of the standard blow-up lattice, sorted."""
    out = set()
    for a, coeffs in _MINUS_ONE_TYPES:
        if len(coeffs) <= r:
            out.update((a,) + v for v in _placements(r, coeffs))
    return sorted(out)


# -- surface MMP ----------------------------------------------------------------


def check_mmp(rank, k2, steps, final_rank, final_gram, final_k, outcome, fibre, first=None):
    """Invariants of a finished MMP on a rational surface.

    `steps` is a list of (contracted, rank_before, rank_after); `first` is
    the lexicographically smallest (-1)-class of the input, when known.
    """
    expect(all(b - a == 1 for _, b, a in steps), "a step does not drop the rank by one")
    expect(final_rank == rank - len(steps), "final rank does not match the step count")
    fk2 = pair(final_gram, final_k, final_k)
    expect(fk2 == k2 + len(steps), f"K^2 went {k2} -> {fk2} over {len(steps)} contractions")
    if first is not None:
        expect(steps and tuple(steps[0][0]) == tuple(first), "first contraction is not the smallest class")
    if outcome == "MoriFibreP2like":
        expect(final_rank == 1 and fk2 == 9, "P2-like end needs rank 1 and K^2 = 9")
    elif outcome == "MoriFibreRuled":
        expect(final_rank == 2 and fk2 == 8, "ruled end needs rank 2 and K^2 = 8")
        expect(fibre is not None, "ruled end without a fibre")
        expect(pair(final_gram, fibre, fibre) == 0, "fibre has f^2 != 0")
        expect(pair(final_gram, final_k, fibre) < 0, "fibre has K.f >= 0")
    else:
        raise WrongAnswer(f"a rational surface cannot end as {outcome}")


# -- dual graphs ----------------------------------------------------------------


def graph_matrix(vertices, edges):
    n = len(vertices)
    m = [[0] * n for _ in range(n)]
    for i, (_, s) in enumerate(vertices):
        m[i][i] = s
    for i, j, mult in edges:
        m[i][j] += mult
        m[j][i] += mult
    return m


def du_val_name(vertices, edges, boundary):
    """ADE name from the vertex count and det of the Cartan matrix."""
    n = len(vertices)
    if boundary or any(v != (0, -2) for v in vertices) or any(e[2] != 1 for e in edges):
        return None
    if len(edges) != n - 1:
        return None
    degree = [0] * n
    for i, j, _ in edges:
        degree[i] += 1
        degree[j] += 1
    cartan_det = abs(det(graph_matrix(vertices, edges)))
    if max(degree, default=0) <= 2 and cartan_det == n + 1:
        return f"A{n}"
    if cartan_det == 4 and n >= 4:
        return f"D{n}"
    if 6 <= n <= 8 and cartan_det == 9 - n:
        return f"E{n}"
    return None


def check_graph(vertices, edges, boundary, d, kind, du_val, minimal):
    """M.d = K-degrees + boundary, and the class thresholds on d.

    vertices: [(genus, self_int)], edges: [(i, j, mult)],
    boundary: [(coeff, [(vertex, mult)])], d: Fractions.
    """
    n = len(vertices)
    m = graph_matrix(vertices, edges)
    expect(len(d) == n, "one discrepancy per vertex")
    for j, (g, s) in enumerate(vertices):
        rhs = 2 * g - 2 - s + sum(Fraction(c) * k for c, meets in boundary for v, k in meets if v == j)
        expect(sum(d[i] * m[i][j] for i in range(n)) == rhs, f"M.d != rhs at vertex {j}")
    touching = [Fraction(c) for c, meets in boundary if meets]
    if all(x > 0 for x in d):
        want = "TerminalRel"
    elif all(x >= 0 for x in d):
        want = "Canonical"
    elif all(x > -1 for x in d) and all(c < 1 for c in touching):
        want = "Klt"
    elif all(x >= -1 for x in d) and all(c <= 1 for c in touching):
        want = "Lc"
    else:
        want = "NotLc"
    expect(kind == want, f"class {kind}, expected {want}")
    expect(du_val == du_val_name(vertices, edges, boundary), f"Du Val name {du_val!r}")
    expect(minimal == all(2 * g - 2 - s >= 0 for g, s in vertices), "minimal-resolution flag")


def single_curve_discrepancy(a: int) -> Fraction:
    """Discrepancy of contracting a rational curve with self-intersection -a."""
    return Fraction(a - 2, -a)


# -- toric cones ----------------------------------------------------------------


def _facet_normals(rays):
    d = len(rays[0])
    if d == 2:
        candidates = [(-y, x) for x, y in rays]
    else:
        candidates = [
            (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])
            for u, v in combinations(rays, 2)
        ]
    normals = []
    for h in candidates:
        values = [sum(a * b for a, b in zip(h, r)) for r in rays]
        if all(v >= 0 for v in values) and any(values):
            normals.append(h)
        elif all(v <= 0 for v in values) and any(values):
            normals.append(tuple(-x for x in h))
    return normals


def toric_expectation(rays):
    """Class, Q-factoriality, index, support functional and points m(P) <= 1.

    Rank 2 or 3; the points come from a scan of the rays' bounding box.
    """
    d = len(rays[0])
    q_factorial = len(rays) == d
    m = unique_solution(rays, [1] * len(rays))
    if m is None:
        return "NotQGorenstein", q_factorial, None, None, []
    normals = _facet_normals(rays)
    lows = [min(0, *(r[i] for r in rays)) for i in range(d)]
    highs = [max(0, *(r[i] for r in rays)) for i in range(d)]
    points = [
        p
        for p in product(*(range(lo, hi + 1) for lo, hi in zip(lows, highs)))
        if any(p)
        and all(sum(a * b for a, b in zip(h, p)) >= 0 for h in normals)
        and sum(c * x for c, x in zip(m, p)) <= 1
    ]
    ray_set = set(map(tuple, rays))
    extras = [p for p in points if p not in ray_set]
    if q_factorial and abs(det(rays)) == 1:
        kind = "Smooth"
    elif not extras:
        kind = "Terminal"
    elif all(sum(c * x for c, x in zip(m, p)) == 1 for p in extras):
        kind = "Canonical"
    else:
        kind = "KltOnly"
    return kind, q_factorial, lcm(*(x.denominator for x in m)), m, points


def check_cone_family(a, kind, gorenstein, m, points):
    """Closed form for the cone with rays (0,1), (a,-1).

    m = (2/a, 1); the points with m <= 1 are (0,1), (x,0) for
    1 <= x <= a/2, and (a,-1); smooth at a = 1, canonical at a = 2.
    """
    want_kind = "Smooth" if a == 1 else "Canonical" if a == 2 else "KltOnly"
    expect(kind == want_kind, f"a={a}: class {kind}, expected {want_kind}")
    expect(gorenstein == a // gcd(a, 2), f"a={a}: Gorenstein index {gorenstein}")
    expect(tuple(m) == (Fraction(2, a), 1), f"a={a}: support functional {m}")
    want = [(0, 1)] + [(x, 0) for x in range(1, a // 2 + 1)] + [(a, -1)]
    expect([tuple(p) for p in points] == want, f"a={a}: wrong lattice points")


def check_cone(rays, kind, q_factorial, gorenstein, m, points):
    want = toric_expectation(rays)
    expect(kind == want[0], f"class {kind}, expected {want[0]}")
    expect(q_factorial == want[1], "Q-factorial flag")
    expect(gorenstein == want[2], f"Gorenstein index {gorenstein}, expected {want[2]}")
    expect((None if m is None else tuple(m)) == want[3], "support functional")
    expect([tuple(p) for p in points] == want[4], "lattice points with m <= 1")


def toric_discrepancy(rays, point) -> Fraction:
    m = unique_solution(rays, [1] * len(rays))
    return sum(c * x for c, x in zip(m, point)) - 1


# -- curve-level invariants ------------------------------------------------------


def kappa_expectation(samples, max_dim):
    """The plurigenus growth estimate by exact integer comparisons.

    -inf when every sample vanishes, 0 when the top half is constant, else
    the integer k nearest to log(p2/p1) / log(m2/m1), found by comparing
    (p2/p1)^2 with (m2/m1)^(2k+1), clamped to [1, max_dim].
    """
    pts = sorted(samples)
    if all(p == 0 for _, p in pts):
        return "-inf"
    positive = [(m, p) for m, p in pts if p > 0]
    top = [p for _, p in pts[min(len(pts) // 2, len(pts) - 2):]]
    if len(set(top)) == 1 and top[0] > 0:
        return 0
    (m1, p1), (m2, p2) = positive[-2], positive[-1]
    k = 0
    # k rounds the slope: (p2/p1)^2 > (m2/m1)^(2k+1) means the slope exceeds k + 1/2
    while p2 ** 2 * m1 ** (2 * k + 1) > p1 ** 2 * m2 ** (2 * k + 1):
        k += 1
        if max_dim is not None and k > max_dim:
            break
    k = max(1, k)
    return k if max_dim is None else min(k, max_dim)


def pair_expectation(coeffs):
    cs = [Fraction(c) for c in coeffs]
    if all(c == 0 for c in cs):
        kind = "CanonicalOrTerminal"
    elif all(c < 1 for c in cs):
        kind = "Klt"
    elif all(c <= 1 for c in cs):
        kind = "Lc"
    else:
        kind = "NotLc"
    fano = sum(cs) < 2 if all(0 <= c <= 1 for c in cs) else None
    return kind, fano


def cone_rays_expectation(curves):
    """Boundary rays of the planar cone spanned by the curve classes."""
    dirs = []
    for c in curves:
        g = gcd(*c)
        dirs.append(tuple(x // g for x in c))
    dirs = sorted(set(dirs))
    if len(dirs) == 1:
        return dirs[0], dirs[0]
    crosses = [[d[0] * e[1] - d[1] * e[0] for e in dirs] for d in dirs]
    return tuple(d for d, row in zip(dirs, crosses) if min(row) >= 0 or max(row) <= 0)
