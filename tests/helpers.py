"""Shared generators and independent oracles for the test suite."""

from fractions import Fraction
from itertools import combinations, permutations, product
from math import gcd, isqrt, lcm, prod

from mmpkit.dualgraph import Boundary, BoundaryComponent, DualGraph, Vertex
from mmpkit.linalg import dot, matrix_rank
from mmpkit.toric import ConeClass, cone_from_rays, facets

#: positions in the implication chain smooth => terminal => canonical => klt
CLASS_CHAIN_ORDER = {
    ConeClass.SMOOTH: 0,
    ConeClass.TERMINAL: 1,
    ConeClass.CANONICAL: 2,
    ConeClass.KLT_ONLY: 3,
}


def fraction_to_str(value) -> str:
    """The reference "p" or "p/q" form of a rational, lowest terms with a
    positive denominator, written from its numerator and denominator."""
    f = value if isinstance(value, Fraction) else Fraction(value)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def reference_fraction(value) -> Fraction:
    """parse_fraction's contract, from Fraction and the grammar
    [+-]?[0-9]+(/[0-9]+)? read character by character: an int that is not a
    bool, or a string of the grammar with a nonzero denominator; anything
    else is a ValueError with parse_fraction's message."""
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        parts = (value[1:] if value[:1] in ("+", "-") else value).split("/")
        if len(parts) <= 2 and all(part and set(part) <= set("0123456789") for part in parts):
            try:
                return Fraction(value)
            except ZeroDivisionError:
                raise ValueError(f"zero denominator: {value!r}") from None
    raise ValueError(f"not a rational: {value!r}")


def mat_vec(a, x):
    return tuple(dot(row, x) for row in a)


def chain_graph(self_ints, genera=None) -> DualGraph:
    n = len(self_ints)
    genera = genera or [0] * n
    vertices = tuple(Vertex(genus=g, self_int=s) for g, s in zip(genera, self_ints))
    edges = tuple((i, i + 1, 1) for i in range(n - 1))
    return DualGraph(vertices=vertices, edges=edges)


def dynkin_graph(kind: str, n: int) -> DualGraph:
    """Simply-laced Dynkin tree of (-2)-curves."""
    vertices = tuple(Vertex(genus=0, self_int=-2) for _ in range(n))
    if kind == "A":
        edges = tuple((i, i + 1, 1) for i in range(n - 1))
    elif kind == "D":
        assert n >= 4
        # path 0-1-...-(n-2) with the extra leaf n-1 hanging off vertex 1
        edges = tuple((i, i + 1, 1) for i in range(n - 2)) + ((1, n - 1, 1),)
    elif kind == "E":
        assert n in (6, 7, 8)
        # path 0-1-...-(n-2) with the extra leaf n-1 hanging off vertex 2
        edges = tuple((i, i + 1, 1) for i in range(n - 2)) + ((2, n - 1, 1),)
    else:
        raise ValueError(kind)
    return DualGraph(vertices=vertices, edges=edges)


def tree_graph(p, q, r) -> DualGraph:
    """T_{p,q,r}: three arms of (-2)-curves of p, q and r vertices, counting
    the shared centre 0, so p + q + r - 2 vertices in all."""
    edges, n = [], 1
    for arm in (p, q, r):
        prev = 0
        for _ in range(arm - 1):
            edges.append((prev, n, 1))
            prev, n = n, n + 1
    return DualGraph(vertices=(Vertex(genus=0, self_int=-2),) * n, edges=tuple(edges))


def cycle_graph(n) -> DualGraph:
    """The affine diagram A~_{n-1}: a cycle of n (-2)-curves, n >= 3."""
    edges = tuple((i, (i + 1) % n, 1) for i in range(n))
    return DualGraph(vertices=(Vertex(genus=0, self_int=-2),) * n, edges=edges)


def disjoint_union(*graphs) -> DualGraph:
    vertices, edges = [], []
    for g in graphs:
        edges += [(i + len(vertices), j + len(vertices), m) for i, j, m in g.edges]
        vertices += g.vertices
    return DualGraph(vertices=tuple(vertices), edges=tuple(edges))


def walk_du_val(graph: DualGraph):
    """The ADE name from the shape alone, the oracle for detect_du_val.

    Requires all genera 0, all self-intersections -2, all multiplicities 1
    and a tree: a chain is A_n; one fork with arms of (1, 1, k) vertices
    past it is D_{k+3}; arms (1, 2, 2), (1, 2, 3), (1, 2, 4) are E6, E7, E8.
    """
    n = len(graph.vertices)
    if any(v.genus != 0 or v.self_int != -2 for v in graph.vertices):
        return None
    if any(mult != 1 for _, _, mult in graph.edges):
        return None
    if len(graph.edges) != n - 1 or not graph.is_connected():
        return None
    adj = {i: [] for i in range(n)}
    for i, j, _ in graph.edges:
        adj[i].append(j)
        adj[j].append(i)
    degrees = [len(adj[i]) for i in range(n)]
    if any(deg > 3 for deg in degrees):
        return None
    forks = [i for i, deg in enumerate(degrees) if deg == 3]
    if not forks:
        return f"A{n}"
    if len(forks) > 1:
        return None
    fork = forks[0]
    lengths = []
    for start in adj[fork]:
        length, prev, cur = 1, fork, start
        while True:
            nxt = [x for x in adj[cur] if x != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            length += 1
        lengths.append(length)
    a, b, c = sorted(lengths)
    if (a, b) == (1, 1):
        return f"D{c + 3}"
    if (a, b) == (1, 2) and c in (2, 3, 4):
        return f"E{c + 4}"
    return None


def random_tree_edges(rng, n):
    return [(rng.randrange(i), i, 1) for i in range(1, n)]


def random_negdef_graph(rng, max_vertices=6, minimal=False, allow_genus=True) -> DualGraph:
    """Random connected graph with a negative-definite intersection matrix.

    With minimal=True every vertex satisfies 2g - 2 - E^2 >= 0, so the
    graph is the dual graph of a minimal resolution.
    """
    while True:
        n = rng.randint(1, max_vertices)
        edges = random_tree_edges(rng, n)
        if n >= 2 and rng.random() < 0.3:
            i, j = rng.sample(range(n), 2)
            edges.append((min(i, j), max(i, j), rng.randint(1, 2)))
        vertices = []
        for _ in range(n):
            genus = rng.choice([0, 0, 0, 1, 2]) if allow_genus else 0
            if minimal:
                upper = min(2 * genus - 2, -1)
                self_int = rng.randint(-6, upper)
            else:
                self_int = rng.randint(-6, -1)
            vertices.append(Vertex(genus=genus, self_int=self_int))
        graph = DualGraph(vertices=tuple(vertices), edges=tuple(edges))
        if leading_minor_negdef(graph.intersection_matrix()):
            return graph


def random_boundary(rng, graph: DualGraph, max_components=2) -> Boundary:
    n = len(graph.vertices)
    comps = []
    for _ in range(rng.randint(0, max_components)):
        q = rng.randint(1, 6)
        coeff = Fraction(rng.randint(0, q), q)
        meets = []
        for _ in range(rng.randint(0, 2)):
            meets.append((rng.randrange(n), rng.randint(1, 2)))
        comps.append(BoundaryComponent(coeff=coeff, meets=tuple(meets)))
    return Boundary(tuple(comps))


def leading_minor_negdef(a) -> bool:
    """Sylvester's rule, the dense oracle for is_negative_definite: the k-th
    leading principal minor of a has sign (-1)^k for every k.  Gaussian
    elimination over Fractions in the given order, with no row swap, has
    pivot k equal to the ratio of the (k+1)-th to the k-th leading minor,
    so the rule holds exactly when every pivot is negative."""
    m = [[Fraction(x) for x in row] for row in a]
    for k, top in enumerate(m):
        if top[k] >= 0:
            return False
        for i in range(k + 1, len(m)):
            f = m[i][k] / top[k]
            m[i] = [x - f * y for x, y in zip(m[i], top)]
    return True


def dense_inertia(a) -> tuple:
    """Signature (n_plus, n_minus, n_zero) of a symmetric matrix by dense
    symmetric fraction-free elimination, every remaining row rewritten at
    every pivot: the reference that linalg.inertia's row-skipping kernel
    must agree with.  With no nonzero diagonal left, the congruence adding
    row/column j to row/column i makes m[i][i] = 2 m[i][j]."""
    n = len(a)
    den = lcm(*(Fraction(x).denominator for row in a for x in row))
    m = [[int(x * den) for x in row] for row in a]
    remaining = list(range(n))
    pos = neg = 0
    prev = 1
    while remaining:
        piv = next((i for i in remaining if m[i][i] != 0), None)
        if piv is None:
            pair = next(((i, j) for i in remaining for j in remaining if i < j and m[i][j] != 0), None)
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


def gauss_jordan(a):
    """Gauss-Jordan elimination over Fractions, the reference for the
    echelon readers of linalg: (m, order, late).  The pivot is the first
    column with a nonzero in a row not yet used, in its first such row, as
    in linalg; order is the (row, column) of each pivot and m the reduced
    rows in their given places, each pivot 1 and alone in its column.
    late counts the rows that had a 0 in one pivot column and a nonzero in
    a later one: the rows linalg's kernel skips and then reaches."""
    m = [[Fraction(x) for x in row] for row in a]
    live, skipped, order, late = list(range(len(m))), set(), [], 0
    for c in range(len(m[0]) if m else 0):
        p = next((i for i in live if m[i][c]), None)
        if p is None:
            continue
        reached = {i for i in live if m[i][c]}
        late += len(skipped & reached)
        skipped = (skipped | set(live)) - reached
        live.remove(p)
        top = m[p] = [x / m[p][c] for x in m[p]]
        for i, row in enumerate(m):
            f = row[c]
            if i != p and f:
                m[i] = [x - f * y for x, y in zip(row, top)]
        order.append((p, c))
    return m, order, late


def reference_solve(a, b):
    """A solution of A x = b read off the Gauss-Jordan form of [A | b], with
    the free variables 0, as (x, unique); None when the system is inconsistent."""
    cols = len(a[0])
    m, order, _ = gauss_jordan([list(row) + [y] for row, y in zip(a, b)])
    if order and order[-1][1] == cols:
        return None
    x = [Fraction(0)] * cols
    for p, c in order:
        x[c] = m[p][cols]
    return tuple(x), len(order) == cols


def naive_ellipsoid_points(a, b, r) -> list:
    """The integer w with w^T A w - 2 b.w = r, A positive definite, by a scan
    of a box that holds them all, in Fractions: the reference for
    linalg.ellipsoid_points.  With m = A^-1 b and R = r + b.m the equation
    is y^T A y = R for y = w - m, and Cauchy-Schwarz in the inner product
    of A^-1 gives y_i^2 = (e_i^T A^-1 (A y))^2 <= (A^-1)_ii y^T A y, so
    |w_i - m_i|^2 <= R (A^-1)_ii."""
    d = len(a)
    m = reference_solve(a, b)[0] if d else ()
    radius = r + sum(x * y for x, y in zip(b, m))
    if radius < 0:
        return []
    ranges = []
    for i in range(d):
        inv_ii = reference_solve(a, [int(k == i) for k in range(d)])[0][i]
        reach = radius * inv_ii
        half = isqrt(reach.numerator // reach.denominator) + 1
        lo, hi = int(m[i]) - half - 1, int(m[i]) + half + 1
        ranges.append([w for w in range(lo, hi + 1) if (w - m[i]) ** 2 <= reach])
    return [
        w
        for w in product(*ranges)
        if sum(w[i] * a[i][j] * w[j] for i in range(d) for j in range(d)) - 2 * dot(b, w) == r
    ]


def random_positive_definite(rng, d, spread=1):
    """M^T M + I for a random int M with entries in [-spread, spread]: a
    positive-definite form, its smallest eigenvalue at least 1."""
    mat = [[rng.randint(-spread, spread) for _ in range(d)] for _ in range(d)]
    return [
        [sum(mat[k][i] * mat[k][j] for k in range(d)) + (i == j) for j in range(d)]
        for i in range(d)
    ]


def reference_functional(cone):
    """The m with m(ray) = 1 on every ray, from reference_solve, when the rays
    determine it; None when no such m exists or the rays span less than the space."""
    sol = reference_solve(cone.rays, [1] * len(cone.rays))
    return sol[0] if sol and sol[1] else None


def entry_variants(rng, a):
    """a, with its top-left entry set to 1, as plain ints, as Fractions, as
    a random mix with at least one Fraction, and with that entry True: the
    inputs on either side of the elimination kernel's branch for a matrix
    of exact ints.  A symmetric a stays symmetric."""
    a = [list(row) for row in a]
    a[0][0] = 1
    mixed = [[Fraction(x) if rng.random() < 0.5 else x for x in row] for row in a]
    mixed[0][0] = Fraction(1)
    with_bool = [row[:] for row in a]
    with_bool[0][0] = True
    return {
        "int": a,
        "fraction": [[Fraction(x) for x in row] for row in a],
        "mixed": mixed,
        "bool": with_bool,
    }


def leibniz_det(a):
    """det a as the sum over permutations s of sign(s) prod a[i][s(i)]:
    the reference for det_bareiss, for n <= 6."""
    n = len(a)
    assert n <= 6
    total = 0
    for s in permutations(range(n)):
        factors = [a[i][s[i]] for i in range(n)]
        if all(factors):
            inversions = sum(s[i] > s[j] for i in range(n) for j in range(i + 1, n))
            total += (-1) ** inversions * prod(factors)
    return total


def box_negdef_oracle(matrix, box=3) -> bool:
    """Exhaustive sign sampling of the quadratic form on a small box."""
    n = len(matrix)
    for x in product(range(-box, box + 1), repeat=n):
        if all(v == 0 for v in x):
            continue
        value = sum(x[i] * matrix[i][j] * x[j] for i in range(n) for j in range(n))
        if value >= 0:
            return False
    return True


def naive_is_strongly_convex(cone) -> bool:
    """True when 0 is not in the convex hull of the rays, i.e. the cone has no
    line; by Caratheodory it suffices to test affinely independent subsets of
    size at most rank + 1, each by one exact solve."""
    rays = cone.rays
    d = cone.rank
    for size in range(2, min(len(rays), d + 1) + 1):
        for subset in combinations(rays, size):
            system = [[Fraction(r[i]) for r in subset] for i in range(d)]
            system.append([Fraction(1)] * size)
            rhs = [Fraction(0)] * d + [Fraction(1)]
            sol = reference_solve(system, rhs)
            if sol is None:
                continue
            coeffs, unique = sol
            if unique and all(c >= 0 for c in coeffs):
                return False
    return True


def random_cone(rng, rank):
    """A random cone of the given rank on primitive rays in the span of 1 to
    rank random vectors, so often lower-dimensional, with a ray's negative
    added a third of the time, so often with a line."""
    rays = set()
    while not rays:
        dim = rng.randint(1, rank)
        basis = [[rng.randint(-2, 2) for _ in range(rank)] for _ in range(dim)]
        for _ in range(rng.randint(1, rank + 3)):
            c = [rng.randint(-2, 2) for _ in range(dim)]
            v = [sum(x * b[j] for x, b in zip(c, basis)) for j in range(rank)]
            if any(v):
                rays.add(tuple(x // gcd(*v) for x in v))
    if rng.random() < 1 / 3:
        rays.add(tuple(-x for x in rng.choice(sorted(rays))))
    return cone_from_rays(sorted(rays))


def naive_points_at_or_below_one(cone, m) -> list:
    """Nonzero lattice points P of the cone with m(P) <= 1, in lex order, by
    a scan of the integer bounding box of 0 and the rays, which contains the
    convex hull of 0 and the rays.  Its cost is the volume of the box."""
    hs = facets(cone)
    d = cone.rank
    m = tuple(Fraction(x) for x in m)
    lows = [min(0, min(r[i] for r in cone.rays)) for i in range(d)]
    highs = [max(0, max(r[i] for r in cone.rays)) for i in range(d)]
    points = []
    for p in product(*(range(lo, hi + 1) for lo, hi in zip(lows, highs))):
        if all(x == 0 for x in p):
            continue
        if any(dot(h, p) < 0 for h in hs):
            continue
        if sum(c * x for c, x in zip(m, p)) <= 1:
            points.append(p)
    return points


def fraction_discrepancy(m, p):
    """m(P) - 1 summed in Fractions, m the support functional: the oracle for the
    toric discrepancies, which the library reads from the integral functional r m."""
    return sum(c * x for c, x in zip(m, p)) - 1


#: coordinate bound of random_q_gorenstein_cone per rank, so that the box
#: oracle scans at most a few hundred cells
CONE_BOX = {1: 1, 2: 5, 3: 2, 4: 2}
#: draws before random_q_gorenstein_cone gives up on a request it cannot meet
DRAWS = 1000


def random_q_gorenstein_cone(rng, rank, extra=0):
    """A random full-dimensional cone on rank + extra primitive rays, all on
    one hyperplane w.x = k > 0: strongly convex, Q-Gorenstein with m = w / k,
    and non-simplicial when extra > 0, often with a ray that is not extremal.
    ValueError for a request it cannot meet: in rank 1 at most one primitive
    point has w.x = k > 0, so extra > 0 is refused at once, and any other
    request fails after DRAWS draws instead of looping."""
    if rank == 1 and extra > 0:
        raise ValueError("a rank-1 cone has one primitive ray; extra must be 0")
    box = range(-CONE_BOX[rank], CONE_BOX[rank] + 1)
    for _ in range(DRAWS):
        w = [rng.randint(-2, 2) for _ in range(rank)]
        k = rng.randint(1, 3)
        level = [p for p in product(box, repeat=rank) if dot(w, p) == k and gcd(*p) == 1]
        if len(level) < rank + extra:
            continue
        rays = rng.sample(level, rank + extra)
        if matrix_rank(rays) == rank:
            return cone_from_rays(rays)
    raise ValueError(f"no rank-{rank} cone on {rank + extra} rays in {DRAWS} draws")


def naive_minus_one_classes(r) -> set:
    """Independent brute-force (-1)-class enumeration on the standard
    blow-up lattice, scanning the full coordinate box allowed by the
    Cauchy-Schwarz degree bound.  Only viable for small r."""
    out = set()
    for a in range(-8, 9):
        if (3 * a - 1) ** 2 > r * (a * a + 1):
            continue
        bmax = isqrt(a * a + 1)
        for b in product(range(-bmax, bmax + 1), repeat=r):
            if sum(b) == 1 - 3 * a and sum(x * x for x in b) == a * a + 1:
                out.add((a,) + b)
    return out


def multiset_minus_one_count(r) -> int:
    """Count (-1)-classes via nonincreasing coefficient multisets."""
    from collections import Counter
    from math import factorial

    total = 0
    for a in range(-8, 9):
        if (3 * a - 1) ** 2 > r * (a * a + 1):
            continue

        def descend(k, s, q, hi):
            nonlocal total
            if k == 0:
                if s == 0 and q == 0:
                    counts = Counter(acc)
                    perms = factorial(r)
                    for v in counts.values():
                        perms //= factorial(v)
                    total += perms
                return
            for b in range(min(hi, isqrt(q)), -isqrt(q) - 1, -1):
                if q - b * b < 0:
                    continue
                acc.append(b)
                descend(k - 1, s - b, q - b * b, b)
                acc.pop()

        acc: list[int] = []
        descend(r, 1 - 3 * a, a * a + 1, isqrt(a * a + 1))
    return total


def random_unimodular(rng, n, moves=4):
    """A random P in GL(n, Z) and its inverse, as lists of rows.

    P is built from random column transvections and sign flips; the
    inverse is tracked alongside, so no library solver is involved.
    """
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    inv = [row[:] for row in p]
    for _ in range(moves if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        f = rng.randint(-2, 2)
        for row in p:
            row[i] += f * row[j]
        inv[j] = [a - f * b for a, b in zip(inv[j], inv[i])]
    for i in range(n):
        if rng.random() < 0.5:
            for row in p:
                row[i] = -row[i]
            inv[i] = [-a for a in inv[i]]
    return p, inv


def disguise(s, rng, moves=4):
    """A random unimodular change of basis of a SurfaceLattice.

    The new basis vectors are the columns of P from random_unimodular.
    K and the curves are carried over.  Returns (lattice, to_new), where
    to_new maps old coordinates to new.
    """
    from mmpkit.surface import SurfaceLattice

    n = s.rank
    p, inv = random_unimodular(rng, n, moves)

    def to_new(v):
        return tuple(sum(a * b for a, b in zip(row, v)) for row in inv)

    gram = tuple(
        tuple(
            sum(p[a][i] * s.gram[a][b] * p[b][j] for a in range(n) for b in range(n))
            for j in range(n)
        )
        for i in range(n)
    )
    return (
        SurfaceLattice(
            rank=n,
            gram=gram,
            K=to_new(s.K),
            curves=tuple(to_new(c) for c in s.curves),
            label="disguised",
        ),
        to_new,
    )


def naive_mmp_trace(s, bound=None):
    """run_classical_mmp as a fresh (-1)-class search and a contraction at
    every step; the classification of the end lattice is the library's, run
    there with no step left."""
    from dataclasses import replace

    from mmpkit.surface import MmpStep, castelnuovo_contract, enumerate_minus_one_classes, run_classical_mmp

    steps, cur = [], s
    while classes := enumerate_minus_one_classes(cur, bound):
        nxt = castelnuovo_contract(cur, classes[0])
        steps.append(MmpStep(contracted=classes[0], rank_before=cur.rank, rank_after=nxt.rank))
        cur = nxt
    end = run_classical_mmp(cur, bound)
    assert end.steps == ()
    return replace(end, steps=tuple(steps))


def naive_cone_rays_rank2(curves):
    """cone_rays_rank2 on a rank-2 curve list by brute force: ("rays", (u, v))
    or ("error", code, message).  The rays are the one pair of directions,
    lex-ordered, of which every direction is a nonnegative combination
    (Cramer's rule); with no such pair the directions span a half-plane or
    more."""
    if not curves:
        return ("error", "empty_curve_list", "no curve classes supplied")
    directions = {(x // gcd(x, y), y // gcd(x, y)) for x, y in curves if (x, y) != (0, 0)}
    if not directions:
        return ("error", "degenerate_cone", "every curve class is zero")
    for u, v in product(directions, repeat=2):
        if u[0] * v[1] == u[1] * v[0] and u[0] * v[0] + u[1] * v[1] < 0:
            return ("error", "degenerate_cone", "curve classes span opposite directions")
    if len(directions) == 1:
        (d,) = directions
        return ("rays", (d, d))

    def cross(u, v):
        return u[0] * v[1] - u[1] * v[0]

    spanning = [
        (u, v)
        for u, v in combinations(sorted(directions), 2)
        if cross(u, v) and all(cross(w, v) * cross(u, v) >= 0 and cross(u, w) * cross(u, v) >= 0 for w in directions)
    ]
    if len(spanning) == 1:
        return ("rays", spanning[0])
    return ("error", "degenerate_cone", "curve classes span a half-plane or more")
