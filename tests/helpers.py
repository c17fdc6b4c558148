"""Shared generators and independent oracles for the test suite."""

from fractions import Fraction
from itertools import combinations, product
from math import gcd, isqrt

from mmpkit.dualgraph import Boundary, BoundaryComponent, DualGraph, Vertex
from mmpkit.linalg import dot, is_negative_definite, matrix_rank, solve_possibly_singular
from mmpkit.toric import cone_from_rays, facets


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
        if is_negative_definite(graph.intersection_matrix()):
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
            sol = solve_possibly_singular(system, rhs)
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


#: coordinate bound of random_q_gorenstein_cone per rank, so that the box
#: oracle scans at most a few hundred cells
CONE_BOX = {1: 1, 2: 5, 3: 2, 4: 2}


def random_q_gorenstein_cone(rng, rank, extra=0):
    """A random full-dimensional cone on rank + extra primitive rays, all on
    one hyperplane w.x = k > 0: strongly convex, Q-Gorenstein with m = w / k,
    and non-simplicial when extra > 0, often with a ray that is not extremal."""
    box = range(-CONE_BOX[rank], CONE_BOX[rank] + 1)
    while True:
        w = [rng.randint(-2, 2) for _ in range(rank)]
        k = rng.randint(1, 3)
        level = [p for p in product(box, repeat=rank) if dot(w, p) == k and gcd(*p) == 1]
        if len(level) < rank + extra:
            continue
        rays = rng.sample(level, rank + extra)
        if matrix_rank(rays) == rank:
            return cone_from_rays(rays)


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


def disguise(s, rng, moves=4):
    """A random unimodular change of basis of a SurfaceLattice.

    The new basis vectors are the columns of P, built from random
    transvections and sign flips; the inverse is tracked alongside, so no
    library solver is involved.  K and the curves are carried over.
    Returns (lattice, to_new), where to_new maps old coordinates to new.
    """
    from mmpkit.surface import SurfaceLattice

    n = s.rank
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
