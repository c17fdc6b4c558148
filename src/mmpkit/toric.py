"""Toric cone singularity classification.

A full-dimensional strongly convex rational cone is described by its
primitive integer ray generators.  When a rational linear functional m
exists with m(ray) = 1 for every generator, the associated affine toric
variety is Q-Gorenstein with Gorenstein index the lcm of the denominators
of m, and the discrepancy of the valuation obtained by star-subdividing at
a primitive lattice point v of the cone equals m(v) - 1.  Classification
then reads off the nonzero lattice points P with m(P) <= 1 in the simplicial
cones on the independent d-subsets S of rays, which cover the cone.  The
integral point z - S floor(S^-1 z) of each coset of Z^d / S Z^d is read off
the numerators of S^-1 z, walked along rows of the Hermite box in runs
between their wraps mod |det S|; a run's points form one arithmetic
progression, so the cost is rows + wraps + points, not sum |det S|:

* only the ray generators  -> terminal,
* extra points, all m = 1  -> canonical,
* some point with m < 1    -> klt only (Q-Gorenstein toric is always klt).

q_gorenstein_functional, memoised on its last cone, reads m by one rule: the
rows of |det S| S^-1 sum to |det S| m, S the first d independent rays; rays
that span less than the space leave m not unique, and get none.  The walk
takes its proof of validity from it and needs no facets: rays with an m span,
and as m is 1 on every ray no positive combination of rays is 0.  Facets run
only to name an error, or for membership, which toric_discrepancy reads off
their normals.  In facets one normals pass decides both checks.  Rays that span
less than the space, as matrix_rank tells, are completed by a basis of the
orthogonal complement of their span, which adds no line; a cone has no line
exactly when its facet normals span the space (its dual is full-dimensional).

Smoothness means the generators extend to a basis of the lattice, i.e. the
cone is simplicial and its ray matrix has determinant +-1.
Q-factoriality is simpliciality.  All arithmetic is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, groupby, product, repeat
from math import gcd, lcm, prod
from operator import mul

from . import linalg
from .errors import (
    InvalidInputError,
    NotFullDimensionalError,
    NotInConeError,
    NotPrimitiveError,
    NotQGorensteinError,
    NotStronglyConvexError,
)
from .linalg import IntVector, RatVector


@dataclass(frozen=True)
class Cone:
    """Rational polyhedral cone given by primitive ray generators."""

    rank: int
    rays: tuple[IntVector, ...]

    def __post_init__(self):
        rank = linalg.as_int(self.rank, "rank")
        object.__setattr__(self, "rays", linalg.as_rows(self.rays, "rays"))
        if rank < 1:
            raise InvalidInputError("rank must be positive", "rank_out_of_range", "rank")
        if not self.rays:
            raise InvalidInputError("expected a nonempty list of rays", "wrong_type", "rays")
        for k, ray in enumerate(self.rays):
            field = f"rays[{k}]"
            if len(ray) != self.rank:
                raise InvalidInputError(f"ray must have length {self.rank}", "rank_mismatch", field)
            if all(x == 0 for x in ray):
                raise NotPrimitiveError("zero ray", "ray_zero", field)
            if gcd(*ray) != 1:
                raise NotPrimitiveError(f"ray {list(ray)} is not primitive", "ray_not_primitive", field)
        if len(set(self.rays)) != len(self.rays):
            raise InvalidInputError("duplicate ray generators", "duplicate_ray", "rays")


def cone_from_rays(rays) -> Cone:
    """The cone on rays, of the length of the first; Cone rejects an empty list."""
    rays = linalg.as_rows(rays, "rays")
    return Cone(rank=len(rays[0]) if rays else 1, rays=rays)


class ConeClass(Enum):
    SMOOTH = "Smooth"
    TERMINAL = "Terminal"
    CANONICAL = "Canonical"
    KLT_ONLY = "KltOnly"
    NOT_Q_GORENSTEIN = "NotQGorenstein"


@dataclass(frozen=True)
class ToricClassification:
    kind: ConeClass
    q_factorial: bool
    gorenstein_index: int | None
    support_functional: RatVector | None
    points_at_or_below_one: tuple[IntVector, ...]

    @property
    def discrepancies(self) -> tuple[Fraction, ...]:
        """m(P) - 1 = (rm(P) - r) / r at each of the points P, in one Fraction each; () with no m."""
        return _discrepancies(self.support_functional or (), self.points_at_or_below_one)  # no m: no points


def _normals(rays, d) -> set[IntVector]:
    """Inward primitive normals of the hyperplanes through d-1 rays with all rays on one side."""
    found = set()
    for subset in combinations(rays, d - 1):
        normal = linalg.cross_normal(subset, d)
        if all(x == 0 for x in normal):
            continue
        normal = linalg.primitive(normal)
        values = [linalg.dot(normal, ray) for ray in rays]
        if any(v > 0 for v in values) and any(v < 0 for v in values):
            continue
        if all(v <= 0 for v in values):
            normal = tuple(-x for x in normal)
        found.add(normal)
    return found


def facets(cone: Cone) -> tuple[IntVector, ...]:
    """Inward primitive facet normals h_j with cone = { x : h_j(x) >= 0 }.  Raises for a
    cone with a line, then for one that is not full-dimensional.  Rays that span less than the
    space, as matrix_rank tells, are completed by a basis of the orthogonal complement of their
    span to a full-dimensional cone with a line exactly when this has, i.e. normals of rank < d."""
    kernel = tuple(linalg.integer_kernel(cone.rays)) if linalg.matrix_rank(cone.rays) < cone.rank else ()
    normals = _normals(cone.rays + kernel, cone.rank)
    if linalg.matrix_rank(list(normals)) != cone.rank:
        raise NotStronglyConvexError("cone contains a line")
    if kernel:
        raise NotFullDimensionalError(f"rays span a space of dimension {cone.rank - len(kernel)} < {cone.rank}")
    return tuple(sorted(normals))


def _adjugate(rays, d) -> list[IntVector]:
    """The rows a_i of |det S| S^-1 for d rays S, as columns: a_i.s_j = 0 for j != i, and a_i
    oriented so that a_i.s_i = |det S|.  Their sum is |det S| m_S, for m_S = 1 on S."""
    adj = [linalg.cross_normal(rays[:i] + rays[i + 1 :], d) for i in range(d)]
    return [a if linalg.dot(a, s) > 0 else tuple(-x for x in a) for a, s in zip(adj, rays)]


@lru_cache(maxsize=1)
def q_gorenstein_functional(cone: Cone) -> RatVector | None:
    """The rational functional m with m(ray) = 1 for all rays, read off the first d independent
    rays; None when the rays miss it, or span less than the space, where it is not unique.
    Memoised on the last cone: a Cone is frozen, and m, unique on rays that span, is unchanged by their order."""
    d = cone.rank
    for rays in combinations(cone.rays, d):
        adj = _adjugate(rays, d)
        det = linalg.dot(adj[0], rays[0])
        if det:
            m = [sum(col) for col in zip(*adj)]
            if any(linalg.dot(m, r) != det for r in cone.rays):
                return None
            return tuple(Fraction(x, det) for x in m)
    return None


def gorenstein_index(m: RatVector) -> int:
    return lcm(*[x.denominator for x in m])


def _integral(m: RatVector) -> tuple[int, list[int]]:
    """(r, rm): r the Gorenstein index of m and rm = r m, read off its numerators."""
    r = gorenstein_index(m)
    return r, [x.numerator * (r // x.denominator) for x in m]


def lattice_points_at_or_below_one(cone: Cone) -> list[IntVector]:
    """Nonzero lattice points P of the cone with m(P) <= 1, in lex order, for m
    the support functional.  Raises for a line, then for a lower dimension, then
    NotQGorensteinError for no m; the memoised q_gorenstein_functional is the proof,
    and facets runs only to name the first two, which an m rules out.  In the cone on
    d independent rays S, P is a ray or z - S floor(S^-1 z) whose numerators n_i = a_i.z
    mod |det S| sum to at most |det S|, a_i the cross_normal rows of |det S| S^-1, for z in
    the Hermite box 0 <= z_k < h_kk.  z_k += 1 on its longest side adds a_i[k] mod |det S|
    to n_i and e_k - S floor(S^-1 e_k) to P.  Until some n_i wraps, both grow linearly, so
    the hits of a run between wraps are one interval of steps and one range of points."""
    if q_gorenstein_functional(cone) is None:
        facets(cone)  # raises for a line, then for a lower dimension
        raise NotQGorensteinError("cone has no support functional; m(P) <= 1 is undefined")
    d = cone.rank
    points = list(cone.rays)
    for rays in combinations(cone.rays, d):
        diagonal = [col[k] for k, col in enumerate(linalg.column_hermite_form(rays))]
        det = prod(diagonal)
        if det <= 1:
            continue  # a dependent S has no box, a unimodular S only the zero coset
        adj = _adjugate(rays, d)
        k = diagonal.index(max(diagonal))
        steps = [a[k] % det for a in adj]
        move = [sum(t * s[j] for t, s in zip(steps, rays)) // det for j in range(d)]
        grow = sum(steps)  # > 0: the h_kk > 1 cosets along side k are distinct, so e_k is not in S Z^d
        for z in product(*map(range, diagonal[:k] + [1] + diagonal[k + 1 :])):
            nums = [linalg.dot(a, z) % det for a in adj]
            left = diagonal[k]
            while left:
                # no numerator wraps within the next r steps: sum(nums) + t grow is linear in t
                r = min([left] + [-((n - det) // s) for n, s in zip(nums, steps) if s])  # ceil((det - n) / s)
                total = sum(nums)  # never negative: only total = 0 misses at t = 0
                lo, hi = 0 if total else 1, min(r, (det - total) // grow + 1)
                if lo < hi:
                    p = [sum(n * s[j] for n, s in zip(nums, rays)) // det for j in range(d)]
                    points.extend(
                        zip(*(range(x + lo * v, x + hi * v, v) if v else repeat(x, hi - lo) for x, v in zip(p, move)))
                    )
                left -= r
                nums = [(n + r * s) % det for n, s in zip(nums, steps)]
    points.sort()  # merges the runs, each monotone in lex order
    if len(cone.rays) == d:
        return points  # one simplex: its nonzero cosets and its rays are distinct points
    return [p for p, _ in groupby(points)]  # the subcones of a non-simplicial cone share points


def classify_cone(cone: Cone) -> ToricClassification:
    """Classify the affine toric singularity attached to a cone."""
    q_factorial = len(cone.rays) == cone.rank
    m = q_gorenstein_functional(cone)
    if m is None:
        facets(cone)  # raises for a line or a lower dimension before the class is named
        kind, r, points = ConeClass.NOT_Q_GORENSTEIN, None, ()
    else:
        points = tuple(lattice_points_at_or_below_one(cone))
        r, rm = _integral(m)  # rm(P) == r is m(P) == 1 in integers
        # the points call has checked the rays span: a square ray matrix is invertible here
        if q_factorial and abs(linalg.det_bareiss(cone.rays)) == 1:
            kind = ConeClass.SMOOTH
        elif len(points) == len(cone.rays):  # the points hold every ray, each with m = 1
            kind = ConeClass.TERMINAL
        elif all(sum(map(mul, rm, p)) == r for p in points):
            kind = ConeClass.CANONICAL
        else:
            kind = ConeClass.KLT_ONLY
    return ToricClassification(
        kind=kind,
        q_factorial=q_factorial,
        gorenstein_index=r,
        support_functional=m,
        points_at_or_below_one=points,
    )


def _discrepancies(m: RatVector, points) -> tuple[Fraction, ...]:
    """m(P) - 1 = (rm(P) - r) / r at each point P, for r the Gorenstein index of m and
    rm = r m an integer functional: one Fraction per point."""
    r, rm = _integral(m)
    return tuple(Fraction(sum(map(mul, rm, p)) - r, r) for p in points)


def toric_discrepancy(cone: Cone, v) -> Fraction:
    """Discrepancy m(v) - 1 of the valuation at a primitive point v of the cone.

    A v of the wrong length is an input error on the field ``point``."""
    v = linalg.as_vector(v, "point")
    if len(v) != cone.rank:
        raise InvalidInputError(f"point must have length {cone.rank}", "point_length", "point")
    if all(x == 0 for x in v):
        raise NotPrimitiveError("the origin is not a valuation site")
    if gcd(*v) != 1:
        raise NotPrimitiveError(f"point {list(v)} is not primitive")
    if any(linalg.dot(h, v) < 0 for h in facets(cone)):
        raise NotInConeError(f"point {list(v)} is not in the cone")
    m = q_gorenstein_functional(cone)
    if m is None:
        raise NotQGorensteinError("cone has no support functional; discrepancies undefined")
    return _discrepancies(m, (v,))[0]
