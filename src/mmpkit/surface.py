"""Intersection-lattice models of smooth projective surfaces and the
classical minimal model program on them.

A surface is modelled extensionally: a rank, an integer Gram matrix for
the intersection pairing, the canonical class, and a list of known curve
classes.  Nef/ample/cone verdicts are always relative to the supplied
curve list.  Contractions of (-1)-classes are computed exactly: the new
lattice is the orthogonal complement of the contracted class in a
canonical integer basis (column Hermite form), so repeated runs produce
identical traces.

Without a search bound, (-1)-class enumeration is complete on lattices
of signature (1, rank-1) with K^2 > 0, in any basis: there the classes
are the integer points of one positive-definite ellipsoid, enumerated
exactly (Fincke-Pohst).  Anything else needs an explicit coordinate
bound; blow-ups of the plane in 9 or more points have K^2 <= 0 and
infinitely many (-1)-classes.  The unbounded MMP searches once, as the
classes orthogonal to a contracted class are all those of the contracted
lattice; with a bound, each step scans its own box again.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import product
from math import isqrt, lcm
from operator import mul

from . import linalg
from .errors import (
    DegenerateConeError,
    EmptyCurveListError,
    InvalidInputError,
    NonIntegralGenusError,
    NotMinusOneClassError,
    NotRank2Error,
    NotSymmetricError,
    UnboundedSearchError,
    UndeterminedOutcomeError,
)
from .linalg import IntMatrix, IntVector


@dataclass(frozen=True)
class SurfaceLattice:
    """Neron-Severi-style lattice: rank, Gram matrix, canonical class, curves."""

    rank: int
    gram: IntMatrix
    K: IntVector
    curves: tuple[IntVector, ...] = ()
    label: str = ""

    def __post_init__(self):
        gram = tuple(tuple(int(x) for x in row) for row in self.gram)
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "K", tuple(int(x) for x in self.K))
        object.__setattr__(
            self, "curves", tuple(tuple(int(x) for x in c) for c in self.curves)
        )
        rank = self.rank
        if rank < 1:
            raise InvalidInputError("rank must be positive", "rank_out_of_range", "rank")
        if len(gram) != rank:
            raise InvalidInputError(f"expected {rank} rows", "gram_not_square", "gram")
        for k, row in enumerate(gram):
            if len(row) != rank:
                raise InvalidInputError(f"expected {rank} entries", "gram_not_square", f"gram[{k}]")
        for i in range(rank):
            for j in range(i + 1, rank):
                if gram[i][j] != gram[j][i]:
                    raise NotSymmetricError(
                        f"gram[{i}][{j}] = {gram[i][j]} differs from gram[{j}][{i}] = {gram[j][i]}",
                        "gram_not_symmetric",
                        f"gram[{i}][{j}]",
                    )
        if len(self.K) != rank:
            raise InvalidInputError(f"K must have length {rank}", "k_length", "K")
        for idx, c in enumerate(self.curves):
            if len(c) != rank:
                raise InvalidInputError(f"curve must have length {rank}", "curve_length", f"curves[{idx}]")
            if (self.pair(c, c) + self.pair(c, self.K)) % 2 != 0:
                raise NonIntegralGenusError(
                    f"curve {idx} violates adjunction parity: C.(C+K) is odd", "curve_parity", "curves"
                )

    def pair(self, x, y) -> int:
        return sum(xi * sum(map(mul, row, y)) for xi, row in zip(x, self.gram) if xi)

    def warnings(self) -> tuple[str, ...]:
        notes = []
        if linalg.inertia(self.gram) != (1, self.rank - 1, 0):
            notes.append("intersection form does not have signature (1, rank-1)")
        return tuple(notes)


def make_blowup_p2(r: int) -> SurfaceLattice:
    """Blow-up of the plane at r points: basis (H, E_1, ..., E_r)."""
    if r < 0:
        raise InvalidInputError("r must be nonnegative", "r_out_of_range", "r")
    rank = r + 1
    gram = tuple(
        tuple((1 if i == 0 else -1) if i == j else 0 for j in range(rank))
        for i in range(rank)
    )
    K = tuple([-3] + [1] * r)
    exceptional = [
        tuple(1 if j == i else 0 for j in range(rank)) for i in range(1, rank)
    ]
    hyperplane = tuple([1] + [0] * r)
    return SurfaceLattice(
        rank=rank,
        gram=gram,
        K=K,
        curves=tuple(exceptional + [hyperplane]),
        label=f"blowup_p2({r})",
    )


def make_quadric() -> SurfaceLattice:
    """The quadric surface: two rulings with pairing [[0,1],[1,0]]."""
    return SurfaceLattice(
        rank=2,
        gram=((0, 1), (1, 0)),
        K=(-2, -2),
        curves=((1, 0), (0, 1)),
        label="quadric",
    )


def adjunction_genus(s: SurfaceLattice, c) -> int:
    """Arithmetic genus 1 + C.(C+K)/2; raises on parity violation."""
    c = tuple(int(x) for x in c)
    total = s.pair(c, c) + s.pair(c, s.K)
    if total % 2 != 0:
        raise NonIntegralGenusError("C.(C+K) is odd; no integral genus")
    return 1 + total // 2


def _gram_times(s: SurfaceLattice, v) -> IntVector:
    """G v, the coefficients of the functional x -> x.v."""
    return tuple(sum(map(mul, row, v)) for row in s.gram)


def _ellipsoid_classes(s: SurfaceLattice) -> list[IntVector]:
    """Fincke-Pohst enumeration of C^2 = K.C = -1 when K^2 > 0 and the
    form has signature (1, rank-1).

    K.x = -1 is x = x0 + B w with B a basis of the K-orthogonal part, so
    x^2 = -1 becomes (w - m)^T A (w - m) = R with A = -B^T G B positive
    definite.  The Bareiss rows of A give Q(y) = sum_k (row_k . y)^2 /
    (D_k D_{k+1}) with D_k its leading principal minors; row_k . m is an
    integer, so the depth-first bounds on w_{d-1}, ..., w_0 are integer
    tests after scaling by N = lcm of the D_k D_{k+1}, a multiple of
    D_d = det(A).
    """
    n = s.rank
    cols = [[g] + [0] * n for g in _gram_times(s, s.K)]
    for j, col in enumerate(cols):
        col[j + 1] = 1
    cols = linalg.column_hermite_form(cols)
    if cols[0][0] != 1:
        return []
    x0 = [-v for v in cols[0][1:]]
    basis = [c[1:] for c in cols[1:]]
    gb = [_gram_times(s, v) for v in basis]
    a = [[-sum(map(mul, u, gv)) for u in basis] for gv in gb]
    beta = [sum(map(mul, x0, gv)) for gv in gb]
    rows, _, _ = linalg._echelon(a)
    d = len(basis)
    minors = [1] + [rows[k][k] for k in range(d)]
    # det(A) m is integral (Cramer), and so are row_k . m and det(A) R
    det = minors[d]
    det_m = [c.numerator * (det // c.denominator) for c in linalg.solve_exact(a, beta)]
    shifts = [sum(map(mul, rows[k][k:], det_m[k:])) // det for k in range(d)]
    det_radius = det * (s.pair(x0, x0) + 1) + sum(map(mul, beta, det_m))
    scale = lcm(*(minors[k] * minors[k + 1] for k in range(d)))
    weights = [scale // (minors[k] * minors[k + 1]) for k in range(d)]
    w = [0] * d
    # x = x0 + B w, updated in place; Hermite columns are mostly zero
    support = [[(i, v) for i, v in enumerate(col) if v] for col in basis]
    x = list(x0)
    out: list[IntVector] = []

    def descend(k, budget, c):
        # c = row_k . (w - m) without the w_k term
        piv, weight, nz = minors[k + 1], weights[k], support[k]
        h = isqrt(budget // weight)
        if k == 0:
            # the last coordinate must use up the budget exactly
            if weight * h * h == budget:
                for t in (h, -h) if h else (0,):
                    wk, off = divmod(t - c, piv)
                    if off == 0:
                        y = x[:]
                        for i, v in nz:
                            y[i] += wk * v
                        out.append(tuple(y))
            return
        lo, hi = -((h + c) // piv), (h - c) // piv
        row = rows[k - 1]
        cc = sum(map(mul, row[k + 1:], w[k + 1:])) - shifts[k - 1] + lo * row[k]
        for i, v in nz:
            x[i] += lo * v
        for wk in range(lo, hi + 1):
            t = piv * wk + c
            w[k] = wk
            descend(k - 1, budget - weight * t * t, cc)
            cc += row[k]
            for i, v in nz:
                x[i] += v
        for i, v in nz:
            x[i] -= (hi + 1) * v

    if d:
        descend(d - 1, det_radius * (scale // det), -shifts[d - 1])
    return sorted(out)


def enumerate_minus_one_classes(s: SurfaceLattice, bound: int | None = None) -> list[IntVector]:
    """All classes C with C^2 = -1 and K.C = -1, lexicographically sorted.

    With an explicit bound, every coordinate box cell is tested.  Without
    one, the search is complete on lattices of signature (1, rank-1) with
    K^2 > 0, where the classes are the integer points of one ellipsoid;
    any other lattice needs a bound.
    """
    if bound is not None:
        if bound < 0:
            raise InvalidInputError("bound must be nonnegative", "bound_negative", "bound")
        ranges = [range(-bound, bound + 1)] * s.rank
        return [
            x
            for x in product(*ranges)
            if s.pair(x, x) == -1 and s.pair(s.K, x) == -1
        ]
    if s.pair(s.K, s.K) > 0 and linalg.inertia(s.gram) == (1, s.rank - 1, 0):
        return _ellipsoid_classes(s)
    raise UnboundedSearchError(
        "cannot certify a finite (-1)-class search on this lattice;"
        " pass an explicit bound"
    )


def _contraction_basis(s: SurfaceLattice, c: IntVector) -> list[IntVector]:
    return linalg.integer_kernel((_gram_times(s, c),))


def _check_minus_one(s: SurfaceLattice, c: IntVector):
    if s.pair(c, c) != -1 or s.pair(s.K, c) != -1:
        raise NotMinusOneClassError(
            f"class {list(c)} has C^2 = {s.pair(c, c)}, K.C = {s.pair(s.K, c)};"
            " need both equal to -1"
        )


def _pushforward(s: SurfaceLattice, basis, c: IntVector, x) -> IntVector:
    xc = s.pair(x, c)
    return linalg.coordinates_in_basis(basis, tuple(xi + xc * ci for xi, ci in zip(x, c)))


def pushforward_class(s: SurfaceLattice, c, x) -> IntVector:
    """Image of x under contracting the (-1)-class c, in the new basis.

    The projection is x + (x.C) C, expressed in the canonical integer
    basis of the orthogonal complement of C.
    """
    c = tuple(int(v) for v in c)
    x = tuple(int(v) for v in x)
    _check_minus_one(s, c)
    return _pushforward(s, _contraction_basis(s, c), c, x)


def castelnuovo_contract(s: SurfaceLattice, c) -> SurfaceLattice:
    """Contract a (-1)-class: rank drops by one, K pulls back to K - C."""
    c = tuple(int(v) for v in c)
    _check_minus_one(s, c)
    basis = _contraction_basis(s, c)
    gb = [_gram_times(s, b) for b in basis]
    new_gram = tuple(tuple(sum(map(mul, bi, gv)) for gv in gb) for bi in basis)
    k_upstairs = tuple(k - ci for k, ci in zip(s.K, c))
    new_k = linalg.coordinates_in_basis(basis, k_upstairs)
    return SurfaceLattice(
        rank=s.rank - 1,
        gram=new_gram,
        K=new_k,
        curves=tuple(_pushforward(s, basis, c, x) for x in s.curves if x != c),
        label=s.label,
    )


class MmpOutcome(Enum):
    MINIMAL_MODEL = "MinimalModel"
    MORI_FIBRE_P2LIKE = "MoriFibreP2like"
    MORI_FIBRE_RULED = "MoriFibreRuled"


@dataclass(frozen=True)
class MmpStep:
    contracted: IntVector
    rank_before: int
    rank_after: int


@dataclass(frozen=True)
class MmpTrace:
    steps: tuple[MmpStep, ...]
    outcome: MmpOutcome
    fibre: IntVector | None
    final: SurfaceLattice
    notes: tuple[str, ...] = ()


def run_classical_mmp(s: SurfaceLattice, bound: int | None = None) -> MmpTrace:
    """Contract the lex-smallest (-1)-class until none remain, then classify.

    Outcomes: a ruled fibre space when a known class has f^2 = 0 and
    K.f < 0; a plane-like fibre space at rank 1 when a known curve has
    C^2 > 0 and K.C < 0 (with no nonzero known curve: when K is negative
    on the basis vector); a minimal model when K is nonnegative on every
    known class.

    Without a bound the classes are searched for once.  Contracting c
    splits the lattice as c^perp + Zc with K = pi^*K' + c, so the next
    classes are the found ones orthogonal to c, in the contraction basis:
    a complete list, since c^perp has K'^2 = K^2 + 1 > 0 and signature
    (1, rank-2).  A bound is a box in each step's own coordinates, so that
    path searches again at every step.
    """
    steps = []
    cur = s
    classes = enumerate_minus_one_classes(cur, bound=bound)
    while classes:
        chosen = classes[0]
        nxt = castelnuovo_contract(cur, chosen)
        steps.append(
            MmpStep(contracted=chosen, rank_before=cur.rank, rank_after=nxt.rank)
        )
        if bound is None:
            # B y is lex-monotone in y on a Hermite basis B: the list stays sorted
            basis, gc = _contraction_basis(cur, chosen), _gram_times(cur, chosen)
            classes = [linalg.coordinates_in_basis(basis, e) for e in classes if not sum(map(mul, e, gc))]
        else:
            classes = enumerate_minus_one_classes(nxt, bound=bound)
        cur = nxt
    notes = ["verdict relative to the supplied curve classes"]
    fibres = [
        f for f in cur.curves if cur.pair(f, f) == 0 and cur.pair(cur.K, f) < 0
    ]
    known = [c for c in cur.curves if any(c)]
    if fibres:
        outcome = MmpOutcome.MORI_FIBRE_RULED
        if cur.rank > 2:
            notes.append("fibre extremality not certified above rank 2; heuristic")
    elif cur.rank == 1 and (
        any(cur.pair(c, c) > 0 and cur.pair(cur.K, c) < 0 for c in known)
        if known
        else cur.pair(cur.K, (1,)) < 0
    ):
        outcome = MmpOutcome.MORI_FIBRE_P2LIKE
    elif all(cur.pair(cur.K, c) >= 0 for c in cur.curves):
        outcome = MmpOutcome.MINIMAL_MODEL
        if not cur.curves:
            notes.append("curve list is empty; minimal-model verdict is conditional")
    else:
        raise UndeterminedOutcomeError(
            "no (-1)-classes remain, yet K is negative on a known class that is"
            " not a fibre; outcome not classifiable in this model"
        )
    return MmpTrace(
        steps=tuple(steps),
        outcome=outcome,
        fibre=fibres[0] if fibres else None,
        final=cur,
        notes=tuple(notes),
    )


def cone_rays_rank2(s: SurfaceLattice) -> tuple[IntVector, IntVector]:
    """The two boundary rays of the planar cone spanned by the curve list."""
    if s.rank != 2:
        raise NotRank2Error(f"cone rays need rank 2, got rank {s.rank}")
    if not s.curves:
        raise EmptyCurveListError("no curve classes supplied")
    directions = sorted({linalg.primitive(c) for c in s.curves})

    def cross(u, v):
        return u[0] * v[1] - u[1] * v[0]

    for u in directions:
        for v in directions:
            if cross(u, v) == 0 and u[0] * v[0] + u[1] * v[1] < 0:
                raise DegenerateConeError("curve classes span opposite directions")
    boundary = []
    for d in directions:
        signs = [cross(d, c) for c in directions]
        if all(x >= 0 for x in signs) or all(x <= 0 for x in signs):
            boundary.append(d)
    if len(directions) == 1:
        return directions[0], directions[0]
    if len(boundary) != 2:
        raise DegenerateConeError("curve classes span a half-plane or more")
    return boundary[0], boundary[1]


def _divisor(s: SurfaceLattice, d) -> IntVector:
    """d as a class of s; a length other than the rank is an input error
    on the field ``divisor``."""
    d = tuple(int(x) for x in d)
    if len(d) != s.rank:
        raise InvalidInputError(f"divisor must have length {s.rank}", "divisor_length", "divisor")
    return d


def is_nef(s: SurfaceLattice, d) -> bool:
    """D.C >= 0 for every supplied curve class (relative verdict)."""
    d = _divisor(s, d)
    if not s.curves:
        raise EmptyCurveListError("no curve classes supplied")
    return all(s.pair(d, c) >= 0 for c in s.curves)


def is_ample_kleiman(s: SurfaceLattice, d) -> bool:
    """D.C > 0 for every supplied curve class and D^2 > 0."""
    d = _divisor(s, d)
    if not s.curves:
        raise EmptyCurveListError("no curve classes supplied")
    return all(s.pair(d, c) > 0 for c in s.curves) and s.pair(d, d) > 0


def riemann_roch_surface(s: SurfaceLattice, d, chi0: int):
    """Euler characteristic D.(D-K)/2 + chi0; int when integral else Fraction."""
    d = _divisor(s, d)
    value = Fraction(s.pair(d, d) - s.pair(d, s.K), 2) + chi0
    if value.denominator == 1:
        return int(value)
    return value
