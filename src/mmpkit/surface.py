"""Intersection-lattice models of smooth projective surfaces and the
classical minimal model program on them.

A surface is modelled extensionally: a rank, an integer Gram matrix for
the intersection pairing, the canonical class, and a list of known curve
classes.  Nef/ample/cone verdicts are always relative to the supplied
curve list.  Contractions of (-1)-classes are computed exactly: the new
lattice is the orthogonal complement of the contracted class in a
canonical integer basis (column Hermite form), so repeated runs produce
identical traces.  A lattice from outside is validated when constructed;
``make_blowup_p2``, ``make_quadric`` and each contraction build theirs
from a proof instead, unchecked: parity carries over since the image x'
of x has x'^2 + K'.x' = x^2 + K.x + (x.C)(x.C - 1).

Without a search bound, (-1)-class enumeration is complete on lattices
of signature (1, rank-1) with K^2 > 0, in any basis: there the classes
are the integer points of one positive-definite ellipsoid, listed by
``linalg.ellipsoid_points``.  Anything else needs an explicit coordinate
bound; blow-ups of the plane in 9 or more points have K^2 <= 0 and
infinitely many (-1)-classes.  The unbounded MMP searches once, as the
classes orthogonal to a contracted class are all those of the contracted
lattice.  It keeps them in the input's coordinates: a Hermite basis maps
coordinates lex-monotonically and keeps the pairing, so each step's
lex-smallest class is the first one orthogonal to all contracted so far,
and only it is mapped into the step's coordinates.  Each step's basis is
computed once, by ``_contraction_basis``, for that mapping and for the
contraction alike.  With a bound, each step scans its own box again.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import product
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
    ToolkitError,
    UnboundedSearchError,
    UndeterminedOutcomeError,
)
from .linalg import IntMatrix, IntVector


@dataclass(frozen=True)
class SurfaceLattice:
    """Neron-Severi-style lattice: rank, Gram matrix, canonical class, curves.

    Constructing one validates every field.  The lattices of make_blowup_p2,
    make_quadric and castelnuovo_contract skip that check, as they carry
    their proof (castelnuovo_contract's docstring gives the contraction's).
    """

    rank: int
    gram: IntMatrix
    K: IntVector
    curves: tuple[IntVector, ...] = ()
    label: str = ""

    def __post_init__(self):
        rank = linalg.as_int(self.rank, "rank")
        gram = linalg.as_rows(self.gram, "gram")
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "K", linalg.as_vector(self.K, "K"))
        object.__setattr__(self, "curves", linalg.as_rows(self.curves, "curves"))
        if not isinstance(self.label, str):
            raise InvalidInputError("label must be a string", "wrong_type", "label")
        if rank < 1:
            raise InvalidInputError("rank must be positive", "rank_out_of_range", "rank")
        if len(gram) != rank:
            raise InvalidInputError(f"expected {rank} rows", "gram_not_square", "gram")
        for k, row in enumerate(gram):
            if len(row) != rank:
                raise InvalidInputError(f"expected {rank} entries", "gram_not_square", f"gram[{k}]")
        if not linalg.is_symmetric(gram):  # only a mismatch is located here
            i, j = next((i, j) for i in range(rank) for j in range(i + 1, rank) if gram[i][j] != gram[j][i])
            raise NotSymmetricError(
                f"gram[{i}][{j}] = {gram[i][j]} differs from gram[{j}][{i}] = {gram[j][i]}",
                "gram_not_symmetric",
                f"gram[{i}][{j}]",
            )
        if len(self.K) != rank:
            raise InvalidInputError(f"K must have length {rank}", "k_length", "K")
        # C^2 = sum G_ii c_i^2 + 2 sum_{i<j} G_ij c_i c_j has the parity of
        # sum G_ii c_i, so C.(C+K) has the parity of w.c, w_i = G_ii + (G K)_i
        w = [row[i] + sum(map(mul, row, self.K)) for i, row in enumerate(gram)]
        for idx, c in enumerate(self.curves):
            if len(c) != rank:
                raise InvalidInputError(f"curve must have length {rank}", "curve_length", f"curves[{idx}]")
            if sum(map(mul, w, c)) % 2 != 0:
                raise NonIntegralGenusError(
                    f"curve {idx} violates adjunction parity: C.(C+K) is odd", "curve_parity", "curves"
                )

    def pair(self, x, y) -> int:
        """x.y under the Gram matrix; a length other than the rank is an input
        error on field ``x`` or ``y``, with code ``x_length`` or ``y_length``."""
        if len(x) != self.rank:
            raise InvalidInputError(f"x must have length {self.rank}", "x_length", "x")
        if len(y) != self.rank:
            raise InvalidInputError(f"y must have length {self.rank}", "y_length", "y")
        return sum(xi * sum(map(mul, row, y)) for xi, row in zip(x, self.gram) if xi)

    def warnings(self) -> tuple[str, ...]:
        notes = []
        if linalg.inertia(self.gram) != (1, self.rank - 1, 0):
            notes.append("intersection form does not have signature (1, rank-1)")
        return tuple(notes)


def _lattice(rank: int, gram: IntMatrix, K: IntVector, curves: tuple[IntVector, ...], label: str) -> SurfaceLattice:
    """A SurfaceLattice whose fields its caller has proven valid: set, not checked."""
    s = object.__new__(SurfaceLattice)
    s.__dict__.update(rank=rank, gram=gram, K=K, curves=curves, label=label)
    return s


def make_blowup_p2(r: int) -> SurfaceLattice:
    """Blow-up of the plane at r points: basis (H, E_1, ..., E_r)."""
    if linalg.as_int(r, "r") < 0:
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
    # H and each E_i have C.(C+K) = -2, which is even
    return _lattice(rank, gram, K, tuple(exceptional + [hyperplane]), f"blowup_p2({r})")


def make_quadric() -> SurfaceLattice:
    """The quadric surface: two rulings with pairing [[0,1],[1,0]], each
    with f^2 = 0 and K.f = -2, so even f.(f+K)."""
    return _lattice(2, ((0, 1), (1, 0)), (-2, -2), ((1, 0), (0, 1)), "quadric")


def adjunction_genus(s: SurfaceLattice, c) -> int:
    """Arithmetic genus 1 + C.(C+K)/2; raises on parity violation."""
    c = _class(s, c, "c")
    total = s.pair(c, c) + s.pair(c, s.K)
    if total % 2 != 0:
        raise NonIntegralGenusError("C.(C+K) is odd; no integral genus")
    return 1 + total // 2


def _gram_times(s: SurfaceLattice, v) -> IntVector:
    """G v, the coefficients of the functional x -> x.v."""
    return tuple(sum(map(mul, row, v)) for row in s.gram)


def _ellipsoid_classes(s: SurfaceLattice) -> list[IntVector]:
    """C^2 = K.C = -1 when K^2 > 0 and the form has signature (1, rank-1):
    x = x0 + B w, x0 and a basis B of K^perp from the Hermite form of
    [G K ; I], with w^T A w - 2 beta.w = x0^2 + 1, A = -B^T G B and beta = B^T G x0."""
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
    # x = x0 + B w, over the nonzero entries of the Hermite columns of B
    entries = [(k, i, v) for k, col in enumerate(basis) for i, v in enumerate(col) if v]
    out = []
    for w in linalg.ellipsoid_points(a, beta, s.pair(x0, x0) + 1):
        x = x0[:]
        for k, i, v in entries:
            x[i] += w[k] * v
        out.append(tuple(x))
    return sorted(out)


def enumerate_minus_one_classes(s: SurfaceLattice, bound: int | None = None) -> list[IntVector]:
    """All classes C with C^2 = -1 and K.C = -1, lexicographically sorted.

    With an explicit bound, every coordinate box cell is tested.  Without
    one, a lattice of signature (1, rank-1) with K^2 > 0 is searched
    completely, on one ellipsoid (linalg.ellipsoid_points); any other needs a bound.
    """
    if bound is not None:
        if linalg.as_int(bound, "bound") < 0:
            raise InvalidInputError("bound must be nonnegative", "bound_negative", "bound")
        gk = _gram_times(s, s.K)
        box = product(*[range(-bound, bound + 1)] * s.rank)
        hits = (x for x in box if sum(map(mul, gk, x)) == -1)
        return [x for x in hits if sum(map(mul, x, _gram_times(s, x))) == -1]
    if s.pair(s.K, s.K) > 0 and linalg.inertia(s.gram) == (1, s.rank - 1, 0):
        return _ellipsoid_classes(s)
    raise UnboundedSearchError(
        "cannot certify a finite (-1)-class search on this lattice;"
        " pass an explicit bound"
    )


def _minus_one_functional(s: SurfaceLattice, c: IntVector) -> IntVector:
    """G c, once c is checked to be a (-1)-class."""
    gc = _gram_times(s, c)
    cc, kc = sum(map(mul, c, gc)), sum(map(mul, s.K, gc))
    if cc != -1 or kc != -1:
        raise NotMinusOneClassError(
            f"class {list(c)} has C^2 = {cc}, K.C = {kc}; need both equal to -1"
        )
    return gc


@lru_cache(maxsize=1)
def _contraction_basis(gc: IntVector) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Column supports of the Hermite basis of c^perp, gc = G c; the last
    is kept, so an MMP step and its contraction share it."""
    return linalg.column_supports(linalg.integer_kernel((gc,)))


def _pushforward(supports, gc: IntVector, c: IntVector, x) -> IntVector:
    """x + (x.C) C in the contraction basis, given by its column supports;
    gc is G c."""
    xc = sum(map(mul, x, gc))
    if xc:
        x = [xi + xc * ci for xi, ci in zip(x, c)]
    return linalg.coordinates_in_supports(supports, x)


def _contracted_class(s: SurfaceLattice, c) -> IntVector:
    """c as a class of s to contract; a rank-1 lattice is refused first, as
    its contraction would have rank 0."""
    if s.rank == 1:
        raise ToolkitError("a rank-1 lattice cannot be contracted: nothing would be left", "rank_one_contraction")
    return _class(s, c, "c")


def pushforward_class(s: SurfaceLattice, c, x) -> IntVector:
    """Image of x under contracting the (-1)-class c, in the new basis.

    The projection is x + (x.C) C, expressed in the canonical integer
    basis of the orthogonal complement of C.
    """
    c = _contracted_class(s, c)
    x = _class(s, x, "x")
    gc = _minus_one_functional(s, c)
    return _pushforward(_contraction_basis(gc), gc, c, x)


def castelnuovo_contract(s: SurfaceLattice, c) -> SurfaceLattice:
    """Contract a (-1)-class: rank drops by one, K pulls back to K - C.

    The result is built unchecked, from what the contraction proves of a
    valid s.  With B the Hermite basis of C^perp, B^T G B is an integral
    symmetric matrix; each x' = x + (x.C) C lies in C^perp (K' = K - C, as
    K.C = -1), so it has rank - 1 integer coordinates; x'^2 + K'.x' = x^2 + K.x +
    (x.C)(x.C - 1), an even change, so adjunction parity carries over; and
    the rank s.rank - 1 is at least 1, as a rank-1 s is refused.
    """
    c = _contracted_class(s, c)
    gc = _minus_one_functional(s, c)
    # the Hermite columns are mostly zero: their supports are read once,
    # for the Gram matrix, K and every curve
    supports = _contraction_basis(gc)
    g = s.gram
    # symmetric by construction: the upper triangle, mirrored
    upper = [
        [sum([v * w * g[i][j] for i, v in si for j, w in sj]) for sj in supports[k:]]
        for k, si in enumerate(supports)
    ]
    new_gram = tuple(tuple([upper[j][k - j] for j in range(k)] + upper[k]) for k in range(len(upper)))
    curves = tuple(_pushforward(supports, gc, c, x) for x in s.curves if x != c)
    return _lattice(s.rank - 1, new_gram, _pushforward(supports, gc, c, s.K), curves, s.label)


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
    C^2 > 0 and K.C < 0; a minimal model when K is nonnegative on every
    known class, noted as conditional when no known class is nonzero, since
    the lattice alone does not fix the sign of K on a curve.

    Without a bound the classes are searched for once, and the list stays
    in the input's coordinates.  Contracting c splits the lattice as
    c^perp + Zc with K = pi^*K' + c, so the classes of the contracted
    lattice are the found ones orthogonal to c: a complete list, since
    c^perp has K'^2 = K^2 + 1 > 0 and signature (1, rank-2).  Its basis B,
    in column Hermite form, maps y to B y, which keeps the pairing and is
    lex-monotone (the first coordinate where y and y' differ lands, times
    a positive pivot, on the first row where B y and B y' differ).  So the
    lex-smallest class of each step is the first found class orthogonal to
    every contracted one, under the input Gram matrix, and only that class
    is mapped into the step's coordinates, through the bases so far.  A
    bound is a box in each step's own coordinates, so that path searches
    again at every step.
    """
    steps = []
    cur = s
    # without a bound: the found classes orthogonal to every contracted one,
    # in the input's coordinates, and the supports of the contraction bases so far
    found = enumerate_minus_one_classes(s, bound=bound)
    bases = []
    while found:
        chosen = found[0]
        if bound is None:
            ge = _gram_times(s, chosen)
            found = [e for e in found if not sum(map(mul, e, ge))]
            for supports in bases:
                chosen = linalg.coordinates_in_supports(supports, chosen)
            bases.append(_contraction_basis(_gram_times(cur, chosen)))
        nxt = castelnuovo_contract(cur, chosen)
        steps.append(
            MmpStep(contracted=chosen, rank_before=cur.rank, rank_after=nxt.rank)
        )
        cur = nxt
        if bound is not None:
            found = enumerate_minus_one_classes(cur, bound=bound)
    notes = ["verdict relative to the supplied curve classes"]
    fibres = [
        f for f in cur.curves if cur.pair(f, f) == 0 and cur.pair(cur.K, f) < 0
    ]
    known = [c for c in cur.curves if any(c)]
    if fibres:
        outcome = MmpOutcome.MORI_FIBRE_RULED
        if cur.rank > 2:
            notes.append("fibre extremality not certified above rank 2; heuristic")
    elif cur.rank == 1 and any(cur.pair(c, c) > 0 and cur.pair(cur.K, c) < 0 for c in known):
        outcome = MmpOutcome.MORI_FIBRE_P2LIKE
    elif all(cur.pair(cur.K, c) >= 0 for c in cur.curves):
        outcome = MmpOutcome.MINIMAL_MODEL
        if not known:
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
    """The two boundary rays of the planar cone spanned by the curve list.

    A zero class spans nothing and is skipped; a list of zero classes only
    spans no cone."""
    if s.rank != 2:
        raise NotRank2Error(f"cone rays need rank 2, got rank {s.rank}")
    if not s.curves:
        raise EmptyCurveListError("no curve classes supplied")
    found = {linalg.primitive(c) for c in s.curves if any(c)}
    if not found:
        raise DegenerateConeError("every curve class is zero")
    # primitive directions on one line are equal or opposite
    if any((-x, -y) in found for x, y in found):
        raise DegenerateConeError("curve classes span opposite directions")
    directions = sorted(found)
    if len(directions) == 1:
        return directions[0], directions[0]
    # a boundary ray has every direction on one side of its line
    crosses = [[x * v - y * u for u, v in directions] for x, y in directions]
    boundary = [d for d, c in zip(directions, crosses) if min(c) >= 0 or max(c) <= 0]
    if len(boundary) != 2:
        raise DegenerateConeError("curve classes span a half-plane or more")
    return boundary[0], boundary[1]


def _class(s: SurfaceLattice, v, field: str) -> IntVector:
    """v as a class of s; a length other than the rank is an input error
    on field, with code ``<field>_length`` (``divisor_length``)."""
    v = linalg.as_vector(v, field)
    if len(v) != s.rank:
        raise InvalidInputError(f"{field} must have length {s.rank}", f"{field}_length", field)
    return v


def is_nef(s: SurfaceLattice, d) -> bool:
    """D.C >= 0 for every supplied curve class (relative verdict)."""
    d = _class(s, d, "divisor")
    if not s.curves:
        raise EmptyCurveListError("no curve classes supplied")
    return all(s.pair(d, c) >= 0 for c in s.curves)


def is_ample_kleiman(s: SurfaceLattice, d) -> bool:
    """D.C > 0 for every supplied curve class and D^2 > 0."""
    d = _class(s, d, "divisor")
    if not s.curves:
        raise EmptyCurveListError("no curve classes supplied")
    return all(s.pair(d, c) > 0 for c in s.curves) and s.pair(d, d) > 0


def riemann_roch_surface(s: SurfaceLattice, d, chi0: int):
    """Euler characteristic D.(D-K)/2 + chi0; int when integral else Fraction."""
    d = _class(s, d, "divisor")
    value = Fraction(s.pair(d, d) - s.pair(d, s.K), 2) + linalg.as_int(chi0, "chi0")
    return value.numerator if value.denominator == 1 else value
