"""Discrepancies and singularity class from a resolution dual graph.

The input is the weighted dual graph of the exceptional curves over a
normal surface point: vertices carry arithmetic genus and
self-intersection, edges carry total intersection multiplicities, and an
optional boundary records how extra curves with rational coefficients in
[0, 1] meet the exceptional locus.

Contractibility is negative-definiteness of the intersection matrix.  The
discrepancies d_i then solve the exact linear system

    sum_i d_i (E_i . E_j) = (2 p_a(E_j) - 2 - E_j^2) + sum_k b_k (B_k . E_j)

for every vertex j, the right side coming from adjunction.  Classification
thresholds: all d > 0 terminal (relative to this resolution), all d >= 0
canonical, all d > -1 klt (boundary coefficients < 1), all d >= -1 lc,
otherwise not lc.  The resolution is minimal exactly when
2 p_a(E_j) - 2 - E_j^2 >= 0 for every j, and only then are the verdicts
resolution-independent without further blow-up probes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from . import linalg
from .errors import (
    CoefficientOutOfRangeError,
    DisconnectedError,
    InvalidInputError,
    InvalidSiteError,
    NotContractibleError,
)
from .linalg import IntMatrix, RatVector


@dataclass(frozen=True)
class Vertex:
    """An exceptional curve: arithmetic genus and self-intersection."""

    genus: int
    self_int: int

    def __post_init__(self):
        genus = linalg.as_int(self.genus, "genus")
        linalg.as_int(self.self_int, "self_int")
        if genus < 0:
            raise InvalidInputError("genus must be nonnegative", "genus_negative", "genus")


@dataclass(frozen=True)
class DualGraph:
    vertices: tuple[Vertex, ...]
    edges: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        edges = linalg.as_rows(self.edges, "edges")
        if not isinstance(self.vertices, (list, tuple)) or not self.vertices:
            raise InvalidInputError("expected a nonempty list of vertices", "wrong_type", "vertices")
        for k, v in enumerate(self.vertices):
            if not isinstance(v, Vertex):
                raise InvalidInputError(f"expected a Vertex, got {v!r}", "wrong_type", f"vertices[{k}]")
        n = len(self.vertices)
        merged: dict[tuple[int, int], int] = {}
        for k, edge in enumerate(edges):
            field = f"edges[{k}]"
            if len(edge) != 3:
                raise InvalidInputError("edge must be [i, j, mult]", "edge_malformed", field)
            i, j, mult = edge
            if not (0 <= i < n and 0 <= j < n):
                raise InvalidInputError("edge endpoint out of range", "edge_bad_index", field)
            if i == j:
                raise InvalidInputError("loops are not allowed", "edge_loop", field)
            if mult < 1:
                raise InvalidInputError("multiplicity must be positive", "edge_bad_mult", field)
            key = (min(i, j), max(i, j))
            merged[key] = merged.get(key, 0) + mult
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(
            self, "edges", tuple((i, j, m) for (i, j), m in sorted(merged.items()))
        )

    def intersection_matrix(self) -> IntMatrix:
        n = len(self.vertices)
        m = [[0] * n for _ in range(n)]
        for i, v in enumerate(self.vertices):
            m[i][i] = v.self_int
        for i, j, mult in self.edges:
            m[i][j] += mult
            m[j][i] += mult
        return tuple(tuple(row) for row in m)

    def is_connected(self) -> bool:
        n = len(self.vertices)
        seen = {0}
        stack = [0]
        adj: dict[int, list[int]] = {i: [] for i in range(n)}
        for i, j, _ in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        while stack:
            cur = stack.pop()
            for nb in adj[cur]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        return len(seen) == n

    def canonical_degrees(self) -> tuple[int, ...]:
        """K . E_j = 2 p_a(E_j) - 2 - E_j^2 for each vertex, by adjunction."""
        return tuple(2 * v.genus - 2 - v.self_int for v in self.vertices)


@dataclass(frozen=True)
class BoundaryComponent:
    coeff: Fraction
    meets: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        coeff = linalg.as_fraction(self.coeff, "coeff")
        object.__setattr__(self, "coeff", coeff)
        meets = linalg.as_rows(self.meets, "meets")
        if not 0 <= coeff <= 1:
            raise CoefficientOutOfRangeError(
                f"boundary coefficient {coeff} is outside [0, 1]", "coeff_out_of_range", "coeff"
            )
        merged: dict[int, int] = {}
        for k, pair in enumerate(meets):
            if len(pair) != 2:
                raise InvalidInputError("expected [vertex, mult]", "meets_malformed", f"meets[{k}]")
            vertex, mult = pair
            if mult < 1:
                raise InvalidInputError("multiplicity must be positive", "meets_bad_mult", f"meets[{k}]")
            merged[vertex] = merged.get(vertex, 0) + mult
        object.__setattr__(self, "meets", tuple(sorted(merged.items())))


@dataclass(frozen=True)
class Boundary:
    components: tuple[BoundaryComponent, ...] = ()

    def __post_init__(self):
        if not isinstance(self.components, (list, tuple)):
            raise InvalidInputError("expected a list of boundary components", "wrong_type", "components")
        for k, c in enumerate(self.components):
            if not isinstance(c, BoundaryComponent):
                raise InvalidInputError(f"expected a BoundaryComponent, got {c!r}", "wrong_type", f"components[{k}]")
        object.__setattr__(self, "components", tuple(self.components))

    def validate_against(self, graph: DualGraph):
        """Every met vertex exists; the field is ``boundary[k].meets[m]``, with
        m the position in the component's sorted ``meets``."""
        n = len(graph.vertices)
        for k, comp in enumerate(self.components):
            for m, (vertex, _) in enumerate(comp.meets):
                if not 0 <= vertex < n:
                    raise InvalidInputError(
                        "vertex index out of range", "meets_bad_index", f"boundary[{k}].meets[{m}]"
                    )

    def intersection_with(self, vertex: int) -> Fraction:
        total = Fraction(0)
        for comp in self.components:
            for v, mult in comp.meets:
                if v == vertex:
                    total += comp.coeff * mult
        return total

    def touching_coefficients(self) -> tuple[Fraction, ...]:
        return tuple(c.coeff for c in self.components if c.meets)


EMPTY_BOUNDARY = Boundary(())


class SingularityClass(Enum):
    TERMINAL_REL = "TerminalRel"
    CANONICAL = "Canonical"
    KLT = "Klt"
    LC = "Lc"
    NOT_LC = "NotLc"


@dataclass(frozen=True)
class DiscrepancyReport:
    discrepancies: RatVector
    singularity_class: SingularityClass
    du_val: str | None
    minimal_resolution: bool


def check_contractible(graph: DualGraph) -> bool:
    """True iff the intersection matrix is negative definite."""
    if not graph.is_connected():
        raise DisconnectedError("exceptional locus of one point must be connected")
    return linalg.is_negative_definite(graph.intersection_matrix())


def _classify(d, touching) -> SingularityClass:
    if all(x > 0 for x in d):
        return SingularityClass.TERMINAL_REL
    if all(x >= 0 for x in d):
        return SingularityClass.CANONICAL
    if all(x > -1 for x in d) and all(c < 1 for c in touching):
        return SingularityClass.KLT
    if all(x >= -1 for x in d) and all(c <= 1 for c in touching):
        return SingularityClass.LC
    return SingularityClass.NOT_LC


def discrepancies(graph: DualGraph, boundary: Boundary | None = None) -> DiscrepancyReport:
    """Solve for the discrepancy of every exceptional curve and classify.

    The form is eliminated once, kept by linalg for the solve.  With no boundary
    detect_du_val tests definiteness on a connected graph of genus-0 (-2)-curves
    with simple edges, and names it exactly when it passes; every graph it does
    not name goes to check_contractible, which finds the form already factored
    when detect_du_val has tested it.  The right-hand side is the int vector of
    canonical degrees plus coeff * mult at each vertex a boundary component
    meets, an integral coeff added as an int, so with no fractional component
    meeting the graph the solve runs on ints throughout.
    """
    boundary = boundary or EMPTY_BOUNDARY
    boundary.validate_against(graph)
    du_val = None if boundary.components else detect_du_val(graph)
    if du_val is None and not check_contractible(graph):
        raise NotContractibleError("intersection matrix is not negative definite")
    k_deg = graph.canonical_degrees()
    rhs = list(k_deg)  # validate_against has put every met vertex in range
    for comp in boundary.components:
        coeff = comp.coeff.numerator if comp.coeff.denominator == 1 else comp.coeff
        for vertex, mult in comp.meets:
            rhs[vertex] += coeff * mult
    d = linalg.solve_exact(graph.intersection_matrix(), rhs)
    return DiscrepancyReport(
        discrepancies=d,
        singularity_class=_classify(d, boundary.touching_coefficients()),
        du_val=du_val,
        minimal_resolution=all(k >= 0 for k in k_deg),
    )


def detect_du_val(graph: DualGraph) -> str | None:
    """Name the ADE Dynkin diagram when the graph is one, else None.

    A connected, negative-definite graph of genus-0 (-2)-curves with simple
    edges is an ADE diagram (Artin, Amer. J. Math. 88, 1966), so once its
    form has signature (0, n, 0) its degrees name it: with no fork it is
    A_n; a fork with two or three leaf neighbours is D_n, and with one E_n.
    """
    minus_two = all(v.genus == 0 and v.self_int == -2 for v in graph.vertices)
    if not minus_two or any(mult != 1 for _, _, mult in graph.edges) or not graph.is_connected():
        return None
    if not linalg.is_negative_definite(graph.intersection_matrix()):
        return None
    n = len(graph.vertices)
    degrees = [0] * n
    for i, j, _ in graph.edges:
        degrees[i] += 1
        degrees[j] += 1
    if 3 not in degrees:
        return f"A{n}"
    fork = degrees.index(3)
    leaves = sum(degrees[j if i == fork else i] == 1 for i, j, _ in graph.edges if fork in (i, j))
    return f"{'E' if leaves == 1 else 'D'}{n}"


# -- blow-up bookkeeping -------------------------------------------------------


@dataclass(frozen=True)
class FreePoint:
    """Blow up a point on E_vertex away from all other curves."""

    vertex: int


@dataclass(frozen=True)
class EdgePoint:
    """Blow up one intersection point of E_i and E_j."""

    i: int
    j: int


@dataclass(frozen=True)
class BoundaryPoint:
    """Blow up a point where boundary component k meets E_vertex."""

    vertex: int
    component: int


BlowupSite = FreePoint | EdgePoint | BoundaryPoint


def blowup_vertex(
    graph: DualGraph, boundary: Boundary | None, site: BlowupSite
) -> tuple[DualGraph, Boundary]:
    """Blow up a point of the resolution surface at the given site.

    One rule serves every site: each curve E through the point has strict
    transform E' = pi^*E - F, so E'^2 = E^2 - 1 and E'.F = 1, and the new
    vertex F is a genus-0 (-1)-curve (Hartshorne V.3.2 and V.3.6).  The point
    takes one unit of the edge or boundary meeting it; a boundary component
    blown up at a point meets F once.
    """
    boundary = boundary or EMPTY_BOUNDARY
    boundary.validate_against(graph)
    n = len(graph.vertices)
    edges = {(i, j): mult for i, j, mult in graph.edges}
    comps = list(boundary.components)
    if isinstance(site, FreePoint):
        if not 0 <= linalg.as_int(site.vertex, "vertex") < n:
            raise InvalidSiteError(f"no vertex {site.vertex}")
        through = (site.vertex,)
    elif isinstance(site, EdgePoint):
        through = tuple(sorted((linalg.as_int(site.i, "i"), linalg.as_int(site.j, "j"))))
        if through not in edges:
            raise InvalidSiteError(f"no edge between {through[0]} and {through[1]}")
        edges[through] -= 1
    elif isinstance(site, BoundaryPoint):
        if not 0 <= linalg.as_int(site.component, "component") < len(comps):
            raise InvalidSiteError(f"no boundary component {site.component}")
        comp = comps[site.component]
        meets = dict(comp.meets)
        if meets.get(linalg.as_int(site.vertex, "vertex"), 0) < 1:
            raise InvalidSiteError(
                f"boundary component {site.component} does not meet vertex {site.vertex}"
            )
        through = (site.vertex,)
        meets[site.vertex] -= 1
        meets[n] = 1
        comps[site.component] = BoundaryComponent(comp.coeff, tuple((v, m) for v, m in meets.items() if m))
    else:
        raise InvalidSiteError(f"unrecognized blow-up site {site!r}")
    verts = [Vertex(v.genus, v.self_int - 1) if k in through else v for k, v in enumerate(graph.vertices)]
    verts.append(Vertex(genus=0, self_int=-1))
    edges.update({(k, n): 1 for k in through})
    new_graph = DualGraph(tuple(verts), tuple((i, j, m) for (i, j), m in edges.items() if m))
    return new_graph, Boundary(tuple(comps))
