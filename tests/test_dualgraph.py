import json
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import (
    chain_graph,
    cycle_graph,
    disjoint_union,
    dynkin_graph,
    mat_vec,
    random_boundary,
    random_negdef_graph,
    random_tree_edges,
    tree_graph,
    walk_du_val,
)
from mmpkit import dualgraph, linalg
from mmpkit.cli import parse_graph
from mmpkit.dualgraph import (
    Boundary,
    BoundaryComponent,
    BoundaryPoint,
    DualGraph,
    EdgePoint,
    FreePoint,
    SingularityClass,
    Vertex,
    blowup_vertex,
    check_contractible,
    detect_du_val,
    discrepancies,
)
from mmpkit.errors import (
    CoefficientOutOfRangeError,
    DisconnectedError,
    InvalidSiteError,
    NotContractibleError,
)


def single_vertex(genus, self_int):
    return DualGraph(vertices=(Vertex(genus=genus, self_int=self_int),), edges=())


def seeded_graph(rng):
    """A random tree of (-2)-curves, or one with a multiple edge, with a vertex
    that is not a genus-0 (-2)-curve, or beside a second such tree."""
    n = rng.randint(1, 12)
    vertices = [Vertex(0, -2)] * n
    edges = random_tree_edges(rng, n)
    change = rng.choice(["none", "edge", "vertex", "union"])
    if change == "edge" and n >= 2:
        edges.append(rng.choice(edges) if rng.random() < 0.5 else (*rng.sample(range(n), 2), 2))
    elif change == "vertex":
        vertices[rng.randrange(n)] = rng.choice([Vertex(0, -3), Vertex(0, -1), Vertex(1, -2)])
    graph = DualGraph(vertices=tuple(vertices), edges=tuple(edges))
    if change == "union":
        m = rng.randint(1, 8)
        other = DualGraph(vertices=(Vertex(0, -2),) * m, edges=tuple(random_tree_edges(rng, m)))
        graph = disjoint_union(graph, other)
    return graph


def blowup_formula_value(report, boundary, site):
    """Expected discrepancy of the new exceptional curve."""
    d = report.discrepancies
    if isinstance(site, FreePoint):
        return 1 + d[site.vertex]
    if isinstance(site, EdgePoint):
        return 1 + d[site.i] + d[site.j]
    comp = boundary.components[site.component]
    return 1 + d[site.vertex] - comp.coeff


class TestInputFaults:
    def test_faults_carry_code_and_field(self):
        vertices = (Vertex(genus=0, self_int=-2), Vertex(genus=0, self_int=-2))
        stray = Boundary((BoundaryComponent(coeff=0, meets=((0, 1), (3, 1))),))
        cases = [
            (lambda: Vertex(genus=-1, self_int=-2), "genus_negative", "genus"),
            (lambda: DualGraph(vertices=(), edges=()), "wrong_type", "vertices"),
            (lambda: DualGraph(vertices=vertices, edges=((0, 1),)), "edge_malformed", "edges[0]"),
            (lambda: DualGraph(vertices=vertices, edges=((0, 1, 1), (0, 2, 1))), "edge_bad_index", "edges[1]"),
            (lambda: DualGraph(vertices=vertices, edges=((1, 1, 1),)), "edge_loop", "edges[0]"),
            (lambda: DualGraph(vertices=vertices, edges=((0, 1, 0),)), "edge_bad_mult", "edges[0]"),
            (lambda: BoundaryComponent(coeff=2), "coeff_out_of_range", "coeff"),
            (lambda: BoundaryComponent(coeff=0, meets=((0, 1), (1,))), "meets_malformed", "meets[1]"),
            (lambda: BoundaryComponent(coeff=0, meets=((0, 0),)), "meets_bad_mult", "meets[0]"),
            (lambda: discrepancies(single_vertex(0, -2), stray), "meets_bad_index", "boundary[0].meets[1]"),
        ]
        for build, code, field in cases:
            with pytest.raises((ValueError, CoefficientOutOfRangeError)) as info:
                build()
            assert (info.value.code, info.value.field) == (code, field)

    def test_vertices_from_a_list_are_stored_as_a_tuple(self):
        v = Vertex(genus=0, self_int=-2)
        from_list = DualGraph(vertices=[v, v], edges=[(0, 1, 1)])
        from_tuple = DualGraph(vertices=(v, v), edges=((0, 1, 1),))
        assert from_list.vertices == (v, v)
        assert from_list == from_tuple
        assert hash(from_list) == hash(from_tuple)


class TestContractibility:
    def test_examples(self):
        assert check_contractible(single_vertex(0, -2)) is True
        assert check_contractible(single_vertex(0, 0)) is False
        assert check_contractible(chain_graph([-2, -2])) is True

    def test_disconnected_raises(self):
        graph = DualGraph(
            vertices=(Vertex(0, -2), Vertex(0, -2)),
            edges=(),
        )
        with pytest.raises(DisconnectedError):
            check_contractible(graph)

    def test_not_contractible_propagates(self):
        with pytest.raises(NotContractibleError):
            discrepancies(single_vertex(0, 1))

    def test_minus_two_graphs_without_a_du_val_name_still_fail(self):
        """(-2)-graphs that detect_du_val turns down reach check_contractible."""
        for graph in (cycle_graph(4), tree_graph(2, 3, 7)):
            with pytest.raises(NotContractibleError):
                discrepancies(graph)
        for graph in (
            disjoint_union(dynkin_graph("A", 2), dynkin_graph("A", 1)),
            disjoint_union(dynkin_graph("E", 8), dynkin_graph("A", 3)),
        ):
            with pytest.raises(DisconnectedError):
                discrepancies(graph)

    def test_definiteness_is_tested_once(self, monkeypatch):
        # a connected (-2)-graph that detect_du_val leaves unnamed has had its form
        # eliminated, and check_contractible reads that elimination back
        calls = []

        def counted(a, symmetric=False, ops=None, _eliminate=linalg._eliminate):
            calls.append(len(a))
            return _eliminate(a, symmetric, ops)

        monkeypatch.setattr(linalg, "_eliminate", counted)
        cases = [
            (cycle_graph(5), NotContractibleError, [5]),
            (tree_graph(2, 3, 7), NotContractibleError, [10]),
            (single_vertex(0, 1), NotContractibleError, [1]),
            (dynkin_graph("E", 8), None, [8]),
            (chain_graph([-2, -3, -2]), None, [3]),
            (disjoint_union(dynkin_graph("A", 2), dynkin_graph("A", 1)), DisconnectedError, []),
        ]
        for graph, error, expected in cases:
            calls.clear()
            linalg._factor.cache_clear()
            if error is None:
                discrepancies(graph)
            else:
                with pytest.raises(error):
                    discrepancies(graph)
            assert calls == expected, graph
        # with a boundary detect_du_val is not asked, and check_contractible eliminates once
        calls.clear()
        linalg._factor.cache_clear()
        boundary = Boundary(components=(BoundaryComponent(Fraction(1, 2), ((0, 1),)),))
        with pytest.raises(NotContractibleError):
            discrepancies(cycle_graph(5), boundary)
        assert calls == [5]


class TestOneEliminationPerForm:
    """discrepancies eliminates its form once: the definiteness test and
    the solve read one kept factorization."""

    @pytest.mark.parametrize(
        "graph, boundary, definite",
        [
            (dynkin_graph("A", 6), None, True),
            (dynkin_graph("D", 6), None, True),
            (chain_graph([-3] * 5), None, True),
            (cycle_graph(4), None, False),
            # a boundary coefficient of 1/2, so a Fraction right-hand side
            (*parse_graph(json.loads((Path(__file__).parent / "golden" / "graph_boundary.json").read_text())), True),
        ],
        ids=["A6", "D6", "chain-3", "cycle", "graph_boundary"],
    )
    def test_one_elimination_per_discrepancies_call(self, monkeypatch, graph, boundary, definite):
        calls = []

        def counting(a, symmetric=False, ops=None, _eliminate=linalg._eliminate):
            calls.append(a)
            return _eliminate(a, symmetric, ops)

        monkeypatch.setattr(linalg, "_eliminate", counting)
        linalg._factor.cache_clear()
        if definite:
            discrepancies(graph, boundary)
        else:
            with pytest.raises(NotContractibleError):
                discrepancies(graph, boundary)
        assert calls == [graph.intersection_matrix()]


class TestRationalCurveContractions:
    def test_cone_over_rational_normal_curve(self):
        for a, expected_class in [(1, SingularityClass.TERMINAL_REL), (2, SingularityClass.CANONICAL)] + [
            (a, SingularityClass.KLT) for a in range(3, 13)
        ]:
            report = discrepancies(single_vertex(0, -a))
            assert report.discrepancies == (Fraction(a - 2, -a),)
            assert report.singularity_class is expected_class

    def test_genus_one(self):
        report = discrepancies(single_vertex(1, -1))
        assert report.discrepancies == (Fraction(-1),)
        assert report.singularity_class is SingularityClass.LC

    def test_genus_two(self):
        report = discrepancies(single_vertex(2, -1))
        assert report.discrepancies == (Fraction(-3),)
        assert report.singularity_class is SingularityClass.NOT_LC


class TestDuVal:
    def test_a2_chain(self):
        report = discrepancies(chain_graph([-2, -2]))
        assert report.discrepancies == (0, 0)
        assert report.du_val == "A2"

    def test_d4_star(self):
        report = discrepancies(dynkin_graph("D", 4))
        assert report.du_val == "D4"
        assert report.singularity_class is SingularityClass.CANONICAL

    def test_single_minus_three_is_not_du_val(self):
        assert detect_du_val(single_vertex(0, -3)) is None

    def test_full_ade_sweep(self):
        cases = [("A", n) for n in range(1, 11)]
        cases += [("D", n) for n in range(4, 11)]
        cases += [("E", n) for n in (6, 7, 8)]
        for kind, n in cases:
            graph = dynkin_graph(kind, n)
            report = discrepancies(graph)
            assert report.discrepancies == tuple([0] * n), (kind, n)
            assert report.singularity_class is SingularityClass.CANONICAL
            assert report.du_val == f"{kind}{n}"

    def test_du_val_forces_zero_discrepancies(self):
        rng = random.Random(2)
        for _ in range(50):
            kind, n = rng.choice(
                [("A", rng.randint(1, 8)), ("D", rng.randint(4, 8)), ("E", rng.choice([6, 7, 8]))]
            )
            report = discrepancies(dynkin_graph(kind, n))
            assert all(d == 0 for d in report.discrepancies)

    def test_genus_breaks_detection(self):
        graph = DualGraph(
            vertices=(Vertex(1, -2), Vertex(0, -2)), edges=((0, 1, 1),)
        )
        assert detect_du_val(graph) is None

    def test_multiplicity_breaks_detection(self):
        graph = DualGraph(
            vertices=(Vertex(0, -3), Vertex(0, -3)), edges=((0, 1, 2),)
        )
        assert detect_du_val(graph) is None

    def test_matches_the_tree_walk(self):
        trees = [tree_graph(p, q, r) for p in range(2, 14) for q in range(p, 14) for r in range(q, 14)]
        chains = [dynkin_graph("A", n) for n in range(1, 31)]
        cycles = [cycle_graph(n) for n in range(3, 20)]
        rng = random.Random(11)
        seeded = [seeded_graph(rng) for _ in range(2000)]
        # 11 vertices and |det| 4, as D11 has, but two components
        e8_a3 = disjoint_union(dynkin_graph("E", 8), dynkin_graph("A", 3))
        graphs = trees + chains + cycles + seeded + [e8_a3]
        assert len(trees) == 364
        mismatches = [g for g in graphs if detect_du_val(g) != walk_du_val(g)]
        assert mismatches == []
        assert detect_du_val(e8_a3) is None
        names = [detect_du_val(g) for g in trees]
        assert sorted(n for n in names if n) == sorted(["E6", "E7", "E8"] + [f"D{n}" for n in range(4, 16)])


class TestBoundary:
    def test_coefficient_range_enforced(self):
        with pytest.raises(CoefficientOutOfRangeError):
            BoundaryComponent(coeff=Fraction(3, 2), meets=((0, 1),))
        with pytest.raises(CoefficientOutOfRangeError):
            BoundaryComponent(coeff=Fraction(-1, 2), meets=())

    def test_boundary_lowers_discrepancy(self):
        graph = single_vertex(0, -2)
        plain = discrepancies(graph).discrepancies[0]
        loaded = discrepancies(
            graph, Boundary((BoundaryComponent(coeff=Fraction(1, 2), meets=((0, 1),)),))
        ).discrepancies[0]
        assert plain == 0
        assert loaded == Fraction(-1, 4)

    def test_klt_needs_coefficients_below_one(self):
        graph = single_vertex(0, -3)
        half = Boundary((BoundaryComponent(coeff=Fraction(1, 2), meets=((0, 1),)),))
        full = Boundary((BoundaryComponent(coeff=Fraction(1), meets=((0, 1),)),))
        assert discrepancies(graph, half).singularity_class is SingularityClass.KLT
        assert discrepancies(graph, full).singularity_class is SingularityClass.LC

    def test_component_missing_the_point_is_ignored(self):
        graph = single_vertex(0, -3)
        aloof = Boundary((BoundaryComponent(coeff=Fraction(1), meets=()),))
        assert discrepancies(graph, aloof).singularity_class is SingularityClass.KLT

    def test_du_val_graph_with_a_boundary_has_no_name(self):
        graph = dynkin_graph("D", 5)
        plain = discrepancies(graph)
        aloof = discrepancies(graph, Boundary((BoundaryComponent(coeff=Fraction(1, 2)),)))
        assert plain.du_val == "D5"
        assert aloof.du_val is None
        assert aloof.discrepancies == plain.discrepancies
        met = Boundary((BoundaryComponent(coeff=Fraction(1, 2), meets=((1, 1),)),))
        report = discrepancies(graph, met)
        assert report.du_val is None
        rhs = tuple(k + met.intersection_with(j) for j, k in enumerate(graph.canonical_degrees()))
        assert mat_vec(graph.intersection_matrix(), report.discrepancies) == rhs

    def test_right_hand_side_pinned(self):
        # K.E_j plus coeff * mult over every component meeting E_j, solved by hand
        minus_three, minus_four, a2 = single_vertex(0, -3), single_vertex(0, -4), dynkin_graph("A", 2)
        cases = [
            # two components meeting one vertex: -3 d = 1 + 1/2 + 1/3
            (minus_three, [(Fraction(1, 2), ((0, 1),)), (Fraction(1, 3), ((0, 1),))], (Fraction(-11, 18),)),
            # a meet of multiplicity 2, given once or as two meets: -4 d = 2 + 2/3
            (minus_four, [(Fraction(1, 3), ((0, 2),))], (Fraction(-2, 3),)),
            (minus_four, [(Fraction(1, 3), ((0, 1), (0, 1)))], (Fraction(-2, 3),)),
            # integral coefficients on a met vertex: 0 adds nothing, 1 adds 1 to K.E_0 = 0
            (a2, [(0, ((0, 1),))], (0, 0)),
            (a2, [(1, ((0, 1),))], (Fraction(-2, 3), Fraction(-1, 3))),
            (a2, [(0, ((1, 2),)), (1, ((0, 1),))], (Fraction(-2, 3), Fraction(-1, 3))),
        ]
        for graph, comps, expected in cases:
            boundary = Boundary(tuple(BoundaryComponent(coeff=c, meets=meets) for c, meets in comps))
            assert discrepancies(graph, boundary).discrepancies == expected, comps

    def test_met_vertex_out_of_range_raises_before_any_solve(self, monkeypatch):
        # a negative index would otherwise charge the last vertex of the right-hand side
        def refuse(*args):
            raise AssertionError("reached linear algebra")

        for name in ("solve_exact", "is_negative_definite"):
            monkeypatch.setattr(dualgraph.linalg, name, refuse)
        for vertex, position in ((-1, 0), (2, 1), (-2, 0)):
            boundary = Boundary((BoundaryComponent(coeff=Fraction(1, 2), meets=((vertex, 1), (1, 1))),))
            with pytest.raises(ValueError) as info:
                discrepancies(dynkin_graph("A", 2), boundary)
            assert (info.value.code, info.value.field) == ("meets_bad_index", f"boundary[0].meets[{position}]")

    def test_solve_gets_ints_when_no_component_meets_the_graph(self, monkeypatch):
        seen = []

        def spy(a, b, _solve=linalg.solve_exact):
            seen.append([type(x) for x in b])
            return _solve(a, b)

        monkeypatch.setattr(dualgraph.linalg, "solve_exact", spy)
        rng = random.Random(61)
        aloof = Boundary((BoundaryComponent(coeff=Fraction(1, 2)), BoundaryComponent(coeff=1)))
        for k in range(80):
            graph = random_negdef_graph(rng)
            n = len(graph.vertices)
            # components of integral coefficient 0 and 1 that meet the graph add ints too
            integral = Boundary(
                (
                    BoundaryComponent(coeff=0, meets=((rng.randrange(n), 1),)),
                    BoundaryComponent(coeff=Fraction(1), meets=((rng.randrange(n), rng.randint(1, 2)), (0, 1))),
                )
            )
            seen.clear()
            discrepancies(graph, (None, Boundary(), aloof, integral)[k % 4])
            assert seen == [[int] * n], graph
        # a met component of coefficient 1/2 still puts a Fraction where it meets
        seen.clear()
        discrepancies(graph, Boundary((BoundaryComponent(coeff=Fraction(1, 2), meets=((0, 1),)),)))
        assert seen == [[Fraction] + [int] * (n - 1)], graph


class TestBlowupBookkeeping:
    def test_free_point_on_a1(self):
        graph, _ = blowup_vertex(single_vertex(0, -2), None, FreePoint(0))
        assert [(v.genus, v.self_int) for v in graph.vertices] == [(0, -3), (0, -1)]
        assert graph.edges == ((0, 1, 1),)

    def test_edge_of_a2(self):
        graph, _ = blowup_vertex(chain_graph([-2, -2]), None, EdgePoint(0, 1))
        assert [(v.genus, v.self_int) for v in graph.vertices] == [
            (0, -3),
            (0, -3),
            (0, -1),
        ]
        assert graph.edges == ((0, 2, 1), (1, 2, 1))

    def test_free_point_on_genus_one(self):
        graph, _ = blowup_vertex(single_vertex(1, -1), None, FreePoint(0))
        assert [(v.genus, v.self_int) for v in graph.vertices] == [(1, -2), (0, -1)]
        assert graph.edges == ((0, 1, 1),)

    def test_boundary_passthrough(self):
        boundary = Boundary((BoundaryComponent(coeff=Fraction(1, 2), meets=((0, 2),)),))
        graph, new_boundary = blowup_vertex(single_vertex(0, -2), boundary, BoundaryPoint(0, 0))
        assert new_boundary.components[0].meets == ((0, 1), (1, 1))
        assert graph.edges == ((0, 1, 1),)

    def test_invalid_sites(self):
        graph = chain_graph([-2, -2])
        with pytest.raises(InvalidSiteError):
            blowup_vertex(graph, None, FreePoint(5))
        with pytest.raises(InvalidSiteError):
            blowup_vertex(graph, None, EdgePoint(0, 0))
        with pytest.raises(InvalidSiteError):
            blowup_vertex(graph, None, BoundaryPoint(0, 0))

    def test_boundary_point_off_its_component_and_a_foreign_site(self):
        graph = chain_graph([-2, -2])
        boundary = Boundary((BoundaryComponent(coeff=Fraction(1, 2), meets=((0, 1),)),))
        with pytest.raises(InvalidSiteError, match="^boundary component 0 does not meet vertex 1$") as info:
            blowup_vertex(graph, boundary, BoundaryPoint(vertex=1, component=0))
        assert info.value.code == "invalid_site"
        with pytest.raises(InvalidSiteError, match="^unrecognized blow-up site ") as info:
            blowup_vertex(graph, boundary, (0, 1))
        assert info.value.code == "invalid_site"


def every_site(graph, boundary):
    """Each vertex as a FreePoint, each edge as an EdgePoint in both orders,
    and each meeting of a boundary component with a vertex as a BoundaryPoint."""
    yield from (FreePoint(v) for v in range(len(graph.vertices)))
    for i, j, _ in graph.edges:
        yield from (EdgePoint(i, j), EdgePoint(j, i))
    for k, comp in enumerate(boundary.components):
        yield from (BoundaryPoint(vertex=v, component=k) for v, _ in comp.meets)


def meet_matrix(graph, boundary):
    """Components x vertices: the multiplicity with which component k meets vertex v."""
    rows = [[0] * len(graph.vertices) for _ in boundary.components]
    for row, comp in zip(rows, boundary.components):
        for v, mult in comp.meets:
            row[v] += mult
    return rows


class TestBlowupStrictTransform:
    """A curve E through the blown-up point pulls back as E' + F, so with t the
    0/1 vector of the curves through the point the new intersection matrix is
    [[M - t t^T, t], [t^T, -1]]; with s the 0/1 vector of the blown-up boundary
    component the new meet matrix is [N - s t^T, s]."""

    def check(self, graph, boundary, site):
        n = len(graph.vertices)
        through = {site.i, site.j} if isinstance(site, EdgePoint) else {site.vertex}
        t = [int(v in through) for v in range(n)]
        s = [int(isinstance(site, BoundaryPoint) and k == site.component) for k in range(len(boundary.components))]
        m = graph.intersection_matrix()
        new_graph, new_boundary = blowup_vertex(graph, boundary, site)
        expected_m = [[m[a][b] - t[a] * t[b] for b in range(n)] + [t[a]] for a in range(n)] + [t + [-1]]
        assert [list(row) for row in new_graph.intersection_matrix()] == expected_m, site
        assert [v.genus for v in new_graph.vertices] == [v.genus for v in graph.vertices] + [0]
        expected_n = [[row[v] - s[k] * t[v] for v in range(n)] + [s[k]] for k, row in enumerate(meet_matrix(graph, boundary))]
        assert meet_matrix(new_graph, new_boundary) == expected_n, site
        assert [c.coeff for c in new_boundary.components] == [c.coeff for c in boundary.components]
        return new_graph

    def test_seeded_graphs_at_every_site(self):
        rng = random.Random(2503)
        kinds = set()
        for _ in range(120):
            graph = random_negdef_graph(rng)
            boundary = random_boundary(rng, graph)
            for site in every_site(graph, boundary):
                self.check(graph, boundary, site)
                kinds.add(type(site))
        assert kinds == {FreePoint, EdgePoint, BoundaryPoint}

    def test_double_edge_and_genus_one(self):
        graph = DualGraph(vertices=(Vertex(1, -3), Vertex(0, -3), Vertex(0, -2)), edges=((0, 1, 2), (1, 2, 1)))
        boundary = Boundary((BoundaryComponent(coeff=Fraction(1, 3), meets=((0, 2), (2, 1))),))
        for site in every_site(graph, boundary):
            self.check(graph, boundary, site)
        # a point of a double edge takes one of its two meetings
        new_graph = self.check(graph, boundary, EdgePoint(1, 0))
        assert new_graph.edges == ((0, 1, 1), (0, 3, 1), (1, 2, 1), (1, 3, 1))


def random_site(rng, graph, boundary):
    options = [FreePoint(rng.randrange(len(graph.vertices)))]
    if graph.edges:
        i, j, _ = rng.choice(graph.edges)
        options.append(EdgePoint(i, j))
    touching = [
        (k, v)
        for k, comp in enumerate(boundary.components)
        for v, _ in comp.meets
    ]
    if touching:
        k, v = rng.choice(touching)
        options.append(BoundaryPoint(vertex=v, component=k))
    return rng.choice(options)


class TestResolutionIndependence:
    def test_blowup_preserves_old_discrepancies(self):
        rng = random.Random(101)
        for _ in range(250):
            graph = random_negdef_graph(rng)
            boundary = random_boundary(rng, graph)
            report = discrepancies(graph, boundary)
            site = random_site(rng, graph, boundary)
            new_graph, new_boundary = blowup_vertex(graph, boundary, site)
            new_report = discrepancies(new_graph, new_boundary)
            n = len(graph.vertices)
            assert new_report.discrepancies[:n] == report.discrepancies
            assert new_report.discrepancies[n] == blowup_formula_value(report, boundary, site)

    def test_repeated_blowups_stay_consistent(self):
        rng = random.Random(7)
        graph = chain_graph([-3, -2, -4])
        boundary = Boundary((BoundaryComponent(coeff=Fraction(2, 3), meets=((1, 1),)),))
        report = discrepancies(graph, boundary)
        for _ in range(6):
            site = random_site(rng, graph, boundary)
            expected_new = blowup_formula_value(report, boundary, site)
            graph, boundary = blowup_vertex(graph, boundary, site)
            report = discrepancies(graph, boundary)
            assert report.discrepancies[-1] == expected_new


def relabel(graph, boundary, perm):
    """The graph and boundary with vertex k renamed perm[k]."""
    vertices = [None] * len(perm)
    for k, v in enumerate(graph.vertices):
        vertices[perm[k]] = v
    edges = tuple((perm[i], perm[j], m) for i, j, m in graph.edges)
    components = tuple(
        BoundaryComponent(coeff=c.coeff, meets=tuple((perm[v], m) for v, m in c.meets)) for c in boundary.components
    )
    return DualGraph(vertices=tuple(vertices), edges=edges), Boundary(components)


class TestRelabelling:
    """A dual graph is its set of curves: renaming the vertices, with the edges
    and the boundary meets, keeps every verdict and carries each discrepancy
    to its curve's new place."""

    def test_verdicts_follow_a_permutation(self):
        rng = random.Random(59)
        ade = [dynkin_graph("A", n) for n in range(1, 9)] + [dynkin_graph("D", n) for n in range(4, 9)]
        ade += [dynkin_graph("E", n) for n in (6, 7, 8)]
        chains = [chain_graph([rng.randint(-6, -2) for _ in range(rng.randint(1, 8))]) for _ in range(40)]
        seeded = [random_negdef_graph(rng, minimal=k % 2 == 0) for k in range(80)]
        seen = Counter()
        for graph in ade + chains + seeded:
            boundary = random_boundary(rng, graph) if rng.random() < 0.5 else Boundary(())
            perm = rng.sample(range(len(graph.vertices)), len(graph.vertices))
            before = discrepancies(graph, boundary)
            after = discrepancies(*relabel(graph, boundary, perm))
            assert (after.singularity_class, after.du_val, after.minimal_resolution) == (
                before.singularity_class,
                before.du_val,
                before.minimal_resolution,
            ), (graph, boundary, perm)
            assert tuple(after.discrepancies[p] for p in perm) == before.discrepancies, (graph, boundary, perm)
            seen[before.du_val[0] if before.du_val else before.singularity_class] += 1
        assert {"A", "D", "E"} <= set(seen) and len(seen) >= 6, seen


class TestMinimalResolutionTheorems:
    def test_negativity_and_never_terminal(self):
        rng = random.Random(57)
        for _ in range(250):
            graph = random_negdef_graph(rng, minimal=True)
            report = discrepancies(graph)
            assert report.minimal_resolution is True
            assert all(d <= 0 for d in report.discrepancies)
            assert report.singularity_class is not SingularityClass.TERMINAL_REL

    def test_klt_forces_rational_curves(self):
        rng = random.Random(58)
        for _ in range(250):
            graph = random_negdef_graph(rng, minimal=True)
            report = discrepancies(graph)
            if report.singularity_class in (
                SingularityClass.KLT,
                SingularityClass.CANONICAL,
            ):
                assert all(v.genus == 0 for v in graph.vertices)

    def test_solver_output_is_exact(self):
        rng = random.Random(59)
        for _ in range(200):
            graph = random_negdef_graph(rng)
            boundary = random_boundary(rng, graph)
            report = discrepancies(graph, boundary)
            lhs = mat_vec(graph.intersection_matrix(), report.discrepancies)
            rhs = [
                Fraction(k) + boundary.intersection_with(j)
                for j, k in enumerate(graph.canonical_degrees())
            ]
            assert list(lhs) == rhs


class TestNonLcDescent:
    def test_discrepancies_descend_without_bound(self):
        # blowing up the worst intersection point repeatedly drives the
        # minimum discrepancy of a non-lc point arbitrarily low
        graph, boundary = blowup_vertex(single_vertex(2, -1), None, FreePoint(0))
        report = discrepancies(graph, boundary)
        lows = [min(report.discrepancies)]
        for _ in range(6):
            pairs = [(i, j) for i, j, _ in graph.edges]
            best = min(
                pairs,
                key=lambda p: report.discrepancies[p[0]] + report.discrepancies[p[1]],
            )
            graph, boundary = blowup_vertex(graph, boundary, EdgePoint(*best))
            report = discrepancies(graph, boundary)
            lows.append(min(report.discrepancies))
        assert all(b < a for a, b in zip(lows, lows[1:]))
        assert lows[-1] < -8
