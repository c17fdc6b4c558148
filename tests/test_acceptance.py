"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion.
"""

import io
import random
import time
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

from helpers import (
    dynkin_graph,
    fraction_to_str,
    multiset_minus_one_count,
    naive_minus_one_classes,
    random_boundary,
    random_negdef_graph,
)
from mmpkit.cli import main
from mmpkit.dualgraph import (
    BoundaryPoint,
    DualGraph,
    EdgePoint,
    FreePoint,
    SingularityClass,
    Vertex,
    blowup_vertex,
    discrepancies,
)
from mmpkit.kodaira import curve_kappa, curve_plurigenus, estimate_kappa
from mmpkit.surface import (
    MmpOutcome,
    adjunction_genus,
    castelnuovo_contract,
    enumerate_minus_one_classes,
    make_blowup_p2,
    make_quadric,
    pushforward_class,
    run_classical_mmp,
)
from mmpkit.toric import classify_cone, cone_from_rays, toric_discrepancy

GOLDEN = Path(__file__).parent / "golden"


def report(criterion, ok):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {criterion} failed"


def test_criterion_01_rational_cone_family():
    import json
    from math import gcd

    expected_class = {1: SingularityClass.TERMINAL_REL, 2: SingularityClass.CANONICAL}
    ok = True
    for a in range(1, 13):
        graph = DualGraph(vertices=(Vertex(genus=0, self_int=-a),), edges=())
        rep = discrepancies(graph)
        got = rep.discrepancies[0]
        want = Fraction(a - 2, -a)
        ok = ok and rep.discrepancies == (want,)
        ok = ok and gcd(abs(got.numerator), got.denominator) == 1 and got.denominator > 0
        expected = expected_class.get(a, SingularityClass.KLT)
        ok = ok and rep.singularity_class is expected
        # same family through the command-line surface, reduced p/q strings
        inline = json.dumps(
            {"vertices": [{"genus": 0, "self_int": -a}], "edges": []}
        )
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = main(
                ["graph-discrepancies", "--inline", inline, "--format", "machine"]
            )
        doc = json.loads(buffer.getvalue())
        ok = ok and code == 0
        ok = ok and doc["discrepancies"] == [fraction_to_str(want)]
        ok = ok and doc["class"] == expected.value
    report("1 cone-over-rational-normal-curve family", ok)


def test_criterion_02_du_val_suite():
    ok = True
    cases = [("A", n) for n in range(1, 11)]
    cases += [("D", n) for n in range(4, 11)]
    cases += [("E", n) for n in (6, 7, 8)]
    for kind, n in cases:
        rep = discrepancies(dynkin_graph(kind, n))
        ok = ok and rep.discrepancies == tuple([Fraction(0)] * n)
        ok = ok and rep.singularity_class is SingularityClass.CANONICAL
        ok = ok and rep.du_val == f"{kind}{n}"
    report("2 Du Val suite", ok)


def test_criterion_03_genus_contractions():
    ok = True
    for a in range(1, 11):
        rep = discrepancies(DualGraph(vertices=(Vertex(1, -a),), edges=()))
        ok = ok and rep.discrepancies == (Fraction(-1),)
        ok = ok and rep.singularity_class is SingularityClass.LC
    for a in range(1, 11):
        rep = discrepancies(DualGraph(vertices=(Vertex(2, -a),), edges=()))
        ok = ok and rep.discrepancies[0] < -1
        ok = ok and rep.singularity_class is SingularityClass.NOT_LC
    report("3 genus contractions", ok)


def test_criterion_04_toric_graph_cross_oracle():
    ok = True
    for a in range(1, 13):
        cone = cone_from_rays([[0, 1], [a, -1]])
        toric_value = toric_discrepancy(cone, (1, 0))
        graph = DualGraph(vertices=(Vertex(0, -a),), edges=())
        graph_value = discrepancies(graph).discrepancies[0]
        ok = ok and toric_value == graph_value
    report("4 toric/graph cross-oracle", ok)


def test_criterion_05_odp_terminality():
    cone = cone_from_rays([[0, 0, 1], [1, 0, 1], [0, 1, 1], [1, 1, 1]])
    result = classify_cone(cone)
    ok = result.kind.value == "Terminal"
    ok = ok and result.q_factorial is False
    ok = ok and toric_discrepancy(cone, (1, 1, 2)) == 1
    report("5 ordinary double point terminality", ok)


def test_criterion_06_del_pezzo_counts():
    expected = {1: 1, 2: 3, 3: 6, 4: 10, 5: 16, 6: 27, 7: 56, 8: 240}
    start = time.monotonic()
    ok = True
    for r in range(1, 9):
        classes = enumerate_minus_one_classes(make_blowup_p2(r))
        ok = ok and len(classes) == expected[r]
        ok = ok and len(classes) == multiset_minus_one_count(r)
        if r <= 4:
            ok = ok and set(classes) == naive_minus_one_classes(r)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 5.0
    report(f"6 del Pezzo (-1)-class counts ({elapsed:.2f}s)", ok)


def test_criterion_07_mmp_traces():
    ok = True
    for r in range(0, 7):
        trace = run_classical_mmp(make_blowup_p2(r))
        ok = ok and len(trace.steps) == r
        ok = ok and trace.outcome is MmpOutcome.MORI_FIBRE_P2LIKE
        ok = ok and trace.final.K == (-3,)
        ok = ok and all(s.rank_after == s.rank_before - 1 for s in trace.steps)
    quadric_trace = run_classical_mmp(make_quadric())
    ok = ok and len(quadric_trace.steps) == 0
    ok = ok and quadric_trace.outcome is MmpOutcome.MORI_FIBRE_RULED
    fibre = quadric_trace.fibre
    ok = ok and quadric_trace.final.pair(quadric_trace.final.K, fibre) == -2
    ok = ok and adjunction_genus(quadric_trace.final, fibre) == 0
    report("7 classical MMP traces", ok)


def _blowup_formula(rep, boundary, site):
    d = rep.discrepancies
    if isinstance(site, FreePoint):
        return 1 + d[site.vertex]
    if isinstance(site, EdgePoint):
        return 1 + d[site.i] + d[site.j]
    return 1 + d[site.vertex] - boundary.components[site.component].coeff


def test_criterion_08a_resolution_independence():
    rng = random.Random(1008)
    ok = True
    for _ in range(200):
        graph = random_negdef_graph(rng)
        boundary = random_boundary(rng, graph)
        rep = discrepancies(graph, boundary)
        sites = [FreePoint(rng.randrange(len(graph.vertices)))]
        if graph.edges:
            i, j, _ = rng.choice(graph.edges)
            sites.append(EdgePoint(i, j))
        touching = [
            (k, v)
            for k, comp in enumerate(boundary.components)
            for v, _ in comp.meets
        ]
        if touching:
            k, v = rng.choice(touching)
            sites.append(BoundaryPoint(vertex=v, component=k))
        site = rng.choice(sites)
        new_graph, new_boundary = blowup_vertex(graph, boundary, site)
        new_rep = discrepancies(new_graph, new_boundary)
        n = len(graph.vertices)
        ok = ok and new_rep.discrepancies[:n] == rep.discrepancies
        ok = ok and new_rep.discrepancies[n] == _blowup_formula(rep, boundary, site)
    report("8a resolution independence under blow-up (200 cases)", ok)


def test_criterion_08b_negativity_and_smoothness():
    rng = random.Random(2008)
    ok = True
    for _ in range(200):
        graph = random_negdef_graph(rng, minimal=True)
        rep = discrepancies(graph)
        ok = ok and rep.minimal_resolution is True
        ok = ok and all(d <= 0 for d in rep.discrepancies)
        ok = ok and rep.singularity_class is not SingularityClass.TERMINAL_REL
    report("8b negativity on minimal resolutions (200 cases)", ok)


def test_criterion_08c_castelnuovo_pushforward():
    rng = random.Random(3008)
    ok = True
    for _ in range(200):
        r = rng.randint(1, 5)
        s = make_blowup_p2(r)
        classes = enumerate_minus_one_classes(s)
        c = rng.choice(classes)
        contracted = castelnuovo_contract(s, c)
        x = tuple(rng.randint(-3, 3) for _ in range(s.rank))
        y = tuple(rng.randint(-3, 3) for _ in range(s.rank))
        xi = pushforward_class(s, c, x)
        yi = pushforward_class(s, c, y)
        ok = ok and contracted.pair(xi, yi) == s.pair(x, y) + s.pair(x, c) * s.pair(y, c)
    report("8c Castelnuovo pushforward identity (200 cases)", ok)


def test_criterion_08d_kappa_multiple_invariance():
    rng = random.Random(4008)
    ok = True
    for _ in range(200):
        g = rng.randint(0, 20)
        ms = set(rng.sample(range(1, 65), 4))
        ms.update(2 * x for x in rng.sample(range(1, 33), 3))
        ms.update(3 * x for x in rng.sample(range(1, 22), 3))
        samples = [(m, curve_plurigenus(g, m)) for m in sorted(ms)]
        full = estimate_kappa(samples, max_dim=1)
        ok = ok and full.value == curve_kappa(g).value
        for scale in (2, 3):
            sub = [(m, p) for m, p in samples if m % scale == 0]
            ok = ok and estimate_kappa(sub, max_dim=1).value == full.value
    report("8d kappa multiple-invariance (200 cases)", ok)


def test_criterion_09_formula_spot_checks():
    from mmpkit.kodaira import plane_curve_genus, riemann_roch_curve
    from mmpkit.surface import riemann_roch_surface

    ok = plane_curve_genus(1) == 0 and plane_curve_genus(2) == 0 and plane_curve_genus(3) == 1
    p2 = make_blowup_p2(0)
    ok = ok and riemann_roch_surface(p2, (1,), 1) == 3
    ok = ok and all(riemann_roch_curve(2 * g - 2, g) == g - 1 for g in range(0, 12))
    ok = ok and adjunction_genus(p2, (3,)) == 1 == plane_curve_genus(3)
    report("9 formula spot checks", ok)


def test_criterion_10_deterministic_machine_reports():
    from test_cli import GOLDEN_RUNS

    ok = True
    for argv in GOLDEN_RUNS:
        outputs = []
        for _ in range(2):
            buffer = io.StringIO()
            with redirect_stdout(buffer):
                code = main(list(argv) + ["--format", "machine"])
            ok = ok and code == 0
            outputs.append(buffer.getvalue())
        ok = ok and outputs[0] == outputs[1]
    report("10 byte-identical machine reports", ok)
