"""Seeded workload decks.

A deck is the fixed list of operations one workload runs.  It is built
from the seed alone, and mmpkit receives only the generated inputs.  Each
op carries its call, the oracle check of its answer (``oracles``), and a
deliberately wrong variant of an answer that the check must reject.

Costs are kept the same from seed to seed, so that a run measures the
program and not the luck of the draw: the lattice disguises come from
fixed transvection templates whose search boxes depend only on the
template (the seed relabels the exceptional curves, permutes the basis
and flips signs), and the toric cone sizes are drawn from fixed
log-spaced strata.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stdout
from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import exp, gcd, log

import oracles as O
from oracles import expect


@dataclass
class Op:
    kind: str
    label: str
    call: object  # () -> answer
    check: object  # answer -> None, raises WrongAnswer
    perturb: object  # answer -> a wrong answer
    warm: bool = False


@dataclass
class Deck:
    """The timed ops, and the known-defect ops.

    The known-defect ops are valid inputs that meet a defect of the program
    at the commit that added this benchmark: it refuses them, crashes, or
    leaves some of them undetermined.  A run calls each of them once,
    untimed, after the timed passes, checks the answers it gets, and
    reports the failures by cause.  The timed ops hold no such input, so
    none of them is known to fail.
    """

    ops: list = field(default_factory=list)
    defects: list = field(default_factory=list)

    def add(self, *args, defect=False, **kwargs):
        (self.defects if defect else self.ops).append(Op(*args, **kwargs))


# -- lattice_search ------------------------------------------------------------

# Transvections (target slot, source slot, coefficient) applied to basis
# columns; slot 0 is H, slots 1.. are exceptional curves.  The search box
# of the disguised lattice depends only on the template.
_PLAIN = ()
_E_PAIR = ((1, 2, 1),)
_E_PAIRS = ((1, 2, 1), (3, 4, 1))
_E_H = ((1, 0, 1),)
_CHAIN = ((1, 2, -1), (2, 3, 1))

# (r, template, copies); each copy is one timed enumeration op and one
# known-defect MMP op: the MMP verdict on a disguised lattice depends on
# the orientation of the final basis, and today it is undetermined for
# about half of them.  Mostly r = 1..5, two ops at r = 6, and one at
# r = 8, which the box search refuses today although its 240 classes are
# finite, so that enumeration is a known-defect op too.
# Copies come in antithetic pairs (the second negates every basis vector
# of the first).  The counts put the median inside the block of r = 4
# enumerations and the 90th percentile inside the block of r = 5 ones,
# away from the jumps in cost between blocks, where a few ops more or
# less would move them.  The templates within each of these blocks have
# boxes of the same size (1875 and 15625 cells).  Ops of a few
# milliseconds react to other tenants' load more than the reference loop
# does, so the median sits on the ~7 ms ops rather than on the r <= 3
# ones.
LATTICE_MIX = (
    (1, _PLAIN, 2),
    (2, _E_H, 2),
    (3, _PLAIN, 2),
    (3, _CHAIN, 2),
    (4, _PLAIN, 2),
    (4, _E_PAIR, 2),
    (4, _CHAIN, 4),
    (5, _PLAIN, 2),
    (5, _E_PAIR, 2),
    (5, _E_PAIRS, 4),
    (6, _PLAIN, 2),
    (8, _PLAIN, 1),
)

# The timed MMPs run on plain blow-ups, whose first (-1)-search takes the
# standard fast path and whose verdict is always determined.
MMP_R = (2, 4, 6, 8)


def standard_blowup(r):
    """Plain data of the plane blown up in r points, in make_blowup_p2's order."""
    rank = r + 1
    gram = [[(1 if i == 0 else -1) if i == j else 0 for j in range(rank)] for i in range(rank)]
    k = [-3] + [1] * r
    curves = [[int(j == i) for j in range(rank)] for i in range(1, rank)] + [[1] + [0] * r]
    return gram, k, curves


def _draws(rng, r, copies):
    """Seeded (E labels, basis order, signs) per copy, in antithetic pairs."""
    rank = r + 1
    draws = []
    for copy in range(copies):
        if copy % 2:
            labels, order, signs = draws[-1]
            draws.append((labels, order, [-x for x in signs]))
            continue
        signs = [rng.choice((1, -1)) for _ in range(rank)]
        if len(set(signs)) == 1:
            signs[-1] = -signs[-1]  # mixed signs keep both copies off the standard fast path
        draws.append(([0] + rng.sample(range(1, rank), r), rng.sample(range(rank), rank), signs))
    return draws


def _disguise(r, template, draw):
    """A unimodular U (new basis in old coordinates) and its inverse V."""
    labels, order, signs = draw
    rank = r + 1
    u = [[int(i == j) for j in range(rank)] for i in range(rank)]
    v = [row[:] for row in u]
    for target, source, c in template:
        i, j = labels[target], labels[source]
        for row in u:
            row[i] += c * row[j]
        v[j] = [a - c * b for a, b in zip(v[j], v[i])]
    u = [[signs[c] * row[order[c]] for c in range(rank)] for row in u]
    v = [[signs[c] * x for x in v[order[c]]] for c in range(rank)]
    return u, v


def _mat_vec(m, x):
    return tuple(sum(a * b for a, b in zip(row, x)) for row in m)


def _disguised_lattice(mods, r, template, draw):
    gram, k, curves = standard_blowup(r)
    u, v = _disguise(r, template, draw)
    rank = r + 1
    ut = [[u[i][j] for i in range(rank)] for j in range(rank)]
    new_gram = [[O.pair(gram, ut[i], ut[j]) for j in range(rank)] for i in range(rank)]
    if new_gram == gram and list(_mat_vec(v, k)) == k:
        raise AssertionError("disguise left the standard lattice unchanged")
    s = mods.surface.SurfaceLattice(
        rank=rank,
        gram=tuple(map(tuple, new_gram)),
        K=_mat_vec(v, k),
        curves=tuple(_mat_vec(v, c) for c in curves),
        label=f"disguised_p2({r})",
    )
    expected = sorted(_mat_vec(v, x) for x in O.standard_minus_one_classes(r))
    return s, expected


def _check_trace(s, trace, first):
    O.check_mmp(
        s.rank,
        O.pair(s.gram, s.K, s.K),
        [(st.contracted, st.rank_before, st.rank_after) for st in trace.steps],
        trace.final.rank,
        trace.final.gram,
        trace.final.K,
        trace.outcome.value,
        trace.fibre,
        first,
    )


def _drop_first_step(trace):
    return replace(trace, steps=trace.steps[1:])


def lattice_search(mods, rng):
    deck = Deck()
    surface = mods.surface
    for r, template, copies in LATTICE_MIX:
        for copy, draw in enumerate(_draws(rng, r, copies)):
            s, want = _disguised_lattice(mods, r, template, draw)
            tag = f"r={r} t={len(template)}#{copy}"

            def check_classes(got, want=want):
                expect(list(got) == want, f"{len(got)} classes, expected {len(want)}")

            def check_trace(trace, s=s, want=want):
                _check_trace(s, trace, want[0])

            deck.add(
                "enumerate",
                f"enumerate {tag}",
                lambda s=s: surface.enumerate_minus_one_classes(s),
                check_classes,
                lambda got: list(got)[:-1],
                warm=r <= 2,
                defect=r == 8,
            )
            deck.add(
                "mmp",
                f"mmp {tag}",
                lambda s=s: surface.run_classical_mmp(s),
                check_trace,
                _drop_first_step,
                defect=True,
            )
    for r in MMP_R:
        gram, k, curves = standard_blowup(r)
        rng.shuffle(curves)
        s = surface.SurfaceLattice(
            rank=r + 1,
            gram=tuple(map(tuple, gram)),
            K=tuple(k),
            curves=tuple(map(tuple, curves)),
            label=f"blowup_p2({r})",
        )
        first = O.standard_minus_one_classes(r)[0]
        deck.add(
            "mmp",
            f"mmp r={r} plain",
            lambda s=s: surface.run_classical_mmp(s),
            lambda trace, s=s, first=first: _check_trace(s, trace, first),
            _drop_first_step,
            warm=True,
        )
    return deck


# -- singularities --------------------------------------------------------------


def dynkin(kind, n):
    vertices = [(0, -2)] * n
    if kind == "A":
        edges = [(i, i + 1, 1) for i in range(n - 1)]
    else:  # D_n: leaf on vertex 1; E_n: leaf on vertex 2
        edges = [(i, i + 1, 1) for i in range(n - 2)] + [(1 if kind == "D" else 2, n - 1, 1)]
    return vertices, edges, []


def chain(self_int, n):
    return [(0, self_int)] * n, [(i, i + 1, 1) for i in range(n - 1)], []


def random_graph(rng, n):
    """A connected negative-definite dual graph on n vertices, with a boundary."""
    while True:
        edges = [(rng.randrange(i), i, 1) for i in range(1, n)]
        if rng.random() < 0.3:
            i, j = sorted(rng.sample(range(n), 2))
            edges.append((i, j, rng.randint(1, 2)))
        vertices = [(rng.choice((0, 0, 0, 1)), rng.randint(-6, -1)) for _ in range(n)]
        if O.negative_definite(O.graph_matrix(vertices, edges)):
            break
    boundary = []
    for _ in range(rng.randint(0, 2)):
        q = rng.randint(1, 6)
        meets = [(rng.randrange(n), rng.randint(1, 2)) for _ in range(rng.randint(1, 2))]
        boundary.append((Fraction(rng.randint(0, q), q), meets))
    return vertices, edges, boundary


def _graph_objects(mods, data):
    dg = mods.dualgraph
    vertices, edges, boundary = data
    graph = dg.DualGraph(
        vertices=tuple(dg.Vertex(genus=g, self_int=s) for g, s in vertices),
        edges=tuple(edges),
    )
    comps = tuple(dg.BoundaryComponent(coeff=c, meets=tuple(m)) for c, m in boundary)
    return graph, dg.Boundary(comps)


def _bump_first(report):
    return replace(report, discrepancies=(report.discrepancies[0] + 1,) + report.discrepancies[1:])


def _add_graph_op(deck, mods, label, data, single_a=None, warm=False):
    graph, boundary = _graph_objects(mods, data)

    def check(report):
        O.check_graph(
            *data,
            report.discrepancies,
            report.singularity_class.value,
            report.du_val,
            report.minimal_resolution,
        )
        if single_a is not None:
            expect(report.discrepancies[0] == O.single_curve_discrepancy(single_a), "cross-check")

    dualgraph = mods.dualgraph
    deck.add("graph", label, lambda: dualgraph.discrepancies(graph, boundary), check, _bump_first, warm)


def cone_sizes(rng, strata, low, high):
    """One a per log-spaced stratum of [low, high)."""
    step = (log(high) - log(low)) / strata
    return [
        max(low, min(high - 1, round(exp(log(low) + step * (k + rng.random())))))
        for k in range(strata)
    ]


def random_cone3(rng):
    """A simplicial, strongly convex rank-3 cone: rays in the upper half-space."""
    while True:
        rays = []
        for _ in range(3):
            ray = (rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(1, 3))
            g = gcd(*ray)
            rays.append(tuple(x // g for x in ray))
        if len(set(rays)) == 3 and O.det(rays) != 0:
            return rays


def _cone_answer_with_wrong_index(answer):
    cls, disc = answer
    return replace(cls, gorenstein_index=(cls.gorenstein_index or 0) + 1), disc


def _add_cone_op(deck, mods, label, rays, point, family_a=None, warm=False):
    toric = mods.toric
    cone = toric.Cone(rank=len(rays[0]), rays=tuple(map(tuple, rays)))

    def call():
        return toric.classify_cone(cone), toric.toric_discrepancy(cone, point)

    def check(answer):
        cls, disc = answer
        pts = cls.points_at_or_below_one
        if family_a is not None:
            O.check_cone_family(family_a, cls.kind.value, cls.gorenstein_index, cls.support_functional, pts)
            expect(disc == O.single_curve_discrepancy(family_a), "toric and graph discrepancies differ")
        else:
            O.check_cone(rays, cls.kind.value, cls.q_factorial, cls.gorenstein_index, cls.support_functional, pts)
            expect(disc == O.toric_discrepancy(rays, point), "toric discrepancy")

    deck.add("cone", label, call, check, _cone_answer_with_wrong_index, warm)


# Fixed cone sizes for the tail: its cost is linear in a, and the slowest
# tenth of the ops should not depend on the seed.
TAIL_A = (5000, 20000)


def singularities(mods, rng):
    """Dual graphs and toric cones.

    Sizes are fixed where the percentiles fall: the median lies among the
    random graphs, whose vertex counts are fixed per slot, and the 90th
    percentile among ~20 ms ops of fixed size (A20, D20, a (-3)-chain of
    20, cones with a in [600, 800)).
    """
    deck = Deck()
    for n in (1, 2, 3, 4, 6, 8, 10, 15, 20, 30, 40):
        _add_graph_op(deck, mods, f"A{n}", dynkin("A", n), warm=n <= 3)
    for n in (4, 5, 8, 12, 20, 40):
        _add_graph_op(deck, mods, f"D{n}", dynkin("D", n))
    for n in (6, 7, 8):
        _add_graph_op(deck, mods, f"E{n}", dynkin("E", n))
    for n in (1, 2, 3, 5, 10, 20, 40):
        _add_graph_op(deck, mods, f"chain(-3)x{n}", chain(-3, n))
    for k in range(24):
        _add_graph_op(deck, mods, f"random graph #{k}", random_graph(rng, 2 + k % 6))
    # the cross-check pair: the cone (0,1),(a,-1) against one curve of self-intersection -a
    for a in cone_sizes(rng, 10, 3, 600) + cone_sizes(rng, 4, 600, 800) + list(TAIL_A):
        _add_cone_op(deck, mods, f"cone a={a}", [(0, 1), (a, -1)], (1, 0), family_a=a, warm=a < 10)
        _add_graph_op(deck, mods, f"vertex -{a}", ([(0, -a)], [], []), single_a=a)
    for k in range(8):
        rays = random_cone3(rng)
        point = tuple(sum(r[i] for r in rays) for i in range(3))
        g = gcd(*point)
        _add_cone_op(deck, mods, f"rank-3 cone #{k}", rays, tuple(x // g for x in point))
    return deck


# -- cli_mix ---------------------------------------------------------------------

# The GOLDEN_RUNS argv of the CLI test suite, over the documents in tests/golden.
GOLDEN_RUNS = (
    ("toric-classify", "cone_a3.json"),
    ("toric-classify", "cone_a2.json"),
    ("toric-classify", "cone_smooth.json"),
    ("toric-classify", "cone_odp.json"),
    ("toric-classify", "cone_not_qgor.json"),
    ("toric-discrepancy", "cone_a3.json", "--point", "[1,0]"),
    ("toric-discrepancy", "cone_odp.json", "--point", "[1,1,2]"),
    ("graph-discrepancies", "graph_a2.json"),
    ("graph-discrepancies", "graph_d5.json"),
    ("graph-discrepancies", "graph_genus1.json"),
    ("graph-discrepancies", "graph_boundary.json"),
    ("graph-blowup", "graph_a2.json", "--edge", "0", "1"),
    ("graph-blowup", "graph_boundary.json", "--vertex", "0", "--boundary", "0"),
    ("mmp-run", "surface_bl2.json"),
    ("mmp-run", "surface_quadric.json"),
    ("delpezzo-lines", None, "--r", "3"),
    ("delpezzo-lines", None, "--r", "6"),
    ("cone-rays", "surface_quadric.json"),
    ("cone-rays", "surface_bl1_rays.json"),
    ("nef-check", "surface_quadric.json", "--divisor", "[1,1]"),
    ("nef-check", "surface_quadric.json", "--divisor", "[1,0]"),
    ("rr", None, "--deg", "1", "--genus", "0"),
    ("rr", "surface_bl2.json", "--divisor", "[1,0,0]", "--chi0", "1"),
    ("kappa-estimate", "samples_g2.json"),
    ("kappa-estimate", "samples_zero.json"),
    ("pair-classify", "pair_klt.json"),
)


def run_cli(cli, argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _flags(argv):
    out, i = {}, 0
    while i < len(argv):
        key = argv[i].lstrip("-")
        values = []
        i += 1
        while i < len(argv) and not argv[i].startswith("--"):
            values.append(argv[i])
            i += 1
        out[key] = values[0] if len(values) == 1 else values
    return out


def _graph_data(doc):
    vertices = [(v["genus"], v["self_int"]) for v in doc["vertices"]]
    edges = [tuple(e) for e in doc.get("edges", [])]
    boundary = [(Fraction(b["coeff"]), [tuple(m) for m in b.get("meets", [])]) for b in doc.get("boundary", [])]
    return vertices, edges, boundary


def _check_report(command, doc, flags, report):
    """Check a successful machine report against the oracles."""
    expect(report["command"] == command, "command field")
    if command == "toric-classify":
        m = None if report["support_functional"] is None else [Fraction(x) for x in report["support_functional"]]
        points = [p["point"] for p in report["points"]]
        rays = [tuple(r) for r in doc["rays"]]
        a = rays[1][0] if len(rays) == 2 and rays[0] == (0, 1) and rays[1][1] == -1 else None
        if a is not None and a >= 1:
            O.check_cone_family(a, report["class"], report["gorenstein_index"], m, points)
        else:
            O.check_cone(rays, report["class"], report["q_factorial"], report["gorenstein_index"], m, points)
        for p in report["points"]:
            expect(Fraction(p["discrepancy"]) == sum(c * x for c, x in zip(m, p["point"])) - 1, "point discrepancy")
    elif command == "toric-discrepancy":
        point = json.loads(flags["point"])
        expect(Fraction(report["discrepancy"]) == O.toric_discrepancy(doc["rays"], point), "toric discrepancy")
    elif command == "graph-discrepancies":
        d = [Fraction(x) for x in report["discrepancies"]]
        O.check_graph(*_graph_data(doc), d, report["class"], report["du_val"], report["minimal_resolution"])
    elif command == "graph-blowup":
        # strict transforms and the new curve differ from the pulled-back
        # basis plus E by a unimodular change, and E^2 = -1 flips the sign
        old_v, old_e, _ = _graph_data(doc)
        new_v, new_e, _ = _graph_data(report["graph"])
        expect(len(new_v) == len(old_v) + 1 and new_v[-1] == (0, -1), "new (-1)-curve")
        expect([g for g, _ in new_v[:-1]] == [g for g, _ in old_v], "genera changed")
        expect(
            O.det(O.graph_matrix(new_v, new_e)) == -O.det(O.graph_matrix(old_v, old_e)),
            "blow-up must negate the determinant of the intersection matrix",
        )
    elif command == "mmp-run":
        final = report["final"]
        first = None
        r = doc["rank"] - 1
        if [doc["gram"], doc["K"]] == list(standard_blowup(r)[:2]) and r >= 1:
            first = O.standard_minus_one_classes(r)[0]
        O.check_mmp(
            doc["rank"],
            O.pair(doc["gram"], doc["K"], doc["K"]),
            [(s["contracted"], s["rank_before"], s["rank_after"]) for s in report["steps"]],
            final["rank"],
            final["gram"],
            final["K"],
            report["outcome"]["kind"],
            report["outcome"]["fibre"],
            first,
        )
    elif command == "delpezzo-lines":
        want = [list(c) for c in O.standard_minus_one_classes(int(flags["r"]))]
        expect(report["classes"] == want and report["count"] == len(want), "(-1)-classes")
    elif command == "cone-rays":
        want = [list(x) for x in O.cone_rays_expectation(doc["curves"])]
        expect(report["rays"] == want, "cone rays")
    elif command == "nef-check":
        d = json.loads(flags["divisor"])
        values = [O.pair(doc["gram"], d, c) for c in doc["curves"]]
        ample = all(x > 0 for x in values) and O.pair(doc["gram"], d, d) > 0
        expect(report["nef"] == all(x >= 0 for x in values) and report["ample"] == ample, "nef/ample")
    elif command == "rr":
        if "deg" in flags:
            want = 1 + int(flags["deg"]) - int(flags["genus"])
        else:
            d = json.loads(flags["divisor"])
            want = Fraction(O.pair(doc["gram"], d, d) - O.pair(doc["gram"], d, doc["K"]), 2) + int(flags["chi0"])
        expect(Fraction(report["chi"]) == want, "Euler characteristic")
    elif command == "kappa-estimate":
        samples = [(int(m), int(p)) for m, p in doc["samples"]]
        expect(report["kappa"] == O.kappa_expectation(samples, doc.get("max_dim")), "kappa")
    elif command == "pair-classify":
        kind, fano = O.pair_expectation(doc["coeffs"])
        expect(report["class"] == kind and report["fano_on_p1"] == fano, "pair class")
    else:
        raise O.WrongAnswer(f"no oracle for {command}")


_PERTURB = {
    "toric-classify": lambda r: {**r, "gorenstein_index": (r["gorenstein_index"] or 0) + 1},
    "toric-discrepancy": lambda r: {**r, "discrepancy": str(Fraction(r["discrepancy"]) + 1)},
    "graph-discrepancies": lambda r: {
        **r,
        "discrepancies": [str(Fraction(r["discrepancies"][0]) + 1)] + r["discrepancies"][1:],
    },
    "graph-blowup": lambda r: {
        **r,
        "graph": {**r["graph"], "vertices": r["graph"]["vertices"][:-1] + [{"genus": 0, "self_int": -2}]},
    },
    "mmp-run": lambda r: {**r, "outcome": {"kind": "MinimalModel", "fibre": None}},
    "delpezzo-lines": lambda r: {**r, "classes": r["classes"][:-1] or [[0]]},
    "cone-rays": lambda r: {**r, "rays": r["rays"][::-1]},
    "nef-check": lambda r: {**r, "nef": not r["nef"]},
    "rr": lambda r: {**r, "chi": str(Fraction(r["chi"]) + 1)},
    "kappa-estimate": lambda r: {**r, "kappa": 7},
    "pair-classify": lambda r: {**r, "class": "NotLc" if r["class"] != "NotLc" else "Lc"},
}


def _canonical(report):
    return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"


def _add_cli_op(deck, mods, argv, doc, warm=False, defect=False):
    """A successful run of one subcommand; doc is its input document, if any."""
    command = argv[0]
    flags = _flags(argv[1:])
    cli = mods.cli
    argv = list(argv) + ["--format", "machine"]

    def check(answer):
        code, out = answer
        expect(code == 0, f"exit code {code}")
        report = json.loads(out)
        expect(out == _canonical(report), "report is not canonical JSON")
        _check_report(command, doc, flags, report)

    def perturb(answer):
        return answer[0], _canonical(_PERTURB[command](json.loads(answer[1])))

    label = " ".join(argv[:-2])[:100]
    deck.add(f"cli:{command}", label, lambda: run_cli(cli, argv), check, perturb, warm, defect=defect)


def _add_cli_error(deck, mods, argv, exit_code, error_code):
    cli = mods.cli
    argv = list(argv) + ["--format", "machine"]

    def check(answer):
        code, out = answer
        expect(code == exit_code, f"exit code {code}, expected {exit_code}")
        expect(json.loads(out)["error"]["code"] == error_code, f"error code, expected {error_code}")

    deck.add(
        "cli:error",
        f"{argv[0]} -> {error_code}",
        lambda: run_cli(cli, argv),
        check,
        lambda answer: (0, answer[1]),
    )


def _inline(doc):
    return json.dumps(doc, separators=(",", ":"))


def golden_argv(golden_dir, entry):
    command, name, *rest = entry
    argv = [command] + (["--input", str(golden_dir / name)] if name else []) + list(rest)
    doc = json.loads((golden_dir / name).read_text()) if name else None
    return argv, doc


def _graph_doc(data):
    vertices, edges, boundary = data
    return {
        "vertices": [{"genus": g, "self_int": s} for g, s in vertices],
        "edges": [list(e) for e in edges],
        "boundary": [{"coeff": str(c), "meets": [list(m) for m in meets]} for c, meets in boundary],
    }


def _surface_doc(r):
    gram, k, curves = standard_blowup(r)
    return {"rank": r + 1, "gram": gram, "K": k, "curves": curves, "label": f"blowup_p2({r})"}


def _plurigenera(g, ms):
    if g == 0:
        return [(m, 0) for m in ms]
    if g == 1:
        return [(m, 1) for m in ms]
    return [(m, g if m == 1 else (2 * m - 1) * (g - 1)) for m in ms]


# Invalid documents and the (exit code, error code) the CLI owes them.
_CONE_A3 = {"rank": 2, "rays": [[0, 1], [3, -1]]}
_INVALID = (
    (["toric-classify", "--inline", '{"rank":2,"rays":[[0,2],[3,-1]]}'], 2, "ray_not_primitive"),
    (["toric-classify", "--inline", '{"rank":2,'], 2, "bad_json"),
    (
        ["mmp-run", "--inline", '{"rank":2,"gram":[[1,1],[0,-1]],"K":[-3,1],"curves":[]}'],
        2,
        "gram_not_symmetric",
    ),
    (
        [
            "graph-discrepancies",
            "--inline",
            '{"vertices":[{"genus":0,"self_int":-2}],"boundary":[{"coeff":"3/2","meets":[[0,1]]}]}',
        ],
        2,
        "coeff_out_of_range",
    ),
    (["kappa-estimate", "--inline", "{}"], 2, "missing_field"),
    (["kappa-estimate", "--inline", '{"samples":[[1,2],[1,3]]}'], 2, "sample_duplicate_m"),
    (["rr", "--deg", "1"], 2, "rr_mode"),
    (["delpezzo-lines", "--r", "9"], 3, "unbounded_search"),
    (["graph-discrepancies", "--inline", '{"vertices":[{"genus":0,"self_int":1}]}'], 3, "not_contractible"),
    (["toric-classify", "--inline", '{"rank":2,"rays":[[1,0],[-1,0]]}'], 3, "not_strongly_convex"),
    (["toric-discrepancy", "--inline", _inline(_CONE_A3), "--point", "[0,-1]"], 3, "not_in_cone"),
    (["kappa-estimate", "--inline", '{"samples":[[1,0],[2,5]]}'], 3, "insufficient_samples"),
    (["pair-classify", "--inline", '{"coeffs":["-1/2"]}'], 3, "negative_coefficient"),
    (
        ["graph-blowup", "--inline", '{"vertices":[{"genus":0,"self_int":-2}]}', "--vertex", "5"],
        3,
        "invalid_site",
    ),
)

# A valid document whose exact answer is kappa = 2; the float slope of
# today's estimator overflows on it.
HUGE_SAMPLES = {"samples": [[1, 1], [2, 10**400]], "max_dim": 2}

LARGE_REPORT_A = 4000  # ~90 KB report; serialization weighs in the cli tail


def cli_mix(mods, rng, golden_dir):
    deck = Deck()
    seen = set()
    for entry in GOLDEN_RUNS:
        argv, doc = golden_argv(golden_dir, entry)
        _add_cli_op(deck, mods, argv, doc, warm=entry[0] not in seen)
        seen.add(entry[0])
    for r in range(9):
        _add_cli_op(deck, mods, ["delpezzo-lines", "--r", str(r)], None)
        doc = _surface_doc(r)
        _add_cli_op(deck, mods, ["mmp-run", "--inline", _inline(doc)], doc)
    for k in range(6):
        doc = _graph_doc(random_graph(rng, 2 + k))
        _add_cli_op(deck, mods, ["graph-discrepancies", "--inline", _inline(doc)], doc)
    for site in ("vertex", "edge", "boundary"):
        data = random_graph(rng, 4)
        doc = _graph_doc(data)
        vertices, edges, boundary = data
        if site == "edge":
            i, j, _ = rng.choice(edges)
            flags = ["--edge", str(i), str(j)]
        elif site == "boundary" and any(meets for _, meets in boundary):
            k = next(k for k, (_, meets) in enumerate(boundary) if meets)
            flags = ["--vertex", str(boundary[k][1][0][0]), "--boundary", str(k)]
        else:
            flags = ["--vertex", str(rng.randrange(len(vertices)))]
        _add_cli_op(deck, mods, ["graph-blowup", "--inline", _inline(doc)] + flags, doc)
    for _ in range(4):
        doc = {"rank": 2, "rays": [[0, 1], [rng.randint(2, 12), -1]]}
        _add_cli_op(deck, mods, ["toric-classify", "--inline", _inline(doc)], doc)
        _add_cli_op(deck, mods, ["toric-discrepancy", "--inline", _inline(doc), "--point", "[1,0]"], doc)
    for _ in range(2):
        while True:
            u = (rng.randint(-5, 5), rng.randint(-5, 5))
            v = (rng.randint(-5, 5), rng.randint(-5, 5))
            if gcd(*u) == 1 and gcd(*v) == 1 and u[0] * v[1] != u[1] * v[0]:
                break
        doc = {"rank": 2, "rays": [list(u), list(v)]}
        _add_cli_op(deck, mods, ["toric-classify", "--inline", _inline(doc)], doc)
    doc = {"rank": 2, "rays": [[0, 1], [LARGE_REPORT_A, -1]]}
    _add_cli_op(deck, mods, ["toric-classify", "--inline", _inline(doc)], doc)
    for g in range(5):
        ms = sorted(rng.sample(range(1, 21), 4))
        doc = {"samples": [list(s) for s in _plurigenera(g, ms)], "max_dim": 1}
        _add_cli_op(deck, mods, ["kappa-estimate", "--inline", _inline(doc)], doc)
    for _ in range(5):
        coeffs = []
        for _ in range(rng.randint(1, 4)):
            q = rng.randint(1, 6)
            coeffs.append(str(Fraction(rng.randint(0, 3 * q // 2), q)))
        doc = {"coeffs": coeffs}
        _add_cli_op(deck, mods, ["pair-classify", "--inline", _inline(doc)], doc)
    for argv, exit_code, error_code in _INVALID:
        _add_cli_error(deck, mods, argv, exit_code, error_code)
    _add_cli_op(deck, mods, ["kappa-estimate", "--inline", _inline(HUGE_SAMPLES)], HUGE_SAMPLES, defect=True)
    return deck


def cold_start_argv(golden_dir):
    """The fresh-process op: golden cone_a3 classification, and its check."""
    argv, doc = golden_argv(golden_dir, GOLDEN_RUNS[0])
    argv = argv + ["--format", "machine"]

    def check(out):
        report = json.loads(out)
        _check_report(argv[0], doc, {}, report)

    return argv, check


def build(workload, mods, seed, golden_dir):
    rng = random.Random(seed)
    if workload == "cli_mix":
        deck = cli_mix(mods, rng, golden_dir)
    elif workload == "lattice_search":
        deck = lattice_search(mods, rng)
    else:
        deck = singularities(mods, rng)
    rng.shuffle(deck.ops)
    return deck
