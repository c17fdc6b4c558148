"""Command-line front end.

Each subcommand is one row of ``COMMANDS``: its handler, help line, rule
text and own flags.  ``build_parser`` turns the table into one parser,
built on the first call and shared by every later call in the process.
A handler reads its flags and any JSON document and returns a report body;
``main`` puts the row's name first as "command" and its rule last as
"rule", and ``emit`` renders the report: canonical JSON for --format
machine (sorted keys, no whitespace, rationals as exact "p/q" strings;
identical inputs give byte-identical reports), or one "key: value" line
per top-level field, in order, for --format text.

The parsers here check only that the JSON has the fields and types the
library needs; every domain rule is checked by the library, which names
the offending field relative to the object or function that checked it.
The parsers put the document path in front (``vertices[0].genus``), and
``--`` for a flag (``--point``).  Exit codes: 0 success; 2 for an error
that names a field (input validation) and for a stray ValueError; 3 for
an error without a field (a mathematical precondition failed), and for
a MemoryError or RecursionError (code ``resource_exhausted``).
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from fractions import Fraction
from functools import cache
from typing import Callable, NamedTuple

from . import dualgraph, kodaira, surface, toric
from .errors import InvalidInputError, ToolkitError
from .serialize import canonical_json, fraction_to_str, parse_fraction

def _expect(condition: bool, code: str, field: str, message: str):
    if not condition:
        raise InvalidInputError(message, code, field)


@contextmanager
def _inside(prefix: str):
    """Put prefix in front of the field of an input error raised inside:
    'vertices[0].' for a nested object, '--' for a flag.  An empty field
    is the nested object itself."""
    try:
        yield
    except ToolkitError as exc:
        if exc.field is not None:
            exc.field = prefix + exc.field if exc.field else prefix.rstrip(".")
        raise


def _get(doc, key):
    _expect(isinstance(doc, dict), "not_object", "", "expected a JSON object")
    _expect(key in doc, "missing_field", key, f"missing required field '{key}'")
    return doc[key]


def _as_int(value, field) -> int:
    # JSON integers only: the library coerces with int(), which takes True and 2.5
    _expect(type(value) is int, "wrong_type", field, f"expected an integer, got {value!r}")
    return value


def _as_list(value, field, code="wrong_type") -> list:
    _expect(isinstance(value, list), code, field, "expected a list")
    return value


def _as_int_list(value, field) -> list[int]:
    _expect(isinstance(value, list), "wrong_type", field, "expected a list of integers")
    return [_as_int(x, f"{field}[{k}]") for k, x in enumerate(value)]


def _as_fraction(value, field) -> Fraction:
    try:
        return parse_fraction(value)
    except ValueError as exc:
        raise InvalidInputError(str(exc), "coeff_bad", field) from exc


# -- schema parsers: JSON presence and types; the library checks the rest -----


def parse_cone(doc) -> toric.Cone:
    rank = _as_int(_get(doc, "rank"), "rank")
    rays = _as_list(_get(doc, "rays"), "rays")
    return toric.Cone(rank=rank, rays=tuple(_as_int_list(r, f"rays[{k}]") for k, r in enumerate(rays)))


def parse_graph(doc) -> tuple[dualgraph.DualGraph, dualgraph.Boundary]:
    vertices = []
    for k, v in enumerate(_as_list(_get(doc, "vertices"), "vertices")):
        with _inside(f"vertices[{k}]."):
            genus = _as_int(_get(v, "genus"), "genus")
            self_int = _as_int(_get(v, "self_int"), "self_int")
            vertices.append(dualgraph.Vertex(genus=genus, self_int=self_int))
    edges = _as_list(doc.get("edges", []), "edges")
    graph = dualgraph.DualGraph(
        vertices=tuple(vertices), edges=tuple(_as_int_list(e, f"edges[{k}]") for k, e in enumerate(edges))
    )
    comps = []
    for k, b in enumerate(_as_list(doc.get("boundary", []), "boundary")):
        with _inside(f"boundary[{k}]."):
            coeff = _as_fraction(_get(b, "coeff"), "coeff")
            meets = _as_list(b.get("meets", []), "meets")
            meets = tuple(_as_int_list(m, f"meets[{i}]") for i, m in enumerate(meets))
            comps.append(dualgraph.BoundaryComponent(coeff=coeff, meets=meets))
    return graph, dualgraph.Boundary(tuple(comps))


def parse_surface(doc) -> surface.SurfaceLattice:
    rank = _as_int(_get(doc, "rank"), "rank")
    # a gram that is not a list has always been reported as not square
    gram = _as_list(_get(doc, "gram"), "gram", code="gram_not_square")
    k_vec = _as_int_list(_get(doc, "K"), "K")
    curves = _as_list(doc.get("curves", []), "curves")
    label = doc.get("label", "")
    _expect(isinstance(label, str), "wrong_type", "label", "label must be a string")
    return surface.SurfaceLattice(
        rank=rank,
        gram=tuple(_as_int_list(row, f"gram[{k}]") for k, row in enumerate(gram)),
        K=tuple(k_vec),
        curves=tuple(_as_int_list(c, f"curves[{k}]") for k, c in enumerate(curves)),
        label=label,
    )


def parse_samples(doc) -> tuple[list[list[int]], int | None]:
    # samples that are not a list have always been reported as empty
    samples = _as_list(_get(doc, "samples"), "samples", code="samples_empty")
    max_dim = doc.get("max_dim")
    return (
        [_as_int_list(pair, f"samples[{k}]") for k, pair in enumerate(samples)],
        None if max_dim is None else _as_int(max_dim, "max_dim"),
    )


def parse_coeffs(doc) -> list[Fraction]:
    coeffs = _as_list(_get(doc, "coeffs"), "coeffs")
    return [_as_fraction(c, f"coeffs[{k}]") for k, c in enumerate(coeffs)]


# -- input loading -------------------------------------------------------------


def _load_json(text, field):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"invalid JSON: {exc}", "bad_json", field) from exc
    except RecursionError as exc:
        raise InvalidInputError("invalid JSON: nested too deeply", "bad_json", field) from exc


def load_document(args) -> dict:
    if args.inline is not None:
        text = args.inline
        source = "--inline"
    elif args.input is not None:
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise InvalidInputError(str(exc), "unreadable_input", "--input") from exc
        source = args.input
    else:
        raise InvalidInputError("supply --input PATH or --inline JSON", "missing_input", "--input")
    doc = _load_json(text, source)
    _expect(isinstance(doc, dict), "not_object", source, "top-level JSON value must be an object")
    return doc


def parse_vector_flag(text, field) -> tuple[int, ...]:
    return tuple(_as_int_list(_load_json(text, field), field))


# -- report rendering ----------------------------------------------------------


def _graph_to_doc(graph: dualgraph.DualGraph, boundary: dualgraph.Boundary) -> dict:
    return {
        "vertices": [{"genus": v.genus, "self_int": v.self_int} for v in graph.vertices],
        "edges": [[i, j, m] for i, j, m in graph.edges],
        "boundary": [
            {"coeff": fraction_to_str(c.coeff), "meets": [[v, m] for v, m in c.meets]}
            for c in boundary.components
        ],
    }


def _surface_to_doc(s: surface.SurfaceLattice) -> dict:
    return {
        "rank": s.rank,
        "gram": [list(row) for row in s.gram],
        "K": list(s.K),
        "curves": [list(c) for c in s.curves],
        "label": s.label,
    }


def emit(report: dict, fmt: str) -> None:
    """Canonical JSON for machine; for text, one 'key: value' line per
    top-level field, strings as they are and other values as JSON."""
    if fmt == "machine":
        sys.stdout.write(canonical_json(report) + "\n")
        return
    for key, value in report.items():
        sys.stdout.write(f"{key}: {value if isinstance(value, str) else canonical_json(value)}\n")


def emit_error(kind: str, code: str, message: str, fmt: str, field: str | None = None) -> None:
    if fmt == "machine":
        payload = {"error": {"kind": kind, "code": code, "message": message}}
        if field is not None:
            payload["error"]["field"] = field
        sys.stdout.write(canonical_json(payload) + "\n")
    else:
        where = f" at {field}" if field else ""
        sys.stdout.write(f"error [{code}]{where}: {message}\n")


# -- subcommand handlers: each returns its report body -------------------------


def cmd_toric_classify(args):
    cone = parse_cone(load_document(args))
    result = toric.classify_cone(cone)
    points = []
    if result.support_functional is not None:
        m = result.support_functional
        for p in result.points_at_or_below_one:
            value = sum((Fraction(c) * x for c, x in zip(m, p)), Fraction(0))
            points.append({"point": list(p), "discrepancy": fraction_to_str(value - 1)})
    return {
        "class": result.kind.value,
        "q_factorial": result.q_factorial,
        "gorenstein_index": result.gorenstein_index,
        "support_functional": (
            None
            if result.support_functional is None
            else [fraction_to_str(x) for x in result.support_functional]
        ),
        "points": points,
    }


def cmd_toric_discrepancy(args):
    cone = parse_cone(load_document(args))
    point = parse_vector_flag(args.point, "--point")
    with _inside("--"):
        value = toric.toric_discrepancy(cone, point)
    return {"point": list(point), "discrepancy": fraction_to_str(value)}


def cmd_graph_discrepancies(args):
    graph, boundary = parse_graph(load_document(args))
    result = dualgraph.discrepancies(graph, boundary)
    return {
        "contractible": True,
        "discrepancies": [fraction_to_str(d) for d in result.discrepancies],
        "class": result.singularity_class.value,
        "du_val": result.du_val,
        "minimal_resolution": result.minimal_resolution,
    }


def _parse_site(args) -> dualgraph.BlowupSite:
    has_edge = args.edge is not None
    has_vertex = args.vertex is not None
    has_boundary = args.boundary is not None
    if has_edge:
        _expect(not has_vertex and not has_boundary, "site_conflict", "--edge", "--edge excludes --vertex/--boundary")
        return dualgraph.EdgePoint(i=args.edge[0], j=args.edge[1])
    _expect(has_vertex, "site_missing", "--vertex", "choose a site: --vertex I [--boundary K] or --edge I J")
    if has_boundary:
        return dualgraph.BoundaryPoint(vertex=args.vertex, component=args.boundary)
    return dualgraph.FreePoint(vertex=args.vertex)


def cmd_graph_blowup(args):
    graph, boundary = parse_graph(load_document(args))
    site = _parse_site(args)
    new_graph, new_boundary = dualgraph.blowup_vertex(graph, boundary, site)
    if isinstance(site, dualgraph.EdgePoint):
        site_doc = {"edge": [site.i, site.j]}
    elif isinstance(site, dualgraph.BoundaryPoint):
        site_doc = {"vertex": site.vertex, "boundary": site.component}
    else:
        site_doc = {"vertex": site.vertex}
    return {"site": site_doc, "graph": _graph_to_doc(new_graph, new_boundary)}


def cmd_mmp_run(args):
    s = parse_surface(load_document(args))
    with _inside("--"):
        trace = surface.run_classical_mmp(s, bound=args.bound)
    return {
        "steps": [
            {
                "contracted": list(step.contracted),
                "rank_before": step.rank_before,
                "rank_after": step.rank_after,
            }
            for step in trace.steps
        ],
        "outcome": {"kind": trace.outcome.value, "fibre": None if trace.fibre is None else list(trace.fibre)},
        "final": _surface_to_doc(trace.final),
        "notes": list(trace.notes) + list(s.warnings()),
    }


def cmd_delpezzo_lines(args):
    if args.r is not None:
        with _inside("--"):
            s = surface.make_blowup_p2(args.r)
    else:
        _expect(
            args.input is not None or args.inline is not None,
            "missing_input",
            "--r",
            "supply --r or a surface via --input/--inline",
        )
        s = parse_surface(load_document(args))
    with _inside("--"):
        classes = surface.enumerate_minus_one_classes(s, bound=args.bound)
    report = {"count": len(classes), "classes": [list(c) for c in classes]}
    if args.r is not None:
        report["r"] = args.r
    return report


def cmd_cone_rays(args):
    s = parse_surface(load_document(args))
    r1, r2 = surface.cone_rays_rank2(s)
    return {"rays": [list(r1), list(r2)]}


def cmd_nef_check(args):
    s = parse_surface(load_document(args))
    divisor = parse_vector_flag(args.divisor, "--divisor")
    with _inside("--"):
        nef = surface.is_nef(s, divisor)
        ample = surface.is_ample_kleiman(s, divisor)
    return {
        "divisor": list(divisor),
        "nef": nef,
        "ample": ample,
        "note": "relative to the supplied curve classes",
        "warnings": list(s.warnings()),
    }


def cmd_rr(args):
    curve_mode = args.deg is not None or args.genus is not None
    surface_mode = args.divisor is not None or args.chi0 is not None
    _expect(
        curve_mode != surface_mode,
        "rr_mode",
        "--deg",
        "use --deg/--genus (curve) or --input/--divisor/--chi0 (surface)",
    )
    if curve_mode:
        _expect(args.deg is not None and args.genus is not None, "rr_mode", "--deg", "need both --deg and --genus")
        with _inside("--"):
            chi = kodaira.riemann_roch_curve(args.deg, args.genus)
        return {"mode": "curve", "deg": args.deg, "genus": args.genus, "chi": fraction_to_str(chi), "integral": True}
    _expect(args.divisor is not None and args.chi0 is not None, "rr_mode", "--divisor", "need --divisor and --chi0")
    s = parse_surface(load_document(args))
    divisor = parse_vector_flag(args.divisor, "--divisor")
    with _inside("--"):
        chi = surface.riemann_roch_surface(s, divisor, args.chi0)
    return {
        "mode": "surface",
        "divisor": list(divisor),
        "chi0": args.chi0,
        "chi": fraction_to_str(chi),
        "integral": isinstance(chi, int),
    }


def cmd_kappa_estimate(args):
    samples, max_dim = parse_samples(load_document(args))
    estimate = kodaira.estimate_kappa(samples, max_dim=max_dim)
    return {"kappa": "-inf" if estimate.is_minus_infinity else estimate.value, "note": estimate.note}


def cmd_pair_classify(args):
    coeffs = parse_coeffs(load_document(args))
    cls = kodaira.classify_pair_on_curve(coeffs)
    fano = None
    if all(0 <= c <= 1 for c in coeffs):
        fano = kodaira.fano_pair_on_p1_check(coeffs)
    return {"coeffs": [fraction_to_str(c) for c in coeffs], "class": cls.value, "fano_on_p1": fano}


class Command(NamedTuple):
    """One subcommand: handler, help line, the rule its report states (one text
    per value of the report's "mode" if it has modes) and argparse flags."""

    handler: Callable[[argparse.Namespace], dict]
    help: str
    rule: str | dict[str, str]
    flags: dict[str, dict] = {}


COMMON_FLAGS = {
    "--input": dict(help="path to a JSON input document"),
    "--inline": dict(help="inline JSON input document"),
    "--format": dict(choices=("text", "machine"), default="text", help="text for humans, machine for canonical JSON"),
}
BOUND_FLAG = {"--bound": dict(type=int, help="explicit coordinate bound for the class search")}

COMMANDS = {
    "toric-classify": Command(
        cmd_toric_classify, "classify a toric cone singularity",
        "smooth iff the ray matrix is unimodular; terminal/canonical/klt read off lattice points P with m(P) <= 1"
        " for the support functional m",
    ),
    "toric-discrepancy": Command(
        cmd_toric_discrepancy, "discrepancy at a lattice point of a cone",
        "discrepancy of a primitive lattice point P of the cone is m(P) - 1 for the support functional m",
        {"--point": dict(required=True, help="lattice point as a JSON list")},
    ),
    "graph-discrepancies": Command(
        cmd_graph_discrepancies, "discrepancies from a resolution dual graph",
        "solve sum_i d_i (Ei.Ej) = 2 p_a(Ej) - 2 - Ej^2 + (B.Ej) on the negative-definite intersection matrix;"
        " thresholds on d classify",
    ),
    "graph-blowup": Command(
        cmd_graph_blowup, "blow up a point of the resolution surface",
        "blow up a point: append a (-1)-vertex, drop incident self-intersections by one, pass boundary"
        " multiplicity through",
        {
            "--vertex": dict(type=int, help="blow up a free point of this vertex"),
            "--edge": dict(type=int, nargs=2, metavar=("I", "J"), help="blow up an intersection point"),
            "--boundary": dict(type=int, help="boundary component index (with --vertex)"),
        },
    ),
    "mmp-run": Command(
        cmd_mmp_run, "run the classical surface MMP on a lattice",
        "contract the lexicographically smallest (-1)-class until none remain, then classify fibre-space or"
        " minimal outcome from the known curve classes",
        BOUND_FLAG,
    ),
    "delpezzo-lines": Command(
        cmd_delpezzo_lines, "enumerate (-1)-classes",
        "enumerate classes with C^2 = -1 and K.C = -1: every cell of the --bound box if one is given,"
        " else the integer points of one ellipsoid (Fincke-Pohst), complete when K^2 > 0 and the form"
        " has signature (1, rank-1)",
        {"--r": dict(type=int, help="use the blow-up of the plane at r points"), **BOUND_FLAG},
    ),
    "cone-rays": Command(
        cmd_cone_rays, "extremal rays of a rank-2 curve cone",
        "boundary rays of the planar cone spanned by the curve classes",
    ),
    "nef-check": Command(
        cmd_nef_check, "nef and ample tests against the curve list",
        "nef: D.C >= 0 on every supplied curve; ample: D.C > 0 on every supplied curve and D^2 > 0",
        {"--divisor": dict(required=True, help="divisor class as a JSON list")},
    ),
    "rr": Command(
        cmd_rr, "Riemann-Roch on a curve or a surface lattice",
        {"curve": "chi = 1 + deg D - g", "surface": "chi = D.(D - K)/2 + chi0"},
        {
            "--deg": dict(type=int, help="degree of the divisor (curve mode)"),
            "--genus": dict(type=int, help="genus of the curve (curve mode)"),
            "--divisor": dict(help="divisor class as a JSON list (surface mode)"),
            "--chi0": dict(type=int, help="chi of the structure sheaf (surface mode)"),
        },
    ),
    "kappa-estimate": Command(
        cmd_kappa_estimate, "estimate Kodaira dimension from plurigenera",
        "-inf if all plurigenera vanish; 0 if eventually constant; else the rounded log-log slope of the two"
        " largest positive samples",
    ),
    "pair-classify": Command(
        cmd_pair_classify, "classify a pair on a curve by coefficients",
        "pair on a curve: B = 0 canonical-or-terminal; all coefficients < 1 klt; all <= 1 lc; otherwise not lc",
    ),
}


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser for every row of COMMANDS, built on the first call and
    shared by every later one; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="mmpkit",
        description=(
            "Exact-arithmetic toolkit: toric cone singularities, resolution"
            " dual graphs, surface-lattice minimal model program, and"
            " curve-level invariants."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, row in COMMANDS.items():
        p = sub.add_parser(name, help=row.help)
        for flag, keywords in (COMMON_FLAGS | row.flags).items():
            p.add_argument(flag, **keywords)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    row = COMMANDS[args.command]
    fmt = args.format
    try:
        body = row.handler(args)
    except ToolkitError as exc:
        if exc.field is not None:
            emit_error("validation", exc.code, str(exc), fmt, exc.field)
            return 2
        emit_error("precondition", exc.code, str(exc), fmt)
        return 3
    except ValueError as exc:
        # safety net: structural problems surface as validation, never a trace
        emit_error("validation", "invalid_value", str(exc), fmt)
        return 2
    except (MemoryError, RecursionError) as exc:
        # last net: an input too large to compute on ends without a trace
        emit_error("precondition", "resource_exhausted", f"{type(exc).__name__}: the input is too large", fmt)
        return 3
    rule = row.rule if isinstance(row.rule, str) else row.rule[body["mode"]]
    emit({"command": args.command, **body, "rule": rule}, fmt)
    return 0


def console_main() -> None:
    raise SystemExit(main())
