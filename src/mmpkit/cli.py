"""Command-line front end.

Each subcommand is one row of ``COMMANDS``: its handler, help line, rule
text and own flags.  ``build_parser`` turns the table into one parser,
built on the first call and shared by every later call in the process.
``parse_arguments`` hands an argv led by a command name to that command's
subparser, so each argument is classified once; any other argv (``--help``,
an empty one, a typo) goes through the top-level parser, and both ways
print, exit and parse as ``build_parser().parse_args`` does.  ``main``
reads the call's document by ``load_document``, the one reader of --input
and --inline, and reports its fault before any flag rule: a call names at
most one (both is ``input_conflict``), and ``--r`` and rr's curve mode
take none.  The row's handler takes (args, document) and returns a report
body of library values as they are (Fractions, Enums, tuples, records);
``main`` puts the row's name first as "command" and its rule last as
"rule", and ``emit`` renders the report by the one rule of ``serialize``:
canonical JSON for --format machine (identical inputs give byte-identical
reports), or one "key: value" line per top-level field, in order, for
--format text.  A parser or handler names the library layer it calls as
``mmpkit.<layer>``, which the package's one lazy hook loads when first
named, so a process imports only the layer of the subcommand it runs (of
the mode, for ``rr``), and ``--help`` imports none.

The parsers here only pick the fields out of the document, walk its
lists of objects (``vertices``, ``boundary``) and read its rationals
(``"1/2"``); every type and domain rule is checked once, by the library,
which names the offending field relative to the object or function that
checked it.  This module puts the document path in front
(``vertices[0].genus``), and ``--`` for a flag (``--point[1]``).  Exit
codes: 0 success; 2 for an error that names a field (input validation),
and, with code ``invalid_value`` and no field, for a report that cannot
be printed because it holds an integer over Python's int-to-decimal
digit limit (the discrepancies of two 3000-digit self-intersections); 3
for an error without a field (a mathematical precondition failed), and
for a MemoryError, RecursionError or OverflowError (code
``resource_exhausted``).
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from enum import Enum
from fractions import Fraction
from functools import cache
from typing import Callable, NamedTuple

import mmpkit

from .errors import CoefficientOutOfRangeError, InvalidInputError, ToolkitError
from .serialize import canonical_json, parse_fraction, plain

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


def _document(doc) -> dict:
    _expect(doc is not None, "missing_input", "--input", "supply --input PATH or --inline JSON")
    return doc


def _get(doc, key):
    _expect(isinstance(doc, dict), "not_object", "", "expected a JSON object")
    _expect(key in doc, "missing_field", key, f"missing required field '{key}'")
    return doc[key]


def _as_list(value, field) -> list:
    _expect(isinstance(value, list), "wrong_type", field, "expected a list")
    return value


def _as_fraction(value, field) -> Fraction:
    try:
        return parse_fraction(value)
    except ValueError as exc:
        raise InvalidInputError(str(exc), "coeff_bad", field) from exc


# -- schema parsers: pick the fields; the library checks types and the rest ------


def parse_cone(doc) -> mmpkit.toric.Cone:
    return mmpkit.toric.Cone(rank=_get(_document(doc), "rank"), rays=_get(doc, "rays"))


def parse_graph(doc) -> tuple[mmpkit.dualgraph.DualGraph, mmpkit.dualgraph.Boundary]:
    vertices = []
    for k, v in enumerate(_as_list(_get(_document(doc), "vertices"), "vertices")):
        with _inside(f"vertices[{k}]."):
            vertices.append(mmpkit.dualgraph.Vertex(genus=_get(v, "genus"), self_int=_get(v, "self_int")))
    graph = mmpkit.dualgraph.DualGraph(vertices=tuple(vertices), edges=doc.get("edges", []))
    comps = []
    for k, b in enumerate(_as_list(doc.get("boundary", []), "boundary")):
        with _inside(f"boundary[{k}]."):
            coeff = _as_fraction(_get(b, "coeff"), "coeff")
            comps.append(mmpkit.dualgraph.BoundaryComponent(coeff=coeff, meets=b.get("meets", [])))
    return graph, mmpkit.dualgraph.Boundary(tuple(comps))


def parse_surface(doc) -> mmpkit.surface.SurfaceLattice:
    return mmpkit.surface.SurfaceLattice(
        rank=_get(_document(doc), "rank"),
        gram=_get(doc, "gram"),
        K=_get(doc, "K"),
        curves=doc.get("curves", []),
        label=doc.get("label", ""),
    )


def parse_samples(doc):
    return _get(_document(doc), "samples"), doc.get("max_dim")


def parse_coeffs(doc) -> list[Fraction]:
    coeffs = _as_list(_get(_document(doc), "coeffs"), "coeffs")
    return [_as_fraction(c, f"coeffs[{k}]") for k, c in enumerate(coeffs)]


# -- input loading -------------------------------------------------------------


def _load_json(text, field):
    # ValueError covers JSONDecodeError and an integer over the int-to-str digit limit
    try:
        return json.loads(text)
    except ValueError as exc:
        raise InvalidInputError(f"invalid JSON: {exc}", "bad_json", field) from exc
    except RecursionError as exc:
        raise InvalidInputError("invalid JSON: nested too deeply", "bad_json", field) from exc


def load_document(args) -> dict | None:
    """The JSON object the call names by --input or --inline, or None if it names none."""
    _expect(args.input is None or args.inline is None, "input_conflict", "--inline", "--inline excludes --input")
    text, source = args.inline, "--inline"
    if args.input is not None:
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise InvalidInputError(str(exc), "unreadable_input", "--input") from exc
        source = args.input
    elif text is None:
        return None
    doc = _load_json(text, source)
    _expect(isinstance(doc, dict), "not_object", source, "top-level JSON value must be an object")
    return doc


# -- report rendering ----------------------------------------------------------


def _text_value(v) -> str:
    v = plain(v) if isinstance(v, (Fraction, Enum)) else v
    return v if isinstance(v, str) else canonical_json(v)


def emit(report: dict, fmt: str) -> None:
    """Canonical JSON for machine; for text, one 'key: value' line per
    top-level field, strings, rationals and enums bare and other values as
    JSON.  The text is rendered whole before the one write, so a report
    that cannot be rendered writes nothing."""
    if fmt == "machine":
        text = canonical_json(report)
    else:
        text = "\n".join(f"{k}: {_text_value(v)}" for k, v in report.items())
    sys.stdout.write(text + "\n")


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


def cmd_toric_classify(args, doc):
    result = mmpkit.toric.classify_cone(parse_cone(doc))
    return {
        "class": result.kind,
        "q_factorial": result.q_factorial,
        "gorenstein_index": result.gorenstein_index,
        "support_functional": result.support_functional,
        "points": [{"point": p, "discrepancy": a} for p, a in zip(result.points_at_or_below_one, result.discrepancies)],
    }


def cmd_toric_discrepancy(args, doc):
    cone = parse_cone(doc)
    point = _load_json(args.point, "--point")
    with _inside("--"):
        value = mmpkit.toric.toric_discrepancy(cone, point)
    return {"point": point, "discrepancy": value}


def cmd_graph_discrepancies(args, doc):
    result = mmpkit.dualgraph.discrepancies(*parse_graph(doc))
    return {
        "contractible": True,
        "discrepancies": result.discrepancies,
        "class": result.singularity_class,
        "du_val": result.du_val,
        "minimal_resolution": result.minimal_resolution,
    }


def _parse_site(args) -> mmpkit.dualgraph.BlowupSite:
    if args.edge is not None:
        conflict = args.vertex is not None or args.boundary is not None
        _expect(not conflict, "site_conflict", "--edge", "--edge excludes --vertex/--boundary")
        return mmpkit.dualgraph.EdgePoint(i=args.edge[0], j=args.edge[1])
    has_vertex = args.vertex is not None
    _expect(has_vertex, "site_missing", "--vertex", "choose a site: --vertex I [--boundary K] or --edge I J")
    if args.boundary is not None:
        return mmpkit.dualgraph.BoundaryPoint(vertex=args.vertex, component=args.boundary)
    return mmpkit.dualgraph.FreePoint(vertex=args.vertex)


def cmd_graph_blowup(args, doc):
    graph, boundary = parse_graph(doc)
    site = _parse_site(args)
    new_graph, new_boundary = mmpkit.dualgraph.blowup_vertex(graph, boundary, site)
    flags = {"edge": args.edge, "vertex": args.vertex, "boundary": args.boundary}
    return {
        "site": {k: v for k, v in flags.items() if v is not None},
        "graph": {**plain(new_graph), "boundary": new_boundary.components},
    }


def cmd_mmp_run(args, doc):
    s = parse_surface(doc)
    with _inside("--"):
        trace = mmpkit.surface.run_classical_mmp(s, bound=args.bound)
    return {
        "steps": trace.steps,
        "outcome": {"kind": trace.outcome, "fibre": trace.fibre},
        "final": trace.final,
        "notes": trace.notes + s.warnings(),
    }


def cmd_delpezzo_lines(args, doc):
    if args.r is None:
        _expect(doc is not None, "missing_input", "--r", "supply --r or a surface via --input/--inline")
        s = parse_surface(doc)
    else:
        _expect(doc is None, "input_conflict", "--r", "--r excludes --input/--inline")
        with _inside("--"):
            s = mmpkit.surface.make_blowup_p2(args.r)
    with _inside("--"):
        classes = mmpkit.surface.enumerate_minus_one_classes(s, bound=args.bound)
    report = {"count": len(classes), "classes": classes}
    if args.r is not None:
        report["r"] = args.r
    return report


def cmd_cone_rays(args, doc):
    return {"rays": mmpkit.surface.cone_rays_rank2(parse_surface(doc))}


def cmd_nef_check(args, doc):
    s = parse_surface(doc)
    divisor = _load_json(args.divisor, "--divisor")
    with _inside("--"):
        nef = mmpkit.surface.is_nef(s, divisor)
        ample = mmpkit.surface.is_ample_kleiman(s, divisor)
    return {
        "divisor": divisor,
        "nef": nef,
        "ample": ample,
        "note": "relative to the supplied curve classes",
        "warnings": s.warnings(),
    }


def cmd_rr(args, doc):
    curve_mode = args.deg is not None or args.genus is not None
    surface_mode = doc is not None or args.divisor is not None or args.chi0 is not None
    usage = "use --deg/--genus (curve) or --input/--divisor/--chi0 (surface)"
    _expect(curve_mode != surface_mode, "rr_mode", "--deg", usage)
    if curve_mode:
        _expect(args.deg is not None and args.genus is not None, "rr_mode", "--deg", "need both --deg and --genus")
        with _inside("--"):
            chi = mmpkit.kodaira.riemann_roch_curve(args.deg, args.genus)
        report = {"mode": "curve", "deg": args.deg, "genus": args.genus}
    else:
        _expect(args.divisor is not None and args.chi0 is not None, "rr_mode", "--divisor", "need --divisor and --chi0")
        s = parse_surface(doc)
        divisor = _load_json(args.divisor, "--divisor")
        with _inside("--"):
            chi = mmpkit.surface.riemann_roch_surface(s, divisor, args.chi0)
        report = {"mode": "surface", "divisor": divisor, "chi0": args.chi0}
    # chi is a "p/q" string in both modes, integral or not
    return {**report, "chi": Fraction(chi), "integral": isinstance(chi, int)}


def cmd_kappa_estimate(args, doc):
    samples, max_dim = parse_samples(doc)
    estimate = mmpkit.kodaira.estimate_kappa(samples, max_dim=max_dim)
    return {"kappa": "-inf" if estimate.is_minus_infinity else estimate.value, "note": estimate.note}


def cmd_pair_classify(args, doc):
    coeffs = parse_coeffs(doc)
    cls = mmpkit.kodaira.classify_pair_on_curve(coeffs)
    try:
        fano = mmpkit.kodaira.fano_pair_on_p1_check(coeffs)
    except CoefficientOutOfRangeError:
        fano = None
    return {"coeffs": coeffs, "class": cls, "fano_on_p1": fano}


class Command(NamedTuple):
    """One subcommand: handler, help line, the rule its report states (one text
    per value of the report's "mode" if it has modes) and argparse flags."""

    handler: Callable[[argparse.Namespace, dict | None], dict]
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
    parser.subcommands = sub.choices  # name -> that command's parser
    return parser


def parse_arguments(argv=None) -> argparse.Namespace:
    """The namespace that build_parser().parse_args(argv) gives, with the same
    output and exit on an error or --help.  An argv led by a command name goes
    straight to that command's parser, so each argument is classified once;
    any other argv goes through the top-level parser."""
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = parser.subcommands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:])
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    args.command = argv[0]
    return args


def main(argv=None) -> int:
    args = parse_arguments(argv)
    row = COMMANDS[args.command]
    fmt = args.format
    try:
        body = row.handler(args, load_document(args))
        rule = row.rule if isinstance(row.rule, str) else row.rule[body["mode"]]
        emit({"command": args.command, **body, "rule": rule}, fmt)
    except ToolkitError as exc:
        if exc.field is not None:
            emit_error("validation", exc.code, str(exc), fmt, exc.field)
            return 2
        emit_error("precondition", exc.code, str(exc), fmt)
        return 3
    except ValueError as exc:
        # a report holding an integer too long to print, or any other stray ValueError
        emit_error("validation", "invalid_value", str(exc), fmt)
        return 2
    except (MemoryError, RecursionError, OverflowError) as exc:
        # last net: an input too large to compute on ends without a trace
        emit_error("precondition", "resource_exhausted", f"{type(exc).__name__}: the input is too large", fmt)
        return 3
    return 0


def console_main() -> None:
    raise SystemExit(main())
