"""Spans around the public functions of each mmpkit layer, from outside.

Installing the tracer replaces every binding of each listed function in
every loaded ``mmpkit`` module: the defining module, names imported into
other modules (``cli.canonical_json``) and the package re-exports.  Hot
per-cell helpers (``SurfaceLattice.pair``, ``linalg.dot``, ``vector_gcd``,
``fraction_to_str``) stay unwrapped, so their cost counts as the caller's
self time.  Uninstalling restores the original objects, so untraced
passes run the program exactly as shipped.

A span is (name, start_ns, end_ns, parent span index, op index); spans
stay in memory until the benchmark writes them out at the end.  A span's
self time is its duration minus the durations of its wrapped children.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from contextlib import contextmanager
from functools import wraps
from math import prod
from time import perf_counter_ns

LINALG_KERNELS = (
    "solve_exact",
    "solve_possibly_singular",
    "matrix_rank",
    "det_bareiss",
    "leading_principal_minors",
    "is_negative_definite",
    "inertia",
    "integer_kernel",
    "smith_normal_form",
    "coordinates_in_basis",
    "cross_normal",
)

# Kernels that run their own elimination over their matrix argument; the
# others delegate to these, so counting them too would count work twice.
ELIMINATING = {
    "solve_exact",
    "solve_possibly_singular",
    "matrix_rank",
    "det_bareiss",
    "inertia",
    "integer_kernel",
    "smith_normal_form",
}

# layer -> wrapped function -> workloads predicted to call it (self-check)
CLI, LATTICE, SING = "cli_mix", "lattice_search", "singularities"
BOUNDARIES = {
    "cli": {
        name: (CLI,)
        for name in (
            "main",
            "build_parser",
            "load_document",
            "parse_cone",
            "parse_graph",
            "parse_surface",
            "parse_samples",
            "parse_coeffs",
            "parse_vector_flag",
            "emit",
            "emit_error",
        )
    },
    "serialize": {"canonical_json": (CLI,)},
    "surface": {
        "make_blowup_p2": (CLI,),
        "enumerate_minus_one_classes": (LATTICE, CLI),
        "castelnuovo_contract": (LATTICE, CLI),
        "run_classical_mmp": (LATTICE, CLI),
        "cone_rays_rank2": (CLI,),
        "is_nef": (CLI,),
        "is_ample_kleiman": (CLI,),
        "riemann_roch_surface": (CLI,),
    },
    "dualgraph": {
        "check_contractible": (SING, CLI),
        "discrepancies": (SING, CLI),
        "detect_du_val": (SING, CLI),
        "blowup_vertex": (CLI,),
    },
    "toric": {
        name: (SING, CLI)
        for name in (
            "classify_cone",
            "is_strongly_convex",
            "facets",
            "q_gorenstein_functional",
            "contains",
            "lattice_points_at_or_below_one",
            "toric_discrepancy",
        )
    },
    "kodaira": {
        "estimate_kappa": (CLI,),
        "classify_pair_on_curve": (CLI,),
        "fano_pair_on_p1_check": (CLI,),
        "riemann_roch_curve": (CLI,),
    },
    "linalg": {
        "solve_exact": (SING, LATTICE),
        "solve_possibly_singular": (SING,),
        "matrix_rank": (SING,),
        "det_bareiss": (SING,),
        "leading_principal_minors": (SING,),
        "is_negative_definite": (SING,),
        "inertia": (LATTICE,),
        "integer_kernel": (LATTICE,),
        "smith_normal_form": (SING,),
        "coordinates_in_basis": (LATTICE,),
        "cross_normal": (SING,),
    },
}

# Per-function metrics: (metric stem, span names summed into it).
_TIMED = (
    ("cli.build_parser", ("cli.build_parser",)),
    ("cli.load_document", ("cli.load_document",)),
    ("cli.parse", tuple(f"cli.{n}" for n in BOUNDARIES["cli"] if n.startswith("parse_"))),
    ("cli.emit", ("cli.emit", "cli.emit_error")),
    ("surface.castelnuovo_contract", ("surface.castelnuovo_contract",)),
    ("surface.run_classical_mmp", ("surface.run_classical_mmp",)),
    ("dualgraph.check_contractible", ("dualgraph.check_contractible",)),
    ("toric.classify_cone", ("toric.classify_cone",)),
    ("toric.is_strongly_convex", ("toric.is_strongly_convex",)),
    ("toric.facets", ("toric.facets",)),
    ("toric.lattice_points_at_or_below_one", ("toric.lattice_points_at_or_below_one",)),
)
_COUNTED_AND_TIMED = (
    "cli.main",
    "serialize.canonical_json",
    "surface.enumerate_minus_one_classes",
    "dualgraph.discrepancies",
    "kodaira.estimate_kappa",
) + tuple(f"linalg.{n}" for n in LINALG_KERNELS)


def metric_specs():
    """(name, unit, better) for every per-layer metric, in report order."""
    specs = []
    for stem in _COUNTED_AND_TIMED:
        specs += [(f"{stem}.calls", "count", "lower"), (f"{stem}.self_ms", "ms", "lower")]
    specs += [(f"{stem}.self_ms", "ms", "lower") for stem, _ in _TIMED]
    specs += [
        ("cli.import_ms", "ms", "lower"),
        ("serialize.report_bytes", "bytes", "lower"),
        ("surface.classes_found", "count", "higher"),
        ("surface.ms_per_class", "ms", "lower"),
        ("surface.mmp_steps", "count", "higher"),
        ("surface.refusals", "count", "lower"),
        ("surface.undetermined", "count", "lower"),
        ("dualgraph.vertices", "count", "lower"),
        ("toric.points_found", "count", "higher"),
        ("toric.box_cells", "count", "lower"),
        ("toric.points_per_cell", "ratio", "higher"),
        ("linalg.elim_ops_computed", "count", "lower"),
    ]
    specs += [(f"{layer}.share", "ratio", "lower") for layer in BOUNDARIES]
    specs.append(("trace_overhead_ratio", "ratio", "lower"))
    return specs


def _shape_work(matrix) -> int:
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    return rows * cols * min(rows, cols)


def _box_cells(cone) -> int:
    return prod(
        max(0, *(r[i] for r in cone.rays)) - min(0, *(r[i] for r in cone.rays)) + 1
        for i in range(cone.rank)
    )


class Tracer:
    """Records spans and counters while installed into the mmpkit modules."""

    def __init__(self, mods):
        self.spans = []
        self.stack = []  # [span index, nanoseconds covered by child spans]
        self.op = -1
        self.calls = Counter()
        self.self_ns = Counter()
        self.counters = Counter()
        self.missing = []
        self._wrappers = {}
        for layer, names in BOUNDARIES.items():
            module = getattr(mods, layer)
            for name in names:
                fn = getattr(module, name, None)
                if fn is None:
                    self.missing.append(f"{layer}.{name}")
                else:
                    self._wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))

    def _observe(self, name, args, kwargs, result, exc):
        c = self.counters
        if exc is not None:
            return
        first = args[0] if args else next(iter(kwargs.values()), None)
        if name == "serialize.canonical_json":
            c["serialize.report_bytes"] += len(result.encode())
        elif name == "surface.enumerate_minus_one_classes":
            c["surface.classes_found"] += len(result)
        elif name == "surface.run_classical_mmp":
            c["surface.mmp_steps"] += len(result.steps)
        elif name == "dualgraph.discrepancies":
            c["dualgraph.vertices"] += len(first.vertices)
        elif name == "toric.lattice_points_at_or_below_one":
            c["toric.points_found"] += len(result)
            c["toric.box_cells"] += _box_cells(first)
        elif name.startswith("linalg.") and name[7:] in ELIMINATING:
            c["linalg.elim_ops_computed"] += _shape_work(first)

    def _wrap(self, name, fn):
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer.stack
            index = len(tracer.spans)
            parent = stack[-1][0] if stack else -1
            tracer.spans.append(None)
            frame = [index, 0]
            stack.append(frame)
            result = exc = None
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as error:
                exc = error
                raise
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                tracer.spans[index] = (name, start, end, parent, tracer.op)
                tracer.calls[name] += 1
                tracer.self_ns[name] += duration - frame[1]
                tracer._observe(name, args, kwargs, result, exc)

        return traced

    def _bindings(self):
        for modname, module in list(sys.modules.items()):
            if modname == "mmpkit" or modname.startswith("mmpkit."):
                for attr, value in vars(module).items():
                    if id(value) in self._wrappers and self._wrappers[id(value)][0] is value:
                        yield module, attr, value

    @contextmanager
    def installed(self):
        """Swap every binding of every wrapped function for its wrapper."""
        patched = list(self._bindings())
        for module, attr, value in patched:
            setattr(module, attr, self._wrappers[id(value)][1])
        try:
            yield
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)

    def metrics(self, passes, traced_ns, untraced_ns, import_ms, defect_causes):
        """Per-layer metrics, each a total per traced pass.

        The refusal and undetermined counts are the failures of the run's
        known-defect ops by cause (decks.Deck), which no timed op meets.
        """

        def per_pass(x):
            return x / passes

        def ms(names):
            return sum(self.self_ns[n] for n in names) / 1e6 / passes

        out = {}
        for stem in _COUNTED_AND_TIMED:
            out[f"{stem}.calls"] = per_pass(self.calls[stem])
            out[f"{stem}.self_ms"] = ms((stem,))
        for stem, names in _TIMED:
            out[f"{stem}.self_ms"] = ms(names)
        for key in (
            "serialize.report_bytes",
            "surface.classes_found",
            "surface.mmp_steps",
            "dualgraph.vertices",
            "toric.points_found",
            "toric.box_cells",
            "linalg.elim_ops_computed",
        ):
            out[key] = per_pass(self.counters[key])
        out["surface.refusals"] = defect_causes["unbounded_search"]
        out["surface.undetermined"] = defect_causes["undetermined_outcome"]
        out["cli.import_ms"] = import_ms
        found = out["surface.classes_found"]
        out["surface.ms_per_class"] = (
            out["surface.enumerate_minus_one_classes.self_ms"] / found if found else 0.0
        )
        cells = out["toric.box_cells"]
        out["toric.points_per_cell"] = out["toric.points_found"] / cells if cells else 0.0
        for layer, names in BOUNDARIES.items():
            out[f"{layer}.share"] = sum(self.self_ns[f"{layer}.{n}"] for n in names) / traced_ns
        out["trace_overhead_ratio"] = traced_ns / untraced_ns
        return out

    def unexercised(self, workload):
        """Wrapped boundaries predicted for this workload that recorded no call."""
        return [
            f"{layer}.{name}"
            for layer, names in BOUNDARIES.items()
            for name, workloads in names.items()
            if workload in workloads
            and f"{layer}.{name}" not in self.missing
            and not self.calls[f"{layer}.{name}"]
        ]

    def dump(self, fh):
        """Write the spans as JSON lines: [name, start_ns, end_ns, parent, op]."""
        for span in self.spans:
            fh.write(json.dumps(span, separators=(",", ":")) + "\n")
