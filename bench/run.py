"""mmpkit benchmark: seeded closed-loop workloads with oracle-checked answers.

    python3 bench/run.py --workload cli_mix --seed 1 --seconds 30 --trace 0

One client in one process, no threads: each op starts when the previous
one has returned.  The deck of ops is built from --seed; every answer is
checked against an oracle that does not use mmpkit's code path (see
bench/README.md for the workloads and what each metric should predict).

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
and traced full passes of the deck and prints the per-layer metrics.
Either then calls each known-defect op once, untimed, and prints its
failures by cause (decks.Deck); those ops are not counted as attempted.
The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import types
from collections import Counter
from itertools import product
from math import ceil
from pathlib import Path
from time import perf_counter, perf_counter_ns

import decks
from oracles import WrongAnswer
from tracer import Tracer, metric_specs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"
OUT = BENCH / "out"

WORKLOADS = ("cli_mix", "lattice_search", "singularities")
DEFAULT_SEED = 1
LAYERS = ("cli", "serialize", "surface", "dualgraph", "toric", "kodaira", "linalg")
SETUP_REPEATS = 9
SUBPROCESS_PAIRS = 20
SUBPROCESS_TIMEOUT_S = 60
# Estimated times on an unloaded core of a 2-vCPU Intel Xeon VM with
# Python 3.11, where the benchmark was tuned: reference_loop(), and a bare
# `python -c pass`.  They turn the slowdowns measured in a run back into
# plain times; see end_to_end.
REFERENCE_NOMINAL_NS = 370_000
BARE_NOMINAL_MS = 40.0


def load_mmpkit():
    """A fresh import of every mmpkit module, as a namespace of layers."""
    for name in [n for n in sys.modules if n == "mmpkit" or n.startswith("mmpkit.")]:
        del sys.modules[name]
    importlib.import_module("mmpkit")
    return types.SimpleNamespace(**{layer: importlib.import_module(f"mmpkit.{layer}") for layer in LAYERS})


class Tally:
    """Latencies and failures of the ops run so far."""

    def __init__(self):
        self.latencies_ns = []
        self.causes = Counter()
        self.wrong = []
        self.verified = {}  # op index -> the answer its oracle accepted
        self.probes = 0  # fresh-process runs, counted as ops without a latency sample

    def run(self, ops, index):
        """Run ops[index], check its answer, and return its latency in ns."""
        op = ops[index]
        start = perf_counter_ns()
        try:
            answer = op.call()
        except Exception as exc:  # a refusal or a crash fails this op; the loop goes on
            elapsed = perf_counter_ns() - start
            code = getattr(type(exc), "code", None)
            self._record(elapsed, code if isinstance(code, str) else type(exc).__name__)
            return elapsed
        elapsed = perf_counter_ns() - start
        if index in self.verified and self.verified[index] == answer:
            self._record(elapsed, None)
            return elapsed
        try:
            op.check(answer)
        except Exception as exc:  # a malformed answer is as wrong as a false one
            self.wrong.append(f"{op.label}: {type(exc).__name__}: {exc}")
            self._record(elapsed, "wrong_answer")
            return elapsed
        self.verified[index] = answer
        self._record(elapsed, None)
        return elapsed

    def _record(self, elapsed, cause):
        self.latencies_ns.append(elapsed)
        if cause is not None:
            self.causes[cause] += 1

    def add_probes(self, count, failures):
        self.probes += count
        if failures:
            self.causes["probe_failed"] += failures

    @property
    def attempted(self):
        return len(self.latencies_ns) + self.probes

    @property
    def failed(self):
        return sum(self.causes.values())


_REFERENCE_FORM = ((1, 0, 0, 0), (0, -1, 0, 0), (0, 0, -1, 0), (0, 0, 0, -1))


def reference_loop():
    """A fixed piece of pure-Python work, independent of mmpkit.

    An integer loop, and a scan of small tuples under a quadratic form
    summed by a generator, the shape of much of mmpkit's own code.  Other
    tenants' load slows the two kinds of work by different amounts.
    """
    total = 0
    for k in range(3500):
        total += k * k
    g = _REFERENCE_FORM
    for x in product(range(-1, 2), repeat=4):
        total += sum(x[i] * g[i][j] * x[j] for i in range(4) for j in range(4))
    return total


def timed_reference():
    start = perf_counter_ns()
    reference_loop()
    return perf_counter_ns() - start


class Slowdown:
    """The machine's slowdown around each timed interval.

    after() times reference_loop() and returns the mean of that time and
    the previous one, over the nominal time: the slowdown of the interval
    in between.  Load on a shared machine changes from second to second,
    so each interval is scaled by its own slowdown.
    """

    def __init__(self):
        self.last = timed_reference()
        self.samples = []

    def after(self):
        now = timed_reference()
        value = (self.last + now) / 2 / REFERENCE_NOMINAL_NS
        self.last = now
        self.samples.append(value)
        return value


def run_defects(deck):
    """Each known-defect op once, untimed; prints and returns their tally."""
    tally = Tally()
    for index in range(len(deck.defects)):
        tally.run(deck.defects, index)
    print(
        f"  known defects: {tally.failed} of {tally.attempted} ops failed, untimed and not"
        f" in attempted; causes: {dict(sorted(tally.causes.items()))}"
    )
    for line in tally.wrong[:20]:
        print(f"  wrong answer: {line}")
    return tally


def perturbation_problems(ops, tally):
    """Oracles that accept a perturbed version of an answer they verified."""
    problems = []
    for index, answer in tally.verified.items():
        op = ops[index]
        try:
            op.check(op.perturb(answer))
        except WrongAnswer:
            continue
        problems.append(f"oracle for {op.kind} accepted a perturbed answer ({op.label})")
    return problems


def run_pass(deck, tally, tracer=None):
    """Every op of the deck once; returns the summed op time in ns."""
    total = 0
    for index in range(len(deck.ops)):
        if tracer is not None:
            tracer.op = index
        total += tally.run(deck.ops, index)
    return total


def timed_subprocess(argv, env):
    start = perf_counter_ns()
    proc = subprocess.run(
        argv, env=env, cwd=ROOT, capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S
    )
    return (perf_counter_ns() - start) / 1e6, proc


class Probe:
    """Fresh-process runs, each paired with a bare interpreter start.

    The two alternate so that load on the machine hits both alike; one
    untimed probe first fills the bytecode and file caches.
    """

    def __init__(self, argv, check):
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.argv, self.check = argv, check
        self.probe_ms, self.bare_ms, self.failures = [], [], 0
        timed_subprocess(argv, self.env)

    def pair(self):
        ms, proc = timed_subprocess(self.argv, self.env)
        self.probe_ms.append(ms)
        try:
            if proc.returncode != 0:
                raise ValueError(f"exit code {proc.returncode}: {proc.stderr.strip()[-200:]}")
            self.check(proc.stdout)
        except Exception as exc:  # a failed probe is reported, and the run goes on
            self.failures += 1
            print(f"probe failed: {type(exc).__name__}: {exc}")
        self.bare_ms.append(timed_subprocess([sys.executable, "-c", "pass"], self.env)[0])


def quantile_ms(sorted_ns, q):
    """Nearest-rank quantile in ms."""
    return sorted_ns[max(0, ceil(len(sorted_ns) * q) - 1)] / 1e6


def setup(workload, seed):
    """Import mmpkit afresh, build the deck, and warm it up.

    Returns the modules, the deck, and the median over the repeats of the
    raw set-up time and of the time scaled by its slowdown.
    """
    raw, scaled = [], []
    slowdown = Slowdown()
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        mods = load_mmpkit()
        deck = decks.build(workload, mods, seed, GOLDEN)
        warm = Tally()
        for index, op in enumerate(deck.ops):
            if op.warm:
                warm.run(deck.ops, index)
        raw.append(perf_counter() - start)
        scaled.append(raw[-1] / slowdown.after())
    return mods, deck, statistics.median(raw), statistics.median(scaled)


def pass_metrics(passes, n):
    """The latency metrics of a run, from the sorted op times of each pass."""
    median = statistics.median
    return {
        "ops_per_s": (median(n / (sum(p) / 1e9) for p in passes), "1/s"),
        "op_p50_ms": (median(median(p) for p in passes) / 1e6, "ms"),
        "op_p90_ms": (median(quantile_ms(p, 0.9) for p in passes), "ms"),
    }


def end_to_end(workload, seed, seconds):
    """Whole passes of the deck for `seconds`, with the cold-start probes
    spread evenly over the run.

    On a shared machine, other tenants' load slows everything by up to
    half, and it changes from second to second.  Three measures keep runs
    comparable:

    - each op time and each set-up is divided by the slowdown around it
      (Slowdown), and the latency metrics come from the scaled times;
    - the latency metrics are medians over passes of per-pass values, so
      a minority of slow passes does not move them;
    - the cold start is scaled by the bare interpreter start it is paired
      with: the median of cold / bare times the nominal bare start.
    The raw values and the median slowdown are printed as well.
    """
    mods, deck, setup_raw, setup_s = setup(workload, seed)
    probe_argv, probe_check = decks.cold_start_argv(GOLDEN)
    probe = Probe([sys.executable, "-m", "mmpkit"] + probe_argv, probe_check)
    tally = Tally()
    slowdown = Slowdown()
    start = perf_counter()
    due = [start + seconds * (k + 0.5) / SUBPROCESS_PAIRS for k in range(SUBPROCESS_PAIRS)]
    raw_passes, passes = [], []
    while perf_counter() < start + seconds:
        raw_ns, scaled_ns = [], []
        for index in range(len(deck.ops)):
            raw_ns.append(tally.run(deck.ops, index))
            scaled_ns.append(raw_ns[-1] / slowdown.after())
            while due and perf_counter() >= due[0]:
                due.pop(0)
                probe.pair()
        raw_passes.append(sorted(raw_ns))
        passes.append(sorted(scaled_ns))
    for _ in due:
        probe.pair()
    tally.add_probes(SUBPROCESS_PAIRS, probe.failures)

    median = statistics.median
    n = len(deck.ops)
    raw = pass_metrics(raw_passes, n)
    raw["setup_s"] = (setup_raw, "s")
    raw["cold_start_ms"] = (median(probe.probe_ms), "ms")
    metrics = pass_metrics(passes, n)
    metrics.update(
        setup_s=(setup_s, "s"),
        peak_rss_mib=(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        cold_start_ms=(
            median(c / b for c, b in zip(probe.probe_ms, probe.bare_ms)) * BARE_NOMINAL_MS,
            "ms",
        ),
    )
    beyond = len(passes) * (n - ceil(n * 0.9))
    print(f"workload {workload}, seed {seed}: {len(passes)} passes of a {n}-op deck, one closed-loop client")
    print(
        f"  ops_per_s, op_p50_ms, op_p90_ms: median over {len(passes)} passes of the per-pass value;"
        f" {len(passes) * n} op samples, {beyond} beyond the per-pass p90s"
    )
    print(
        f"  fail_ratio = {tally.failed}/{tally.attempted} = {tally.failed / tally.attempted:.4f};"
        f" causes: {dict(sorted(tally.causes.items()))}"
    )
    print(
        f"  cold_start_ms: median of {len(probe.probe_ms)} fresh processes;"
        f" bare interpreter median {median(probe.bare_ms):.1f} ms"
    )
    print(f"  setup_s: median of {SETUP_REPEATS} set-ups")
    print(
        f"  machine slowdown: median {median(slowdown.samples):.4f} over {len(slowdown.samples)} ops,"
        f" from reference loops against {REFERENCE_NOMINAL_NS / 1e3:.0f} us nominal"
    )
    for line in tally.wrong[:20]:
        print(f"  wrong answer: {line}")
    for name, (value, unit) in metrics.items():
        note = f" (raw {raw[name][0]:.6g})" if name in raw else ""
        print(f"  {name} = {value:.6g} {unit}{note}")
    defects = run_defects(deck)
    return tally, metrics, defects.wrong


def traced(workload, seed, seconds):
    """Alternate untraced and traced whole passes; per-layer metrics and the self-check."""
    mods, deck, _, _ = setup(workload, seed)
    tally = Tally()
    tracer = Tracer(mods)
    passes = traced_ns = untraced_ns = 0
    deadline = perf_counter() + seconds
    while True:
        untraced_ns += run_pass(deck, tally)
        with tracer.installed():
            traced_ns += run_pass(deck, tally, tracer)
        passes += 1
        if perf_counter() >= deadline:
            break
    probe = Probe([sys.executable, "-c", "import mmpkit.cli"], lambda out: None)
    for _ in range(SUBPROCESS_PAIRS):
        probe.pair()
    tally.add_probes(SUBPROCESS_PAIRS, probe.failures)
    import_ms = statistics.median(probe.probe_ms) - statistics.median(probe.bare_ms)
    print(f"workload {workload}, seed {seed}: {passes} untraced + {passes} traced passes of {len(deck.ops)} ops")
    defects = run_defects(deck)
    values = tracer.metrics(passes, traced_ns, untraced_ns, import_ms, defects.causes)

    problems = [f"boundary never called on {workload}: {name}" for name in tracer.unexercised(workload)]
    problems += perturbation_problems(deck.ops, tally) + perturbation_problems(deck.defects, defects)
    verified = len(tally.verified) + len(defects.verified)
    print(f"  self-check: perturbed {verified} verified answers; {len(problems)} problems")
    for line in problems + [f"wrong answer: {w}" for w in tally.wrong[:20]]:
        print(f"  {line}")
    if tracer.missing:
        print(f"  not in this program, so not traced: {', '.join(tracer.missing)}")
    for line in baseline_rows(deck, tracer):
        print(f"  baseline: {line}")
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload}-seed{seed}.jsonl"
    with open(spans_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"ops": [op.label for op in deck.ops]}) + "\n")
        tracer.dump(fh)
    print(f"  {len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
    metrics = {name: (values[name], unit) for name, unit, _ in metric_specs()}
    return tally, metrics, problems + defects.wrong


def baseline_rows(deck, tracer):
    """The ROADMAP baseline timings, read from the traced spans."""
    rows = []
    labels = [op.label for op in deck.ops]
    wanted = [(f"A{n}", f"linalg.{fn}") for n in (10, 20, 40) for fn in ("solve_exact", "is_negative_definite")]
    wanted += [("enumerate r=5", "surface.enumerate_minus_one_classes")]
    for label, span_name in wanted:
        durations = [
            (end - start) / 1e6
            for name, start, end, parent, op in tracer.spans
            if name == span_name and (labels[op] == label or labels[op].startswith(label + " "))
        ]
        if durations:
            rows.append(f"{label} {span_name}: median {statistics.median(durations):.2f} ms of {len(durations)}")
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mmpkit" / "__init__.py").is_file() or not GOLDEN.is_dir():
        print(f"mmpkit sources or golden inputs not found under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.trace:
        tally, metrics, problems = traced(args.workload, args.seed, args.seconds)
    else:
        tally, metrics, problems = end_to_end(args.workload, args.seed, args.seconds)
    result = {
        "correct": not tally.wrong and not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
