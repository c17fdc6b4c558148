"""Mutation check of the rules that decide mmpkit's verdicts.

Each mutant below replaces one piece of text in one file of src/mmpkit with
a plausible mistake.  The script copies src/ and tests/ to a temporary
directory once, applies each mutant alone to that copy, and runs the test
files mapped to the mutated file with ``-x``: the mutant is killed when a
test fails (or the run times out), and survives when every test passes.
A mutant marked equivalent changes no behaviour, for the reason given, and
is expected to survive.

The script exits 1 when a mutant not marked equivalent survives, and 2 when
the table is stale (an old text not found exactly once) or the unmutated
copy fails its tests.  It needs only the standard library besides what the
suite needs (pytest, and sympy for the oracle tests), and pytest does not
collect it.  Run it from any directory:

    python tests/mutants.py

Reference: DeMillo, Lipton and Sayward, "Hints on Test Data Selection",
IEEE Computer 11(4), 1978.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent

# test files run against a mutant of each source file, fastest to fail first
TESTS = {
    "cli.py": ("test_cli.py",),
    "dualgraph.py": ("test_dualgraph.py",),
    "kodaira.py": ("test_kodaira.py", "test_input_types.py"),
    "linalg.py": ("test_linalg.py", "test_linalg_sympy.py", "test_dualgraph.py", "test_surface.py"),
    "serialize.py": ("test_cli.py",),
    "surface.py": ("test_surface.py",),
    "toric.py": ("test_toric.py", "test_input_types.py"),
}

TIMEOUT_S = 60


class Mutant(NamedTuple):
    file: str
    old: str
    new: str
    reason: str
    equivalent: bool = False


MUTANTS = (
    # dualgraph._classify: the discrepancy classes of a resolution graph
    Mutant("dualgraph.py", "if all(x > 0 for x in d):", "if all(x >= 0 for x in d):",
           "terminal admits a zero discrepancy"),
    Mutant("dualgraph.py", "if all(x > -1 for x in d) and", "if all(x >= -1 for x in d) and",
           "klt admits a discrepancy of -1"),
    Mutant("dualgraph.py", "and all(c <= 1 for c in touching):", "and all(c < 1 for c in touching):",
           "lc refuses a boundary coefficient of 1"),
    # dualgraph.discrepancies: the contractibility gate, the Du Val names, minimality
    Mutant("dualgraph.py", "if du_val is None and not check_contractible(graph):",
           "if du_val is None and boundary.components and not check_contractible(graph):",
           "a graph with no boundary skips the contractibility gate"),
    Mutant("dualgraph.py", "    if not linalg.is_negative_definite(graph.intersection_matrix()):\n        return None\n", "",
           "a (-2)-graph is named Du Val without its definiteness test"),
    Mutant("dualgraph.py", "{'E' if leaves == 1 else 'D'}", "{'E' if leaves <= 2 else 'D'}",
           "a fork with two leaf neighbours is named E, not D"),
    Mutant("dualgraph.py", "minimal_resolution=all(k >= 0 for k in k_deg)", "minimal_resolution=all(k > 0 for k in k_deg)",
           "a (-2)-curve makes the resolution not minimal"),
    Mutant("dualgraph.py",
           '    if not graph.is_connected():\n        raise DisconnectedError("exceptional locus of one point must be connected")\n',
           "", "a disconnected exceptional locus is not refused"),
    # toric.classify_cone
    Mutant("toric.py", "if q_factorial and abs(linalg.det_bareiss(cone.rays)) == 1:",
           "if q_factorial and linalg.det_bareiss(cone.rays) == 1:",
           "smoothness reads the sign of the determinant"),
    Mutant("toric.py", "elif len(points) == len(cone.rays):", "elif len(points) <= len(cone.rays) + 1:",
           "terminal admits one point besides the rays"),
    Mutant("toric.py", "elif all(sum(map(mul, rm, p)) == r for p in points):",
           "elif any(sum(map(mul, rm, p)) == r for p in points):",
           "canonical needs m = 1 at one point, not at all"),
    Mutant("toric.py", "elif all(sum(map(mul, rm, p)) == r for p in points):",
           "elif all(sum(map(mul, rm, p)) >= r for p in points):",
           "every listed point has m <= 1, so m >= 1 there is m = 1", equivalent=True),
    # toric.lattice_points_at_or_below_one: the interval of hits in a run
    Mutant("toric.py", "lo, hi = 0 if total else 1, min(r, (det - total) // grow + 1)",
           "lo, hi = 0 if total else 1, min(r, (det - total) // grow)",
           "a run stops one step before its last point with m <= 1"),
    Mutant("toric.py", "lo, hi = 0 if total else 1, min(r, (det - total) // grow + 1)",
           "lo, hi = 0, min(r, (det - total) // grow + 1)",
           "a run starting at the zero coset lists the origin"),
    Mutant("toric.py", "lo, hi = 0 if total else 1, min(r, (det - total) // grow + 1)",
           "lo, hi = 0 if total else 1, (det - total) // grow + 1",
           "a run continues past the step where a numerator wraps"),
    # kodaira.classify_pair_on_curve
    Mutant("kodaira.py", "if all(c == 0 for c in cs):", "if any(c == 0 for c in cs):",
           "one zero coefficient makes the pair canonical"),
    Mutant("kodaira.py", "if all(c < 1 for c in cs):\n        return PairClass.KLT",
           "if all(c <= 1 for c in cs):\n        return PairClass.KLT",
           "klt admits a coefficient of 1"),
    Mutant("kodaira.py", "if all(c <= 1 for c in cs):\n        return PairClass.LC",
           "if all(c < 2 for c in cs):\n        return PairClass.LC",
           "lc admits a coefficient above 1"),
    # kodaira._rounded_slope
    Mutant("kodaira.py", "return k + (gap > 0)", "return k + (gap < 0)",
           "a clear slope rounds the wrong way"),
    Mutant("kodaira.py", "return k + (lhs > rhs or (lhs == rhs and k % 2 == 1))",
           "return k + (lhs > rhs or (lhs == rhs and k % 2 == 0))",
           "an exact half rounds to odd"),
    Mutant("kodaira.py", "return k + (lhs > rhs or (lhs == rhs and k % 2 == 1))",
           "return k + (lhs >= rhs)",
           "an exact half always rounds up"),
    Mutant("kodaira.py", "k = max(1, int(s))", "k = int(s)",
           "a slope below 1 is not raised to 1"),
    # surface.run_classical_mmp: the outcome rules
    Mutant("surface.py", "f for f in cur.curves if cur.pair(f, f) == 0 and cur.pair(cur.K, f) < 0",
           "f for f in cur.curves if cur.pair(f, f) == 0 and cur.pair(cur.K, f) <= 0",
           "a fibre admits K.f = 0"),
    Mutant("surface.py", "if cur.rank > 2:\n            notes.append", "if cur.rank >= 2:\n            notes.append",
           "a rank-2 fibre is called uncertified"),
    Mutant("surface.py", "elif cur.rank == 1 and any(cur.pair(c, c) > 0 and cur.pair(cur.K, c) < 0 for c in known):",
           "elif cur.rank == 1 and any(cur.pair(cur.K, c) < 0 for c in cur.curves):",
           "a P2-like end needs no positive curve"),
    Mutant("surface.py", "elif all(cur.pair(cur.K, c) >= 0 for c in cur.curves):",
           "elif all(cur.pair(cur.K, c) > 0 for c in cur.curves):",
           "a minimal model needs K positive, not nef, on the curves"),
    Mutant("surface.py", "if not known:\n            notes.append", "if not cur.curves:\n            notes.append",
           "zero curve classes make the minimal-model verdict unconditional"),
    # surface._minus_one_functional
    Mutant("surface.py", "if cc != -1 or kc != -1:", "if cc != -1 and kc != -1:",
           "one right number lets a class through"),
    Mutant("surface.py", "if cc != -1 or kc != -1:", "if cc != -1:",
           "K.C is not checked"),
    # linalg._signature, read by inertia
    Mutant("linalg.py", "pos += (m[p][p] > 0) == (prev > 0)", "pos += m[p][p] > 0",
           "the sign of a pivot is read without the one before it"),
    Mutant("linalg.py", "pos += (m[p][p] > 0) == (prev > 0)", "pos += (m[p][p] > 0) != (prev < 0)",
           "a pivot is never 0, so prev < 0 is not prev > 0", equivalent=True),
    # is_negative_definite by Sylvester, and solve_exact's replay, on the kept factorization
    Mutant("linalg.py", "p == c == k and (m[p][c] > 0) == (k % 2 == 1)", "c == k and (m[p][c] > 0) == (k % 2 == 1)",
           "a pivot in column k off the diagonal is read as a leading minor"),
    Mutant("linalg.py", "p == c == k and (m[p][c] > 0) == (k % 2 == 1)", "p == c == k and m[p][c] < 0",
           "the leading minors must all be negative, not alternate"),
    Mutant("linalg.py", "        v[p] = v[p] * prev // at\n", "",
           "the replay skips the rescale of a pivot row skipped and later reached"),
    Mutant("linalg.py", "if min(minors) <= 0:", "if min(minors) < 0:",
           "a singular form passes as positive definite"),
    # the rules rewritten once: parse_fraction, cone_rays_rank2, the gcd of a
    # vector, the vector flags' loader, the sorted samples, the length check
    Mutant("serialize.py", "if isinstance(value, int) and not isinstance(value, bool):", "if isinstance(value, int):",
           "a bool is read as 0 or 1"),
    Mutant("surface.py", "if any((-x, -y) in found for x, y in found):", "if any((-x, y) in found for x, y in found):",
           "opposite directions are looked up as reflections"),
    Mutant("toric.py", "if gcd(*v) != 1:", "if gcd(v[0], v[-1]) != 1:",
           "a point's gcd skips its middle entries"),
    Mutant("cli.py", 'point = _load_json(args.point, "--point")', 'point = _load_json(args.point, "--input")',
           "bad --point JSON names the wrong flag"),
    Mutant("kodaira.py", "return sorted(samples)", "return list(samples)",
           "samples are used in the order given"),
    Mutant("linalg.py", "if supports and len(v) != supports.length:", "if supports and len(v) > supports.length:",
           "a short vector is read past its end"),
    Mutant("linalg.py", "if any(len(col) != supports.length for col in columns):",
           "if any(len(col) > supports.length for col in columns):",
           "a basis column shorter than the first is accepted"),
    # toric.lattice_points_at_or_below_one: its head, the one proof that a cone is valid
    Mutant("toric.py", "        facets(cone)  # raises for a line, then for a lower dimension\n", "",
           "a cone with a line is named not Q-Gorenstein"),
    Mutant("toric.py", "if q_gorenstein_functional(cone) is None:", "if q_gorenstein_functional(cone) is not None:",
           "the walk refuses every valid cone and walks the rest"),
    # toric.facets builds the complement only for rays that span less than the space,
    # and r m is read off the numerators of m
    Mutant("toric.py", "if linalg.matrix_rank(cone.rays) < cone.rank else ()",
           "if linalg.matrix_rank(cone.rays) > cone.rank else ()",
           "rays that span less than the space get no complement"),
    Mutant("toric.py", "return r, [x.numerator * (r // x.denominator) for x in m]",
           "return r, [x.denominator * (r // x.denominator) for x in m]",
           "r m is read off the denominators of m"),
    Mutant("toric.py", "return r, [x.numerator * (r // x.denominator) for x in m]",
           "return r, [x.numerator * r for x in m]",
           "r m is r times the numerators of m, unscaled by their denominators"),
    # toric_discrepancy's membership test and the walk's skip of a simplex
    Mutant("toric.py", "if any(linalg.dot(h, v) < 0 for h in facets(cone)):",
           "if any(linalg.dot(h, v) <= 0 for h in facets(cone)):",
           "a point on a facet is called outside the cone"),
    Mutant("toric.py", "if det <= 1:", "if det <= 2:",
           "a simplex with |det S| = 2 loses its points"),
    # cli.cmd_rr: a named document is surface mode, never ignored
    Mutant("cli.py", "surface_mode = doc is not None or args.divisor is not None",
           "surface_mode = args.divisor is not None",
           "curve mode answers a call that named a surface"),
)


def _limit_memory():
    # a mutant that loops while it allocates must fail, not take the machine's memory
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def _pytest(copy: Path, files) -> tuple[bool, float]:
    """(passed, seconds) of the test files run with -x in the copy."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *(f"tests/{f}" for f in files)]
    start = time.perf_counter()
    try:
        done = subprocess.run(
            argv, cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=TIMEOUT_S, preexec_fn=_limit_memory if os.name == "posix" else None,
        )
    except subprocess.TimeoutExpired:
        return False, time.perf_counter() - start
    return done.returncode == 0, time.perf_counter() - start


def main() -> int:
    sources = {name: (ROOT / "src" / "mmpkit" / name).read_text(encoding="utf-8") for name in TESTS}
    stale = [m for m in MUTANTS if sources[m.file].count(m.old) != 1]
    for m in stale:
        print(f"stale: {m.file}: {m.old!r} is found {sources[m.file].count(m.old)} times")
    if stale:
        return 2
    with tempfile.TemporaryDirectory(prefix="mmpkit-mutants-") as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
        shutil.copytree(ROOT / "src", copy / "src", ignore=ignore)
        shutil.copytree(ROOT / "tests", copy / "tests", ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", copy)
        every_file = sorted({f for files in TESTS.values() for f in files})
        passed, seconds = _pytest(copy, every_file)
        if not passed:
            print(f"the unmutated copy fails its tests ({seconds:.1f} s)")
            return 2
        survivors = []
        for m in MUTANTS:
            target = copy / "src" / "mmpkit" / m.file
            target.write_text(sources[m.file].replace(m.old, m.new), encoding="utf-8")
            try:
                survived, seconds = _pytest(copy, TESTS[m.file])
            finally:
                target.write_text(sources[m.file], encoding="utf-8")
            verdict = "survived" if survived else "killed"
            if survived and not m.equivalent:
                survivors.append(m)
            label = "equivalent, " if m.equivalent else ""
            print(f"{verdict:8} {seconds:5.1f} s  {m.file}: {m.reason} ({label}{m.new!r})")
    equivalent = sum(m.equivalent for m in MUTANTS)
    print(f"{len(MUTANTS)} mutants, {equivalent} equivalent; {len(survivors)} others survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
