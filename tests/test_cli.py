import dataclasses
import hashlib
import io
import json
import random
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from helpers import fraction_to_str, reference_fraction
from mmpkit.cli import COMMANDS, build_parser, emit, main
from mmpkit.serialize import canonical_json, parse_fraction, plain

GOLDEN = Path(__file__).parent / "golden"

# every golden invocation the determinism suite replays
GOLDEN_RUNS = [
    ["toric-classify", "--input", str(GOLDEN / "cone_a3.json")],
    ["toric-classify", "--input", str(GOLDEN / "cone_a2.json")],
    ["toric-classify", "--input", str(GOLDEN / "cone_smooth.json")],
    ["toric-classify", "--input", str(GOLDEN / "cone_odp.json")],
    ["toric-classify", "--input", str(GOLDEN / "cone_not_qgor.json")],
    ["toric-discrepancy", "--input", str(GOLDEN / "cone_a3.json"), "--point", "[1,0]"],
    ["toric-discrepancy", "--input", str(GOLDEN / "cone_odp.json"), "--point", "[1,1,2]"],
    ["graph-discrepancies", "--input", str(GOLDEN / "graph_a2.json")],
    ["graph-discrepancies", "--input", str(GOLDEN / "graph_d5.json")],
    ["graph-discrepancies", "--input", str(GOLDEN / "graph_genus1.json")],
    ["graph-discrepancies", "--input", str(GOLDEN / "graph_boundary.json")],
    ["graph-blowup", "--input", str(GOLDEN / "graph_a2.json"), "--edge", "0", "1"],
    ["graph-blowup", "--input", str(GOLDEN / "graph_boundary.json"), "--vertex", "0", "--boundary", "0"],
    ["mmp-run", "--input", str(GOLDEN / "surface_bl2.json")],
    ["mmp-run", "--input", str(GOLDEN / "surface_quadric.json")],
    ["delpezzo-lines", "--r", "3"],
    ["delpezzo-lines", "--r", "6"],
    ["cone-rays", "--input", str(GOLDEN / "surface_quadric.json")],
    ["cone-rays", "--input", str(GOLDEN / "surface_bl1_rays.json")],
    ["nef-check", "--input", str(GOLDEN / "surface_quadric.json"), "--divisor", "[1,1]"],
    ["nef-check", "--input", str(GOLDEN / "surface_quadric.json"), "--divisor", "[1,0]"],
    ["rr", "--deg", "1", "--genus", "0"],
    ["rr", "--input", str(GOLDEN / "surface_bl2.json"), "--divisor", "[1,0,0]", "--chi0", "1"],
    ["kappa-estimate", "--input", str(GOLDEN / "samples_g2.json")],
    ["kappa-estimate", "--input", str(GOLDEN / "samples_zero.json")],
    ["pair-classify", "--input", str(GOLDEN / "pair_klt.json")],
    ["delpezzo-lines", "--r", "8"],
    ["delpezzo-lines", "--input", str(GOLDEN / "surface_disguised5.json")],
    ["mmp-run", "--input", str(GOLDEN / "surface_disguised5.json")],
]


def run_cli(argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


def run_machine(argv):
    code, out = run_cli(argv + ["--format", "machine"])
    return code, out


class TestSerialize:
    def test_fraction_roundtrip(self):
        for text in ["0", "7", "-3", "2/3", "-1/3", "22/7"]:
            assert plain(parse_fraction(text)) == text

    def test_reduction(self):
        assert plain(parse_fraction("4/6")) == "2/3"

    def test_fraction_to_str_renders_each_input_type(self):
        # the reference renders a Fraction as it is, any other input as
        # Fraction(value); plain renders every Fraction the same way
        cases = [
            (Fraction(3, 4), "3/4"),
            (Fraction(10, -4), "-5/2"),
            (Fraction(-7), "-7"),
            (Fraction(0), "0"),
            (Fraction(0, 5), "0"),
            (0, "0"),
            (-12, "-12"),
            (True, "1"),
            (False, "0"),
        ]
        for value, text in cases:
            assert fraction_to_str(value) == text, value
            if isinstance(value, Fraction):
                assert plain(value) == text, value

    def test_rejects_garbage(self):
        for bad in ["1.5", "a", "1/0", "", "1/-2", True, None, [1], "1/2\n", "\u0663/\u0664", "\uff13", "1_0", " 1"]:
            with pytest.raises(ValueError):
                parse_fraction(bad)

    def test_parse_fraction_matches_its_oracle(self):
        # every string of at most 4 characters over the grammar's alphabet and a space
        texts = ["".join(t) for n in range(5) for t in product("+-0123456789/ ", repeat=n)]
        seen = Counter()
        for value in texts + [True, 1.5, None, [], 10**30]:
            outcomes = []
            for parse in (parse_fraction, reference_fraction):
                try:
                    got = parse(value)
                    outcomes.append((type(got), got))
                except ValueError as exc:
                    outcomes.append((ValueError, str(exc)))
            assert outcomes[0] == outcomes[1], value
            kind, got = outcomes[0]
            seen[got.partition(":")[0] if kind is ValueError else "value"] += 1
        assert len(texts) == 41371
        assert seen["value"] > 15000 and seen["zero denominator"] > 100 and seen["not a rational"] > 25000


class Colour(Enum):
    RED = "Red"


@dataclass(frozen=True)
class Point:
    x: int


class TestRenderingRule:
    """serialize owns the one rule: a Fraction is its "p/q" string, an Enum
    its value, a dataclass record the object of its fields, a tuple a list;
    any other object JSON lacks is a TypeError."""

    def test_library_values_at_any_depth(self):
        report = {
            "b": (Fraction(-2, 4), Fraction(6, 2), Colour.RED),
            "a": {"nested": [(Fraction(1, 3), (0, -1))], "class": Colour.RED},
            "n": None,
        }
        assert canonical_json(report) == (
            '{"a":{"class":"Red","nested":[["1/3",[0,-1]]]},"b":["-1/2","3","Red"],"n":null}'
        )

    def test_a_record_is_the_object_of_its_fields_at_any_depth(self):
        report = {"p": Point(Fraction(1, 2)), "ps": (Point(Colour.RED), Point((Point(0),)))}
        assert canonical_json(report) == '{"p":{"x":"1/2"},"ps":[{"x":"Red"},{"x":[{"x":0}]}]}'
        leaf = (10**30, -1)
        assert plain(Point(leaf))["x"] is leaf  # the encoder walks the record; nothing is copied

    @pytest.mark.parametrize("value", [{1, 2}, Point], ids=["set", "dataclass type"])
    def test_other_objects_are_a_type_error(self, value):
        with pytest.raises(TypeError):
            canonical_json({"value": value})
        with pytest.raises(TypeError):
            canonical_json([value])

    def test_text_prints_a_top_level_fraction_or_enum_bare(self):
        report = {"d": Fraction(-1, 3), "chi": Fraction(3), "class": Colour.RED, "s": "x", "v": (Fraction(1, 2),)}
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            emit(report, "text")
        assert buffer.getvalue() == 'd: -1/3\nchi: 3\nclass: Red\ns: x\nv: ["1/2"]\n'
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            emit(report, "machine")
        assert buffer.getvalue() == '{"chi":"3","class":"Red","d":"-1/3","s":"x","v":["1/2"]}\n'


def reference_json(obj) -> str:
    """canonical_json by the rule as written: fraction_to_str for every
    Fraction, dataclasses.fields read afresh for every record."""

    def default(value):
        if isinstance(value, Fraction):
            return fraction_to_str(value)
        if isinstance(value, Enum):
            return value.value
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            return {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
        raise TypeError(type(value).__name__)

    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=default)


class Loud(Fraction):
    """A Fraction subclass whose str is not its "p/q" form."""

    def __str__(self):
        return "loud"


class TestRendererMatchesTheRule:
    """canonical_json's fast paths write what the rule as written does."""

    def test_seeded_fractions(self):
        rng = random.Random(20261019)
        values = [Fraction(0), Fraction(-7), Fraction(12, 4), Fraction(-1, 3)]
        for _ in range(200):
            num = rng.getrandbits(rng.choice((3, 64, 5000))) * rng.choice((1, -1))
            den = rng.choice((1, 1, rng.getrandbits(rng.choice((3, 64, 5000))) + 1))
            values.append(Fraction(num, den))
        assert {v.denominator == 1 for v in values} == {True, False}
        assert any(v < 0 for v in values) and max(abs(v.numerator) for v in values).bit_length() > 4990
        for value in values:
            assert canonical_json([value, {"v": (value,)}]) == reference_json([value, {"v": (value,)}])

    def test_a_fraction_subclass_keeps_its_p_q_form(self):
        report = {"a": Loud(-6, 4), "b": [Loud(3)]}
        assert canonical_json(report) == reference_json(report) == '{"a":"-3/2","b":["3"]}'

    def test_every_record_and_enum_a_report_holds(self):
        from mmpkit import dualgraph, surface, toric

        trace = surface.run_classical_mmp(surface.SurfaceLattice(**json.loads((GOLDEN / "surface_bl2.json").read_text())))
        assert trace.steps
        graph = dualgraph.DualGraph(
            vertices=(dualgraph.Vertex(genus=0, self_int=-2), dualgraph.Vertex(genus=1, self_int=-3)),
            edges=((0, 1, 1),),
        )
        component = dualgraph.BoundaryComponent(coeff=Fraction(1, 2), meets=((0, 1),))
        values = [trace, trace.steps, trace.final, graph, graph.vertices, component, list(toric.ConeClass)]
        values += [list(surface.MmpOutcome), {"graph": {**plain(graph), "boundary": (component,)}}]
        for value in values:
            assert canonical_json(value) == reference_json(value)
        # all of them in one report, each record class's field names cached by now
        assert canonical_json(values) == reference_json(values)


class TestSubcommandResults:
    def test_toric_classify_klt(self):
        code, out = run_machine(["toric-classify", "--input", str(GOLDEN / "cone_a3.json")])
        assert code == 0
        doc = json.loads(out)
        assert doc["class"] == "KltOnly"
        assert doc["gorenstein_index"] == 3
        assert doc["q_factorial"] is True
        assert {"point": [1, 0], "discrepancy": "-1/3"} in doc["points"]

    def test_toric_classify_odp(self):
        code, out = run_machine(["toric-classify", "--input", str(GOLDEN / "cone_odp.json")])
        doc = json.loads(out)
        assert doc["class"] == "Terminal"
        assert doc["q_factorial"] is False

    def test_toric_classify_not_qgorenstein(self):
        code, out = run_machine(["toric-classify", "--input", str(GOLDEN / "cone_not_qgor.json")])
        doc = json.loads(out)
        assert doc["class"] == "NotQGorenstein"
        assert doc["support_functional"] is None

    def test_toric_discrepancy(self):
        code, out = run_machine(
            ["toric-discrepancy", "--input", str(GOLDEN / "cone_a3.json"), "--point", "[1,0]"]
        )
        assert json.loads(out)["discrepancy"] == "-1/3"

    def test_graph_discrepancies_a2(self):
        code, out = run_machine(["graph-discrepancies", "--input", str(GOLDEN / "graph_a2.json")])
        doc = json.loads(out)
        assert doc["discrepancies"] == ["0", "0"]
        assert doc["class"] == "Canonical"
        assert doc["du_val"] == "A2"

    def test_graph_discrepancies_boundary(self):
        code, out = run_machine(
            ["graph-discrepancies", "--input", str(GOLDEN / "graph_boundary.json")]
        )
        doc = json.loads(out)
        assert doc["discrepancies"] == ["-1/4"]
        assert doc["class"] == "Klt"

    def test_graph_blowup_roundtrips_into_solver(self):
        code, out = run_machine(
            ["graph-blowup", "--input", str(GOLDEN / "graph_a2.json"), "--edge", "0", "1"]
        )
        doc = json.loads(out)
        assert [v["self_int"] for v in doc["graph"]["vertices"]] == [-3, -3, -1]
        code2, out2 = run_machine(
            ["graph-discrepancies", "--inline", json.dumps(doc["graph"])]
        )
        assert code2 == 0
        assert json.loads(out2)["discrepancies"] == ["0", "0", "1"]

    def test_mmp_run_bl2(self):
        code, out = run_machine(["mmp-run", "--input", str(GOLDEN / "surface_bl2.json")])
        doc = json.loads(out)
        assert doc["outcome"]["kind"] == "MoriFibreP2like"
        assert len(doc["steps"]) == 2
        assert doc["final"]["K"] == [-3]

    def test_mmp_run_quadric(self):
        code, out = run_machine(["mmp-run", "--input", str(GOLDEN / "surface_quadric.json")])
        doc = json.loads(out)
        assert doc["outcome"] == {"kind": "MoriFibreRuled", "fibre": [1, 0]}
        assert doc["steps"] == []

    def test_delpezzo_lines_27(self):
        code, out = run_machine(["delpezzo-lines", "--r", "6"])
        doc = json.loads(out)
        assert doc["count"] == 27
        assert len(doc["classes"]) == 27

    def test_cone_rays(self):
        code, out = run_machine(["cone-rays", "--input", str(GOLDEN / "surface_quadric.json")])
        assert json.loads(out)["rays"] == [[0, 1], [1, 0]]

    def test_cone_rays_skip_a_zero_class(self):
        # a zero class spans nothing; it once ended in zero_vector, exit 3
        code, out = run_machine(_surface("cone-rays", curves=[[0, 0], [1, 0], [0, 1]]))
        assert (code, json.loads(out)["rays"]) == (0, [[0, 1], [1, 0]])

    def test_nef_check(self):
        code, out = run_machine(
            ["nef-check", "--input", str(GOLDEN / "surface_quadric.json"), "--divisor", "[1,0]"]
        )
        doc = json.loads(out)
        assert doc["nef"] is True and doc["ample"] is False

    def test_rr_curve(self):
        code, out = run_machine(["rr", "--deg", "1", "--genus", "0"])
        assert json.loads(out)["chi"] == "2"

    def test_rr_surface(self):
        code, out = run_machine(
            ["rr", "--input", str(GOLDEN / "surface_bl2.json"), "--divisor", "[1,0,0]", "--chi0", "1"]
        )
        doc = json.loads(out)
        assert doc["chi"] == "3" and doc["integral"] is True

    def test_kappa_estimate(self):
        code, out = run_machine(["kappa-estimate", "--input", str(GOLDEN / "samples_g2.json")])
        assert json.loads(out)["kappa"] == 1
        code, out = run_machine(["kappa-estimate", "--input", str(GOLDEN / "samples_zero.json")])
        assert json.loads(out)["kappa"] == "-inf"

    def test_pair_classify(self):
        code, out = run_machine(["pair-classify", "--input", str(GOLDEN / "pair_klt.json")])
        doc = json.loads(out)
        assert doc["class"] == "Klt"
        assert doc["fano_on_p1"] is True
        # the Fano check is for coefficients in [0, 1]; out of it the report holds null
        for coeffs, cls, fano in ((["3/2"], "NotLc", None), (["1", "1"], "Lc", False)):
            code, out = run_machine(["pair-classify", "--inline", json.dumps({"coeffs": coeffs})])
            assert code == 0
            doc = json.loads(out)
            assert (doc["class"], doc["fano_on_p1"]) == (cls, fano), coeffs


class TestValidationErrors:
    def test_non_primitive_ray(self):
        code, out = run_machine(
            ["toric-classify", "--inline", '{"rank":2,"rays":[[0,2],[3,-1]]}']
        )
        assert code == 2
        err = json.loads(out)["error"]
        assert err["code"] == "ray_not_primitive"
        assert err["field"] == "rays[0]"

    def test_coefficient_out_of_range(self):
        doc = '{"vertices":[{"genus":0,"self_int":-2}],"edges":[],"boundary":[{"coeff":"3/2","meets":[[0,1]]}]}'
        code, out = run_machine(["graph-discrepancies", "--inline", doc])
        assert code == 2
        err = json.loads(out)["error"]
        assert err["code"] == "coeff_out_of_range"
        assert err["field"] == "boundary[0].coeff"

    def test_asymmetric_gram(self):
        doc = '{"rank":2,"gram":[[0,1],[2,0]],"K":[0,0],"curves":[],"label":""}'
        code, out = run_machine(["nef-check", "--inline", doc, "--divisor", "[1,0]"])
        assert code == 2
        assert json.loads(out)["error"]["code"] == "gram_not_symmetric"

    def test_bad_json(self):
        code, out = run_machine(["toric-classify", "--inline", "{not json"])
        assert code == 2
        assert json.loads(out)["error"]["code"] == "bad_json"

    def test_missing_field(self):
        code, out = run_machine(["toric-classify", "--inline", '{"rays":[[1,0]]}'])
        assert code == 2
        assert json.loads(out)["error"]["code"] == "missing_field"

    def test_edge_loop(self):
        doc = '{"vertices":[{"genus":0,"self_int":-2}],"edges":[[0,0,1]]}'
        code, out = run_machine(["graph-discrepancies", "--inline", doc])
        assert code == 2
        assert json.loads(out)["error"]["code"] == "edge_loop"

    def test_curve_parity(self):
        doc = '{"rank":1,"gram":[[1]],"K":[0],"curves":[[1]],"label":""}'
        code, out = run_machine(["nef-check", "--inline", doc, "--divisor", "[1]"])
        assert code == 2
        assert json.loads(out)["error"]["code"] == "curve_parity"


class TestPreconditionErrors:
    def test_not_contractible(self):
        doc = '{"vertices":[{"genus":0,"self_int":0}],"edges":[]}'
        code, out = run_machine(["graph-discrepancies", "--inline", doc])
        assert code == 3
        assert json.loads(out)["error"]["code"] == "not_contractible"

    def test_not_strongly_convex(self):
        code, out = run_machine(
            ["toric-classify", "--inline", '{"rank":2,"rays":[[1,0],[-1,0]]}']
        )
        assert code == 3
        assert json.loads(out)["error"]["code"] == "not_strongly_convex"

    def test_unbounded_search(self):
        code, out = run_machine(["delpezzo-lines", "--r", "9"])
        assert code == 3
        assert json.loads(out)["error"]["code"] == "unbounded_search"

    def test_invalid_site(self):
        code, out = run_machine(
            ["graph-blowup", "--input", str(GOLDEN / "graph_a2.json"), "--vertex", "7"]
        )
        assert code == 3
        assert json.loads(out)["error"]["code"] == "invalid_site"


class TestDeterminismAndRoundTrip:
    def test_machine_reports_match_pinned_bytes(self):
        # tests/golden/machine/NN-<subcommand>.out holds the exact stdout
        # of GOLDEN_RUNS[NN], so a refactor that changes a report fails here
        for i, argv in enumerate(GOLDEN_RUNS):
            expected = (GOLDEN / "machine" / f"{i:02d}-{argv[0]}.out").read_bytes()
            code, out = run_machine(list(argv))
            assert code == 0, argv
            assert out.encode("utf-8") == expected, argv

    def test_large_toric_report_matches_pinned_digest(self, tmp_path):
        # the 2002 points of (0,1),(4000,-1), each with its discrepancy, in 88149 bytes
        cone = tmp_path / "cone.json"
        cone.write_text(json.dumps({"rank": 2, "rays": [[0, 1], [4000, -1]]}))
        code, out = run_machine(["toric-classify", "--input", str(cone)])
        assert code == 0
        report = out.encode("utf-8")
        assert len(report) == 88149
        assert hashlib.sha256(report).hexdigest() == "55cea8b563d5dd06be3d9336c65ba4d9aa3d768b62293b86125978703e5affb5"

    def test_byte_identical_reruns(self):
        for argv in GOLDEN_RUNS:
            code1, out1 = run_machine(list(argv))
            code2, out2 = run_machine(list(argv))
            assert code1 == code2 == 0, argv
            assert out1 == out2, argv

    def test_machine_reports_roundtrip(self):
        for argv in GOLDEN_RUNS:
            _, out = run_machine(list(argv))
            assert canonical_json(json.loads(out)) + "\n" == out, argv

    def test_no_floats_anywhere(self):
        def walk(node):
            assert not isinstance(node, float), node
            if isinstance(node, dict):
                for key, value in node.items():
                    walk(key)
                    walk(value)
            elif isinstance(node, list):
                for item in node:
                    walk(item)

        for argv in GOLDEN_RUNS:
            _, out = run_machine(list(argv))
            walk(json.loads(out))


class TestTextMode:
    def test_text_mode_runs(self):
        code, out = run_cli(["graph-discrepancies", "--input", str(GOLDEN / "graph_a2.json")])
        assert code == 0
        assert "Canonical" in out

    def test_text_shows_every_report_field(self):
        # one "key: value" line per top-level field of the machine report,
        # so caveats such as notes and warnings are never dropped
        for argv in GOLDEN_RUNS:
            code, text = run_cli(list(argv))
            report = json.loads(run_machine(list(argv))[1])
            lines = dict(line.split(": ", 1) for line in text.splitlines())
            assert code == 0 and sorted(lines) == sorted(report), argv
            assert all(json.loads(v) == report[k] for k, v in lines.items() if not isinstance(report[k], str))
        _, text = run_cli(["mmp-run", "--input", str(GOLDEN / "surface_bl2.json")])
        assert 'notes: ["verdict relative to the supplied curve classes"]' in text.splitlines()

    def test_text_reports_match_pinned_bytes(self):
        # tests/golden/text/NN-<subcommand>.out holds the exact --format text
        # stdout of GOLDEN_RUNS[NN], line order included
        for i, argv in enumerate(GOLDEN_RUNS):
            expected = (GOLDEN / "text" / f"{i:02d}-{argv[0]}.out").read_bytes()
            code, out = run_cli(list(argv))
            assert code == 0, argv
            assert out.encode("utf-8") == expected, argv

    def test_text_error(self):
        code, out = run_cli(["delpezzo-lines", "--r", "9"])
        assert code == 3
        assert "unbounded_search" in out


class TestFlagFallbacks:
    def test_delpezzo_r9_with_bound(self):
        code, out = run_machine(["delpezzo-lines", "--r", "9", "--bound", "1"])
        assert code == 0
        doc = json.loads(out)
        assert [0] * 9 + [1] in doc["classes"]

    def test_delpezzo_surface_input(self):
        code, out = run_machine(
            ["delpezzo-lines", "--input", str(GOLDEN / "surface_quadric.json")]
        )
        assert code == 0
        assert json.loads(out)["count"] == 0

    def test_mmp_run_with_bound(self):
        code, out = run_machine(
            ["mmp-run", "--input", str(GOLDEN / "surface_bl2.json"), "--bound", "3"]
        )
        assert code == 0
        assert json.loads(out)["outcome"]["kind"] == "MoriFibreP2like"

    def test_rr_needs_exactly_one_mode(self):
        code, out = run_machine(["rr"])
        assert code == 2
        code, out = run_machine(["rr", "--deg", "1", "--genus", "0", "--chi0", "1"])
        assert code == 2

    def test_point_length_validated(self):
        code, out = run_machine(
            ["toric-discrepancy", "--input", str(GOLDEN / "cone_a3.json"), "--point", "[1,0,0]"]
        )
        assert code == 2
        assert json.loads(out)["error"]["code"] == "point_length"


class TestSubprocessEntry:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "mmpkit", "rr", "--deg", "0", "--genus", "0", "--format", "machine"],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["chi"] == "1"


LAYERS = {"linalg", "toric", "dualgraph", "surface", "kodaira"}

# runs cli.main on its arguments in a fresh interpreter, then prints the exit
# code, what main wrote and the mmpkit modules that were loaded
FRESH_MAIN = """
import contextlib, io, json, sys
from mmpkit import cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    try:
        code = cli.main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
loaded = sorted(n.split(".")[1] for n in sys.modules if n.startswith("mmpkit."))
print(json.dumps({"code": code, "out": out.getvalue(), "loaded": loaded}))
"""


def fresh_main(argv):
    proc = subprocess.run(
        [sys.executable, "-c", FRESH_MAIN, *argv],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    return result["code"], result["out"], set(result["loaded"]) & LAYERS


# a golden run of each command, rr in both modes, and the one layer it calls
LAYER_RUNS = [
    (GOLDEN_RUNS[0], "toric"),
    (GOLDEN_RUNS[5], "toric"),
    (GOLDEN_RUNS[7], "dualgraph"),
    (GOLDEN_RUNS[11], "dualgraph"),
    (GOLDEN_RUNS[13], "surface"),
    (GOLDEN_RUNS[15], "surface"),
    (GOLDEN_RUNS[17], "surface"),
    (GOLDEN_RUNS[19], "surface"),
    (GOLDEN_RUNS[21], "kodaira"),
    (GOLDEN_RUNS[22], "surface"),
    (GOLDEN_RUNS[23], "kodaira"),
    (GOLDEN_RUNS[25], "kodaira"),
]


class TestLazyImports:
    """A subcommand in a fresh process imports its own layer and what that
    layer uses, and no other."""

    def test_toric_classify_loads_only_toric(self):
        argv = GOLDEN_RUNS[0] + ["--format", "machine"]
        code, out, layers = fresh_main(argv)
        assert (code, out) == (0, (GOLDEN / "machine" / "00-toric-classify.out").read_text("utf-8"))
        assert layers == {"toric", "linalg"}

    @pytest.mark.parametrize(("argv", "layer"), LAYER_RUNS, ids=[" ".join(argv[:2]) for argv, _ in LAYER_RUNS])
    def test_each_command_loads_its_layer_and_linalg(self, argv, layer):
        code, out, layers = fresh_main(argv)
        assert (code, out) == run_cli(argv)
        assert layers == {layer, "linalg"}

    def test_every_command_is_pinned(self):
        assert {argv[0] for argv, _ in LAYER_RUNS} == set(COMMANDS)
        assert [argv[1] for argv, _ in LAYER_RUNS if argv[0] == "rr"] == ["--deg", "--input"]

    def test_help_loads_no_layer_and_lists_every_command(self):
        code, out, layers = fresh_main(["--help"])
        assert (code, layers) == (0, set())
        text = " ".join(out.split())  # argparse may wrap a long name onto its own line
        for name, row in COMMANDS.items():
            assert f"{name} {row.help}" in text, name


# -- the error contract ----------------------------------------------------------

CONE = {"rank": 2, "rays": [[0, 1], [3, -1]]}
VERTEX = {"genus": 0, "self_int": -2}
QUADRIC = {"rank": 2, "gram": [[0, 1], [1, 0]], "K": [-2, -2], "curves": [[1, 0], [0, 1]], "label": "q"}
DEEP = "[" * 100000
#: an integer of 4301 digits, one over Python's default int-to-decimal limit
HUGE = "1" * 4301


def _doc(base=None, **changes):
    """An inline document: base with keys replaced (None drops a key)."""
    doc = dict(base or {})
    for key, value in changes.items():
        if value is None:
            doc.pop(key, None)
        else:
            doc[key] = value
    return json.dumps(doc)


def _cone(**changes):
    return ["toric-classify", "--inline", _doc(CONE, **changes)]


def _graph(command="graph-discrepancies", *flags, **changes):
    doc = _doc({"vertices": [VERTEX, VERTEX], "edges": [[0, 1, 1]]}, **changes)
    return [command, "--inline", doc] + list(flags)


def _boundary(component):
    return _graph(boundary=[component])


def _surface(command="mmp-run", *flags, **changes):
    return [command, "--inline", _doc(QUADRIC, **changes)] + list(flags)


def _samples(**changes):
    return ["kappa-estimate", "--inline", _doc({"samples": [[1, 2], [2, 5]]}, **changes)]


# (argv, exit code, error code, field); one fault per document, since with
# several the one reported first is not part of the contract
ERROR_CONTRACT = [
    # JSON shape
    (["toric-classify", "--inline", "[1]"], 2, "not_object", "--inline"),
    (_cone(rank=None), 2, "missing_field", "rank"),
    (_cone(rank="2"), 2, "wrong_type", "rank"),
    (_cone(rank=True), 2, "wrong_type", "rank"),
    (_cone(rank=2.0), 2, "wrong_type", "rank"),
    (["toric-classify", "--inline", "{not json"], 2, "bad_json", "--inline"),
    (["toric-classify", "--inline", DEEP], 2, "bad_json", "--inline"),
    (["toric-classify", "--input", str(GOLDEN / "no_such_file.json")], 2, "unreadable_input", "--input"),
    (["toric-classify"], 2, "missing_input", "--input"),
    # cones
    (_cone(rank=0), 2, "rank_out_of_range", "rank"),
    (_cone(rays=5), 2, "wrong_type", "rays"),
    (_cone(rays=[]), 2, "wrong_type", "rays"),
    (_cone(rays=[5, [3, -1]]), 2, "wrong_type", "rays[0]"),
    (_cone(rays=[[0, "1"], [3, -1]]), 2, "wrong_type", "rays[0][1]"),
    (_cone(rays=[[0, 1], [3, -1, 0]]), 2, "rank_mismatch", "rays[1]"),
    (_cone(rays=[[0, 0], [3, -1]]), 2, "ray_zero", "rays[0]"),
    (_cone(rays=[[0, 2], [3, -1]]), 2, "ray_not_primitive", "rays[0]"),
    (_cone(rays=[[0, 1], [0, 1]]), 2, "duplicate_ray", "rays"),
    # dual graphs
    (_graph(vertices=None), 2, "missing_field", "vertices"),
    (_graph(vertices=5), 2, "wrong_type", "vertices"),
    (_graph(vertices=[], edges=[]), 2, "wrong_type", "vertices"),
    (_graph(vertices=[5, VERTEX]), 2, "not_object", "vertices[0]"),
    (_graph(vertices=[VERTEX, {"genus": 0}]), 2, "missing_field", "vertices[1].self_int"),
    (_graph(vertices=[VERTEX, {"genus": "0", "self_int": -2}]), 2, "wrong_type", "vertices[1].genus"),
    (_graph(vertices=[VERTEX, {"genus": -1, "self_int": -2}]), 2, "genus_negative", "vertices[1].genus"),
    (_graph(edges=5), 2, "wrong_type", "edges"),
    (_graph(edges=[[0, "1", 1]]), 2, "wrong_type", "edges[0][1]"),
    (_graph(edges=[[0, 1]]), 2, "edge_malformed", "edges[0]"),
    (_graph(edges=[[0, 2, 1]]), 2, "edge_bad_index", "edges[0]"),
    (_graph(edges=[[0, 1, 1], [1, 1, 1]]), 2, "edge_loop", "edges[1]"),
    (_graph(edges=[[0, 1, 0]]), 2, "edge_bad_mult", "edges[0]"),
    (_graph("graph-blowup", "--vertex", "0", edges=[[0, 0, 1]]), 2, "edge_loop", "edges[0]"),
    (_graph(boundary=5), 2, "wrong_type", "boundary"),
    (_boundary(5), 2, "not_object", "boundary[0]"),
    (_boundary({"meets": [[0, 1]]}), 2, "missing_field", "boundary[0].coeff"),
    (_boundary({"coeff": "1/0"}), 2, "coeff_bad", "boundary[0].coeff"),
    (_boundary({"coeff": 0.5}), 2, "coeff_bad", "boundary[0].coeff"),
    (_boundary({"coeff": "3/2", "meets": [[0, 1]]}), 2, "coeff_out_of_range", "boundary[0].coeff"),
    (_boundary({"coeff": "-1/2", "meets": [[0, 1]]}), 2, "coeff_out_of_range", "boundary[0].coeff"),
    (_boundary({"coeff": "1/2", "meets": 5}), 2, "wrong_type", "boundary[0].meets"),
    (_boundary({"coeff": "1/2", "meets": [5]}), 2, "wrong_type", "boundary[0].meets[0]"),
    (_boundary({"coeff": "1/2", "meets": [[0, 1, 1]]}), 2, "meets_malformed", "boundary[0].meets[0]"),
    (_boundary({"coeff": "1/2", "meets": [[0, 1], [2, 1]]}), 2, "meets_bad_index", "boundary[0].meets[1]"),
    (_boundary({"coeff": "1/2", "meets": [[-1, 1]]}), 2, "meets_bad_index", "boundary[0].meets[0]"),
    (_boundary({"coeff": "1/2", "meets": [[0, 0]]}), 2, "meets_bad_mult", "boundary[0].meets[0]"),
    # surface lattices
    (_surface(rank=0), 2, "rank_out_of_range", "rank"),
    (_surface(gram=5), 2, "wrong_type", "gram"),
    (_surface(gram=[[0, 1]]), 2, "gram_not_square", "gram"),
    (_surface(gram=[[0, 1], [1]]), 2, "gram_not_square", "gram[1]"),
    (_surface(gram=[[0, 1], 5]), 2, "wrong_type", "gram[1]"),
    (_surface(gram=[[0, 1], [1, False]]), 2, "wrong_type", "gram[1][1]"),
    (_surface(gram=[[0, 1], [2, 0]]), 2, "gram_not_symmetric", "gram[0][1]"),
    (_surface(K=None), 2, "missing_field", "K"),
    (_surface(K=[-2]), 2, "k_length", "K"),
    (_surface(curves=5), 2, "wrong_type", "curves"),
    (_surface(curves=[[1, 0], [0, 1, 0]]), 2, "curve_length", "curves[1]"),
    (_surface(label=5), 2, "wrong_type", "label"),
    (_surface("nef-check", "--divisor", "[1]", rank=1, gram=[[1]], K=[0], curves=[[1]]), 2, "curve_parity", "curves"),
    # plurigenus samples and pair coefficients
    (_samples(samples=5), 2, "wrong_type", "samples"),
    (_samples(samples=[]), 2, "samples_empty", "samples"),
    (_samples(samples=[[1, 2], 5]), 2, "wrong_type", "samples[1]"),
    (_samples(samples=[[1, 2], [2]]), 2, "sample_malformed", "samples[1]"),
    (_samples(samples=[[0, 2], [2, 5]]), 2, "sample_bad_m", "samples[0]"),
    (_samples(samples=[[1, 2], [2, -5]]), 2, "sample_bad_p", "samples[1]"),
    (_samples(samples=[[1, 2], [1, 3]]), 2, "sample_duplicate_m", "samples[1]"),
    (_samples(max_dim="1"), 2, "wrong_type", "max_dim"),
    (_samples(max_dim=-1), 2, "max_dim_bad", "max_dim"),
    (["pair-classify", "--inline", '{"coeffs":5}'], 2, "wrong_type", "coeffs"),
    (["pair-classify", "--inline", '{"coeffs":["1/2","x"]}'], 2, "coeff_bad", "coeffs[1]"),
    # flags
    (["toric-discrepancy", "--inline", _doc(CONE), "--point", "[1,0,0]"], 2, "point_length", "--point"),
    (["toric-discrepancy", "--inline", _doc(CONE), "--point", "[1,"], 2, "bad_json", "--point"),
    (["toric-discrepancy", "--inline", _doc(CONE), "--point", DEEP], 2, "bad_json", "--point"),
    (["toric-discrepancy", "--inline", _doc(CONE), "--point", "5"], 2, "wrong_type", "--point"),
    (["toric-discrepancy", "--inline", _doc(CONE), "--point", '[1,"0"]'], 2, "wrong_type", "--point[1]"),
    (_graph("graph-blowup", "--edge", "0", "1", "--vertex", "0"), 2, "site_conflict", "--edge"),
    (_graph("graph-blowup"), 2, "site_missing", "--vertex"),
    (["delpezzo-lines", "--r", "-1"], 2, "r_out_of_range", "--r"),
    (["delpezzo-lines"], 2, "missing_input", "--r"),
    (["delpezzo-lines", "--r", "3", "--bound", "-1"], 2, "bound_negative", "--bound"),
    (_surface("mmp-run", "--bound", "-1"), 2, "bound_negative", "--bound"),
    (_surface("nef-check", "--divisor", "[1,1,1]"), 2, "divisor_length", "--divisor"),
    (_surface("nef-check", "--divisor", DEEP), 2, "bad_json", "--divisor"),
    (_surface("rr", "--divisor", "[1]", "--chi0", "1"), 2, "divisor_length", "--divisor"),
    (["rr"], 2, "rr_mode", "--deg"),
    (["rr", "--deg", "1"], 2, "rr_mode", "--deg"),
    (["rr", "--deg", "1", "--genus", "0", "--chi0", "1"], 2, "rr_mode", "--deg"),
    (_surface("rr", "--divisor", "[1,1]"), 2, "rr_mode", "--divisor"),
    (["rr", "--deg", "0", "--genus", "-1"], 2, "genus_negative", "--genus"),
    # mathematical preconditions
    (_cone(rays=[[1, 0], [-1, 0]]), 3, "not_strongly_convex", None),
    (_cone(rays=[[1, 0]]), 3, "not_full_dimensional", None),
    (["toric-discrepancy", "--inline", _doc(CONE), "--point", "[0,-1]"], 3, "not_in_cone", None),
    # rays that span less than the space: the one facets call that builds the complement
    (
        ["toric-discrepancy", "--inline", _doc(rank=3, rays=[[1, 0, 0], [0, 1, 0]]), "--point", "[1,1,0]"],
        3,
        "not_full_dimensional",
        None,
    ),
    (
        ["toric-discrepancy", "--inline", _doc(rank=3, rays=[[1, 0, 0], [-1, 0, 0], [0, 1, 0]]), "--point", "[0,1,0]"],
        3,
        "not_strongly_convex",
        None,
    ),
    (["toric-discrepancy", "--inline", _doc(CONE), "--point", "[2,0]"], 3, "not_primitive", None),
    (["toric-discrepancy", "--inline", _doc(CONE), "--point", "[0,0]"], 3, "not_primitive", None),
    (
        ["toric-discrepancy", "--input", str(GOLDEN / "cone_not_qgor.json"), "--point", "[1,1,1]"],
        3,
        "not_q_gorenstein",
        None,
    ),
    (_graph(edges=[]), 3, "disconnected", None),
    (_graph(vertices=[{"genus": 0, "self_int": 0}], edges=[]), 3, "not_contractible", None),
    (_graph("graph-blowup", "--vertex", "5"), 3, "invalid_site", None),
    (_graph("graph-blowup", "--vertex", "0", "--boundary", "0"), 3, "invalid_site", None),
    (["delpezzo-lines", "--r", "9"], 3, "unbounded_search", None),
    (
        _surface(gram=[[0, -1], [-1, -2]], K=[4, -2], curves=[[-2, 1], [-3, 2], [-3, 1], [-6, 3]]),
        3,
        "undetermined_outcome",
        None,
    ),
    (["cone-rays", "--input", str(GOLDEN / "surface_bl2.json")], 3, "not_rank_2", None),
    (_surface("cone-rays", curves=[]), 3, "empty_curve_list", None),
    (_surface("cone-rays", curves=[[1, 0], [-1, 0]]), 3, "degenerate_cone", None),
    (_surface("cone-rays", curves=[[0, 0]]), 3, "degenerate_cone", None),
    (_surface("nef-check", "--divisor", "[1,1]", curves=[]), 3, "empty_curve_list", None),
    (_samples(samples=[[1, 0], [2, 5]]), 3, "insufficient_samples", None),
    (["pair-classify", "--inline", '{"coeffs":["-1/2"]}'], 3, "negative_coefficient", None),
    (_graph(boundary=0), 2, "wrong_type", "boundary"),
    (_graph(boundary=False), 2, "wrong_type", "boundary"),
    (_graph(boundary=""), 2, "wrong_type", "boundary"),
    (_graph(boundary={}), 2, "wrong_type", "boundary"),
    (
        ["graph-discrepancies", "--inline", json.dumps({"vertices": [VERTEX], "boundary": None})],
        2,
        "wrong_type",
        "boundary",
    ),
    # an integer too long to convert from decimal is no valid JSON number here
    (["toric-classify", "--inline", f'{{"rank":2,"rays":[[0,1],[{HUGE},-1]]}}'], 2, "bad_json", "--inline"),
    (["toric-discrepancy", "--inline", _doc(CONE), "--point", f"[{HUGE},0]"], 2, "bad_json", "--point"),
    (_surface("nef-check", "--divisor", f"[{HUGE},0]"), 2, "bad_json", "--divisor"),
    # a float in each integer slot that the library checks
    (_cone(rays=[[0, 1.5], [3, -1]]), 2, "wrong_type", "rays[0][1]"),
    (_graph(vertices=[VERTEX, {"genus": 0, "self_int": -2.5}]), 2, "wrong_type", "vertices[1].self_int"),
    (_graph(edges=[[0, 1, 1.5]]), 2, "wrong_type", "edges[0][2]"),
    (_boundary({"coeff": "1/2", "meets": [[0, 1.5]]}), 2, "wrong_type", "boundary[0].meets[0][1]"),
    (_surface(gram=[[0, 1], [1, 0.5]]), 2, "wrong_type", "gram[1][1]"),
    (_samples(samples=[[1, 2], [2, 4.9]]), 2, "wrong_type", "samples[1][1]"),
    (["toric-discrepancy", "--inline", _doc(CONE), "--point", "[1.0,0]"], 2, "wrong_type", "--point[0]"),
    (_surface("nef-check", "--divisor", "[1,0.5]"), 2, "wrong_type", "--divisor[1]"),
    # a rational is ASCII digits matched in full: no other Unicode digit, no final newline
    (["pair-classify", "--inline", json.dumps({"coeffs": ["1/2", "1/2\n"]})], 2, "coeff_bad", "coeffs[1]"),
    (["pair-classify", "--inline", json.dumps({"coeffs": ["\u0663/\u0664"]})], 2, "coeff_bad", "coeffs[0]"),
    (["pair-classify", "--inline", json.dumps({"coeffs": ["\uff13"]})], 2, "coeff_bad", "coeffs[0]"),
    (_boundary({"coeff": "1/2\n", "meets": [[0, 1]]}), 2, "coeff_bad", "boundary[0].coeff"),
    # a coordinate too large for the lattice-point scan's ranges ends in the last net
    (_cone(rays=[[0, 1], [10**30, -1]]), 3, "resource_exhausted", None),
    # a rank-1 lattice's (-1)-class is refused before it is contracted to rank 0
    (
        ["mmp-run", "--inline", '{"rank":1,"gram":[[-1]],"K":[1],"curves":[[1]]}', "--bound", "1"],
        3,
        "rank_one_contraction",
        None,
    ),
    # a call names at most one document, and --r and rr's curve mode take none
    (
        ["toric-classify", "--input", str(GOLDEN / "cone_a3.json"), "--inline", '{"rank":2,"rays":[[1,0],[0,1]]}'],
        2,
        "input_conflict",
        "--inline",
    ),
    (["delpezzo-lines", "--r", "2", "--input", str(GOLDEN / "surface_bl2.json")], 2, "input_conflict", "--r"),
    (["rr", "--deg", "1", "--genus", "0", "--input", str(GOLDEN / "surface_bl2.json")], 2, "rr_mode", "--deg"),
    # a cycle of (-2)-curves: detect_du_val names no diagram, and check_contractible refuses it
    (_graph(vertices=[VERTEX] * 4, edges=[[0, 1, 1], [1, 2, 1], [2, 3, 1], [0, 3, 1]]), 3, "not_contractible", None),
]


def _contract_ids(rows):
    """<command>-<code>-<field> for each row, with a -2, -3, ... counter only
    where that repeats, so that an inserted row renames only later rows with
    its own command, code and field."""
    ids, seen = [], Counter()
    for argv, _, code, field in rows:
        key = f"{argv[0]}-{code}-{'none' if field is None else field}"
        seen[key] += 1
        ids.append(key if seen[key] == 1 else f"{key}-{seen[key]}")
    return ids


class TestErrorContract:
    @pytest.mark.parametrize("argv, exit_code, code, field", ERROR_CONTRACT, ids=_contract_ids(ERROR_CONTRACT))
    def test_exit_code_error_code_and_field(self, argv, exit_code, code, field):
        status, out = run_machine(list(argv))
        err = json.loads(out)["error"]
        assert (status, err["code"], err.get("field")) == (exit_code, code, field)
        assert err["kind"] == ("validation" if exit_code == 2 else "precondition")

    @pytest.mark.parametrize("command", COMMANDS)
    def test_both_inputs_are_a_conflict_in_every_command(self, command, tmp_path):
        # each required flag gets a value, so that the call reaches main; the
        # conflict is refused before either document is read, so neither need be valid
        flags = [a for flag, kw in COMMANDS[command].flags.items() if kw.get("required") for a in (flag, "[1]")]
        argv = [command, "--input", str(tmp_path / "absent.json"), "--inline", "{not json", *flags]
        stderr = io.StringIO()
        with redirect_stderr(stderr):
            status, out = run_machine(argv)
        err = json.loads(out)["error"]
        assert (status, err["code"], err["field"]) == (2, "input_conflict", "--inline")
        assert stderr.getvalue() == ""

    def test_input_file_faults(self, tmp_path):
        for text, code in (("{not json", "bad_json"), (DEEP, "bad_json"), ("[1]", "not_object")):
            path = tmp_path / "doc.json"
            path.write_text(text)
            status, out = run_machine(["toric-classify", "--input", str(path)])
            err = json.loads(out)["error"]
            assert (status, err["code"], err["field"]) == (2, code, str(path))


class TestLastNet:
    @pytest.mark.parametrize("error", [MemoryError, RecursionError, OverflowError])
    def test_exhaustion_is_a_precondition_error_without_a_trace(self, monkeypatch, error):
        # a handler that raises in place of a real exhaustion, which no test may cause
        def handler(args, doc):
            raise error()

        monkeypatch.setitem(COMMANDS, "toric-classify", COMMANDS["toric-classify"]._replace(handler=handler))
        argv = ["toric-classify", "--input", str(GOLDEN / "cone_a3.json")]
        stderr = io.StringIO()
        with redirect_stderr(stderr):
            status, out = run_machine(argv)
            text_status, text = run_cli(argv + ["--format", "text"])
        err = json.loads(out)["error"]
        assert (status, err["kind"], err["code"], "field" in err) == (3, "precondition", "resource_exhausted", False)
        assert err["message"].startswith(error.__name__)
        assert text_status == 3 and text.startswith("error [resource_exhausted]: ")
        assert stderr.getvalue() == ""


# well-formed inputs whose report holds an integer over the int-to-decimal limit
UNPRINTABLE = {
    # the new vertex's self-intersection, -10^4300, has 4301 digits
    "graph-blowup": [
        "graph-blowup", "--inline", json.dumps({"vertices": [{"genus": 0, "self_int": 1 - 10**4300}]}), "--vertex", "0",
    ],
    # kappa, the rounded log-log slope, has more than 4300 digits
    "kappa-estimate": [
        "kappa-estimate", "--inline", json.dumps({"samples": [[10**4299, 1], [10**4299 + 1, 10**4299]]}),
    ],
    # the discrepancies have numerators and denominators of about 6000 digits
    "graph-discrepancies": _graph(
        vertices=[{"genus": 0, "self_int": -(10**2999 + 3)}, {"genus": 0, "self_int": -(10**2999 + 10**1500 + 7)}]
    ),
}


class TestUnprintableReport:
    @pytest.mark.parametrize("fmt", ["machine", "text"])
    @pytest.mark.parametrize("name", UNPRINTABLE)
    def test_invalid_value_in_one_line_without_a_trace(self, name, fmt):
        stderr = io.StringIO()
        with redirect_stderr(stderr):
            status, out = run_cli(UNPRINTABLE[name] + ["--format", fmt])
        assert status == 2 and out.count("\n") == 1 and out.endswith("\n")
        if fmt == "machine":
            err = json.loads(out)["error"]
            assert (err["kind"], err["code"], "field" in err) == ("validation", "invalid_value", False)
        else:
            assert out.startswith("error [invalid_value]: ")
        assert stderr.getvalue() == ""


class TestParserReuse:
    def test_one_parser_serves_every_call(self):
        # the parser is built once per process and shared: neither an argv
        # that argparse rejects nor an error report may change a later call
        def check_pinned(runs):
            for i, argv in runs:
                expected = (GOLDEN / "machine" / f"{i:02d}-{argv[0]}.out").read_bytes()
                code, out = run_machine(list(argv))
                assert (code, out.encode("utf-8")) == (0, expected), argv

        runs = list(enumerate(GOLDEN_RUNS))
        check_pinned(runs)
        with redirect_stderr(io.StringIO()), pytest.raises(SystemExit) as info:
            main(["mmp-run", "--bound", "x"])
        assert info.value.code == 2
        argv, exit_code, code, field = next(row for row in ERROR_CONTRACT if row[2] == "rank_one_contraction")
        status, out = run_machine(list(argv))
        err = json.loads(out)["error"]
        assert (status, err["code"], err.get("field")) == (exit_code, code, field)
        check_pinned(reversed(runs))
        assert build_parser() is build_parser()


# -- a seeded fuzz of main: one leaf of one golden document changed per case ------

#: the flags whose value is a JSON document
JSON_FLAGS = ("--input", "--point", "--divisor")


def _leaf_paths(doc, path=()):
    if not isinstance(doc, (dict, list)):
        yield path
        return
    for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
        yield from _leaf_paths(value, path + (key,))


def _replaced(text, path, value):
    doc = json.loads(text)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return json.dumps(doc)


def fuzz_cases(seed):
    """Every golden run with one leaf of one of its JSON documents replaced by
    each of: small integers and seeded ones within +-100, a seeded rational,
    and a value of each other JSON type.  A document read from --input goes
    in by --inline."""
    rng = random.Random(seed)
    cases = []
    for argv in GOLDEN_RUNS:
        for k, flag in enumerate(argv):
            if flag not in JSON_FLAGS:
                continue
            text = Path(argv[k + 1]).read_text("utf-8") if flag == "--input" else argv[k + 1]
            for path in _leaf_paths(json.loads(text)):
                values = [0, 1, -1, 2, -2, *(rng.randint(-100, 100) for _ in range(4))]
                values += [f"{rng.randint(-100, 100)}/{rng.randint(0, 100)}", "x", None, True, 2.5, [], {}, [0]]
                for value in values:
                    mutant = ["--inline" if flag == "--input" else flag, _replaced(text, path, value)]
                    cases.append(argv[:k] + mutant + argv[k + 2 :] + ["--format", "machine"])
    return cases


def fuzz_fault(argv):
    """What is wrong with main's answer to argv, or None: it must exit 0, 2 or
    3 with one line on stdout and none on stderr, and an error must carry a
    code, and a field when it exits 2 unless its code is invalid_value."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            status = main(argv)
        except (Exception, SystemExit) as exc:  # an escape from main is a fault
            return f"raised {type(exc).__name__}: {exc}"
    text = out.getvalue()
    if status not in (0, 2, 3) or text.count("\n") != 1 or not text.endswith("\n") or err.getvalue():
        return f"exit {status}, stdout {text[:200]!r}, stderr {err.getvalue()[-200:]!r}"
    if status:
        error = json.loads(text).get("error", {})
        if not error.get("code") or (status == 2 and "field" not in error and error["code"] != "invalid_value"):
            return f"exit {status} with error {error}"
    return None


class TestFuzz:
    def test_every_mutant_ends_in_one_line_with_a_code(self):
        cases = fuzz_cases(seed=20261019)
        assert len(cases) > 5000
        faults = [(argv, fault) for argv in cases for fault in [fuzz_fault(argv)] if fault]
        assert faults == []

    def test_the_checks_catch_an_escape_and_a_stderr_line(self, monkeypatch):
        argv = GOLDEN_RUNS[0] + ["--format", "machine"]
        assert fuzz_fault(argv) is None

        def crash(args, doc):
            raise KeyError("x")

        def warn(args, doc):
            sys.stderr.write("warning\n")
            return {}

        for handler, fault in ((crash, "raised KeyError"), (warn, "exit 0")):
            monkeypatch.setitem(COMMANDS, "toric-classify", COMMANDS["toric-classify"]._replace(handler=handler))
            assert fuzz_fault(argv).startswith(fault)
