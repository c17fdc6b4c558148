"""cli.parse_arguments against build_parser().parse_args, argv by argv.

The dispatch hands an argv led by a command name to that command's own
parser.  For every argv below both must give the same exit code, stdout,
stderr and namespace.  The module needs no pytest, so that interpreters
without it can run the table too:

    PYTHONPATH=src python tests/test_cli_dispatch.py
"""

import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from mmpkit.cli import COMMANDS, build_parser, parse_arguments

CONE = str(Path(__file__).parent / "golden" / "cone_a3.json")
CONE_DOC = '{"rank": 2, "rays": [[0, 1], [3, -1]]}'

ARGVS = [
    *([name, flag] for name in COMMANDS for flag in ("--help", "-h")),
    ["--help"],
    [],
    ["nope"],
    ["toric-classify", "--input", CONE, "--bogus"],
    ["toric-classify", "--input", CONE, "extra"],
    ["toric-classify", "--inl", CONE_DOC],
    ["toric-discrepancy", "--input", CONE],
    ["mmp-run", "--bound", "x"],
    ["toric-classify", "--input", CONE, "--format", "json"],
    ["toric-classify", "--input", CONE, "--input", CONE, "--format", "machine"],
    ["--format", "machine", "toric-classify"],
    ["--", "toric-classify"],
    ["toric-classify", "-h", "--bogus"],
    ["toric-classify", "--bogus", "-h"],
    # argvs that parse
    ["toric-classify", "--input", CONE],
    ["toric-discrepancy", "--inline", CONE_DOC, "--point", "[1,0]", "--format", "machine"],
    ["graph-blowup", "--input", CONE, "--edge", "0", "1"],
    ["delpezzo-lines", "--r", "3", "--bound", "2"],
    ["rr", "--deg", "-1", "--genus", "0"],
    ["toric-classify", "--inline=" + CONE_DOC],
    ["toric-classify", "--", "--input", CONE],
]


def outcome(parse, argv):
    """(exit code, stdout, stderr, namespace as a dict) of parse(argv); the
    exit code is None and the namespace a dict when it returns."""
    out, err = io.StringIO(), io.StringIO()
    code, namespace = None, None
    with redirect_stdout(out), redirect_stderr(err):
        try:
            namespace = vars(parse(list(argv)))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue(), namespace


def mismatches():
    parser = build_parser()
    return [
        (argv, expected, got)
        for argv in ARGVS
        for expected, got in [(outcome(parser.parse_args, argv), outcome(parse_arguments, argv))]
        if expected != got
    ]


def test_dispatch_matches_parse_args():
    assert mismatches() == []


def test_the_table_reaches_every_path():
    codes = {outcome(parse_arguments, argv)[0] for argv in ARGVS}
    assert codes == {None, 0, 2}


def test_a_command_led_argv_skips_the_top_level_parser():
    parser = build_parser()

    def refuse(*args, **kwargs):
        raise AssertionError("the top-level parser read the argv")

    parser.parse_known_args = refuse
    try:
        args = parse_arguments(["toric-classify", "--inline", CONE_DOC])
    finally:
        del parser.parse_known_args
    assert (args.command, args.inline) == ("toric-classify", CONE_DOC)


if __name__ == "__main__":
    found = mismatches()
    for argv, expected, got in found:
        print(f"mismatch on {argv}:\n  parse_args:      {expected}\n  parse_arguments: {got}")
    test_the_table_reaches_every_path()
    test_a_command_led_argv_skips_the_top_level_parser()
    print(f"{sys.version.split()[0]}: {len(ARGVS) - len(found)} of {len(ARGVS)} argvs match")
    sys.exit(1 if found else 0)
