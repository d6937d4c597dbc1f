"""End-to-end command-line contract: outputs, exit codes, JSON stability.

Most tests call ``cli.main`` in-process through ``run_cli``.  Those that
start ``python -m hilbertdepth`` through ``run_python`` check what only a
process shows (see ``cli_runner``), and between them its exit codes 0, 1
and 2.
"""

import hashlib
import io
import json
import re
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from cli_runner import run_cli, run_python

from hilbertdepth import cli, squarefree
from hilbertdepth.cli import COMMANDS
from hilbertdepth.errors import HilbertDepthError


def test_every_command_is_declared_in_the_table(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    top = run_cli("-h")
    assert top.returncode == 0 and top.stderr == ""
    for name, (_, help_line, arguments) in COMMANDS.items():
        assert re.search(rf"^ +{name} +{re.escape(help_line)}$", top.stdout, re.M)
        proc = run_cli(name, "-h")
        assert proc.returncode == 0 and proc.stderr == ""
        assert proc.stdout.startswith(f"usage: hilbertdepth {name} ")
        for flag in [f for f, _ in arguments] + ["--json"]:
            assert flag in proc.stdout


# the arguments of one quick request per subcommand
JSON_REQUESTS = {
    "qdepth": ("poly(2)",),
    "beta": ("poly(2)", "--d", "2"),
    "sqf": ("2", "x1"),
    "hyp": ("2",),
    "verify": ("free", "--trials", "2"),
}


@pytest.mark.parametrize("name", COMMANDS)
def test_json_names_its_command(name):
    proc = run_cli(name, *JSON_REQUESTS[name], "--json")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["command"] == name


# Lines that main parses by one subcommand's parser, and lines it hands to
# the whole tree.  The lines with "--" matter most: argparse's handling of
# it changed in later 3.12 and 3.13 patch releases.
PARSE_CORPUS = [
    [],
    ["-h"],
    *([name, "-h"] for name in COMMANDS),
    ["qdepth", "--help"],
    ["qdepth", "poly(3)", "-h"],
    ["--json", "qdepth", "poly(3)"],
    ["-h", "qdepth"],
    ["--", "qdepth", "poly(3)"],
    ["qdep", "poly(3)"],
    ["QDEPTH", "poly(3)"],
    ["qdepth", "poly(3)"],
    ["qdepth", "--", "-x"],
    ["qdepth", "--", "--json"],
    ["qdepth", "--", "poly(3)"],
    ["qdepth", "poly(3)", "--"],
    ["qdepth", "-x"],
    ["hyp", "--", "-1"],
    ["hyp", "-1"],
    ["verify", "--", "--all"],
    ["verify", "free", "--", "--all"],
    ["qdepth", "poly(3)", "--js"],
    ["qdepth", "poly(3)", "--json", "--json"],
    ["qdepth", "poly(3)", "--json=1"],
    ["verify", "--al"],
    ["verify", "--all", "--json"],
    ["verify", "free", "--max", "3"],
    ["verify", "free", "--max-n", "3", "--seed", "-3"],
    ["sqf", "3", "x1", "--max", "5"],
    ["sqf", "3", "x1"],
    ["qdepth"],
    ["sqf", "3"],
    ["hyp"],
    ["beta", "poly(3)"],
    ["beta", "poly(3)", "--d", "x"],
    ["beta", "poly(3)", "--d", "3.5"],
    ["beta", "poly(3)", "--d"],
    ["beta", "poly(3)", "--d=3"],
    ["beta", "--d", "-3", "poly(3)"],
    ["qdepth", "poly(3)", "extra"],
    ["hyp", "3", "4"],
    ["sqf", "2", "x1", "0", "extra"],
]


def parse_outcome(parse, argv):
    """What ``parse(argv)`` gives: its namespace with the handler by name,
    its usage error, or its exit code (from ``-h``); then what it printed."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            args = parse(argv)
        outcome = ("args", {**vars(args), "func": args.func.__name__})
    except HilbertDepthError as exc:
        outcome = ("error", str(exc))
    except SystemExit as exc:
        outcome = ("exit", exc.code)
    return (*outcome, out.getvalue(), err.getvalue())


@pytest.mark.parametrize("argv", PARSE_CORPUS, ids=" ".join)
def test_main_parses_as_the_whole_tree(monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    tree = parse_outcome(lambda a: cli.build_parser().parse_args(a), list(argv))
    assert parse_outcome(cli._parse_args, list(argv)) == tree


class WholeTreeBuilt(Exception):
    pass


def test_a_subcommand_line_never_builds_the_whole_tree(monkeypatch):
    def refuse():
        raise WholeTreeBuilt

    monkeypatch.setattr(cli, "build_parser", refuse)
    for name, request in JSON_REQUESTS.items():
        proc = run_cli(name, *request, "--json")
        assert proc.returncode == 0, proc.stderr
    for argv in (["-h"], ["--json", "qdepth", "poly(3)"]):
        proc = run_cli(*argv)
        assert proc.returncode == 1 and "WholeTreeBuilt" in proc.stderr


def test_qdepth_poly():
    proc = run_cli("qdepth", "poly(4)")
    assert proc.returncode == 0
    assert "qdepth:  4" in proc.stdout
    assert "bounds:  [0, 4]" in proc.stdout


def test_qdepth_worked_example():
    proc = run_cli("qdepth", "ci(3; 3)")
    assert proc.returncode == 0
    assert "qdepth:  3" in proc.stdout


def test_qdepth_beta_flag():
    # a beta table is the job of `beta SPEC --d N` alone
    proc = run_cli("qdepth", "table(0:1,1:1)", "--d", "1")
    assert proc.returncode == 2
    assert "--d" in proc.stderr


def test_beta_subcommand():
    proc = run_cli("beta", "poly(1)", "--d=1")
    assert proc.returncode == 0
    assert "[1, 0]" in proc.stdout
    proc = run_cli("beta", "table(0:1,1:1)", "--d=1")
    assert proc.returncode == 0
    assert "[1, 0]" in proc.stdout


def test_parse_error_exit_2():
    proc = run_cli("qdepth", "poly(3")
    assert proc.returncode == 2
    assert "position" in proc.stderr
    # argparse's own errors take the same one-line path as every bad input
    for argv, message in (
        (("beta", "poly(3)", "--d", "3.5"), "invalid int value: '3.5'"),
        (("qdepth",), "required: spec"),
        (("nope",), "invalid choice: 'nope'"),
        (("sqf", "x", "x1"), "invalid int value: 'x'"),
    ):
        assert_one_line_exit_2(run_cli(*argv), message)


def test_deep_nesting_exit_2():
    # a process: no traceback, even at the fresh interpreter's stack depth
    spec = "extend(" * 1200 + "poly(1)" + ")" * 1200
    proc = run_python("-m", "hilbertdepth", "qdepth", spec)
    assert proc.returncode == 2
    assert "nesting" in proc.stderr and "position" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_elaboration_error_exit_2():
    proc = run_cli("qdepth", "poly(0)")
    assert proc.returncode == 2


def test_elaboration_error_names_the_failing_constructor():
    assert_one_line_exit_2(
        run_cli("qdepth", "shift(scale(poly(2), 0), 1)"),
        "error: scale: scale factor must be positive, got 0",
    )
    assert_one_line_exit_2(
        run_cli("qdepth", "sum(poly(1), poly(0))"),
        "error: poly: need at least one variable, got 0",
    )
    assert_one_line_exit_2(
        run_cli("qdepth", "table(0:2,0:-1)"),
        "error: table: degree 0 appears more than once",
    )


def test_ci_term_cap_exit_2():
    proc = run_python("-m", "hilbertdepth", "qdepth", "ci(2; 1000000000000000)")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert "cap" in proc.stderr and "Traceback" not in proc.stderr


def test_ci_work_cap_exit_2():
    spec = "ci(1000; " + ", ".join(["1000"] * 1000) + ")"
    start = time.perf_counter()
    proc = run_cli("qdepth", spec)
    assert time.perf_counter() - start < 10
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert "cap" in proc.stderr and "Traceback" not in proc.stderr


def test_spec_from_file(tmp_path):
    spec_file = tmp_path / "fn.txt"
    spec_file.write_text("ci(3; 3)")
    proc = run_cli("qdepth", f"@{spec_file}")
    assert proc.returncode == 0
    assert "qdepth:  3" in proc.stdout


def test_missing_file_exit_2(tmp_path):
    proc = run_cli("qdepth", f"@{tmp_path}/absent.txt")
    assert proc.returncode == 2


def test_undecodable_file_exit_2(tmp_path):
    spec_file = tmp_path / "fn.txt"
    spec_file.write_bytes(b"\xff\xfepoly(3)")
    for argv in (("qdepth", f"@{spec_file}"), ("sqf", "3", f"@{spec_file}")):
        proc = run_cli(*argv)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr
        assert str(spec_file) in proc.stderr and "not UTF-8" in proc.stderr


def test_sqf_match_cases():
    proc = run_cli("sqf", "2", "x1", "0")
    assert proc.returncode == 0
    assert "alpha: [0, 1, 1]" in proc.stdout
    assert "verdict: MATCH" in proc.stdout
    proc = run_cli("sqf", "3", "1", "0")
    assert proc.returncode == 0
    proc = run_cli("sqf", "3", "x1*x2", "x1*x2*x3")
    assert proc.returncode == 0
    assert "qdepth from alpha:    2" in proc.stdout


def test_sqf_builds_the_alpha_table_once(monkeypatch):
    built = []
    for module in (cli, squarefree):
        clean = module.from_table
        monkeypatch.setattr(
            module, "from_table", lambda v, clean=clean: built.append(v) or clean(v)
        )
    assert run_cli("sqf", "3", "x1*x2", "x1*x2*x3").returncode == 0
    assert built == [{0: 0, 1: 0, 2: 1, 3: 0}]


def test_sqf_invalid_exit_2():
    proc = run_cli("sqf", "3", "x1*x2", "x3")
    assert proc.returncode == 2
    proc = run_cli("sqf", "3", "x9", "0")
    assert proc.returncode == 2


def test_sqf_huge_variable_count_exit_2():
    start = time.perf_counter()
    proc = run_cli("sqf", "1000000000000", "x1")
    assert time.perf_counter() - start < 10
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert "cap" in proc.stderr and "Traceback" not in proc.stderr


def test_verify_quotients_huge_max_n_exit_2():
    proc = run_python(
        "-m", "hilbertdepth", "verify", "quotients", "--max-n", "1000000000000",
        "--trials", "3", timeout=20,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert "cap" in proc.stderr and "Traceback" not in proc.stderr


def test_verify_quotients_max_n_past_the_default_cap_exit_2():
    # seed 1 draws no n above 20 and seed 5 does: both exit 2 before any case
    for seed in ("1", "5"):
        proc = run_cli(
            "verify", "quotients", "--max-n", "21", "--trials", "2", "--seed", seed
        )
        assert_one_line_exit_2(proc, "max_n=21 exceeds the variable cap 20")


def test_qdepth_stops_at_first_negative_row():
    # a 3e6-wide window whose depth is 1: only rows 0..2 are built
    proc = run_python(
        "-m", "hilbertdepth", "qdepth", "table(0:1,1:3000000)", timeout=20
    )
    assert proc.returncode == 0
    assert "qdepth:  1" in proc.stdout
    assert "refutation: beta at d=2, k=2 is -2999999" in proc.stdout


def test_oversized_window_exit_2():
    huge = "100000000000000000000"
    for spec in [
        f"poly({huge})",
        f"ci({huge};)",
        f"free({huge}; 0)",
        f"table(0:1,1:{huge})",
        f"extend(table(0:1,1:{huge}))",
    ]:
        assert_one_line_exit_2(run_cli("qdepth", spec), "above the cap 4194304")
    proc = run_cli("beta", "poly(3)", "--d", huge)
    assert_one_line_exit_2(proc, "above the cap 4194304")


def test_hyp_output():
    proc = run_cli("hyp", "2")
    assert proc.returncode == 0
    assert "[1, 0, 2]" in proc.stdout
    proc = run_cli("hyp", "3")
    assert "E(3,2)=6" in proc.stdout and "E(3,3)=36" in proc.stdout
    # n = 1 has no integer sums, so no line for them
    proc = run_cli("hyp", "1")
    assert proc.returncode == 0
    assert proc.stdout == (
        "gauss values (k=0..1): [1, 0]\n"
        "derivative table (rows k, entries j=0..k, sign annotated):\n"
        "  k=1: 1(+)  0(0)\n"
    )
    # the command's own check, before any table is built
    for n in ("0", "-1"):
        assert_one_line_exit_2(run_cli("hyp", n), f"error: need n >= 1, got {n}")


def test_verify_selected_batteries():
    proc = run_cli("verify", "polyring", "signs", "--max-n", "10")
    assert proc.returncode == 0
    assert "total violations: 0" in proc.stdout


def test_verify_explicit_zero_range():
    proc = run_cli("verify", "ci", "--max-n", "0", "--json")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["batteries"][0]["casesRun"] == 0


def test_verify_negative_range_exit_2():
    proc = run_cli(
        "verify", "polyring", "ci-recursion", "extension", "structural",
        "--max-n", "-3", "--trials", "-5", "--json",
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert "nonnegative" in proc.stderr and "Traceback" not in proc.stderr
    proc = run_cli("verify", "ci", "--max-degree", "-1")
    assert proc.returncode == 2
    assert proc.stdout == "" and len(proc.stderr.splitlines()) == 1


def test_verify_requires_selection():
    proc = run_cli("verify")
    assert proc.returncode == 2
    for name in ("nosuch", "lemma", "qq"):
        proc = run_cli("verify", name)
        assert proc.returncode == 2 and proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1 and name in proc.stderr


def test_verify_rejects_names_with_all():
    assert_one_line_exit_2(run_cli("verify", "--all", "nosuch"), "got ['nosuch']")
    assert_one_line_exit_2(run_cli("verify", "signs", "--all"), "got ['signs']")


def test_verify_rejects_a_repeated_name():
    for argv in (("signs", "signs"), ("signs", "free", "signs")):
        proc = run_cli("verify", *argv, "--max-n", "2")
        assert_one_line_exit_2(proc, "named more than once ['signs']")


def test_json_outputs_are_decimal_strings():
    proc = run_cli("qdepth", "poly(3)", "--json")
    data = json.loads(proc.stdout)
    assert data["qdepth"] == "3"
    assert data["certificate"]["values"][0] == "1"
    assert all(isinstance(v, str) for v in data["function"]["numerator"].values())


# Every JSON value that is neither a string nor null, an array or an
# object, by its path of object keys: everything else mathematical is a
# decimal string.
NON_STRING_VALUES = {
    ("function", "denomPower"): int,
    ("seed",): int,
    ("batteries", "casesRun"): int,
    ("violationCount",): int,
    ("match",): bool,
}


def _non_strings(node, path=()):
    """(path of object keys, type) of every number and bool in ``node``."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _non_strings(value, (*path, key))
    elif isinstance(node, list):
        for value in node:
            yield from _non_strings(value, path)
    elif isinstance(node, (bool, int, float)):
        yield path, type(node)


@pytest.mark.parametrize("argv, flip", [
    (("qdepth", "poly(3)"), False),
    (("qdepth", "table(0:1,1:3,2:1)"), False),
    (("beta", "shift(ci(3; 2,2), -1)", "--d", "4"), False),
    (("sqf", "3", "x1*x2, x3", "x1*x2*x3"), False),
    (("hyp", "4"), False),
    (("verify", "--all", "--max-n", "4", "--trials", "3"), False),
    (("verify", "polyring", "structural", "--max-n", "4", "--trials", "3"), True),
])
def test_json_numbers_and_bools_sit_only_under_their_keys(argv, flip):
    proc = run_cli(*argv, "--json", flip=flip)
    assert proc.returncode == flip, proc.stderr
    found = set(_non_strings(json.loads(proc.stdout)))
    assert found <= set(NON_STRING_VALUES.items())
    expected = {"qdepth": 1, "beta": 1, "sqf": 1, "hyp": 0, "verify": 3}
    assert len(found) == expected[argv[0]]


def test_qdepth_json_refutes_a_top_row_near_miss():
    # the top row at d = 11 is negative only at k = 2, by 2
    spec = "free(7; " + ",".join(["0"] * 4 + ["-1"] * 18) + ")"
    proc = run_cli("qdepth", spec, "--json")
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    assert data["function"] == {"denomPower": 7, "numerator": {"0": "4", "1": "18"}}
    assert (data["qdepth"], data["lowerBound"], data["upperBound"]) == ("10", "0", "11")
    assert data["refutation"] == {"d": "11", "k": "2", "beta": "-2"}
    table = run_cli("beta", spec, "--d", "10", "--json")
    assert data["certificate"] == json.loads(table.stdout)["table"]


def test_json_round_trip_recomputes():
    proc = run_cli("qdepth", "shift(ci(3; 2,2), -1)", "--json")
    data = json.loads(proc.stdout)
    from hilbertdepth import HilbertFunction, qdepth

    function = data["function"]
    numerator = {int(e): int(c) for e, c in function["numerator"].items()}
    h = HilbertFunction(numerator, function["denomPower"])
    result = qdepth(h)
    assert str(result.qdepth) == data["qdepth"]
    assert [str(v) for v in result.certificate.values] == data["certificate"]["values"]


def test_sqf_json_round_trip():
    proc = run_cli("sqf", "2", "x1", "0", "--json")
    data = json.loads(proc.stdout)
    assert data["alpha"] == ["0", "1", "1"]
    assert data["match"] is True
    from hilbertdepth import qdepth_from_alpha

    recomputed = qdepth_from_alpha([int(a) for a in data["alpha"]])
    assert [str(v) for v in recomputed.certificate.values] == data["quotientDepth"][
        "certificate"
    ]["values"]


def test_hyp_json():
    proc = run_cli("hyp", "3", "--json")
    data = json.loads(proc.stdout)
    assert data["gauss"][0] == "1" and data["gauss"][1] == "0"
    assert data["bigE"]["2"] == "6" and data["bigE"]["3"] == "36"
    assert data["coeffRows"][0] == ["1", "0"]


def test_json_byte_identical():
    a = run_cli("verify", "structural", "quotients", "--trials", "30", "--seed", "9", "--json")
    b = run_cli("verify", "structural", "quotients", "--trials", "30", "--seed", "9", "--json")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    c = run_cli("qdepth", "free(3; 1, 0)", "--json")
    d = run_cli("qdepth", "free(3; 1, 0)", "--json")
    assert c.stdout == d.stdout


def test_verify_has_no_parallel_option():
    proc = run_cli("verify", "polyring", "--parallel", "2")
    assert proc.returncode == 2
    assert "--parallel" in proc.stderr


def loaded_by_import(target, *modules):
    """Those of the modules that a fresh `import {target}` loads."""
    proc = run_python(
        "-c",
        f"import sys, {target}; "
        f"print(sorted(m for m in {modules!r} if m in sys.modules))",
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def loaded_by_cli_import(*modules):
    return loaded_by_import("hilbertdepth.cli", *modules)


def test_cli_import_loads_no_process_pool():
    assert loaded_by_cli_import("concurrent.futures", "multiprocessing") == "[]"


def test_cli_import_loads_no_dataclasses_or_fractions():
    # Each CLI call starts a fresh interpreter. No command needs dataclasses
    # or inspect, and only the commands that build a Fraction import
    # fractions (and decimal with it), when they build one.
    assert loaded_by_cli_import("dataclasses", "inspect", "fractions", "decimal") == "[]"


def test_package_import_loads_no_json_or_fractions():
    # The package loads every battery with its records; ``verify`` imports
    # json only to describe a failed case, and the library needs neither
    # module until it prints JSON or builds a Fraction.
    assert loaded_by_import("hilbertdepth", "json", "fractions", "decimal") == "[]"


def test_flip_hook_fails_verify():
    # a process: the hook is read from the environment when depth is imported
    proc = run_python("-m", "hilbertdepth", "verify", "polyring", flip=True)
    assert proc.returncode == 1
    assert "violation" in proc.stdout
    assert "poly(2)" in proc.stdout  # replayable descriptor


# SHA-256 of `verify --all --json` stdout at the default seed: the report
# layout and every battery's cases and violations, clean and under the hook.
VERIFY_ALL_DIGESTS = {
    False: (0, "3bf49dd2d151fc44da07d36c131d4b44a46a0988934652a262f5fa8b7a26a6cc"),
    True: (1, "857cab853aa92e93588b4e04a2f8d381e752dd2dccbcf72f910e12445d66088d"),
}


def test_verify_all_json_matches_pinned_digests():
    for flip, (code, digest) in VERIFY_ALL_DIGESTS.items():
        proc = run_cli("verify", "--all", "--json", flip=flip)
        assert proc.returncode == code, proc.stderr
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest


# SHA-256 of `hyp 12` stdout, text and --json: the Gauss row, the integer
# sums and the c-table rows with their sign marks, byte for byte.
HYP_DIGESTS = {
    ("hyp", "12"): "114d57d0052e4521005c54e30dc2f25058c8bb6989ca0f0f6255aea022ba7d79",
    ("hyp", "12", "--json"): "d7bf47aa4c7541b7a8cdf9d541d58d90bfa4bf6b81ad6342aaf72a885898aa7d",
}


def test_hyp_matches_pinned_digests():
    for argv, digest in HYP_DIGESTS.items():
        proc = run_cli(*argv)
        assert proc.returncode == 0, proc.stderr
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest


# SHA-256 of `verify --all` text stdout at the default seed, with each
# summary line's elapsed column masked: the summary lines, every
# `violation:` line and the total, clean and under the hook.
VERIFY_ALL_TEXT_DIGESTS = {
    False: (0, "1408ce7827caacdee923cc2d511b8838c3ccedf3344ddce338e715c287064d0e"),
    True: (1, "468c8325a24246c9e08c8224488a34f6feed26ff994e0f04cae5780b00b603c6"),
}
ELAPSED_COLUMN = re.compile(r" +\d+\.\d\ds  (PASS|FAIL)$", re.M)


def test_verify_all_text_matches_pinned_digests():
    for flip, (code, digest) in VERIFY_ALL_TEXT_DIGESTS.items():
        proc = run_cli("verify", "--all", flip=flip)
        assert proc.returncode == code, proc.stderr
        masked, lines = ELAPSED_COLUMN.subn(r" <elapsed>  \1", proc.stdout)
        assert lines == 11
        assert hashlib.sha256(masked.encode()).hexdigest() == digest


def assert_one_line_exit_2(proc, fragment):
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert fragment in proc.stderr and "Traceback" not in proc.stderr


def test_overlong_function_literal_exit_2():
    proc = run_cli("qdepth", "table(0:" + "1" * 5000 + ")")
    assert_one_line_exit_2(proc, "over 4300 digits at position 8")
    # the longest literal Python reads by default is still accepted
    proc = run_cli("qdepth", "table(0:" + "1" * 4300 + ")")
    assert proc.returncode == 0 and "qdepth:  0" in proc.stdout


def test_overlong_variable_index_exit_2():
    assert_one_line_exit_2(
        run_cli("sqf", "3", "x" + "1" * 5000), "over 4300 digits at position 0"
    )


def test_exact_values_print_past_the_digit_cap():
    # poly(2) has the beta row [1, 0, 2] at d = 2; scaled twice by c = 4000
    # nines, its entries c^2 and 2 c^2 have 8000 and 8001 digits
    nines = "9" * 4000
    c2 = "9" * 3999 + "8" + "0" * 3999 + "1"
    twice = "1" + "9" * 3999 + "6" + "0" * 3999 + "2"
    spec = f"scale(scale(poly(2), {nines}), {nines})"
    # a process, so the cap that main lifts is the interpreter's default
    proc = run_python("-m", "hilbertdepth", "qdepth", spec)
    assert proc.returncode == 0, proc.stderr
    assert f"[{c2}, 0, {twice}]" in proc.stdout
    proc = run_python("-m", "hilbertdepth", "qdepth", spec, "--json")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["certificate"]["values"] == [c2, "0", twice]


def test_non_ascii_digit_exit_2():
    # '²' is a digit to str.isdigit but not to int()
    assert_one_line_exit_2(run_cli("qdepth", "poly(²)"), "unexpected character")
    # Arabic-Indic three is decimal to str.isdecimal and to int()
    proc = run_cli("qdepth", "poly(\u0663)")
    assert_one_line_exit_2(proc, "unexpected character '\u0663' at position 5")


def test_main_restores_the_digit_cap(monkeypatch, capsys):
    from hilbertdepth.cli import main

    before = sys.get_int_max_str_digits()
    assert main(["qdepth", "poly(2)"]) == 0
    assert sys.get_int_max_str_digits() == before
    # a usage error returns 2 from main, with no SystemExit
    assert main(["beta", "poly(3)", "--d", "3.5"]) == 2
    assert sys.get_int_max_str_digits() == before
    # interpreters before 3.10.7 have no cap to lift
    monkeypatch.delattr(sys, "get_int_max_str_digits")
    assert main(["qdepth", "poly(2)"]) == 0
    assert "qdepth:  2" in capsys.readouterr().out


def test_long_error_lines_keep_head_and_tail(capsys):
    from hilbertdepth.cli import MAX_MESSAGE, main

    long = 100_000
    for argv, tail in (
        (["beta", "poly(3)", "--d", "1" * long], "1111'"),
        (["x" * long], "(choose from 'qdepth', 'beta', 'sqf', 'hyp', 'verify')"),
        (["verify", "y" * long], "yyyy']"),
        (["qdepth", "a" * long + "(1)"], "' at position 0 (expected table or"
                                          " poly or free or ci or shift or sum"
                                          " or scale or extend)"),
        (["sqf", "3", "y" * long], "' at position 0 (expected x<index>)"),
    ):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1 and len(err) < 600
        assert err.startswith("error: ") and err.endswith(tail + "\n")
    # a message of MAX_MESSAGE characters prints whole, one more is cut
    for extra in (0, 1):
        name = "z" * (MAX_MESSAGE - len("unknown batteries ['']") + extra)
        assert main(["verify", name]) == 2
        whole = f"error: unknown batteries [{name!r}]\n"
        assert (capsys.readouterr().err == whole) == (extra == 0)


def test_sqf_max_vars_flag():
    proc = run_cli("sqf", "21", "x1", "0")
    assert proc.returncode == 2  # above the default cap
    proc = run_cli("sqf", "21", "x1", "0", "--max-vars", "22")
    assert proc.returncode == 0
    proc = run_cli("sqf", "2", "x1", "0", "--max-vars", "-3")
    assert_one_line_exit_2(proc, "max_vars must be nonnegative, got -3")
    # a cap of 0 still admits n = 0
    proc = run_cli("sqf", "0", "1", "--max-vars", "0")
    assert proc.returncode == 0 and "alpha: [1]" in proc.stdout


def test_sqf_negative_variable_count_exit_2():
    assert_one_line_exit_2(run_cli("sqf", "-1", "1"), "got n=-1")
    # no variables is valid: the ring K, with alpha [1]
    proc = run_cli("sqf", "0", "1")
    assert proc.returncode == 0 and "alpha: [1]" in proc.stdout
