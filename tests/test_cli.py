"""End-to-end command-line contract: outputs, exit codes, JSON stability."""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
FLIP_ENV = "HILBERTDEPTH_FLIP_BETA"


def run_python(*argv, flip=False, timeout=None):
    env = os.environ.copy()
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    env.pop(FLIP_ENV, None)
    if flip:
        env[FLIP_ENV] = "1"
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO,
        timeout=timeout,
    )


def run_cli(*argv, flip=False, timeout=None):
    return run_python("-m", "hilbertdepth", *argv, flip=flip, timeout=timeout)


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


def test_deep_nesting_exit_2():
    proc = run_cli("qdepth", "extend(" * 1200 + "poly(1)" + ")" * 1200)
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
    proc = run_cli("qdepth", "ci(2; 1000000000000000)")
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
    proc = run_cli(
        "verify", "quotients", "--max-n", "1000000000000", "--trials", "3", timeout=20
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert "cap" in proc.stderr and "Traceback" not in proc.stderr


def test_qdepth_stops_at_first_negative_row():
    # a 3e6-wide window whose depth is 1: only rows 0..2 are built
    proc = run_cli("qdepth", "table(0:1,1:3000000)", timeout=20)
    assert proc.returncode == 0
    assert "qdepth:  1" in proc.stdout
    assert "refutation: beta at d=2, k=2 is -2999999" in proc.stdout


def test_hyp_output():
    proc = run_cli("hyp", "2")
    assert proc.returncode == 0
    assert "[1, 0, 2]" in proc.stdout
    proc = run_cli("hyp", "3")
    assert "E(3,2)=6" in proc.stdout and "E(3,3)=36" in proc.stdout
    proc = run_cli("hyp", "1")
    assert proc.returncode == 0
    assert "[1, 0]" in proc.stdout
    proc = run_cli("hyp", "0")
    assert proc.returncode == 2


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


def loaded_by_cli_import(*modules):
    """Those of the modules that a fresh `import hilbertdepth.cli` loads."""
    proc = run_python(
        "-c",
        "import sys, hilbertdepth.cli; "
        f"print(sorted(m for m in {modules!r} if m in sys.modules))",
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_cli_import_loads_no_process_pool():
    assert loaded_by_cli_import("concurrent.futures", "multiprocessing") == "[]"


def test_cli_import_loads_no_dataclasses_or_fractions():
    # Each CLI call starts a fresh interpreter. No command needs dataclasses
    # or inspect, and only the commands that build a Fraction import
    # fractions (and decimal with it), when they build one.
    assert loaded_by_cli_import("dataclasses", "inspect", "fractions", "decimal") == "[]"


def test_flip_hook_fails_verify():
    proc = run_cli("verify", "polyring", flip=True)
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
    proc = run_cli("qdepth", spec)
    assert proc.returncode == 0, proc.stderr
    assert f"[{c2}, 0, {twice}]" in proc.stdout
    proc = run_cli("qdepth", spec, "--json")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["certificate"]["values"] == [c2, "0", twice]


def test_non_ascii_digit_exit_2():
    # '²' is a digit to str.isdigit but not to int()
    assert_one_line_exit_2(run_cli("qdepth", "poly(²)"), "unexpected character")


def test_main_restores_the_digit_cap(monkeypatch, capsys):
    from hilbertdepth.cli import main

    before = sys.get_int_max_str_digits()
    assert main(["qdepth", "poly(2)"]) == 0
    assert sys.get_int_max_str_digits() == before
    # interpreters before 3.10.7 have no cap to lift
    monkeypatch.delattr(sys, "get_int_max_str_digits")
    assert main(["qdepth", "poly(2)"]) == 0
    assert "qdepth:  2" in capsys.readouterr().out


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
