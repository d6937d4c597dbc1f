"""End-to-end command-line contract: outputs, exit codes, JSON stability."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
FLIP_ENV = "HILBERTDEPTH_FLIP_BETA"


def run_python(*argv, flip=False):
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
    )


def run_cli(*argv, flip=False):
    return run_python("-m", "hilbertdepth", *argv, flip=flip)


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
    proc = run_cli("qdepth", "table(0:1,1:1)", "--d=1")
    assert proc.returncode == 0
    assert "[1, 0]" in proc.stdout


def test_qdepth_beta_flag_matches_beta_subcommand():
    for extra in ((), ("--json",)):
        via_qdepth = run_cli("qdepth", "ci(3; 2, 3)", "--d", "4", *extra)
        via_beta = run_cli("beta", "ci(3; 2, 3)", "--d", "4", *extra)
        assert via_qdepth.returncode == via_beta.returncode == 0
        assert via_qdepth.stdout == via_beta.stdout


def test_beta_subcommand():
    proc = run_cli("beta", "poly(1)", "--d=1")
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


def test_verify_aliases():
    proc = run_cli("verify", "lemma", "--max-n", "6")
    assert proc.returncode == 0
    proc = run_cli("verify", "qq", "--trials", "20", "--max-n", "5", "--seed", "1")
    assert proc.returncode == 0


def test_verify_explicit_zero_range():
    proc = run_cli("verify", "ci", "--max-n", "0", "--json")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["batteries"][0]["casesRun"] == 0


def test_verify_requires_selection():
    proc = run_cli("verify")
    assert proc.returncode == 2
    proc = run_cli("verify", "nosuch")
    assert proc.returncode == 2


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

    h = HilbertFunction.from_json_dict(data["function"])
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


def test_cli_import_loads_no_process_pool():
    proc = run_python(
        "-c",
        "import sys, hilbertdepth.cli; "
        "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') "
        "if m in sys.modules))",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_flip_hook_fails_verify():
    proc = run_cli("verify", "polyring", flip=True)
    assert proc.returncode == 1
    assert "violation" in proc.stdout
    assert "poly(2)" in proc.stdout  # replayable descriptor


def test_sqf_max_vars_flag():
    proc = run_cli("sqf", "21", "x1", "0")
    assert proc.returncode == 2  # above the default cap
    proc = run_cli("sqf", "21", "x1", "0", "--max-vars", "22")
    assert proc.returncode == 0
