"""Acceptance gate: every depth law reproduced exactly at desk scale.

All checks are exact integer or rational equalities (no tolerances); the
stated wall-clock limits are asserted where given.  Each test prints one
pass line once its criterion holds.
"""

import json
import time
from fractions import Fraction
from math import comb

from hilbertdepth import (
    beta,
    complete_intersection,
    gauss_2f1,
    polynomial_ring,
    qdepth,
)
from hilbertdepth.verify import DEFAULT_SEED, run_battery

from cli_runner import run_cli


def _announce(number, name):
    print(f"ACCEPTANCE {number} ({name}): PASS")


def test_criterion_01_polynomial_ring_depth():
    start = time.perf_counter()
    for n in range(1, 65):
        result = qdepth(polynomial_ring(n))
        assert result.qdepth == n, f"ring in {n} variables gave {result.qdepth}"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    _announce(1, "polynomial ring depth equals n up to 64")


def test_criterion_02_complete_intersections():
    start = time.perf_counter()
    report = run_battery("ci", max_n=6, max_degree=5)
    elapsed = time.perf_counter() - start
    assert report.passed, report.violations[:5]
    assert report.cases_run == 461  # all degree multisets over [2,5], r <= n <= 6
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _announce(2, "complete intersection depth equals n, all multisets")


def test_criterion_03_sign_positivity():
    start = time.perf_counter()
    report = run_battery("signs", max_n=60)
    elapsed = time.perf_counter() - start
    assert report.passed, report.violations[:5]
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    _announce(3, "strict signs of Gauss values, integer sums, c-table to 60")


def test_criterion_04_beta_identity():
    report = run_battery("beta-identity", max_n=60)
    assert report.passed, report.violations[:5]
    # spot re-check with independent pieces
    for n, k in [(7, 3), (25, 25), (60, 31)]:
        lhs = Fraction(beta(polynomial_ring(n), n, k))
        assert lhs == (-1) ** k * comb(n, k) * gauss_2f1(k, n)
    _announce(4, "beta of the ring equals the closed Gauss form to 60")


def test_criterion_05_derivative_link():
    report = run_battery("e-link", max_n=30)
    assert report.passed, report.violations[:5]
    _announce(5, "integer sums match the c-table diagonal, row 1 matches series")


def test_criterion_06_structural_laws():
    report = run_battery("structural", trials=1000, seed=DEFAULT_SEED)
    assert report.cases_run == 1000
    assert report.passed, report.violations[:5]
    _announce(6, "shift/scale/sum/extension/window/cap/inversion/parity laws")


def test_criterion_07_quotient_depth_match():
    start = time.perf_counter()
    report = run_battery("quotients", trials=500, seed=DEFAULT_SEED, max_n=10)
    elapsed = time.perf_counter() - start
    assert report.cases_run == 500
    assert report.passed, report.violations[:5]
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _announce(7, "alpha-route and function-route depths agree on 500 quotients")


def test_criterion_08_ci_recursion():
    report = run_battery(
        "ci-recursion", trials=200, seed=DEFAULT_SEED, max_n=6, max_degree=6
    )
    assert report.cases_run == 200
    assert report.passed, report.violations[:5]
    _announce(8, "series split and beta decomposition on 200 seeded cases")


def test_criterion_09_free_modules():
    report = run_battery("free", trials=200, seed=DEFAULT_SEED, max_n=6)
    assert report.cases_run == 200
    assert report.passed, report.violations[:5]
    _announce(9, "free module depth equals n - a on 200 seeded instances")


def test_criterion_10_worked_example():
    h = complete_intersection(3, [3])
    result = qdepth(h)
    assert result.qdepth == 3
    assert h.kf is None  # infinite support: the finite-length cap does not apply
    _announce(10, "one cubic in three variables has depth 3, no support cap")


def test_criterion_11_cli_contract():
    clean = run_cli("verify", "--all")
    assert clean.returncode == 0, clean.stdout + clean.stderr
    assert "total violations: 0" in clean.stdout

    broken = run_cli("verify", "--all", "--json", flip=True)
    assert broken.returncode == 1
    payload = json.loads(broken.stdout)
    assert payload["violationCount"] > 0
    descriptors = [
        v["case"] for r in payload["batteries"] for v in r["violations"]
    ]
    assert any("poly(" in c for c in descriptors)  # replayable case names
    _announce(11, "verify --all exits 0; injected sign flip exits 1 with witness")
