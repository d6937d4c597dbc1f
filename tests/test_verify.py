"""Battery behavior: determinism, coverage, and targeted law checks."""

import random

import pytest

from hilbertdepth import (
    complete_intersection,
    free_module,
    from_table,
    extend,
    qdepth,
    shift,
)
from hilbertdepth.verify import (
    BATTERY_NAMES,
    random_hilbert_function,
    run_battery,
    verify_ci_recursion,
    verify_ci_truncation,
    verify_complete_intersections,
    verify_extension,
    verify_free_modules,
    verify_polynomial_rings,
    verify_quotients,
    verify_structural_laws,
)


def test_every_battery_runs_green():
    for name in BATTERY_NAMES:
        report = run_battery(name, max_n=6, max_degree=4, trials=40, seed=7)
        assert report.passed, (name, report.violations[:3])
        assert report.cases_run > 0


def test_explicit_zero_is_not_the_default():
    assert run_battery("ci").cases_run == 125
    assert run_battery("ci", max_n=0).cases_run == 0
    assert run_battery("polyring", max_n=0).cases_run == 0
    for name in ("free", "quotients"):
        assert run_battery(name, max_n=0).cases_run == 0
        assert run_battery(name, trials=0).cases_run == 0
    for name in BATTERY_NAMES:
        assert run_battery(name, max_n=0, max_degree=0, trials=0).passed


def test_registry_defaults_give_the_all_order_and_counts():
    counts = [run_battery(name).cases_run for name in BATTERY_NAMES]
    assert counts == [16, 125, 100, 35, 100, 150, 250, 150, 325, 350, 238]


def test_aliases_run_their_battery():
    assert run_battery("lemma").to_json_dict() == run_battery("signs").to_json_dict()
    assert (
        run_battery("qq", trials=20, seed=3).to_json_dict()
        == run_battery("quotients", trials=20, seed=3).to_json_dict()
    )


def test_unknown_battery_raises():
    with pytest.raises(ValueError, match="nosuch"):
        run_battery("nosuch")


def test_reports_are_deterministic():
    a = verify_structural_laws(30, 99)
    b = verify_structural_laws(30, 99)
    assert a.cases_run == b.cases_run
    assert a.violations == b.violations
    qa = verify_quotients(25, 5)
    qb = verify_quotients(25, 5)
    assert qa.cases_run == qb.cases_run and qa.violations == qb.violations


def test_polynomial_ring_battery():
    report = verify_polynomial_rings(10)
    assert report.passed and report.cases_run == 10


def test_ci_battery_counts_multisets():
    report = verify_complete_intersections(3, 3)
    # n=1: 1+2; n=2: 1+2+3; n=3: 1+2+3+4
    assert report.cases_run == 3 + 6 + 10
    assert report.passed


def test_ci_recursion_hand_case():
    # n=2, degrees (2,3): lowering gives (2,2), peeling gives (2) in one variable
    full = complete_intersection(2, [2, 3])
    lowered = complete_intersection(2, [2, 2])
    peeled = complete_intersection(1, [2])
    assert full == lowered + shift(peeled, -2)
    report = verify_ci_recursion(60, 17, max_n=6, max_degree=5)
    assert report.passed


def test_ci_truncation_hand_case():
    plain = complete_intersection(2, [2])
    padded = complete_intersection(2, [2, 3])
    for j in range(3):
        assert plain.evaluate(j) == padded.evaluate(j)
    report = verify_ci_truncation(5, 4)
    assert report.passed


def test_free_module_cases():
    # S(0)^2 + S(-1) in two variables
    assert qdepth(free_module(2, [0, 0, -1])).qdepth == 2
    # S(1) + S(-1) in three variables
    assert qdepth(free_module(3, [1, -1])).qdepth == 2
    report = verify_free_modules(80, 3, max_n=5)
    assert report.passed


def test_extension_battery_and_examples():
    assert qdepth(extend(from_table({0: 1}))).qdepth == 1
    report = verify_extension(60, 23)
    assert report.passed


def test_structural_battery():
    report = verify_structural_laws(120, 41)
    assert report.passed, report.violations[:3]
    assert report.cases_run == 120


def test_quotient_battery():
    report = verify_quotients(60, 11, max_n=8)
    assert report.passed
    assert report.cases_run == 60


def test_random_pool_is_reproducible():
    pool_a = [random_hilbert_function(random.Random(6)) for _ in range(1)]
    pool_b = [random_hilbert_function(random.Random(6)) for _ in range(1)]
    assert pool_a == pool_b
    rng = random.Random(8)
    shapes = {random_hilbert_function(rng).denom_power for _ in range(60)}
    assert len(shapes) > 1  # both finite and infinite support appear
