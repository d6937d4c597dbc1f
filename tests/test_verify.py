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
from hilbertdepth.depth import FLIP_BETA_ENV, beta, beta_table, reconstruct
from hilbertdepth.report import VerificationReport, Violation
from hilbertdepth.series import scale
from hilbertdepth.verify import (
    BATTERY_NAMES,
    _describe,
    _degree_multisets,
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


# Reference batteries built entry by entry: one beta_table per d, one
# closed-form beta per parity entry and one evaluate per value.  The
# window-at-once batteries must report exactly what these report.


def parity_reference(h, descriptor):
    extended = extend(h)
    k0 = h.k0
    for d in range(k0, k0 + 11):
        lhs = beta(extended, d, d)
        rhs = sum(h.evaluate(m) for m in range(k0, d + 1) if (d - m) % 2 == 0)
        if lhs != rhs:
            return Violation(f"{descriptor} parity d={d}", str(rhs), str(lhs))
    return None


def extension_reference(trials, seed):
    violations = []
    rng = random.Random(seed)
    for case in range(trials):
        h = random_hilbert_function(rng)
        descriptor = f"case {case}: h={_describe(h)}"
        base = qdepth(h).qdepth
        lifted = qdepth(extend(h)).qdepth
        if lifted < base:
            violations.append(
                Violation(f"{descriptor} extension", f">= {base}", str(lifted))
            )
        parity = parity_reference(h, descriptor)
        if parity is not None:
            violations.append(parity)
    return VerificationReport("extension", trials, violations)


def structural_reference(trials, seed):
    violations = []
    rng = random.Random(seed)
    for case in range(trials):
        h = random_hilbert_function(rng)
        other = random_hilbert_function(rng)
        m = rng.randint(-3, 3)
        r = rng.choice((2, 3, 7))
        descriptor = f"case {case}: h={_describe(h)}"
        result = qdepth(h)
        d0 = result.qdepth
        if not result.lower_bound <= d0 <= result.upper_bound:
            violations.append(
                Violation(
                    f"{descriptor} window",
                    f"[{result.lower_bound}, {result.upper_bound}]",
                    str(d0),
                )
            )
        if any(v < 0 for v in result.certificate.values):
            violations.append(
                Violation(f"{descriptor} certificate", ">= 0 entries", "negative entry")
            )
        if (result.refutation is None) != (d0 == result.upper_bound):
            violations.append(
                Violation(
                    f"{descriptor} refutation presence",
                    "absent iff depth = upper bound",
                    repr(result.refutation),
                )
            )
        if result.refutation is not None:
            rd, rk, rb = result.refutation
            if rb >= 0 or beta(h, rd, rk) != rb:
                violations.append(
                    Violation(f"{descriptor} refutation", "negative beta", str(rb))
                )
        if h.kf is not None and d0 > h.kf:
            violations.append(
                Violation(f"{descriptor} support cap", f"<= {h.kf}", str(d0))
            )
        shifted = qdepth(shift(h, m)).qdepth
        if shifted != d0 - m:
            violations.append(
                Violation(f"{descriptor} shift m={m}", str(d0 - m), str(shifted))
            )
        scaled = qdepth(scale(h, r)).qdepth
        if scaled != d0:
            violations.append(
                Violation(f"{descriptor} scale r={r}", str(d0), str(scaled))
            )
        d_other = qdepth(other).qdepth
        d_sum = qdepth(h + other).qdepth
        if d_sum < min(d0, d_other):
            violations.append(
                Violation(
                    f"{descriptor} sum with {_describe(other)}",
                    f">= {min(d0, d_other)}",
                    str(d_sum),
                )
            )
        lifted = qdepth(extend(h)).qdepth
        if lifted < d0:
            violations.append(
                Violation(f"{descriptor} extension", f">= {d0}", str(lifted))
            )
        k0 = h.k0
        for d in range(k0, k0 + 13):
            table = beta_table(h, d)
            bad = next(
                (k for k in range(k0, d + 1) if reconstruct(table, k) != h.evaluate(k)),
                None,
            )
            if bad is not None:
                violations.append(
                    Violation(
                        f"{descriptor} inversion d={d} k={bad}",
                        str(h.evaluate(bad)),
                        str(reconstruct(table, bad)),
                    )
                )
        parity = parity_reference(h, descriptor)
        if parity is not None:
            violations.append(parity)
    return VerificationReport("structural", trials, violations)


def ci_truncation_reference(max_n, max_degree):
    violations = []
    cases = 0
    for n in range(1, max_n + 1):
        for r in range(n):
            for degrees in _degree_multisets(r, max_degree):
                cases += 1
                plain = complete_intersection(n, degrees)
                padded = complete_intersection(n, list(degrees) + [n + 1] * (n - r))
                descriptor = f"n={n} degrees={list(degrees)}"
                for j in range(n + 1):
                    if plain.evaluate(j) != padded.evaluate(j):
                        violations.append(
                            Violation(
                                f"{descriptor} value j={j}",
                                str(plain.evaluate(j)),
                                str(padded.evaluate(j)),
                            )
                        )
                if beta_table(plain, n) != beta_table(padded, n):
                    violations.append(
                        Violation(f"{descriptor} beta row", "equal tables", "differ")
                    )
    return VerificationReport("ci-truncation", cases, violations)


def _same_report(report, reference):
    return report.to_json_dict() == reference.to_json_dict()


@pytest.mark.parametrize("flip", [False, True], ids=["clean", "flipped"])
def test_window_batteries_match_per_entry_reference(monkeypatch, flip):
    if flip:
        monkeypatch.setenv(FLIP_BETA_ENV, "1")
    else:
        monkeypatch.delenv(FLIP_BETA_ENV, raising=False)
    for seed in (271828, 5):
        structural = verify_structural_laws(60, seed)
        assert _same_report(structural, structural_reference(60, seed))
        extension = verify_extension(60, seed)
        assert _same_report(extension, extension_reference(60, seed))
        assert bool(structural.violations) == flip
        assert bool(extension.violations) == flip
    # the hook negates both tables alike, so truncation stays clean
    truncation = verify_ci_truncation(4, 4)
    assert _same_report(truncation, ci_truncation_reference(4, 4))
    assert truncation.passed
