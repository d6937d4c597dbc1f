"""Battery behavior: determinism, coverage, and targeted law checks."""

import inspect
import random
import re
from fractions import Fraction
from math import comb

import pytest

from hilbertdepth import (
    complete_intersection,
    depth,
    free_module,
    from_table,
    extend,
    hypergeometric,
    parse_function,
    polynomial_ring,
    qdepth,
    shift,
    verify,
)
from hilbertdepth.depth import BetaTable
from hilbertdepth.errors import OutOfRangeError
from hilbertdepth.hypergeometric import gauss_2f1
from hilbertdepth.report import VerificationReport, Violation, equality_law, reporter
from hilbertdepth.series import scale
from hilbertdepth.verify import (
    BATTERIES,
    _describe,
    _degree_multisets,
    random_hilbert_function,
    run_battery,
)

from closed_form import closed_form_beta, closed_form_reconstruct, closed_form_row


def test_every_battery_runs_green():
    for name in BATTERIES:
        report = run_battery(name, max_n=6, max_degree=4, trials=40, seed=7)
        assert report.passed, (name, report.violations[:3])
        assert report.cases_run > 0


def test_explicit_zero_is_not_the_default():
    assert run_battery("ci").cases_run == 125
    assert run_battery("ci", max_n=0).cases_run == 0
    assert run_battery("polyring", max_n=0).cases_run == 0
    for name in ("ci-recursion", "free", "quotients"):
        assert run_battery(name, max_n=0).cases_run == 0
        assert run_battery(name, trials=0).cases_run == 0
    assert run_battery("ci-recursion", max_n=1).cases_run == 0
    assert run_battery("ci-recursion", max_degree=2).cases_run == 0
    for name in BATTERIES:
        assert run_battery(name, max_n=0, max_degree=0, trials=0).passed


def test_negative_ranges_are_rejected():
    for name in BATTERIES:
        for param in ("max_n", "max_degree", "trials"):
            with pytest.raises(OutOfRangeError, match=param):
                run_battery(name, **{param: -1})
    # a negative seed is only a seed
    assert run_battery("structural", trials=3, seed=-7).cases_run == 3


def test_equality_law_counts_every_triple_and_reports_each_difference():
    assert equality_law(iter(())) == (0, [])
    # an int equals the equal Fraction: no violation
    assert equality_law([("same", Fraction(6, 2), 3)]) == (1, [])
    cases = [
        ("a", 1, 1),
        ("b", Fraction(1, 2), 1),
        ("c", "x", "x"),
        ("d", 3, Fraction(-7, 3)),
        ("e", 10**20, 10**20 + 1),
    ]
    assert equality_law(iter(cases)) == (
        5,
        [
            Violation("b", "1/2", "1"),
            Violation("d", "3", "-7/3"),
            Violation("e", str(10**20), str(10**20 + 1)),
        ],
    )


def test_reporter_builds_its_prefix_only_on_a_failure():
    violations, prefixes = [], []

    def prefix():
        prefixes.append(len(violations))
        return f"case {len(prefixes)}:"

    fail = reporter(violations, prefix)
    assert violations == [] and prefixes == []
    fail("law a", 1, Fraction(1, 2))
    fail("law b", "> 0", -10**20)
    fail("law c", ">= 3", 2)
    assert violations == [
        Violation("case 1: law a", "1", "1/2"),
        Violation("case 2: law b", "> 0", str(-10**20)),
        Violation("case 3: law c", ">= 3", "2"),
    ]
    assert prefixes == [0, 1, 2]


def test_registry_defaults_give_the_all_order_and_counts():
    counts = [run_battery(name).cases_run for name in BATTERIES]
    assert counts == [16, 125, 100, 35, 100, 150, 250, 150, 325, 350, 238]


def test_batteries_table_is_the_one_source_of_parameters():
    for name, (battery, defaults) in BATTERIES.items():
        params = inspect.signature(battery).parameters.values()
        assert [p.name for p in params] == list(defaults), name
        assert all(p.default is inspect.Parameter.empty for p in params), name


def test_batteries_take_their_defaults_by_name(monkeypatch):
    battery, defaults = BATTERIES["free"]
    expected = run_battery("free")
    reordered = dict(reversed(defaults.items()))
    monkeypatch.setitem(BATTERIES, "free", (battery, reordered))
    assert _same_report(run_battery("free"), expected)


def test_unknown_battery_raises():
    for name in ("nosuch", "lemma"):
        with pytest.raises(ValueError, match=name):
            run_battery(name)


def test_reports_are_deterministic():
    a = run_battery("structural", trials=30, seed=99)
    b = run_battery("structural", trials=30, seed=99)
    assert a.cases_run == b.cases_run
    assert a.violations == b.violations
    qa = run_battery("quotients", trials=25, seed=5)
    qb = run_battery("quotients", trials=25, seed=5)
    assert qa.cases_run == qb.cases_run and qa.violations == qb.violations


def test_polynomial_ring_battery():
    report = run_battery("polyring", max_n=10)
    assert report.passed and report.cases_run == 10


def test_ci_battery_counts_multisets():
    report = run_battery("ci", max_n=3, max_degree=3)
    # n=1: 1+2; n=2: 1+2+3; n=3: 1+2+3+4
    assert report.cases_run == 3 + 6 + 10
    assert report.passed


def test_ci_recursion_hand_case():
    # n=2, degrees (2,3): lowering gives (2,2), peeling gives (2) in one variable
    full = complete_intersection(2, [2, 3])
    lowered = complete_intersection(2, [2, 2])
    peeled = complete_intersection(1, [2])
    assert full == lowered + shift(peeled, -2)
    report = run_battery(
        "ci-recursion", trials=60, seed=17, max_n=6, max_degree=5
    )
    assert report.passed


def test_ci_truncation_hand_case():
    plain = complete_intersection(2, [2])
    padded = complete_intersection(2, [2, 3])
    for j in range(3):
        assert plain.evaluate(j) == padded.evaluate(j)
    report = run_battery("ci-truncation", max_n=5, max_degree=4)
    assert report.passed


def test_ci_truncation_reports_a_value_and_its_row(monkeypatch):
    # the padded form of n=2 degrees=[2] built as ci(2; 2, 2): its values
    # on [0, 2] are 1, 2, 1 against 1, 2, 2, so j = 2 and the row differ
    def faulty(n, degrees):
        if (n, list(degrees)) == (2, [2, 3]):
            degrees = [2, 2]
        return complete_intersection(n, degrees)

    monkeypatch.setattr(verify, "complete_intersection", faulty)
    report = run_battery("ci-truncation", max_n=3, max_degree=3)
    assert report.cases_run == 1 + 3 + 6
    assert report.violations == [
        Violation("n=2 degrees=[2] value j=2", "2", "1"),
        Violation("n=2 degrees=[2] beta row", "equal tables", "differ"),
    ]


def test_free_module_cases():
    # S(0)^2 + S(-1) in two variables
    assert qdepth(free_module(2, [0, 0, -1])).qdepth == 2
    # S(1) + S(-1) in three variables
    assert qdepth(free_module(3, [1, -1])).qdepth == 2
    report = run_battery("free", trials=80, seed=3, max_n=5)
    assert report.passed


def test_extension_battery_and_examples():
    assert qdepth(extend(from_table({0: 1}))).qdepth == 1
    report = run_battery("extension", trials=60, seed=23)
    assert report.passed


def test_structural_battery():
    report = run_battery("structural", trials=120, seed=41)
    assert report.passed, report.violations[:3]
    assert report.cases_run == 120


def test_quotient_battery():
    report = run_battery("quotients", trials=60, seed=11, max_n=8)
    assert report.passed
    assert report.cases_run == 60


def test_quotient_battery_rejects_max_n_past_the_default_cap(monkeypatch):
    # seed 1 draws only n <= 20 from [1, 22], so the cap must be checked
    # on max_n itself, before any case is drawn
    drawn = []
    monkeypatch.setattr(verify, "random_quotient", lambda *a: drawn.append(a))
    with pytest.raises(OutOfRangeError, match="max_n=22 exceeds the variable cap 20"):
        run_battery("quotients", trials=2, seed=1, max_n=22)
    assert drawn == []
    monkeypatch.undo()
    assert run_battery("quotients", trials=2, seed=1, max_n=20).passed


def test_random_pool_is_reproducible():
    pool_a = [random_hilbert_function(random.Random(6)) for _ in range(1)]
    pool_b = [random_hilbert_function(random.Random(6)) for _ in range(1)]
    assert pool_a == pool_b
    rng = random.Random(8)
    shapes = {random_hilbert_function(rng).denom_power for _ in range(60)}
    assert len(shapes) > 1  # both finite and infinite support appear


# Reference batteries built entry by entry on the closed-form beta (with
# ``flip`` standing in for the fault hook) and one evaluate per value, so
# they never run the package's kernel.  The window-at-once batteries must
# report exactly what these report.


def ci_recursion_reference(trials, seed, flip, max_n=6, max_degree=6):
    violations = []
    rng = random.Random(seed)
    trials = trials if max_n >= 2 and max_degree >= 3 else 0
    for case in range(trials):
        n = rng.randint(2, max_n)
        degrees = [rng.randint(2, max_degree) for _ in range(n - 1)]
        degrees.append(rng.randint(3, max_degree))
        dn = degrees[-1]
        descriptor = f"case {case}: n={n} degrees={degrees}"
        h_full = complete_intersection(n, degrees)
        h_lowered = complete_intersection(n, degrees[:-1] + [dn - 1])
        h_smaller = complete_intersection(n - 1, degrees[:-1])
        recombined = h_lowered + shift(h_smaller, -(dn - 1))
        if h_full != recombined:
            violations.append(
                Violation(f"{descriptor} series", repr(h_full), repr(recombined))
            )
            continue
        for k in range(n + 1):
            lhs = closed_form_beta(h_full, n, k, flip)
            rhs = closed_form_beta(h_lowered, n, k, flip)
            if k >= dn - 1:
                rhs += closed_form_beta(h_smaller, n - dn + 1, k - dn + 1, flip)
            if lhs != rhs:
                violations.append(
                    Violation(f"{descriptor} beta k={k}", str(rhs), str(lhs))
                )
    return VerificationReport("ci-recursion", trials, violations)


def parity_reference(h, descriptor, flip):
    extended = extend(h)
    k0 = h.k0
    for d in range(k0, k0 + 11):
        lhs = closed_form_beta(extended, d, d, flip)
        rhs = sum(h.evaluate(m) for m in range(k0, d + 1) if (d - m) % 2 == 0)
        if lhs != rhs:
            return Violation(f"{descriptor} parity d={d}", str(rhs), str(lhs))
    return None


def extension_reference(trials, seed, flip):
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
        parity = parity_reference(h, descriptor, flip)
        if parity is not None:
            violations.append(parity)
    return VerificationReport("extension", trials, violations)


def structural_reference(trials, seed, flip):
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
            if rb >= 0 or closed_form_beta(h, rd, rk, flip) != rb:
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
            row = tuple(closed_form_row(h, d, flip))
            recovered = closed_form_reconstruct(BetaTable(d, k0, row))
            bad = next(
                (k for k in range(k0, d + 1) if recovered[k - k0] != h.evaluate(k)),
                None,
            )
            if bad is not None:
                violations.append(
                    Violation(
                        f"{descriptor} inversion d={d} k={bad}",
                        str(h.evaluate(bad)),
                        str(recovered[bad - k0]),
                    )
                )
        parity = parity_reference(h, descriptor, flip)
        if parity is not None:
            violations.append(parity)
    return VerificationReport("structural", trials, violations)


def ci_truncation_reference(max_n, max_degree, flip):
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
                if closed_form_row(plain, n, flip) != closed_form_row(padded, n, flip):
                    violations.append(
                        Violation(f"{descriptor} beta row", "equal tables", "differ")
                    )
    return VerificationReport("ci-truncation", cases, violations)


def polyring_reference(max_n):
    violations = []
    for n in range(1, max_n + 1):
        depth = qdepth(polynomial_ring(n)).qdepth
        if depth != n:
            violations.append(Violation(f"poly({n})", str(n), str(depth)))
    return VerificationReport("polyring", max_n, violations)


def ci_reference(max_n, max_degree):
    violations = []
    cases = 0
    for n in range(1, max_n + 1):
        for r in range(n + 1):
            for degrees in _degree_multisets(r, max_degree):
                cases += 1
                depth = qdepth(complete_intersection(n, degrees)).qdepth
                if depth != n:
                    violations.append(
                        Violation(f"n={n} degrees={list(degrees)}", str(n), str(depth))
                    )
    return VerificationReport("ci", cases, violations)


def free_reference(trials, seed, max_n):
    violations = []
    rng = random.Random(seed)
    trials = trials if max_n >= 1 else 0
    for case in range(trials):
        n = rng.randint(1, max_n)
        a = rng.randint(-4, 4)
        n1 = rng.randint(1, 3)
        n2 = rng.randint(0, n1 - 1)
        tail = [a - 2 - rng.randint(0, 3) for _ in range(rng.randint(0, 3))]
        depth = qdepth(free_module(n, [a] * n1 + [a - 1] * n2 + tail)).qdepth
        if depth != n - a:
            violations.append(
                Violation(
                    f"case {case}: n={n} a={a} n1={n1} n2={n2} tail={tail}",
                    str(n - a),
                    str(depth),
                )
            )
    return VerificationReport("free", trials, violations)


def beta_identity_reference(max_n, flip):
    violations = []
    cases = 0
    for n in range(1, max_n + 1):
        ring = polynomial_ring(n)
        for k in range(n + 1):
            cases += 1
            gauss = (-1) ** k * comb(n, k) * gauss_2f1(k, n)
            kernel = closed_form_beta(ring, n, k, flip)
            if kernel != gauss:
                violations.append(Violation(f"n={n} k={k}", str(gauss), str(kernel)))
    return VerificationReport("beta-identity", cases, violations)


def _same_report(report, reference):
    return report.to_json_dict() == reference.to_json_dict()


@pytest.mark.parametrize("flip", [False, True], ids=["clean", "flipped"])
def test_window_batteries_match_per_entry_reference(monkeypatch, flip):
    monkeypatch.setattr(depth, "FLIP", flip)
    for seed in (271828, 5):
        structural = run_battery("structural", trials=60, seed=seed)
        assert _same_report(structural, structural_reference(60, seed, flip))
        extension = run_battery("extension", trials=60, seed=seed)
        assert _same_report(extension, extension_reference(60, seed, flip))
        assert bool(structural.violations) == flip
        assert bool(extension.violations) == flip
        recursion = run_battery("ci-recursion", trials=100, seed=seed)
        assert _same_report(recursion, ci_recursion_reference(100, seed, flip))
        wide = run_battery("ci-recursion", trials=60, seed=seed, max_n=9, max_degree=9)
        assert _same_report(wide, ci_recursion_reference(60, seed, flip, 9, 9))
    # the hook negates both tables alike, so truncation stays clean
    truncation = run_battery("ci-truncation", max_n=4, max_degree=4)
    assert _same_report(truncation, ci_truncation_reference(4, 4, flip))
    assert truncation.passed


@pytest.mark.parametrize("flip", [False, True], ids=["clean", "flipped"])
def test_depth_law_batteries_match_per_case_reference(monkeypatch, flip):
    monkeypatch.setattr(depth, "FLIP", flip)
    for max_n in (0, 1, 3, 9):
        report = run_battery("polyring", max_n=max_n)
        assert _same_report(report, polyring_reference(max_n))
    for max_n, max_degree in ((0, 4), (1, 2), (2, 6), (4, 3), (6, 2)):
        report = run_battery("ci", max_n=max_n, max_degree=max_degree)
        assert _same_report(report, ci_reference(max_n, max_degree))
    for seed in (5, 31):
        for trials, max_n in ((0, 6), (30, 0), (40, 1), (60, 3), (80, 9)):
            report = run_battery("free", trials=trials, seed=seed, max_n=max_n)
            assert _same_report(report, free_reference(trials, seed, max_n))
        wide = run_battery("free", trials=80, seed=seed, max_n=9)
        assert bool(wide.violations) == flip
    assert bool(run_battery("polyring", max_n=9).violations) == flip
    assert bool(run_battery("ci", max_n=4, max_degree=3).violations) == flip


@pytest.mark.parametrize("flip", [False, True], ids=["clean", "flipped"])
def test_beta_identity_matches_per_entry_reference(monkeypatch, flip):
    monkeypatch.setattr(depth, "FLIP", flip)
    for max_n in (0, 1, 2, 7, 25):
        report = run_battery("beta-identity", max_n=max_n)
        assert _same_report(report, beta_identity_reference(max_n, flip))
    assert bool(run_battery("beta-identity", max_n=2).violations) == flip


def test_beta_identity_builds_one_row_per_n(monkeypatch):
    rows = []
    clean = hypergeometric.beta_table

    def counted(h, d):
        rows.append(d)
        return clean(h, d)

    monkeypatch.setattr(depth, "FLIP", False)
    monkeypatch.setattr(hypergeometric, "beta_table", counted)
    assert run_battery("beta-identity", max_n=25).cases_run == 350
    assert rows == list(range(1, 26))


@pytest.mark.parametrize("flip", [False, True], ids=["clean", "flipped"])
def test_no_battery_calls_beta(monkeypatch, flip):
    # every battery reads its kernel entries off rows it builds anyway, so
    # a ``beta`` that raises changes no report
    monkeypatch.setattr(depth, "FLIP", flip)
    before = {name: run_battery(name).to_json_dict() for name in BATTERIES}

    def refused(h, d, k):
        raise AssertionError(f"beta called at d={d}, k={k}")

    for module in (depth, verify, hypergeometric):
        monkeypatch.setattr(module, "beta", refused)
    assert {name: run_battery(name).to_json_dict() for name in BATTERIES} == before


def test_structural_reads_a_far_refutation_off_one_row(monkeypatch):
    # depth 13 and refutation (14, 14) lie past the 13 rows k0..k0 + 12 each
    # case walks, so the refutation's entry comes from one ``beta_table``
    h = parse_function("sum(poly(14),table(13:1000000000))")
    result = qdepth(h)
    assert (h.k0, result.qdepth, result.refutation[:2]) == (0, 13, (14, 14))
    rows = []
    clean = verify.beta_table

    def counted(g, d):
        rows.append(d)
        return clean(g, d)

    monkeypatch.setattr(depth, "FLIP", False)
    monkeypatch.setattr(verify, "beta_table", counted)
    monkeypatch.setattr(verify, "random_hilbert_function", lambda rng: h)
    assert run_battery("structural", trials=3).passed
    assert rows == [14, 14, 14]
    _result_fault(_refutation_off_by_one)(monkeypatch)
    cases = [v.case for v in run_battery("structural", trials=3).violations]
    assert cases == [f"case {i}: h={_describe(h)} refutation" for i in range(3)]


def test_batteries_check_the_kernel(monkeypatch):
    # a kernel whose diagonal at row start + 3 is off by one, carried into
    # the rows after it: the closed-form Gauss check and the inversion check
    # must both see it
    clean = depth._rows

    def mutant(evals, start):
        for d, row in clean(evals, start):
            if d == start + 3:
                row[-1] += 1
            yield d, row

    monkeypatch.setattr(depth, "FLIP", False)
    monkeypatch.setattr(depth, "_rows", mutant)
    assert run_battery("beta-identity").violations
    assert run_battery("structural").violations


def test_structural_checks_the_inversion(monkeypatch):
    # an inverse that shifts the third recovered entry of every row with 5
    # or more entries: rows d = k0 + 4..k0 + 12 of each case must fail the
    # inversion law at k = k0 + 2, and no other law may fail
    clean = verify.reconstruct

    def mutant(table):
        recovered = clean(table)
        if len(recovered) >= 5:
            recovered[2] += 1
        return recovered

    monkeypatch.setattr(depth, "FLIP", False)
    monkeypatch.setattr(verify, "reconstruct", mutant)
    report = run_battery("structural", trials=20)
    assert len(report.violations) == 20 * 9
    for violation in report.violations:
        law = re.search(r" inversion d=(-?\d+) k=(-?\d+)$", violation.case)
        assert law, violation.case
        d, k = map(int, law.groups())
        assert 2 <= d - k <= 10
        assert int(violation.actual) == int(violation.expected) + 1


def test_clean_batteries_build_no_descriptor(monkeypatch):
    # a case's descriptor, and a random case's JSON of h, is built only when
    # one of its laws fails
    calls, prefixes = [], []

    def counted(h):
        calls.append(h)
        return _describe(h)

    def counted_reporter(violations, prefix):
        def counted_prefix():
            prefixes.append(prefix)
            return prefix()

        return reporter(violations, counted_prefix)

    monkeypatch.setattr(depth, "FLIP", False)
    monkeypatch.setattr(verify, "_describe", counted)
    for module in (verify, hypergeometric):
        monkeypatch.setattr(module, "reporter", counted_reporter)
    for name in BATTERIES:
        assert run_battery(name).passed
    assert calls == [] and prefixes == []
    monkeypatch.setattr(depth, "FLIP", True)
    assert not run_battery("structural", trials=5).passed
    assert calls and prefixes


def _result_fault(change):
    """A fault on ``verify.qdepth``: each result comes back through ``change``."""
    def install(monkeypatch):
        clean = verify.qdepth
        monkeypatch.setattr(verify, "qdepth", lambda h: change(clean(h)))
    return install


def _shift_fault(offset):
    """A fault on ``verify.shift``: every shift moves ``offset`` degrees too far."""
    def install(monkeypatch):
        monkeypatch.setattr(verify, "shift", lambda h, m: shift(h, m + offset))
    return install


def _scale_fault(monkeypatch):
    # a scaled function that comes back shifted up by one degree
    monkeypatch.setattr(verify, "scale", lambda h, r: shift(scale(h, r), -1))


def _negative_first_entry(result):
    values = result.certificate.values
    return result._replace(
        certificate=result.certificate._replace(values=(-1, *values[1:]))
    )


def _refutation_off_by_one(result):
    if result.refutation is None:
        return result
    d, k, b = result.refutation
    return result._replace(refutation=(d, k, b - 1))


# (battery, law descriptor at the end of a violation's case, fault): each
# fault breaks the law its row names, so a battery that lost that check
# would report nothing for it
_VACUITY_CASES = [
    pytest.param(
        "structural", r" window",
        _result_fault(lambda r: r._replace(lower_bound=r.qdepth + 1)), id="window",
    ),
    pytest.param(
        "structural", r" certificate", _result_fault(_negative_first_entry),
        id="certificate",
    ),
    pytest.param(
        "structural", r" refutation presence",
        _result_fault(lambda r: r._replace(refutation=None)), id="refutation-presence",
    ),
    pytest.param(
        "structural", r" refutation", _result_fault(_refutation_off_by_one),
        id="refutation",
    ),
    pytest.param(
        "structural", r" support cap",
        _result_fault(lambda r: r._replace(qdepth=r.qdepth + 100)), id="support-cap",
    ),
    pytest.param("structural", r" shift m=-?\d+", _shift_fault(1), id="shift"),
    pytest.param("structural", r" scale r=\d+", _scale_fault, id="scale"),
    pytest.param("ci-recursion", r" series", _shift_fault(-1), id="series"),
]


@pytest.mark.parametrize("battery, law, fault", _VACUITY_CASES)
def test_no_battery_check_is_vacuous(monkeypatch, battery, law, fault):
    # checks that no clean or flipped run reaches: each must still report
    # the fault that breaks its law
    monkeypatch.setattr(depth, "FLIP", False)
    fault(monkeypatch)
    cases = [v.case for v in run_battery(battery, trials=12).violations]
    assert any(re.search(law + "$", case) for case in cases), cases[:5]
