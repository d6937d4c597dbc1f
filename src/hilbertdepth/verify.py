"""Desk-scale verification batteries for the depth laws.

Every battery is deterministic given its parameters (random ones take an
explicit seed) and returns its case count and its violations, with
descriptors detailed enough to replay the case by hand.  ``BATTERIES`` is
the one table of batteries: it holds each one's name, parameters and
default ranges, and ``run_battery`` builds the report from it, with the
table key as the report's name and the time of the call as its elapsed
time.

Each kind of law is checked in one place, and every violation is built
in ``report``.  ``report.equality_law`` checks every law between two exact
sides: ``_depth_law`` feeds it ``qdepth`` on the (descriptor, h, expected
depth) cases that ``polyring``, ``ci`` and ``free`` generate, and
``beta-identity`` and ``e-link`` feed it their kernel, Gauss and table
sides.  Every other battery reports each failed law through a
``report.reporter`` whose prefix replays the case: the case number and h
as JSON for ``extension`` and ``structural``, n and the degrees for
``ci-recursion`` and ``ci-truncation``, n and the seed for ``quotients``.
The prefix is built only when a law fails.  A law that two batteries check
has one helper, which both call with their reporter: ``_extension_law``
(qdepth(extend(h)) >= qdepth(h)) and ``_parity_law`` serve ``extension``
and ``structural``.

No battery calls ``depth.beta``, which builds a whole row for one entry.
Each reads every kernel entry it checks off rows it builds anyway: one
``beta_table`` row per function, or one ``beta_rows`` pass over a window.
"""

from __future__ import annotations

import itertools
import json
import random
import time

# ``beta`` has no caller here: perfbench/spans.py traces this binding.
from .depth import BetaTable, beta, beta_rows, beta_table, qdepth, reconstruct
from .errors import GenerationFailedError, OutOfRangeError
from .hypergeometric import (
    check_beta_identity,
    check_derivative_link,
    check_sign_positivity,
)
from .report import VerificationReport, Violation, equality_law, reporter
from .series import (
    HilbertFunction,
    complete_intersection,
    extend,
    free_module,
    from_table,
    polynomial_ring,
    scale,
    shift,
)
from .squarefree import (
    DEFAULT_VARIABLE_CAP,
    check_qdepth_match,
    format_ideal,
    random_quotient,
)

DEFAULT_SEED = 271828


def _describe(h: HilbertFunction) -> str:
    return json.dumps(h.to_json_dict(), sort_keys=True, separators=(",", ":"))


def random_hilbert_function(rng: random.Random, depth: int = 2) -> HilbertFunction:
    """Mixed pool: finite tables, rings, complete intersections, free
    modules, and shifted/scaled/extended/summed combinations of those."""
    shapes = ["table", "table", "poly", "ci", "free"]
    if depth > 0:
        shapes += ["shift", "scale", "extend", "add"]
    shape = rng.choice(shapes)
    if shape == "table":
        start = rng.randint(-4, 4)
        length = rng.randint(1, 5)
        values = [rng.randint(1, 6)] + [rng.randint(0, 6) for _ in range(length - 1)]
        return from_table({start + i: v for i, v in enumerate(values)})
    if shape == "poly":
        return polynomial_ring(rng.randint(1, 5))
    if shape == "ci":
        n = rng.randint(1, 5)
        r = rng.randint(0, n)
        return complete_intersection(n, [rng.randint(2, 4) for _ in range(r)])
    if shape == "free":
        n = rng.randint(1, 4)
        shifts = [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]
        return free_module(n, shifts)
    if shape == "shift":
        return shift(random_hilbert_function(rng, depth - 1), rng.randint(-3, 3))
    if shape == "scale":
        return scale(random_hilbert_function(rng, depth - 1), rng.randint(1, 3))
    if shape == "extend":
        return extend(random_hilbert_function(rng, depth - 1))
    return random_hilbert_function(rng, depth - 1) + random_hilbert_function(
        rng, depth - 1
    )


def _degree_multisets(r: int, dmax: int):
    return itertools.combinations_with_replacement(range(2, dmax + 1), r)


def _depth_law(cases) -> tuple[int, list[Violation]]:
    """qdepth(h) equals the expected depth on every (descriptor, h,
    expected) case of the stream, by ``equality_law``."""
    return equality_law((case, depth, qdepth(h).qdepth) for case, h, depth in cases)


def verify_polynomial_rings(max_n: int) -> tuple[int, list[Violation]]:
    """Depth of the n-variable ring is n, for every n up to max_n."""
    return _depth_law(
        (f"poly({n})", polynomial_ring(n), n) for n in range(1, max_n + 1)
    )


def verify_complete_intersections(
    max_n: int, max_degree: int
) -> tuple[int, list[Violation]]:
    """Depth n for every complete intersection with 0 <= r <= n forms of
    degrees in [2, max_degree], enumerated as multisets."""
    return _depth_law(
        (f"n={n} degrees={list(degrees)}", complete_intersection(n, degrees), n)
        for n in range(1, max_n + 1)
        for r in range(n + 1)
        for degrees in _degree_multisets(r, max_degree)
    )


def verify_ci_recursion(
    trials: int, seed: int, max_n: int, max_degree: int
) -> tuple[int, list[Violation]]:
    """Peeling one degree off a complete intersection.

    With degrees (d_1..d_n), d_n >= 3: the function equals the one with d_n
    lowered by 1 plus the (n-1)-variable one with d_n removed and shifted up
    by d_n - 1, both as canonical forms and entrywise on the beta row at n,
    where the shifted summand only enters for k >= d_n - 1.  Each of the
    three functions gives one kernel row, read from one window; the smaller
    one's row at n - d_n + 1 exists only when d_n <= n + 1.  With n in
    [2, max_n] and d_n in [3, max_degree], an empty range gives no cases.
    """
    violations = []
    rng = random.Random(seed)
    trials = trials if max_n >= 2 and max_degree >= 3 else 0
    for case in range(trials):
        n = rng.randint(2, max_n)
        degrees = [rng.randint(2, max_degree) for _ in range(n - 1)]
        degrees.append(rng.randint(3, max_degree))
        dn = degrees[-1]
        fail = reporter(violations, lambda: f"case {case}: n={n} degrees={degrees}")
        h_full = complete_intersection(n, degrees)
        h_lowered = complete_intersection(n, degrees[:-1] + [dn - 1])
        h_smaller = complete_intersection(n - 1, degrees[:-1])
        recombined = h_lowered + shift(h_smaller, -(dn - 1))
        if h_full != recombined:
            fail("series", h_full, recombined)
            continue
        full = beta_table(h_full, n)
        lowered = beta_table(h_lowered, n)
        smaller = beta_table(h_smaller, n - dn + 1) if dn <= n + 1 else None
        for k in range(n + 1):
            lhs = full.value(k)
            rhs = lowered.value(k)
            if k >= dn - 1:
                rhs += smaller.value(k - dn + 1)
            if lhs != rhs:
                fail(f"beta k={k}", rhs, lhs)
    return trials, violations


def verify_ci_truncation(max_n: int, max_degree: int) -> tuple[int, list[Violation]]:
    """Padding a complete intersection with forms of degree n + 1 leaves the
    values on [0, n], and hence the beta row at n, unchanged."""
    violations = []
    cases = 0
    for n in range(1, max_n + 1):
        for r in range(n):
            for degrees in _degree_multisets(r, max_degree):
                cases += 1
                plain = complete_intersection(n, degrees)
                padded = complete_intersection(
                    n, list(degrees) + [n + 1] * (n - r)
                )
                fail = reporter(violations, lambda: f"n={n} degrees={list(degrees)}")
                pairs = zip(plain.values(0, n), padded.values(0, n))
                for j, (a, b) in enumerate(pairs):
                    if a != b:
                        fail(f"value j={j}", a, b)
                if beta_table(plain, n) != beta_table(padded, n):
                    fail("beta row", "equal tables", "differ")
    return cases, violations


def verify_free_modules(
    trials: int, seed: int, max_n: int
) -> tuple[int, list[Violation]]:
    """Graded free modules S(a)^n1 + S(a-1)^n2 + sum_j S(a_j) with n1 > n2
    and a >= a_j + 2 have depth n - a.  n is drawn from [1, max_n], so an
    empty range gives no cases."""
    rng = random.Random(seed)

    def cases():
        for case in range(trials if max_n >= 1 else 0):
            n = rng.randint(1, max_n)
            a = rng.randint(-4, 4)
            n1 = rng.randint(1, 3)
            n2 = rng.randint(0, n1 - 1)
            tail = [a - 2 - rng.randint(0, 3) for _ in range(rng.randint(0, 3))]
            shifts = [a] * n1 + [a - 1] * n2 + tail
            descriptor = f"case {case}: n={n} a={a} n1={n1} n2={n2} tail={tail}"
            yield descriptor, free_module(n, shifts), n - a

    return _depth_law(cases())


def _parity_law(evals: list[int], extended: HilbertFunction, fail) -> None:
    """Top entry of the extended function's beta row at d equals the sum of
    h over degrees of the same parity as d, for d = k0..k0 + 10; the first
    d where it fails goes to the case's reporter ``fail``.

    The caller passes what it already has: h's values evals[j - k0] = h(j)
    from at least k0 to k0 + 10, and ``extended`` = extend(h), which it also
    checks for depth and which keeps h's numerator, hence its k0.  The left
    side is the diagonal of one kernel pass over the extended function's
    values, the right side a parity sum of evals."""
    k0 = extended.k0
    for d, row in beta_rows(extended.values(k0, k0 + 10), k0):
        rhs = sum(evals[d - k0::-2])
        if row[-1] != rhs:
            fail(f"parity d={d}", rhs, row[-1])
            return


def _extension_law(h: HilbertFunction, depth: int, fail) -> HilbertFunction:
    """The extension theorem: adjoining a variable never lowers the depth,
    qdepth(extend(h)) >= depth = qdepth(h); a drop goes to the case's
    reporter ``fail``.  Returns extend(h), which the caller's parity check
    reuses."""
    extended = extend(h)
    lifted = qdepth(extended).qdepth
    if lifted < depth:
        fail("extension", f">= {depth}", lifted)
    return extended


def verify_extension(trials: int, seed: int) -> tuple[int, list[Violation]]:
    """Adjoining a variable never lowers the depth (``_extension_law``), and
    the parity identity holds for the extended beta diagonal."""
    violations = []
    rng = random.Random(seed)
    for case in range(trials):
        h = random_hilbert_function(rng)
        fail = reporter(violations, lambda: f"case {case}: h={_describe(h)}")
        extended = _extension_law(h, qdepth(h).qdepth, fail)
        _parity_law(h.values(h.k0, h.k0 + 10), extended, fail)
    return trials, violations


def verify_structural_laws(trials: int, seed: int) -> tuple[int, list[Violation]]:
    """Shift equivariance, scale invariance, superadditivity over sums,
    extension monotonicity, window containment, finite-support cap, exact
    inversion, and the parity identity, on seeded random functions.

    Each case reads h over its inversion window once and walks one kernel
    pass over it, rows d = k0..k0 + 12, kept as a list.  The refutation's
    entry is read off that list when its row lies in the range, and off one
    ``beta_table`` row beyond it.  Every row must give back those values,
    each from one ``reconstruct`` call, by Pascal sums that never call the
    kernel.  When the depth d0 lies in that range, the kernel's row d0 must
    equal the certificate, which ``qdepth`` may have built from the
    numerator by ``_top_row`` instead of the kernel.  The parity check
    reuses the first 11 of those 13 values, and extend(h) is built once, by
    ``_extension_law``, for both the extension check and the parity check.
    Every failed law goes to the case's reporter."""
    violations = []
    rng = random.Random(seed)
    for case in range(trials):
        h = random_hilbert_function(rng)
        other = random_hilbert_function(rng)
        m = rng.randint(-3, 3)
        r = rng.choice((2, 3, 7))
        fail = reporter(violations, lambda: f"case {case}: h={_describe(h)}")
        result = qdepth(h)
        d0 = result.qdepth
        if not result.lower_bound <= d0 <= result.upper_bound:
            fail("window", f"[{result.lower_bound}, {result.upper_bound}]", d0)
        if any(v < 0 for v in result.certificate.values):
            fail("certificate", ">= 0 entries", "negative entry")
        if (result.refutation is None) != (d0 == result.upper_bound):
            fail(
                "refutation presence",
                "absent iff depth = upper bound",
                repr(result.refutation),
            )
        k0 = h.k0
        evals = h.values(k0, k0 + 12)
        rows = [(d, tuple(row)) for d, row in beta_rows(evals, k0)]
        if result.refutation is not None:
            rd, rk, rb = result.refutation
            if k0 <= rd <= k0 + 12:
                refuting = BetaTable(rd, k0, rows[rd - k0][1])
            else:
                refuting = beta_table(h, rd)
            if rb >= 0 or refuting.value(rk) != rb:
                fail("refutation", "negative beta", rb)
        if h.kf is not None and d0 > h.kf:
            fail("support cap", f"<= {h.kf}", d0)
        shifted = qdepth(shift(h, m)).qdepth
        if shifted != d0 - m:
            fail(f"shift m={m}", d0 - m, shifted)
        scaled = qdepth(scale(h, r)).qdepth
        if scaled != d0:
            fail(f"scale r={r}", d0, scaled)
        d_other = qdepth(other).qdepth
        d_sum = qdepth(h + other).qdepth
        if d_sum < min(d0, d_other):
            fail(f"sum with {_describe(other)}", f">= {min(d0, d_other)}", d_sum)
        extended = _extension_law(h, d0, fail)
        for d, values in rows:
            if d == d0 and values != result.certificate.values:
                fail(f"certificate row d={d}", values, result.certificate.values)
            recovered = reconstruct(BetaTable(d, k0, values))
            if recovered != evals[: d - k0 + 1]:
                i = next(i for i, v in enumerate(recovered) if v != evals[i])
                fail(f"inversion d={d} k={k0 + i}", evals[i], recovered[i])
        _parity_law(evals, extended, fail)
    return trials, violations


def verify_quotients(
    trials: int, seed: int, max_n: int
) -> tuple[int, list[Violation]]:
    """Depth from the alpha vector equals depth of its Hilbert function on
    seeded random squarefree quotients in n in [1, max_n] variables (none
    when that range is empty).  A max_n above the default variable cap
    raises ``OutOfRangeError`` before any case is drawn."""
    if max_n > DEFAULT_VARIABLE_CAP:
        raise OutOfRangeError(
            f"max_n={max_n} exceeds the variable cap {DEFAULT_VARIABLE_CAP}"
        )
    violations = []
    rng = random.Random(seed)
    produced = 0
    attempts = 0
    while max_n >= 1 and produced < trials and attempts < trials * 20:
        attempts += 1
        n = rng.randint(1, max_n)
        upper_count = rng.randint(1, 4)
        lower_count = rng.randint(0, 3)
        sub_seed = rng.randrange(2**32)
        try:
            q = random_quotient(n, sub_seed, upper_count, lower_count)
        except GenerationFailedError:
            continue
        produced += 1
        if not check_qdepth_match(q):
            fail = reporter(violations, lambda: f"n={n} seed={sub_seed}")
            ideals = f"upper=({format_ideal(q.upper)}) lower=({format_ideal(q.lower)})"
            fail(ideals, "matching depths", "mismatch")
    return produced, violations


# Each battery's name, its function, and the default ranges of its
# parameters by name; the table's order is the ``verify --all`` order.
BATTERIES = {
    "polyring": (verify_polynomial_rings, {"max_n": 16}),
    "ci": (verify_complete_intersections, {"max_n": 5, "max_degree": 4}),
    "ci-recursion": (
        verify_ci_recursion,
        {"trials": 100, "seed": DEFAULT_SEED, "max_n": 6, "max_degree": 6},
    ),
    "ci-truncation": (verify_ci_truncation, {"max_n": 4, "max_degree": 4}),
    "free": (verify_free_modules, {"trials": 100, "seed": DEFAULT_SEED, "max_n": 6}),
    "extension": (verify_extension, {"trials": 150, "seed": DEFAULT_SEED}),
    "structural": (verify_structural_laws, {"trials": 250, "seed": DEFAULT_SEED}),
    "quotients": (verify_quotients, {"trials": 150, "seed": DEFAULT_SEED, "max_n": 8}),
    "signs": (check_sign_positivity, {"max_n": 25}),
    "beta-identity": (check_beta_identity, {"max_n": 25}),
    "e-link": (check_derivative_link, {"max_n": 15}),
}


def run_battery(
    name: str,
    max_n: int | None = None,
    max_degree: int | None = None,
    trials: int | None = None,
    seed: int | None = None,
) -> VerificationReport:
    """Run one named battery, falling back to its default ranges where a
    parameter is None (an explicit 0 is an empty range, not the default).
    A negative max_n, max_degree or trials raises ``OutOfRangeError``.

    The battery returns its case count and violations; the report takes its
    name from the table key and its elapsed time from around the call."""
    try:
        battery, defaults = BATTERIES[name]
    except KeyError:
        raise ValueError(f"unknown battery {name!r}") from None
    given = {"max_n": max_n, "max_degree": max_degree, "trials": trials, "seed": seed}
    for param in ("max_n", "max_degree", "trials"):
        if given[param] is not None and given[param] < 0:
            raise OutOfRangeError(f"{param} must be nonnegative, got {given[param]}")
    args = {p: d if given[p] is None else given[p] for p, d in defaults.items()}
    start = time.perf_counter()
    cases, violations = battery(**args)
    return VerificationReport(name, cases, violations, time.perf_counter() - start)
