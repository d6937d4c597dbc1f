"""Desk-scale verification batteries for the depth laws.

Every battery is deterministic given its parameters (random ones take an
explicit seed), counts its cases, and reports violations with descriptors
detailed enough to replay the case by hand.
"""

from __future__ import annotations

import itertools
import json
import random
import time

from .depth import (
    BetaTable,
    _flip_active,
    _rows,
    beta,
    beta_table,
    qdepth,
    reconstruct,
)
from .errors import GenerationFailedError
from .hypergeometric import (
    check_beta_identity,
    check_derivative_link,
    check_sign_positivity,
)
from .report import VerificationReport, Violation
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
from .squarefree import check_qdepth_match, random_quotient, format_ideal

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


def verify_polynomial_rings(max_n: int) -> VerificationReport:
    """Depth of the n-variable ring is n, for every n up to max_n."""
    start = time.perf_counter()
    violations = []
    for n in range(1, max_n + 1):
        result = qdepth(polynomial_ring(n))
        if result.qdepth != n:
            violations.append(Violation(f"poly({n})", str(n), str(result.qdepth)))
    return VerificationReport(
        "polyring", max_n, violations, time.perf_counter() - start
    )


def verify_complete_intersections(max_n: int, max_degree: int) -> VerificationReport:
    """Depth n for every complete intersection with 0 <= r <= n forms of
    degrees in [2, max_degree], enumerated as multisets."""
    start = time.perf_counter()
    violations = []
    cases = 0
    for n in range(1, max_n + 1):
        for r in range(n + 1):
            for degrees in _degree_multisets(r, max_degree):
                cases += 1
                result = qdepth(complete_intersection(n, degrees))
                if result.qdepth != n:
                    violations.append(
                        Violation(
                            f"n={n} degrees={list(degrees)}", str(n), str(result.qdepth)
                        )
                    )
    return VerificationReport("ci", cases, violations, time.perf_counter() - start)


def verify_ci_recursion(
    trials: int, seed: int, max_n: int = 6, max_degree: int = 6
) -> VerificationReport:
    """Peeling one degree off a complete intersection.

    With degrees (d_1..d_n), d_n >= 3: the function equals the one with d_n
    lowered by 1 plus the (n-1)-variable one with d_n removed and shifted up
    by d_n - 1, both as canonical forms and entrywise on the beta row at n,
    where the shifted summand only enters for k >= d_n - 1.
    """
    start = time.perf_counter()
    violations = []
    rng = random.Random(seed)
    max_n = max(max_n, 2)
    max_degree = max(max_degree, 3)  # one degree must reach 3 to peel
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
            lhs = beta(h_full, n, k)
            rhs = beta(h_lowered, n, k)
            if k >= dn - 1:
                rhs += beta(h_smaller, n - dn + 1, k - dn + 1)
            if lhs != rhs:
                violations.append(
                    Violation(f"{descriptor} beta k={k}", str(rhs), str(lhs))
                )
    return VerificationReport(
        "ci-recursion", trials, violations, time.perf_counter() - start
    )


def verify_ci_truncation(max_n: int, max_degree: int) -> VerificationReport:
    """Padding a complete intersection with forms of degree n + 1 leaves the
    values on [0, n], and hence the beta row at n, unchanged."""
    start = time.perf_counter()
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
                descriptor = f"n={n} degrees={list(degrees)}"
                pairs = zip(plain.values(0, n), padded.values(0, n))
                for j, (a, b) in enumerate(pairs):
                    if a != b:
                        violations.append(
                            Violation(f"{descriptor} value j={j}", str(a), str(b))
                        )
                if beta_table(plain, n) != beta_table(padded, n):
                    violations.append(
                        Violation(f"{descriptor} beta row", "equal tables", "differ")
                    )
    return VerificationReport(
        "ci-truncation", cases, violations, time.perf_counter() - start
    )


def verify_free_modules(trials: int, seed: int, max_n: int = 6) -> VerificationReport:
    """Graded free modules S(a)^n1 + S(a-1)^n2 + sum_j S(a_j) with n1 > n2
    and a >= a_j + 2 have depth n - a.  n is drawn from [1, max_n], so an
    empty range gives no cases."""
    start = time.perf_counter()
    violations = []
    rng = random.Random(seed)
    trials = trials if max_n >= 1 else 0
    for case in range(trials):
        n = rng.randint(1, max_n)
        a = rng.randint(-4, 4)
        n1 = rng.randint(1, 3)
        n2 = rng.randint(0, n1 - 1)
        tail = [a - 2 - rng.randint(0, 3) for _ in range(rng.randint(0, 3))]
        shifts = [a] * n1 + [a - 1] * n2 + tail
        result = qdepth(free_module(n, shifts))
        if result.qdepth != n - a:
            violations.append(
                Violation(
                    f"case {case}: n={n} a={a} n1={n1} n2={n2} tail={tail}",
                    str(n - a),
                    str(result.qdepth),
                )
            )
    return VerificationReport(
        "free", trials, violations, time.perf_counter() - start
    )


def _parity_violation(
    h: HilbertFunction, descriptor: str, flip: bool
) -> Violation | None:
    """Top entry of the extended function's beta row at d equals the sum of
    h over degrees of the same parity as d.  The left side is the diagonal
    of one kernel pass over the extended function's values, the right side
    a parity sum of h's own values."""
    k0 = h.k0
    evals = h.values(k0, k0 + 10)
    extended = extend(h).values(k0, k0 + 10)
    for d, row in _rows(extended, k0, k0 + 10, flip):
        rhs = sum(evals[d - k0::-2])
        if row[-1] != rhs:
            return Violation(f"{descriptor} parity d={d}", str(rhs), str(row[-1]))
    return None


def verify_extension(trials: int, seed: int) -> VerificationReport:
    """Adjoining a variable never lowers the depth, and the parity identity
    holds for the extended beta diagonal."""
    start = time.perf_counter()
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
        parity = _parity_violation(h, descriptor, _flip_active())
        if parity is not None:
            violations.append(parity)
    return VerificationReport(
        "extension", trials, violations, time.perf_counter() - start
    )


def verify_structural_laws(trials: int, seed: int) -> VerificationReport:
    """Shift equivariance, scale invariance, superadditivity over sums,
    extension monotonicity, window containment, finite-support cap, exact
    inversion, and the parity identity, on seeded random functions.

    Each case reads h over its inversion window once and walks one kernel
    pass over it: every row d = k0..k0 + 12 must give back those values
    through ``reconstruct``'s closed form.  The parity check reads h and
    its extension over one window each (see ``_parity_violation``)."""
    start = time.perf_counter()
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
        if qdepth(extend(h)).qdepth < d0:
            violations.append(
                Violation(f"{descriptor} extension", f">= {d0}", str(qdepth(extend(h)).qdepth))
            )
        flip = _flip_active()
        k0 = h.k0
        evals = h.values(k0, k0 + 12)
        for d, row in _rows(evals, k0, k0 + 12, flip):
            table = BetaTable(d, k0, tuple(row))
            bad = next(
                (
                    k
                    for k in range(k0, d + 1)
                    if reconstruct(table, k) != evals[k - k0]
                ),
                None,
            )
            if bad is not None:
                violations.append(
                    Violation(
                        f"{descriptor} inversion d={d} k={bad}",
                        str(evals[bad - k0]),
                        str(reconstruct(table, bad)),
                    )
                )
        parity = _parity_violation(h, descriptor, flip)
        if parity is not None:
            violations.append(parity)
    return VerificationReport(
        "structural", trials, violations, time.perf_counter() - start
    )


def verify_quotients(trials: int, seed: int, max_n: int = 10) -> VerificationReport:
    """Depth from the alpha vector equals depth of its Hilbert function on
    seeded random squarefree quotients in n in [1, max_n] variables (none
    when that range is empty)."""
    start = time.perf_counter()
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
            violations.append(
                Violation(
                    f"n={n} seed={sub_seed} upper=({format_ideal(q.upper)}) "
                    f"lower=({format_ideal(q.lower)})",
                    "matching depths",
                    "mismatch",
                )
            )
    return VerificationReport(
        "quotients", produced, violations, time.perf_counter() - start
    )


# Each battery with its parameters, in positional order, and their default
# ranges; the order is the ``verify --all`` order.
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

BATTERY_NAMES = tuple(BATTERIES)

BATTERY_ALIASES = {"lemma": "signs", "qq": "quotients"}


def run_battery(
    name: str,
    max_n: int | None = None,
    max_degree: int | None = None,
    trials: int | None = None,
    seed: int | None = None,
) -> VerificationReport:
    """Run one named battery, falling back to its default ranges where a
    parameter is None (an explicit 0 is an empty range, not the default)."""
    try:
        battery, defaults = BATTERIES[BATTERY_ALIASES.get(name, name)]
    except KeyError:
        raise ValueError(f"unknown battery {name!r}") from None
    given = {"max_n": max_n, "max_degree": max_degree, "trials": trials, "seed": seed}
    return battery(
        *(default if given[p] is None else given[p] for p, default in defaults.items())
    )
