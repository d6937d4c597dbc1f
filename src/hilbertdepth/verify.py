"""Desk-scale verification batteries for the depth laws.

Every battery is deterministic given its parameters (random ones take an
explicit seed) and returns its case count and its violations, with
descriptors detailed enough to replay the case by hand.  ``BATTERIES`` is
the one table of batteries: it holds each one's name, parameters and
default ranges, and ``run_battery`` builds the report from it, with the
table key as the report's name and the time of the call as its elapsed
time.

A ``Violation`` names one failing case by a descriptor that replays it, and
a ``VerificationReport`` collects one battery's case count and violations.
Both are immutable ``NamedTuple`` records: ``run_battery`` builds each
report once, and nothing updates it afterwards.

Each kind of law is checked in one place, and every violation is built by
one of two builders.  ``equality_law`` checks the (case, expected, actual)
triples of every law between two exact sides: ``_depth_law`` feeds it
``qdepth`` on the (descriptor, h, expected depth) cases that ``polyring``,
``ci`` and ``free`` generate, and ``beta-identity`` and ``e-link`` feed it
their kernel, Gauss and table sides.  Every other battery reports each
failed law through a ``reporter``, whose ``fail(law, expected, actual)``
appends a violation whose descriptor is a case prefix and the law.  The
prefix replays the case: the case number and h as JSON for ``extension``
and ``structural``, n and the degrees for ``ci-recursion`` and
``ci-truncation``, n and the seed for ``quotients``, n for ``signs``.  It
is built only when a law fails.  A law that two batteries check has one
helper, which both call with their reporter: ``_extension_law``
(qdepth(extend(h)) >= qdepth(h)) and ``_parity_law`` serve ``extension``
and ``structural``.

Every law compares two routes to one value: the answer of the code under
test against a depth or sign that the paper states, an independent route
(the closed Gauss form, the numerator route ``_top_row``, a second count),
or the answer for a transformed input (a shift, scale, sum, extension or
padding).  A check whose sides are one route, or whose side is a function
of values that another law of the case has already compared, can never
report on its own, so none is kept: ``ci-truncation`` compares the values
on [0, n] and not the beta row at n, which those values determine.

No battery calls ``depth.beta``, which builds a whole row for one entry.
A battery reads a single row through ``beta_table`` and walks
``beta_rows`` over a window only where it checks every row of it.
A law that holds row by row is tested once per case and explained row by
row only when that test fails: ``structural``'s inversion law is one
``reconstruct`` of the top row and the prefix-sum lemma down the rows
below it (``_inverts``), and only a failing case runs ``reconstruct`` on
each row to name the rows that fail.

The Gauss batteries ``signs``, ``beta-identity`` and ``e-link`` check the
statements of ``hypergeometric`` over exhaustive desk-scale ranges, and
call its sums and tables through that module's bindings.  ``signs`` and
``beta-identity`` read the whole row G_k = (-1)^k C(n, k) gauss_2f1(k, n),
0 <= k <= n, off ``depth._top_row`` of the polynomial ring in n variables,
whose recurrence at h = S, d = n is Gauss's contiguous relation (see its
docstring), in O(n) exact integer steps, and call ``gauss_2f1`` itself
only at a fixed sample of entries and on failure.  G_k is beta(n, k) of
that ring, so ``beta-identity`` holds the kernel's ring row to this one,
and up to max_n = N its cost is the N kernel rows' O(N^3) subtractions.
"""

from __future__ import annotations

import itertools
import random
import time
from math import comb, factorial
from operator import eq
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Sequence

from . import hypergeometric
# ``beta`` has no caller here: perfbench/spans.py traces this binding.
from .depth import BetaTable, _top_row, beta, beta_rows, beta_table, qdepth, reconstruct
from .errors import GenerationFailedError, OutOfRangeError
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

if TYPE_CHECKING:
    from fractions import Fraction

DEFAULT_SEED = 271828


class Violation(NamedTuple):
    case: str
    expected: str
    actual: str

    def __str__(self) -> str:
        return f"{self.case}: expected {self.expected}, got {self.actual}"


class VerificationReport(NamedTuple):
    battery: str
    cases_run: int
    violations: Sequence[Violation] = ()
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.violations

    def summary_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{self.battery:<16} {self.cases_run:>7} cases "
            f"{len(self.violations):>5} violations  {self.elapsed:7.2f}s  {status}"
        )

    # elapsed is omitted on purpose: JSON output must be byte-identical
    # across runs with the same seed and flags.
    def to_json_dict(self) -> dict:
        return {
            "battery": self.battery,
            "casesRun": self.cases_run,
            "violations": [v._asdict() for v in self.violations],
        }


def equality_law(
    cases: Iterable[tuple[str, object, object]],
) -> tuple[int, list[Violation]]:
    """The count of (case, expected, actual) triples in the stream, and one
    violation, with both sides as ``str``, per triple whose sides differ."""
    count = 0
    violations = []
    for count, (case, expected, actual) in enumerate(cases, 1):
        if expected != actual:
            violations.append(Violation(case, str(expected), str(actual)))
    return count, violations


def reporter(violations: list[Violation], prefix: Callable[[], str]):
    """``fail(law, expected, actual)``, which appends the violation
    ``{prefix()} {law}`` with both sides as ``str``; ``prefix`` is called
    only when a law fails, so a clean case builds no descriptor."""

    def fail(law: str, expected: object, actual: object) -> None:
        violations.append(Violation(f"{prefix()} {law}", str(expected), str(actual)))

    return fail


def _describe(h: HilbertFunction) -> str:
    """h as compact JSON, for the descriptor of a failed case.

    ``json`` is imported here, where a law has failed, and nowhere else in
    this module: ``import hilbertdepth`` loads this module, and no clean
    run builds a descriptor."""
    import json

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
    one's row at n - d_n + 1 exists only when d_n <= n + 1.  Both laws run
    on every case: the beta-row law reads only the three rows, so it still
    names the entries that differ when the series law has failed.  With n
    in [2, max_n] and d_n in [3, max_degree], an empty range gives no cases.
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
    values on [0, n] unchanged.

    The beta row at n is not compared as well: a complete intersection has
    k0 = 0, so that row is a function of the values on [0, n] alone, and it
    differs exactly when the values compared here differ."""
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


def _inverts(
    rows: list[tuple[int, tuple[int, ...]]], evals: list[int], k0: int
) -> bool:
    """Whether every row (d, values) of ``rows``, consecutive from d = k0,
    inverts to h: reconstruct(BetaTable(d, k0, values)) == evals[:d - k0 + 1]
    for evals[j - k0] = h(j), with no more rows than values.  True exactly
    when the top row inverts and each row below it has one entry fewer and
    holds the running sums of the row above (prefix-sum lemma, for any
    integer h): ``reconstruct`` is the one exact inverse of each row."""
    d, top = rows[-1]
    if reconstruct(BetaTable(d, k0, top)) != evals[: d - k0 + 1]:
        return False
    return all(
        len(lower) + 1 == len(upper)
        and all(map(eq, lower, itertools.accumulate(upper)))
        for (_, lower), (_, upper) in itertools.pairwise(rows)
    )


def verify_structural_laws(trials: int, seed: int) -> tuple[int, list[Violation]]:
    """Shift equivariance, scale invariance, superadditivity over sums,
    extension monotonicity, window containment, finite-support cap, exact
    inversion, and the parity identity, on seeded random functions.

    Each case reads h over its inversion window once and walks one kernel
    pass over it, rows d = k0..k0 + 12, kept as a list, since every row must
    give back those values.  ``_inverts`` tests that once per case, by one
    ``reconstruct`` of the top row, Pascal sums that never call the kernel,
    and the running sums down the rows below it; only a case that fails it
    runs ``reconstruct`` on every row, to name the rows that fail.  When the
    depth d0 lies in that range, the list's row d0 must equal the
    certificate, which ``qdepth`` may have built from the numerator by
    ``_top_row`` instead of the kernel.  The refutation's entry is read off
    one ``beta_table`` row, wherever that row lies.  The parity check reuses
    the first 11 of those 13 values, and extend(h) is built once, by
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
            if rb >= 0 or beta_table(h, rd).value(rk) != rb:
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
        if k0 <= d0 <= k0 + 12 and rows[d0 - k0][1] != result.certificate.values:
            fail(f"certificate row d={d0}", rows[d0 - k0][1], result.certificate.values)
        if not _inverts(rows, evals, k0):
            for d, values in rows:
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


def check_sign_positivity(max_n: int) -> tuple[int, list[Violation]]:
    """Signs of the terminating Gauss values, big_e, and the c-table.

    For every n up to max_n: the k = 0 and k = 1 Gauss values are exactly 1
    and 0; for 2 <= k <= n, (-1)^k gauss_2f1(k, n) > 0 and big_e(n, k) > 0;
    and (-1)^j c(k, j) > 0 throughout rows k >= 2 of the table.  The Gauss
    sign is read off the ring row G of the module docstring, since
    (-1)^k gauss_2f1(k, n) is G_k / C(n, k); big_e stays its own O(k) sum,
    the independent route that ``check_derivative_link`` needs.  Each n has
    one ``reporter`` with the prefix ``n={n}``, and every failed law reports
    its value.
    """
    violations: list[Violation] = []
    cases = 0
    for n in range(1, max_n + 1):
        cases += 1
        fail = reporter(violations, lambda: f"n={n}")
        for k, expected in ((0, 1), (1, 0)):
            value = hypergeometric.gauss_2f1(k, n)
            if value != expected:
                fail(f"k={k}", expected, value)
        if n < 2:
            continue
        ring = _top_row(polynomial_ring(n), n)
        table = hypergeometric.coeff_table(n, n, n)
        for k in range(2, n + 1):
            cases += 1
            if ring[k] <= 0:
                from fractions import Fraction

                fail(f"k={k} gauss sign", "> 0", Fraction(ring[k], comb(n, k)))
            e = hypergeometric.big_e(n, k)
            if e <= 0:
                fail(f"k={k} big_e", "> 0", e)
            row = table.rows[k - 1]
            sign = 1
            for j, c in enumerate(row):
                signed, sign = sign * c, -sign
                if signed <= 0:
                    fail(f"k={k} j={j} c sign", "> 0", signed)
    return cases, violations


def check_beta_identity(max_n: int) -> tuple[int, list[Violation]]:
    """The kernel's ring row against the closed Gauss form.

    Exact rational equality of beta(n, k) of polynomial_ring(n), entry k of
    the kernel's row n, and (-1)^k C(n, k) gauss_2f1(k, n) for all
    0 <= k <= n <= max_n: one case per entry.  Each n builds one
    ``beta_table`` row (the ring's k0 is 0, so entry k sits at index k),
    compares it with the ring row G of the module docstring in one step,
    and holds both to ``gauss_2f1`` at k = n // 2 and k = n.  Only an n that
    fails either test builds its per-entry triples for ``equality_law``: the
    kernel's entries as ``n={n} k={k}`` against the Gauss values and, when G
    differs from the kernel's row, G's entries as ``n={n} k={k} top row``
    against the same values, so a fault in either route is named.  Under the
    fault hook only the kernel's diagonal entries k = n fail.
    """
    cases = 0
    violations: list[Violation] = []
    for n in range(1, max_n + 1):
        ring = polynomial_ring(n)
        row = beta_table(ring, n).values
        top = tuple(_top_row(ring, n))
        cases += len(row)

        def gauss(k: int) -> Fraction:
            return (-1) ** k * comb(n, k) * hypergeometric.gauss_2f1(k, n)

        if row != top or any(row[k] != gauss(k) for k in (n // 2, n)):
            expected = [gauss(k) for k in range(n + 1)]
            triples = [(f"n={n} k={k}", expected[k], e) for k, e in enumerate(row)]
            if top != row:
                triples += ((f"n={n} k={k} top row", expected[k], e)
                            for k, e in enumerate(top))
            violations += equality_law(triples)[1]
    return cases, violations


def check_derivative_link(max_n: int) -> tuple[int, list[Violation]]:
    """big_e(n, k) against the table diagonal, and row 1 against the series.

    Checks big_e(n, k) == (-1)^k c(k, k) for 2 <= k <= n <= max_n, and that
    row 1 of each table matches j! times the prefix-pass series of
    (1 - x^2)^(-n), by ``equality_law``.
    """

    def cases():
        for n in range(2, max_n + 1):
            table = hypergeometric.coeff_table(n, n, n)
            series = hypergeometric.geometric_square_series(n, n)
            for j in range(n + 1):
                yield f"n={n} row1 j={j}", factorial(j) * series[j], table.value(1, j)
            for k in range(2, n + 1):
                e = hypergeometric.big_e(n, k)
                yield f"n={n} k={k}", (-1) ** k * table.value(k, k), e

    return equality_law(cases())


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
