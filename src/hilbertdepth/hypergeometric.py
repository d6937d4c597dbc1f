"""Terminating Gauss sums and the derivative-coefficient table, all exact.

``gauss_2f1(k, n)`` evaluates the Gauss series with parameters
(-k, n, -n) at argument -1.  The first parameter is a nonpositive integer,
so the series terminates after k + 1 terms and the value is an exact
rational; for k <= n the lower parameter never hits a pole.  The sum is
taken by Horner's rule on integer numerator and denominator, with one
``Fraction`` built at the end.

``big_e(n, k)`` is the integer alternating sum

    sum_{j=0..k} (-1)^(k - j) C(k, j) (n)_j (n - k + 1)_(k - j)

which equals (-1)^k (n - k + 1)_k gauss_2f1(k, n) and is strictly positive
for 2 <= k <= n.  Each term follows from the one before by exact integer
steps, so the sum costs O(k) big-integer operations.

``coeff_table(n, kmax, jmax)`` holds c(k, j), the j-th derivative at 0 of
(1 - x)^(k - 1) / (1 - x^2)^n.  Row k = 1 comes from the even power series
of (1 - x^2)^(-n); later rows follow the recurrence
c(k, j) = c(k - 1, j) - j c(k - 1, j - 1).  The alternating signs of these
integers, (-1)^j c(k, j) > 0 for k >= 2, certify the positivity of big_e
through big_e(n, k) = (-1)^k c(k, k).

The check_* batteries verify these statements over exhaustive desk-scale
ranges and return their case count and violations instead of raising;
``verify.run_battery`` turns them into reports.  ``check_beta_identity``
holds the kernel to the Gauss form on the ring: it reads all n + 1 entries
off one ``beta_table`` row per n, so up to max_n = N it builds N rows and
does O(N^3) kernel subtractions.
"""

from __future__ import annotations

from math import comb, factorial, perm
from typing import TYPE_CHECKING, NamedTuple

# ``beta`` has no caller here: perfbench/spans.py traces this binding.
from .depth import beta, beta_table
from .errors import InvalidArityError, OutOfRangeError
from .report import Violation, equality_law, reporter
from .series import polynomial_ring

if TYPE_CHECKING:
    from fractions import Fraction


def gauss_2f1(k: int, n: int) -> Fraction:
    """Exact value of the terminating Gauss sum at (-k, n, -n; -1).

    Consecutive terms have ratio r_j = a_j / b_j with a_j = (k - j)(n + j)
    and b_j = (j - n)(j + 1), so the sum is 1 + r_0 (1 + r_1 (1 + ...
    (1 + r_(k-1)))).  Horner's rule from the inside keeps it as one integer
    fraction N / D (N <- b_j D + a_j N, D <- b_j D); a single Fraction is
    built at the end.

    ``fractions`` is imported here, where the Fraction is built, and
    nowhere else: importing it (and ``decimal`` with it) at module level
    would add to every CLI start, and no other command builds one.
    """
    from fractions import Fraction

    if n < 1:
        raise OutOfRangeError(f"need n >= 1, got {n}")
    if not 0 <= k <= n:
        raise OutOfRangeError(f"need 0 <= k <= n, got k={k}, n={n}")
    num = den = 1
    for j in range(k - 1, -1, -1):
        # (j - n) is the lower-parameter factor; j < k <= n keeps it
        # strictly negative, never zero.
        assert -n + j != 0
        b = (j - n) * (j + 1)
        num, den = b * den + (k - j) * (n + j) * num, b * den
    return Fraction(num, den)


def big_e(n: int, k: int) -> int:
    """Alternating binomial sum of rising factorials; positive on its domain.

    The term for j is (-1)^(k - j) C(k, j) (n)_j (n - k + 1)_(k - j).  The
    sum starts from C(k, 0) = 1, (n)_0 = 1 and (n - k + 1)_k = n! / (n - k)!
    (``perm(n, k)``), and steps j to j + 1 by
    C(k, j + 1) = C(k, j) (k - j) / (j + 1),
    (n)_(j + 1) = (n)_j (n + j) and
    (n - k + 1)_(k - j - 1) = (n - k + 1)_(k - j) / (n - j), each an exact
    integer step (n - j >= n - k + 1 >= 1), so the sum takes O(k) big-integer
    operations instead of O(k^2).
    """
    if not 2 <= k <= n:
        raise OutOfRangeError(f"need 2 <= k <= n, got k={k}, n={n}")
    total = 0
    choose, from_n, from_low = 1, 1, perm(n, k)
    for j in range(k + 1):
        term = choose * from_n * from_low
        total += -term if (k - j) % 2 else term
        if j < k:
            choose = choose * (k - j) // (j + 1)
            from_n *= n + j
            from_low //= n - j
    return total


class CoeffTable(NamedTuple):
    """Derivative values c(k, j) for 1 <= k <= kmax, 0 <= j <= jmax."""

    n: int
    kmax: int
    jmax: int
    rows: tuple[tuple[int, ...], ...]

    def value(self, k: int, j: int) -> int:
        if not (1 <= k <= self.kmax and 0 <= j <= self.jmax):
            raise OutOfRangeError(f"(k={k}, j={j}) outside table")
        return self.rows[k - 1][j]


def coeff_table(n: int, kmax: int, jmax: int) -> CoeffTable:
    """Build the derivative table by recurrence from the even series row."""
    if n < 1 or kmax < 1 or jmax < 0:
        raise InvalidArityError(
            f"need n >= 1, kmax >= 1, jmax >= 0; got n={n}, kmax={kmax}, jmax={jmax}"
        )
    row1 = tuple(
        0 if j % 2 else comb(n + j // 2 - 1, j // 2) * factorial(j)
        for j in range(jmax + 1)
    )
    rows = [row1]
    for _ in range(2, kmax + 1):
        prev = rows[-1]
        rows.append(
            tuple(
                prev[j] - j * prev[j - 1] if j else 1 for j in range(jmax + 1)
            )
        )
    return CoeffTable(n, kmax, jmax, tuple(rows))


def geometric_square_series(n: int, order: int) -> list[int]:
    """Coefficients of (1 - x^2)^(-n) up to x^order by n stride-2 prefix
    passes, each one multiplication by 1 / (1 - x^2).

    Independent of the binomial closed form; used as the ground truth for
    row 1 of the coefficient table.
    """
    result = [1] + [0] * order
    for _ in range(n):
        for i in range(2, order + 1):
            result[i] += result[i - 2]
    return result


def check_sign_positivity(max_n: int) -> tuple[int, list[Violation]]:
    """Signs of the terminating Gauss values, big_e, and the c-table.

    For every n up to max_n: the k = 0 and k = 1 Gauss values are exactly 1
    and 0; for 2 <= k <= n, (-1)^k gauss_2f1(k, n) > 0 and big_e(n, k) > 0;
    and (-1)^j c(k, j) > 0 throughout rows k >= 2 of the table.  Each n has
    one ``report.reporter`` with the prefix ``n={n}``, and every failed law
    reports the value it already computed.
    """
    violations: list[Violation] = []
    cases = 0
    for n in range(1, max_n + 1):
        cases += 1
        fail = reporter(violations, lambda: f"n={n}")
        for k, expected in ((0, 1), (1, 0)):
            value = gauss_2f1(k, n)
            if value != expected:
                fail(f"k={k}", expected, value)
        if n < 2:
            continue
        table = coeff_table(n, n, n)
        for k in range(2, n + 1):
            cases += 1
            value = (-1) ** k * gauss_2f1(k, n)
            if value <= 0:
                fail(f"k={k} gauss sign", "> 0", value)
            e = big_e(n, k)
            if e <= 0:
                fail(f"k={k} big_e", "> 0", e)
            sign = 1
            for j, c in enumerate(table.rows[k - 1]):
                signed, sign = sign * c, -sign
                if signed <= 0:
                    fail(f"k={k} j={j} c sign", "> 0", signed)
    return cases, violations


def check_beta_identity(max_n: int) -> tuple[int, list[Violation]]:
    """The kernel's ring row against the closed Gauss form.

    Exact rational equality of beta(n, k) of polynomial_ring(n), entry k of
    the kernel's row n, and (-1)^k C(n, k) gauss_2f1(k, n) for all
    0 <= k <= n <= max_n, by ``equality_law``.  Each n builds one
    ``beta_table`` row (the ring's k0 is 0, so entry k sits at index k) and
    reads every entry off it.  Under the fault hook the diagonal entries
    k = n fail.
    """

    def cases():
        for n in range(1, max_n + 1):
            row = beta_table(polynomial_ring(n), n).values
            for k, entry in enumerate(row):
                gauss = (-1) ** k * comb(n, k) * gauss_2f1(k, n)
                yield f"n={n} k={k}", gauss, entry

    return equality_law(cases())


def check_derivative_link(max_n: int) -> tuple[int, list[Violation]]:
    """big_e(n, k) against the table diagonal, and row 1 against the series.

    Checks big_e(n, k) == (-1)^k c(k, k) for 2 <= k <= n <= max_n, and that
    row 1 of each table matches j! times the prefix-pass series of
    (1 - x^2)^(-n), by ``equality_law``.
    """

    def cases():
        for n in range(2, max_n + 1):
            table = coeff_table(n, n, n)
            series = geometric_square_series(n, n)
            for j in range(n + 1):
                yield f"n={n} row1 j={j}", factorial(j) * series[j], table.value(1, j)
            for k in range(2, n + 1):
                yield f"n={n} k={k}", (-1) ** k * table.value(k, k), big_e(n, k)

    return equality_law(cases())
