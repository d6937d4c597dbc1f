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
``verify.run_battery`` turns them into reports.  Both Gauss batteries read
the whole row G_k = (-1)^k C(n, k) gauss_2f1(k, n), 0 <= k <= n, off
``depth._top_row`` of the polynomial ring in n variables, whose recurrence
at h = S, d = n is Gauss's contiguous relation (see its docstring), in
O(n) exact integer steps, and call ``gauss_2f1`` itself only at a fixed
sample of entries and on failure.  G_k is beta(n, k) of that ring, so
``check_beta_identity`` holds the kernel's ring row to this one, and up to
max_n = N its cost is the N kernel rows' O(N^3) subtractions.
"""

from __future__ import annotations

from itertools import count
from math import comb, factorial, perm
from operator import mul, sub
from typing import TYPE_CHECKING, NamedTuple

# ``beta`` has no caller here: perfbench/spans.py traces this binding.
from .depth import _top_row, beta, beta_table
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
    sum starts from the j = 0 term (-1)^k (n - k + 1)_k, with
    (n - k + 1)_k = n! / (n - k)! (``perm(n, k)``).  Since
    C(k, j + 1) = C(k, j) (k - j) / (j + 1), (n)_(j + 1) = (n)_j (n + j) and
    (n - k + 1)_(k - j - 1) = (n - k + 1)_(k - j) / (n - j), each term is the
    one before times -(k - j)(n + j) / ((j + 1)(n - j)).  The next term is
    an integer, so that division is exact (n - j >= n - k + 1 >= 1), and the
    sum takes O(k) big-by-small integer operations instead of O(k^2).
    """
    if not 2 <= k <= n:
        raise OutOfRangeError(f"need 2 <= k <= n, got k={k}, n={n}")
    total = 0
    term = (-1) ** k * perm(n, k)
    for j in range(k):
        total += term
        term = -term * ((k - j) * (n + j)) // ((j + 1) * (n - j))
    return total + term


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
        rows.append((1, *map(sub, prev[1:], map(mul, count(1), prev))))
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
    and (-1)^j c(k, j) > 0 throughout rows k >= 2 of the table.  The Gauss
    sign is read off the ring row G of the module docstring, since
    (-1)^k gauss_2f1(k, n) is G_k / C(n, k); big_e stays its own O(k) sum,
    the independent route that ``check_derivative_link`` needs.  Each
    c-row's signs are tested by one min and one max, and only a row that
    fails them is walked entry by entry.  Each n has one ``report.reporter``
    with the prefix ``n={n}``, and every failed law reports its value.
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
        ring = _top_row(polynomial_ring(n), n)
        table = coeff_table(n, n, n)
        for k in range(2, n + 1):
            cases += 1
            if ring[k] <= 0:
                from fractions import Fraction

                fail(f"k={k} gauss sign", "> 0", Fraction(ring[k], comb(n, k)))
            e = big_e(n, k)
            if e <= 0:
                fail(f"k={k} big_e", "> 0", e)
            row = table.rows[k - 1]
            if min(row[::2]) > 0 and max(row[1::2]) < 0:
                continue
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
            return (-1) ** k * comb(n, k) * gauss_2f1(k, n)

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
            table = coeff_table(n, n, n)
            series = geometric_square_series(n, n)
            for j in range(n + 1):
                yield f"n={n} row1 j={j}", factorial(j) * series[j], table.value(1, j)
            for k in range(2, n + 1):
                yield f"n={n} k={k}", (-1) ** k * table.value(k, k), big_e(n, k)

    return equality_law(cases())
