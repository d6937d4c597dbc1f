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

The batteries that check these statements (``signs``, ``beta-identity``
and ``e-link``) live in ``verify`` with every other battery; they call the
sums here through this module's bindings.
"""

from __future__ import annotations

from itertools import count
from math import comb, factorial, perm
from operator import mul, sub
from typing import TYPE_CHECKING, NamedTuple

# ``beta`` and ``polynomial_ring`` have no caller here: perfbench/spans.py
# traces these two bindings until ROADMAP item 9 unpins them.
from .depth import beta
from .errors import InvalidArityError, OutOfRangeError
from .series import polynomial_ring

if TYPE_CHECKING:
    from fractions import Fraction


def gauss_2f1(k: int, n: int) -> Fraction:
    """Exact value of the terminating Gauss sum at (-k, n, -n; -1).

    Consecutive terms have ratio r_j = a_j / b_j with a_j = (k - j)(n + j)
    and b_j = (j - n)(j + 1), so the sum is 1 + r_0 (1 + r_1 (1 + ...
    (1 + r_(k-1)))).  Horner's rule from the inside keeps it as one integer
    fraction N / D (N <- b_j D + a_j N, D <- b_j D); a single Fraction is
    built at the end.  The entry check 0 <= k <= n makes j - n < 0 for every
    j < k, so no b_j is zero.

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

