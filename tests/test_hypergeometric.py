"""Exact hypergeometric values, the derivative table, and their links.

Oracles: a second summation formula for the Gauss values, convolution-built
power series for the table rows, and hand-checked small integers.
"""

from fractions import Fraction
from math import comb, factorial, prod

import pytest

from hilbertdepth import (
    InvalidArityError,
    OutOfRangeError,
    big_e,
    coeff_table,
    gauss_2f1,
)
from hilbertdepth.hypergeometric import geometric_square_series
from hilbertdepth.verify import run_battery


def rising(a, j):
    """Rising factorial a(a+1)...(a+j-1); the empty product is 1."""
    return prod(range(a, a + j))


def gauss_oracle(k, n):
    """Rewritten terminating sum: sum_j (-1)^j C(k,j) (n)_j / (n-j+1)_j."""
    total = Fraction(0)
    for j in range(k + 1):
        total += (
            (-1) ** j
            * comb(k, j)
            * Fraction(rising(n, j), rising(n - j + 1, j))
        )
    return total


def gauss_term_oracle(k, n):
    """The series summed term by term in Fractions, each term the previous
    one times the ratio (-k + j)(n + j)(-1) / ((-n + j)(j + 1))."""
    total = Fraction(0)
    term = Fraction(1)
    for j in range(k + 1):
        total += term
        if j < k:
            term *= Fraction((-k + j) * (n + j) * (-1), (-n + j) * (j + 1))
    return total


def series_product_oracle(n, krow, order):
    """Coefficients of (1-x)^(krow-1) / (1-x^2)^n by direct convolution."""
    series = geometric_square_series(n, order)
    for _ in range(krow - 1):
        series = [series[0]] + [series[i] - series[i - 1] for i in range(1, order + 1)]
    return series


def test_degenerate_values():
    for n in (1, 2, 5, 9):
        assert gauss_2f1(0, n) == 1
        assert gauss_2f1(1, n) == 0


def test_small_rational_value():
    assert gauss_2f1(2, 2) == 2
    # equal first and third parameters cancel: terms are (3)_j (-1)^j / j!
    assert gauss_2f1(3, 3) == 1 - 3 + 6 - 10
    assert gauss_2f1(2, 3) == 1
    assert gauss_2f1(2, 4) == Fraction(2, 3)


def test_gauss_matches_second_formula():
    for n in range(1, 16):
        for k in range(n + 1):
            assert gauss_2f1(k, n) == gauss_oracle(k, n)


def test_gauss_horner_matches_term_sum_and_second_formula():
    for n in range(1, 61):
        for k in range(n + 1):
            value = gauss_2f1(k, n)
            assert value == gauss_term_oracle(k, n), (k, n)
            assert value == gauss_oracle(k, n), (k, n)


def test_gauss_range_errors():
    with pytest.raises(OutOfRangeError):
        gauss_2f1(3, 2)
    with pytest.raises(OutOfRangeError):
        gauss_2f1(-1, 2)
    with pytest.raises(OutOfRangeError):
        gauss_2f1(0, 0)


def test_big_e_values():
    # 2 - 4 + 6
    assert big_e(2, 2) == 4
    assert big_e(3, 2) == 6
    assert big_e(3, 3) == 36
    with pytest.raises(OutOfRangeError):
        big_e(3, 1)
    with pytest.raises(OutOfRangeError):
        big_e(3, 4)


def test_big_e_cross_identity():
    # (-n)_j = (-1)^j (n-j+1)_j turns the Gauss sum into the integer sum
    for n in range(2, 14):
        for k in range(2, n + 1):
            expected = (-1) ** k * rising(n - k + 1, k) * gauss_2f1(k, n)
            assert Fraction(big_e(n, k)) == expected


def test_big_e_matches_the_direct_sum():
    # the O(k^2) definition: every term from comb and rising
    for n in range(2, 41):
        for k in range(2, n + 1):
            direct = sum(
                (-1) ** (k - j)
                * comb(k, j)
                * rising(n, j)
                * rising(n - k + 1, k - j)
                for j in range(k + 1)
            )
            assert big_e(n, k) == direct


def test_coeff_table_row_one():
    for n in (1, 2, 3, 7):
        table = coeff_table(n, 4, 8)
        series = geometric_square_series(n, 8)
        for j in range(9):
            assert table.value(1, j) == factorial(j) * series[j]
    # the closed form must give 1 at j = 0
    assert coeff_table(5, 1, 0).value(1, 0) == 1


def test_coeff_table_recurrence_values():
    table = coeff_table(2, 3, 3)
    assert table.value(2, 0) == 1
    assert table.value(2, 1) == -1
    assert table.value(2, 2) == 4
    for k in (1, 2, 3):
        assert table.value(k, 0) == 1


def test_coeff_table_against_series_oracle():
    # every row, not just the first, equals the derivative of the product
    for n in (1, 2, 4):
        kmax, jmax = 5, 7
        table = coeff_table(n, kmax, jmax)
        for k in range(1, kmax + 1):
            series = series_product_oracle(n, k, jmax)
            for j in range(jmax + 1):
                assert table.value(k, j) == factorial(j) * series[j], (n, k, j)


def test_coeff_table_errors():
    with pytest.raises(InvalidArityError):
        coeff_table(0, 3, 3)
    with pytest.raises(InvalidArityError):
        coeff_table(2, 0, 3)
    with pytest.raises(OutOfRangeError):
        coeff_table(2, 2, 2).value(3, 0)


def test_sign_battery():
    assert run_battery("signs", max_n=2).passed
    report = run_battery("signs", max_n=10)
    assert report.passed and report.cases_run > 40
    # no eligible sign pairs below n = 2
    report = run_battery("signs", max_n=1)
    assert report.passed


def test_beta_identity_battery():
    report = run_battery("beta-identity", max_n=20)
    assert report.passed
    assert report.cases_run == sum(n + 1 for n in range(1, 21))


def test_derivative_link_battery():
    report = run_battery("e-link", max_n=15)
    assert report.passed
    assert not run_battery("e-link", max_n=2).violations
