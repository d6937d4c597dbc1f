"""Exact combinatorial primitives: binomial, factorial, rising factorial.

All arithmetic is arbitrary precision (plain int, fractions.Fraction), so
nothing here overflows or rounds.  ``pochhammer`` accepts a Fraction but
never builds one, so ``fractions`` is imported only for type checking and
stays off the import path of the CLI.
"""

from __future__ import annotations

from math import comb, factorial as _math_factorial
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from fractions import Fraction


def binomial(m: int, r: int) -> int:
    """Generalized binomial coefficient, total over all integer arguments.

    Equals m(m-1)...(m-r+1) / r! for r >= 0, and 0 for r < 0.  Negative
    upper arguments use the identity C(m, r) = (-1)^r C(r - m - 1, r).
    """
    if r < 0:
        return 0
    if m >= 0:
        return comb(m, r) if r <= m else 0
    return (-1) ** r * comb(r - m - 1, r)


def factorial(j: int) -> int:
    """j! for j >= 0."""
    return _math_factorial(j)


def pochhammer(a: int | Fraction, j: int) -> int | Fraction:
    """Rising factorial a(a+1)...(a+j-1); the empty product (j = 0) is 1.

    The result has the type of ``a``: int in, int out; Fraction in,
    Fraction out.
    """
    if j < 0:
        raise ValueError("pochhammer needs a nonnegative length")
    result = a ** 0  # 1 in the arithmetic of a
    for i in range(j):
        result = result * (a + i)
    return result
