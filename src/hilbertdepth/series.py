"""Hilbert functions as integer numerators over powers of (1 - t).

A HilbertFunction stores h(k) = [t^k] numerator / (1 - t)^p, the numerator
a read-only map from exponents to nonzero integers, in canonical form:
while p > 0 the numerator is not divisible by (1 - t), and the lowest
numerator coefficient is strictly positive (it equals h at the first nonzero
degree).  Every construction used here - finite tables, polynomial rings,
free modules with shifts, complete intersections - produces such a form, and
the class is closed under pointwise sum, integer scaling, degree shift, and
adjoining one variable (prefix sums).

A complete intersection's numerator is built on a dense coefficient list,
one prefix-sum pass per form, so r forms with T numerator terms cost
O(r*T) big-integer additions; MAX_CI_TERMS caps T and MAX_CI_WORK caps r*T
before any list exists.
``HilbertFunction.values`` evaluates a whole window from the numerator
terms that can reach it, selected once.

The zero function is unrepresentable by design; constructors raise
EmptyFunctionError instead of building it.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate
from math import comb
from operator import sub
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import (
    BudgetExceededError,
    EmptyFunctionError,
    InvalidArityError,
    InvalidDegreeError,
    NegativeValueError,
    TooManyFormsError,
)

# Largest complete-intersection numerator built, in terms (1 + sum(d_i - 1)).
# It bounds the list length only: at the cap, one form takes about 0.5 s and
# 180 MiB, and each further form adds a pass over longer integers.
MAX_CI_TERMS = 1 << 20
# Largest build work, in terms times prefix-sum passes (forms of degree > 1),
# an upper bound on the big-integer additions.  The heaviest benchmark
# expressions need about 6 * 10^4.
MAX_CI_WORK = 1 << 21


def _times_one_minus_t(num: Mapping[int, int]) -> dict[int, int]:
    out = dict(num)
    for e, c in num.items():
        out[e + 1] = out.get(e + 1, 0) - c
    return out


class HilbertFunction:
    """h(k) = [t^k] numerator / (1 - t)^denom_power, kept canonical.

    The constructor takes any degree -> integer mapping and keeps its
    nonzero entries, divided by (1 - t) while that is exact, as the
    read-only mapping ``numerator``.  Instances are immutable; every
    operation returns a fresh value, so they are safe to share across
    threads.
    """

    __slots__ = ("numerator", "denom_power")

    def __init__(self, numerator: Mapping[int, int], denom_power: int):
        if denom_power < 0:
            raise ValueError("denominator power must be nonnegative")
        num = {e: c for e, c in numerator.items() if c != 0}
        if not num:
            raise EmptyFunctionError("the zero function has no Hilbert function form")
        p = denom_power
        while p > 0 and sum(num.values()) == 0:
            # exact quotient by (1 - t): the prefix sums of the coefficients
            exps = range(min(num), max(num))
            sums = accumulate(num.get(e, 0) for e in exps)
            num = {e: c for e, c in zip(exps, sums) if c != 0}
            p -= 1
        k0 = min(num)
        if num[k0] < 0:
            raise NegativeValueError(
                f"value at first nonzero degree {k0} is negative"
            )
        self.numerator = MappingProxyType(num)
        self.denom_power = p

    @property
    def k0(self) -> int:
        """First degree with a nonzero value."""
        return min(self.numerator)

    @property
    def kf(self) -> int | None:
        """Last degree with a nonzero value, or None for infinite support."""
        if self.denom_power > 0:
            return None
        return max(self.numerator)

    def evaluate(self, k: int) -> int:
        """Exact value h(k); always a nonnegative integer."""
        return self._value(k, self.numerator.items())

    def values(self, lo: int, hi: int) -> list[int]:
        """Exact values h(lo), ..., h(hi); each a nonnegative integer.

        The numerator terms with e <= hi are selected once; every value in
        the window is summed from them alone.
        """
        terms = [(e, c) for e, c in self.numerator.items() if e <= hi]
        return [self._value(k, terms) for k in range(lo, hi + 1)]

    def _value(self, k: int, terms: Iterable[tuple[int, int]]) -> int:
        """h(k) summed from ``terms``, which must hold every numerator term
        with e <= k.  The one place of the closed form and the sign check."""
        p = self.denom_power
        if p == 0:
            value = self.numerator.get(k, 0)
        else:
            value = sum(c * comb(k - e + p - 1, p - 1) for e, c in terms if e <= k)
        if value < 0:
            raise NegativeValueError(f"coefficient at degree {k} is {value}")
        return value

    def __add__(self, other: HilbertFunction) -> HilbertFunction:
        if not isinstance(other, HilbertFunction):
            return NotImplemented
        p = max(self.denom_power, other.denom_power)
        num1, num2 = self.numerator, other.numerator
        for _ in range(p - self.denom_power):
            num1 = _times_one_minus_t(num1)
        for _ in range(p - other.denom_power):
            num2 = _times_one_minus_t(num2)
        total = dict(num1)
        for e, c in num2.items():
            total[e] = total.get(e, 0) + c
        return HilbertFunction(total, p)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HilbertFunction):
            return NotImplemented
        return (
            self.denom_power == other.denom_power
            and self.numerator == other.numerator
        )

    def __hash__(self) -> int:
        return hash((frozenset(self.numerator.items()), self.denom_power))

    def __repr__(self) -> str:
        coeffs = dict(sorted(self.numerator.items()))
        return f"HilbertFunction({coeffs!r}, denom_power={self.denom_power})"

    def to_json_dict(self) -> dict:
        """Exchange form with decimal-string coefficients."""
        return {
            "numerator": {str(e): str(c) for e, c in sorted(self.numerator.items())},
            "denomPower": self.denom_power,
        }


def from_table(values: Mapping[int, int]) -> HilbertFunction:
    """Finite-support function from a degree -> value table.

    Zero values are allowed and vanish; at least one value must be positive.
    """
    for k, v in values.items():
        if v < 0:
            raise NegativeValueError(f"table value at degree {k} is {v}")
    if not any(values.values()):
        raise EmptyFunctionError("table has no positive value")
    return HilbertFunction(values, 0)


def polynomial_ring(n: int) -> HilbertFunction:
    """h(k) = C(n - 1 + k, k) for k >= 0: the standard n-variable ring."""
    if n < 1:
        raise InvalidArityError(f"need at least one variable, got {n}")
    return HilbertFunction({0: 1}, n)


def free_module(n: int, shifts: Iterable[int]) -> HilbertFunction:
    """Direct sum over the shift list a_i of n-variable rings regraded so
    that degree k reads h(k + a_i); repeated shifts add multiplicity."""
    shift_list = list(shifts)
    if n < 1:
        raise InvalidArityError(f"need at least one variable, got {n}")
    if not shift_list:
        raise InvalidArityError("need at least one summand shift")
    return HilbertFunction(Counter(-a for a in shift_list), n)


def complete_intersection(n: int, degrees: Iterable[int]) -> HilbertFunction:
    """Quotient of the n-variable ring by a regular sequence of forms with
    the given degrees: numerator prod_i (1 + t + ... + t^(d_i - 1)) over
    (1 - t)^(n - r).  Degree 1 contributes an empty factor; r = 0 gives the
    full ring.

    Each factor is one prefix-sum pass over the dense coefficient list: the
    new coefficient at k is pre[k] - pre[k - d], pre the running sums.  With
    T = 1 + sum(d_i - 1) numerator terms that is O(r*T) big-integer
    additions.  T above MAX_CI_TERMS, or T times the number of passes above
    MAX_CI_WORK, raises BudgetExceededError before any list is built."""
    degree_list = list(degrees)
    if n < 1:
        raise InvalidArityError(f"need at least one variable, got {n}")
    if len(degree_list) > n:
        raise TooManyFormsError(
            f"{len(degree_list)} forms in {n} variables is not a regular sequence"
        )
    for d in degree_list:
        if d < 1:
            raise InvalidDegreeError(f"form degree {d} is below 1")
    terms = 1 + sum(d - 1 for d in degree_list)
    if terms > MAX_CI_TERMS:
        raise BudgetExceededError(
            f"numerator would have {terms} terms, above the cap {MAX_CI_TERMS}"
        )
    work = terms * sum(d > 1 for d in degree_list)
    if work > MAX_CI_WORK:
        raise BudgetExceededError(
            f"numerator would take {work} term additions, above the cap {MAX_CI_WORK}"
        )
    coeffs = [1]
    for d in degree_list:
        if d > 1:
            pre = list(accumulate(coeffs + [0] * (d - 1)))
            coeffs = [*pre[:d], *map(sub, pre[d:], pre)]
    return HilbertFunction(dict(enumerate(coeffs)), n - len(degree_list))


def scale(h: HilbertFunction, r: int) -> HilbertFunction:
    """All values multiplied by a positive integer r."""
    if r < 1:
        raise InvalidArityError(f"scale factor must be positive, got {r}")
    return HilbertFunction({e: r * c for e, c in h.numerator.items()}, h.denom_power)


def shift(h: HilbertFunction, m: int) -> HilbertFunction:
    """Regrade so the result at k equals h(k + m)."""
    return HilbertFunction({e - m: c for e, c in h.numerator.items()}, h.denom_power)


def extend(h: HilbertFunction) -> HilbertFunction:
    """Adjoin one variable: the result at j is the prefix sum of h up to j."""
    return HilbertFunction(h.numerator, h.denom_power + 1)
