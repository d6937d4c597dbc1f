"""Hilbert functions as integer numerators over powers of (1 - t).

A HilbertFunction stores h(k) = [t^k] numerator / (1 - t)^p, the numerator
a read-only map from exponents to nonzero integers, in canonical form:
while p > 0 the numerator is not divisible by (1 - t), and the lowest
numerator coefficient is strictly positive (it equals h at the first nonzero
degree).  Every construction used here - finite tables, polynomial rings,
free modules with shifts, complete intersections - produces such a form, and
the class is closed under pointwise sum, integer scaling, degree shift, and
adjoining one variable (prefix sums).  A sum lifts the T-term numerator
over the lower power by the j + 1 entries of the binomial row of (1 - t)^j,
j the gap between the powers: O(T (j + 1)) products, sparse in the exponents.

A complete intersection's numerator is palindromic, so it is built on the
lower half of a dense coefficient list: one prefix-sum pass per form of
degree > 1, smallest forms first, each over about half of the partial
product, and one mirror at the end.  r forms with T numerator terms cost at
most r*T big-integer additions, O(r*T); MAX_CI_TERMS caps T and MAX_CI_WORK
caps r*T before any list exists.
``HilbertFunction.values`` evaluates a window [lo, hi] exactly and without
binomials on one dense list over [base, hi], sliced once at lo.  For p > 0
base = min(lo, k0), so a window far above k0 costs as much as the whole
stretch up to it; for p = 0 the values are the numerator coefficients and
base = lo, so a read past a finite support costs only its own width.  The
T numerator terms at or below hi fill the list by p prefix-sum passes while
p <= PREFIX_ROUTE_RATIO * T, else by the S-convolution
h(k) = sum_e c_e S[k - e], where S[j] = C(j + p - 1, p - 1)
= S[j - 1] (j + p - 1) // j; either route costs O(hi - base) per pass or
term.  Every read, the depth scans' included, is refused before the list
exists when hi - base + 1 passes MAX_WINDOW.

The zero function is unrepresentable by design; constructors raise
EmptyFunctionError instead of building it.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate
from operator import add, sub
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
# It bounds the list length only: at the cap, one form takes about 0.45 s and
# 180 MiB, most of it the numerator mapping, and each further form adds a
# pass over longer integers.
MAX_CI_TERMS = 1 << 20
# Largest build work, in terms times prefix-sum passes (forms of degree > 1),
# an upper bound on the big-integer additions: a pass over the lower half
# takes fewer than T.  The heaviest benchmark expressions need about 6 * 10^4.
MAX_CI_WORK = 1 << 21
# Widest list ``values`` builds, in degrees, checked before any list exists.
# The CLI answers table(0:1,1:3000000), whose window is 3 * 10^6 + 1 wide.
MAX_WINDOW = 1 << 22
# The measured crossover of the two ``values`` routes: timed over T = 1..300
# and W = 4..300, they break even between p = 2T and p = 4T.
PREFIX_ROUTE_RATIO = 3


class HilbertFunction:
    """h(k) = [t^k] numerator / (1 - t)^denom_power, kept canonical.

    The constructor takes any degree -> integer mapping and keeps its
    nonzero entries, divided by (1 - t) while that is exact, as the
    read-only mapping ``numerator``, and its lowest exponent, the first
    degree with a nonzero value, as ``k0``.  Instances are immutable:
    assigning or deleting an attribute raises ``AttributeError``, a copy is
    the instance itself, and every operation returns a fresh value, so they
    are safe to share across threads.  ``pickle`` and ``deepcopy`` rebuild
    an equal instance from the numerator as a plain dict.
    """

    __slots__ = ("numerator", "denom_power", "k0")

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
        object.__setattr__(self, "numerator", MappingProxyType(num))
        object.__setattr__(self, "denom_power", p)
        object.__setattr__(self, "k0", k0)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"HilbertFunction is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"HilbertFunction is immutable; cannot delete {name!r}")

    def __copy__(self) -> HilbertFunction:
        return self

    def __reduce__(self) -> tuple:
        return HilbertFunction, (dict(self.numerator), self.denom_power)

    @property
    def kf(self) -> int | None:
        """Last degree with a nonzero value, or None for infinite support."""
        if self.denom_power > 0:
            return None
        return max(self.numerator)

    def evaluate(self, k: int) -> int:
        """Exact value h(k) = values(k, k)[0], always a nonnegative integer.
        For p > 0 the read runs from min(k, k0), so k - k0 + 1 above
        MAX_WINDOW is refused; for p = 0 it is the one degree k."""
        return self.values(k, k)[0]

    def values(self, lo: int, hi: int) -> list[int]:
        """Exact values h(lo), ..., h(hi) from one dense list on [base, hi],
        base = min(lo, k0) when p > 0 and base = lo when p = 0; raises
        NegativeValueError at the first negative value, and
        BudgetExceededError before the list is built when hi - base + 1
        is wider than MAX_WINDOW.  hi < lo gives []."""
        if hi < lo:
            return []
        p = self.denom_power
        base = min(lo, self.k0) if p else lo
        width = hi - base + 1
        if width > MAX_WINDOW:
            raise BudgetExceededError(
                f"window of {width} degrees is above the cap {MAX_WINDOW}"
            )
        dense = [0] * width
        terms = [(e, c) for e, c in self.numerator.items() if e <= hi]
        if p <= PREFIX_ROUTE_RATIO * len(terms):
            # p prefix-sum passes; p = 0 reads no term below base = lo
            for e, c in terms:
                if e >= base:
                    dense[e - base] = c
            for _ in range(p):
                dense = list(accumulate(dense))
        else:
            # S[j] = C(j + p - 1, p - 1), then h(k) = sum_e c_e S[k - e];
            # every e >= k0, so S on [0, hi - k0] reaches hi from each term
            s = [1] * (hi - self.k0 + 1)
            for j in range(1, len(s)):
                s[j] = s[j - 1] * (j + p - 1) // j
            for e, c in terms:
                dense[e - base:] = map(add, dense[e - base:], map(c.__mul__, s))
        out = dense[lo - base:]
        if min(out) < 0:
            k, value = next((k, v) for k, v in enumerate(out, lo) if v < 0)
            raise NegativeValueError(f"coefficient at degree {k} is {value}")
        return out

    def __add__(self, other: HilbertFunction) -> HilbertFunction:
        """Pointwise sum: b_i c_e added at e + i for each term c_e of the
        lower-power numerator and each b_i = (-1)^i C(j, i) of (1 - t)^j, j
        the gap between the powers; T terms cost O(T (j + 1)) products."""
        if not isinstance(other, HilbertFunction):
            return NotImplemented
        high, low = self, other
        if high.denom_power < low.denom_power:
            high, low = low, high
        j = high.denom_power - low.denom_power
        total = dict(high.numerator)
        b = 1
        for i in range(j + 1):
            for e, c in low.numerator.items():
                total[e + i] = total.get(e + i, 0) + b * c
            b = -b * (j - i) // (i + 1)
        return HilbertFunction(total, high.denom_power)

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


def check_table(values: Mapping[int, int]) -> None:
    """The input rule of a degree -> value table, stated once: a negative
    value raises NegativeValueError at its degree, and a table with no
    positive value raises EmptyFunctionError.  ``from_table`` and the alpha
    route (``squarefree.qdepth_from_alpha``) both hold their input to it."""
    for k, v in values.items():
        if v < 0:
            raise NegativeValueError(f"table value at degree {k} is {v}")
    if not any(values.values()):
        raise EmptyFunctionError("table has no positive value")


def from_table(values: Mapping[int, int]) -> HilbertFunction:
    """Finite-support function from a degree -> value table.

    Zero values are allowed and vanish; at least one value must be positive
    (``check_table``).
    """
    check_table(values)
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

    Every factor is palindromic, so every partial product is too: c_k =
    c_(top - k).  The build keeps only c_0..c_(top // 2), takes the forms in
    ascending degree and mirrors once at the end.  A form of degree d > 1 is
    one prefix-sum pass over the lower half of the new product: its
    coefficient at k is pre[k] - pre[k - d], pre the running sums, and the
    old coefficients it reads past the kept half are mirror images of kept
    ones.  With T = 1 + sum(d_i - 1) numerator terms a pass takes fewer than
    T big-integer additions, so r forms cost O(r*T).  The arguments are
    checked in the given order first: T above MAX_CI_TERMS, or T times the
    number of passes above MAX_CI_WORK, raises BudgetExceededError before
    any list is built."""
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
    # half = c_0..c_(top // 2) of the palindromic partial product
    half, top = [1], 0
    for d in sorted(degree_list):
        if d > 1:
            old, top = top, top + d - 1
            size = top // 2 + 1
            # c_k past the old half is its mirror c_(old - k), zero past old
            coeffs = half + half[max(0, old - size + 1):old - old // 2][::-1]
            coeffs += [0] * (size - len(coeffs))
            pre = list(accumulate(coeffs))
            half = [*pre[:d], *map(sub, pre[d:], pre)]
    coeffs = half + half[:top - top // 2][::-1]
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
