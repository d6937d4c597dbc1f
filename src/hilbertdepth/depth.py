"""Hilbert depth of a numerical function, with machine-checkable certificates.

For a candidate depth d the transform

    beta(d, k) = sum_{j = k0..k} (-1)^(k - j) C(d - j, k - j) h(j)

inverts to h (see ``reconstruct``), and d is feasible when every entry with
k0 <= k <= d is nonnegative.  The Hilbert depth is the largest feasible d;
it always lies in the window [k0, k0 + floor(h1/h0)] where h0, h1 are the
first two values of h.  Row d is the prefix sums of row d + 1,

    beta(d, k) = sum_{j = k0..k} beta(d + 1, j)     (k0 <= k <= d),

so a nonnegative row d + 1 makes row d nonnegative too, for any integer h:
the feasible depths are the interval [k0, qdepth].  The scan therefore
stops at the first row with a negative entry, which is row qdepth + 1 and
holds the refutation.

Every scan walks the rows with one kernel, ``_rows``.  Pascal's rule on
C(d - j, k - j) gives

    beta(d + 1, k)     = beta(d, k) - beta(d, k - 1)     (k0 < k <= d)
    beta(d + 1, k0)    = h(k0)
    beta(d + 1, d + 1) = h(d + 1) - beta(d, d)

so a scan costs O(q^2) big-integer subtractions, with q = qdepth - k0 + 2,
and no binomial coefficients.  The scans stream the rows and keep two of
them (the current one and the certificate).  The closed form survives only
in the single-entry ``beta``, which is the oracle the tests hold the kernel
to, and in ``reconstruct``.  ``reconstruct`` takes its binomials
C(d - j, k - j) from a bounded cache keyed by (d - k, k - start_k), since
the batteries invert rows of the same few shapes thousands of times.  They
stay binomials, never kernel rows, so the inversion check stays
independent of the kernel.

The fault hook ``HILBERTDEPTH_FLIP_BETA`` is read only in this module,
once per ``qdepth``, ``beta`` or ``beta_rows`` call.  It negates the
reported diagonal entry k == d > k0 of each row; the kernel hands out a
flipped copy and keeps recurring on the clean row.  Flipped rows are not
prefix sums of each other, and the scan stops at the first one with a
negative entry.
"""

from __future__ import annotations

import os
from functools import lru_cache
from math import comb
from operator import mul, sub
from typing import Iterator, NamedTuple

from .errors import OutOfRangeError
from .series import HilbertFunction

# Fault-injection hook for end-to-end tests of the violation path: when this
# environment variable is set (nonempty), every beta value with k == d > k0
# is negated, which makes the verification batteries report violations.
FLIP_BETA_ENV = "HILBERTDEPTH_FLIP_BETA"


class BetaTable(NamedTuple):
    """All beta values for one candidate depth d, from start_k up to d."""

    d: int
    start_k: int
    values: tuple[int, ...]

    def value(self, k: int) -> int:
        if not self.start_k <= k <= self.d:
            raise OutOfRangeError(
                f"k={k} outside table range [{self.start_k}, {self.d}]"
            )
        return self.values[k - self.start_k]

    def to_json_dict(self) -> dict:
        return {
            "d": str(self.d),
            "startK": str(self.start_k),
            "values": [str(v) for v in self.values],
        }


class QDepthResult(NamedTuple):
    """Computed depth plus the evidence: a nonnegative certificate table at
    the depth itself, the search bounds, and (when the depth is below the
    upper bound) one negative entry at depth + 1."""

    qdepth: int
    certificate: BetaTable
    lower_bound: int
    upper_bound: int
    refutation: tuple[int, int, int] | None  # (d, k, beta) with beta < 0

    def to_json_dict(self) -> dict:
        refut = None
        if self.refutation is not None:
            d, k, b = self.refutation
            refut = {"d": str(d), "k": str(k), "beta": str(b)}
        return {
            "qdepth": str(self.qdepth),
            "lowerBound": str(self.lower_bound),
            "upperBound": str(self.upper_bound),
            "certificate": self.certificate.to_json_dict(),
            "refutation": refut,
        }


def _flip_active() -> bool:
    return bool(os.environ.get(FLIP_BETA_ENV))


def _beta_value(evals: list[int], k0: int, d: int, k: int) -> int:
    """Closed-form beta(d, k) from cached values evals[j - k0] = h(j)."""
    total = 0
    sign = 1
    for j in range(k, k0 - 1, -1):
        total += sign * comb(d - j, k - j) * evals[j - k0]
        sign = -sign
    if _flip_active() and k == d > k0:
        total = -total
    return total


def _rows(
    evals: list[int], start: int, top: int, flip: bool = False
) -> Iterator[tuple[int, list[int]]]:
    """Yield (d, row) for d = start..top, row[k - start] = beta(d, k), from
    values evals[j - start] = h(j).  With ``flip`` the diagonal of each row
    past the first is negated in the yielded copy only."""
    row = [evals[0]]
    yield start, row
    for i in range(1, top - start + 1):
        row = [row[0], *map(sub, row[1:], row), evals[i] - row[-1]]
        yield start + i, [*row[:-1], -row[-1]] if flip else row


def beta_rows(
    evals: list[int], start: int, top: int
) -> Iterator[tuple[int, list[int]]]:
    """``_rows`` with the fault hook read once, when called."""
    return _rows(evals, start, top, _flip_active())


def scan(
    evals: list[int], start: int, low: int, high: int, flip: bool = False
) -> QDepthResult:
    """Depth scan over the values evals[j - start] = h(j), reported with the
    window [low, high].

    The rows d = start..min(high, start + len(evals) - 1) are walked up to
    the first one with a negative entry; that row gives the refutation (d,
    first negative k, beta) and the row before it the depth and certificate.
    The row at start must be nonnegative.  With no negative row the last
    row walked is the depth and the refutation is None.
    """
    top = min(high, start + len(evals) - 1)
    refutation = None
    for d, row in _rows(evals, start, top, flip):
        if min(row) < 0:
            k = next(i for i, b in enumerate(row) if b < 0)
            refutation = (d, start + k, row[k])
            break
        best, certificate = d, row
    return QDepthResult(
        best, BetaTable(best, start, tuple(certificate)), low, high, refutation
    )


def beta(h: HilbertFunction, d: int, k: int) -> int:
    """Single transform entry; requires k0(h) <= k <= d."""
    k0 = h.k0
    if k < k0 or k > d:
        raise OutOfRangeError(f"k={k} outside [{k0}, {d}]")
    evals = h.values(k0, k)
    return _beta_value(evals, k0, d, k)


def beta_table(h: HilbertFunction, d: int) -> BetaTable:
    """All entries beta(d, k) for k0(h) <= k <= d."""
    k0 = h.k0
    if d < k0:
        raise OutOfRangeError(f"d={d} is below k0={k0}")
    evals = h.values(k0, d)
    for _, row in beta_rows(evals, k0, d):
        pass
    return BetaTable(d, k0, tuple(row))


@lru_cache(maxsize=128)
def _inverse_coefficients(c: int, b: int) -> tuple[int, ...]:
    """C(c + b - i, b - i) for i = 0..b: the weights ``reconstruct`` puts on
    beta(d, start_k + i) to recover h(k), with c = d - k, b = k - start_k."""
    return tuple(comb(c + b - i, b - i) for i in range(b + 1))


def reconstruct(table: BetaTable, k: int) -> int:
    """Invert the transform: sum_j C(d - j, k - j) beta(d, j) recovers h(k).

    The binomials depend only on c = d - k and b = k - start_k, and come
    from an LRU cache of at most 128 tuples; the 13 inversion rows of a
    ``structural`` case use 91 keys.  A tuple for (c, b) holds b + 1
    integers below 2^(c + b), so in the worst case the cache holds
    128 (b + 1) integers of c + b bits each, for the largest c + b among
    its keys; the 91 battery keys (c + b <= 12) take about 20 KB.
    """
    if not table.start_k <= k <= table.d:
        raise OutOfRangeError(
            f"k={k} outside table range [{table.start_k}, {table.d}]"
        )
    coeffs = _inverse_coefficients(table.d - k, k - table.start_k)
    return sum(map(mul, coeffs, table.values))


def bounds(h: HilbertFunction) -> tuple[int, int]:
    """Inclusive search window [k0, k0 + floor(h1/h0)] for the depth."""
    k0 = h.k0
    h0, h1 = h.values(k0, k0 + 1)
    return k0, k0 + h1 // h0


def qdepth(h: HilbertFunction) -> QDepthResult:
    """Largest d whose beta row is nonnegative, with certificate.

    The window is read once, so a negative value anywhere in it raises
    ``NegativeValueError``; the rows are scanned from k0 up to the first
    negative one.  d = k0 is always feasible because
    beta(k0, k0) = h(k0) > 0.
    """
    low, high = bounds(h)
    evals = h.values(low, high)
    return scan(evals, low, low, high, _flip_active())
