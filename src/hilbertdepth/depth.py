"""Hilbert depth of a numerical function, with machine-checkable certificates.

For a candidate depth d the transform

    beta(d, k) = sum_{j = k0..k} (-1)^(k - j) C(d - j, k - j) h(j)

inverts to h (see ``reconstruct``), and d is feasible when every entry with
k0 <= k <= d is nonnegative.  The Hilbert depth is the largest feasible d;
it always lies in the window [k0, k0 + floor(h1/h0)] where h0, h1 are the
first two values of h.  ``_window`` is the one place that states this
window lemma and the one place that refuses a negative h1.  ``bounds``
passes it h0 = c_k0 and h1 = c_(k0+1) + p c_k0, read off the numerator, so
``qdepth`` reads h only over the window, in one ``values`` read held to
``series.MAX_WINDOW``; it then reads the window back off those values by
``_window``, as ``_scan`` does.  Row d is the prefix sums of row d + 1,

    beta(d, k) = sum_{j = k0..k} beta(d + 1, j)     (k0 <= k <= d),

so a nonnegative row d + 1 makes row d nonnegative too, for any integer h:
the feasible depths are the interval [k0, qdepth].  One upward walk,
``_walk``, therefore decides the depth: it stops at the first row with a
negative entry, which is row qdepth + 1 and holds the refutation.

Every scan walks the rows with one kernel, ``_rows``.  Pascal's rule on
C(d - j, k - j) gives

    beta(d + 1, k)     = beta(d, k) - beta(d, k - 1)     (k0 < k <= d)
    beta(d + 1, k0)    = h(k0)
    beta(d + 1, d + 1) = h(d + 1) - beta(d, d)

so a scan costs O(q^2) big-integer subtractions, with q = qdepth - k0 + 2,
and no binomial coefficients.  The scans stream the rows and keep two of
them (the current one and the certificate).  The kernel is the only code
here that computes beta from values: ``beta_table`` is its last row and
``beta`` one entry of that row.  ``beta`` costs a whole row per entry, so
nothing in the package calls it (the batteries read every entry off rows
they build anyway); it stays as public API.  The closed form above lives
in the tests, as the oracle they hold the kernel to, and they hold
``_top_row`` to the kernel.  ``reconstruct`` recovers a whole row's window
by Horner's rule on the generating function of the inverse, one Pascal-sum
pass per entry, O(L^2) additions for a row of L entries and no state.  It
adds where the kernel subtracts and never calls the kernel, so the
inversion check stays independent of it.

Most depths sit at the window top (the ring, complete intersections with
every degree >= 2, the free modules of the paper), and by the prefix-sum
lemma a nonnegative row at the top proves the top is the depth.
``_top_row`` builds that row from the numerator alone: with u = t/(1 - t),
each numerator term c_e adds c_e times the series of
(1 - t)^(d + p - e) (1 - 2t)^(-p), shifted to e - k0, and that series obeys
a three-term recurrence with one exact division per entry, so the row costs
O(T_L L) for a row of L entries and the T_L terms below it, against the
scan's O(L^2).  ``qdepth`` still reads its whole window once (the cap and
the nonnegativity check), then makes one stream of kernel rows from k0 to
the top.  Its first sqrt(TOP_ROW_RATIO T W) rows, T numerator terms and W
values, are a probe.  A probe that refutes or reaches the top is the
answer; otherwise a nonnegative top row is, and a negative one resumes the
walk on the same stream from the probe's last row, so no row is built
twice.  The probe costs about what the row does, so no input costs much
more than the walk alone, and a dense numerator probes the whole window.
A one-term numerator c t^e / (1 - t)^p is the ring in p variables shifted
by e and scaled by c, so by qdepth(h_S) = n and shift and scale
equivariance its depth is the window top e + p: no probe can refute, and
it probes the one row d = k0.  The theorem only picks that route; the top
row's sign test still decides the answer.

The fault hook ``HILBERTDEPTH_FLIP_BETA`` is read only in this module,
once, into ``FLIP`` when it is imported, and applied only by
``beta_rows``.  It negates the reported diagonal entry k == d > k0 of
each row: ``beta_rows`` hands out a flipped copy, and the kernel keeps
recurring on the clean row.  Flipped rows are not prefix sums of each
other, so no top row can stand in for them: under the hook ``qdepth``
probes its whole window, and the walk stops at the first flipped row with
a negative entry.  ``_scan`` walks ``_rows`` and never sees the hook.
"""

from __future__ import annotations

import os
from itertools import chain, islice
from math import isqrt
from operator import add, sub
from typing import Iterator, NamedTuple

from .errors import NegativeValueError, OutOfRangeError
from .series import HilbertFunction

# Fault-injection hook for end-to-end tests of the violation path: when this
# environment variable is set (nonempty), every beta value with k == d > k0
# is negated, which makes the verification batteries report violations.
FLIP_BETA_ENV = "HILBERTDEPTH_FLIP_BETA"
FLIP = bool(os.environ.get(FLIP_BETA_ENV))
# Probe length in ``qdepth``, in units of sqrt(T W): the probe scan's
# ~2 T W subtractions match the top row's ~T W recurrence steps, and a
# dense numerator (4 T >= W) probes the whole window, the plain scan.  A
# one-term numerator, a shifted and scaled ring whose depth is its window
# top (qdepth(h_S) = n), probes the one row d = k0 instead.
TOP_ROW_RATIO = 4


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


def _rows(evals: list[int], start: int) -> Iterator[tuple[int, list[int]]]:
    """Yield (d, row), row[k - start] = beta(d, k), for one d = start, ...
    per value evals[j - start] = h(j)."""
    row = [evals[0]]
    yield start, row
    for i in range(1, len(evals)):
        row = [row[0], *map(sub, row[1:], row), evals[i] - row[-1]]
        yield start + i, row


def beta_rows(evals: list[int], start: int) -> Iterator[tuple[int, list[int]]]:
    """``_rows`` with the fault hook ``FLIP`` as it stands at the call: under
    it, each row past the first comes as a copy with its diagonal negated,
    and the kernel keeps recurring on the clean row."""
    rows = _rows(evals, start)
    if not FLIP:
        return rows
    return ((d, [*row[:-1], -row[-1]] if d > start else row) for d, row in rows)


def _window(evals: list[int], start: int) -> tuple[int, int]:
    """The window lemma: the depth lies in [k0, k0 + h1 // h0], read off
    values evals[j - start] = h(j).  h0 is the first nonzero value, at k0,
    and h1 the next one (0 past the end).  A negative h1 raises
    NegativeValueError.  Every caller passes a checked read, one with a
    positive value, so no all-zero list reaches it."""
    h0 = next(filter(None, evals))
    first = evals.index(h0)
    k0 = start + first
    h1 = evals[first + 1] if first + 1 < len(evals) else 0
    if h1 < 0:
        raise NegativeValueError(f"coefficient at degree {k0 + 1} is {h1}")
    return k0, k0 + h1 // h0


def _walk(rows: Iterator, start: int, low: int, high: int) -> QDepthResult:
    """Walk rows (d, row), row[k - start] = beta(d, k), up to the first one
    with a negative entry; that row gives the refutation (d, first negative
    k, beta) and the row before it the depth and certificate.  With no
    negative row the last row walked is the depth and the refutation is
    None.  [low, high] is the window reported."""
    refutation = None
    for d, row in rows:
        if min(row) < 0:
            k = next(i for i, b in enumerate(row) if b < 0)
            refutation = (d, start + k, row[k])
            break
        best, certificate = d, row
    table = BetaTable(best, start, tuple(certificate))
    return QDepthResult(best, table, low, high, refutation)


def _scan(evals: list[int], start: int) -> QDepthResult:
    """Depth scan over nonnegative values evals[j - start] = h(j): the rows
    d = start, ... up to the window top read off them (``_window``) or the
    last value, walked by ``_walk``.  A short read that meets no negative
    row reports a depth below the window top and no refutation.  The rows
    are ``_rows``, which the fault hook never reaches: this is the alpha
    route's scan, and ``qdepth`` walks its own stream.

    It checks nothing: callers pass a checked read, nonnegative with a
    positive value (``qdepth_from_alpha`` holds its vector to
    ``series.check_table`` first).  A negative or all-zero read ends in a
    bare ``ValueError`` or ``StopIteration``, not a ``HilbertDepthError``.
    """
    low, high = _window(evals, start)
    return _walk(islice(_rows(evals, start), high - start + 1), start, low, high)


def beta_table(h: HilbertFunction, d: int) -> BetaTable:
    """All entries beta(d, k) for k0(h) <= k <= d: the kernel's row d.  A
    window [k0, d] wider than MAX_WINDOW makes ``h.values`` raise."""
    k0 = h.k0
    if d < k0:
        raise OutOfRangeError(f"d={d} is below k0={k0}")
    for _, row in beta_rows(h.values(k0, d), k0):
        pass
    return BetaTable(d, k0, tuple(row))


def beta(h: HilbertFunction, d: int, k: int) -> int:
    """Single transform entry, read off ``beta_table(h, d)``; requires
    k0(h) <= k <= d.  It costs the whole row, O((d - k0)^2) subtractions."""
    return beta_table(h, d).value(k)


def reconstruct(table: BetaTable) -> list[int]:
    """Invert the transform: [h(start_k), ..., h(d)] from row d, with
    h(k) = sum_j C(d - j, k - j) beta(d, j).

    Those sums are the coefficients of

        H(t) = sum_b beta_b t^b (1 + t)^(L - 1 - b)

    for the row's L entries beta_b = beta(d, start_k + b).  Horner's rule
    builds H one entry at a time, acc -> (1 + t) acc + beta_b t^b, each step
    one Pascal-sum pass, so no binomial is formed.  Row d is a unitriangular
    map of h over [start_k, d] (beta(d, k) = h(k) + terms in h(j), j < k),
    so this is the one exact inverse: any other returns the same list for
    every row, clean, flipped or faulty.
    """
    acc = list(table.values[:1])
    for v in table.values[1:]:
        acc = [*map(add, acc, [0, *acc]), v + acc[-1]]
    return acc


def bounds(h: HilbertFunction) -> tuple[int, int]:
    """Inclusive search window [k0, k0 + floor(h1/h0)] for the depth, by
    ``_window`` on h0 = c_k0 and h1 = c_(k0+1) + p c_k0 read off the
    numerator in O(1), with no ``values`` read."""
    k0 = h.k0
    h0 = h.numerator[k0]
    return _window([h0, h.numerator.get(k0 + 1, 0) + h.denom_power * h0], k0)


def _top_row(h: HilbertFunction, d: int) -> list[int]:
    """beta(d, k) for k0 <= k <= d from the numerator alone: no values, no
    kernel, no binomials.  Modulo t^L, L = d - k0 + 1,

        sum_k beta(d, k) t^(k - k0)
            = sum_e c_e t^(e - k0) (1 - t)^(d + p - e) (1 - 2t)^(-p),

    so each term with i = e - k0 < L adds c_e times the first L - i
    coefficients of A = (1 - t)^a (1 - 2t)^(-p), a = d + p - e; a term at
    or past L meets an empty slice, row[i:], and adds nothing.  From
    (1 - t)(1 - 2t) A' = ((2p - a) + (2a - 2p) t) A, with A_0 = 1 and
    A_(-1) = 0,

        (k + 1) A_(k + 1) = (3k + 2p - a) A_k + 2(a - p - k + 1) A_(k - 1),

    one exact division per entry: O(T_L L) for the T_L terms below L.  The
    step is linear, so it runs on c_e A from c_e A_0 = c_e and the column
    needs no scaling pass.

    At h = S, the ring in n variables, and d = n there is one term, with
    p = n and a = 2n, and the step is

        (k + 1) G_(k + 1) = 3k G_k + 2(n - k + 1) G_(k - 1),  G_0 = 1,  G_1 = 0:

    Gauss's contiguous relation in the first parameter (DLMF 15.5(ii)) for
    G_k = (-1)^k C(n, k) 2F1(-k, n; -n; -1).  Its entries k >= 2 are
    positive, which is the paper's qdepth(h_S) = n; the Gauss batteries in
    ``verify`` read G off this row."""
    k0, p = h.k0, h.denom_power
    size = d - k0 + 1
    row = [0] * size
    for e, c in h.numerator.items():
        i = e - k0
        a = d + p - e
        steps = size - i - 1
        col = [c]
        prev, cur = 0, c
        # the step's coefficients 3k + 2p - a, 2(a - p - k + 1) and k + 1
        up, down = 2 * p - a, 2 * (a - p + 1)
        for x, y, z in zip(range(up, up + 3 * steps, 3),
                           range(down, down - 2 * steps, -2), range(1, steps + 1)):
            prev, cur = cur, (x * cur + y * prev) // z
            col.append(cur)
        row[i:] = map(add, row[i:], col)
    return row


def qdepth(h: HilbertFunction) -> QDepthResult:
    """Largest d whose beta row is nonnegative, with certificate.

    The window is read by one ``h.values`` call, which raises on a negative
    value or a window wider than MAX_WINDOW, and its top is read back off
    those values.  One stream of ``beta_rows`` from k0 to the top is walked
    once.  Its first P rows are a probe, P = sqrt(TOP_ROW_RATIO T W) for T
    numerator terms and W values, or the whole window under ``FLIP``.  With
    one term, c t^e / (1 - t)^p, P = 1: h is then the ring in p variables
    shifted by e and scaled by c, whose depth is the window top by
    qdepth(h_S) = n, so no longer probe could refute.  If the probe
    neither refutes nor reaches the top, one ``_top_row`` at the
    top that is nonnegative proves the top is the depth (prefix-sum lemma),
    and a negative one resumes the walk from the probe's last row.
    d = k0 is always feasible because beta(k0, k0) = h(k0) > 0.
    """
    evals = h.values(*bounds(h))
    low, high = _window(evals, h.k0)
    rows = islice(beta_rows(evals, low), high - low + 1)
    terms = len(h.numerator)
    if FLIP:
        size = len(evals)
    elif terms == 1:
        size = 1
    else:
        size = isqrt(TOP_ROW_RATIO * terms * len(evals))
    probe = _walk(islice(rows, size), low, low, high)
    if probe.refutation is not None or probe.qdepth == high:
        return probe
    row = _top_row(h, high)
    if min(row) >= 0:
        return QDepthResult(high, BetaTable(high, low, tuple(row)), low, high, None)
    # the probe's last row heads the rest of the stream: no row is rebuilt
    resumed = chain([(probe.qdepth, probe.certificate.values)], rows)
    return _walk(resumed, low, low, high)
