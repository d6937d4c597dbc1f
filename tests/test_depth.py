"""Beta transform, inversion, window bounds, and the depth search."""

import random
from contextlib import contextmanager
from itertools import accumulate
from math import comb

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from hilbertdepth import (
    BudgetExceededError,
    HilbertFunction,
    NegativeValueError,
    OutOfRangeError,
    beta,
    beta_table,
    bounds,
    complete_intersection,
    extend,
    free_module,
    from_table,
    parse_function,
    polynomial_ring,
    qdepth,
    qdepth_from_alpha,
    reconstruct,
    scale,
    shift,
)
from hilbertdepth import depth
from hilbertdepth.depth import BetaTable, _rows, _scan, _top_row, beta_rows
from hilbertdepth.series import MAX_WINDOW
from hilbertdepth.verify import random_hilbert_function

from closed_form import closed_form_beta, closed_form_reconstruct, closed_form_row


def sample_functions():
    rng = random.Random(77)
    pool = [
        from_table({0: 1}),
        from_table({0: 1, 1: 1}),
        from_table({-2: 3, -1: 1, 0: 4}),
        polynomial_ring(1),
        polynomial_ring(4),
        complete_intersection(3, [3]),
        complete_intersection(2, [2, 2]),
        free_module(2, [1, 0, -2]),
        extend(from_table({1: 2, 2: 2})),
    ]
    for _ in range(15):
        start = rng.randint(-4, 4)
        values = [rng.randint(1, 8)] + [rng.randint(0, 8) for _ in range(rng.randint(0, 4))]
        pool.append(from_table({start + i: v for i, v in enumerate(values)}))
    return pool


def test_beta_examples():
    h = polynomial_ring(2)
    assert beta(h, 2, 1) == 0  # -C(2,1)*1 + 2
    for h in sample_functions():
        assert beta(h, h.k0 + 3, h.k0) == h.evaluate(h.k0)
    for n in range(1, 7):
        twos = complete_intersection(n, [2] * n)
        assert beta(twos, n, 0) == 1


def test_beta_matches_oracle():
    for h in sample_functions():
        for d in range(h.k0, h.k0 + 8):
            for k in range(h.k0, d + 1):
                assert beta(h, d, k) == closed_form_beta(h, d, k)


def test_beta_range_errors():
    h = polynomial_ring(2)
    with pytest.raises(OutOfRangeError):
        beta(h, 3, -1)
    with pytest.raises(OutOfRangeError):
        beta(h, 3, 4)
    with pytest.raises(OutOfRangeError):
        beta(h, -1, -1)  # d below k0
    with pytest.raises(OutOfRangeError):
        beta(from_table({2: 1}), 1, 1)
    with pytest.raises(OutOfRangeError):
        beta_table(h, -1)


def test_beta_table_examples():
    assert beta_table(polynomial_ring(1), 1).values == (1, 0)
    for n in range(1, 7):
        twos = complete_intersection(n, [2] * n)
        assert beta_table(twos, n).values == (1,) + (0,) * n
    assert beta_table(from_table({0: 1}), 0).values == (1,)


def test_reconstruct_inverts():
    assert reconstruct(beta_table(from_table({0: 1}), 0)) == [1]
    assert reconstruct(beta_table(polynomial_ring(3), 3)) == [1, 3, 6, 10]
    bt = beta_table(complete_intersection(2, [3, 3]), 2)
    assert reconstruct(bt) == [1, 2, 3]  # (1+t+t^2)^2 = 1 + 2t + 3t^2 + ...
    for h in sample_functions():
        for d in range(h.k0, h.k0 + 13):
            expected = [h.evaluate(k) for k in range(h.k0, d + 1)]
            assert reconstruct(beta_table(h, d)) == expected


def test_reconstruct_matches_the_closed_form():
    # random tables, not kernel rows: negative start_k, negative entries and
    # rows of 1 to 300 entries, all taking the one Pascal-sum route
    rng = random.Random(2024)
    widths = [1, 2, 300] + [rng.randint(1, 40) for _ in range(60)]
    widths += [rng.randint(41, 300) for _ in range(6)]
    for width in widths:
        start = rng.randint(-30, 10)
        values = tuple(rng.randint(-10**6, 10**6) for _ in range(width))
        table = BetaTable(start + width - 1, start, values)
        assert reconstruct(table) == closed_form_reconstruct(table)


def test_bounds():
    assert bounds(from_table({0: 1})) == (0, 0)
    for n in (1, 3, 6):
        assert bounds(polynomial_ring(n)) == (0, n)
    assert bounds(from_table({2: 2, 3: 5})) == (2, 4)


def test_bounds_from_the_numerator_match_the_values(monkeypatch):
    rng = random.Random(77)
    cases = [random_hilbert_function(rng) for _ in range(300)]
    cases += [polynomial_ring(4096), from_table({0: 1, 1: 3_000_000})]
    expected = []
    for h in cases:
        h0, h1 = h.values(h.k0, h.k0 + 1)
        expected.append((h.k0, h.k0 + h1 // h0))

    # bounds reads the numerator in O(1), never the values
    def refuse(self, lo, hi):
        raise AssertionError(f"values({lo}, {hi}) was read")

    monkeypatch.setattr(HilbertFunction, "values", refuse)
    assert [bounds(h) for h in cases] == expected


def test_bounds_reject_a_negative_second_value():
    # h(0) = 1, h(1) = 1 - 5 = -4
    with pytest.raises(NegativeValueError, match="^coefficient at degree 1 is -4$"):
        qdepth(HilbertFunction({0: 1, 1: -5}, 1))
    # bounds itself refuses a raw h(k0 + 1) < 0, by the window lemma's one
    # check: h(3), h(4) = 2, -9 + 2 * 2; h(-1), h(0) = 1, -3
    cases = [({0: 1, 1: -5}, 1, 1, -4), ({3: 2, 4: -9}, 2, 4, -5), ({-1: 1, 0: -3}, 0, 0, -3)]
    for numerator, p, degree, value in cases:
        message = f"^coefficient at degree {degree} is {value}$"
        with pytest.raises(NegativeValueError, match=message):
            bounds(HilbertFunction(numerator, p))


def test_negative_values_past_the_window_do_not_matter():
    # h = 2, 1, 1, 1, 1, -2, ...: the window [0, 0 + 1 // 2] ends at 0
    h = HilbertFunction({0: 2, 1: -1, 5: -3}, 1)
    assert h.values(0, 4) == [2, 1, 1, 1, 1]
    with pytest.raises(NegativeValueError):
        h.values(0, 5)
    result = qdepth(h)
    assert (result.qdepth, result.lower_bound, result.upper_bound) == (0, 0, 0)


def test_qdepth_polynomial_rings():
    for n in range(1, 9):
        assert qdepth(polynomial_ring(n)).qdepth == n


def test_qdepth_worked_example():
    result = qdepth(complete_intersection(3, [3]))
    assert result.qdepth == 3
    assert result.refutation is None


def test_qdepth_small_table():
    result = qdepth(from_table({0: 1, 1: 1}))
    assert result.qdepth == 1
    assert result.certificate.values == (1, 0)


def test_certificate_and_refutation_contract():
    for h in sample_functions():
        result = qdepth(h)
        assert result.lower_bound <= result.qdepth <= result.upper_bound
        assert result.lower_bound == h.k0
        assert all(v >= 0 for v in result.certificate.values)
        assert result.certificate.d == result.qdepth
        if result.qdepth == result.upper_bound:
            assert result.refutation is None
        else:
            d, k, b = result.refutation
            assert d == result.qdepth + 1
            assert b < 0
            assert closed_form_beta(h, d, k) == b
        if h.kf is not None:
            assert result.qdepth <= h.kf


def test_feasible_set_is_an_interval():
    # on every sample the depths in the window with a nonnegative
    # closed-form row run from k0 up to the depth the early-exit scan finds
    for h in sample_functions():
        low, high = bounds(h)
        feasible = [
            d
            for d in range(low, high + 1)
            if min(closed_form_row(h, d)) >= 0
        ]
        assert feasible == list(range(h.k0, qdepth(h).qdepth + 1))


def test_shift_scale_equivariance():
    for h in sample_functions()[:12]:
        d0 = qdepth(h).qdepth
        for m in (-4, -1, 0, 2, 5):
            assert qdepth(shift(h, m)).qdepth == d0 - m
        for r in (2, 3, 7):
            assert qdepth(scale(h, r)).qdepth == d0


def test_superadditivity_and_extension():
    pool = sample_functions()
    rng = random.Random(5)
    for _ in range(20):
        h1, h2 = rng.choice(pool), rng.choice(pool)
        assert qdepth(h1 + h2).qdepth >= min(qdepth(h1).qdepth, qdepth(h2).qdepth)
    for h in pool:
        assert qdepth(extend(h)).qdepth >= qdepth(h).qdepth


def test_parity_of_extended_diagonal():
    for h in sample_functions():
        ext = extend(h)
        for d in range(h.k0, h.k0 + 9):
            expected = sum(
                h.evaluate(m) for m in range(h.k0, d + 1) if (d - m) % 2 == 0
            )
            assert beta(ext, d, d) == expected


def test_flip_hook_negates_diagonal(monkeypatch):
    h = polynomial_ring(3)
    clean = beta(h, 3, 3)
    monkeypatch.setattr("hilbertdepth.depth.FLIP", True)
    assert beta(h, 3, 3) == -clean
    assert qdepth(h).qdepth == 0
    # flipped rows are not prefix sums of each other: the scan stops at the
    # first flipped row even though the flipped row 2 is nonnegative
    result = qdepth(from_table({0: 1, 1: 2, 2: 1}))
    assert (result.qdepth, result.refutation) == (0, (1, 1, -1))
    evals = h.values(0, 3)
    flipped = beta_rows(evals, 0)  # the hook is read here, at the call
    monkeypatch.setattr("hilbertdepth.depth.FLIP", False)
    assert list(flipped) == [(d, closed_form_row(h, d, True)) for d in range(4)]
    assert list(beta_rows(evals, 0)) == list(_rows(evals, 0))
    assert beta(h, 3, 3) == clean


def test_window_cap_raises_before_any_value_is_read():
    # an unguarded list of 10^20 entries raises OverflowError, so a
    # BudgetExceededError shows that the cap was checked before any list
    huge = 10**20
    wide = [
        polynomial_ring(huge),
        complete_intersection(huge, []),
        free_module(huge, [0]),
        from_table({0: 1, 1: huge}),
        extend(from_table({0: 1, 1: huge})),
    ]
    reads = [lambda h=h: qdepth(h) for h in wide] + [
        lambda: beta_table(polynomial_ring(3), huge),
        lambda: polynomial_ring(3).evaluate(huge),
        lambda: polynomial_ring(3).values(0, huge),
        lambda: from_table({0: 1}).values(-huge, 0),
        # no numerator term at or below hi: the width is hi - lo + 1
        lambda: from_table({5: 1}).values(-huge, 0),
    ]
    for read in reads:
        with pytest.raises(BudgetExceededError, match=f"above the cap {MAX_WINDOW}"):
            read()


def test_window_cap_boundary(monkeypatch):
    # the CLI answers table(0:1,1:3000000), a window of 3 * 10^6 + 1
    assert MAX_WINDOW >= 3_000_001
    # for p = 0 the width runs from lo, so a read far past a finite
    # support is only as wide as itself
    assert from_table({0: 1}).evaluate(5_000_000) == 0
    monkeypatch.setattr("hilbertdepth.series.MAX_WINDOW", 5)
    assert len(beta_table(polynomial_ring(3), 4).values) == 5
    assert qdepth(from_table({0: 1, 1: 4})).upper_bound == 4
    with pytest.raises(BudgetExceededError, match="window of 6 degrees"):
        beta_table(polynomial_ring(3), 5)
    with pytest.raises(BudgetExceededError, match="window of 6 degrees"):
        qdepth(from_table({0: 1, 1: 5}))
    # at the cap and one past it, on both routes of ``values``: the prefix
    # passes (a table, p = 0) and the S-convolution (p = 9 > 3 * 1 term)
    table, ring = from_table({0: 1, 2: 3}), polynomial_ring(9)
    assert table.values(0, 4) == [1, 0, 3, 0, 0]
    assert ring.values(0, 4) == [comb(8 + k, k) for k in range(5)]
    for h in (table, ring):
        with pytest.raises(BudgetExceededError, match="window of 6 degrees"):
            h.values(0, 5)
        assert h.values(10, 5) == []
    # lo below the lowest term: the zeros before it count toward the width
    assert ring.values(-2, 2) == [0, 0, 1, 9, 45]
    with pytest.raises(BudgetExceededError, match="window of 6 degrees"):
        ring.values(-3, 2)
    # for p > 0 the width runs from k0 even when lo lies above it
    assert ring.values(4, 4) == [comb(12, 4)]
    with pytest.raises(BudgetExceededError, match="window of 6 degrees"):
        ring.evaluate(5)
    # for p = 0 it runs from lo, past terms below lo
    sparse = from_table({0: 1, 12: 3})
    assert sparse.values(10, 14) == [0, 0, 3, 0, 0]
    with pytest.raises(BudgetExceededError, match="window of 6 degrees"):
        sparse.values(10, 15)


def test_qdepth_wide_polynomial_ring():
    result = qdepth(polynomial_ring(512))
    assert result.qdepth == 512
    assert result.refutation is None
    assert min(result.certificate.values) >= 0


# Hypothesis strategies: small functions from the standard constructions,
# closed under extension, sums and shifts.
_tables = st.builds(
    lambda start, values: from_table({start + i: v for i, v in enumerate(values)}),
    st.integers(-4, 4),
    st.lists(st.integers(0, 9), min_size=1, max_size=6).filter(lambda v: v[0] > 0),
)
_cis = st.integers(1, 5).flatmap(
    lambda n: st.lists(st.integers(2, 4), max_size=n).map(
        lambda degrees: complete_intersection(n, degrees)
    )
)
_frees = st.builds(
    free_module, st.integers(1, 4), st.lists(st.integers(-3, 3), min_size=1, max_size=3)
)
functions = st.recursive(
    st.one_of(_tables, st.integers(1, 6).map(polynomial_ring), _cis, _frees),
    lambda inner: st.one_of(
        inner.map(extend),
        st.tuples(inner, inner).map(lambda pair: pair[0] + pair[1]),
        st.tuples(inner, st.integers(-3, 3)).map(lambda pair: shift(*pair)),
    ),
    max_leaves=4,
)


@contextmanager
def _flipped(flip):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("hilbertdepth.depth.FLIP", flip)
        yield


def reference_scan(h, flip):
    """Exhaustive scan of the window written against the closed-form beta:
    (feasible depths, depth, certificate values, refutation).  The depth is
    the row before the first row with a negative entry."""
    low, high = bounds(h)
    rows = {d: closed_form_row(h, d, flip) for d in range(low, high + 1)}
    feasible = [d for d, row in rows.items() if min(row) >= 0]
    first_negative = next((d for d, row in rows.items() if min(row) < 0), None)
    if first_negative is None:
        return feasible, high, tuple(rows[high]), None
    following = rows[first_negative]
    k = next(i for i, b in enumerate(following) if b < 0)
    refutation = (first_negative, low + k, following[k])
    return feasible, first_negative - 1, tuple(rows[first_negative - 1]), refutation


@settings(max_examples=60, deadline=None)
@given(h=functions)
def test_rows_are_prefix_sums_of_the_next(h):
    # the law the early exit rests on: a nonnegative row d + 1 makes row d
    # nonnegative, so the feasible depths form an interval
    low, high = bounds(h)
    for d in range(low, high + 1):
        row = closed_form_row(h, d)
        following = closed_form_row(h, d + 1)
        assert row == list(accumulate(following))[:-1]


@pytest.mark.parametrize("flip", [False, True])
@settings(max_examples=60, deadline=None)
@given(h=functions, extra=st.integers(0, 4))
def test_kernel_rows_match_closed_form(flip, h, extra):
    low, high = bounds(h)
    top = min(high, low + 24) + extra
    evals = [h.evaluate(j) for j in range(low, top + 1)]
    with _flipped(flip):
        rows = list(beta_rows(evals, low))
    assert [d for d, _ in rows] == list(range(low, top + 1))
    for d, row in rows:
        assert row == closed_form_row(h, d, flip)


@settings(max_examples=60, deadline=None)
@given(h=functions, width=st.integers(0, 30))
def test_reconstruct_inverts_kernel_rows(h, width):
    d = h.k0 + width
    with _flipped(False):
        assert reconstruct(beta_table(h, d)) == h.values(h.k0, d)


@pytest.mark.parametrize("flip", [False, True])
@settings(max_examples=60, deadline=None)
@given(h=functions)
def test_scans_match_reference_scan(flip, h):
    low, high = bounds(h)
    assume(high - low <= 24)
    with _flipped(flip):
        feasible, best, values, refutation = reference_scan(h, flip)
        result = qdepth(h)
        if not flip:
            assert feasible == list(range(low, best + 1))
        assert result.qdepth == best
        assert result.certificate.values == values
        assert result.certificate.start_k == h.k0
        assert result.refutation == refutation
        assert beta_table(h, best).values == values


@settings(max_examples=60, deadline=None)
@given(h=functions, m=st.integers(1, 30))
def test_scan_reads_its_window_off_a_prefix(h, m):
    # any read that reaches h1 reports the whole window; one that reaches
    # the top gives qdepth, and a shorter one with no negative row says so
    # by a depth below the top and no refutation
    low, high = bounds(h)
    with _flipped(False):
        full = qdepth(h)
    result = _scan(h.values(low, low + m), low)
    assert (result.lower_bound, result.upper_bound) == (low, high)
    if low + m >= high or full.qdepth < low + m:
        assert result == full
    else:
        assert result.refutation is None
        assert result.qdepth == low + m < result.upper_bound


def test_qdepth_reports_the_window_of_its_values(monkeypatch):
    # a bounds that over-reports its top by one widens the read only
    cases = [polynomial_ring(n) for n in range(1, 9)]
    cases += [complete_intersection(4, [3, 3, 2]), from_table({0: 1, 1: 3})]
    expected = [qdepth(h) for h in cases]
    clean = depth.bounds
    monkeypatch.setattr(depth, "bounds", lambda h: (clean(h)[0], clean(h)[1] + 1))
    assert [qdepth(h) for h in cases] == expected


# Wide windows over short numerators, the inputs ``qdepth`` answers by one
# numerator row at the window top when its probe scan does not stop.
_wide = st.recursive(
    st.one_of(
        st.integers(1, 200).map(polynomial_ring),
        st.builds(
            free_module,
            st.integers(1, 150),
            st.lists(st.integers(-3, 3), min_size=1, max_size=4),
        ),
    ),
    lambda inner: st.one_of(
        inner.map(extend),
        st.tuples(inner, inner).map(lambda pair: pair[0] + pair[1]),
        st.tuples(inner, st.integers(-3, 3)).map(lambda pair: shift(*pair)),
        st.tuples(inner, st.integers(2, 9)).map(lambda pair: scale(*pair)),
    ),
    max_leaves=3,
)


# T = 41 terms over W = 182 values: the probe walks 172 rows without a
# negative one, the top row at 181 is negative, and the depth is 178.
RESUMED = "sum(poly(180),shift(free(144;-1,-3,0),-1))"


@settings(max_examples=80, deadline=None)
@given(h=st.one_of(functions, _wide))
@example(h=parse_function(RESUMED))
def test_qdepth_equals_the_full_scan(h):
    # the probe and the top row give the whole result of one scan over the
    # window: depth, certificate, bounds and refutation
    with _flipped(False):
        assert qdepth(h) == _scan(h.values(*bounds(h)), h.k0)


@settings(max_examples=60, deadline=None)
@given(h=functions)
def test_top_row_matches_the_kernel(h):
    with _flipped(False):
        for d in range(h.k0, h.k0 + 31):
            assert _top_row(h, d) == list(beta_table(h, d).values)


def test_top_row_route_is_taken_on_wide_sparse_windows(monkeypatch):
    calls = []
    clean = depth._top_row
    monkeypatch.setattr(depth, "_top_row", lambda h, d: calls.append(d) or clean(h, d))
    monkeypatch.setattr(depth, "FLIP", False)

    def count(h):
        calls.clear()
        result = qdepth(h)
        return result.qdepth, len(calls)

    depth_512, taken = count(polynomial_ring(512))
    assert depth_512 == 512 and taken >= 1
    # a probe that stops at a refutation builds no row of 3 * 10^6 entries
    wide_table = from_table({0: 1, 1: 3_000_000, 2: 4_499_998_500_000,
                             3: 4_499_997_000_000_000_000})
    assert count(wide_table) == (3, 0)
    # a dense numerator (1401 terms, 61 values) probes the whole window
    assert count(complete_intersection(60, [36] * 40)) == (60, 0)
    monkeypatch.setattr(depth, "FLIP", True)
    assert count(polynomial_ring(512))[1] == 0


# One-term numerators c t^e / (1 - t)^p: W <= 4 T, W > 4 T with c > 1 and a
# shift, and c > 1 with a negative e.
ONE_TERM = [
    polynomial_ring(3),
    scale(shift(polynomial_ring(512), 3), 7),
    free_module(40, [2, 2]),
]


def _count_routes(monkeypatch):
    """Patch ``_rows`` and ``_top_row`` to record each kernel row built and
    each top row asked for, in ``calls``."""
    calls = []
    clean_rows, clean_top = depth._rows, depth._top_row

    def rows(evals, start):
        for d, row in clean_rows(evals, start):
            calls.append("row")
            yield d, row

    monkeypatch.setattr(depth, "_rows", rows)
    monkeypatch.setattr(depth, "_top_row",
                        lambda h, d: calls.append("_top_row") or clean_top(h, d))
    return calls


@pytest.mark.parametrize("h", ONE_TERM)
def test_one_term_probes_one_row_then_takes_the_top_row(monkeypatch, h):
    # a shifted, scaled ring has its depth at the window top, so its probe
    # is the row d = k0 alone and the top row decides
    calls = _count_routes(monkeypatch)
    monkeypatch.setattr(depth, "FLIP", False)
    result = qdepth(h)
    assert calls == ["row", "_top_row"]
    assert result == _scan(h.values(*bounds(h)), h.k0)
    assert result.qdepth == result.upper_bound == h.k0 + h.denom_power
    # under the fault hook the whole window is probed and no top row built
    calls.clear()
    monkeypatch.setattr(depth, "FLIP", True)
    qdepth(h)
    assert "_top_row" not in calls
    assert calls.count("row") >= 2


@pytest.mark.parametrize("h", ONE_TERM)
def test_one_term_negative_top_row_resumes_the_walk(monkeypatch, h):
    # the theorem only picks the route: a top row that came out negative
    # would send the walk on from row k0, and the answer is the scan's
    calls = _count_routes(monkeypatch)
    monkeypatch.setattr(depth, "_top_row", lambda h, d: calls.append("_top_row") or [-1])
    monkeypatch.setattr(depth, "FLIP", False)
    low, high = bounds(h)
    result = qdepth(h)
    # every row of the window, each built once
    assert calls == ["row", "_top_row"] + ["row"] * (high - low)
    assert result == _scan(h.values(low, high), h.k0)


def test_negative_top_row_resumes_the_probe(monkeypatch):
    # one kernel stream per call: after a negative top row the walk goes on
    # from the probe's last row instead of building rows from k0 again
    calls = []

    def counted(name):
        clean = getattr(depth, name)
        return lambda *args: calls.append(name) or clean(*args)

    monkeypatch.setattr(depth, "_rows", counted("_rows"))
    monkeypatch.setattr(depth, "_top_row", counted("_top_row"))
    monkeypatch.setattr(depth, "FLIP", False)
    for h, (d0, window, refutation) in [
        (parse_function(RESUMED), (178, (0, 181), (179, 8, -6475267))),
        # (4 + 18t) / (1 - t)^7: the top row at d = 11 is negative only at
        # k = 2, by 2, so a top-row test that let it through would answer 11
        (free_module(7, [0] * 4 + [-1] * 18), (10, (0, 11), (11, 2, -2))),
    ]:
        calls.clear()
        result = qdepth(h)
        assert sorted(calls) == ["_rows", "_top_row"]
        assert (result.qdepth, (result.lower_bound, result.upper_bound)) == (d0, window)
        assert result.refutation == refutation
        assert result.certificate == beta_table(h, d0)


def alpha_beta_oracle(alpha, d, k):
    """beta from k = 0 over alpha, with alpha = 0 past its end."""
    return sum(
        (-1) ** (k - j) * comb(d - j, k - j) * alpha[j]
        for j in range(min(k, len(alpha) - 1) + 1)
    )


@settings(max_examples=150, deadline=None)
@given(alpha=st.lists(st.integers(0, 40), min_size=1, max_size=10).filter(any))
def test_alpha_route_matches_closed_form(alpha):
    n = len(alpha) - 1
    k0 = next(k for k, a in enumerate(alpha) if a)
    high = k0 + (alpha[k0 + 1] if k0 < n else 0) // alpha[k0]

    def row(d):
        return [alpha_beta_oracle(alpha, d, k) for k in range(d + 1)]

    # the padded row n + 1 always has a negative entry, so the alpha route
    # needs no bound on its rows beyond the window
    assert min(row(n + 1)) < 0
    best = max(d for d in range(n + 1) if min(row(d)) >= 0)
    refutation = None
    if best < high:
        following = row(best + 1)
        k = next(i for i, b in enumerate(following) if b < 0)
        refutation = (best + 1, k, following[k])
    result = qdepth_from_alpha(alpha)
    assert result.qdepth == best
    assert result.certificate.values == tuple(row(best))
    assert (result.lower_bound, result.upper_bound) == (k0, high)
    assert result.refutation == refutation
