"""Beta transform, inversion, window bounds, and the depth search."""

import random
from contextlib import contextmanager
from itertools import accumulate
from math import comb

import pytest
from hypothesis import assume, given, settings, strategies as st

from hilbertdepth import (
    OutOfRangeError,
    beta,
    beta_table,
    bounds,
    complete_intersection,
    extend,
    free_module,
    from_table,
    polynomial_ring,
    qdepth,
    qdepth_from_alpha,
    reconstruct,
    scale,
    shift,
)
from hilbertdepth.depth import (
    FLIP_BETA_ENV,
    BetaTable,
    _inverse_coefficients,
    _rows,
    beta_rows,
)


def beta_oracle(h, d, k):
    """Direct alternating sum, written separately from the implementation."""
    return sum(
        (-1) ** (k - j) * comb(d - j, k - j) * h.evaluate(j)
        for j in range(h.k0, k + 1)
    )


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
                assert beta(h, d, k) == beta_oracle(h, d, k)


def test_beta_range_errors():
    h = polynomial_ring(2)
    with pytest.raises(OutOfRangeError):
        beta(h, 3, -1)
    with pytest.raises(OutOfRangeError):
        beta(h, 3, 4)
    with pytest.raises(OutOfRangeError):
        beta_table(h, -1)


def test_beta_table_examples():
    assert beta_table(polynomial_ring(1), 1).values == (1, 0)
    for n in range(1, 7):
        twos = complete_intersection(n, [2] * n)
        assert beta_table(twos, n).values == (1,) + (0,) * n
    assert beta_table(from_table({0: 1}), 0).values == (1,)


def test_reconstruct_inverts():
    assert reconstruct(beta_table(from_table({0: 1}), 0), 0) == 1
    assert reconstruct(beta_table(polynomial_ring(3), 3), 2) == 6
    bt = beta_table(complete_intersection(2, [3, 3]), 2)
    assert reconstruct(bt, 2) == 3  # (1+t+t^2)^2 has middle coefficient 3
    for h in sample_functions():
        for d in range(h.k0, h.k0 + 13):
            table = beta_table(h, d)
            for k in range(h.k0, d + 1):
                assert reconstruct(table, k) == h.evaluate(k)
    with pytest.raises(OutOfRangeError):
        reconstruct(beta_table(polynomial_ring(2), 3), 4)


def test_cached_reconstruct_matches_the_direct_sum():
    # random tables, not kernel rows: negative start_k, negative entries and
    # widths past the 91 (d - k, k - start_k) keys a structural case uses
    rng = random.Random(2024)
    for _ in range(400):
        start = rng.randint(-30, 10)
        d = start + rng.randint(0, 40)
        values = tuple(rng.randint(-10**6, 10**6) for _ in range(d - start + 1))
        table = BetaTable(d, start, values)
        for k in range(start, d + 1):
            direct = sum(
                comb(d - j, k - j) * values[j - start] for j in range(start, k + 1)
            )
            assert reconstruct(table, k) == direct
    maxsize = _inverse_coefficients.cache_info().maxsize
    assert maxsize is not None and 0 < maxsize
    assert _inverse_coefficients.cache_info().currsize <= maxsize


def test_bounds():
    assert bounds(from_table({0: 1})) == (0, 0)
    for n in (1, 3, 6):
        assert bounds(polynomial_ring(n)) == (0, n)
    assert bounds(from_table({2: 2, 3: 5})) == (2, 4)


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
            assert beta(h, d, k) == b
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
            if min(beta(h, d, k) for k in range(low, d + 1)) >= 0
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
    monkeypatch.setenv(FLIP_BETA_ENV, "1")
    assert beta(h, 3, 3) == -clean
    assert qdepth(h).qdepth == 0
    # flipped rows are not prefix sums of each other: the scan stops at the
    # first flipped row even though the flipped row 2 is nonnegative
    result = qdepth(from_table({0: 1, 1: 2, 2: 1}))
    assert (result.qdepth, result.refutation) == (0, (1, 1, -1))
    evals = h.values(0, 3)
    flipped = beta_rows(evals, 0, 3)  # the hook is read here, at the call
    monkeypatch.delenv(FLIP_BETA_ENV)
    assert list(flipped) == list(_rows(evals, 0, 3, True))
    assert list(beta_rows(evals, 0, 3)) == list(_rows(evals, 0, 3))
    assert beta(h, 3, 3) == clean


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
def _flip_env(flip):
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv(FLIP_BETA_ENV, raising=False)
        if flip:
            mp.setenv(FLIP_BETA_ENV, "1")
        yield


def reference_scan(h):
    """Exhaustive scan of the window written against the closed-form beta:
    (feasible depths, depth, certificate values, refutation).  The depth is
    the row before the first row with a negative entry."""
    low, high = bounds(h)
    rows = {d: [beta(h, d, k) for k in range(low, d + 1)] for d in range(low, high + 1)}
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
    with _flip_env(False):
        for d in range(low, high + 1):
            row = [beta(h, d, k) for k in range(low, d + 1)]
            following = [beta(h, d + 1, k) for k in range(low, d + 2)]
            assert row == list(accumulate(following))[:-1]


@pytest.mark.parametrize("flip", [False, True])
@settings(max_examples=60, deadline=None)
@given(h=functions, extra=st.integers(0, 4))
def test_kernel_rows_match_closed_form(flip, h, extra):
    low, high = bounds(h)
    top = min(high, low + 24) + extra
    evals = [h.evaluate(j) for j in range(low, top + 1)]
    with _flip_env(flip):
        rows = list(_rows(evals, low, top, flip))
        assert [d for d, _ in rows] == list(range(low, top + 1))
        for d, row in rows:
            assert row == [beta(h, d, k) for k in range(low, d + 1)]


@pytest.mark.parametrize("flip", [False, True])
@settings(max_examples=60, deadline=None)
@given(h=functions)
def test_scans_match_reference_scan(flip, h):
    low, high = bounds(h)
    assume(high - low <= 24)
    with _flip_env(flip):
        feasible, best, values, refutation = reference_scan(h)
        result = qdepth(h)
        if not flip:
            assert feasible == list(range(low, best + 1))
        assert result.qdepth == best
        assert result.certificate.values == values
        assert result.certificate.start_k == h.k0
        assert result.refutation == refutation
        assert beta_table(h, best).values == values


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
