"""Construction and algebra of Hilbert functions.

The independent oracles here: prefix-sum expansion for values of
numerator/(1-t)^p, and brute-force counting of bounded-exponent monomials
for complete intersections.
"""

import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from hilbertdepth import (
    BudgetExceededError,
    ElaborationError,
    EmptyFunctionError,
    HilbertFunction,
    InvalidArityError,
    InvalidDegreeError,
    NegativeValueError,
    TooManyFormsError,
    complete_intersection,
    extend,
    free_module,
    from_table,
    parse_function,
    polynomial_ring,
    scale,
    shift,
)
from hilbertdepth import series
from hilbertdepth.series import MAX_CI_TERMS, MAX_CI_WORK


def series_values_oracle(h, lo, hi):
    """Expand numerator/(1-t)^p by repeated prefix summation."""
    base = min(h.numerator)
    coeffs = [h.numerator.get(e, 0) for e in range(base, hi + 1)]
    for _ in range(h.denom_power):
        running = 0
        summed = []
        for c in coeffs:
            running += c
            summed.append(running)
        coeffs = summed
    out = []
    for k in range(lo, hi + 1):
        out.append(coeffs[k - base] if k >= base else 0)
    return out


def ci_count_oracle(n, degrees, k):
    """Count exponent tuples with sum k, bounded below each degree for the
    first r coordinates and unbounded after.  Brute force, small cases only."""
    r = len(degrees)
    count = 0
    bounded = [range(d) for d in degrees]
    for head in itertools.product(*bounded):
        rest = k - sum(head)
        if rest < 0:
            continue
        free = n - r
        if free == 0:
            count += rest == 0
        else:
            # weak compositions of rest into free parts
            count += len(
                [c for c in itertools.combinations(range(rest + free - 1), free - 1)]
            )
    return count


def times_one_minus_t(num):
    """num * (1 - t) on the dense range of exponents: c_e - c_(e-1)."""
    lo, hi = min(num), max(num)
    return {e: num.get(e, 0) - num.get(e - 1, 0) for e in range(lo, hi + 2)}


def random_table_function(rng):
    start = rng.randint(-5, 5)
    values = [rng.randint(1, 9)] + [rng.randint(0, 9) for _ in range(rng.randint(0, 4))]
    return from_table({start + i: v for i, v in enumerate(values)})


def test_from_table_examples():
    h = from_table({0: 1})
    assert h.evaluate(0) == 1 and h.evaluate(1) == 0 and h.evaluate(-3) == 0
    h = from_table({0: 1, 1: 3, 2: 3, 3: 1})
    assert h.k0 == 0 and h.kf == 3
    assert [h.evaluate(k) for k in range(4)] == [1, 3, 3, 1]
    h = from_table({-2: 5})
    assert h.k0 == -2 and h.evaluate(-2) == 5


def test_from_table_errors():
    with pytest.raises(EmptyFunctionError):
        from_table({0: 0, 3: 0})
    with pytest.raises(NegativeValueError):
        from_table({0: 1, 1: -2})


def test_polynomial_ring_values():
    assert polynomial_ring(3).evaluate(2) == 6
    assert [polynomial_ring(1).evaluate(k) for k in range(-2, 5)] == [0, 0, 1, 1, 1, 1, 1]
    assert polynomial_ring(5).evaluate(3) == 35  # C(7,3)
    with pytest.raises(InvalidArityError):
        polynomial_ring(0)


def test_free_module():
    assert free_module(2, [0]) == polynomial_ring(2)
    h = free_module(3, [2])
    assert h.k0 == -2 and h.evaluate(-2) == 1
    h = free_module(2, [0, 0, -1])
    # oracle: sum of the shifted ring values
    ring = polynomial_ring(2)
    for k in range(-1, 6):
        assert h.evaluate(k) == 2 * ring.evaluate(k) + ring.evaluate(k - 1)
    assert h.evaluate(0) == 2 and h.evaluate(1) == 5
    with pytest.raises(InvalidArityError):
        free_module(2, [])


def test_free_module_is_shifted_ring():
    # one summand S(a) is the ring regraded by a: value at k reads h(k + a)
    for n in (1, 2, 4):
        for a in (-2, 0, 3):
            assert free_module(n, [a]) == shift(polynomial_ring(n), a)
            assert free_module(n, [a]).k0 == -a


def test_complete_intersection_tables():
    h = complete_intersection(2, [2, 2])
    assert [h.evaluate(k) for k in range(4)] == [1, 2, 1, 0]
    assert h.kf == 2
    assert complete_intersection(4, []) == polynomial_ring(4)
    # a degree-1 form contributes an empty numerator factor but still
    # consumes one denominator power, like quotienting by a variable
    assert complete_intersection(3, [1, 2]) == complete_intersection(2, [2])


def test_complete_intersection_against_count_oracle():
    for n, degrees in [(3, [3]), (2, [2, 3]), (3, [2, 2, 2]), (4, [2, 3])]:
        h = complete_intersection(n, degrees)
        for k in range(7):
            assert h.evaluate(k) == ci_count_oracle(n, degrees, k), (n, degrees, k)


def test_complete_intersection_worked_example():
    # one cubic in three variables: 1, 3, 6, 9, 12, ...
    h = complete_intersection(3, [3])
    assert [h.evaluate(k) for k in range(5)] == [1, 3, 6, 9, 12]
    assert h.kf is None


def test_complete_intersection_errors():
    with pytest.raises(TooManyFormsError):
        complete_intersection(2, [2, 2, 2])
    with pytest.raises(InvalidDegreeError):
        complete_intersection(3, [2, 0])


def test_finite_ci_total_mass():
    rng = random.Random(4)
    for _ in range(25):
        n = rng.randint(1, 4)
        degrees = [rng.randint(1, 4) for _ in range(n)]
        h = complete_intersection(n, degrees)
        total = sum(h.evaluate(k) for k in range(h.kf + 1))
        expected = 1
        for d in degrees:
            expected *= d
        assert total == expected


def test_evaluate_against_prefix_sum_oracle():
    rng = random.Random(11)
    pool = [
        polynomial_ring(3),
        complete_intersection(3, [3]),
        complete_intersection(2, [2, 2]),
        free_module(2, [1, -1]),
        extend(extend(from_table({-1: 2, 0: 1}))),
    ]
    for _ in range(20):
        pool.append(random_table_function(rng))
    for h in pool:
        lo = h.k0 - 2
        hi = h.k0 + 12
        assert [h.evaluate(k) for k in range(lo, hi + 1)] == series_values_oracle(h, lo, hi)


def test_evaluate_negative_coefficient_rejected():
    # a numerator that is not a Hilbert function: h(1) = -1
    bad = HilbertFunction({0: 1, 1: -2, 3: 1}, 0)
    with pytest.raises(NegativeValueError):
        bad.evaluate(1)


def test_k0_kf():
    assert polynomial_ring(4).k0 == 0
    assert shift(polynomial_ring(2), 5).k0 == -5
    assert from_table({3: 7}).k0 == 3
    assert from_table({0: 1, 2: 1}).kf == 2
    assert polynomial_ring(1).kf is None
    assert complete_intersection(2, [2, 2]).kf == 2


def test_add():
    assert from_table({0: 1}) + from_table({1: 1}) == from_table({0: 1, 1: 1})
    doubled = polynomial_ring(2) + polynomial_ring(2)
    for k in range(6):
        assert doubled.evaluate(k) == 2 * (k + 1)
    mixed = from_table({0: 1}) + polynomial_ring(1)
    assert [mixed.evaluate(k) for k in range(4)] == [2, 1, 1, 1]


def test_add_pointwise_on_window():
    rng = random.Random(23)
    for _ in range(30):
        h1 = random_table_function(rng)
        h2 = extend(random_table_function(rng)) if rng.random() < 0.5 else random_table_function(rng)
        total = h1 + h2
        lo = min(h1.k0, h2.k0)
        for k in range(lo, lo + 40):
            assert total.evaluate(k) == h1.evaluate(k) + h2.evaluate(k)


def test_scale():
    h = from_table({0: 2})
    assert scale(h, 1) == h
    assert scale(h, 3) == from_table({0: 6})
    assert scale(polynomial_ring(2), 2) == polynomial_ring(2) + polynomial_ring(2)
    with pytest.raises(InvalidArityError):
        scale(h, 0)


def test_shift():
    h = from_table({0: 1, 2: 4})
    assert shift(h, 0) == h
    assert shift(from_table({0: 1}), 2) == from_table({-2: 1})
    for k in range(-5, 5):
        assert shift(h, 3).evaluate(k) == h.evaluate(k + 3)


@given(st.integers(-6, 6), st.integers(-6, 6), st.integers(1, 4))
def test_shift_composition(a, b, n):
    h = polynomial_ring(n)
    assert shift(shift(h, a), b) == shift(h, a + b)


def test_extend():
    assert extend(from_table({0: 1})) == polynomial_ring(1)
    for n in range(1, 6):
        assert extend(polynomial_ring(n)) == polynomial_ring(n + 1)
    assert extend(from_table({0: 1, 1: 1})).evaluate(3) == 2


def test_extend_difference_property():
    rng = random.Random(31)
    for _ in range(25):
        h = random_table_function(rng)
        ext = extend(h)
        for k in range(h.k0 - 1, h.k0 + 41):
            assert ext.evaluate(k) - ext.evaluate(k - 1) == h.evaluate(k)


def test_canonical_form_idempotent():
    h = complete_intersection(3, [2, 3])
    # multiplying numerator and denominator by (1 - t) twice must reduce back
    inflated = HilbertFunction(
        times_one_minus_t(times_one_minus_t(h.numerator)), h.denom_power + 2
    )
    assert inflated == h
    rebuilt = HilbertFunction(h.numerator, h.denom_power)
    assert rebuilt == h


def test_pointwise_equal_routes_share_canonical_form():
    from hilbertdepth.verify import random_hilbert_function

    rng = random.Random(47)
    for _ in range(40):
        h = random_hilbert_function(rng)
        assert h + h == scale(h, 2)
        assert HilbertFunction(h.numerator, h.denom_power) == h
        inflated = times_one_minus_t(times_one_minus_t(h.numerator))
        assert HilbertFunction(inflated, h.denom_power + 2) == h
    for _ in range(20):
        whole = random_table_function(rng)
        evens = {e: c for e, c in whole.numerator.items() if e % 2 == 0}
        odds = {e: c for e, c in whole.numerator.items() if e % 2}
        if evens and odds:
            assert from_table(evens) + from_table(odds) == whole


def test_zero_function_unrepresentable():
    with pytest.raises(EmptyFunctionError):
        HilbertFunction({}, 2)
    with pytest.raises(EmptyFunctionError):
        HilbertFunction({0: 0, 3: 0}, 1)


def test_constructor_takes_any_int_mapping():
    assert HilbertFunction({0: 1, 3: 0}, 0).kf == 0
    assert dict(HilbertFunction({0: 1, 3: 0}, 0).numerator) == {0: 1}
    shifts = Counter({0: 2, -1: 1, 4: 0})
    assert HilbertFunction(shifts, 2) == free_module(2, [0, 0, 1])
    assert HilbertFunction({0: 1, 1: -1}, 1) == from_table({0: 1})


def test_numerator_is_read_only():
    coeffs = {0: 1, 2: 3}
    h = HilbertFunction(coeffs, 0)
    with pytest.raises(TypeError):
        h.numerator[0] = 5
    with pytest.raises(TypeError):
        h.numerator[1] = 5
    # the caller's mapping is copied, not shared
    coeffs[0] = 7
    assert h.evaluate(0) == 1 and h.numerator == {0: 1, 2: 3}


def decode_function(data):
    """The function of a ``to_json_dict`` payload."""
    numerator = {int(e): int(c) for e, c in data["numerator"].items()}
    return HilbertFunction(numerator, data["denomPower"])


def test_json_round_trip():
    rng = random.Random(91)
    pool = [polynomial_ring(3), complete_intersection(3, [3]), free_module(2, [2, -1])]
    pool += [random_table_function(rng) for _ in range(10)]
    for h in pool:
        data = h.to_json_dict()
        assert decode_function(data) == h
        assert all(isinstance(c, str) for c in data["numerator"].values())


def sparse_product(f, g):
    """Product of two Laurent polynomials, term by term."""
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return out


def ci_product_oracle(n, degrees):
    """The numerator as a product of geometric factors with the general
    sparse multiplication, over (1 - t)^(n - r)."""
    num = {0: 1}
    for d in degrees:
        num = sparse_product(num, {i: 1 for i in range(d)})
    return HilbertFunction(num, n - len(degrees))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 12).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.integers(1, 12), max_size=n))
    )
)
def test_complete_intersection_matches_product_oracle(case):
    n, degrees = case
    h = complete_intersection(n, degrees)
    expected = ci_product_oracle(n, degrees)
    assert h == expected
    assert h.to_json_dict() == expected.to_json_dict()


def test_complete_intersection_large_matches_product_oracle():
    rng = random.Random(60)
    degrees = [rng.randint(32, 40) for _ in range(40)]
    h = complete_intersection(60, degrees)
    expected = ci_product_oracle(60, degrees)
    assert h == expected
    assert h.to_json_dict() == expected.to_json_dict()


def test_complete_intersection_term_cap():
    with pytest.raises(BudgetExceededError):
        complete_intersection(2, [10**15])
    with pytest.raises(BudgetExceededError):
        complete_intersection(3, [MAX_CI_TERMS // 2 + 1, MAX_CI_TERMS // 2 + 1])
    with pytest.raises(ElaborationError):
        parse_function("ci(2; 1000000000000000)")
    # 1 + 4999 + 5000 = 10^4 terms, well under the cap
    h = complete_intersection(3, [5000, 5001])
    assert len(h.numerator) == 10**4
    assert sum(h.numerator.values()) == 5000 * 5001
    assert h.denom_power == 1


def test_complete_intersection_work_cap():
    # 1000 forms of degree 1000: T = 999001 is under the term cap, the
    # 1000 passes over it are not
    with pytest.raises(BudgetExceededError, match="additions"):
        complete_intersection(1000, [1000] * 1000)
    with pytest.raises(ElaborationError):
        parse_function("ci(1000; " + ", ".join(["1000"] * 1000) + ")")
    # the heaviest benchmark shape, 40 forms of degree 40, is far below it
    assert 40 * (1 + 40 * 39) * 30 < MAX_CI_WORK


def test_complete_intersection_work_cap_boundary(monkeypatch):
    # degree-1 forms add no pass: T = 10 terms, 2 passes, work 20
    monkeypatch.setattr(series, "MAX_CI_WORK", 20)
    h = complete_intersection(4, [1, 1, 5, 6])
    assert sum(h.numerator.values()) == 30
    with pytest.raises(BudgetExceededError, match="22 term additions"):
        complete_intersection(4, [1, 1, 5, 7])


@st.composite
def window_cases(draw):
    """A Hilbert function with p = 0 or p > 0 and a window that may start
    below k0 and end past the numerator's top exponent."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 6))
        degrees = draw(st.lists(st.integers(1, 6), max_size=n))
        h = shift(complete_intersection(n, degrees), draw(st.integers(-4, 4)))
    else:
        start = draw(st.integers(-5, 5))
        values = draw(st.lists(st.integers(0, 9), min_size=1, max_size=6))
        h = from_table({start + i: v for i, v in enumerate([1 + values[0], *values[1:]])})
        for _ in range(draw(st.integers(0, 4))):
            h = extend(h)
    lo = h.k0 - draw(st.integers(0, 3))
    hi = lo + draw(st.integers(0, 24))
    return h, lo, hi


@settings(max_examples=200, deadline=None)
@given(window_cases())
def test_values_matches_evaluate_and_oracle(case):
    h, lo, hi = case
    window = h.values(lo, hi)
    assert window == [h.evaluate(k) for k in range(lo, hi + 1)]
    assert window == series_values_oracle(h, lo, hi)


def test_values_negative_coefficient_rejected():
    bad = HilbertFunction({0: 1, 1: -2, 3: 1}, 0)
    for lo, hi in ((0, 3), (-2, 5), (1, 1)):
        with pytest.raises(NegativeValueError):
            bad.values(lo, hi)
    assert bad.values(2, 4) == [0, 1, 0]
    # p > 0: h(0) = 1, then h(k) = -1 for every k >= 1
    dipping = HilbertFunction({0: 1, 1: -2}, 1)
    assert dipping.values(-1, 0) == [0, 1]
    with pytest.raises(NegativeValueError):
        dipping.values(0, 1)
