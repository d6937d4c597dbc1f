"""Construction and algebra of Hilbert functions.

The independent oracles here: the closed form sum_e c_e C(k - e + p - 1,
p - 1) and prefix-sum expansion for values of numerator/(1-t)^p, and
brute-force counting of bounded-exponent monomials for complete
intersections.
"""

import copy
import itertools
import pickle
import random
import tracemalloc
from collections import Counter
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

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
    qdepth,
    scale,
    shift,
)
from hilbertdepth import series
from hilbertdepth.series import MAX_CI_TERMS, MAX_CI_WORK


def comb_values_oracle(h, lo, hi):
    """h(lo), ..., h(hi) from the closed form, one binomial per term and
    degree, with no sign check."""
    p = h.denom_power
    if p == 0:
        return [h.numerator.get(k, 0) for k in range(lo, hi + 1)]
    return [
        sum(c * comb(k - e + p - 1, p - 1) for e, c in h.numerator.items() if e <= k)
        for k in range(lo, hi + 1)
    ]


def values_route(h, lo, hi):
    """The route ``values`` takes, by its documented rule."""
    reach = sum(e <= hi for e in h.numerator)
    if not reach or hi < lo:
        return "zeros"
    if h.denom_power <= series.PREFIX_ROUTE_RATIO * reach:
        return "prefix"
    return "convolution"


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
    # any iterable of shifts, read once
    with pytest.raises(InvalidArityError):
        free_module(2, iter([]))
    with pytest.raises(InvalidArityError):
        free_module(0, [0])


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
    # any iterable of degrees, read once
    assert complete_intersection(3, iter([3, 2])) == complete_intersection(3, [2, 3])


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
    # validation reads the forms in the given order, before any sorting
    with pytest.raises(InvalidDegreeError, match="degree 0 "):
        complete_intersection(3, [5, 0, -1])
    with pytest.raises(InvalidArityError):
        complete_intersection(0, [])


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
    # only another Hilbert function adds or compares
    with pytest.raises(TypeError):
        polynomial_ring(2) + 1
    assert (polynomial_ring(2) == 1) is False
    # equal numerators over different powers are different functions
    assert HilbertFunction({0: 1}, 1) != HilbertFunction({0: 1}, 2)


def test_add_pointwise_on_window():
    rng = random.Random(23)
    for _ in range(30):
        h1 = random_table_function(rng)
        h2 = extend(random_table_function(rng)) if rng.random() < 0.5 else random_table_function(rng)
        total = h1 + h2
        lo = min(h1.k0, h2.k0)
        for k in range(lo, lo + 40):
            assert total.evaluate(k) == h1.evaluate(k) + h2.evaluate(k)


def sum_by_passes_oracle(a, b):
    """a + b with the lower-power numerator lifted one factor (1 - t) at a
    time: each pass copies the sparse numerator and subtracts it one
    exponent up."""
    p = max(a.denom_power, b.denom_power)
    total = Counter()
    for h in (a, b):
        num = dict(h.numerator)
        for _ in range(p - h.denom_power):
            lifted = dict(num)
            for e, c in num.items():
                lifted[e + 1] = lifted.get(e + 1, 0) - c
            num = lifted
        total.update(num)
    return HilbertFunction(total, p)


@settings(max_examples=200, deadline=None)
@given(
    st.randoms(use_true_random=False),
    st.integers(0, 40),
    st.integers(-60, 60),
    st.sampled_from(["random", "equal", "sparse"]),
)
def test_add_matches_pass_oracle(rng, j, m, shape):
    from hilbertdepth.verify import random_hilbert_function

    a = random_hilbert_function(rng)
    for _ in range(j):
        a = extend(a)
    if shape == "sparse":
        # numerator {m: 1, m + 10^6: 1}: a 10^6 exponent gap
        b = shift(free_module(rng.randint(1, 4), [0, -10**6]), -m)
    else:
        b = shift(random_hilbert_function(rng), m)
    if shape == "equal":
        while b.denom_power < a.denom_power:
            b = extend(b)
        while a.denom_power < b.denom_power:
            a = extend(a)
    total = a + b
    expected = sum_by_passes_oracle(a, b)
    assert total == expected
    assert total.to_json_dict() == expected.to_json_dict()
    assert b + a == total
    assert hash(a + b) == hash(b + a)


def test_add_lifts_by_one_binomial_row():
    total = from_table({0: 1}) + polynomial_ring(3000)
    expected = {i: (-1) ** i * comb(3000, i) for i in range(1, 3001)}
    assert total.denom_power == 3000
    assert dict(total.numerator) == {0: 2, **expected}


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
    # p = 0 with coefficients summing to zero: the prefix sums vanish past
    # the numerator, so the result is a table, not a function of power 1
    assert extend(HilbertFunction({0: 1, 1: -1}, 0)) == from_table({0: 1})
    assert extend(HilbertFunction({0: 2, 1: -1, 2: -1}, 0)) == from_table({0: 2, 1: 1})


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
    # equal functions hash alike, whichever constructor built them
    assert hash(HilbertFunction({0: 1, 1: -1}, 1)) == hash(from_table({0: 1}))
    assert hash(extend(from_table({0: 1}))) == hash(polynomial_ring(1))


def ci_cases(max_n, max_degree):
    """(n, degrees) with 0 <= r <= n forms of degree 1..max_degree."""
    return st.integers(1, max_n).flatmap(
        lambda n: st.tuples(
            st.just(n), st.lists(st.integers(1, max_degree), max_size=n)
        )
    )


def signed_function(start, lowest, rest, p):
    """lowest t^start + rest over (1 - t)^p: values may turn negative."""
    return HilbertFunction({start: lowest, **dict(enumerate(rest, start + 1))}, p)


def small_function_leaves():
    """Tables, rings, complete intersections (degree-1 forms and r = 0
    included), free modules, and signed numerators with a positive lowest
    coefficient."""
    table = st.dictionaries(st.integers(-4, 6), st.integers(0, 9), min_size=1)
    shifts = st.lists(st.integers(-3, 3), min_size=1, max_size=4)
    return st.one_of(
        table.filter(lambda t: any(t.values())).map(from_table),
        st.integers(1, 5).map(polynomial_ring),
        ci_cases(8, 6).map(lambda a: complete_intersection(*a)),
        st.tuples(st.integers(1, 4), shifts).map(lambda a: free_module(*a)),
        st.builds(
            signed_function,
            st.integers(-4, 4),
            st.integers(1, 3),
            st.lists(st.integers(-3, 3), max_size=4),
            st.integers(0, 3),
        ),
    )


small_functions = st.recursive(
    small_function_leaves(),
    lambda inner: st.one_of(
        st.tuples(inner, inner).map(lambda hs: hs[0] + hs[1]),
        st.tuples(inner, st.integers(-5, 5)).map(lambda a: shift(*a)),
    ),
    max_leaves=4,
)


def assert_canonical(g):
    """The constructor, given g's numerator as a plain dict, keeps it as it
    is: no zero term, no (1 - t) factor while p > 0, lowest term positive."""
    rebuilt = HilbertFunction(dict(g.numerator), g.denom_power)
    assert dict(rebuilt.numerator) == dict(g.numerator)
    assert (rebuilt.denom_power, rebuilt.k0) == (g.denom_power, g.k0)
    assert all(g.numerator.values())
    assert g.numerator[g.k0] > 0


@settings(max_examples=100, deadline=None)
@given(small_functions, st.integers(-6, 6), st.integers(1, 5), ci_cases(10, 7))
# a p = 0 numerator summing to zero: extending it must divide out (1 - t)
@example(HilbertFunction({0: 1, 1: -1}, 0), 0, 1, (1, []))
def test_operations_that_skip_normalizing_give_canonical_form(h, m, r, case):
    assert_canonical(h)
    for g in (shift(h, m), scale(h, r), extend(h)):
        assert_canonical(g)
    if h.denom_power or sum(h.numerator.values()):
        assert extend(h).numerator is h.numerator
    assert_canonical(complete_intersection(*case))


def test_complete_intersection_keeps_one_numerator_copy():
    # the built coefficient list becomes the numerator: a second full copy
    # of the mapping during the build would lift the peak past twice the
    # kept size
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        h = complete_intersection(2, [2**14])
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(h.numerator) == 2**14
    assert peak - base < 1.7 * (kept - base)


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


def test_constructor_rejects_a_negative_power_or_first_value():
    with pytest.raises(ValueError, match="^denominator power must be nonnegative$"):
        HilbertFunction({0: 1}, -1)
    with pytest.raises(
        NegativeValueError, match="^value at first nonzero degree 0 is negative$"
    ):
        HilbertFunction({0: -1, 1: 2}, 0)


def test_constructor_takes_any_int_mapping():
    assert HilbertFunction({0: 1, 3: 0}, 0).kf == 0
    assert dict(HilbertFunction({0: 1, 3: 0}, 0).numerator) == {0: 1}
    shifts = Counter({0: 2, -1: 1, 4: 0})
    assert HilbertFunction(shifts, 2) == free_module(2, [0, 0, 1])
    assert HilbertFunction({0: 1, 1: -1}, 1) == from_table({0: 1})
    # the repr lists the numerator by exponent, whatever order it came in:
    # the text a failed ``ci-recursion`` series law prints for each side
    assert repr(HilbertFunction({2: 1, 0: 3}, 0)) == (
        "HilbertFunction({0: 3, 2: 1}, denom_power=0)"
    )
    assert list(HilbertFunction({2: 1, 0: 3}, 0).to_json_dict()["numerator"]) == ["0", "2"]


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


def test_instances_are_immutable():
    h = complete_intersection(4, [3, 3, 2])
    depth = qdepth(h).qdepth
    for attr, value in (("numerator", {0: 1}), ("denom_power", 0), ("k0", 2)):
        with pytest.raises(AttributeError):
            setattr(h, attr, value)
        with pytest.raises(AttributeError):
            delattr(h, attr)
    assert h == complete_intersection(4, [3, 3, 2]) and h.k0 == 0
    assert qdepth(h).qdepth == depth == 4
    assert copy.copy(h) == h


def test_pickle_and_deepcopy_round_trip():
    pool = [
        complete_intersection(4, [3, 3, 2]),
        free_module(3, [2, -1, -1]),
        from_table({-2: 3, 0: 5}),
        extend(polynomial_ring(2)) + shift(polynomial_ring(1), 2),
    ]
    for h in pool:
        for other in (pickle.loads(pickle.dumps(h)), copy.deepcopy(h)):
            assert other == h and other is not h
            assert (other.k0, other.kf) == (h.k0, h.kf)
            assert qdepth(other) == qdepth(h)
            with pytest.raises(AttributeError):
                other.k0 = 0
        assert copy.copy(h) is h


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
        lambda n: st.tuples(
            st.just(n),
            # degrees up to 25 let a pass read up to 12 entries past the old
            # half; about one form in six has degree 1
            st.lists(st.integers(-3, 25).map(lambda d: max(d, 1)), max_size=n),
        )
    ),
    st.randoms(use_true_random=False),
)
def test_complete_intersection_matches_product_oracle(case, rng):
    n, degrees = case
    h = complete_intersection(n, degrees)
    expected = ci_product_oracle(n, degrees)
    assert h == expected
    assert h.to_json_dict() == expected.to_json_dict()
    top = sum(d - 1 for d in degrees)
    coeffs = [h.numerator.get(k, 0) for k in range(top + 1)]
    assert coeffs == coeffs[::-1]
    shuffled = list(degrees)
    rng.shuffle(shuffled)
    assert complete_intersection(n, shuffled) == h


def test_complete_intersection_large_matches_product_oracle():
    rng = random.Random(60)
    degrees = [rng.randint(32, 40) for _ in range(40)]
    h = complete_intersection(60, degrees)
    expected = ci_product_oracle(60, degrees)
    assert h == expected
    assert h.to_json_dict() == expected.to_json_dict()


def test_complete_intersection_term_cap(monkeypatch):
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
    # at a small cap, T = 1 + 4 + 5 = 10 terms passes and one more is refused
    monkeypatch.setattr(series, "MAX_CI_TERMS", 10)
    assert len(complete_intersection(3, [5, 6]).numerator) == 10
    with pytest.raises(BudgetExceededError, match="11 terms, above the cap 10"):
        complete_intersection(3, [5, 7])


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
    # each degree-2 form is a pass: T = 4 terms, 3 passes, work 12
    monkeypatch.setattr(series, "MAX_CI_WORK", 12)
    assert complete_intersection(3, [2, 2, 2]).numerator == {0: 1, 1: 3, 2: 3, 3: 1}
    monkeypatch.setattr(series, "MAX_CI_WORK", 11)
    with pytest.raises(BudgetExceededError, match="12 term additions, above the cap 11"):
        complete_intersection(3, [2, 2, 2])


@st.composite
def window_cases(draw):
    """A function with p from 0 to 40 and from 1 to 41 numerator terms, so
    that p is both above and below the term count, possibly negative
    somewhere; and a window that may start or end below k0, end past the
    numerator's top exponent, or be empty."""
    shape = draw(st.sampled_from(("ci", "extended table", "raw")))
    if shape == "ci":
        n = draw(st.integers(1, 40))
        degrees = draw(st.lists(st.integers(1, 6), max_size=min(n, 8)))
        h = shift(complete_intersection(n, degrees), draw(st.integers(-4, 4)))
    else:
        start = draw(st.integers(-5, 5))
        low = -3 if shape == "raw" else 0
        coeffs = draw(st.lists(st.integers(low, 9), min_size=1, max_size=6))
        num = {start + i: c for i, c in enumerate([1 + abs(coeffs[0]), *coeffs[1:]])}
        p = draw(st.integers(0, 40))
        h = HilbertFunction(num, p) if shape == "raw" else from_table(num)
        if shape != "raw":
            for _ in range(p):
                h = extend(h)
    lo = h.k0 + draw(st.integers(-6, 6))
    hi = lo + draw(st.integers(-2, 24))
    return h, lo, hi


def test_values_matches_evaluate_and_oracle():
    routes = set()

    @settings(max_examples=300, deadline=None)
    @given(window_cases())
    def check(case):
        h, lo, hi = case
        routes.add(values_route(h, lo, hi))
        expected = comb_values_oracle(h, lo, hi)
        negative = [(k, v) for k, v in zip(range(lo, hi + 1), expected) if v < 0]
        if negative:
            k, v = negative[0]
            message = f"^coefficient at degree {k} is {v}$"
            with pytest.raises(NegativeValueError, match=message):
                h.values(lo, hi)
            return
        window = h.values(lo, hi)
        assert window == expected
        assert window == [h.evaluate(k) for k in range(lo, hi + 1)]
        assert window == series_values_oracle(h, lo, hi)

    check()
    assert routes == {"zeros", "prefix", "convolution"}


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
