"""Bitmask ideals, alpha vectors, and the two depth routes.

The alpha oracle below enumerates variable subsets with itertools instead
of scanning masks, and ideal membership is re-derived from set inclusion.
A second oracle counts by inclusion-exclusion over generator subsets, which
costs 2^g instead of 2^n and so reaches n = 20.
"""

import functools
import itertools
import operator
import random
from math import comb

import pytest
from hypothesis import assume, given, settings, strategies as st

from hilbertdepth import (
    EmptyFunctionError,
    GenerationFailedError,
    InvalidQuotientError,
    NegativeValueError,
    OutOfRangeError,
    ParseError,
    SquarefreeIdeal,
    SquarefreeQuotient,
    TooManyVariablesError,
    alpha_vector,
    check_qdepth_match,
    from_table,
    qdepth,
    qdepth_from_alpha,
    random_quotient,
    reconstruct,
)
from hilbertdepth import depth, squarefree
from hilbertdepth.depth import _rows, _scan
from hilbertdepth.squarefree import format_ideal, format_monomial, minimalize, parse_ideal

from closed_form import closed_form_beta


def subsets_oracle(n):
    for r in range(n + 1):
        for combo in itertools.combinations(range(1, n + 1), r):
            yield frozenset(combo)


def mask_to_set(mask):
    return frozenset(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def alpha_oracle(q):
    """Degree counts via subset enumeration and set-inclusion divisibility."""
    upper = [mask_to_set(g) for g in q.upper.generators]
    lower = [mask_to_set(g) for g in q.lower.generators]
    counts = [0] * (q.n + 1)
    for subset in subsets_oracle(q.n):
        in_upper = any(g <= subset for g in upper)
        in_lower = any(g <= subset for g in lower)
        if in_upper and not in_lower:
            counts[len(subset)] += 1
    return counts


def ideal_count_oracle(n, generators):
    """Degree-k counts of an ideal's monomials by inclusion-exclusion over
    nonempty generator subsets T: the sum of (-1)^(|T|+1) C(n - |lcm T|,
    k - |lcm T|), where the lcm of squarefree monomials is their union."""
    counts = [0] * (n + 1)
    gens = sorted(generators)
    for size in range(1, len(gens) + 1):
        sign = 1 if size % 2 else -1
        for subset in itertools.combinations(gens, size):
            d = bin(functools.reduce(operator.or_, subset)).count("1")
            for k in range(d, n + 1):
                counts[k] += sign * comb(n - d, k - d)
    return counts


def alpha_inclusion_exclusion(q):
    """lower lies in upper, so alpha is the difference of their counts."""
    upper = ideal_count_oracle(q.n, q.upper.generators)
    lower = ideal_count_oracle(q.n, q.lower.generators)
    return [u - l for u, l in zip(upper, lower)]


@st.composite
def quotients(draw):
    n = draw(st.integers(1, 20))
    masks = st.integers(0, (1 << n) - 1)
    upper = SquarefreeIdeal.from_masks(n, draw(st.lists(masks, min_size=1, max_size=5)))
    ordered = sorted(upper.generators)
    inner = []
    for g in draw(st.lists(masks, max_size=4)):
        if not upper.contains(g):
            g |= draw(st.sampled_from(ordered))
        inner.append(g)
    try:
        return SquarefreeQuotient(n, upper, SquarefreeIdeal.from_masks(n, inner))
    except InvalidQuotientError:
        assume(False)


def test_contains():
    zero = SquarefreeIdeal.zero(3)
    unit = SquarefreeIdeal.unit(3)
    principal = parse_ideal("x1", 2)
    assert not zero.contains(0b101)
    assert unit.contains(0) and unit.contains(0b111)
    assert principal.contains(0b11)  # x1*x2 is a multiple of x1
    assert not principal.contains(0b10)


def test_membership_monotone():
    ideal = parse_ideal("x1*x3, x2", 4)
    for mask in range(1 << 4):
        if ideal.contains(mask):
            for sup in range(1 << 4):
                if sup & mask == mask:
                    assert ideal.contains(sup)


def test_minimalize():
    masks = [0b1, 0b11, 0b101, 0b110]
    reduced = minimalize(masks)
    assert reduced == frozenset({0b1, 0b110})
    assert minimalize(reduced) == reduced
    rng = random.Random(2)
    for _ in range(30):
        sample = [rng.randrange(1, 1 << 5) for _ in range(rng.randint(1, 6))]
        shuffled = sample[:]
        rng.shuffle(shuffled)
        assert minimalize(sample) == minimalize(shuffled)
    assert minimalize([0, 0b1, 0b10]) == frozenset({0})


def test_alpha_vector_examples():
    q = SquarefreeQuotient(2, parse_ideal("x1", 2), parse_ideal("0", 2))
    assert alpha_vector(q) == [0, 1, 1]
    q = SquarefreeQuotient(3, parse_ideal("x1*x2", 3), parse_ideal("x1*x2*x3", 3))
    assert alpha_vector(q) == [0, 0, 1, 0]
    q = SquarefreeQuotient(3, parse_ideal("1", 3), parse_ideal("0", 3))
    assert alpha_vector(q) == [1, 3, 3, 1]


def test_alpha_vector_against_oracle():
    rng = random.Random(13)
    for case in range(60):
        n = rng.randint(1, 6)
        try:
            q = random_quotient(n, rng.randrange(2**31), rng.randint(1, 3), rng.randint(0, 2))
        except GenerationFailedError:
            continue
        assert alpha_vector(q) == alpha_oracle(q)


@settings(max_examples=200, deadline=None)
@given(q=quotients())
def test_alpha_vector_matches_inclusion_exclusion(q):
    assert alpha_vector(q) == alpha_inclusion_exclusion(q)


def quotient(n, upper, lower):
    return SquarefreeQuotient(n, parse_ideal(upper, n), parse_ideal(lower, n))


@pytest.mark.parametrize("n", [1, 2, 11, 12, 13, 14, 20])
def test_alpha_vector_unit_and_zero_ideals(n):
    ring = [comb(n, k) for k in range(n + 1)]
    assert alpha_vector(quotient(n, "1", "0")) == ring
    assert alpha_vector(quotient(n, "x1", "0")) == [0] + [comb(n - 1, k) for k in range(n)]
    if n >= 2:
        multiples = [0, 0] + [comb(n - 2, k) for k in range(n - 1)]
        assert alpha_vector(quotient(n, "1", "x1*x2")) == [
            r - m for r, m in zip(ring, multiples)
        ]


@pytest.mark.parametrize("n", [12, 13])
def test_alpha_vector_at_chunk_boundary(n):
    # 2^12 masks form one chunk of the bitset count; n = 13 takes two
    rng = random.Random(n)
    for case in range(6):
        q = random_quotient(n, rng.randrange(2**31), rng.randint(1, 4), rng.randint(0, 3))
        alpha = alpha_vector(q)
        assert alpha == alpha_oracle(q) == alpha_inclusion_exclusion(q)
    top = "*".join(f"x{i}" for i in range(1, n + 1))
    assert alpha_vector(quotient(n, top, "0")) == [0] * n + [1]
    assert alpha_vector(quotient(n, "1", top)) == [comb(n, k) for k in range(n)] + [0]


def test_alpha_bounds_and_mass():
    rng = random.Random(17)
    for case in range(40):
        n = rng.randint(1, 7)
        try:
            q = random_quotient(n, rng.randrange(2**31), rng.randint(1, 4), rng.randint(0, 3))
        except GenerationFailedError:
            continue
        alpha = alpha_vector(q)
        assert all(0 <= alpha[k] <= comb(n, k) for k in range(n + 1))
        direct = sum(
            1
            for mask in range(1 << n)
            if q.upper.contains(mask) and not q.lower.contains(mask)
        )
        assert sum(alpha) == direct > 0


def test_quotient_validation():
    with pytest.raises(InvalidQuotientError):
        SquarefreeQuotient(3, parse_ideal("x1*x2", 3), parse_ideal("x3", 3))
    with pytest.raises(InvalidQuotientError):
        SquarefreeQuotient(2, parse_ideal("x1", 2), parse_ideal("x1", 2))
    with pytest.raises(InvalidQuotientError):
        SquarefreeQuotient(2, parse_ideal("0", 2), parse_ideal("0", 2))
    with pytest.raises(InvalidQuotientError, match="n=-1"):
        SquarefreeQuotient(-1, SquarefreeIdeal.unit(-1), SquarefreeIdeal.zero(-1))


def alpha_function(alpha):
    """The finite Hilbert function whose table is the alpha vector."""
    return from_table(dict(enumerate(alpha)))


def test_qdepth_quotient_examples():
    # a quotient's depth straight from its alpha vector
    q = SquarefreeQuotient(2, parse_ideal("x1", 2), parse_ideal("0", 2))
    result = qdepth_from_alpha(alpha_vector(q))
    assert result.qdepth == 2
    assert result.certificate.values == (0, 1, 0)
    q = SquarefreeQuotient(3, parse_ideal("1", 3), parse_ideal("0", 3))
    assert qdepth_from_alpha(alpha_vector(q)).qdepth == 3
    q = SquarefreeQuotient(3, parse_ideal("x1*x2", 3), parse_ideal("x1*x2*x3", 3))
    assert qdepth_from_alpha(alpha_vector(q)).qdepth == 2


def test_qdepth_from_alpha_rejects_zero_vector():
    for alpha in ([], [0, 0], [0, 0, 0]):
        with pytest.raises(EmptyFunctionError):
            qdepth_from_alpha(alpha)


@pytest.mark.parametrize(
    "alpha", [[1, -1], [-1, 2], [0, 1, -5, 3], [1, 3, -1], [2, 0, -1]]
)
def test_qdepth_from_alpha_rejects_a_negative_entry_at_its_degree(alpha):
    # the alpha route holds its vector to the table input rule: no crash
    # inside the scan and no depth read off a vector that is no function
    k = next(k for k, a in enumerate(alpha) if a < 0)
    message = f"^table value at degree {k} is {alpha[k]}$"
    with pytest.raises(NegativeValueError, match=message):
        qdepth_from_alpha(alpha)
    with pytest.raises(NegativeValueError, match=message):
        from_table(dict(enumerate(alpha)))


def test_check_qdepth_match_counts_alpha_once(monkeypatch):
    # the alpha route holds its vector to the table rule without building a
    # function, so only the function route builds one
    calls, built = [], []

    def counted(q):
        calls.append(q)
        return alpha_vector(q)

    def counted_table(values):
        built.append(values)
        return from_table(values)

    monkeypatch.setattr(squarefree, "alpha_vector", counted)
    monkeypatch.setattr(squarefree, "from_table", counted_table)
    assert check_qdepth_match(random_quotient(6, 4, 3, 2))
    assert len(calls) == 1 and len(built) == 1
    assert qdepth_from_alpha([0, 1, 1]).qdepth == 2
    assert len(built) == 1


def test_m_module():
    # the module's Hilbert function is the table of the alpha vector
    q = SquarefreeQuotient(2, parse_ideal("x1", 2), parse_ideal("0", 2))
    assert alpha_vector(q) == [0, 1, 1]
    assert alpha_function(alpha_vector(q)) == from_table({1: 1, 2: 1})
    q = SquarefreeQuotient(1, parse_ideal("x1", 1), parse_ideal("0", 1))
    assert alpha_vector(q) == [0, 1]
    q = SquarefreeQuotient(3, parse_ideal("1", 3), parse_ideal("0", 3))
    assert alpha_vector(q) == [1, 3, 3, 1]


def test_beta_consistency_between_routes():
    # the alpha route's rows, certificate and refutation against the
    # closed-form beta of the quotient's Hilbert function
    rng = random.Random(29)
    for case in range(30):
        n = rng.randint(1, 6)
        try:
            q = random_quotient(n, rng.randrange(2**31), rng.randint(1, 3), rng.randint(0, 2))
        except GenerationFailedError:
            continue
        alpha = alpha_vector(q)
        h = alpha_function(alpha)

        def closed_form(d, k):
            return 0 if k < h.k0 else closed_form_beta(h, d, k)

        for d, row in _rows([*alpha, 0], 0):
            assert row == [closed_form(d, k) for k in range(d + 1)]
        result = qdepth_from_alpha(alpha)
        certificate = result.certificate
        assert certificate.start_k == 0 and certificate.d == result.qdepth
        for k in range(result.qdepth + 1):
            assert certificate.value(k) == closed_form(result.qdepth, k)
        if result.refutation is not None:
            d, k, b = result.refutation
            assert d == result.qdepth + 1 and b < 0
            assert closed_form(d, k) == b


def test_alpha_route_never_sees_the_flip_hook(monkeypatch):
    # the hook reaches qdepth through beta_rows; the alpha route's scan walks
    # the plain kernel, so its results under the hook are the clean ones
    monkeypatch.setattr(depth, "FLIP", False)
    clean = qdepth_from_alpha([1, 3, 3, 1]), _scan([1, 3, 3, 1, 0], 0)
    monkeypatch.setattr(depth, "FLIP", True)
    assert (qdepth_from_alpha([1, 3, 3, 1]), _scan([1, 3, 3, 1, 0], 0)) == clean
    assert clean[0].qdepth == clean[1].qdepth == 3
    assert qdepth(from_table({0: 1, 1: 3, 2: 3, 3: 1})).qdepth == 0


def test_depth_routes_match():
    q = SquarefreeQuotient(2, parse_ideal("x1", 2), parse_ideal("0", 2))
    assert check_qdepth_match(q)
    q = SquarefreeQuotient(3, parse_ideal("1", 3), parse_ideal("0", 3))
    assert check_qdepth_match(q)
    rng = random.Random(37)
    produced = 0
    while produced < 120:
        n = rng.randint(1, 8)
        try:
            q = random_quotient(n, rng.randrange(2**31), rng.randint(1, 4), rng.randint(0, 3))
        except GenerationFailedError:
            continue
        produced += 1
        assert check_qdepth_match(q), (q.n, format_ideal(q.upper), format_ideal(q.lower))
        alpha = alpha_vector(q)
        result = qdepth_from_alpha(alpha)
        assert result.qdepth <= alpha_function(alpha).kf <= q.n
        # certificates reconstruct the alpha entries
        start = result.certificate.start_k
        assert reconstruct(result.certificate) == list(alpha[start : result.qdepth + 1])


def test_random_quotient_determinism_and_shape():
    assert random_quotient(3, 42, 2, 1) == random_quotient(3, 42, 2, 1)
    q = random_quotient(1, 5, 1, 0)
    assert format_ideal(q.upper) == "x1" and format_ideal(q.lower) == "0"
    for seed in range(25):
        q = random_quotient(4, seed, 2, 2)
        # invariants re-checked by the constructor; reaching here is the test
        assert isinstance(q, SquarefreeQuotient)


def test_random_quotient_failure():
    # one variable and a forced inner generator can never nest strictly
    with pytest.raises(GenerationFailedError):
        random_quotient(1, 3, 1, 1)
    with pytest.raises(GenerationFailedError):
        random_quotient(2, 3, 0, 0)


def test_variable_cap():
    big = SquarefreeQuotient(21, parse_ideal("x1", 21), parse_ideal("0", 21))
    with pytest.raises(TooManyVariablesError):
        alpha_vector(big)
    assert alpha_vector(big, max_vars=22)[1] == 1
    with pytest.raises(TooManyVariablesError):
        alpha_vector(
            SquarefreeQuotient(29, parse_ideal("x1", 29), parse_ideal("0", 29)),
            max_vars=29,
        )
    small = SquarefreeQuotient(2, parse_ideal("x1", 2), parse_ideal("0", 2))
    with pytest.raises(OutOfRangeError, match="max_vars"):
        alpha_vector(small, max_vars=-3)
    ring = SquarefreeQuotient(0, parse_ideal("1", 0), parse_ideal("0", 0))
    assert alpha_vector(ring, max_vars=0) == [1]


def test_huge_variable_count_reaches_the_cap_check():
    n = 10**12
    ideal = SquarefreeIdeal.from_masks(n, [1, 3])
    assert ideal.generators == frozenset({1})
    quotient = SquarefreeQuotient(n, parse_ideal("x1", n), parse_ideal("0", n))
    with pytest.raises(TooManyVariablesError):
        alpha_vector(quotient)
    for bad in (-1, 1 << 3):
        with pytest.raises(ValueError):
            SquarefreeIdeal.from_masks(3, [bad])
    assert SquarefreeIdeal.from_masks(3, [0b111]).generators == frozenset({7})


def test_parse_and_format():
    ideal = parse_ideal(" x1*x3 , x2 ", 3)
    assert ideal.generators == frozenset({0b101, 0b010})
    assert format_ideal(ideal) == "x2, x1*x3"
    assert format_monomial(0) == "1"
    assert parse_ideal("0", 3).is_zero
    assert parse_ideal("1", 3).generators == frozenset({0})
    with pytest.raises(ParseError):
        parse_ideal("x0", 3)
    with pytest.raises(ParseError):
        parse_ideal("x4", 3)
    with pytest.raises(ParseError):
        parse_ideal("x1*x1", 3)
    with pytest.raises(ParseError):
        parse_ideal("y2", 3)
    with pytest.raises(ParseError):
        parse_ideal("x1,,x2", 3)
    # a position names the variable itself, past any space after a '*'
    for text, position in (("x1 * y2", 5), ("x1 *  x1", 6), ("x2, x1 *x4", 8)):
        with pytest.raises(ParseError) as err:
            parse_ideal(text, 3)
        assert err.value.position == position, text
