"""Quotients of nested squarefree monomial ideals, encoded as bitmasks.

A squarefree monomial in n variables is a subset of {1..n} stored as an
n-bit mask (bit i-1 set means x_i divides it; mask 0 is the constant
monomial 1).  An ideal is its set of minimal generator masks; membership is
a subset test against some generator.  The empty generator set is the zero
ideal, the single mask 0 generates the whole ring.

The degree-k count vector alpha of the monomials lying in the outer ideal
but not the inner one is the Hilbert function of a finite module.  It is
counted on bitsets held in Python ints, with no interpreter loop over the
2^n masks: bit m of a 2^n-bit int says whether mask m lies in a set of
monomials, an ideal is the OR of its generators' multiples, the quotient is
``upper & ~lower``, and each degree count is a popcount against a fixed
layer of the masks of that degree (see ``alpha_vector``).

The depth computed directly from alpha agrees with the depth of that
function; ``check_qdepth_match`` exercises the equivalence.  The alpha
route has no input rule, transform or window of its own.  It holds its
vector to ``series.check_table``, the rule ``from_table`` applies, so a
negative, empty or all-zero vector raises the same ``HilbertDepthError`` a
table does, and no function is built for the check.  Then it runs
``depth``'s early-exit ``_scan``, which checks nothing itself, from k = 0
over the alpha vector padded with one zero, at a cost of at most O(n^2)
big-integer subtractions.  Row n + 1 of the padded vector always has a
negative entry (its entries sum to h(n + 1) = 0, and were they all zero
the inversion would give h = 0), so the scan stops by then.  ``_scan``
walks the plain kernel, which the fault hook never reaches, so under
``HILBERTDEPTH_FLIP_BETA`` the two routes disagree.
"""

from __future__ import annotations

import random
import re
from typing import Iterable, NamedTuple

from .depth import QDepthResult, _scan, qdepth
from .errors import (
    MAX_LITERAL_DIGITS,
    GenerationFailedError,
    InvalidQuotientError,
    OutOfRangeError,
    ParseError,
    TooManyVariablesError,
)
from .series import check_table, from_table

DEFAULT_VARIABLE_CAP = 20
HARD_VARIABLE_CAP = 28

_VARIABLE_RE = re.compile(r"x([0-9]+)")


def minimalize(masks: Iterable[int]) -> frozenset[int]:
    """Drop every mask that strictly contains another; order independent."""
    kept: list[int] = []
    for m in sorted(set(masks), key=lambda m: (bin(m).count("1"), m)):
        if not any(g & m == g for g in kept):
            kept.append(m)
    return frozenset(kept)


class SquarefreeIdeal(NamedTuple):
    n: int
    generators: frozenset[int]

    @classmethod
    def from_masks(cls, n: int, masks: Iterable[int]) -> SquarefreeIdeal:
        mask_list = list(masks)
        for m in mask_list:
            # bit_length, not a comparison with 1 << n: n may be far above
            # the variable cap, which is checked only when alpha is counted.
            if m < 0 or m.bit_length() > n:
                raise ValueError(f"mask {m} uses variables beyond x{n}")
        return cls(n, minimalize(mask_list))

    @classmethod
    def zero(cls, n: int) -> SquarefreeIdeal:
        return cls(n, frozenset())

    @classmethod
    def unit(cls, n: int) -> SquarefreeIdeal:
        return cls(n, frozenset({0}))

    @property
    def is_zero(self) -> bool:
        return not self.generators

    def contains(self, mask: int) -> bool:
        """Monomial membership: some generator divides the mask."""
        return any(g & mask == g for g in self.generators)


# A NamedTuple class body cannot define __new__, so the checked record
# subclasses the functional form.
class SquarefreeQuotient(
    NamedTuple(
        "SquarefreeQuotient",
        [("n", int), ("upper", SquarefreeIdeal), ("lower", SquarefreeIdeal)],
    )
):
    """Nested pair lower subset-of upper in n >= 0 variables with at least
    one squarefree monomial in upper but not lower."""

    __slots__ = ()

    def __new__(
        cls, n: int, upper: SquarefreeIdeal, lower: SquarefreeIdeal
    ) -> SquarefreeQuotient:
        if n < 0:
            raise InvalidQuotientError(f"need n >= 0 variables, got n={n}")
        if upper.n != n or lower.n != n:
            raise InvalidQuotientError("ideals live in different variable counts")
        if upper.is_zero:
            raise InvalidQuotientError("outer ideal is zero")
        for g in lower.generators:
            if not upper.contains(g):
                raise InvalidQuotientError(
                    f"inner generator {format_monomial(g)} is not in the outer ideal"
                )
        if all(lower.contains(g) for g in upper.generators):
            raise InvalidQuotientError("the two ideals are equal")
        return super().__new__(cls, n, upper, lower)

    # The inherited _make (and _replace, which calls it) would build the
    # tuple without the checks above.
    @classmethod
    def _make(cls, iterable: Iterable) -> SquarefreeQuotient:
        return cls(*iterable)


def _resolve_cap(n: int, max_vars: int | None) -> None:
    if max_vars is not None and max_vars < 0:
        raise OutOfRangeError(f"max_vars must be nonnegative, got {max_vars}")
    cap = DEFAULT_VARIABLE_CAP if max_vars is None else min(max_vars, HARD_VARIABLE_CAP)
    if n > cap:
        raise TooManyVariablesError(
            f"n={n} exceeds the variable cap {cap} (hard ceiling {HARD_VARIABLE_CAP})"
        )


# Degree counts are taken 2^_CHUNK_BITS masks at a time.  _LAYERS[j] has
# bit m set, for m < 2^_CHUNK_BITS, exactly when m has j bits set; the
# 13 layers are 4096-bit ints, so layers for all n bits (about (n+1) * 2^n
# bits) are never built.
_CHUNK_BITS = 12


def _popcount_layers(bits: int) -> tuple[int, ...]:
    layers = [1]
    for i in range(bits):
        width = 1 << i
        layers = [a | b << width for a, b in zip([*layers, 0], [0, *layers])]
    return tuple(layers)


_LAYERS = _popcount_layers(_CHUNK_BITS)


def _members(ideal: SquarefreeIdeal) -> int:
    """The 2^n-bit set of the ideal's monomials: bit m is set iff mask m is
    a multiple of some generator.

    A generator's multiples are built by n doublings from {0}: variable i
    either must divide (shift every mask up by bit i) or is free (keep each
    mask with and without bit i).
    """
    members = 0
    for g in ideal.generators:
        multiples = 1
        for i in range(ideal.n):
            step = 1 << i
            if g >> i & 1:
                multiples <<= step
            else:
                multiples |= multiples << step
        members |= multiples
    return members


def alpha_vector(q: SquarefreeQuotient, max_vars: int | None = None) -> list[int]:
    """Count, per degree, the squarefree monomials in upper minus lower.

    The quotient's monomials form one 2^n-bit int (see ``_members``).  It is
    cut into chunks of 2^12 masks sharing their high bits h; chunk h adds
    its popcount against layer j to degree popcount(h) + j.  The loop runs
    2^(n-12) times, once for n <= 12, and memory stays at a few 2^n-bit
    ints: 128 KiB each at n = 20, 32 MiB each at the hard cap n = 28.
    """
    _resolve_cap(q.n, max_vars)
    n = q.n
    members = _members(q.upper) & ~_members(q.lower)
    chunk_bytes = 1 << (_CHUNK_BITS - 3)
    chunks = 1 << max(n - _CHUNK_BITS, 0)
    data = members.to_bytes(chunks * chunk_bytes, "little")
    alpha = [0] * (max(n, _CHUNK_BITS) + 1)
    for h in range(chunks):
        chunk = int.from_bytes(data[h * chunk_bytes:(h + 1) * chunk_bytes], "little")
        base = h.bit_count()
        for j, layer in enumerate(_LAYERS):
            alpha[base + j] += (chunk & layer).bit_count()
    return alpha[: n + 1]


def qdepth_from_alpha(alpha: list[int]) -> QDepthResult:
    """Depth of a degree-count vector, scanning rows d = 0, 1, ... up to the
    first one with a negative entry (at the latest row n + 1).

    The vector first passes ``check_table``, the input rule that tables
    meet: a negative entry raises NegativeValueError at its degree, and an
    empty or all-zero vector raises EmptyFunctionError.  The rows start at
    k = 0, so certificate tables may carry leading zeros; the reported
    window is the Hilbert-function one, which ``_scan`` reads off the vector.
    alpha counts as 0 past n, which the refutation row at n + 1 can reach.
    """
    check_table(dict(enumerate(alpha)))
    return _scan([*alpha, 0], 0)


def check_qdepth_match(q: SquarefreeQuotient) -> bool:
    """The alpha-vector depth against the depth of its Hilbert function,
    both from one count of the alpha vector, which is built into a function
    once, for the function route."""
    alpha = alpha_vector(q)
    table = from_table(dict(enumerate(alpha)))
    return qdepth_from_alpha(alpha).qdepth == qdepth(table).qdepth


def random_quotient(
    n: int, seed: int, gen_count_upper: int, gen_count_lower: int
) -> SquarefreeQuotient:
    """Deterministic-from-seed valid quotient.

    Samples nonconstant generator masks for the outer ideal, then forces
    each sampled inner generator into it by multiplying with an outer
    generator when needed.  Degenerate draws (equal ideals) are retried a
    bounded number of times.  With one variable an inner generator always
    equals the outer ideal (x1), so such a request fails without drawing.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    # Checked before any 1 << n is built; a huge n would exhaust memory.
    _resolve_cap(n, HARD_VARIABLE_CAP)
    rng = random.Random(seed)
    attempts = 0 if n == 1 and gen_count_lower > 0 else 200
    for _ in range(attempts):
        upper_masks = [rng.randrange(1, 1 << n) for _ in range(gen_count_upper)]
        if not upper_masks:
            break
        upper = SquarefreeIdeal.from_masks(n, upper_masks)
        ordered = sorted(upper.generators)
        lower_masks = []
        for _ in range(gen_count_lower):
            g = rng.randrange(1, 1 << n)
            if not upper.contains(g):
                g |= rng.choice(ordered)
            lower_masks.append(g)
        lower = SquarefreeIdeal.from_masks(n, lower_masks)
        if all(lower.contains(g) for g in upper.generators):
            continue
        return SquarefreeQuotient(n, upper, lower)
    raise GenerationFailedError(
        f"no valid quotient for n={n}, seed={seed}, "
        f"generators {gen_count_upper}/{gen_count_lower}"
    )


def parse_ideal(text: str, n: int) -> SquarefreeIdeal:
    """Parse "x1*x3, x2" style generator lists; "0" is the zero ideal and
    "1" the whole ring."""
    stripped = text.strip()
    if stripped == "0":
        return SquarefreeIdeal.zero(n)
    if stripped == "1":
        return SquarefreeIdeal.unit(n)
    if not stripped:
        raise ParseError("empty ideal description", 0, ("generator", '"0"', '"1"'))
    masks = []
    offset = 0
    for chunk in text.split(","):
        term = chunk.strip()
        term_pos = offset + chunk.index(term) if term else offset
        if not term:
            raise ParseError("empty generator", term_pos, ("monomial",))
        mask = 0
        var_pos = term_pos
        for factor in term.split("*"):
            name = factor.strip()
            name_pos = var_pos + factor.index(name)
            match = _VARIABLE_RE.fullmatch(name)
            if not match:
                raise ParseError(f"bad variable {name!r}", name_pos, ("x<index>",))
            if len(match.group(1)) > MAX_LITERAL_DIGITS:
                raise ParseError(
                    f"variable index over {MAX_LITERAL_DIGITS} digits", name_pos, ()
                )
            index = int(match.group(1))
            if not 1 <= index <= n:
                raise ParseError(
                    f"variable x{index} outside x1..x{n}", name_pos, ()
                )
            bit = 1 << (index - 1)
            if mask & bit:
                raise ParseError(
                    f"repeated variable x{index} (not squarefree)", name_pos, ()
                )
            mask |= bit
            var_pos += len(factor) + 1
        masks.append(mask)
        offset += len(chunk) + 1
    return SquarefreeIdeal.from_masks(n, masks)


def format_monomial(mask: int) -> str:
    if mask == 0:
        return "1"
    names = [f"x{i + 1}" for i in range(mask.bit_length()) if mask >> i & 1]
    return "*".join(names)


def format_ideal(ideal: SquarefreeIdeal) -> str:
    if ideal.is_zero:
        return "0"
    return ", ".join(format_monomial(m) for m in sorted(ideal.generators))
