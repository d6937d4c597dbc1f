"""Seeded request sets for the four workloads.

A workload is a fixed list of base requests.  The base fixes everything a
request's cost depends on (window width, numerator, form degrees, ideal
shapes) and is drawn from a generator that ignores the seed.  The seed then
varies each request in a way that leaves its cost alone: it shifts qdepth
inputs in degree, relabels the variables of sqf quotients, draws table
values and verify seeds, and orders the requests.  So runs with different
seeds time the same amount of work, and the spread between seeds is the
host's, not the inputs'.

Each request is (argv, shape, check): the program sees only argv, ``shape``
names the base it came from, and ``check(stdout)`` returns None or the
reason the answer is wrong.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

import oracle


@dataclass(frozen=True)
class Request:
    argv: tuple[str, ...]
    shape: str
    check: Callable[[str], str | None]


class Workload:
    name = ""

    def build(self, fixed: random.Random, rng: random.Random, warmup: bool) -> list[Request]:
        """Base requests from ``fixed``, varied by the seeded ``rng``."""
        raise NotImplementedError

    def requests(self, seed: int) -> list[Request]:
        rng = random.Random(f"{self.name}/{seed}")
        batch = self.build(random.Random(f"{self.name}/base"), rng, warmup=False)
        rng.shuffle(batch)
        return batch

    def warmup(self, seed: int) -> list[Request]:
        """A few small requests of the same kinds; run first, not timed."""
        return self.build(random.Random(f"{self.name}/base/warmup"),
                          random.Random(f"{self.name}/{seed}/warmup"), warmup=True)


def _qdepth_request(node, shape: str) -> Request:
    return Request(("qdepth", oracle.render(node), "--json"), shape,
                   partial(oracle.check_qdepth, node=node))


def _free_shape(fixed: random.Random) -> tuple[int, int, tuple[int, ...]]:
    """(n1, n2, tail offsets) of a free-module request, n1 > n2."""
    n1 = fixed.randint(1, 3)
    n2 = fixed.randint(0, n1 - 1)
    return n1, n2, tuple(fixed.randint(0, 3) for _ in range(fixed.randint(0, 3)))


def _free_node(n: int, a: int, shape: tuple[int, int, tuple[int, ...]]):
    """free(n; a^n1, (a-1)^n2, tail) with tail <= a - 2, the shape of the
    free-module depth law (depth n - a).  Moving a shifts every degree
    alike, so the cost does not depend on it."""
    n1, n2, offsets = shape
    return ("free", n, [a] * n1 + [a - 1] * n2 + [a - 2 - o for o in offsets])


class DepthWide(Workload):
    # Wide windows, short numerators: the beta scan is ~98% of the time and
    # parse/elaborate are trivial, so this shows the kernel (O(W^3) comb
    # today) and, once that is O(W^2), window evaluation.
    name = "depth-wide"
    # (lowest W, highest W, requests); 40 in all, so the median (20th/21st
    # by cost) falls in the third class and the tail (11th largest) in the
    # fourth.
    CLASSES = ((32, 44, 12), (48, 60, 6), (66, 70, 6), (92, 98, 12), (124, 140, 3),
               (184, 192, 1))

    KINDS = ("poly", "extend", "free", "shift-poly", "shift-extend", "shift-free")

    def node(self, rng: random.Random, width: int, kind: str, free):
        if kind.startswith("shift-"):
            return ("shift", self.node(rng, width, kind[6:], free), rng.randint(-5, 5))
        if kind == "poly":
            return ("poly", width - 1)
        if kind == "extend":
            return ("extend", ("poly", width - 2))
        return _free_node(width - 1, rng.randint(-4, 4), free)

    def build(self, fixed, rng, warmup):
        classes = ((32, 44, 3),) if warmup else self.CLASSES
        batch = []
        for lo, hi, count in classes:
            for i in range(count):
                kind, width, free = self.KINDS[i % 6], fixed.randint(lo, hi), _free_shape(fixed)
                shape = f"{kind} W{width}" + (f" {free}" if kind.endswith("free") else "")
                batch.append(_qdepth_request(self.node(rng, width, kind, free), shape))
        return batch


class ElabHeavy(Workload):
    # Long expressions, narrow windows (W <= ~60): elaboration dominates
    # (ci(60; 40x40) spends 0.43 s in elaborate, 0.02 s in qdepth).  A
    # kernel change should leave this flat; dsl/series changes show here.
    name = "elab-heavy"
    # (shape, requests); 60 in all, the tail (11th largest) falls in ci-l
    CLASSES = (("table", 12), ("sum", 12), ("ci-s", 12), ("extend", 6),
               ("ci-m", 6), ("ci-l", 12))

    def ci(self, fixed, size: str):
        if size == "s":
            n = fixed.randint(30, 45)
            return ("ci", n, [fixed.randint(2, 20) for _ in range(fixed.randint(10, 16))])
        if size == "m":
            n = fixed.randint(40, 55)
            return ("ci", n, [fixed.randint(15, 30) for _ in range(fixed.randint(20, 28))])
        n = fixed.randint(54, 60)
        return ("ci", n, [fixed.randint(32, 40) for _ in range(fixed.randint(36, 40))])

    def summed(self, fixed):
        """Sum of 3-5 shifted ci/free terms whose window stays narrow."""
        while True:
            parts = []
            for _ in range(fixed.randint(3, 5)):
                if fixed.random() < 0.6:
                    n = fixed.randint(8, 40)
                    term = ("ci", n, [fixed.randint(2, 25)
                                      for _ in range(fixed.randint(4, min(n, 12)))])
                else:
                    term = _free_node(fixed.randint(4, 30), fixed.randint(-4, 4),
                                      _free_shape(fixed))
                parts.append(("shift", term, fixed.randint(-6, 6)))
            node = ("sum", parts)
            k0, top = oracle.window(node)
            if top - k0 <= 60:
                return node

    def table(self, fixed):
        """(length, h0, h1): the length sets the parse cost and h1 // h0
        the window."""
        h0 = fixed.randint(1, 3)
        return fixed.randint(200, 600), h0, fixed.randint(4 * h0, 19 * h0)

    def base(self, fixed, shape: str):
        if shape == "table":
            return self.table(fixed)
        if shape.startswith("ci-"):
            return self.ci(fixed, shape[-1])
        if shape == "sum":
            return self.summed(fixed)
        return ("extend", self.summed(fixed) if fixed.random() < 0.5 else self.ci(fixed, "s"))

    def vary(self, rng, shape: str, base):
        """The seeded request for a base: table values past h1, or a degree
        shift of the whole expression.  A sum is shifted by moving each
        term alike."""
        if shape == "table":
            length, h0, h1 = base
            return ("table", [(0, h0), (1, h1)]
                    + [(k, rng.randint(0, 99)) for k in range(2, length)])
        m = rng.randint(-6, 6)
        if shape == "sum":
            return ("sum", [(op, term, shift + m) for op, term, shift in base[1]])
        return ("shift", base, m)

    def build(self, fixed, rng, warmup):
        classes = (("table", 1), ("sum", 1), ("ci-s", 1)) if warmup else self.CLASSES
        batch = []
        for shape, count in classes:
            for _ in range(count):
                base = self.base(fixed, shape)
                described = base if shape == "table" else oracle.render(base)
                batch.append(_qdepth_request(self.vary(rng, shape, base), f"{shape} {described}"))
        return batch


def _format_ideal(gens: list[int]) -> str:
    if not gens:
        return "0"
    return ", ".join(
        "*".join(f"x{i + 1}" for i in range(g.bit_length()) if g >> i & 1)
        for g in gens
    )


def _relabel(mask: int, perm: list[int]) -> int:
    """The monomial with variable i renamed to perm[i]."""
    return sum(1 << perm[i] for i in range(mask.bit_length()) if mask >> i & 1)


class SqfWide(Workload):
    # The 2^n alpha loop dominates (n = 16 ~50 ms, n = 20 ~1.4 s) while the
    # scan covers at most 21 entries.
    name = "sqf-wide"
    # (n, outer generators, inner generators, requests); 30 in all, so the
    # median falls among n = 16 and the tail (11th largest) among n = 17.
    CLASSES = ((14, 1, 0, 2), (14, 2, 1, 2), (14, 3, 2, 2), (14, 4, 3, 2),
               (15, 1, 2, 2), (15, 2, 3, 2), (15, 4, 0, 2),
               (16, 2, 1, 2), (16, 3, 2, 2),
               (17, 1, 3, 2), (17, 3, 0, 2), (17, 4, 1, 2),
               (18, 2, 2, 2), (18, 3, 1, 2), (19, 2, 0, 1), (20, 1, 1, 1))

    def quotient(self, fixed, n: int, outer: int, inner: int):
        """Outer generators of degrees 2, 3, 4, 5; each inner generator is
        an outer one times 1 to 3 more variables, and some outer generator
        stays outside the inner ideal, so the quotient is valid and nonzero."""
        while True:
            upper = [self.monomial(fixed, n, 2 + j) for j in range(outer)]
            lower = [fixed.choice(upper) | self.monomial(fixed, n, 1 + j) for j in range(inner)]
            if any(all(w & g != w for w in lower) for g in upper):
                return upper, lower

    @staticmethod
    def monomial(rng, n: int, degree: int) -> int:
        mask = 0
        for i in rng.sample(range(n), degree):
            mask |= 1 << i
        return mask

    def build(self, fixed, rng, warmup):
        """Each base quotient with its variables renamed by a seeded
        permutation: the same quotient up to isomorphism, so the same alpha
        vector and the same enumeration work."""
        classes = ((14, 2, 1, 3),) if warmup else self.CLASSES
        batch = []
        for n, outer, inner, count in classes:
            for _ in range(count):
                base_upper, base_lower = self.quotient(fixed, n, outer, inner)
                perm = rng.sample(range(n), n)
                upper = [_relabel(g, perm) for g in base_upper]
                lower = [_relabel(g, perm) for g in base_lower]
                argv = ("sqf", str(n), _format_ideal(upper), _format_ideal(lower), "--json")
                batch.append(Request(argv, f"n{n} {base_upper} {base_lower}", partial(
                    oracle.check_sqf, n=n, upper=upper, lower=lower)))
        return batch


class VerifyMix(Workload):
    # Thousands of tiny cases per call (windows of a few entries, quotients
    # with n <= 8, Fraction sums): the same depth and squarefree code at the
    # opposite extreme, so a change that wins on wide inputs but adds cost
    # per call shows here.
    name = "verify-mix"
    CALLS = 4

    def build(self, fixed, rng, warmup):
        """verify --all draws its cases from its own seed, so the seed is
        the input here; the battery sizes, and so the case count, are fixed."""
        batch = []
        for _ in range(1 if warmup else self.CALLS):
            s = rng.randrange(1, 2**31)
            batch.append(Request(("verify", "--all", "--json", "--seed", str(s)), "all",
                                 partial(oracle.check_verify, seed=s)))
        return batch


WORKLOADS = {w.name: w for w in (DepthWide(), ElabHeavy(), SqfWide(), VerifyMix())}
