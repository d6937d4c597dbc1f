"""Every function in a small box, checked against the closed form.

The box is every canonical h = (c0 + c1 t + c2 t^2) / (1 - t)^p with c0 in
1..4, c1 in -20..20, c2 in -3..3 and p <= 8 whose values are nonnegative
over its window, one function per canonical numerator and power: 6663 in
all.  It holds the one-term functions c0 / (1 - t)^p for every p <= 8, and
the few whose top row has a negative entry no lower than -2, such as
(4 + 18 t) / (1 - t)^7.
"""

from itertools import product
from math import comb

from hilbertdepth import HilbertFunction, qdepth
from hilbertdepth import depth

from closed_form import closed_form_row

C0, C1, C2, POWERS = range(1, 5), range(-20, 21), range(-3, 4), range(9)


def _value(c, p, k):
    """h(k) of (c[0] + c[1] t + c[2] t^2) / (1 - t)^p, by binomials."""
    if p == 0:
        return c[k] if k < len(c) else 0
    return sum(cj * comb(k - j + p - 1, p - 1) for j, cj in enumerate(c) if k >= j)


def box():
    """(h, top of its window) for each function in the box; the window
    [0, h1 // h0] is read off the values, never off ``bounds``."""
    seen = set()
    for c, p in product(product(C0, C1, C2), POWERS):
        h0, h1 = _value(c, p, 0), _value(c, p, 1)
        if h1 < 0 or min(_value(c, p, k) for k in range(h1 // h0 + 1)) < 0:
            continue
        h = HilbertFunction(dict(enumerate(c)), p)
        key = (tuple(h.numerator.items()), h.denom_power)
        if key not in seen:
            seen.add(key)
            yield h, h1 // h0


def failure(h, high):
    """None when ``qdepth(h)`` gives the window [0, high], a depth d whose
    closed-form row is nonnegative and is the certificate, and, for d below
    the top, the first negative entry of the closed-form row d + 1 as the
    refutation; otherwise what differs.  By the prefix-sum lemma those two
    rows decide the depth."""
    try:
        result = qdepth(h)
    except Exception as exc:  # any raise on a valid function is a failure
        return repr(exc)
    d = result.qdepth
    if (result.lower_bound, result.upper_bound) != (0, high):
        return f"window {result.lower_bound, result.upper_bound}, expected {0, high}"
    if not 0 <= d <= high:
        return f"depth {d} outside the window"
    row = closed_form_row(h, d)
    if min(row) < 0 or result.certificate != (d, 0, tuple(row)):
        return f"certificate {result.certificate}"
    refutation = None
    if d < high:
        following = closed_form_row(h, d + 1)
        k = next((k for k, b in enumerate(following) if b < 0), None)
        if k is None:
            return f"row {d + 1} is nonnegative"
        refutation = (d + 1, k, following[k])
    if result.refutation != refutation:
        return f"refutation {result.refutation}, expected {refutation}"
    return None


def test_every_function_in_the_box(monkeypatch):
    monkeypatch.setattr(depth, "FLIP", False)
    functions = list(box())
    keys = {(tuple(h.numerator.items()), h.denom_power) for h, _ in functions}
    assert len(functions) == 6663
    assert {(((0, c0),), p) for c0 in C0 for p in POWERS} <= keys
    failures = [
        (dict(h.numerator), h.denom_power, reason)
        for h, high in functions
        if (reason := failure(h, high)) is not None
    ]
    assert failures == []
