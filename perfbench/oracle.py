"""Answers the benchmark checks the program against, computed without it.

Hilbert functions are described by small expression trees that mirror the
program's DSL.  This module renders them to DSL text, evaluates them by its
own route (direct binomials, truncated power series and prefix sums), states
the paper's depth law where one applies, and scans the beta transform with
Pascal's rule

    beta(d + 1, k) = beta(d, k) - beta(d, k - 1),  beta(d + 1, d + 1) = h(d + 1) - beta(d, d)

instead of the program's closed form.  Squarefree alpha vectors come from
inclusion-exclusion over generator subsets instead of the program's 2^n
enumeration.  Nothing here imports the package under test.
"""

from __future__ import annotations

import json
from math import comb

# Expression nodes are tuples:
#   ("poly", n)  ("free", n, shifts)  ("ci", n, degrees)  ("table", pairs)
#   ("shift", node, m)  ("scale", node, r)  ("extend", node)  ("sum", nodes)


def render(node) -> str:
    op = node[0]
    if op == "poly":
        return f"poly({node[1]})"
    if op in ("free", "ci"):
        return f"{op}({node[1]}; {','.join(str(v) for v in node[2])})"
    if op == "table":
        return "table(" + ",".join(f"{k}:{v}" for k, v in node[1]) + ")"
    if op in ("shift", "scale"):
        return f"{op}({render(node[1])}, {node[2]})"
    if op == "extend":
        return f"extend({render(node[1])})"
    return "sum(" + ", ".join(render(part) for part in node[1]) + ")"


def start(node) -> int:
    """First degree with a nonzero value."""
    op = node[0]
    if op in ("poly", "ci"):
        return 0
    if op == "free":
        return -max(node[2])
    if op == "table":
        return min(k for k, v in node[1] if v)
    if op == "shift":
        return start(node[1]) - node[2]
    if op in ("scale", "extend"):
        return start(node[1])
    return min(start(part) for part in node[1])


def values(node, lo: int, hi: int) -> list[int]:
    """h(k) for lo <= k <= hi."""
    op = node[0]
    if op == "poly":
        n = node[1]
        return [comb(n - 1 + k, k) if k >= 0 else 0 for k in range(lo, hi + 1)]
    if op == "free":
        n = node[1]
        return [
            sum(comb(n - 1 + k + a, n - 1) for a in node[2] if k + a >= 0)
            for k in range(lo, hi + 1)
        ]
    if op == "ci":
        # prod (1 - t^d) / (1 - t)^n as a series truncated at degree hi
        if hi < 0:
            return [0] * (hi - lo + 1)
        series = [1] + [0] * hi
        for d in node[2]:
            for e in range(hi, d - 1, -1):
                series[e] -= series[e - d]
        for _ in range(node[1]):
            for e in range(1, hi + 1):
                series[e] += series[e - 1]
        return [series[k] if k >= 0 else 0 for k in range(lo, hi + 1)]
    if op == "table":
        table = dict(node[1])
        return [table.get(k, 0) for k in range(lo, hi + 1)]
    if op == "shift":
        m = node[2]
        return values(node[1], lo + m, hi + m)
    if op == "scale":
        return [node[2] * v for v in values(node[1], lo, hi)]
    if op == "extend":
        k0 = start(node[1])
        if hi < k0:
            return [0] * (hi - lo + 1)
        out, running = [], 0
        for k, v in zip(range(k0, hi + 1), values(node[1], k0, hi)):
            running += v
            if k >= lo:
                out.append(running)
        return [0] * max(0, min(k0, hi + 1) - lo) + out
    parts = [values(part, lo, hi) for part in node[1]]
    return [sum(column) for column in zip(*parts)]


def window(node) -> tuple[int, int]:
    """The program's search window [k0, k0 + floor(h1 / h0)]."""
    k0 = start(node)
    h0, h1 = values(node, k0, k0 + 1)
    return k0, k0 + h1 // h0


def law_depth(node) -> int | None:
    """Depth the paper's laws predict for the construction, if one does."""
    op = node[0]
    if op == "poly":
        return node[1]
    if op == "ci" and all(d >= 2 for d in node[2]):
        return node[1]
    if op == "free":
        n, shifts = node[1], node[2]
        a = max(shifts)
        return n - a if shifts.count(a) > shifts.count(a - 1) else None
    if op == "extend" and node[1][0] in ("poly", "ci"):
        inner = law_depth(node[1])
        return None if inner is None else inner + 1
    if op == "shift":
        inner = law_depth(node[1])
        return None if inner is None else inner - node[2]
    if op == "scale":
        return law_depth(node[1])
    return None


def beta_rows(evals: list[int]):
    """Beta rows for d = first, first + 1, ... by Pascal's rule, where
    evals[i] = h(first + i); row d holds beta(d, k) for first <= k <= d."""
    row = [evals[0]]
    yield row
    for value in evals[1:]:
        row = [row[0]] + [row[i] - row[i - 1] for i in range(1, len(row))] + [value - row[-1]]
        yield row


def reference_depth(evals: list[int], first: int, k0: int, top: int):
    """(depth, certificate row, refutation or None) for the window [k0, top];
    ``evals`` holds h(first..top), with first <= k0 and zeros below k0.
    Keeps only the rows it needs, so memory stays linear in the width."""
    best, best_row, after = None, None, None
    for d, row in zip(range(first, top + 1), beta_rows(evals)):
        if best is not None and d == best + 1:
            after = row
        if d >= k0 and min(row) >= 0:
            best, best_row, after = d, row, None
    refutation = None
    if after is not None:
        k = next(i for i, b in enumerate(after) if b < 0)
        refutation = (best + 1, first + k, after[k])
    return best, best_row, refutation


def check_result(result: dict, evals: list[int], first: int, k0: int, top: int,
                 law: int | None = None) -> str | None:
    """Compare one QDepthResult JSON object with the reference; None if it
    agrees, else a one-line reason.  The certificate is expected to start at
    ``first``, the first degree of ``evals``."""
    depth, row, refutation = reference_depth(evals, first, k0, top)
    depth_got = int(result["qdepth"])
    if law is not None and depth_got != law:
        return f"depth {depth_got} breaks the law value {law}"
    if depth_got != depth:
        return f"depth {depth_got}, reference scan gives {depth}"
    if (int(result["lowerBound"]), int(result["upperBound"])) != (k0, top):
        return f"bounds {result['lowerBound']}..{result['upperBound']}, expected {k0}..{top}"
    cert = result["certificate"]
    cert_values = [int(v) for v in cert["values"]]
    if int(cert["d"]) != depth or int(cert["startK"]) != first:
        return "certificate header does not match depth and start"
    if len(cert_values) != depth - first + 1 or min(cert_values) < 0:
        return "certificate has the wrong length or a negative entry"
    if cert_values != row:
        return "certificate differs from the reference beta row"
    got = result["refutation"]
    if got is None or refutation is None:
        return None if got is refutation else f"refutation {got}, expected {refutation}"
    d, k, b = int(got["d"]), int(got["k"]), int(got["beta"])
    if d != depth + 1 or b >= 0:
        return f"refutation ({d}, {k}, {b}) is not a negative entry at depth + 1"
    if (d, k, b) != refutation:
        return f"refutation ({d}, {k}, {b}), expected {refutation}"
    return None


def check_qdepth(output: str, node) -> str | None:
    """Check `qdepth <spec> --json` output against the model."""
    result = json.loads(output)
    k0, top = window(node)
    return check_result(result, values(node, k0, top), k0, k0, top, law_depth(node))


def ideal_counts(n: int, gens: list[int]) -> list[int]:
    """Degree-k squarefree monomials in the ideal generated by ``gens``, by
    inclusion-exclusion over nonempty generator subsets."""
    counts = [0] * (n + 1)
    g = len(gens)
    for subset in range(1, 1 << g):
        lcm = 0
        for i in range(g):
            if subset >> i & 1:
                lcm |= gens[i]
        size = lcm.bit_count()
        sign = 1 if subset.bit_count() % 2 else -1
        for k in range(size, n + 1):
            counts[k] += sign * comb(n - size, k - size)
    return counts


def check_sqf(output: str, n: int, upper: list[int], lower: list[int]) -> str | None:
    """Check `sqf n upper lower --json` output: alpha against
    inclusion-exclusion, both depth routes against the reference scan."""
    result = json.loads(output)
    alpha = [u - w for u, w in zip(ideal_counts(n, upper), ideal_counts(n, lower))]
    if [int(a) for a in result["alpha"]] != alpha:
        return "alpha differs from inclusion-exclusion"
    if result["match"] is not True:
        return "the two depth routes disagree"
    k0 = next(k for k, a in enumerate(alpha) if a)
    h1 = alpha[k0 + 1] if k0 < n else 0
    top = k0 + h1 // alpha[k0]
    evals = [alpha[k] if k <= n else 0 for k in range(top + 1)]
    reason = check_result(result["functionDepth"], evals[k0:], k0, k0, top)
    if reason is None:
        reason = check_result(result["quotientDepth"], evals, 0, k0, top)
    return reason


# casesRun of each battery of `verify --all` at the default ranges.
VERIFY_CASES = {
    "polyring": 16, "ci": 125, "ci-recursion": 100, "ci-truncation": 35,
    "free": 100, "extension": 150, "structural": 250, "quotients": 150,
    "signs": 325, "beta-identity": 350, "e-link": 238,
}


def check_verify(output: str, seed: int) -> str | None:
    result = json.loads(output)
    if result["violationCount"] != 0:
        return f"{result['violationCount']} violations"
    cases = {b["battery"]: b["casesRun"] for b in result["batteries"]}
    if cases != VERIFY_CASES:
        return f"batteries ran {cases}"
    if result["seed"] != seed:
        return f"seed {result['seed']} echoed for {seed}"
    return None
