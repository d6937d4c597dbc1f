"""The closed forms of the beta transform and its inverse, the oracles the
tests hold the package to:

    beta(d, k) = sum_{j = k0..k} (-1)^(k - j) C(d - j, k - j) h(j),
    h(k)       = sum_{j = k0..k} C(d - j, k - j) beta(d, j).

They are written separately from the package, which computes beta only by
Pascal's rule on rows and its inverse only by Pascal sums.  With ``flip``
the entry k == d > k0 is negated, as the package's fault hook negates it.
"""

from math import comb


def closed_form_beta(h, d, k, flip=False):
    """beta(d, k) of h for k0(h) <= k <= d."""
    k0 = h.k0
    values = h.values(k0, k)
    total = sum(
        (-1) ** (k - j) * comb(d - j, k - j) * values[j - k0]
        for j in range(k0, k + 1)
    )
    return -total if flip and k == d > k0 else total


def closed_form_row(h, d, flip=False):
    """[beta(d, k0), ..., beta(d, d)] of h, entry by entry."""
    return [closed_form_beta(h, d, k, flip) for k in range(h.k0, d + 1)]


def closed_form_reconstruct(table):
    """[h(start_k), ..., h(d)] from the row ``table`` of a ``BetaTable``,
    entry by entry."""
    d, start, values = table.d, table.start_k, table.values
    return [
        sum(comb(d - j, k - j) * values[j - start] for j in range(start, k + 1))
        for k in range(start, d + 1)
    ]
