"""Exhaustive references for the exact solvers.

Matching, independence and domination numbers by plain enumeration: naive,
independent correctness anchors that the benchmark's oracle gate and the
tests compare the solvers in :mod:`graphrefute.invariants` against. Keep
them simple enough to audit by eye; they are only meant for graphs of
roughly a dozen vertices.
"""

from __future__ import annotations

from .graphs import Graph


def independence_number_exhaustive(g: Graph) -> int:
    """Maximum independent set size by checking every vertex subset."""
    n = g.n
    nbr = [0] * n
    for u, v in g.edges():
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    best = 0
    for mask in range(1 << n):
        rest = mask
        ok = True
        while rest:
            v = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            if nbr[v] & mask:
                ok = False
                break
        if ok:
            size = mask.bit_count()
            if size > best:
                best = size
    return best


def domination_number_exhaustive(g: Graph) -> int:
    """Minimum dominating set size by checking every vertex subset."""
    n = g.n
    closed = [1 << v for v in range(n)]
    for u, v in g.edges():
        closed[u] |= 1 << v
        closed[v] |= 1 << u
    full = (1 << n) - 1
    best = n
    for mask in range(1 << n):
        if mask.bit_count() >= best:
            continue
        covered = 0
        rest = mask
        while rest:
            v = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            covered |= closed[v]
        if covered == full:
            best = mask.bit_count()
    return best


def matching_number_exhaustive(g: Graph) -> int:
    """Maximum matching size by enumerating all matchings."""
    edges = list(g.edges())
    best = 0

    def extend(start: int, used: int, size: int) -> None:
        nonlocal best
        if size > best:
            best = size
        for j in range(start, len(edges)):
            u, v = edges[j]
            bits = (1 << u) | (1 << v)
            if not used & bits:
                extend(j + 1, used | bits, size + 1)

    extend(0, 0, 0)
    return best
