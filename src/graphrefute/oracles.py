"""Reference implementations for cross-checking the fast invariants.

These are deliberately naive: independent correctness anchors for the fast
solvers in :mod:`graphrefute.invariants`. Keep them simple enough to audit
by eye. The exhaustive ones are only meant for graphs of roughly a dozen
vertices; the floating-point ones recompute exact indices in floats.
"""

from __future__ import annotations

import math
from collections import deque

from .graphs import Graph, GraphError


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


def count_matchings_by_size(g: Graph) -> list[int]:
    """Return [m_0, m_1, ...] where m_k is the number of k-edge matchings.

    For a forest the adjacency characteristic polynomial has coefficients
    (-1)^k * m_k at exponent n - 2k, which makes this a useful cross-check.
    """
    edges = list(g.edges())
    counts = [0] * (g.n // 2 + 1)

    def extend(start: int, used: int, size: int) -> None:
        counts[size] += 1
        for j in range(start, len(edges)):
            u, v = edges[j]
            bits = (1 << u) | (1 << v)
            if not used & bits:
                extend(j + 1, used | bits, size + 1)

    extend(0, 0, 0)
    return counts


def distances_bfs(g: Graph) -> list[list[int]]:
    """All-pairs distances by one plain BFS per source; -1 marks unreachable."""
    rows = []
    for s in range(g.n):
        dist = [-1] * g.n
        dist[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v in g.neighbors(u):
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        rows.append(dist)
    return rows


def proximity_float(g: Graph) -> float:
    """Floating-point proximity, for cross-checking the exact value."""
    if g.n < 2:
        raise GraphError("proximity requires at least 2 vertices")
    return min(sum(row) for row in distances_bfs(g)) / (g.n - 1)


def harmonic_float(g: Graph) -> float:
    """Floating-point harmonic index, for cross-checking the exact value."""
    return math.fsum(2.0 / (len(g.neighbors(u)) + len(g.neighbors(v))) for u, v in g.edges())
