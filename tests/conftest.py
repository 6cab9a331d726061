"""Shared graph builders and conversion helpers for the tests."""

from __future__ import annotations

import os
import random

# LAPACK rounds differently under more than one BLAS thread, and the pinned
# trace digests hold spectral floats, so pin one thread unless the caller
# chose a count. This must run before anything imports numpy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from graphrefute.conjectures import _FAST
from graphrefute.graphs import (Graph, adjacency_matrix, complete, connect_at, path, random_tree,
                                star)
from graphrefute.invariants import symmetric_spectrum


def pytest_configure(config):
    # Declared here, not in pyproject.toml: pytest imports a filter's warning
    # class before it loads this file, which would load numpy before the pin.
    config.addinivalue_line("filterwarnings", "error::graphrefute.invariants.PerformanceWarning")


def horner(coeffs: tuple[int, ...], x: float) -> float:
    """The polynomial whose coeffs[k] multiplies x**k, evaluated at x in floats."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def lambda1(g: Graph) -> float:
    """Spectral radius of g's adjacency matrix."""
    return symmetric_spectrum(adjacency_matrix(g)[None])[0].values[-1]


def star_with_two_tails(star_order: int, tail_a: int, tail_b: int) -> Graph:
    """Star whose center carries one pendant path of each given length."""
    g = connect_at(star(star_order), path(tail_a), 0, 0)
    return connect_at(g, path(tail_b), 0, 0)


def two_star_centers_joined(order_a: int, order_b: int) -> Graph:
    """Two star centers, each joined by an edge to one shared new vertex."""
    g = connect_at(path(1), star(order_a), 0, 0)
    return connect_at(g, star(order_b), 0, 0)


def clique_with_tail(clique_order: int, tail: int) -> Graph:
    """Complete graph with a pendant path bridged to one of its vertices."""
    return connect_at(complete(clique_order), path(tail), 0, 0)


def to_networkx(g: Graph):
    import networkx as nx

    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def from_networkx(h) -> Graph:
    nodes = list(h.nodes())
    index = {v: i for i, v in enumerate(nodes)}
    return Graph(len(nodes), [(index[u], index[v]) for u, v in h.edges()])


def rebuilt(g: Graph) -> Graph:
    """A validated copy of g with nothing memoised, so is_connected walks it."""
    return Graph(g.n, g.edges())


def alone(scorer, g: Graph):
    """scorer's evaluation of a validated copy of g, scored as a chunk of one."""
    h = rebuilt(g)
    return scorer(h, _FAST.over([h]))


def isomorphism(g: Graph, h: Graph) -> list[int] | None:
    """A vertex map p of connected g with {p[u], p[v]} an edge of h exactly
    when {u, v} is one of g, found by backtracking over g's vertices in
    breadth-first order; None when there is none."""
    if g.n != h.n or g.m != h.m:
        return None
    order = [0]
    for u in order:
        order += [v for v in g.neighbors(u) if v not in order]
    p = [-1] * g.n
    used = [False] * h.n

    def extend(i: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        for w in range(h.n):
            if used[w] or len(h.neighbors(w)) != len(g.neighbors(v)):
                continue
            if all((p[u] in h.neighbors(w)) == (u in g.neighbors(v)) for u in order[:i]):
                p[v], used[w] = w, True
                if extend(i + 1):
                    return True
                used[w] = False
        return False

    return p if extend(0) else None


def random_connected_graph(n: int, rng: random.Random, chord_prob: float = 0.2) -> Graph:
    """Random tree plus random chords; connected by construction."""
    g = random_tree(n, rng)
    edges = set(g.edges())
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < chord_prob:
                edges.add((u, v))
    return Graph(n, sorted(edges))


def write_g6(tmp_path, g: Graph, name: str = "graph.g6") -> str:
    from graphrefute.codec import encode_graph6

    target = tmp_path / name
    target.write_text(encode_graph6(g) + "\n")
    return str(target)
