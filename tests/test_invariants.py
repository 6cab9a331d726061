"""Matrices, spectra, characteristic polynomials, and combinatorial invariants."""

from __future__ import annotations

import math
import random
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from conftest import (
    count_matchings_by_size, from_networkx, horner, lambda1, random_connected_graph, to_networkx,
)
from graphrefute import conjectures, invariants, oracles
from graphrefute.families import build_family
from graphrefute.graphs import (
    Graph, adjacency_matrix, all_pairs_distances, bfs_tree, complete, cycle, path, random_tree,
    star, walk_distances,
)
from graphrefute.invariants import (
    NumericError,
    PerformanceWarning,
    char_poly_exact,
    domination_number,
    harmonic,
    independence_number,
    laplacian_matrix,
    matching_number,
    modified_second_zagreb,
    peak_stats,
    proximity,
    randic,
    symmetric_spectrum,
)


def _spectrum(m, *, polish=False):
    """symmetric_spectrum of one matrix: the first of a stack of one."""
    return symmetric_spectrum(m[None], polish=polish)[0]


def _laplacian(g):
    """g's Laplacian, typed as `adjacency_matrix(g)`."""
    return laplacian_matrix(adjacency_matrix(g))


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return Graph(10, outer + inner + spokes)


def test_matrices():
    g = path(3)
    assert adjacency_matrix(g).tolist() == [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
    assert _laplacian(g).tolist() == [[1, -1, 0], [-1, 2, -1], [0, -1, 1]]
    assert all_pairs_distances(g).tolist() == [[0, 1, 2], [1, 0, 1], [2, 1, 0]]


def test_adjacency_spectrum_frozen_values():
    s = _spectrum(adjacency_matrix(path(3)))
    assert s.values[::-1] == pytest.approx((math.sqrt(2), 0.0, -math.sqrt(2)), abs=1e-12)
    k = _spectrum(adjacency_matrix(complete(4)))
    assert k.values[::-1] == pytest.approx((3.0, -1.0, -1.0, -1.0), abs=1e-12)
    assert lambda1(star(5)) == pytest.approx(2.0, abs=1e-12)


def test_spectrum_error_bounds():
    fast = _spectrum(adjacency_matrix(path(30)))
    assert fast.residual_bound == math.inf
    polished = _spectrum(adjacency_matrix(path(30)), polish=True)
    assert polished.residual_bound <= 1e-12
    assert polished.values == pytest.approx(fast.values, abs=1e-9)


def test_laplacian_spectrum_and_connectivity():
    s = _spectrum(_laplacian(complete(3)))
    assert s.values == pytest.approx((0.0, 3.0, 3.0), abs=1e-12)
    # Algebraic connectivity: the second smallest Laplacian eigenvalue.
    lap = _spectrum(_laplacian(path(2)))
    assert lap.values[1] == pytest.approx(2.0, abs=1e-12)
    # lambda_2 of the adjacency matrix, not the Laplacian.
    adj = _spectrum(adjacency_matrix(path(3)))
    assert adj.values[-2] == pytest.approx(0.0, abs=1e-12)


def test_distance_spectrum_descending():
    values = _spectrum(all_pairs_distances(path(3))).values[::-1]
    assert values[0] >= values[-1]
    d = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    expected = sorted(np.linalg.eigvalsh(d), reverse=True)
    assert values == pytest.approx(tuple(expected), abs=1e-12)


# A list-loop reference Berkowitz, the program's method before it moved to
# object arrays: every product and sum is one Python step over nested lists.
def _reference_char_poly(m: np.ndarray) -> tuple[int, ...]:
    rows = m.tolist()
    p = [1]
    for k in range(len(rows)):
        a = rows[k][k]
        row_k = rows[k][:k]
        vec = [rows[i][k] for i in range(k)]
        toep = [1, -a]
        for step in range(k):
            toep.append(-sum(row_k[i] * vec[i] for i in range(k)))
            if step < k - 1:
                vec = [sum(rows[i][j] * vec[j] for j in range(k)) for i in range(k)]
        newp = [0] * (k + 2)
        for i in range(k + 2):
            s = 0
            for j in range(max(0, i - k - 1), min(i, k) + 1):
                s += toep[i - j] * p[j]
            newp[i] = s
        p = newp
    return tuple(reversed(p))


def _assert_same_char_poly(m: np.ndarray) -> None:
    cp = char_poly_exact(m)
    assert cp == _reference_char_poly(m)
    assert all(type(c) is int for c in cp)


def test_char_poly_matches_the_list_reference():
    rng = random.Random(29)
    for n in range(1, 31):
        for g in (random_tree(n, rng), random_connected_graph(n, rng)):
            _assert_same_char_poly(adjacency_matrix(g))
            _assert_same_char_poly(all_pairs_distances(g))
    for n in range(1, 26):
        _assert_same_char_poly(adjacency_matrix(complete(n)))
    # A general integer matrix whose coefficients overflow int64.
    big = np.array([[rng.randint(-10**6, 10**6) for _ in range(12)] for _ in range(12)])
    _assert_same_char_poly(big)
    assert max(map(abs, char_poly_exact(big))) >= 2**63


def test_char_poly_exact_frozen():
    k2 = char_poly_exact(np.array([[0, 1], [1, 0]]))
    assert k2 == (-1, 0, 1)
    assert len(k2) - 1 == 2
    p3 = char_poly_exact(adjacency_matrix(path(3)))
    assert p3 == (0, -2, 0, 1)
    c3 = char_poly_exact(adjacency_matrix(cycle(3)))
    assert c3 == (-2, -3, 0, 1)
    assert horner(c3, 2) == 0
    assert horner(c3, -1) == 0


def test_char_poly_exact_big_integers():
    # K_25 has adjacency characteristic polynomial (x-24)(x+1)^24 whose
    # coefficients overflow 64-bit arithmetic; the roots must still be exact.
    cp = char_poly_exact(adjacency_matrix(complete(25)))
    assert horner(cp, 24) == 0
    assert horner(cp, -1) == 0
    assert cp[-1] == 1
    assert all(isinstance(c, int) for c in cp)


def test_char_poly_trace_coefficients():
    rng = random.Random(4)
    for _ in range(10):
        g = random_connected_graph(8, rng)
        cp = char_poly_exact(adjacency_matrix(g))
        # Monic; x^{n-1} coefficient is -trace = 0; x^{n-2} one is -m.
        assert cp[-1] == 1
        assert cp[-2] == 0
        assert cp[-3] == -g.m


def test_distance_char_poly_matches_floating_roots():
    g = random_tree(7, random.Random(1))
    cp = char_poly_exact(all_pairs_distances(g))
    for lam in _spectrum(all_pairs_distances(g)).values:
        assert abs(horner(cp, lam)) <= 1e-6 * (1 + abs(lam)) ** g.n


def test_peak_stats_frozen():
    assert peak_stats(path(4))[:2] == (1, 2)
    p_a, m, p_d = peak_stats(path(3))
    assert (p_a, m) == (0, 1)
    assert 0 <= p_d <= 1  # p_d ranges over 0..n-2
    assert peak_stats(star(5))[:2] == (0, 1)


def test_peak_stats_rejects_non_trees():
    with pytest.raises(ValueError):
        peak_stats(cycle(4))
    with pytest.raises(ValueError):
        peak_stats(Graph(1))


def test_diameter_and_proximity():
    assert all_pairs_distances(path(5)).max() == 4
    assert all_pairs_distances(complete(6)).max() == 1
    assert proximity(all_pairs_distances([path(3)])) == [Fraction(1)]
    assert proximity(all_pairs_distances([path(4)])) == [Fraction(4, 3)]
    assert proximity(all_pairs_distances([star(9)])) == [Fraction(1)]


def test_chemical_indices_frozen():
    assert modified_second_zagreb(path(3)) == 1
    assert harmonic(path(3)) == Fraction(4, 3)
    assert randic(path(3), float, math.fsum) == pytest.approx(math.sqrt(2), abs=1e-12)
    assert randic(complete(4), float, math.fsum) == pytest.approx(2.0, abs=1e-12)


def test_randic_general_matches_exact():
    # The float sum against the same formula summed at 60 digits.
    rng = random.Random(6)
    for _ in range(10):
        g = random_connected_graph(7, rng)
        with mp.workdps(60):
            digits60 = randic(g, mp.mpf, mp.fsum)
        assert randic(g, float, math.fsum) == pytest.approx(float(digits60), rel=1e-15)


def _per_edge_randic(g, num, fsum):
    """Randic as one root per edge, summed in edge order."""
    deg = [len(g.neighbors(v)) for v in range(g.n)]
    return fsum(num(deg[u] * deg[v]) ** -0.5 for u, v in g.edges())


def test_randic_is_the_per_edge_sum_bit_for_bit(monkeypatch):
    # Each distinct product's root is taken once, but the terms and their
    # order are the per-edge ones: floats and 60 digits agree to the bit, and
    # the exact sum agrees or declines after as many additions.
    surd = conjectures._Surd
    lifts = []
    lift = surd._lift
    monkeypatch.setattr(surd, "_lift", lambda self, x: lifts.append(x) or lift(self, x))

    def exact(f, g):
        lifts.clear()
        try:
            v = f(g, conjectures._Exact.num, sum)  # 0 on no edges
            return v if v == 0 else (v.p, v.d, v.q, v.c, v.l), len(lifts)
        except conjectures._NotExact:
            return "declined", len(lifts)

    for g in _index_test_graphs():
        assert randic(g, float, math.fsum) == _per_edge_randic(g, float, math.fsum)
        with mp.workdps(60):
            assert randic(g, mp.mpf, mp.fsum) == _per_edge_randic(g, mp.mpf, mp.fsum)
        assert exact(randic, g) == exact(_per_edge_randic, g)
    powers = []
    power = surd.__pow__
    monkeypatch.setattr(surd, "__pow__", lambda self, e: powers.append(self.p) or power(self, e))
    randic(star(128), conjectures._Exact.num, sum)
    assert powers == [127]


def _index_test_graphs():
    rng = random.Random(23)
    graphs = [random_tree(n, rng) for n in range(1, 30)]
    graphs += [random_connected_graph(n, rng, chord_prob=p) for n in range(2, 20)
               for p in (0.1, 0.5)]
    graphs += [star(n) for n in range(1, 12)] + [complete(n) for n in range(1, 10)]
    return graphs + [cycle(n) for n in range(3, 12)]


def test_degree_indices_match_per_edge_sums():
    # Includes the edgeless n = 1 graph, stars and cliques.
    for g in _index_test_graphs():
        deg = [len(g.neighbors(v)) for v in range(g.n)]
        edges = list(g.edges())
        assert harmonic(g) == sum((Fraction(2, deg[u] + deg[v]) for u, v in edges), Fraction(0))
        assert modified_second_zagreb(g) == sum(
            (Fraction(1, deg[u] * deg[v]) for u, v in edges), Fraction(0)
        )


def _reference_spectrum(m, polish):
    """symmetric_spectrum's values and bound, written with np.linalg.norm and
    one float() per eigenvalue; unpolished values carry no bound."""
    a = np.asarray(m, dtype=np.float64)
    n = a.shape[0]
    eps = float(np.finfo(np.float64).eps)
    norm = float(np.linalg.norm(a, "fro"))
    if polish:
        vals, vecs = np.linalg.eigh(a)
        r = float(np.linalg.norm(a @ vecs - vecs * vals, "fro"))
        orth = float(np.linalg.norm(vecs.T @ vecs - np.eye(n), "fro"))
        bound = r / (1.0 - orth) + 4.0 * n * eps * norm
    else:
        vals = np.linalg.eigvalsh(a)
        bound = math.inf
    return tuple(float(x) for x in vals), bound


def test_symmetric_spectrum_matches_reference_bit_for_bit():
    rng = random.Random(31)
    graphs = [random_tree(rng.randint(1, 60), rng) for _ in range(15)]
    graphs += [random_connected_graph(rng.randint(1, 40), rng) for _ in range(15)]
    for g in graphs:
        for m in (adjacency_matrix(g), _laplacian(g), all_pairs_distances(g)):
            for polish in (False, True):
                sp = _spectrum(m, polish=polish)
                values, bound = _reference_spectrum(m, polish)
                assert sp.values == values and sp.residual_bound == bound
                assert all(type(x) is float for x in sp.values)


def test_matrices_match_per_edge_fill():
    for g in _index_test_graphs():
        a = np.zeros((g.n, g.n), dtype=np.int64)
        for u, v in g.edges():
            a[u, v] = a[v, u] = 1
        assert adjacency_matrix(g).dtype == np.int64
        assert np.array_equal(adjacency_matrix(g), a)
        assert np.array_equal(_laplacian(g), np.diag(a.sum(axis=1)) - a)
        # A float stack holds the int matrix's bits: no -0.0 anywhere.
        for build in (adjacency_matrix, _laplacian):
            assert build([g])[0].tobytes() == build(g).astype(np.float64).tobytes()


def test_stacks_equal_single_graph_matrices_bit_for_bit():
    # Several trees and several non-trees of one order, stacked apart and
    # together (a mixed stack takes the BFS for its trees too). Each layer of
    # a stack holds its graph's own matrix bytes, and each spectrum of a
    # stack is its matrix's own, value and bound.
    rng = random.Random(43)
    for n in range(2, 31):
        trees = [random_tree(n, rng) for _ in range(3)]
        others = [random_connected_graph(n, rng, 0.3) for _ in range(3)]
        others = [g for g in others if g.m != n - 1]
        for graphs in (trees, others, trees + others):
            if not graphs:
                continue
            stacks = {build: build(graphs) for build in
                      (adjacency_matrix, _laplacian, all_pairs_distances)}
            adjacency = stacks[adjacency_matrix]
            assert laplacian_matrix(adjacency).tobytes() == stacks[_laplacian].tobytes()
            if graphs is not trees:
                assert walk_distances(adjacency).tobytes() == stacks[all_pairs_distances].tobytes()
            for build, stack in stacks.items():
                assert stack.dtype == np.float64 and stack.shape == (len(graphs), n, n)
                for g, layer in zip(graphs, stack):
                    assert layer.tobytes() == build(g).astype(np.float64).tobytes()
                batch = symmetric_spectrum(stack)
                for layer, sp in zip(stack, batch):
                    alone = _spectrum(layer)
                    assert sp.values == alone.values
                    assert sp.residual_bound == alone.residual_bound


def _fail_to_converge(*args, **kwargs):
    raise np.linalg.LinAlgError("planted")


@pytest.mark.parametrize("graphs", [[path(5)], [path(5), star(5)]], ids=["matrix", "stack"])
@pytest.mark.parametrize("polish", [False, True], ids=["eigvalsh", "eigh"])
def test_a_failed_solve_raises_numeric_error(monkeypatch, polish, graphs):
    # LAPACK's LinAlgError never escapes: a stack of one matrix and a stack
    # of two both raise NumericError, the stack as a whole.
    monkeypatch.setattr(np.linalg, "eigh" if polish else "eigvalsh", _fail_to_converge)
    with pytest.raises(NumericError, match="failed to converge"):
        symmetric_spectrum(adjacency_matrix(graphs), polish=polish)


def test_a_non_orthogonal_basis_raises_numeric_error(monkeypatch):
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda x: (eigh(x)[0], np.ones_like(x)))
    with pytest.raises(NumericError, match="non-orthogonal") as info:
        _spectrum(adjacency_matrix(path(5)), polish=True)
    # The message carries the measured departure from orthogonality.
    assert float(str(info.value).rpartition("(")[2].rstrip(")")) >= 0.5


def test_matching_number_needs_blossoms():
    # Odd cycles and the Petersen graph defeat greedy/bipartite algorithms.
    assert matching_number(cycle(5)) == 2
    assert matching_number(cycle(7)) == 3
    assert matching_number(petersen()) == 5
    assert matching_number(complete(6)) == 3
    assert matching_number(star(8)) == 1
    assert matching_number(Graph(1)) == 0


def test_independence_and_domination_frozen():
    assert independence_number(cycle(5)) == 2
    assert independence_number(petersen()) == 4
    assert independence_number(star(8)) == 7
    assert independence_number(complete(5)) == 1
    assert domination_number(star(8)) == 1
    assert domination_number(path(6)) == 2
    assert domination_number(path(7)) == 3
    assert domination_number(cycle(6)) == 2
    assert domination_number(petersen()) == 3


def test_exact_invariants_match_exhaustive_enumeration():
    rng = random.Random(12)
    for _ in range(30):
        g = random_connected_graph(rng.randrange(2, 8), rng)
        assert matching_number(g) == oracles.matching_number_exhaustive(g)
        assert independence_number(g) == oracles.independence_number_exhaustive(g)
        assert domination_number(g) == oracles.domination_number_exhaustive(g)


def _greedy_cover_size(g: Graph) -> int:
    """Closed neighbourhoods taken greedily, most new vertices first, until
    they cover V."""
    uncovered, size = set(range(g.n)), 0
    while uncovered:
        uncovered -= max(({v, *g.neighbors(v)} for v in range(g.n)),
                         key=lambda c: len(c & uncovered))
        size += 1
    return size


def test_non_tree_domination_matches_exhaustive_at_benchmark_sizes():
    # Connected non-trees of 8-10 vertices at the certify corpus's negative
    # densities, whose domination numbers the benchmark's oracle gate checks.
    # Where the greedy cover is larger than gamma, the least-k search must
    # find gamma below it.
    rng = random.Random(32)
    beaten = 0
    for i in range(300):
        g = random_connected_graph(rng.randrange(8, 11), rng, (0.35, 0.5)[i % 2])
        if g.is_tree():
            continue
        gamma = domination_number(g)
        assert gamma == oracles.domination_number_exhaustive(g)
        beaten += _greedy_cover_size(g) > gamma
    assert beaten >= 5


def test_tree_domination_greedy_rule_matches_exhaustive():
    rng = random.Random(13)
    for _ in range(40):
        t = random_tree(rng.randrange(1, 11), rng)
        assert domination_number(t) == oracles.domination_number_exhaustive(t)


# The three-state rooted dynamic program that decided tree domination
# before the greedy leaf rule. Per vertex: taken into the set; not taken but
# dominated by a child; not taken and not yet dominated (its parent must be
# taken).
def _reference_tree_domination(g: Graph) -> int:
    n = g.n
    if n == 1:
        return 1
    inf = n + 1
    order, parent = bfs_tree(g)
    taken = [0] * n
    dominated = [0] * n
    needs = [0] * n
    for u in reversed(order):
        children = [v for v in g.neighbors(u) if parent[v] == u]
        if not children:
            taken[u] = 1
            dominated[u] = inf
            needs[u] = 0
            continue
        t = 1
        base = 0
        delta = inf
        for c in children:
            t += min(taken[c], dominated[c], needs[c])
            cheapest = min(taken[c], dominated[c])
            base += cheapest
            delta = min(delta, taken[c] - cheapest)
        taken[u] = t
        needs[u] = base
        dominated[u] = base + delta
    return min(taken[order[0]], dominated[order[0]])


def test_tree_domination_greedy_rule_matches_the_dynamic_program():
    # Trees of order >= 2 have no isolated vertex, so gamma <= n/2 (Ore).
    rng = random.Random(29)
    t2 = {k: build_family("T2", k) for k in range(1, 63)}  # orders 4..248
    for t in [random_tree(rng.randrange(1, 201), rng) for _ in range(2000)] + list(t2.values()):
        gamma = domination_number(t)
        assert gamma == _reference_tree_domination(t)
        assert t.n == 1 or 2 * gamma <= t.n
    assert all(domination_number(t) == 2 * k for k, t in t2.items())


def _random_bipartite(n: int, rng: random.Random, chords: int) -> Graph:
    """A random tree plus up to ``chords`` chords between its two colour
    classes: connected and bipartite by construction."""
    t = random_tree(n, rng)
    order, parent = bfs_tree(t)
    side = [0] * n
    for v in order[1:]:
        side[v] = 1 - side[parent[v]]
    edges = set(t.edges())
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)
             if side[u] != side[v] and (u, v) not in edges]
    return Graph(n, sorted(edges.union(rng.sample(pairs, min(chords, len(pairs))))))


@pytest.mark.filterwarnings("ignore::graphrefute.invariants.PerformanceWarning")
def test_independence_matches_koenig_on_bipartite_graphs():
    # A bipartite graph's alpha is n - mu (Koenig), and Edmonds' blossom
    # algorithm finds mu independently of either independence rule. Trees take
    # the leaf rule, and T(2,b)'s alpha is 2b - 1; the other graphs take the
    # two-way branch, some above the size guard.
    nx = pytest.importorskip("networkx")
    rng = random.Random(37)
    trees = [random_tree(rng.randrange(1, 251), rng) for _ in range(2000)]
    trees += [from_networkx(t) for n in range(2, 11) for t in nx.nonisomorphic_trees(n)]
    for t in trees + [Graph(1)]:
        assert independence_number(t) == t.n - matching_number(t), list(t.edges())
    assert all(independence_number(build_family("T2B", b)) == 2 * b - 1 for b in range(2, 125))
    others = [_random_bipartite(n, rng, k) for n in range(10, 81, 5) for k in (1, n // 2, n, 2 * n)]
    others += [from_networkx(nx.grid_2d_graph(8, 10)), from_networkx(nx.hypercube_graph(6))]
    others += [cycle(n) for n in range(4, 81, 2)]
    for g in others:
        assert not g.is_tree()
        assert independence_number(g) == g.n - matching_number(g), list(g.edges())


def test_independence_number_matches_a_clique_reference():
    # alpha(G) is the clique number of G's complement, which networkx finds by
    # its own branch and bound. Random graphs at the orders and densities the
    # workloads reach (up to 40 vertices, p up to 0.5), disconnected ones
    # included.
    nx = pytest.importorskip("networkx")
    rng = random.Random(53)
    disconnected = 0
    for n in range(8, 41, 4):
        for p in (0.1, 0.2, 0.35, 0.5):
            for _ in range(4):
                g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
                disconnected += not g.is_connected()
                clique, _ = nx.max_weight_clique(nx.complement(to_networkx(g)), weight=None)
                assert independence_number(g) == len(clique), list(g.edges())
    assert disconnected > 0


def test_tree_matching_counts_are_the_adjacency_coefficients():
    # det(xI - A) of a forest is the sum of (-1)^k m_k x^(n-2k), so the counts
    # give Berkowitz's coefficients, and peak_stats its p_a and m.
    rng = random.Random(41)
    for n in range(1, 41):
        for _ in range(2):
            t = random_tree(n, rng)
            counts = invariants._matching_counts(t)
            coeffs = [0] * (n + 1)
            for k, m_k in enumerate(counts):
                coeffs[n - 2 * k] = (-1) ** k * m_k
            assert tuple(coeffs) == char_poly_exact(adjacency_matrix(t)), list(t.edges())
            if n <= 10:
                assert counts == count_matchings_by_size(t)[:len(counts)]
            if n >= 2:
                vals = [abs(c) for c in coeffs if c]
                assert peak_stats(t)[:2] == (vals.index(max(vals)), len(vals) - 1)


def test_tree_distance_coefficients_are_the_distance_char_poly():
    # peak_stats expands det(xI - D) in one leaves-first pass; Berkowitz on the
    # distance matrix is the reference, so p_d must follow from its coefficients.
    # Paths carry the widest coefficients, about 1.9 bits per vertex against
    # the pass's 3-bit-per-vertex digits.
    nx = pytest.importorskip("networkx")
    rng = random.Random(43)
    trees = [from_networkx(t) for n in range(2, 13) for t in nx.nonisomorphic_trees(n)]
    trees += [random_tree(n, rng) for n in range(2, 41) for _ in range(2)]
    trees += [family(n) for n in [*range(2, 20), 30, 45, 60] for family in (path, star)]
    for t in trees:
        cpd = char_poly_exact(all_pairs_distances(t))
        assert tuple(invariants._distance_coefficients(t)) == cpd, list(t.edges())
        scaled = [abs(cpd[i]) << i for i in range(t.n - 1)]
        assert peak_stats(t)[2] == scaled.index(max(scaled)), list(t.edges())


def test_matching_counts_oracle_small():
    # P4 has matchings: 1 empty, 3 single edges, 1 pair of disjoint edges.
    assert count_matchings_by_size(path(4)) == [1, 3, 1]
    assert count_matchings_by_size(star(5)) == [1, 4, 0]


def test_size_guard_warns():
    # Only the exponential solvers warn, and only off trees: on a tree
    # neither one branches.
    with pytest.warns(PerformanceWarning):
        independence_number(cycle(65))
    with pytest.warns(PerformanceWarning):
        domination_number(cycle(65))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        matching_number(path(65))
        independence_number(path(65))
        domination_number(path(65))
