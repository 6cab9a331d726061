"""Matrices, spectra, characteristic polynomials, and combinatorial invariants."""

from __future__ import annotations

import math
import random
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from conftest import lambda1, random_connected_graph
from graphrefute import oracles
from graphrefute.graphs import (
    Graph, all_pairs_distances, complete, cycle, path, random_tree, star, walk_distances,
)
from graphrefute.invariants import (
    NumericError,
    PerformanceWarning,
    adjacency_char_poly,
    adjacency_matrix,
    char_poly_exact,
    distance_char_poly,
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
    s = symmetric_spectrum(adjacency_matrix(path(3)))
    assert s.values[::-1] == pytest.approx((math.sqrt(2), 0.0, -math.sqrt(2)), abs=1e-12)
    k = symmetric_spectrum(adjacency_matrix(complete(4)))
    assert k.values[::-1] == pytest.approx((3.0, -1.0, -1.0, -1.0), abs=1e-12)
    assert lambda1(star(5)) == pytest.approx(2.0, abs=1e-12)


def test_spectrum_error_bounds():
    fast = symmetric_spectrum(adjacency_matrix(path(30)))
    assert 0 < fast.residual_bound <= 1e-10 * 30
    polished = symmetric_spectrum(adjacency_matrix(path(30)), polish=True)
    assert polished.residual_bound <= 1e-12
    assert polished.values == pytest.approx(fast.values, abs=1e-9)


def test_laplacian_spectrum_and_connectivity():
    s = symmetric_spectrum(_laplacian(complete(3)))
    assert s.values == pytest.approx((0.0, 3.0, 3.0), abs=1e-12)
    # Algebraic connectivity: the second smallest Laplacian eigenvalue.
    lap = symmetric_spectrum(_laplacian(path(2)))
    assert lap.values[1] == pytest.approx(2.0, abs=1e-12)
    # lambda_2 of the adjacency matrix, not the Laplacian.
    adj = symmetric_spectrum(adjacency_matrix(path(3)))
    assert adj.values[-2] == pytest.approx(0.0, abs=1e-12)


def test_distance_spectrum_descending():
    values = symmetric_spectrum(all_pairs_distances(path(3))).values[::-1]
    assert values[0] >= values[-1]
    d = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    expected = sorted(np.linalg.eigvalsh(d), reverse=True)
    assert values == pytest.approx(tuple(expected), abs=1e-12)


def test_char_poly_exact_frozen():
    k2 = char_poly_exact(np.array([[0, 1], [1, 0]]))
    assert k2.coeffs == (-1, 0, 1)
    assert len(k2.coeffs) - 1 == 2
    p3 = adjacency_char_poly(path(3))
    assert p3.coeffs == (0, -2, 0, 1)
    c3 = adjacency_char_poly(cycle(3))
    assert c3.coeffs == (-2, -3, 0, 1)
    assert c3(2) == 0
    assert c3(-1) == 0


def test_char_poly_exact_big_integers():
    # K_25 has adjacency characteristic polynomial (x-24)(x+1)^24 whose
    # coefficients overflow 64-bit arithmetic; the roots must still be exact.
    cp = adjacency_char_poly(complete(25))
    assert cp(24) == 0
    assert cp(-1) == 0
    assert cp.coeffs[-1] == 1
    assert all(isinstance(c, int) for c in cp.coeffs)


def test_char_poly_trace_coefficients():
    rng = random.Random(4)
    for _ in range(10):
        g = random_connected_graph(8, rng)
        cp = adjacency_char_poly(g)
        # Monic; x^{n-1} coefficient is -trace = 0; x^{n-2} one is -m.
        assert cp.coeffs[-1] == 1
        assert cp.coeffs[-2] == 0
        assert cp.coeffs[-3] == -g.m


def test_distance_char_poly_matches_floating_roots():
    g = random_tree(7, random.Random(1))
    cp = distance_char_poly(g)
    for lam in symmetric_spectrum(all_pairs_distances(g)).values:
        assert abs(cp(lam)) <= 1e-6 * (1 + abs(lam)) ** g.n


def test_peak_stats_frozen():
    p4 = peak_stats(path(4))
    assert (p4.p_a, p4.m) == (1, 2)
    p3 = peak_stats(path(3))
    assert (p3.p_a, p3.m) == (0, 1)
    assert 0 <= p3.p_d <= 1  # p_d ranges over 0..n-2
    s5 = peak_stats(star(5))
    assert (s5.p_a, s5.m) == (0, 1)


def test_peak_stats_rejects_non_trees():
    with pytest.raises(ValueError):
        peak_stats(cycle(4))
    with pytest.raises(ValueError):
        peak_stats(Graph(1))


def test_diameter_and_proximity():
    assert all_pairs_distances(path(5)).max() == 4
    assert all_pairs_distances(complete(6)).max() == 1
    assert proximity(all_pairs_distances(path(3))) == Fraction(1)
    assert proximity(all_pairs_distances(path(4))) == Fraction(4, 3)
    assert proximity(all_pairs_distances(star(9))) == Fraction(1)
    assert oracles.proximity_float(path(4)) == pytest.approx(4 / 3, abs=1e-12)


def test_chemical_indices_frozen():
    assert modified_second_zagreb(path(3)) == 1
    assert harmonic(path(3)) == Fraction(4, 3)
    assert randic(path(3)) == pytest.approx(math.sqrt(2), abs=1e-12)
    assert randic(complete(4)) == pytest.approx(2.0, abs=1e-12)
    assert oracles.harmonic_float(path(3)) == pytest.approx(4 / 3, abs=1e-12)


def test_randic_general_matches_exact():
    # The float sum against the same formula summed at 60 digits.
    rng = random.Random(6)
    for _ in range(10):
        g = random_connected_graph(7, rng)
        with mp.workdps(60):
            digits60 = randic(g, mp.mpf, mp.fsum)
        assert randic(g) == pytest.approx(float(digits60), rel=1e-15)


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
        deg = [g.degree(v) for v in range(g.n)]
        edges = list(g.edges())
        assert harmonic(g) == sum((Fraction(2, deg[u] + deg[v]) for u, v in edges), Fraction(0))
        assert modified_second_zagreb(g) == sum(
            (Fraction(1, deg[u] * deg[v]) for u, v in edges), Fraction(0)
        )


def _reference_spectrum(m, polish):
    """symmetric_spectrum's values and bound, written with np.linalg.norm and
    one float() per eigenvalue."""
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
        bound = 10.0 * n * eps * norm
    return tuple(float(x) for x in vals), bound


def test_symmetric_spectrum_matches_reference_bit_for_bit():
    rng = random.Random(31)
    graphs = [random_tree(rng.randint(1, 60), rng) for _ in range(15)]
    graphs += [random_connected_graph(rng.randint(1, 40), rng) for _ in range(15)]
    for g in graphs:
        for m in (adjacency_matrix(g), _laplacian(g), all_pairs_distances(g)):
            for polish in (False, True):
                sp = symmetric_spectrum(m, polish=polish)
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
                    alone = symmetric_spectrum(layer)
                    assert sp.values == alone.values
                    assert sp.residual_bound == alone.residual_bound


def _fail_to_converge(*args, **kwargs):
    raise np.linalg.LinAlgError("planted")


@pytest.mark.parametrize("graphs", [path(5), [path(5), star(5)]], ids=["matrix", "stack"])
@pytest.mark.parametrize("polish", [False, True], ids=["eigvalsh", "eigh"])
def test_a_failed_solve_raises_numeric_error(monkeypatch, polish, graphs):
    # LAPACK's LinAlgError never escapes: a lone matrix and a stack both
    # raise NumericError, the stack as a whole.
    monkeypatch.setattr(np.linalg, "eigh" if polish else "eigvalsh", _fail_to_converge)
    with pytest.raises(NumericError, match="failed to converge"):
        symmetric_spectrum(adjacency_matrix(graphs), polish=polish)


def test_a_non_orthogonal_basis_raises_numeric_error(monkeypatch):
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda x: (eigh(x)[0], np.ones_like(x)))
    with pytest.raises(NumericError, match="non-orthogonal") as info:
        symmetric_spectrum(adjacency_matrix(path(5)), polish=True)
    assert info.value.residual >= 0.5


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


def test_tree_domination_dynamic_program_matches_exhaustive():
    rng = random.Random(13)
    for _ in range(40):
        t = random_tree(rng.randrange(1, 11), rng)
        assert domination_number(t) == oracles.domination_number_exhaustive(t)


def test_matching_counts_oracle_small():
    # P4 has matchings: 1 empty, 3 single edges, 1 pair of disjoint edges.
    assert oracles.count_matchings_by_size(path(4)) == [1, 3, 1]
    assert oracles.count_matchings_by_size(star(5)) == [1, 4, 0]


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
