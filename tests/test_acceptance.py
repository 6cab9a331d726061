"""End-to-end acceptance checks, one test per criterion.

Each criterion is a single test so that `pytest -v` reports exactly one
pass/fail line for it. Known-good values are asserted at their stated
tolerances; mismatches are collected and reported with the offending data
point rather than stopping at the first one.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from conftest import (
    clique_with_tail,
    count_matchings_by_size,
    from_networkx,
    horner,
    lambda1,
    random_connected_graph,
    rebuilt,
    star_with_two_tails,
    two_star_centers_joined,
)
from graphrefute import oracles
from graphrefute.codec import decode_graph6, encode_graph6
from graphrefute.conjectures import Verdict, get_conjecture, score, verify_strict
from graphrefute.families import build_family
from graphrefute.graphs import (
    Graph,
    SearchSpace,
    adjacency_matrix,
    children,
    construct,
    random_tree,
    star,
)
from graphrefute.invariants import (
    char_poly_exact,
    domination_number,
    independence_number,
    laplacian_matrix,
    matching_number,
    modified_second_zagreb,
    symmetric_spectrum,
)
from graphrefute.search import SearchParams, amcs


def test_criterion_1_fixture_scores():
    big_star = star_with_two_tails(191, 7, 5)
    assert big_star.n == 203 and big_star.is_tree()
    assert score(2, big_star).value == pytest.approx(0.00028, abs=5e-5)

    double_star = two_star_centers_joined(15, 19)
    assert double_star.n == 35
    assert score(4, double_star).value == pytest.approx(0.07950, abs=1e-4)

    clique_tail = clique_with_tail(5, 7)
    assert clique_tail.n == 12
    assert score(7, clique_tail).value == pytest.approx(0.05923, abs=1e-4)

    s5 = score(5, build_family("T1", 2))
    assert s5.exact == Fraction(1, 36)
    # Float path agrees with the rational value (0.0277..., printed 0.02778).
    assert s5.value == pytest.approx(float(Fraction(1, 36)), abs=1e-6)

    s6 = score(6, build_family("T2", 2))
    assert s6.exact == Fraction(1, 72)


def test_criterion_2_closed_form_exactness():
    failures = []
    for k in range(3, 21):
        want = Fraction(21 * k, 16) + Fraction(7, 48)
        got = modified_second_zagreb(build_family("T1", k))
        if got != want:
            failures.append(f"mM2(T1({k})) = {got}, formula {want}")
        want = Fraction(15 * k, 16) + Fraction(11, 48)
        got = modified_second_zagreb(build_family("T2", k))
        if got != want:
            failures.append(f"mM2(T2({k})) = {got}, formula {want}")
    for k in range(1, 11):
        got = domination_number(build_family("T2", k))
        if got != 2 * k:
            failures.append(f"gamma(T2({k})) = {got}, formula {2 * k}")
    for b in range(1, 51):
        g = build_family("T2B", b)
        got = independence_number(g)
        # No center: middle + 2(b-1) leaves; one center: <= b; both centers: 2.
        want = max(2 * b - 1, 2)
        if got != want:
            failures.append(f"alpha(T(2,{b})) = {got}, formula {want}")
        spectral = lambda1(g)
        want = math.sqrt(b + 1)
        if abs(spectral - want) > 1e-10:
            failures.append(f"lambda1(T(2,{b})) = {spectral!r}, formula {want!r}")
    s9 = score(9, build_family("T2B", 9)).value
    if abs(s9 - (math.sqrt(18) - math.sqrt(10) - 1)) > 1e-10:
        failures.append(f"s9(T(2,9)) = {s9!r}")
    s10 = score(10, build_family("T2B", 5)).value
    if abs(s10 - 0.04789) > 1e-4:
        failures.append(f"s10(T(2,5)) = {s10!r}")
    assert not failures, "; ".join(failures)


def _search_until_certified(conjecture_id: int, seeds, budget: float):
    """Mirror the CLI loop: independent seeds, stop at first certified hit."""
    spec = get_conjecture(conjecture_id)
    for seed in seeds:
        rng = random.Random(seed)
        kind, order = spec.initial
        if kind == "random-tree":
            initial = random_tree(order, rng)
        else:
            initial = construct(kind, order)
        params = SearchParams(
            trees_only=spec.space is SearchSpace.TREES,
            seed=seed,
            time_budget=budget,
        )

        def score_value(g: Graph) -> float:
            return score(conjecture_id, g).value

        result = amcs(initial, params, score_value, spec.space, rng)
        if result.found and verify_strict(conjecture_id, result.best_graph) is Verdict.CERTIFIED:
            return result
    return None


@pytest.mark.slow
def test_criterion_3_search_success():
    seeds = (1, 2, 3, 4, 5)
    budgets = {2: 540.0, 8: 1200.0}
    failures = []
    for cid in range(1, 11):
        result = _search_until_certified(cid, seeds, budgets.get(cid, 300.0))
        if result is None:
            failures.append(f"conjecture {cid}: no certified counterexample")
    assert not failures, "; ".join(failures)


def test_criterion_4_oracle_equivalence():
    nx = pytest.importorskip("networkx")

    connected = [
        from_networkx(g)
        for g in nx.graph_atlas_g()
        if g.number_of_nodes() >= 1 and nx.is_connected(g)
    ]
    assert len(connected) > 900  # every connected graph on <= 7 vertices
    for g in connected:
        assert matching_number(g) == oracles.matching_number_exhaustive(g)
        assert independence_number(g) == oracles.independence_number_exhaustive(g)
        assert domination_number(g) == oracles.domination_number_exhaustive(g)

    trees = [Graph(1)]
    for n in range(2, 11):
        trees.extend(from_networkx(t) for t in nx.nonisomorphic_trees(n))
    assert len(trees) == 201
    for t in trees:
        assert domination_number(t) == oracles.domination_number_exhaustive(t)

    for t in trees:
        if t.n > 9:
            continue
        cpa = char_poly_exact(adjacency_matrix(t))
        counts = count_matchings_by_size(t)
        covered = set()
        for k, m_k in enumerate(counts):
            exponent = t.n - 2 * k
            assert cpa[exponent] == (-1) ** k * m_k
            covered.add(exponent)
        for exponent in range(t.n + 1):
            if exponent not in covered:
                assert cpa[exponent] == 0


def test_criterion_5_numerical_consistency():
    rng = random.Random(12345)
    for _ in range(500):
        n = rng.randrange(2, 13)
        g = random_connected_graph(n, rng)
        cpa = char_poly_exact(adjacency_matrix(g))
        spectrum = symmetric_spectrum(adjacency_matrix(g)[None])[0]
        for lam in spectrum.values:
            assert abs(horner(cpa, lam)) <= 1e-8 * (1 + abs(lam)) ** n
        assert abs(math.fsum(spectrum.values)) <= 1e-9
        lap = symmetric_spectrum(laplacian_matrix(adjacency_matrix(g))[None])[0]
        assert abs(math.fsum(lap.values) - 2 * g.m) <= 1e-9


def test_criterion_6_property_suites():
    rng = random.Random(99)

    # Search-space closure under every legal forward move, built as the
    # search builds it and checked on a rebuilt copy: a child inherits its
    # parent's connectivity unchecked.
    for _ in range(20):
        t = random_tree(rng.randrange(2, 9), rng)
        for child in children(t, SearchSpace.TREES)[0]:
            assert rebuilt(child).is_tree()
        g = random_connected_graph(rng.randrange(2, 9), rng)
        for child in children(g, SearchSpace.CONNECTED)[0]:
            assert rebuilt(child).is_connected()

    # Accepted-score strict monotonicity, the order floor, and
    # determinism under a fixed seed, on a real search.
    def s5_value(g: Graph) -> float:
        return score(5, g).value

    initial = random_tree(5, random.Random(11))
    runs = [
        amcs(initial, SearchParams(seed=11, trees_only=True), s5_value,
             SearchSpace.TREES, random.Random(11))
        for _ in range(2)
    ]
    for result in runs:
        accepted = [r.score for r in result.trace if r.accepted]
        assert all(b > a for a, b in zip(accepted, accepted[1:]))
        assert min(r.n for r in result.trace) >= initial.n
    assert runs[0].best_graph == runs[1].best_graph
    assert [r.score for r in runs[0].trace] == [r.score for r in runs[1].trace]

    # graph6 round trip.
    for _ in range(50):
        g = random_connected_graph(rng.randrange(1, 14), rng)
        assert decode_graph6(encode_graph6(g)) == g

    # The two spectral-radius scores coincide on trees.
    for _ in range(15):
        t = random_tree(rng.randrange(3, 12), rng)
        assert score(1, t).value == pytest.approx(score(9, t).value, abs=1e-9)

    # Stars sit exactly on the boundary of both independence conjectures.
    for n in range(3, 31):
        s = star(n)
        assert abs(score(9, s).value) <= 1e-9
        assert abs(score(10, s).value) <= 1e-9
        assert verify_strict(9, s) is Verdict.REJECTED
        assert verify_strict(10, s) is Verdict.REJECTED
