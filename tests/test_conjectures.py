"""Conjecture registry, score functions, and strict verification."""

from __future__ import annotations

import inspect
import itertools
import math
import random
import sys
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from conftest import (
    alone,
    clique_with_tail,
    distances_bfs,
    from_networkx,
    random_connected_graph,
    rebuilt,
    star_with_two_tails,
    two_star_centers_joined,
)
from graphrefute import conjectures, graphs
from graphrefute.codec import decode_graph6
from graphrefute.conjectures import (
    NEG_INF,
    REGISTRY,
    HypothesisError,
    Verdict,
    check_hypotheses,
    get_conjecture,
    score,
    verify_strict,
)
from graphrefute.families import build_family
from graphrefute.invariants import NumericError, char_poly_exact, laplacian_matrix, proximity
from graphrefute.graphs import (
    Graph,
    SearchSpace,
    adjacency_matrix,
    all_pairs_distances,
    children,
    complete,
    cycle,
    path,
    playouts,
    random_tree,
    star,
)


def test_registry_contents():
    assert sorted(REGISTRY) == list(range(1, 11))
    tree_space = {cid for cid, s in REGISTRY.items() if s.space is SearchSpace.TREES}
    assert tree_space == {2, 3, 4, 5, 6}
    assert {cid for cid, s in REGISTRY.items() if s.requires_tree} == {3, 5, 6}
    orders = {cid: s.min_order for cid, s in REGISTRY.items()}
    assert orders == {1: 3, 2: 4, 3: 2, 4: 1, 5: 2, 6: 2, 7: 3, 8: 3, 9: 3, 10: 3}
    assert REGISTRY[2].initial == ("path", 13)
    assert REGISTRY[4].initial == ("star", 5)
    assert REGISTRY[7].initial == ("random-tree", 10)
    for cid in (1, 3, 5, 6, 8, 9, 10):
        assert REGISTRY[cid].initial == ("random-tree", 5)
    with pytest.raises(KeyError):
        get_conjecture(11)


def test_check_hypotheses():
    assert check_hypotheses(1, path(3)) == []
    assert check_hypotheses(1, path(2)) == ["order 2 is below the minimum 3"]
    assert check_hypotheses(5, cycle(4)) == ["graph is not a tree"]
    assert check_hypotheses(1, Graph(4, [(0, 1), (2, 3)])) == ["graph is not connected"]
    # Conjecture 4 is stated for every graph, so disconnected inputs are fine.
    assert check_hypotheses(4, Graph(4, [(0, 1), (2, 3)])) == []


def test_score_raises_named_hypothesis_errors():
    with pytest.raises(HypothesisError, match="tree"):
        score(5, cycle(4))
    with pytest.raises(HypothesisError, match="order"):
        score(1, path(2))
    with pytest.raises(HypothesisError, match="connected"):
        score(1, Graph(4, [(0, 1), (2, 3)]))


def test_rational_scores_are_exact():
    s = score(5, build_family("T1", 2))
    assert s.exact == Fraction(1, 36)
    assert s.value == float(Fraction(1, 36))
    assert s.spectral_error_bound == 0.0
    s6 = score(6, build_family("T2", 2))
    assert s6.exact == Fraction(1, 72)
    s3 = score(3, path(3))
    assert s3.exact == Fraction(2, 3)
    assert score(3, path(5)).exact == Fraction(1, 10)


def test_spectral_scores_carry_error_bounds():
    # Only a polished score is bounded; the search compares fast values and
    # reads no bound, so a fast spectrum carries none.
    s = score(1, path(5))
    assert s.exact is None
    assert s.spectral_error_bound == math.inf
    polished = score(1, path(5), polish=True)
    assert 0 < polished.spectral_error_bound < 1e-9
    assert polished.value == pytest.approx(s.value, abs=1e-10)


def test_score_parts_breakdown():
    s = score(1, path(5))
    assert set(s.parts) == {"lambda_1", "mu", "n", "sqrt(n-1)"}
    assert s.parts["mu"] == 2
    assert s.parts["n"] == 5
    exact = {
        k for k, v in s.parts.items()
        if isinstance(v, (int, Fraction)) and not isinstance(v, bool)
    }
    assert exact == {"mu", "n"}


def test_undefined_subterm_scores_are_sentinels():
    # Diameter 1 makes the spectral index floor(2D/3) vanish.
    s = score(2, complete(4))
    assert s.value == NEG_INF
    assert "undefined" in s.parts
    # lambda_2 needs two vertices; conjecture 4 admits K1.
    assert score(4, Graph(1)).value == NEG_INF


def test_star_boundary_equalities():
    for n in range(3, 9):
        assert abs(score(9, star(n)).value) <= 1e-9
        assert abs(score(10, star(n)).value) <= 1e-9


def test_tree_scores_1_and_9_agree():
    # On bipartite graphs the matching and independence numbers are
    # complementary, which collapses the two formulas into one.
    rng = random.Random(3)
    for _ in range(15):
        t = random_tree(rng.randrange(3, 12), rng)
        assert score(1, t).value == pytest.approx(score(9, t).value, abs=1e-9)


def test_is_counterexample():
    def hit(cid, g):  # meets the hypotheses and scores strictly above 1e-9
        return not check_hypotheses(cid, g) and score(cid, g).value > 1e-9

    assert hit(5, build_family("T1", 2))
    assert not hit(5, path(5))
    assert check_hypotheses(5, cycle(4)) and not hit(5, cycle(4))  # hypothesis failure, no raise
    assert hit(3, path(5))
    assert not hit(9, star(6))  # exact zero is not a violation


def test_verify_strict_verdicts():
    assert verify_strict(1, path(3)) is Verdict.REJECTED  # score exactly zero
    assert verify_strict(5, path(5)) is Verdict.REJECTED
    assert verify_strict(5, build_family("T1", 2)) is Verdict.CERTIFIED
    assert verify_strict(6, build_family("T2", 2)) is Verdict.CERTIFIED
    assert verify_strict(3, path(5)) is Verdict.CERTIFIED
    assert verify_strict(9, star(6)) is Verdict.REJECTED
    assert verify_strict(9, build_family("T2B", 9)) is Verdict.CERTIFIED
    assert verify_strict(10, build_family("T2B", 5)) is Verdict.CERTIFIED
    assert verify_strict(5, cycle(4)) is Verdict.REJECTED  # hypothesis failure


@pytest.mark.parametrize(
    ("cid", "g", "verdict"),
    [
        (1, decode_graph6("QKpCAA?_A?O?O?_?G?A??_?@???"), Verdict.CERTIFIED),
        (1, path(3), Verdict.REJECTED),
        (2, cycle(13), Verdict.REJECTED),
        (2, cycle(70), Verdict.UNCERTAIN),  # over MP_MAX_ORDER
        (4, two_star_centers_joined(15, 19), Verdict.CERTIFIED),
        (4, Graph(5), Verdict.REJECTED),
        (7, clique_with_tail(5, 7), Verdict.CERTIFIED),
        (7, complete(6), Verdict.REJECTED),
        (8, decode_graph6("LGOC__?H?HP??A"), Verdict.CERTIFIED),
        (8, star(9), Verdict.REJECTED),
        (9, build_family("T2B", 9), Verdict.CERTIFIED),
        (9, build_family("T2B", 8), Verdict.REJECTED),
        (10, build_family("T2B", 5), Verdict.CERTIFIED),
        (10, star(12), Verdict.REJECTED),
    ],
)
def test_verify_strict_60_digit_path(monkeypatch, cid, g, verdict):
    # A huge float error band straddles zero. The c1, c4 and c9 rows on trees
    # and c10 on a star are decided by the exact pass before any float band;
    # every other verdict comes from the 60-digit re-evaluation (or from the
    # order limit on it). c2 is exact on every tree, so its rows are cycles.
    monkeypatch.setattr(conjectures, "_slop", lambda *terms: 1e6)
    assert verify_strict(cid, g) is verdict


def test_verify_strict_decides_trees_exactly(monkeypatch):
    # With the float band straddling zero everywhere, every tree verdict of
    # c1, c2, c4, c7 and c9 comes from an exact inertia count, and c10's from
    # its sum when it has one radicand, else from 60 digits. Each must equal
    # the verdict of the 60-digit re-evaluation against its 10^-45 band.
    nx = pytest.importorskip("networkx")
    monkeypatch.setattr(conjectures, "_slop", lambda *terms: 1e6)
    zero_band = mp.mpf(10) ** -45
    checked = 0
    for n in range(2, 10):
        for g in map(from_networkx, nx.nonisomorphic_trees(n)):
            for cid in (1, 2, 4, 7, 9, 10):
                if check_hypotheses(cid, g):
                    continue
                with mp.workdps(60):
                    refined = conjectures._SCORERS[cid](g, conjectures._DIGITS60.over([g])).value
                expected = Verdict.CERTIFIED if refined > zero_band else Verdict.REJECTED
                assert verify_strict(cid, g) is expected, (cid, list(g.edges()))
                assert cid == 10 or conjectures._exact_sign(cid, g) is not None
                checked += 1
    assert checked == 558


def test_tree_verdicts_need_no_float_eigensolve(monkeypatch):
    # c1, c2, c4, c7 and c9 on a tree are decided by the exact pass alone:
    # with both float eigensolvers refusing, every verdict still equals the
    # 60-digit one, stars and T(2,b) to 249 vertices get their known ones,
    # and the 203-vertex c2 tree the certificate its polished band gave.
    nx = pytest.importorskip("networkx")
    trees = [from_networkx(t) for n in range(2, 10) for t in nx.nonisomorphic_trees(n)]
    zero_band = mp.mpf(10) ** -45
    expected = {}
    for g in trees:
        for cid in (1, 2, 4, 7, 9):
            if not check_hypotheses(cid, g):
                with mp.workdps(60):
                    refined = conjectures._SCORERS[cid](g, conjectures._DIGITS60.over([g])).value
                expected[cid, g] = Verdict.CERTIFIED if refined > zero_band else Verdict.REJECTED

    def refuse(*args, **kwargs):
        raise AssertionError("float eigensolve")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    for (cid, g), verdict in expected.items():
        assert verify_strict(cid, g) is verdict, (cid, list(g.edges()))
    for n in (3, 8, 64, 65, 128, 249):
        for cid in (1, 2, 4, 7, 9):
            assert verify_strict(cid, star(n)) is Verdict.REJECTED, (cid, n)
    for b in (1, 8, 9, 10, 64, 124):  # s9(T(2,b)) > 0 exactly when b >= 9
        expected_c9 = Verdict.CERTIFIED if b >= 9 else Verdict.REJECTED
        assert verify_strict(9, build_family("T2B", b)) is expected_c9, b
    assert verify_strict(2, star_with_two_tails(191, 7, 5)) is Verdict.CERTIFIED


def test_c3_certifies_the_203_vertex_tree_without_berkowitz(monkeypatch):
    # peak_stats reads a tree's distance polynomial off one leaves-first pass,
    # so no order is out of reach. Berkowitz on this tree's distance matrix
    # takes about 36 s on a 2-core Xeon VM and gives the same coefficients.
    def refuse(*args, **kwargs):
        raise AssertionError("Berkowitz")

    monkeypatch.setattr(conjectures.inv, "char_poly_exact", refuse)
    assert verify_strict(3, star_with_two_tails(191, 7, 5)) is Verdict.CERTIFIED


def test_c8_decides_paths_exactly(monkeypatch):
    # a(P_n) = 2(1 - cos(pi/n)) and pi(P_n) put a * pi on B(n), so c8 scores
    # exactly 0 on every path. The exact pass rejects each one, as the
    # 60-digit stage does, and needs no float eigensolve at any order.
    zero_band = mp.mpf(10) ** -45
    for n in range(3, 65):
        g = path(n)
        lap = laplacian_matrix(adjacency_matrix(g)).astype(float)
        assert np.linalg.eigvalsh(lap)[1] == pytest.approx(2 - 2 * math.cos(math.pi / n), abs=1e-12)
        with mp.workdps(60):
            prox, = proximity(all_pairs_distances([g]))
            a_pi = 2 * (1 - mp.cos(mp.pi / n)) * prox.numerator / prox.denominator
            assert abs(conjectures._cosine_bound(n, conjectures._DIGITS60) - a_pi) < zero_band
            if n <= 24 or n == 64:  # the 60-digit stage's own verdict
                refined = conjectures._SCORERS[8](g, conjectures._DIGITS60.over([g])).value
                assert abs(refined) < zero_band, n
        assert verify_strict(8, g) is Verdict.REJECTED, n

    def refuse(*args, **kwargs):
        raise AssertionError("float eigensolve")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    for n in range(3, 250):
        assert verify_strict(8, path(n)) is Verdict.REJECTED, n


@pytest.mark.parametrize(("cid", "g", "solver"), [
    (1, build_family("T2B", 9), "matching_number"),
    (9, build_family("T2B", 9), "independence_number"),
    (7, path(12), "all_pairs_distances"),
    (2, star_with_two_tails(191, 7, 5), "all_pairs_distances"),
])
def test_verify_strict_runs_each_exact_solver_once(monkeypatch, cid, g, solver):
    # The exact pass carries the eigenvalue as an unknown, so it evaluates the
    # formula once; a tree's verdict needs no float pass after it. c2 reads
    # the diameter and the proximity off its one distance matrix.
    owner = conjectures if solver == "all_pairs_distances" else conjectures.inv
    calls = []
    run = getattr(owner, solver)
    monkeypatch.setattr(owner, solver, lambda x: calls.append(x) or run(x))
    verify_strict(cid, g)
    assert len(calls) == 1


@pytest.mark.parametrize("cid", [9, 10])
@pytest.mark.parametrize("n", [65, 66, 96, 128])
def test_boundary_stars_are_rejected_above_the_60_digit_order(cid, n):
    # Each star scores exactly 0 for c9 and c10, which no counterexample is.
    assert verify_strict(cid, star(n)) is Verdict.REJECTED


def test_boundary_trees_need_no_60_digit_solve(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("60-digit eigensolve")

    monkeypatch.setattr(mp, "eigsy", refuse)
    assert verify_strict(9, star(64)) is Verdict.REJECTED
    assert verify_strict(9, build_family("T2B", 8)) is Verdict.REJECTED


def test_complete_graphs_tie_c7_at_60_digits(monkeypatch):
    # No band is widened: K_n has lambda_1 = n - 1 and proximity 1, so c7
    # scores exactly 0. The exact pass declines a non-tree's spectrum and the
    # polished band straddles zero, so one 60-digit solve rejects each K_n;
    # above the order limit the verdict is uncertain, with no solve.
    calls = []
    eigsy = mp.eigsy
    monkeypatch.setattr(mp, "eigsy", lambda *a, **k: calls.append(a) or eigsy(*a, **k))
    for n in range(3, 13):
        calls.clear()
        assert verify_strict(7, complete(n)) is Verdict.REJECTED, n
        assert len(calls) == 1, n
    calls.clear()
    assert verify_strict(7, complete(conjectures.MP_MAX_ORDER + 1)) is Verdict.UNCERTAIN
    assert calls == []


def test_a_declined_exact_c2_pass_builds_no_distances(monkeypatch):
    # The exact arithmetic declines a non-tree's distance spectrum before the
    # formula builds anything, so the polished pass builds the only distance
    # matrix.
    calls = []
    for name in ("all_pairs_distances", "walk_distances"):  # a non-tree stack takes the walk
        build = getattr(conjectures, name)
        monkeypatch.setattr(conjectures, name, lambda x, build=build: calls.append(x) or build(x))
    monkeypatch.setattr(conjectures, "_slop", lambda *terms: 1e6)
    assert verify_strict(2, cycle(70)) is Verdict.UNCERTAIN
    assert len(calls) == 1


def test_a_chunk_reads_diameters_and_proximities_off_its_distance_stack():
    # Mixed chunks of trees and non-trees take the walk, all-tree chunks the
    # ancestor matmul; each member's values must be its own BFS distances'.
    rng = random.Random(39)
    for n in (*range(3, 70, 3), 70):
        trees = [random_tree(n, rng), path(n), star(n)]
        others = [random_connected_graph(n, rng), random_connected_graph(n, rng, 0.5)]
        for chunk in (trees + others, trees, others, trees[:1], others[:1]):
            ar = conjectures._FAST.over(chunk)
            for g in chunk:
                d = np.array(distances_bfs(g))
                diam, prox = ar.distances(g)
                assert type(diam) is int and diam == d.max()
                assert prox == Fraction(int(d.sum(axis=1).min()), n - 1)


def test_tree_inertia_counts_path_eigenvalues():
    # P_n has eigenvalues 2cos(k pi/(n+1)), k = 1..n, in descending order.
    # 2cos(a pi) is 0, +-1, +-sqrt 2, +-sqrt 3 at these fractions a.
    r2, r3 = conjectures._Surd(2) ** 0.5, conjectures._Surd(3) ** 0.5
    at = {Fraction(1, 2): conjectures._Surd(0), Fraction(1, 3): conjectures._Surd(1),
          Fraction(2, 3): conjectures._Surd(-1), Fraction(1, 4): r2, Fraction(3, 4): r2 * -1,
          Fraction(1, 6): r3, Fraction(5, 6): r3 * -1}
    for n in range(1, 40):
        for a, t in at.items():
            above = sum(Fraction(k, n + 1) < a for k in range(1, n + 1))
            equal = int((a * (n + 1)).denominator == 1)
            assert conjectures._tree_inertia(path(n), t) == (above, equal), (n, a)


def _lines_run(fn, call) -> set[int]:
    """The lines of fn's source, counted from its def, that run during call()."""
    code, first, hit = fn.__code__, fn.__code__.co_firstlineno, set()

    def local(frame, event, arg):
        if event == "line":
            hit.add(frame.f_lineno - first)
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        call()
    finally:
        sys.settrace(previous)
    return hit


def test_distance_inertia_counts_tree_distance_eigenvalues():
    # Reference: q(y) = p(y + t), p the exact characteristic polynomial of D, is
    # real-rooted, so Descartes' sign changes count its positive roots (the
    # eigenvalues above t) exactly, and its lowest nonzero coefficient's index
    # is the multiplicity of t.
    nx = pytest.importorskip("networkx")
    rng = random.Random(35)
    cases = []
    for n in range(2, 11):
        for g in map(from_networkx, nx.nonisomorphic_trees(n)):
            prox, = proximity(all_pairs_distances([g]))
            ts = [-prox, Fraction(-2), Fraction(-1), Fraction(-1, 2)]
            cases += [(g, t) for t in ts + [Fraction(-rng.randint(1, 40), rng.randint(1, 12))
                                             for _ in range(6)]]
    ties = 0
    for g, t in cases:
        q = [Fraction(c) for c in char_poly_exact(all_pairs_distances(g))]
        for i in range(g.n):  # Taylor shift by t, one synthetic division per degree
            for j in range(g.n - 1, i - 1, -1):
                q[j] += t * q[j + 1]
        signs = [c > 0 for c in q if c]
        equal = next(i for i, c in enumerate(q) if c)
        above = sum(a != b for a, b in zip(signs, signs[1:]))
        got = conjectures._distance_inertia(g, conjectures._Surd(t.numerator, t.denominator))
        assert got == (above, equal), (list(g.edges()), t)
        ties += equal > 0
    assert len(cases) == 2000 and ties > 100
    # Both zero-pivot rules run: a zero child paired with its parent, and a
    # zero vertex coupled to the apex alone paired with the apex.
    source = inspect.getsource(conjectures._distance_inertia).splitlines()
    rules = {i for i, line in enumerate(source)
             if line.strip() in ("neg, (_, bz, dz) = neg + 1, ent[z]", "neg, apex = neg + 1, None")}
    assert len(rules) == 2
    assert rules <= _lines_run(conjectures._distance_inertia, lambda: [
        conjectures._distance_inertia(g, conjectures._Surd(t.numerator, t.denominator))
        for g, t in cases])


def test_score_10_matches_direct_formula():
    g = build_family("T2B", 5)
    s = score(10, g)
    expected = (2 - math.sqrt(2)) * (math.sqrt(5) - 1 / math.sqrt(5)) - 1
    assert s.value == pytest.approx(expected, abs=1e-10)


def test_unknown_conjecture_id():
    with pytest.raises(KeyError) as exc:
        score(42, path(5))
    # The message reads bare, without KeyError's repr quotes.
    assert str(exc.value) == "unknown conjecture id 42; valid ids are 1..10"


def _count_scorer_calls(monkeypatch, cid) -> list:
    calls = []
    scorer = conjectures._SCORERS[cid]
    monkeypatch.setitem(conjectures._SCORERS, cid,
                        lambda g, ar: calls.append(g) or scorer(g, ar))
    return calls


def test_score_memo_runs_the_scorer_once_per_object(monkeypatch):
    calls = _count_scorer_calls(monkeypatch, 5)
    g = path(6)
    first = score(5, g)
    assert score(5, g) is first
    assert len(calls) == 1
    # An equal graph is a different object, so it is scored afresh.
    assert score(5, path(6)) == first
    assert len(calls) == 2


def test_score_memo_is_keyed_by_conjecture():
    g = path(13)
    c2 = score(2, g)
    c5 = score(5, g)
    assert c5 == score(5, path(13))
    assert c5 != c2
    assert score(2, g) == c2


def test_score_memo_stores_no_hypothesis_error(monkeypatch):
    calls = []
    check = conjectures.check_hypotheses
    monkeypatch.setattr(conjectures, "check_hypotheses",
                        lambda cid, g: calls.append(cid) or check(cid, g))
    g = cycle(4)
    for _ in range(2):
        with pytest.raises(HypothesisError):
            score(5, g)
    assert len(calls) == 2
    assert g._score is None


def test_polished_score_and_verify_strict_bypass_the_memo():
    g = build_family("T1", 2)  # conjecture 5 counterexample, score 1/36
    planted = conjectures.Score(-1.0, Fraction(-1), 0.0, {})
    object.__setattr__(g, "_score", (5, planted))
    assert score(5, g) is planted
    assert score(5, g, polish=True).exact == Fraction(1, 36)
    assert verify_strict(5, g) is Verdict.CERTIFIED
    fresh = build_family("T1", 2)
    score(5, fresh, polish=True)
    verify_strict(5, fresh)
    assert fresh._score is None


def test_scored_graph_equals_and_hashes_like_a_copy():
    g = path(7)
    score(5, g)
    copy = path(7)
    assert g._score is not None and copy._score is None
    assert g == copy
    assert hash(g) == hash(copy)
    with pytest.raises(AttributeError):
        g.n = 3


def _same_bits(a: conjectures.Score, b: conjectures.Score) -> bool:
    """Field by field, through repr, which tells -0.0 from 0.0."""
    fields = ("value", "exact", "spectral_error_bound", "parts")
    return all(repr(getattr(a, f)) == repr(getattr(b, f)) for f in fields)


def _representatives(g: Graph, space: SearchSpace) -> list[Graph]:
    """The first child of each move class of g, in move order."""
    kids, reps = children(g, space)
    return [kids[i] for i in sorted(set(reps))]


@pytest.mark.parametrize("cid", sorted(REGISTRY))
def test_expansion_memos_equal_single_evaluations_bit_for_bit(cid):
    # The search scores an expansion's class representatives one by one.
    # Whatever `score` does with the rest of the expansion at the first
    # call, each representative's memo must be its own evaluation, bit for
    # bit. c8 reads Laplacians, whose zeros LAPACK's Householder step sees
    # the sign of; c2 runs on trees up to n = 70. c3's exact char-poly
    # score stops at 13, where its Berkowitz runs still take milliseconds.
    spec = get_conjecture(cid)
    rng = random.Random(cid)
    orders = [*range(3, 14 if cid == 3 else 26, 2), *([40, 70] if cid == 2 else [])]
    for n in orders:
        parents = [random_tree(n, rng)]
        if spec.space is SearchSpace.CONNECTED:
            parents.append(random_connected_graph(n, rng))
        for parent in parents:
            reps = _representatives(parent, spec.space)
            scored = []
            for child in reps:
                if not check_hypotheses(cid, child):
                    scored.append((child, score(cid, child)))
            assert scored
            for child, sc in scored:
                assert child._score == (cid, sc)
                fresh = alone(conjectures._SCORERS[cid], child)
                assert _same_bits(sc, fresh), (cid, n, sc, fresh)


@pytest.mark.parametrize("cid", sorted(REGISTRY))
def test_a_labelled_child_scores_its_own_labelling(cid):
    # Outside a search nothing sends a child to its class representative:
    # once the representative is scored, a later child of its class gets a
    # Score of its own, its own evaluation bit for bit.
    spec = get_conjecture(cid)
    rng = random.Random(100 + cid)
    parents = [random_tree(9, rng), star(6)]  # a star's leaves are twins
    if spec.space is SearchSpace.CONNECTED:
        parents.append(random_connected_graph(8, rng))
    checked = 0
    for parent in parents:
        kids, reps = children(parent, spec.space)
        for child, r in zip(kids, reps):
            if child is kids[r] or check_hypotheses(cid, child):
                continue
            rep_sc = score(cid, kids[r])
            sc = score(cid, child)
            assert sc is not rep_sc
            assert _same_bits(sc, alone(conjectures._SCORERS[cid], child)), (cid, sc)
            checked += 1
    assert checked


@pytest.mark.parametrize("cid", sorted(REGISTRY))
def test_playout_memos_equal_single_evaluations_bit_for_bit(cid):
    # A level-1 expansion scores its children's playouts as one brood, at
    # the first call on any of them; each playout's memo must still be its
    # own evaluation, bit for bit. The depth cycles through 1-3 as the
    # parents grow; c3's parents stop at 9, so its playouts stop at 13.
    spec = get_conjecture(cid)
    rng = random.Random(cid)
    for n, depth in zip(range(3, 10 if cid == 3 else 26, 2), itertools.cycle((1, 2, 3))):
        parents = [random_tree(n, rng)]
        if spec.space is SearchSpace.CONNECTED:
            parents.append(random_connected_graph(n, rng))
        for parent in parents:
            outs = playouts(children(parent, spec.space)[0], depth, spec.space, rng)
            scored = [(p, score(cid, p)) for p in outs if not check_hypotheses(cid, p)]
            assert scored
            for p, sc in scored:
                assert p._score == (cid, sc) and p._brood is None
                fresh = alone(conjectures._SCORERS[cid], p)
                assert _same_bits(sc, fresh), (cid, n, depth, sc, fresh)


def test_an_expansions_playouts_share_chunks(monkeypatch):
    # The playouts of one depth-2 expansion of a 10-vertex tree have orders
    # 10 to 13, so a handful of chunks score them all.
    chunks = []
    over = conjectures._Arithmetic.over
    monkeypatch.setattr(conjectures._Arithmetic, "over",
                        lambda ar, chunk: chunks.append(chunk) or over(ar, chunk))
    rng = random.Random(10)
    outs = playouts(children(random_tree(10, rng), SearchSpace.CONNECTED)[0], 2,
                    SearchSpace.CONNECTED, rng)
    for p in outs:
        score(7, p)
    assert sorted(map(id, outs)) == sorted(id(p) for chunk in chunks for p in chunk)
    assert len(chunks) <= 4 < len(outs)


@pytest.mark.parametrize("cid", [7, 8])
def test_a_chunk_builds_one_adjacency_stack(monkeypatch, cid):
    # c7 reads adjacency spectra and distances, c8 Laplacian spectra and
    # distances. Both derive from one adjacency stack per chunk: the
    # Laplacians always, the distances when the chunk is not all trees. The
    # brood of a connected graph's children has two orders, so two chunks.
    chunks, stacks = [], []
    over = conjectures._Arithmetic.over
    monkeypatch.setattr(conjectures._Arithmetic, "over",
                        lambda ar, chunk: chunks.append(chunk) or over(ar, chunk))
    adjacency = graphs.adjacency_matrix
    for module in (conjectures, graphs):
        monkeypatch.setattr(module, "adjacency_matrix",
                            lambda gs: stacks.append(gs) or adjacency(gs))
    parent = random_connected_graph(9, random.Random(cid))
    kids, reps = children(parent, SearchSpace.CONNECTED)
    score(cid, kids[0])
    assert len(chunks) == len(stacks) == 2 and all(a is b for a, b in zip(chunks, stacks))
    assert all(kids[r]._score[0] == cid for r in reps)


@pytest.mark.parametrize("first", [0, 1], ids=["healthy-first", "raising-first"])
def test_a_failing_brood_member_raises_only_at_its_own_call(monkeypatch, first):
    # path(3)'s connected-space representatives: P4 from a leaf, the star
    # K1,3, P4 from a subdivision and the triangle, which is no tree. The
    # star's scorer raises and the triangle fails c5's hypotheses.
    reps = _representatives(path(3), SearchSpace.CONNECTED)
    assert [(c.n, c.m) for c in reps] == [(4, 3), (4, 3), (4, 3), (3, 3)]
    star_child, triangle = reps[1], reps[3]
    scorer = conjectures._SCORERS[5]

    def failing(g, ar):
        if g is star_child:
            raise ArithmeticError("planted")
        return scorer(g, ar)

    monkeypatch.setitem(conjectures._SCORERS, 5, failing)
    if first:
        with pytest.raises(ArithmeticError, match="planted"):
            score(5, star_child)
    else:
        score(5, reps[0])
    for c in (reps[0], reps[2]):
        assert c._score == (5, scorer(rebuilt(c), conjectures._FAST))
    assert star_child._score is None and triangle._score is None
    assert all(c._brood is None for c in reps)
    for _ in range(2):
        with pytest.raises(ArithmeticError, match="planted"):
            score(5, star_child)
        with pytest.raises(HypothesisError):
            score(5, triangle)
    assert star_child._score is None and triangle._score is None


def test_a_member_whose_chunk_fails_is_scored_alone(monkeypatch):
    # eigvalsh fails on any stack that holds the marked member's adjacency
    # matrix, so the first call's whole chunk fails with it. Each healthy
    # member still scores its own evaluation, bit for bit; the marked one
    # raises NumericError at each of its calls and never gets a memo.
    parent = random_connected_graph(7, random.Random(18))
    reps = _representatives(parent, SearchSpace.CONNECTED)
    marked = next(c for c in reps[1:] if c.n == reps[0].n)
    marked_adjacency = graphs.adjacency_matrix(marked)
    eigvalsh = np.linalg.eigvalsh
    failures = []

    def failing(stack):
        layers = stack.reshape(-1, *stack.shape[-2:])
        if any(np.array_equal(m, marked_adjacency) for m in layers):
            failures.append(len(layers))
            raise np.linalg.LinAlgError("planted")
        return eigvalsh(stack)

    monkeypatch.setattr(np.linalg, "eigvalsh", failing)
    scorer = conjectures._SCORERS[7]
    assert _same_bits(score(7, reps[0]), alone(scorer, reps[0]))
    # The chunk's one failed solve is raised for each of its members.
    assert len(failures) == 1 and failures[0] > 1
    assert marked._score is None
    for c in reps[1:]:
        if c is not marked:
            assert _same_bits(score(7, c), alone(scorer, c))
    for calls in (2, 3):
        with pytest.raises(NumericError):
            score(7, marked)
        # Now a brood of one, it fails once per call.
        assert len(failures) == calls
    assert marked._score is None


def test_a_non_orthogonal_basis_fails_polished_scores_and_verify_strict(monkeypatch):
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda x: (eigh(x)[0], np.ones_like(x)))
    g = cycle(5)  # a tree would be decided exactly, before any eigensolve
    for check in (lambda: score(7, g, polish=True), lambda: verify_strict(7, g)):
        with pytest.raises(NumericError, match="non-orthogonal"):
            check()
    assert g._score is None


def test_a_large_expansion_is_scored_in_bounded_chunks(monkeypatch):
    # A 60-vertex tree has 1,830 connected-space children. Neither eigvalsh
    # nor the distance sweep is handed a stack above the chunk size, and no
    # representative keeps its brood once the brood is scored.
    elements = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: elements.append(a.size) or eigvalsh(a))
    distances = conjectures.all_pairs_distances
    monkeypatch.setattr(conjectures, "all_pairs_distances",
                        lambda gs: elements.append(len(gs) * gs[0].n ** 2) or distances(gs))
    kids, reps = children(random_tree(60, random.Random(60)), SearchSpace.CONNECTED)
    firsts = [kids[i] for i in sorted(set(reps))]
    assert len(kids) == 1830 and len(firsts) > 1000
    score(7, kids[0])
    # Each of the two orders needs several chunks, each one sweep and solve.
    assert len(elements) > 4 and max(elements) <= conjectures._CHUNK_ELEMENTS
    assert all(c._brood is None and c._score[0] == 7 for c in firsts)
