"""Nested search, pruning, and the adaptive outer loop."""

from __future__ import annotations

import hashlib
import math
import random
import sys
from collections import Counter

import pytest

from conftest import alone, isomorphism, random_connected_graph, rebuilt
from graphrefute import cli, conjectures, graphs, search
from graphrefute.conjectures import check_hypotheses, score
from graphrefute.graphs import (
    Graph,
    GraphError,
    SearchSpace,
    cycle,
    legal_moves,
    path,
    random_playout,
    random_tree,
    star,
    tree_key,
)
from graphrefute.search import SearchParams, amcs, nmcs, prune


def tree_score(g: Graph) -> float:
    return score(5, g).value


def test_nmcs_returns_input_on_plateau():
    g = path(4)
    assert nmcs(g, 0, 1, lambda _: 0.0, SearchSpace.TREES) == g


def test_nmcs_level_one_picks_best_child():
    # Order n scores higher than anything else, so one add, any add, wins;
    # a subdivision also adds a vertex, so kind is free but order grows.
    g = path(3)
    best = nmcs(g, 0, 1, lambda h: float(h.n), SearchSpace.TREES)
    assert best.n == 4
    # Penalizing edges beyond a tree keeps edge additions out.
    best = nmcs(
        path(3), 0, 1, lambda h: h.n - 10.0 * (h.m - h.n + 1), SearchSpace.CONNECTED
    )
    assert best.is_tree()


def test_nmcs_level_zero_is_a_playout():
    rng = random.Random(0)
    best = nmcs(path(3), 4, 0, lambda h: float(h.n), SearchSpace.TREES, rng)
    assert best.n == 7
    # A worse playout is discarded in favor of the root.
    rng = random.Random(0)
    best = nmcs(path(3), 4, 0, lambda h: -float(h.n), SearchSpace.TREES, rng)
    assert best == path(3)


def test_nmcs_rejects_negative_arguments():
    with pytest.raises(ValueError):
        nmcs(path(3), -1, 1, lambda _: 0.0, SearchSpace.TREES)


def test_prune_depth_zero_is_identity():
    rng = random.Random(1)
    g = random_tree(9, rng)
    assert prune(g, 1, 0, rng) == g


def test_prune_respects_floor():
    rng = random.Random(2)
    for _ in range(200):
        g = prune(random_tree(8, rng), 6, 9, rng)
        assert g.n >= 6
        assert g.is_tree()
    assert prune(star(5), 5, 9, rng) == star(5)


def test_prune_fires_with_documented_probability():
    # At depth 9 the first removal fires with probability 0.9.
    rng = random.Random(3)
    fired = sum(prune(path(10), 1, 9, rng).n < 10 for _ in range(1000))
    assert 850 <= fired <= 950


def test_amcs_initial_counterexample_returns_immediately():
    result = amcs(path(5), SearchParams(), lambda g: float(g.n), SearchSpace.TREES)
    assert result.found
    assert result.iterations == 0
    assert result.loop_passes == 0
    assert result.best_graph == path(5)
    assert len(result.trace) == 1


def test_amcs_deterministic_under_seed():
    params = SearchParams(max_depth=2, max_level=2, seed=7)
    initial = random_tree(5, random.Random(7))
    a = amcs(initial, params, tree_score, SearchSpace.TREES, random.Random(7))
    b = amcs(initial, params, tree_score, SearchSpace.TREES, random.Random(7))
    assert a.best_graph == b.best_graph
    assert a.best_score == b.best_score
    assert [r.score for r in a.trace] == [r.score for r in b.trace]
    assert [r.n for r in a.trace] == [r.n for r in b.trace]


def test_amcs_accepted_scores_strictly_increase():
    initial = random_tree(5, random.Random(1))
    result = amcs(initial, SearchParams(seed=1), tree_score, SearchSpace.TREES,
                  random.Random(1))
    accepted = [r.score for r in result.trace if r.accepted]
    assert all(b > a for a, b in zip(accepted, accepted[1:]))
    assert result.found
    assert result.best_score > 1e-9


def test_amcs_trace_never_goes_below_initial_order():
    initial = random_tree(6, random.Random(9))
    result = amcs(initial, SearchParams(seed=9), tree_score, SearchSpace.TREES,
                  random.Random(9))
    assert min(r.n for r in result.trace) >= initial.n


def test_amcs_found_iff_score_above_tau():
    initial = random_tree(5, random.Random(4))
    result = amcs(initial, SearchParams(seed=4), tree_score, SearchSpace.TREES,
                  random.Random(4))
    assert result.found == (result.best_score > 1e-9)
    hopeless = amcs(
        initial,
        SearchParams(max_depth=1, max_level=1, seed=4),
        lambda g: -float(g.n),
        SearchSpace.TREES,
        random.Random(4),
    )
    assert not hopeless.found
    assert hopeless.best_score <= 1e-9


def test_amcs_escalation_schedule_covers_every_depth_level_pair():
    # A score that never improves forces the full escalation ladder:
    # depths 0..max_depth at each level 1..max_level.
    calls = []

    def no_hope(g: Graph) -> float:
        return -float(g.n)

    params = SearchParams(max_depth=2, max_level=2)
    result = amcs(path(4), params, no_hope, SearchSpace.TREES, random.Random(0))
    assert not result.found
    assert result.loop_passes == (params.max_depth + 1) * params.max_level
    ladder = [(r.depth, r.level) for r in result.trace[1:]]
    assert ladder == [(0, 1), (1, 1), (2, 1), (0, 2), (1, 2), (2, 2)]
    assert calls == []  # no acceptance ever happened


def test_amcs_time_budget():
    params = SearchParams(time_budget=0.0, seed=0)
    result = amcs(path(4), params, lambda g: -float(g.n), SearchSpace.TREES)
    assert result.budget_exhausted
    assert result.loop_passes == 0
    assert not result.found


def test_amcs_validates_initial_graph():
    with pytest.raises(GraphError):
        amcs(cycle(4), SearchParams(), tree_score, SearchSpace.TREES)
    with pytest.raises(GraphError):
        amcs(Graph(4, [(0, 1), (2, 3)]), SearchParams(), tree_score,
             SearchSpace.CONNECTED)


def test_amcs_tree_space_keeps_trees():
    initial = random_tree(5, random.Random(2))
    result = amcs(initial, SearchParams(seed=2, trees_only=True), tree_score,
                  rng=random.Random(2))
    assert result.best_graph.is_tree()


def test_amcs_rejects_negative_max_depth():
    with pytest.raises(ValueError, match="max_depth"):
        amcs(path(4), SearchParams(max_depth=-3), tree_score, SearchSpace.TREES)


def test_amcs_rejects_negative_max_level():
    with pytest.raises(ValueError, match="max_level"):
        amcs(path(4), SearchParams(max_level=-1), tree_score, SearchSpace.TREES)


def test_amcs_rejects_non_finite_tau():
    for tau in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="tau"):
            amcs(path(4), SearchParams(tau=tau), tree_score, SearchSpace.TREES)


def test_amcs_rejects_negative_or_non_finite_time_budget():
    for budget in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="time_budget"):
            amcs(path(4), SearchParams(time_budget=budget), tree_score,
                 SearchSpace.TREES)


@pytest.mark.parametrize(
    ("cid", "initial", "params"),
    [
        # c2 climbs for as long as it is allowed to; tau stops it at n = 28.
        (2, path(13), SearchParams(max_level=1, trees_only=True, seed=1, tau=-1.0)),
        (5, None, SearchParams(trees_only=True, seed=1)),
        (5, None, SearchParams(trees_only=True, seed=2)),
        (9, None, SearchParams(max_depth=3, max_level=2, seed=1)),
        (9, None, SearchParams(max_depth=3, max_level=2, seed=2)),
    ],
    ids=["c2-path13", "c5-seed1", "c5-seed2", "c9-seed1", "c9-seed2"],
)
def test_amcs_trace_is_unchanged_by_the_score_memo(monkeypatch, cid, initial, params):
    # One run scores the graphs amcs hands it, so repeats hit the memo on
    # the Graph; the other scores a fresh copy each time. The two runs must
    # make the same calls and leave the same trace, and every value the
    # search sees must equal a fresh evaluation of the graph scored. The
    # search values each child by its class representative, so a labelled
    # child after the first of its class is never scored: it is proven
    # isomorphic to its representative, by equal keys through one ids for
    # trees and by an explicit relabelling otherwise. A depth-0 level-1
    # expansion builds no such child: its later entries of a class reuse
    # the representative itself.
    evaluations = []
    scorer = conjectures._SCORERS[cid]
    monkeypatch.setitem(conjectures._SCORERS, cid,
                        lambda g, ar: evaluations.append(g) or scorer(g, ar))
    reused = []
    ids: dict = {}
    expand = search.children

    def counting(g, space, values_only=False):
        kids, reps = expand(g, space, values_only)
        reused.append(len(kids) - len(set(map(id, kids))))
        for child, r in zip(kids, reps):
            rep = kids[r]
            if child is rep:
                continue
            if params.trees_only:
                assert tree_key(child, ids)[0] == tree_key(rep, ids)[0]
            else:
                p = isomorphism(child, rep)
                assert p is not None
                assert Graph(child.n, [(p[u], p[v]) for u, v in child.edges()]) == rep
        return kids, reps

    monkeypatch.setattr(search, "children", counting)

    def run(copy: bool):
        seen = []
        evaluations.clear()
        reused.clear()

        def score_fn(g: Graph) -> float:
            value = score(cid, rebuilt(g) if copy else g).value
            seen.append((g, value))
            return value

        rng = random.Random(params.seed)
        start = random_tree(5, rng) if initial is None else initial
        result = amcs(start, params, score_fn, rng=rng)
        return result.trace, seen, len(evaluations)

    memo_trace, seen, memo_evals = run(copy=False)
    fresh_trace, fresh_seen, fresh_evals = run(copy=True)
    assert memo_trace == fresh_trace
    assert [g for g, _ in seen] == [g for g, _ in fresh_seen]
    scored = set()
    shared = 0
    for (g, value), (_, fresh_value) in zip(seen, fresh_seen):
        # The copy run evaluates each labelled graph afresh.
        assert fresh_value == alone(scorer, g).value
        # A call on a graph scored before reads its memo: a later move of a
        # representative's class, or a pass that starts from its best graph.
        shared += id(g) in scored
        scored.add(id(g))
        assert value == alone(scorer, g).value
    # Every value-only repeat is such a call.
    assert 0 < sum(reused) <= shared and memo_evals < fresh_evals == len(seen)


@pytest.mark.parametrize(
    ("cid", "start", "params", "deep", "digest"),
    [
        # From order 10 every c7 pass improves at depth 0, so start at 6,
        # where passes 3 and 6 are won by depth-1 playouts. c7's scores are
        # LAPACK floats: another BLAS build may round them differently.
        (7, lambda rng: random_tree(6, rng), SearchParams(max_depth=3, max_level=1, seed=1),
         True, "d1fb49e93e2cf9258bb9065ca4e3c3b62a738a472fe21e829e23ba53cd0d0267"),
        (5, lambda rng: random_tree(5, rng),
         SearchParams(max_depth=4, max_level=3, trees_only=True, seed=1),
         True, "004e6b5f2df19cd43cc88abbd13f699ac61aa469366a343aa1de167de79c0667"),
        # Every pass is a level-1 expansion won at depth 0, from n = 13 to 28.
        (2, lambda rng: path(13), SearchParams(max_level=1, trees_only=True, seed=1, tau=-1.0),
         False, "287dfce9a9c573f5333f1f465dc9704afbb4d5c1a1b6736e59db9df7469275bd"),
    ],
    ids=["c7-connected", "c5-trees", "c2-path13"],
)
def test_amcs_trace_digest_is_pinned(monkeypatch, cid, start, params, deep, digest):
    # Any change to the RNG stream or to the order of legal moves shows up
    # here: playouts of depth > 0 and prunes draw from the same generator.
    keys = []
    key = graphs.tree_key
    monkeypatch.setattr(graphs, "tree_key", lambda g, ids: keys.append(g) or key(g, ids))
    expansions = []

    def recording(g, space, values_only=False):
        # The pair `children` returns: an expansion reads its list twice,
        # once for its playouts and once for its children.
        expansions.append(graphs.children(g, space, values_only))
        return expansions[-1]

    monkeypatch.setattr(search, "children", recording)
    rng = random.Random(params.seed)
    result = amcs(start(rng), params, lambda g: score(cid, g).value, rng=rng)
    assert any(r.depth > 0 for r in result.trace) == deep
    text = "\n".join(cli._trace_lines(params.seed, result))
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    if not params.trees_only:
        assert keys == []
        return
    # One key per expansion, for its orbits; nothing else is keyed.
    assert len(keys) == len(expansions)


@pytest.mark.parametrize(
    ("cid", "start", "params", "digest"),
    [
        (7, lambda rng: random_tree(6, rng), SearchParams(max_depth=3, max_level=1, seed=1),
         "b6669e87a458bb7b6f90cc8e829d1abca5bf2a7a137d067a3ba157e1e832e858"),
        (9, lambda rng: random_tree(5, rng), SearchParams(max_depth=3, max_level=2, seed=2),
         "7f13d885f6f703d787dcb4bae916d9bd8a281638e9e4a679cf5cc299107feda4"),
        (4, lambda rng: random_tree(6, rng),
         SearchParams(max_depth=3, max_level=2, trees_only=True, seed=3),
         "929f415b2e7790822b541121f17f4f4efd8f1ef9e657013ffa6e0ab7fdb4c3b8"),
    ],
    ids=["c7-connected", "c9-connected", "c4-trees"],
)
def test_amcs_score_calls_are_pinned(cid, start, params, digest):
    # Every score_fn call, in order, as the line the benchmark digests: the
    # graph scored, by order and size, and the value handed back. Each
    # search plays out at depths 1 to 3. Values are LAPACK floats: another
    # BLAS build may round them differently.
    lines = hashlib.sha256()

    def score_fn(g: Graph) -> float:
        value = score(cid, g).value
        lines.update(f"{g.n} {g.m} {value!r}\n".encode())
        return value

    rng = random.Random(params.seed)
    result = amcs(start(rng), params, score_fn, rng=rng)
    assert {r.depth for r in result.trace} >= {1, 2, 3}
    assert lines.hexdigest() == digest


@pytest.mark.parametrize(
    ("cid", "start", "params"),
    [
        (7, lambda rng: random_tree(6, rng), SearchParams(max_depth=3, max_level=1, seed=1)),
        (4, lambda rng: random_tree(6, rng),
         SearchParams(max_depth=3, max_level=2, trees_only=True, seed=3)),
    ],
    ids=["c7-connected", "c4-trees"],
)
def test_amcs_scores_no_labelled_non_representative_child(monkeypatch, cid, start, params):
    # Expansions at depth >= 1 or level 2 build every labelled child, and
    # the search plays out from or expands each, but asks only for its
    # class representative's value. The dict keeps each child alive, so no
    # later graph reuses its id.
    labelled = {}
    expand = search.children

    def recording(g, space, values_only=False):
        kids, reps = expand(g, space, values_only)
        labelled.update((id(c), c) for c, r in zip(kids, reps) if c is not kids[r])
        return kids, reps

    monkeypatch.setattr(search, "children", recording)

    def score_fn(g: Graph) -> float:
        assert id(g) not in labelled
        return score(cid, g).value

    rng = random.Random(params.seed)
    result = amcs(start(rng), params, score_fn, rng=rng)
    assert {r.depth for r in result.trace} >= {1, 2, 3} and labelled


@pytest.fixture
def walks(monkeypatch):
    """Graphs whose connectivity was really traversed, not read from the memo."""
    walked = []
    is_connected = Graph.is_connected

    def counting(g: Graph) -> bool:
        if g._connected is None:
            walked.append(g)
        return is_connected(g)

    monkeypatch.setattr(Graph, "is_connected", counting)
    return walked


def test_playouts_from_a_known_connected_graph_never_walk(walks):
    rng = random.Random(4)
    for space, cid in ((SearchSpace.TREES, 5), (SearchSpace.CONNECTED, 9)):
        for _ in range(20):
            g = random_tree(7, rng) if space is SearchSpace.TREES else random_connected_graph(7, rng)
            assert g.is_connected()
            walks.clear()
            out = random_playout(g, 6, space, rng)
            assert check_hypotheses(cid, out) == []
            assert out.is_connected() and legal_moves(out, space)
            assert walks == []


@pytest.mark.parametrize(
    ("cid", "params"),
    [
        (5, SearchParams(max_depth=4, max_level=2, trees_only=True, seed=2)),
        (8, SearchParams(max_depth=4, max_level=2, seed=5)),
    ],
    ids=["c5-trees", "c8-connected"],
)
def test_amcs_walks_only_the_initial_graph(monkeypatch, walks, cid, params):
    # Forward and backward moves both hand connectivity on, so only the
    # initial graph starts unknown, even though the search prunes.
    prune_steps = []
    apply_move = search.apply_move
    monkeypatch.setattr(search, "apply_move", lambda g, u: prune_steps.append(u) or apply_move(g, u))
    rng = random.Random(params.seed)
    result = amcs(random_tree(6, rng), params, lambda g: score(cid, g).value, rng=rng)
    assert result.loop_passes > 1 and prune_steps
    assert len(walks) == 1


def test_a_pruning_search_reaches_every_move_layer(monkeypatch):
    # The benchmark times these three by name, wrapping each module
    # attribute bound to one, so each must be on the search's own path.
    calls = Counter()
    modules = [m for key, m in sys.modules.items() if key.startswith("graphrefute")]
    for name in ("legal_moves", "apply_move", "removable_vertices"):
        original = getattr(graphs, name)

        def counting(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counting)
    params = SearchParams(max_depth=4, max_level=2, trees_only=True, seed=2)
    rng = random.Random(params.seed)
    amcs(random_tree(6, rng), params, lambda g: score(5, g).value, rng=rng)
    assert set(calls) == {"legal_moves", "apply_move", "removable_vertices"}


def test_score_outside_a_search_computes_no_key(monkeypatch):
    keys = []
    monkeypatch.setattr(graphs, "tree_key", lambda g, ids: keys.append(g))
    for cid, g in ((5, random_tree(9, random.Random(1))), (2, path(13)), (4, star(6))):
        score(cid, g)
        score(cid, g, polish=True)
    assert keys == []
