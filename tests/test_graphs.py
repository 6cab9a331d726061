"""Graph container, constructors, moves, and distance computation."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import distances_bfs, from_networkx, random_connected_graph, rebuilt, to_networkx
from graphrefute.codec import decode_graph6, encode_graph6
from graphrefute.graphs import (
    Graph,
    GraphError,
    SearchSpace,
    all_pairs_distances,
    apply_move,
    children,
    complete,
    connect_at,
    construct,
    cycle,
    legal_moves,
    path,
    playouts,
    random_playout,
    random_tree,
    removable_vertices,
    star,
    tree_key,
)


def test_graph_basics():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert g.n == 4
    assert g.m == 3
    assert g.neighbors(1) == (0, 2)
    assert len(g.neighbors(0)) == 1
    assert sorted((len(g.neighbors(v)) for v in range(4)), reverse=True) == [2, 2, 1, 1]
    assert 1 in g.neighbors(2)
    assert 3 not in g.neighbors(0)
    assert list(g.edges()) == [(0, 1), (1, 2), (2, 3)]


def test_graph_rejects_bad_edges():
    with pytest.raises(GraphError):
        Graph(3, [(0, 3)])
    with pytest.raises(GraphError):
        Graph(3, [(1, 1)])
    with pytest.raises(GraphError):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(GraphError):
        Graph(-1)


def test_graph_equality_and_hash():
    a = Graph(3, [(0, 1), (1, 2)])
    b = Graph(3, [(1, 2), (0, 1)])
    assert a == b
    assert hash(a) == hash(b)
    assert a != Graph(3, [(0, 1)])
    assert len({a, b}) == 1
    # The connectivity memo is not part of a graph's value.
    assert a.is_connected() and (a._connected, b._connected) == (True, None)
    assert a == b and hash(a) == hash(b)
    with pytest.raises(AttributeError):
        b._connected = True


def test_constructors():
    p = path(5)
    assert (p.n, p.m) and p.is_tree()
    assert sorted((len(p.neighbors(v)) for v in range(5)), reverse=True) == [2, 2, 2, 1, 1]
    s = star(6)
    assert s.is_tree() and len(s.neighbors(0)) == 5
    k = complete(4)
    assert k.m == 6 and not k.is_tree() and k.is_connected()
    c = cycle(5)
    assert c.m == 5 and all(len(c.neighbors(v)) == 2 for v in range(5))
    assert construct("path", 3) == path(3)
    with pytest.raises(GraphError):
        construct("wheel", 5)
    with pytest.raises(GraphError):
        cycle(2)
    with pytest.raises(GraphError):
        path(0)


def test_connectivity_and_tree_checks():
    assert path(1).is_connected()
    assert path(1).is_tree()
    disconnected = Graph(4, [(0, 1), (2, 3)])
    assert not disconnected.is_connected()
    assert not disconnected.is_tree()
    assert not cycle(4).is_tree()
    nx = pytest.importorskip("networkx")
    for h in nx.graph_atlas_g():
        if h.number_of_nodes() >= 1:  # disconnected ones included
            assert from_networkx(h).is_connected() == nx.is_connected(h)


def test_random_tree_is_deterministic_and_valid():
    a = random_tree(10, random.Random(7))
    b = random_tree(10, random.Random(7))
    assert a == b
    assert a.is_tree()
    assert random_tree(1, random.Random(0)).n == 1
    # Pruefer decoding of order 2 draws nothing and joins the two leaves.
    rng = random.Random(0)
    state = rng.getstate()
    two = random_tree(2, rng)
    assert two.m == 1 and two._adj == ((1,), (0,))
    assert rng.getstate() == state


def test_random_tree_hits_every_labeled_tree_on_four_vertices():
    # Cayley: 16 labeled trees on 4 vertices; a long sample should see all.
    rng = random.Random(3)
    seen = {random_tree(4, rng) for _ in range(2000)}
    assert len(seen) == 16


def test_connect_at():
    g = connect_at(path(3), path(2), 2, 0)
    assert g.n == 5
    assert g.m == 4
    assert 3 in g.neighbors(2)
    assert g.is_tree()
    with pytest.raises(GraphError):
        connect_at(path(3), path(2), 5, 0)


def test_legal_moves_tree_space_counts_and_order():
    g = path(3)
    moves = legal_moves(g, SearchSpace.TREES)
    # n add-leaf moves then m subdivide moves, each block in ascending order.
    assert moves == [(0, -1), (1, -1), (2, -1), (0, 1), (1, 2)]


def test_legal_moves_connected_space_adds_edge_moves():
    g = path(3)
    moves = legal_moves(g, SearchSpace.CONNECTED)
    # The non-edges follow the leaves and the edges.
    assert moves == legal_moves(g, SearchSpace.TREES) + [(0, 2)]
    k = complete(4)
    assert legal_moves(k, SearchSpace.CONNECTED) == legal_moves(k, SearchSpace.TREES)


def test_legal_moves_rejects_disconnected():
    with pytest.raises(GraphError):
        legal_moves(Graph(4, [(0, 1), (2, 3)]), SearchSpace.TREES)


def test_apply_move_remove_leaf_inverts_add_leaf():
    g = path(4)
    grown = children(g, SearchSpace.TREES)[0][2]  # a leaf at 2, which is vertex 4
    assert apply_move(grown, 4) == g


def test_apply_move_smooth_inverts_subdivide():
    g = path(2)
    sub = children(g, SearchSpace.TREES)[0][2]  # (0, 1) subdivided by vertex 2
    assert apply_move(sub, 2) == g
    # Smoothing a degree-2 vertex whose neighbors are adjacent would create
    # a multi-edge, so such a vertex is not removable.
    assert removable_vertices(cycle(3)) == []


def test_removable_vertices():
    assert removable_vertices(path(5)) == [0, 1, 2, 3, 4]
    assert removable_vertices(cycle(4)) == [0, 1, 2, 3]
    assert removable_vertices(star(5)) == [1, 2, 3, 4]
    assert removable_vertices(complete(3)) == []
    assert removable_vertices(Graph(1)) == []


def test_random_playout_stays_in_space_and_adds_depth_vertices_or_edges():
    rng = random.Random(5)
    for _ in range(25):
        t = random_playout(path(4), 6, SearchSpace.TREES, rng)
        assert rebuilt(t).is_tree()
        assert t.n == 10
        g = random_playout(path(4), 6, SearchSpace.CONNECTED, rng)
        assert rebuilt(g).is_connected()
        assert (g.n - 4) + (g.m - (g.n - 1)) == 6


def _reference_playout(g, depth, space, rng):
    for _ in range(depth):
        g = _expected_child(g, *rng.choice(legal_moves(g, space)))
    return g


def test_random_playout_matches_choice_over_legal_moves():
    # The indexed draw must consume the same random stream and pick the
    # same move as rng.choice over the full legal_moves list: 360 playouts.
    for seed in range(120):
        rng = random.Random(seed)
        n, depth = rng.randint(1, 40), rng.randint(0, 6)
        tree = random_tree(n, rng)
        connected = random_connected_graph(n, rng)
        for g, space in [(tree, SearchSpace.TREES), (tree, SearchSpace.CONNECTED),
                         (connected, SearchSpace.CONNECTED)]:
            fast_rng, ref_rng = random.Random(seed), random.Random(seed)
            fast = random_playout(g, depth, space, fast_rng)
            ref = _reference_playout(g, depth, space, ref_rng)
            assert fast._adj == ref._adj
            assert fast_rng.getstate() == ref_rng.getstate()


def test_playouts_draw_in_order_and_link_the_fresh_ones():
    kids, _ = children(random_tree(7, random.Random(2)), SearchSpace.CONNECTED)
    for depth in (0, 1, 3):
        rng, ref_rng = random.Random(depth), random.Random(depth)
        outs = playouts(kids, depth, SearchSpace.CONNECTED, rng)
        refs = [random_playout(k, depth, SearchSpace.CONNECTED, ref_rng) for k in kids]
        assert outs == refs and rng.getstate() == ref_rng.getstate()
        assert all(p.m == rebuilt(p).m and p._connected for p in outs)
        if depth:
            assert all(p._brood is outs for p in outs)
        else:  # each playout is its child, whose brood is the children's
            assert all(p is k for p, k in zip(outs, kids))


def test_forward_moves_match_a_validated_rebuild():
    rng = random.Random(11)
    graphs = [(random_tree(n, rng), SearchSpace.TREES) for n in range(1, 13)]
    graphs += [(random_connected_graph(n, rng), SearchSpace.CONNECTED) for n in range(1, 13)]
    for g, space in graphs:
        for child in children(g, space)[0]:
            rebuilt = Graph(child.n, child.edges())
            assert (child.n, child.m, child._adj) == (rebuilt.n, rebuilt.m, rebuilt._adj)
            assert child == rebuilt and hash(child) == hash(rebuilt)
            assert child._score is None
            with pytest.raises(AttributeError):
                child.n = 3


def test_backward_moves_match_a_validated_rebuild():
    # Trees with random chords, half of them cut by one edge, with
    # connectivity known or unknown. The reference drops the vertex from the
    # edge list, joins a smoothed vertex's neighbours, and relabels through
    # the validating constructor.
    rng = random.Random(29)
    moves = 0
    for _ in range(3000):
        n = rng.randint(1, 12)
        edges = list(random_connected_graph(n, rng, rng.random() / 2).edges())
        if edges and rng.random() < 0.5:
            edges.remove(rng.choice(edges))
        g = Graph(n, edges)
        if rng.random() < 0.5:
            g.is_connected()
        for gone in removable_vertices(g):
            kept = [e for e in g.edges() if gone not in e]
            if len(g.neighbors(gone)) == 2:
                kept.append(g.neighbors(gone))
            want = Graph(n - 1, [(u - (u > gone), v - (v > gone)) for u, v in kept])
            got = apply_move(g, gone)
            assert (got.n, got.m, got._adj) == (want.n, want.m, want._adj)
            assert got._connected == g._connected
            if got._connected is not None:
                assert want.is_connected() is got._connected
            moves += 1
    assert moves > 5000


def test_backward_moves_keep_connectivity_and_decoded_graphs_start_unknown():
    # Forward children are checked in
    # test_children_match_hand_built_children_and_know_they_are_connected.
    rng = random.Random(17)
    for n in range(1, 11):
        for g in (random_tree(n, rng), random_connected_graph(n, rng)):
            assert g._connected is None
            assert g.is_connected() and g._connected is True
            # Backward moves never change the number of components.
            for u in removable_vertices(g):
                assert apply_move(g, u)._connected == g._connected
    # graph6 carries no connectivity: a decoded graph walks itself when asked.
    for text, connected in ((encode_graph6(path(4)), True), ("C`", False)):
        g = decode_graph6(text)
        assert g._connected is None
        assert g.is_connected() is connected and g._connected is connected


def _expected_child(g: Graph, u: int, v: int) -> Graph:
    """g's child under the forward move (u, v), from an edge list written out
    by hand through the validating constructor."""
    edges, new = list(g.edges()), g.n
    if v < 0:
        return Graph(new + 1, edges + [(u, new)])
    if v in g.neighbors(u):
        return Graph(new + 1, [e for e in edges if e != (u, v)] + [(u, new), (v, new)])
    return Graph(new, edges + [(u, v)])


def test_children_match_hand_built_children_and_know_they_are_connected():
    # children builds each child straight from g's adjacency; each child is
    # checked against the validated constructor.
    rng = random.Random(41)
    checked = 0
    for n in range(1, 13):
        for _ in range(3):
            tree, connected = random_tree(n, rng), random_connected_graph(n, rng)
            for g, space in [(tree, SearchSpace.TREES), (tree, SearchSpace.CONNECTED),
                             (connected, SearchSpace.CONNECTED)]:
                kids, reps = children(g, space)
                moves = legal_moves(g, space)
                assert len(kids) == len(reps) == len(moves)
                for child, move in zip(kids, moves):
                    assert child._connected is True and child.m == g.m + 1
                    assert child._adj == rebuilt(child)._adj
                    assert child._adj == _expected_child(g, *move)._adj
                    checked += 1
    assert checked > 2500
    for bad in (Graph(4, [(0, 1), (2, 3)]), Graph(3)):
        for space in SearchSpace:
            with pytest.raises(GraphError, match="connected"):
                children(bad, space)


def test_children_of_a_disconnected_graph_compute_connectivity():
    # children refuses a disconnected parent, but a playout steps from any
    # graph. Its result starts unknown, since an added edge may join parts.
    two_edges = Graph(4, [(0, 1), (2, 3)])
    assert not two_edges.is_connected() and two_edges._connected is False
    with_isolated = Graph(5, [(0, 1), (2, 3)])
    assert not with_isolated.is_connected()
    rng = random.Random(7)
    seen = set()
    for g in (two_edges, with_isolated):
        for _ in range(100):
            child = random_playout(g, 1, SearchSpace.CONNECTED, rng)
            assert child._connected is None
            assert child.is_connected() is rebuilt(child).is_connected()
            seen.add((g.n, child._connected))
    assert seen == {(4, True), (4, False), (5, False)}


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=9))
def test_forward_moves_preserve_space_membership(seed, n):
    rng = random.Random(seed)
    t = random_tree(n, rng)
    # A rebuilt copy knows nothing, so this walks each child.
    for child in children(t, SearchSpace.TREES)[0]:
        assert rebuilt(child).is_tree()
    g = random_connected_graph(n, rng)
    for child in children(g, SearchSpace.CONNECTED)[0]:
        assert rebuilt(child).is_connected()


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=3, max_value=9))
def test_prune_moves_preserve_connectivity(seed, n):
    rng = random.Random(seed)
    g = random_connected_graph(n, rng)
    for u in removable_vertices(g):
        shrunk = apply_move(g, u)
        assert shrunk.n == g.n - 1
        assert shrunk.is_connected()


def test_all_pairs_distances_matches_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(11)
    graphs = [random_connected_graph(n, rng) for n in (1, 2, 5, 9, 13, 40, 64, 65, 100)]
    graphs.append(random_connected_graph(70, rng, chord_prob=0))
    for g in graphs:
        n = g.n
        dist = all_pairs_distances(g)
        expected = dict(nx.all_pairs_shortest_path_length(to_networkx(g)))
        for u in range(n):
            for v in range(n):
                assert dist[u][v] == expected[u][v]


def test_all_pairs_distances_large_graph_path():
    # Both routines keep the int64 dtype: the path is a tree, and the cycle
    # needs many frontier levels of the sweep.
    n = 80
    for g, wrap in ((path(n), False), (cycle(n), True)):
        dist = all_pairs_distances(g)
        assert dist.dtype == np.int64
        for u in range(0, n, 17):
            for v in range(0, n, 13):
                d = abs(u - v)
                assert dist[u][v] == (min(d, n - d) if wrap else d)


def test_all_pairs_distances_requires_connected():
    with pytest.raises(GraphError):
        all_pairs_distances(Graph(3, [(0, 1)]))
    # n - 1 edges but disconnected: a triangle or a 4-cycle plus an isolated vertex.
    with pytest.raises(GraphError):
        all_pairs_distances(Graph(4, [(0, 1), (1, 2), (0, 2)]))
    with pytest.raises(GraphError):
        all_pairs_distances(Graph(5, [(0, 1), (1, 2), (2, 3), (0, 3)]))
    # m >= n, so the level sweep must notice: K4 plus an isolated vertex, and
    # two disjoint triangles.
    with pytest.raises(GraphError):
        all_pairs_distances(Graph(5, list(complete(4).edges())))
    with pytest.raises(GraphError):
        all_pairs_distances(Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]))


def test_all_pairs_distances_matches_bfs_on_small_graphs():
    nx = pytest.importorskip("networkx")
    connected = [
        from_networkx(h)
        for h in nx.graph_atlas_g()
        if h.number_of_nodes() >= 1 and nx.is_connected(h)
    ]
    assert len(connected) > 900  # every connected graph on <= 7 vertices
    for g in connected:
        assert all_pairs_distances(g).tolist() == distances_bfs(g)


def test_all_pairs_distances_matches_bfs_on_random_graphs():
    # Even draws are trees (the closed-form path), odd ones carry chords (the sweep).
    rng = random.Random(2024)
    for i in range(500):
        n = rng.randint(1, 250)
        g = random_connected_graph(n, rng, chord_prob=0.0 if i % 2 == 0 else 0.05)
        assert all_pairs_distances(g).tolist() == distances_bfs(g)


def _shuffled(g: Graph, rng: random.Random) -> Graph:
    """g under a uniformly random relabelling."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def test_tree_key_separates_exactly_the_isomorphism_classes():
    nx = pytest.importorskip("networkx")
    rng = random.Random(17)
    ids: dict = {}
    owner = {}  # key -> index of the class that produced it
    classes = [Graph(1)]
    for n in range(2, 11):
        classes += [from_networkx(h) for h in nx.nonisomorphic_trees(n)]
    assert len(classes) == 201
    for index, tree in enumerate(classes):
        for _ in range(5):
            g = _shuffled(tree, rng)
            g.is_connected()
            assert owner.setdefault(tree_key(g, ids)[0], index) == index
    assert len(owner) == len(classes)


def test_tree_key_centres():
    ids: dict = {}
    # One and two vertices: every vertex is a centre.
    one, two = tree_key(Graph(1), ids), tree_key(path(2), ids)
    assert one[2] == [0] and sorted(two[2]) == [0, 1]
    assert len(one[0]) == 1 and len(two[0]) == 2 and one[0][0] == two[0][0]
    # Odd paths and stars have one centre, even paths two; a unicentral and
    # a bicentral key never meet, not even at equal order.
    assert tree_key(path(5), ids)[2] == [2]
    assert tree_key(star(6), ids)[2] == [0]
    key, labels, centres = tree_key(path(6), ids)
    assert sorted(centres) == [2, 3] and len(key) == 2 and key[0] == key[1]
    spider = Graph(6, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5)])  # legs 2, 2, 1
    assert len(tree_key(spider, ids)[0]) == 1
    assert tree_key(spider, ids)[0] != tree_key(path(6), ids)[0]
    # Bicentral with unequal halves: the key is the sorted pair of labels.
    g = Graph(5, [(0, 1), (0, 2), (0, 3), (3, 4)])
    key, labels, centres = tree_key(g, ids)
    assert sorted(centres) == [0, 3] and key == tuple(sorted(labels[c] for c in centres))
    assert key[0] < key[1]


def test_tree_key_rejects_a_graph_with_a_cycle():
    # n - 1 edges but a cycle: peeling stalls before the centre.
    for bad in (Graph(4, [(0, 1), (1, 2), (0, 2)]),
                Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3)])):
        assert bad.m == bad.n - 1 and not bad.is_tree()
        with pytest.raises(GraphError, match="tree"):
            tree_key(bad, {})
    # Forests with fewer edges: K2 + P4 peels down to P4's centres, and
    # K2 + K1 and two isolated vertices never peel at all.
    for bad in (Graph(6, [(0, 1), (2, 3), (3, 4), (4, 5)]), Graph(3, [(0, 1)]), Graph(2)):
        assert not bad.is_tree()
        with pytest.raises(GraphError, match="tree"):
            tree_key(bad, {})


def _siblings(g: Graph, space: SearchSpace) -> list[tuple[Graph, Graph | None]]:
    """Each child of g, in move order, with its class representative, or
    None for a representative."""
    kids, reps = children(g, space)
    assert kids == [_expected_child(g, u, v) for u, v in legal_moves(g, space)]
    for i, r in enumerate(reps):
        # The representative is the first of its class: this child or an
        # earlier one, itself its own representative.
        assert r <= i and reps[r] == r
    return [(child, None if r == i else kids[r]) for i, (child, r) in enumerate(zip(kids, reps))]


def test_value_only_children_reuse_each_class_representative():
    # Called the value-only way, every entry after the first of its class is
    # that first child itself, and the first children are the labelled
    # call's representatives, in order, with one brood.
    rng = random.Random(39)
    for n in range(3, 31):
        for space, g in ((SearchSpace.TREES, random_tree(n, rng)),
                         (SearchSpace.CONNECTED, random_connected_graph(n, rng))):
            labelled, reps = children(g, space)
            rep_children = [labelled[i] for i in sorted(set(reps))]
            quick, quick_reps = children(g, space, values_only=True)
            assert len(quick) == len(labelled) and quick_reps == reps
            for i, (entry, r) in enumerate(zip(quick, reps)):
                if r != i:
                    assert entry is quick[r]
            firsts = list({id(c): c for c in quick}.values())
            assert firsts == rep_children
            assert list(map(id, firsts)) == [id(quick[i]) for i in sorted(set(reps))]
            assert all(c._brood is firsts[0]._brood for c in firsts)
            assert firsts[0]._brood == rep_children


def test_children_share_a_class_only_with_isomorphic_siblings_in_connected_space():
    nx = pytest.importorskip("networkx")
    rng = random.Random(23)
    connected = [
        from_networkx(h)
        for h in nx.graph_atlas_g()
        if 1 <= h.number_of_nodes() <= 6 and nx.is_connected(h)
    ]
    assert len(connected) == 143  # every connected graph on <= 6 vertices
    shared = 0
    for base in connected:
        for g in (base, _shuffled(base, rng), _shuffled(base, rng)):
            for child, rep in _siblings(g, SearchSpace.CONNECTED):
                if rep is not None:
                    shared += 1
                    assert nx.is_isomorphic(to_networkx(child), to_networkx(rep))
    assert shared > 1000


def test_tree_sibling_classes_are_the_childrens_isomorphism_classes():
    # Every tree with n <= 10 under three relabellings, and random trees.
    # Soundness: a shared child has its representative's key, through one
    # ids. Tightness: there are as many classes as distinct child keys, so
    # no two classes hold isomorphic children.
    nx = pytest.importorskip("networkx")
    rng = random.Random(29)
    trees = [Graph(1)]
    for n in range(2, 11):
        trees += [from_networkx(h) for h in nx.nonisomorphic_trees(n)]
    corpus = [_shuffled(t, rng) for t in trees for _ in range(3)]
    corpus += [random_tree(rng.randint(1, 80), rng) for _ in range(300)]
    ids: dict = {}
    kids = classes = keys = 0
    for g in corpus:
        siblings = _siblings(g, SearchSpace.TREES)
        for child, rep in siblings:
            if rep is not None:
                assert tree_key(child, ids)[0] == tree_key(rep, ids)[0]
        kids += len(siblings)
        classes += sum(rep is None for _, rep in siblings)
        keys += len({tree_key(child, ids)[0] for child, _ in siblings})
    assert classes == keys < kids


def test_star_add_leaf_children_fall_into_two_classes():
    # K_{1,k}: a leaf at the centre, or at any one of the k twin leaves.
    for space in SearchSpace:
        for k in (2, 3, 7):
            leaves = _siblings(star(k + 1), space)[: k + 1]
            assert [rep is None for _, rep in leaves] == [True, True] + [False] * (k - 1)
    # P_n in tree space: a leaf at either end and every subdivision make
    # P_{n+1}, so they share one class.
    for n in (2, 3, 6):
        siblings = _siblings(path(n), SearchSpace.TREES)
        ends = [siblings[0], siblings[n - 1]]
        for child, rep in ends + siblings[n:]:
            assert (rep or child) is siblings[0][0]
