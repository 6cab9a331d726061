"""Immutable simple graphs, search moves, deterministic generators, and the
walks the invariants build on: ``bfs_tree`` from vertex 0 and distances.

Vertices are always labeled 0..n-1 and edges are unordered pairs of distinct
vertices. Every mutating operation returns a fresh graph, which keeps search
code free of aliasing bugs. Randomised helpers take an explicit
``random.Random`` so a whole run replays from one seed.
"""

from __future__ import annotations

import heapq
import random
from bisect import bisect_left, bisect_right
from collections import Counter
from enum import Enum
from typing import Iterable, Iterator

import numpy as np


class GraphError(ValueError):
    """Invalid parameter or violated contract in a graph operation."""


class SearchSpace(Enum):
    """Feasible set that a search walks through."""

    TREES = "trees"
    CONNECTED = "connected"


class Graph:
    """Undirected simple graph on vertices 0..n-1, immutable after build."""

    # _score memoises conjectures.score's fast path: (conjecture id, Score).
    # _connected memoises is_connected: None until known, then True or False.
    # _sibling is None, or the first child of the class of moves that
    # `children` put this graph in, which is isomorphic to it: `score` may
    # share its memo. _brood lists the graphs `score` evaluates at once: all
    # first children (`children`) or all playouts (`playouts`) of an expansion.
    # Equality, hashing and the guard ignore all four.
    __slots__ = ("n", "m", "_adj", "_score", "_connected", "_sibling", "_brood")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 1:
            raise GraphError(f"graph order must be >= 1, got {n}")
        adj: list[set[int]] = [set() for _ in range(n)]
        m = 0
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) out of range for order {n}")
            if u == v:
                raise GraphError(f"loop at vertex {u} not allowed")
            if v in adj[u]:
                raise GraphError(f"duplicate edge ({u}, {v})")
            adj[u].add(v)
            adj[v].add(u)
            m += 1
        adj = tuple(tuple(sorted(s)) for s in adj)
        for slot, value in zip(_SLOTS, (n, m, adj, None, None, None, None)):
            slot.__set__(self, value)

    @classmethod
    def _trusted(cls, adj: tuple[tuple[int, ...], ...], m: int, connected: bool | None) -> "Graph":
        """Wrap adjacency the caller guarantees sorted, symmetric and simple,
        with its connectivity if the caller knows it (else None)."""
        g = object.__new__(cls)
        _N.__set__(g, len(adj))
        _M.__set__(g, m)
        _ADJ.__set__(g, adj)
        _SCORE.__set__(g, None)
        _CONNECTED.__set__(g, connected)
        _SIBLING.__set__(g, None)
        _BROOD.__set__(g, None)
        return g

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Graph is immutable")

    # -- basic accessors -------------------------------------------------

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield edges as (u, v) with u < v, in lexicographic order."""
        for u in range(self.n):
            for v in self._adj[u]:
                if v > u:
                    yield (u, v)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self._adj == other._adj
        )

    def __hash__(self) -> int:
        return hash((self.n, self._adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    # -- structure predicates --------------------------------------------

    def is_connected(self) -> bool:
        """Walk the graph once; later calls read the memo."""
        if self._connected is None:
            _CONNECTED.__set__(self, len(bfs_tree(self)[0]) == self.n)
        return self._connected

    def is_tree(self) -> bool:
        return self.m == self.n - 1 and self.is_connected()


# Graph's slot descriptors, which set a slot past the immutability guard.
_SLOTS = [Graph.__dict__[name] for name in Graph.__slots__]
_N, _M, _ADJ, _SCORE, _CONNECTED, _SIBLING, _BROOD = _SLOTS


def bfs_tree(g: Graph) -> tuple[list[int], list[int]]:
    """Vertices reachable from 0 in BFS order, and each one's parent (0's is 0; unreached, -1)."""
    order, parent = [0], [0] + [-1] * (g.n - 1)
    for u in order:
        for v in g._adj[u]:
            if parent[v] < 0:
                parent[v] = u
                order.append(v)
    return order, parent


# -- constructors ----------------------------------------------------------


def path(n: int) -> Graph:
    """Return the path P_n with edges (i, i+1)."""
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def star(n: int) -> Graph:
    """Return the star S_n with center 0 and leaves 1..n-1."""
    return Graph(n, [(0, i) for i in range(1, n)])


def complete(n: int) -> Graph:
    """Return the complete graph K_n."""
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def cycle(n: int) -> Graph:
    """Return the cycle C_n; requires n >= 3."""
    if n < 3:
        raise GraphError(f"cycle order must be >= 3, got {n}")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


_CONSTRUCTORS = {
    "path": path,
    "star": star,
    "complete": complete,
    "cycle": cycle,
}


def construct(kind: str, n: int) -> Graph:
    """Build a named graph ('path', 'star', 'complete', 'cycle') of order n."""
    try:
        builder = _CONSTRUCTORS[kind]
    except KeyError:
        raise GraphError(f"unknown graph kind {kind!r}") from None
    return builder(n)


def random_tree(n: int, rng: random.Random) -> Graph:
    """Return a uniformly random labeled tree on n vertices (Pruefer decode)."""
    if n <= 1:
        return Graph(n)
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    # Repeatedly attach the smallest remaining leaf to the next code symbol.
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return Graph(n, edges)


def connect_at(g: Graph, h: Graph, u: int, v: int) -> Graph:
    """Disjoint union of g and h plus a bridge from g's vertex u to h's v.

    Vertices of h are shifted up by g.n; the result is connected whenever
    both inputs are.
    """
    if not (0 <= u < g.n):
        raise GraphError(f"vertex {u} out of range for first graph")
    if not (0 <= v < h.n):
        raise GraphError(f"vertex {v} out of range for second graph")
    edges = list(g.edges())
    edges += [(a + g.n, b + g.n) for a, b in h.edges()]
    edges.append((u, v + g.n))
    return Graph(g.n + h.n, edges)


# -- moves ------------------------------------------------------------------


def legal_moves(g: Graph, space: SearchSpace) -> list[tuple[int, int]]:
    """Forward moves available from g, as the (u, v) pairs `_grow` takes.

    Trees allow a leaf at u, written (u, -1), and the subdivision of an edge
    uv; connected graphs additionally allow adding any non-edge uv. The
    order is deterministic: leaf anchors ascending, then edges
    lexicographically, then non-edges lexicographically.
    """
    if not g.is_connected():
        raise GraphError("forward moves require a connected graph")
    n, adj = g.n, g._adj
    pairs = [(u, -1) for u in range(n)] + list(g.edges())
    if space is SearchSpace.CONNECTED:
        pairs += [(u, v) for u in range(n) for v in range(u + 1, n) if v not in adj[u]]
    return pairs


def children(g: Graph, space: SearchSpace) -> list[Graph]:
    """The child of each of `legal_moves`, in its order: `_grow` patches its
    pair into a copy of g's adjacency, with no validation.

    Moves of one class give isomorphic children, and each child after the
    first of its class refers to that first sibling in ``_sibling``. In tree
    space the classes are the children's isomorphism classes
    (`_tree_classes`); otherwise they come from twin vertices
    (`_twin_classes`). Each first child holds the list of all first children
    in ``_brood``, so that `conjectures.score` evaluates them in one batch.
    A level-1 search reads the list twice: for `playouts`, then for its loop.
    """
    pairs = legal_moves(g, space)
    classes = (_tree_classes if space is SearchSpace.TREES else _twin_classes)(g, pairs)
    adj, m, out, first = g._adj, g.m + 1, [], {}
    for (u, v), cls in zip(pairs, classes):
        grown = list(adj)
        _grow(grown, u, v)
        out.append(child := Graph._trusted(tuple(grown), m, True))
        if (rep := first.setdefault(cls, child)) is not child:
            _SIBLING.__set__(child, rep)
    brood = list(first.values())
    for rep in brood:
        _BROOD.__set__(rep, brood)
    return out


def _tree_classes(g: Graph, pairs: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Each tree-space move's class, one per `legal_moves` pair.

    A chain is a maximal path whose inner vertices have degree 2.
    Subdividing any of its edges, or adding a leaf at an end of it that is a
    leaf, makes that chain one edge longer and gives one tree. A chain's
    class is the least unordered pair of endpoint orbits among its edges.
    Those pairs are exact edge orbits, and automorphisms map chains onto
    chains, so two chains share a class only when one orbit holds both.
    Adding a leaf at any other vertex is classed by the vertex's orbit,
    paired with -1 so that it meets no chain.
    """
    adj = g._adj
    orbit = _orbits(g)
    chain: dict = {}  # each edge, both ways round, to its chain's class
    for s, nbrs in enumerate(adj):
        for w in nbrs if len(nbrs) != 2 else ():
            if (s, w) in chain:  # walked from its other end
                continue
            u, v = s, w
            cls = min((orbit[u], orbit[v]), (orbit[v], orbit[u]))
            edges = [(u, v), (v, u)]
            while len(adj[v]) == 2:
                a, b = adj[v]
                u, v = v, a if b == u else b
                cls = min(cls, (orbit[u], orbit[v]), (orbit[v], orbit[u]))
                edges += [(u, v), (v, u)]
            chain.update(dict.fromkeys(edges, cls))
    return [chain[u, v] if v >= 0 else chain[u, adj[u][0]] if len(adj[u]) == 1 else (-1, orbit[u])
            for u, v in pairs]


def _orbits(g: Graph) -> list[int]:
    """Each vertex's orbit in a tree: the interned `tree_key` labels on its
    path from the centre. Two centres of equal label share an orbit."""
    _, labels, centres = tree_key(g, {})
    ids: dict = {}
    orbit = [-1] * g.n
    stack = [(c, -1) for c in centres]
    while stack:
        v, up = stack.pop()
        orbit[v] = up = ids.setdefault((up, labels[v]), len(ids))
        stack += [(w, up) for w in g._adj[v] if orbit[w] < 0 and w not in centres]
    return orbit


def _twin_classes(g: Graph, pairs: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Each connected-space move's class: its pair's twin classes, unordered,
    with -1 for an add-leaf's v. u and v are twins when N(u) - {v} = N(v) - {u}.

    Swapping twins is an automorphism. Twins share an open neighbourhood
    (keyed as is) or a closed one (keyed in a 1-tuple), never both at one
    vertex: a closed twin w of u lies in N(u), so an open twin v of u would
    lie in N[w] - {u} = N(u) = N(v). Each class is thus of one kind, and its
    transpositions give its whole symmetric group. A class is independent or
    a clique, and two are joined by all edges or none: a key needs no kind.
    """
    adj = g._adj
    opens = Counter(adj)
    ids: dict = {}
    twin = [ids.setdefault(a if opens[a] > 1 else (tuple(sorted(a + (u,))),), len(ids))
            for u, a in enumerate(adj)] + [-1]  # twin[-1], for an add-leaf's v
    return [(a, b) if (a := twin[u]) < (b := twin[v]) else (b, a) for u, v in pairs]


def _grow(adj: list[tuple[int, ...]], u: int, v: int) -> None:
    """Patch a `legal_moves` pair into adj, a list of sorted neighbour tuples:
    a leaf at u when v < 0, else the subdivision of edge uv or the new edge
    uv. The new vertex len(adj) is the largest label: appending it keeps order."""
    n = len(adj)
    if v < 0:
        adj[u] += (n,)
        adj.append((u,))
        return
    au, av = adj[u], adj[v]
    i, j = bisect_left(au, v), bisect_left(av, u)
    if i < len(au) and au[i] == v:
        adj[u], adj[v] = au[:i] + au[i + 1:] + (n,), av[:j] + av[j + 1:] + (n,)
        adj.append((u, v) if u < v else (v, u))
    else:
        adj[u], adj[v] = au[:i] + (v,) + au[i:], av[:j] + (u,) + av[j:]


def apply_move(g: Graph, u: int) -> Graph:
    """Remove u, one of `removable_vertices(g)`, without checking that it is:
    a leaf goes, and a degree-2 vertex is smoothed, its two neighbours
    joined. The labels above u shift down, which keeps every row sorted. A
    backward move never changes the number of components, so its result
    knows what g knows.
    """
    adj = list(g._adj)
    if len(adj[u]) == 2:
        a, b = adj[u]
        adj[a], adj[b] = tuple(sorted(adj[a] + (b,))), tuple(sorted(adj[b] + (a,)))
    del adj[u]
    adj = tuple(tuple(x - (x > u) for x in row if x != u) for row in adj)
    return Graph._trusted(adj, g.m - 1, g._connected)


def removable_vertices(g: Graph) -> list[int]:
    """The vertices `apply_move` may remove, ascending: leaves, and degree-2
    vertices whose neighbours are non-adjacent, so that smoothing keeps the
    graph simple. Both preserve connectivity and map trees to trees.
    """
    adj = g._adj
    return [v for v, nbrs in enumerate(adj)
            if len(nbrs) == 1 or len(nbrs) == 2 and nbrs[1] not in adj[nbrs[0]]]


def random_playout(g: Graph, depth: int, space: SearchSpace, rng: random.Random) -> Graph:
    """Apply `depth` uniformly random forward moves to g.

    Each step draws the index ``rng.choice(legal_moves(g, space))`` would
    draw, then walks the adjacency to that move without listing the moves,
    so the random stream and every result are the same. Every step patches
    one copy of g's adjacency, wrapped once at the end; depth 0 returns g.
    """
    if not depth:
        return g
    n, m, adj = g.n, g.m, list(g._adj)
    for _ in range(depth):
        non_edges = n * (n - 1) // 2 - m if space is SearchSpace.CONNECTED else 0
        i = rng.randrange(n + m + non_edges)
        if i < n:
            u, v = i, -1
        else:
            subdivide = i < n + m
            i -= n if subdivide else n + m
            for u in range(n):
                first = bisect_right(adj[u], u)  # the neighbours above u
                above = len(adj[u]) - first
                count = above if subdivide else n - 1 - u - above
                if i < count:
                    break
                i -= count
            if subdivide:
                v = adj[u][first + i]
            else:
                # The i-th non-neighbour above u: u + 1 + i, stepped past
                # each neighbour at or below it.
                v = u + 1 + i
                for w in adj[u][first:]:
                    if w <= v:
                        v += 1
        _grow(adj, u, v)
        n, m = len(adj), m + 1
    return Graph._trusted(tuple(adj), m, g._connected or None)


def playouts(graphs: list[Graph], depth: int, space: SearchSpace,
             rng: random.Random) -> list[Graph]:
    """`random_playout` of each graph, drawn in order. At depth >= 1 each
    playout holds the list of them all in ``_brood``, so that
    `conjectures.score` evaluates them in one batch; at depth 0 each is its
    graph and joins no brood."""
    out = [random_playout(g, depth, space, rng) for g in graphs]
    for p in out if depth else ():
        _BROOD.__set__(p, out)
    return out


# -- AHU labels of trees -----------------------------------------------------


def tree_key(g: Graph, ids: dict) -> tuple[tuple[int, ...], list[int], list[int]]:
    """AHU canonical form of a tree (Aho, Hopcroft & Ullman, 1974).

    Leaves are peeled layer by layer until the one or two centres remain.
    Each vertex's label is the id ``ids`` interns for the sorted labels of
    its peeled children, so two subtrees rooted towards the centre get one
    label exactly when they are isomorphic. The key is the centre's label,
    or the sorted pair of the two centres' labels: equal keys from one
    ``ids`` mean isomorphic trees. Returns the key, every vertex's label and
    the centres, from which `_orbits` derives vertex orbits.
    """
    n, adj = g.n, g._adj
    intern = ids.setdefault
    leaf = intern((), len(ids))
    if n <= 2:
        return (leaf,) * n, [leaf] * n, list(range(n))
    deg = list(map(len, adj))
    labels = [-1] * n  # -1 until peeled
    kids: list[list[int]] = [[] for _ in range(n)]
    layer = [v for v in range(n) if deg[v] == 1]
    left = n
    while left > 2:
        if not layer:
            raise GraphError("tree_key requires a tree")
        left -= len(layer)
        peeled, layer = layer, []
        for v in peeled:
            kids[v].sort()
            labels[v] = label = intern(tuple(kids[v]), len(ids))
            for p in adj[v]:  # the one neighbour not yet peeled
                if labels[p] < 0:
                    break
            kids[p].append(label)
            deg[p] -= 1
            if deg[p] == 1:
                layer.append(p)
    for v in layer:
        kids[v].sort()
        labels[v] = intern(tuple(kids[v]), len(ids))
    return tuple(sorted([labels[v] for v in layer])), labels, layer


# -- distances ---------------------------------------------------------------


def adjacency_matrix(g: Graph | list[Graph]) -> np.ndarray:
    """int64 adjacency matrix of a graph; a float64 (k, n, n) stack for a list of one order."""
    graphs = [g] if isinstance(g, Graph) else g
    n = graphs[0].n
    a = np.zeros((len(graphs), n, n))
    # _adj lists both directions of every edge, so one fill sets both halves.
    a.put([(i * n + u) * n + v for i, h in enumerate(graphs)
           for u, nbrs in enumerate(h._adj) for v in nbrs], 1)
    return a[0].astype(np.int64) if isinstance(g, Graph) else a


def all_pairs_distances(g: Graph | list[Graph]) -> np.ndarray:
    """int64 distances of a connected graph; a float64 (k, n, n) stack for a list of one order."""
    graphs = [g] if isinstance(g, Graph) else g
    trees = all(h.m == h.n - 1 for h in graphs)
    dist = _tree_distances(graphs) if trees else walk_distances(adjacency_matrix(graphs))
    return dist[0].astype(np.int64) if isinstance(g, Graph) else dist.astype(np.float64, copy=False)


def walk_distances(a: np.ndarray) -> np.ndarray:
    """float64 distances from a float64 (k, n, n) stack of connected graphs'
    adjacency matrices, by BFS from all sources at once. Each level marks the
    pairs within it, so a pair's distance is the level count minus its marks,
    also in a graph done before the others."""
    n = a.shape[-1]
    step = a.astype(np.float32) + np.eye(n, dtype=np.float32)
    reach = np.eye(n, dtype=np.float32)[None]  # broadcast over the stack
    marks = np.zeros(a.shape, dtype=np.float32)
    for levels in range(n):
        if np.count_nonzero(reach) == reach.size:
            break
        marks += reach
        reach = np.minimum(reach @ step, 1)
    else:
        raise GraphError("distance matrix requires a connected graph")
    return (levels - marks).astype(np.float64)


def _tree_distances(graphs: list[Graph]) -> np.ndarray:
    """Distances of graphs with n - 1 edges: trees, or else disconnected.

    Row v of ``anc`` marks v and its ancestors in ``bfs_tree``'s tree, so
    ``anc @ anc.T`` counts common ancestors, depth(lca) + 1, and the row sums
    are depth + 1. Then d(i, j) = depth_i + depth_j - 2 depth(lca). Float32
    holds these integers exactly, so the sum builds in place in any order.
    """
    n = graphs[0].n
    width = (n + 7) // 8
    # Rows start as int bitsets (v's is its parent's plus bit v) and are
    # unpacked once, zero-padded to whole bytes: cheaper than n numpy row
    # copies at the orders a search visits.
    packed = []
    for g in graphs:
        order, parent = bfs_tree(g)
        if len(order) < n:
            raise GraphError("distance matrix requires a connected graph")
        rows = [0] * n
        for v in order:
            rows[v] = rows[parent[v]] | 1 << v
        packed += [r.to_bytes(width, "little") for r in rows]
    bits = np.unpackbits(np.frombuffer(b"".join(packed), np.uint8), bitorder="little")
    anc = bits.reshape(len(graphs), n, 8 * width).astype(np.float32)
    size = anc.sum(axis=2)
    dist = anc @ anc.transpose(0, 2, 1)
    dist *= -2
    dist += size[:, :, None]
    dist += size[:, None, :]
    return dist
