"""Exact and floating-point graph invariants.

Spectral quantities come from LAPACK via numpy. A polished spectrum carries
a measured residual bound, which certified sign decisions read; a fast one
carries none (inf), because the search compares values only. Everything
that can be exact stays exact: characteristic polynomials use big integers
(Berkowitz, division-free, over Python ints in numpy object arrays; no program
path calls it, and it stays as the tests' reference and for a planned exact
count off trees), degree-based indices and proximity use ``fractions.Fraction``,
matching takes Edmonds' polynomial blossom algorithm, and the NP-hard
independence and domination numbers are solved exactly by exponential search
rather than heuristics; on trees, both take linear leaf rules. A tree's
characteristic polynomials take one leaves-first pass each: adjacency as
matching counts, distance as
det(xI - D) = -det [[xL + 2I, tau], [x tau^T, n - 1]] / 4, tau_v = 2 - deg v,
from Graham & Pollak's det D (1971) and Graham & Lovasz's D^-1 (1978). The
walk these build on, ``bfs_tree`` from vertex 0, lives in ``graphs``.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations
from operator import or_

import numpy as np

from .graphs import Graph, GraphError, bfs_tree

_EPS = float(np.finfo(np.float64).eps)

# The exponential solvers warn above this order; they still run to completion.
SIZE_GUARD = 64

# The polished residual target, relative to the matrix norm.
_POLISH_RESIDUAL_TARGET = 1e-13


class NumericError(ArithmeticError):
    """Eigensolver failure or residual above target; the message gives the value."""


class PerformanceWarning(UserWarning):
    """An exponential exact solver was invoked above the size guard."""


def _check_size_guard(op: str, n: int) -> None:
    if n > SIZE_GUARD:
        warnings.warn(
            f"{op} on {n} vertices exceeds the size guard ({SIZE_GUARD}); "
            "this is exact but may be slow",
            PerformanceWarning,
            stacklevel=3,
        )


# -- matrices -----------------------------------------------------------------


def laplacian_matrix(a: np.ndarray) -> np.ndarray:
    """D - A for an adjacency matrix or stack A, typed as A, with D the
    diagonal matrix of A's row sums."""
    n = a.shape[-1]
    # 0 - a, not -a: on floats -a stores -0.0, and LAPACK's Householder step
    # takes the sign of a zero, so the spectrum would move in its last bits.
    lap = 0 - a
    lap.reshape(-1, n * n)[:, :: n + 1] = a.sum(axis=-1)
    return lap


# -- spectra ------------------------------------------------------------------


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues of a symmetric matrix plus an absolute error bound.

    ``residual_bound`` bounds |computed - true| for every eigenvalue when the
    computed values are matched to the true ones in sorted order; it is inf
    where nothing was measured.
    """

    values: tuple[float, ...]
    residual_bound: float


def symmetric_spectrum(stack: np.ndarray, *, polish: bool = False) -> list[Spectrum]:
    """Each symmetric matrix's ascending eigenvalues, for a stack (k, n, n),
    as a list of k Spectrum.

    The fast path solves the stack in one LAPACK call and bounds nothing: its
    ``residual_bound`` is inf. With ``polish`` each matrix's computed
    eigenpairs are checked by their measured residual, which gives the bound
    that verification reads. Raises NumericError when the solver fails or,
    with ``polish``, a matrix misses the residual target.
    """
    stack = np.asarray(stack, dtype=np.float64)
    try:
        if polish:
            return [_polish(x) for x in stack]
        return [Spectrum(tuple(v), math.inf) for v in np.linalg.eigvalsh(stack).tolist()]
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigensolver failed to converge: {exc}") from None


def _polish(x: np.ndarray) -> Spectrum:
    """x's eigenvalues, bounded by the measured residual of its eigenpairs."""
    n = len(x)
    # The sum of squares of an integer matrix is exact in any order, so this
    # equals np.linalg.norm(x, "fro") bit for bit.
    norm = math.sqrt(np.vdot(x, x))
    vals, vecs = np.linalg.eigh(x)
    resid = x @ vecs - vecs * vals
    gram = vecs.T @ vecs - np.eye(n)
    # Frobenius norms bound the 2-norms from above, and r / (1 - orth)
    # grows with both, so the bound stays valid without two SVDs.
    r, orth = math.sqrt(np.vdot(resid, resid)), math.sqrt(np.vdot(gram, gram))
    if orth >= 0.5:
        raise NumericError(f"eigenvector basis badly non-orthogonal ({orth:.3e})")
    quality = r / (1.0 - orth)
    if quality > _POLISH_RESIDUAL_TARGET * max(1.0, norm):
        raise NumericError(f"eigenvalue residual {quality:.3e} above target")
    # The bound adds the rounding incurred while evaluating the residual
    # itself (~ n*eps*norm), which grows with n and is not the solver's fault.
    return Spectrum(tuple(vals.tolist()), quality + 4.0 * n * _EPS * norm)


# -- exact characteristic polynomials ----------------------------------------


def char_poly_exact(m: np.ndarray) -> tuple[int, ...]:
    """Coefficients of the characteristic polynomial det(xI - M) of a square
    int64 matrix, by the Berkowitz method; ``coeffs[k]`` multiplies x**k, so
    the last is 1.

    Division-free, and computed over Python ints in object arrays, so the
    coefficients are exact integers of any magnitude.
    """
    a = m.astype(object)
    # p holds the char poly of the leading k x k block, highest degree first.
    p = np.ones(1, dtype=object)
    for k in range(len(a)):
        row, vec, block = a[k, :k], a[:k, k], a[:k, :k]
        # The Toeplitz column: 1, -a_kk, then -row A^j vec for j < k.
        toep = [1, -a[k, k]]
        for _ in range(k):
            toep.append(-row.dot(vec))
            vec = block.dot(vec)
        p = np.convolve(np.array(toep, dtype=object), p)[:k + 2]
    return tuple(p[::-1].tolist())


def peak_stats(t: Graph) -> tuple[int, int, int]:
    """Peak positions (p_a, m, p_d) of the characteristic polynomial
    coefficients of a tree of order >= 2.

    ``p_a``: position of the largest |coefficient| within the list of
    nonzero adjacency coefficients taken in ascending exponent order;
    ``m``: that list's last index (for a tree, its matching number);
    ``p_d``: index maximizing the normalized distance coefficients
    2^i * |d_i| over i = 0..n-2, compared as exact integers.
    Ties break to the smallest index.

    A forest's det(xI - A) is the sum of (-1)^k m_k x^(n-2k), m_k its k-edge
    matchings (Godsil & Gutman, J. Graph Theory 5, 1981): the adjacency list is
    the matching counts, highest k first. det(xI - D) is -det [[xL + 2I, tau],
    [x tau^T, n - 1]] / 4, tau_v = 2 - deg v, by det D (Graham & Pollak, Bell
    Syst. Tech. J. 50, 1971) and D^-1 = -L/2 + tau tau^T / (2(n - 1)) (Graham &
    Lovasz, Adv. Math. 29, 1978); one pass expands it, and no matrix is built.
    """
    if not t.is_tree():
        raise GraphError("peak statistics are defined for trees only")
    n = t.n
    if n < 2:
        raise GraphError("peak statistics require order >= 2")
    vals = _matching_counts(t)[::-1]
    cpd = _distance_coefficients(t)
    scaled = [abs(cpd[i]) << i for i in range(n - 1)]
    return vals.index(max(vals)), len(vals) - 1, scaled.index(max(scaled))


def _matching_counts(t: Graph) -> list[int]:
    """m_0..m_mu, the k-edge matching counts of tree t, by one pass leaves
    first. Each vertex holds two count polynomials over its subtree, matched
    to no child and to one, as big ints in base 2^n: no count exceeds the
    2^(n-1) edge subsets, so no digit carries."""
    order, parent = bfs_tree(t)
    free, taken = [1] * t.n, [0] * t.n
    for v in reversed(order[1:]):
        p, whole = parent[v], free[v] + taken[v]
        free[p], taken[p] = free[p] * whole, taken[p] * whole + (free[p] * free[v] << t.n)
    total, counts = free[0] + taken[0], []
    while total:
        counts.append(total & ((1 << t.n) - 1))
        total >>= t.n
    return counts


def _distance_coefficients(t: Graph) -> list[int]:
    """det(xI - D) of tree t, lowest degree first, as -1/4 of the bordered
    determinant (n - 1) det M - x tau^T adj(M) tau, M = xL + 2I (`peak_stats`).
    Leaves first, each subtree's block merges into its parent's, whose vertex
    holds det M over the block with and without itself (a, b) and tau-weighted
    cofactor sums: of paths ending at it (p), of vertex pairs (s) and, less
    itself, of pairs whose path misses it (r); the u, w cofactor of a tree is
    x^d(u, w) det M off their path. Each polynomial is one int at x = 2^k: the
    bordered rows' 1-norms are at most 2 + 3 deg v and, the apex's, 3(n - 1),
    and sum deg = 2n - 2, so every coefficient is below 3n 8^n < 2^(k-1) and
    balanced base-2^k digits return them exactly."""
    n, (order, parent) = t.n, bfs_tree(t)
    k = 3 * n + (3 * n).bit_length() + 1
    half = 1 << k - 1
    blocks = [((len(nbrs) << k) + 2, 1, 2 - len(nbrs), (2 - len(nbrs)) ** 2, 0) for nbrs in t._adj]
    for c in reversed(order[1:]):
        (ac, bc, pc, sc, rc), (a, b, p, s, r) = blocks[c], blocks[parent[c]]
        blocks[parent[c]] = (a * ac - (b * bc << 2 * k), b * ac, p * ac + (b * pc << k),
                             s * ac + a * sc - (r * bc + b * rc << 2 * k) + (p * pc << k + 1),
                             r * ac + b * sc)
    a, _, _, s, _ = blocks[0]
    total, coeffs = (s << k) - (n - 1) * a >> 2, []
    for _ in range(n + 1):
        coeffs.append((total + half & (half << 1) - 1) - half)
        total = total - coeffs[-1] >> k
    return coeffs


# -- metric invariants --------------------------------------------------------


def proximity(stack: np.ndarray) -> list[Fraction]:
    """Each distance matrix's minimum average distance from a vertex to all
    others, exact, for a stack (k, n, n), as a list of k Fractions: its
    least row sum over n - 1, from one reduction of the stack."""
    n = stack.shape[-1]
    if n < 2:
        raise GraphError("proximity requires at least 2 vertices")
    return [Fraction(int(s), n - 1) for s in stack.sum(axis=-1).min(axis=-1).tolist()]


# -- degree-based indices -----------------------------------------------------


def randic(g: Graph, num, fsum):
    """Randic index, (deg(u) * deg(v))**-1/2 summed over edges, in the
    arithmetic of ``num``, which converts an int, and ``fsum``: a score's
    floats, 60-digit or exact numbers. Each distinct product's root is taken
    once, at its first edge, and the terms are summed in edge order."""
    adj = g._adj
    deg = list(map(len, adj))
    roots = {}
    return fsum(roots[p] if (p := deg[u] * deg[v]) in roots else roots.setdefault(p, num(p) ** -0.5)
                for u, nbrs in enumerate(adj) for v in nbrs if v > u)


def modified_second_zagreb(g: Graph) -> Fraction:
    """Sum of 1 / (deg(u) * deg(v)) over edges, exact, summed per distinct
    degree product over one common denominator."""
    adj = g._adj
    deg = list(map(len, adj))
    products = Counter(deg[u] * deg[v] for u, nbrs in enumerate(adj) for v in nbrs if v > u)
    den = math.lcm(*products)
    return Fraction(sum(k * (den // p) for p, k in products.items()), den)


def harmonic(g: Graph) -> Fraction:
    """Sum of 2 / (deg(u) + deg(v)) over edges, exact, summed per distinct
    degree sum over one common denominator."""
    adj = g._adj
    deg = list(map(len, adj))
    sums = Counter(deg[u] + deg[v] for u, nbrs in enumerate(adj) for v in nbrs if v > u)
    den = math.lcm(*sums)
    return Fraction(2 * sum(k * (den // s) for s, k in sums.items()), den)


# -- matching number (blossom algorithm) -------------------------------------


def matching_number(g: Graph) -> int:
    """Size of a maximum matching, via Edmonds' blossom algorithm."""
    n, adj = g.n, g._adj
    match = [-1] * n
    # Greedy seed matching; augmenting paths fix whatever it misses.
    for v in range(n):
        if match[v] == -1:
            for u in adj[v]:
                if match[u] == -1:
                    match[v] = u
                    match[u] = v
                    break
    parent = [-1] * n
    base = list(range(n))
    used = [False] * n
    blossom = [False] * n

    def lca(a: int, b: int) -> int:
        seen = [False] * n
        while True:
            a = base[a]
            seen[a] = True
            if match[a] == -1:
                break
            a = parent[match[a]]
        while True:
            b = base[b]
            if seen[b]:
                return b
            b = parent[match[b]]

    def mark_path(v: int, b: int, child: int) -> None:
        while base[v] != b:
            blossom[base[v]] = True
            blossom[base[match[v]]] = True
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    def find_augmenting_path(root: int) -> bool:
        for i in range(n):
            used[i] = False
            parent[i] = -1
            base[i] = i
        used[root] = True
        q = deque([root])
        while q:
            v = q.popleft()
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and parent[match[to]] != -1):
                    cur = lca(v, to)
                    for i in range(n):
                        blossom[i] = False
                    mark_path(v, cur, to)
                    mark_path(to, cur, v)
                    for i in range(n):
                        if blossom[base[i]]:
                            base[i] = cur
                            if not used[i]:
                                used[i] = True
                                q.append(i)
                elif parent[to] == -1:
                    parent[to] = v
                    if match[to] == -1:
                        u = to
                        while u != -1:
                            pv = parent[u]
                            ppv = match[pv]
                            match[u] = pv
                            match[pv] = u
                            u = ppv
                        return True
                    used[match[to]] = True
                    q.append(match[to])
        return False

    size = sum(1 for v in range(n) if match[v] != -1) // 2
    for v in range(n):
        if match[v] == -1 and find_augmenting_path(v):
            size += 1
    return size


# -- independence number ------------------------------------------------------


def independence_number(g: Graph) -> int:
    """Maximum independent set size: the leaf rule on trees, a two-way
    branch on bitmasks otherwise.

    The leaf rule walks a tree leaves first; a vertex joins the set when
    none of its children did, and then blocks its parent. Off trees, while
    the residual graph has a vertex of degree <= 1, that vertex is taken and
    its closed neighbourhood dropped, since some maximum set holds it. Then
    the larger of two branches on a maximum-degree vertex v is returned: v
    left out, or v taken and N[v] dropped (the starting point of Fomin,
    Grandoni & Kratsch, J. ACM 56, 2009). Each branch drops a vertex, so the
    recursion is at most n deep. The size guard warns only off trees.
    """
    if g.is_tree():
        order, parent = bfs_tree(g)
        blocked, size = [False] * g.n, 0
        for u in reversed(order):
            if not blocked[u]:
                size += 1
                blocked[parent[u]] = True
        return size
    _check_size_guard("independence_number", g.n)
    closed = [sum(map((1).__lshift__, nbrs), 1 << v) for v, nbrs in enumerate(g._adj)]

    def solve(avail: int) -> int:
        size = 0
        while avail:
            top, rest = -1, avail
            while rest:
                v = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                degree = (closed[v] & avail).bit_count() - 1
                if degree <= 1:
                    break
                if degree > top:
                    top, branch = degree, v
            else:  # no vertex of degree <= 1 is left
                return size + max(solve(avail & ~(1 << branch)), 1 + solve(avail & ~closed[branch]))
            avail &= ~closed[v]
            size += 1
        return size

    return solve((1 << g.n) - 1)


# -- domination number --------------------------------------------------------


def domination_number(g: Graph) -> int:
    """Minimum dominating set size: the greedy leaf rule on trees, the least
    k whose k closed neighbourhoods cover V otherwise.

    The leaf rule walks a tree leaves first, and each vertex it finds still
    undominated puts its parent (the root, itself) into the set; this is
    exact (Cockayne, Goodman & Hedetniemi, Inf. Process. Lett. 4, 1975).
    Off trees a greedy cover bounds the answer from above and the volume
    bound ceil(n / max |N[v]|) from below (Haynes, Hedetniemi & Slater,
    *Fundamentals of Domination in Graphs*, 1998); every k between them is
    tried over all k-subsets, so this is exponential.
    """
    if g.is_tree():
        order, parent = bfs_tree(g)
        dominated = [False] * g.n
        size = 0
        for u in reversed(order):
            if not dominated[u]:
                size += 1
                dominated[parent[u]] = True
                for v in g._adj[parent[u]]:
                    dominated[v] = True
        return size
    _check_size_guard("domination_number", g.n)
    closed = [sum(map((1).__lshift__, nbrs), 1 << v) for v, nbrs in enumerate(g._adj)]
    full = (1 << g.n) - 1
    covered = greedy = 0
    while covered != full:
        covered |= max(closed, key=lambda c: (c & ~covered).bit_count())
        greedy += 1
    for k in range(-(-g.n // max(c.bit_count() for c in closed)), greedy):
        if any(reduce(or_, sets) == full for sets in combinations(closed, k)):
            return k
    return greedy
