"""Exact and floating-point graph invariants.

Spectral quantities come from LAPACK via numpy and always carry a residual
bound so downstream sign decisions can be certified. Everything that can be
exact stays exact: characteristic polynomials use big integers (Berkowitz,
division-free), degree-based indices and proximity use ``fractions.Fraction``,
and the NP-hard invariants (matching, independence, domination) are solved by
exact combinatorial algorithms rather than heuristics. The walks these build
on, ``bfs_tree`` from vertex 0 and all-pairs distances, live in ``graphs``.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graphs import Graph, GraphError, adjacency_matrix, all_pairs_distances, bfs_tree

_EPS = float(np.finfo(np.float64).eps)

# The exponential solvers warn above this order; they still run to completion.
SIZE_GUARD = 64

# The polished residual target, relative to the matrix norm.
_POLISH_RESIDUAL_TARGET = 1e-13


class NumericError(ArithmeticError):
    """Eigensolver failure or residual above target; carries the residual."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


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
    computed values are matched to the true ones in sorted order.
    """

    values: tuple[float, ...]
    residual_bound: float


def symmetric_spectrum(m: np.ndarray, *, polish: bool = False):
    """Ascending eigenvalues of a symmetric matrix with a certified error bound.

    The fast path uses an a-priori backward-stability bound. With ``polish``
    the residual matrix of the computed eigenpairs is measured explicitly,
    which gives a much tighter bound for verification.

    ``m`` may also be a stack (k, n, n), which the fast path solves in one
    LAPACK call; the result is then the list of each matrix's Spectrum, each
    with its own bound. Raises NumericError when the solver fails or, with
    ``polish``, any matrix misses the residual target.
    """
    a = np.asarray(m, dtype=np.float64)
    stack = a if a.ndim == 3 else a[None]
    n = stack.shape[-1]
    # Frobenius norms. The sum of squares of an integer matrix is exact in
    # any order, so each equals np.linalg.norm(x, "fro") bit for bit.
    flat = stack.reshape(len(stack), 1, n * n)
    norms = np.sqrt(flat @ flat.transpose(0, 2, 1)).ravel().tolist()
    try:
        solved = [_polish(x) for x in stack] if polish else [
            (v, 0.0) for v in np.linalg.eigvalsh(stack).tolist()]
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigensolver failed to converge: {exc}") from None
    out = []
    for (vals, quality), norm in zip(solved, norms):
        if polish:
            if quality > _POLISH_RESIDUAL_TARGET * max(1.0, norm):
                raise NumericError(f"eigenvalue residual {quality:.3e} above target", residual=quality)
            # The bound adds the rounding incurred while evaluating the residual
            # itself (~ n*eps*norm), which grows with n and is not the solver's fault.
            bound = quality + 4.0 * n * _EPS * norm
        else:
            bound = 10.0 * n * _EPS * norm
        out.append(Spectrum(tuple(vals), bound))
    return out if a.ndim == 3 else out[0]


def _polish(x: np.ndarray) -> tuple[list[float], float]:
    """x's ascending eigenvalues and the measured quality of their solve."""
    vals, vecs = np.linalg.eigh(x)
    resid = x @ vecs - vecs * vals
    gram = vecs.T @ vecs - np.eye(len(x))
    # Frobenius norms bound the 2-norms from above, and r / (1 - orth)
    # grows with both, so the bound stays valid without two SVDs.
    r, orth = math.sqrt(np.vdot(resid, resid)), math.sqrt(np.vdot(gram, gram))
    if orth >= 0.5:
        raise NumericError(f"eigenvector basis badly non-orthogonal ({orth:.3e})", residual=orth)
    return vals.tolist(), r / (1.0 - orth)


# -- exact characteristic polynomials ----------------------------------------


@dataclass(frozen=True)
class CharPoly:
    """Monic characteristic polynomial with exact integer coefficients.

    ``coeffs[k]`` multiplies x**k, so ``coeffs[-1] == 1``.
    """

    coeffs: tuple[int, ...]

    def __call__(self, x: float) -> float:
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


def char_poly_exact(m: np.ndarray) -> CharPoly:
    """Characteristic polynomial det(xI - M) of a square int64 matrix, such as
    `adjacency_char_poly` and `distance_char_poly` build from a graph, by the
    Berkowitz method.

    Division-free, so the coefficients are exact integers of any magnitude.
    """
    rows = m.tolist()
    # p holds the char poly of the leading k x k block, highest degree first.
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
    return CharPoly(tuple(reversed(p)))


def adjacency_char_poly(g: Graph) -> CharPoly:
    return char_poly_exact(adjacency_matrix(g))


def distance_char_poly(g: Graph) -> CharPoly:
    return char_poly_exact(all_pairs_distances(g))


@dataclass(frozen=True)
class PeakStats:
    """Peak positions of characteristic polynomial coefficients of a tree.

    ``p_a``: position of the largest |coefficient| within the list of
    nonzero adjacency coefficients taken in ascending exponent order;
    ``m``: that list's last index (for a tree, its matching number);
    ``p_d``: index maximizing the normalized distance coefficients
    2^i * |d_i| over i = 0..n-2, compared as exact integers.
    Ties break to the smallest index.
    """

    p_a: int
    m: int
    p_d: int


def peak_stats(t: Graph) -> PeakStats:
    """Compute adjacency/distance coefficient peaks of a tree of order >= 2."""
    if not t.is_tree():
        raise GraphError("peak statistics are defined for trees only")
    n = t.n
    if n < 2:
        raise GraphError("peak statistics require order >= 2")
    cpa = adjacency_char_poly(t)
    vals = [abs(c) for c in cpa.coeffs if c != 0]
    p_a = vals.index(max(vals))
    m = len(vals) - 1
    cpd = distance_char_poly(t)
    scaled = [abs(cpd.coeffs[i]) << i for i in range(n - 1)]
    p_d = scaled.index(max(scaled))
    return PeakStats(p_a=p_a, m=m, p_d=p_d)


# -- metric invariants --------------------------------------------------------


def proximity(dist: np.ndarray) -> Fraction:
    """Minimum average distance from a vertex to all others, exact, read off
    a distance matrix: its least row sum over n - 1."""
    if len(dist) < 2:
        raise GraphError("proximity requires at least 2 vertices")
    return Fraction(int(dist.sum(axis=1).min()), len(dist) - 1)


# -- degree-based indices -----------------------------------------------------


def randic(g: Graph, num=float, fsum=math.fsum):
    """Randic index, (deg(u) * deg(v))**-1/2 summed over edges, in the
    arithmetic of ``num``, which converts an int, and ``fsum``: floats by
    default, or a score's 60-digit or exact numbers."""
    adj = g._adj
    deg = list(map(len, adj))
    return fsum(num(deg[u] * deg[v]) ** -0.5 for u, nbrs in enumerate(adj) for v in nbrs if v > u)


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
    n = g.n
    adj = [list(g.neighbors(v)) for v in range(n)]
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
    """Maximum independent set size, by branch and bound on bitmasks.

    Vertices of degree <= 1 in the residual graph are taken greedily (always
    safe), so trees and tree-like graphs never branch. Branching picks a
    maximum-degree vertex v and tries each member of N[v]; every maximum
    independent set contains at least one of them. The size guard warns only
    off trees.
    """
    if not g.is_tree():
        _check_size_guard("independence_number", g.n)
    n = g.n
    nbr = [0] * n
    for u, v in g.edges():
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    closed = [nbr[v] | (1 << v) for v in range(n)]
    best = 0

    def reduce_and_branch(avail: int, size: int) -> None:
        nonlocal best
        # Take isolated and pendant vertices until none remain.
        changed = True
        while changed and avail:
            changed = False
            rest = avail
            while rest:
                v = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                live = nbr[v] & avail
                if live == 0:
                    avail &= ~(1 << v)
                    size += 1
                    changed = True
                elif live & (live - 1) == 0:
                    avail &= ~closed[v]
                    size += 1
                    changed = True
                    break
        if avail == 0:
            if size > best:
                best = size
            return
        if size + avail.bit_count() <= best:
            return
        rest = avail
        v = -1
        vdeg = -1
        while rest:
            u = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            d = (nbr[u] & avail).bit_count()
            if d > vdeg:
                vdeg = d
                v = u
        # Some maximum set meets N[v]; try each candidate, skipping sets
        # already covered by an earlier branch.
        tried = 0
        cand = closed[v] & avail
        while cand:
            u = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            reduce_and_branch(avail & ~closed[u] & ~tried, size + 1)
            tried |= 1 << u
        return

    reduce_and_branch((1 << n) - 1, 0)
    return best


# -- domination number --------------------------------------------------------


def _domination_tree_dp(g: Graph) -> int:
    """Exact domination number of a tree by rooted dynamic programming.

    States per vertex: taken into the set; not taken but dominated by a
    child; not taken and not yet dominated (its parent must be taken).
    """
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


def _domination_branch_bound(g: Graph) -> int:
    """Exact domination number by branching over dominators of an
    uncovered vertex with the fewest choices."""
    n = g.n
    closed = [1 << v for v in range(n)]
    for u, v in g.edges():
        closed[u] |= 1 << v
        closed[v] |= 1 << u
    full = (1 << n) - 1
    # Greedy cover gives the initial upper bound.
    covered = 0
    best = 0
    while covered != full:
        pick = max(range(n), key=lambda v: (closed[v] & ~covered).bit_count())
        covered |= closed[pick]
        best += 1
    maxcov = max(c.bit_count() for c in closed)

    def branch(covered: int, size: int) -> None:
        nonlocal best
        if covered == full:
            if size < best:
                best = size
            return
        uncovered = full & ~covered
        if size + -(-uncovered.bit_count() // maxcov) >= best:
            return
        u = -1
        ucount = n + 1
        rest = uncovered
        while rest:
            w = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            c = closed[w].bit_count()
            if c < ucount:
                ucount = c
                u = w
        cand = closed[u]
        while cand:
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            branch(covered | closed[v], size + 1)

    branch(0, 0)
    return best


def domination_number(g: Graph) -> int:
    """Minimum dominating set size: linear DP on trees, branch and bound
    otherwise."""
    if g.is_tree():
        return _domination_tree_dp(g)
    _check_size_guard("domination_number", g.n)
    return _domination_branch_bound(g)
