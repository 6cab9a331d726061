"""The conjecture registry, score functions, and strict verification.

Each conjecture asserts an inequality bound on graph invariants. Its score
function is arranged so that a score strictly greater than zero witnesses a
violation; searches therefore maximize the score. Scores built purely from
rational invariants are carried exactly; spectral scores carry an explicit
error bound. `verify_strict` first evaluates the formula once in exact
arithmetic, which decides every tree verdict but c8's off paths and c10's on
two radicands; what that declines is decided by the polished float band,
then at 60 digits up to MP_MAX_ORDER vertices, and is Uncertain above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable

import mpmath as mp

from . import invariants as inv
from .graphs import (Graph, SearchSpace, adjacency_matrix, all_pairs_distances, bfs_tree,
                     walk_distances)

NEG_INF = float("-inf")

# A borderline score the exact arithmetic declines (non-trees, c8 off paths, c10
# on two radicands) is escalated to 60 digits only up to this order.
MP_MAX_ORDER = 64
_MP_DPS = 60


class HypothesisError(ValueError):
    """A graph fails the hypotheses of the conjecture being scored."""


class UnknownConjectureError(KeyError):
    """A conjecture id outside the catalog."""

    def __str__(self) -> str:
        # KeyError's own __str__ is the repr of its argument, quotes and all.
        return self.args[0]


class Verdict(Enum):
    CERTIFIED = "certified"
    UNCERTAIN = "uncertain"
    REJECTED = "rejected"


@dataclass(frozen=True)
class ConjectureSpec:
    """Static description of one conjecture and its search defaults."""

    id: int
    name: str
    statement: str
    space: SearchSpace
    min_order: int
    requires_tree: bool
    initial: tuple[str, int]  # (recipe kind, order) used when none is given
    formula: str  # rendering of the score whose positivity refutes it


# Every conjecture but c7 searches tree space by default. c1, c8, c9 and c10
# hold for all connected graphs, but trees certify them as often, in fewer
# calls; c7's tree searches found nothing. `--no-trees-only` widens them.
REGISTRY: dict[int, ConjectureSpec] = {
    spec.id: spec
    for spec in [
        ConjectureSpec(
            1,
            "spectral-radius-matching",
            "lambda_1 + mu >= sqrt(n-1) + 1 for connected graphs of order n >= 3",
            SearchSpace.TREES,
            3,
            False,
            ("random-tree", 5),
            "sqrt(n-1) + 1 - lambda_1 - mu",
        ),
        ConjectureSpec(
            2,
            "proximity-distance-eigenvalue",
            "pi + partial_floor(2D/3) > 0 for connected graphs of order n >= 4",
            SearchSpace.TREES,
            4,
            False,
            ("path", 13),
            "-pi - partial_floor(2D/3)",
        ),
        ConjectureSpec(
            3,
            "charpoly-peak-location",
            "p_A / m = 1 - p_D / n for every tree",
            SearchSpace.TREES,
            2,
            True,
            ("random-tree", 5),
            "|p_A/m - 1 + p_D/n|",
        ),
        ConjectureSpec(
            4,
            "second-eigenvalue-harmonic",
            "lambda_2 <= H for every graph",
            SearchSpace.TREES,
            1,
            False,
            ("star", 5),
            "lambda_2 - H",
        ),
        ConjectureSpec(
            5,
            "modified-zagreb-order-bound",
            "mM_2 <= (n+1)/4 for every tree",
            SearchSpace.TREES,
            2,
            True,
            ("random-tree", 5),
            "mM_2 - (n+1)/4",
        ),
        ConjectureSpec(
            6,
            "modified-zagreb-domination",
            "mM_2 >= -(gamma-1)/(2(n-gamma)) + (gamma+1)/2 for every tree",
            SearchSpace.TREES,
            2,
            True,
            ("random-tree", 5),
            "-(gamma-1)/(2(n-gamma)) + (gamma+1)/2 - mM_2",
        ),
        ConjectureSpec(
            7,
            "spectral-radius-proximity",
            "lambda_1 * pi <= n - 1 for connected graphs of order n >= 3",
            SearchSpace.CONNECTED,
            3,
            False,
            ("random-tree", 10),
            "lambda_1 * pi - (n - 1)",
        ),
        ConjectureSpec(
            8,
            "connectivity-proximity-cosine",
            "a * pi >= B(n) for connected graphs of order n >= 3, where B(n) is "
            "n^2(1-cos(pi/n))/(2(n-1)) for even n and (n+1)(1-cos(pi/n))/2 for odd n",
            SearchSpace.TREES,
            3,
            False,
            ("random-tree", 5),
            "B(n) - a * pi",
        ),
        ConjectureSpec(
            9,
            "spectral-radius-independence",
            "lambda_1 - alpha >= sqrt(n-1) - n + 1 for connected graphs of order n >= 3",
            SearchSpace.TREES,
            3,
            False,
            ("random-tree", 5),
            "sqrt(n-1) - n + 1 - lambda_1 + alpha",
        ),
        ConjectureSpec(
            10,
            "randic-independence",
            "R + alpha <= n - 1 + sqrt(n-1) for connected graphs of order n >= 3",
            SearchSpace.TREES,
            3,
            False,
            ("random-tree", 5),
            "R + alpha - (n - 1) - sqrt(n-1)",
        ),
    ]
}


def get_conjecture(conjecture_id: int) -> ConjectureSpec:
    try:
        return REGISTRY[conjecture_id]
    except KeyError:
        raise UnknownConjectureError(
            f"unknown conjecture id {conjecture_id}; valid ids are 1..10") from None


@dataclass(frozen=True)
class Score:
    """A score evaluation.

    ``value`` is the float score; ``exact`` is set when the whole score is
    rational and then equals it exactly. ``spectral_error_bound`` bounds the
    absolute error of ``value`` (zero for exact scores, inf for a fast
    spectral score, whose spectrum carries no bound). ``parts`` holds the
    named sub-terms that went into the formula; rational ones are kept as
    int/Fraction. `score` hands a memoised Score to every caller: do not
    mutate ``parts``.
    """

    value: float
    exact: Fraction | None
    spectral_error_bound: float
    parts: dict[str, object]


def _undefined(reason: str) -> Score:
    """Sentinel for in-hypothesis graphs where a sub-term is undefined."""
    return Score(NEG_INF, None, 0.0, {"undefined": reason})


def _slop(*terms: float) -> float:
    """Rounding allowance for a handful of float operations on `terms`; 0 on _Surd."""
    if type(terms[0]) is _Surd:
        return 0.0
    scale = 1.0
    for t in terms:
        scale += abs(t)
    return 32.0 * inv._EPS * scale


def check_hypotheses(conjecture_id: int, g: Graph) -> list[str]:
    """Return the list of violated hypotheses (empty when all hold)."""
    spec = get_conjecture(conjecture_id)
    violations = []
    if g.n < spec.min_order:
        violations.append(f"order {g.n} is below the minimum {spec.min_order}")
    if spec.requires_tree:
        if not g.is_tree():
            violations.append("graph is not a tree")
    elif spec.id != 4 and not g.is_connected():
        # Conjecture 4 is stated for arbitrary graphs; all others need
        # connectivity.
        violations.append("graph is not connected")
    return violations


# -- score functions ----------------------------------------------------------


class _Arithmetic:
    """The numbers a score formula is evaluated in, over a chunk of graphs
    of one order.

    ``spectrum(g, build)`` is chunk member g's ascending eigenvalues of the
    matrix from a builder such as `all_pairs_distances`, ``distances(g)`` its
    diameter and proximity, and ``num`` turns an int or Fraction into a
    number of this arithmetic. Each formula is written once against these:
    in floats, at 60 digits or exactly (`_Exact`). ``over(chunk)`` makes the
    copy that serves a chunk: one stack and solve per builder, a failed solve
    failing every member, and one reduction of the distance stack.
    """

    def __init__(self, solve, sqrt, cos, pi, fsum, num, chunk=()):
        self.solve, self.sqrt, self.cos = solve, sqrt, cos
        self.pi, self.fsum, self.num = pi, fsum, num
        self.chunk, self._done, self._at = chunk, {}, {id(g): i for i, g in enumerate(chunk)}

    def over(self, chunk: list[Graph]) -> _Arithmetic:
        return _Arithmetic(self.solve, self.sqrt, self.cos, self.pi, self.fsum, self.num, chunk)

    def distances(self, g: Graph) -> tuple[int, Fraction]:
        if "distances" not in self._done:
            stack = self._stack(all_pairs_distances)
            self._done["distances"] = list(zip(map(int, stack.max(axis=(1, 2)).tolist()),
                                               inv.proximity(stack)))
        return self._done["distances"][self._at[id(g)]]

    def spectrum(self, g: Graph, build) -> inv.Spectrum:
        if ("spectrum", build) not in self._done:
            try:
                self._done["spectrum", build] = self.solve(self._stack(build))
            except ArithmeticError as exc:
                self._done["spectrum", build] = exc
        solved = self._done["spectrum", build]
        if isinstance(solved, ArithmeticError):
            raise solved
        return solved[self._at[id(g)]]

    def _stack(self, build):
        # One adjacency stack per chunk: Laplacians and non-tree distances derive from it.
        if build not in self._done:
            if build is inv.laplacian_matrix:
                self._done[build] = build(self._stack(adjacency_matrix))
            elif build is all_pairs_distances and any(h.m != h.n - 1 for h in self.chunk):
                self._done[build] = walk_distances(self._stack(adjacency_matrix))
            else:
                self._done[build] = build(self.chunk)
        return self._done[build]


def _floats(polish: bool) -> _Arithmetic:
    return _Arithmetic(lambda stack: inv.symmetric_spectrum(stack, polish=polish),
                       math.sqrt, math.cos, math.pi, math.fsum, float)


def _mp_spectra(stack) -> list[inv.Spectrum]:
    # No bound (inf): verify_strict reads only the value, against its zero band.
    return [inv.Spectrum(tuple(sorted(mp.eigsy(mp.matrix(m.tolist()), eigvals_only=True))),
                         math.inf) for m in stack]


_FAST = _floats(polish=False)
_POLISHED = _floats(polish=True)
# Evaluate inside mp.workdps(_MP_DPS).
_DIGITS60 = _Arithmetic(
    _mp_spectra, mp.sqrt, mp.cos, mp.pi, mp.fsum,
    lambda q: mp.mpf(q.numerator) / q.denominator,
)
# Matrix elements per stack in a `score` chunk, 256 KiB of float64 at most.
_CHUNK_ELEMENTS = 1 << 15


def _score_1(g: Graph, ar: _Arithmetic) -> Score:
    sp = ar.spectrum(g, adjacency_matrix)
    lam = sp.values[-1]
    mu = inv.matching_number(g)
    root = ar.sqrt(g.n - 1)
    value = root + 1.0 - lam - mu
    err = sp.residual_bound + _slop(root, lam, mu)
    return Score(value, None, err, {
        "n": g.n, "sqrt(n-1)": root, "lambda_1": lam, "mu": mu,
    })


def _score_2(g: Graph, ar: _Arithmetic) -> Score:
    # The spectrum first: the exact arithmetic declines a non-tree's before any build.
    sp = ar.spectrum(g, all_pairs_distances)
    diam, prox = ar.distances(g)
    k = (2 * diam) // 3
    if k < 1:
        return _undefined("floor(2*diameter/3) < 1")
    p = ar.num(prox)
    partial = sp.values[-k]
    value = -p - partial
    err = sp.residual_bound + _slop(p, partial)
    return Score(value, None, err, {
        "n": g.n, "proximity": prox, "diameter": diam, "k": k,
        "distance_eigenvalue_k": partial,
    })


def _score_3(g: Graph, ar: _Arithmetic) -> Score:
    p_a, m, p_d = inv.peak_stats(g)
    exact = abs(Fraction(p_a, m) - 1 + Fraction(p_d, g.n))
    return Score(float(exact), exact, 0.0, {
        "n": g.n, "p_a": p_a, "m": m, "p_d": p_d,
    })


def _score_4(g: Graph, ar: _Arithmetic) -> Score:
    if g.n < 2:
        return _undefined("lambda_2 needs at least 2 vertices")
    sp = ar.spectrum(g, adjacency_matrix)
    lam2 = sp.values[-2]
    h = inv.harmonic(g)
    value = lam2 - ar.num(h)
    err = sp.residual_bound + _slop(lam2, ar.num(h))
    return Score(value, None, err, {
        "n": g.n, "lambda_2": lam2, "harmonic": h,
    })


def _score_5(g: Graph, ar: _Arithmetic) -> Score:
    mz = inv.modified_second_zagreb(g)
    exact = mz - Fraction(g.n + 1, 4)
    return Score(float(exact), exact, 0.0, {
        "n": g.n, "modified_second_zagreb": mz,
    })


def _score_6(g: Graph, ar: _Arithmetic) -> Score:
    # c6's trees of order >= 2 have no isolated vertex, so gamma <= n/2 (Ore, 1962).
    gamma = inv.domination_number(g)
    mz = inv.modified_second_zagreb(g)
    exact = -Fraction(gamma - 1, 2 * (g.n - gamma)) + Fraction(gamma + 1, 2) - mz
    return Score(float(exact), exact, 0.0, {
        "n": g.n, "domination_number": gamma, "modified_second_zagreb": mz,
    })


def _score_7(g: Graph, ar: _Arithmetic) -> Score:
    sp = ar.spectrum(g, adjacency_matrix)
    lam = sp.values[-1]
    p = ar.num(prox := ar.distances(g)[1])
    value = lam * p - g.n + 1
    err = sp.residual_bound * p + _slop(lam * p, g.n)
    return Score(value, None, err, {
        "n": g.n, "lambda_1": lam, "proximity": prox,
    })


def _cosine_bound(n: int, ar: _Arithmetic):
    c = 1.0 - ar.cos(ar.pi / n)
    if n % 2 == 0:
        return n * n * c / (2.0 * (n - 1))
    return (n + 1) * c / 2.0


def _score_8(g: Graph, ar: _Arithmetic) -> Score:
    sp = ar.spectrum(g, inv.laplacian_matrix)
    a = sp.values[1]
    p = ar.num(prox := ar.distances(g)[1])
    bound = _cosine_bound(g.n, ar)
    value = bound - a * p
    err = sp.residual_bound * p + _slop(bound, a * p)
    return Score(value, None, err, {
        "n": g.n, "cosine_bound": bound, "algebraic_connectivity": a,
        "proximity": prox,
    })


def _score_9(g: Graph, ar: _Arithmetic) -> Score:
    sp = ar.spectrum(g, adjacency_matrix)
    lam = sp.values[-1]
    alpha = inv.independence_number(g)
    root = ar.sqrt(g.n - 1)
    value = root - g.n + 1.0 - lam + alpha
    err = sp.residual_bound + _slop(root, g.n, lam, alpha)
    return Score(value, None, err, {
        "n": g.n, "sqrt(n-1)": root, "lambda_1": lam, "alpha": alpha,
    })


def _score_10(g: Graph, ar: _Arithmetic) -> Score:
    r = inv.randic(g, ar.num, ar.fsum)
    alpha = inv.independence_number(g)
    root = ar.sqrt(g.n - 1)
    value = r + alpha - g.n + 1.0 - root
    err = _slop(r, alpha, g.n, root) + 8.0 * inv._EPS * g.m
    return Score(value, None, err, {
        "n": g.n, "randic": r, "alpha": alpha, "sqrt(n-1)": root,
    })


_SCORERS: dict[int, Callable[[Graph, _Arithmetic], Score]] = {
    1: _score_1, 2: _score_2, 3: _score_3, 4: _score_4, 5: _score_5,
    6: _score_6, 7: _score_7, 8: _score_8, 9: _score_9, 10: _score_10,
}


def score(conjecture_id: int, g: Graph, *, polish: bool = False) -> Score:
    """Score g against a conjecture; positive means the bound is violated.

    Raises HypothesisError when g does not satisfy the conjecture's
    hypotheses. Returns a -inf sentinel score when the hypotheses hold but
    a sub-term is undefined (e.g. the distance-eigenvalue index floor(2D/3)
    vanishes on graphs of diameter 1).

    The fast score is memoised on the graph object: a repeat call for the
    same conjecture returns the stored Score without re-checking anything.
    Graphs are immutable and evaluation is deterministic, so a hit equals a
    fresh evaluation. polish=True never reads or writes the memo.

    A search asks for a child's value by its class representative
    (graphs.children). A labelled child scored itself gets its own value,
    whose spectrum may differ from the representative's in the last bits.

    The first call on any graph of a brood (an expansion's class
    representatives, or the playouts of a level-1 expansion's children)
    scores all its members that meet the hypotheses, in chunks of one order
    and at most _CHUNK_ELEMENTS matrix elements, each with one stack,
    distance sweep and eigvalsh; any other graph is a brood of one. A member
    whose scorer raises in the batch, for itself or for a stack its chunk
    shares, gets no memo there: it is scored alone at its own call, and g at
    once, unless g was alone in its chunk, whose failure is then g's own.
    """
    if not polish and g._score and g._score[0] == conjecture_id:
        return g._score[1]
    spec_violations = check_hypotheses(conjecture_id, g)
    if spec_violations:
        raise HypothesisError(
            f"conjecture {conjecture_id}: " + "; ".join(spec_violations)
        )
    scorer = _SCORERS[conjecture_id]
    if polish:
        return scorer(g, _POLISHED.over([g]))
    # This call clears the list on every member, so none has a memo yet.
    groups: dict[int, list[Graph]] = {g.n: [g]}
    for b in g._brood or ():
        object.__setattr__(b, "_brood", None)
        if b is not g and not check_hypotheses(conjecture_id, b):
            groups.setdefault(b.n, []).append(b)
    for n, group in groups.items():
        size = max(1, _CHUNK_ELEMENTS // (n * n))
        for start in range(0, len(group), size):
            ar = _FAST.over(group[start:start + size])
            for b in ar.chunk:
                try:
                    object.__setattr__(b, "_score", (conjecture_id, scorer(b, ar)))
                except Exception:  # b is scored alone at its own call
                    if b is g and len(ar.chunk) == 1:
                        raise  # that was g's own evaluation
    if not (g._score and g._score[0] == conjecture_id):
        object.__setattr__(g, "_score", (conjecture_id, scorer(g, _FAST.over([g]))))
    return g._score[1]


# -- strict verification -------------------------------------------------------


class _NotExact(ArithmeticError):
    """The exact arithmetic cannot evaluate this score."""


class _Surd:
    """(p + q*sqrt(c) + l*lam)/d in lowest terms over the integers, d > 0, c
    squarefree or 0 if no root was taken, lam the one eigenvalue a formula
    reads (`_Exact`). Other operands count at their exact value, a float's
    binary one too (formulas write 1.0). Two radicands, or lam times a root
    or lam, raise _NotExact."""

    __slots__ = ("p", "d", "q", "c", "l")

    def __init__(self, p: int, d: int = 1, q: int = 0, c: int = 0, l: int = 0):
        g = math.gcd(p, q, l, d) if d > 0 else -math.gcd(p, q, l, d)
        self.p, self.d, self.q, self.c, self.l = p // g, d // g, q // g, c, l // g

    def _lift(self, x) -> _Surd:
        if type(x) is not _Surd:
            return _Surd(*x.as_integer_ratio())
        if self.c and x.c and self.c != x.c:
            raise _NotExact("two radicands")
        return x

    def __add__(self, x):
        x = self._lift(x)
        return _Surd(self.p * x.d + x.p * self.d, self.d * x.d,
                     self.q * x.d + x.q * self.d, self.c or x.c, self.l * x.d + x.l * self.d)

    def __mul__(self, x):
        x = self._lift(x)
        if self.l and (x.q or x.l) or x.l and self.q:
            raise _NotExact("lam times a root or lam")
        c = self.c or x.c
        return _Surd(self.p * x.p + self.q * x.q * c, self.d * x.d,
                     self.p * x.q + self.q * x.p, c, self.l * x.p + x.l * self.p)

    __radd__, __rmul__ = __add__, __mul__

    def __neg__(self):
        return _Surd(-self.p, self.d, -self.q, self.c, -self.l)

    def __sub__(self, x):
        return self + -self._lift(x)

    def __pow__(self, e):
        # sqrt(x) = s sqrt(c), c squarefree, and c10's x ** -0.5 = sqrt(x)/x.
        if abs(e) != 0.5 or self.q or self.l or self.d != 1 or self.p < 0:
            raise _NotExact("power")
        s = max((f for f in range(1, math.isqrt(self.p) + 1) if self.p % (f * f) == 0), default=1)
        c, d = self.p // (s * s), 1 if e > 0 else self.p
        return _Surd(s * c, d) if c < 2 else _Surd(0, d, s, c)


def _sign(p: int, q: int, c: int) -> int:
    """The sign of p + q*sqrt(c), c squarefree."""
    sp, sq = (p > 0) - (p < 0), (q > 0) - (q < 0)
    if sp * sq >= 0:
        return sp or sq
    # Opposite signs: the larger of p^2 and q^2 c wins, and they differ.
    return sp if p * p > q * q * c else sq


class _Exact:
    """The exact arithmetic on one graph, in _Surd: `_Arithmetic`'s interface
    for a single evaluation, but for cosines, which only c8 reads, after its
    Laplacian spectrum. A tree's adjacency or distance spectrum reads as the
    unknown lam, ``of`` keeps its builder and ``read`` the index read; other
    spectra, or a second one, raise _NotExact."""

    sqrt = staticmethod(lambda x: _Surd(x) ** 0.5)
    num = staticmethod(lambda x: _Surd(*x.as_integer_ratio()))
    distances = staticmethod(lambda g: (int((d := all_pairs_distances(g)).max()),
                                        inv.proximity(d[None])[0]))
    fsum, read, of = sum, None, None

    def spectrum(self, g: Graph, build) -> inv.Spectrum:
        if build not in (adjacency_matrix, all_pairs_distances) or self.of not in (None, build) \
                or not g.is_tree():
            raise _NotExact("no exact spectrum")
        self.of = build
        return inv.Spectrum(self, 0)

    def __getitem__(self, i: int) -> _Surd:
        if self.read not in (None, i):  # a second eigenvalue is a second unknown
            raise _NotExact("two eigenvalues")
        self.read = i
        return _Surd(0, l=1)


def _tree_inertia(g: Graph, t: _Surd) -> tuple[int, int]:
    """How many eigenvalues of tree g's adjacency A lie above t and at t, by Jacobs &
    Trevisan's diagonalisation of A - tI (Linear Algebra Appl. 434, 2011). Each
    entry (p + q sqrt c)/d, c = t.c, is kept as ints (p, q, d) in lowest terms."""
    order, parent = bfs_tree(g)
    c = t.c
    diag, zero_child = [(-t.p, -t.q, t.d)] * g.n, [-1] * g.n
    for v in reversed(order):
        p, q, d = diag[v]
        if zero_child[v] >= 0:
            # That child becomes 2 and v becomes -1/2; v's edge up is cut.
            diag[zero_child[v]], diag[v] = (2, 0, 1), (-1, 0, 2)
        elif v and not (p or q):
            zero_child[parent[v]] = v
        elif v:
            # The parent's entry gains -1/diag[v] = -d(p - q sqrt c)/(p^2 - q^2 c).
            norm, (up, uq, ud) = p * p - q * q * c, diag[parent[v]]
            diag[parent[v]] = _lowest(up * norm - d * p * ud, uq * norm + d * q * ud, ud * norm)
    signs = [_sign(p, q, c) for p, q, _ in diag]
    return signs.count(1), signs.count(0)


def _lowest(p: int, q: int, d: int) -> tuple[int, int, int]:
    k = math.gcd(p, q, d) if d > 0 else -math.gcd(p, q, d)
    return p // k, q // k, d // k


def _distance_inertia(g: Graph, t: _Surd) -> tuple[int, int]:
    """How many eigenvalues of tree g's distance matrix D lie above a rational t < 0
    and at t. D has one positive eigenvalue (Graham & Pollak 1971), and one in (t, 0)
    exactly when D^-1 - I/t = -L/2 - I/t + tau tau^T/(2(n-1)), tau_v = 2 - deg v
    (Graham & Lovasz, Adv. Math. 29, 1978), has a negative one. That is the Schur
    complement of the corner -2(n-1) in g bordered by an apex coupled to each v by
    tau_v, so the counts are the bordered matrix's negative and zero ones (Haynsworth,
    Linear Algebra Appl. 1, 1968). Twice that is eliminated leaves first, as in
    `_tree_inertia`: a vertex's diagonal and apex coupling are ints (a, b, d) for a/d
    and b/d, the apex's entry (c, 0, d) for c/d."""
    order, parent = bfs_tree(g)
    s, r = -t.p, t.d  # -2/t = 2r/s
    ent = [(2 * r - s * len(nbrs), 2 * s * (2 - len(nbrs)), s) for nbrs in g._adj]
    apex, zero_child, neg, zero = (-4 * (g.n - 1), 0, 1), [-1] * g.n, 0, 0
    for v in reversed(order):
        (a, b, d), u, z = ent[v], parent[v], zero_child[v]
        if z >= 0:
            # The (1, 1) block {z, v} cuts v's edge up and takes z's coupling off u's.
            neg, (_, bz, dz) = neg + 1, ent[z]
            if apex:
                apex = _lowest(apex[0] * d * dz * dz - (2 * b * dz - a * bz) * bz * apex[2],
                               0, apex[2] * d * dz * dz)
                if v:
                    pa, pb, pd = ent[u]
                    ent[u] = _lowest(pa * dz, pb * dz - bz * pd, pd * dz)
        elif a == 0 and v and zero_child[u] < 0:
            zero_child[u] = v
        elif a == 0:
            # The root, or a second zero child less the first: coupled to the apex alone.
            if v:
                _, bz, dz = ent[zero_child[u]]
                b = b * dz - bz * d
            if apex and b:  # the (1, 1) block with the apex clears every coupling left
                neg, apex = neg + 1, None
            else:
                zero += 1
        else:
            neg += a < 0
            if apex and b:
                apex = _lowest(apex[0] * d * a - b * b * apex[2], 0, apex[2] * d * a)
            if v:
                pa, pb, pd = ent[u]
                ent[u] = _lowest(pa * a - d * pd, pb * a - b * pd, pd * a)
    if apex:
        neg, zero = neg + (apex[0] < 0), zero + (apex[0] == 0)
    return neg, zero


def _exact_sign(conjecture_id: int, g: Graph) -> int | None:
    """The sign of g's score in exact arithmetic, or None if that declines;
    verify_strict asks it first, before any float eigensolve.

    One pass of the formula decides a rational score. A formula reading the
    k-th largest eigenvalue lam_k of a tree's adjacency (or, for c2, distance)
    matrix gives a + b*lam_k instead, zero at t = -a/b, and that matrix's
    inertia count (`_tree_inertia`, `_distance_inertia`) places lam_k against t.

    c8 scores exactly 0 on every path: a(P_n) = 2(1 - cos(pi/n)) (Fiedler,
    Czech. Math. J. 23, 1973), and pi(P_n) is (n+1)/4 for odd n and
    n^2/(4(n-1)) for even n, so a * pi equals B(n)."""
    if conjecture_id == 8 and g.is_tree() and max(map(len, g._adj)) <= 2:
        return 0
    try:
        sc = _SCORERS[conjecture_id](g, ar := _Exact())
    except _NotExact:
        return None
    v = sc.value if sc.exact is None else sc.exact
    if type(v) is not _Surd:  # a Fraction, or -inf for an undefined sub-term
        return (v > 0) - (v < 0)
    if not v.l:
        return _sign(v.p, v.q, v.c)
    inertia = _distance_inertia if ar.of is all_pairs_distances else _tree_inertia
    above, equal = inertia(g, _Surd(-v.p, v.l, -v.q, v.c))
    k = g.n - range(g.n)[ar.read]
    return (1 if v.l > 0 else -1) * (1 if above >= k else 0 if above + equal >= k else -1)


def verify_strict(conjecture_id: int, g: Graph) -> Verdict:
    """Final arbiter for counterexample candidates.

    Hypotheses are re-checked, then the score formula is evaluated once in
    exact arithmetic (`_exact_sign`). That decides every rational score, c1, c2,
    c4, c7 and c9 on trees at any order, c8 on paths, and c10 on one radicand.
    What it declines (c8 off paths, spectra of non-trees, c10 on two radicands)
    is recomputed with tight residual bounds; a band that still straddles zero
    is re-evaluated at 60 digits, or is Uncertain above MP_MAX_ORDER.
    """
    if check_hypotheses(conjecture_id, g):
        return Verdict.REJECTED
    sign = _exact_sign(conjecture_id, g)
    if sign is not None:
        return Verdict.CERTIFIED if sign > 0 else Verdict.REJECTED
    sc = _SCORERS[conjecture_id](g, _POLISHED.over([g]))
    err = sc.spectral_error_bound
    if sc.value - err > 0:
        return Verdict.CERTIFIED
    if sc.value + err < 0:
        return Verdict.REJECTED
    if g.n > MP_MAX_ORDER:
        return Verdict.UNCERTAIN
    with mp.workdps(_MP_DPS):
        refined = _SCORERS[conjecture_id](g, _DIGITS60.over([g])).value
    # Anything within 10^-45 of zero is treated as exactly zero, which a
    # counterexample must strictly exceed.
    zero_band = mp.mpf(10) ** -45
    return Verdict.CERTIFIED if refined > zero_band else Verdict.REJECTED
