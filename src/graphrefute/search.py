"""Nested and adaptive Monte Carlo search over graph spaces.

The nested search (NMCS) at level 0 plays a fixed number of random forward
moves and keeps the result only on strict improvement; at level L >= 1 it
expands every legal child and recurses at level L - 1. The adaptive outer
loop (AMCS) retries failed searches with growing depth, then growing level,
randomly pruning the incumbent back toward the initial order before each
attempt so the search can escape local maxima.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from typing import Callable

from .graphs import (
    Graph,
    GraphError,
    SearchSpace,
    apply_move,
    children,
    playouts,
    random_playout,
    removable_vertices,
)

ScoreFn = Callable[[Graph], float]


@dataclass(frozen=True)
class SearchParams:
    """Knobs of an `amcs` run; `nmcs` takes its depth and level directly."""

    max_depth: int = 5
    max_level: int = 3
    trees_only: bool = False
    seed: int = 0
    time_budget: float | None = None  # seconds; None = unlimited
    tau: float = 1e-9


@dataclass(frozen=True)
class TraceRecord:
    """One outer-loop pass: the candidate produced and whether it won."""

    pass_index: int
    iteration: int
    depth: int
    level: int
    n: int
    m: int
    score: float
    accepted: bool


@dataclass
class SearchResult:
    best_graph: Graph
    best_score: float
    found: bool
    iterations: int  # accepted improvements
    loop_passes: int
    elapsed: float
    budget_exhausted: bool
    trace: list[TraceRecord] = field(default_factory=list)


def _level0(g: Graph, g_score: float, out: Graph, score_fn: ScoreFn) -> tuple[Graph, float]:
    """Level 0 from g, given its playout: the playout if it scores higher."""
    out_score = score_fn(out)
    return (out, out_score) if out_score > g_score else (g, g_score)


def _nmcs(
    g: Graph,
    g_score: float,
    depth: int,
    level: int,
    score_fn: ScoreFn,
    space: SearchSpace,
    rng: random.Random,
    deadline: float | None,
) -> tuple[Graph, float]:
    if level == 0:
        return _level0(g, g_score, random_playout(g, depth, space, rng), score_fn)
    best, best_score = g, g_score
    # A depth-0 level-1 expansion reads only its children's values.
    kids, reps = children(g, space, level == 1 and not depth)
    # Level 1 draws every playout up front, in loop order: nothing else here uses rng.
    outs = playouts(kids, depth, space, rng) if level == 1 else kids
    for child, rep, out in zip(kids, reps, outs):
        if deadline is not None and time.perf_counter() > deadline:
            break
        # An isomorphic child's value is its class representative's.
        child_score = score_fn(kids[rep])
        if level == 1:
            result, result_score = _level0(child, child_score, out, score_fn)
        else:
            result, result_score = _nmcs(
                child, child_score, depth, level - 1, score_fn, space, rng, deadline
            )
        if result_score > best_score:
            best, best_score = result, result_score
    return best, best_score


def nmcs(
    g: Graph,
    depth: int,
    level: int,
    score_fn: ScoreFn,
    space: SearchSpace,
    rng: random.Random | None = None,
) -> Graph:
    """Run one nested search from g and return the best graph seen.

    The input g itself is returned when no strict improvement is found.
    """
    if depth < 0 or level < 0:
        raise ValueError("depth and level must be non-negative")
    if rng is None:
        rng = random.Random(0)
    best, _ = _nmcs(g, score_fn(g), depth, level, score_fn, space, rng, None)
    return best


def prune(g: Graph, min_order: int, depth: int, rng: random.Random) -> Graph:
    """Randomly shrink g, never below min_order.

    Each step fires with probability depth / (depth + 1) and removes one
    uniformly chosen leaf or smoothable degree-2 vertex; the first failed
    draw (or running out of candidates) stops the loop. At depth 0 the graph
    is always returned unchanged.
    """
    while g.n > min_order:
        if rng.random() >= depth / (depth + 1.0):
            break
        candidates = removable_vertices(g)
        if not candidates:
            break
        g = apply_move(g, rng.choice(candidates))
    return g


def amcs(
    initial: Graph,
    params: SearchParams,
    score_fn: ScoreFn,
    space: SearchSpace | None = None,
    rng: random.Random | None = None,
) -> SearchResult:
    """Adaptive search: NMCS attempts with escalating depth and level.

    Accepting a strictly better graph resets depth and level; a failed
    attempt first deepens the playouts, then raises the nesting level. The
    search stops as soon as the score exceeds params.tau, when the level
    would exceed params.max_level, or when the time budget runs out.

    Identical (initial, params, rng seed) replay the same trace, provided
    the time budget does not bind.
    """
    if params.max_depth < 0 or params.max_level < 0:
        raise ValueError("max_depth and max_level must be non-negative")
    if not math.isfinite(params.tau):
        raise ValueError("tau must be finite")
    budget = params.time_budget
    if budget is not None and not 0 <= budget < math.inf:
        raise ValueError("time_budget must be finite and non-negative")
    if space is None:
        space = SearchSpace.TREES if params.trees_only else SearchSpace.CONNECTED
    trees = space is SearchSpace.TREES
    if not (initial.is_tree() if trees else initial.is_connected()):
        need = "a tree" if trees else "a connected graph"
        raise GraphError(f"initial graph is not {need}, which the search space requires")
    if rng is None:
        rng = random.Random(params.seed)
    start = time.perf_counter()
    deadline = None if budget is None else start + budget
    min_order = initial.n
    best, best_score = initial, score_fn(initial)
    depth, level = 0, 1
    iterations = 0
    loop_passes = 0
    budget_exhausted = False
    trace = [TraceRecord(0, 0, 0, 0, initial.n, initial.m, best_score, True)]
    while best_score <= params.tau and level <= params.max_level:
        if deadline is not None and time.perf_counter() > deadline:
            budget_exhausted = True
            break
        loop_passes += 1
        pruned = prune(best, min_order, depth, rng)
        candidate, cand_score = _nmcs(
            pruned,
            score_fn(pruned),
            depth,
            level,
            score_fn,
            space,
            rng,
            deadline,
        )
        accepted = cand_score > best_score
        used_depth, used_level = depth, level
        if accepted:
            best, best_score = candidate, cand_score
            depth, level = 0, 1
            iterations += 1
        elif depth < params.max_depth:
            depth += 1
        else:
            depth = 0
            level += 1
        trace.append(
            TraceRecord(
                loop_passes,
                iterations,
                used_depth,
                used_level,
                candidate.n,
                candidate.m,
                cand_score,
                accepted,
            )
        )
    elapsed = time.perf_counter() - start
    return SearchResult(
        best_graph=best,
        best_score=best_score,
        found=best_score > params.tau,
        iterations=iterations,
        loop_passes=loop_passes,
        elapsed=elapsed,
        budget_exhausted=budget_exhausted,
        trace=trace,
    )
