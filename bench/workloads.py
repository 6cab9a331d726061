"""The three workloads: inputs from the seed, one timed round, and checks.

Every workload is a closed loop: one case at a time, each starting when the
previous one ends. A search case copies the per-seed loop of
``graphrefute refute`` (``amcs``, then ``verify_strict``) through the library
API, with no time budget: it ends by certification, by exhausting its
levels, or when the benchmark's score function has spent its evaluation cap.
So a round does the same work however loaded the machine is. A case that
finds no counterexample verifies its best graph after its timed work, so
that every case has a verdict. The latency behind verify_* is timed after
the round's cases, outside their time. The load probe (load.py) is offered a
turn before every score evaluation, verification and certify entry; its
time is left out of every unit's time, and every unit's time is recorded
load-corrected.
"""

from __future__ import annotations

import hashlib
import random
import time
import traceback
from dataclasses import dataclass, field

import corpus
from load import LoadProbe

# c2 is the headline conjecture. Its search from path:13 is the same for
# every seed until the first rejected pass, crosses order 64 (the switch from
# BFS to matmul distances) after ~7.7k evaluations and reaches order 66 by
# 8k. A full certification (~81k evaluations) is too long to repeat.
C2_CAP = 8_000
# Conjectures 1 and 3-10 from their catalog starts: conjecture -> (cap,
# budget). A case is capped a little above the evaluations its typical seed
# needs to certify (c3 certifies its start graph), so a stuck case, common
# for c7 and c8, costs about as much as a successful one. Each conjecture
# runs cases with fresh seeds, one after another, until it has spent its
# budget in the round: about eighteen typical cases; ten for c3 and c6,
# whose cases take milliseconds. The last case gets only what is left of the
# budget; if that cuts it short, its outcome is "cut" and it counts in
# neither certified_frac nor ttc_p50_s. So the round's evaluations, and
# their mix over the conjectures, do not depend on the seed or on how many
# cases certify. With eighteen c3 and c6 cases, the median case time fell
# on the gap between the c5/c8 cases (60-90 ms) and the c1/c9 cases
# (100-115 ms), and ttc_p50_s jumped between them from seed to seed.
SUITE = {1: (2_500, 36_000), 3: (100, 10), 4: (2_500, 33_600), 5: (1_500, 19_200),
         6: (1_200, 1_900), 7: (2_000, 28_800), 8: (1_200, 17_600), 9: (2_500, 36_000),
         10: (600, 7_600)}
# Search seeds drawn per conjecture; no budget comes near needing this many.
SEEDS_PER_CONJECTURE = 256

# Hypotheses restated here so that certified hits are checked independently
# of conjectures.check_hypotheses: (minimum order, required structure).
HYPOTHESES = {
    1: (3, "connected"), 2: (4, "connected"), 3: (2, "tree"), 4: (1, "any"),
    5: (2, "tree"), 6: (2, "tree"), 7: (3, "connected"), 8: (3, "connected"),
    9: (3, "connected"), 10: (3, "connected"),
}


class EvalCap(Exception):
    """Raised by the capped score function once a case's cap is spent."""


@dataclass
class CaseResult:
    label: str
    conjecture: int
    outcome: str  # a verdict, "exhausted", "capped", "cut" or "error"
    verdict: str | None
    order: int
    time_s: float  # load-corrected
    verify_ms: list[float]  # load-corrected
    # Verifications that are part of the case's time.
    timed_verifies: int = 0
    evals: int = 0
    failed_evals: int = 0
    digest: str = ""
    graph: object = None
    passes: int = 0
    accepted: int = 0

    @property
    def certified(self) -> bool:
        return self.outcome == corpus.CERTIFIED


@dataclass
class Round:
    wall_s: float
    cases: list[CaseResult]
    families: list = field(default_factory=list)
    # Timed work outside the cases: graph6 re-encoding and family sweeps.
    # Load-corrected, like the cases' times.
    extra_s: list[float] = field(default_factory=list)

    def signature(self) -> list[tuple]:
        """Everything a round decides, without timings; equal across rounds."""
        sig = [(c.label, c.outcome, c.verdict, c.order, c.evals, c.digest) for c in self.cases]
        for report in self.families:
            sig.append((report.name, tuple(c.line() for c in report.checks)))
        return sig


# -- search cases ------------------------------------------------------------


@dataclass(frozen=True)
class SearchCase:
    conjecture: int
    seed: int
    cap: int

    @property
    def label(self) -> str:
        return f"c{self.conjecture}/seed{self.seed}"


class CappedScore:
    """The search's score function: counts, caps and digests evaluations,
    and offers the load probe a turn before each."""

    def __init__(self, prog, conjecture: int, cap: int, probe):
        self._conjectures = prog.conjectures
        self.conjecture = conjecture
        self.cap = cap
        self.probe = probe
        self.probe_s = 0.0
        self.evals = 0
        self.failed = 0
        self.best_value = float("-inf")
        self.best_graph = None
        self.digest = hashlib.sha256()

    def __call__(self, g) -> float:
        if self.evals >= self.cap:
            raise EvalCap
        self.probe_s += self.probe()
        self.evals += 1
        try:
            value = self._conjectures.score(self.conjecture, g).value
        except Exception:
            self.failed += 1
            raise
        self.digest.update(f"{g.n} {g.m} {value!r}\n".encode())
        if value > self.best_value or self.best_graph is None:
            self.best_value, self.best_graph = value, g
        return value


def _timed_verify(conjectures, conjecture: int, g, probe) -> tuple[str, float]:
    """The verdict and the load-corrected time of the call, in ms."""
    probe()
    start = time.perf_counter()
    verdict = conjectures.verify_strict(conjecture, g).value
    return verdict, probe.correct(start, time.perf_counter() - start) * 1e3


def run_search_case(prog, case: SearchCase, probe, tracer=None) -> CaseResult:
    spec = prog.conjectures.get_conjecture(case.conjecture)
    rng = random.Random(case.seed)
    kind, order = spec.initial
    if kind == "random-tree":
        initial = prog.graphs.random_tree(order, rng)
    else:
        initial = prog.graphs.construct(kind, order)
    params = prog.search.SearchParams(
        trees_only=spec.space is prog.graphs.SearchSpace.TREES, seed=case.seed
    )
    scorer = CappedScore(prog, case.conjecture, case.cap, probe)
    start = time.perf_counter()
    result = None
    outcome = "capped"
    try:
        result = prog.search.amcs(initial, params, scorer, spec.space, rng)
    except EvalCap:
        pass
    except Exception:  # counted as a failed case; the round goes on
        traceback.print_exc()
        outcome = "error"
    graph = result.best_graph if result is not None else scorer.best_graph
    found = result is not None and result.found
    verdict = None
    if found:  # as `graphrefute refute` does
        verdict = prog.conjectures.verify_strict(case.conjecture, graph).value
    end = time.perf_counter()
    if result is not None:
        outcome = verdict if found else "exhausted"
        for line in prog.cli._trace_lines(case.seed, result):
            scorer.digest.update(line.encode() + b"\n")
    if verdict is None and graph is not None:
        # No counterexample: its best graph is verified once, after the search.
        verdict = prog.conjectures.verify_strict(case.conjecture, graph).value
    scorer.digest.update(f"evals={scorer.evals}\n".encode())
    res = CaseResult(
        label=case.label,
        conjecture=case.conjecture,
        outcome=outcome,
        verdict=verdict,
        order=graph.n if graph is not None else 0,
        time_s=probe.correct(start, end - start - scorer.probe_s),
        verify_ms=[],
        timed_verifies=int(found),
        evals=scorer.evals,
        failed_evals=scorer.failed,
        digest=scorer.digest.hexdigest()[:16],
        graph=graph,
    )
    if tracer is not None:
        if result is not None:
            res.passes, res.accepted = result.loop_passes, result.iterations
        else:
            res.passes, res.accepted = tracer.case_passes, tracer.case_accepted
    return res


def _independent_hypotheses_ok(conjecture: int, g) -> bool:
    min_order, structure = HYPOTHESES[conjecture]
    if g.n < min_order:
        return False
    if structure == "any":
        return True
    seen = {0}
    stack = [0]
    while stack:
        for v in g.neighbors(stack.pop()):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    if len(seen) != g.n:
        return False
    return structure != "tree" or g.m == g.n - 1


class SearchWorkload:
    def __init__(self, name: str, conjectures: dict, rounds: int, trace_pairs: int,
                 verify_sweeps: int):
        self.name = name
        self.conjectures = conjectures  # conjecture -> (cap, budget)
        self.rounds = rounds
        self.trace_pairs = trace_pairs
        # Sweeps of verify_strict over the round's verified graphs after each
        # untraced round; a graph's latency is its mean call over all the
        # sweeps of all rounds.
        self.verify_sweeps = verify_sweeps

    def build(self, prog, seed: int) -> dict[int, list[int]]:
        """The search seeds of each conjecture, in the order the cases use them."""
        rng = random.Random(f"graphrefute-bench:{self.name}:{seed}")
        return {c: [rng.randrange(1, 10**6) for _ in range(SEEDS_PER_CONJECTURE)]
                for c in self.conjectures}

    def warm_up(self, prog, seeds) -> None:
        probe = LoadProbe()
        for conjecture in self.conjectures:
            run_search_case(prog, SearchCase(conjecture, seeds[conjecture][0], 400), probe)
        # The matmul distance path and a larger eigensolve, as c2 reaches them.
        prog.conjectures.score(2, prog.graphs.path(80))

    def run_round(self, prog, seeds, probe, tracer=None) -> Round:
        results = []
        start = time.perf_counter()
        for conjecture, (cap, budget) in self.conjectures.items():
            spent = 0
            for seed in seeds[conjecture]:
                if spent >= budget:
                    break
                if tracer is not None:
                    tracer.start_case(len(results))
                # The last case gets what is left of the budget, so that a
                # conjecture spends exactly its budget whatever the seed.
                case = SearchCase(conjecture, seed, min(cap, budget - spent))
                res = run_search_case(prog, case, probe, tracer)
                if case.cap < cap and res.outcome == "capped":
                    res.outcome = "cut"  # by the budget, not by its own cap
                results.append(res)
                spent += res.evals
        if tracer is None:  # traced rounds report no verify_*
            # The graphs `graphrefute refute` verifies: the counterexamples
            # found; in a round that finds none (c2-prefix), the best graphs.
            timed = ([c for c in results if c.certified]
                     or [c for c in results if c.graph is not None])
            total_ms = [0.0] * len(timed)
            for _ in range(self.verify_sweeps):
                for i, c in enumerate(timed):
                    total_ms[i] += _timed_verify(prog.conjectures, c.conjecture, c.graph,
                                                 probe)[1]
            for c, ms in zip(timed, total_ms):
                c.verify_ms = [ms / self.verify_sweeps]
        return Round(time.perf_counter() - start, results)

    def check(self, prog, seeds, rnd: Round) -> list[str]:
        problems = []
        for c in rnd.cases:
            if not c.certified:
                continue
            if not _independent_hypotheses_ok(c.conjecture, c.graph):
                problems.append(f"{c.label}: certified hit violates the hypotheses")
            again = prog.conjectures.verify_strict(c.conjecture, c.graph).value
            if again != corpus.CERTIFIED:
                problems.append(f"{c.label}: certified hit re-verifies as {again}")
        return problems


# -- certify -----------------------------------------------------------------


class CertifyWorkload:
    name = "certify"
    rounds = 30
    trace_pairs = 8

    def build(self, prog, seed: int) -> list[corpus.Entry]:
        return corpus.build(prog, seed)

    def warm_up(self, prog, entries) -> None:
        for e in entries[:: max(1, len(entries) // 12)]:
            prog.conjectures.verify_strict(e.conjecture, prog.codec.decode_graph6(e.graph6))
        prog.conjectures.verify_strict(9, prog.graphs.star(12))  # mpmath escalation
        prog.families.verify_family("T2B", [1, 2, 3])

    def run_round(self, prog, entries, probe, tracer=None) -> Round:
        results, extra_s = [], []
        start = time.perf_counter()
        for i, e in enumerate(entries):
            if tracer is not None:
                tracer.start_case(i)
            probe()
            t0 = time.perf_counter()
            g = prog.codec.decode_graph6(e.graph6)
            verdict, ms = _timed_verify(prog.conjectures, e.conjecture, g, probe)
            t1 = time.perf_counter()
            roundtrip = prog.codec.encode_graph6(g) == e.graph6
            extra_s.append(probe.correct(t1, time.perf_counter() - t1))
            results.append(CaseResult(
                label=e.label, conjecture=e.conjecture, outcome=verdict,
                verdict=verdict, order=g.n, time_s=probe.correct(t0, t1 - t0), verify_ms=[ms],
                timed_verifies=1, graph=g,
                digest="graph6-ok" if roundtrip else "graph6-mismatch",
            ))
        if tracer is not None:
            tracer.start_case(len(entries))
        reports = []
        for name, params in corpus.FAMILY_SWEEPS:
            probe()
            t0 = time.perf_counter()
            reports.append(prog.families.verify_family(name, list(params)))
            extra_s.append(probe.correct(t0, time.perf_counter() - t0))
        return Round(time.perf_counter() - start, results, reports, extra_s)

    def check(self, prog, entries, rnd: Round) -> list[str]:
        problems = []
        inv, oracles = prog.invariants, prog.oracles
        for e, c in zip(entries, rnd.cases):
            expected = e.expected
            if expected == corpus.BY_REFERENCE:
                expected = corpus.c3_reference(c.graph.n, list(c.graph.edges()))
            if c.verdict not in (expected, corpus.UNCERTAIN):
                problems.append(f"{e.label}: verdict {c.verdict}, expected {expected}")
            if c.digest != "graph6-ok":
                problems.append(f"{e.label}: graph6 round trip changed the graph")
            if c.graph.n <= 10:
                g = c.graph
                pairs = [
                    (inv.matching_number(g), oracles.matching_number_exhaustive(g)),
                    (inv.independence_number(g), oracles.independence_number_exhaustive(g)),
                    (inv.domination_number(g), oracles.domination_number_exhaustive(g)),
                ]
                if any(fast != slow for fast, slow in pairs):
                    problems.append(f"{e.label}: exact solvers disagree with oracles {pairs}")
        mismatches = {
            (r.name, chk.quantity, chk.p) for r in rnd.families for chk in r.checks if not chk.ok
        }
        if mismatches != corpus.EXPECTED_FAMILY_MISMATCHES:
            problems.append(f"family mismatches {sorted(mismatches)}, expected "
                            f"{sorted(corpus.EXPECTED_FAMILY_MISMATCHES)}")
        return problems


# Each workload runs a fixed number of timed rounds, so that two versions of
# the program average their unit times over the same number of samples;
# `--seconds` is only a ceiling. A traced run alternates untraced
# and traced rounds, `trace_pairs` of each.
WORKLOADS = {
    "c2-prefix": SearchWorkload("c2-prefix", {2: (C2_CAP, C2_CAP)}, rounds=2, trace_pairs=1,
                                verify_sweeps=600),
    "search-suite": SearchWorkload("search-suite", SUITE, rounds=1, trace_pairs=1,
                                   verify_sweeps=60),
    "certify": CertifyWorkload(),
}
