"""Benchmark graphrefute on one workload: end to end, or per layer when traced.

Run from the repository root:

    python3 bench/run.py --workload certify --seed 1 --seconds 48 --trace 0

Workloads (see workloads.py): ``c2-prefix``, ``search-suite``, ``certify``.
A round is the workload's fixed work for the seed. Each workload runs a fixed
number of rounds, one at a time; ``--seconds`` is only a ceiling, reached
when the machine is far slower than usual. Every round must decide exactly
what the first one did. Every time reported is load-corrected by a probe
that runs between units of the work (load.py).

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced rounds and reports per-layer calls and self time,
counters at layer boundaries and the tracing overhead; the spans are written
to ``.bench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 1
when the correctness gate fails and 2 when the program cannot be imported.
"""

import os

# One BLAS thread, set before numpy is first imported: under contention the
# multithreaded matmul distance path took 200-500 ms a call.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

from load import LoadProbe  # noqa: E402
from spans import LAYER_NAMES, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MODULES = ("graphs", "codec", "invariants", "oracles", "conjectures", "search", "families", "cli")
# Set-up (import of the program plus building the inputs) is repeated, here
# and once after every round, and its median reported.
SETUP_REPEATS = 9


class ProgramMissing(Exception):
    pass


def import_program():
    """Import graphrefute afresh from this checkout's src/."""
    for name in [m for m in sys.modules if m == "graphrefute" or m.startswith("graphrefute.")]:
        del sys.modules[name]
    try:
        modules = {name: importlib.import_module(f"graphrefute.{name}") for name in MODULES}
    except ImportError as exc:
        raise ProgramMissing(f"cannot import graphrefute from {SRC}: {exc}") from exc
    package = sys.modules["graphrefute"]
    if Path(package.__file__).resolve().parent != (SRC / "graphrefute").resolve():
        raise ProgramMissing(f"graphrefute was imported from {package.__file__}, not {SRC}")
    warnings.simplefilter("ignore", modules["invariants"].PerformanceWarning)
    return SimpleNamespace(**modules), {**modules, "graphrefute": package}


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    threads = None
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("Threads:"):
                    threads = int(line.split()[1])
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "process_threads": threads,
    }


def set_up(workload, seed: int):
    start = time.perf_counter()
    prog, modules = import_program()
    inputs = workload.build(prog, seed)
    return time.perf_counter() - start, prog, modules, inputs


class Measurement:
    """Rounds of the same work, with the load probe that ran between their
    units. The first round is kept whole; each later one must decide the same
    and is added into per-unit sums, so memory does not grow with the number
    of rounds.

    A unit of work (a search case, a verification, a graph6 re-encoding, a
    family sweep) is reported as its mean load-corrected time over the
    rounds.
    """

    def __init__(self):
        self.first = None
        self.walls: list[float] = []
        self.mismatches = 0
        self.added = 0
        self.probe = LoadProbe()

    def _mean(self, sums: list[float]) -> list[float]:
        return [x / self.added for x in sums]

    def case_s(self) -> list[float]:
        return self._mean(self.case_sums)

    def verify_ms(self) -> list[float]:
        return self._mean(self.verify_sums)

    def work_s(self) -> float:
        """The round's fixed work: its cases plus the timed work outside
        them."""
        return sum(self._mean(self.case_sums + self.extra_sums))

    def add(self, rnd) -> None:
        self.walls.append(rnd.wall_s)
        case_s = [c.time_s for c in rnd.cases]
        verify_ms = [ms for c in rnd.cases for ms in c.verify_ms]
        if self.first is None:
            self.first, self.decided = rnd, rnd.signature()
            self.case_sums, self.verify_sums, self.extra_sums = case_s, verify_ms, rnd.extra_s
        elif rnd.signature() != self.decided:
            self.mismatches += 1
            return
        else:
            self.case_sums = _add(self.case_sums, case_s)
            self.verify_sums = _add(self.verify_sums, verify_ms)
            self.extra_sums = _add(self.extra_sums, rnd.extra_s)
        self.added += 1


def _add(a: list[float], b: list[float]) -> list[float]:
    return [x + y for x, y in zip(a, b)]


def measure(workload, prog, inputs, m: Measurement, tracer=None, between=None) -> float:
    """Run one round into `m` and return its wall time."""
    gc.collect()
    if tracer is not None:
        tracer.install()
        m.probe.tracer = tracer
    try:
        m.add(workload.run_round(prog, inputs, m.probe, tracer))
    finally:
        if tracer is not None:
            tracer.uninstall()
            m.probe.tracer = None
    if between is not None:
        between()
    return m.walls[-1]


def _p90(values):
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


def end_to_end(m: Measurement, setup_times) -> dict:
    wall = m.work_s()
    verify_ms = m.verify_ms()
    cases = m.first.cases
    ended = [c for c in cases if c.outcome != "cut"]  # not cut short by a budget
    case_s = [s for c, s in zip(cases, m.case_s()) if c.outcome != "cut"]
    verdicts = [c.verdict for c in cases if c.verdict is not None]
    # Score evaluations by the searches plus the strict verifications within wall_s.
    evals = sum(c.evals + c.timed_verifies for c in cases)
    values = {
        "setup_s": (statistics.median(setup_times) * m.probe.factor(), "s"),
        "wall_s": (wall, "s"),
        "evals_per_s": (evals / wall, "evals/s"),
        "order_reached": (statistics.fmean(c.order for c in cases), "vertices"),
        # A case that does not certify counts with its whole duration.
        "ttc_p50_s": (statistics.median(case_s), "s"),
        "certified_frac": (sum(c.certified for c in ended) / len(ended), "ratio"),
        "verify_p50_ms": (statistics.median(verify_ms), "ms"),
        "verify_p90_ms": (_p90(verify_ms), "ms"),
        "uncertain_frac": (verdicts.count("uncertain") / len(verdicts) if verdicts else 0.0,
                           "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def per_layer(untraced: Measurement, traced: Measurement, tracer) -> dict:
    count = len(traced.walls)
    traced_wall = traced.work_s()
    untraced_wall = untraced.work_s()
    out = {}
    for name in LAYER_NAMES:
        out[f"{name}.calls"] = (tracer.calls[name] / count, "count")
        out[f"{name}.self_s"] = (tracer.self_s[name] / count, "s")
    moves_calls = tracer.calls["graphs.legal_moves"]
    out["graphs.legal_moves.moves_per_call"] = (
        tracer.counts["graphs.legal_moves.moves"] / moves_calls if moves_calls else 0.0, "ratio")
    out["graphs.all_pairs_distances.self_share"] = (
        tracer.self_s["graphs.all_pairs_distances"] / sum(traced.walls), "ratio")
    out["conjectures.mp_escalations"] = (tracer.counts["conjectures.mp_escalations"] / count, "count")
    cases = traced.first.cases
    passes = sum(c.passes for c in cases)
    out["search.accept_ratio"] = (sum(c.accepted for c in cases) / passes if passes else 0.0, "ratio")
    out["search.evals_per_pass"] = (sum(c.evals for c in cases) / passes if passes else 0.0, "ratio")
    out["trace.wall_s"] = (traced_wall, "s")
    # Both load-corrected, over interleaved rounds, so that a slow spell of
    # the machine does not read as tracing cost.
    out["trace.overhead_ratio"] = (traced_wall / untraced_wall, "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


def attempted_failed(name: str, rnd) -> tuple[int, int]:
    if name == "c2-prefix":  # operations are score evaluations
        return sum(c.evals for c in rnd.cases), sum(c.failed_evals for c in rnd.cases)
    if name == "search-suite":  # a case that ends without certifying failed
        ended = [c for c in rnd.cases if c.outcome != "cut"]
        return len(ended), sum(not c.certified for c in ended)
    return len(rnd.cases), sum(c.verdict == "uncertain" for c in rnd.cases)


def _walls(m: Measurement) -> str:
    return " ".join(f"{w:.3f}s" for w in m.walls)


def print_rounds(m: Measurement, label: str = "rounds") -> None:
    times = m.probe.times
    print(f"{label}: {_walls(m)}; load probe: {len(times)} calls, fastest "
          f"{min(times) * 1e3:.4f}ms, mean {statistics.fmean(times) * 1e3:.4f}ms, "
          f"factor {m.probe.factor():.4f}")
    for c, time_s in zip(m.first.cases, m.case_s()):
        verify = f"{c.verify_ms[-1]:.2f}ms" if c.verify_ms else "-"
        print(f"case {c.label} outcome={c.outcome} verdict={c.verdict} n={c.order} "
              f"evals={c.evals} time={time_s:.4f}s verify={verify} digest={c.digest}")


def print_layers(metrics: dict, wall: float) -> None:
    """One line per layer; `wall` is the mean traced round, as self_s is per round."""
    rows = sorted(LAYER_NAMES, key=lambda n: -metrics[f"{n}.self_s"]["value"])
    for name in rows:
        self_s = metrics[f"{name}.self_s"]["value"]
        print(f"layer {name:34s} calls={metrics[f'{name}.calls']['value']:>10.0f} "
              f"self={self_s:9.4f}s share={self_s / wall:6.1%}")
    share = metrics["graphs.all_pairs_distances.self_share"]["value"]
    print(f"largest self time: {rows[0]}; graphs.all_pairs_distances share of traced wall: {share:.1%}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    sys.path.insert(0, str(SRC))
    setup_times = []
    try:
        for _ in range(SETUP_REPEATS):
            seconds, prog, modules, inputs = set_up(workload, args.seed)
            setup_times.append(seconds)
    except ProgramMissing as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    env = environment()
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload: {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")

    workload.warm_up(prog, inputs)
    deadline = time.perf_counter() + args.seconds
    measured = Measurement()
    if args.trace:
        tracer = Tracer(modules)
        traced = Measurement()
        for _ in range(workload.trace_pairs):
            pair_s = (measure(workload, prog, inputs, measured)
                      + measure(workload, prog, inputs, traced, tracer))
            if time.perf_counter() + pair_s > deadline:
                break
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz")
        metrics = per_layer(measured, traced, tracer)
        print(f"untraced rounds: {_walls(measured)}")
        print_rounds(traced, "traced rounds")
        print_layers(metrics, statistics.fmean(traced.walls))
    else:
        # Further set-ups run between the rounds, so that their median is
        # not decided by one slow spell.
        def set_up_again():
            setup_times.append(set_up(workload, args.seed)[0])

        for _ in range(workload.rounds):
            round_s = measure(workload, prog, inputs, measured, between=set_up_again)
            if time.perf_counter() + round_s > deadline:
                break
        metrics = end_to_end(measured, setup_times)
        print_rounds(measured)
        print("setup: " + " ".join(f"{t:.4f}s" for t in setup_times))
    planned = workload.trace_pairs if args.trace else workload.rounds
    if len(measured.walls) < planned:
        # Then the two versions compared do not average their unit times
        # over the same number of rounds; the line makes that visible.
        print(f"warning: --seconds {args.seconds:g} ended the run after "
              f"{len(measured.walls)} of {planned} rounds")

    problems = workload.check(prog, inputs, measured.first)
    if measured.mismatches:
        problems.append(f"{measured.mismatches} rounds decided differently from the first")
    if args.trace and (traced.mismatches or traced.decided != measured.decided):
        problems.append("traced rounds decided differently from untraced ones")
    if env["process_threads"] is not None and env["process_threads"] > (env["nproc"] or 1):
        problems.append(f"{env['process_threads']} threads on {env['nproc']} cores")
    for problem in problems:
        print(f"GATE FAILED: {problem}")
    print(f"gate: {'ok' if not problems else f'{len(problems)} problems'}")
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    attempted, failed = attempted_failed(args.workload, measured.first)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
