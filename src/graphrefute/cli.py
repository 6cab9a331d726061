"""Command line interface.

Subcommands: ``refute`` runs the adaptive search against one conjecture,
``score`` and ``verify`` evaluate a graph6 file, ``family`` builds and
checks the closed-form counterexample families, ``list`` prints the
conjecture catalog. Reports are line-oriented ``key: value`` text whose
non-timing lines are deterministic for a given seed, so a report is enough
to replay its run exactly.

Exit codes: 0 success (refute: certified counterexample found), 2 search
exhausted without a counterexample, 3 candidate found but not certified
(or verification not certified), 64 usage error, 65 bad input data.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import random
import sys
from pathlib import Path

from . import __version__
from .codec import Graph6Error, decode_graph6, encode_graph6, export_dot
from .conjectures import (
    REGISTRY,
    HypothesisError,
    Score,
    UnknownConjectureError,
    Verdict,
    check_hypotheses,
    get_conjecture,
    score,
    verify_strict,
)
from .families import FamilyError, build_family, get_family, verify_family
from .graphs import Graph, GraphError, SearchSpace, construct, random_tree
from .search import SearchParams, SearchResult, amcs

EXIT_OK = 0
EXIT_NOT_FOUND = 2
EXIT_NOT_CERTIFIED = 3
EXIT_USAGE = 64
EXIT_DATA = 65

_SCHEMA = "graphrefute-report/1"


class _Parser(argparse.ArgumentParser):
    """argparse with BSD-style usage exit code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_initial(recipe: str, rng: random.Random) -> Graph:
    """Build the starting graph from a recipe like 'path:13' or 'file:g.g6'."""
    kind, _, arg = recipe.partition(":")
    if kind == "file":
        if not arg:
            raise GraphError("file recipe needs a path, e.g. file:start.g6")
        return _load_graph(arg)
    if not arg:
        raise GraphError(f"initial recipe {recipe!r} needs an order, e.g. {kind}:5")
    try:
        n = int(arg)
    except ValueError:
        raise GraphError(f"bad order {arg!r} in initial recipe") from None
    if kind == "random-tree":
        return random_tree(n, rng)
    return construct(kind, n)


def _load_graph(path: str) -> Graph:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise GraphError(f"cannot read graph file {path}: {exc}") from exc
    for line in data.splitlines():
        line = line.strip()  # ASCII whitespace only, so no stray byte is dropped
        if line:
            try:
                return decode_graph6(line.decode("ascii"))
            except UnicodeDecodeError as exc:
                raise Graph6Error(f"byte {line[exc.start]} outside graph6 range 63..126",
                                  exc.start) from None
    raise GraphError(f"no graph6 data in {path}")


def _format_part(value: object) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def _trace_lines(seed: int, result: SearchResult) -> list[str]:
    """Render a search trace deterministically (no wall-clock fields)."""
    return [
        f"trace seed={seed} pass={rec.pass_index} iter={rec.iteration} "
        f"depth={rec.depth} level={rec.level} n={rec.n} m={rec.m} "
        f"score={rec.score!r} accepted={str(rec.accepted).lower()}"
        for rec in result.trace
    ]


def cmd_refute(args) -> int:
    spec = get_conjecture(args.conjecture)
    trees_only = spec.space is SearchSpace.TREES if args.trees_only is None else args.trees_only
    budget = args.time_budget
    for ok, problem in [
        (args.max_depth >= 0, "--max-depth must be >= 0"),
        (args.max_level >= 0, "--max-level must be >= 0"),
        (math.isfinite(args.tau), "--tau must be finite"),
        (budget is None or 0 <= budget < math.inf, "--time-budget must be finite and >= 0"),
        (trees_only or not spec.requires_tree,
         f"conjecture {spec.id} holds for trees only; --no-trees-only does not apply"),
    ]:
        if not ok:
            print(f"graphrefute: {problem}", file=sys.stderr)
            return EXIT_USAGE
    recipe = args.initial or f"{spec.initial[0]}:{spec.initial[1]}"
    space = SearchSpace.TREES if trees_only else SearchSpace.CONNECTED
    runs: list[tuple[int, SearchResult, Verdict | None]] = []
    for seed in args.seeds:
        rng = random.Random(seed)
        initial = _parse_initial(recipe, rng)
        violations = check_hypotheses(args.conjecture, initial)
        if violations:
            raise GraphError("initial graph violates hypotheses: " + "; ".join(violations))
        params = SearchParams(max_depth=args.max_depth, max_level=args.max_level,
                              trees_only=trees_only, seed=seed, time_budget=budget, tau=args.tau)
        result = amcs(initial, params, lambda g: score(args.conjecture, g).value, space, rng)
        # A verdict is only ever reported next to the seed it was reached for.
        verdict = verify_strict(args.conjecture, result.best_graph) if result.found else None
        runs.append((seed, result, verdict))
        if verdict is Verdict.CERTIFIED:
            break
    # The certified run, else the first run with the best score.
    best_seed, best, verdict = max(runs, key=lambda run: (run[2] is Verdict.CERTIFIED,
                                                          run[1].best_score))
    lines = [
        f"schema: {_SCHEMA}",
        f"version: {__version__}",
        f"config: conjecture={args.conjecture} initial={recipe} "
        f"max_depth={args.max_depth} max_level={args.max_level} "
        f"trees_only={str(trees_only).lower()} seeds={','.join(map(str, args.seeds))} "
        f"time_budget={'none' if budget is None else repr(budget)} tau={args.tau!r}",
        f"found: {str(best.found).lower()}",
        f"verdict: {verdict.value if verdict else 'none'}",
    ]
    if best.found:
        best_graph6 = encode_graph6(best.best_graph)
        detail = score(args.conjecture, best.best_graph, polish=True)
        parts = {**detail.parts, "error_bound": detail.spectral_error_bound}
        lines += [
            f"best_seed: {best_seed}",
            f"best_graph6: {best_graph6}",
            f"best_score: {detail.value!r}",
        ]
        if detail.exact is not None:
            lines.append(f"best_score_exact: {detail.exact}")
        lines += [f"part {key}: {_format_part(parts[key])}" for key in sorted(parts)]
    lines += [
        f"seed {seed}: found={str(r.found).lower()} best_score={r.best_score!r} "
        f"passes={r.loop_passes} accepted={r.iterations} "
        f"budget_exhausted={str(r.budget_exhausted).lower()}"
        for seed, r, _ in runs
    ]
    trace_lines = [line for seed, r, _ in runs for line in _trace_lines(seed, r)]
    digest = hashlib.sha256("\n".join(trace_lines).encode()).hexdigest()
    # Timing lines go last and are excluded from replay comparison.
    lines += [f"trace_sha256: {digest}", *trace_lines,
              *(f"timing seed {seed}: elapsed={r.elapsed:.3f}s" for seed, r, _ in runs)]
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "report.txt").write_text(text)
        if best.found:
            (out_dir / "best.g6").write_text(best_graph6 + "\n")
            (out_dir / "best.dot").write_text(export_dot(best.best_graph))
    if not best.found:
        return EXIT_NOT_FOUND
    return EXIT_OK if verdict is Verdict.CERTIFIED else EXIT_NOT_CERTIFIED


def _print_score(detail: Score) -> None:
    print(f"score: {detail.value!r}")
    if detail.exact is not None:
        print(f"score_exact: {detail.exact}")
    print(f"error_bound: {detail.spectral_error_bound!r}")


def cmd_score(args) -> int:
    g = _load_graph(args.graph)
    result = score(args.conjecture, g, polish=True)
    spec = get_conjecture(args.conjecture)
    print(f"conjecture: {spec.id}")
    print(f"name: {spec.name}")
    print(f"formula: {spec.formula}")
    print(f"n: {g.n}")
    print(f"m: {g.m}")
    for key in sorted(result.parts):
        print(f"part {key}: {_format_part(result.parts[key])}")
    _print_score(result)
    return EXIT_OK


def cmd_verify(args) -> int:
    g = _load_graph(args.graph)
    violations = check_hypotheses(args.conjecture, g)
    for v in violations:
        print(f"hypothesis violated: {v}")
    verdict = verify_strict(args.conjecture, g)
    if not violations:
        _print_score(score(args.conjecture, g, polish=True))
    print(f"verdict: {verdict.value}")
    return EXIT_OK if verdict is Verdict.CERTIFIED else EXIT_NOT_CERTIFIED


def _parse_param_range(text: str) -> list[int]:
    lo, sep, hi = text.partition("..")
    try:
        if sep:
            a, b = int(lo), int(hi)
            if b < a:
                raise ValueError
            return list(range(a, b + 1))
        return [int(lo)]
    except ValueError:
        raise FamilyError(f"bad parameter range {text!r}; use N or A..B") from None


def cmd_family(args) -> int:
    spec = get_family(args.name)
    params = _parse_param_range(args.params)
    members = [(p, build_family(args.name, p)) for p in params]
    print(f"family: {spec.name}")
    print(f"description: {spec.description}")
    print(f"order: {spec.order_formula}")
    for p, g in members:
        print(f"member p={p}: n={g.n} m={g.m} graph6={encode_graph6(g)}")
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for p, g in members:
            (out_dir / f"{spec.name}_{p}.g6").write_text(encode_graph6(g) + "\n")
            (out_dir / f"{spec.name}_{p}.dot").write_text(export_dot(g))
    if args.verify:
        report = verify_family(args.name, params)
        for line in report.lines():
            print(line)
        if not report.ok:
            return EXIT_NOT_CERTIFIED
    return EXIT_OK


def cmd_list(args) -> int:
    print(
        "id\tname\tspace\tmin_order\ttree_hypothesis\tdefault_initial\tscore_formula"
    )
    for cid in sorted(REGISTRY):
        spec = REGISTRY[cid]
        initial = f"{spec.initial[0]}:{spec.initial[1]}"
        print(
            f"{spec.id}\t{spec.name}\t{spec.space.value}\t{spec.min_order}\t"
            f"{'yes' if spec.requires_tree else 'no'}\t{initial}\t{spec.formula}"
        )
    return EXIT_OK


def _int_list(text: str) -> list[int]:
    try:
        seeds = [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad seed list {text!r}") from None
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed list {text!r}")
    return seeds


def build_parser() -> _Parser:
    parser = _Parser(prog="graphrefute", description=__doc__)
    parser.add_argument("--version", action="version", version=f"graphrefute {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_refute = sub.add_parser("refute", help="search for a counterexample")
    p_refute.add_argument("--conjecture", type=int, required=True, metavar="ID")
    p_refute.add_argument("--initial", metavar="RECIPE",
                          help="starting graph: path:N, star:N, complete:N, "
                               "cycle:N, random-tree:N, or file:PATH "
                               "(default: the conjecture's standard start)")
    p_refute.add_argument("--max-depth", type=int, default=5)
    p_refute.add_argument("--max-level", type=int, default=3)
    p_refute.add_argument("--trees-only", action=argparse.BooleanOptionalAction,
                          default=None,
                          help="restrict moves to trees (default: per conjecture)")
    p_refute.add_argument("--seed", "--seeds", dest="seeds", type=_int_list, default=[0],
                          metavar="S1,S2,...",
                          help="one seed, or several run in turn up to the first "
                               "certified counterexample (default: 0)")
    p_refute.add_argument("--time-budget", type=float, default=None, metavar="SECONDS",
                          help="wall-clock limit per seed")
    p_refute.add_argument("--tau", type=float, default=1e-9,
                          help="score threshold that counts as a violation; "
                               "write a negative exponent form as --tau=-1e-3")
    p_refute.add_argument("--out", metavar="DIR",
                          help="write report.txt, best.g6, best.dot here")
    p_refute.set_defaults(func=cmd_refute)

    p_score = sub.add_parser("score", help="score a graph6 file against a conjecture")
    p_score.add_argument("--conjecture", type=int, required=True, metavar="ID")
    p_score.add_argument("graph", help="path to a graph6 file")
    p_score.set_defaults(func=cmd_score)

    p_verify = sub.add_parser("verify", help="strictly verify a candidate counterexample")
    p_verify.add_argument("--conjecture", type=int, required=True, metavar="ID")
    p_verify.add_argument("graph", help="path to a graph6 file")
    p_verify.set_defaults(func=cmd_verify)

    p_family = sub.add_parser("family", help="build closed-form counterexample families")
    p_family.add_argument("name", help="T1, T2, or T2B")
    p_family.add_argument("params", metavar="P", help="parameter N or range A..B")
    p_family.add_argument("--verify", action="store_true",
                          help="check members against their closed forms")
    p_family.add_argument("--out", metavar="DIR",
                          help="write graph6/DOT files for each member")
    p_family.set_defaults(func=cmd_family)

    p_list = sub.add_parser("list", help="print the conjecture catalog")
    p_list.set_defaults(func=cmd_list)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (GraphError, Graph6Error, HypothesisError) as exc:
        print(f"graphrefute: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (FamilyError, UnknownConjectureError) as exc:
        print(f"graphrefute: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
