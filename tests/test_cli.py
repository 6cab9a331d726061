"""Command line interface: subcommands, exit codes, reports, replay."""

from __future__ import annotations

import pytest

from conftest import write_g6
from graphrefute import __version__, cli
from graphrefute.cli import main
from graphrefute.codec import decode_graph6, encode_graph6
from graphrefute.conjectures import Verdict
from graphrefute.families import build_family
from graphrefute.graphs import cycle, path, star
from graphrefute.search import SearchResult


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_list(capsys):
    code, out, _ = run(capsys, ["list"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split("\t") == [
        "id", "name", "space", "min_order", "tree_hypothesis",
        "default_initial", "score_formula",
    ]
    assert len(lines) == 11
    row5 = lines[5].split("\t")
    assert row5[0] == "5"
    assert row5[2] == "trees"
    assert row5[3] == "2"
    assert row5[4] == "yes"
    assert row5[5] == "random-tree:5"
    row2 = lines[2].split("\t")
    assert row2[5] == "path:13"


def test_score_exact_breakdown(tmp_path, capsys):
    target = write_g6(tmp_path, build_family("T1", 2))
    code, out, _ = run(capsys, ["score", "--conjecture", "5", target])
    assert code == 0
    assert "score_exact: 1/36" in out
    assert "n: 10" in out
    assert "error_bound: 0.0" in out


def test_score_hypothesis_violation(tmp_path, capsys):
    target = write_g6(tmp_path, cycle(4))
    code, _, err = run(capsys, ["score", "--conjecture", "5", target])
    assert code == 65
    assert "tree" in err


def test_score_missing_file(capsys):
    code, _, err = run(capsys, ["score", "--conjecture", "5", "no_such_file.g6"])
    assert code == 65
    assert "cannot read" in err


def test_refute_certifies_and_writes_artifacts(tmp_path, capsys):
    out_dir = tmp_path / "artifacts"
    code, out, _ = run(capsys, [
        "refute", "--conjecture", "5", "--seed", "1", "--out", str(out_dir),
    ])
    assert code == 0
    assert "found: true" in out
    assert "verdict: certified" in out
    assert "trace_sha256: " in out
    report = (out_dir / "report.txt").read_text()
    assert report == out
    g6 = (out_dir / "best.g6").read_text().strip()
    best = decode_graph6(g6)
    assert best.is_tree()
    dot = (out_dir / "best.dot").read_text()
    assert dot.count(" -- ") == best.m


def test_refute_replay_is_deterministic(capsys):
    argv = ["refute", "--conjecture", "5", "--seed", "3"]
    code_a, out_a, _ = run(capsys, argv)
    code_b, out_b, _ = run(capsys, argv)
    assert code_a == code_b == 0
    strip = lambda text: [l for l in text.splitlines() if not l.startswith("timing ")]
    assert strip(out_a) == strip(out_b)


def test_refute_initial_already_counterexample(tmp_path, capsys):
    target = write_g6(tmp_path, build_family("T1", 2))
    code, out, _ = run(capsys, [
        "refute", "--conjecture", "5", "--initial", f"file:{target}",
    ])
    assert code == 0
    assert "found: true" in out
    assert "best_score_exact: 1/36" in out
    assert "accepted=0" in out.splitlines()[-2] or "passes=0" in out


def test_refute_budget_exhaustion_exits_two(capsys):
    code, out, _ = run(capsys, [
        "refute", "--conjecture", "1", "--initial", "path:5",
        "--time-budget", "0.0",
    ])
    assert code == 2
    assert "found: false" in out
    assert "budget_exhausted=true" in out


def test_refute_multi_seed_stops_at_first_certified(capsys):
    code, out, _ = run(capsys, [
        "refute", "--conjecture", "5", "--seeds", "2,3",
    ])
    assert code == 0
    assert "best_seed: 2" in out
    assert "seed 2:" in out
    assert "seed 3:" not in out


def test_refute_multi_seed_reports_best_seeds_own_verdict(monkeypatch, capsys):
    # Seed 1 scores higher but is only uncertain; seed 2's rejection must not
    # be reported against seed 1's graph.
    found = {1: (star(5), 0.5), 2: (path(5), 0.3)}
    verdicts = {star(5): Verdict.UNCERTAIN, path(5): Verdict.REJECTED}

    def fake_amcs(initial, params, score_fn, space, rng):
        graph, value = found[params.seed]
        return SearchResult(
            best_graph=graph, best_score=value, found=True, iterations=1,
            loop_passes=1, elapsed=0.0, budget_exhausted=False,
        )

    monkeypatch.setattr(cli, "amcs", fake_amcs)
    monkeypatch.setattr(cli, "verify_strict", lambda cid, g: verdicts[g])
    code, out, _ = run(capsys, [
        "refute", "--conjecture", "1", "--initial", "path:5", "--seeds", "1,2",
    ])
    assert code == 3
    assert "best_seed: 1" in out
    assert f"best_graph6: {encode_graph6(star(5))}" in out
    assert "verdict: uncertain" in out


def test_refute_rejects_bad_initial(capsys):
    code, _, err = run(capsys, [
        "refute", "--conjecture", "1", "--initial", "path:2",
    ])
    assert code == 65
    assert "hypotheses" in err
    code, _, err = run(capsys, ["refute", "--conjecture", "42"])
    assert code == 64


def test_refute_rejects_initial_cycle_in_tree_space(capsys):
    code, out, err = run(capsys, [
        "refute", "--conjecture", "1", "--initial", "cycle:5", "--trees-only",
    ])
    assert code == 65 and out == ""
    assert err == "graphrefute: initial graph is not a tree, which the search space requires\n"


def test_refute_rejects_disconnected_initial_file(tmp_path, capsys):
    # Two disjoint edges: conjecture 4 holds for any graph, so the
    # hypotheses pass, but neither search space can start there.
    target = write_g6(tmp_path, decode_graph6("C`"))
    for flag, need in (("--trees-only", "a tree"), ("--no-trees-only", "a connected graph")):
        code, out, err = run(capsys, [
            "refute", "--conjecture", "4", "--initial", f"file:{target}", flag,
        ])
        assert code == 65 and out == ""
        assert err.startswith(f"graphrefute: initial graph is not {need}")


@pytest.mark.parametrize("cid", [3, 5, 6])
def test_refute_rejects_no_trees_only_for_tree_conjectures(capsys, cid):
    code, out, err = run(capsys, [
        "refute", "--conjecture", str(cid), "--no-trees-only", "--seed", "1",
        "--max-level", "1",
    ])
    assert code == 64 and out == ""
    assert "--no-trees-only" in err


def test_refute_no_trees_only_searches_connected_space_for_conjecture_2(capsys):
    # Conjecture 2 is searched in tree space by default but holds for all
    # connected graphs.
    code, out, _ = run(capsys, [
        "refute", "--conjecture", "2", "--initial", "path:6", "--no-trees-only",
        "--seed", "1", "--max-depth", "1", "--max-level", "1",
    ])
    assert code == 2
    assert "trees_only=false" in out
    # It accepts graphs with cycles: n=6 m=6, then n=6 m=7.
    assert "n=6 m=7 score=" in out


def test_verify_command(tmp_path, capsys):
    good = write_g6(tmp_path, build_family("T1", 2), "good.g6")
    code, out, _ = run(capsys, ["verify", "--conjecture", "5", good])
    assert code == 0
    assert "verdict: certified" in out
    bad = write_g6(tmp_path, path(5), "bad.g6")
    code, out, _ = run(capsys, ["verify", "--conjecture", "5", bad])
    assert code == 3
    assert "verdict: rejected" in out
    nontree = write_g6(tmp_path, cycle(4), "nontree.g6")
    code, out, _ = run(capsys, ["verify", "--conjecture", "5", nontree])
    assert code == 3
    assert "hypothesis violated: graph is not a tree" in out


def test_family_members_and_artifacts(tmp_path, capsys):
    out_dir = tmp_path / "fam"
    code, out, _ = run(capsys, ["family", "T1", "2", "--out", str(out_dir)])
    assert code == 0
    assert "member p=2: n=10 m=9 graph6=" in out
    g6 = (out_dir / "T1_2.g6").read_text().strip()
    assert decode_graph6(g6) == build_family("T1", 2)
    assert (out_dir / "T1_2.dot").exists()


def test_family_verify_ranges(capsys):
    code, out, _ = run(capsys, ["family", "T1", "3..6", "--verify"])
    assert code == 0
    assert "MISMATCH" not in out
    code, out, _ = run(capsys, ["family", "T2B", "1..3", "--verify"])
    assert code == 3
    assert "MISMATCH alpha p=1" in out
    # A range with no closed form to check is not a pass.
    code, out, _ = run(capsys, ["family", "T1", "1", "--verify"])
    assert code == 3
    assert "all checks passed" not in out and "nothing checked" in out


def test_family_usage_errors(capsys):
    code, _, err = run(capsys, ["family", "T9", "2"])
    assert code == 64
    code, _, err = run(capsys, ["family", "T1", "5..2"])
    assert code == 64
    code, _, err = run(capsys, ["family", "T1", "0"])
    assert code == 64


def test_usage_errors_exit_64(capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 64
    with pytest.raises(SystemExit) as info:
        main(["refute"])
    assert info.value.code == 64
    with pytest.raises(SystemExit) as info:
        main(["refute", "--conjecture", "five"])
    assert info.value.code == 64


def test_refute_rejects_empty_seed_list(capsys):
    # Without the check, "," would silently fall back to --seed's default.
    for seeds in (",", ""):
        with pytest.raises(SystemExit) as info:
            main(["refute", "--conjecture", "5", "--seeds", seeds])
        assert info.value.code == 64
        assert "empty seed list" in capsys.readouterr().err


def test_refute_report_is_pinned_line_for_line(capsys):
    # Conjecture 5's scores are exact rationals, so these floats do not
    # depend on the platform's LAPACK.
    version = f"version: {__version__}"
    code, out, _ = run(capsys, ["refute", "--conjecture", "5", "--seed", "1"])
    assert code == 0
    trace = [
        f"trace seed=1 pass={p} iter={i} depth={d} level={lv} n={n} m={m} "
        f"score={sc} accepted={acc}"
        for p, i, d, lv, n, m, sc, acc in [
            (0, 0, 0, 0, 5, 4, "0.0", "true"),
            (1, 0, 0, 1, 5, 4, "0.0", "false"),
            (2, 0, 1, 1, 5, 4, "0.0", "false"),
            (3, 0, 2, 1, 5, 4, "0.0", "false"),
            (4, 0, 3, 1, 5, 4, "0.0", "false"),
            (5, 0, 4, 1, 5, 4, "0.0", "false"),
            (6, 0, 5, 1, 5, 4, "0.0", "false"),
            (7, 0, 0, 2, 5, 4, "0.0", "false"),
            (8, 0, 1, 2, 5, 4, "0.0", "false"),
            (9, 0, 2, 2, 5, 4, "0.0", "false"),
            (10, 0, 3, 2, 5, 4, "0.0", "false"),
            (11, 1, 4, 2, 11, 10, "0.027777777777777776", "true"),
        ]
    ]
    expected = [
        "schema: graphrefute-report/1",
        version,
        "config: conjecture=5 initial=random-tree:5 max_depth=5 max_level=3 "
        "trees_only=true seeds=1 time_budget=none tau=1e-09",
        "found: true",
        "verdict: certified",
        "best_seed: 1",
        "best_graph6: J?o?R?APC_?",
        "best_score: 0.027777777777777776",
        "best_score_exact: 1/36",
        "part error_bound: 0.0",
        "part modified_second_zagreb: 109/36",
        "part n: 11",
        "seed 1: found=true best_score=0.027777777777777776 passes=11 "
        "accepted=1 budget_exhausted=false",
        "trace_sha256: 837b5f2daf0f7cce09d4995c9960339307e48a5422dd0d8627a77c2f014d2719",
        *trace,
    ]
    lines = out.splitlines()
    assert lines[-1].startswith("timing seed 1: elapsed=")
    assert lines[:-1] == expected

    code, out, _ = run(capsys, [
        "refute", "--conjecture", "5", "--seed", "3", "--max-level", "0",
    ])
    assert code == 2
    expected = [
        "schema: graphrefute-report/1",
        version,
        "config: conjecture=5 initial=random-tree:5 max_depth=5 max_level=0 "
        "trees_only=true seeds=3 time_budget=none tau=1e-09",
        "found: false",
        "verdict: none",
        "seed 3: found=false best_score=-0.16666666666666666 passes=0 "
        "accepted=0 budget_exhausted=false",
        "trace_sha256: 8a6e6e28f31b930965551f10e4ed1641ab1814b081eab468f90de74b4c53dd46",
        "trace seed=3 pass=0 iter=0 depth=0 level=0 n=5 m=4 "
        "score=-0.16666666666666666 accepted=true",
    ]
    lines = out.splitlines()
    assert lines[-1].startswith("timing seed 3: elapsed=")
    assert lines[:-1] == expected


def test_refute_headline_run_is_pinned(capsys):
    # Conjecture 2 from path:13 certifies at a 203-vertex tree. The digest
    # holds spectral floats, so it needs one BLAS thread (conftest.py).
    code, out, _ = run(capsys, ["refute", "--conjecture", "2", "--seed", "1"])
    assert code == 0
    lines = out.splitlines()
    assert "verdict: certified" in lines
    best = next(l for l in lines if l.startswith("best_graph6: "))
    assert decode_graph6(best.split(": ")[1]).n == 203
    assert "trace_sha256: 6fd132d2006f2204dc587edd64c0de533a7a925d69b83466192d60c566f858ad" in lines


def _usage_error(capsys, argv):
    code, out, err = run(capsys, ["refute", "--conjecture", "5", *argv])
    assert code == 64
    assert out == ""
    return err


def test_refute_rejects_negative_max_depth(capsys):
    assert "--max-depth" in _usage_error(capsys, ["--max-depth", "-3"])


def test_refute_rejects_negative_max_level(capsys):
    assert "--max-level" in _usage_error(capsys, ["--max-level", "-1"])


def test_refute_rejects_non_finite_tau(capsys):
    for value in ("nan", "inf", "-inf"):
        assert "--tau" in _usage_error(capsys, [f"--tau={value}"])


def test_refute_rejects_negative_or_non_finite_time_budget(capsys):
    for value in ("-1", "nan", "inf"):
        assert "--time-budget" in _usage_error(capsys, [f"--time-budget={value}"])


def test_refute_negative_tau_in_exponent_form(capsys):
    # argparse reads "-1e-3" as an option, so the value must be attached
    # with "=". With tau below zero, conjecture 5's start scores 0 and
    # counts as found, but verify_strict still rejects a zero score.
    code, out, _ = run(capsys, ["refute", "--conjecture", "5", "--seed", "1", "--tau=-1e-3"])
    assert code == 3
    assert "tau=-0.001" in out
    assert "found: true" in out
    assert "verdict: rejected" in out
    with pytest.raises(SystemExit) as info:
        main(["refute", "--conjecture", "5", "--tau", "-1e-3"])
    assert info.value.code == 64
    assert "--tau: expected one argument" in capsys.readouterr().err
