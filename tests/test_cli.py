"""Command line interface: subcommands, exit codes, reports, replay."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

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


def _config_and_digest(out: str) -> tuple[str, str]:
    lines = out.splitlines()
    return (next(l for l in lines if l.startswith("config: ")),
            next(l for l in lines if l.startswith("trace_sha256: ")))


def test_refute_no_trees_only_replays_the_connected_search_of_conjecture_8(capsys):
    # Conjecture 8 searches tree space by default, and the flag keeps its
    # connected-space search, pinned here by its trace digest. The digest
    # holds spectral floats, so it needs one BLAS thread (conftest.py).
    code, out, _ = run(capsys, ["refute", "--conjecture", "8", "--seed", "1", "--no-trees-only"])
    assert code == 0
    assert "verdict: certified" in out.splitlines()
    config, digest = _config_and_digest(out)
    assert " trees_only=false " in config
    assert digest == "trace_sha256: 894b06b944afb7f73bb1835d234a2adbdc4168dc48a9aa6dd2b7315b4c22c8cf"
    code, out, _ = run(capsys, ["refute", "--conjecture", "8", "--seed", "1"])
    assert code == 0
    assert " trees_only=true " in _config_and_digest(out)[0]


def test_refute_conjecture_7_searches_connected_space_by_default(capsys):
    # Tree space certified none of c7's first ten seeds, so c7 alone of the
    # conjectures that hold for connected graphs keeps connected space.
    code, out, _ = run(capsys, ["refute", "--conjecture", "7", "--seed", "1"])
    assert code == 0
    config, digest = _config_and_digest(out)
    assert " trees_only=false " in config
    assert digest == "trace_sha256: 388d66da74a8152e4208cb25d08e33b36adfba7b27f53a339344c82f91aa787e"


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


_UNKNOWN_ID = "graphrefute: unknown conjecture id 42; valid ids are 1..10\n"
_NOT_IN_SPACE = "graphrefute: initial graph is not {}, which the search space requires\n"
_NO_FILE = ("graphrefute: cannot read graph file {tmp}/nofile.g6: [Errno 2] "
            "No such file or directory: '{tmp}/nofile.g6'\n")


@pytest.mark.parametrize("argv, code, err", [
    ("refute --conjecture 42", 64, _UNKNOWN_ID),
    ("refute --conjecture 1 --initial path:2", 65,
     "graphrefute: initial graph violates hypotheses: order 2 is below the minimum 3\n"),
    ("refute --conjecture 1 --initial cycle:5 --trees-only", 65, _NOT_IN_SPACE.format("a tree")),
    ("refute --conjecture 4 --initial file:{tmp}/disc.g6 --trees-only", 65,
     _NOT_IN_SPACE.format("a tree")),
    ("refute --conjecture 4 --initial file:{tmp}/disc.g6 --no-trees-only", 65,
     _NOT_IN_SPACE.format("a connected graph")),
    ("refute --conjecture 1 --initial file:", 65,
     "graphrefute: file recipe needs a path, e.g. file:start.g6\n"),
    ("refute --conjecture 1 --initial path", 65,
     "graphrefute: initial recipe 'path' needs an order, e.g. path:5\n"),
    ("refute --conjecture 1 --initial path:x", 65,
     "graphrefute: bad order 'x' in initial recipe\n"),
    ("refute --conjecture 1 --initial wheel:5", 65, "graphrefute: unknown graph kind 'wheel'\n"),
    ("refute --conjecture 1 --initial path:0", 65, "graphrefute: graph order must be >= 1, got 0\n"),
    ("refute --conjecture 1 --initial file:{tmp}/empty.g6", 65,
     "graphrefute: no graph6 data in {tmp}/empty.g6\n"),
    ("refute --conjecture 1 --initial file:{tmp}/pad.g6", 65,
     "graphrefute: nonzero padding bits (byte 1)\n"),
    ("score --conjecture 42 {tmp}/t1.g6", 64, _UNKNOWN_ID),
    ("score --conjecture 5 {tmp}/nofile.g6", 65, _NO_FILE),
    ("score --conjecture 5 {tmp}/c4.g6", 65, "graphrefute: conjecture 5: graph is not a tree\n"),
    ("verify --conjecture 42 {tmp}/t1.g6", 64, _UNKNOWN_ID),
    # The file is read before the conjecture is looked up.
    ("verify --conjecture 42 {tmp}/nofile.g6", 65, _NO_FILE),
    ("family T9 2", 64, "graphrefute: unknown family 'T9'; known families: T1, T2, T2B\n"),
    ("family T1 5..2", 64, "graphrefute: bad parameter range '5..2'; use N or A..B\n"),
    ("family T1 0", 64, "graphrefute: T1 requires parameter >= 1, got 0\n"),
])
def test_error_paths_pin_exit_code_and_stderr(tmp_path, capsys, argv, code, err):
    files = {"disc.g6": "C`", "empty.g6": "", "pad.g6": "Bx",
             "t1.g6": encode_graph6(build_family("T1", 2)), "c4.g6": encode_graph6(cycle(4))}
    for name, text in files.items():
        (tmp_path / name).write_text(text and text + "\n")
    tmp = str(tmp_path)
    argv = [a.replace("{tmp}", tmp) for a in argv.split()]
    assert run(capsys, argv) == (code, "", err.replace("{tmp}", tmp))


@pytest.mark.parametrize("data, byte, offset", [
    (b"\xff\xfeBw", 255, 0),
    (b"B\xe2\x82\xac", 226, 1),
    # A no-break space: a latin-1 decode and str.strip() would drop it.
    (b"Bw\xa0", 160, 2),
])
def test_non_ascii_graph_file_is_bad_data(tmp_path, capsys, data, byte, offset):
    target = tmp_path / "graph.g6"
    target.write_bytes(data + b"\n")
    err = f"graphrefute: byte {byte} outside graph6 range 63..126 (byte {offset})\n"
    for argv in (["verify", "--conjecture", "1", str(target)],
                 ["score", "--conjecture", "1", str(target)],
                 ["refute", "--conjecture", "1", "--initial", f"file:{target}"]):
        assert run(capsys, argv) == (65, "", err)


def test_refute_seed_takes_a_list_like_seeds(capsys):
    strip = lambda text: [l for l in text.splitlines() if not l.startswith("timing ")]
    code_a, out_a, _ = run(capsys, ["refute", "--conjecture", "5", "--seed", "2,3"])
    code_b, out_b, _ = run(capsys, ["refute", "--conjecture", "5", "--seeds", "2,3"])
    assert code_a == code_b
    assert strip(out_a) == strip(out_b)
    config = next(l for l in strip(out_a) if l.startswith("config: "))
    assert " seeds=2,3 " in config


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


# Each command, then the README's Library example, in a fresh interpreter in
# which the test-only packages cannot be imported. argv[1] is a scratch
# directory and argv[2] the example's source.
_WITHOUT_TEST_PACKAGES = """
import sys
for name in ("networkx", "scipy", "pytest", "hypothesis"):
    sys.modules[name] = None
from graphrefute.cli import main
out = sys.argv[1]
assert main(["list"]) == 0
assert main(["refute", "--conjecture", "5", "--seed", "1"]) == 0
assert main(["family", "T2B", "1..3", "--verify"]) == 3
assert main(["family", "T1", "2", "--out", out]) == 0
assert main(["score", "--conjecture", "3", out + "/T1_2.g6"]) == 0
exec(sys.argv[2])
"""


def test_runtime_needs_only_numpy_and_mpmath(tmp_path):
    # The program's runtime dependencies are numpy and mpmath; networkx,
    # scipy, pytest and hypothesis serve the tests only.
    src = Path(cli.__file__).resolve().parents[1]
    readme = (src.parent / "README.md").read_text()
    example = readme.split("## Library\n\n```python\n", 1)[1].split("```", 1)[0]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_TEST_PACKAGES, str(tmp_path), example],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    # c3 on T1(2) reads both characteristic polynomials' peaks; the example
    # ends by printing the verdict.
    assert "part p_a: 2\npart p_d: 5\nscore: 0.1\n" in proc.stdout
    assert proc.stdout.endswith(" Verdict.CERTIFIED\n")
