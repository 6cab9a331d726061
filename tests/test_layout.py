"""Package layout: every top-level name in src/ has a caller in the program.

A helper that only tests call belongs in the tests or in ``oracles.py``
(the test-side reference implementations), not in the program. Here the
program is every module in src/ but ``__init__.py`` (whose re-exports call
nothing) and ``oracles.py``, plus every file under bench/.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import graphrefute

PACKAGE = Path(graphrefute.__file__).resolve().parent
BENCH = PACKAGE.parent.parent / "bench"
EXEMPT_FILES = {"oracles.py", "__init__.py"}
# Names kept without a caller, each with its reason. nmcs is the plain NMCS
# baseline that AMCS is to be measured against (ROADMAP item 6); the
# benchmark will call it.
KEPT = {"nmcs"}


def _defined_names(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names.extend(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return names


def _referenced_names(tree: ast.Module) -> set[str]:
    """Names read anywhere in a module: loads, attributes, imports."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.add(node.name)
    return refs


def _bench_layers() -> tuple[tuple[str, str], ...]:
    """bench/spans.py's LAYER_FUNCTIONS, read from the file so that the
    benchmark itself is not imported."""
    spans = ast.parse((BENCH / "spans.py").read_text())
    return next(ast.literal_eval(node.value) for node in spans.body
                if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["LAYER_FUNCTIONS"])


def test_every_top_level_name_is_used_in_src():
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))
             if p.name not in EXEMPT_FILES}
    referenced = set().union(
        *(_referenced_names(t) for t in trees.values()),
        *(_referenced_names(ast.parse(p.read_text())) for p in sorted(BENCH.rglob("*.py"))),
        *(attr.split(".") for _, attr in _bench_layers()),
    )
    defined = [(file, name) for file, tree in trees.items() for name in _defined_names(tree)]
    unused = [f"{file}:{name}" for file, name in defined if name not in referenced | KEPT]
    assert unused == [], f"defined in src/ but never used by the program: {unused}"
    stale = (KEPT - {name for _, name in defined}) | (KEPT & referenced)
    assert not stale, f"KEPT names that are gone or now have a caller: {stale}"


def test_every_bench_layer_resolves():
    # A traced benchmark run wraps each (module, attribute) pair that
    # bench/spans.py lists, and crashes at getattr on one that is gone.
    layers = _bench_layers()
    missing = []
    for module, attr in layers:
        owner = importlib.import_module(f"graphrefute.{module}")
        for name in attr.split("."):
            owner = getattr(owner, name, None)
        if not callable(owner):
            missing.append(f"{module}.{attr}")
    assert layers and missing == [], f"bench layers that do not resolve: {missing}"
