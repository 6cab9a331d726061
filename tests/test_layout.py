"""Package layout: every top-level name in src/ has a caller in src/.

A helper that only tests call belongs in the tests or in ``oracles.py``
(the test-side reference implementations), not in the program.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import graphrefute

PACKAGE = Path(graphrefute.__file__).resolve().parent
EXEMPT_FILES = {"oracles.py", "__init__.py"}


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


def test_every_top_level_name_is_used_in_src():
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    referenced = set().union(*(_referenced_names(t) for t in trees.values()))
    public = set(graphrefute.__all__)
    unused = [
        f"{file}:{name}"
        for file, tree in trees.items()
        if file not in EXEMPT_FILES
        for name in _defined_names(tree)
        if name not in referenced and name not in public
    ]
    assert unused == [], f"defined in src/ but never used there: {unused}"


def test_every_bench_layer_resolves():
    # A traced benchmark run wraps each (module, attribute) pair that
    # bench/spans.py lists, and crashes at getattr on one that is gone. The
    # list is read from the file, so the benchmark itself is not imported.
    spans = ast.parse((PACKAGE.parent.parent / "bench" / "spans.py").read_text())
    layers = next(ast.literal_eval(node.value) for node in spans.body
                  if isinstance(node, ast.Assign)
                  and [getattr(t, "id", None) for t in node.targets] == ["LAYER_FUNCTIONS"])
    missing = []
    for module, attr in layers:
        owner = importlib.import_module(f"graphrefute.{module}")
        for name in attr.split("."):
            owner = getattr(owner, name, None)
        if not callable(owner):
            missing.append(f"{module}.{attr}")
    assert layers and missing == [], f"bench layers that do not resolve: {missing}"
