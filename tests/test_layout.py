"""Package layout: every top-level name in src/ has a caller in the program,
and so does every method of a class there. Every name a module in src/
imports is read in that module, so each name has one import path: its
defining module, not a re-export from another.

A helper that only tests call belongs in the tests or in ``oracles.py``
(the test-side reference implementations), not in the program. Here the
program is every module in src/ but ``oracles.py``, plus every file under
bench/.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import graphrefute

PACKAGE = Path(graphrefute.__file__).resolve().parent
BENCH = PACKAGE.parent.parent / "bench"
EXEMPT_FILES = {"oracles.py"}
# Names kept without a caller, each with its reason. nmcs is the plain NMCS
# baseline that AMCS is to be measured against (ROADMAP item 6); the
# benchmark will call it.
KEPT = {"nmcs"}
# Methods kept without an attribute read in the program, each with its reason.
KEPT_MEMBERS = {"_Parser.error": "argparse calls it"}


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


def _members(tree: ast.Module) -> list[str]:
    """Cls.method for every function in a class body but the dunders."""
    return [f"{cls.name}.{fn.name}" for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for fn in cls.body if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (fn.name.startswith("__") and fn.name.endswith("__"))]


def _attributes_read(tree: ast.Module) -> set[str]:
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def _unread_imports(tree: ast.Module) -> list[str]:
    """Names an import binds that the module never loads; the bound name of
    ``import a.b`` is ``a``."""
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    bound = [alias.asname or alias.name.split(".")[0] for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__"
             for alias in node.names]
    return [name for name in bound if name not in loaded]


def _src() -> dict[str, ast.Module]:
    """The program's modules in src/ by file name, EXEMPT_FILES left out."""
    return {p.name: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))
            if p.name not in EXEMPT_FILES}


def _bench() -> list[ast.Module]:
    return [ast.parse(p.read_text()) for p in sorted(BENCH.rglob("*.py"))]


def _bench_layers() -> tuple[tuple[str, str], ...]:
    """bench/spans.py's LAYER_FUNCTIONS, read from the file so that the
    benchmark itself is not imported."""
    spans = ast.parse((BENCH / "spans.py").read_text())
    return next(ast.literal_eval(node.value) for node in spans.body
                if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["LAYER_FUNCTIONS"])


def test_every_top_level_name_is_used_in_src():
    src = _src()
    referenced = set().union(
        *(_referenced_names(t) for t in [*src.values(), *_bench()]),
        *(attr.split(".") for _, attr in _bench_layers()),
    )
    defined = [(file, name) for file, tree in src.items() for name in _defined_names(tree)]
    unused = [f"{file}:{name}" for file, name in defined if name not in referenced | KEPT]
    assert unused == [], f"defined in src/ but never used by the program: {unused}"
    stale = (KEPT - {name for _, name in defined}) | (KEPT & referenced)
    assert not stale, f"KEPT names that are gone or now have a caller: {stale}"


def test_every_method_is_used_in_src():
    # A method is used when the program reads it as an attribute or the
    # benchmark traces it; dataclass fields are not methods and go unchecked.
    src = _src()
    read = set().union(*(_attributes_read(t) for t in [*src.values(), *_bench()]))
    traced = {attr for _, attr in _bench_layers()}
    defined = [(file, member) for file, tree in src.items() for member in _members(tree)]
    unused = [f"{file}:{member}" for file, member in defined
              if member.split(".")[1] not in read and member not in traced | KEPT_MEMBERS.keys()]
    assert unused == [], f"methods in src/ that the program never reads: {unused}"
    stale = {member for member in KEPT_MEMBERS
             if member not in {m for _, m in defined} or member.split(".")[1] in read}
    assert not stale, f"KEPT_MEMBERS entries that are gone or now have a reader: {stale}"


def test_every_import_in_src_is_read():
    # oracles.py included: an import nothing reads is a second path to a name.
    unread = [f"{p.name}:{name}" for p in sorted(PACKAGE.glob("*.py"))
              for name in _unread_imports(ast.parse(p.read_text()))]
    assert unread == [], f"names imported in src/ but never read there: {unread}"


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
