"""Run-time spans around calls into graphrefute's layers.

The tracer replaces module attributes of the already imported program with
timing wrappers, so nothing under ``src/`` changes. A function that another
module re-binds through ``from .graphs import ...`` is wrapped under every
name that refers to it. Spans stay in memory and are written out once the
traced rounds are done.
"""

from __future__ import annotations

import gzip
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

# (module, attribute) pairs timed as layers; "Graph.is_connected" is a method.
LAYER_FUNCTIONS = (
    ("graphs", "all_pairs_distances"),
    ("graphs", "legal_moves"),
    ("graphs", "apply_move"),
    ("graphs", "random_playout"),
    ("graphs", "removable_vertices"),
    ("graphs", "Graph.is_connected"),
    ("conjectures", "check_hypotheses"),
    ("conjectures", "score"),
    ("conjectures", "verify_strict"),
    ("invariants", "symmetric_spectrum"),
    ("invariants", "matching_number"),
    ("invariants", "independence_number"),
    ("invariants", "domination_number"),
    ("invariants", "proximity"),
    ("invariants", "modified_second_zagreb"),
    ("invariants", "harmonic"),
    ("invariants", "randic"),
    ("invariants", "char_poly_exact"),
    ("search", "amcs"),
    ("search", "prune"),
    ("families", "verify_family"),
    ("codec", "decode_graph6"),
    ("codec", "encode_graph6"),
)

LAYER_NAMES = tuple(f"{mod}.{attr}" for mod, attr in LAYER_FUNCTIONS)


class Tracer:
    """Collects spans (id, name, start, end, parent id, case id) and per-name
    call counts and self time while installed."""

    def __init__(self, modules: dict):
        self._modules = modules
        self._undo: list[tuple[object, str, object]] = []
        self._stack: list[list] = []
        self._next_id = 0
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.case = -1
        self._prune_input = None
        self.case_passes = 0
        self.case_accepted = 0

    def start_case(self, case_id: int) -> None:
        self.case = case_id
        self._prune_input = None
        self.case_passes = 0
        self.case_accepted = 0

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        hooks = {
            "graphs.legal_moves": self._on_legal_moves,
            "search.prune": self._on_prune,
        }
        for mod_name, attr in LAYER_FUNCTIONS:
            name = f"{mod_name}.{attr}"
            if attr.startswith("Graph."):
                cls = self._modules[mod_name].Graph
                method = attr.split(".", 1)[1]
                self._patch(cls, method, self._wrap(name, getattr(cls, method), None))
                continue
            original = getattr(self._modules[mod_name], attr)
            traced = self._wrap(name, original, hooks.get(name))
            for module in self._modules.values():
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, traced)
        # mpmath escalations in verify_strict: counted, timed as part of the caller.
        mp = self._modules["conjectures"].mp
        eigsy = mp.eigsy

        def counted_eigsy(*args, **kwargs):
            self.counts["conjectures.mp_escalations"] += 1
            return eigsy(*args, **kwargs)

        self._patch(mp, "eigsy", counted_eigsy)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    def _patch(self, owner, key, value) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def _wrap(self, name, fn, on_result):
        stack = self._stack
        spans = self.spans
        calls = self.calls
        self_s = self.self_s

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                calls[name] += 1
                self_s[name] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                spans.append((span_id, name, start, end,
                              parent[0] if parent is not None else -1, self.case))
            if on_result is not None:
                on_result(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def exclude(self, seconds: float) -> None:
        """Count time spent inside the open span on work outside the
        program (the load probe) as no layer's self time."""
        if self._stack:
            self._stack[-1][1] += seconds

    # -- counters at layer boundaries ----------------------------------------

    def _on_legal_moves(self, args, result) -> None:
        self.counts["graphs.legal_moves.moves"] += len(result)

    def _on_prune(self, args, result) -> None:
        # amcs prunes its incumbent once per pass; a new incumbent object
        # means the previous pass was accepted.
        incumbent = args[0]
        self.case_passes += 1
        if self._prune_input is not None and incumbent is not self._prune_input:
            self.case_accepted += 1
        self._prune_input = incumbent

    # -- output ----------------------------------------------------------------

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as out:
            out.write("id\tname\tstart\tend\tparent\tcase\n")
            for span in self.spans:
                out.write("%d\t%s\t%.9f\t%.9f\t%d\t%d\n" % span)
