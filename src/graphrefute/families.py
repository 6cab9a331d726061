"""Parametric counterexample families and their closed forms.

Three tree families generalize isolated counterexamples into infinite ones:

* ``T1(k)``: a path on spine vertices w_1..w_k where every w_i carries two
  pendant paths of length 2. Order 5k. Violates the modified-Zagreb order
  bound for every k >= 2.
* ``T2(k)``: the same spine, but each w_i carries one pendant path of
  length 2 and one pendant leaf. Order 4k. Violates the modified-Zagreb
  domination bound for every k >= 2.
* ``T2B(b)``: two stars of order b whose centers are joined to one extra
  middle vertex. Order 2b + 1. Violates the spectral-radius-independence
  bound for b >= 9 and the Randic-independence bound for b >= 5.

Each family declares its closed forms once, in ``FAMILIES``: a quantity
maps to the least parameter its form is proven from and the form itself,
exact (Fraction/int) for rational quantities and a float for algebraic
ones. ``closed_form`` looks a form up; ``verify_family`` scores each member
once per conjecture the family refutes, reads every declared quantity off
those scores and reports any mismatch with ``closed_form``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from .conjectures import score
from .graphs import Graph


class FamilyError(ValueError):
    """Unknown family, unknown quantity, or out-of-domain parameter."""


def _tree(n: int, edges: list[tuple[int, int]]) -> Graph:
    """Wrap a builder's n - 1 distinct edges, which join vertices 0..n-1
    into a tree, as sorted rows: no validation and no connectivity walk."""
    rows = [[] for _ in range(n)]
    for u, v in edges:
        rows[u].append(v)
        rows[v].append(u)
    return Graph._trusted(tuple(tuple(sorted(r)) for r in rows), n - 1, True)


def _build_t1(k: int) -> Graph:
    edges = [(i, i + 1) for i in range(k - 1)]
    for i in range(k):
        u = k + 4 * i
        edges += [(i, u), (u, u + 1), (i, u + 2), (u + 2, u + 3)]
    return _tree(5 * k, edges)


def _build_t2(k: int) -> Graph:
    edges = [(i, i + 1) for i in range(k - 1)]
    for i in range(k):
        u = k + 3 * i
        edges += [(i, u), (u, u + 1), (i, u + 2)]
    return _tree(4 * k, edges)


def _build_t2b(b: int) -> Graph:
    # 0 is the middle vertex, 1 and 2 the star centers.
    edges = [(0, 1), (0, 2)]
    edges += [(1, 3 + j) for j in range(b - 1)]
    edges += [(2, b + 2 + j) for j in range(b - 1)]
    return _tree(2 * b + 1, edges)


@dataclass(frozen=True)
class FamilySpec:
    name: str
    description: str
    order_formula: str
    build: Callable[[int], Graph]
    # quantity -> (least parameter the form is proven from, form). A name
    # ``s<id>`` is the score of conjecture id; any other, the score part _PARTS names.
    quantities: dict[str, tuple[int, Callable[[int], object]]]
    conjecture_ids: tuple[int, ...]


_PARTS = {
    "mM2": "modified_second_zagreb",
    "gamma": "domination_number",
    "lambda1": "lambda_1",
    "randic": "randic",
    "alpha": "alpha",
}

FAMILIES: dict[str, FamilySpec] = {
    "T1": FamilySpec(
        "T1",
        "spine of k vertices, two pendant 2-paths per spine vertex",
        "5k",
        _build_t1,
        {
            "mM2": (3, lambda k: Fraction(21 * k, 16) + Fraction(7, 48)),
            "s5": (3, lambda k: Fraction(3 * k - 5, 48)),
        },
        (5,),
    ),
    "T2": FamilySpec(
        "T2",
        "spine of k vertices, one pendant 2-path and one leaf per spine vertex",
        "4k",
        _build_t2,
        {
            "gamma": (1, lambda k: 2 * k),
            "mM2": (3, lambda k: Fraction(15 * k, 16) + Fraction(11, 48)),
            "s6": (3, lambda k: Fraction(k, 16) + Fraction(1, 4 * k) - Fraction(11, 48)),
        },
        (6,),
    ),
    # The alpha, s9 and s10 forms are proven for b >= 2 only, yet declared
    # from b = 1, so that ``verify_family`` reports their mismatch there:
    # T(2,1) is the path P3, whose alpha is 2, not 2b - 1.
    "T2B": FamilySpec(
        "T2B",
        "two stars of order b, centers joined to a middle vertex",
        "2b+1",
        _build_t2b,
        {
            "lambda1": (1, lambda b: math.sqrt(b + 1)),
            "randic": (1, lambda b: (2 * b - 2 + math.sqrt(2)) / math.sqrt(b)),
            "alpha": (1, lambda b: 2 * b - 1),
            "s9": (1, lambda b: math.sqrt(2 * b) - math.sqrt(b + 1) - 1),
            "s10": (1, lambda b: (2 - math.sqrt(2)) * (math.sqrt(b) - 1 / math.sqrt(b)) - 1),
        },
        (9, 10),
    ),
}


def get_family(name: str) -> FamilySpec:
    try:
        return FAMILIES[name]
    except KeyError:
        raise FamilyError(
            f"unknown family {name!r}; known families: {', '.join(sorted(FAMILIES))}"
        ) from None


def build_family(name: str, p: int) -> Graph:
    """Construct the p-th member of a family."""
    spec = get_family(name)
    if p < 1:
        raise FamilyError(f"{name} requires parameter >= 1, got {p}")
    return spec.build(p)


def closed_form(name: str, quantity: str, p: int):
    """Proven value of an invariant or score on a family member.

    Rational quantities come back exact (Fraction or int), algebraic ones
    as floats. Raises FamilyError for a quantity the family does not
    declare, and below the parameter its form is proven from (members
    below it are checked directly against their known values).
    """
    spec = get_family(name)
    if quantity not in spec.quantities:
        raise FamilyError(f"family {name} has no closed form for {quantity!r}")
    floor, form = spec.quantities[quantity]
    if p < floor:
        raise FamilyError(f"{name} closed form for {quantity} requires parameter >= {floor}, got {p}")
    return form(p)


# Known exact scores of the members below the closed-form domain.
_SMALL_MEMBER_SCORES = {
    ("T1", "s5", 2): Fraction(1, 36),
    ("T2", "s6", 2): Fraction(1, 72),
}

_FLOAT_TOL = 1e-10


@dataclass(frozen=True)
class FamilyCheck:
    quantity: str
    p: int
    expected: object
    computed: object
    ok: bool

    def line(self) -> str:
        status = "ok" if self.ok else "MISMATCH"
        return (
            f"{status} {self.quantity} p={self.p} "
            f"expected={self.expected} computed={self.computed}"
        )


@dataclass
class FamilyReport:
    name: str
    checks: list[FamilyCheck] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when there were checks and every one passed."""
        return bool(self.checks) and all(c.ok for c in self.checks)

    def lines(self) -> list[str]:
        out = [c.line() for c in self.checks]
        if not self.checks:
            verdict = "no closed form covers these members, nothing checked"
        else:
            verdict = "all checks passed" if self.ok else "MISMATCHES found"
        out.append(f"family {self.name}: {verdict}")
        return out


def _check_monotone(report: FamilyReport, quantity: str, pairs: list[tuple[int, float]]) -> None:
    """Require strict growth of the score beyond its first positive member."""
    positive = [(p, v) for p, v in pairs if v > 0]
    ok = all(b[1] > a[1] for a, b in zip(positive, positive[1:]))
    detail = "strictly increasing" if ok else "violation"
    report.checks.append(
        FamilyCheck(f"{quantity}-monotone-beyond-first-positive",
                    positive[0][0] if positive else 0,
                    "strictly increasing", detail, ok)
    )


def verify_family(name: str, params: list[int]) -> FamilyReport:
    """Score family members and compare their quantities to closed forms."""
    spec = get_family(name)
    report = FamilyReport(name)
    params = sorted(set(params))
    if not params:
        raise FamilyError("verify_family needs at least one parameter")
    pairs: dict[str, list[tuple[int, float]]] = {f"s{cid}": [] for cid in spec.conjecture_ids}
    for p in params:
        g = build_family(name, p)
        values = {}  # each score's parts and the score itself, as s<id>
        for cid in spec.conjecture_ids:
            s = score(cid, g)
            values.update(s.parts, **{f"s{cid}": s.value if s.exact is None else s.exact})
        for quantity, (floor, _) in spec.quantities.items():
            key = _PARTS.get(quantity, quantity)
            if key not in values:
                raise FamilyError(f"no score of family {name} holds quantity {quantity!r}")
            computed = values[key]
            if quantity in pairs:
                pairs[quantity].append((p, float(computed)))
            expected = (closed_form(name, quantity, p) if p >= floor
                        else _SMALL_MEMBER_SCORES.get((name, quantity, p)))
            if expected is None:
                continue
            if isinstance(expected, float):
                ok = abs(expected - computed) <= _FLOAT_TOL
            else:
                ok = expected == computed
            report.checks.append(FamilyCheck(quantity, p, expected, computed, ok))
    for quantity, member_pairs in pairs.items():
        if len(member_pairs) > 1:
            _check_monotone(report, quantity, member_pairs)
    return report
