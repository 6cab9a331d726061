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

``closed_form`` returns the proven expression for an invariant or score on
a family, exactly (Fraction/int) for rational quantities and as a float for
algebraic ones. ``verify_family`` recomputes everything from scratch and
reports any mismatch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from . import invariants as inv
from .conjectures import score
from .graphs import Graph


class FamilyError(ValueError):
    """Unknown family, unknown quantity, or out-of-domain parameter."""


def _build_t1(k: int) -> Graph:
    edges = [(i, i + 1) for i in range(k - 1)]
    for i in range(k):
        u = k + 4 * i
        edges += [(i, u), (u, u + 1), (i, u + 2), (u + 2, u + 3)]
    return Graph(5 * k, edges)


def _build_t2(k: int) -> Graph:
    edges = [(i, i + 1) for i in range(k - 1)]
    for i in range(k):
        u = k + 3 * i
        edges += [(i, u), (u, u + 1), (i, u + 2)]
    return Graph(4 * k, edges)


def _build_t2b(b: int) -> Graph:
    # 0 is the middle vertex, 1 and 2 the star centers.
    edges = [(0, 1), (0, 2)]
    edges += [(1, 3 + j) for j in range(b - 1)]
    edges += [(2, b + 2 + j) for j in range(b - 1)]
    return Graph(2 * b + 1, edges)


@dataclass(frozen=True)
class FamilySpec:
    name: str
    description: str
    min_param: int
    order_formula: str
    build: Callable[[int], Graph]
    quantities: tuple[str, ...]
    conjecture_ids: tuple[int, ...]


FAMILIES: dict[str, FamilySpec] = {
    "T1": FamilySpec(
        "T1",
        "spine of k vertices, two pendant 2-paths per spine vertex",
        1,
        "5k",
        _build_t1,
        ("mM2", "s5"),
        (5,),
    ),
    "T2": FamilySpec(
        "T2",
        "spine of k vertices, one pendant 2-path and one leaf per spine vertex",
        1,
        "4k",
        _build_t2,
        ("mM2", "gamma", "s6"),
        (6,),
    ),
    "T2B": FamilySpec(
        "T2B",
        "two stars of order b, centers joined to a middle vertex",
        1,
        "2b+1",
        _build_t2b,
        ("lambda1", "randic", "alpha", "s9", "s10"),
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
    if p < spec.min_param:
        raise FamilyError(f"{name} requires parameter >= {spec.min_param}, got {p}")
    return spec.build(p)


def closed_form(name: str, quantity: str, p: int):
    """Proven value of an invariant or score on a family member.

    Rational quantities come back exact (Fraction or int), algebraic ones
    as floats. Raises FamilyError below the family's minimum parameter and
    where the modified-Zagreb formulas do not apply (they require p >= 3;
    smaller members are checked directly against their known values).
    The T2B alpha, s9 and s10 forms are proven for b >= 2 only, yet are
    returned at b = 1 as well, so that ``verify_family`` reports their
    mismatch there: T(2,1) is the path P3, whose alpha is 2, not 2b - 1.
    """
    spec = get_family(name)
    if quantity not in spec.quantities:
        raise FamilyError(f"family {name} has no closed form for {quantity!r}")
    if p < spec.min_param:
        raise FamilyError(f"{name} requires parameter >= {spec.min_param}, got {p}")
    if name == "T1":
        if quantity in ("mM2", "s5") and p < 3:
            raise FamilyError(f"T1 closed form for {quantity} requires k >= 3")
        if quantity == "mM2":
            return Fraction(21 * p, 16) + Fraction(7, 48)
        return Fraction(3 * p - 5, 48)  # s5
    if name == "T2":
        if quantity in ("mM2", "s6") and p < 3:
            raise FamilyError(f"T2 closed form for {quantity} requires k >= 3")
        if quantity == "mM2":
            return Fraction(15 * p, 16) + Fraction(11, 48)
        if quantity == "gamma":
            return 2 * p
        return Fraction(p, 16) + Fraction(1, 4 * p) - Fraction(11, 48)  # s6
    # T2B
    if quantity == "lambda1":
        return math.sqrt(p + 1)
    if quantity == "randic":
        return (2 * p - 2 + math.sqrt(2)) / math.sqrt(p)
    if quantity == "alpha":
        return 2 * p - 1
    if quantity == "s9":
        return math.sqrt(2 * p) - math.sqrt(p + 1) - 1
    return (2 - math.sqrt(2)) * (math.sqrt(p) - 1 / math.sqrt(p)) - 1  # s10


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


def _check_exact(report: FamilyReport, quantity: str, p: int, expected, computed) -> None:
    report.checks.append(FamilyCheck(quantity, p, expected, computed, expected == computed))


def _check_close(report: FamilyReport, quantity: str, p: int, expected: float, computed: float) -> None:
    ok = abs(expected - computed) <= _FLOAT_TOL
    report.checks.append(FamilyCheck(quantity, p, expected, computed, ok))


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
    """Recompute invariants of family members and compare to closed forms."""
    spec = get_family(name)
    report = FamilyReport(name)
    params = sorted(set(params))
    if not params:
        raise FamilyError("verify_family needs at least one parameter")
    if params[0] < spec.min_param:
        raise FamilyError(f"{name} requires parameter >= {spec.min_param}")
    s5_values: list[tuple[int, float]] = []
    s6_values: list[tuple[int, float]] = []
    s9_values: list[tuple[int, float]] = []
    s10_values: list[tuple[int, float]] = []
    for p in params:
        g = build_family(name, p)
        if name == "T1":
            mz = inv.modified_second_zagreb(g)
            s5 = score(5, g).exact
            s5_values.append((p, float(s5)))
            if p >= 3:
                _check_exact(report, "mM2", p, closed_form(name, "mM2", p), mz)
                _check_exact(report, "s5", p, closed_form(name, "s5", p), s5)
            elif p == 2:
                _check_exact(report, "s5", p, _SMALL_MEMBER_SCORES["T1", "s5", 2], s5)
        elif name == "T2":
            _check_exact(report, "gamma", p, closed_form(name, "gamma", p),
                         inv.domination_number(g))
            mz = inv.modified_second_zagreb(g)
            s6 = score(6, g).exact
            s6_values.append((p, float(s6)))
            if p >= 3:
                _check_exact(report, "mM2", p, closed_form(name, "mM2", p), mz)
                _check_exact(report, "s6", p, closed_form(name, "s6", p), s6)
            elif p == 2:
                _check_exact(report, "s6", p, _SMALL_MEMBER_SCORES["T2", "s6", 2], s6)
        else:
            _check_close(report, "lambda1", p, closed_form(name, "lambda1", p),
                         inv.lambda1(g))
            _check_close(report, "randic", p, closed_form(name, "randic", p),
                         inv.randic(g))
            _check_exact(report, "alpha", p, closed_form(name, "alpha", p),
                         inv.independence_number(g))
            if g.n >= 3:
                s9 = score(9, g).value
                s10 = score(10, g).value
                _check_close(report, "s9", p, closed_form(name, "s9", p), s9)
                _check_close(report, "s10", p, closed_form(name, "s10", p), s10)
                s9_values.append((p, s9))
                s10_values.append((p, s10))
    if name == "T1" and len(s5_values) > 1:
        _check_monotone(report, "s5", s5_values)
    if name == "T2" and len(s6_values) > 1:
        _check_monotone(report, "s6", s6_values)
    if name == "T2B" and len(s9_values) > 1:
        _check_monotone(report, "s9", s9_values)
        _check_monotone(report, "s10", s10_values)
    return report
