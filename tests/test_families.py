"""Closed-form counterexample families and their verification reports."""

from __future__ import annotations

import dataclasses
import hashlib
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from conftest import lambda1
from graphrefute import invariants
from graphrefute.families import (
    FAMILIES,
    FamilyError,
    build_family,
    closed_form,
    get_family,
    verify_family,
)
from graphrefute.graphs import path
from graphrefute.invariants import domination_number, independence_number


def test_catalog():
    assert sorted(FAMILIES) == ["T1", "T2", "T2B"]
    assert get_family("T1").conjecture_ids == (5,)
    assert get_family("T2").conjecture_ids == (6,)
    assert get_family("T2B").conjecture_ids == (9, 10)
    with pytest.raises(FamilyError):
        get_family("T3")


def test_member_orders_and_shapes():
    for k in range(1, 6):
        t1 = build_family("T1", k)
        assert t1.n == 5 * k
        assert t1.is_tree()
        t2 = build_family("T2", k)
        assert t2.n == 4 * k
        assert t2.is_tree()
    for b in range(1, 8):
        t = build_family("T2B", b)
        assert t.n == 2 * b + 1
        assert t.is_tree()
        assert max(map(t.degree, range(t.n))) == (b if b > 1 else 2)


def test_degenerate_members():
    degenerate = build_family("T2B", 1)
    assert degenerate.n == 3
    assert sorted(map(degenerate.degree, range(3))) == sorted(map(path(3).degree, range(3)))
    with pytest.raises(FamilyError):
        build_family("T1", 0)
    with pytest.raises(FamilyError):
        build_family("T2B", -3)


def test_closed_forms_frozen():
    assert closed_form("T1", "mM2", 3) == Fraction(63, 16) + Fraction(7, 48)
    assert closed_form("T1", "s5", 4) == Fraction(7, 48)
    assert closed_form("T2", "mM2", 3) == Fraction(45, 16) + Fraction(11, 48)
    assert closed_form("T2", "gamma", 7) == 14
    assert closed_form("T2", "s6", 4) == Fraction(4, 16) + Fraction(1, 16) - Fraction(11, 48)
    assert closed_form("T2B", "lambda1", 3) == pytest.approx(2.0)
    assert closed_form("T2B", "alpha", 9) == 17
    assert closed_form("T2B", "s9", 9) == pytest.approx(
        math.sqrt(18) - math.sqrt(10) - 1
    )
    assert closed_form("T2B", "s10", 5) == pytest.approx(0.04788664, abs=1e-7)


def test_closed_form_domain_errors():
    with pytest.raises(FamilyError):
        closed_form("T1", "mM2", 2)  # below the proven k >= 3 domain
    with pytest.raises(FamilyError):
        closed_form("T2", "s6", 1)
    with pytest.raises(FamilyError):
        closed_form("T1", "gamma", 5)  # quantity belongs to T2
    with pytest.raises(FamilyError):
        closed_form("T2B", "s9", 0)


def test_family_members_match_direct_computation():
    assert domination_number(build_family("T2", 4)) == 8
    assert independence_number(build_family("T2B", 6)) == 11
    assert lambda1(build_family("T2B", 8)) == pytest.approx(3.0, abs=1e-10)


def test_verify_family_clean_ranges():
    assert verify_family("T1", list(range(2, 8))).ok
    assert verify_family("T2", list(range(2, 8))).ok
    assert verify_family("T2B", list(range(2, 13))).ok


def test_verify_family_reports_bad_base_case():
    # The alpha closed form is wrong on the two-vertex-star member, and the
    # score forms inherit it; the report must say so rather than paper over.
    report = verify_family("T2B", [1, 2, 3])
    assert not report.ok
    bad = [line for line in report.lines() if line.startswith("MISMATCH")]
    assert len(bad) == 3
    assert any("alpha p=1" in line for line in bad)
    assert any("s9 p=1" in line for line in bad)
    assert any("s10 p=1" in line for line in bad)


def test_verify_family_that_checks_nothing_is_not_ok():
    # T1(1) has no closed form and a one-member range has no monotone check.
    report = verify_family("T1", [1])
    assert report.checks == [] and not report.ok
    assert report.lines() == ["family T1: no closed form covers these members, nothing checked"]
    assert verify_family("T1", [1, 2]).ok


def test_verify_family_monotone_tail():
    # s9 turns positive at b = 9 (b = 8 lands exactly on zero), s10 at b = 5.
    report = verify_family("T2B", list(range(2, 15)))
    assert report.ok
    assert closed_form("T2B", "s9", 8) == pytest.approx(0.0, abs=1e-12)
    assert closed_form("T2B", "s9", 9) > 0
    assert closed_form("T2B", "s10", 4) < 0
    assert closed_form("T2B", "s10", 5) > 0


def test_a_family_member_computes_each_invariant_once(monkeypatch):
    # Every quantity is read off the member's scores: gamma and lambda_1 come
    # from one score each, and alpha from each of T2B's two.
    calls = Counter()
    for owner, name in ((invariants, "domination_number"),
                        (invariants, "independence_number"), (np.linalg, "eigvalsh")):
        f = getattr(owner, name)
        monkeypatch.setattr(owner, name,
                            lambda *args, name=name, f=f: calls.update([name]) or f(*args))
    verify_family("T2", list(range(1, 11)))
    assert calls == {"domination_number": 10}
    calls.clear()
    verify_family("T2B", list(range(1, 11)))
    assert calls == {"eigvalsh": 10, "independence_number": 20}


def test_a_quantity_no_score_holds_is_named(monkeypatch):
    t1 = FAMILIES["T1"]
    quantities = {**t1.quantities, "gamma": (1, lambda k: 2 * k)}
    monkeypatch.setitem(FAMILIES, "T1", dataclasses.replace(t1, quantities=quantities))
    with pytest.raises(FamilyError, match="'gamma'"):
        verify_family("T1", [2])


def test_verify_family_rejects_bad_params():
    with pytest.raises(FamilyError):
        verify_family("T1", [])
    with pytest.raises(FamilyError):
        verify_family("T1", [0, 3])


def test_family_outputs_are_pinned():
    # Every report line of the three sweeps, and closed_form on a grid of
    # families, quantities and parameters (in and out of each domain).
    lines = []
    for name, params in (("T1", range(1, 51)), ("T2", range(1, 51)), ("T2B", range(1, 61))):
        lines += verify_family(name, list(params)).lines()
    assert len(lines) == 551
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "c9d09ac39cff1e8ec698025f4f04be2c0b8a70c6463981acee7f2722071aaa0d"
    )
    grid = []
    for name in FAMILIES:
        for q in ("mM2", "s5", "gamma", "s6", "lambda1", "randic", "alpha", "s9", "s10"):
            for p in (0, 1, 2, 3, 4, 9):
                try:
                    grid.append(f"{name} {q} {p} {closed_form(name, q, p)!r}")
                except FamilyError:
                    grid.append(f"{name} {q} {p} FamilyError")
    assert len(grid) == 162
    assert hashlib.sha256("\n".join(grid).encode()).hexdigest() == (
        "92a4286c229d7040422605611186b78208f24b5038ef2f2b73a0308917c10d4c"
    )
