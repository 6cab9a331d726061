"""Closed-form counterexample families and their verification reports."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from graphrefute.families import (
    FAMILIES,
    FamilyError,
    build_family,
    closed_form,
    get_family,
    verify_family,
)
from graphrefute.graphs import path
from graphrefute.invariants import domination_number, independence_number, lambda1


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
        assert max(t.degree_sequence()) == (b if b > 1 else 2)


def test_degenerate_members():
    degenerate = build_family("T2B", 1)
    assert degenerate.n == 3 and degenerate.degree_sequence() == path(3).degree_sequence()
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


def test_verify_family_rejects_bad_params():
    with pytest.raises(FamilyError):
        verify_family("T1", [])
    with pytest.raises(FamilyError):
        verify_family("T1", [0, 3])
