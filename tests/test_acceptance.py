"""Acceptance gate: every numbered criterion at its stated tolerance.

Each test runs one criterion of the suite behind ``phicalc verify-paper``
against the unit torus model and prints its verdict line.  Criteria carry
their own runtime budgets, asserted here as well.
"""

import json
from fractions import Fraction

import pytest

from phicalc import acceptance
from phicalc.models import ModelGeometry

MODEL = ModelGeometry()  # a = 1, one 2*pi base circle, one 2*pi fiber circle


@pytest.fixture(scope="module")
def results():
    res = {}
    for crit in acceptance.CRITERIA:
        r = crit(MODEL)
        print(r.line)
        res[r.number] = r
    return res


def _check(res, details_keys=()):
    assert res.passed, res.details
    assert res.elapsed < res.limit
    for key in details_keys:
        assert key in res.details


def test_criterion_1_index_algebra(results):
    res = results[1]
    _check(res, ["empty_identities", "random_sets"])
    assert all(res.details["empty_identities"].values())
    assert res.details["random_sets"]["count"] == 1000
    assert res.details["random_sets"]["mismatches"] == 0


def test_criterion_2_composition_reproduction(results):
    res = results[2]
    _check(res, ["pairs", "evaluations", "mismatches"])
    assert res.details["pairs"] == 200
    assert res.details["evaluations"] == 800  # 200 pairs x (a, b_dim) in {1,2}^2
    assert res.details["mismatches"] == 0


def test_criterion_2_oracle_reach_is_derived_from_the_faces(monkeypatch):
    # the derived reach truncates every one of c2's 800 evaluations exactly
    # as the fixed reach 14 it replaced, and never needs more than 8
    calls = []
    display = acceptance._display_compose

    def spy(I, J, A, cutoff):
        got = display(I, J, A, cutoff)
        calls.append((I, J, A, cutoff, got))
        return got

    monkeypatch.setattr(acceptance, "_display_compose", spy)
    assert acceptance.criterion_2(MODEL).passed
    assert len(calls) == 800 and all(c[3] == 6 for c in calls)
    assert max(acceptance._display_reach(I, J, cutoff) for I, J, _, cutoff, _ in calls) == 8
    monkeypatch.setattr(acceptance, "_display_reach", lambda I, J, cutoff: 14)
    for I, J, A, cutoff, got in calls:
        assert display(I, J, A, cutoff) == got


def test_criterion_3_parametrix_grid(results):
    res = results[3]
    _check(res, ["instances", "records_replayed", "failures"])
    assert res.details["instances"] == 13
    assert res.details["records_replayed"] == 1768
    assert res.details["failures"] == []


def test_criterion_3_fails_on_a_tampered_record(monkeypatch):
    # one record of the first report claims another order m for its
    # primitive: the report still passes, its replay does not
    reports = []

    def tampered_report(op, alpha):
        rep = json.loads(json.dumps(parametrix_report(op, alpha)))
        if not reports:
            record = rep["steps"][0]["assertions"][0]["chain"][0]
            assert record["rule"] == "b-parametrix-Q"
            record["params"]["m"] += 1
        reports.append(rep)
        return rep

    parametrix_report = acceptance.parametrix_report
    monkeypatch.setattr(acceptance, "parametrix_report", tampered_report)
    res = acceptance.criterion_3(MODEL)
    assert not res.passed and all(rep["verdict"] == "PASS" for rep in reports)
    assert res.details["failures"] == [(1, 1, -0.5, "diag-parametrix:replay")]


def test_criterion_4_model_spectrum(results):
    res = results[4]
    _check(res, ["roots", "pole_order_k_at_0"])
    assert [round(r) for r in res.details["roots"]] == [-2, -1, 0, 1, 2]
    assert max(abs(r - round(r)) for r in res.details["roots"]) < 1e-8
    assert res.details["pole_order_k_at_0"] == 1


def test_criterion_5_normal_family_gap(results):
    res = results[5]
    _check(res, ["max_error", "min_gap"])
    assert res.details["max_error"] < 1e-6
    assert abs(res.details["min_gap"] - 1.0) < 1e-6


def test_criterion_6_decay_verification(results):
    res = results[6]
    _check(res, ["checks", "convergence_ratios", "rows"])
    assert all(res.details["checks"].values())
    assert all(3.6 <= r <= 4.4 for r in res.details["convergence_ratios"])
    for row in res.details["rows"]:
        base, fiber = row["mode"]
        if any(fiber):
            assert row["superpoly"]
        elif row["in_L2"]:
            assert row["exponent"] > 0
            assert row["matched"] is not None
            assert abs(row["exponent"] - row["matched"]) <= 0.02 * row["matched"]


def test_criterion_7_fredholm_gates(results):
    res = results[7]
    _check(res, ["wrong", "spectrum"])
    assert res.details["wrong"] == []
    assert res.details["spectrum"] == [-2, -1, 0, 1, 2] or set(res.details["spectrum"]) >= {-2, -1, 0, 1, 2}


def test_all_criteria_pass(results):
    assert all(r.passed for r in results.values())


def test_enum_oracle_is_exact_on_thirds():
    third = acceptance._enum_closure([(Fraction(1, 3), 0, 0)], 2)
    two_thirds = acceptance._enum_closure([(Fraction(2, 3), 0, 0)], 2)
    sums = acceptance._enum_add(third, third, 2)
    member = min(two_thirds)
    assert member in sums
    # the shared exponent 2/3 gets its log boost in the extended union
    boosted = (member[0], member[1], 1)
    assert boosted in acceptance._enum_eu(sums, two_thirds, 2)
