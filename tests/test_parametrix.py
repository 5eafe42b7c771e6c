"""Split-parametrix engine: step-by-step class verification and gates."""

import contextlib
import functools
import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phicalc.opclasses import (
    ClassSum,
    GeomConstants,
    NEG_INF,
    RULES,
    RuleApp,
    as_terms,
    bphi_class,
    compose,
    contains,
    eq_classes,
    full_class,
    ZERO,
    recording,
    replay_chain,
    small_b,
    small_phi,
    weight_b,
    weight_phi,
    x_left,
    x_right,
)
from phicalc.parametrix import (
    HypothesisError,
    Mat,
    ParametrixError,
    SplitOperator,
    StepResult,
    WeightConditionError,
    check_weight,
    fredholm_report,
    gauss_bonnet_split,
    hodge_split,
    left_parametrix,
    parametrix_report,
    regularity_predict,
    right_parametrix,
    step1_diagonal,
    step2_offdiagonal,
    step3_lf_correction,
)
from phicalc.acceptance import _enum_closure
from phicalc.indexsets import IndexFamily, exact_real, make_index_set, real_set, shift
from phicalc.jsonio import dumps
from phicalc.models.spectrum import SpectrumPoint
from phicalc import opclasses as oc
from phicalc import parametrix as px

INF = float("inf")
SPEC = [-2, -1, 0, 1, 2]


def op_gb(a=1):
    return gauss_bonnet_split(a=a, b_dim=1, imspec=SPEC)


# ---------------------------------------------------------------------------
# weight gate


def test_check_weight_membership():
    op = op_gb()
    assert not check_weight(op, 0)  # 0 - 1 = -1 lies in the critical set
    assert check_weight(op, 0.5)


def test_check_weight_with_model_scale():
    op = hodge_split(a=1, b_dim=1, imspec=SPEC)  # am = 2
    assert check_weight(op, 0.5)
    assert not check_weight(op, 1.0)


def test_check_weight_requires_data():
    op = gauss_bonnet_split(imspec=[])
    with pytest.raises(WeightConditionError):
        check_weight(op, 0.5)


def test_step1_gate_on_spectrum():
    with pytest.raises(WeightConditionError):
        step1_diagonal(op_gb(), 0.0)


def test_step1_requires_normal_invertibility():
    op = op_gb()
    op.normal_invertible = False
    with pytest.raises(ParametrixError):
        step1_diagonal(op, 0.5)


# ---------------------------------------------------------------------------
# step-by-step class checks against independently transcribed targets


def transcribed_step1(a, m, al):
    am = a * m
    Qd = Mat.diag(x_left(weight_b(-m, al), -am), small_phi(-m, ext=True))
    Rd = Mat.diag(
        x_left(weight_phi(0, al, ext=True), INF),
        x_left(small_phi(0, ext=True), INF),
    )
    return Qd, Rd


@pytest.mark.parametrize("a,m,al", [(1, 1, 0.5), (2, 2, 1.3), (1, 2, -0.5), (2, 2, 1.0)])
def test_step1_classes(a, m, al):
    op = (gauss_bonnet_split if m == 1 else hodge_split)(a=a, b_dim=1, imspec=SPEC)
    s1 = step1_diagonal(op, al)
    Qd_t, Rd_t = transcribed_step1(a, m, al)
    assert s1.data["Qd"].equals(Qd_t)
    assert s1.data["Rd"].equals(Rd_t)
    assert s1.passed


@pytest.mark.parametrize("a,m,al", [(1, 1, 0.0), (1, 1, 0.5), (2, 1, 0.5)])
def test_step2_classes(a, m, al):
    if al == 0.0:
        # inadmissible for the integer critical set
        with pytest.raises(WeightConditionError):
            step1_diagonal(op_gb(a), al)
        return
    op = op_gb(a)
    am = a * m
    s1 = step1_diagonal(op, al)
    s2 = step2_offdiagonal(op, al, s1)
    w0 = weight_phi(0, al, ext=True)
    PoQd_t = Mat.offdiag(x_right(small_phi(0, ext=True), am), w0)
    Qo_t = Mat.offdiag(
        weight_phi(-m, al, ext=True, xl=-am, xr=am), weight_phi(-m, al, ext=True)
    )
    Ro_t = Mat.offdiag(x_right(x_left(w0, INF), am), x_left(w0, INF))
    sq_t = Mat.diag(x_left(w0, am), x_right(w0, am))
    assert s2.data["PoQd"].equals(PoQd_t)
    assert s2.data["Qo"].equals(Qo_t)
    assert s2.data["Ro"].equals(Ro_t)
    assert s2.data["PoQd_sq"].equals(sq_t)
    # the overall x^(am) gain must stay on the displayed side
    wrong00 = x_right(w0, am)
    assert not eq_classes(s2.data["PoQd_sq"][0, 0], wrong00)
    assert s2.passed


def test_step2_diagonal_shortcircuit():
    op = op_gb()
    op.p01 = op.p10 = __import__("phicalc.opclasses", fromlist=["ZERO"]).ZERO
    s1 = step1_diagonal(op, 0.5)
    s2 = step2_offdiagonal(op, 0.5, s1)
    assert s2.data["R2"].equals(s1.data["Rd"])
    assert s2.passed


def test_step3_outputs_and_space():
    op = op_gb()
    a, m, al = 1, 1, 0.5
    am = a * m
    s1 = step1_diagonal(op, al)
    s2 = step2_offdiagonal(op, al, s1)
    s3 = step3_lf_correction(op, al, s2)
    g = op.geom
    q = weight_b(NEG_INF, al, ext=True, vanish=("rf",))
    Qp_t = Mat([[q, q], [x_right(q, am), x_right(q, am)]])
    assert s3.data["Qprime"].equals(Qp_t)
    wlf = weight_phi(0, al, ext=True, vanish=("lf",))
    PsiR_t = Mat([[x_left(wlf, am), x_right(wlf, am)], [wlf, x_right(wlf, am)]])
    assert s3.data["PsiR"].equals(PsiR_t)
    assert s3.data["R3"].contained_in(PsiR_t, g)
    assert s3.passed


def test_step3_hypothesis_violation_reports_entry():
    op = op_gb()
    al = 0.5
    # remainder whose harmonic row only vanishes past alpha (not alpha + am)
    bad = weight_phi(0, al, ext=True)
    R2 = Mat([[bad, bad], [bad, bad]])
    fake = StepResult("step2-offdiagonal", [], {"R2": R2})
    with pytest.raises(HypothesisError) as err:
        step3_lf_correction(op, al, fake)
    assert "entry (0,0)" in str(err.value)


def test_steps_4_and_5_classes():
    op = op_gb()
    a, m, al = 1, 1, 0.5
    am = a * m
    steps, Qr, Rr = right_parametrix(op, al)
    s4, s5 = steps[3], steps[4]
    # boundary remainder: x^inf weight class with perpendicular column x^(am)
    binf = x_left(weight_phi(0, al, ext=True), INF)
    Rb_t = Mat([[binf, x_right(binf, am)], [binf, x_right(binf, am)]])
    assert s4.data["R_boundary"].equals(Rb_t)
    # harmonic-block tail products split into b-part plus bphi-part
    pi_pi = ClassSum((x_left(weight_b(NEG_INF, al, ext=True), -am), bphi_class(-m, ext=True)))
    dp = s4.data["diag_products"]
    assert eq_classes(dp[0, 0], pi_pi)
    assert eq_classes(dp[1, 1], x_right(weight_phi(-m, al, ext=True), am))
    # final remainder: smoothing, x^inf, perpendicular column x^(am)
    rinf = x_left(weight_phi(NEG_INF, al, ext=True), INF)
    Rr_t = Mat([[rinf, x_right(rinf, am)], [rinf, x_right(rinf, am)]])
    assert Rr.equals(Rr_t)
    for i in (0, 1):
        for j in (0, 1):
            for t in __import__("phicalc.opclasses", fromlist=["as_terms"]).as_terms(
                Rr[i, j]
            ):
                assert float(t.order) == NEG_INF
    assert s4.passed and s5.passed


def test_step5_requires_ellipticity():
    op = op_gb()
    op.phi_elliptic = False
    with pytest.raises(ParametrixError):
        right_parametrix(op, 0.5)


def test_left_remainder_class():
    op = op_gb()
    a, m, al = 1, 1, 0.5
    am = a * m
    _, left = left_parametrix(op, al)
    Rl = left.data["Rl"]
    s = x_right(weight_phi(NEG_INF, al, ext=True), INF)
    harmonic_row = x_left(s, -am)
    Rl_t = Mat([[harmonic_row, harmonic_row], [s, s]])
    assert Rl.equals(Rl_t)
    assert left.passed


exact_weights = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=1, max_value=3),
    st.sampled_from([gauss_bonnet_split, hodge_split]),
    st.lists(exact_weights, min_size=1, max_size=5),
    exact_weights,
    st.booleans(),
)
@example(1, gauss_bonnet_split, SPEC, Fraction(1, 2), False)  # alpha = am/2: its own adjoint weight
def test_left_gate_self_adjoint_edge(a, mk, crit, alpha, on_set):
    # the adjoint's critical set is {-s - am}, so its gate at am - alpha is
    # the gate at alpha, and the left construction needs no gate of its own
    op = mk(a=a, b_dim=1, imspec=crit)
    if on_set:
        alpha = crit[0] + op.am
    admissible = check_weight(op, alpha)
    assert admissible == check_weight(op.adjoint(), op.am - alpha)
    if not admissible:
        with pytest.raises(WeightConditionError):
            left_parametrix(op, alpha)


wide_weights = st.one_of(
    st.floats(min_value=-1e18, max_value=1e18, allow_nan=False, allow_infinity=False),
    st.fractions(max_denominator=10**9),
)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=2), wide_weights)
@example(1, 1, 0.5)
@example(2, 2, 1.3)
@example(1, 2, -0.5)
def test_adjoint_route_consistency_of_final_remainders(a, m, al):
    # the adjoint of the right-remainder class at weight am - alpha is the
    # left-remainder class at weight alpha
    from phicalc.parametrix import (
        target_final_left_remainder,
        target_final_right_remainder,
    )

    al = exact_real(al)  # the weight as the construction reads it
    right_dual = target_final_right_remainder(a, m, a * m - al)
    assert right_dual.adjoint().equals(target_final_left_remainder(a, m, al))


def test_huge_weight_keeps_the_overall_power():
    # 1e16 + 1 == 1e16 in floats; the exact weight keeps the x^(am) gain
    rep = parametrix_report(op_gb(), 1e16)
    assert rep["verdict"] == "PASS"
    assert rep["alpha"] == 10**16 and rep["weight_condition"]["alpha_minus_am"] == 10**16 - 1


def test_fraction_weight_report_is_json_and_matches_float():
    op = op_gb()
    text = json.dumps(parametrix_report(op, Fraction(1, 2)))
    assert text == json.dumps(parametrix_report(op, 0.5))
    assert json.loads(text)["alpha"] == "1/2"


def test_numerical_critical_weights_are_quantized_once():
    # roots of the model numerics lie within a few ulps of the integers
    op = gauss_bonnet_split(a=1, b_dim=1, imspec=[-2.0000000000000004, 0.9999999999999996, 0.25])
    assert op.imspec_p00 == [-2, 1, Fraction(1, 4)]
    assert not check_weight(op, 2) and not check_weight(op, Fraction(5, 4))
    assert check_weight(op, 2 + Fraction(1, 10**7))
    # a float is its nearest fraction with denominator <= 10**6: near an
    # integer the critical band of a float weight is about 5e-7 wide
    assert not check_weight(op, 2.0000001) and check_weight(op, 2.00001)
    rep = fredholm_report(op, 1)
    assert not rep["dual"]["fredholm"] and rep["primal"]["fredholm"]
    assert rep["dual"]["distance"] == 0 and rep["primal"]["distance"] == "1/4"
    assert rep["critical_set"] == [-2, "1/4", 1]
    again = SplitOperator.from_json(json.loads(json.dumps(op.to_json())))
    assert again.imspec_p00 == op.imspec_p00


@pytest.mark.parametrize("field,value", [
    ("a", 1.5), ("m", True), ("b_dim", 2.9), ("a", 1.0), ("a", 0), ("b_dim", -1),
])
def test_split_operator_rejects_non_integer_orders(field, value):
    # a non-integer is a TypeError, an integer out of range (a < 1, b_dim < 0) a ValueError
    doc = op_gb().to_json()
    doc[field] = value
    integer = isinstance(value, int) and not isinstance(value, bool)
    with pytest.raises(ValueError if integer else TypeError):
        SplitOperator.from_json(doc)


def test_full_construction_with_diagonal_input():
    from phicalc.opclasses import ZERO
    from phicalc.parametrix import parametrix_report

    op = op_gb()
    op.p01 = op.p10 = ZERO
    rep = parametrix_report(op, 0.5)
    assert rep["verdict"] == "PASS"


def test_check_weight_small_spectrum_examples():
    op = gauss_bonnet_split(a=1, b_dim=1, imspec=[-1, 0, 1])
    assert not check_weight(op, 0)  # 0 - 1 = -1 lies in the set
    assert check_weight(op, 0.5)


def test_full_grid_matches_statement_classes():
    for a in (1, 2):
        for mk in (gauss_bonnet_split, hodge_split):
            op = mk(a=a, b_dim=1, imspec=SPEC)
            for al in (-0.5, 0, 0.5, 1.3):
                if not check_weight(op, al):
                    assert al - op.am in SPEC
                    continue
                rep = parametrix_report(op, al)
                assert rep["verdict"] == "PASS", (a, mk.__name__, al)


def test_report_chains_replay():
    op = op_gb()
    rep = parametrix_report(op, 0.5)
    n_records = 0
    for step in rep["steps"]:
        for assertion in step["assertions"]:
            chain = [RuleApp.from_json(r) for r in assertion["chain"]]
            n_records += len(chain)
            assert replay_chain(chain, op.geom)
    assert n_records > 20


# every rule name a chain may carry: the parametrix primitives, then the
# composition and rewriting rules of the class algebra
CHAIN_RULES = (
    "b-parametrix-Q", "b-parametrix-R", "normal-inverse-Q", "normal-inverse-R",
    "interior-parametrix-Q", "interior-parametrix-R", "lf-solve-Q", "lf-solve-R",
    "neumann-limit",
    "small-absorb", "compose-full", "compose-bphi", "compose-weight-b",
    "compose-weight-phi", "mixed-split", "lift-weight", "lift-full",
    "power-left-of-lf-vanishing", "power-right-of-rf-vanishing", "absorb-power",
    "conjugate-small", "power-into-family", "bphi-at-weight",
)


@functools.lru_cache(maxsize=None)
def replay_pool():
    """Records to tamper with: a full-family composition chain (lift-full at
    0, compose-full at 1; no report carries these rules), then every record
    of a real report, re-read from its JSON."""
    op = op_gb()
    bfam = IndexFamily("b", lf=real_set(1), rf=real_set(1), bf=real_set(0))
    Q = full_class("phi", 0, IndexFamily("phi", lf=real_set(1), rf=real_set(1),
                                         bf=real_set(0), ff=real_set(0)))
    with recording() as chain:
        compose(full_class("b", -1, bfam), Q, op.geom)
    rep = json.loads(json.dumps(parametrix_report(op, 0.5)))
    chain += [RuleApp.from_json(r) for step in rep["steps"]
              for assertion in step["assertions"] for r in assertion["chain"]]
    return op.geom, tuple(chain)


_PARAM_NAMES = ("A", "a", "alpha", "am", "b_dim", "c", "col", "m", "row", "side", "zzz")
_PARAM_VALUES = (0, 1, 2, -1, 1.5, "1/2", "x", "inf", "-inf", "1/0", "1e99999", None, True,
                 [1], {"p": 1}, "left")
_TAMPERS = st.one_of(
    st.tuples(st.just("rule"), st.sampled_from(CHAIN_RULES + ("no-such-rule",))),
    st.tuples(st.just("set-param"), st.sampled_from(_PARAM_NAMES), st.sampled_from(_PARAM_VALUES)),
    st.tuples(st.just("drop-param"), st.sampled_from(_PARAM_NAMES)),
    st.tuples(st.just("drop-input"), st.integers(0, 1)),
    st.tuples(st.just("repeat-input"), st.integers(0, 1)),
    st.tuples(st.just("output"), st.integers(min_value=0)),
    st.tuples(st.just("input-order"), st.integers(0, 1),
              st.sampled_from((math.inf, NEG_INF, 0, 1, -1, Fraction(1, 2)))),
)


def _tamper(rec, how, pool):
    """The record with one thing changed, and whether that changed its shape
    (rule name, param names or number of inputs) away from every rule's."""
    kind, arg, *rest = how
    ins, params = rec.inputs, rec.params
    if kind == "rule":
        return replace(rec, rule=arg), arg not in CHAIN_RULES
    if kind == "set-param":
        return replace(rec, params={**params, arg: rest[0]}), arg not in params
    if kind == "drop-param":
        return replace(rec, params={k: v for k, v in params.items() if k != arg}), arg in params
    if kind in ("drop-input", "repeat-input") and ins:
        i = arg % len(ins)
        ins = ins[:i] + ins[i + 1:] if kind == "drop-input" else ins + (ins[i],)
        return replace(rec, inputs=ins), True
    if kind == "output":
        return replace(rec, output=pool[arg % len(pool)].output), False
    if kind == "input-order" and ins:
        i = arg % len(ins)
        return replace(rec, inputs=ins[:i] + (replace(ins[i], order=rest[0]),) + ins[i + 1:]), False
    return rec, False


@settings(max_examples=300, deadline=None)
@given(which=st.integers(min_value=0), how=_TAMPERS)
@example(which=0, how=("set-param", "a", 0))
@example(which=0, how=("set-param", "a", "x"))
@example(which=0, how=("drop-param", "a"))
@example(which=2, how=("rule", "no-such-rule"))
@example(which=1, how=("drop-input", 1))
@example(which=1, how=("set-param", "c", "-inf"))
# record 52 composes weight phi-classes of orders -inf and 0: order +inf
# on the second makes the order sum inf + (-inf)
@example(which=52, how=("input-order", 1, math.inf))
# record 0 lifts a full b-class: an infinite order has no lift
@example(which=0, how=("input-order", 0, math.inf))
# record 0 lifts a full b-class: order 0 is refused
@example(which=0, how=("input-order", 0, 0))
def test_replay_of_a_tampered_record_returns_a_bool(which, how):
    geom, pool = replay_pool()
    assert [r.rule for r in pool[:2]] == ["lift-full", "compose-full"]
    assert pool[52].rule == "compose-weight-phi" and pool[52].inputs[0].order == NEG_INF
    rec = pool[which % len(pool)]
    tampered, reshaped = _tamper(rec, how, pool)
    got = replay_chain([tampered], geom)
    assert got is True or got is False
    if reshaped:
        assert got is False


def test_chain_rules_are_the_rule_table():
    # the tamper property draws from CHAIN_RULES: it covers every rule
    assert set(CHAIN_RULES) == set(RULES)


# a record renamed to another rule of the same arity and param names, with
# a composition that applies the first rule
RENAMES = {
    ("small-absorb", "compose-bphi"): (small_phi(0), weight_phi(0, 0)),
    ("compose-weight-phi", "compose-weight-b"): (weight_phi(0, 0), weight_phi(-1, 0)),
    ("compose-weight-b", "compose-weight-phi"): (weight_b(-1, 0), weight_b(0, 0)),
}


@pytest.mark.parametrize("rule,renamed", sorted(RENAMES))
def test_a_renamed_record_replays_false(rule, renamed):
    geom = GeomConstants(a=1, b_dim=1)
    with recording() as chain:
        compose(*RENAMES[rule, renamed], geom)
    (rec,) = [r for r in chain if r.rule == rule]
    assert RULES[rule][:2] == RULES[renamed][:2]
    assert replay_chain([rec], geom)
    # replay runs the formula of the rule the record names
    assert not replay_chain([replace(rec, rule=renamed)], geom)


def test_lift_full_replays_with_the_geometry_given():
    geom, pool = replay_pool()
    lift = pool[0]
    assert replay_chain([lift], geom)
    assert not replay_chain([lift], None)
    assert not replay_chain([lift], GeomConstants(a=2, b_dim=1))
    # a record that claims the geometry it is replayed with still fails
    # when its output is the lift of another geometry
    other = replace(lift, params={"a": 2, "b_dim": 1})
    assert not replay_chain([other], GeomConstants(a=2, b_dim=1))


def criterion3_instances():
    """Criterion 3's 13 admissible (operator, alpha) pairs."""
    out = []
    for a in (1, 2):
        for mk in (gauss_bonnet_split, hodge_split):
            op = mk(a=a, b_dim=1, imspec=SPEC)
            out += [(op, al) for al in (-0.5, 0, 0.5, 1.3) if check_weight(op, al)]
    return out


@pytest.fixture(scope="module")
def criterion3_reports():
    return [parametrix_report(op, al) for op, al in criterion3_instances()]


def test_report_bytes_pinned(criterion3_reports):
    """sha256 over the JSON of criterion 3's 13 admissible instances."""
    digest = hashlib.sha256()
    for rep in criterion3_reports:
        digest.update(json.dumps(rep).encode())
    assert len(criterion3_reports) == 13
    assert digest.hexdigest() == "03a8ecec633b0e8d0f7cd084c28d3cb72c2b143c6820087e1fe868caca063bfb"


def test_replay_grid_bytes_pinned(monkeypatch):
    """sha256 over the JSON of the benchmark's replay grid: 120 (operator,
    alpha) reports and 24 Fredholm sweeps, in the order the grid builds them."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "benchmark"))
    from workloads import Replay

    grid = Replay()
    grid.setup(0, None)
    call = lambda span, fn, *args: fn(*args)
    count = lambda counter, n: None
    digest = hashlib.sha256()
    kinds = []
    for op in grid.built:
        out = op.fn(call, count)
        for rep in out if op.kind == "fredholm" else [out]:
            digest.update(json.dumps(rep).encode())
        kinds.append(op.kind)
    assert (kinds.count("report"), kinds.count("fredholm")) == (120, 24)
    assert digest.hexdigest() == "7392e3582379b7bfa25bd41b10e50d07132bbc874dfbf208e806a2009e43a488"


def _absorbed(entry, geom) -> bool:
    terms = as_terms(entry)
    return not any(
        contains(s, t, geom) for i, s in enumerate(terms) for j, t in enumerate(terms) if i != j
    )


def test_reported_class_matrices_hold_absorbed_sums(criterion3_reports):
    # no entry of a matrix-valued derived keeps a summand that another
    # summand of the same entry contains
    matrices = 0
    for rep in criterion3_reports:
        geom = GeomConstants(a=rep["operator"]["a"], b_dim=rep["operator"]["b_dim"])
        for step in rep["steps"]:
            for x in step["assertions"]:
                d = x["derived"]
                if not (len(d) == 2 and all(e is None or isinstance(e, dict) for r in d for e in r)):
                    continue  # rf-sets-stabilize reports face data, not classes
                matrices += 1
                sums = [e for r in d for e in r if e is not None and "sum" in e]
                for e in sums:
                    assert _absorbed(ClassSum.from_json(e), geom), (x["label"], e)
    assert matrices == 13 * 21


def test_neumann_powers_stay_absorbed():
    # R^4 and R^6 held up to 8 and 32 summands per entry while sums were
    # absorbed only where an assertion checked them
    for op, al in criterion3_instances():
        steps, _, _ = right_parametrix(op, al)
        for power in steps[3].data["powers"]:
            for i in (0, 1):
                for j in (0, 1):
                    assert len(as_terms(power[i, j])) <= 2
                    assert _absorbed(power[i, j], op.geom)


def test_left_step_carries_the_adjoint_verdicts(criterion3_reports):
    names = ["step1-diagonal", "step2-offdiagonal", "step3-lf-correction",
             "step4-neumann", "step5-interior"]
    for rep in criterion3_reports:
        left = rep["steps"][-1]
        x = left["assertions"][0]
        assert x["label"] == "adjoint-construction" and x["verdict"] == "PASS" and x["exact"]
        assert x["derived"] == [{"step": n, "verdict": "PASS"} for n in names]


def test_failing_adjoint_step_fails_the_report(monkeypatch):
    # only the adjoint run (at am - alpha, here -3/10) gets a failing step 2
    op = op_gb()
    alpha = Fraction(13, 10)
    adj_alpha = op.am - alpha
    step2 = px.step2_offdiagonal

    def step2_failing_for_adjoint(o, al, s1):
        out = step2(o, al, s1)
        if al == adj_alpha:
            out.assertions[0].contained = False
        return out

    monkeypatch.setattr(px, "step2_offdiagonal", step2_failing_for_adjoint)
    rep = parametrix_report(op, alpha)
    assert [s["verdict"] for s in rep["steps"][:5]] == ["PASS"] * 5
    left = rep["steps"][-1]
    x = left["assertions"][0]
    assert x["label"] == "adjoint-construction"
    assert x["verdict"] == "FAIL" and not x["exact"]
    assert {"step": "step2-offdiagonal", "verdict": "FAIL"} in x["derived"]
    assert left["verdict"] == "FAIL" and rep["verdict"] == "FAIL"


def test_reuse_scope_is_transparent(monkeypatch, criterion3_reports):
    # the same bytes with every fold, JSON dict and composition made afresh,
    # from fewer compositions with the scope
    calls = []
    compose_once = oc._compose
    monkeypatch.setattr(oc, "_compose", lambda *args: calls.append(1) or compose_once(*args))
    shared = [parametrix_report(op, al) for op, al in criterion3_instances()]
    n_shared = len(calls)
    monkeypatch.setattr(oc, "_reuse_scope", contextlib.nullcontext)
    fresh = [parametrix_report(op, al) for op, al in criterion3_instances()]
    assert [json.dumps(r) for r in fresh] == [json.dumps(r) for r in criterion3_reports]
    assert [json.dumps(r) for r in shared] == [json.dumps(r) for r in criterion3_reports]
    assert n_shared < len(calls) - n_shared


def test_reuse_scope_closes_after_a_report_and_after_an_error(monkeypatch):
    op = op_gb()
    alpha = Fraction(13, 10)
    adj_alpha = op.am - alpha
    parametrix_report(op, alpha)
    assert oc._REUSE.get() is None
    step2 = px.step2_offdiagonal
    seen = []

    def step2_raising_for_adjoint(o, al, s1):
        seen.append(oc._REUSE.get())
        if al == adj_alpha:
            raise px.EngineError("adjoint step 2 fails")
        return step2(o, al, s1)

    monkeypatch.setattr(px, "step2_offdiagonal", step2_raising_for_adjoint)
    with pytest.raises(px.EngineError):
        parametrix_report(op, alpha)
    assert oc._REUSE.get() is None
    assert len(seen) == 2 and seen[0] is seen[1] and isinstance(seen[0], dict)


def test_targets_and_record_json_are_shared_within_one_report_only(monkeypatch):
    op, alpha = op_gb(), Fraction(13, 10)
    names = [n for n in dir(px) if n.startswith("target_")]
    assert len(names) == 15
    # outside a report every call builds its target afresh
    assert px.target_r3_space(1, 1, alpha) is not px.target_r3_space(1, 1, alpha)
    built = [{}, {}]  # per report: (target, a, m, alpha) -> every matrix handed out

    def spy(name, target):
        def spied(a, m, al):
            mat = target(a, m, al)
            built[len(reports)].setdefault((name, a, m, al), []).append(mat)
            return mat
        return spied

    for name in names:
        monkeypatch.setattr(px, name, spy(name, getattr(px, name)))
    reports = []
    reports.append(json.dumps(parametrix_report(op, alpha)))
    assert oc._REUSE.get() is None
    reports.append(json.dumps(parametrix_report(op, alpha)))
    assert oc._REUSE.get() is None
    assert reports[0] == reports[1]
    first, second = built
    assert first.keys() == second.keys()
    assert len(first[("target_parametrix_statement", 1, 1, alpha)]) == 4
    for key, mats in first.items():
        # one matrix per key within a report, another one in the next report
        assert all(m is mats[0] for m in mats), key
        assert all(m is second[key][0] for m in second[key]) and second[key][0] is not mats[0], key


def test_repeated_compositions_share_their_record_json():
    op, alpha = op_gb(), Fraction(13, 10)
    with oc._reuse_scope():
        steps, _, _ = right_parametrix(op, alpha)
    records = [r for s in steps for x in s.assertions for r in x.chain]
    assert all(r.to_json() is r.to_json() for r in records)
    # a composition met again re-records its first call's records
    assert len({id(r) for r in records}) < len(records)
    chains = [d for s in parametrix_report(op, alpha)["steps"] for x in s["assertions"] for d in x["chain"]]
    assert len({id(d) for d in chains}) < len(chains)


def test_report_json_round_trips_operator():
    op = op_gb()
    again = SplitOperator.from_json(op.to_json())
    assert again.a == op.a and again.m == op.m
    assert again.p00 == op.p00 and again.p11 == op.p11
    assert again.imspec_p00 == [float(s) for s in SPEC]
    # a thirds spectrum, no off-diagonal blocks and cleared flags read back
    # to the same operator and re-dump to the same bytes
    odd = SplitOperator(2, 1, small_b(1), ZERO, ZERO, weight_phi(NEG_INF, 0, xl=INF),
                        [Fraction(-1, 3), 2], normal_invertible=False, phi_elliptic=False, b_dim=3)
    for x in (op, odd):
        text = dumps(x.to_json())
        again = SplitOperator.from_json(json.loads(text))
        assert again == x and dumps(again.to_json()) == text


# ---------------------------------------------------------------------------
# Fredholm gates and regularity prediction


def test_fredholm_gates_are_distinct():
    op = op_gb()
    rep = fredholm_report(op, 0.5)
    assert rep["primal"]["fredholm"] and rep["dual"]["fredholm"]
    assert rep["primal"]["map"] == "x^(1/2) H_split^1 -> x^(1/2) H_split^0"
    assert rep["dual"]["map"] == "x^(1/2) H_split^0 -> x^(1/2) H_split^-1"
    rep2 = fredholm_report(op, 1.0)  # alpha - am = 0 in the set; alpha = 1 too
    assert not rep2["primal"]["fredholm"] and not rep2["dual"]["fredholm"]
    # alpha = 2.5: alpha - am = 1.5 clear, alpha = 2.5 clear
    rep3 = fredholm_report(op, 2.5)
    assert rep3["primal"]["fredholm"] and rep3["dual"]["fredholm"]


def test_regularity_prediction_from_spectrum():
    op = op_gb()
    # the double root 0 has a Jordan chain of length 2: log power 1
    spectrum = [SpectrumPoint(s, (0,), 1 if s == 0 else 0) for s in (-2.0, -1.0, 0.0, 1.0, 2.0)]
    pi_set, perp_set = regularity_predict(op, 0.0, spectrum)
    assert pi_set == make_index_set([((1.0, 0.0), 0)])
    assert perp_set == shift(pi_set, op.am)
    pi_set, perp_set = regularity_predict(op, Fraction(-1, 2), spectrum)
    assert pi_set == make_index_set([(0, 1)])
    assert pi_set.member(1, 1) and not pi_set.member(0, 2)
    assert perp_set == shift(pi_set, op.am)


@pytest.mark.parametrize("k", [0.5, 1.0, True])
def test_regularity_prediction_rejects_bad_log_power(k):
    with pytest.raises(TypeError):
        regularity_predict(op_gb(), 0.0, [SpectrumPoint(1.0, (0,), k)])


_ROOTS = st.lists(
    st.tuples(st.fractions(-3, 3, max_denominator=6), st.integers(0, 2)), max_size=6
)


@settings(max_examples=100, deadline=None)
@given(spec=_ROOTS, alpha=st.fractions(-4, 4, max_denominator=6))
@example(spec=[(Fraction(1, 3), 0), (Fraction(4, 3), 1)], alpha=Fraction(0))
def test_kernel_index_set_truncation_matches_oracle(spec, alpha):
    """K's members below the top are the closure of the roots above alpha."""
    K = px.kernel_index_set([SpectrumPoint(s, (0,), k) for s, k in spec], alpha)
    top = 4
    want = _enum_closure([(s, 0, k) for s, k in spec if s > alpha], top)
    assert set(K.truncate(top)) == want


def test_parametrix_imports_no_numerics():
    """The replay path starts without numpy or scipy: the numerics import
    the parametrix engine, never the reverse."""
    src = str(Path(px.__file__).resolve().parents[1])
    code = "import sys, phicalc.parametrix; print(sorted({'numpy', 'scipy'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "[]"
