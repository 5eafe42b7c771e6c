"""Operator-class algebra: combination rules, predicates, derivation replay."""

import functools
import itertools
import json
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, find, given, settings
from hypothesis import strategies as st

import phicalc.opclasses as oc

from phicalc.acceptance import _display_compose, _enum_closure
from phicalc.indexsets import (
    EMPTY,
    IndexFamily,
    IndexSet,
    add,
    extended_union,
    greater_than,
    make_index_set,
    real_set,
    shift,
    small_family,
)
from phicalc.jsonio import dumps
from phicalc.opclasses import (
    NEG_INF,
    Bound,
    ClassSum,
    GeomConstants,
    IntegrabilityError,
    OpClass,
    RuleApp,
    UnsupportedComposition,
    Weight,
    ZERO,
    absorbed_sum,
    adjoint_class,
    as_terms,
    bphi_class,
    compose,
    compose_families,
    conjugate_by_power,
    contains,
    decompose_near_ff,
    entry_from_json,
    eq_classes,
    fold,
    full_class,
    is_bounded,
    is_compact,
    lift_b_to_phi,
    map_phg,
    meets,
    multiply_x_power,
    recording,
    replay_chain,
    small_b,
    small_phi,
    weight_b,
    weight_phi,
    x_left,
)
from oracles import all_pairs_absorbed, loop_fold_weight

INF = float("inf")
G11 = GeomConstants(a=1, b_dim=1)


def iset(*pairs):
    return make_index_set(list(pairs))


def phi_family(lf=EMPTY, rf=EMPTY, bf=EMPTY, ff=EMPTY):
    return IndexFamily("phi", lf=lf, rf=rf, bf=bf, ff=ff)


# ---------------------------------------------------------------------------
# composition of full families


def test_family_composition_and_truncation_read_no_generators(monkeypatch):
    """Composition and truncation run on the stored points: neither builds
    the generator view of a set."""
    third = Fraction(1, 3)
    I = phi_family(lf=iset((third, 1), ((Fraction(2, 3), 1), 0)), rf=real_set(Fraction(1, 2)),
                   bf=iset((0, 0), (Fraction(-1, 3), 1)), ff=real_set(-third))
    J = phi_family(lf=real_set(third), rf=iset((1, 0), (Fraction(5, 6), 2)), bf=real_set(Fraction(-1, 2)),
                   ff=iset((0, 1)))
    reads = []
    view = IndexSet.generators
    monkeypatch.setattr(IndexSet, "generators", property(lambda S: reads.append(S) or view.fget(S)))
    for geom in (G11, GeomConstants(a=2, b_dim=1)):
        K = compose(full_class("phi", 0, I), full_class("phi", -1, J), geom)
        assert all(K.spec.face(f).truncate(3) for f in K.spec.faces)
    assert reads == []
    K.spec.lf.generators  # the spy sees a read
    assert reads == [K.spec.lf]


def test_small_factor_preserves_family():
    fam = phi_family(lf=real_set(1), rf=real_set(0), bf=iset((0, 1)), ff=real_set(0))
    P = small_phi(-2)
    Q = full_class("phi", 1, fam)
    for got in (compose(P, Q, G11), compose(Q, P, G11)):
        assert isinstance(got, OpClass)
        assert got.spec == fam
    assert compose(P, Q, G11).order == -1


def test_small_compose_small_is_small():
    got = compose(small_phi(1), small_phi(-1), G11)
    assert got.is_small and got.order == 0
    assert got.spec == small_family("phi")


def test_full_composition_log_boosts():
    # ff-sets equal to the real set 1 at both factors, bf-sets 0, with A = 2
    I = phi_family(bf=real_set(0), ff=real_set(1))
    got = compose(full_class("phi", 1, I), full_class("phi", 1, I), G11)
    assert got.spec.lf == EMPTY and got.spec.rf == EMPTY
    assert got.spec.bf == iset((0, 0), (1, 2))
    assert got.spec.ff == iset((2, 1))
    assert got.order == 2


def test_full_composition_against_direct_formula():
    I = phi_family(lf=real_set(1), rf=real_set(0), bf=iset((0, 1)), ff=real_set(0))
    J = phi_family(lf=real_set(2), rf=real_set(-1), bf=real_set(0), ff=iset((1, 1)))
    got = compose(full_class("phi", 0, I), full_class("phi", 0, J), GeomConstants(2, 1))
    assert got.spec == compose_families(I, J, 4)


def test_b_full_composes_with_phi_full_via_lifting():
    bfam = IndexFamily("b", lf=real_set(1), rf=real_set(1), bf=real_set(0))
    T = full_class("b", -1, bfam)
    Q = full_class("phi", 0, phi_family(lf=real_set(1), rf=real_set(1),
                                        bf=real_set(0), ff=real_set(0)))
    got = compose(T, Q, G11)
    assert isinstance(got, ClassSum) and len(got.terms) == 2
    # both lifted summands agree at lf, rf, bf with the direct formulas
    main, res = lift_b_to_phi(T, 1, 1)
    want_main = compose(main, Q, G11)
    want_res = compose(res, Q, G11)
    assert eq_classes(got, ClassSum((want_main, want_res)))


@pytest.mark.filterwarnings("error")
def test_b_full_of_nonnegative_order_is_refused_not_lifted():
    # the lifting formula is stated for negative orders only
    bfam = IndexFamily("b", lf=real_set(1), rf=real_set(1), bf=real_set(0))
    Q = full_class("phi", 0, phi_family(lf=real_set(1), rf=real_set(1),
                                        bf=real_set(0), ff=real_set(0)))
    for m in (0, Fraction(1, 2), 1):
        with pytest.raises(UnsupportedComposition, match="negative order"):
            compose(full_class("b", m, bfam), Q, G11)
        with pytest.raises(UnsupportedComposition, match="negative order"):
            compose(Q, full_class("b", m, bfam), G11)


# Faces for the property below: denominators 1, 2, 3, 4 and 6, so that the
# two families seldom share a common denominator; lf and rf positive, so
# that every pairing is integrable; bf and ff down to -2.  Every strategy
# the composites below draw from is built once, here: Hypothesis validates
# a strategy again each time one is built.
def _exponents(positive):
    return st.one_of(*(
        st.integers(1 if positive else -2 * q, 3 * q).map(lambda n, q=q: Fraction(n, q))
        for q in (1, 2, 3, 4, 6)
    ))


def _face(positive):
    im = st.sampled_from((0, Fraction(1, 2), Fraction(-1, 2), 1, -1))
    gens = st.lists(st.tuples(st.tuples(_exponents(positive), im), st.integers(0, 2)), max_size=3)
    return gens.map(make_index_set)


_POSITIVE_FACES, _FACES = _face(True), _face(False)
PHI_FAMILIES = st.builds(phi_family, lf=_POSITIVE_FACES, rf=_POSITIVE_FACES, bf=_FACES, ff=_FACES)
B_FAMILIES = st.builds(IndexFamily, st.just("b"), lf=_POSITIVE_FACES, rf=_POSITIVE_FACES, bf=_FACES)
# truncation cutoff of the displayed combination
FAMILY_CUT = 3


# thirds against quarters, with half-integer imaginary parts on both sides
THIRDS_AGAINST_QUARTERS = dict(
    I=phi_family(lf=iset((Fraction(1, 3), 0)), rf=iset(((Fraction(2, 3), Fraction(1, 2)), 1)),
                 bf=iset((Fraction(-1, 3), 1)), ff=iset(((0, Fraction(-1, 2)), 0))),
    J=phi_family(lf=iset(((Fraction(3, 4), Fraction(1, 2)), 0)), rf=iset((Fraction(1, 4), 2)),
                 bf=iset((Fraction(-5, 4), 0)), ff=iset(((Fraction(1, 2), Fraction(1, 2)), 1))),
    A=3,
)


@settings(max_examples=200, deadline=None)
@given(I=PHI_FAMILIES, J=PHI_FAMILIES, A=st.integers(1, 6))
@example(**THIRDS_AGAINST_QUARTERS)
def test_compose_families_matches_the_displayed_combination(I, J, A):
    D, want = _display_compose(I, J, A, FAMILY_CUT)
    got = compose_families(I, J, A)
    for name in ("lf", "rf", "bf", "ff"):
        assert {(re * D, im, k) for (re, im, k) in got.face(name).truncate(FAMILY_CUT)} == want[name]


@settings(max_examples=200, deadline=None)
@given(I=PHI_FAMILIES, J=PHI_FAMILIES, A=st.integers(1, 6))
@example(**THIRDS_AGAINST_QUARTERS)
def test_compose_families_is_the_formula_on_index_sets(I, J, A):
    # exact and untruncated: one sweep per face gives the sets that the
    # public add, extended_union and shift make one operation at a time
    def eu(*sets):
        return functools.reduce(extended_union, sets)

    want = IndexFamily(
        "phi",
        lf=eu(I.lf, add(I.bf, J.lf), add(I.ff, J.lf)),
        rf=eu(J.rf, add(I.rf, J.bf), add(I.rf, J.ff)),
        bf=eu(add(I.lf, J.rf), add(I.bf, J.bf), add(I.ff, J.bf), add(I.bf, J.ff)),
        ff=eu(shift(add(I.lf, J.rf), A), shift(add(I.bf, J.bf), A), add(I.ff, J.ff)),
    )
    assert compose_families(I, J, A) == want


def test_integrability_condition():
    I = phi_family(rf=real_set(0), ff=real_set(0))
    J = phi_family(lf=real_set(0), ff=real_set(0))
    with pytest.raises(IntegrabilityError):
        compose(full_class("phi", 0, I), full_class("phi", 0, J), G11)


@settings(max_examples=300, deadline=None)
@given(rf=_FACES, lf=_FACES)
@example(rf=EMPTY, lf=iset((-2, 0)))
@example(rf=iset((Fraction(1, 3), 2)), lf=iset((Fraction(-1, 3), 0)))
def test_integrability_is_decided_on_the_smallest_real_parts(rf, lf):
    # the sum's smallest real part is the sum of the smallest real parts
    assert oc._integrable(rf, lf) == greater_than(add(rf, lf), 0)


def test_full_composition_needs_geometry():
    fam = phi_family(lf=real_set(1), ff=real_set(0), bf=real_set(0))
    bfam = IndexFamily("b", lf=real_set(1), rf=real_set(1), bf=real_set(0))
    # lifting a full b-factor needs the geometry as much as phi-composition
    for P in (full_class("phi", 0, fam), full_class("b", -1, bfam)):
        with pytest.raises(UnsupportedComposition):
            compose(P, full_class("phi", 0, fam), None)


def test_b_full_composition_not_mechanized():
    fam = IndexFamily("b", lf=real_set(1), rf=real_set(1), bf=real_set(0))
    P = full_class("b", 1, fam)
    with pytest.raises(UnsupportedComposition):
        compose(P, P, G11)


_TWIN_ORDERS = st.sampled_from([-2, -1, Fraction(-1, 2), 0, 1])


@st.composite
def _x_inf_twins(draw):
    """A full b-class vanishing to infinite order at bf and at lf or rf, and
    its phi twin (empty ff data): :func:`eq_classes` makes them one class."""
    lf, rf = draw(_POSITIVE_FACES), draw(_POSITIVE_FACES)
    if draw(st.booleans()):
        lf = EMPTY
    else:
        rf = EMPTY
    order = draw(_TWIN_ORDERS)
    ext = draw(st.booleans())
    B = full_class("b", order, IndexFamily("b", lf=lf, rf=rf, bf=EMPTY), ext=ext)
    return B, full_class("phi", order, phi_family(lf=lf, rf=rf), ext=ext)


def _composed(P, Q, geom):
    try:
        return compose(P, Q, geom)
    except oc.CompositionError:
        return None


_B0 = full_class("b", 0, IndexFamily("b", lf=EMPTY, rf=real_set(1), bf=EMPTY))
_PARTNER = phi_family(lf=real_set(1), rf=real_set(1), ff=real_set(0))


@settings(max_examples=300, deadline=None)
@given(twins=_x_inf_twins(),
       partner=st.builds(phi_family, lf=_FACES, rf=_FACES, bf=_FACES, ff=_FACES),
       order=st.sampled_from([-1, 0, 2]), left=st.booleans(),
       geom=st.sampled_from([G11, GeomConstants(a=2, b_dim=2)]))
@example(twins=(_B0, full_class("phi", 0, phi_family(rf=real_set(1)))),
         partner=_PARTNER, order=-1, left=True, geom=G11)
@example(twins=(replace(_B0, order=-1), full_class("phi", -1, phi_family(rf=real_set(1)))),
         partner=_PARTNER, order=-1, left=False, geom=G11)
def test_compose_respects_x_inf_twins(twins, partner, order, left, geom):
    # an x^inf b-class composes as its phi twin: both products are refused,
    # or they are one class
    B, P = twins
    assert eq_classes(B, P)
    Q = full_class("phi", order, partner)

    def product(T):
        return _composed(T, Q, geom) if left else _composed(Q, T, geom)

    got, want = product(B), product(P)
    assert (got is None) == (want is None)
    assert got is None or eq_classes(got, want)


# ---------------------------------------------------------------------------
# lifting


def test_lift_ff_shift():
    fam = IndexFamily("b", lf=real_set(1), rf=real_set(1), bf=real_set(0))
    main, res = lift_b_to_phi(full_class("b", -1, fam), a=1, b_dim=1)
    assert main.spec.ff == iset((1, 0))
    assert main.order == -1 and res.order == NEG_INF
    # lf, rf, bf persist
    for part in (main, res):
        assert part.spec.lf == fam.lf and part.spec.rf == fam.rf and part.spec.bf == fam.bf


def test_lift_residual_log_boost():
    fam = IndexFamily("b", lf=EMPTY, rf=EMPTY, bf=real_set(0))
    _, res = lift_b_to_phi(full_class("b", -1, fam), a=2, b_dim=1)
    # (-m) eu (b_dim+1) = 1 eu 2 = {(1,0),(2,1)}; scaled by 2: {(2,0),(4,1)}
    assert res.spec.ff == iset((2, 0), (4, 1))


def test_lift_empty_bf_absorbs():
    fam = IndexFamily("b", lf=real_set(1), rf=real_set(1), bf=EMPTY)
    main, res = lift_b_to_phi(full_class("b", -1, fam), a=1, b_dim=2)
    assert main.spec.ff == EMPTY and res.spec.ff == EMPTY


@pytest.mark.filterwarnings("error")
def test_lift_refuses_outside_scope():
    # the formula is stated for a single full b-class of finite negative
    # order; anything else is refused, not lifted with a warning
    fam = IndexFamily("b", bf=real_set(0))
    outside = [full_class("b", m, fam) for m in (0, Fraction(1, 2), INF, NEG_INF)]
    outside += [
        full_class("phi", -1, phi_family(bf=real_set(0))),
        weight_b(-1, 0),
        ClassSum((full_class("b", -1, fam),)),
    ]
    for T in outside:
        with pytest.raises(UnsupportedComposition, match="lifting needs"):
            lift_b_to_phi(T, a=1, b_dim=1)


# ---------------------------------------------------------------------------
# conjugation, powers, adjoints


def test_conjugate_by_power():
    P = weight_b(-1, 0)
    assert conjugate_by_power(P, 1) == weight_b(-1, -1)
    assert conjugate_by_power(P, 0) == P
    assert conjugate_by_power(conjugate_by_power(P, 3), -3) == P


def test_powers_fold_like_conjugation():
    P = weight_phi(-2, 0.5)
    moved = multiply_x_power(multiply_x_power(P, 1, "right"), -1, "left")
    assert fold(moved) == fold(conjugate_by_power(P, 1))
    assert moved != conjugate_by_power(P, 1)  # records differ until folded


def test_fold_is_stored_once_per_class():
    P = weight_phi(-2, Fraction(1, 3), xl=1)
    assert fold(P) is fold(P)
    moved = replace(P, xl=2)  # a new class folds afresh
    assert fold(moved) == fold(x_left(weight_phi(-2, Fraction(1, 3)), 2))
    assert fold(moved) != fold(P)


_EXACT = st.one_of(st.integers(-6, 6), st.fractions(-6, 6, max_denominator=6))


@settings(max_examples=500, deadline=None)
@given(
    kind=st.sampled_from(["b", "phi"]),
    alpha=_EXACT,
    xl=st.one_of(_EXACT, st.just(INF)),
    xr=st.one_of(_EXACT, st.just(INF)),
    vanish=st.sets(st.sampled_from(["lf", "rf", "bf", "ff"])),
)
@example(kind="phi", alpha=Fraction(1, 2), xl=INF, xr=0, vanish=set())
@example(kind="phi", alpha=Fraction(1, 2), xl=-1, xr=INF, vanish={"ff"})
@example(kind="b", alpha=0, xl=INF, xr=Fraction(1, 3), vanish=set())
@example(kind="b", alpha=-2, xl=Fraction(-1, 2), xr=INF, vanish=set())
@example(kind="b", alpha=Fraction(-1, 3), xl=1, xr=2, vanish={"bf", "rf"})  # normalises to phi
@example(kind="phi", alpha=1, xl=1, xr=Fraction(0), vanish=set())  # a Fraction 0 power moves nothing
def test_fold_matches_the_per_face_loop(kind, alpha, xl, xr, vanish):
    # the repr pins the number types too: Fraction and int thresholds differ
    P = OpClass(kind, -1, Weight(alpha), xl=xl, xr=xr, vanish=frozenset(vanish))
    want = loop_fold_weight(P)
    assert fold(P) == want and repr(fold(P)) == repr(want)


def test_folded_class_hash_agrees_with_equality():
    # the extended flag is not part of the fold, so equal folds hash alike
    folds = {fold(weight_phi(0, 0, ext=True)), fold(weight_phi(0, 0))}
    assert len(folds) == 1


def test_derived_classes_fold_and_serialize_afresh():
    # the JSON is stored like the fold; a derived class never carries P's
    third = Fraction(1, 3)
    P = weight_phi(-2, third, xl=1)
    assert fold(P) is fold(P) and P.to_json() is P.to_json()
    derived = [
        (P.with_powers(1, 0), weight_phi(-2, third, xl=2)),
        (multiply_x_power(P, 1, "right"), weight_phi(-2, third, xl=1, xr=1)),
        (adjoint_class(P), weight_phi(-2, -third, xr=1)),
        (oc._strip(P), weight_phi(-2, third)),
    ]
    for D, want in derived:
        assert D == want and fold(D) == fold(want) and D.to_json() == want.to_json()
        assert fold(D) != fold(P) and D.to_json() != P.to_json()
    bare = weight_phi(-2, third)
    assert oc._strip(bare) is bare


def test_weights_orders_and_powers_are_exact():
    P = OpClass("phi", -0.5, Weight(0.1), xl=1 / 3, xr=INF)
    assert (P.order, P.weight, P.xl, P.xr) == (Fraction(-1, 2), Fraction(1, 10), Fraction(1, 3), INF)
    # a fractional exponent is bracketed: x^(1/3), not (x^1)/3
    assert repr(P) == "x^(1/3) Psi_phi^(-1/2,1/10) x^inf"
    assert P == OpClass("phi", Fraction(-1, 2), Weight(Fraction(1, 10)), xl=Fraction(1, 3), xr=INF)
    # 1e16 + 1 is not 1e16: a huge weight keeps its unit shifts
    big = weight_phi(0, 1e16)
    assert fold(x_left(big, 1)) != fold(big)
    with pytest.raises(ValueError):
        multiply_x_power(x_left(big, INF), -INF, "left")
    # the trusted derivations quantize the one number they are given
    P = weight_phi(0, 0)
    assert x_left(P, 0.5).xl == Fraction(1, 2) and oc.x_right(P, 0.25).xr == Fraction(1, 4)
    assert P.shifted_order(-0.5).order == Fraction(-1, 2)
    assert P.with_powers(0.5, 1 / 3) == weight_phi(0, 0, xl=Fraction(1, 2), xr=Fraction(1, 3))


def test_an_x_power_of_minus_inf_is_refused_by_field():
    # x^-inf is no factor: refused where a class gets its powers, not later
    # inside shift when the class is composed or folded
    fam = phi_family(lf=real_set(1), ff=real_set(0), bf=real_set(0))
    with pytest.raises(ValueError, match="xr must not be -inf"):
        full_class("phi", 0, fam, xr=-INF)
    with pytest.raises(ValueError, match="xl must not be -inf"):
        OpClass.from_json({**weight_phi(0, 0).to_json(), "xl": "-inf"})
    with pytest.raises(ValueError, match="c must not be -inf"):
        multiply_x_power(full_class("phi", 0, fam), -INF, "right")
    with pytest.raises(ValueError, match="dl must not be -inf"):
        weight_phi(0, 0).with_powers(-INF, 0)


def test_left_x_inf_kills_lf_and_bf():
    P = x_left(weight_b(0, 0.5), INF)
    f = fold(P)
    assert f.face("lf") == EMPTY and f.face("bf") == EMPTY
    # and the folded class is identified with a phi-class (empty ff)
    assert f.kind == "phi" and f.face("ff") == EMPTY
    assert fold(x_left(weight_phi(0, 0.5), INF)) == f


def test_zero_power_is_identity():
    P = weight_phi(1, 0)
    assert multiply_x_power(P, 0, "left") == P


def test_adjoint_weight_and_involution():
    P = weight_phi(-1, 0.75, xl=2, xr=-1, vanish=("lf",))
    Q = adjoint_class(P)
    assert Q.spec == Weight(-0.75)
    assert (Q.xl, Q.xr) == (-1, 2)
    assert Q.vanish == frozenset({"rf"})
    assert adjoint_class(Q) == P


def test_adjoint_swaps_family_faces():
    fam = phi_family(lf=real_set(1), rf=real_set(2), bf=real_set(0), ff=real_set(0))
    P = full_class("phi", 0, fam)
    assert adjoint_class(P).spec == fam.replace(lf=fam.rf, rf=fam.lf)


def test_adjoint_matches_conjugated_weight_display():
    # (x^{-am} Psi_b^{-m, am-alpha})* folds like x^{-am} Psi_b^{-m, alpha}
    a, m, alpha = 1, 2, 0.5
    am = a * m
    P = weight_b(-m, am - alpha, xl=-am)
    got = adjoint_class(P)
    assert fold(got) == fold(weight_b(-m, alpha, xl=-am))


# ---------------------------------------------------------------------------
# boundedness, compactness, polyhomogeneous mapping


def test_bounded_small_identity_like():
    cls = full_class("phi", 0, small_family("phi"))
    assert is_bounded(cls, 0, 0)


def test_bounded_corner_rule():
    fam = phi_family(lf=EMPTY, rf=EMPTY, bf=real_set(0), ff=real_set(0))
    assert not is_bounded(full_class("phi", 0, fam), 0, 0)
    # making bf strictly positive satisfies the corner condition
    fam2 = fam.replace(bf=real_set(0.5))
    assert is_bounded(full_class("phi", 0, fam2), 0, 0)


def test_compact_needs_negative_order_and_strictness():
    fam = phi_family(lf=real_set(1), rf=real_set(1), bf=real_set(0.5), ff=real_set(0.5))
    assert is_compact(full_class("phi", -1, fam), 0, 0)
    assert not is_compact(full_class("phi", 0, fam), 0, 0)
    fam_edge = fam.replace(bf=real_set(0))
    assert not is_compact(full_class("phi", -1, fam_edge), 0, 0)


def test_weight_class_bounded_at_its_weight():
    # 0.1 and 1/3 are not floats exactly: the targets are quantized as the
    # class weights are
    for alpha in (-1, 0, 0.5, 0.1, 1 / 3, Fraction(1, 3)):
        assert is_bounded(weight_phi(0, alpha), alpha, alpha)
        assert is_bounded(weight_b(0, alpha), alpha, alpha)
        assert is_compact(x_left(weight_phi(-1, alpha), 1), alpha, alpha - 0.1)


def test_bounded_conjugation_equivariance():
    cases = [(0, 0, 1), (0.5, -0.5, 2), (1, 0, -1), (0, 1, 0.5), (0.3, 0.1, 0.1), (0.1, 1 / 3, Fraction(1, 3))]
    for alpha, beta, c in cases:
        for w in (-0.5, 0, 0.5, 1, 0.1, 0.2, 1 / 3, -0.3):
            P = weight_phi(0, w)
            direct = is_bounded(P, alpha, beta)
            conj = is_bounded(conjugate_by_power(P, c), alpha - c, beta - c)
            assert direct == conj


def test_lifted_boundedness_matches_b_level():
    # kernels vanishing near ff: lifted main part certifies the same maps
    for bf_lo in (0, 1):
        for alpha, beta in [(0, 0), (1, 0), (0.5, 0.5), (0, 1)]:
            fam = IndexFamily(
                "b", lf=real_set(beta + 0.5), rf=real_set(-alpha + 0.5), bf=real_set(bf_lo)
            )
            T = full_class("b", -1, fam)
            main, _ = lift_b_to_phi(T, a=1, b_dim=1)
            assert is_bounded(T, alpha, beta) == is_bounded(main, alpha, beta)


def test_map_phg_b_kind():
    J = full_class("b", 0, IndexFamily("b", lf=EMPTY, rf=EMPTY, bf=real_set(0)))
    assert map_phg(J, iset((1, 0))) == iset((1, 0))


def test_map_phg_log_boost():
    J = full_class(
        "b", 0, IndexFamily("b", lf=iset((0, 0)), rf=EMPTY, bf=real_set(0))
    )
    assert map_phg(J, iset((0, 0))) == iset((0, 1))


def test_map_phg_phi_kind_ff_term():
    J = full_class("phi", 0, phi_family(lf=EMPTY, rf=EMPTY, bf=EMPTY, ff=real_set(1)))
    assert map_phg(J, iset((0, 0))) == iset((1, 0))


def test_map_phg_integrability_error():
    J = full_class(
        "b", 0, IndexFamily("b", lf=EMPTY, rf=iset((0, 0)), bf=real_set(0))
    )
    with pytest.raises(IntegrabilityError):
        map_phg(J, iset((0, 0)))


def test_map_phg_needs_exact_family():
    with pytest.raises(TypeError):
        map_phg(weight_phi(0, 0), iset((1, 0)))


# ---------------------------------------------------------------------------
# front-face decomposition and sums


def test_decompose_weight_class():
    S = weight_phi(2, 0.5)
    b_part, bphi_part = decompose_near_ff(S)
    assert b_part.kind == "b" and b_part.order == NEG_INF and b_part.ext
    assert b_part.spec == Weight(0.5)
    assert bphi_part.kind == "bphi" and bphi_part.order == 2


def test_decompose_smoothing_class():
    b_part, bphi_part = decompose_near_ff(weight_phi(NEG_INF, 0))
    assert b_part.order == NEG_INF and bphi_part.order == NEG_INF


def test_decompose_bphi_passthrough():
    S = bphi_class(1)
    b_part, bphi_part = decompose_near_ff(S)
    assert b_part.is_zero and bphi_part == S


def test_meets_checks_each_summand_at_the_faces_it_has():
    lf_pos = {"lf": Bound(0, True)}
    good, bad = weight_phi(0, 1), weight_phi(0, -1)  # lf > 1, lf > -1
    assert meets(good, lf_pos) and not meets(bad, lf_pos)
    assert meets(weight_b(0, 0), {"ff": Bound(5, True)})  # a b-class has no ff
    assert meets(ZERO, {"lf": Bound(INF, True), "ff": Bound(INF, True)})
    assert meets(ClassSum((good, good)), lf_pos)
    assert not meets(ClassSum((good, bad)), lf_pos)


face_gens = st.lists(
    st.tuples(
        st.tuples(st.fractions(-3, 3, max_denominator=3), st.sampled_from([0, 0, 1, Fraction(1, 2)])),
        st.integers(0, 2),
    ),
    max_size=3,
)


@settings(max_examples=200, deadline=None)
@given(sup=face_gens, sub=face_gens, picks=st.lists(st.integers(0, 99), max_size=3))
@example(sup=[((0, 0), 1)], sub=[((2, 0), 1), ((1, 0), 0)], picks=[])
@example(sup=[((0, 0), 1)], sub=[((2, 0), 2)], picks=[])
def test_index_set_face_implication_is_brute_force_membership(sup, sub, picks):
    """Containment of index-set faces, decided on the lattice canonical form,
    agrees with membership of each of the sub face's generators in the
    enumerated closure of the sup face."""
    I = make_index_set(sup)
    # members of the sup face mixed in, so that both verdicts occur
    inside = I.truncate(3)
    picked = [inside[p % len(inside)] for p in picks] if inside else []
    J = make_index_set(sub + [((re, im), k) for (re, im, k) in picked])
    top = max((g[0] for g in J.generators), default=0)
    closure = _enum_closure(list(I.generators), top)
    assert oc._face_implies(J, I) == all(g in closure for g in J.generators)


def test_sum_predicates_hold_summandwise():
    good = weight_phi(-1, 0)
    bad = weight_phi(-1, 5)
    assert is_bounded(ClassSum((good, good)), 0, 0)
    assert not is_bounded(ClassSum((good, bad)), 0, 0)


def test_sum_canonical_absorbs():
    small_term = weight_phi(-2, 0, xl=1)
    big_term = weight_phi(-1, 0)
    assert absorbed_sum(None, small_term, big_term) == big_term
    assert absorbed_sum(None) is ZERO
    assert absorbed_sum(None, ZERO, small_term) is small_term
    # a lone summand is returned without hashing it
    lone = weight_phi(-1, 0)
    assert absorbed_sum(None, lone, ZERO) is lone and lone.__dict__.get("_hash") is None


def _fields(P):
    return [(v, type(v)) for v in (P.kind, P.order, P.spec, P.xl, P.xr, P.ext, P.vanish)]


def test_weight_tier_rules_build_what_the_checked_constructor_builds():
    # the rules build their outputs from exact fields without
    # OpClass.__post_init__: the same values, of the same types
    half = Fraction(1, 2)
    P = weight_b(Fraction(-3, 2), half, vanish=("lf", "rf"))
    Q = weight_b(-1, half, ext=True, vanish=("lf",))
    got = oc.RULES["compose-weight-b"].formula((P, Q), {}, None)
    want = OpClass("b", Fraction(-5, 2), Weight(half), ext=True, vanish=frozenset({"lf"}))
    assert _fields(got) == _fields(want) and hash(got) == hash(want)
    P, Q = weight_phi(-1, half), weight_phi(NEG_INF, half, ext=True)
    got = oc.RULES["mixed-split"].formula((P, Q), {"c": Fraction(1, 3)}, None)
    want = (OpClass("b", NEG_INF, Weight(half), ext=True),
            OpClass("bphi", NEG_INF, None, xl=Fraction(1, 3), ext=True))
    assert [_fields(t) for t in got.terms] == [_fields(t) for t in want]


_ORDERS = st.sampled_from([NEG_INF, -2, -1, Fraction(-1, 2), 0, 1])
_POWERS = st.sampled_from([0, 0, 1, 2, Fraction(1, 2), -1, INF])
_WEIGHTS = st.sampled_from([-1, 0, Fraction(1, 2), 1])
_WEIGHT_SETS = st.lists(_WEIGHTS, min_size=1, max_size=2, unique=True)
_KINDS = st.sampled_from(["b", "phi", "bphi", "small-b", "small-phi"])
_VANISH = st.frozensets(st.sampled_from(["lf", "rf", "bf", "ff"]))


def _pick(draw, items):
    """One of ``items``, drawn by its index (``st.integers`` of literal
    bounds is built once and cached; a ``sampled_from`` of a fresh list is
    not)."""
    return items[draw(st.integers(0, len(items) - 1))]


def _shuffled(draw, items):
    """``items`` in any order, by a Fisher-Yates shuffle of drawn indices."""
    items = list(items)
    for i in range(len(items) - 1, 0, -1):
        j = draw(st.integers(0, i))
        items[i], items[j] = items[j], items[i]
    return items


@st.composite
def _class_sums(draw):
    """1-6 weight-tier, bphi and small-calculus classes on one or two weights."""
    weights = draw(_WEIGHT_SETS)
    terms = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(_KINDS)
        order, xl, xr, ext = draw(_ORDERS), draw(_POWERS), draw(_POWERS), draw(st.booleans())
        if kind in ("b", "phi"):
            vanish = draw(_VANISH)
            alpha = _pick(draw, weights)
            terms.append(OpClass(kind, order, Weight(alpha), xl=xl, xr=xr, ext=ext, vanish=vanish))
        else:
            make = {"bphi": bphi_class, "small-b": small_b, "small-phi": small_phi}[kind]
            terms.append(make(order, ext=ext, xl=xl, xr=xr))
    return terms


@settings(max_examples=400, deadline=None)
@given(terms=_class_sums(), geom=st.sampled_from([None, G11, GeomConstants(a=2, b_dim=2)]))
@example(terms=[weight_phi(-1, 0, ext=True), weight_phi(-1, 0)], geom=G11)
@example(terms=[weight_b(-1, 0, xl=INF), weight_phi(-1, 0, xl=INF)], geom=G11)
@example(terms=[weight_phi(-1, 0, xl=1), weight_phi(-2, 0, xl=2), weight_phi(0, 0)], geom=G11)
# containment is not transitive: the first summand lies in the third and the
# third in the second, but the first not in the second (a full b-family of
# order -inf has no lift); the second lies in the third and the third in the
# first, but not the second in the first (without geom no full family lifts)
@example(terms=[small_b(NEG_INF), bphi_class(-2), small_b(-2)], geom=G11)
@example(terms=[weight_phi(NEG_INF, -1), small_b(NEG_INF), weight_b(NEG_INF, -1)], geom=None)
def test_absorbed_sum_matches_the_all_pairs_rule(terms, geom):
    decided = []
    contains_single = oc._contains_single

    def spy(sub, sup, g):
        decided.append((sub, sup))
        return contains_single(sub, sup, g)

    with mock.patch.object(oc, "_contains_single", spy):
        got = absorbed_sum(geom, *terms)
    assert as_terms(got) == all_pairs_absorbed(geom, *terms)
    assert len(decided) == len(set(decided))  # no ordered pair decided twice


def _shifted_face(I, c):
    return EMPTY if c == INF else shift(I, c)


_MOVES = st.sampled_from([0, 1, Fraction(-1, 2), 2])


def _rewritten(draw, P):
    """A class written otherwise than ``P`` that folds as ``P`` does."""
    if P.is_zero:
        return P
    ext = draw(st.booleans())  # folded classes do not compare the extended flag
    d = draw(_MOVES)
    if P.kind == "bphi":  # a finite power moves from one side to the other
        if INF in (P.xl, P.xr):
            return replace(P, ext=ext)
        return bphi_class(P.order, ext=ext, xl=P.xl - d, xr=P.xr + d)
    if isinstance(P.spec, Weight):
        # x^c P = (x^c P x^-c) x^c: the weight moves with the power; an
        # x^inf side makes the b- and phi-versions one class
        kind = P.kind
        if INF in (P.xl, P.xr) and draw(st.booleans()):
            kind = "phi" if kind == "b" else "b"
        return OpClass(kind, P.order, Weight(P.spec.alpha + d), xl=P.xl - d, xr=P.xr + d,
                       ext=ext, vanish=P.vanish)
    # a full family takes its powers into its faces
    fam = P.spec
    faces = {"lf": _shifted_face(fam.lf, P.xl), "rf": _shifted_face(fam.rf, P.xr)}
    for f in fam.faces[2:]:
        faces[f] = _shifted_face(_shifted_face(fam.face(f), P.xl), P.xr)
    return OpClass(P.kind, P.order, fam.replace(**faces), ext=ext)


_FULL_FAMILIES = st.one_of(
    PHI_FAMILIES, B_FAMILIES, st.sampled_from([small_family("b"), small_family("phi")]),
)


@st.composite
def _equal_pairs(draw):
    """A sum of weight-tier, full-family, bphi and zero classes, and the sum
    of a rewriting of each of its terms, in any order."""
    terms = draw(_class_sums())
    for _ in range(draw(st.integers(0, 2))):
        fam = draw(_FULL_FAMILIES)
        order, xl, xr = draw(_ORDERS), draw(_POWERS), draw(_POWERS)
        terms.append(OpClass(fam.kind, order, fam, xl=xl, xr=xr))
    terms += [ZERO] * draw(st.integers(0, 1))
    terms += [_pick(draw, terms) for _ in range(draw(st.integers(0, 2)))]
    twins = _shuffled(draw, [_rewritten(draw, t) for t in terms])
    return oc.sum_of(*terms), ClassSum(tuple(twins))


@settings(max_examples=200, deadline=None)
@given(pair=_equal_pairs(), other=_class_sums(),
       geom=st.sampled_from([None, G11, GeomConstants(a=2, b_dim=2)]))
@example(pair=(ZERO, ClassSum(())), other=[ZERO], geom=None)
@example(pair=(weight_b(-1, 0, xl=INF), weight_phi(-1, 0, xl=INF, ext=True)), other=[ZERO], geom=None)
def test_equal_classes_contain_each_other(pair, other, geom):
    # the reason an exact assertion entry needs no containment walk
    P, Q = pair
    assert eq_classes(P, Q) and eq_classes(Q, P)
    assert contains(P, Q, geom) and contains(Q, P, geom)
    R = oc.sum_of(*other)
    for X, Y in ((P, R), (R, P)):
        assert not eq_classes(X, Y) or contains(X, Y, geom)


_B_FAMILY = IndexFamily("b", lf=real_set(1), rf=real_set(1), bf=real_set(0))


_NEGATIVE_ORDERS = st.sampled_from([NEG_INF, -3, -2, -1, Fraction(-1, 2)])
# an ff face of its own, or the shift of bf by 1, 2 or 3
_FF_OR_SHIFT = st.one_of(_FACES, st.sampled_from([1, 2, 3]))


@st.composite
def _lift_pairs(draw):
    """A b-class T of negative order on either tier, with x-powers and
    vanishing faces, and a phi- or bphi-class S of either tier; a
    weight-tier S shares T's weight or lies one below, a full-family S
    shares T's lf, rf and bf, its ff at times bf shifted by 1, 2 or 3."""
    alpha = draw(_WEIGHTS)
    fam = draw(B_FAMILIES)
    spec = _pick(draw, [Weight(alpha), fam, small_family("b")])
    order = draw(_NEGATIVE_ORDERS)
    T = OpClass("b", order, spec, xl=draw(_POWERS), xr=draw(_POWERS), vanish=draw(_VANISH))
    ff = draw(_FF_OR_SHIFT)
    if isinstance(ff, int):
        ff = shift(fam.bf, ff)
    sup = _pick(draw, [
        Weight(alpha), Weight(alpha - 1), small_family("phi"), None,
        phi_family(fam.lf, fam.rf, fam.bf, ff),
    ])
    kind = "bphi" if sup is None else "phi"
    S = OpClass(kind, draw(_ORDERS), sup, xl=draw(_POWERS), xr=draw(_POWERS),
                vanish=draw(_VANISH) if isinstance(sup, Weight) else frozenset())
    return T, S


@settings(max_examples=2000, deadline=None)
@given(pair=_lift_pairs(), geom=st.sampled_from([None, G11, GeomConstants(a=2, b_dim=2)]))
# a full b-class whose lift's residual term has ff = {(2, 1)}, not in ff = {2}
@example(pair=(full_class("b", -2, _B_FAMILY),
               full_class("phi", -2, phi_family(_B_FAMILY.lf, _B_FAMILY.rf, _B_FAMILY.bf, real_set(2)))),
         geom=G11)
# a smoothing b-class: its weight-tier lift has ff > 0, not ff = 0
@example(pair=(weight_b(NEG_INF, Fraction(1, 2)), weight_phi(NEG_INF, Fraction(1, 2), vanish=("ff",))),
         geom=G11)
# an ff refinement on a b-class, which has no ff face, lifts to nothing
@example(pair=(weight_b(-1, 0, vanish=("ff",)), weight_phi(-1, 0, vanish=("ff",))), geom=None)
def test_a_b_class_lies_in_a_phi_class_only_where_its_lift_does(pair, geom):
    T, S = pair
    # a b-class has no ff face: an ff refinement is dropped, and T with one
    # is T, folds as T and lies where T lies
    refined = replace(T, vanish=T.vanish | {"ff"})
    assert refined == T and hash(refined) == hash(T) and "ff" not in refined.vanish
    assert eq_classes(T, refined) and contains(T, S, geom) == contains(refined, S, geom)
    if fold(T).kind != "b" or not contains(T, S, geom):
        return  # an x^inf b-class is its phi twin (ff empty) and is not lifted
    if isinstance(T.spec, Weight):
        lifted = [oc.RULES["lift-weight"].formula((T,), {}, geom)]
    else:  # a full family lifts only at known geometry constants, at finite order
        assert geom is not None and T.order > NEG_INF
        lifted = lift_b_to_phi(T, geom.a, geom.b_dim)
    assert all(contains(L, S, geom) for L in lifted)


_ORDERS_OF_THREE = st.composite(lambda draw: tuple(_shuffled(draw, range(3))))()


# the composites draw from these pieces: each reaches the corner values
# that the strategy it replaced reached
@pytest.mark.parametrize("strategy, corner", [
    # the ends of each denominator's range of exponents
    (_exponents(False), lambda re: re == -2),
    (_exponents(False), lambda re: re == Fraction(-11, 6)),
    (_exponents(False), lambda re: re == 3),
    (_exponents(True), lambda re: re == Fraction(1, 6)),
    (_exponents(True), lambda re: re == Fraction(11, 4)),
    # ff as a face of its own, or bf shifted by 3
    (_FF_OR_SHIFT, lambda ff: ff == 3),
    (_FF_OR_SHIFT, lambda ff: isinstance(ff, IndexSet)),
    # the last of five items, and every order of three
    (st.composite(lambda draw: _pick(draw, "abcde"))(), lambda got: got == "e"),
    *[(_ORDERS_OF_THREE, lambda got, want=want: got == want) for want in itertools.permutations(range(3))],
])
def test_strategy_pieces_reach_their_corner_cases(strategy, corner):
    find(strategy, corner, settings=settings(database=None, derandomize=True, max_examples=1000))


def test_a_b_class_drops_an_ff_refinement():
    # a b-class has no ff face; a phi-class keeps its ff refinement
    plain, refined = weight_b(-1, 0), weight_b(-1, 0, vanish=("ff",))
    assert refined == plain and hash(refined) == hash(plain)
    assert refined.to_json() == plain.to_json() and refined.vanish == frozenset()
    assert weight_phi(-1, 0, vanish=("ff",)) != weight_phi(-1, 0)


# ---------------------------------------------------------------------------
# weight-tier composition and routes


def test_weight_composition_orders_add():
    got = compose(weight_phi(-1, 0.5), weight_phi(0, 0.5), G11)
    assert got == weight_phi(-1, 0.5)
    got_b = compose(weight_b(-1, 0), weight_b(-2, 0), G11)
    assert got_b == weight_b(-3, 0)


def test_weight_composition_rejects_mismatch():
    with pytest.raises(UnsupportedComposition):
        compose(weight_phi(0, 0), weight_phi(0, 1), G11)


def test_weight_tier_associativity_grid():
    for alpha in (-0.5, 0, 1.3):
        for k in (-2, -1, 0):
            P, Q, R = weight_phi(k, alpha), weight_phi(0, alpha), weight_phi(-1, alpha)
            left = compose(compose(P, Q, G11), R, G11)
            right = compose(P, compose(Q, R, G11), G11)
            assert fold(left) == fold(right)


def test_b_phi_composition_lifts():
    got = compose(weight_b(-1, 0.5), weight_phi(0, 0.5), G11)
    assert got == weight_phi(-1, 0.5)


def test_interior_power_pulls_left_of_lf_vanishing():
    P = weight_phi(0, 0, vanish=("lf",))
    Q = weight_phi(0, 0, vanish=("lf",), xl=1)
    got = compose(P, Q, G11)
    assert got == weight_phi(0, 0, vanish=("lf",), xl=1)


def test_interior_power_route_split():
    P = weight_b(-1, 0)
    Q = weight_phi(0, 0, xl=1)
    got = compose(P, Q, G11, route="split")
    assert isinstance(got, ClassSum) and len(got.terms) == 2
    b_part, bphi_part = got.terms
    assert b_part.kind == "b" and b_part.order == NEG_INF and b_part.spec == Weight(0)
    assert bphi_part.kind == "bphi" and bphi_part.order == -1 and bphi_part.xl == 1


def test_split_route_rejects_outside_range():
    with pytest.raises(UnsupportedComposition):
        compose(weight_b(1, 0), weight_phi(0, 0, xl=1), G11, route="split")
    with pytest.raises(UnsupportedComposition):
        compose(weight_b(-1, 0, xr=-1), weight_phi(0, 0), G11, route="split")


def test_bphi_composes_at_any_weight():
    got = compose(bphi_class(-1), weight_phi(0, 0.7), G11)
    assert got == weight_phi(-1, 0.7)
    got2 = compose(bphi_class(-1), bphi_class(-2), G11)
    assert got2 == bphi_class(-3)


def test_every_b_or_phi_class_has_a_boundary_spec():
    # fold is total: a class it could not fold is refused when built or read
    with pytest.raises(ValueError, match="needs a Weight or IndexFamily spec"):
        OpClass("phi", 0)
    docs = [
        {"kind": "sus-phi", "order": 1},
        {"kind": "sus-phi-ext", "order": 1},
        {"kind": "phi", "order": 1},
        {"kind": "b", "order": -1, "spec": None},
    ]
    for doc in docs:
        for read in (OpClass.from_json, entry_from_json):
            with pytest.raises(ValueError):
                read(doc)


def test_zero_composition():
    assert compose(ZERO, weight_phi(0, 0), G11).is_zero
    assert compose(weight_phi(0, 0), ZERO, G11).is_zero


def test_x_inf_passes_through_small_factor():
    R = x_left(weight_phi(0, 0), INF)
    got = compose(small_phi(-2), R, G11)
    assert got == x_left(weight_phi(-2, 0), INF)


# ---------------------------------------------------------------------------
# containment and equality


def test_contains_weight_in_weaker_weight_class():
    assert contains(weight_phi(-2, 0, xl=1), weight_phi(0, 0))
    assert not contains(weight_phi(0, 0), weight_phi(-1, 0))
    assert not contains(weight_phi(0, 0), weight_phi(0, 0.5))


def test_contains_lifts_b_into_phi():
    assert contains(weight_b(-1, 0), weight_phi(-1, 0), G11)
    assert not contains(weight_b(1, 0), weight_phi(1, 0), G11)


def test_contains_bphi_in_weight_class():
    assert contains(bphi_class(-1), weight_phi(-1, 3), G11)
    assert contains(bphi_class(-1), weight_phi(-1, -3), G11)


def test_contains_full_in_bound():
    fam = phi_family(lf=real_set(1), rf=real_set(0.5), bf=real_set(0), ff=real_set(1))
    assert contains(full_class("phi", 0, fam), weight_phi(0, 0.25))
    assert not contains(full_class("phi", 0, fam), weight_phi(0, 1.5))


def test_eq_classes_sum_matching():
    s1 = ClassSum((weight_b(-1, 0, ext=True), bphi_class(0)))
    s2 = ClassSum((bphi_class(0), weight_b(-1, 0)))
    assert eq_classes(s1, s2)  # extended flag does not enter equality
    assert not eq_classes(s1, ClassSum((weight_b(-1, 0),)))


def test_compose_fuzz_never_crashes_unhandled():
    import random
    from phicalc.opclasses import CompositionError

    rng = random.Random(99)
    kinds = ["b", "phi", "bphi"]
    pool = []
    for kind in kinds:
        for order in (-2, 0, 1):
            for xl in (0, 1, INF):
                for xr in (0, -1):
                    spec = None if kind == "bphi" else Weight(rng.choice([0, 0.5]))
                    pool.append(OpClass(kind, order, spec, xl=xl, xr=xr))
    pool.append(small_phi(1, ext=True))
    pool.append(full_class("phi", 0, phi_family(ff=real_set(0))))
    outcomes = {"ok": 0, "rejected": 0}
    for _ in range(400):
        P, Q = rng.choice(pool), rng.choice(pool)
        route = rng.choice([None, "split"])
        try:
            compose(P, Q, G11, route=route)
            outcomes["ok"] += 1
        except CompositionError:
            outcomes["rejected"] += 1
    assert outcomes["ok"] > 50  # plenty of rule coverage
    assert sum(outcomes.values()) == 400  # nothing escaped the error model


def test_json_round_trip():
    classes = [
        weight_phi(-1, 0.5, ext=True, xl=INF, xr=2, vanish=("lf",)),
        full_class("phi", 0, phi_family(ff=real_set(0))),
        bphi_class(NEG_INF),
        OpClass("phi", Fraction(-1, 3), Weight(Fraction(1, 3)), xl=Fraction(2, 3)),
        full_class("phi", 0, phi_family(ff=real_set(Fraction(1, 3)))),
        weight_b(NEG_INF, NEG_INF, xr=INF),
        OpClass("phi", NEG_INF, Weight(INF), xl=INF),
    ]
    for entry in classes + [ClassSum(tuple(classes)), ClassSum((weight_b(NEG_INF, 0, xl=INF),))]:
        text = dumps(entry.to_json())
        again = entry_from_json(json.loads(text))
        assert again == entry and type(again) is type(entry)
        assert dumps(again.to_json()) == text
    assert weight_b(NEG_INF, 0, xl=INF).to_json()["order"] == "-inf"


def test_a_projector_decoration_is_refused_at_read():
    # the (Pi + x^c Piperp) weighting lives on class matrices only: a single
    # class carrying it would otherwise be read with the weighting dropped
    plain = weight_phi(-1, 0).to_json()
    assert plain["proj"] is None and OpClass.from_json(plain) == weight_phi(-1, 0)
    decorated = {**plain, "proj": {"side": "left", "power": -5}}
    for read in (OpClass.from_json, entry_from_json, lambda d: entry_from_json({"sum": [d]})):
        with pytest.raises(ValueError, match="projector"):
            read(decorated)


def test_compose_trace_replays():
    P = weight_b(-1, 0, xl=-1)
    Q = weight_phi(0, 0, xl=1)
    with recording() as trace:
        got = compose(P, Q, G11, route="split")
    assert trace and replay_chain(trace, G11)
    assert isinstance(got, ClassSum)


def test_recording_only_inside_the_block():
    P, Q = weight_phi(0, 0, xr=1), weight_phi(0, 0)
    with recording() as outer:
        compose(P, Q, G11)
        with recording() as inner:
            compose(P, Q, G11)
    compose(P, Q, G11)
    assert [r.rule for r in outer] == ["absorb-power", "compose-weight-phi"]
    assert [r.rule for r in inner] == [r.rule for r in outer]


def test_rule_app_json_round_trip():
    with recording() as chain:
        compose(weight_b(-1, 0), weight_phi(0, 0, xl=1), G11, route="split")
    again = [RuleApp.from_json(r.to_json()) for r in chain]
    assert again == chain and replay_chain(again, G11)


def test_replay_inside_recording_leaves_chain_unchanged():
    with recording() as chain:
        compose(bphi_class(0), weight_phi(0, 0, xl=1), G11)
    before = list(chain)
    with recording() as outer:
        assert replay_chain(chain, G11)
    assert chain == before and outer == []


FAM1 = phi_family(lf=real_set(1), rf=real_set(1), bf=real_set(1), ff=real_set(1))
W0 = weight_phi(0, 0)


def _swap_input(i):
    """Break a record's precondition: its i-th input becomes a plain weight class."""
    return lambda rec: replace(rec, inputs=rec.inputs[:i] + (W0,) + rec.inputs[i + 1:])


# per rewriting rule: a composition that applies it, and a precondition breaker
REWRITES = {
    "power-left-of-lf-vanishing": (weight_phi(0, 0, xr=1, vanish=("lf",)), W0, _swap_input(0)),
    "power-right-of-rf-vanishing": (weight_phi(0, 0, xr=1), weight_phi(0, 0, vanish=("rf",)), _swap_input(1)),
    "absorb-power": (weight_phi(0, 0, xr=1), W0, lambda rec: replace(rec, params={"c": -1})),
    "power-into-family": (full_class("phi", 0, FAM1, xr=1), full_class("phi", 0, FAM1), _swap_input(0)),
    "conjugate-small": (small_phi(0, xr=1), W0, _swap_input(0)),
    "bphi-at-weight": (bphi_class(0), W0, _swap_input(0)),
}


def _rewrite_record(rule):
    P, Q, _ = REWRITES[rule]
    with recording() as chain:
        compose(P, Q, G11)
    assert replay_chain(chain, G11)
    (rec,) = [r for r in chain if r.rule == rule]
    return rec


@pytest.mark.parametrize("rule", sorted(REWRITES))
def test_replay_rejects_tampered_rewrite_output(rule):
    rec = _rewrite_record(rule)
    assert replay_chain([rec], G11)
    assert not replay_chain([replace(rec, output=rec.output.shifted_order(-1))], G11)


@pytest.mark.parametrize("rule", sorted(REWRITES))
def test_replay_rejects_failed_rewrite_precondition(rule):
    rec = _rewrite_record(rule)
    assert not replay_chain([REWRITES[rule][2](rec)], G11)
