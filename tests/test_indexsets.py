"""Index-set algebra: worked examples, oracle agreement, and invariants."""

import json
import math
import pickle
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phicalc.acceptance import _enum_add, _enum_closure, _enum_eu, _enum_shift
from phicalc.indexsets import (
    EMPTY,
    MAX_DENOMINATOR,
    AlphaForm,
    IndexFamily,
    IndexSet,
    add,
    alpha_decisions,
    decided_alike,
    exact_extended,
    exact_real,
    extended_union,
    geq,
    greater_than,
    make_index_set,
    number_to_json,
    real_set,
    scale,
    shift,
    small_family,
)

from oracles import comprehension_truncate, random_generators


def iset(*pairs):
    return make_index_set(list(pairs))


def closure(gens, re_max):
    """Exact members (re, im, k), re <= re_max, of the closure of ((re, im), k) pairs."""
    return _enum_closure([(re, im, k) for ((re, im), k) in gens], re_max)


def members(I, re_max):
    return set(I.truncate(re_max))


# ---------------------------------------------------------------------------
# construction and canonical form


def test_empty_construction():
    assert make_index_set([]) is not None
    assert make_index_set([]).is_empty
    assert make_index_set([]) == EMPTY


def test_dominated_generator_removed():
    # (1,0) lies in the closure of (0,0)
    assert iset((0, 0), (1, 0)) == iset((0, 0))


def test_closure_membership_log_generator():
    # frozen from the brute-force closure of {(0,1)} below Re z <= 3
    oracle = closure([((0, 0), 1)], 3)
    I = iset((0, 1))
    for probe in [(0, 0), (0, 1), (1, 1), (2, 0)]:
        assert (probe[0], 0, probe[1]) in oracle
        assert I.member(probe[0], probe[1])
    for probe in [(-1, 0), (0, 2)]:
        assert (probe[0], 0, probe[1]) not in oracle
        assert not I.member(probe[0], probe[1])


def test_negative_log_power_rejected():
    with pytest.raises(ValueError):
        make_index_set([(0, -1)])


@pytest.mark.parametrize("k", [0.9, 1.5, 1.0, True, "1"])
def test_non_integer_log_power_rejected(k):
    with pytest.raises(TypeError):
        make_index_set([(0, k)])
    with pytest.raises(TypeError):
        IndexSet.from_json({"empty": False, "generators": [{"re": 0, "im": 0, "k": k}]})
    with pytest.raises(TypeError):
        real_set(0).member(0, k)


def test_incomparable_generators_kept():
    I = iset((0, 1), (1, 2))
    assert len(I.generators) == 2
    assert I.member(1, 2) and I.member(0, 1) and not I.member(0, 2)


# ---------------------------------------------------------------------------
# the four empty-set identities and basic operations


def test_add_empty_absorbing():
    I = iset((0, 1), (2, 0))
    assert add(I, EMPTY) == EMPTY
    assert add(EMPTY, I) == EMPTY
    assert add(EMPTY, real_set(5)) == EMPTY


def test_add_identity_at_zero():
    I = iset((Fraction(1, 2), 1), (3, 0))
    assert add(I, real_set(0)) == I
    assert add(real_set(0), I) == I


def test_add_translation():
    assert add(iset((1, 0)), iset((1, 0))) == iset((2, 0))


def test_extended_union_empty_identity():
    J = iset((0, 1), (2, 0))
    assert extended_union(EMPTY, J) == J
    assert extended_union(J, EMPTY) == J


def test_extended_union_self_boost():
    assert extended_union(iset((0, 0)), iset((0, 0))) == iset((0, 1))
    got = extended_union(iset((0, 0)), iset((0, 0)))
    assert got.member(0, 0) and got.member(0, 1) and got.member(1, 1)


def test_extended_union_boost_inside_closure():
    # the closure of {(0,0)} reaches z=1, so the boost appears there
    assert extended_union(iset((0, 0)), iset((1, 0))) == iset((0, 0), (1, 1))


def test_shift_examples():
    assert shift(EMPTY, 5) == EMPTY
    assert shift(iset((0, 1)), 2) == iset((2, 1))


def test_scale_examples():
    assert scale(iset((-1, 0)), 2) == iset((-2, 0))
    # evaluate 1 unioned-with 2 first, then scale minimal elements by 2
    inner = extended_union(real_set(1), real_set(2))
    assert inner == iset((1, 0), (2, 1))
    assert scale(inner, 2) == iset((2, 0), (4, 1))


def test_scale_rejects_bad_factor():
    with pytest.raises(ValueError):
        scale(real_set(0), 0)
    with pytest.raises(ValueError):
        scale(real_set(0), -2)


def test_scale_reads_its_factor_as_an_integer():
    # the check of GeomConstants: never a bool, NumPy integers through operator.index
    I = iset((Fraction(1, 3), 1))
    with pytest.raises(TypeError):
        scale(I, True)
    assert scale(I, np.int64(2)) == scale(I, 2) == iset((Fraction(2, 3), 1))


def test_comparisons():
    assert greater_than(EMPTY, 1e6)
    assert geq(iset((0, 0)), 0)
    assert not geq(iset((0, 1)), 0)
    assert greater_than(iset((0.5, 0)), 0)
    assert not greater_than(iset((0.5, 0)), 0.5)
    assert geq(iset((0.5, 0)), 0.5)


def test_float_tolerance_in_union():
    # numerics-imported exponent within 1e-9 of an exact one gets boosted
    got = extended_union(iset(((1.0 + 2e-10, 0.0), 0)), iset((1, 0)))
    assert len(got.generators) == 1
    assert got.generators[0][2] == 1


def test_exact_real_quantizes_floats_once():
    assert exact_real(3) == 3 and exact_real(Fraction(1, 3)) == Fraction(1, 3)
    assert exact_real(0.5) == Fraction(1, 2)
    assert exact_real(1 / 3) == Fraction(1, 3)
    assert exact_real(1.0 + 2e-10) == 1 and type(exact_real(1.0 + 2e-10)) is int
    assert exact_real(math.pi).denominator <= MAX_DENOMINATOR
    with pytest.raises(TypeError):
        exact_real(True)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            exact_real(bad)
    with pytest.raises(ValueError):
        make_index_set([(math.nan, 0)])


def test_exact_extended_passes_exact_values_and_infinities_through():
    third = Fraction(1, 3)
    assert exact_extended(3) == 3 and exact_extended(third) is third
    assert exact_extended(math.inf) == math.inf and exact_extended(-math.inf) == -math.inf
    assert exact_extended(0.5) == Fraction(1, 2) and type(exact_extended(2.0)) is int
    # bool is an int subclass: the exact type test still refuses it
    for bad in (True, False):
        with pytest.raises(TypeError):
            exact_extended(bad)
    with pytest.raises(ValueError):
        exact_extended(math.nan)


def test_comparisons_against_infinite_thresholds():
    I = iset((Fraction(1, 3), 1))
    assert greater_than(I, -math.inf) and geq(I, -math.inf)
    assert not greater_than(I, math.inf) and not geq(I, math.inf)
    assert not greater_than(I, 1 / 3) and not geq(I, 1 / 3)
    assert geq(iset((Fraction(1, 3), 0)), 1 / 3)


def test_extended_union_associative_on_nearby_floats():
    # neighbours within 1e-9, but 0 and 1.2e-9 are not: a 1e-9 tolerance
    # merged them in one bracketing and not in the other
    A, B, C = real_set(0.0), real_set(0.6e-9), real_set(1.2e-9)
    assert A == B == C
    lhs = extended_union(extended_union(A, B), C)
    rhs = extended_union(A, extended_union(B, C))
    assert lhs == rhs == iset((0, 2))


# ---------------------------------------------------------------------------
# oracle agreement on random sets


def test_membership_matches_bruteforce_closure():
    rng = random.Random(20260810)
    for _ in range(300):
        gens = random_generators(rng)
        I = make_index_set(gens)
        assert members(I, 8) == closure(gens, 8)


def test_add_matches_bruteforce():
    rng = random.Random(7)
    for _ in range(120):
        ga, gb = random_generators(rng, 3), random_generators(rng, 3)
        A, B = make_index_set(ga), make_index_set(gb)
        cutoff = 8
        # enumerate each factor far enough that all sums below the cutoff appear
        reach = cutoff + 8
        want = _enum_add(closure(ga, reach), closure(gb, reach), cutoff)
        assert members(add(A, B), cutoff) == want


def test_extended_union_matches_bruteforce():
    rng = random.Random(11)
    for _ in range(150):
        ga, gb = random_generators(rng, 3), random_generators(rng, 3)
        A, B = make_index_set(ga), make_index_set(gb)
        want = _enum_eu(closure(ga, 8), closure(gb, 8), 8)
        assert members(extended_union(A, B), 8) == want


def test_extended_union_contains_union_equality_iff_disjoint_exponents():
    rng = random.Random(13)
    for _ in range(150):
        ga, gb = random_generators(rng, 3), random_generators(rng, 3)
        A, B = make_index_set(ga), make_index_set(gb)
        mem_a, mem_b = closure(ga, 8), closure(gb, 8)
        union = mem_a | mem_b
        got = members(extended_union(A, B), 8)
        assert union <= got
        zs_a = {(r, i) for (r, i, _) in mem_a}
        zs_b = {(r, i) for (r, i, _) in mem_b}
        shares = bool(zs_a & zs_b)
        assert (got == union) == (not shares)


def test_shift_matches_bruteforce():
    rng = random.Random(19)
    for _ in range(150):
        ga = random_generators(rng, 3)
        r = rng.choice([Fraction(rng.randrange(-6, 7), rng.choice([1, 2, 3])), rng.uniform(-3, 3)])
        got = members(shift(make_index_set(ga), r), 6)
        assert got == _enum_shift(closure(ga, 12), exact_real(r), 6)


def test_extended_union_associativity_probe():
    """Associativity is not assumed; we search for counterexamples and
    report any that appear instead of canonicalizing them away."""
    rng = random.Random(17)
    counterexamples = []
    for _ in range(200):
        A = make_index_set(random_generators(rng, 3))
        B = make_index_set(random_generators(rng, 3))
        C = make_index_set(random_generators(rng, 3))
        lhs = extended_union(extended_union(A, B), C)
        rhs = extended_union(A, extended_union(B, C))
        if members(lhs, 8) != members(rhs, 8):
            counterexamples.append((A, B, C, lhs, rhs))
    assert not counterexamples, f"extended union not associative: {counterexamples[:3]}"


# ---------------------------------------------------------------------------
# algebraic invariants (property-based)


exact_reals = st.one_of(
    st.integers(min_value=-4, max_value=6),
    st.fractions(min_value=-4, max_value=6, max_denominator=4),
)
gen_lists = st.lists(
    st.tuples(exact_reals, st.integers(min_value=0, max_value=2)), max_size=4
)


@settings(max_examples=150, deadline=None)
@given(gen_lists, gen_lists)
def test_add_and_union_commute(ga, gb):
    A, B = make_index_set(ga), make_index_set(gb)
    assert add(A, B) == add(B, A)
    assert extended_union(A, B) == extended_union(B, A)


@settings(max_examples=100, deadline=None)
@given(gen_lists, gen_lists, gen_lists)
def test_add_associative(ga, gb, gc):
    A, B, C = make_index_set(ga), make_index_set(gb), make_index_set(gc)
    assert add(add(A, B), C) == add(A, add(B, C))


@settings(max_examples=150, deadline=None)
@given(gen_lists)
def test_canonicalization_idempotent(ga):
    I = make_index_set(ga)
    again = make_index_set([((g[0], g[1]), g[2]) for g in I.generators])
    assert again == I


@settings(max_examples=150, deadline=None)
@given(gen_lists, gen_lists)
def test_monotonicity_of_add(ga, gb):
    A, B = make_index_set(ga), make_index_set(gb)
    if A.is_empty or B.is_empty:
        return
    alpha = A.min_re() - 1
    beta = B.min_re() - 1
    assert greater_than(A, alpha) and greater_than(B, beta)
    assert greater_than(add(A, B), alpha + beta)


# the same laws on exponents that enter as floats, mixed with exact ones
float_reals = st.one_of(
    exact_reals,
    st.floats(min_value=-4, max_value=6, allow_nan=False, allow_infinity=False),
)
float_gen_lists = st.lists(
    st.tuples(
        st.tuples(float_reals, st.sampled_from([0, 0, 1, -1])),
        st.integers(min_value=0, max_value=2),
    ),
    max_size=4,
)
NEARBY = [((0.0, 0), 0)], [((0.6e-9, 0), 0)], [((1.2e-9, 0), 0)]


@settings(max_examples=150, deadline=None)
@given(float_gen_lists, float_gen_lists)
@example(*NEARBY[:2])
def test_float_add_and_union_commute(ga, gb):
    A, B = make_index_set(ga), make_index_set(gb)
    assert add(A, B) == add(B, A)
    assert extended_union(A, B) == extended_union(B, A)


@settings(max_examples=100, deadline=None)
@given(float_gen_lists, float_gen_lists, float_gen_lists)
@example(*NEARBY)
def test_float_add_and_union_associative(ga, gb, gc):
    A, B, C = make_index_set(ga), make_index_set(gb), make_index_set(gc)
    assert add(add(A, B), C) == add(A, add(B, C))
    assert extended_union(extended_union(A, B), C) == extended_union(A, extended_union(B, C))


@settings(max_examples=150, deadline=None)
@given(float_gen_lists, st.randoms(use_true_random=False))
@example([((1.0, 0), 0), ((1.0 + 2e-10, 0), 0), ((1 / 3, 0), 1)], random.Random(0))
def test_float_canonical_form_ignores_generator_order(ga, rnd):
    shuffled = list(ga)
    rnd.shuffle(shuffled)
    assert make_index_set(shuffled) == make_index_set(ga)
    assert make_index_set(ga[::-1]) == make_index_set(ga)


@settings(max_examples=150, deadline=None)
@given(float_gen_lists)
@example([((Fraction(1, 3), 0), 0), ((2 / 3, -1), 2)])
def test_float_json_round_trip_is_identity(ga):
    I = make_index_set(ga)
    assert IndexSet.from_json(I.to_json()) == I
    assert IndexSet.from_json(json.loads(json.dumps(I.to_json()))) == I


# ---------------------------------------------------------------------------
# the common-denominator lattice against brute force


# real parts with denominators 1, 2, 3 and 6 (negative thirds among them) or
# floats that exact_real quantizes to denominators up to 10**6; imaginary
# parts exact, some of them fractions
lattice_reals = st.one_of(
    st.sampled_from([1, 2, 3, 6]).flatmap(
        lambda q: st.integers(-3 * q, 3 * q).map(lambda n: Fraction(n, q))
    ),
    st.floats(min_value=-3, max_value=3, allow_nan=False, allow_infinity=False),
)
lattice_gen_lists = st.lists(
    st.tuples(
        st.tuples(lattice_reals, st.sampled_from([0, 0, 1, -1, Fraction(1, 2), Fraction(-1, 3)])),
        st.integers(min_value=0, max_value=2),
    ),
    max_size=4,
)
LATTICE_CUT = 3  # truncation cutoff; the closures go to LATTICE_CUT + 3 for the sums


def _lattice_closure(gens, D, re_max):
    """Brute-force closure of ((re, im), k) pairs with real parts scaled by D."""
    exact = [(exact_real(re), exact_real(im), k) for ((re, im), k) in gens]
    return _enum_closure([(int(re * D), im, k) for (re, im, k) in exact], re_max * D, D)


def _scaled_members(I, D):
    return {(re * D, im, k) for (re, im, k) in I.truncate(LATTICE_CUT)}


def _assert_truncate_is_the_comprehension(I):
    got = I.truncate(LATTICE_CUT)
    assert got == comprehension_truncate(I.generators, LATTICE_CUT)
    assert got == sorted(set(got)) and len(got) == len(set(got))
    assert all(type(x) is int or x.denominator > 1 for (re, im, _) in got for x in (re, im))


@settings(max_examples=200, deadline=None)
@given(lattice_gen_lists, lattice_gen_lists)
# one class, two log powers: the later generator is kept for its larger k
@example([((Fraction(-1, 3), 0), 0), ((Fraction(5, 3), 0), 2)], [((Fraction(2, 3), 0), 1)])
# add gives the whole generator Fraction(2, 1); truncate writes its members as ints
@example([((Fraction(1, 2), 0), 0)], [((Fraction(3, 2), 0), 1)])
def test_lattice_algebra_matches_scaled_bruteforce(ga, gb):
    D = math.lcm(*(exact_real(re).denominator for ((re, _), _) in ga + gb))
    reach = LATTICE_CUT + 3
    A, B = make_index_set(ga), make_index_set(gb)
    ea, eb = _lattice_closure(ga, D, reach), _lattice_closure(gb, D, reach)
    cut = lambda S: {m for m in S if m[0] <= LATTICE_CUT * D}
    assert _scaled_members(A, D) == cut(ea) and _scaled_members(B, D) == cut(eb)
    assert _scaled_members(add(A, B), D) == cut(_enum_add(ea, eb, reach * D))
    assert _scaled_members(extended_union(A, B), D) == cut(_enum_eu(ea, eb, reach * D))
    for I in (A, B, add(A, B), extended_union(A, B)):
        _assert_truncate_is_the_comprehension(I)


_sixths = st.builds(Fraction, st.integers(-12, 18), st.sampled_from([1, 2, 3, 6]))
_exact_gens = st.lists(
    st.tuples(_sixths, st.sampled_from([0, 1, -1, Fraction(1, 2)]), st.integers(0, 2)), max_size=4
)


@settings(max_examples=200, deadline=None)
@given(_exact_gens, _exact_gens, _sixths, st.randoms(use_true_random=False))
# 1/3 shifted by 1/6 is stored at D = 2, and shifted back at D = 3 again
@example([(Fraction(1, 3), 0, 1)], [], Fraction(1, 6), random.Random(0))
def test_every_route_to_a_set_stores_it_alike(ga, gb, r, rng):
    """One set built by different routes is ==, hashes the same and has the
    same generators, whole parts as ``int``."""
    forms = {"int": lambda x: int(x) if x.denominator == 1 else x, "Fraction": Fraction, "float": float}

    def written(gens, form):
        pairs = [((forms[form](re), forms[form](im)), k) for re, im, k in gens]
        rng.shuffle(pairs)
        return make_index_set(pairs)

    I, J = written(ga, "Fraction"), written(gb, "int")
    same = [(I, written(ga, "int")), (I, written(ga, "float")), (I, IndexSet.from_json(I.to_json())),
            (I, IndexSet(I.generators)), (I, shift(shift(I, r), -r)), (I, pickle.loads(pickle.dumps(I))),
            (add(I, J), add(J, I)), (extended_union(I, J), extended_union(J, I))]
    for A, B in same:
        assert A == B and hash(A) == hash(B)
        assert A.generators == B.generators
        assert [tuple(map(type, g)) for g in A.generators] == [tuple(map(type, g)) for g in B.generators]
        assert all(type(x) is int or x.denominator > 1 for g in A.generators for x in g[:2])


def test_whole_fraction_generator_truncates_to_ints():
    I = add(real_set(Fraction(1, 2)), real_set(Fraction(3, 2)))
    assert I.generators == ((Fraction(2, 1), 0, 0),) and type(I.generators[0][0]) is int
    got = I.truncate(3)
    assert got == [(2, 0, 0), (3, 0, 0)] and all(type(re) is int for (re, _, _) in got)
    assert got == comprehension_truncate(I.generators, 3)
    assert IndexSet.from_json(I.to_json()) == I


# ---------------------------------------------------------------------------
# serialization and families


def test_json_round_trip():
    I = iset((Fraction(1, 2), 1), ((2, -1), 0))
    assert IndexSet.from_json(I.to_json()) == I
    assert IndexSet.from_json(EMPTY.to_json()) == EMPTY


def test_json_writes_exact_exponents_and_reads_old_floats():
    I = iset((Fraction(1, 3), 1), ((2, Fraction(-1, 2)), 0))
    assert I.to_json()["generators"] == [
        {"re": "1/3", "im": 0, "k": 1}, {"re": 2, "im": "-1/2", "k": 0},
    ]
    old_file = {"empty": False, "generators": [{"re": 0.3333333333333333, "im": 0.0, "k": 1},
                                               {"re": 2.0, "im": -0.5, "k": 0}]}
    assert IndexSet.from_json(old_file) == I
    decimal = {"empty": False, "generators": [{"re": "0.25", "im": "0", "k": 0}]}
    assert IndexSet.from_json(decimal) == real_set(Fraction(1, 4))


def test_benchmark_nondyadic_sets_round_trip(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "benchmark"))
    from workloads import NONDYADIC

    for gens in NONDYADIC:
        I = make_index_set(gens)
        assert IndexSet.from_json(json.loads(json.dumps(I.to_json()))) == I


def test_family_validation():
    with pytest.raises(ValueError):
        IndexFamily("b", ff=real_set(0))
    with pytest.raises(ValueError):
        IndexFamily("phi")  # missing ff
    fam = IndexFamily("phi", lf=EMPTY, rf=EMPTY, bf=EMPTY, ff=real_set(0))
    assert fam.faces == ("lf", "rf", "bf", "ff")
    assert fam == small_family("phi")


def test_family_json_round_trip():
    fam = IndexFamily("phi", lf=real_set(1), rf=EMPTY, bf=iset((0, 1)), ff=real_set(0))
    assert IndexFamily.from_json(fam.to_json()) == fam
    famb = small_family("b")
    assert IndexFamily.from_json(famb.to_json()) == famb


# ---------------------------------------------------------------------------
# affine forms in the weight


@pytest.mark.parametrize("alpha", [0, 3, Fraction(1, 2), Fraction(2, 1), Fraction(-13, 10)])
def test_alpha_form_values_are_the_concrete_arithmetic(alpha):
    # every value, its type included, is what the same operations give on
    # the number: hash, repr, str and JSON are the number's
    A = AlphaForm(alpha)
    ops = [
        lambda x: x,
        lambda x: -x,
        lambda x: x + 2,
        lambda x: 2 + x,
        lambda x: x - Fraction(1, 3),
        lambda x: Fraction(1, 3) - x,
        lambda x: x * 3,
        lambda x: -2 * x,
        lambda x: (x + x) - (7 - x),
    ]
    for f in ops:
        got, want = f(A), f(alpha)
        assert type(got) is AlphaForm and type(got.value) is type(want) and got.value == want
        assert (hash(got), repr(got), str(got), f"{got}") == (hash(want), repr(want), str(want), f"{want}")
        assert number_to_json(got) == number_to_json(want)
        assert exact_real(got) is got and exact_extended(got) is got
    B = (A + A) - (7 - A)
    assert (B.c, B.s) == (-7, 3) and B.at(Fraction(1, 2)) == Fraction(-11, 2)


def test_alpha_form_records_only_decisions_that_depend_on_alpha():
    A = AlphaForm(Fraction(1, 2))
    with alpha_decisions() as decided:
        # equal coefficients of alpha, or an infinity: the same at every alpha
        assert A + 1 > A and -A == -A + 0 and A < math.inf and not A <= -math.inf
        assert decided == []
        assert A < 1 and not (A == 1 - A + Fraction(1, 4))
        assert 1 > A  # reflected: recorded as A < 1
    assert decided == [
        (-1, 1, "<", True),
        (Fraction(-5, 4), 2, "==", False),
        (-1, 1, "<", True),
    ]
    assert decided_alike(decided, 0) and not decided_alike(decided, 1)
    assert not decided_alike(decided, Fraction(5, 8))  # 2 alpha = 5/4 there
    with alpha_decisions() as zero:
        assert bool(AlphaForm(0)) is False and bool(A) is True
    assert zero == [(0, 1, "!=", False), (0, 1, "!=", True)]
    # outside a block a comparison decides and records nothing
    assert A == Fraction(1, 2) and decided[-1] == (-1, 1, "<", True)


def test_alpha_form_decisions_nest_like_recording():
    A = AlphaForm(2)
    with alpha_decisions() as outer:
        A > 0
        with alpha_decisions() as inner:
            A > 1
        A > 3
    assert [d[0] for d in outer] == [0, -3] and [d[0] for d in inner] == [-1]


_REFUSALS = {
    "float": lambda A: float(A),
    "int": lambda A: int(A),
    "Fraction": lambda A: Fraction(A),
    "numerator": lambda A: A.numerator,
    "denominator": lambda A: A.denominator,
    "times-fraction": lambda A: A * Fraction(1, 2),
    "fraction-times": lambda A: Fraction(1, 2) * A,
    "times-float": lambda A: A * 2.0,
    "times-form": lambda A: A * A,
    "times-bool": lambda A: A * True,
    "divide": lambda A: A / 2,
    "compare-finite-float": lambda A: A < 0.5,
    "form-of-a-form": lambda A: AlphaForm(A),
}


@pytest.mark.parametrize("how", sorted(_REFUSALS))
def test_alpha_form_refuses_to_leak_the_weight(how):
    # a use of the weight that no decision records raises, and records
    # nothing on the way
    with alpha_decisions() as decided:
        with pytest.raises(TypeError):
            _REFUSALS[how](AlphaForm(Fraction(3, 2)))
    assert decided == []
