"""Model numerics: indicial families, spectrum scans, gap, solves and fits."""

import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phicalc.models import (
    FitError,
    ModelGeometry,
    NormalFamily,
    assemble_DV,
    check_L2,
    discrete_residual,
    fit_exponents,
    imspec,
    imspec_roots,
    normal_family_gap,
    solve_harmonic,
    verify_predictions,
)
from phicalc.jsonio import dumps
from phicalc.models import harmonic
from phicalc.models.harmonic import (
    SampledSolution, _clean_mask, _estimate_rhs, _factor_mode_system, _inv_one_norm,
    _scalar_root,
)
from phicalc.models.geometry import (
    IndicialFamily, ModeOperator, gauss_bonnet_mode_operator, hodge_mode_operator, wedge_matrix,
)
from phicalc.models.spectrum import _components, _mode_roots

import oracles
from oracles import (
    HandBuiltFamily, component_band_lu, loop_clean_mask, loop_discrete_residual, loop_harmonic_matrix,
    loop_solve_harmonic, scan_imspec,
)

GOLD = (-1 + math.sqrt(5)) / 2
MODEL = ModelGeometry()  # a=1, one base circle, one fiber circle, both 2*pi


# ---------------------------------------------------------------------------
# geometry and bases


def test_model_validation_and_json():
    with pytest.raises(ValueError):
        ModelGeometry(a=0)
    with pytest.raises(ValueError):
        ModelGeometry(base_circumferences=(-1.0,))
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            ModelGeometry(base_circumferences=(bad,))
        with pytest.raises(ValueError):
            ModelGeometry(fiber_circumferences=(bad,))
    for x_max in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            ModelGeometry(x_max=x_max)
    for a in (1.5, True, "2", math.nan):
        with pytest.raises(ValueError):
            ModelGeometry(a=a)
    # circumferences and x_max are numbers, as a is: no bool, no string
    for bad in (True, "0.5"):
        with pytest.raises(ValueError):
            ModelGeometry(base_circumferences=(bad,))
        with pytest.raises(ValueError):
            ModelGeometry(fiber_circumferences=(bad,))
        with pytest.raises(ValueError):
            ModelGeometry(x_max=bad)
    assert ModelGeometry(x_max=np.float64(0.5), base_circumferences=(np.int64(2),)).x_max == 0.5
    # forms have dimension 2^(1 + circles): 8 circles give 512, 14 would give 32768
    assert ModelGeometry(base_circumferences=(1.0,) * 4, fiber_circumferences=(1.0,) * 4).form_dim == 512
    with pytest.raises(ValueError, match="at most 8 circles"):
        ModelGeometry.from_json({"fiber": {"circumferences": [1.0] * 13}})
    with pytest.raises(ValueError):
        ModelGeometry.from_json({"a": 1.5})
    assert ModelGeometry.from_json({"a": 2.0}).a == 2
    for m in (
        ModelGeometry(a=2, base_circumferences=(2 * math.pi,), fiber_circumferences=(math.pi,)),
        ModelGeometry(a=3, base_circumferences=(0.5, 1.25), fiber_circumferences=(), x_max=0.75),
    ):
        text = dumps(m.to_json())
        again = ModelGeometry.from_json(json.loads(text))
        assert again == m and dumps(again.to_json()) == text


def test_wedge_matrices_exterior_algebra():
    n = 3
    for i in range(n):
        W = wedge_matrix(i, n)
        assert np.allclose(W @ W, 0)
        assert np.allclose(W @ W.T + W.T @ W, np.eye(2**n))
    # distinct directions anticommute
    W0, W1 = wedge_matrix(0, n), wedge_matrix(1, n)
    assert np.allclose(W0 @ W1 + W1 @ W0, 0)


# ---------------------------------------------------------------------------
# indicial families


def test_scalar_family_volume_b_oracle():
    fam = assemble_DV(MODEL).scalar("b")
    for s in (-1.7, 0.0, 0.3, 2.2):
        for j in (0, 1, 2, 3):
            got = fam.matrix(s, (j,))[0, 0]
            assert abs(abs(got) - abs(j * j - s * s)) < 1e-12


def test_scalar_family_volume_g_oracle():
    fam = assemble_DV(MODEL).scalar("g")
    af = MODEL.a * MODEL.f
    for s in (-1.7, 0.0, 0.3, 2.2):
        for j in (0, 1, 2):
            got = fam.matrix(s, (j,))[0, 0]
            assert abs(abs(got) - abs(s * s + af * s - j * j)) < 1e-12
    assert abs(fam.matrix(GOLD, (1,))[0, 0]) < 1e-12


REFERENCE_MODELS = {
    "unit": MODEL,
    "a2": ModelGeometry(a=2),
    "base2": ModelGeometry(base_circumferences=(2 * math.pi, 2 * math.pi)),
    "nofiber": ModelGeometry(fiber_circumferences=()),
}


@pytest.mark.parametrize("name", ["gb", "hodge", "scalar"])
@pytest.mark.parametrize("volume", ["b", "g"])
@pytest.mark.parametrize("key", list(REFERENCE_MODELS))
def test_family_matches_the_hand_built_matrix(key, volume, name):
    # the coefficients read off the mode operator, evaluated, against the
    # family written out at each lambda
    model = REFERENCE_MODELS[key]
    fam = assemble_DV(model).family(name, volume)
    want = HandBuiltFamily(model, name, volume)
    for mode in model.base_modes(2):
        for s in (-2.2, -0.7, 0.0, 0.3, 1.9):
            W = want.matrix(s, mode)
            assert np.abs(fam.matrix(s, mode) - W).max() <= 1e-12 * max(1.0, np.abs(W).max())
        lam = 0.4 - 1.3j
        W = want.matrix(1j * lam, mode)
        assert np.abs(fam.matrix_lambda(lam, mode) - W).max() <= 1e-12 * max(1.0, np.abs(W).max())


class _UnevaluatedFamily(IndicialFamily):
    """A model family that refuses to be evaluated."""

    def matrix(self, s, mode):
        raise AssertionError("imspec evaluated the indicial matrix")


def test_imspec_never_evaluates_the_family():
    for model in REFERENCE_MODELS.values():
        for name in ("gb", "hodge", "scalar"):
            for volume in ("b", "g"):
                got = imspec(_UnevaluatedFamily(model, name, volume), window=(-5, 4), mode_cutoff=2)
                assert got == imspec(assemble_DV(model).family(name, volume), window=(-5, 4), mode_cutoff=2)
                assert got


def test_family_dimension_count():
    # one base circle and one fiber circle: forms built on 4 coframe slots
    # of the half-cylinder times a rank-2 harmonic bundle
    fam = assemble_DV(MODEL).gauss_bonnet("b")
    assert fam.dim == 8
    assert fam.matrix(0.3, (1,)).shape == (8, 8)


def test_squared_family_is_square():
    bld = assemble_DV(MODEL)
    for vol in ("b", "g"):
        M = bld.gauss_bonnet(vol).matrix(0.7, (1,))
        assert np.allclose(M @ M, bld.hodge(vol).matrix(0.7, (1,)))


def test_mode_zero_singular_at_origin():
    M = assemble_DV(MODEL).gauss_bonnet("b").matrix(0.0, (0,))
    assert np.linalg.svd(M, compute_uv=False)[-1] < 1e-14


def test_no_fiber_reduces_to_cylinder_operator():
    m0 = ModelGeometry(fiber_circumferences=())
    fam = assemble_DV(m0).gauss_bonnet("b")
    assert fam.dim == 4  # forms on the half-cylinder only
    # volume drift vanishes without a fiber: both conventions agree
    famg = assemble_DV(m0).gauss_bonnet("g")
    assert np.allclose(fam.matrix(0.4, (2,)), famg.matrix(0.4, (2,)))


# ---------------------------------------------------------------------------
# spectrum scans


def test_imspec_integer_roots_and_pole_order():
    pts = imspec(assemble_DV(MODEL).scalar("b"), window=(-2.5, 2.5), mode_cutoff=3)
    roots = imspec_roots(pts)
    assert len(roots) == 5
    for got, want in zip(roots, (-2, -1, 0, 1, 2)):
        assert abs(got - want) < 1e-8
    at_zero = [p for p in pts if abs(p.lambda_root) < 1e-8][0]
    assert at_zero.pole_order_k == 1
    assert at_zero.det_order == 2
    for p in pts:
        if abs(p.lambda_root) > 1e-8:
            assert p.pole_order_k == 0


def test_imspec_volume_g_matches_quadratic_roots():
    pts = imspec(assemble_DV(MODEL).scalar("g"), window=(-4.5, 4.5), mode_cutoff=2)
    want = sorted(
        (-1 + sgn * math.sqrt(1 + 4 * j * j)) / 2 for j in range(3) for sgn in (1, -1)
    )
    got = imspec_roots(pts)
    assert len(got) == len(want)
    assert max(abs(g - w) for g, w in zip(got, sorted(set(want)))) < 1e-8


def test_imspec_empty_window():
    pts = imspec(assemble_DV(MODEL).scalar("b"), window=(10.0, 10.5), mode_cutoff=3)
    assert pts == []


def test_imspec_idempotent_under_refined_scan():
    fam = assemble_DV(MODEL).scalar("b")
    a = imspec_roots(imspec(fam, window=(-2.5, 2.5), mode_cutoff=2, scan_step=1e-2))
    b = imspec_roots(imspec(fam, window=(-2.5, 2.5), mode_cutoff=2, scan_step=5e-3))
    assert len(a) == len(b)
    assert max(abs(u - v) for u, v in zip(a, b)) < 1e-8


def test_imspec_reflection_symmetry_per_mode():
    # real-coefficient families: roots come in conjugate pairs, so the
    # critical-weight output of each mode is symmetric under reflection
    fam = assemble_DV(MODEL).scalar("b")
    for j in (1, 2):
        pts = _mode_roots(fam, (j,), -3.5, 3.5, scan_step=1e-2, sv_tol=1e-8)
        roots = sorted(p.lambda_root for p in pts)
        assert len(roots) == 2
        assert abs(roots[0] + roots[1]) < 1e-8


def test_imspec_gauss_bonnet_full_family_roots():
    pts = imspec(assemble_DV(MODEL).gauss_bonnet("b"), window=(-1.5, 1.5), mode_cutoff=1)
    roots = imspec_roots(pts)
    assert [round(r) for r in roots] == [-1, 0, 1]
    # first-order family: simple zero crossing at the mode-0 root
    at_zero = [p for p in pts if abs(p.lambda_root) < 1e-8][0]
    assert at_zero.pole_order_k == 0


def test_imspec_window_edge_flag():
    pts = imspec(assemble_DV(MODEL).scalar("b"), window=(-1.0005, 2.5), mode_cutoff=2)
    edge = [p for p in pts if abs(p.lambda_root + 1) < 1e-6]
    assert edge and edge[0].at_window_edge


@pytest.mark.parametrize("bad, name", [
    ({"scan_step": math.nan}, "scan_step"),
    ({"scan_step": -1e-2}, "scan_step"),
    ({"scan_step": 0.0}, "scan_step"),
    ({"scan_step": math.inf}, "scan_step"),
    ({"sv_tol": math.nan}, "sv_tol"),
    ({"sv_tol": -1e-8}, "sv_tol"),
    ({"sv_tol": math.inf}, "sv_tol"),
    ({"mode_cutoff": True}, "mode cutoff"),
    ({"mode_cutoff": 2.0}, "mode cutoff"),
    ({"mode_cutoff": 1.5}, "mode cutoff"),
])
def test_imspec_refuses_bad_tolerances(bad, name):
    # a nan or negative scan_step once left the root 1.5616, 1e-3 inside the
    # window's end, unflagged; a nan sv_tol accepted every real cluster
    fam = IndicialFamily(MODEL, "hodge", "g")
    kwargs = {"window": (-5, 1.5626), "mode_cutoff": 2} | bad
    with pytest.raises(ValueError, match=name):
        imspec(fam, **kwargs)


def _chain(n):
    linked = np.zeros((n, n), dtype=bool)
    order = np.random.default_rng(n).permutation(n)
    linked[order[1:], order[:-1]] = linked[order[:-1], order[1:]] = True
    return linked


@st.composite
def _graphs(draw):
    """Symmetric boolean adjacency matrices on 0..40 nodes: a few random
    edges, and sometimes a chain through every node in a random order, the
    graph of longest diameter."""
    n = draw(st.integers(0, 40))
    linked = np.zeros((n, n), dtype=bool)
    if n:
        node = st.integers(0, n - 1)
        edges = draw(st.lists(st.tuples(node, node), max_size=2 * n))
        if draw(st.booleans()):
            order = draw(st.permutations(range(n)))
            edges += list(zip(order, order[1:]))
        for i, j in edges:
            linked[i, j] = linked[j, i] = True
    return linked


@settings(max_examples=300, deadline=None)
@given(_graphs())
@example(np.zeros((0, 0), dtype=bool))  # no nodes
@example(np.zeros((7, 7), dtype=bool))  # isolated nodes only
@example(_chain(40))
def test_components_match_scipy(linked):
    label = _components(linked)
    count, component = connected_components(linked, directed=False)
    assert len(label) == len(linked) and len(np.unique(label)) == count
    assert ((label[:, None] == label) == (component[:, None] == component)).all()
    for c in range(count):
        members = np.flatnonzero(component == c)
        assert (label[members] == members[0]).all()


class _PolynomialFamily:
    """One-mode indicial family F(s) = sum_k C_k s^k given by its coefficients."""

    def __init__(self, *coefficients):
        self.C = np.array([np.atleast_2d(np.asarray(c, float)) for c in coefficients])

    def modes(self, cutoff):
        return [(0,)]

    def coefficients(self, mode):
        return self.C


def _jordan_pencil(blocks, lam, seed):
    """F(s) = s I - Q J Q^T for the Jordan matrix J with eigenvalue lam and
    the given block sizes, and a random orthogonal Q."""
    n = sum(blocks)
    J = scipy.linalg.block_diag(*[lam * np.eye(b) + np.eye(b, k=1) for b in blocks])
    Q = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))[0]
    return _PolynomialFamily(-Q @ J @ Q.T, np.eye(n))


# every Jordan structure of one eigenvalue with n <= 4 and chains of length <= 3
JORDAN_BLOCKS = [(1,), (1, 1), (2,), (1, 1, 1), (2, 1), (3,), (1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1)]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(JORDAN_BLOCKS), st.floats(-2, 2), st.integers(0, 2**32 - 1))
@example((3,), 0.3, 3)  # the triple root splits by ~4e-6 off the real axis
def test_imspec_recovers_jordan_structure(blocks, lam, seed):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        pts = imspec(_jordan_pencil(blocks, lam, seed))
    assert len(pts) == 1
    assert abs(pts[0].lambda_root - lam) < 1e-8
    assert pts[0].pole_order_k == max(blocks) - 1
    assert pts[0].det_order == sum(blocks)
    assert pts[0].order_mismatch == (len(blocks) > 1)


@settings(max_examples=100, deadline=None)
@given(st.floats(-2, 2), st.integers(0, 2**32 - 1))
@example(-1.0086745822610346, 1732491760)
def test_imspec_warns_unless_four_block_is_exact(lam, seed):
    # a chain of length 4 splits by about 1e-4, the widest ring a cluster may have
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        pts = imspec(_jordan_pencil((4,), lam, seed))
    exact = (len(pts) == 1 and abs(pts[0].lambda_root - lam) < 1e-8
             and (pts[0].pole_order_k, pts[0].det_order) == (3, 4))
    assert exact or any(issubclass(w.category, RuntimeWarning) for w in caught)


@settings(max_examples=150, deadline=None)
@given(st.floats(-2, 2), st.floats(-6, -3), st.sampled_from([1.0, 10.0]))
@example(0.50005, -4.0, 1.0)  # roots 0.5, 0.5001 once came back as one double root
@example(0.50005, -4.0, 10.0)  # ... and, scaled, as no root at all
@example(1.9, -6.0, 1.0)  # roots 1e-6 apart each came back with pole order 1 and a warning
def test_imspec_separates_close_simple_roots(centre, log_gap, scale):
    a, b = centre - 10**log_gap / 2, centre + 10**log_gap / 2
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        pts = imspec(_PolynomialFamily(scale * a * b, -scale * (a + b), scale))
    assert len(pts) == 2
    assert abs(pts[0].lambda_root - a) < 1e-8 and abs(pts[1].lambda_root - b) < 1e-8
    assert all((p.pole_order_k, p.det_order) == (0, 1) for p in pts)
    assert not caught


def test_imspec_warns_on_root_above_sv_tol():
    # F(s) = 1e10 (3 s - 1): sigma_min at the computed root 1/3 is about 1e-6
    with pytest.warns(RuntimeWarning, match=r"mode \(0,\): 1 real root\(s\) .* sv_tol"):
        assert imspec(_PolynomialFamily(-1e10, 3e10)) == []


def test_imspec_warnings_name_the_caller():
    with pytest.warns(RuntimeWarning) as caught:
        imspec(_PolynomialFamily(-1e10, 3e10))
    assert [w.filename for w in caught] == [__file__]


def test_imspec_warns_on_dropped_non_real_roots():
    # (s - 1/2)^2 + 1/100 has the roots 1/2 +/- i/10
    with pytest.warns(RuntimeWarning, match=r"mode \(0,\): 2 eigenvalue\(s\) .* non-real"):
        assert imspec(_PolynomialFamily(0.26, -1.0, 1.0)) == []


# ---------------------------------------------------------------------------
# normal-family gap


def test_gap_matches_product_identity():
    taus = np.linspace(-5, 5, 5)
    etas = np.linspace(-5, 5, 5)
    rep = normal_family_gap(MODEL, taus, etas)
    for (i, j), gap in np.ndenumerate(rep.gaps):
        oracle = math.sqrt(1 + rep.taus[i] ** 2 + rep.etas[j] ** 2)
        assert abs(gap - oracle) < 1e-6
    assert abs(rep.min_gap - 1.0) < 1e-6
    assert rep.normal_invertible


def test_gap_explicit_point():
    rep = normal_family_gap(MODEL, [3.0], [4.0])
    assert abs(rep.min_gap - math.sqrt(26.0)) < 1e-6


def test_gap_scales_with_fiber_circumference():
    m = ModelGeometry(fiber_circumferences=(math.pi,))  # lambda1 = 4
    rep = normal_family_gap(m, [0.0], [0.0])
    assert abs(rep.min_gap - 2.0) < 1e-6
    assert abs(rep.lambda1 - 4.0) < 1e-12


def test_gap_without_fiber_is_vacuous():
    m0 = ModelGeometry(fiber_circumferences=())
    rep = normal_family_gap(m0, [0.0, 1.0], [0.0])
    assert math.isinf(rep.min_gap) and rep.normal_invertible


def test_gap_refuses_a_grid_that_is_not_one_dimensional():
    # a grid that is not 1-D is refused before any eigen-solve, with or without a fiber
    for model in (MODEL, ModelGeometry(fiber_circumferences=())):
        with pytest.raises(ValueError, match="the taus grid must be a nonempty 1-D array"):
            normal_family_gap(model, taus=[[0, 1]])
        with pytest.raises(ValueError, match="the etas grid must be a nonempty 1-D array"):
            normal_family_gap(model, etas=[[0.0], [1.0]])


@pytest.mark.parametrize("cutoff", [True, 2.0])
def test_gap_refuses_a_mode_cutoff_that_is_not_an_integer(cutoff):
    # a bool once scanned cutoff 1, and a whole float reached range()
    with pytest.raises(ValueError, match="mode cutoff must be a non-negative integer"):
        normal_family_gap(MODEL, [0.0], [0.0], mode_cutoff=cutoff)


def test_normal_family_square_identity():
    nf = NormalFamily(MODEL)
    for tau, eta, mmode in [(0.0, 0.0, (1,)), (3.0, 4.0, (1,)), (1.0, -2.0, (2,))]:
        N = nf.matrix(tau, [eta], mmode)
        nu2 = (2 * math.pi * mmode[0] / (2 * math.pi)) ** 2
        assert np.allclose(N @ N, (nu2 + tau * tau + eta * eta) * np.eye(8))


# ---------------------------------------------------------------------------
# harmonic solves and fits


def test_solve_scalar_mode_matches_separated_root():
    sol = solve_harmonic(MODEL, 0, ((1,), (0,)))
    fit = fit_exponents(sol)
    assert not fit.superpolynomial_flag
    assert abs(fit.fitted_exponent - GOLD) <= 0.02 * GOLD
    assert fit.fitted_log_power == 0
    assert not sol.ill_conditioned()


def test_solve_respects_higher_mode_root():
    want = _scalar_root(MODEL, 2)
    fit = fit_exponents(solve_harmonic(MODEL, 0, ((2,), (0,))))
    assert abs(fit.fitted_exponent - want) <= 0.02 * want


def test_fit_leaves_out_the_terminal_artifact():
    # the zero condition at t_max adds a growing branch of relative size
    # e^(-(t_max - t)(roots' gap)); a window reaching 2.8 units from t_max
    # read it as a +2e-3 error in the exponent
    fit = fit_exponents(solve_harmonic(MODEL, 0, ((1,), (0,))))
    assert abs(fit.fitted_exponent - _scalar_root(MODEL, 1)) <= 1e-3


def test_fit_reads_every_resolved_sample_up_to_x_one_tenth():
    # the subleading terms of the solve bias a fit on a window ending at
    # x = 1e-2 by 2.4e-4; every resolved sample up to x = 0.1 keeps the
    # exponent within 1e-4 of the closed form
    for model in (MODEL, ModelGeometry(a=2)):
        fit = fit_exponents(solve_harmonic(model, 0, ((1,), (0,))))
        assert abs(fit.fitted_exponent - _scalar_root(model, 1)) <= 1e-4, model.a
        assert fit.fitted_log_power == 0
    # base circumference 3.0: mode (2,) decays like x^3.7185
    model = ModelGeometry(base_circumferences=(3.0,))
    fit = fit_exponents(solve_harmonic(model, 0, ((2,), (0,))))
    assert abs(fit.fitted_exponent - _scalar_root(model, 2)) <= 1e-4
    assert fit.fitted_log_power == 0


def test_fit_skips_a_zero_sample_and_leaves_out_the_terminal_artifact():
    # one exactly zero sample is not resolved and is left out of the
    # regression; a bend past t_max - 4 to the zero at t_max, like the one
    # the terminal zero condition makes, must not move the fit
    x = np.exp(-np.linspace(0, 12, 2049))
    t = -np.log(x)
    clean = x**2
    clean[np.searchsorted(t, 6.0)] = 0.0
    bent = clean * np.where(t > 8.0, 1 - np.exp(-(12 - t)), 1.0)
    fit = fit_exponents(_synthetic(x, clean))
    assert fit.fitted_exponent == pytest.approx(2.0, abs=1e-9) and not fit.superpolynomial_flag
    assert fit_exponents(_synthetic(x, bent)) == fit


def test_fiber_mode_superpolynomial():
    # on the coarse grid n = 256 the innermost-decade slope is 9.978, just
    # under the threshold: the regression must still flag the mode
    for mode, n in ((((0,), (1,)), 2048), (((1,), (1,)), 2048), (((0,), (1,)), 256)):
        fit = fit_exponents(solve_harmonic(MODEL, 0, mode, n=n))
        assert fit.superpolynomial_flag, (mode, n)
        assert math.isinf(fit.fitted_exponent)


def test_constant_mode_not_L2():
    sol = solve_harmonic(MODEL, 0, ((0,), (0,)))
    assert not check_L2(sol)
    assert check_L2(solve_harmonic(MODEL, 0, ((1,), (0,))))


def _synthetic(x, values, component=0):
    t = -np.log(x)
    vals = np.zeros((len(x), 1), dtype=complex)
    vals[:, 0] = values
    return SampledSolution(
        t=t,
        x=x,
        values=vals,
        base_mode=(0,),
        fiber_mode=(0,),
        form_degree=0,
        component=component,
        cond_estimate=1.0,
        model=MODEL,
    )


def test_fit_synthetic_pure_power():
    # however fast a power below x^10 decays, the samples with x <= 0.1
    # resolved above the noise floor hold the regression
    x = np.exp(-np.linspace(0, 12, 2049))
    for w in (0.618034, 4, 8):
        fit = fit_exponents(_synthetic(x, x**w))
        assert abs(fit.fitted_exponent - w) < 1e-6 and not fit.superpolynomial_flag, w
        assert fit.fitted_log_power == 0 and fit.residual < 1e-9


def test_fit_synthetic_log_power():
    x = np.exp(-np.linspace(0, 12, 2049))
    fit = fit_exponents(_synthetic(x, x * np.abs(np.log(x))))
    assert abs(fit.fitted_exponent - 1.0) < 1e-6
    assert fit.fitted_log_power == 1


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("w", [0.618034, 1, 2, 3.5, 4, 6, 8, 9.5])
def test_fit_synthetic_power_and_log_power(w, k):
    # each x^w |log x|^k is recovered, or refused: never a wrong exponent
    # or log power (x^0.618 (log x)^2 turns at x = e^(-2/0.618) ~ 0.039,
    # inside the samples read, and is refused as not monotone)
    x = np.exp(-np.linspace(0, 12, 2049))
    try:
        fit = fit_exponents(_synthetic(x, x**w * np.abs(np.log(x)) ** k))
    except FitError:
        assert math.exp(-k / w) < 0.1, (w, k)
        return
    assert not fit.superpolynomial_flag
    assert abs(fit.fitted_exponent - w) < 1e-4 and fit.fitted_log_power == k


def test_fit_classifies_a_decay_with_no_resolved_sample_up_to_x_one_tenth():
    # exp(-5/x) falls below the noise floor at x ~ 0.153: the innermost
    # decade classifies it (slope 13.93), and the row's residual is that
    # regression's misfit, not its slope
    x = np.exp(-np.linspace(0, 12, 2049))
    fit = fit_exponents(_synthetic(x, np.exp(-5 / x)))
    assert fit.superpolynomial_flag and math.isinf(fit.fitted_exponent)
    assert fit.residual == pytest.approx(1.81, abs=0.01)
    # a power that leaves the resolved range before x = 0.1 is refused,
    # not read off the decade slope
    with pytest.raises(FitError, match="decade slope"):
        fit_exponents(_synthetic(x, np.where(x > 0.2, x**2, 0.0)))


def test_fit_synthetic_constant():
    x = np.exp(-np.linspace(0, 12, 2049))
    fit = fit_exponents(_synthetic(x, np.ones_like(x)))
    assert abs(fit.fitted_exponent) < 1e-12
    assert fit.fitted_log_power == 0


def test_fit_rejects_oscillation():
    x = np.exp(-np.linspace(0, 12, 2049))
    wob = x**0.5 * (1 + 0.5 * np.sin(40 * np.log(x)))
    with pytest.raises(FitError):
        fit_exponents(_synthetic(x, wob))


def test_check_L2_synthetic_rule():
    x = np.exp(-np.linspace(0, 12, 2049))
    for w, expect in [(-1.0, False), (-0.3, False), (0.0, False), (0.25, True), (1.0, True)]:
        assert check_L2(_synthetic(x, x**w)) == expect, w


def test_check_L2_refuses_weights_outside_the_float_range():
    # the samples weighed run down to x = e^-8, where x^(-2 gamma) overflows
    # above gamma = 44.37 and underflows to zero below gamma = -46.58
    x = np.exp(-np.linspace(0, 12, 2049))
    sol = _synthetic(x, x**0.5)
    for gamma in (44, -46, Fraction(1, 3)):
        assert check_L2(sol, gamma) in (True, False)
    for gamma in (45, 400, -47, -400, math.inf, Fraction(10) ** 400):
        with pytest.raises(ValueError, match="L2 weight"):
            check_L2(sol, gamma)


def test_discrete_residual_second_order():
    res = [discrete_residual(MODEL, (1,), GOLD, n=n) for n in (128, 256, 512)]
    r1, r2 = res[0] / res[1], res[1] / res[2]
    assert 3.6 <= r1 <= 4.4 and 3.6 <= r2 <= 4.4


def test_one_form_component_solves_and_fits():
    sol = solve_harmonic(MODEL, 1, ((1,), (0,)))
    assert sol.values.shape[1] == 8
    fit = fit_exponents(sol)
    # the 1-form block of the mode system decays at a critical weight of
    # the metric-volume family
    fam = assemble_DV(MODEL).gauss_bonnet("g")
    pts = imspec(fam, window=(0.05, 4.0), mode_cutoff=1)
    assert any(abs(fit.fitted_exponent - r) <= 0.02 * r for r in imspec_roots(pts))


def test_mode_operator_annihilates_exact_solution():
    op = hodge_mode_operator(MODEL, (1,), (0,))
    v = np.zeros(8, dtype=complex)
    v[0] = 1.0
    # on x^s v = e^(-s t) v the operator acts by sum_p coefficient(t, p) (-s)^p
    for t in (0.5, 2.0, 7.0):
        symbol = sum(A * (-GOLD) ** p for p, A in enumerate(op.coefficients(t)))
        assert np.linalg.norm(symbol @ v) < 1e-12


def test_mode_operator_coefficient_stack_matches_pointwise():
    op = hodge_mode_operator(ModelGeometry(a=2), (1,), (1,))
    t = np.array([0.0, 0.3, 2.5, 7.0])
    stacks = op.coefficients(t)
    assert stacks.shape == (3, len(t), op.dim, op.dim)
    assert op.coefficients(1.0).shape == (3, op.dim, op.dim)
    # the entries of the pattern alone, exactly as the full stack has them
    r, c = np.nonzero(np.any([block != 0 for block in op.terms.values()], axis=0))
    entries = op.coefficients(t, (r, c))
    assert entries.shape == (3, len(t), len(r))
    assert np.array_equal(entries, stacks[..., r, c])
    assert np.array_equal(op.coefficients(1.0, (r, c)), op.coefficients(1.0)[..., r, c])
    for p, stack in enumerate(stacks):
        for ti, M in zip(t, stack):
            assert np.allclose(M, op.coefficients(ti)[p], rtol=1e-15, atol=0)
        # bit for bit the sum of the order-p terms, added in terms order
        want = np.zeros(stack.shape, dtype=complex)
        for (pp, q), block in op.terms.items():
            if pp == p:
                want = want + block * np.exp(q * op.a * t)[:, None, None]
        assert np.array_equal(stack, want), p


def _fit_outcome(sol):
    try:
        fit = fit_exponents(sol)
    except FitError as exc:
        return str(exc)
    return fit.fitted_exponent, fit.fitted_log_power, fit.superpolynomial_flag


ORACLE_MODELS = (MODEL, ModelGeometry(a=2),
                 ModelGeometry(base_circumferences=(5.0,), fiber_circumferences=(3.0,)))
ORACLE_MODES = [((j,), (0,)) for j in range(3)] + [((0,), (1,)), ((1,), (1,))]


def test_vectorized_solve_matches_loop_oracle():
    # two assemblies of the same mode system: stacked coefficient arrays
    # and one Python block insertion per grid row; two condition
    # estimators: the deterministic one and SciPy's randomized onenormest
    for model in ORACLE_MODELS:
        for mode in ORACLE_MODES:
            for degree in (0, 1):
                got = solve_harmonic(model, degree, mode)
                want = loop_solve_harmonic(model, degree, mode)
                case = (model.a, model.base_circumferences, mode, degree)
                scale = np.abs(want.values).max()
                assert np.abs(got.values - want.values).max() <= 1e-12 * scale, case
                assert abs(got.cond_estimate - want.cond_estimate) <= 1e-9 * want.cond_estimate, case
                assert _fit_outcome(got) == _fit_outcome(want), case
    for model in ORACLE_MODELS:
        root = _scalar_root(model, 1)
        for n in (128, 256, 512):
            got = discrete_residual(model, (1,), root, n=n)
            want = loop_discrete_residual(model, (1,), root, n=n)
            assert abs(got - want) <= 1e-12 * want, (model.a, n)


TWO_CIRCLES = ModelGeometry(base_circumferences=(2 * math.pi, 2 * math.pi))


def test_every_form_degree_solves_like_the_loop_oracle():
    # the values are written into the columns of the default component
    # itself, whichever block holds it and whichever coupling component
    # stands for that block; a coarser grid keeps the loop oracle cheap
    n = 256
    for model in ORACLE_MODELS + (TWO_CIRCLES,):
        for base, fiber in ORACLE_MODES:
            mode = (base + (0,) * (model.b - 1), fiber)
            for degree in range(model.form_dim.bit_length()):
                got = solve_harmonic(model, degree, mode, n=n)
                want = loop_solve_harmonic(model, degree, mode, n=n)
                case = (model.a, model.base_circumferences, mode, degree)
                scale = np.abs(want.values).max()
                assert np.abs(got.values - want.values).max() <= 1e-12 * scale, case
                assert abs(got.cond_estimate - want.cond_estimate) <= 1e-9 * want.cond_estimate, case
                # single components now factor through xGTTRF, the oracle's
                # whole band through xGBTRF: fits agree to rounding
                fit, want_fit = _fit_outcome(got), _fit_outcome(want)
                if isinstance(want_fit, str):
                    assert fit == want_fit, case
                else:
                    assert fit[1:] == want_fit[1:], case
                    assert fit[0] == pytest.approx(want_fit[0], rel=1e-9), case


def _hand_operator(diagonal, dead=()):
    """A mode operator on eight form components: the pairs (1, 4) and
    (3, 6) are coupled by equal first-order entries, the others are single
    components, ``diagonal`` is the diagonal of the zeroth-order term, and
    the rows of the ``dead`` components are zero in every term."""
    coupling = np.zeros((8, 8))
    coupling[[1, 4, 3, 6], [4, 1, 6, 3]] = 0.3
    terms = {
        (2, 0): np.eye(8),
        (1, 0): -0.5 * np.eye(8) + coupling,
        (0, 0): -np.diag(diagonal),
        (0, 1): -0.1 * np.eye(8),
    }
    for block in terms.values():
        block[list(dead)] = 0.0
    return ModeOperator(terms, a=1, dim=8)


def _use_operator(monkeypatch, op):
    """Make ``solve_harmonic`` and the loop assembly solve ``op`` for every mode."""
    for module in (harmonic, oracles):
        monkeypatch.setattr(module, "hodge_mode_operator", lambda *args: op)


def _perturbed(*components):
    diagonal = np.ones(8)
    diagonal[list(components)] += 1e-3
    return diagonal


def _swapped_in_time(component):
    """The hand operator with ``component``'s zeroth-order entries of the
    terms (0, 0) and (0, 1) swapped: at t = 0 its coefficients are those of
    the other single components, at every t > 0 they differ."""
    op = _hand_operator(np.ones(8))
    zeroth, first = op.terms[(0, 0)], op.terms[(0, 1)]
    zeroth[component, component], first[component, component] = (
        first[component, component], zeroth[component, component])
    return op


@pytest.mark.parametrize("op, blocks", [
    (_hand_operator(_perturbed()), [[(0,), (2,), (5,), (7,)], [(1, 4), (3, 6)]]),
    (_hand_operator(_perturbed(5)), [[(0,), (2,), (7,)], [(1, 4), (3, 6)], [(5,)]]),
    (_hand_operator(_perturbed(6)), [[(0,), (2,), (5,), (7,)], [(1, 4)], [(3, 6)]]),
    (_hand_operator(_perturbed(0, 3)), [[(0,)], [(1, 4)], [(2,), (5,), (7,)], [(3, 6)]]),
    (_swapped_in_time(5), [[(0,), (2,), (7,)], [(1, 4), (3, 6)], [(5,)]]),
], ids=("equal", "single", "pair", "both", "equal-at-t0"))
def test_blocks_that_differ_are_factored_apart(monkeypatch, op, blocks):
    # one factor per distinct block, in the order of its first member, and
    # the whole matrix's condition number from the blocks' norms; blocks
    # are told apart by every term (p, q), not by their values at one time
    t = np.linspace(0.0, 2.0, 17)
    assert [members for _, members in _factor_mode_system(op, t, 2.0 / 16)] == blocks
    calls = _spy_factorizations(monkeypatch)
    _use_operator(monkeypatch, op)
    want_calls = ["zgttrf" if len(members[0]) == 1 else "zgbtrf" for members in blocks]
    for n in (4, 8, 16, 32):
        for t_max in (2.0, 12.0):
            A = loop_harmonic_matrix(MODEL, ((0,), (0,)), t_max, n).toarray()
            exact = np.abs(A).sum(axis=0).max() * np.abs(np.linalg.inv(A)).sum(axis=0).max()
            for degree in range(4):
                calls.clear()
                sol = solve_harmonic(MODEL, degree, ((0,), (0,)), t_max=t_max, n=n)
                assert calls == want_calls, (n, t_max, degree)
                assert abs(sol.cond_estimate - exact) <= 1e-9 * exact, (n, t_max, degree)
                b = np.zeros(A.shape[0])
                b[sol.component] = 1.0
                assert _backward_error(A, sol.values.ravel(), b) < 1e-14, (n, t_max, degree)


@pytest.mark.parametrize("dead", [(7,), (6,)], ids=("single", "in-a-pair"))
def test_a_singular_block_away_from_the_data_is_refused(monkeypatch, dead):
    # the block of the default component (0) is regular; another block has
    # zero rows, and the solve refuses the whole system
    _use_operator(monkeypatch, _hand_operator(np.ones(8), dead))
    with pytest.raises(np.linalg.LinAlgError, match="singular"):
        solve_harmonic(MODEL, 0, ((0,), (0,)), n=64)


def _backward_error(A, x, b):
    """Normwise backward error ||b - A x|| / (||A|| ||x|| + ||b||), max-norms."""
    a_norm = np.abs(A).sum(axis=1).max()
    return np.abs(A @ x - b).max() / (a_norm * np.abs(x).max() + np.abs(b).max())


def test_solve_has_a_tiny_backward_error_on_the_loop_matrix():
    # the banded factor is checked against the row-by-row assembly of the
    # same system, independent of the factor the oracle shares
    for model in ORACLE_MODELS:
        for mode in ORACLE_MODES:
            A = loop_harmonic_matrix(model, mode)
            for degree in (0, 1):
                sol = solve_harmonic(model, degree, mode)
                b = np.zeros(A.shape[0], dtype=complex)
                b[sol.component] = 1.0
                err = _backward_error(A, sol.values.ravel(), b)
                assert err < 1e-14, (model.a, model.base_circumferences, mode, degree, err)


def _shuffled_band_blocks(rng, shapes):
    """A dense complex matrix of independent banded blocks, one per (size,
    kl, ku), with its unknowns shuffled by one permutation."""
    blocks = []
    for size, kl, ku in shapes:
        B = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        i, j = np.indices(B.shape)
        B[(i - j > kl) | (j - i > ku)] = 0
        blocks.append(B)
    M = scipy.linalg.block_diag(*blocks)
    perm = rng.permutation(M.shape[0])
    return M[np.ix_(perm, perm)]


_BAND_SHAPES = st.lists(
    st.tuples(st.integers(1, 10), st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=4
)


# 2 x 2 blocks in any order make a tridiagonal band (kl = ku = 1), which
# xGTTRF factors from three unknowns on; with one or two unknowns it stays
# on xGBTRF
_TRIDIAGONAL = [(2, 1, 1), (2, 1, 1), (2, 1, 1)]
_TWO_UNKNOWNS = [(2, 1, 1)]
_ONE_UNKNOWN = [(1, 1, 1)]


@settings(max_examples=150, deadline=None)
@given(shapes=_BAND_SHAPES, seed=st.integers(0, 2**32 - 1))
@example(shapes=_TRIDIAGONAL, seed=1)
@example(shapes=_TWO_UNKNOWNS, seed=2)
@example(shapes=_ONE_UNKNOWN, seed=3)
def test_band_lu_solves_like_a_dense_solve(shapes, seed):
    rng = np.random.default_rng(seed)
    M = _shuffled_band_blocks(rng, shapes)
    lu = component_band_lu(sp.csr_matrix(M))
    assert lu.shape == M.shape
    assert lu.norm1 == pytest.approx(np.abs(M).sum(axis=0).max(), rel=1e-14)
    # a real right-hand side must come back complex, imaginary parts kept
    b = rng.standard_normal(M.shape[0])
    # the columns of a multi-column right-hand side are solved in one call,
    # each bit for bit as on its own
    B = rng.standard_normal((M.shape[0], 3)) + 1j * rng.standard_normal((M.shape[0], 3))
    for trans, op in (("N", M), ("H", M.conj().T)):
        x = lu.solve(b, trans=trans)
        assert x.dtype == complex
        assert _backward_error(op, x, b) < 1e-14, trans
        want = np.linalg.solve(op, b)
        cond = np.linalg.cond(op, np.inf)
        assert np.abs(x - want).max() <= 1e-12 * cond * np.abs(want).max(), trans
        X = lu.solve(B, trans=trans)
        assert X.shape == B.shape
        for j in range(B.shape[1]):
            assert lu.solve(B[:, j], trans=trans).tobytes() == X[:, j].tobytes(), (trans, j)


@settings(max_examples=50, deadline=None)
@given(shapes=_BAND_SHAPES, seed=st.integers(0, 2**32 - 1), column=st.integers(0, 39))
@example(shapes=_TRIDIAGONAL, seed=1, column=3)
@example(shapes=_TWO_UNKNOWNS, seed=2, column=1)
@example(shapes=_ONE_UNKNOWN, seed=3, column=0)
def test_band_lu_refuses_a_structurally_singular_matrix(shapes, seed, column):
    rng = np.random.default_rng(seed)
    M = _shuffled_band_blocks(rng, shapes)
    M[:, column % M.shape[0]] = 0
    with pytest.raises(np.linalg.LinAlgError):
        component_band_lu(sp.csr_matrix(M))


def _spy_factorizations(monkeypatch):
    """The names of the LAPACK factor routines that ``harmonic`` calls,
    appended to the returned list as they are called."""
    calls = []
    for name in ("zgttrf", "zgbtrf"):
        def spy(*args, _name=name, _routine=getattr(harmonic, name), **kwargs):
            calls.append(_name)
            return _routine(*args, **kwargs)

        monkeypatch.setattr(harmonic, name, spy)
    return calls


def test_each_distinct_block_is_evaluated_once(monkeypatch):
    # the coefficients are evaluated on one coupling component per distinct
    # block: its other components have equal terms, so bit-identical bands
    entries = []
    coefficients = ModeOperator.coefficients

    def spy(self, t, which=None):
        entries.append(which)
        return coefficients(self, t, which)

    monkeypatch.setattr(ModeOperator, "coefficients", spy)
    t = np.linspace(0.0, 12.0, 257)
    for mode, calls in ((((1,), (0,)), 1), (((0,), (1,)), 3)):
        entries.clear()
        factors = _factor_mode_system(hodge_mode_operator(MODEL, *mode), t, 12.0 / 256)
        assert len(entries) == len(factors) == calls, mode
        for (rows, cols), (_, members) in zip(entries, factors):
            assert set(rows) | set(cols) == set(members[0]), (mode, members)


def test_mode_systems_factor_with_the_routine_of_their_band(monkeypatch):
    # each distinct coupling block is factored once: the single components
    # of a fibre-harmonic mode are one tridiagonal block for xGTTRF; a
    # fibre-perpendicular mode has one distinct single-component block and
    # two distinct coupled pairs (kl = ku = 2) for xGBTRF.  Tridiagonal
    # bands of fewer than three unknowns also stay on xGBTRF
    calls = _spy_factorizations(monkeypatch)
    for model in ORACLE_MODELS:
        for mode in ORACLE_MODES:
            calls.clear()
            solve_harmonic(model, 0, mode, n=64)
            want = ["zgttrf", "zgbtrf", "zgbtrf"] if any(mode[1]) else ["zgttrf"]
            assert calls == want, (model.a, model.base_circumferences, mode)
    for size in (1, 2):
        calls.clear()
        band = np.zeros((4, size), dtype=complex)
        band[2] = 2.0
        assert harmonic._BandLU(band, 1, 1).solve(np.ones(size)).tolist() == [0.5] * size
        assert calls == ["zgbtrf"], size


def test_mode_system_components_are_those_of_the_whole_graph():
    # the library reads the coupling components off the dim x dim pattern
    # and shares a block between components with equal band data; the
    # oracle searches the sparsity graph of all (n + 1) dim unknowns, and
    # the blocks are compared on its row-by-row assembly
    t_max, n = 12.0, 2048
    t = np.linspace(0.0, t_max, n + 1)
    cases = [(model, mode) for model in ORACLE_MODELS for mode in ORACLE_MODES]
    cases += [(TWO_CIRCLES, ((1, 2), (0,))), (TWO_CIRCLES, ((0, 1), (1,)))]
    for model, mode in cases:
        factors = _factor_mode_system(hodge_mode_operator(model, *mode), t, t_max / n)
        A = loop_harmonic_matrix(model, mode, t_max, n)
        want = component_band_lu(A)
        case = (model.base_circumferences, model.a, mode)
        dim = model.form_dim
        _, label = connected_components(abs(A), connection="weak")
        whole = {tuple(sorted(set(np.flatnonzero(label == g) % dim))) for g in np.unique(label)}
        assert sorted(m for _, members in factors for m in members) == sorted(whole), case
        # one block per coupling component of the grid, the grid innermost
        assert sum(len(members) for _, members in factors) == label.max() + 1, case

        def block(members):
            unknowns = (np.arange(n + 1)[:, None] * dim + members).ravel()
            return A[unknowns][:, unknowns]

        # the components that share a factor have equal blocks, and the
        # representatives of different factors of one size do not
        firsts = []
        for lu, members in factors:
            first = block(members[0])
            for other in members[1:]:
                assert (block(other) != first).nnz == 0, (case, members)
            for prev, prev_members in firsts:
                if prev.shape == first.shape:
                    assert (prev != first).nnz > 0, (case, prev_members[0], members[0])
            firsts.append((first, members))
            # single components are tridiagonal, coupled pairs have two
            # diagonals on either side
            width = len(members[0])
            assert (lu.kl, lu.ku) == (width, width), (case, members)
            assert lu.shape == ((n + 1) * width,) * 2, (case, members)
        # fibre-harmonic modes have single components only
        width = 1 if not any(mode[1]) else 2
        assert (want.kl, want.ku) == (width, width), case
        assert max(lu.kl for lu, _ in factors) == width, case
        # the system is block diagonal: its 1-norm is the largest block's
        assert max(lu.norm1 for lu, _ in factors) == pytest.approx(want.norm1, rel=1e-14), case


@pytest.mark.parametrize("model", ORACLE_MODELS, ids=("a1", "a2", "circles5-3"))
def test_cond_estimate_is_the_exact_condition_on_small_grids(model):
    # on grids small enough for a dense inverse, the estimate is the 1-norm
    # condition number itself
    for mode in ORACLE_MODES:
        for n in (4, 8, 16, 32):
            for t_max in (2.0, 12.0):
                A = loop_harmonic_matrix(model, mode, t_max, n).toarray()
                exact = np.abs(A).sum(axis=0).max() * np.abs(np.linalg.inv(A)).sum(axis=0).max()
                got = solve_harmonic(model, 0, mode, t_max=t_max, n=n).cond_estimate
                assert abs(got - exact) <= 1e-9 * exact, (mode, n, t_max)


@settings(max_examples=200, deadline=None)
@given(
    size=st.integers(2, 12),
    seed=st.integers(0, 2**32 - 1),
    col_scales=st.lists(st.integers(-3, 3), min_size=12, max_size=12),
)
def test_inverse_norm_estimate_is_a_lower_bound(size, seed, col_scales):
    # badly scaled columns make the largest column of A^-1 hard to find; the
    # exact norm comes from the same factor, column by column, so the bound
    # measures the estimator and not the factorization
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    M = M * 10.0 ** np.array(col_scales[:size])
    # any factor with ``shape`` and ``solve(b, trans)`` will do
    for lu in (spla.splu(sp.csc_matrix(M)), component_band_lu(sp.csr_matrix(M))):
        exact = max(np.abs(lu.solve(e)).sum() for e in np.eye(size, dtype=complex))
        got = _inv_one_norm(lu, lu.solve(_estimate_rhs(size)))
        assert got <= exact * (1 + 1e-12), type(lu).__name__


def test_cond_estimate_is_reproducible_and_keeps_global_rng():
    # the estimate uses no random starting vectors: it neither varies
    # between calls nor moves NumPy's global generator
    model = ModelGeometry(base_circumferences=(5.0,), fiber_circumferences=(3.0,))
    np.random.seed(12345)
    state = np.random.get_state()
    estimates = {solve_harmonic(model, 0, ((0,), (1,))).cond_estimate for _ in range(4)}
    assert len(estimates) == 1
    after = np.random.get_state()
    assert after[0] == state[0] and np.array_equal(after[1], state[1]) and after[2:] == state[2:]


@pytest.mark.parametrize("mode", [
    ((1.5,), (0,)), ((True,), (0,)), ((1,), (np.bool_(False),)), (np.float64(1.0), (0,)),
    ((1.0,), (0,)), (("1",), (0,)), ((1,), None),
])
def test_solve_refuses_mode_entries_that_are_not_integers(mode):
    # a mode entry is never truncated: 1.5 is not mode 1, True is not 1
    with pytest.raises(ValueError, match="mode"):
        solve_harmonic(MODEL, 0, mode, n=8)


def test_solve_records_modes_as_python_ints():
    sol = solve_harmonic(MODEL, 0, (np.int64(1), [np.int32(0)]), n=8)
    assert sol.base_mode == (1,) and sol.fiber_mode == (0,)
    assert all(type(v) is int for v in sol.base_mode + sol.fiber_mode)
    assert solve_harmonic(MODEL, 0, ((1,), (0,)), n=8).values.tobytes() == sol.values.tobytes()
    with pytest.raises(ValueError, match="2 entries"):
        ModelGeometry(base_circumferences=(1.0, 2.0)).base_frequency((1,))


# positive samples spread over many decades, with exact zeros, and the
# decays, plateaus and bounces that the running minimum has to follow
_SAMPLES = st.lists(
    st.one_of(st.just(0.0), st.floats(-4.0, 1.0)), min_size=1, max_size=80
).map(lambda steps: np.array([
    0.0 if step == 0.0 else 10.0 ** level
    for step, level in zip(steps, np.cumsum(steps))
]))


@settings(max_examples=300, deadline=None)
@given(vals=_SAMPLES)
@example(vals=np.array([1.0, 1e-7, 1e-8, 6e-8, 1e-9]))
@example(vals=np.array([1.0, 0.0, 1e-7, 0.0, 5e-7, 5.1e-7]))
def test_clean_mask_matches_the_sample_walk(vals):
    assert np.array_equal(_clean_mask(vals), loop_clean_mask(vals))


def test_clean_mask_matches_the_sample_walk_on_solved_modes():
    for mode in ORACLE_MODES:
        sol = solve_harmonic(MODEL, 0, mode)
        vals = np.abs(sol.values[:, sol.component])
        assert np.array_equal(_clean_mask(vals), loop_clean_mask(vals)), mode


@pytest.mark.parametrize("t_window, n", [
    ((1.0, 6.0), 1), ((1.0, 6.0), 0), ((6.0, 1.0), 64), ((1.0, 1.0), 64),
    ((1.0, math.inf), 64), ((math.nan, 6.0), 64),
])
def test_discrete_residual_rejects_bad_grid(t_window, n):
    with pytest.raises(ValueError, match="residual grid"):
        discrete_residual(MODEL, (1,), 1.0, t_window=t_window, n=n)


@pytest.mark.parametrize("n", [2.0, 64.0, np.float64(8), True, np.bool_(True), "8", None])
def test_grids_refuse_a_step_count_that_is_not_an_integer(n):
    # a whole float is not truncated, nor a bool read as 1
    with pytest.raises(ValueError, match="step count n"):
        solve_harmonic(MODEL, 0, ((1,), (0,)), n=n)
    with pytest.raises(ValueError, match="step count n"):
        discrete_residual(MODEL, (1,), 1.0, n=n)


def test_grids_take_numpy_integer_step_counts():
    for n in (np.int64(8), np.int32(8)):
        got = solve_harmonic(MODEL, 0, ((1,), (0,)), n=n)
        assert got.values.tobytes() == solve_harmonic(MODEL, 0, ((1,), (0,)), n=8).values.tobytes()
        assert discrete_residual(MODEL, (1,), 1.0, n=n) == discrete_residual(MODEL, (1,), 1.0, n=8)


def test_gb_mode_operator_squares_to_hodge():
    D = gauss_bonnet_mode_operator(MODEL, (1,), (1,))
    H = hodge_mode_operator(MODEL, (1,), (1,))
    DD = D.compose(D)
    for key, M in H.terms.items():
        assert np.allclose(DD.terms[key], M)


def test_two_dimensional_base_spectrum():
    m2 = ModelGeometry(base_circumferences=(2 * math.pi, 2 * math.pi))
    pts = imspec(assemble_DV(m2).scalar("b"), window=(-2.4, 2.4), mode_cutoff=2)
    got = [round(p.lambda_root, 8) for p in pts]
    want = sorted({s * math.sqrt(j1 * j1 + j2 * j2)
                   for j1 in range(3) for j2 in range(3) for s in (1, -1)})
    want = [round(w, 8) for w in want if abs(w) <= 2.4]
    assert got == want


def test_two_dimensional_base_gap():
    m2 = ModelGeometry(base_circumferences=(2 * math.pi, 2 * math.pi))
    rep = normal_family_gap(m2, [1.0], [2.0])
    # min over the eta-grid point (2, 2): sqrt(1 + 1 + 4 + 4)
    assert abs(rep.min_gap - math.sqrt(10.0)) < 1e-6


def test_imspec_matches_scan_oracle():
    # two routes to the critical weights: the companion eigen-solve and a
    # singular-value scan with golden-section refinement
    builder = assemble_DV(MODEL)
    for name in ("scalar", "gb", "hodge"):
        for volume in ("b", "g"):
            fam = builder.family(name, volume)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)  # model roots are real and complete
                got = imspec(fam, window=(-2.5, 2.5), mode_cutoff=2)
            want = scan_imspec(HandBuiltFamily(MODEL, name, volume), window=(-2.5, 2.5), mode_cutoff=2)
            assert len(got) == len(want), (name, volume)
            for p, q in zip(got, want):
                assert abs(p.lambda_root - q.lambda_root) < 1e-8
                assert (p.pole_order_k, p.det_order, p.at_window_edge) == (
                    q.pole_order_k, q.det_order, q.at_window_edge)
            assert imspec(fam, window=(-2.5, 2.5), mode_cutoff=2) == got


@pytest.mark.parametrize("base", [(2 * math.pi,), (5.0, 2 * math.pi)])
def test_batched_gap_matches_pointwise_svd(base):
    model = ModelGeometry(base_circumferences=base, fiber_circumferences=(3.0,))
    taus, etas = [-1.3, 0.2, 2.7], [-0.7, 1.1, 3.4]
    rep = normal_family_gap(model, taus, etas)
    nf = NormalFamily(model)
    modes = model.fiber_modes(2, nonzero=True)
    assert rep.gaps.shape == (len(taus),) + (len(etas),) * model.b
    for (i, *js), gap in np.ndenumerate(rep.gaps):
        eta = [rep.etas[j] for j in js]
        want = min(np.linalg.svd(nf.matrix(rep.taus[i], eta, m), compute_uv=False)[-1]
                   for m in modes)
        assert abs(gap - want) < 1e-12
    assert rep.min_gap == rep.gaps.min()


# ---------------------------------------------------------------------------
# the watchdog


def test_verify_predictions_passes():
    rep = verify_predictions(MODEL)
    assert rep.passed, rep.checks
    assert all(3.6 <= r <= 4.4 for r in rep.convergence_ratios)
    by_mode = {tuple(map(tuple, (tuple(r["mode"][0]), tuple(r["mode"][1])))): r for r in rep.rows}
    assert by_mode[((0,), (0,))]["in_L2"] is False
    assert by_mode[((1,), (0,))]["matched"] is not None
    assert by_mode[((0,), (1,))]["superpoly"]


def test_verify_predictions_flags_a_log_power_above_the_prediction(monkeypatch):
    """The root near 0.618 is simple, so its predicted log power is 0."""
    real_fit = harmonic.fit_exponents

    def fit_with_log(sol):
        fit = real_fit(sol)
        if fit.mode == ((1,), (0,)):
            fit.fitted_log_power = 1
        return fit

    monkeypatch.setattr(harmonic, "fit_exponents", fit_with_log)
    rep = verify_predictions(MODEL)
    assert not rep.checks["exponents_match_spectrum"] and not rep.passed
    row = next(r for r in rep.rows if r["mode"] == [[1], [0]])
    assert abs(row["matched"] - GOLD) < 1e-9
    assert (row["log_power"], row["predicted_log_power"]) == (1, 0)


def test_verify_predictions_measures_convergence_without_a_root_in_the_window():
    """Base circumference 0.5 puts every positive root above the window; the
    grid-halving check still measures at the closed-form root of mode 1."""
    rep = verify_predictions(ModelGeometry(base_circumferences=(0.5,)))
    assert all(math.isfinite(r) for r in rep.convergence_ratios)
    assert not rep.checks["discretization_second_order"]  # ratios 3.18 and 3.56
