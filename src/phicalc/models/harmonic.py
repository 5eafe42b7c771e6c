"""Harmonic solves on a log-graded grid and polyhomogeneous exponent fits.

The harmonic equation of the model metric is solved per Fourier mode as a
matrix ODE system in t = -log x, discretized with second-order central
differences, with the prescribed data at x = x_max and the decaying
solution selected by a zero condition at t = T_max.  The block-tridiagonal
system is assembled with array operations from the coefficient matrices of
all interior grid points at once, factorized by sparse LU, and its
condition is estimated with the block 1-norm estimator of Higham and
Tisseur (``scipy.sparse.linalg.onenormest``) under a fixed seed.  Fitted
exponents of the components are then compared against the critical weights
of the metric-volume indicial family: two independent computations of the
same asymptotics.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ..indexsets import exact_real, number_to_json
from ..parametrix import kernel_index_set
from .geometry import ModelGeometry, assemble_DV, hodge_mode_operator
from .spectrum import imspec

__all__ = [
    "SampledSolution",
    "HarmonicFit",
    "FitError",
    "solve_harmonic",
    "discrete_residual",
    "fit_exponents",
    "check_L2",
    "verify_predictions",
    "VerifyReport",
]


#: condition estimate above which a mode solve counts as ill-conditioned
COND_LIMIT = 1e12

# exponent fits: the x-window of the regression, the sample level below which
# a modulus is noise, the slope past which decay counts as superpolynomial,
# and the jump over the running minimum that marks the round-off plateau
_FIT_WINDOW = (1e-4, 1e-2)
_NOISE_REL = 1e-12
_SUPERPOLY_THRESHOLD = 10.0
_BOUNCE = 5.0
# L2 decisions: the units of t cut before the terminal zero condition, and
# the decay rate margin below which a mode counts as not square-integrable
_ARTIFACT_CUT = 4.0
_DECISION_MARGIN = 0.02
# verification sweep: fibre-harmonic base modes 0..2, two fibre-perpendicular
# modes, and the relative tolerance (floored at 0.25 absolute scale) within
# which a fitted exponent matches a predicted one
_BASE_MODE_MAX = 2
_FIBER_CHECKS = (((0,), (1,)), ((1,), (1,)))
_REL_TOL = 0.02


class FitError(ValueError):
    pass


@dataclass
class SampledSolution:
    """Mode solution sampled on the log grid (components in columns)."""

    t: np.ndarray
    x: np.ndarray
    values: np.ndarray
    base_mode: tuple
    fiber_mode: tuple
    form_degree: int
    component: int
    cond_estimate: float
    model: ModelGeometry

    def ill_conditioned(self) -> bool:
        return self.cond_estimate > COND_LIMIT


@dataclass
class HarmonicFit:
    """Fitted leading behaviour x^w (log x)^k of one mode component."""

    mode: tuple  # (base tuple, fiber tuple)
    fitted_exponent: float  # inf surrogate when superpolynomial
    fitted_log_power: int
    residual: float
    superpolynomial_flag: bool

    def to_row(self):
        return {
            "mode": "|".join(
                ";".join(str(v) for v in part) if part else "-" for part in self.mode
            ),
            "exponent": "inf" if self.superpolynomial_flag else f"{self.fitted_exponent:.9g}",
            "log_power": self.fitted_log_power,
            "residual": f"{self.residual:.3e}",
            "superpoly": int(self.superpolynomial_flag),
        }


def _default_component(model: ModelGeometry, form_degree: int) -> int:
    for s in range(model.form_dim):
        if bin(s).count("1") == form_degree:
            return s
    raise ValueError(f"no component of form degree {form_degree}")


@contextmanager
def _fixed_global_rng():
    """Run a block on NumPy's global generator seeded with 0, then give the
    caller back the generator state it had.

    ``scipy.sparse.linalg.onenormest`` draws its random starting vectors
    from the global generator, so without this the condition estimate of
    one system varies between calls and every solve moves the caller's
    random stream."""
    state = np.random.get_state()
    np.random.seed(0)
    try:
        yield
    finally:
        np.random.set_state(state)


def solve_harmonic(
    model: ModelGeometry,
    form_degree: int = 0,
    mode=((0,), (0,)),
    t_max: float = 12.0,
    n: int = 2048,
) -> SampledSolution:
    """Solve the model harmonic equation for one Fourier mode.

    ``mode`` is (base j-tuple, fiber m-tuple).  The second-order mode
    system is discretized on the uniform t-grid of ``n`` steps over
    [0, t_max] (x from x_max down to x_max e^(-t_max)); a unit boundary
    value on the form degree's default component is prescribed at t = 0
    and the L2-admissible branch is selected by u(t_max) = 0.  The lower,
    diagonal and upper blocks of every interior row come from one stacked
    coefficient evaluation; exact zeros are left out of the sparsity
    pattern.  The one-norm condition estimate of the solve is recorded so
    contamination by the growing branch can be flagged.  Raises
    ``ValueError`` unless t_max is finite and positive and n >= 2.
    """
    if not (math.isfinite(t_max) and t_max > 0 and n >= 2):
        raise ValueError(f"the solve grid needs a finite T > 0 and N >= 2, got T={t_max}, N={n}")
    base_mode, fiber_mode = mode
    op = hodge_mode_operator(model, base_mode, fiber_mode)
    dim = op.dim
    if op.max_dt_order() != 2:
        raise ValueError("the harmonic mode system should be second order")

    component = _default_component(model, form_degree)
    g = np.zeros(dim, dtype=complex)
    g[component] = 1.0

    h = t_max / n
    t = np.linspace(0.0, t_max, n + 1)
    # x = x_max e^{-t}
    x = model.x_max * np.exp(-t)

    # every coefficient vanishes off the union (r, c) of the terms' patterns;
    # blocks[i - 1, k, e] couples unknown r[e] of interior point i to
    # unknown c[e] of point i - 1 + k
    r, c = np.nonzero(np.any([block != 0 for block in op.terms.values()], axis=0))
    A2 = op.coefficient(t[1:-1], 2)[:, r, c] / h**2
    A1 = op.coefficient(t[1:-1], 1)[:, r, c] / (2 * h)
    A0 = op.coefficient(t[1:-1], 0)[:, r, c]
    blocks = np.stack([A2 - A1, -2 * A2 + A0, A2 + A1], axis=1)
    nonzero = blocks != 0
    i, k, e = np.nonzero(nonzero)
    ends = np.r_[0:dim, n * dim : (n + 1) * dim]  # identity rows at t = 0 and t_max
    rows = np.concatenate([(i + 1) * dim + r[e], ends])
    cols = np.concatenate([(i + k) * dim + c[e], ends])
    vals = np.concatenate([blocks[nonzero], np.ones(2 * dim)])

    A = sp.csr_matrix((vals, (rows, cols)), shape=((n + 1) * dim, (n + 1) * dim))
    rhs = np.zeros((n + 1) * dim, dtype=complex)
    rhs[:dim] = g

    lu = spla.splu(A.tocsc())
    u = lu.solve(rhs)
    inv_op = spla.LinearOperator(
        A.shape,
        matvec=lu.solve,
        rmatvec=lambda b: lu.solve(b, trans="H"),
        dtype=complex,
    )
    with np.errstate(over="ignore", invalid="ignore"), _fixed_global_rng():
        cond = float(spla.onenormest(A) * spla.onenormest(inv_op))
    values = u.reshape(n + 1, dim)
    return SampledSolution(
        t=t,
        x=x,
        values=values,
        base_mode=tuple(np.atleast_1d(base_mode).astype(int)),
        fiber_mode=tuple(np.atleast_1d(fiber_mode).astype(int)),
        form_degree=form_degree,
        component=component,
        cond_estimate=cond,
        model=model,
    )


def discrete_residual(
    model: ModelGeometry,
    base_mode,
    exponent: float,
    component: int = 0,
    t_window=(1.0, 6.0),
    n: int = 256,
) -> float:
    """Max-norm defect of the discrete operator on the exact power solution.

    For an indicial root s of the mode system, x^s times the component
    vector solves the continuous equation exactly, so the discrete defect
    is pure truncation error, O(h^2).  The defect of all interior points
    is one stacked matrix product.  Raises ``ValueError`` unless n >= 2 and
    the window ends are finite and increasing.
    """
    t0, t1 = t_window
    if not (n >= 2 and math.isfinite(t0) and math.isfinite(t1) and t0 < t1):
        raise ValueError(
            f"the residual grid needs finite t0 < t1 and n >= 2, got t_window={t_window}, n={n}"
        )
    op = hodge_mode_operator(model, base_mode, (0,) * model.f)
    dim = op.dim
    h = (t1 - t0) / n
    t = np.linspace(t0, t1, n + 1)
    v = np.zeros(dim, dtype=complex)
    v[component] = 1.0
    u = (np.exp(-exponent * t)[:, None] * v[None, :])[..., None]
    A2 = op.coefficient(t[1:-1], 2)
    A1 = op.coefficient(t[1:-1], 1)
    A0 = op.coefficient(t[1:-1], 0)
    r = (
        A2 @ (u[2:] - 2 * u[1:-1] + u[:-2]) / h**2
        + A1 @ (u[2:] - u[:-2]) / (2 * h)
        + A0 @ u[1:-1]
    )
    return float(np.abs(r).max(initial=0.0))


# ---------------------------------------------------------------------------
# exponent fitting


def _window_mask(x, lo, hi):
    return (x >= lo) & (x <= hi)


def _clean_mask(vals: np.ndarray) -> np.ndarray:
    """Samples before the numerical noise plateau.

    For a decaying mode the modulus decreases along the grid until the
    direct solve's round-off takes over, where it bounces around a small
    plateau.  Cut at the first bounce above ``_BOUNCE`` times the running
    minimum once the values sit far below the overall scale.
    """
    scale = float(vals.max())
    mask = np.ones(len(vals), dtype=bool)
    runmin = math.inf
    for i, v in enumerate(vals):
        if v <= 0:
            continue  # exact zeros are handled by the noise threshold
        if v < runmin:
            runmin = v
        elif 0 < runmin < 1e-6 * scale and v > _BOUNCE * runmin:
            mask[i:] = False
            break
    return mask


def fit_exponents(samples: SampledSolution) -> HarmonicFit:
    """Fit x^w (log x)^k to the solved component of a sampled mode solution.

    The exponent and log power come from a joint regression of log|u|
    against log x and log|log x| over the fit window.  When the window
    content has fallen below the numerical noise floor, the decay is
    measured on the innermost still-resolved decade instead and the mode is
    classified superpolynomial once that slope exceeds the threshold
    (which grows as the probe window moves inward, matching the behaviour
    of faster-than-polynomial decay).  A slope below the threshold is the
    fitted exponent, with log power 0: in that regime the log power is not
    fitted.
    """
    x = samples.x
    vals = np.abs(samples.values[:, samples.component])
    scale = float(vals.max())
    if scale == 0.0:
        raise FitError("component is identically zero")
    usable = (vals > _NOISE_REL * scale) & _clean_mask(vals)

    window = _window_mask(x, *_FIT_WINDOW)
    if window.sum() < 8:
        raise FitError(f"fit window {_FIT_WINDOW} holds too few samples for a regression")

    if not usable[window].all():
        return _superpoly_fit(samples, x, vals, usable)

    xs = x[window]
    ys = vals[window]
    dy = np.diff(np.log(ys))
    if dy.size and (dy.max() > 1e-8 and dy.min() < -1e-8):
        raise FitError("component modulus is not monotone over the fit window")

    logx = np.log(xs)
    loglog = np.log(np.abs(np.log(xs)))
    A = np.vstack([logx, loglog, np.ones_like(logx)]).T
    coef, *_ = np.linalg.lstsq(A, np.log(ys), rcond=None)
    w, k_raw = float(coef[0]), float(coef[1])
    fitted = A @ coef
    residual = float(np.sqrt(np.mean((fitted - np.log(ys)) ** 2)))
    k = max(int(round(k_raw)), 0)
    if w > _SUPERPOLY_THRESHOLD:
        return HarmonicFit(
            (samples.base_mode, samples.fiber_mode), math.inf, 0, residual, True
        )
    return HarmonicFit((samples.base_mode, samples.fiber_mode), w, k, residual, False)


def _superpoly_fit(samples, x, vals, usable):
    """Classify decay past the resolved range from the innermost-decade
    slope: below the threshold it is the polynomial exponent, at or above
    it the decay is superpolynomial once the x^threshold envelope decays."""
    xu = x[usable]
    vu = vals[usable]
    if xu.size < 8:
        raise FitError("too few resolved samples to classify the decay")
    x_in = xu.min()
    decade = (xu <= 10 * x_in) & (xu >= x_in)
    if decade.sum() < 4:
        decade = xu <= 30 * x_in
    logx = np.log(xu[decade])
    logy = np.log(vu[decade])
    A = np.vstack([logx, np.ones_like(logx)]).T
    coef, *_ = np.linalg.lstsq(A, logy, rcond=None)
    slope = float(coef[0])
    mode = (samples.base_mode, samples.fiber_mode)
    if slope < _SUPERPOLY_THRESHOLD:
        # polynomial decay that left the window below the noise floor: the
        # decade slope is the exponent; a log power is not fitted here
        residual = float(np.sqrt(np.mean((A @ coef - logy) ** 2)))
        return HarmonicFit(mode, slope, 0, residual, False)
    # envelope constant for the |u| <= C x^threshold statement
    ratio = vu / xu**_SUPERPOLY_THRESHOLD
    imax = int(np.argmax(ratio))
    interior_max = xu[imax] > x_in * 1.5
    envelope_decays = ratio[np.argmin(xu)] < 0.5 * ratio[imax]
    if interior_max and envelope_decays:
        return HarmonicFit(mode, math.inf, 0, slope, True)
    raise FitError(
        f"window content below noise but decay slope {slope:.2f} does not "
        f"certify faster-than-x^{_SUPERPOLY_THRESHOLD} behaviour"
    )


def check_L2(samples: SampledSolution, gamma: float = 0.0) -> bool:
    """Membership of the mode in the x^gamma-weighted L2 space (b-volume).

    Decided from the tail of the squared-modulus integral against dx/x:
    dyadic block integrals form a geometric sequence with ratio 2^(-2(w -
    gamma)), so the tail converges iff the block ratio stays below one.
    This is an integral test, independent of the exponent regression.  The
    last ``_ARTIFACT_CUT`` units of t are excluded (the terminal zero
    condition that selects the decaying branch distorts the profile there)
    and rates within ``_DECISION_MARGIN`` of the borderline are resolved as
    non-membership, which is correct for the borderline rate itself.
    """
    keep = samples.t <= samples.t[-1] - _ARTIFACT_CUT
    t, x = samples.t[keep], samples.x[keep]
    vals = np.abs(samples.values[keep, samples.component]) * x ** (-float(gamma))
    scale = vals.max()
    if scale == 0:
        return True
    usable = (vals > 1e-13 * scale) & _clean_mask(vals)
    if usable.any() and not usable[-1]:
        # decay beyond the resolved range: square-integrable
        return True
    dt = t[1] - t[0]
    density = vals**2  # |u|^2 against dx/x = dt
    block = max(int(round(math.log(2) / dt)), 1)
    sums = []
    i = len(t) - 1
    while i - block > 0 and len(sums) < 8:
        sums.append(float(np.sum(density[i - block : i]) * dt))
        i -= block
    sums = sums[::-1]  # ordered outward-to-inward (t increasing)
    if len(sums) < 3 or sums[-1] == 0:
        return True
    ratios = [s2 / s1 for s1, s2 in zip(sums, sums[1:]) if s1 > 0]
    mean_ratio = float(np.exp(np.mean(np.log(ratios))))
    rate = -math.log2(mean_ratio) / 2.0  # effective decay exponent minus gamma
    return rate > _DECISION_MARGIN


# ---------------------------------------------------------------------------
# prediction verification


@dataclass
class VerifyReport:
    model: ModelGeometry
    alpha: object  # exact: int or Fraction
    predicted_roots: list
    rows: list
    checks: dict
    convergence_ratios: tuple
    passed: bool

    def to_json(self):
        return {
            "model": self.model.to_json(),
            "alpha": number_to_json(self.alpha),
            "predicted_roots": self.predicted_roots,
            "rows": self.rows,
            "checks": self.checks,
            "convergence_ratios": list(self.convergence_ratios),
            "verdict": "PASS" if self.passed else "FAIL",
        }


def _nearest(w, exponents, default=None):
    return min(exponents, key=lambda e: abs(e - w), default=default)


def verify_predictions(model: ModelGeometry, alpha=0) -> VerifyReport:
    """Cross-check the solved harmonic asymptotics against the spectrum.

    The prediction is the index set K = :func:`phicalc.parametrix.kernel_index_set`
    of the metric-volume indicial roots above ``alpha``, each with its pole
    order as log power.  Roots above the spectral window are not computed,
    so K is compared only below the window's top.  (i) Every
    square-integrable fibre-harmonic mode has a fitted exponent within
    ``_REL_TOL`` of an exponent of K, and a fitted log power at most K's
    largest there; (ii) fibre-perpendicular modes decay superpolynomially;
    (iii) square integrability of each mode agrees with the exponent rule:
    the fitted exponent, snapped to the nearest exponent generated by all
    roots, exceeds alpha.  The fits come from finite-difference solves, the
    predictions from the eigen-solve of the indicial polynomial: two
    independent routes to the same exponents.  ``alpha`` is read exactly
    (:func:`phicalc.indexsets.exact_real`).
    """
    if model.b != 1:
        raise ValueError("the verification sweep is wired for one base circle")
    alpha = exact_real(alpha)
    builder = assemble_DV(model)
    family = builder.scalar("g")
    top = _BASE_MODE_MAX + 2
    window = (-(model.a * model.f + top), top)
    points = imspec(family, window=window, mode_cutoff=_BASE_MODE_MAX)
    roots = [p.lambda_root for p in points]
    # members come in (re, im, k) order and the roots are real, so the last
    # k at an exponent is its largest log power
    predicted = {re: k for re, _, k in kernel_index_set(points, alpha).truncate(top)}
    # the fit carries a small terminal-condition artifact, so exponent-rule
    # decisions snap to the nearest point of the discrete exponent set
    exponents = {re for re, _, _ in kernel_index_set(points, -math.inf).truncate(top)}

    rows = []
    admissible_ok = True
    l2_rule_ok = True
    for j in range(0, _BASE_MODE_MAX + 1):
        sol = solve_harmonic(model, 0, ((j,), (0,) * model.f))
        fit = fit_exponents(sol)
        w = fit.fitted_exponent
        in_l2 = check_L2(sol, gamma=alpha)
        rule_l2 = fit.superpolynomial_flag or _nearest(w, exponents, default=w) > alpha
        l2_rule_ok = l2_rule_ok and (in_l2 == rule_l2)
        row = {
            "mode": [list((j,)), [0] * model.f],
            "exponent": None if fit.superpolynomial_flag else w,
            "log_power": fit.fitted_log_power,
            "superpoly": fit.superpolynomial_flag,
            "in_L2": in_l2,
            "matched": None,
            "predicted_log_power": None,
        }
        if in_l2 and not fit.superpolynomial_flag:
            e = _nearest(w, predicted)
            ok = e is not None and abs(w - e) <= _REL_TOL * max(abs(e), 0.25)
            if ok:
                row["matched"], row["predicted_log_power"] = float(e), predicted[e]
            admissible_ok = admissible_ok and ok and fit.fitted_log_power <= predicted[e]
        rows.append(row)

    superpoly_ok = True
    for base_m, fib_m in _FIBER_CHECKS:
        sol = solve_harmonic(model, 0, (base_m, fib_m))
        fit = fit_exponents(sol)
        superpoly_ok = superpoly_ok and fit.superpolynomial_flag
        rows.append(
            {
                "mode": [list(base_m), list(fib_m)],
                "exponent": None,
                "log_power": fit.fitted_log_power,
                "superpoly": fit.superpolynomial_flag,
                "in_L2": check_L2(sol, gamma=alpha),
                "matched": None,
                "predicted_log_power": None,
            }
        )

    # grid-halving consistency at the closed-form decaying root of base mode 1
    res = [
        discrete_residual(model, (1,) * model.b, _scalar_root(model, 1), n=nn)
        for nn in (128, 256, 512)
    ]
    ratios = (res[0] / res[1], res[1] / res[2])
    conv_ok = all(3.6 <= r <= 4.4 for r in ratios)

    checks = {
        "exponents_match_spectrum": admissible_ok,
        "perpendicular_superpolynomial": superpoly_ok,
        "l2_rule_consistent": l2_rule_ok,
        "discretization_second_order": conv_ok,
    }
    return VerifyReport(
        model=model,
        alpha=alpha,
        predicted_roots=roots,
        rows=rows,
        checks=checks,
        convergence_ratios=ratios,
        passed=all(checks.values()),
    )


def _scalar_root(model: ModelGeometry, j: int) -> float:
    """Decaying indicial root of the scalar mode system (exact quadratic)."""
    af = model.a * model.f
    mu = 2 * math.pi * j / model.base_circumferences[0]
    return (-af + math.sqrt(af * af + 4 * mu * mu)) / 2
