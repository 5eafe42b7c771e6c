"""Harmonic solves on a log-graded grid and polyhomogeneous exponent fits.

The harmonic equation of the model metric is solved per Fourier mode as a
matrix ODE system in t = -log x, discretized with second-order central
differences, with the prescribed data at x = x_max and the decaying
solution selected by a zero condition at t = T_max.  The coefficients of
all interior grid points come from one pass over the operator's terms.
The unknowns fall into a few independent coupling components (single form
components, or pairs of them, each a chain along the grid), found by
a dense component labeller on the dim x dim sparsity pattern of the mode
operator.  Numbered component by component, the grid inside each, the
matrix is banded with one or two diagonals on either side; each
coefficient entry is written straight into LAPACK band storage as one
strided row of the band, and one banded LU factors and solves it in that
order.  Its 1-norm condition number (which no symmetric permutation
changes) is estimated from that factor: the exact column-sum norm of the
matrix times Higham's deterministic estimate of the inverse's norm (the
iteration behind LAPACK's ``xGECON``), so it draws no random starting
vectors; the estimate's two fixed right-hand sides are solved in one call
together with the boundary data.  Fitted exponents of the components are then
compared against the critical weights of the metric-volume indicial
family.  The fits and the roots are two computations from the one mode
operator, a finite-difference solve and an eigen-solve of its
coefficients; the closed-form roots of the scalar mode system
(:func:`_scalar_root`) are the independent check of both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import zgbtrf, zgbtrs

from ..indexsets import exact_real, number_to_json
from ..parametrix import kernel_index_set
from .geometry import ModelGeometry, _as_tuple, assemble_DV, hodge_mode_operator
from .spectrum import _components, imspec

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
# the inverse-norm estimate: LAPACK's iteration cap, and the modulus below
# which a component's sign counts as +1
_LACN2_ITMAX = 5
_SAFMIN = np.finfo(float).tiny

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


class _BandLU:
    """LU factor of a square matrix A handed over in LAPACK band storage.

    ``band`` holds A in the layout of ``xGBTRF``: 2 kl + ku + 1 rows,
    entry (i, j) of A in row kl + ku + i - j of column j, the first kl rows
    left zero for the fill of partial pivoting.  The band is factored in
    place with ``xGBTRF``.  ``norm1`` is the 1-norm of A (the largest
    column sum of the band), taken before factoring.  Raises
    ``LinAlgError`` when A is exactly singular.
    """

    _TRANS = {"N": 0, "H": 2}

    def __init__(self, band: np.ndarray, kl: int, ku: int):
        size = band.shape[1]
        self.shape = (size, size)
        self.kl, self.ku = kl, ku
        self.norm1 = float(np.abs(band[kl:]).sum(axis=0).max(initial=0.0))
        self._lu, self._piv, info = zgbtrf(band, kl, ku, overwrite_ab=True)
        if info > 0:
            raise LinAlgError(f"the matrix is exactly singular (zero pivot {info})")

    def solve(self, b, trans: str = "N") -> np.ndarray:
        """x with A x = b (``trans`` "N") or A^H x = b ("H"); x is
        complex whatever the dtype of b.  The columns of an (N, k)
        right-hand side are solved in one ``xGBTRS`` call, each exactly as
        it would be on its own."""
        # one copy, column by column as LAPACK takes it, that the solve overwrites
        b = np.array(b, dtype=complex, order="F")
        x, _ = zgbtrs(
            self._lu, self.kl, self.ku, b, self._piv, trans=self._TRANS[trans], overwrite_b=True
        )
        return x


def _estimate_rhs(size: int) -> np.ndarray:
    """The two right-hand sides of the inverse-norm estimate that do not
    depend on its iteration, as the columns of a (size, 2) array: the
    uniform start 1/N and LAPACK's alternating-sign vector."""
    i = np.arange(size)
    rhs = np.empty((size, 2), dtype=complex, order="F")
    rhs[:, 0] = 1.0 / size
    rhs[:, 1] = np.where(i % 2, -1.0, 1.0) * (1.0 + i / (size - 1))
    return rhs


def _inv_one_norm(lu, fixed) -> float:
    """Lower bound on the 1-norm of A^-1 from an LU factor of an N x N
    matrix A, N >= 2 (a mode system has at least three unknowns): any
    object with ``shape`` and ``solve(b, trans)``, such as a ``_BandLU``
    or a SciPy ``splu`` factor.  ``fixed`` is A^-1 applied to the columns
    of ``_estimate_rhs(N)`` (a mode solve takes them in one call with its
    boundary data).

    The iteration of Hager and Higham in the form of LAPACK's ZLACN2
    (Higham, ACM TOMS 14(4), 1988): start from the uniform vector, move to
    the unit column e_j that the conjugate-transposed solve of the sign
    vector points at, for at most ``_LACN2_ITMAX`` iterations in all, and
    end with LAPACK's alternating-sign vector.  Every candidate is the
    1-norm of A^-1 applied to a vector of 1-norm at most one, so the
    largest one kept is a lower bound; it is usually exact.
    """

    def signs(v):
        a = np.abs(v)
        return np.divide(v, a, out=np.ones_like(v), where=a > _SAFMIN)

    size = lu.shape[0]
    x, x_alt = fixed.T
    est = np.abs(x).sum()
    j = np.argmax(np.abs(lu.solve(signs(x), trans="H")))
    for _ in range(_LACN2_ITMAX - 1):
        e = np.zeros(size, dtype=complex)
        e[j] = 1.0
        x = lu.solve(e)
        norm = np.abs(x).sum()
        if norm <= est:
            break
        est = norm
        z = np.abs(lu.solve(signs(x), trans="H"))
        j_last, j = j, np.argmax(z)
        if z[j_last] == z[j]:
            break
    return float(max(est, 2.0 * np.abs(x_alt).sum() / (3 * size)))


def _factor_mode_system(op, t: np.ndarray, h: float):
    """Banded LU factor of the finite-difference mode system of ``op`` on
    the uniform grid ``t`` of step ``h``, written straight into band
    storage, and the (n + 1, dim) array of band positions of its unknowns.

    Unknown (p, s) is the value of form component s at grid point p.  The
    interior rows hold the central-difference blocks, evaluated on the
    union (r, c) of the terms' sparsity patterns only; the rows of the
    first and last grid points are the identity.  The form components
    fall into coupling components: the weakly connected components of the
    dim x dim graph of the entries that are nonzero somewhere on the grid.
    These are ordered by their smallest member and each keeps its own
    order, and the grid runs inside each component, so unknown (p, s) sits
    at band position base[s] + p size(comp(s)).  Every (block, entry)
    coefficient column then lies on one band row and is one strided
    write, and the bandwidths are the largest offsets these rows reach.
    The system is factored and solved in this band order.
    """
    dim = op.dim
    n = len(t) - 1
    # blocks[k][i - 1, e] couples unknown r[e] of interior point i to
    # unknown c[e] of point i - 1 + k
    r, c = np.nonzero(np.any([block != 0 for block in op.terms.values()], axis=0))
    A0, A1, A2 = op.coefficients(t[1:-1], (r, c))
    A2 = A2 / h**2
    A1 = A1 / (2 * h)
    blocks = (A2 - A1, -2 * A2 + A0, A2 + A1)
    present = np.array([np.any(block != 0, axis=0) for block in blocks])  # exact zeros stay out

    # each form component is labelled by the smallest member of its coupling
    # component
    link = present.any(axis=0)
    graph = np.zeros((dim, dim), dtype=bool)
    graph[r[link], c[link]] = True
    label = _components(graph | graph.T)
    rank = np.empty(dim, dtype=int)
    rank[np.argsort(label, kind="stable")] = np.arange(dim)
    start = rank[label]  # where the component begins, in form components
    size = np.bincount(label, minlength=dim)[label]
    base = (n + 1) * start + rank - start

    k, e = np.nonzero(present)
    offset = base[r[e]] - base[c[e]] + (1 - k) * size[r[e]]  # band row minus kl + ku
    kl = int(offset.max(initial=0))
    ku = int(-offset.min(initial=0))
    band = np.zeros((2 * kl + ku + 1, (n + 1) * dim), dtype=complex)
    for kk, ee, off in zip(k, e, offset):
        sz = size[c[ee]]
        first = base[c[ee]] + kk * sz
        band[kl + ku + off, first : first + (n - 1) * sz : sz] = blocks[kk][:, ee]
    band[kl + ku, base] = 1.0  # identity rows at t = 0 and t_max
    band[kl + ku, base + n * size] = 1.0
    return _BandLU(band, kl, ku), base + np.arange(n + 1)[:, None] * size


def solve_harmonic(
    model: ModelGeometry,
    form_degree: int = 0,
    mode=((0,), (0,)),
    t_max: float = 12.0,
    n: int = 2048,
) -> SampledSolution:
    """Solve the model harmonic equation for one Fourier mode.

    ``mode`` is (base j-tuple, fiber m-tuple) of integers.  The
    second-order mode system is discretized on the uniform t-grid of ``n``
    steps over [0, t_max] (x from x_max down to x_max e^(-t_max)); a unit
    boundary value on the form degree's default component is prescribed
    at t = 0 and the L2-admissible branch is selected by u(t_max) = 0.
    The coefficients of every interior row come from one stacked
    evaluation on the operator's sparsity pattern only and are written
    straight into LAPACK band storage in band order
    (``_factor_mode_system``); exact zeros are left out.  One banded LU
    factors the system as written, and one multi-column solve takes the
    boundary data, at the band positions of the default component,
    together with the two fixed vectors of the inverse-norm estimate; the
    values are read back through the band positions.  So the one-norm
    condition estimate of that factor is recorded at the cost of its
    iteration's solves only, and contamination by the growing branch can
    be flagged.  Raises ``ValueError`` unless
    t_max is finite and positive and n >= 2, or when a mode entry is not
    an integer.
    """
    if not (math.isfinite(t_max) and t_max > 0 and n >= 2):
        raise ValueError(f"the solve grid needs a finite T > 0 and N >= 2, got T={t_max}, N={n}")
    base_mode, fiber_mode = mode
    base_mode = _as_tuple(base_mode, model.b, "base mode")
    fiber_mode = _as_tuple(fiber_mode, model.f, "fiber mode")
    op = hodge_mode_operator(model, base_mode, fiber_mode)
    if op.max_dt_order() != 2:
        raise ValueError("the harmonic mode system should be second order")

    component = _default_component(model, form_degree)
    h = t_max / n
    t = np.linspace(0.0, t_max, n + 1)
    # x = x_max e^{-t}
    x = model.x_max * np.exp(-t)

    lu, position = _factor_mode_system(op, t, h)
    rhs = np.zeros((lu.shape[0], 3), dtype=complex, order="F")
    rhs[position[0, component], 0] = 1.0
    rhs[:, 1:] = _estimate_rhs(lu.shape[0])
    solved = lu.solve(rhs)
    cond = lu.norm1 * _inv_one_norm(lu, solved[:, 1:])
    values = solved[position, 0]
    return SampledSolution(
        t=t,
        x=x,
        values=values,
        base_mode=base_mode,
        fiber_mode=fiber_mode,
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
    A0, A1, A2 = op.coefficients(t[1:-1])
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
    # running minimum of the positive samples (exact zeros are handled by
    # the noise threshold); a sample that sets a new minimum is no bounce
    runmin = np.minimum.accumulate(np.where(vals > 0, vals, math.inf))
    bounce = (runmin < 1e-6 * scale) & (vals > _BOUNCE * runmin)
    mask = np.ones(len(vals), dtype=bool)
    if bounce.any():
        mask[np.argmax(bounce):] = False
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
    Raises ``ValueError`` when ``gamma`` has no float value or x^(-2 gamma)
    is not a positive finite float on every sample weighed.
    """
    try:
        g = float(gamma)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"the L2 weight gamma has no float value ({exc})") from None
    keep = samples.t <= samples.t[-1] - _ARTIFACT_CUT
    t, x = samples.t[keep], samples.x[keep]
    with np.errstate(over="ignore", under="ignore"):
        weight2 = x ** (-2 * g)
    if not np.all((weight2 > 0) & (weight2 < math.inf)):
        raise ValueError(f"the L2 weight x^(-2 gamma) at gamma = {gamma} leaves the "
                         f"float range on the samples x in [{x.min():.6g}, {x.max():.6g}]")
    vals = np.abs(samples.values[keep, samples.component]) * x ** (-g)
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
    predictions from the eigen-solve of the indicial polynomial: two routes
    from the one mode operator to the same exponents.  ``alpha`` is read exactly
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
