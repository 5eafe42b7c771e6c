"""Harmonic solves on a log-graded grid and polyhomogeneous exponent fits.

The harmonic equation of the model metric is solved per Fourier mode as a
matrix ODE system in t = -log x, discretized with second-order central
differences, with the prescribed data at x = x_max and the decaying
solution selected by a zero condition at t = T_max.  The unknowns fall
into a few independent coupling components (single form components, or
pairs of them, each a chain along the grid), found by a dense component
labeller on the dim x dim sparsity pattern of the mode operator's terms,
so the system is block diagonal with one block per coupling component.
Blocks recur: coupling components on which every term of the operator is
exactly equal share one block, since equal terms give bit-identical
coefficients.  Each distinct block's coefficients at all interior grid
points come from one pass over the terms, on the entries of one of its
components only; they are written straight into LAPACK band storage (the
grid outermost, each coefficient entry one strided row of the band) and
factored once.  A single component is a tridiagonal chain and goes to
LAPACK's tridiagonal LU ``zgttrf``/``zgttrs``, which runs in plain loops;
a coupled pair has two diagonals on either side and goes to the general
band LU ``zgbtrf``/``zgbtrs``, which makes one level-2 BLAS call per
column.  The boundary data lie in one coupling component, so only its
block is solved with them; every other component's values are exactly
zero.
The 1-norm condition number of the whole system is estimated from the
blocks' factors: a block-diagonal matrix and its inverse have the 1-norms
of their largest blocks, so it is the largest exact column-sum norm of a
block times the largest of Higham's deterministic estimates of a block
inverse's norm (the iteration behind LAPACK's ``xGECON``), which draws no
random starting vectors; the estimate's two fixed right-hand sides are
solved in one call together with the boundary data.  Fitted exponents of
the components are then compared against the critical weights of the
metric-volume indicial family.  The fits and the roots are two
computations from the one mode operator, a finite-difference solve and an
eigen-solve of its coefficients; the closed-form roots of the scalar mode
system (:func:`_scalar_root`) are the independent check of both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import zgbtrf, zgbtrs, zgttrf, zgttrs

from ..indexsets import exact_real, number_to_json
from ..parametrix import kernel_index_set
from .geometry import IndicialFamily, ModelGeometry, _as_tuple, _count, hodge_mode_operator
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

# exponent fits: the largest x the regression reads, the sample level below
# which a modulus is noise, the exponent past which decay counts as
# superpolynomial, and the jump over the running minimum that marks the
# round-off plateau
_FIT_TOP = 1e-1
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
    left zero for the fill of partial pivoting.  ``norm1`` is the 1-norm of
    A (the largest column sum of the band), taken before factoring.

    A tridiagonal A (kl = ku = 1) of at least three unknowns, such as the
    block of a single-component chain of a mode system, is factored with
    ``xGTTRF`` from the three diagonals, rows 1 to 3 of the band, and
    solved with ``xGTTRS``: plain loops, where the band routines make one
    level-2 BLAS call per column.  (SciPy's ``xGTTRF`` wrapper refuses
    fewer than three unknowns.)  Every other band, such as the block of a
    coupled pair with kl = ku = 2, is factored in place with ``xGBTRF``
    and solved with ``xGBTRS``.  Both factor with partial pivoting; raises
    ``LinAlgError`` when A is exactly singular.
    """

    _GB_TRANS = {"N": 0, "H": 2}
    _GT_TRANS = {"N": "N", "H": "C"}

    def __init__(self, band: np.ndarray, kl: int, ku: int):
        size = band.shape[1]
        self.shape = (size, size)
        self.kl, self.ku = kl, ku
        self.norm1 = float(np.abs(band[kl:]).sum(axis=0).max(initial=0.0))
        self._tridiagonal = kl == ku == 1 and size >= 3
        if self._tridiagonal:
            # (dl, d, du, du2, ipiv), the diagonals factored in place
            *self._factor, info = zgttrf(
                band[3, :-1], band[2], band[1, 1:],
                overwrite_dl=True, overwrite_d=True, overwrite_du=True,
            )
        else:
            # (lu, ipiv)
            *self._factor, info = zgbtrf(band, kl, ku, overwrite_ab=True)
        if info > 0:
            raise LinAlgError(f"the matrix is exactly singular (zero pivot {info})")

    def solve(self, b, trans: str = "N") -> np.ndarray:
        """x with A x = b (``trans`` "N") or A^H x = b ("H"); x is
        complex whatever the dtype of b.  The columns of an (N, k)
        right-hand side are solved in one ``xGTTRS`` or ``xGBTRS`` call,
        each exactly as it would be on its own."""
        # one copy, column by column as LAPACK takes it, that the solve overwrites
        b = np.array(b, dtype=complex, order="F")
        if self._tridiagonal:
            x, _ = zgttrs(*self._factor, b, trans=self._GT_TRANS[trans], overwrite_b=True)
        else:
            lu, piv = self._factor
            x, _ = zgbtrs(
                lu, self.kl, self.ku, b, piv, trans=self._GB_TRANS[trans], overwrite_b=True
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
    matrix A, N >= 2 (a block of a mode system has at least three
    unknowns): any object with ``shape`` and ``solve(b, trans)``, such as
    a ``_BandLU``.  ``fixed`` is A^-1 applied to the columns of
    ``_estimate_rhs(N)`` (a mode solve takes them in one call with its
    boundary data).  A mode solve runs it on each distinct block: the
    inverse of a block-diagonal matrix has the 1-norm of its largest
    block inverse, so the largest of these lower bounds is one for the
    whole system.

    The iteration of Hager and Higham in the form of LAPACK's ZLACN2
    (Higham, ACM TOMS 14(4), 1988): start from the uniform vector, move to
    the unit column e_j that the conjugate-transposed solve of the sign
    vector points at, for at most ``_LACN2_ITMAX`` iterations in all, and
    end with LAPACK's alternating-sign vector.  Every candidate is the
    1-norm of A^-1 applied to a vector of 1-norm at most one, so the
    largest one kept is a lower bound; it is usually exact.

    Its cost is its band solves, two of them conjugate-transposed per
    step: on a ``_BandLU`` of a tridiagonal block ``zgttrs`` takes a
    conjugate-transposed solve as fast as a plain one, while ``zgbtrs``
    (the coupled pairs of the fibre-perpendicular modes) is slower on it
    than on a plain one.
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
    """Banded LU factors of the finite-difference mode system of ``op`` on
    the uniform grid ``t`` of step ``h``, one per distinct coupling block,
    each written straight into band storage.

    Unknown (p, s) is the value of form component s at grid point p.  The
    interior rows hold the central-difference blocks; the rows of the
    first and last grid points are the identity.  The form components
    fall into coupling components: the connected components of the union
    of the terms' dim x dim sparsity patterns, ordered by their smallest
    member, each keeping its own order.  No entry couples two of them, so
    the system is block diagonal with one block per coupling component.
    Inside a block of m form components the grid runs outermost: unknown
    (p, s) sits at position m p + (the place of s in its component), every
    (block, entry) coefficient column lies on one band row and is one
    strided write, and the bandwidths are the largest offsets these rows
    reach.

    Two coupling components share one block when every term of the
    operator restricted to their members is exactly equal: the
    coefficients are evaluated entry by entry with the same arithmetic
    (``ModeOperator.coefficients``), so equal terms give bit-identical
    bands.  Each distinct block is evaluated once, on the entries of its
    first component only; exact zeros stay out of the band.  Returns a
    list of (``_BandLU``, members) pairs in the order of their first
    member, one per distinct block: ``members`` lists the coupling
    components whose block it is, each a tuple of form components in band
    order.
    """
    n = len(t) - 1
    pattern = np.any([term != 0 for term in op.terms.values()], axis=0)
    label = _components(pattern | pattern.T)
    groups = {}  # (size, restricted terms) -> members
    for root in np.unique(label):
        members = tuple(np.flatnonzero(label == root).tolist())
        mine = np.ix_(members, members)
        key = (len(members), *(term[mine].tobytes() for term in op.terms.values()))
        groups.setdefault(key, []).append(members)

    factors = []
    for members in groups.values():
        first = np.array(members[0])
        size = len(first)
        # blocks[k][i - 1, e] couples place row[e] of interior point i to
        # place col[e] of point i - 1 + k
        row, col = np.nonzero(pattern[np.ix_(first, first)])
        A0, A1, A2 = op.coefficients(t[1:-1], (first[row], first[col]))
        A2 = A2 / h**2
        A1 = A1 / (2 * h)
        blocks = (A2 - A1, -2 * A2 + A0, A2 + A1)
        kk, e = np.nonzero([np.any(block != 0, axis=0) for block in blocks])  # exact zeros stay out
        offset = row[e] - col[e] + (1 - kk) * size  # band row minus kl + ku
        kl = int(offset.max(initial=0))
        ku = int(-offset.min(initial=0))
        band = np.zeros((2 * kl + ku + 1, (n + 1) * size), dtype=complex)
        for k, ee, start, off in zip(kk, e, col[e] + kk * size, offset):
            band[kl + ku + off, start : start + (n - 1) * size : size] = blocks[k][:, ee]
        band[kl + ku, :size] = 1.0  # identity rows at t = 0 and t_max
        band[kl + ku, n * size :] = 1.0
        factors.append((_BandLU(band, kl, ku), members))
    return factors


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
    The coupling components are grouped on the operator's exact terms,
    and each distinct block's interior coefficients come from one stacked
    evaluation on the sparsity pattern of one of its components only; they
    are written straight into LAPACK band storage, one band per distinct
    block (``_factor_mode_system``), and exact zeros are left out.  Each
    band is factored once.  The block of the default component's coupling
    component takes the boundary data in one multi-column solve together
    with the two fixed vectors of the inverse-norm estimate, and its
    values go to that component's own columns; the other blocks solve the
    two fixed vectors only, and their components' values are zero.  So
    the one-norm condition estimate of the whole system is recorded at
    the cost of the estimate's solves only, and contamination by the
    growing branch can be flagged.  Raises ``LinAlgError`` when any block
    is exactly singular, and ``ValueError`` unless
    t_max is finite and positive and n is an integer >= 2, or when a mode
    entry is not an integer.
    """
    n = _count(n, "the grid step count n")
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

    # the data lie in the default component's block: the other blocks have
    # zero data, so their values are exactly zero
    values = np.zeros((n + 1, op.dim), dtype=complex)
    norm1 = inv_norm1 = 0.0
    for lu, members in _factor_mode_system(op, t, h):
        size = lu.shape[0]
        home = next((m for m in members if component in m), None)
        if home is None:
            fixed = lu.solve(_estimate_rhs(size))
        else:
            rhs = np.zeros((size, 3), dtype=complex, order="F")
            rhs[home.index(component), 0] = 1.0
            rhs[:, 1:] = _estimate_rhs(size)
            solved = lu.solve(rhs)
            values[:, list(home)] = solved[:, 0].reshape(n + 1, len(home))
            fixed = solved[:, 1:]
        # the system is block diagonal: both 1-norms are the largest block's
        norm1 = max(norm1, lu.norm1)
        inv_norm1 = max(inv_norm1, _inv_one_norm(lu, fixed))
    cond = norm1 * inv_norm1
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
    is one stacked matrix product.  Raises ``ValueError`` unless n is an
    integer >= 2 and the window ends are finite and increasing.
    """
    n = _count(n, "the grid step count n")
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


def _regress(logy, *columns):
    """Least-squares coefficients of ``logy`` on ``columns`` and a constant,
    and the RMS misfit of the fitted line."""
    A = np.vstack([*columns, np.ones_like(logy)]).T
    coef, *_ = np.linalg.lstsq(A, logy, rcond=None)
    return coef, float(np.sqrt(np.mean((A @ coef - logy) ** 2)))


def fit_exponents(samples: SampledSolution) -> HarmonicFit:
    """Fit x^w (log x)^k to the solved component of a sampled mode solution.

    The exponent and log power come from one joint regression of log|u| on
    (log x, log|log x|, 1) over every resolved sample with x <= ``_FIT_TOP``:
    above the noise floor ``_NOISE_REL`` of the largest modulus, before the
    round-off plateau (:func:`_clean_mask`), and before the last
    ``_ARTIFACT_CUT`` units of t, where the terminal zero condition bends
    the profile (the samples :func:`check_L2` leaves out).  A fitted
    exponent above ``_SUPERPOLY_THRESHOLD`` is flagged superpolynomial.
    With fewer than 8 such samples the decay has fallen below the noise
    floor before x = ``_FIT_TOP``, and :func:`_superpoly_fit` only
    classifies it.  Raises ``FitError`` when the component is zero, when
    the modulus is not monotone over the samples read, or when the decay
    cannot be classified.
    """
    mode = (samples.base_mode, samples.fiber_mode)
    x = samples.x
    vals = np.abs(samples.values[:, samples.component])
    scale = float(vals.max())
    if scale == 0.0:
        raise FitError("component is identically zero")
    kept = samples.t <= samples.t[-1] - _ARTIFACT_CUT
    usable = (vals > _NOISE_REL * scale) & _clean_mask(vals) & kept
    read = usable & (x <= _FIT_TOP)
    if read.sum() < 8:
        return _superpoly_fit(mode, x[usable], vals[usable])

    logx = np.log(x[read])
    logy = np.log(vals[read])
    dy = np.diff(logy)
    if dy.max() > 1e-8 and dy.min() < -1e-8:
        raise FitError(f"component modulus is not monotone over the resolved samples "
                       f"with x <= {_FIT_TOP}")
    (w, k, _), residual = _regress(logy, logx, np.log(np.abs(logx)))
    if w > _SUPERPOLY_THRESHOLD:
        return HarmonicFit(mode, math.inf, 0, residual, True)
    return HarmonicFit(mode, float(w), max(int(round(k)), 0), residual, False)


def _superpoly_fit(mode, xu, vu):
    """Classify a decay that falls below the noise floor before x =
    ``_FIT_TOP`` from its resolved samples ``xu``, ``vu``: superpolynomial
    when the slope of log|u| over the innermost resolved decade reaches the
    threshold and the x^threshold envelope decays, with that decade
    regression's RMS misfit as ``residual``.  Anything else raises
    ``FitError``: no exponent is read off the slope."""
    if xu.size < 8:
        raise FitError("too few resolved samples to classify the decay")
    x_in = xu.min()
    decade = (xu <= 10 * x_in) & (xu >= x_in)
    if decade.sum() < 4:
        decade = xu <= 30 * x_in
    (slope, _), residual = _regress(np.log(vu[decade]), np.log(xu[decade]))
    # envelope constant for the |u| <= C x^threshold statement
    ratio = vu / xu**_SUPERPOLY_THRESHOLD
    imax = int(np.argmax(ratio))
    interior_max = xu[imax] > x_in * 1.5
    envelope_decays = ratio[np.argmin(xu)] < 0.5 * ratio[imax]
    if slope >= _SUPERPOLY_THRESHOLD and interior_max and envelope_decays:
        return HarmonicFit(mode, math.inf, 0, residual, True)
    raise FitError(
        f"the decay falls below the noise floor before x = {_FIT_TOP}, and its "
        f"decade slope {slope:.2f} does not certify faster-than-x^"
        f"{_SUPERPOLY_THRESHOLD:g} behaviour"
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
    usable = (vals > _NOISE_REL * scale) & _clean_mask(vals)
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
    family = IndicialFamily(model, "scalar", "g")
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
