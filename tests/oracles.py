"""Independent brute-force oracles used across the test suite.

The index-set oracle is the exact truncation enumeration that
``verify-paper`` ships in ``phicalc.acceptance`` (``_enum_closure``,
``_enum_add``, ``_enum_eu``, ``_enum_shift``); this module only draws the
random generator lists it is checked on.

The truncation oracle is the set comprehension that ``IndexSet.truncate``
used before it walked the common-denominator lattice: every generator's
members (re + n, im, k), collected in a set of exact numbers and sorted.

The critical-weight oracle finds roots of an indicial family by scanning
its smallest singular value, and measures pole and determinant orders by
log-log slopes, with no use of the family's polynomial structure; the
package solves the companion eigenproblem and reads the orders off the
Jordan structure instead.

The absorption oracle keeps the all-pairs rule that the package used
before it absorbed sums in one pass: every summand is checked against
every other one, in both orders.

The harmonic-solve oracles assemble the finite-difference mode system and
its defect one grid row at a time, evaluating each coefficient matrix
from the operator's terms at one time; the package builds all rows from
stacked coefficient arrays.  The solve oracle estimates the condition with
SciPy's randomized ``onenormest`` under a fixed seed, where the package
takes the exact norm of the matrix and a deterministic estimate of the
inverse's norm; both factor with the package's banded ``_BandLU``, whose
accuracy is checked on its own against dense solves.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from phicalc.indexsets import exact_real
from phicalc.opclasses import CompositionError, as_terms, contains
from phicalc.models.geometry import hodge_mode_operator
from phicalc.models.harmonic import SampledSolution, _BandLU, _default_component
from phicalc.models.spectrum import SpectrumPoint


def random_generators(rng, max_gens=4, allow_halves=True, allow_imag=True):
    """Random exact generator list on a small rational grid."""
    n = rng.randrange(0, max_gens + 1)
    gens = []
    for _ in range(n):
        re = Fraction(rng.randrange(-4, 7), 2 if allow_halves and rng.random() < 0.5 else 1)
        im = rng.choice([0, 0, 0, -1, 1]) if allow_imag else 0
        k = rng.randrange(0, 3)
        gens.append(((re, im), k))
    return gens


def comprehension_truncate(generators, re_max) -> list:
    """Members (re, im, k) with re <= re_max of the closure of (re, im, kmax)
    generators, sorted, by ``Fraction`` arithmetic on every member."""
    re_max = exact_real(re_max)
    return sorted({
        (re + n, im, k)
        for (re, im, kmax) in generators
        for n in range(math.floor(re_max - re) + 1)
        for k in range(kmax + 1)
    })


# ---------------------------------------------------------------------------
# sums of operator classes


def all_pairs_absorbed(geom, *entries) -> tuple:
    """The summands of the entries that survive absorption, in input order.

    A summand goes when another summand contains it, unless that other one
    comes later and is contained back: of two summands that contain each
    other the first stays.
    """
    terms = [t for e in entries for t in as_terms(e)]

    def within(s, t):
        try:
            return contains(s, t, geom)
        except CompositionError:
            return False

    return tuple(
        t
        for i, t in enumerate(terms)
        if not any(
            within(t, s) and not (j > i and within(s, t))
            for j, s in enumerate(terms)
            if j != i
        )
    )


# ---------------------------------------------------------------------------
# critical weights by a singular-value scan


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _sigma_min(family, s, mode):
    return float(np.linalg.svd(family.matrix(s, mode), compute_uv=False)[-1])


def _log_slope(fn, s0: float, deltas) -> float:
    """Least-squares slope of log fn(s0 +/- delta) against log delta."""
    xs, ys = [], []
    for d in deltas:
        for sgn in (+1, -1):
            v = fn(s0 + sgn * d)
            if v > 0:
                xs.append(math.log(d))
                ys.append(math.log(v))
    if len(xs) < 3:
        return math.nan
    A = np.vstack([xs, np.ones(len(xs))]).T
    slope, _ = np.linalg.lstsq(A, np.array(ys), rcond=None)[0]
    return float(slope)


def _golden_min(fn, a, b, width):
    """Golden-section minimization to an absolute bracket width.

    Unlike library bounded minimizers this has no sqrt(machine-eps)
    tolerance floor, which matters because the singular value behaves like
    |s - s0|^k near a root and must be localized to ~1e-10.
    """
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = fn(c), fn(d)
    while (b - a) > width:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = fn(d)
    xm = 0.5 * (a + b)
    return xm, fn(xm)


def _scan_mode(family, mode, lo, hi, scan_step, sv_tol, refine_width, dip_threshold):
    grid = np.arange(lo, hi + scan_step / 2, scan_step)
    sig = np.array([_sigma_min(family, s, mode) for s in grid])
    roots = []
    for i in range(len(grid)):
        left = sig[i - 1] if i > 0 else math.inf
        right = sig[i + 1] if i + 1 < len(grid) else math.inf
        if not (sig[i] <= left and sig[i] <= right and sig[i] < dip_threshold):
            continue
        a = grid[max(i - 1, 0)]
        b = grid[min(i + 1, len(grid) - 1)]
        s_star, sig_star = _golden_min(
            lambda s: _sigma_min(family, s, mode), float(a), float(b), refine_width
        )
        if sig_star >= sv_tol:
            continue
        if any(abs(s_star - r[0]) < 1e-8 for r in roots):
            continue
        # vanishing orders of the smallest singular value and of |det|
        deltas = (1e-3, 3e-4, 1e-4, 3e-5)
        sv_slope = _log_slope(lambda s: _sigma_min(family, s, mode), s_star, deltas)
        det_slope = _log_slope(
            lambda s: abs(np.linalg.det(family.matrix(s, mode))), s_star, deltas
        )
        sv_order = int(round(sv_slope)) if math.isfinite(sv_slope) else 1
        det_order = int(round(det_slope)) if math.isfinite(det_slope) else None
        edge = s_star - lo < scan_step or hi - s_star < scan_step
        roots.append((s_star, sv_order, det_order, edge))
    return [
        SpectrumPoint(
            lambda_root=s,
            fourier_mode=tuple(mode),
            pole_order_k=max(sv_order - 1, 0),
            det_order=det_order,
            order_mismatch=(det_order is not None and det_order != sv_order),
            at_window_edge=edge,
        )
        for (s, sv_order, det_order, edge) in roots
    ]


def scan_imspec(family, window, mode_cutoff, scan_step=1e-2, sv_tol=1e-8,
                refine_width=1e-10, dip_threshold=0.25):
    """Critical weights by scanning the smallest singular value on an
    s-grid per mode and refining every dip by golden-section search; the
    determinant order comes from the log-log slope of |det|.  Output as
    ``imspec``: deduplicated across modes (smallest mode kept), sorted."""
    lo, hi = float(window[0]), float(window[1])
    modes = sorted(family.modes(mode_cutoff), key=lambda m: (sum(abs(v) for v in m), m))
    points = [
        p for mode in modes
        for p in _scan_mode(family, mode, lo, hi, scan_step, sv_tol, refine_width, dip_threshold)
    ]
    points.sort(key=lambda p: (p.lambda_root, sum(abs(v) for v in p.fourier_mode)))
    out = []
    for p in points:
        if not any(abs(p.lambda_root - q.lambda_root) < 1e-8 for q in out):
            out.append(p)
    return out


# ---------------------------------------------------------------------------
# harmonic mode solves, row by row


def _coefficient(op, t, p):
    """Matrix coefficient of d_t^p of a mode operator at one time t."""
    M = np.zeros((op.dim, op.dim), dtype=complex)
    for (pp, q), block in op.terms.items():
        if pp == p:
            M = M + block * math.exp(q * op.a * t)
    return M


def loop_harmonic_matrix(model, mode=((0,), (0,)), t_max=12.0, n=2048):
    """The mode system matrix of ``solve_harmonic`` (CSR), assembled block
    by block with one coefficient evaluation per row."""
    base_mode, fiber_mode = mode
    op = hodge_mode_operator(model, base_mode, fiber_mode)
    dim = op.dim
    h = t_max / n
    t = np.linspace(0.0, t_max, n + 1)
    rows, cols, vals = [], [], []

    def put(i, j, block):
        nz = np.nonzero(block)
        rows.extend((i * dim + nz[0]).tolist())
        cols.extend((j * dim + nz[1]).tolist())
        vals.extend(block[nz].tolist())

    for i in range(1, n):
        A2 = _coefficient(op, t[i], 2)
        A1 = _coefficient(op, t[i], 1)
        A0 = _coefficient(op, t[i], 0)
        put(i, i - 1, A2 / h**2 - A1 / (2 * h))
        put(i, i, -2 * A2 / h**2 + A0)
        put(i, i + 1, A2 / h**2 + A1 / (2 * h))
    put(0, 0, np.eye(dim))
    put(n, n, np.eye(dim))

    return sp.csr_matrix(
        (np.array(vals, dtype=complex), (rows, cols)), shape=((n + 1) * dim, (n + 1) * dim)
    )


@contextmanager
def _fixed_global_rng():
    """Run a block on NumPy's global generator seeded with 0, then give the
    caller back the generator state it had (``onenormest`` draws its random
    starting vectors from the global generator)."""
    state = np.random.get_state()
    np.random.seed(0)
    try:
        yield
    finally:
        np.random.set_state(state)


def loop_solve_harmonic(model, form_degree=0, mode=((0,), (0,)), t_max=12.0, n=2048):
    """``solve_harmonic`` with unit boundary data on the default component,
    on the matrix of ``loop_harmonic_matrix``; the condition is estimated by
    SciPy's randomized block estimator ``onenormest`` under a fixed seed,
    for both A and the inverse, the latter applied through the package's
    ``_BandLU`` factor."""
    base_mode, fiber_mode = mode
    A = loop_harmonic_matrix(model, mode, t_max, n)
    dim = A.shape[0] // (n + 1)
    component = _default_component(model, form_degree)
    g = np.zeros(dim, dtype=complex)
    g[component] = 1.0
    t = np.linspace(0.0, t_max, n + 1)
    rhs = np.zeros((n + 1) * dim, dtype=complex)
    rhs[:dim] = g
    lu = _BandLU(A)
    u = lu.solve(rhs)
    inv_op = spla.LinearOperator(
        A.shape,
        matvec=lu.solve,
        rmatvec=lambda b: lu.solve(b, trans="H"),
        dtype=complex,
    )
    with np.errstate(over="ignore", invalid="ignore"), _fixed_global_rng():
        cond = float(spla.onenormest(A) * spla.onenormest(inv_op))
    return SampledSolution(
        t=t,
        x=model.x_max * np.exp(-t),
        values=u.reshape(n + 1, dim),
        base_mode=tuple(np.atleast_1d(base_mode).astype(int)),
        fiber_mode=tuple(np.atleast_1d(fiber_mode).astype(int)),
        form_degree=form_degree,
        component=component,
        cond_estimate=cond,
        model=model,
    )


def loop_discrete_residual(model, base_mode, exponent, component=0, t_window=(1.0, 6.0), n=256):
    """``discrete_residual`` evaluated one interior grid point at a time."""
    op = hodge_mode_operator(model, base_mode, (0,) * model.f)
    dim = op.dim
    t0, t1 = t_window
    h = (t1 - t0) / n
    t = np.linspace(t0, t1, n + 1)
    v = np.zeros(dim, dtype=complex)
    v[component] = 1.0
    u = np.exp(-exponent * t)[:, None] * v[None, :]
    worst = 0.0
    for i in range(1, n):
        A2 = _coefficient(op, t[i], 2)
        A1 = _coefficient(op, t[i], 1)
        A0 = _coefficient(op, t[i], 0)
        r = (
            A2 @ (u[i + 1] - 2 * u[i] + u[i - 1]) / h**2
            + A1 @ (u[i + 1] - u[i - 1]) / (2 * h)
            + A0 @ u[i]
        )
        worst = max(worst, float(np.linalg.norm(r, ord=np.inf)))
    return worst
