"""Critical weights and the boundary normal-family gap.

The critical weights of a reduced x-direction operator are the real values
s at which the indicial matrix family fails to be invertible on the ray
lambda = -i s.  Per Fourier mode the family is a matrix polynomial
F(s) = C_0 + C_1 s + ... + C_d s^d of the family's order d (1 for
Gauss-Bonnet, 2 for Hodge and the scalar block), so its critical weights
are the real eigenvalues of the companion linearization (Tisseur &
Meerbergen, "The quadratic eigenvalue problem", SIAM Review 43, 2001).  The
coefficients are interpolated from d + 1 evaluations of the family, one
generalized eigen-solve gives every root, and each root is confirmed by
the smallest singular value of F at it.

Pole orders: the vanishing order of the smallest singular value along s
equals the pole order of the inverse family, which is the quantity the
(weight, log power) bookkeeping needs; it is measured from a log-log slope
around the root.  The algebraic multiplicity of the root, the size of its
eigenvalue cluster, is the vanishing order of det F instead.  Both are
reported, and a disagreement is flagged rather than silently accepted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .geometry import IndicialFamily, ModelGeometry, NormalFamily

__all__ = ["SpectrumPoint", "imspec", "imspec_roots", "normal_family_gap", "GapReport"]


@dataclass(frozen=True)
class SpectrumPoint:
    """One critical weight: a root of the indicial family.

    ``pole_order_k`` follows the convention that the inverse family has a
    pole of order k + 1 at the root.  ``det_order`` is the vanishing order
    of the determinant (multiplicity count); ``order_mismatch`` marks roots
    where the two measurements differ, e.g. for non-semisimple families.
    """

    lambda_root: float
    fourier_mode: tuple
    pole_order_k: int
    det_order: int | None = None
    order_mismatch: bool = False
    at_window_edge: bool = False

    def to_row(self):
        return {
            "mode": ";".join(str(int(v)) for v in self.fourier_mode),
            "lambda_root": self.lambda_root,
            "pole_order_k": self.pole_order_k,
        }


def _sigma_min(family: IndicialFamily, s: float, mode) -> float:
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


# eigenvalues with |Im s| <= _REAL_TOL * max(1, |s|) are real roots; real
# roots closer than _CLUSTER_TOL are one root (a defective double root splits
# by about sqrt(machine eps) under rounding)
_REAL_TOL = 1e-6
_CLUSTER_TOL = 1e-6
_SLOPE_DELTAS = (1e-3, 3e-4, 1e-4, 3e-5)


def _coefficients(family: IndicialFamily, mode) -> np.ndarray:
    """Coefficients C_0..C_d of F(s) = sum C_k s^k, interpolated from
    d + 1 evaluations at nodes symmetric about 0."""
    nodes = np.arange(family.order + 1) - family.order / 2
    values = np.array([family.matrix(s, mode) for s in nodes])
    coeffs = np.linalg.solve(np.vander(nodes, increasing=True), values.reshape(len(nodes), -1))
    return coeffs.reshape(values.shape)


def _companion_eigvals(C: np.ndarray) -> np.ndarray:
    """Eigenvalues of the first companion pencil A - s B of sum C_k s^k:
    A z = s B z with z = (x, s x, ..., s^(d-1) x) holds iff F(s) x = 0."""
    d, n = len(C) - 1, C.shape[1]
    A = np.zeros((d * n, d * n), dtype=complex)
    A[:-n, n:] = np.eye((d - 1) * n)
    A[-n:, :] = -np.concatenate(C[:-1], axis=1)
    B = np.eye(d * n, dtype=complex)
    B[-n:, -n:] = C[-1]
    return scipy.linalg.eigvals(A, B)


def _mode_roots(family, mode, lo, hi, scan_step, sv_tol) -> list:
    ev = _companion_eigvals(_coefficients(family, mode))
    ev = ev[np.isfinite(ev)]
    real = np.sort(ev[np.abs(ev.imag) <= _REAL_TOL * np.maximum(1.0, np.abs(ev))].real)
    clusters = np.split(real, np.flatnonzero(np.diff(real) > _CLUSTER_TOL) + 1)

    def sigma(s):
        return _sigma_min(family, s, mode)

    points = []
    for cluster in clusters:
        if not cluster.size:
            continue
        s_star = float(cluster.mean())
        if not lo <= s_star <= hi or sigma(s_star) >= sv_tol:
            continue
        slope = _log_slope(sigma, s_star, _SLOPE_DELTAS)
        sv_order = int(round(slope)) if math.isfinite(slope) else 1
        points.append(
            SpectrumPoint(
                lambda_root=s_star,
                fourier_mode=tuple(mode),
                pole_order_k=max(sv_order - 1, 0),
                det_order=cluster.size,
                order_mismatch=cluster.size != sv_order,
                at_window_edge=s_star - lo < scan_step or hi - s_star < scan_step,
            )
        )
    return points


def imspec(
    family: IndicialFamily,
    window=(-2.5, 2.5),
    mode_cutoff: int = 3,
    scan_step: float = 1e-2,
    sv_tol: float = 1e-8,
    dedup: bool = True,
) -> list:
    """Critical weights of an indicial family inside a window.

    Per Fourier mode, solves the companion linearization of the family's
    matrix polynomial once and keeps the real eigenvalues in the window,
    merging clusters into one root whose size is ``det_order``.  A root is
    accepted where the smallest singular value drops below ``sv_tol``, and
    flagged ``at_window_edge`` when it lies within ``scan_step`` of either
    end of the window.  Results are deduplicated across modes (keeping the
    representative with the smallest mode) and sorted by root.
    """
    lo, hi = float(window[0]), float(window[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"window must be a finite interval, got {window}")
    if mode_cutoff < 0:
        raise ValueError(f"mode cutoff must be non-negative, got {mode_cutoff}")
    modes = sorted(family.modes(mode_cutoff), key=lambda m: (sum(abs(v) for v in m), m))
    points = [p for mode in modes for p in _mode_roots(family, mode, lo, hi, scan_step, sv_tol)]
    points.sort(key=lambda p: (p.lambda_root, sum(abs(v) for v in p.fourier_mode)))
    if not dedup:
        return points
    out = []
    for p in points:
        if any(abs(p.lambda_root - q.lambda_root) < 1e-8 for q in out):
            continue
        out.append(p)
    return out


def imspec_roots(points) -> list:
    return [p.lambda_root for p in points]


# ---------------------------------------------------------------------------
# normal-family gap


@dataclass
class GapReport:
    taus: np.ndarray
    etas: np.ndarray
    gaps: np.ndarray  # min over perpendicular fibre modes, per grid point
    min_gap: float
    lambda1: float
    normal_invertible: bool
    tol: float

    @property
    def rows(self) -> list:
        """One {"tau", "eta", "gap"} dict per grid point, built from the
        arrays on each access; the report itself holds only the arrays."""
        b = self.gaps.ndim - 1
        eta_points = np.stack(np.meshgrid(*[self.etas] * b, indexing="ij"), axis=-1).reshape(-1, b)
        return [
            {"tau": float(tau), "eta": eta.tolist(), "gap": float(g)}
            for tau, row in zip(self.taus, self.gaps.reshape(len(self.taus), -1))
            for eta, g in zip(eta_points, row)
        ]

    def to_json(self):
        return {
            "min_gap": self.min_gap,
            "lambda1": None if math.isinf(self.lambda1) else self.lambda1,
            "normal_invertible": self.normal_invertible,
            "grid": {"taus": self.taus.tolist(), "etas": self.etas.tolist()},
            "gaps": self.gaps.tolist(),
        }


def normal_family_gap(
    model: ModelGeometry,
    taus=None,
    etas=None,
    mode_cutoff: int = 2,
    tol: float = 1e-8,
) -> GapReport:
    """Smallest singular value of the boundary normal family on the
    fibre-perpendicular modes, over a (tau, eta) grid.

    For a torus fiber the perpendicular subspace is spanned exactly by the
    nonzero fibre Fourier modes, so the restriction is a per-mode matrix.
    Modes beyond the cutoff only increase the fibre frequency, hence the
    minimum over the scanned modes is the true gap.  Without a fiber the
    perpendicular subspace is trivial and the gap is infinite.  The family
    is i times a real antisymmetric matrix, hence Hermitian, so its singular
    values are the absolute values of its eigenvalues; these are computed
    for all eta points of one (fibre mode, tau) slice at once.
    """
    if mode_cutoff < 0:
        raise ValueError(f"mode cutoff must be non-negative, got {mode_cutoff}")
    taus = np.linspace(-5, 5, 21) if taus is None else np.asarray(taus, float)
    etas = np.linspace(-5, 5, 21) if etas is None else np.asarray(etas, float)
    lam1 = model.smallest_fiber_eigenvalue()
    shape = (len(taus),) + (len(etas),) * model.b
    if model.f == 0:
        return GapReport(taus, etas, np.full(shape, np.inf), math.inf, lam1, True, tol)

    modes = model.fiber_modes(mode_cutoff, nonzero=True)
    if not modes:
        raise ValueError("mode cutoff 0 leaves no fibre-perpendicular mode to scan")
    nf = NormalFamily(model)
    eta_points = np.stack(np.meshgrid(*[etas] * model.b, indexing="ij"), axis=-1).reshape(-1, model.b)
    flat = np.full((len(taus), len(eta_points)), np.inf)
    for m in modes:
        for i, tau in enumerate(taus):
            eig = np.linalg.eigvalsh(nf.matrix(tau, eta_points, m))
            np.minimum(flat[i], np.abs(eig).min(axis=-1), out=flat[i])
    gaps = flat.reshape(shape)
    min_gap = float(gaps.min())
    return GapReport(
        taus,
        etas,
        gaps,
        min_gap,
        lam1,
        normal_invertible=min_gap > tol and min_gap >= math.sqrt(lam1) - 1e-6,
        tol=tol,
    )
