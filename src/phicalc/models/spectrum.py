"""Critical weights and the boundary normal-family gap.

The critical weights of a reduced x-direction operator are the real s at
which the indicial family fails to be invertible on the ray lambda = -i s.
Per Fourier mode the family is a matrix polynomial F(s) = sum_k C_k s^k of
order d (1 for Gauss-Bonnet, 2 for Hodge and the scalar block), whose
coefficients ``family.coefficients(mode)`` reads off the mode operator
exactly, so F is never evaluated; its roots are the real eigenvalue
clusters of the companion linearization (Tisseur & Meerbergen, SIAM
Review 43, 2001).

Pole orders are decided, not estimated (Gohberg, Lancaster & Rodman,
"Matrix Polynomials", 1982, ch. 1): the lower block-Toeplitz T_j = [F_(r-c)]
(r, c < j) of the Taylor coefficients F_j at a root has dim ker T_j =
sum_i min(kappa_i, j) for the Jordan chain lengths kappa_1 >= kappa_2 >= ...,
so the inverse family has a pole of order kappa_1, det F vanishes to order
sum kappa_i (the cluster size), and sigma_min(T_1 = F) confirms the root.
"""

from __future__ import annotations

import collections
import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .geometry import IndicialFamily, ModelGeometry, NormalFamily, _count

__all__ = ["SpectrumPoint", "imspec", "imspec_roots", "normal_family_gap", "GapReport"]


@dataclass(frozen=True)
class SpectrumPoint:
    """One critical weight: a root of the indicial family.

    ``pole_order_k`` = k: the inverse family has a pole of order k + 1, the
    longest Jordan chain.  ``det_order`` sums all chain lengths, so it exceeds
    k + 1 exactly at the roots ``order_mismatch`` marks: several chains.
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
            "det_order": self.det_order,
            "order_mismatch": int(self.order_mismatch),
            "at_window_edge": int(self.at_window_edge),
        }


# Rounding splits a Jordan chain of length k into a ring of relative radius
# about (c eps)^(1/k): 1.5e-8, 6e-6, 1e-4 for k = 2, 3, 4.  Eigenvalues within
# _CLUSTER_TOL * (max(1, |s|) + max(1, |s'|)) are linked; a cluster of relative
# radius r is one root only if r^kappa_1 <= _SPLIT_TOL, real if |Im s| <=
# _REAL_TOL * max(1, |s|); T_j's zero singular values are <= _RANK_TOL times
# the largest |C_k| max(1, |s|)^k.
_REAL_TOL = 1e-6
_CLUSTER_TOL = 1e-3
_SPLIT_TOL = 1e-14
_RANK_TOL = 1e-7


def _companion_eigvals(C: np.ndarray) -> np.ndarray:
    """Finite eigenvalues of the first companion pencil A - s B of sum C_k s^k:
    A z = s B z with z = (x, s x, ..., s^(d-1) x) holds iff F(s) x = 0."""
    d, n = len(C) - 1, C.shape[1]
    A = np.zeros((d * n, d * n), dtype=complex)
    A[:-n, n:] = np.eye((d - 1) * n)
    A[-n:, :] = -np.concatenate(C[:-1], axis=1)
    B = np.eye(d * n, dtype=complex)
    B[-n:, -n:] = C[-1]
    ev = scipy.linalg.eigvals(A, B)
    return ev[np.isfinite(ev)]


def _components(linked: np.ndarray) -> np.ndarray:
    """Label each node of the symmetric boolean adjacency matrix ``linked``
    by the smallest node of its connected component: every node takes the
    smallest label among itself and its neighbours, then the label of its
    label (pointer jumping), until nothing changes."""
    n = len(linked)
    label = np.arange(n)
    while True:
        low = np.minimum(label, np.where(linked, label, n).min(axis=1, initial=n))
        new = low[low]
        if (new == label).all():
            return label
        label = new


def _jordan_structure(C: np.ndarray, norms: np.ndarray, s: float, size: int):
    """(sigma_min F(s), Jordan chain count, longest chain, sum of lengths) at
    s; ``norms`` are the 2-norms of the C_k, which do not depend on s."""
    d, n = len(C) - 1, C.shape[1]
    taylor = [sum(math.comb(k, j) * s ** (k - j) * C[k] for k in range(j, d + 1)) for j in range(d + 1)]
    # the scale of the terms C_k s^k that make up the Taylor data at s
    scale = norms * max(1.0, abs(s)) ** np.arange(d + 1)
    tol = _RANK_TOL * scale.max()
    sv = np.linalg.svd(taylor[0], compute_uv=False)
    kers = [0, int(np.count_nonzero(sv <= tol))]  # dim ker T_j, j = 0, 1, ... until it stops growing
    while kers[-2] < kers[-1] <= size:
        j = len(kers)
        T = np.zeros((j * n, j * n), dtype=C.dtype)
        for r in range(j):
            for c in range(max(0, r - d), r + 1):
                T[r * n : (r + 1) * n, c * n : (c + 1) * n] = taylor[r - c]
        kers.append(int(np.count_nonzero(np.linalg.svd(T, compute_uv=False) <= tol)))
    return sv[-1], kers[1], int(np.count_nonzero(np.diff(kers))), kers[-1]


def _clusters(C, norms, ev, lo, hi, tol=_CLUSTER_TOL):
    """(mean s, size, Jordan structure at s or None if s is non-real) of each
    eigenvalue cluster with s in [lo, hi], in the order of each cluster's
    first eigenvalue; ``norms`` are the 2-norms of the C_k.  A real cluster
    is re-linked at tol / 10 unless its chain lengths sum to its size and
    fit its radius."""
    mag = np.maximum(1.0, np.abs(ev))
    labels = _components(np.abs(ev[:, None] - ev) <= tol * (mag[:, None] + mag))
    for cluster in (ev[labels == c] for c in np.unique(labels)):
        if (cluster.real < lo).all() or (cluster.real > hi).all():
            continue
        s = complex(cluster.mean())
        real = abs(s.imag) <= _REAL_TOL * max(1.0, abs(s))
        structure = _jordan_structure(C, norms, s.real, cluster.size) if real else None
        radius = np.abs(cluster - s).max() / max(1.0, abs(s))
        if real and radius > 0 and (structure[3] != cluster.size or radius ** structure[2] > _SPLIT_TOL):
            yield from _clusters(C, norms, cluster, lo, hi, tol / 10)
        elif lo <= s.real <= hi:
            yield s, cluster.size, structure


def _mode_roots(family, mode, lo, hi, scan_step, sv_tol) -> list:
    C = family.coefficients(mode)
    norms = np.linalg.norm(C, 2, axis=(1, 2))
    points, dropped = [], collections.Counter()
    for s, size, structure in _clusters(C, norms, _companion_eigvals(C), lo, hi):
        if structure is None:
            dropped["eigenvalue(s) with real part in the window dropped as non-real"] += size
        elif structure[0] >= sv_tol:
            dropped["real root(s) in the window dropped at sigma_min >= sv_tol"] += 1
        else:
            _, chains, longest, total = structure
            dropped["root(s) whose Jordan chain lengths miss their cluster size"] += total != size
            edge = s.real - lo < scan_step or hi - s.real < scan_step
            points.append(SpectrumPoint(s.real, tuple(mode), max(longest - 1, 0), total, chains > 1, edge))
    for what, count in dropped.items():
        if count:
            warnings.warn(f"mode {tuple(mode)}: {count} {what}", RuntimeWarning, stacklevel=3)
    return points


def imspec(
    family: IndicialFamily,
    window=(-2.5, 2.5),
    mode_cutoff: int = 3,
    scan_step: float = 1e-2,
    sv_tol: float = 1e-8,
) -> list:
    """Critical weights of an indicial family inside a window.

    Per Fourier mode, keeps the real companion eigenvalue clusters in the
    window where sigma_min drops below ``sv_tol``, flagged ``at_window_edge``
    within ``scan_step`` of either end; a ``RuntimeWarning`` names each mode
    that drops an in-window candidate or miscounts a root.  Results are
    deduplicated across modes (keeping the smallest mode) and sorted by root.
    Raises ``ValueError`` unless the window is a finite interval, the mode
    cutoff a non-negative integer that is not a bool, and ``scan_step`` and
    ``sv_tol`` finite and positive.
    """
    lo, hi = float(window[0]), float(window[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"window must be a finite interval, got {window}")
    mode_cutoff = _count(mode_cutoff, "mode cutoff")
    for name, value in (("scan_step", scan_step), ("sv_tol", sv_tol)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value}")
    modes = sorted(family.modes(mode_cutoff), key=lambda m: (sum(abs(v) for v in m), m))
    # a plain loop: _mode_roots warns at stacklevel 3, imspec's caller, and a
    # comprehension would add a frame of its own before Python 3.12
    points = []
    for mode in modes:
        points += _mode_roots(family, mode, lo, hi, scan_step, sv_tol)
    points.sort(key=lambda p: (p.lambda_root, sum(abs(v) for v in p.fourier_mode)))
    out = []
    for p in points:
        if not any(abs(p.lambda_root - q.lambda_root) < 1e-8 for q in out):
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
    for all eta points of one (fibre mode, tau) slice at once.  Raises
    ``ValueError`` unless the mode cutoff is a non-negative integer (not a
    bool), and when ``taus`` or ``etas`` is empty, not 1-D or not finite.
    """
    mode_cutoff = _count(mode_cutoff, "mode cutoff")
    taus = np.linspace(-5, 5, 21) if taus is None else np.asarray(taus, float)
    etas = np.linspace(-5, 5, 21) if etas is None else np.asarray(etas, float)
    for name, grid in (("taus", taus), ("etas", etas)):
        if not (grid.ndim == 1 and grid.size and np.isfinite(grid).all()):
            raise ValueError(f"the {name} grid must be a nonempty 1-D array of finite numbers, "
                             f"got {np.array2string(grid, threshold=6)}")
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
