"""Model geometry and exact operator assembly for flat torus bundles.

Forms are expanded in the orthonormal coframe dx/x, dy_1..dy_b,
x^a dz_1..x^a dz_f; the 2^(1+b+f) coframe monomials are indexed by bitmask
and all operators are built from wedge/contraction matrices on that basis,
so every sign comes out of the exterior algebra rather than hand
computation.  Fourier transforming in y and z reduces each operator to a
matrix-valued family per mode.

The Gauss-Bonnet operator is assembled in one place,
:func:`gauss_bonnet_mode_operator`, as a matrix ODE operator in
t = -log x per (base, fibre) mode; the Hodge operator is its square under
``ModeOperator.compose``.  The harmonic solver discretizes these, and the
indicial families are their coefficients on the fibre-harmonic mode, read
off exactly (:class:`IndicialFamily`).  Two volume conventions appear:

* ``volume="b"``: adjoints with respect to the b-volume dx/x dy dz and the
  x-independent frame on the fibre-harmonic bundle.  This is the cylinder
  convention used for the critical-weight scans.
* ``volume="g"``: adjoints of the metric itself, i.e. the geometric
  Gauss-Bonnet and Hodge operators including the x^(af) volume factor and
  the frame-derivative terms of the rescaled fibre coframe.  This is the
  operator the harmonic solver discretizes; the difference of the two
  conventions is the zero-order matrix a(W_0 N_F + (N_F - f) C_0), the
  wedge part of the fibre-degree counting operator plus the volume drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from ..jsonio import json_list, json_object

__all__ = [
    "ModelGeometry",
    "wedge_matrix",
    "assemble_DV",
    "IndicialFamily",
    "NormalFamily",
    "ModeOperator",
]

TWO_PI = 2.0 * math.pi
_MODEL_FIELDS = frozenset({"a", "base", "fiber", "x_max"})
_TORUS_FIELDS = frozenset({"circumferences"})
# forms have dimension 2^(1 + circles): at most 512, so dense matrices stay small
_MAX_CIRCLES = 8


@dataclass(frozen=True)
class ModelGeometry:
    """Product fibred-cusp model: torus base, torus fiber, degeneracy a."""

    a: int = 1
    base_circumferences: tuple = (TWO_PI,)
    fiber_circumferences: tuple = (TWO_PI,)
    x_max: float = 1.0

    def __post_init__(self):
        a = self.a
        if not (_is_real(a) and float(a).is_integer() and a >= 1):
            raise ValueError(f"degeneracy order a must be a positive integer, got {a!r}")
        object.__setattr__(self, "a", int(a))
        for name in ("base_circumferences", "fiber_circumferences"):
            object.__setattr__(self, name, tuple(_positive(L, "circumferences") for L in getattr(self, name)))
        if self.b + self.f > _MAX_CIRCLES:
            raise ValueError(f"a model has at most {_MAX_CIRCLES} circles, got {self.b + self.f}")
        object.__setattr__(self, "x_max", _positive(self.x_max, "x_max"))

    @property
    def b(self) -> int:
        return len(self.base_circumferences)

    @property
    def f(self) -> int:
        return len(self.fiber_circumferences)

    @property
    def form_dim(self) -> int:
        return 2 ** (1 + self.b + self.f)

    def base_frequency(self, j) -> np.ndarray:
        j = _as_tuple(j, self.b, "base mode")
        return np.array([TWO_PI * ji / Li for ji, Li in zip(j, self.base_circumferences)])

    def fiber_frequency(self, m) -> np.ndarray:
        m = _as_tuple(m, self.f, "fiber mode")
        return np.array([TWO_PI * mi / Li for mi, Li in zip(m, self.fiber_circumferences)])

    def smallest_fiber_eigenvalue(self) -> float:
        """Smallest positive eigenvalue of the fibre Laplacian."""
        if self.f == 0:
            return math.inf
        return min((TWO_PI / L) ** 2 for L in self.fiber_circumferences)

    def base_modes(self, cutoff: int):
        """All base Fourier modes with every entry bounded by the cutoff."""
        return [m for m in product(range(-cutoff, cutoff + 1), repeat=self.b)]

    def fiber_modes(self, cutoff: int, nonzero=False):
        out = [m for m in product(range(-cutoff, cutoff + 1), repeat=self.f)]
        if nonzero:
            out = [m for m in out if any(m)]
        return out

    def to_json(self) -> dict:
        return {
            "a": self.a,
            "base": {"circumferences": list(self.base_circumferences)},
            "fiber": {"circumferences": list(self.fiber_circumferences)},
            "x_max": self.x_max,
        }

    @staticmethod
    def from_json(data: dict) -> "ModelGeometry":
        json_object(data, _MODEL_FIELDS, "model")

        def circumferences(key, default):
            torus = json_object(data.get(key, {}), _TORUS_FIELDS, key)
            return tuple(json_list(torus.get("circumferences", default), f"{key} circumferences"))

        return ModelGeometry(
            a=data.get("a", 1),
            base_circumferences=circumferences("base", [TWO_PI]),
            fiber_circumferences=circumferences("fiber", []),
            x_max=data.get("x_max", 1.0),
        )


def _is_real(v) -> bool:
    return isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool)


def _positive(v, what) -> float:
    """``v`` as a float, checked to be a finite positive number (not a bool or a string)."""
    if not _is_real(v) or not (math.isfinite(float(v)) and v > 0):
        raise ValueError(f"{what} must be finite and positive, got {v!r}")
    return float(v)


def _is_int(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _count(v, what) -> int:
    """``v`` as a Python ``int`` >= 0: an integer, NumPy's included, never a
    bool or a float (not even a whole one).  The ``ValueError`` names ``what``."""
    if not _is_int(v) or v < 0:
        raise ValueError(f"{what} must be a non-negative integer, got {v!r}")
    return int(v)


def _as_tuple(v, length, what):
    """A Fourier mode as a tuple of ``length`` Python ints; one integer
    stands for all entries.  Raises ``ValueError`` on an entry that is not
    an integer (a float, even a whole one, or a bool), so that nothing is
    truncated, and on a wrong length."""
    if _is_int(v):
        v = (v,) * length
    try:
        entries = tuple(v)
    except TypeError:
        raise ValueError(f"{what} must be an integer or a tuple of integers, got {v!r}") from None
    if not all(_is_int(x) for x in entries):
        raise ValueError(f"{what} entries must be integers, got {v!r}")
    v = tuple(int(x) for x in entries)
    if len(v) != length:
        raise ValueError(f"{what} must have {length} entries, got {v}")
    return v


# ---------------------------------------------------------------------------
# exterior algebra matrices


def wedge_matrix(i: int, n: int) -> np.ndarray:
    """Left exterior multiplication by coframe element i on Lambda(R^n),
    in the bitmask basis with sign (-1)^(number of earlier factors)."""
    dim = 2 ** n
    W = np.zeros((dim, dim))
    for s in range(dim):
        if s >> i & 1:
            continue
        sign = (-1) ** bin(s & ((1 << i) - 1)).count("1")
        W[s | (1 << i), s] = sign
    return W


@dataclass
class _Frame:
    """Wedge/contraction matrices for the (x, base, fiber) coframe."""

    model: ModelGeometry
    W: list = field(default_factory=list)
    C: list = field(default_factory=list)
    NF: np.ndarray = None

    def __post_init__(self):
        n = 1 + self.model.b + self.model.f
        self.W = [wedge_matrix(i, n) for i in range(n)]
        self.C = [w.T.copy() for w in self.W]
        dim = 2 ** n
        nf = np.zeros((dim, dim))
        for s in range(dim):
            deg = sum(s >> (1 + self.model.b + j) & 1 for j in range(self.model.f))
            nf[s, s] = deg
        self.NF = nf

    def D(self, i) -> np.ndarray:
        """Gauss-Bonnet factor (wedge minus contraction) for direction i."""
        return self.W[i] - self.C[i]

    def drift(self) -> np.ndarray:
        """Volume/frame correction: a (W_0 N_F + (N_F - f) C_0)."""
        a, f = self.model.a, self.model.f
        return a * (self.W[0] @ self.NF + (self.NF - f * np.eye(self.NF.shape[0])) @ self.C[0])


# ---------------------------------------------------------------------------
# indicial families


class IndicialFamily:
    """Matrix family I(lambda; mode) of a reduced x-direction operator:
    ``name`` is ``"gb"`` (Gauss-Bonnet), ``"hodge"`` (its square) or
    ``"scalar"`` (the function block of the square), in the ``volume``
    convention ``"b"`` or ``"g"``.

    On a fibre-harmonic mode every term of the mode operator is
    x-independent, so the Mellin substitution lambda = -i s turns d_t into
    -s and the family is the matrix polynomial F(s) = sum_k C_k s^k with
    C_k = (-1)^k times the d_t^k coefficient.  ``coefficients(mode)`` reads
    the C_k off :func:`gauss_bonnet_mode_operator`; ``matrix(s, mode)``
    evaluates F on the ray lambda = -i s where the critical weights live,
    and ``matrix_lambda`` takes a general lambda.
    """

    def __init__(self, model: ModelGeometry, name: str, volume: str = "b"):
        if name not in ("gb", "hodge", "scalar"):
            raise ValueError(f"unknown family {name!r}; pick gb, hodge or scalar")
        _check_volume(volume)
        self.model = model
        self.name = name
        self.volume = volume
        self.dim = 1 if name == "scalar" else model.form_dim

    def coefficients(self, mode) -> np.ndarray:
        """C_0..C_d of F(s) = sum_k C_k s^k, shape (d + 1, dim, dim)."""
        D = gauss_bonnet_mode_operator(self.model, mode, 0, self.volume)
        if self.name != "gb":
            D = D.compose(D)
        C = D.coefficients(0.0)[:, : self.dim, : self.dim]
        return C * (-1.0) ** np.arange(len(C))[:, None, None]

    def matrix(self, s, mode) -> np.ndarray:
        return sum(c * s**k for k, c in enumerate(self.coefficients(mode)))

    def matrix_lambda(self, lam: complex, mode) -> np.ndarray:
        return self.matrix(1j * lam, mode)

    def modes(self, cutoff: int):
        return self.model.base_modes(cutoff)


class DVBuilder:
    """Builds indicial families of the reduced fibre-harmonic operator.

    Fourier transforming in the base reduces the operator per base mode to
    a finite matrix; the Mellin substitution replaces x D_x by lambda.
    Only flat products are representable here, so the curvature term is
    absent by construction.
    """

    def __init__(self, model: ModelGeometry):
        self.model = model

    def gauss_bonnet(self, volume: str = "b") -> IndicialFamily:
        return self.family("gb", volume)

    def hodge(self, volume: str = "b") -> IndicialFamily:
        return self.family("hodge", volume)

    def scalar(self, volume: str = "b") -> IndicialFamily:
        """The function-component block of the squared family (1x1)."""
        return self.family("scalar", volume)

    def family(self, name: str, volume: str = "b") -> IndicialFamily:
        return IndicialFamily(self.model, "gb" if name == "gauss-bonnet" else name, volume)


def _check_volume(volume):
    if volume not in ("b", "g"):
        raise ValueError("volume must be 'b' (cylinder convention) or 'g' (metric volume)")


def assemble_DV(model: ModelGeometry) -> DVBuilder:
    """Indicial-family builder of the reduced operator on fibre-harmonic
    forms over the half-cylinder."""
    return DVBuilder(model)


# ---------------------------------------------------------------------------
# normal family at the boundary


class NormalFamily:
    """Boundary normal family: the Gauss-Bonnet operator of the product of
    the fibre with the model base space, as a matrix per fibre mode and
    base covariables (tau, eta)."""

    def __init__(self, model: ModelGeometry):
        self.model = model
        self.frame = _Frame(model)

    def matrix(self, tau: float, eta, fiber_mode) -> np.ndarray:
        """The family at one (tau, eta), or a stack of matrices when eta
        is a stack of covariables with shape (..., b)."""
        fr = self.frame
        model = self.model
        eta = np.atleast_1d(np.asarray(eta, dtype=float))
        if eta.shape[-1:] != (model.b,):
            raise ValueError(f"eta must have {model.b} entries")
        nu = model.fiber_frequency(fiber_mode)
        A = tau * fr.D(0)
        for j in range(model.f):
            A = A + nu[j] * fr.D(1 + model.b + j)
        for k in range(model.b):
            A = A + eta[..., k, None, None] * fr.D(1 + k)
        return 1j * A


# ---------------------------------------------------------------------------
# reduced mode operators in the logarithmic variable


class ModeOperator:
    """Matrix ODE operator in t = -log x: sum of M e^(q a t) d_t^p terms.

    ``terms`` maps (p, q) to a complex matrix.  Composition follows the
    Leibniz rule for d_t acting on the exponential factors.
    """

    def __init__(self, terms: dict, a: int, dim: int):
        self.terms = {k: np.asarray(v, dtype=complex) for k, v in terms.items()}
        self.a = a
        self.dim = dim

    def compose(self, other: "ModeOperator") -> "ModeOperator":
        out: dict = {}
        for (p1, q1), M1 in self.terms.items():
            for (p2, q2), M2 in other.terms.items():
                for r in range(p1 + 1):
                    coeff = math.comb(p1, r) * (q2 * self.a) ** r
                    if coeff == 0 and r > 0:
                        continue
                    key = (p1 - r + p2, q1 + q2)
                    block = coeff * (M1 @ M2)
                    out[key] = out.get(key, 0) + block
        return ModeOperator(out, self.a, self.dim)

    def max_dt_order(self) -> int:
        return max(p for p, _ in self.terms)

    def coefficients(self, t, entries=None) -> np.ndarray:
        """Matrix coefficients of d_t^0 .. d_t^P (P = ``max_dt_order()``)
        at time t, stacked with shape (P + 1,) + t.shape + (dim, dim).
        With ``entries`` = (rows, cols), only those E entries are
        evaluated, with shape (P + 1,) + t.shape + (E,), bit for bit the
        values the full matrices hold there.  Each e^(q a t) is evaluated
        once; the terms of one order are summed in ``terms`` order."""
        t = np.asarray(t, dtype=float)
        if entries is None:
            shape = (self.dim, self.dim)
        else:
            rows, cols = entries
            shape = (len(rows),)
        M = np.zeros((self.max_dt_order() + 1,) + t.shape + shape, dtype=complex)
        powers = {}
        for (p, q), block in self.terms.items():
            if q not in powers:
                powers[q] = np.exp(q * self.a * t).reshape(t.shape + (1,) * len(shape))
            M[p] += (block if entries is None else block[rows, cols]) * powers[q]
        return M


def gauss_bonnet_mode_operator(model: ModelGeometry, base_mode, fiber_mode, volume="g") -> ModeOperator:
    """First-order reduced system of the Gauss-Bonnet operator at a single
    (base, fiber) Fourier mode, in t = -log x.

    The fibre derivatives carry x^(-a) = e^(at).  With ``volume="g"``
    adjoints are taken in the metric volume, producing the drift term;
    ``volume="b"`` leaves it out.
    """
    _check_volume(volume)
    fr = _Frame(model)
    mu = model.base_frequency(base_mode)
    nu = model.fiber_frequency(fiber_mode)
    dim = model.form_dim
    const = fr.drift().astype(complex) if volume == "g" else np.zeros((dim, dim), dtype=complex)
    for k in range(model.b):
        const = const + (1j * mu[k]) * fr.D(1 + k)
    terms = {(1, 0): (fr.C[0] - fr.W[0]).astype(complex), (0, 0): const}
    if model.f and np.any(nu):
        fib = np.zeros((dim, dim), dtype=complex)
        for j in range(model.f):
            fib = fib + (1j * nu[j]) * fr.D(1 + model.b + j)
        terms[(0, 1)] = fib
    return ModeOperator(terms, model.a, dim)


def hodge_mode_operator(model: ModelGeometry, base_mode, fiber_mode) -> ModeOperator:
    D = gauss_bonnet_mode_operator(model, base_mode, fiber_mode)
    return D.compose(D)
