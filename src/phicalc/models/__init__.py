"""Explicit product fibred-cusp models: flat torus bundle over a torus base.

The metric is dx^2/x^2 + g_B + x^(2a) g_F with flat factors, so curvature
and second fundamental form vanish, the base operator commutes with the
fibre-harmonic projection, and every Fourier mode separates exactly.
"""

from .geometry import (
    IndicialFamily,
    ModeOperator,
    ModelGeometry,
    NormalFamily,
    assemble_DV,
)
from .spectrum import SpectrumPoint, imspec, imspec_roots, normal_family_gap
from .harmonic import (
    FitError,
    HarmonicFit,
    SampledSolution,
    check_L2,
    discrete_residual,
    fit_exponents,
    solve_harmonic,
    verify_predictions,
)

__all__ = [
    "ModelGeometry",
    "assemble_DV",
    "IndicialFamily",
    "NormalFamily",
    "ModeOperator",
    "SpectrumPoint",
    "imspec",
    "imspec_roots",
    "normal_family_gap",
    "SampledSolution",
    "HarmonicFit",
    "FitError",
    "solve_harmonic",
    "fit_exponents",
    "check_L2",
    "discrete_residual",
    "verify_predictions",
]
