"""Split parametrix construction replayed at the level of operator classes.

A :class:`SplitOperator` is the 2x2 block form of an operator that splits
under the fibre-harmonic projection: an elliptic b-block scaled by x^(am),
x^(am)-suppressed off-diagonal blocks, and a perpendicular block with
invertible normal family.  For an admissible weight alpha the engine
replays the five-step construction of right and left parametrices purely
on operator classes:

1.  diagonal parametrix (b-parametrix for the harmonic block, normal
    inverse for the perpendicular block),
2.  off-diagonal correction making the remainder vanish at the compressed
    faces,
3.  formal-solution correction removing the left-face expansion,
4.  asymptotic Neumann summation,
5.  composition with an interior symbolic parametrix.

Every class the engine asserts is checked against the target class matrix
of the corresponding combination identity, with each assertion carrying a
replayable chain of rule applications from :mod:`phicalc.opclasses`.

Weights are exact: critical weights and the alpha of each entry point pass
through :func:`phicalc.indexsets.exact_real`, so the weight gates are exact
membership tests, and reports write non-integer numbers as "p/q" strings.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from dataclasses import dataclass, field, fields, replace
from functools import wraps

from .indexsets import (
    exact_extended,
    exact_real,
    make_index_set,
    number_from_json,
    number_to_json,
    shift,
)
from .jsonio import json_list, json_object
from . import opclasses as oc
from .opclasses import (
    ClassSum,
    GeomConstants,
    NEG_INF,
    OpClass,
    ZERO,
    absorbed_sum,
    adjoint_class,
    compose,
    contains,
    decompose_near_ff,
    eq_classes,
    recording,
    small_b,
    small_phi,
    weight_b,
    weight_phi,
    x_left,
    x_right,
)

INF = float("inf")

__all__ = [
    "SplitOperator",
    "ParametrixError",
    "WeightConditionError",
    "HypothesisError",
    "EngineError",
    "check_weight",
    "step1_diagonal",
    "step2_offdiagonal",
    "step3_lf_correction",
    "step4_neumann",
    "step5_interior",
    "right_parametrix",
    "left_parametrix",
    "parametrix_report",
    "fredholm_report",
    "kernel_index_set",
    "regularity_predict",
    "gauss_bonnet_split",
    "hodge_split",
    "Mat",
]


class ParametrixError(Exception):
    pass


class WeightConditionError(ParametrixError):
    pass


class HypothesisError(ParametrixError):
    pass


class EngineError(ParametrixError):
    """An internal containment failed: a combination-rule bug."""


# ---------------------------------------------------------------------------
# 2x2 class matrices


class Mat:
    """2x2 matrix of operator classes indexed by the projections
    (row/column 0: fibre-harmonic part, 1: perpendicular part).

    ``add`` and ``matmul``, the two operations that form sums, absorb each
    entry once through :func:`phicalc.opclasses.absorbed_sum`, so a matrix
    built through them holds absorbed sums only.
    """

    def __init__(self, entries):
        self.entries = [[entries[0][0], entries[0][1]], [entries[1][0], entries[1][1]]]

    @staticmethod
    def diag(a, d) -> "Mat":
        return Mat([[a, ZERO], [ZERO, d]])

    @staticmethod
    def offdiag(b, c) -> "Mat":
        return Mat([[ZERO, b], [c, ZERO]])

    @staticmethod
    def proj_cols(base, c) -> "Mat":
        """base (Pi + x^c Piperp): perpendicular column scaled on the right."""
        return Mat([[base, x_right(base, c)], [base, x_right(base, c)]])

    @staticmethod
    def proj_rows(base, c) -> "Mat":
        """(Pi + x^c Piperp) base: perpendicular row scaled on the left."""
        return Mat([[base, base], [x_left(base, c), x_left(base, c)]])

    def __getitem__(self, ij):
        return self.entries[ij[0]][ij[1]]

    def map(self, f) -> "Mat":
        return Mat([[f(self[0, 0]), f(self[0, 1])], [f(self[1, 0]), f(self[1, 1])]])

    def add(self, *others: "Mat", geom) -> "Mat":
        mats = (self,) + others
        return Mat([[absorbed_sum(geom, *(M[i, j] for M in mats)) for j in (0, 1)] for i in (0, 1)])

    def adjoint(self) -> "Mat":
        return Mat(
            [
                [adjoint_class(self[j, i]) for j in (0, 1)]
                for i in (0, 1)
            ]
        )

    def x_left_all(self, c) -> "Mat":
        return self.map(lambda e: oc.multiply_x_power(e, c, "left"))

    def matmul(self, other: "Mat", geom) -> "Mat":
        def entry(i, j):
            pairs = [(self[i, k], other[k, j]) for k in (0, 1)]
            products = [compose(p, q, geom) for p, q in pairs if not (p.is_zero or q.is_zero)]
            return absorbed_sum(geom, *products)

        return Mat([[entry(i, j) for j in (0, 1)] for i in (0, 1)])

    def contained_in(self, other: "Mat", geom) -> bool:
        return self.compare(other, geom)[0]

    def equals(self, other: "Mat") -> bool:
        return all(eq_classes(self[i, j], other[i, j]) for i in (0, 1) for j in (0, 1))

    def compare(self, other: "Mat", geom) -> tuple:
        """(contained, exact) against ``other``.  Each entry is decided by
        equality first; equal classes contain each other, so containment is
        decided only for the entries that differ."""
        pairs = [(self[i, j], other[i, j]) for i in (0, 1) for j in (0, 1)]
        equal = [eq_classes(d, t) for d, t in pairs]
        contained = all(e or contains(d, t, geom) for e, (d, t) in zip(equal, pairs))
        return contained, all(equal)

    def to_json(self):
        return [[None if e.is_zero else e.to_json() for e in row] for row in self.entries]

    def __repr__(self):
        return (
            f"[[{self[0,0]!r}, {self[0,1]!r}],\n"
            f" [{self[1,0]!r}, {self[1,1]!r}]]"
        )


# ---------------------------------------------------------------------------
# the split operator


@dataclass
class SplitOperator:
    """Block data of a split operator of degeneracy order a and order m.

    The harmonic block carries x^(am) P00 with P00 an elliptic b-operator;
    the off-diagonal blocks carry x^(am) P01 and x^(am) P10; the
    perpendicular block P11 has invertible normal family.  ``imspec_p00``
    lists the critical weights of P00 (supplied externally, for instance by
    the model numerics).
    """

    a: int
    m: int
    p00: OpClass
    p01: OpClass
    p10: OpClass
    p11: OpClass
    imspec_p00: list
    normal_invertible: bool = True
    p00_elliptic: bool = True
    phi_elliptic: bool = True
    b_dim: int = 1

    def __post_init__(self):
        geom = GeomConstants(self.a, self.b_dim)
        self.a, self.b_dim = geom.a, geom.b_dim
        if isinstance(self.m, bool):
            raise TypeError("m must be an integer, got a boolean")
        self.m = operator.index(self.m)
        for name in ("normal_invertible", "p00_elliptic", "phi_elliptic"):
            if not isinstance(getattr(self, name), bool):
                raise TypeError(f"{name} must be true or false, got {getattr(self, name)!r}")
        self.imspec_p00 = [exact_real(s) for s in self.imspec_p00]
        if self.m < 1:
            raise ValueError("operator order m must be >= 1")
        if self.p00.kind != "b":
            raise ValueError("the harmonic block must be a b-kind class")
        for name in ("p01", "p10", "p11"):
            cls = getattr(self, name)
            if not cls.is_zero and cls.kind != "phi":
                raise ValueError(f"{name} must be a phi-kind class (or zero)")

    @property
    def am(self) -> int:
        return self.a * self.m

    @property
    def geom(self) -> GeomConstants:
        return GeomConstants(a=self.a, b_dim=self.b_dim)

    @property
    def diagonal_only(self) -> bool:
        return self.p01.is_zero and self.p10.is_zero

    def adjoint(self) -> "SplitOperator":
        """The adjoint split operator.

        Its harmonic block is the conjugated adjoint x^(-am) P00* x^(am);
        the critical weights reflect, then shift down by am.
        """
        return replace(
            self,
            p00=adjoint_class(self.p00),
            p01=adjoint_class(self.p10),
            p10=adjoint_class(self.p01),
            p11=adjoint_class(self.p11),
            imspec_p00=[-s - self.am for s in self.imspec_p00],
        )

    def to_json(self):
        return {
            "a": self.a,
            "m": self.m,
            "b_dim": self.b_dim,
            "p00": self.p00.to_json(),
            "p01": None if self.p01.is_zero else self.p01.to_json(),
            "p10": None if self.p10.is_zero else self.p10.to_json(),
            "p11": self.p11.to_json(),
            "imspec_p00": [number_to_json(s) for s in self.imspec_p00],
            "normal_invertible": self.normal_invertible,
            "p00_elliptic": self.p00_elliptic,
            "phi_elliptic": self.phi_elliptic,
        }

    @staticmethod
    def from_json(data: dict) -> "SplitOperator":
        json_object(data, _SPLIT_FIELDS, "split operator")

        def cls(key):
            raw = data.get(key)
            return ZERO if raw is None else OpClass.from_json(raw)

        imspec = json_list(data.get("imspec_p00", []), "imspec_p00")
        return SplitOperator(
            a=data["a"],
            m=data["m"],
            p00=OpClass.from_json(data["p00"]),
            p01=cls("p01"),
            p10=cls("p10"),
            p11=OpClass.from_json(data["p11"]),
            imspec_p00=[number_from_json(s) for s in imspec],
            normal_invertible=data.get("normal_invertible", True),
            p00_elliptic=data.get("p00_elliptic", True),
            phi_elliptic=data.get("phi_elliptic", True),
            b_dim=data.get("b_dim", 1),
        )


_SPLIT_FIELDS = frozenset(f.name for f in fields(SplitOperator))


def _small_split(m, a, b_dim, imspec) -> SplitOperator:
    """Order-m split block data with small-calculus blocks."""
    phi = small_phi(m, ext=True)
    return SplitOperator(a, m, small_b(m), phi, phi, phi, list(imspec), b_dim=b_dim)


def gauss_bonnet_split(a: int = 1, b_dim: int = 1, imspec=()) -> SplitOperator:
    """First-order split block data (the x^a-scaled Gauss-Bonnet shape)."""
    return _small_split(1, a, b_dim, imspec)


def hodge_split(a: int = 1, b_dim: int = 1, imspec=()) -> SplitOperator:
    """Second-order split block data (the x^(2a)-scaled Hodge Laplacian shape)."""
    return _small_split(2, a, b_dim, imspec)


# ---------------------------------------------------------------------------
# assertions and reports


@dataclass
class Assertion:
    label: str
    derived: object  # Mat | Entry json-able
    target: object
    contained: bool
    exact: bool
    chain: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.contained

    def to_json(self):
        def enc(x):
            if hasattr(x, "to_json"):
                return x.to_json()
            return x

        return {
            "label": self.label,
            "derived": enc(self.derived),
            "target": enc(self.target),
            "contained": self.contained,
            "exact": self.exact,
            "verdict": "PASS" if self.passed else "FAIL",
            "chain": [r.to_json() for r in self.chain],
        }


@dataclass
class StepResult:
    name: str
    assertions: list
    data: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(a.passed for a in self.assertions)

    def to_json(self):
        return {
            "step": self.name,
            "verdict": "PASS" if self.passed else "FAIL",
            "assertions": [a.to_json() for a in self.assertions],
        }


def _assert_mat(label, derived: Mat, target: Mat, geom, chain=None) -> Assertion:
    contained, exact = derived.compare(target, geom)
    return Assertion(label, derived, target, contained, exact, chain or [])


# ---------------------------------------------------------------------------
# target class matrices of the construction identities


def _target(build):
    """``build(a, m, al)``, made once per reuse scope: inside a report every
    use of a target shares one class matrix.  Read it, never mutate it."""

    @wraps(build)
    def target(a, m, al):
        scope = oc._REUSE.get()
        if scope is None:
            return build(a, m, al)
        key = (build, a, m, al)
        mat = scope.get(key)
        if mat is None:
            mat = scope[key] = build(a, m, al)
        return mat

    return target


@_target
def target_diag_parametrix(a, m, al) -> Mat:
    am = a * m
    return Mat.diag(weight_b(-m, al, xl=-am), small_phi(-m, ext=True))


@_target
def target_diag_remainder(a, m, al) -> Mat:
    return Mat.diag(
        x_left(weight_phi(0, al, ext=True), INF), x_left(small_phi(0, ext=True), INF)
    )


@_target
def target_po_qd(a, m, al) -> Mat:
    am = a * m
    return Mat.offdiag(x_right(small_phi(0, ext=True), am), weight_phi(0, al, ext=True))


@_target
def target_offdiag_correction(a, m, al) -> Mat:
    am = a * m
    return Mat.offdiag(
        weight_phi(-m, al, ext=True, xl=-am, xr=am), weight_phi(-m, al, ext=True)
    )


@_target
def target_remainder_cross(a, m, al) -> Mat:
    am = a * m
    s = x_left(weight_phi(0, al, ext=True), INF)
    return Mat.offdiag(x_right(s, am), s)


@_target
def target_squared_offdiag(a, m, al) -> Mat:
    am = a * m
    w = weight_phi(0, al, ext=True)
    return Mat.diag(x_left(w, am), x_right(w, am))


def psi_lf(al) -> OpClass:
    """Weight-alpha phi-class whose kernels vanish to infinite order at lf."""
    return weight_phi(0, al, ext=True, vanish=("lf",))


@_target
def target_r3_space(a, m, al) -> Mat:
    am = a * m
    w = psi_lf(al)
    return Mat([[x_left(w, am), x_right(w, am)], [w, x_right(w, am)]])


@_target
def target_r3_squared(a, m, al) -> Mat:
    am = a * m
    w = psi_lf(al)
    return Mat([[x_left(w, am), x_left(x_right(w, am), am)], [x_left(w, am), x_right(w, am)]])


@_target
def target_boundary_remainder(a, m, al) -> Mat:
    am = a * m
    return Mat.proj_cols(x_left(weight_phi(0, al, ext=True), INF), am)


@_target
def target_products_diag(a, m, al) -> Mat:
    am = a * m
    pi_pi = ClassSum(
        (weight_b(NEG_INF, al, ext=True, xl=-am), oc.bphi_class(-m, ext=True))
    )
    return Mat.diag(pi_pi, x_right(weight_phi(-m, al, ext=True), am))


@_target
def target_lfsolve_classes(a, m, al) -> Mat:
    am = a * m
    q = weight_b(NEG_INF, al, ext=True, vanish=("rf",))
    return Mat([[q, q], [x_right(q, am), x_right(q, am)]])


@_target
def target_lfsolve_times_tail(a, m, al) -> Mat:
    am = a * m
    return Mat.proj_cols(weight_phi(NEG_INF, al, ext=True), am)


@_target
def target_final_right_remainder(a, m, al) -> Mat:
    am = a * m
    return Mat.proj_cols(x_left(weight_phi(NEG_INF, al, ext=True), INF), am)


@_target
def target_final_left_remainder(a, m, al) -> Mat:
    # (x^{-am} Pi + Piperp) S x^inf = (Pi + x^{am} Piperp) x^{-am} S x^inf
    am = a * m
    base = x_left(x_right(weight_phi(NEG_INF, al, ext=True), INF), -am)
    return Mat.proj_rows(base, am)


@_target
def target_parametrix_statement(a, m, al) -> Mat:
    """The containing class matrix asserted for the completed parametrix."""
    am = a * m
    pi_pi = ClassSum(
        (weight_b(-m, al, xl=-am), oc.bphi_class(-m, ext=True))
    )
    pp = ClassSum(
        (small_phi(-m, ext=True), x_right(weight_phi(-m, al, ext=True), am))
    )
    return Mat(
        [
            [pi_pi, weight_phi(-m, al, ext=True, xl=-am, xr=am)],
            [weight_phi(-m, al, ext=True), pp],
        ]
    )


# ---------------------------------------------------------------------------
# axiomatic primitives, entered in the rule table for chain replay


def _prim(rule, params):
    """The output class of a primitive, applied with its params made exact."""
    return oc._apply(rule, (), **{k: exact_real(v) for k, v in params.items()})


@oc.register_rule("b-parametrix-Q", 0, "m", "alpha")
def _prim_b_parametrix_Q(inputs, params, geom):
    return weight_b(-params["m"], params["alpha"])


@oc.register_rule("b-parametrix-R", 0, "m", "alpha")
def _prim_b_parametrix_R(inputs, params, geom):
    return x_left(weight_b(0, params["alpha"]), INF)


@oc.register_rule("normal-inverse-Q", 0, "m")
def _prim_normal_inverse_Q(inputs, params, geom):
    return small_phi(-params["m"], ext=True)


@oc.register_rule("normal-inverse-R", 0, "m")
def _prim_normal_inverse_R(inputs, params, geom):
    return x_left(small_phi(0, ext=True), INF)


@oc.register_rule("interior-parametrix-Q", 0, "m")
def _prim_interior_Q(inputs, params, geom):
    return small_phi(-params["m"])


@oc.register_rule("interior-parametrix-R", 0, "m")
def _prim_interior_R(inputs, params, geom):
    return small_phi(NEG_INF)


@oc.register_rule("lf-solve-Q", 0, "alpha", "am", "row")
def _prim_lf_solve_Q(inputs, params, geom):
    q = weight_b(NEG_INF, params["alpha"], ext=True, vanish=("rf",))
    return x_right(q, params["am"]) if params["row"] == 1 else q


@oc.register_rule("lf-solve-R", 0, "alpha", "am", "col")
def _prim_lf_solve_R(inputs, params, geom):
    base = weight_b(NEG_INF, params["alpha"], ext=True, vanish=("lf",))
    return (
        x_right(base, params["am"]) if params["col"] == 1 else x_left(base, params["am"])
    )


@oc.register_rule("neumann-limit", 0, "alpha", "am", "col")
def _prim_neumann_limit(inputs, params, geom):
    base = x_left(weight_phi(0, params["alpha"], ext=True), INF)
    return x_right(base, params["am"]) if params["col"] == 1 else base


# ---------------------------------------------------------------------------
# weight gate


def check_weight(op: SplitOperator, alpha) -> bool:
    """Admissibility of alpha: alpha - am is not a critical weight."""
    if not op.imspec_p00:
        raise WeightConditionError(
            "no critical-weight data supplied: the weight condition is unverifiable"
        )
    return exact_real(alpha) - op.am not in op.imspec_p00


# ---------------------------------------------------------------------------
# the five steps


def step1_diagonal(op: SplitOperator, alpha) -> StepResult:
    """Diagonal parametrix and remainder classes."""
    if not check_weight(op, alpha):
        raise WeightConditionError(
            f"weight {alpha} - am = {alpha - op.am} hits the critical set "
            f"{sorted(op.imspec_p00)}"
        )
    if not op.normal_invertible:
        raise ParametrixError(
            "the perpendicular block needs an invertible normal family"
        )
    if not op.p00_elliptic:
        raise ParametrixError("the harmonic block must be b-elliptic")
    a, m, am = op.a, op.m, op.am
    with recording() as chain_q:
        q00 = _prim("b-parametrix-Q", {"m": m, "alpha": alpha})
        q11 = _prim("normal-inverse-Q", {"m": m})
    with recording() as chain_r:
        r00 = _prim("b-parametrix-R", {"m": m, "alpha": alpha})
        r11 = _prim("normal-inverse-R", {"m": m})
    Qd = Mat.diag(x_left(q00, -am), q11)
    Rd = Mat.diag(r00, r11)
    assertions = [
        _assert_mat("diag-parametrix", Qd, target_diag_parametrix(a, m, alpha), op.geom, chain_q),
        _assert_mat("diag-remainder", Rd, target_diag_remainder(a, m, alpha), op.geom, chain_r),
    ]
    return StepResult("step1-diagonal", assertions, {"Qd": Qd, "Rd": Rd})


def _po_matrix(op: SplitOperator) -> Mat:
    am = op.am
    off01 = ZERO if op.p01.is_zero else x_left(op.p01, am)
    off10 = ZERO if op.p10.is_zero else x_left(op.p10, am)
    return Mat.offdiag(off01, off10)


def step2_offdiagonal(op: SplitOperator, alpha, step1: StepResult) -> StepResult:
    """Off-diagonal correction and the improved remainder's class pieces."""
    a, m, am = op.a, op.m, op.am
    geom = op.geom
    Qd, Rd = step1.data["Qd"], step1.data["Rd"]
    Po = _po_matrix(op)

    if op.diagonal_only:
        zero = Mat.diag(ZERO, ZERO)
        assertions = [
            Assertion("offdiag-vanishes", zero, zero, True, True),
            _assert_mat("remainder-after-offdiag", Rd, target_diag_remainder(a, m, alpha), geom),
        ]
        return StepResult(
            "step2-offdiagonal",
            assertions,
            {"PoQd": zero, "Qo": zero, "Ro": zero, "PoQd_sq": zero, "R2": Rd, "Q2": Qd},
        )

    with recording() as ch_poqd:
        PoQd = Po.matmul(Qd, geom)
    with recording() as ch_qo:
        Qo = Qd.matmul(PoQd, geom)
    with recording() as ch_ro:
        Ro = Rd.matmul(PoQd, geom)
    with recording() as ch_sq:
        PoQd_sq = PoQd.matmul(PoQd, geom)
    R2 = Rd.add(Ro, PoQd_sq, geom=geom)
    Q2 = Qd.add(Qo, geom=geom)

    overall_factor_kept = not eq_classes(
        PoQd_sq[0, 0], x_right(weight_phi(0, alpha, ext=True), am)
    ) and not eq_classes(PoQd_sq[1, 1], x_left(weight_phi(0, alpha, ext=True), am))

    assertions = [
        _assert_mat("offdiag-times-diag-parametrix", PoQd, target_po_qd(a, m, alpha), geom, ch_poqd),
        _assert_mat("offdiag-correction", Qo, target_offdiag_correction(a, m, alpha), geom, ch_qo),
        _assert_mat("remainder-cross-terms", Ro, target_remainder_cross(a, m, alpha), geom, ch_ro),
        _assert_mat("squared-offdiag-terms", PoQd_sq, target_squared_offdiag(a, m, alpha), geom, ch_sq),
        Assertion(
            "overall-power-not-commuted",
            PoQd_sq,
            target_squared_offdiag(a, m, alpha),
            overall_factor_kept,
            overall_factor_kept,
        ),
    ]
    return StepResult(
        "step2-offdiagonal",
        assertions,
        {"PoQd": PoQd, "Qo": Qo, "Ro": Ro, "PoQd_sq": PoQd_sq, "R2": R2, "Q2": Q2},
    )


def _away_from_lf(entry):
    if isinstance(entry, ClassSum):
        return ClassSum(tuple(_away_from_lf(t) for t in entry.terms))
    if entry.is_zero:
        return entry
    # the public constructor folds the vanish set into a full family
    return replace(entry, vanish=entry.vanish | {"lf"})


def _hypothesis_rows(R2: Mat, alpha, am):
    """Check the left-face solving hypothesis row by row.

    Harmonic row: index sets > alpha + am at lf, >= am at bf.
    Perpendicular row: > alpha at lf, >= am at bf.
    Returns the list of failing entries.
    """
    alpha = exact_real(alpha)
    failures = []
    for i, lf_t in enumerate([alpha + am, alpha]):
        bounds = {"lf": oc.Bound(lf_t, True), "bf": oc.Bound(am, False)}
        for j in (0, 1):
            failures += [(i, j, t) for t in oc.as_terms(R2[i, j]) if not oc.meets(t, bounds)]
    return failures


def step3_lf_correction(op: SplitOperator, alpha, step2: StepResult) -> StepResult:
    """Left-face correction by formal solutions; remainder lands in the
    lf-vanishing remainder space."""
    a, m, am = op.a, op.m, op.am
    geom = op.geom
    R2 = step2.data["R2"]

    failures = _hypothesis_rows(R2, alpha, am)
    if failures:
        locs = ", ".join(f"entry ({i},{j}): {t!r}" for i, j, t in failures)
        raise HypothesisError(f"left-face solving hypothesis fails at {locs}")

    with recording() as chain_q:
        qrow0 = _prim("lf-solve-Q", {"alpha": alpha, "am": am, "row": 0})
        qrow1 = _prim("lf-solve-Q", {"alpha": alpha, "am": am, "row": 1})
    Qprime = Mat([[qrow0, qrow0], [qrow1, qrow1]])
    with recording() as chain_r:
        rcol0 = _prim("lf-solve-R", {"alpha": alpha, "am": am, "col": 0})
        rcol1 = _prim("lf-solve-R", {"alpha": alpha, "am": am, "col": 1})
    Rpp = Mat([[rcol0, rcol1], [rcol0, rcol1]])

    R2_cut = R2.map(_away_from_lf)
    R3 = R2_cut.add(Rpp, geom=geom)
    psi_R = target_r3_space(a, m, alpha)

    bf_ff = {"bf": oc.Bound(am, False), "ff": oc.Bound(am, True)}
    bf_ff_ok = all(oc.meets(R3[i, j], bf_ff) for i in (0, 1) for j in (0, 1))

    assertions = [
        _assert_mat("lfsolve-correction", Qprime, target_lfsolve_classes(a, m, alpha), geom, chain_q),
        _assert_mat("lf-corrected-remainder", R3, psi_R, geom, chain_r),
        Assertion("remainder-bf-ff-orders", R3, psi_R, bf_ff_ok, bf_ff_ok),
    ]
    return StepResult(
        "step3-lf-correction",
        assertions,
        {"Qprime": Qprime, "Rpp": Rpp, "R3": R3, "PsiR": psi_R},
    )


def step4_neumann(op: SplitOperator, alpha, step1, step2, step3) -> StepResult:
    """Asymptotic Neumann summation and the boundary parametrix products."""
    a, m, am = op.a, op.m, op.am
    geom = op.geom
    psi_R = step3.data["PsiR"]
    Qd, Qo, Qprime = step1.data["Qd"], step2.data["Qo"], step3.data["Qprime"]

    # squaring gains an overall x^(am); higher even powers gain (N-1) copies
    with recording() as chain:
        R_sq = psi_R.matmul(psi_R, geom)
    tgt_sq = target_r3_squared(a, m, alpha)
    powers = [psi_R, R_sq]
    growth_ok = True
    for N in (2, 3):
        nxt = powers[-1].matmul(R_sq, geom)
        powers.append(nxt)
        gain_target = target_r3_space(a, m, alpha).x_left_all((N - 1) * am)
        if not nxt.contained_in(gain_target, geom):
            growth_ok = False
    if not growth_ok:
        raise EngineError(
            "remainder powers fail the expected x^((N-1)am) gain: "
            "a combination rule is wrong"
        )

    def rf_faces(mat: Mat):
        return [
            (i, j, tuple(sorted({repr(oc.fold(t).face("rf")) for t in oc.as_terms(mat[i, j])})))
            for i in (0, 1)
            for j in (0, 1)
        ]

    rf_sq, rf_4, rf_6 = (rf_faces(P) for P in powers[1:])
    rf_stable = rf_sq == rf_4 == rf_6

    # the asymptotic sum of the tail stays in the remainder space
    tail = psi_R
    tail_d = Mat.diag(tail[0, 0], tail[1, 1])
    tail_o = Mat.offdiag(tail[0, 1], tail[1, 0])

    # the harmonic-block products pass through the mixed rule; the
    # perpendicular-block products compose directly
    with recording() as chain_d:
        dd00 = compose(Qd[0, 0], tail_d[0, 0], geom, route="split")
        dd11 = compose(Qd[1, 1], tail_d[1, 1], geom)
        oo00 = compose(Qo[0, 1], tail_o[1, 0], geom, route="split")
        oo11 = compose(Qo[1, 0], tail_o[0, 1], geom)
    diag_products = Mat.diag(dd00, dd11).add(Mat.diag(oo00, oo11), geom=geom)

    with recording() as chain_o:
        offdiag_products = Qd.matmul(tail_o, geom).add(Qo.matmul(tail_d, geom), geom=geom)

    with recording() as chain_q:
        qprime_tail = Qprime.matmul(tail, geom)

    with recording() as chain_lim:
        b0 = _prim("neumann-limit", {"alpha": alpha, "am": am, "col": 0})
        b1 = _prim("neumann-limit", {"alpha": alpha, "am": am, "col": 1})
    R_boundary = Mat([[b0, b1], [b0, b1]])

    assertions = [
        _assert_mat("remainder-squared", R_sq, tgt_sq, geom, chain),
        Assertion("power-gain", powers[3], gain_target, growth_ok, False),
        Assertion("rf-sets-stabilize", rf_sq, rf_6, rf_stable, rf_stable),
        _assert_mat("neumann-tail-products-diag", diag_products, target_products_diag(a, m, alpha), geom, chain_d),
        _assert_mat("neumann-tail-products-offdiag", offdiag_products, target_offdiag_correction(a, m, alpha), geom, chain_o),
        _assert_mat("lfsolve-times-tail", qprime_tail, target_lfsolve_times_tail(a, m, alpha), geom, chain_q),
        _assert_mat("boundary-remainder", R_boundary, target_boundary_remainder(a, m, alpha), geom, chain_lim),
    ]
    data = {
        "powers": powers,
        "diag_products": diag_products,
        "offdiag_products": offdiag_products,
        "qprime_tail": qprime_tail,
        "R_boundary": R_boundary,
    }
    return StepResult("step4-neumann", assertions, data)


def step5_interior(op: SplitOperator, alpha, step1, step2, step3, step4) -> StepResult:
    """Combine with the interior symbolic parametrix; collect the final
    right parametrix and remainder classes."""
    if not op.phi_elliptic:
        raise ParametrixError("interior step needs the phi-ellipticity flag")
    a, m, am = op.a, op.m, op.am
    geom = op.geom
    R_boundary = step4.data["R_boundary"]

    with recording() as chain:
        q_sigma = _prim("interior-parametrix-Q", {"m": m})
        r_sigma = _prim("interior-parametrix-R", {"m": m})
        Qsig = Mat([[q_sigma, q_sigma], [q_sigma, q_sigma]])
        Rsig = Mat([[r_sigma, r_sigma], [r_sigma, r_sigma]])
        QsR = Qsig.matmul(R_boundary, geom)
        Rr = Rsig.matmul(R_boundary, geom)
    tgt_qsr = target_boundary_remainder(a, m, alpha).map(
        lambda e: e if e.is_zero else e.shifted_order(-m)
    )

    # assemble the full right parametrix class and split the harmonic-block
    # interior-smoothing piece into b-part plus bphi-part before the check
    qprime_tail = step4.data["qprime_tail"]
    b_part, bphi_part = decompose_near_ff(qprime_tail[0, 0])
    Qr = step1.data["Qd"].add(
        step2.data["Qo"],
        step3.data["Qprime"],
        step4.data["diag_products"],
        step4.data["offdiag_products"],
        Mat([[b_part, qprime_tail[0, 1]], [qprime_tail[1, 0], qprime_tail[1, 1]]]),
        Mat.diag(bphi_part, ZERO),
        QsR,
        geom=geom,
    )

    assertions = [
        _assert_mat(
            "interior-smoothing-product",
            QsR,
            tgt_qsr,
            geom,
            chain,
        ),
        _assert_mat("final-right-remainder", Rr, target_final_right_remainder(a, m, alpha), geom),
        _assert_mat("right-parametrix-class", Qr, target_parametrix_statement(a, m, alpha), geom),
    ]
    return StepResult("step5-interior", assertions, {"Qr": Qr, "Rr": Rr})


# ---------------------------------------------------------------------------
# drivers


def right_parametrix(op: SplitOperator, alpha):
    """Run steps 1-5; returns (steps, Qr, Rr)."""
    s1 = step1_diagonal(op, alpha)
    s2 = step2_offdiagonal(op, alpha, s1)
    s3 = step3_lf_correction(op, alpha, s2)
    s4 = step4_neumann(op, alpha, s1, s2, s3)
    s5 = step5_interior(op, alpha, s1, s2, s3, s4)
    return [s1, s2, s3, s4, s5], s5.data["Qr"], s5.data["Rr"]


def left_parametrix(op: SplitOperator, alpha):
    """Left parametrix via the adjoint: run the right construction for the
    adjoint data at weight am - alpha, then take adjoints entrywise.

    The ``adjoint-construction`` assertion carries the adjoint run's step
    verdicts: it holds iff every step of that run passed.
    """
    adj = op.adjoint()
    adj_alpha = op.am - exact_real(alpha)
    steps, Qr_adj, Rr_adj = right_parametrix(adj, adj_alpha)
    Ql = Qr_adj.adjoint()
    Rl = Rr_adj.adjoint()
    geom = op.geom
    adjoint_ok = all(s.passed for s in steps)
    assertions = [
        Assertion(
            "adjoint-construction",
            [{"step": s.name, "verdict": "PASS" if s.passed else "FAIL"} for s in steps],
            [{"step": s.name, "verdict": "PASS"} for s in steps],
            adjoint_ok,
            adjoint_ok,
        ),
        _assert_mat("final-left-remainder", Rl, target_final_left_remainder(op.a, op.m, alpha), geom),
        Assertion(
            "left-parametrix-same-type",
            Ql,
            target_parametrix_statement(op.a, op.m, alpha),
            Ql.contained_in(target_parametrix_statement(op.a, op.m, alpha), geom),
            target_parametrix_statement(op.a, op.m, adj_alpha).adjoint().equals(
                target_parametrix_statement(op.a, op.m, alpha)
            ),
        ),
    ]
    result = StepResult("left-parametrix", assertions, {"Ql": Ql, "Rl": Rl})
    return steps, result


def parametrix_report(op: SplitOperator, alpha) -> dict:
    """Full right+left construction with per-assertion verdicts (JSON-able).

    Both constructions and the serialization of their steps run in one
    reuse scope (see :mod:`phicalc.opclasses`): equal classes share their
    fold and JSON, a repeated composition is computed once, and each target
    class matrix is built once.  The class and record JSON dicts of the
    report are shared: read them, never mutate them.
    """
    alpha = exact_real(alpha)
    report = {
        "operator": op.to_json(),
        "alpha": number_to_json(alpha),
        "weight_condition": None,
        "steps": [],
        "verdict": "FAIL",
    }
    try:
        admissible = check_weight(op, alpha)
    except WeightConditionError as exc:
        report["weight_condition"] = {"admissible": False, "error": str(exc)}
        return report
    report["weight_condition"] = {
        "admissible": admissible,
        "alpha_minus_am": number_to_json(alpha - op.am),
        "critical_set": [number_to_json(s) for s in sorted(op.imspec_p00)],
    }
    if not admissible:
        return report
    with oc._reuse_scope():
        steps, _, _ = right_parametrix(op, alpha)
        _, left = left_parametrix(op, alpha)
        all_steps = steps + [left]
        report["steps"] = [s.to_json() for s in all_steps]
    report["verdict"] = "PASS" if all(s.passed for s in all_steps) else "FAIL"
    return report


# ---------------------------------------------------------------------------
# Fredholm gates and kernel regularity


def fredholm_report(op: SplitOperator, alpha) -> dict:
    """The two Fredholm maps and their distinct weight gates.

    The split-Sobolev-to-L2 map needs alpha - am off the critical set; the
    dual L2-to-negative-order map needs alpha itself off it.  Both gates
    are exact membership tests; ``distance`` is the exact distance to the
    critical set.
    """
    if not op.imspec_p00:
        raise WeightConditionError("no critical-weight data supplied")
    alpha = exact_real(alpha)
    spec = sorted(op.imspec_p00)

    def space(order):
        return f"x^{oc._fmtpow(alpha)} H_split^{oc._fmtpow(order)}"

    def side(dom_order, cod_order, g):
        i = bisect_left(spec, g)
        return {
            "map": f"{space(dom_order)} -> {space(cod_order)}",
            "gate": number_to_json(g),
            "distance": number_to_json(min(abs(g - s) for s in spec[max(i - 1, 0) : i + 1])),
            "fredholm": i == len(spec) or spec[i] != g,
        }

    return {
        "alpha": number_to_json(alpha),
        "am": op.am,
        "critical_set": [number_to_json(s) for s in spec],
        "primal": side(op.m, 0, alpha - op.am),
        "dual": side(0, -op.m, alpha),
    }


def kernel_index_set(spectrum, alpha):
    """The index set K of the fibre-harmonic part of a kernel element in
    x^alpha L2.

    K is generated by (s, k) for each critical weight s > alpha of
    ``spectrum``, where k is the point's ``pole_order_k``: a root whose
    longest Jordan chain has length k + 1 brings log powers up to k.  Only
    the ``lambda_root`` and ``pole_order_k`` attributes of the points are
    read.  ``alpha`` = -inf gives the set generated by every root.
    """
    alpha = exact_extended(alpha)
    return make_index_set(
        [(p.lambda_root, p.pole_order_k) for p in spectrum if exact_real(p.lambda_root) > alpha]
    )


def regularity_predict(op: SplitOperator, alpha, spectrum):
    """Index sets (K, x^(am) K) of the harmonic and perpendicular parts of a
    kernel element in x^alpha L2, with K = :func:`kernel_index_set` of the
    critical weights ``spectrum`` (``SpectrumPoint``s of the indicial
    family).  For a kernel element of the split Sobolev space the prefactor
    moves to the harmonic side: both sets shift by -am.
    """
    K = kernel_index_set(spectrum, alpha)
    return K, shift(K, op.am)
