"""Symbolic algebra of pseudodifferential operator classes.

An :class:`OpClass` names a space of operators rather than a single
operator: a calculus kind (b, phi, bphi or zero), a conormal order
(-inf allowed), for b and phi a precision tier for the boundary behaviour
(a weight ``alpha`` or a full index family), explicit x-power factors on
the left and right, and optional per-face infinite-order vanishing
refinements.
The projector weighting (Pi + x^c Piperp) lives on :class:`parametrix.Mat`.

Two precision tiers are used deliberately.  Full index families are
propagated only where exact combination formulas exist (phi-composition,
lifting of b-kernels, mapping of polyhomogeneous sections).  Everywhere
else the weight tier is used: ``Weight(alpha)`` certifies index sets
lf > alpha, rf > -alpha, bf >= 0 for b-kind, plus ff > 0 for phi-kind.
Predicates evaluated on the weight tier are certifications, sound but not
necessarily sharp.

Sums of operator spaces (as produced by the mixed b/phi composition rule)
are represented by :class:`ClassSum`; a predicate holds for a sum iff it
holds for every summand, and :func:`absorbed_sum` keeps only the summands
that no other summand contains.

Weights, orders and x-powers are exact: each passes once through
:func:`phicalc.indexsets.exact_extended` when a :class:`Weight` or an
:class:`OpClass` is built (finite floats become fractions, +-inf stays a
float; an x-power of -inf is refused), so every comparison below is
``==``/``<`` on exact numbers.

Each rule is written once, in the table :data:`RULES`: its number of input
classes, its param names and its formula, which checks the rule's
precondition.  :func:`compose` picks rules and applies them through that
table; inside a ``with recording() as chain:`` block every application is
appended to ``chain`` as a :class:`RuleApp`, and :func:`replay_chain`
re-runs the formula of the rule that each record names.
Inside a ``with _reuse_scope():`` block (one parametrix report) equal
classes share one fold and one JSON dict, and a repeated :func:`compose`
call returns its first output and re-records its rule applications.
"""

from __future__ import annotations

import math
import operator
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple, Optional, Union

from .indexsets import (
    EMPTY,
    _denominator,
    _generators,
    _points,
    _sum,
    _union,
    IndexFamily,
    IndexSet,
    RealLike,
    add,
    exact_extended,
    exact_real,
    extended_union,
    geq,
    greater_than,
    real_set,
    shift,
    scale,
    small_family,
    number_to_json,
    number_from_json,
)
from .jsonio import json_list, json_object

__all__ = [
    "OpClass",
    "ClassSum",
    "absorbed_sum",
    "Weight",
    "Bound",
    "GeomConstants",
    "ZERO",
    "NEG_INF",
    "CompositionError",
    "IntegrabilityError",
    "UnsupportedComposition",
    "IndeterminateSum",
    "weight_b",
    "weight_phi",
    "small_b",
    "small_phi",
    "bphi_class",
    "full_class",
    "x_left",
    "x_right",
    "compose",
    "compose_families",
    "lift_b_to_phi",
    "conjugate_by_power",
    "multiply_x_power",
    "adjoint_class",
    "is_bounded",
    "is_compact",
    "meets",
    "map_phg",
    "decompose_near_ff",
    "contains",
    "eq_classes",
    "fold",
    "RuleApp",
    "Rule",
    "RULES",
    "register_rule",
    "entry_from_json",
    "recording",
    "replay_chain",
]

NEG_INF = float("-inf")
INF = float("inf")

_KINDS = ("b", "phi", "bphi", "zero")
_CLASS_FIELDS = frozenset({"kind", "order", "spec", "xl", "xr", "vanish", "proj"})
_SPEC_FIELDS = frozenset({"weight", "family"})
_SUM_FIELDS = frozenset({"sum"})


class CompositionError(Exception):
    """Base class for composition failures."""


class IntegrabilityError(CompositionError):
    """The pairing condition I_rf + J_lf > 0 fails."""


class UnsupportedComposition(CompositionError):
    """No combination rule covers the requested composition."""


class IndeterminateSum(CompositionError, ValueError):
    """An x-power or order sum inf + (-inf): no class has it.  Also a
    ``ValueError``, as the other malformed values a class refuses."""


@dataclass(frozen=True)
class Weight:
    """Weight-tier boundary data: index sets lf > alpha, rf > -alpha,
    bf >= 0 (and ff > 0 for phi-kind)."""

    alpha: RealLike

    def __post_init__(self):
        object.__setattr__(self, "alpha", exact_extended(self.alpha))


@dataclass(frozen=True)
class Bound:
    """A one-sided face bound: 'some index set > t' (strict) or '>= t'."""

    threshold: RealLike
    strict: bool


@dataclass(frozen=True)
class GeomConstants:
    """Geometry constants entering phi-composition and lifting: the
    degeneracy order ``a >= 1`` and the base dimension ``b_dim >= 0`` (0 is
    a fibred cusp over a point).  Both are integers, never booleans."""

    a: int
    b_dim: int

    def __post_init__(self):
        for name, low in (("a", 1), ("b_dim", 0)):
            v = getattr(self, name)
            if isinstance(v, bool):
                raise TypeError(f"{name} must be an integer, got a boolean")
            v = operator.index(v)
            if v < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {v}")
            object.__setattr__(self, name, v)

    @property
    def A(self) -> int:
        return self.a * (self.b_dim + 1)


def _x_power(name: str, v):
    """An x-power factor made exact; x^-inf is no factor and is refused."""
    v = exact_extended(v)
    if v == NEG_INF:
        raise ValueError(f"{name} must not be -inf: x^-inf is no factor")
    return v


def _xadd(u, v):
    """Extended-real addition for x-powers and orders (no inf - inf here)."""
    s = u + v
    if s != s:  # NaN: only inf + (-inf) gives it
        raise IndeterminateSum("indeterminate inf - inf power combination")
    return s


@dataclass(frozen=True)
class OpClass:
    """A symbolic operator class; see the module docstring."""

    kind: str
    order: RealLike
    spec: Union[Weight, IndexFamily, None] = None
    xl: RealLike = 0
    xr: RealLike = 0
    ext: bool = False
    vanish: frozenset = frozenset()

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown class kind {self.kind!r}")
        if self.kind in ("b", "phi"):
            if not isinstance(self.spec, (Weight, IndexFamily)):
                raise ValueError(f"a {self.kind} class needs a Weight or IndexFamily spec")
        elif self.spec is not None:
            raise ValueError(f"{self.kind} classes carry no boundary spec")
        object.__setattr__(self, "order", exact_extended(self.order))
        for name in ("xl", "xr"):
            object.__setattr__(self, name, _x_power(name, getattr(self, name)))
        if isinstance(self.spec, IndexFamily):
            if self.spec.kind != self.kind:
                raise ValueError("index family kind does not match class kind")
            if self.vanish:
                # fold vanishing refinements into the explicit family
                fam = self.spec
                for f in self.vanish:
                    if f in fam.faces:
                        fam = fam.replace(**{f: EMPTY})
                object.__setattr__(self, "spec", fam)
                object.__setattr__(self, "vanish", frozenset())
        bad = self.vanish - {"lf", "rf", "bf", "ff"}
        if bad:
            raise ValueError(f"unknown faces in vanish set: {sorted(bad)}")

    def __hash__(self):
        # stored like the fold: a reuse scope hashes every class it meets
        if self.__dict__.get("_hash") is None:
            fields = (self.kind, self.order, self.spec, self.xl, self.xr, self.ext, self.vanish)
            object.__setattr__(self, "_hash", hash(fields))
        return self._hash

    # -- convenience ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.kind == "zero"

    @property
    def is_small(self) -> bool:
        return (
            isinstance(self.spec, IndexFamily)
            and self.spec == small_family(self.spec.kind)
        )

    @property
    def weight(self) -> RealLike:
        if not isinstance(self.spec, Weight):
            raise TypeError("class has no weight-tier spec")
        return self.spec.alpha

    def with_powers(self, dl=0, dr=0) -> "OpClass":
        dl, dr = _x_power("dl", dl), _x_power("dr", dr)
        return _derive(self, xl=_xadd(self.xl, dl), xr=_xadd(self.xr, dr))

    def shifted_order(self, d) -> "OpClass":
        return _derive(self, order=_xadd(self.order, exact_extended(d)))

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        """The JSON form, made once and stored on the instance like
        :func:`fold`'s result.  The dict is shared by every later call (and
        by equal classes of the same reuse scope): read it, never mutate it.
        """
        return _stored(self, "_json", _class_json)

    @staticmethod
    def from_json(data: dict) -> "OpClass":
        kind = json_object(data, _CLASS_FIELDS, "operator class")["kind"]
        if not isinstance(kind, str):
            raise TypeError(f"class kind must be a string, got {kind!r}")
        ext = kind.endswith("-ext")
        if ext:
            kind = kind[: -len("-ext")]
        spec = data.get("spec")
        if spec is None:
            parsed = None
        elif "weight" in json_object(spec, _SPEC_FIELDS, "class spec"):
            parsed = Weight(number_from_json(spec["weight"]))
        else:
            parsed = IndexFamily.from_json(spec["family"])
        if data.get("proj") is not None:  # the field stays in the schema, always null
            raise ValueError("a projector decoration on a single class is not supported")
        return OpClass(
            kind=kind,
            order=number_from_json(data["order"]),
            spec=parsed,
            xl=number_from_json(data.get("xl", 0)),
            xr=number_from_json(data.get("xr", 0)),
            ext=ext,
            vanish=frozenset(json_list(data.get("vanish", []), "vanish")),
        )

    def __repr__(self) -> str:
        if self.is_zero:
            return "OpClass(0)"
        name = {"b": "Psi_b", "phi": "Psi_phi", "bphi": "Psi_bphi"}[self.kind]
        if self.ext:
            name += ",ext"
        if isinstance(self.spec, Weight):
            sup = f"^({number_to_json(self.order)},{number_to_json(self.spec.alpha)})"
        elif isinstance(self.spec, IndexFamily):
            sup = f"^({number_to_json(self.order)},{self.spec!r})"
        else:
            sup = f"^({number_to_json(self.order)})"
        left = "" if self.xl == 0 else f"x^{_fmtpow(self.xl)} "
        right = "" if self.xr == 0 else f" x^{_fmtpow(self.xr)}"
        van = "" if not self.vanish else f"[{','.join(sorted(self.vanish))}=0]"
        return f"{left}{name}{sup}{van}{right}"


def _class_json(P: OpClass) -> dict:
    spec = P.spec  # None for the kinds without a boundary spec
    if isinstance(spec, Weight):
        spec = {"weight": number_to_json(spec.alpha)}
    elif isinstance(spec, IndexFamily):
        spec = {"family": spec.to_json()}
    return {
        "kind": P.kind + ("-ext" if P.ext else ""),
        "order": number_to_json(P.order),
        "spec": spec,
        "xl": number_to_json(P.xl),
        "xr": number_to_json(P.xr),
        "vanish": sorted(P.vanish),
        "proj": None,
    }


def _derive(P: OpClass, **changes) -> OpClass:
    """``P`` with ``changes`` to its fields, trusted to be exact and valid
    (no :meth:`OpClass.__post_init__`); stored values are not copied."""
    Q = object.__new__(OpClass)
    Q.__dict__.update(P.__dict__, _folded=None, _json=None, _hash=None, **changes)
    return Q


#: the dict of the open :func:`_reuse_scope` (None outside): a class maps to
#: the first equal class met, a key (P, Q, geom, route) to the output and
#: rule applications of that :func:`compose` call, and a key (target builder,
#: a, m, alpha) to a target class matrix of :mod:`phicalc.parametrix`
_REUSE: ContextVar[Optional[dict]] = ContextVar("phicalc_reuse", default=None)


@contextmanager
def _reuse_scope():
    """Share folds, JSON, compositions and targets within the block only."""
    token = _REUSE.set({})
    try:
        yield
    finally:
        _REUSE.reset(token)


def _stored(P: OpClass, name: str, make):
    """``make(P)``, stored on ``P`` under ``name`` at the first call; inside
    a reuse scope an equal class met earlier shares its stored value."""
    value = P.__dict__.get(name)
    if value is None:
        scope = _REUSE.get()
        twin = P if scope is None else scope.setdefault(P, P)
        value = twin.__dict__.get(name)
        if value is None:
            value = make(twin)
            object.__setattr__(twin, name, value)
        object.__setattr__(P, name, value)
    return value


def _fmtpow(v):
    """An exponent after ``^``: a fraction is bracketed, ``x^(1/2)``."""
    s = str(number_to_json(v))
    return f"({s})" if "/" in s else s


ZERO = OpClass(kind="zero", order=NEG_INF)


# ---------------------------------------------------------------------------
# constructors


def weight_b(order, alpha, ext=False, xl=0, xr=0, vanish=()) -> OpClass:
    return OpClass("b", order, Weight(alpha), xl=xl, xr=xr, ext=ext, vanish=frozenset(vanish))


def weight_phi(order, alpha, ext=False, xl=0, xr=0, vanish=()) -> OpClass:
    return OpClass("phi", order, Weight(alpha), xl=xl, xr=xr, ext=ext, vanish=frozenset(vanish))


def small_b(order, ext=False, xl=0, xr=0) -> OpClass:
    return OpClass("b", order, small_family("b"), xl=xl, xr=xr, ext=ext)


def small_phi(order, ext=False, xl=0, xr=0) -> OpClass:
    return OpClass("phi", order, small_family("phi"), xl=xl, xr=xr, ext=ext)


def bphi_class(order, ext=False, xl=0, xr=0) -> OpClass:
    return OpClass("bphi", order, None, xl=xl, xr=xr, ext=ext)


def full_class(kind, order, family: IndexFamily, ext=False, xl=0, xr=0) -> OpClass:
    return OpClass(kind, order, family, xl=xl, xr=xr, ext=ext)


def x_left(cls: OpClass, c) -> OpClass:
    return multiply_x_power(cls, c, "left")


def x_right(cls: OpClass, c) -> OpClass:
    return multiply_x_power(cls, c, "right")


# ---------------------------------------------------------------------------
# sums of classes


@dataclass(frozen=True)
class ClassSum:
    """A sum of operator spaces; elements are sums of members."""

    terms: tuple

    def __post_init__(self):
        flat = []
        for t in self.terms:
            if isinstance(t, ClassSum):
                flat.extend(t.terms)
            elif not isinstance(t, OpClass):
                raise TypeError(f"bad sum term {t!r}")
            elif not t.is_zero:
                flat.append(t)
        object.__setattr__(self, "terms", tuple(flat))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def to_json(self):
        return {"sum": [t.to_json() for t in self.terms]}

    @staticmethod
    def from_json(data) -> "ClassSum":
        terms = json_list(json_object(data, _SUM_FIELDS, "class sum")["sum"], "sum")
        return ClassSum(tuple(OpClass.from_json(t) for t in terms))

    def __repr__(self):
        if self.is_zero:
            return "ClassSum(0)"
        return " + ".join(repr(t) for t in self.terms)


Entry = Union[OpClass, ClassSum]


def as_terms(entry: Entry) -> tuple:
    if isinstance(entry, ClassSum):
        return entry.terms
    if entry.is_zero:
        return ()
    return (entry,)


def sum_of(*entries: Entry) -> Entry:
    terms = []
    for e in entries:
        terms.extend(as_terms(e))
    if not terms:
        return ZERO
    if len(terms) == 1:
        return terms[0]
    return ClassSum(tuple(terms))


def absorbed_sum(geom: GeomConstants | None, *entries: Entry) -> Entry:
    """The sum of the entries with every summand that another summand
    contains dropped (a space absorbs the spaces it contains).

    One pass in input order, after equal summands are merged: a summand
    that a kept summand contains is skipped; otherwise the kept summands
    it contains are dropped and it is kept.  Survivors keep their input
    order, of two summands that contain each other the first stays, and
    each ordered pair is decided at most once.  A lone summand comes back
    bare, no summand as ``ZERO``.
    """
    kept = []
    for t in dict.fromkeys(t for e in entries for t in as_terms(e)):
        if any(_contains_single(t, k, geom) for k in kept):
            continue
        kept = [k for k in kept if not _contains_single(k, t, geom)]
        kept.append(t)
    return sum_of(*kept)


# ---------------------------------------------------------------------------
# folding to per-face data


@dataclass(frozen=True)
class FoldedClass:
    """Per-face view of a class after x-powers and refinements are applied.

    ``faces`` maps face name to either an exact IndexSet or a Bound.  A
    b-kind class whose bf data and lf or rf data are exactly empty is
    normalized to phi-kind with empty ff, reflecting that x^inf b- and
    phi-classes agree (:func:`_x_inf`).
    """

    kind: str
    order: RealLike
    ext: bool
    faces: tuple  # sorted tuple of (face, data)

    def face(self, name):
        for f, v in self.faces:
            if f == name:
                return v
        raise KeyError(name)

    @property
    def face_names(self):
        return tuple(f for f, _ in self.faces)

    def __eq__(self, other):
        # the extended flag is not compared (see :func:`contains`)
        if not isinstance(other, FoldedClass):
            return NotImplemented
        return (self.kind, self.order, self.faces) == (other.kind, other.order, other.faces)


def _shift_face(data, c):
    if c == 0:
        return data
    if c == INF:
        return EMPTY
    if isinstance(data, IndexSet):
        return shift(data, c)
    return Bound(_xadd(data.threshold, c), data.strict)


def fold(cls: OpClass) -> FoldedClass:
    """Fold spec, x-powers and vanishing refinements into face data.

    A class is frozen, so the first fold is stored on the instance and
    later calls return it.
    """
    return _stored(cls, "_folded", _fold)


def _fold(cls: OpClass) -> FoldedClass:
    if cls.is_zero:
        return FoldedClass("zero", NEG_INF, False, ())
    if cls.kind == "bphi":
        faces = {"lf": EMPTY, "rf": EMPTY, "bf": Bound(0, False), "ff": Bound(0, True)}
        kind = "bphi"
    elif isinstance(cls.spec, Weight):
        a = cls.spec.alpha
        faces = {"lf": Bound(a, True), "rf": Bound(-a, True), "bf": Bound(0, False)}
        if cls.kind == "phi":
            faces["ff"] = Bound(0, True)
        kind = cls.kind
    else:  # a full index family
        faces = {f: cls.spec.face(f) for f in cls.spec.faces}
        kind = cls.kind

    for f in list(faces):
        if f == "lf":
            faces[f] = _shift_face(faces[f], cls.xl)
        elif f == "rf":
            faces[f] = _shift_face(faces[f], cls.xr)
        else:  # bf, ff see both sides
            faces[f] = _shift_face(_shift_face(faces[f], cls.xl), cls.xr)
    for f in cls.vanish:
        if f in faces:
            faces[f] = EMPTY

    if kind == "b" and _x_inf(faces.__getitem__):
        kind = "phi"
        faces["ff"] = EMPTY

    order = ["lf", "rf", "bf", "ff"]
    return FoldedClass(
        kind,
        cls.order,
        cls.ext,
        tuple((f, faces[f]) for f in order if f in faces),
    )


def _x_inf(face) -> bool:
    """Kernels vanishing to infinite order at bf and lf or rf (``face(name)``
    gives face data): a b-class and a phi-class with empty ff agree there."""
    return face("bf") == EMPTY and (face("lf") == EMPTY or face("rf") == EMPTY)


def _face_implies(sub, sup) -> bool:
    """Does face data ``sub`` certify face data ``sup``?"""
    if isinstance(sub, IndexSet):
        if isinstance(sup, IndexSet):
            return sup.issuperset(sub)
        return greater_than(sub, sup.threshold) if sup.strict else geq(sub, sup.threshold)
    if isinstance(sup, IndexSet):
        return False
    if sub.threshold == sup.threshold:
        return sub.strict or not sup.strict
    return sub.threshold > sup.threshold


def contains(sub: Entry, sup: Entry, geom: GeomConstants | None = None) -> bool:
    """Certified containment of operator spaces (sound, not sharp).

    Sums: every summand of ``sub`` must sit in some summand of ``sup``.
    Cross-kind inclusions use the lifting of b-classes into phi-classes
    (negative order) and the definition of the bphi space.  The extended
    flag is not compared: every combination rule holds uniformly for the
    extended calculi.
    """
    sub_terms, sup_terms = as_terms(sub), as_terms(sup)
    if not sub_terms:
        return True
    if not sup_terms:
        return False
    return all(
        any(_contains_single(s, t, geom) for t in sup_terms) for s in sub_terms
    )


def _contains_single(sub: OpClass, sup: OpClass, geom) -> bool:
    if sub.is_zero:
        return True
    if sup.is_zero:
        return False
    fs, ft = fold(sub), fold(sup)
    if fs.order > ft.order:
        return False
    if fs.kind == ft.kind or {fs.kind, ft.kind} == {"bphi", "phi"}:
        pairs = [(fs.face(f), ft.face(f)) for f in ft.face_names]
    elif fs.kind == "b" and ft.kind in ("phi", "bphi"):
        # lift: faces at lf, rf, bf persist; the ff data of the lift is
        # bf + a(-order) (empty for smoothing order)
        if fs.order >= 0:
            return False
        bf = fs.face("bf")
        if fs.order == NEG_INF or bf == EMPTY:
            ff = EMPTY
        else:
            if geom is None:
                return False
            ff = _shift_face(bf, geom.a * (-fs.order))
        pairs = [(fs.face(f), ft.face(f)) for f in ("lf", "rf", "bf")]
        pairs.append((ff, ft.face("ff")))
    elif ft.kind == "b" and fs.face("ff") == EMPTY and _x_inf(fs.face):
        # a phi- or bphi-class with empty ff data, x^inf on one side, is a b-class
        pairs = [(fs.face(f), ft.face(f)) for f in ("lf", "rf", "bf")]
    else:
        return False
    return all(_face_implies(u, v) for u, v in pairs)


def eq_classes(a: Entry, b: Entry) -> bool:
    """Symbolic equality: folded face data, order and kind agree, with sum
    terms matching one to one."""
    ta, tb = as_terms(a), as_terms(b)
    if len(ta) != len(tb):
        return False
    if not ta:
        return True
    used = [False] * len(tb)
    for s in ta:
        hit = False
        for i, t in enumerate(tb):
            if not used[i] and fold(s) == fold(t):
                used[i] = True
                hit = True
                break
        if not hit:
            return False
    return True


# ---------------------------------------------------------------------------
# elementary transformations


def conjugate_by_power(P: OpClass, c) -> OpClass:
    """x^{-c} P x^{c} on the weight tier: the weight drops by c."""
    if not isinstance(P.spec, Weight):
        raise TypeError("conjugation by a power needs a weight-tier class")
    return _derive(P, spec=Weight(P.spec.alpha - c))


def multiply_x_power(P: Entry, c, side: str) -> Entry:
    """Record an x-power factor; folding shifts lf,bf(,ff) on the left
    and rf,bf(,ff) on the right."""
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    c = _x_power("c", c)
    if isinstance(P, ClassSum):
        return ClassSum(tuple(multiply_x_power(t, c, side) for t in P.terms))
    if P.is_zero:
        return P
    if side == "left":
        return _derive(P, xl=_xadd(P.xl, c))
    return _derive(P, xr=_xadd(P.xr, c))


def adjoint_class(P: Entry) -> Entry:
    """Formal adjoint: weights negate, x-powers and lf/rf swap sides."""
    if isinstance(P, ClassSum):
        return ClassSum(tuple(adjoint_class(t) for t in P.terms))
    if P.is_zero:
        return P
    spec = P.spec
    if isinstance(spec, Weight):
        spec = Weight(-spec.alpha)
    elif isinstance(spec, IndexFamily):
        spec = spec.replace(lf=spec.rf, rf=spec.lf)
    vanish = frozenset(
        {"lf": "rf", "rf": "lf"}.get(f, f) for f in P.vanish
    )
    return _derive(P, spec=spec, xl=P.xr, xr=P.xl, vanish=vanish)


def lift_b_to_phi(T: OpClass, a: int, b_dim: int):
    """Lift a full-family b-class of finite negative order along the
    quasihomogeneous blow-up; any other input, where the formula is not
    stated, raises :class:`UnsupportedComposition`.

    Returns the pair of phi-classes whose sum contains the lift: the first
    keeps the conormal order with ff-set bf + a(-m); the second is
    smoothing with ff-set bf + a((-m) extended-union (b_dim + 1)).
    """
    if not (isinstance(T, OpClass) and T.kind == "b" and isinstance(T.spec, IndexFamily)):
        raise UnsupportedComposition("lifting needs a single b-kind class with a full index family")
    m = T.order
    if not NEG_INF < m < 0:
        raise UnsupportedComposition(f"lifting needs a finite negative order, got {m}")
    fam = T.spec
    base = dict(lf=fam.lf, rf=fam.rf, bf=fam.bf)
    ff_main = add(fam.bf, scale(real_set(-m), a))
    boosted = extended_union(real_set(-m), real_set(b_dim + 1))
    ff_res = add(fam.bf, scale(boosted, a))
    main = OpClass(
        "phi", m, IndexFamily("phi", ff=ff_main, **base), xl=T.xl, xr=T.xr, ext=T.ext
    )
    res = OpClass(
        "phi", NEG_INF, IndexFamily("phi", ff=ff_res, **base), xl=T.xl, xr=T.xr, ext=T.ext
    )
    return main, res


def decompose_near_ff(S: Entry):
    """Split a phi-class into a b-part (kernel cut off away from the front
    face, hence smoothing) plus a bphi-part carrying the diagonal."""
    if isinstance(S, ClassSum):
        parts = [decompose_near_ff(t) for t in S.terms]
        return (
            sum_of(*(p[0] for p in parts)),
            sum_of(*(p[1] for p in parts)),
        )
    if S.is_zero:
        return ZERO, ZERO
    if S.kind == "bphi":
        return ZERO, S
    if S.kind != "phi":
        raise TypeError("front-face decomposition applies to phi-kind classes")
    spec, vanish = S.spec, S.vanish - {"ff", "bf"}
    if isinstance(spec, IndexFamily):
        spec = IndexFamily("b", lf=spec.lf, rf=spec.rf, bf=spec.bf)
    b_part = OpClass("b", NEG_INF, spec, xl=S.xl, xr=S.xr, ext=True, vanish=vanish)
    bphi_part = OpClass("bphi", S.order, None, xl=S.xl, xr=S.xr, ext=S.ext)
    return b_part, bphi_part


# ---------------------------------------------------------------------------
# predicates


def _bounded_targets(alpha, beta, strict_all=False):
    alpha, beta = exact_extended(alpha), exact_extended(beta)
    s = strict_all
    return {
        "lf": Bound(beta, True),
        "rf": Bound(-alpha, True),
        "bf": Bound(beta - alpha, s),
        "ff": Bound(beta - alpha, s),
    }


def meets(entry: Entry, bounds: dict) -> bool:
    """Does every summand's folded data certify ``bounds[face]`` (a
    :class:`Bound` or an exact IndexSet) at each face of ``bounds`` that the
    summand has?  A face the summand lacks, and the zero class, impose
    nothing."""
    return all(
        _face_implies(data, bounds[name])
        for t in as_terms(entry)
        for name, data in fold(t).faces
        if name in bounds
    )


def is_bounded(P: Entry, alpha, beta) -> bool:
    """Certify boundedness x^alpha H^(k+m) -> x^beta H^k.

    lf > beta, rf > -alpha, bf >= beta - alpha (all kinds); phi-kind also
    needs ff >= beta - alpha with strict inequality at bf or ff.  Sums must
    certify summand-wise.  The Sobolev order k does not enter the face
    conditions.
    """
    corner = _bounded_targets(alpha, beta, strict_all=True)["bf"]
    return meets(P, _bounded_targets(alpha, beta)) and all(
        meets(t, {"bf": corner}) or meets(t, {"ff": corner}) for t in as_terms(P)
    )


def is_compact(P: Entry, alpha, beta) -> bool:
    """Certify compactness: negative order and strict face inequalities."""
    return all(t.order < 0 for t in as_terms(P)) and meets(
        P, _bounded_targets(alpha, beta, strict_all=True)
    )


def _integrable(I: IndexSet, J: IndexSet) -> bool:
    """I + J > 0, decided without building the sum: the smallest real part
    of the sum is the sum of the smallest real parts (inf for an empty set,
    whose sum with any set is empty)."""
    return I.min_re() + J.min_re() > 0


def map_phg(P: OpClass, I: IndexSet) -> IndexSet:
    """Index set of P u for polyhomogeneous u with index set I.

    Needs a full index family: K = J_lf eu (J_bf + I) for b-kind, with an
    additional eu (J_ff + I) term for phi-kind.  Requires J_rf + I > 0.
    """
    f = fold(P)
    faces = dict(f.faces)
    for name, data in faces.items():
        if not isinstance(data, IndexSet):
            raise TypeError(
                "mapping of polyhomogeneous sections needs exact index sets; "
                f"face {name} only carries a bound"
            )
    if not _integrable(faces["rf"], I):
        raise IntegrabilityError(
            "non-integrable pairing: rf index set + input set is not > 0"
        )
    K = extended_union(faces["lf"], add(faces["bf"], I))
    if "ff" in faces:
        K = extended_union(K, add(faces["ff"], I))
    return K


# ---------------------------------------------------------------------------
# composition


@dataclass
class RuleApp:
    """One recorded rule application in a derivation chain: the rule name,
    its input classes, its JSON-ready parameters and its output class."""

    rule: str
    inputs: tuple
    params: dict
    output: Entry
    _json: Optional[dict] = field(default=None, init=False, repr=False, compare=False)

    def to_json(self):
        """The JSON form, made once and stored on the record like
        :meth:`OpClass.to_json`'s: a record re-recorded by a repeated
        composition is written from one shared dict.  Read it, never
        mutate it."""
        if self._json is None:
            self._json = {
                "rule": self.rule,
                "inputs": [i.to_json() for i in self.inputs],
                "params": self.params,
                "output": self.output.to_json(),
            }
        return self._json

    @staticmethod
    def from_json(data: dict) -> "RuleApp":
        return RuleApp(
            data["rule"],
            tuple(entry_from_json(i) for i in data["inputs"]),
            data["params"],
            entry_from_json(data["output"]),
        )


def entry_from_json(data) -> Entry:
    """Read a class or, for an object with a ``"sum"`` key, a class sum."""
    if isinstance(data, dict) and "sum" in data:
        return ClassSum.from_json(data)
    return OpClass.from_json(data)


#: the chain of the innermost open :func:`recording` block (None outside)
_CHAIN: ContextVar[Optional[list]] = ContextVar("phicalc_chain", default=None)


@contextmanager
def recording():
    """Collect the rule applications made in the block::

        with recording() as chain:
            compose(P, Q, geom)
        assert replay_chain(chain, geom)

    Outside every block nothing is recorded; an inner block collects its
    own records only.
    """
    chain: list = []
    token = _CHAIN.set(chain)
    try:
        yield chain
    finally:
        _CHAIN.reset(token)


class Rule(NamedTuple):
    """A rule a derivation chain may name: its number of input classes, the
    names of its params, and ``formula(inputs, params, geom)``, which gives
    the output from the inputs and the exact param values, and raises
    :class:`CompositionError` where the rule's precondition fails."""

    arity: int
    params: frozenset
    formula: Callable


#: every rule of the class algebra, by name; the parametrix primitives are
#: entered where :mod:`phicalc.parametrix` defines them
RULES: dict = {}


def register_rule(name: str, arity: int, *params: str):
    """Decorator entering a formula in :data:`RULES` as rule ``name``."""

    def enter(formula):
        RULES[name] = Rule(arity, frozenset(params), formula)
        return formula

    return enter


def _apply(name: str, inputs: tuple, geom=None, **params) -> Entry:
    """Run rule ``name`` on ``inputs`` with exact ``params``; inside a
    :func:`recording` block, append its :class:`RuleApp` (params in JSON
    form) after those of the rules its formula applied."""
    out = RULES[name].formula(inputs, params, geom)
    chain = _CHAIN.get()
    if chain is not None:
        json_params = {k: v if isinstance(v, str) else number_to_json(v) for k, v in params.items()}
        chain.append(RuleApp(name, inputs, json_params, out))
    return out


def compose_families(I: IndexFamily, J: IndexFamily, A) -> IndexFamily:
    """Combine two phi-type index families under composition.

    With A = a(b_dim + 1), the four faces of the composite are built from
    extended unions of shifted sums of the factors' faces.  The formula runs
    on the lattice of one common denominator D of all eight faces and A:
    each face goes in once, the A-shift is + A D, and each result face comes
    out once.
    """
    if I.kind != "phi" or J.kind != "phi":
        raise UnsupportedComposition("family composition is mechanized for phi-type only")
    A = exact_real(A)
    faces = [I.lf, I.rf, I.bf, I.ff, J.lf, J.rf, J.bf, J.ff]
    D = math.lcm(_denominator(*(F.generators for F in faces)), A.denominator)
    Ilf, Irf, Ibf, Iff, Jlf, Jrf, Jbf, Jff = (_points(F.generators, D) for F in faces)
    s = A.numerator * (D // A.denominator)
    plus, eu = partial(_sum, D=D), partial(_union, D=D)
    Klf = eu(eu(Ilf, plus(Ibf, Jlf)), plus(Iff, Jlf))
    Krf = eu(eu(Jrf, plus(Irf, Jbf)), plus(Irf, Jff))
    lf_rf, bf_bf = plus(Ilf, Jrf), plus(Ibf, Jbf)
    Kbf = eu(eu(eu(lf_rf, bf_bf), plus(Iff, Jbf)), plus(Ibf, Jff))
    Kff = eu(
        eu([(n + s, m, k) for (n, m, k) in lf_rf], [(n + s, m, k) for (n, m, k) in bf_bf]),
        plus(Iff, Jff),
    )
    lf, rf, bf, ff = (IndexSet(_generators(K, D)) for K in (Klf, Krf, Kbf, Kff))
    return IndexFamily("phi", lf=lf, rf=rf, bf=bf, ff=ff)


def _e_normalize(P: OpClass) -> OpClass:
    """The phi twin of a b-class that :func:`fold` makes phi-kind, any other
    class as it is: a family gains empty ff data, a weight-tier class an ff
    refinement unless an x^inf power already empties ff."""
    if P.kind != "b" or fold(P).kind != "phi":
        return P
    spec, vanish = P.spec, P.vanish
    if isinstance(spec, IndexFamily):
        spec = IndexFamily("phi", lf=spec.lf, rf=spec.rf, bf=spec.bf, ff=EMPTY)
    elif INF not in (P.xl, P.xr):
        vanish = vanish | {"ff"}
    return _derive(P, kind="phi", spec=spec, vanish=vanish)


def _strip(P: OpClass) -> OpClass:
    if P.xl == 0 and P.xr == 0:
        return P
    return _derive(P, xl=0, xr=0)


def _face_empty(P: OpClass, face: str) -> bool:
    return (face, EMPTY) in fold(P).faces


def compose(P: Entry, Q: Entry, geom: GeomConstants | None = None, route=None) -> Entry:
    """Compose two operator classes (or sums).

    ``route`` selects between several sound combination rules when an
    interior x-power separates two weight-tier factors:

    * ``None`` (default): keep the power by commuting it past an
      lf-vanishing left factor or rf-vanishing right factor; otherwise
      absorb it (c >= 0 weakening).
    * ``"split"``: apply the mixed b/phi rule, producing a sum of a
      smoothing extended b-class and a power-shifted bphi-class.

    Inside ``with recording() as chain:`` every elementary rule
    application is appended to ``chain``; ``replay_chain(chain, geom)``
    re-checks each record, and ``RuleApp.from_json`` reads a record back
    from a report.  Inside a reuse scope a repeated call returns the first
    call's output and records the first call's rule applications again.
    """
    memo, chain = _REUSE.get(), _CHAIN.get()
    if memo is None:
        return _compose(P, Q, geom, route)
    key = (P, Q, geom, route)
    hit = memo.get(key)
    if hit is None:
        records: list = []
        token = _CHAIN.set(records)
        try:
            hit = memo[key] = (_compose(P, Q, geom, route), records)
        finally:
            _CHAIN.reset(token)
            if chain is not None:
                chain.extend(records)
    elif chain is not None:
        chain.extend(hit[1])
    return hit[0]


def _compose(P: Entry, Q: Entry, geom, route) -> Entry:
    if isinstance(P, ClassSum) or isinstance(Q, ClassSum):
        out = []
        for p in as_terms(P):
            for q in as_terms(Q):
                out.append(compose(p, q, geom, route))
        return sum_of(*out)
    if P.is_zero or Q.is_zero:
        return ZERO

    P, Q = _e_normalize(P), _e_normalize(Q)
    xl_out, xr_out = P.xl, Q.xr
    c = _xadd(P.xr, Q.xl)
    Pc, Qc = _strip(P), _strip(Q)
    res = _compose_core(Pc, Qc, c, geom, route)
    if isinstance(res, ClassSum):
        return ClassSum(
            tuple(t.with_powers(xl_out, xr_out) for t in res.terms)
        )
    if res.is_zero:
        return res
    return res.with_powers(xl_out, xr_out)


def _compose_core(P: OpClass, Q: OpClass, c, geom, route) -> Entry:
    """Pick the rule for ``P x^c Q`` (factors without x-powers) and apply it."""
    # a small-calculus factor preserves the other factor's boundary data
    if P.is_small or Q.is_small:
        return _apply("small-absorb", (P, Q), geom, c=c)

    # full-family composition, a b-factor lifted to the phi-side first
    if isinstance(P.spec, IndexFamily) and isinstance(Q.spec, IndexFamily):
        if P.kind == Q.kind == "b":
            raise UnsupportedComposition(
                "composition of two full-family b-classes is not mechanized "
                "(no combination formula is quoted here)"
            )
        _same_geom(geom)
        pairs = [(P, Q)]
        if P.kind == "b":
            pairs = [(L, Q) for L in _apply("lift-full", (P,), geom, a=geom.a, b_dim=geom.b_dim).terms]
        elif Q.kind == "b":
            pairs = [(P, L) for L in _apply("lift-full", (Q,), geom, a=geom.a, b_dim=geom.b_dim).terms]
        return sum_of(*(_apply("compose-full", pq, geom, A=geom.A, c=c) for pq in pairs))
    if isinstance(P.spec, IndexFamily) or isinstance(Q.spec, IndexFamily):
        raise UnsupportedComposition(
            "mixed full-family / weight-tier composition is not mechanized"
        )

    # bphi factors act at every weight
    if P.kind == Q.kind == "bphi":
        return _apply("compose-bphi", (P, Q), geom, c=c)
    if P.kind == "bphi" and Q.kind == "phi":
        return _compose_core(_apply("bphi-at-weight", (P,), geom, alpha=Q.spec.alpha), Q, c, geom, route)
    if Q.kind == "bphi" and P.kind == "phi":
        return _compose_core(P, _apply("bphi-at-weight", (Q,), geom, alpha=P.spec.alpha), c, geom, route)
    if not (isinstance(P.spec, Weight) and isinstance(Q.spec, Weight)):
        raise UnsupportedComposition(f"no rule composes {P!r} with {Q!r}")

    # weight-tier composition
    if route == "split":
        return _apply("mixed-split", (P, Q), geom, c=c)
    if c != 0:
        if c < 0:
            raise UnsupportedComposition("negative interior x-power between weight classes")
        if _face_empty(P, "lf"):
            return _apply("power-left-of-lf-vanishing", (P, Q), geom, c=c)
        if _face_empty(Q, "rf"):
            return _apply("power-right-of-rf-vanishing", (P, Q), geom, c=c)
        _apply("absorb-power", (Q,), geom, c=c)
        return _compose_core(P, Q, 0, geom, route)
    if P.kind == "b" and Q.kind == "phi":
        return _compose_core(_apply("lift-weight", (P,), geom), Q, 0, geom, route)
    if P.kind == "phi" and Q.kind == "b":
        return _compose_core(P, _apply("lift-weight", (Q,), geom), 0, geom, route)
    return _apply(f"compose-weight-{P.kind}", (P, Q), geom)


# ---------------------------------------------------------------------------
# the rules of the class algebra


def _same_geom(geom, **constants):
    """Refuse a rule without ``geom``, or whose recorded constants are not its."""
    if geom is None or any(getattr(geom, k) != v for k, v in constants.items()):
        raise UnsupportedComposition("phi-composition needs the geometry constants (a, b_dim)")


@register_rule("small-absorb", 2, "c")
def _small_absorb(inputs, params, geom):
    """A small-calculus factor keeps the other factor's boundary data and
    adds its order; it commutes with the interior power."""
    P, Q = inputs
    c = params["c"]
    small, other = (P, Q) if P.is_small else (Q, P)
    if not small.is_small:
        raise UnsupportedComposition("no factor is of the small calculus")
    if small.spec.kind == "phi" and other.kind == "b" and not other.is_small:
        if not isinstance(other.spec, Weight):
            raise UnsupportedComposition(
                "small-phi against a full-family b-class: lift the b-class first"
            )
        other = _apply("lift-weight", (other,), geom)
    elif (small.spec.kind == "b") != (other.kind == "b"):
        raise UnsupportedComposition(
            f"small factor of kind {small.spec.kind} cannot absorb {other!r}"
        )
    out = _derive(other, order=_xadd(other.order, small.order), ext=other.ext or small.ext)
    if c != 0:
        side = "left" if small is P else "right"
        _apply("conjugate-small", (small,), geom, c=c, side=side)
        out = multiply_x_power(out, c, side)
    return out


@register_rule("conjugate-small", 1, "c", "side")
def _conjugate_small(inputs, params, geom):
    """A small-calculus class commutes with x-powers."""
    if not inputs[0].is_small:
        raise UnsupportedComposition("only a small-calculus class commutes with x-powers")
    return inputs[0]


@register_rule("lift-full", 1, "a", "b_dim")
def _lift_full(inputs, params, geom):
    """The pair of phi-classes of :func:`lift_b_to_phi`, with ``geom``."""
    _same_geom(geom, a=params["a"], b_dim=params["b_dim"])
    return ClassSum(lift_b_to_phi(inputs[0], geom.a, geom.b_dim))


@register_rule("power-into-family", 1, "c")
def _power_into_family(inputs, params, geom):
    """x^c Q for a full phi-family class: lf, bf and ff shift by c, and
    x^inf empties them."""
    (Q,) = inputs
    if not (Q.kind == "phi" and isinstance(Q.spec, IndexFamily)):
        raise UnsupportedComposition("the power goes into a full phi-family only")
    shifted = {f: _shift_face(Q.spec.face(f), params["c"]) for f in ("lf", "bf", "ff")}
    return _derive(Q, spec=Q.spec.replace(**shifted))


@register_rule("compose-full", 2, "A", "c")
def _compose_full(inputs, params, geom):
    """P x^c Q for full phi-family classes by :func:`compose_families`."""
    P, Q = inputs
    _same_geom(geom, A=params["A"])
    if not all(F.kind == "phi" and isinstance(F.spec, IndexFamily) for F in (P, Q)):
        raise UnsupportedComposition("family composition needs two full phi-family classes")
    if params["c"] != 0:
        Q = _apply("power-into-family", (Q,), geom, c=params["c"])
    if not _integrable(P.spec.rf, Q.spec.lf):
        raise IntegrabilityError(
            "composition needs rf index set of the left factor plus lf index "
            "set of the right factor > 0"
        )
    K = compose_families(P.spec, Q.spec, geom.A)
    return OpClass("phi", _xadd(P.order, Q.order), K, ext=P.ext or Q.ext)


@register_rule("compose-bphi", 2, "c")
def _compose_bphi(inputs, params, geom):
    """bphi x^c bphi lies in bphi for c >= 0."""
    P, Q = inputs
    if not P.kind == Q.kind == "bphi":
        raise UnsupportedComposition(f"no rule composes {P!r} with {Q!r}")
    if params["c"] < 0:
        raise UnsupportedComposition("negative interior power between bphi factors")
    return bphi_class(_xadd(P.order, Q.order), ext=P.ext or Q.ext)


@register_rule("bphi-at-weight", 1, "alpha")
def _bphi_at_weight(inputs, params, geom):
    """A bphi-class acts at every weight: at weight alpha it is the phi-class
    vanishing to infinite order at lf and rf."""
    (P,) = inputs
    if P.kind != "bphi":
        raise UnsupportedComposition("only a bphi-class acts at every weight")
    return weight_phi(P.order, params["alpha"], ext=P.ext, vanish=("lf", "rf"))


@register_rule("mixed-split", 2, "c")
def _mixed_split(inputs, params, geom):
    """Mixed composition through an x^c factor, c >= 0 and ord(P) <= 0:

        Psi_{b or phi}^{k,alpha} x^c Psi_phi^{l,alpha}
            subset  Psi_{b,ext}^{-inf,alpha} + x^c Psi_bphi^{k+l}.

    Outside the stated range (c < 0 or k > 0) the rule is not available.
    """
    P, Q = inputs
    c = params["c"]
    if not isinstance(P.spec, Weight) or not isinstance(Q.spec, Weight):
        raise UnsupportedComposition("the mixed rule needs weight-tier factors")
    if P.kind not in ("b", "phi") or Q.kind != "phi":
        raise UnsupportedComposition("the mixed rule needs a b/phi times phi pair")
    if P.spec.alpha != Q.spec.alpha:
        raise UnsupportedComposition("the mixed rule needs equal weights")
    if c < 0:
        raise UnsupportedComposition("the mixed rule requires c >= 0")
    if P.order > 0:
        raise UnsupportedComposition("the mixed rule requires the left order <= 0")
    return ClassSum(
        (
            OpClass("b", NEG_INF, Weight(P.spec.alpha), ext=True),
            OpClass("bphi", _xadd(P.order, Q.order), None, xl=c, ext=P.ext or Q.ext),
        )
    )


def _power_past(side: str, face: str, inputs, params, geom):
    """x^c (c >= 0) moves to the ``side`` of a composition whose factor on
    that side vanishes at ``face``: Psi_lf x^c lies in x^c Psi_lf."""
    P, Q = inputs
    if params["c"] < 0 or not _face_empty(P if side == "left" else Q, face):
        raise UnsupportedComposition(f"x^c moves {side} only past a factor vanishing at {face}")
    return multiply_x_power(_compose_core(P, Q, 0, geom, None), params["c"], side)


register_rule("power-left-of-lf-vanishing", 2, "c")(partial(_power_past, "left", "lf"))
register_rule("power-right-of-rf-vanishing", 2, "c")(partial(_power_past, "right", "rf"))


@register_rule("absorb-power", 1, "c")
def _absorb_power(inputs, params, geom):
    """x^c Q lies in Q for c >= 0."""
    if params["c"] < 0:
        raise UnsupportedComposition("only a power x^c with c >= 0 is absorbed")
    return inputs[0]


@register_rule("lift-weight", 1)
def _lift_weight(inputs, params, geom):
    """Weight-tier lifting of a b-class into the phi-calculus (order < 0)."""
    (P,) = inputs
    if P.kind != "b" or not isinstance(P.spec, Weight):
        raise UnsupportedComposition("weight-tier lift needs a b-kind weight class")
    if P.order >= 0:
        raise UnsupportedComposition("lifting requires negative order")
    return _derive(P, kind="phi")


def _compose_weight(kind: str, inputs, params, geom):
    """Weight-tier ``kind``-classes at one weight compose to a ``kind``-class,
    vanishing at lf or rf where both factors do."""
    P, Q = inputs
    if not (P.kind == Q.kind == kind and isinstance(P.spec, Weight) and isinstance(Q.spec, Weight)):
        raise UnsupportedComposition(f"no rule composes {P!r} with {Q!r}")
    if P.spec.alpha != Q.spec.alpha:
        raise UnsupportedComposition(
            f"weight-tier composition needs equal weights, got "
            f"{P.spec.alpha} and {Q.spec.alpha}"
        )
    vanish = P.vanish & Q.vanish & {"lf", "rf"}
    return OpClass(kind, _xadd(P.order, Q.order), Weight(P.spec.alpha), ext=P.ext or Q.ext, vanish=vanish)


register_rule("compose-weight-b", 2)(partial(_compose_weight, "b"))
register_rule("compose-weight-phi", 2)(partial(_compose_weight, "phi"))


# ---------------------------------------------------------------------------
# chain replay


def replay_chain(chain, geom: GeomConstants | None = None) -> bool:
    """True when every :class:`RuleApp` of a derivation chain holds: the
    formula of the rule it names in :data:`RULES` gives its output from its
    inputs and params with ``geom``.  An unknown rule, another number of
    inputs, an input with x-powers, other param names, a malformed param
    value or a failed precondition give False; replay never raises.  Nothing
    is recorded while the chain replays, not even inside an open
    :func:`recording` block, and nothing is reused from a reuse scope.
    """
    token, reuse = _CHAIN.set(None), _REUSE.set(None)
    try:
        return all(_replay_one(rec, geom) for rec in chain)
    finally:
        _REUSE.reset(reuse)
        _CHAIN.reset(token)


def _read_param(name: str, v):
    """A record param as the rules read it: ``side`` is "left" or "right",
    every other param an exact or infinite number in its JSON form, and the
    x-powers ``c`` and ``am`` are not -inf (x^-inf is no factor).  None for
    any other value: a malformed value is refused here, once."""
    if name == "side":
        return v if v in ("left", "right") else None
    try:
        x = number_from_json(v)
        return _x_power(name, x) if name in ("c", "am") else exact_extended(x)
    except (ArithmeticError, TypeError, ValueError):
        return None


def _replay_one(rec: RuleApp, geom) -> bool:
    rule, params = RULES.get(rec.rule) if isinstance(rec.rule, str) else None, rec.params
    if rule is None or not isinstance(params, dict) or params.keys() != rule.params:
        return False
    # the engine applies every rule to classes without x-powers
    bare = all(isinstance(i, OpClass) and i.xl == 0 and i.xr == 0 for i in rec.inputs)
    if len(rec.inputs) != rule.arity or not bare:
        return False
    exact = {k: _read_param(k, v) for k, v in params.items()}
    if None in exact.values():
        return False
    try:
        got = rule.formula(tuple(rec.inputs), exact, geom)
    except CompositionError:
        return False
    return got == rec.output or eq_classes(got, rec.output)
