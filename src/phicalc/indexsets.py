"""Exact arithmetic on polyhomogeneous index sets and index families.

An index set is a discrete subset of C x N0 that is closed under the two
rules (z, k) -> (z + 1, k) and (z, k) -> (z, k - 1) for k >= 1, and that
contains only finitely many elements with Re z below any given bound.  It
prescribes which terms x^z (log x)^k may occur in an asymptotic expansion
at a boundary face.

We store the finitely many *minimal* generators and keep closure implicit:
(z, k) belongs to the set iff some generator (z0, k0) satisfies
z - z0 in N0 and k <= k0.  This makes membership decidable and gives a
canonical form (no generator dominated by another), hence decidable
equality.

Exponents are exact: each real and imaginary part is an ``int`` or a
``Fraction``.  Every real that enters an index set (generators, membership
probes, shifts, comparison thresholds) passes once through
:func:`exact_real`, which keeps ``int`` and ``Fraction`` and replaces a
finite float, such as a critical weight from numerics, by the nearest
fraction with denominator at most ``MAX_DENOMINATOR`` = 10**6.  A float
within 1/(2 q 10**6) of a fraction p/q with q <= 10**6 becomes that
fraction, so 1 + 2e-10 is 1.  From there on the algebra is exact: ``add``
and ``extended_union`` are associative and commutative, the canonical form
does not depend on the order of the generators, and the JSON form (whole
numbers as ints, other fractions as "p/q" strings) reads back to the same
set.

The stored form is the lattice: with D the least common multiple of the
generators' denominators, every exponent of the closure lies on
(1/D)Z + i (1/D)Z, and scaled by D a generator (re, im, k) is a point
(n, m, k) of ints.  An :class:`IndexSet` keeps the least D and its sorted
canonical points, so equality and hashing compare (D, points).  g reaches
h exactly when both lie in one class (m, n mod D) and g's n is not larger,
so every operation compares, adds and hashes ints only.  A binary
operation rescales its operands to the least common multiple of their D's,
and each result is stored at its least D again (1/3 shifted by 1/6 is 1/2,
at D = 2).  ``extended_union`` and ``opclasses.compose_families`` make
each result in one sweep (``_eu``) over the raw points of all the closures
it unites: at (n, m) the union has log power sum (k_i + 1) - 1, with k_i
the largest of closure i there (-1 for none).
``generators`` is a view, made at its first read (JSON, repr): whole parts
``int``, the others ``Fraction``, so the generators of
``add(real_set(1/2), real_set(3/2))`` are ``((2, 0, 0),)``.

An :class:`AlphaForm` is an exact affine form c + s alpha in a weight
alpha, carrying its value at one alpha.  :func:`exact_real` and
:func:`exact_extended` pass it through and :func:`number_to_json` writes
its value, so the weight-tier construction of :mod:`phicalc.parametrix`
runs on it unchanged, and :func:`alpha_decisions` collects the comparisons
whose outcome depends on alpha.
"""

from __future__ import annotations

import math
import operator
import sys
from bisect import bisect_left
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence, Union

from .jsonio import json_list, json_object

__all__ = [
    "AlphaForm",
    "IndexSet",
    "IndexFamily",
    "EMPTY",
    "MAX_DENOMINATOR",
    "exact_real",
    "exact_extended",
    "alpha_decisions",
    "decided_alike",
    "number_to_json",
    "number_from_json",
    "make_index_set",
    "real_set",
    "add",
    "extended_union",
    "shift",
    "scale",
    "greater_than",
    "geq",
]

RealLike = Union[int, Fraction, float]
Exact = Union[int, Fraction]

#: largest denominator that :func:`exact_real` gives a float
MAX_DENOMINATOR = 10**6
_INF_JSON = {math.inf: "inf", -math.inf: "-inf"}


def exact_real(v: RealLike) -> Exact:
    """The exact number a real exponent part stands for.

    ``int``, ``Fraction`` and :class:`AlphaForm` pass through.  A finite
    ``float`` becomes the fraction nearest to it with denominator at most
    ``MAX_DENOMINATOR``, an ``int`` when that is whole.  Booleans, NaN and
    infinities are rejected.
    """
    if isinstance(v, bool):
        raise TypeError("boolean is not a valid exponent part")
    if isinstance(v, (int, Fraction, AlphaForm)):
        return v
    if not isinstance(v, float):
        raise TypeError(f"exponent part must be int, Fraction or float, got {type(v)!r}")
    if not math.isfinite(v):
        raise ValueError(f"exponent part must be finite, got {v}")
    q = Fraction(v).limit_denominator(MAX_DENOMINATOR)
    return q.numerator if q.denominator == 1 else q


def _split_exponent(z) -> tuple[Exact, Exact]:
    """Accept complex, (re, im) pairs or plain reals for an exponent."""
    if isinstance(z, complex):
        return (exact_real(z.real), exact_real(z.imag))
    if isinstance(z, tuple):
        if len(z) != 2:
            raise TypeError("exponent tuple must be (re, im)")
        return (exact_real(z[0]), exact_real(z[1]))
    return (exact_real(z), 0)


def _integer(name: str, v, low: int) -> int:
    """``v`` as an ``int`` >= ``low`` through ``operator.index`` (NumPy's
    integers too, never a bool or a float): log powers, scale factors and
    the geometry constants."""
    if isinstance(v, bool):
        raise TypeError(f"{name} must be an integer, got a boolean")
    v = operator.index(v)
    if v < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {v}")
    return v


# A generator is a triple (re, im, k) with k a nonnegative int.
Gen = tuple


# Lattice points (n, m, k) at a denominator D, as in the module docstring.
# A class (m, n mod D) is keyed as the int m D + n mod D.


def _denominator(gens: Sequence[Gen]) -> int:
    """The least common multiple of the denominators of every real and
    imaginary part of the generators (1 when there are none)."""
    D = 1
    for re, im, _ in gens:
        D = math.lcm(D, re.denominator, im.denominator)
    return D


def _points(gens: Sequence[Gen], D: int) -> list[tuple[int, int, int]]:
    """The generators as lattice points at the denominator D."""
    return [
        (re.numerator * (D // re.denominator), im.numerator * (D // im.denominator), k)
        for (re, im, k) in gens
    ]


def _unscaled(n: int, D: int) -> Exact:
    """n / D, an int when it is whole."""
    q, r = divmod(n, D)
    return q if r == 0 else Fraction(n, D)


def _canonical(points, D: int) -> list[tuple[int, int, int]]:
    """The points sorted by (n, m, -k), with every dominated one removed.

    In (n, m, k) order a point comes after every point that dominates it,
    except a point at the same (n, m) with a larger k: that one comes right
    after it and takes its place.  So a point is kept when its log power
    exceeds every earlier one of its class."""
    best: dict = {}
    kept: list = []
    for p in sorted(points):
        n, m, k = p
        cls = m * D + n % D
        if k > best.get(cls, -1):
            best[cls] = k
            if kept and kept[-1][0] == n and kept[-1][1] == m:
                kept[-1] = p
            else:
                kept.append(p)
    return kept


def _eu(lists, D: int) -> list[tuple[int, int, int]]:
    """Canonical points of the extended union of the closures of the point
    lists, each of them raw: dominated and repeated points allowed.

    At (n, m) closure i has the log power k_i of its largest point of the
    class with n' <= n (-1 for none), and the union has sum (k_i + 1) - 1.
    One pass over all points in (n, m, k) order keeps each list's k_i and
    the sum per class; a point is kept when it raises the sum, and replaces
    the last kept point at the same (n, m)."""
    L = len(lists)
    best: dict = {}
    total: dict = {}
    kept: list = []
    ln = lm = None
    for n, m, k, i in sorted([(n, m, k, i) for i, P in enumerate(lists) for (n, m, k) in P]):
        cls = m * D + n % D
        b = best.get(cls * L + i, -1)
        if k > b:
            best[cls * L + i] = k
            t = total[cls] = total.get(cls, -1) + k - b
            if n == ln and m == lm:
                kept[-1] = (n, m, t)
            else:
                kept.append((n, m, t))
                ln, lm = n, m
    return kept


class IndexSet:
    """Canonical index set, stored as its lattice: ``points`` is the sorted
    tuple of the minimal generators' points (n, m, k), none dominated by
    another, at ``D``, the least common denominator of their parts; the
    empty tuple is the empty set.  ``IndexSet(generators)`` takes
    (re, im, k) triples of ``int`` and ``Fraction`` parts.
    """

    __slots__ = ("D", "points", "_generators")

    def __new__(cls, generators: Sequence[Gen] = ()):
        gens = tuple(generators)
        D = _denominator(gens)
        return _lattice(D, _canonical(_points(gens, D), D))

    def __setattr__(self, name, value):
        raise AttributeError(f"an IndexSet is immutable: cannot set {name!r}")

    def __reduce__(self):
        return (_lattice, (self.D, self.points))

    def __eq__(self, other):
        return other.__class__ is IndexSet and self.D == other.D and self.points == other.points

    def __hash__(self):
        return hash((self.D, self.points))

    @property
    def generators(self) -> tuple:
        """The points as generators (re, im, k), whole parts as ``int``,
        the others as ``Fraction``: the points themselves at D = 1, else
        made at the first read and stored."""
        gens = self._generators
        if gens is None:
            D = self.D
            gens = tuple((_unscaled(n, D), _unscaled(m, D), k) for n, m, k in self.points)
            _set_generators(self, gens)
        return gens

    @property
    def is_empty(self) -> bool:
        return not self.points

    def member(self, z, k: int = 0) -> bool:
        """Decide membership of (z, k) in the closed set."""
        re, im = _split_exponent(z)
        return self.issuperset(IndexSet(((re, im, _integer("log power", k, 0)),)))

    def issuperset(self, other: "IndexSet") -> bool:
        """Whether the closure of ``other`` lies in this closed set: each of
        its points is dominated by one of ours, so adding them leaves our
        canonical points as they are."""
        if not other.points:
            return True
        D = math.lcm(self.D, other.D)
        mine = _rescaled(self, D)
        return _canonical([*mine, *_rescaled(other, D)], D) == list(mine)

    def min_re(self) -> RealLike:
        """Smallest real part among minimal elements (inf for the empty set)."""
        return _unscaled(self.points[0][0], self.D) if self.points else float("inf")

    def truncate(self, re_max: RealLike = 10) -> list[tuple[Exact, Exact, int]]:
        """All members (re, im, k) with re <= re_max, sorted.

        Used for display and serialization of the (infinite) closed set.
        Whole real and imaginary parts come out as ``int``.  Each point
        below re_max D walks its ray n, n + D, ... up to re_max D or to the
        next point of its class, whose larger log power takes over there.
        """
        D = self.D
        r = exact_real(re_max)
        end = r.numerator * D // r.denominator + 1  # past floor(re_max D)
        points = self.points
        stop: dict = {}
        walked = []
        for n0, m, k in reversed(points[:bisect_left(points, (end,))]):
            cls = m * D + n0 % D
            im = _unscaled(m, D) if m else 0
            walked += [(n, m, k, _unscaled(n, D), im) for n in range(n0, stop.get(cls, end), D)]
            stop[cls] = n0
        walked.sort()  # by (n, m) alone: no two rows share both
        return [(re, im, kk) for _, _, k, re, im in walked for kk in range(k + 1)]

    def to_json(self) -> dict:
        return {
            "empty": self.is_empty,
            "generators": [
                {"re": number_to_json(g[0]), "im": number_to_json(g[1]), "k": g[2]}
                for g in self.generators
            ],
        }

    @staticmethod
    def from_json(data: dict) -> "IndexSet":
        # one check per set, none per generator: this runs on every set read
        data = json_object(data, _SET_FIELDS, "index set")
        return make_index_set([
            ((number_from_json(g["re"]), number_from_json(g["im"])), g["k"])
            for g in json_list(data.get("generators", []), "generators")
        ])

    def __repr__(self) -> str:
        if self.is_empty:
            return "IndexSet(∅)"
        parts = ", ".join(
            f"({number_to_json(g[0])}{'' if g[1] == 0 else f'+{number_to_json(g[1])}i'},{g[2]})"
            for g in self.generators
        )
        return f"IndexSet[{parts}]"


# the slots' own setters, past the refusing __setattr__
_set_D, _set_points, _set_generators = (getattr(IndexSet, a).__set__ for a in IndexSet.__slots__)


def _lattice(D: int, points) -> IndexSet:
    """The index set of the canonical points at D, stored at its least
    denominator: D and every coordinate divided by their common divisor."""
    g = D
    for n, m, _ in points:
        if g == 1:
            break
        g = math.gcd(g, n, m)
    if g > 1:
        D //= g
        points = [(n // g, m // g, k) for n, m, k in points]
    points = tuple(points)
    I = object.__new__(IndexSet)
    _set_D(I, D)
    _set_points(I, points)
    _set_generators(I, points if D == 1 else None)
    return I


def _rescaled(I: IndexSet, D: int):
    """The points of I at D, a multiple of ``I.D``."""
    f = D // I.D
    return I.points if f == 1 else [(n * f, m * f, k) for n, m, k in I.points]


def number_to_json(v: RealLike):
    """JSON form of an extended real: an int when it is whole, "p/q" for
    any other Fraction, "inf" and "-inf" for the infinities, and any other
    float as it is.  An :class:`AlphaForm` writes its value."""
    if type(v) is AlphaForm:
        v = v.value
    if isinstance(v, float):
        return int(v) if v.is_integer() else _INF_JSON.get(v, v)
    return int(v) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def number_from_json(v) -> RealLike:
    """Read a number written by :func:`number_to_json`.  Strings ("p/q",
    decimal, "inf" or "-inf") are read exactly; a float stays a float
    unless it is whole."""
    if isinstance(v, str):
        if v in ("inf", "-inf"):
            return float(v)
        if "e" in v or "E" in v:
            _refuse_huge_exponent(v)
        q = Fraction(v)
        return q.numerator if q.denominator == 1 else q
    if isinstance(v, float):
        return int(v) if v.is_integer() else v
    if isinstance(v, int):
        return v
    raise TypeError(f"expected a number or a 'p/q' string, got {v!r}")


def _refuse_huge_exponent(v: str) -> None:
    """Refuse "1e10000000" before ``Fraction`` expands it: a value with more
    digits than Python allows a JSON integer (``sys.get_int_max_str_digits``)."""
    mantissa, _, exponent = v.lower().partition("e")
    limit = sys.get_int_max_str_digits()
    if limit and sum(map(str.isdigit, mantissa)) + abs(int(exponent)) > limit:
        raise ValueError(f"number {v[:40]!r} has more than {limit} digits")


EMPTY = IndexSet()
_SET_FIELDS = frozenset({"empty", "generators"})


def make_index_set(generators: Sequence) -> IndexSet:
    """Build the canonical index set generated by (z, k) pairs.

    Each entry is (z, k) where z may be real, complex or an (re, im) pair
    and k is a nonnegative integer log power.  The represented set is the
    closure of the generators; dominated generators are removed.
    """
    gens = []
    for z, k in generators:
        re, im = _split_exponent(z)
        gens.append((re, im, _integer("log power", k, 0)))
    return IndexSet(gens)


def real_set(r: RealLike) -> IndexSet:
    """The index set written shorthand as a real number: (r + N0) x {0}."""
    return make_index_set([(r, 0)])


def add(I: IndexSet, J: IndexSet) -> IndexSet:
    """Set addition {(z + z', k + k')}; the empty set is absorbing."""
    if I.is_empty or J.is_empty:
        return EMPTY
    D = math.lcm(I.D, J.D)
    P, Q = _rescaled(I, D), _rescaled(J, D)
    points = [(n1 + n2, m1 + m2, k1 + k2) for (n1, m1, k1) in P for (n2, m2, k2) in Q]
    return _lattice(D, _canonical(points, D))


def extended_union(I: IndexSet, J: IndexSet) -> IndexSet:
    """Extended union: I u J plus (z, l1 + l2 + 1) at shared exponents z.

    The log boost applies at every exponent of the *closed* sets, not just
    at generator exponents: there the union has log power (l1 + 1) +
    (l2 + 1) - 1, l = -1 where a set has none.  One ``_eu`` sweep over
    both sets' points on their common lattice makes the canonical points.
    """
    if I.is_empty:
        return J
    if J.is_empty:
        return I
    D = math.lcm(I.D, J.D)
    return _lattice(D, _eu((_rescaled(I, D), _rescaled(J, D)), D))


def shift(I: IndexSet, r: RealLike) -> IndexSet:
    """Shift every exponent by the real number r (empty set unchanged).

    A common shift keeps the points' order and domination, hence the
    canonical form; only the denominator can change (1/3 + 1/6 = 1/2)."""
    r = exact_real(r)
    D = math.lcm(I.D, r.denominator)
    s = r.numerator * (D // r.denominator)
    return _lattice(D, [(n + s, m, k) for n, m, k in _rescaled(I, D)])


def scale(I: IndexSet, a: int) -> IndexSet:
    """Map the minimal elements by (z, k) -> (a z, k), then re-close.

    The scaling acts on minimal generators and the result is the closure of
    the scaled generators (integer steps, not steps of a).  ``a`` is an
    integer >= 1, NumPy's included, never a bool.
    """
    a = _integer("scale factor", a, 1)
    return _lattice(I.D, _canonical([(a * n, a * m, k) for n, m, k in I.points], I.D))


def exact_extended(v: RealLike):
    """An extended real: exact as by :func:`exact_real`, except that +-inf
    stays as it is (comparison thresholds, operator orders, x-powers).

    An ``int``, ``Fraction`` or :class:`AlphaForm` returns at once; the
    exact type test lets a ``bool`` through to :func:`exact_real`, which
    refuses it."""
    t = type(v)
    if t is int or t is Fraction or t is AlphaForm or (t is float and math.isinf(v)):
        return v
    return exact_real(v)


# ---------------------------------------------------------------------------
# exact affine forms in the weight


_COMPARE = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

#: the decision list of the innermost open :func:`alpha_decisions` block
#: (None outside)
_DECISIONS: ContextVar[Optional[list]] = ContextVar("phicalc_alpha_decisions", default=None)


@contextmanager
def alpha_decisions():
    """Collect the decisions that :class:`AlphaForm` comparisons make in
    the block::

        with alpha_decisions() as decided:
            steps, Qr, Rr = right_parametrix(op, AlphaForm(alpha))
        assert decided_alike(decided, op.am - alpha)

    A decision is a tuple (dc, ds, op, result): the comparison
    ``dc + ds alpha  op  0``, with ds != 0, came out as ``result`` at the
    form's value.  Outside every block nothing is recorded; an inner block
    collects its own decisions only.
    """
    decisions: list = []
    token = _DECISIONS.set(decisions)
    try:
        yield decisions
    finally:
        _DECISIONS.reset(token)


def decided_alike(decisions, alpha) -> bool:
    """Whether every decision of :func:`alpha_decisions` comes out the
    same at the weight ``alpha``."""
    alpha = exact_real(alpha)
    return all(_COMPARE[op](dc + ds * alpha, 0) == result for dc, ds, op, result in decisions)


class AlphaForm:
    """An exact affine form c + s alpha in the weight alpha, carrying its
    value at the weight a run is made at.

    ``c`` is an ``int`` or ``Fraction`` and ``s`` an ``int``.
    ``AlphaForm(alpha)`` is alpha itself (c = 0, s = 1).  Sums and
    differences with forms and exact numbers, negation and products with
    an ``int`` are forms again, and each computes its ``value`` from the
    operands' values by the same operation.  So a run on the form computes
    every value by the concrete run's own arithmetic: ``hash``, ``repr``,
    ``str`` and :func:`number_to_json` are those of the value, and the run
    writes the concrete run's bytes.

    A comparison is decided at the value.  When the two sides' coefficients
    of alpha differ, the outcome depends on alpha, and it is appended to
    the open :func:`alpha_decisions` list; :func:`decided_alike` replays the
    list at another weight.  Against +-inf, or with equal coefficients, the
    outcome holds at every alpha and nothing is recorded.  Truth is a
    comparison with 0.  A run that used the weight in any other way would
    take branches no list records, so the form refuses it with a
    ``TypeError``: ``float()``, ``int()``, ``Fraction()``, ``numerator``,
    ``denominator``, a comparison with a finite float, and a product with a
    non-integer or with another form.  Equal values hash equal, so a hashed
    lookup meets only forms of equal value, and its comparison is recorded.
    """

    __slots__ = ("c", "s", "value")

    def __init__(self, alpha):
        if type(alpha) is AlphaForm:
            raise TypeError("an alpha-form is made from a number, not from a form")
        self.c, self.s, self.value = 0, 1, exact_real(alpha)

    def at(self, alpha):
        """The value c + s alpha at the weight ``alpha``."""
        return self.c + self.s * exact_real(alpha)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        o = _coefficients(other)
        if o is None:
            return NotImplemented
        return _form(self.c + o[0], self.s + o[1], self.value + o[2])

    def __radd__(self, other):
        o = _coefficients(other)
        if o is None:
            return NotImplemented
        return _form(o[0] + self.c, o[1] + self.s, o[2] + self.value)

    def __sub__(self, other):
        o = _coefficients(other)
        if o is None:
            return NotImplemented
        return _form(self.c - o[0], self.s - o[1], self.value - o[2])

    def __rsub__(self, other):
        o = _coefficients(other)
        if o is None:
            return NotImplemented
        return _form(o[0] - self.c, o[1] - self.s, o[2] - self.value)

    def __neg__(self):
        return _form(-self.c, -self.s, -self.value)

    def __mul__(self, k):
        if type(k) is not int:
            raise TypeError(
                f"an alpha-form is multiplied by an integer only, not by {type(k).__name__}: "
                "the weight enters the construction affinely"
            )
        return _form(self.c * k, self.s * k, self.value * k)

    def __rmul__(self, k):
        if type(k) is not int:
            return self.__mul__(k)
        return _form(k * self.c, k * self.s, k * self.value)

    # -- decisions --------------------------------------------------------

    def _decide(self, other, op: str):
        t = type(other)
        if t is float and math.isinf(other):
            return _COMPARE[op](self.value, other)  # every finite weight alike
        o = _coefficients(other)
        if o is None:
            if t is float:
                raise TypeError("an alpha-form compares with exact numbers only, not a float")
            return NotImplemented
        result = _COMPARE[op](self.value, o[2])
        ds = self.s - o[1]
        if ds:
            decisions = _DECISIONS.get()
            if decisions is not None:
                decisions.append((self.c - o[0], ds, op, result))
        return result

    def __eq__(self, other):
        return self._decide(other, "==")

    def __ne__(self, other):
        return self._decide(other, "!=")

    def __lt__(self, other):
        return self._decide(other, "<")

    def __le__(self, other):
        return self._decide(other, "<=")

    def __gt__(self, other):
        return self._decide(other, ">")

    def __ge__(self, other):
        return self._decide(other, ">=")

    def __bool__(self):
        return self._decide(0, "!=")

    def __hash__(self):
        return hash(self.value)

    # -- the value's text -------------------------------------------------

    def __repr__(self):
        return repr(self.value)

    def __str__(self):
        return str(self.value)

    def __format__(self, spec):
        return format(self.value, spec)

    # -- refusals ---------------------------------------------------------

    def _refuse(self, what: str):
        raise TypeError(
            f"{what} of an alpha-form would read the weight outside a recorded "
            "decision; read .value where the weight is meant (check_weight)"
        )

    def __float__(self):
        self._refuse("float()")

    def __int__(self):
        self._refuse("int()")

    @property
    def numerator(self):
        self._refuse("the numerator")

    @property
    def denominator(self):
        self._refuse("the denominator")


def _form(c, s, value) -> AlphaForm:
    F = object.__new__(AlphaForm)
    F.c, F.s, F.value = c, s, value
    return F


def _coefficients(v):
    """(c, s, value) of a form or of an exact number (s = 0); None for
    anything else, a bool included."""
    t = type(v)
    if t is AlphaForm:
        return v.c, v.s, v.value
    if t is int or t is Fraction:
        return v, 0, v
    return None


def greater_than(I: IndexSet, alpha: RealLike) -> bool:
    """I > alpha: every element has Re z > alpha.  Empty set: True."""
    alpha = exact_extended(alpha)
    return not I.points or I.points[0][0] > alpha * I.D


def geq(I: IndexSet, alpha: RealLike) -> bool:
    """I >= alpha: Re z >= alpha throughout, and k = 0 where Re z = alpha."""
    cut = exact_extended(alpha) * I.D
    return all(n > cut or (n == cut and k == 0) for n, _, k in I.points)


# ---------------------------------------------------------------------------
# index families


_B_FACES = ("lf", "rf", "bf")
_PHI_FACES = ("lf", "rf", "bf", "ff")
_FAMILY_FIELDS = frozenset(("kind",) + _PHI_FACES)


@dataclass(frozen=True)
class IndexFamily:
    """An index set per boundary face of a blown-up double space.

    b-type families carry faces (lf, rf, bf); phi-type families add ff.
    """

    kind: str  # "b" | "phi"
    lf: IndexSet = EMPTY
    rf: IndexSet = EMPTY
    bf: IndexSet = EMPTY
    ff: IndexSet | None = None

    def __post_init__(self):
        if self.kind not in ("b", "phi"):
            raise ValueError(f"family kind must be 'b' or 'phi', got {self.kind!r}")
        if self.kind == "b" and self.ff is not None:
            raise ValueError("b-type family must not carry an ff index set")
        if self.kind == "phi" and self.ff is None:
            raise ValueError("phi-type family must carry an ff index set")

    @property
    def faces(self) -> tuple[str, ...]:
        return _B_FACES if self.kind == "b" else _PHI_FACES

    def face(self, name: str) -> IndexSet:
        if name not in self.faces:
            raise KeyError(f"{self.kind}-type family has no face {name!r}")
        return getattr(self, name)

    def replace(self, **updates) -> "IndexFamily":
        return replace(self, **updates)

    def to_json(self) -> dict:
        out = {"kind": self.kind}
        for f in self.faces:
            out[f] = self.face(f).to_json()
        return out

    @staticmethod
    def from_json(data: dict) -> "IndexFamily":
        kind = json_object(data, _FAMILY_FIELDS, "index family")["kind"]
        faces = _B_FACES if kind == "b" else _PHI_FACES
        return IndexFamily(kind, *(IndexSet.from_json(data[f]) for f in faces))

    def __repr__(self) -> str:
        inner = ", ".join(f"{f}={self.face(f)!r}" for f in self.faces)
        return f"IndexFamily({self.kind}; {inner})"


@lru_cache(maxsize=2)
def small_family(kind: str) -> IndexFamily:
    """The index family of the small calculus: all empty except bf=0 (b-type)
    or ff=0 (phi-type).  Made once per kind and shared: a family is frozen."""
    if kind == "b":
        return IndexFamily("b", lf=EMPTY, rf=EMPTY, bf=real_set(0))
    return IndexFamily("phi", lf=EMPTY, rf=EMPTY, bf=EMPTY, ff=real_set(0))
