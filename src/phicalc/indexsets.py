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

The algebra is decided on the common-denominator lattice of the generators
at hand: with D the least common multiple of their denominators, every
exponent of the closures lies on (1/D)Z + i (1/D)Z, and scaled by D a
generator (re, im, k) is a point (n, m) of ints.  g reaches h exactly when
both lie in one class (m, n mod D) and g's n is not larger, so canonical
form, membership, containment, the extended union and truncation compare
and hash ints only.  The public types stay as they were: the generators of
an :class:`IndexSet` are the tuples it was built from, and exponents are
``int`` or ``Fraction``.  :meth:`IndexSet.truncate` converts back once per
member it returns, whole members to ``int`` (equal, with equal hashes, to
the ``Fraction(n, 1)`` a whole generator such as 1/2 + 3/2 carries, and
written the same way by :func:`number_to_json`).
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from typing import Sequence, Union

from .jsonio import json_list, json_object

__all__ = [
    "IndexSet",
    "IndexFamily",
    "EMPTY",
    "MAX_DENOMINATOR",
    "exact_real",
    "exact_extended",
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

    ``int`` and ``Fraction`` pass through.  A finite ``float`` becomes the
    fraction nearest to it with denominator at most ``MAX_DENOMINATOR``, an
    ``int`` when that is whole.  Booleans, NaN and infinities are rejected.
    """
    if isinstance(v, bool):
        raise TypeError("boolean is not a valid exponent part")
    if isinstance(v, (int, Fraction)):
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


def _log_power(k) -> int:
    """A log power: a nonnegative integer (booleans and floats rejected)."""
    if isinstance(k, bool):
        raise TypeError("log power must be an integer, got a boolean")
    k = operator.index(k)
    if k < 0:
        raise ValueError(f"log power must be nonnegative, got {k}")
    return k


# A generator is a triple (re, im, k) with k a nonnegative int.
Gen = tuple


def _lattice(gens: Sequence[Gen]) -> tuple[int, list[tuple[int, int]]]:
    """The common denominator D of the generators' real and imaginary parts,
    and each generator's (re, im) scaled by D to a pair of ints (n, m).
    Every exponent of their closures lies on (1/D)Z + i (1/D)Z, and g
    reaches the point (n, m) when it lies in g's class (m, n mod D) with
    g's n not larger."""
    D = math.lcm(*(g[0].denominator for g in gens), *(g[1].denominator for g in gens))
    return D, [
        (re.numerator * (D // re.denominator), im.numerator * (D // im.denominator))
        for (re, im, _) in gens
    ]


def _unscaled(n: int, D: int) -> Exact:
    """n / D, an int when it is whole."""
    q, r = divmod(n, D)
    return q if r == 0 else Fraction(n, D)


def _canonical(gens: Sequence[Gen]) -> tuple[Gen, ...]:
    """The generators sorted, with every one dominated by another removed.

    On the lattice of :func:`_lattice`, in (n, m, -k) order each generator
    comes after every generator that dominates it, so h is kept when its log
    power exceeds every earlier one of its class.
    """
    if len(gens) < 2:
        return tuple(gens)
    D, points = _lattice(gens)
    best: dict = {}
    kept: list[Gen] = []
    # the index breaks ties in input order, as a stable sort would
    for n, m, negk, i in sorted(
        (n, m, -g[2], i) for i, ((n, m), g) in enumerate(zip(points, gens))
    ):
        cls = (m, n % D)
        if -negk > best.get(cls, -1):
            best[cls] = -negk
            kept.append(gens[i])
    return tuple(kept)


@dataclass(frozen=True)
class IndexSet:
    """Canonical index set given by its minimal generators.

    ``generators`` is a sorted tuple of (re, im, k) triples, none dominated
    by another.  The empty tuple represents the empty index set.
    """

    generators: tuple = ()

    @property
    def is_empty(self) -> bool:
        return not self.generators

    def member(self, z, k: int = 0) -> bool:
        """Decide membership of (z, k) in the closed set."""
        re, im = _split_exponent(z)
        return self.issuperset(IndexSet(((re, im, _log_power(k)),)))

    def issuperset(self, other: "IndexSet") -> bool:
        """Whether the closure of ``other`` lies in this closed set: each of
        its generators is dominated by one of ours, so adding them leaves
        our canonical form as it is."""
        gens = self.generators
        return not other.generators or _canonical(gens + other.generators) == gens

    def min_re(self) -> RealLike:
        """Smallest real part among minimal elements (inf for the empty set)."""
        return self.generators[0][0] if self.generators else float("inf")

    def truncate(self, re_max: RealLike = 10) -> list[tuple[Exact, Exact, int]]:
        """All members (re, im, k) with re <= re_max, sorted.

        Used for display and serialization of the (infinite) closed set.
        Whole real and imaginary parts come out as ``int``.  Each generator
        walks its ray n, n + D, ... of scaled real parts up to re_max D,
        keeping the largest log power per scaled point (n, m).
        """
        gens = self.generators
        D, points = _lattice(gens)
        top = math.floor(exact_real(re_max) * D)
        kmax: dict = {}
        for (n0, m), g in zip(points, gens):
            k = g[2]
            for n in range(n0, top + 1, D):
                if kmax.get((n, m), -1) < k:
                    kmax[n, m] = k
        out = []
        for (n, m), k in sorted(kmax.items()):
            re, im = _unscaled(n, D), _unscaled(m, D)
            out.extend((re, im, kk) for kk in range(k + 1))
        return out

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


def number_to_json(v: RealLike):
    """JSON form of an extended real: an int when it is whole, "p/q" for
    any other Fraction, "inf" and "-inf" for the infinities, and any other
    float as it is."""
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
        gens.append((re, im, _log_power(k)))
    return IndexSet(_canonical(gens))


def real_set(r: RealLike) -> IndexSet:
    """The index set written shorthand as a real number: (r + N0) x {0}."""
    return make_index_set([(r, 0)])


def add(I: IndexSet, J: IndexSet) -> IndexSet:
    """Set addition {(z + z', k + k')}; the empty set is absorbing."""
    if I.is_empty or J.is_empty:
        return EMPTY
    gens = [
        (g[0] + h[0], g[1] + h[1], g[2] + h[2])
        for g in I.generators
        for h in J.generators
    ]
    return IndexSet(_canonical(gens))


def extended_union(I: IndexSet, J: IndexSet) -> IndexSet:
    """Extended union: I u J plus (z, l1 + l2 + 1) at shared exponents z.

    The log boost applies at every exponent of the *closed* sets, not just
    at generator exponents; the generator exponents of I and J are all the
    points where the combined maximal log power can jump.
    """
    if I.is_empty:
        return J
    if J.is_empty:
        return I
    both = I.generators + J.generators
    D, points = _lattice(both)
    # per set, class (m, n mod D) -> its generators (n, k); a point (n, m)
    # of the class has the largest log power among those with n' <= n
    buckets: tuple[dict, dict] = ({}, {})
    split = len(I.generators)
    for i, ((n, m), g) in enumerate(zip(points, both)):
        buckets[i >= split].setdefault((m, n % D), []).append((n, g[2]))
    gens = []
    for (n, m), g in zip(points, both):
        cls = (m, n % D)
        mi, mj = (
            max((k for (n2, k) in b.get(cls, ()) if n2 <= n), default=-1) for b in buckets
        )
        gens.append((g[0], g[1], mi + mj + 1 if mi >= 0 and mj >= 0 else max(mi, mj)))
    return IndexSet(_canonical(gens))


def shift(I: IndexSet, r: RealLike) -> IndexSet:
    """Shift every exponent by the real number r (empty set unchanged).

    A common shift keeps the generators' order and domination, hence the
    canonical form."""
    r = exact_real(r)
    return IndexSet(tuple((g[0] + r, g[1], g[2]) for g in I.generators))


def scale(I: IndexSet, a: int) -> IndexSet:
    """Map the minimal elements by (z, k) -> (a z, k), then re-close.

    The scaling acts on minimal generators and the result is the closure of
    the scaled generators (integer steps, not steps of a).
    """
    if not isinstance(a, int) or a < 1:
        raise ValueError(f"scale factor must be a positive integer, got {a!r}")
    return IndexSet(_canonical([(a * g[0], a * g[1], g[2]) for g in I.generators]))


def exact_extended(v: RealLike):
    """An extended real: exact as by :func:`exact_real`, except that +-inf
    stays as it is (comparison thresholds, operator orders, x-powers)."""
    if isinstance(v, float) and math.isinf(v):
        return v
    return exact_real(v)


def greater_than(I: IndexSet, alpha: RealLike) -> bool:
    """I > alpha: every element has Re z > alpha.  Empty set: True."""
    alpha = exact_extended(alpha)
    return all(g[0] > alpha for g in I.generators)


def geq(I: IndexSet, alpha: RealLike) -> bool:
    """I >= alpha: Re z >= alpha throughout, and k = 0 where Re z = alpha."""
    alpha = exact_extended(alpha)
    return all(g[0] > alpha or (g[0] == alpha and g[2] == 0) for g in I.generators)


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
