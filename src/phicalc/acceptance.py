"""The numbered acceptance suite behind the ``verify-paper`` command.

Each criterion is a self-contained check with its own independent oracle:
brute-force closure enumeration for the index algebra, a second
implementation of the composition combination working on finite
truncations, exact quadratic roots for the model spectrum and decay
checks, and the closed-form product-gap identity.  Every criterion returns
a result with a PASS/FAIL verdict, details, and its runtime.
"""

from __future__ import annotations

import functools
import json
import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .indexsets import EMPTY, IndexFamily, add, extended_union, make_index_set, real_set
from .opclasses import GeomConstants, RuleApp, compose, full_class, replay_chain
from .parametrix import (
    check_weight,
    fredholm_report,
    gauss_bonnet_split,
    hodge_split,
    parametrix_report,
)
from .models import (
    IndicialFamily,
    ModelGeometry,
    imspec,
    imspec_roots,
    normal_family_gap,
    verify_predictions,
)

__all__ = ["CriterionResult", "run_all", "CRITERIA"]


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    elapsed: float
    limit: float
    details: dict = field(default_factory=dict)

    @property
    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} criterion {self.number}: {self.name} ({self.elapsed:.2f}s)"

    def to_json(self):
        return {
            "criterion": self.number,
            "name": self.name,
            "verdict": "PASS" if self.passed else "FAIL",
            "elapsed_s": round(self.elapsed, 3),
            "limit_s": self.limit,
            "details": self.details,
        }


def _criterion(number: int, name: str, limit: float):
    """Turn a check ``model -> (ok, details)`` into a criterion: timed, and
    passed only when the check holds within ``limit`` seconds."""

    def wrap(check):
        @functools.wraps(check)
        def run(model=None) -> CriterionResult:
            t0 = time.perf_counter()
            ok, details = check(model)
            elapsed = time.perf_counter() - t0
            return CriterionResult(number, name, ok and elapsed < limit, elapsed, limit, details)

        return run

    return wrap


# ---------------------------------------------------------------------------
# truncation-level oracle helpers (independent of the canonical algebra);
# members keep the exact exponents of the generators, so sums of thirds
# meet the closure of their exact total


def _enum_closure(generators, re_max, step=1):
    """Members (re, im, k) of the closure with re <= re_max.  ``step`` is
    the unit exponent step: D when exponents are scaled by D."""
    out = set()
    for (re, im, k) in generators:
        while re <= re_max:
            for kk in range(k + 1):
                out.add((re, im, kk))
            re += step
    return out


def _enum_add(A, B, re_max):
    out = set()
    for (ra, ia, ka) in A:
        for (rb, ib, kb) in B:
            if ra + rb <= re_max:
                out.add((ra + rb, ia + ib, ka + kb))
    return out


def _enum_eu(A, B, re_max):
    out = set(A) | set(B)
    max_a: dict = {}
    for (re, im, k) in A:
        key = (re, im)
        max_a[key] = max(max_a.get(key, -1), k)
    for (re, im, k) in B:
        key = (re, im)
        if key in max_a:
            for kk in range(max_a[key] + k + 2):
                out.add((re, im, kk))
    return {m for m in out if m[0] <= re_max}


def _enum_shift(A, r, re_max):
    return {(re + r, im, k) for (re, im, k) in A if re + r <= re_max}


# ---------------------------------------------------------------------------
# criterion 1: index algebra


@_criterion(1, "index-set algebra vs brute-force closure", 10.0)
def criterion_1(model):
    details: dict = {}
    ok = True

    I = make_index_set([((Fraction(1, 2), 0), 1), ((2, 0), 0)])
    identities = {
        "eu_empty": extended_union(I, EMPTY) == I and extended_union(EMPTY, I) == I,
        "add_empty": add(I, EMPTY) == EMPTY,
        "empty_plus_real": add(EMPTY, real_set(3)) == EMPTY,
        "add_identity": add(I, real_set(0)) == I,
    }
    ok &= all(identities.values())
    details["empty_identities"] = identities

    rng = random.Random(1_000_003)
    cutoff = 8
    mismatches = 0
    for _ in range(1000):
        gens = []
        for _ in range(rng.randrange(0, 4)):
            re = Fraction(rng.randrange(-8, 12), 2)
            im = rng.choice([0, 0, 0, 1, -1])
            gens.append(((re, im), rng.randrange(0, 3)))
        I = make_index_set(gens)
        oracle = _enum_closure([(g[0], g[1], g[2]) for g in I.generators], cutoff)
        # also close the raw generators: canonicalization must not change it
        raw = _enum_closure([(re, im, k) for ((re, im), k) in gens], cutoff)
        if oracle != raw:
            mismatches += 1
    ok &= mismatches == 0
    details["random_sets"] = {"count": 1000, "mismatches": mismatches}
    return ok, details


# ---------------------------------------------------------------------------
# criterion 2: composition reproduction


def _random_family(rng) -> IndexFamily:
    def face(min_re=None):
        if rng.random() < 0.25:
            return EMPTY
        gens = []
        for _ in range(rng.randrange(1, 3)):
            lo = 1 if min_re else -2
            re = Fraction(rng.randrange(2 * lo, 7), 2)
            gens.append(((re, 0), rng.randrange(0, 2)))
        return make_index_set(gens)

    # keep the pairing integrable: rf and lf faces bounded below by 1/2
    return IndexFamily("phi", lf=face(min_re=True), rf=face(min_re=True), bf=face(), ff=face())


def _display_reach(I: IndexFamily, J: IndexFamily, cutoff):
    """How far the closures of ``_display_compose`` are enumerated: a member
    above cutoff - min(0, m), m the smallest real part over the eight
    faces, is in no sum at or below the cutoff (the A-shift only raises)."""
    return cutoff - min(0, *(F.face(name).min_re() for F in (I, J) for name in F.faces))


def _display_compose(I: IndexFamily, J: IndexFamily, A, cutoff):
    """Second implementation of the composite family, straight from the
    displayed combination: extended unions of shifted sums, evaluated on
    finite truncations up to :func:`_display_reach`.

    Real parts are multiplied by the common denominator D of all
    generators, so the enumeration adds integers; returns D and the four
    truncations in that scale."""
    D = math.lcm(*(Fraction(g[0]).denominator for F in (I, J) for name in F.faces
                   for g in F.face(name).generators))
    cutoff, reach, A = cutoff * D, _display_reach(I, J, cutoff) * D, A * D

    def closure(face):
        return _enum_closure([(int(re * D), im, k) for (re, im, k) in face.generators], reach, D)

    e = {name: closure(I.face(name)) for name in I.faces}
    g = {name: closure(J.face(name)) for name in J.faces}

    def eu(*sets):
        acc = sets[0]
        for s in sets[1:]:
            acc = _enum_eu(acc, s, reach)
        return acc

    Klf = eu(e["lf"], _enum_add(e["bf"], g["lf"], reach), _enum_add(e["ff"], g["lf"], reach))
    Krf = eu(g["rf"], _enum_add(e["rf"], g["bf"], reach), _enum_add(e["rf"], g["ff"], reach))
    Kbf = eu(
        _enum_add(e["lf"], g["rf"], reach),
        _enum_add(e["bf"], g["bf"], reach),
        _enum_add(e["ff"], g["bf"], reach),
        _enum_add(e["bf"], g["ff"], reach),
    )
    Kff = eu(
        _enum_shift(_enum_add(e["lf"], g["rf"], reach), A, reach),
        _enum_shift(_enum_add(e["bf"], g["bf"], reach), A, reach),
        _enum_add(e["ff"], g["ff"], reach),
    )
    trunc = lambda S: {m for m in S if m[0] <= cutoff}
    return D, {"lf": trunc(Klf), "rf": trunc(Krf), "bf": trunc(Kbf), "ff": trunc(Kff)}


@_criterion(2, "composite index families vs direct combination on truncations", 30.0)
def criterion_2(model):
    rng = random.Random(2_000_003)
    cutoff = 6
    mismatches = []
    count = 0
    for _ in range(200):
        I, J = _random_family(rng), _random_family(rng)
        for a in (1, 2):
            for b_dim in (1, 2):
                count += 1
                geom = GeomConstants(a, b_dim)
                got = compose(full_class("phi", 0, I), full_class("phi", 0, J), geom)
                D, want = _display_compose(I, J, geom.A, cutoff)
                for name in ("lf", "rf", "bf", "ff"):
                    mine = {(re * D, im, k) for (re, im, k) in got.spec.face(name).truncate(cutoff)}
                    if mine != want[name]:
                        mismatches.append((name, I.to_json(), J.to_json(), a, b_dim))
    return not mismatches, {"pairs": 200, "evaluations": count, "mismatches": len(mismatches)}


# ---------------------------------------------------------------------------
# criterion 3: parametrix replay


_EXACT_LABELS = {
    "diag-parametrix",
    "diag-remainder",
    "offdiag-times-diag-parametrix",
    "offdiag-correction",
    "remainder-cross-terms",
    "squared-offdiag-terms",
    "lfsolve-correction",
    "neumann-tail-products-diag",
    "neumann-tail-products-offdiag",
    "lfsolve-times-tail",
    "boundary-remainder",
    "interior-smoothing-product",
    "final-right-remainder",
    "final-left-remainder",
}


@_criterion(3, "five-step parametrix replay matches the stated classes", 5.0)
def criterion_3(model):
    """Each report passes, its exact assertions are exact, and every record
    of its chains, read back from the report's JSON, replays."""
    spec = [-2, -1, 0, 1, 2]
    failures = []
    runs = records = 0
    for a in (1, 2):
        for mk, m in ((gauss_bonnet_split, 1), (hodge_split, 2)):
            op = mk(a=a, b_dim=1, imspec=spec)
            for alpha in (-0.5, 0, 0.5, 1.3):
                if not check_weight(op, alpha):
                    continue
                runs += 1
                rep = json.loads(json.dumps(parametrix_report(op, alpha)))
                if rep["verdict"] != "PASS":
                    failures.append((a, m, alpha, "verdict"))
                for step in rep["steps"]:
                    for assertion in step["assertions"]:
                        if assertion["verdict"] != "PASS":
                            failures.append((a, m, alpha, assertion["label"]))
                        if assertion["label"] in _EXACT_LABELS and not assertion["exact"]:
                            failures.append((a, m, alpha, assertion["label"] + ":not-exact"))
                        chain = [RuleApp.from_json(r) for r in assertion["chain"]]
                        records += len(chain)
                        if not replay_chain(chain, op.geom):
                            failures.append((a, m, alpha, assertion["label"] + ":replay"))
    # 13 admissible (a, m, alpha) combinations: alpha = 0 is admissible
    # only for am = 4, where alpha - am clears the integer spectrum
    details = {"instances": runs, "records_replayed": records, "failures": failures[:8]}
    return not failures and runs == 13, details


# ---------------------------------------------------------------------------
# criterion 4: model spectrum


@_criterion(4, "scalar-component critical weights are the integers, double root at 0", 60.0)
def criterion_4(model: ModelGeometry):
    fam = IndicialFamily(model, "scalar", "b")
    pts = imspec(fam, window=(-2.5, 2.5), mode_cutoff=3)
    roots = imspec_roots(pts)
    want = [-2.0, -1.0, 0.0, 1.0, 2.0]
    ok = len(roots) == len(want) and all(abs(g - w) < 1e-8 for g, w in zip(roots, want))
    zero = [p for p in pts if abs(p.lambda_root) < 1e-8]
    ok &= bool(zero) and zero[0].pole_order_k == 1
    return ok, {"roots": roots, "pole_order_k_at_0": zero[0].pole_order_k if zero else None}


# ---------------------------------------------------------------------------
# criterion 5: normal-family gap


@_criterion(5, "normal-family gap equals the product identity on the grid", 30.0)
def criterion_5(model: ModelGeometry):
    import numpy as np

    taus = np.linspace(-5, 5, 21)
    etas = np.linspace(-5, 5, 21)
    rep = normal_family_gap(model, taus, etas)
    lam1 = model.smallest_fiber_eigenvalue()
    tau, *eta = np.meshgrid(rep.taus, *[rep.etas] * model.b, indexing="ij")
    oracle = np.sqrt(lam1 + tau**2 + sum(v * v for v in eta))
    worst = float(np.abs(rep.gaps - oracle).max())
    ok = worst < 1e-6 and rep.normal_invertible
    return ok, {"max_error": worst, "min_gap": rep.min_gap, "grid": "21x21 on [-5,5]^2"}


# ---------------------------------------------------------------------------
# criterion 6: decay verification


@_criterion(6, "fitted decay exponents match the separated-mode predictions", 300.0)
def criterion_6(model: ModelGeometry):
    rep = verify_predictions(model)
    return rep.passed, {"checks": rep.checks, "convergence_ratios": list(rep.convergence_ratios),
                        "rows": rep.rows}


# ---------------------------------------------------------------------------
# criterion 7: Fredholm gates


@_criterion(7, "Fredholm gates flag exactly the critical weights on the sweep", 5.0)
def criterion_7(model: ModelGeometry):
    pts = imspec(IndicialFamily(model, "scalar", "b"), window=(-3.5, 4.5), mode_cutoff=4)
    spectrum = imspec_roots(pts)
    spec_ints = {int(round(s)) for s in spectrum}
    op = gauss_bonnet_split(a=model.a, b_dim=model.b, imspec=spectrum)
    am = op.am
    wrong = []
    for k in range(-30, 31):
        alpha = k / 10.0
        rep = fredholm_report(op, alpha)
        want_primal = not (k % 10 == 0 and (k // 10 - am) in spec_ints)
        want_dual = not (k % 10 == 0 and (k // 10) in spec_ints)
        if rep["primal"]["fredholm"] != want_primal or rep["dual"]["fredholm"] != want_dual:
            wrong.append(alpha)
    return not wrong, {"sweep": "[-3, 3] step 0.1", "wrong": wrong, "spectrum": sorted(spec_ints)}


CRITERIA = [criterion_1, criterion_2, criterion_3, criterion_4, criterion_5, criterion_6, criterion_7]


def run_all(model: ModelGeometry | None = None, printer=print) -> list:
    """Run every criterion against the model; print one line per verdict."""
    model = model or ModelGeometry()
    results = []
    for crit in CRITERIA:
        res = crit(model)
        results.append(res)
        if printer is not None:
            printer(res.line)
    return results
