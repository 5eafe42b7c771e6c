"""The benchmark's three workloads.

Each workload builds, from the seed, a fixed list of short operations (one
round) and checks every output of a round against :mod:`oracle` or a
property the method must have.  An operation is ``fn(call, count)``:
``call(layer_span, function, *args)`` is how it calls into the library, and
``count(counter, n)`` records work done at that boundary.  In untraced
rounds ``call`` only calls and ``count`` does nothing.

``phicalc`` is imported inside ``setup`` so that the import is timed as
set-up.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import oracle

OK, FAILED, WRONG = "ok", "failed", "wrong"


@dataclass
class Op:
    kind: str
    fn: Callable
    data: tuple = ()


class Workload:
    name = ""
    tail_pct = 0.0  # op_tail_ms: the highest percentile with ten operations beyond it
    calibration = "python"  # the calibrate unit that matches the workload's work
    cal_every = 1  # operations between two calibration calls

    def __init__(self):
        self.ops: list = []
        # the operations in the order they were built, before the seed
        # shuffles them: set-up warms up on the first of each kind here, so
        # that its cost does not hinge on which operations a seed puts first
        self.built: list = []

    def setup(self, seed: int, call) -> None:
        raise NotImplementedError

    def instrument(self, on: bool) -> None:
        """Attach (or detach) counters the traced rounds read."""

    def digest(self, op: Op, out):
        """What the check needs of an output, taken right after the
        operation so that large outputs are not kept for the whole round."""
        return out

    def check_round(self, outputs: list) -> list:
        """One status per operation: OK, FAILED (a known fault) or WRONG."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# algebra: index sets and composite phi index families


CUTOFF = 6  # truncation cutoff of the oracle checks
DEPTH = 2  # the truncate and compose ops keep the orders re <= lowest re + DEPTH
FACES = ("lf", "rf", "bf", "ff")

# Round trips that fail today: to_json writes a non-integer Fraction as a
# float, so these sets read back unequal.  Fixed, so that the failed share
# of a round does not depend on the seed.
NONDYADIC = [
    [((Fraction(1, 3), 0), 0)],
    [((Fraction(2, 3), 0), 1)],
    [((Fraction(-1, 3), 0), 0), ((Fraction(1, 2), 0), 1)],
    [((Fraction(5, 3), 1), 2)],
    [((Fraction(1, 6), 0), 0), ((2, 0), 1)],
    [((Fraction(-4, 3), -1), 1), ((Fraction(7, 3), 0), 0)],
]


def _deck(rng, n):
    """n generator counts, 0..3 equally often (up to one), in seeded order.
    A fixed mix of sizes keeps the median operation from hinging on how many
    large sets a seed happens to draw."""
    return rng.sample([i % 4 for i in range(n)], n)


def _gens(rng, lo, hi, n, dens=(1, 2, 3), imag=True, positive=False):
    """n generators ((re, im), k): re in [lo, hi] with a denominator from
    dens (re > 0 when positive), im in {0, +-1}, log power 0..2."""
    out = []
    for _ in range(n):
        q = rng.choice(dens)
        re = Fraction(rng.randrange(lo * q + (1 if positive else 0), hi * q + 1), q)
        im = rng.choice((0, 0, 0, 1, -1)) if imag else 0
        out.append(((re, im), rng.randrange(3)))
    return out


def _depth_cut(trunc: oracle.Trunc):
    """Truncation cutoff DEPTH orders above the lowest exponent.  Relative
    cutoffs keep the cost of a truncation from hinging on how low a random
    exponent happens to fall."""
    return 0 if trunc.lo is None else trunc.lo + DEPTH


class Algebra(Workload):
    name = "algebra"
    tail_pct = 99.0
    cal_every = 40
    N_MAKE, N_PAIR, N_SHIFT, N_TRUNC, N_JSON, N_COMPOSE = 1200, 600, 600, 600, 394, 1600

    def setup(self, seed, call):
        from phicalc.indexsets import IndexFamily, IndexSet, add, extended_union, make_index_set, shift
        from phicalc.opclasses import GeomConstants, compose, full_class

        rng = random.Random(seed)
        draw = lambda n: _gens(rng, -3, 5, n)

        def gen_count(call, count, span, fn, *args):
            out = call(span, fn, *args)
            count("indexsets.generators", len(out.generators))
            return out

        def roundtrip(I):
            return IndexSet.from_json(I.to_json())

        def compose_op(call, count, P, Q, geom, cuts):
            K = call("opclasses.compose", compose, P, Q, geom)
            faces = tuple(call("indexsets.truncate", K.spec.face(f).truncate, c) for f, c in zip(FACES, cuts))
            count("opclasses.compose_calls", 1)
            count("opclasses.terms", sum(map(len, faces)))
            return K, faces

        ops = []
        for n in _deck(rng, self.N_MAKE):
            gens = draw(n)
            shuffled = gens[:]
            rng.shuffle(shuffled)
            ops.append(Op("make", lambda c, n, g=shuffled: gen_count(c, n, "indexsets.make", make_index_set, g),
                          (gens,)))
        for kind, span, fn in (("add", "indexsets.add", add),
                               ("union", "indexsets.union", extended_union)):
            for ni, nj in zip(_deck(rng, self.N_PAIR), _deck(rng, self.N_PAIR)):
                gi, gj = draw(ni), draw(nj)
                I, J = make_index_set(gi), make_index_set(gj)
                ops.append(Op(kind, lambda c, n, s=span, f=fn, I=I, J=J: gen_count(c, n, s, f, I, J),
                              (gi, gj, I, J, fn)))
        for n in _deck(rng, self.N_SHIFT):
            g = draw(n)
            q = rng.choice((1, 2, 3))
            r = Fraction(rng.randrange(-3 * q, 3 * q + 1), q)
            I = make_index_set(g)
            ops.append(Op("shift", lambda c, n, I=I, r=r: gen_count(c, n, "indexsets.shift", shift, I, r),
                          (g, r)))
        for n in _deck(rng, self.N_TRUNC):
            g = draw(n)
            I, cut = make_index_set(g), _depth_cut(oracle.closure(g))
            ops.append(Op("truncate", lambda c, n, I=I, cut=cut: c("indexsets.truncate", I.truncate, cut),
                          (g, cut)))
        json_sets = [(make_index_set(_gens(rng, -3, 5, n, dens=(1, 2))), False)
                     for n in _deck(rng, self.N_JSON)]
        json_sets += [(make_index_set(g), True) for g in NONDYADIC]
        for I, nondyadic in json_sets:
            ops.append(Op("json", lambda c, n, I=I: gen_count(c, n, "indexsets.json", roundtrip, I),
                          (I, nondyadic)))
        decks = [{f: _deck(rng, self.N_COMPOSE) for f in FACES} for _ in range(2)]
        for i in range(self.N_COMPOSE):
            raw, cls = [], []
            for deck in decks:
                # lf and rf positive, so that every pairing is integrable
                faces = {f: _gens(rng, 0 if f in ("lf", "rf") else -2, 3, deck[f][i], imag=False,
                                  positive=f in ("lf", "rf")) for f in FACES}
                raw.append(faces)
                cls.append(full_class("phi", 0, IndexFamily("phi", **{f: make_index_set(g) for f, g in faces.items()})))
            geom = GeomConstants(1 + i % 2, 1 + i // 2 % 2)
            closures = [{f: oracle.closure(g) for f, g in faces.items()} for faces in raw]
            want = oracle.compose_faces(*closures, geom.A)
            cuts = tuple(_depth_cut(want[f]) for f in FACES)
            ops.append(Op("compose", lambda c, n, P=cls[0], Q=cls[1], g=geom, cuts=cuts:
                          compose_op(c, n, P, Q, g, cuts), (want, cuts)))
        self.built = ops[:]
        rng.shuffle(ops)
        self.ops = ops
        self._make = make_index_set
        self._first: list | None = None

    def _check(self, op, out) -> str:
        trunc = lambda gens, cut=CUTOFF: oracle.closure(gens).members(cut)
        if op.kind == "make":
            (gens,) = op.data
            ok = out == self._make(gens) and oracle.same_members(out.truncate(CUTOFF), trunc(gens))
        elif op.kind in ("add", "union"):
            gi, gj, I, J, fn = op.data
            law = oracle.add if op.kind == "add" else oracle.extended_union
            want = law(oracle.closure(gi), oracle.closure(gj)).members(CUTOFF)
            ok = out == fn(J, I) and oracle.same_members(out.truncate(CUTOFF), want)
        elif op.kind == "shift":
            gens, r = op.data
            want = oracle.shift(oracle.closure(gens), r).members(CUTOFF)
            ok = oracle.same_members(out.truncate(CUTOFF), want)
        elif op.kind == "truncate":
            gens, cut = op.data
            ok = oracle.same_members(out, trunc(gens, cut))
        elif op.kind == "json":
            I, nondyadic = op.data
            if out != I:
                return FAILED if nondyadic else WRONG
            ok = True
        else:  # compose
            want, cuts = op.data
            _, faces = out
            ok = all(oracle.same_members(got, want[f].members(c)) for f, c, got in zip(FACES, cuts, faces))
        return OK if ok else WRONG

    def check_round(self, outputs):
        # the first round is checked against the oracle; later rounds must
        # reproduce it exactly
        if self._first is None:
            self._first = [(out, self._check(op, out)) for op, out in zip(self.ops, outputs)]
        return [st if out == first else WRONG for out, (first, st) in zip(outputs, self._first)]


# ---------------------------------------------------------------------------
# replay: the five-step split parametrix and the Fredholm gates


ALPHAS = (-0.5, 0, 0.5, 1.3, 2.5)
SWEEP = tuple(k / 10 for k in range(-30, 31))
# assertions whose derived class must equal its combination-identity target
EXACT_LABELS = frozenset({
    "diag-parametrix", "diag-remainder", "offdiag-times-diag-parametrix",
    "offdiag-correction", "remainder-cross-terms", "squared-offdiag-terms",
    "lfsolve-correction", "neumann-tail-products-diag",
    "neumann-tail-products-offdiag", "lfsolve-times-tail", "boundary-remainder",
    "interior-smoothing-product", "final-right-remainder", "final-left-remainder",
})


class Replay(Workload):
    name = "replay"
    tail_pct = 93.0

    def setup(self, seed, call):
        from phicalc.parametrix import fredholm_report, gauss_bonnet_split, hodge_split, parametrix_report

        critical_sets = (
            [-2, -1, 0, 1, 2],
            # critical set of the scalar g-volume family of the unit model
            oracle.scalar_roots(1, 1, (2 * math.pi,), "g", (-5, 4), 2),
        )

        def report_op(call, count, op, alpha):
            rep = call("parametrix.report", parametrix_report, op, alpha)
            count("parametrix.assertions", sum(len(s["assertions"]) for s in rep["steps"]))
            return rep

        def sweep_op(call, count, op):
            return [call("parametrix.fredholm", fredholm_report, op, alpha) for alpha in SWEEP]

        ops = []
        for maker in (gauss_bonnet_split, hodge_split):
            for a in (1, 2, 3):
                for b_dim in (1, 2):
                    for crit in critical_sets:
                        op = maker(a=a, b_dim=b_dim, imspec=crit)
                        for alpha in ALPHAS:
                            ops.append(Op("report", lambda c, n, o=op, al=alpha: report_op(c, n, o, al),
                                          (op.am, crit, alpha)))
                        ops.append(Op("fredholm", lambda c, n, o=op: sweep_op(c, n, o), (op.am, crit)))
        self.built = ops[:]
        random.Random(seed).shuffle(ops)
        self.ops = ops

    def digest(self, op, out):
        if op.kind == "fredholm":
            return [(rep["primal"]["fredholm"], rep["dual"]["fredholm"]) for rep in out]
        assertions = [(x["label"], x["verdict"], x["exact"]) for s in out["steps"] for x in s["assertions"]]
        return out["weight_condition"]["admissible"], out["verdict"], assertions

    @staticmethod
    def _check(op, out) -> bool:
        if op.kind == "fredholm":
            am, crit = op.data
            return all(
                primal == oracle.off_critical(alpha - am, crit)
                and dual == oracle.off_critical(alpha, crit)
                for alpha, (primal, dual) in zip(SWEEP, out)
            )
        am, crit, alpha = op.data
        admissible, verdict, assertions = out
        if not oracle.off_critical(alpha - am, crit):
            return admissible is False and not assertions
        return (
            admissible is True
            and verdict == "PASS"
            and bool(assertions)
            and all(v == "PASS" for _, v, _ in assertions)
            and all(exact for label, _, exact in assertions if label in EXACT_LABELS)
        )

    def check_round(self, outputs):
        return [OK if self._check(op, out) else WRONG for op, out in zip(self.ops, outputs)]


# ---------------------------------------------------------------------------
# numerics: spectrum, normal-family gap, harmonic solves


WINDOW = (-5.0, 4.0)
MODE_CUTOFF = 2
FAMILIES = tuple((fam, vol) for fam in ("scalar", "gb", "hodge") for vol in ("b", "g"))
SOLVE_MODES = (((1,), (0,)), ((2,), (0,)), ((0,), (1,)), ((1,), (1,)))
RESIDUAL_N = (128, 256, 512)
SOLVE_N = 2048  # solve_harmonic's default grid


class _CountedMatrix:
    """Counts the indicial-matrix evaluations made on one family object."""

    def __init__(self, method):
        self.method = method
        self.n = 0

    def __call__(self, s, mode):
        self.n += 1
        return self.method(s, mode)


class Numerics(Workload):
    name = "numerics"
    tail_pct = 75.0
    calibration = "numeric"

    def setup(self, seed, call):
        from phicalc.models import (
            ModelGeometry, assemble_DV, discrete_residual, fit_exponents, imspec,
            normal_family_gap, solve_harmonic,
        )

        rng = random.Random(seed)
        two_pi = 2 * math.pi
        models = {
            "unit": ModelGeometry(),
            "a2": ModelGeometry(a=2),
            "circ53": ModelGeometry(base_circumferences=(5.0,), fiber_circumferences=(3.0,)),
        }
        self.models = models
        self.families = {}

        def build(model):
            builder = assemble_DV(model)
            return builder, {fv: builder.family(*fv) for fv in FAMILIES}

        def imspec_op(call, count, fam):
            before = getattr(fam.matrix, "n", 0)
            pts = call("spectrum.imspec", imspec, fam, WINDOW, MODE_CUTOFF)
            count("spectrum.roots", len(pts))
            count("spectrum.matrix_evals", getattr(fam.matrix, "n", 0) - before)
            return [(p.lambda_root, p.pole_order_k) for p in pts]

        def gap_op(call, count, model, taus, etas, points):
            rep = call("spectrum.gap", normal_family_gap, model, taus, etas)
            count("spectrum.gap_points", points)
            return rep.normal_invertible, [(r["tau"], r["eta"], r["gap"]) for r in rep.rows]

        def solve_op(call, count, model, mode, unknowns):
            sol = call("harmonic.solve", solve_harmonic, model, 0, mode)
            fit = call("harmonic.fit", fit_exponents, sol)
            count("harmonic.unknowns", unknowns)
            return fit.fitted_exponent, fit.superpolynomial_flag

        def residual_op(call, count, model, root, n):
            return call("harmonic.residual", discrete_residual, model, (1,), root, 0, (1.0, 6.0), n)

        def axis(points):
            # the identity holds everywhere, so the grid is moved by a seeded offset
            shift = rng.uniform(-0.25, 0.25)
            return [-5 + 10 * i / (points - 1) + shift for i in range(points)]

        def add_gap(key, model, points):
            # normal_family_gap uses the one eta axis for every base direction
            taus, etas = axis(points), axis(points)
            perp = len(model.fiber_modes(MODE_CUTOFF, nonzero=True))
            ops.append(Op("gap", lambda c, n, m=model, t=taus, e=etas, p=points ** (1 + model.b) * perp:
                          gap_op(c, n, m, t, e, p), (key, model)))

        ops = []
        for key, model in models.items():
            builder, fams = call("geometry.assemble", build, model)
            self.families[key] = (builder, fams)
            for fv, fam in fams.items():
                ops.append(Op("imspec", lambda c, n, f=fam: imspec_op(c, n, f), (key, fv)))
            add_gap(key, model, 21)
            unknowns = (SOLVE_N + 1) * model.form_dim
            for mode in SOLVE_MODES:
                ops.append(Op("solve", lambda c, n, m=model, md=mode, u=unknowns: solve_op(c, n, m, md, u),
                              (key, mode)))
            root = oracle.decay_exponent(model.a, model.f, two_pi / model.base_circumferences[0])
            for n in RESIDUAL_N:
                ops.append(Op("residual", lambda c, k, m=model, r=root, nn=n: residual_op(c, k, m, r, nn),
                              (key, n)))
        base2 = ModelGeometry(base_circumferences=(two_pi, two_pi))
        add_gap("base2", base2, 7)
        # model by model, in a fixed order: the peak memory of the sparse
        # solves depends on which operations run back to back
        self.ops = self.built = ops
        self._want: dict = {}

    def instrument(self, on):
        for _, fams in self.families.values():
            for fam in fams.values():
                if on and not isinstance(fam.matrix, _CountedMatrix):
                    fam.matrix = _CountedMatrix(fam.matrix)
                elif not on and isinstance(fam.matrix, _CountedMatrix):
                    del fam.matrix

    def _roots(self, key, fam, vol):
        """Oracle critical weights of one family, computed once."""
        if (key, fam, vol) not in self._want:
            m = self.models[key]
            if fam == "scalar":
                want = oracle.scalar_roots(m.a, m.f, m.base_circumferences, vol, WINDOW, MODE_CUTOFF)
            else:
                builder = self.families[key][0]
                want = oracle.pencil_roots(builder.gauss_bonnet(vol), m.b, MODE_CUTOFF, WINDOW)
            self._want[(key, fam, vol)] = want
        return self._want[(key, fam, vol)]

    def check_round(self, outputs):
        status = []
        residuals: dict = {}
        for op, out in zip(self.ops, outputs):
            if op.kind == "imspec":
                key, (fam, vol) = op.data
                ok = oracle.roots_agree([r for r, _ in out], self._roots(key, fam, vol))
                if (fam, vol) == ("scalar", "b"):
                    ok = ok and [k for r, k in out if abs(r) < 1e-8] == [1]
            elif op.kind == "gap":
                _, model = op.data
                lam1 = oracle.fiber_lambda1(model.fiber_circumferences)
                invertible, rows = out
                ok = invertible and all(
                    abs(g - oracle.gap_identity(lam1, tau, eta)) <= 1e-6 for tau, eta, g in rows
                )
            elif op.kind == "solve":
                key, (base, fiber) = op.data
                w, superpoly = out
                m = self.models[key]
                if any(fiber):
                    ok = superpoly
                else:
                    mu = math.sqrt(oracle.base_mu2(m.base_circumferences, base))
                    ok = not superpoly and oracle.exponent_agrees(w, oracle.decay_exponent(m.a, m.f, mu))
            else:
                key, n = op.data
                residuals.setdefault(key, {})[n] = out
                ok = None  # decided from the three grids below
            status.append(ok)
        for i, (op, ok) in enumerate(zip(self.ops, status)):
            if ok is None:
                r = residuals[op.data[0]]
                ratios = [r[RESIDUAL_N[j]] / r[RESIDUAL_N[j + 1]] for j in range(len(RESIDUAL_N) - 1)]
                ok = all(3.6 <= q <= 4.4 for q in ratios)
            status[i] = OK if ok else WRONG
        return status


WORKLOADS = {w.name: w for w in (Algebra, Replay, Numerics)}
