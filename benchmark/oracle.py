"""Independent oracles for the benchmark's correctness checks.

Nothing here uses the canonical-generator algebra of ``phicalc``, its
acceptance suite or the test-suite oracles.  Index sets are handled as
finite truncations enumerated straight from the closure rules, in exact
``Fraction`` arithmetic (no rounding, no tolerance), and the composite
index family is rebuilt from the displayed four-face combination formulas.
The numerical oracles are closed forms (scalar mode quadratics, the
normal-family gap identity, the decay exponent) and the real eigenvalues of
the Gauss-Bonnet pencil M(lambda) = lambda A + B, read off from two
evaluations of the indicial family.

``python3 benchmark/oracle.py`` runs :func:`selftest`, which shows that each
check rejects a perturbed answer.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

# ---------------------------------------------------------------------------
# index sets on truncations


class Trunc:
    """An index set known through its lowest real part and an enumerator of
    its members (re, im, k) with re <= cutoff.  ``lo`` is None for the empty
    set."""

    __slots__ = ("lo", "_members")

    def __init__(self, lo, members):
        self.lo = lo
        self._members = members

    def members(self, cutoff) -> set:
        if self.lo is None or self.lo > cutoff:
            return set()
        return self._members(Fraction(cutoff))


def closure(generators) -> Trunc:
    """The closure of raw generators ((re, im), k) under z -> z + 1 and
    k -> k - 1; dominated or repeated generators are harmless here."""
    gens = [(Fraction(re), Fraction(im), int(k)) for (re, im), k in generators]
    if not gens:
        return Trunc(None, None)

    def members(c):
        out = set()
        for re, im, k in gens:
            n = 0
            while re + n <= c:
                for kk in range(k + 1):
                    out.add((re + n, im, kk))
                n += 1
        return out

    return Trunc(min(g[0] for g in gens), members)


def add(A: Trunc, B: Trunc) -> Trunc:
    """Pairwise sums {(z + z', k + k')}; empty is absorbing."""
    if A.lo is None or B.lo is None:
        return Trunc(None, None)

    def members(c):
        return {
            (ra + rb, ia + ib, ka + kb)
            for (ra, ia, ka) in A.members(c - B.lo)
            for (rb, ib, kb) in B.members(c - A.lo)
            if ra + rb <= c
        }

    return Trunc(A.lo + B.lo, members)


def _max_logs(members) -> dict:
    best: dict = {}
    for re, im, k in members:
        best[(re, im)] = max(best.get((re, im), -1), k)
    return best


def extended_union(A: Trunc, B: Trunc) -> Trunc:
    """A u B plus (z, l_A(z) + l_B(z) + 1) at every exponent z of both."""
    if A.lo is None:
        return B
    if B.lo is None:
        return A

    def members(c):
        ma, mb = A.members(c), B.members(c)
        out = ma | mb
        la, lb = _max_logs(ma), _max_logs(mb)
        for z in la.keys() & lb.keys():
            for kk in range(la[z] + lb[z] + 2):
                out.add((z[0], z[1], kk))
        return out

    return Trunc(min(A.lo, B.lo), members)


def shift(A: Trunc, r) -> Trunc:
    r = Fraction(r)
    if A.lo is None:
        return A

    def members(c):
        return {(re + r, im, k) for (re, im, k) in A.members(c - r)}

    return Trunc(A.lo + r, members)


def compose_faces(I: dict, J: dict, A: int) -> dict:
    """Composite phi-family of two phi-families given face -> Trunc, from the
    displayed combination formulas with A = a (b_dim + 1)."""
    eu = extended_union

    def union(*sets):
        acc = sets[0]
        for s in sets[1:]:
            acc = eu(acc, s)
        return acc

    return {
        "lf": union(I["lf"], add(I["bf"], J["lf"]), add(I["ff"], J["lf"])),
        "rf": union(J["rf"], add(I["rf"], J["bf"]), add(I["rf"], J["ff"])),
        "bf": union(
            add(I["lf"], J["rf"]),
            add(I["bf"], J["bf"]),
            add(I["ff"], J["bf"]),
            add(I["bf"], J["ff"]),
        ),
        "ff": union(
            shift(add(I["lf"], J["rf"]), A),
            shift(add(I["bf"], J["bf"]), A),
            add(I["ff"], J["ff"]),
        ),
    }


def same_members(got, want) -> bool:
    """Exact agreement of a library truncation (a list of members) with an
    oracle member set: same members, none repeated."""
    got = list(got)
    return len(got) == len(set(got)) and set(got) == want


# ---------------------------------------------------------------------------
# critical weights, gap and decay in closed form


def base_mu2(base_circumferences, mode) -> float:
    return sum((2 * math.pi * j / L) ** 2 for j, L in zip(mode, base_circumferences))


def scalar_roots(a, f, base_circumferences, volume, window, mode_cutoff) -> list:
    """Roots in the window of the scalar mode quadratics over all base modes
    with entries bounded by the cutoff: s = +-mu for the b-volume and
    s^2 + a f s - mu^2 = 0 for the g-volume."""
    lo, hi = window
    roots = []
    for mode in product(range(-mode_cutoff, mode_cutoff + 1), repeat=len(base_circumferences)):
        mu2 = base_mu2(base_circumferences, mode)
        if volume == "b":
            cands = (math.sqrt(mu2), -math.sqrt(mu2))
        else:
            af = a * f
            disc = math.sqrt(af * af + 4 * mu2)
            cands = ((-af + disc) / 2, (-af - disc) / 2)
        roots.extend(s for s in cands if lo <= s <= hi)
    return merge_roots(roots)


def pencil_roots(family, base_dim, mode_cutoff, window, imag_tol=1e-9) -> list:
    """Real critical weights s of an affine family M(lambda) = lambda A + B
    over all base modes with entries bounded by the cutoff, with A and B
    taken from two evaluations of the family; lambda = -i s."""
    import numpy as np
    import scipy.linalg

    lo, hi = window
    roots = []
    for mode in product(range(-mode_cutoff, mode_cutoff + 1), repeat=base_dim):
        B = np.asarray(family.matrix_lambda(0.0, mode), dtype=complex)
        A = np.asarray(family.matrix_lambda(1.0, mode), dtype=complex) - B
        for lam in scipy.linalg.eigvals(-B, A):
            s = 1j * lam
            if abs(s.imag) <= imag_tol * max(1.0, abs(s)) and lo <= s.real <= hi:
                roots.append(float(s.real))
    return merge_roots(roots)


def merge_roots(roots, tol=1e-6) -> list:
    """Sorted roots with clusters (repeated roots) merged to their mean."""
    out: list = []
    for s in sorted(roots):
        if out and s - out[-1][-1] <= tol:
            out[-1].append(s)
        else:
            out.append([s])
    return [sum(c) / len(c) for c in out]


def roots_agree(got, want, tol=1e-8) -> bool:
    return len(got) == len(want) and all(abs(g - w) <= tol for g, w in zip(got, want))


def fiber_lambda1(fiber_circumferences) -> float:
    """Smallest positive eigenvalue of the Laplacian of a flat torus fibre."""
    return min((2 * math.pi / L) ** 2 for L in fiber_circumferences)


def gap_identity(lambda1, tau, eta) -> float:
    """Gap of the normal family on the perpendicular modes:
    sqrt(lambda_1 + tau^2 + |eta|^2)."""
    return math.sqrt(lambda1 + tau * tau + sum(v * v for v in eta))


def decay_exponent(a, f, mu) -> float:
    """Decaying root (-a f + sqrt(a^2 f^2 + 4 mu^2)) / 2 of the scalar
    g-volume quadratic."""
    af = a * f
    return (-af + math.sqrt(af * af + 4 * mu * mu)) / 2


def exponent_agrees(fitted, exact, rel=0.02) -> bool:
    return abs(fitted - exact) <= rel * abs(exact)


def off_critical(value, critical, tol=1e-9) -> bool:
    """The weight rule: value stays off the critical set."""
    return all(abs(value - s) > tol for s in critical)


# ---------------------------------------------------------------------------
# self-test: every check rejects a perturbed answer


class _Pencil:
    """A stand-in family lambda A + B with known real critical weights."""

    def __init__(self, diag):
        import numpy as np

        self.A = np.eye(len(diag), dtype=complex)
        self.B = np.diag([1j * s for s in diag])  # singular at lambda = -i s

    def matrix_lambda(self, lam, mode):
        return lam * self.A + self.B


def selftest() -> list:
    """Return the list of checks that failed to reject a perturbed answer
    (or failed to accept the exact one); empty when the oracle is sound."""
    bad = []
    third = Fraction(1, 3)
    gens = [((third, 0), 2), ((Fraction(1, 2), 1), 0)]
    want = closure(gens).members(4)
    exact = sorted(want)
    if not same_members(exact, want):
        bad.append("closure accepts itself")
    top = max(m for m in exact if m[2] == 2)
    if same_members([m for m in exact if m != top], want):
        bad.append("dropped log power")
    if same_members(exact + [exact[0]], want):
        bad.append("repeated member")

    # the log boost at a shared exponent reached through thirds
    A, B = closure([((third, 0), 0)]), closure([((Fraction(2, 3), 0), 0)])
    boosted = extended_union(add(A, A), B).members(1)
    if (Fraction(2, 3), 0, 1) not in boosted:
        bad.append("log boost at 1/3 + 1/3 = 2/3")
    fam = {f: closure([((1, 0), 0)]) for f in ("lf", "rf", "bf", "ff")}
    K = compose_faces(fam, fam, 2)["bf"].members(3)
    if (Fraction(2), 0, 3) not in K or (Fraction(2), 0, 4) in K:
        bad.append("composite bf log power")

    roots = scalar_roots(1, 1, (2 * math.pi,), "g", (-5, 4), 2)
    golden = (math.sqrt(5) - 1) / 2
    if not any(abs(r - golden) < 1e-12 for r in roots):
        bad.append("golden root")
    shifted = [r + (1e-6 if i == 0 else 0) for i, r in enumerate(roots)]
    if roots_agree(shifted, roots):
        bad.append("shifted root")
    if roots_agree(roots[1:], roots):
        bad.append("missing root")
    pencil = pencil_roots(_Pencil([-1.5, 0.25, 0.25, 3.0]), 1, 0, (-2, 2))
    if not roots_agree(pencil, [-1.5, 0.25]):
        bad.append("pencil roots")

    lam1 = fiber_lambda1([3.0])
    g = gap_identity(lam1, 0.5, [2.0])
    if abs(lam1 - 4 * math.pi ** 2 / 9) > 1e-12 or abs(g + 1e-5 - gap_identity(lam1, 0.5, [2.0])) <= 1e-6:
        bad.append("perturbed gap")
    w = decay_exponent(1, 1, 1.0)
    if abs(w - golden) > 1e-12 or exponent_agrees(w * 1.03, w):
        bad.append("decay exponent")
    if off_critical(-1.0, [-2, -1, 0]) or not off_critical(-0.5, [-2, -1, 0]):
        bad.append("weight rule")
    return bad


if __name__ == "__main__":
    failures = selftest()
    print("oracle self-test:", "ok" if not failures else "FAILED " + ", ".join(failures))
    raise SystemExit(1 if failures else 0)
