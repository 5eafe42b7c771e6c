"""Fixed reference work that scales the benchmark's timings to one machine
speed.

The benchmark runs on a shared machine whose speed moves with load from
outside it: a fixed pure-Python loop takes anywhere from 19 to 71 ms, and
the speed moves by a third from one second to the next.  Raw times follow
it, so two runs of the same code can differ by more than any useful bound.

A run therefore interleaves, between its operations, calls of a calibration
unit: fixed work of the same kind as the workload's, which uses nothing of
``phicalc``.  Each operation's time is multiplied by

    (calls x the unit's reference time) / (the calls' measured total)

over the calls nearest to it, so it reads as the time the operation takes
on a machine that runs the unit in its reference time.  A change to the library moves the numerator
of the operations' time and leaves the calibration's alone, so it shows in
full; a machine that runs everything 30 % slower for a while moves both
and cancels.  The raw times stay in each run's info.

Two units, chosen by the workload:

- ``python``: exact ``Fraction`` arithmetic, tuple keys in a dict and a
  sort, the kind of work ``indexsets``, ``opclasses`` and ``parametrix`` do;
- ``numeric``: the ``python`` unit plus a sparse tridiagonal solve and a
  small dense eigenvalue problem, the kind of work of ``models``.

The reference times are round figures close to the units' times on the
quiet machine described in ``README.md``.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter_ns

REFERENCE_NS = {"python": 2_500_000, "numeric": 4_000_000}


def _python_unit():
    third = Fraction(1, 3)
    table: dict = {}
    for i in range(600):
        key = (Fraction(i, 3) + third, i % 5)
        table[key] = table.get(key, 0) + 1
    return sorted(table)


class Calibration:
    """Times calls of one unit; ``scale(ns, calls)`` turns the measured
    total of ``calls`` calls into the factor that brings raw times to the
    reference speed."""

    def __init__(self, unit: str):
        self.unit = unit
        self.reference_ns = REFERENCE_NS[unit]
        self._extra = None
        if unit == "numeric":
            # numpy and scipy are imported here, after the workload's set-up
            # has imported them, so their import stays in setup_s
            import numpy as np
            import scipy.sparse as sp
            import scipy.sparse.linalg as spla

            n = 3000
            A = sp.diags([np.full(n - 1, -1.0), np.full(n, 2.5), np.full(n - 1, -1.0)],
                         [-1, 0, 1], format="csc")
            b = np.ones(n)
            M = np.random.default_rng(0).standard_normal((40, 40))

            def extra():
                spla.spsolve(A, b)
                np.linalg.eigvals(M)

            self._extra = extra
        self.run(3)  # first calls pay for lazy imports and caches

    def run(self, calls: int = 1) -> int:
        """Make ``calls`` calls of the unit; their total time in ns."""
        extra = self._extra
        t0 = perf_counter_ns()
        for _ in range(calls):
            _python_unit()
            if extra is not None:
                extra()
        return perf_counter_ns() - t0

    def scale(self, ns: int, calls: int) -> float:
        return calls * self.reference_ns / ns
