"""Benchmark of phicalc: three in-process workloads, checked outputs.

Run from the root of a checkout:

    python3 benchmark/run.py --workload algebra --seed 1 --seconds 15 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  Run
details go to standard error and, with the metrics, to ``benchmark/out/``.
See ``benchmark/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# one process, one BLAS thread, no thread pool inside phicalc; set before
# numpy is imported
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
os.environ.pop("PHICALC_THREADS", None)

import oracle  # noqa: E402  (numpy, if at all, only after the settings above)
from calibrate import Calibration  # noqa: E402
from tracing import Tracer, direct, no_count, per_layer_metrics  # noqa: E402
from workloads import FAILED, OK, WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5  # this process plus four set-up-only child processes
SETUP_CAL_CALLS = 40  # calibration calls that scale one set-up
CAL_WINDOW = 2  # calibration calls on either side that scale an operation
WARMUP_PER_KIND = 3  # untimed calls of each operation kind before timing
MIN_ROUNDS = 3  # untraced rounds, for a per-operation median
MIN_TAIL_OPS = 10  # operations beyond the tail percentile


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _set_up(name, seed, call):
    """Import phicalc, build the workload's inputs and warm up; returns the
    workload, its calibration, the elapsed seconds and the factor that
    brings them to the reference speed (from calibration calls made right
    after, so that numpy's import stays in the set-up)."""
    t0 = time.perf_counter()
    wl = WORKLOADS[name]()
    wl.setup(seed, call)
    seen: dict = {}
    for op in wl.built:
        if seen.get(op.kind, 0) < WARMUP_PER_KIND:
            seen[op.kind] = seen.get(op.kind, 0) + 1
            op.fn(direct, no_count)
    elapsed = time.perf_counter() - t0
    cal = Calibration(wl.calibration)
    return wl, cal, elapsed, cal.scale(cal.run(SETUP_CAL_CALLS), SETUP_CAL_CALLS)


def _child_setup(args) -> tuple:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out["setup_s"], out["scale"]


def _rank(n, pct) -> int:
    """1-based nearest rank of the pct-th percentile of n samples."""
    return max(1, math.ceil(pct / 100 * n))


def _run_round(wl, tracer, cal):
    """One pass over the workload's operations, with a calibration call
    before every ``wl.cal_every``-th: latencies in ns, digested outputs, the
    number of operations that raised and the calibration calls' times."""
    ops = wl.ops
    lat = [0] * len(ops)
    outs = [None] * len(ops)
    errors = 0
    every = wl.cal_every
    cals: list = []
    if tracer is None:
        for i, op in enumerate(ops):
            if i % every == 0:
                cals.append(cal.run())
            t0 = perf_counter_ns()
            try:
                out = op.fn(direct, no_count)
            except Exception:
                traceback.print_exc()
                errors += 1
                continue
            lat[i] = perf_counter_ns() - t0
            outs[i] = wl.digest(op, out)
        return lat, outs, errors, cals
    call, count = tracer.call, tracer.count
    with tracer.span("round"):
        for i, op in enumerate(ops):
            if i % every == 0:
                cals.append(cal.run())
            t0 = perf_counter_ns()
            try:
                with tracer.span("op"):
                    out = op.fn(call, count)
            except Exception:
                traceback.print_exc()
                errors += 1
                continue
            lat[i] = perf_counter_ns() - t0
            outs[i] = wl.digest(op, out)
    return lat, outs, errors, cals


def _scaled(lat, cals, every, cal):
    """Latencies at the reference speed: each one times the speed factor of
    the calibration calls nearest to it, the call before its block of
    ``every`` operations and up to CAL_WINDOW calls on either side."""
    factors = [cal.scale(sum(w), len(w)) for w in
               (cals[max(0, b - CAL_WINDOW): b + CAL_WINDOW + 1] for b in range(len(cals)))]
    return [t * factors[i // every] for i, t in enumerate(lat)]


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "phicalc" / "__init__.py").is_file():
        print(f"benchmark: no phicalc sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload not in WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; pick one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.setup_only:
        _, _, setup_s, scale = _set_up(args.workload, args.seed, direct)
        print(json.dumps({"setup_s": setup_s, "scale": scale}))
        return 0

    tracer = Tracer(args.workload) if args.trace else None
    wl, cal, setup_s, setup_scale = _set_up(args.workload, args.seed,
                                            tracer.call if tracer else direct)
    setup_spans = len(tracer.spans) if tracer else 0
    if len(wl.ops) - _rank(len(wl.ops), wl.tail_pct) < MIN_TAIL_OPS:
        raise RuntimeError(f"{len(wl.ops)} operations leave fewer than {MIN_TAIL_OPS} "
                           f"beyond the p{wl.tail_pct} tail")
    setups = [(setup_s, setup_scale)]
    if not args.trace:
        setups += [_child_setup(args) for _ in range(SETUP_SAMPLES - 1)]
    problems: list = []
    # every round starts from the same collector state, and the harness's
    # own data is not scanned by collections inside the timed calls
    gc.collect()
    gc.freeze()

    walls = {False: [], True: []}  # raw round walls, by traced or not
    scaled = {False: [], True: []}  # the same at the reference speed
    scales: list = []  # the traced rounds' speed factors
    latencies: list = []  # per untraced round, one scaled latency per operation
    rounds = failed = 0
    measured = 0.0
    # a traced run needs one round of each kind, for the overhead
    while measured < args.seconds or (
        not (walls[True] and walls[False]) if args.trace else len(walls[False]) < MIN_ROUNDS
    ):
        traced = bool(args.trace) and rounds % 2 == 1  # traced runs alternate
        wl.instrument(traced)
        lat, outs, errors, cals = _run_round(wl, tracer if traced else None, cal)
        wl.instrument(False)
        rounds += 1
        wall = sum(lat) / 1e9  # library calls only: digests and checks excluded
        measured += wall
        walls[traced].append(wall)
        lat = _scaled(lat, cals, wl.cal_every, cal)
        scaled[traced].append(sum(lat) / 1e9)
        if traced:
            scales.append(cal.scale(sum(cals), len(cals)))
        else:
            latencies.append(lat)
        status = wl.check_round(outs) if not errors else []
        if errors or any(s not in (OK, FAILED) for s in status):
            bad = sorted({op.kind for op, s in zip(wl.ops, status) if s not in (OK, FAILED)})
            problems.append(f"round {rounds}: {errors} errors, wrong outputs in {bad}")
        failed += status.count(FAILED)
        del outs, status
        gc.collect()
        gc.freeze()

    # every time below is at the reference speed of calibrate.py
    if args.trace:
        untraced = statistics.median(scaled[False])
        overhead = (statistics.median(scaled[True]) - untraced) / untraced * 100
        metrics = per_layer_metrics(tracer, len(walls[True]), setup_spans, overhead,
                                    statistics.median(scales), setup_scale)
    else:
        # each operation's latency is its median over the rounds
        per_op = sorted(statistics.median(col) / 1e6 for col in zip(*latencies))
        metrics = {
            "wall_s": {"value": statistics.median(scaled[False]), "unit": "s"},
            "op_p50_ms": {"value": statistics.median(per_op), "unit": "ms"},
            "op_tail_ms": {"value": per_op[_rank(len(per_op), wl.tail_pct) - 1], "unit": "ms"},
            "setup_s": {"value": statistics.median(s * f for s, f in setups), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    # after peak_rss_mb is read: the pencil self-test imports numpy, which
    # the algebra workload itself never loads
    problems += [f"oracle self-test: {p}" for p in oracle.selftest()]
    result = {
        "correct": not problems,
        "attempted": rounds * len(wl.ops),
        "failed": failed,
        "metrics": metrics,
    }
    import numpy
    import scipy

    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": rounds, "ops_per_round": len(wl.ops),
        "tail_percentile": wl.tail_pct, "calibration": wl.calibration,
        "cal_every": wl.cal_every, "raw_setup_samples_s": [s for s, _ in setups],
        "setup_scales": [f for _, f in setups],
        "raw_round_walls_s": walls[False], "round_walls_s": scaled[False],
        "raw_traced_round_walls_s": walls[True], "traced_round_walls_s": scaled[True],
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS, "problems": problems,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump({"info": info, "result": result}, fh, indent=1)
    if tracer:
        tracer.write(OUT / f"{stem}-spans.json")
    print(json.dumps(info), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
