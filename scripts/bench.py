"""Write a BENCH file: the benchmark's end-to-end metrics over repeated
runs, the acceptance criteria's times, and what they were measured on.

Run from the root of a checkout:

    python3 scripts/bench.py --out BENCH_2.json

Each workload of ``benchmark/run.py`` runs 5 times as its own process,
``--seed 1 --seconds 15 --trace 0``, in turn with the other workloads.  The last line of each run's output is read: the file
keeps every run's metrics, ``correct`` and ``failed``, and per metric the
median, the quartiles and their distance (IQR).  ``benchmark/reference.py``
gives the time of each criterion of ``phicalc verify-paper``, with
criterion 2's library and oracle time apart.  The whole-process wall time
of ``phicalc verify-paper``, ``phicalc compose`` and ``phicalc --help``,
5 runs each, and of one Tier-1 run (``pytest -q``) follow, each with the
checkout's ``src`` first on ``PYTHONPATH``.  ``--root`` points the runs at
another checkout, for example a ``git archive`` of the parent commit, so
that both are measured by one script.  Nothing is averaged away or bounded
here: the file holds what the runs read.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("algebra", "replay", "numerics")
SETTINGS = {"seed": 1, "seconds": 15, "trace": 0, "repeats": 5}
# phicalc commands timed as whole processes, run in a temporary directory
# that holds phi.json, a weight-0 phi-class of order -1
PHI = {"kind": "phi", "order": -1, "spec": {"weight": 0}}
CLI = {
    "verify-paper": ["verify-paper", "--out", "vp.json"],
    "compose": ["compose", "phi.json", "phi.json", "-a", "1", "--b-dim", "1"],
    "help": ["--help"],
}


def _stdout(cmd, cwd) -> str:
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, check=True).stdout


def _spread(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def _commit(root: Path):
    """The checkout's commit, "-dirty" appended where files differ from it;
    None where the checkout is not the top of a git work tree (a ``git
    archive`` copy)."""
    try:
        top = _stdout(["git", "rev-parse", "--show-toplevel"], root).strip()
        commit = _stdout(["git", "describe", "--always", "--dirty", "--abbrev=40"], root).strip()
    except (OSError, subprocess.CalledProcessError):
        return None
    return commit if Path(top).resolve() == root else None


def _wall(cmd, cwd, env) -> float:
    start = time.perf_counter()
    subprocess.run(cmd, cwd=cwd, env=env, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def _processes(root: Path) -> dict:
    """Whole-process wall times of the ``CLI`` commands, then one Tier-1
    run, with ``root/src`` first on the path."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "phi.json").write_text(json.dumps(PHI))
        for name, args in CLI.items():
            walls = [_wall([sys.executable, "-m", "phicalc.cli", *args], tmp, env)
                     for _ in range(SETTINGS["repeats"])]
            out[f"phicalc {name}"] = {"runs": walls, **_spread(walls)}
            print(f"bench: phicalc {name} timed", file=sys.stderr)
    start = time.perf_counter()
    tier1 = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
                           cwd=root, env=env, capture_output=True, text=True)
    out["tier1"] = {"wall_s": time.perf_counter() - start, "returncode": tier1.returncode,
                    "summary": tier1.stdout.strip().splitlines()[-1]}
    return out


def _versions() -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", required=True, help="the BENCH file to write")
    p.add_argument("--root", default=str(HERE.parent), help="the checkout to run (default: this one)")
    args = p.parse_args(argv)
    root = Path(args.root).resolve()

    runs = {w: [] for w in WORKLOADS}
    for i in range(SETTINGS["repeats"]):
        for w in WORKLOADS:
            cmd = [sys.executable, "benchmark/run.py", "--workload", w,
                   *(f"--{k}={SETTINGS[k]}" for k in ("seed", "seconds", "trace"))]
            # the last line of run.py's output is its result
            runs[w].append(json.loads(_stdout(cmd, root).strip().splitlines()[-1]))
            print(f"bench: {w} run {i + 1}/{SETTINGS['repeats']} done", file=sys.stderr)

    workloads = {}
    for w, results in runs.items():
        names = list(results[0]["metrics"])
        workloads[w] = {
            "correct": [r["correct"] for r in results],
            "failed": [r["failed"] for r in results],
            "attempted": [r["attempted"] for r in results],
            "metrics": {
                name: {"unit": results[0]["metrics"][name]["unit"],
                       **_spread([r["metrics"][name]["value"] for r in results])}
                for name in names
            },
            "runs": [{k: v["value"] for k, v in r["metrics"].items()} for r in results],
        }

    # reference.py prints one indented JSON object
    reference = json.loads(_stdout([sys.executable, "benchmark/reference.py", "--repeats", "3"], root))
    bench = {
        "commit": _commit(root),
        "checkout": str(root),
        **_versions(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "settings": SETTINGS,
        "workloads": workloads,
        "reference": reference,
        "processes": _processes(root),
    }
    with open(args.out, "w") as fh:
        json.dump(bench, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
