"""Reference figures for the README, not gated: time per criterion of the
acceptance suite behind ``phicalc verify-paper``, with criterion 2 split into
library time (``compose`` and ``IndexSet.truncate``) and the time of its own
enumeration oracle (``_display_compose``).

    python3 benchmark/reference.py [--repeats 3]

Prints one JSON object: per criterion the median elapsed seconds over the
repeats, and for criterion 2 the median library and oracle seconds (the
rest of criterion 2 is its comparison loop).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("PHICALC_THREADS", None)


def _timed(fn, bucket):
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            bucket.append(time.perf_counter() - t0)

    return wrapper


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--repeats", type=int, default=3)
    args = p.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    from phicalc import acceptance
    from phicalc.indexsets import IndexSet
    from phicalc.models import ModelGeometry

    model = ModelGeometry()
    library: list = []
    oracle: list = []
    # criterion 2 calls these through the acceptance module's namespace
    acceptance.compose = _timed(acceptance.compose, library)
    acceptance._display_compose = _timed(acceptance._display_compose, oracle)
    IndexSet.truncate = _timed(IndexSet.truncate, library)
    runs = {crit.__name__: [] for crit in acceptance.CRITERIA}
    split = {"library_s": [], "oracle_s": []}
    verdicts = {}
    for _ in range(args.repeats):
        for crit in acceptance.CRITERIA:
            library.clear()
            oracle.clear()
            res = crit(model)
            runs[crit.__name__].append(res.elapsed)
            verdicts[crit.__name__] = "PASS" if res.passed else "FAIL"
            if crit is acceptance.criterion_2:
                split["library_s"].append(sum(library))
                split["oracle_s"].append(sum(oracle))
    out = {
        "repeats": args.repeats,
        "criteria_s": {name: statistics.median(v) for name, v in runs.items()},
        "total_s": statistics.median(sum(v) for v in zip(*runs.values())),
        "criterion_2_split_s": {k: statistics.median(v) for k, v in split.items()},
        "verdicts": verdicts,
    }
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
