"""Command-line entry point: one binary, subcommand style.

Exit codes: 0 on success or PASS, 1 when a verification reports FAIL, 2 on
usage errors or malformed input (with a line/column diagnostic for JSON).
All file output goes through the deterministic writers in
:mod:`phicalc.jsonio`.  Only the numerics subcommands import numpy and
scipy (through :mod:`phicalc.models` and :mod:`phicalc.acceptance`).
"""

from __future__ import annotations

import argparse
import sys
import warnings
from fractions import Fraction

from .indexsets import IndexSet, geq, greater_than
from . import indexsets
from .jsonio import JsonInputError, load_document, write_csv, write_json
from .opclasses import (
    CompositionError,
    GeomConstants,
    compose,
    entry_from_json,
    lift_b_to_phi,
)
from .parametrix import ParametrixError, SplitOperator, parametrix_report


def _load_model(path: str | None) -> ModelGeometry:
    from .models import ModelGeometry

    if path is None:
        return ModelGeometry()
    return load_document(path, ModelGeometry.from_json, "model")


def _positive(value: float, what: str) -> float:
    if not value > 0:
        raise JsonInputError(f"{what} must be positive, got {value}")
    return value


def _parse_mode(text: str) -> tuple:
    text = text.strip()
    if text in ("", "-"):
        return ()
    return tuple(int(v) for v in text.split(","))


def _parse_grid(text: str) -> tuple:
    try:
        t_str, n_str = text.split(",")
        return float(t_str), int(n_str)
    except ValueError:
        raise JsonInputError(f"--grid expects T,N (e.g. 12,2048), got {text!r}")


# ---------------------------------------------------------------------------
# handlers


def _cmd_idx(args) -> int:
    want = 2 if args.op in ("add", "union") else 1
    if len(args.inputs) != want:
        raise JsonInputError(f"idx {args.op} takes {want} input file(s), got {len(args.inputs)}")
    I, *rest = [load_document(p, IndexSet.from_json, "index-set") for p in args.inputs]
    if args.op == "add":
        out = indexsets.add(I, *rest).to_json()
    elif args.op == "union":
        out = indexsets.extended_union(I, *rest).to_json()
    elif args.op == "shift":
        if args.by is None:
            raise JsonInputError("idx shift needs --by")
        out = indexsets.shift(I, args.by).to_json()
    elif args.op == "scale":
        if args.by is None or args.by.denominator != 1:
            raise JsonInputError(f"idx scale needs --by a positive integer, got {args.by}")
        out = indexsets.scale(I, int(args.by)).to_json()
    else:
        if args.alpha is None:
            raise JsonInputError("idx compare needs --alpha")
        out = {
            "alpha": indexsets.number_to_json(args.alpha),
            "greater_than": greater_than(I, args.alpha),
            "geq": geq(I, args.alpha),
        }
    write_json(out, args.out)
    return 0


def _cmd_compose(args) -> int:
    P = load_document(args.left, entry_from_json, "operator-class")
    Q = load_document(args.right, entry_from_json, "operator-class")
    geom = GeomConstants(a=args.a, b_dim=args.b_dim)
    out = compose(P, Q, geom, route=args.route)
    write_json(out.to_json(), args.out)
    return 0


def _cmd_lift(args) -> int:
    T = load_document(args.input, entry_from_json, "operator-class")
    geom = GeomConstants(a=args.a, b_dim=args.b_dim)
    main, res = lift_b_to_phi(T, geom.a, geom.b_dim)
    write_json({"main": main.to_json(), "residual": res.to_json()}, args.out)
    return 0


def _cmd_parametrix(args) -> int:
    op = load_document(args.op, SplitOperator.from_json, "split-operator")
    report = parametrix_report(op, args.alpha)
    write_json(report, args.report)
    return 0 if report["verdict"] == "PASS" else 1


def _cmd_imspec(args) -> int:
    from .models import IndicialFamily, imspec

    family = IndicialFamily(_load_model(args.model), args.family, args.volume)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        points = imspec(
            family,
            window=tuple(args.window),
            mode_cutoff=args.modes,
            scan_step=_positive(args.scan_step, "--scan-step"),
            sv_tol=_positive(args.tol, "--tol"),
        )
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    fields = ["mode", "lambda_root", "pole_order_k", "det_order", "order_mismatch", "at_window_edge"]
    write_csv([p.to_row() for p in points], fields, args.out)
    return 0


def _cmd_gap(args) -> int:
    import numpy as np

    from .models import normal_family_gap

    model = _load_model(args.model)
    lo, hi = args.window
    if args.grid_points < 0:
        raise ValueError(f"--grid-points must be non-negative, got {args.grid_points}")
    grid = np.linspace(lo, hi, args.grid_points)
    rep = normal_family_gap(model, grid, grid, mode_cutoff=args.modes, tol=_positive(args.tol, "--tol"))
    write_json(rep.to_json(), args.out)
    return 0 if rep.normal_invertible else 1


def _cmd_solve(args) -> int:
    from .models import FitError, fit_exponents, solve_harmonic

    model = _load_model(args.model)
    t_max, n = _parse_grid(args.grid)
    base = _parse_mode(args.mode[0])
    fiber = _parse_mode(args.mode[1])
    sol = solve_harmonic(model, args.degree, (base, fiber), t_max=t_max, n=n)
    if sol.ill_conditioned():
        print(f"warning: ill-conditioned mode solve (condition estimate {sol.cond_estimate:.2e}); "
              "the growing branch may contaminate the solution", file=sys.stderr)
    try:
        fit = fit_exponents(sol)
        rows = [fit.to_row()]
    except FitError as exc:
        print(f"fit rejected: {exc}", file=sys.stderr)
        return 1
    write_csv(rows, ["mode", "exponent", "log_power", "residual", "superpoly"], args.out)
    if args.samples:
        srows = [
            {"x": f"{x:.12g}", "abs_u": f"{abs(v):.12g}"}
            for x, v in zip(sol.x, sol.values[:, sol.component])
        ]
        write_csv(srows, ["x", "abs_u"], args.samples)
    return 0


def _cmd_verify(args) -> int:
    from .models import verify_predictions

    model = _load_model(args.model)
    rep = verify_predictions(model, alpha=args.alpha)
    write_json(rep.to_json(), args.out)
    return 0 if rep.passed else 1


def _cmd_verify_paper(args) -> int:
    from . import acceptance

    model = _load_model(args.model)
    results = acceptance.run_all(model)
    if args.out:
        write_json([r.to_json() for r in results], args.out)
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phicalc",
        description="index-set algebra, operator-class bookkeeping, split "
        "parametrix replay and fibred-cusp model numerics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("idx", help="index-set operations on JSON files")
    p.add_argument("op", choices=["add", "union", "shift", "scale", "compare"])
    p.add_argument("inputs", nargs="+", help="input index-set JSON files")
    p.add_argument("--by", type=Fraction,
                   help="shift amount or scale factor, read exactly (2, 0.25, 1/3)")
    p.add_argument("--alpha", type=Fraction, help="threshold for compare, read exactly")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_idx)

    p = sub.add_parser("compose", help="compose two operator classes")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("-a", type=int, required=True, help="degeneracy order")
    p.add_argument("--b-dim", type=int, required=True, help="base dimension")
    p.add_argument("--route", choices=["split"], default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_compose)

    p = sub.add_parser("lift", help="lift a full-family b-class to the phi side")
    p.add_argument("input")
    p.add_argument("-a", type=int, required=True)
    p.add_argument("--b-dim", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_lift)

    p = sub.add_parser("parametrix", help="replay the split parametrix construction")
    p.add_argument("--op", required=True, help="split-operator JSON file")
    p.add_argument("--alpha", type=Fraction, required=True,
                   help="weight, read exactly (0.5, 1/3, 1e16)")
    p.add_argument("--report", default=None, help="output report JSON")
    p.set_defaults(func=_cmd_parametrix)

    p = sub.add_parser("imspec", help="critical weights of an indicial family")
    p.add_argument("--model", default=None, help="model JSON (default: unit torus model)")
    p.add_argument("--window", type=float, nargs=2, default=(-2.5, 2.5), metavar=("LO", "HI"))
    p.add_argument("--modes", type=int, default=3, metavar="N")
    p.add_argument("--family", choices=["scalar", "gb", "hodge"], default="scalar")
    p.add_argument("--volume", choices=["b", "g"], default="b")
    p.add_argument("--scan-step", type=float, default=1e-2,
                   help="roots this close to either window end are flagged as at the edge")
    p.add_argument("--tol", type=float, default=1e-8,
                   help="a root is accepted where the smallest singular value is below this")
    p.add_argument("--out", default=None, help="spectra CSV")
    p.set_defaults(func=_cmd_imspec)

    p = sub.add_parser("gap", help="normal-family gap over a covariable grid")
    p.add_argument("--model", default=None)
    p.add_argument("--window", type=float, nargs=2, default=(-5.0, 5.0), metavar=("LO", "HI"))
    p.add_argument("--grid-points", type=int, default=21)
    p.add_argument("--modes", type=int, default=2, metavar="N")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_gap)

    p = sub.add_parser("solve", help="solve the model harmonic equation for one mode")
    p.add_argument("--model", default=None)
    p.add_argument("--mode", nargs=2, required=True, metavar=("BASE", "FIBER"),
                   help="comma-separated mode tuples, e.g. --mode 1 0")
    p.add_argument("--degree", type=int, default=0)
    p.add_argument("--grid", default="12,2048", metavar="T,N")
    p.add_argument("--out", default=None, help="fits CSV")
    p.add_argument("--samples", default=None, help="optional samples CSV")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="cross-check decay fits against the spectrum")
    p.add_argument("--model", default=None)
    p.add_argument("--alpha", type=Fraction, default=0, help="weight, read exactly (0.5, 1/3)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("verify-paper", help="run the full acceptance suite")
    p.add_argument("--model", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_verify_paper)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CompositionError, ParametrixError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
