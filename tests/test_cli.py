"""Command-line surface: wiring, exit codes, determinism, round trips."""

import json
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from phicalc.cli import main
from phicalc.indexsets import IndexSet, extended_union, make_index_set
from phicalc.parametrix import gauss_bonnet_split

SPEC = [-2, -1, 0, 1, 2]


def jdump(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def iset_file(tmp_path, name, gens):
    return jdump(tmp_path, name, make_index_set(gens).to_json())


def model_file(tmp_path):
    return jdump(
        tmp_path,
        "torus11.json",
        {
            "a": 1,
            "base": {"circumferences": [6.283185307179586]},
            "fiber": {"circumferences": [6.283185307179586]},
        },
    )


def test_idx_union(tmp_path):
    a = iset_file(tmp_path, "a.json", [(0, 0)])
    b = iset_file(tmp_path, "b.json", [(1, 0)])
    out = str(tmp_path / "c.json")
    assert main(["idx", "union", a, b, "--out", out]) == 0
    got = IndexSet.from_json(json.loads(open(out).read()))
    assert got == extended_union(make_index_set([(0, 0)]), make_index_set([(1, 0)]))


def test_idx_add_shift_scale_compare(tmp_path):
    a = iset_file(tmp_path, "a.json", [(1, 0)])
    out = str(tmp_path / "o.json")
    assert main(["idx", "add", a, a, "--out", out]) == 0
    assert IndexSet.from_json(json.load(open(out))) == make_index_set([(2, 0)])
    assert main(["idx", "shift", a, "--by", "2", "--out", out]) == 0
    assert IndexSet.from_json(json.load(open(out))) == make_index_set([(3, 0)])
    assert main(["idx", "scale", a, "--by", "3", "--out", out]) == 0
    assert IndexSet.from_json(json.load(open(out))) == make_index_set([(3, 0)])
    assert main(["idx", "compare", a, "--alpha", "0.5", "--out", out]) == 0
    cmp_out = json.load(open(out))
    assert cmp_out["greater_than"] and cmp_out["geq"]
    # a wrong number of input files is a usage error, not a traceback
    assert main(["idx", "union", a, "--out", out]) == 2
    assert main(["idx", "shift", a, a, "--by", "2", "--out", out]) == 2


def test_idx_shift_by_third_then_union_boosts_exactly(tmp_path, capsys):
    a = iset_file(tmp_path, "a.json", [(0, 0)])
    third = iset_file(tmp_path, "third.json", [(Fraction(1, 3), 0)])
    shifted = str(tmp_path / "s.json")
    out = str(tmp_path / "u.json")
    assert main(["idx", "shift", a, "--by", "1/3", "--out", shifted]) == 0
    assert json.load(open(shifted))["generators"] == [{"re": "1/3", "im": 0, "k": 0}]
    assert main(["idx", "union", shifted, third, "--out", out]) == 0
    assert IndexSet.from_json(json.load(open(out))) == make_index_set([(Fraction(1, 3), 1)])
    assert main(["idx", "compare", third, "--alpha", "1/3", "--out", out]) == 0
    assert json.load(open(out)) == {"alpha": "1/3", "greater_than": False, "geq": True}
    assert main(["idx", "shift", a, "--out", out]) == 2
    assert "needs --by" in capsys.readouterr().err


def test_compose_cli(tmp_path):
    p = jdump(tmp_path, "p.json", {"kind": "phi", "order": -1, "spec": {"weight": 0.0}})
    q = jdump(tmp_path, "q.json", {"kind": "phi", "order": 0, "spec": {"weight": 0.0}})
    out = str(tmp_path / "k.json")
    assert main(["compose", p, q, "-a", "1", "--b-dim", "1", "--out", out]) == 0
    got = json.load(open(out))
    assert got["kind"] == "phi" and got["order"] == -1


@pytest.mark.filterwarnings("error")
def test_compose_cli_refuses_a_full_b_class_of_nonnegative_order(tmp_path, capsys):
    # the lifting formula holds for negative orders only: exit 2, no warning
    s = lambda *r: {"empty": not r, "generators": [{"re": x, "im": 0, "k": 0} for x in r]}
    b = jdump(tmp_path, "b.json", {"kind": "b", "order": 0, "spec": {"family": {
        "kind": "b", "lf": s(1), "rf": s(1), "bf": s(0)}}})
    q = jdump(tmp_path, "q.json", {"kind": "phi", "order": -1, "spec": {"family": {
        "kind": "phi", "lf": s(1), "rf": s(1), "bf": s(), "ff": s(0)}}})
    out = tmp_path / "k.json"
    assert main(["compose", b, q, "-a", "1", "--b-dim", "1", "--out", str(out)]) == 2
    assert "negative order" in capsys.readouterr().err and not out.exists()


def test_compose_cli_takes_an_x_inf_b_class_as_its_phi_twin(tmp_path):
    # a full b-class with empty lf and bf data is its phi twin (empty ff
    # data): composed on either side of a full phi-class, at order 0 where
    # no lift exists, it writes the twin's output byte for byte
    s = lambda *r: {"empty": not r, "generators": [{"re": x, "im": 0, "k": 0} for x in r]}
    b = jdump(tmp_path, "b.json", {"kind": "b", "order": 0, "spec": {"family": {
        "kind": "b", "lf": s(), "rf": s(1), "bf": s()}}})
    p = jdump(tmp_path, "p.json", {"kind": "phi", "order": 0, "spec": {"family": {
        "kind": "phi", "lf": s(), "rf": s(1), "bf": s(), "ff": s()}}})
    q = jdump(tmp_path, "q.json", {"kind": "phi", "order": -1, "spec": {"family": {
        "kind": "phi", "lf": s(1), "rf": s(1), "bf": s(), "ff": s(0)}}})
    for left in (True, False):
        outs = []
        for i, twin in enumerate((b, p)):
            out = tmp_path / f"k{i}.json"
            pair = (twin, q) if left else (q, twin)
            assert main(["compose", *pair, "-a", "1", "--b-dim", "1", "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


def test_lift_cli(tmp_path):
    fam = {
        "kind": "b",
        "lf": {"empty": True, "generators": []},
        "rf": {"empty": True, "generators": []},
        "bf": {"empty": False, "generators": [{"re": 0, "im": 0, "k": 0}]},
    }
    t = jdump(tmp_path, "t.json", {"kind": "b", "order": -1, "spec": {"family": fam}})
    out = str(tmp_path / "lift.json")
    assert main(["lift", t, "-a", "2", "--b-dim", "1", "--out", out]) == 0
    got = json.load(open(out))
    res_ff = got["residual"]["spec"]["family"]["ff"]["generators"]
    assert res_ff == [{"re": 2, "im": 0, "k": 0}, {"re": 4, "im": 0, "k": 1}]


@pytest.mark.filterwarnings("error")
def test_lift_cli_refuses_a_full_b_class_of_nonnegative_order(tmp_path, capsys):
    # lift applies the lift-full rule's precondition, as compose does: exit 2, no warning
    s = lambda *r: {"empty": not r, "generators": [{"re": x, "im": 0, "k": 0} for x in r]}
    b = jdump(tmp_path, "b.json", {"kind": "b", "order": 0, "spec": {"family": {
        "kind": "b", "lf": s(1), "rf": s(1), "bf": s(0)}}})
    out = tmp_path / "lift.json"
    assert main(["lift", b, "-a", "1", "--b-dim", "1", "--out", str(out)]) == 2
    assert "negative order" in capsys.readouterr().err and not out.exists()


def test_lift_cli_refuses_a_decorated_class(tmp_path, capsys):
    fam = {
        "kind": "b",
        "lf": {"empty": True, "generators": []},
        "rf": {"empty": True, "generators": []},
        "bf": {"empty": False, "generators": [{"re": 0, "im": 0, "k": 0}]},
    }
    t = jdump(tmp_path, "t.json", {"kind": "b", "order": -1, "spec": {"family": fam},
                                   "proj": {"side": "left", "power": -5}})
    out = tmp_path / "lift.json"
    assert main(["lift", t, "-a", "2", "--b-dim", "1", "--out", str(out)]) == 2
    assert "projector" in capsys.readouterr().err and not out.exists()


@pytest.mark.parametrize("doc", [
    {"kind": "phi", "order": -1, "spec": {"weight": 0}},
    {"kind": "b", "order": -1, "spec": {"weight": 0}},
    {"sum": [{"kind": "phi", "order": -1, "spec": {"weight": 0}}]},
])
def test_lift_cli_refuses_a_class_without_a_full_b_family(tmp_path, capsys, doc):
    # a weight-tier class, a phi-class or a sum: exit 2 with a message, no traceback
    t = jdump(tmp_path, "t.json", doc)
    out = tmp_path / "lift.json"
    assert main(["lift", t, "-a", "1", "--b-dim", "1", "--out", str(out)]) == 2
    assert "lifting needs" in capsys.readouterr().err and not out.exists()


def test_parametrix_cli(tmp_path):
    op = gauss_bonnet_split(a=1, b_dim=1, imspec=SPEC)
    opf = jdump(tmp_path, "gb.json", op.to_json())
    rep = str(tmp_path / "r.json")
    assert main(["parametrix", "--op", opf, "--alpha", "0.5", "--report", rep]) == 0
    assert json.load(open(rep))["verdict"] == "PASS"
    # weight on the critical set: report written, nonzero exit
    assert main(["parametrix", "--op", opf, "--alpha", "0.0", "--report", rep]) == 1
    assert json.load(open(rep))["verdict"] == "FAIL"


def test_parametrix_cli_reads_alpha_exactly(tmp_path):
    op = gauss_bonnet_split(a=1, b_dim=1, imspec=SPEC)
    opf = jdump(tmp_path, "gb.json", op.to_json())
    rep = str(tmp_path / "r.json")
    assert main(["parametrix", "--op", opf, "--alpha", "1/3", "--report", rep]) == 0
    got = json.load(open(rep))
    assert got["alpha"] == "1/3" and got["weight_condition"]["alpha_minus_am"] == "-2/3"


@pytest.mark.parametrize("alpha", ["inf", "-inf", "nan"])
def test_parametrix_cli_rejects_non_finite_alpha_first(tmp_path, monkeypatch, capsys, alpha):
    import phicalc.cli as cli

    def no_run(*args):
        raise AssertionError("the construction ran")

    monkeypatch.setattr(cli, "parametrix_report", no_run)
    opf = jdump(tmp_path, "gb.json", gauss_bonnet_split(a=1, b_dim=1, imspec=SPEC).to_json())
    rep = tmp_path / "r.json"
    with pytest.raises(SystemExit) as err:
        main(["parametrix", "--op", opf, f"--alpha={alpha}", "--report", str(rep)])
    assert err.value.code == 2
    assert "--alpha" in capsys.readouterr().err
    assert not rep.exists()


@pytest.mark.parametrize("field,value", [("a", 1.5), ("m", True), ("b_dim", 2.9), ("a", 0), ("b_dim", -1)])
def test_parametrix_cli_rejects_non_integer_orders(tmp_path, capsys, field, value):
    doc = gauss_bonnet_split(a=1, b_dim=1, imspec=SPEC).to_json()
    doc[field] = value
    opf = jdump(tmp_path, "bad.json", doc)
    assert main(["parametrix", "--op", opf, "--alpha", "0.5", "--report", str(tmp_path / "r.json")]) == 2
    assert "not a valid split-operator document" in capsys.readouterr().err


def test_imspec_csv_and_determinism(tmp_path):
    m = model_file(tmp_path)
    out1, out2 = str(tmp_path / "s1.csv"), str(tmp_path / "s2.csv")
    args = ["imspec", "--model", m, "--window", "-2.5", "2.5", "--modes", "3", "--out"]
    assert main(args + [out1]) == 0
    assert main(args + [out2]) == 0
    text = open(out1).read()
    assert text == open(out2).read()
    lines = text.strip().splitlines()
    assert lines[0] == "mode,lambda_root,pole_order_k,det_order,order_mismatch,at_window_edge"
    assert len(lines) == 6
    roots = [round(float(l.split(",")[1])) for l in lines[1:]]
    assert roots == [-2, -1, 0, 1, 2]


def test_imspec_csv_flags_window_edge_root(tmp_path, capsys):
    m = model_file(tmp_path)
    out = tmp_path / "s.csv"
    assert main(["imspec", "--model", m, "--window", "0", "0.001", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 2
    mode, root, pole_order_k, det_order, mismatch, edge = lines[1].split(",")
    assert abs(float(root)) < 1e-8
    assert (mode, pole_order_k, det_order, mismatch, edge) == ("0", "1", "2", "0", "1")
    assert capsys.readouterr().err == ""


def test_imspec_prints_warnings_and_keeps_exit_code(tmp_path, capsys, monkeypatch):
    import warnings

    import phicalc.cli

    def warning_imspec(family, **kwargs):
        warnings.warn("mode (0,): 2 eigenvalue(s) with real part in the window dropped as non-real",
                      RuntimeWarning)
        return []

    monkeypatch.setattr(phicalc.cli, "imspec", warning_imspec)
    out = tmp_path / "s.csv"
    assert main(["imspec", "--model", model_file(tmp_path), "--out", str(out)]) == 0
    err = capsys.readouterr().err.splitlines()
    assert err == ["warning: mode (0,): 2 eigenvalue(s) with real part in the window dropped as non-real"]
    assert out.read_text().strip() == "mode,lambda_root,pole_order_k,det_order,order_mismatch,at_window_edge"


def test_gap_cli(tmp_path):
    m = model_file(tmp_path)
    out = str(tmp_path / "gap.json")
    assert main(["gap", "--model", m, "--window", "-2", "2", "--grid-points", "5", "--out", out]) == 0
    got = json.load(open(out))
    assert got["normal_invertible"] and abs(got["min_gap"] - 1.0) < 1e-6


def test_solve_cli(tmp_path):
    m = model_file(tmp_path)
    out = str(tmp_path / "fits.csv")
    assert main(["solve", "--model", m, "--mode", "1", "0", "--grid", "12,1024", "--out", out]) == 0
    lines = open(out).read().strip().splitlines()
    assert lines[0] == "mode,exponent,log_power,residual,superpoly"
    fields = lines[1].split(",")
    assert abs(float(fields[1]) - 0.618034) < 0.02


def test_solve_cli_samples(tmp_path):
    m = model_file(tmp_path)
    out = str(tmp_path / "fits.csv")
    samples = str(tmp_path / "samples.csv")
    assert main(["solve", "--model", m, "--mode", "1", "0", "--grid", "10,512",
                 "--out", out, "--samples", samples]) == 0
    lines = open(samples).read().strip().splitlines()
    assert lines[0] == "x,abs_u"
    assert len(lines) == 514  # header + 513 grid points


@pytest.mark.parametrize("grid", ["12,0", "12,1", "nan,2048", "inf,2048", "-12,2048"])
def test_solve_rejects_bad_grid(tmp_path, capsys, grid):
    out = str(tmp_path / "fits.csv")
    assert main(["solve", "--mode", "1", "0", f"--grid={grid}", "--out", out]) == 2
    assert "solve grid" in capsys.readouterr().err


def test_solve_warns_when_ill_conditioned(tmp_path, capsys):
    m = jdump(tmp_path, "a2.json", {
        "a": 2,
        "base": {"circumferences": [6.283185307179586]},
        "fiber": {"circumferences": [6.283185307179586]},
    })
    out = str(tmp_path / "fits.csv")
    assert main(["solve", "--model", m, "--mode", "0", "1", "--out", out]) == 0
    err = capsys.readouterr().err
    assert err.startswith("warning:") and "e+23" in err and err.count("\n") == 1
    lines = open(out).read().strip().splitlines()
    assert lines[0] == "mode,exponent,log_power,residual,superpoly"
    assert lines[1].endswith(",1")
    assert main(["solve", "--model", model_file(tmp_path), "--mode", "1", "0", "--out", out]) == 0
    assert "warning" not in capsys.readouterr().err


def test_verify_cli(tmp_path):
    m = model_file(tmp_path)
    out = str(tmp_path / "verify.json")
    # --alpha is read exactly and written back as an int or a "p/q" string
    for alpha, echo in (("0", 0), ("1/3", "1/3")):
        assert main(["verify", "--model", m, "--alpha", alpha, "--out", out]) == 0
        got = json.load(open(out))
        assert got["verdict"] == "PASS" and got["alpha"] == echo


def test_verify_cli_fits_a_decay_between_x3_and_x10(tmp_path):
    # base circumference 3.0: mode (2,) decays like x^3.7185, below the
    # noise floor inside the fit window, and is fitted from its decade slope
    m = jdump(tmp_path, "c3.json", {"a": 1, "base": {"circumferences": [3.0]},
                                         "fiber": {"circumferences": [6.283185307179586]}})
    out = str(tmp_path / "verify.json")
    assert main(["verify", "--model", m, "--out", out]) == 0
    row = next(r for r in json.load(open(out))["rows"] if r["mode"] == [[2], [0]])
    assert abs(row["exponent"] - 3.7185) < 1e-3 and row["matched"] is not None


@pytest.mark.parametrize("alpha", ["inf", "nan"])
def test_verify_cli_rejects_non_finite_alpha_first(tmp_path, monkeypatch, capsys, alpha):
    import phicalc.cli as cli

    def no_run(*args, **kwargs):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(cli, "verify_predictions", no_run)
    out = tmp_path / "verify.json"
    with pytest.raises(SystemExit) as err:
        main(["verify", f"--alpha={alpha}", "--out", str(out)])
    assert err.value.code == 2
    assert "--alpha" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("alpha", ["400", "1e400"])
def test_verify_cli_exits_2_on_a_weight_outside_the_float_range(tmp_path, capsys, alpha):
    # the L2 test weighs samples by x^(-alpha): a weight whose square leaves
    # the float range on the grid, or that has no float value, gives no verdict
    out = tmp_path / "verify.json"
    assert main(["verify", f"--alpha={alpha}", "--out", str(out)]) == 2
    assert "L2 weight" in capsys.readouterr().err and not out.exists()


def test_compose_cli_split_route(tmp_path):
    p = jdump(tmp_path, "p.json", {"kind": "b", "order": -1, "spec": {"weight": 0.0}})
    q = jdump(tmp_path, "q.json", {"kind": "phi", "order": 0, "spec": {"weight": 0.0}, "xl": 1})
    out = str(tmp_path / "k.json")
    assert main(["compose", p, q, "-a", "1", "--b-dim", "1", "--route", "split", "--out", out]) == 0
    got = json.load(open(out))
    assert "sum" in got and len(got["sum"]) == 2


def test_verify_paper_cli(tmp_path):
    m = model_file(tmp_path)
    out = str(tmp_path / "acceptance.json")
    assert main(["verify-paper", "--model", m, "--out", out]) == 0
    report = json.load(open(out))
    assert len(report) == 7
    assert all(r["verdict"] == "PASS" for r in report)


def test_json_outputs_reparse_identically(tmp_path):
    a = iset_file(tmp_path, "a.json", [((0.5, 0), 1)])
    out = str(tmp_path / "o.json")
    assert main(["idx", "shift", a, "--by", "0.25", "--out", out]) == 0
    first = open(out).read()
    reloaded = IndexSet.from_json(json.loads(first))
    # writing the re-parsed value is byte-identical
    out2 = str(tmp_path / "o2.json")
    from phicalc.jsonio import write_json

    write_json(reloaded.to_json(), out2)
    assert open(out2).read() == first


def test_malformed_json_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"generators": [{,]')
    a = iset_file(tmp_path, "a.json", [(0, 0)])
    assert main(["idx", "union", str(bad), a]) == 2
    err = capsys.readouterr().err
    assert "line 1" in err and "column" in err
    deep = tmp_path / "deep.json"  # deeper than the decoder's recursion limit
    deep.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["idx", "union", str(deep), a]) == 2
    assert "unreadable JSON" in capsys.readouterr().err


def test_unknown_model_field_exit_2(tmp_path):
    m = jdump(tmp_path, "m.json", {"a": 1, "base": {"circumferences": [6.28]}, "fiber": {"circumferences": []}, "extra": 1})
    assert main(["imspec", "--model", m]) == 2


@pytest.mark.parametrize("command,doc", [
    ("gap", {"a": 1, "base": {"circumferences": [float("nan")]}, "fiber": {"circumferences": [6.28]}}),
    ("imspec", {"a": 1.5, "base": {"circumferences": [6.28]}, "fiber": {"circumferences": [6.28]}}),
    ("solve", {"a": 1, "base": {"circumferences": [6.28]}, "fiber": {"circumferences": []}, "x_max": 0}),
])
def test_invalid_model_values_exit_2(tmp_path, capsys, command, doc):
    m = jdump(tmp_path, "m.json", doc)
    extra = ["--mode", "1", "-"] if command == "solve" else []
    assert main([command, "--model", m, *extra, "--out", str(tmp_path / "o")]) == 2
    assert "not a valid model document" in capsys.readouterr().err


def test_bad_tolerance_exit_2(tmp_path):
    m = model_file(tmp_path)
    assert main(["imspec", "--model", m, "--tol", "-1", "--out", str(tmp_path / "s.csv")]) == 2


@pytest.mark.parametrize("k", [1.5, True])
def test_idx_rejects_non_integer_log_power(tmp_path, capsys, k):
    bad = jdump(tmp_path, "bad.json", {"empty": False, "generators": [{"re": 0, "im": 0, "k": k}]})
    assert main(["idx", "shift", bad, "--by", "1", "--out", str(tmp_path / "o.json")]) == 2
    assert "not a valid index-set document" in capsys.readouterr().err


def test_idx_scale_rejects_non_integer_factor(tmp_path, capsys):
    a = iset_file(tmp_path, "a.json", [(1, 0)])
    out = str(tmp_path / "o.json")
    assert main(["idx", "scale", a, "--by", "1.5", "--out", out]) == 2
    assert "positive integer" in capsys.readouterr().err
    assert main(["idx", "scale", a, "--by", "2", "--out", out]) == 0
    assert IndexSet.from_json(json.load(open(out))) == make_index_set([(2, 0)])


def test_imspec_negative_modes_exit_2(tmp_path, capsys):
    m = model_file(tmp_path)
    assert main(["imspec", "--model", m, "--modes", "-1", "--out", str(tmp_path / "s.csv")]) == 2
    assert "mode cutoff" in capsys.readouterr().err


def test_gap_negative_modes_exit_2(tmp_path, capsys):
    m = model_file(tmp_path)
    assert main(["gap", "--model", m, "--modes", "-1", "--out", str(tmp_path / "g.json")]) == 2
    assert "mode cutoff" in capsys.readouterr().err


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 2


# ---------------------------------------------------------------------------
# no input file raises: every document kind, through the CLI

_FIELDS = [
    "empty", "generators", "re", "im", "k",  # index set
    "kind", "lf", "rf", "bf", "ff",  # index family
    "order", "spec", "weight", "family", "xl", "xr", "vanish", "proj", "side", "power", "sum",
    "a", "m", "b_dim", "p00", "p01", "p10", "p11", "imspec_p00",  # split operator
    "normal_invertible", "p00_elliptic", "phi_elliptic",
    "base", "fiber", "circumferences", "x_max",  # model
]
_WORDS = ["b", "phi", "phi-ext", "bphi", "zero", "left", "right", "lf", "inf", "-inf", "1/3", "1/0"]
# lists hold at most 3 entries: a model's dimension is 2^(1 + circles), so
# long circumference lists would test memory, not the reader
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4) | st.sampled_from(_WORDS),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(_FIELDS) | st.text(max_size=3), inner, max_size=4),
    max_leaves=12,
)
_FLAGS = ("normal_invertible", "p00_elliptic", "phi_elliptic")
_GB = gauss_bonnet_split(a=1, b_dim=1, imspec=SPEC).to_json()
_LIFT_DOC = {"kind": "b", "order": -1, "spec": {"family": {
    "kind": "b",
    "lf": {"empty": True, "generators": []},
    "rf": {"empty": True, "generators": []},
    "bf": {"empty": False, "generators": [{"re": 0, "im": 0, "k": 0}]},
}}}
# each command with a valid document of its kind, which the fuzzer also patches
_COMMANDS = {
    "idx": (["idx", "union", "{doc}", "{doc}", "--out", "{out}"],
            make_index_set([(0, 1), (Fraction(1, 3), 0)]).to_json()),
    "compose": (["compose", "{doc}", "{doc}", "-a", "1", "--b-dim", "1", "--out", "{out}"],
                {"kind": "phi", "order": -1, "spec": {"weight": 0}}),
    "lift": (["lift", "{doc}", "-a", "1", "--b-dim", "1", "--out", "{out}"], _LIFT_DOC),
    "parametrix": (["parametrix", "--op", "{doc}", "--alpha", "1/2", "--report", "{out}"], _GB),
    "imspec": (["imspec", "--model", "{doc}", "--modes", "0", "--out", "{out}"],
               {"a": 1, "base": {"circumferences": [6.28]}, "fiber": {"circumferences": [6.28]}}),
}


@st.composite
def _command_and_document(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    seed = _COMMANDS[command][1]
    patch = st.dictionaries(st.sampled_from(_FIELDS), _JSON, min_size=1, max_size=2)
    return command, draw(_JSON | patch.map(lambda p: {**seed, **p}))


def _gb_with(**fields):
    return {**_GB, **fields}


def _run(command, doc_path, out_path):
    return main([a.format(doc=doc_path, out=out_path) for a in _COMMANDS[command][0]])


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_command_and_document())
@example(("idx", []))
@example(("idx", 3))
@example(("idx", "s"))
@example(("imspec", []))
@example(("imspec", 3))
@example(("imspec", {"a": 1, "base": []}))
@example(("compose", {"kind": {}}))
@example(("lift", {"kind": {}}))
@example(("parametrix", _gb_with(normal_invertible="false")))
def test_no_input_file_raises(tmp_path, command_and_doc):
    command, doc = command_and_doc
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code = _run(command, path, tmp_path / "out")
    assert code in (0, 1, 2)
    if command == "parametrix" and isinstance(doc, dict) and any(
        not isinstance(doc.get(f, True), bool) for f in _FLAGS
    ):
        assert code == 2  # a flag the construction relies on must be a JSON boolean


@pytest.mark.parametrize("command,doc", [
    ("idx", {"generators": [], "extra": 1}),
    ("idx", {"generators": {}}),
    ("idx", {"generators": [{"re": "1/0", "im": 0, "k": 0}]}),
    ("compose", {"kind": "phi", "order": -1, "spec": {"weight": 0, "alpha": 1}}),
    ("compose", {"kind": "phi", "order": -1, "spec": {"weight": 0}, "vanish": {"lf": 1}}),
    ("lift", {**_LIFT_DOC, "spec": {"family": {**_LIFT_DOC["spec"]["family"], "fb": None}}}),
    ("parametrix", _gb_with(p00_elliptic=1)),
    ("parametrix", _gb_with(imspec_p00="0")),
    ("parametrix", _gb_with(p11={**_GB["p11"], "proj": {"side": {}, "power": 1}})),
    ("imspec", {"a": 1, "base": {"circumferences": [6.28], "radius": 1}}),
    ("parametrix", _gb_with(p11={**_GB["p11"], "proj": {"side": "left", "power": -5}})),
    ("compose", {"kind": "phi", "order": -1, "spec": {"weight": 0}, "proj": {"side": "right", "power": 2}}),
    ("idx", {"generators": [{"re": "1e5000", "im": 0, "k": 0}]}),
    ("imspec", {"a": 1, "base": {"circumferences": [True]}}),
    ("imspec", {"a": 1, "x_max": "0.5"}),
    ("imspec", {"a": 1, "base": {"circumferences": [6.28] * 5}, "fiber": {"circumferences": [6.28] * 4}}),
    ("parametrix", _gb_with(p11={"kind": "phi", "order": 1})),
    ("compose", {"kind": "sus-phi", "order": 1}),
    ("compose", {"kind": "phi", "order": 0, "spec": {"weight": 0}, "xr": "-inf"}),
])
def test_document_shape_errors_exit_2(tmp_path, capsys, command, doc):
    # each is refused when the file is read: an unknown field in a nested
    # object, a list field that is not a list, "1/0", a projector decoration
    # (parametrix used to read it and then ignore it), a flag that is not a
    # boolean, "1e5000" (Fraction would expand it), a model number given as
    # a bool or a string, more than 8 circles, a phi-class without a spec
    # (parametrix never read that block), the retired suspended kind, an
    # x-power of -inf (no factor; compose used to fail on it inside shift)
    path = jdump(tmp_path, "doc.json", doc)
    assert _run(command, path, tmp_path / "out") == 2
    assert "not a valid" in capsys.readouterr().err


@pytest.mark.parametrize("command,a,b_dim", [("compose", "0", "1"), ("compose", "-2", "-3"), ("lift", "1", "-1")])
def test_invalid_geometry_exit_2(tmp_path, capsys, command, a, b_dim):
    # a degeneracy order below 1 or a negative base dimension
    path = jdump(tmp_path, "doc.json", _COMMANDS[command][1])
    out = tmp_path / "out"
    args = [s.format(doc=path, out=out) for s in _COMMANDS[command][0]]
    args[args.index("-a") + 1], args[args.index("--b-dim") + 1] = a, b_dim
    assert main(args) == 2
    assert "must be an integer >=" in capsys.readouterr().err and not out.exists()
