import copy
import csv
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupcut import PeriodicPWL, gmi, phi_m, pi_k, rat
from groupcut.cli import main
from conftest import bump_value


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_construct_pi_k(tmp_path, capsys):
    out = tmp_path / "f.json"
    code, stdout, _ = run(capsys, "construct", "pi-k", "--k", "4", "--b", "1/2",
                          "--out", str(out))
    assert code == 0
    assert "slopes (4)" in stdout
    assert PeriodicPWL.from_json(out.read_text()) == pi_k(4, F(1, 2))


def test_construct_gmi_and_round_trip_bytes(tmp_path, capsys):
    out = tmp_path / "g.json"
    assert run(capsys, "construct", "gmi", "--b", "1/3", "--out", str(out))[0] == 0
    blob = out.read_text()
    reserialized = json.dumps(PeriodicPWL.from_json(blob).to_dict(), indent=2) + "\n"
    assert reserialized == blob


def test_construct_rejects_bad_params(capsys):
    code, _, err = run(capsys, "construct", "pi-k", "--k", "1", "--b", "1/2")
    assert code == 2 and "k must be" in err
    code, _, err = run(capsys, "construct", "gmi", "--b", "0.5")
    assert code == 2
    code, _, err = run(capsys, "construct", "pi-k", "--b", "1/2")
    assert code == 2 and "--k" in err


def test_construct_pi_inf_prints_bound(tmp_path, capsys):
    out = tmp_path / "p.json"
    code, stdout, _ = run(capsys, "construct", "pi-inf", "--b", "1/2", "--K", "4",
                          "--out", str(out))
    assert code == 0
    assert "7/64" in stdout


def test_eval_1d_and_merged(tmp_path, capsys):
    f = tmp_path / "f.json"
    run(capsys, "construct", "gmi", "--b", "1/2", "--out", str(f))
    code, stdout, _ = run(capsys, "eval", str(f), "--x", "1/4")
    assert code == 0 and stdout.strip() == "1/2"
    m = tmp_path / "m.json"
    run(capsys, "construct", "phi-m", "--m", "2", "--b", "1/2", "--out", str(m))
    code, stdout, _ = run(capsys, "eval", str(m), "--x", "1/4,1/4")
    assert code == 0 and stdout.strip() == "1/2"


def test_verify_exit_codes(tmp_path, capsys):
    f = tmp_path / "f.json"
    run(capsys, "construct", "pi-k", "--k", "4", "--b", "1/2", "--out", str(f))
    code, stdout, _ = run(capsys, "verify", "minimal", str(f), "--b", "1/2")
    assert code == 0 and json.loads(stdout)["verdict"] == "pass"
    code, stdout, _ = run(capsys, "verify", "slopes", str(f), "--k", "4", "--b", "1/2")
    assert code == 0
    g = tmp_path / "g.json"
    run(capsys, "construct", "gmi", "--b", "1/3", "--out", str(g))
    code, stdout, _ = run(capsys, "verify", "symmetry", str(g), "--b", "1/2")
    assert code == 1
    assert json.loads(stdout)["witness"] is not None


@pytest.mark.parametrize("make, detail", [
    (lambda: gmi(F(1, 3)), "symmetry"),
    (lambda: bump_value(pi_k(3, F(1, 2)), 1, F(-1, 1000)), "subadditivity"),
])
def test_verify_minimal_names_the_failed_check(tmp_path, capsys, make, detail):
    f = tmp_path / "f.json"
    f.write_text(make().to_json())
    code, stdout, _ = run(capsys, "verify", "minimal", str(f), "--b", "1/2")
    cert = json.loads(stdout)
    assert code == 1 and cert["verdict"] == "fail" and cert["witness"] is not None
    assert cert["detail"] == detail


@pytest.mark.parametrize("b", ["0", "1", "3/2"])
def test_verify_slopes_rejects_b_outside_the_unit_interval(tmp_path, capsys, b):
    f = tmp_path / "f.json"
    f.write_text(pi_k(3, F(1, 2)).to_json())
    code, stdout, err = run(capsys, "verify", "slopes", str(f), "--k", "2", "--b", b)
    assert code == 2 and stdout == "" and _one_error_line(err) and "b must" in err


@pytest.mark.parametrize("b", ["0", "1", "3/2", "-1/2"])
@pytest.mark.parametrize("verb", [
    ["verify", "minimal", "{f}", "--b={b}"],
    ["verify", "symmetry", "{f}", "--b={b}"],
    ["certify", "{f}", "--b={b}", "--mode", "pwl-perturbation"],
    ["certify", "{f}", "--b={b}", "--mode", "replay", "--k", "3"],
    ["certify", "{f}", "--b={b}", "--mode", "two-slope"],
    ["merge", "{f}", "{f}", "--b1={b}", "--b2", "1/2", "--out", "{out}"],
], ids=["verify-minimal", "verify-symmetry", "certify-pwl-perturbation",
        "certify-replay", "certify-two-slope", "merge-b1"])
def test_every_verb_rejects_b_outside_the_unit_interval(tmp_path, capsys, verb, b):
    # check_minimal reads b modulo 1: unchecked, b = 3/2 would certify
    # pi_3(1/2), and merge --b1 3/2 would exit 1 with no witness
    f = tmp_path / "f.json"
    f.write_text(pi_k(3, F(1, 2)).to_json())
    out = tmp_path / "m.json"
    argv = [w.format(f=f, b=b, out=out) for w in verb]
    code, stdout, err = run(capsys, *argv)
    assert code == 2 and stdout == "" and _one_error_line(err), (argv, err)
    assert not out.exists()


def test_verify_parse_failure_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(capsys, "verify", "subadditive", str(bad))[0] == 2
    missing = tmp_path / "nope.json"
    assert run(capsys, "verify", "subadditive", str(missing))[0] == 2


def test_certify_modes(tmp_path, capsys):
    f = tmp_path / "f.json"
    run(capsys, "construct", "pi-k", "--k", "4", "--b", "1/2", "--out", str(f))
    code, stdout, _ = run(capsys, "certify", str(f), "--b", "1/2",
                          "--mode", "replay", "--k", "4")
    assert code == 0
    code, stdout, _ = run(capsys, "certify", str(f), "--b", "1/2",
                          "--mode", "pwl-perturbation", "--refine", "8")
    assert code == 0
    res = json.loads(stdout)
    assert res["verdict"] == "certified_unique"
    assert "perturbation" in res["note"]
    g = tmp_path / "g.json"
    run(capsys, "construct", "gmi", "--b", "1/2", "--out", str(g))
    assert run(capsys, "certify", str(g), "--b", "1/2", "--mode", "two-slope")[0] == 0


def test_certify_non_minimal_fails_first(tmp_path, capsys):
    g = tmp_path / "g.json"
    run(capsys, "construct", "gmi", "--b", "1/3", "--out", str(g))
    code, stdout, _ = run(capsys, "certify", str(g), "--b", "1/2",
                          "--mode", "two-slope")
    assert code == 1
    assert json.loads(stdout)["stage"] == "minimality"


def test_merge_verb(tmp_path, capsys):
    g = tmp_path / "g.json"
    out = tmp_path / "m.json"
    run(capsys, "construct", "gmi", "--b", "1/2", "--out", str(g))
    code, stdout, _ = run(capsys, "merge", str(g), str(g), "--b1", "1/2",
                          "--b2", "1/2", "--out", str(out))
    assert code == 0 and "arity 2" in stdout
    obj = json.loads(out.read_text())
    assert obj["kind"] == "merge"
    # merge that function over the previous result
    out2 = tmp_path / "m2.json"
    code, stdout, _ = run(capsys, "merge", str(g), str(out), "--b1", "1/2",
                          "--out", str(out2))
    assert code == 0 and "arity 3" in stdout


def test_merge_non_minimal_outer_exits_1(tmp_path, capsys):
    g = tmp_path / "g.json"
    bad = tmp_path / "bad.json"
    run(capsys, "construct", "gmi", "--b", "1/2", "--out", str(g))
    run(capsys, "construct", "gmi", "--b", "1/3", "--out", str(bad))
    # parameter mismatch makes the outer non-minimal for b1=1/2
    code, stdout, _ = run(capsys, "merge", str(bad), str(g), "--b1", "1/2",
                          "--b2", "1/2", "--out", str(tmp_path / "x.json"))
    assert code == 1
    assert json.loads(stdout)["verdict"] == "fail"


def test_plot_csv_contains_exact_breakpoints(tmp_path, capsys):
    f = tmp_path / "f.json"
    out = tmp_path / "f.csv"
    run(capsys, "construct", "pi-k", "--k", "3", "--b", "1/2", "--out", str(f))
    assert run(capsys, "plot", str(f), "--out", str(out), "--samples", "16")[0] == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    bp_rows = [(rat(r["x"]), rat(r["value"])) for r in rows
               if r["kind"] == "breakpoint"]
    expected = pi_k(3, F(1, 2))
    assert bp_rows == list(zip(expected.breakpoints, expected.values))


def test_plot_svg(tmp_path, capsys):
    f = tmp_path / "f.json"
    out = tmp_path / "f.svg"
    run(capsys, "construct", "pi-k", "--k", "2", "--b", "1/2", "--out", str(f))
    assert run(capsys, "plot", str(f), "--out", str(out))[0] == 0
    text = out.read_text()
    assert text.startswith("<svg") and "polyline" in text
    assert run(capsys, "plot", str(f), "--out", str(tmp_path / "f.txt"))[0] == 2


def test_unknown_verb_and_flags(capsys):
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys, "construct", "gmi")[0] == 2   # missing --b


def _one_error_line(err):
    lines = err.strip().splitlines()
    return len(lines) == 1 and lines[0].startswith("error:")


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_plot_rejects_nonpositive_samples(tmp_path, capsys, samples):
    f = tmp_path / "f.json"
    run(capsys, "construct", "pi-k", "--k", "3", "--b", "1/2", "--out", str(f))
    for out in (tmp_path / "f.csv", tmp_path / "f.svg"):
        code, _, err = run(capsys, "plot", str(f), "--out", str(out),
                           "--samples", samples)
        assert code == 2 and _one_error_line(err) and "--samples" in err
        assert not out.exists()


@pytest.mark.parametrize("refine", ["0", "-4", "two"])
def test_certify_rejects_nonpositive_refine(tmp_path, capsys, refine):
    f = tmp_path / "f.json"
    run(capsys, "construct", "pi-k", "--k", "4", "--b", "1/2", "--out", str(f))
    code, stdout, err = run(capsys, "certify", str(f), "--b", "1/2",
                            "--mode", "pwl-perturbation", "--refine", refine)
    assert code == 2 and stdout == "" and _one_error_line(err)
    assert "--refine" in err


@pytest.mark.parametrize("obj", [
    {"breakpoints": 5, "values": [0]},
    {"breakpoints": "0", "values": ["0"]},
    {"breakpoints": ["0", "1/2"], "values": "01"},
    {"breakpoints": {"0": 0}, "values": [0]},
    {"breakpoints": ["0", "1/2"], "values": [False, True]},
    {"breakpoints": [False, "1/2"], "values": ["0", "1"]},
])
def test_hostile_json_is_a_usage_error(tmp_path, capsys, obj):
    path = tmp_path / "f.json"
    path.write_text(json.dumps(obj))
    for argv in (["verify", "minimal", str(path), "--b", "1/2"],
                 ["eval", str(path), "--x", "1/4"]):
        code, stdout, err = run(capsys, *argv)
        assert code == 2 and stdout == "" and _one_error_line(err), (argv, err)


def test_hostile_json_inside_merged_tree(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"kind": "leaf", "b": True,
                                "fn": gmi(F(1, 2)).to_dict()}))
    code, _, err = run(capsys, "eval", str(path), "--x", "1/4")
    assert code == 2 and _one_error_line(err)
    path.write_text(json.dumps({"kind": "leaf", "b": "1/2",
                                "fn": {"breakpoints": 5, "values": [0]}}))
    code, _, err = run(capsys, "eval", str(path), "--x", "1/4")
    assert code == 2 and _one_error_line(err)
    # a merge node's b1 is range-checked as in seq_merge (-1/2 + 1/2 = 0)
    leaf = {"kind": "leaf", "b": "1/2", "fn": gmi(F(1, 2)).to_dict()}
    for b1 in ("-1/2", "0", "1"):
        path.write_text(json.dumps({"kind": "merge", "b1": b1,
                                    "outer": gmi(F(1, 2)).to_dict(), "inner": leaf}))
        code, _, err = run(capsys, "eval", str(path), "--x", "1/4,1/4")
        assert code == 2 and _one_error_line(err) and "b1" in err


@pytest.mark.parametrize("text", [
    '{"breakpoints": [' + "1" * 5000 + '], "values": [0]}',   # int past 4300 digits
    "[" * 5000 + "]" * 5000,                                   # nesting too deep
], ids=["long-int", "deep-nesting"])
def test_unreadable_json_is_a_usage_error(tmp_path, capsys, text):
    path = tmp_path / "f.json"
    path.write_text(text)
    for argv in (["verify", "subadditive", str(path)],
                 ["eval", str(path), "--x", "1/4"]):
        code, stdout, err = run(capsys, *argv)
        assert code == 2 and stdout == "" and _one_error_line(err), (argv, err)
        assert "cannot read" in err


# ---------------------------------------------------------------------------
# fuzz: mutated JSON documents and bounded flags through cli.main
# ---------------------------------------------------------------------------

SEED_DOCS = [gmi(F(1, 2)).to_dict(), pi_k(3, F(1, 3)).to_dict(),
             pi_k(4, F(1, 2)).to_dict(),
             bump_value(pi_k(3, F(1, 2)), 1, F(-1, 1000)).to_dict(),
             phi_m(2, F(1, 2)).to_dict()]
RATIONALS = ["0", "1", "1/2", "1/3", "2/5", "1/4", "2/3", "3/2", "-1/2", "1/1000",
             "1/0", "0.5", "x", ""]
JSON_SCALARS = st.one_of(st.none(), st.booleans(),
                         st.integers(-10 ** 6, 10 ** 6), st.sampled_from(RATIONALS),
                         st.text(max_size=4))
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["kind", "b", "b1", "fn", "outer", "inner",
                         "breakpoints", "values", "leaf", "merge"]),
        inner, max_size=4),
    max_leaves=8)


def _containers(node, out):
    if isinstance(node, (dict, list)):
        out.append(node)
        for child in (node.values() if isinstance(node, dict) else node):
            _containers(child, out)
    return out


@st.composite
def mutated_json(draw):
    doc = copy.deepcopy(draw(st.sampled_from(SEED_DOCS)))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 1, 2, 3]))):
        target = draw(st.sampled_from(_containers(doc, [])))
        keys = list(target) if isinstance(target, dict) else list(range(len(target)))
        if not keys:
            continue
        key = draw(st.sampled_from(keys))
        op = draw(st.sampled_from(["rational", "rational", "replace", "delete",
                                   "copy"]))
        if op == "rational":
            target[key] = draw(st.sampled_from(RATIONALS))
        elif op == "replace":
            target[key] = draw(JSON_VALUES)
        elif op == "delete":
            del target[key]
        elif isinstance(target, list):
            target.append(copy.deepcopy(target[key]))
        else:
            target["extra"] = copy.deepcopy(target[key])
    text = json.dumps(doc)
    if draw(st.integers(0, 3)):
        return text
    # raw corruption of the text: cut up to two characters, insert one
    cut = draw(st.integers(0, len(text)))
    insert = draw(st.sampled_from(["", "]", "}", ",", '"', "x"]))
    return text[:cut] + insert + text[cut + draw(st.integers(0, 2)):]


FLAG_RATIONAL = st.sampled_from(RATIONALS)


@st.composite
def argvs(draw, path, other, out_dir):
    def opt(flag, values):
        return [flag, str(draw(values))] if draw(st.booleans()) else []

    small_k = st.integers(-1, 6)
    verb = draw(st.sampled_from(["eval", "verify", "certify", "merge", "plot",
                                 "construct"]))
    if verb == "eval":
        xs = draw(st.lists(FLAG_RATIONAL, min_size=1, max_size=3))
        return ["eval", path, "--x", ",".join(xs)]
    if verb == "verify":
        check = draw(st.sampled_from(["minimal", "subadditive", "symmetry",
                                      "slopes", "zero-set"]))
        return (["verify", check, path, "--b", draw(FLAG_RATIONAL)]
                + opt("--k", small_k))
    if verb == "certify":
        mode = draw(st.sampled_from(["pwl-perturbation", "replay", "two-slope"]))
        return (["certify", path, "--b", draw(FLAG_RATIONAL), "--mode", mode]
                + opt("--refine", st.integers(-1, 8)) + opt("--k", small_k))
    if verb == "merge":
        return (["merge", path, draw(st.sampled_from([path, other])),
                 "--b1", draw(FLAG_RATIONAL)] + opt("--b2", FLAG_RATIONAL)
                + ["--out", str(out_dir / "m.json")])
    if verb == "plot":
        suffix = draw(st.sampled_from([".csv", ".svg", ".txt"]))
        return (["plot", path, "--out", str(out_dir / f"p{suffix}")]
                + opt("--samples", st.integers(-1, 8)))
    kind = draw(st.sampled_from(["gmi", "pi-k", "pi-inf", "phi-m", "pi-n-k"]))
    return (["construct", kind, "--b", draw(FLAG_RATIONAL)] + opt("--k", small_k)
            + opt("--K", small_k) + opt("--n", st.integers(-1, 3))
            + opt("--m", st.integers(-1, 3)))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_cli_fuzz_keeps_the_exit_contract(data):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        path, other = tmp / "f.json", tmp / "g.json"
        path.write_text(data.draw(mutated_json()))
        other.write_text(json.dumps(data.draw(st.sampled_from(SEED_DOCS))))
        argv = data.draw(argvs(str(path), str(other), tmp))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2), argv
    if code == 1:
        cert = json.loads(out.getvalue())
        assert isinstance(cert, dict) and "verdict" in cert, argv
    if code == 2:
        assert _one_error_line(err.getvalue()), (argv, err.getvalue())
