import copy
import csv
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupcut import (PeriodicPWL, constructions, extremality, gmi, phi_m, pi_k,
                      pi_n_k, rat, seqmerge, verification)
from groupcut.cli import _VERBS, MAX_REFINE, MAX_SAMPLES, main
from conftest import bump_value

SRC = Path(__file__).resolve().parents[1] / "src"


# gmi(1/2) merged over a leaf gmi(1/3) at b = 1/2: the leaf is not minimal
BAD_LEAF_TREE = {"kind": "merge", "b1": "1/2", "outer": gmi(F(1, 2)).to_dict(),
                "inner": {"kind": "leaf", "b": "1/2", "fn": gmi(F(1, 3)).to_dict()}}


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


def test_construct_pi_inf_names_its_level_flag(capsys):
    # the level error names K, the flag pi-inf reads (it read "k must be")
    code, stdout, err = run(capsys, "construct", "pi-inf", "--K", "1", "--b", "1/2")
    assert (code, stdout, err) == (2, "", "error: K must be >= 2, got 1\n")



def test_construct_prints_nothing_when_out_cannot_be_written(tmp_path, capsys):
    # it printed the summary of a file it never wrote, then exited 2; what
    # a successful construct prints before its last line stays as it was
    pi_3 = ["breakpoints: 6", "slopes (3): [-3/2, 3, 15/2]"]
    arity = ["arity 2, b-vector [2/3, 2/3]"]
    out, missing = tmp_path / "f.json", tmp_path / "missing" / "f.json"
    for args, lines in ((["gmi", "--b", "1/3"], ["breakpoints: 2", "slopes (2): [-3/2, 3]"]),
                        (["pi-k", "--k", "3", "--b", "1/3"], pi_3),
                        (["pi-inf", "--K", "3", "--b", "1/3"],
                         ["truncation level 3, uniform error bound 5/16", *pi_3]),
                        (["phi-m", "--m", "2", "--b", "2/3"], arity),
                        (["pi-n-k", "--n", "2", "--k", "3", "--b", "2/3"], arity)):
        code, stdout, _ = run(capsys, "construct", *args, "--out", str(out))
        assert (code, stdout.splitlines()) == (0, [*lines, f"wrote {out}"]), args
        code, stdout, _ = run(capsys, "construct", *args)
        *head, blob = stdout.splitlines()
        assert (code, head) == (0, lines) and json.loads(blob) == json.loads(out.read_text())
        code, stdout, err = run(capsys, "construct", *args, "--out", str(missing))
        assert (code, stdout) == (2, "") and _one_error_line(err), args
        assert err.startswith(f"error: cannot write {missing}: "), err


def _out_argv(tmp_path, verb, out):
    """The argv with which `verb` writes gmi(1/2), its merge with itself or
    its CSV plot to `out`."""
    g = tmp_path / "g.json"
    if not g.exists():
        g.write_text(gmi(F(1, 2)).to_json())
    return {"construct": ["construct", "gmi", "--b", "1/2"],
            "merge": ["merge", str(g), str(g), "--b1", "1/2", "--b2", "1/2"],
            "plot": ["plot", str(g)]}[verb] + ["--out", str(out)]


def test_construct_rewrites_an_existing_out_in_place(tmp_path, capsys):
    out = tmp_path / "f.json"
    assert run(capsys, "construct", "pi-k", "--k", "8", "--b", "1/3", "--out", str(out))[0] == 0
    out.chmod(0o640)
    before = out.stat()
    assert run(capsys, "construct", "gmi", "--b", "1/3", "--out", str(out))[0] == 0
    after = out.stat()
    # no stale tail of the longer pi_8 file, and the same file
    assert out.read_bytes() == gmi(F(1, 3)).to_json().encode()
    assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)


@pytest.mark.parametrize("verb", ["construct", "merge", "plot"])
def test_out_over_a_longer_file_holds_what_a_new_file_holds(tmp_path, capsys, verb):
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    old.write_text("stale\n" * 20000)
    inode = old.stat().st_ino
    code, stdout, err = run(capsys, *_out_argv(tmp_path, verb, new))
    assert run(capsys, *_out_argv(tmp_path, verb, old)) == (
        code, stdout.replace(str(new), str(old)), err)
    assert code == 0 and old.read_bytes() == new.read_bytes()
    assert old.stat().st_ino == inode


def test_out_writes_through_a_symlink(tmp_path, capsys):
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_text("stale\n" * 1000)
    link.symlink_to(target)
    assert run(capsys, "construct", "gmi", "--b", "1/2", "--out", str(link))[0] == 0
    assert link.is_symlink() and target.read_bytes() == gmi(F(1, 2)).to_json().encode()


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null")
def test_out_to_the_null_device(capsys):
    # a device is written, not cut to length
    code, stdout, err = run(capsys, "construct", "gmi", "--b", "1/2", "--out", "/dev/null")
    assert (code, stdout.splitlines()[-1:], err) == (0, ["wrote /dev/null"], "")


@pytest.mark.parametrize("verb", ["construct", "merge", "plot"])
def test_a_directory_out_is_a_usage_error(tmp_path, capsys, verb):
    out = tmp_path / "d.csv"
    out.mkdir()
    code, stdout, err = run(capsys, *_out_argv(tmp_path, verb, out))
    assert (code, stdout) == (2, "") and _one_error_line(err), err
    assert err.startswith(f"error: cannot write {out}: "), err


def test_a_new_out_gets_mode_0o666_less_the_umask(tmp_path, capsys):
    out = tmp_path / "f.json"
    umask = os.umask(0o027)
    try:
        assert run(capsys, "construct", "gmi", "--b", "1/2", "--out", str(out))[0] == 0
    finally:
        os.umask(umask)
    assert out.stat().st_mode & 0o7777 == 0o666 & ~0o027


def _cli_with_stdout(stdout):
    """Run the CLI in a child process with the given standard output."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run(
        [sys.executable, "-m", "groupcut.cli", "construct", "pi-k", "--k", "3",
         "--b", "1/3"], stdout=stdout, stderr=subprocess.PIPE, env=env,
        text=True, timeout=120)


def test_cli_exits_2_when_stdout_is_a_closed_pipe():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _cli_with_stdout(write_end)
    finally:
        os.close(write_end)
    # it printed a BrokenPipeError traceback and exited 1
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == ("error: cannot write standard output: "
                           "[Errno 32] Broken pipe\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_cli_exits_2_when_stdout_is_full():
    with open("/dev/full", "w") as full:
        proc = _cli_with_stdout(full)
    # it printed an OSError traceback and exited 1
    assert proc.returncode == 2, proc.stderr
    assert _one_error_line(proc.stderr) and "No space left" in proc.stderr, proc.stderr


def test_construct_pi_n_k(tmp_path, capsys):
    out = tmp_path / "F.json"
    code, stdout, _ = run(capsys, "construct", "pi-n-k", "--n", "3", "--k", "3",
                          "--b", "2/3", "--out", str(out))
    assert code == 0
    assert stdout.splitlines() == ["arity 3, b-vector [2/3, 2/3, 2/3]", f"wrote {out}"]
    assert json.loads(out.read_text()) == pi_n_k(3, 3, F(2, 3)).to_dict()


def test_eval_1d_and_merged(tmp_path, capsys):
    f = tmp_path / "f.json"
    run(capsys, "construct", "gmi", "--b", "1/2", "--out", str(f))
    code, stdout, _ = run(capsys, "eval", str(f), "--x", "1/4")
    assert code == 0 and stdout.strip() == "1/2"
    m = tmp_path / "m.json"
    run(capsys, "construct", "phi-m", "--m", "2", "--b", "1/2", "--out", str(m))
    code, stdout, _ = run(capsys, "eval", str(m), "--x", "1/4,1/4")
    assert code == 0 and stdout.strip() == "1/2"


# --x lists and what eval prints for them on gmi(1/2) ("g") and on phi_2(1/2)
# ("m"): a bad token is reported before a wrong count, on either file
EVAL_LINES = [
    ("g", "1/2,abc", 2, "", "error: not a rational: 'abc'\n"),
    ("g", "abc,1/2", 2, "", "error: not a rational: 'abc'\n"),
    ("g", "1/2,1/3", 2, "", "error: 1-D function takes a single --x value\n"),
    ("g", "1/2,1/0", 2, "", "error: not a rational: '1/0'\n"),
    ("g", "0.5", 2, "", "error: expected exact rational 'p/q', got '0.5'\n"),
    ("g", "", 2, "", "error: not a rational: ''\n"),
    ("g", "1/2,", 2, "", "error: not a rational: ''\n"),
    ("g", "7", 0, "0\n", ""),
    ("g", " 1/3", 0, "2/3\n", ""),
    ("m", "1/2", 2, "", "error: expected a vector of length 2, got 1\n"),
    ("m", "1/2,1/3,1/4", 2, "", "error: expected a vector of length 2, got 3\n"),
    ("m", "1/0", 2, "", "error: not a rational: '1/0'\n"),
    ("m", "1/2,0.5", 2, "", "error: expected exact rational 'p/q', got '0.5'\n"),
    ("m", ",", 2, "", "error: not a rational: ''\n"),
    ("m", "6/-8,1/2", 2, "", "error: not a rational: '6/-8'\n"),
    ("m", "1/2,1/3/4", 2, "", "error: not a rational: '1/3/4'\n"),
    ("m", "2/4,-6/8", 0, "3/4\n", ""),
    ("m", "1/2, 1/3", 0, "5/6\n", ""),
]


@pytest.mark.parametrize("which, x, code, stdout, err", EVAL_LINES)
def test_eval_x_lists_keep_their_lines(tmp_path, capsys, which, x, code, stdout, err):
    path = tmp_path / f"{which}.json"
    kind = ["gmi"] if which == "g" else ["phi-m", "--m", "2"]
    run(capsys, "construct", *kind, "--b", "1/2", "--out", str(path))
    assert run(capsys, "eval", str(path), f"--x={x}") == (code, stdout, err)


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


def test_verify_subadditive_pass_and_pair_witness(tmp_path, capsys):
    f = tmp_path / "f.json"
    f.write_text(pi_k(3, F(1, 2)).to_json())
    code, stdout, _ = run(capsys, "verify", "subadditive", str(f))
    assert code == 0 and json.loads(stdout)["verdict"] == "pass"
    bad = bump_value(pi_k(3, F(1, 2)), 1, F(-1, 1000))
    f.write_text(bad.to_json())
    code, stdout, _ = run(capsys, "verify", "subadditive", str(f))
    w = json.loads(stdout)["witness"]
    assert code == 1 and w["kind"] == "pair"
    assert bad.delta(rat(w["x"]), rat(w["y"])) == rat(w["delta"]) < 0


def test_verify_zero_set_pass_and_breakpoint_witness(tmp_path, capsys):
    f = tmp_path / "f.json"
    f.write_text(pi_k(3, F(1, 2)).to_json())
    code, stdout, _ = run(capsys, "verify", "zero-set", str(f))
    assert code == 0 and json.loads(stdout)["verdict"] == "pass"
    # 0 again at the breakpoint 1/2, with positive pieces on both sides
    bad = PeriodicPWL([0, F(1, 4), F(1, 2), F(3, 4)], [0, 1, 0, 1])
    f.write_text(bad.to_json())
    code, stdout, _ = run(capsys, "verify", "zero-set", str(f))
    assert code == 1
    assert json.loads(stdout)["witness"] == {"kind": "point", "x": "1/2", "value": "0"}
    assert bad.eval(F(1, 2)) == 0


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


# slopes 6, -3, 3/2: the k = 3 census at b = 2/3, where no interval system exists
CENSUS_3_AT_TWO_THIRDS = PeriodicPWL([0, F(1, 9), F(2, 9), F(2, 3)], [0, F(2, 3), F(1, 3), 1])


@pytest.mark.parametrize("f, code_at_k_2", [(CENSUS_3_AT_TWO_THIRDS, 1), (gmi(F(2, 3)), 0)])
def test_verify_slopes_refuses_b_above_one_half_for_k_3(tmp_path, capsys, f, code_at_k_2):
    # the refusal depends on (k, b) only, not on f's slopes
    p = tmp_path / "f.json"
    p.write_text(f.to_json())
    code, stdout, err = run(capsys, "verify", "slopes", str(p), "--k", "3", "--b", "2/3")
    assert code == 2 and stdout == "" and _one_error_line(err)
    assert "b must lie in (0, 1/2], got 2/3" in err
    code, stdout, _ = run(capsys, "verify", "slopes", str(p), "--k", "2", "--b", "2/3")
    assert code == code_at_k_2
    assert json.loads(stdout)["verdict"] == ("pass" if code == 0 else "fail")


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


CERTIFY_MODES = [["--mode", "pwl-perturbation", "--refine", "8"],
                 ["--mode", "replay", "--k", "4"], ["--mode", "two-slope"]]


@pytest.fixture
def gate_counts(monkeypatch):
    """Counts of the lattices built and the vertex scans run."""
    counts = {"lattices": 0, "scans": 0}
    init, scan = verification._Lattice.__init__, verification._scan

    def counted_init(self, *args, **kwargs):
        counts["lattices"] += 1
        init(self, *args, **kwargs)

    def counted_scan(*args):
        counts["scans"] += 1
        return scan(*args)

    monkeypatch.setattr(verification._Lattice, "__init__", counted_init)
    monkeypatch.setattr(verification, "_scan", counted_scan)
    return counts


def test_certify_non_minimal_fails_first(tmp_path, capsys):
    b = F(1, 2)
    # symmetric and nonnegative, but f(1/8) + f(1/4) < f(3/8)
    dent = PeriodicPWL([F(0), F(1, 8), F(1, 4), F(3, 8), b],
                       [F(0), F(1, 5), F(1, 2), F(4, 5), F(1)])
    for f, detail in ((gmi(F(1, 3)), "symmetry"), (dent, "subadditivity")):
        g = tmp_path / "g.json"
        g.write_text(f.to_json())
        for mode in CERTIFY_MODES:
            code, stdout, _ = run(capsys, "certify", str(g), "--b", "1/2", *mode)
            c = json.loads(stdout)
            assert code == 1, mode
            assert c["stage"] == "minimality" and c["detail"] == detail
            w = c["witness"]
            x = rat(w["x"])
            if detail == "symmetry":
                assert f.eval(x) + f.eval(b - x) == rat(w["sum"]) != 1
            else:
                y = rat(w["y"])
                assert f.eval(x) + f.eval(y) - f.eval(x + y) == rat(w["delta"]) < 0


def test_certify_runs_one_gate_per_call(tmp_path, capsys, gate_counts):
    b = F(1, 2)
    for f, codes in ((pi_k(4, b), (0, 0, 1)), (gmi(b), (0, 1, 0))):
        path = tmp_path / "f.json"
        path.write_text(f.to_json())
        for mode, code in zip(CERTIFY_MODES, codes):
            gate_counts.update(lattices=0, scans=0)
            assert run(capsys, "certify", str(path), "--b", "1/2", *mode)[0] == code
            assert gate_counts == {"lattices": 1, "scans": 1}, (f, mode)


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


def test_merge_refuses_b2_with_a_merged_inner(tmp_path, capsys):
    # a merged inner file carries its own parameters, so --b2 has no node
    # to apply to: refused, not silently dropped
    g, m, out = tmp_path / "g.json", tmp_path / "m.json", tmp_path / "x.json"
    g.write_text(gmi(F(1, 2)).to_json())
    assert run(capsys, "merge", str(g), str(g), "--b1", "1/2", "--b2", "1/2",
               "--out", str(m))[0] == 0
    code, stdout, err = run(capsys, "merge", str(g), str(m), "--b1", "1/2",
                            "--b2", "1/3", "--out", str(out))
    assert code == 2 and stdout == "" and _one_error_line(err)
    assert "--b2 applies only to a plain 1-D inner function" in err
    assert not out.exists()


def test_merge_warns_when_the_outer_lift_decreases(tmp_path, capsys):
    # pi_4(1/3) has slope 33/2 > 3 = 1/b1: minimal, but x - b1 f(x) decreases
    outer, inner, out = tmp_path / "o.json", tmp_path / "i.json", tmp_path / "m.json"
    outer.write_text(pi_k(4, F(1, 3)).to_json())
    inner.write_text(gmi(F(1, 2)).to_json())
    code, stdout, err = run(capsys, "merge", str(outer), str(inner), "--b1", "1/3",
                            "--b2", "1/2", "--out", str(out))
    assert code == 0 and "arity 2, b-vector [1/3, 1/2]" in stdout and out.exists()
    assert err.startswith("warning: the outer lift is not nondecreasing")


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


def test_merge_exit_codes_for_a_non_minimal_inner(tmp_path, capsys):
    # a plain inner is a merge ingredient (exit 1, like a bad outer); a
    # merged inner file that holds a non-minimal node is bad input (exit 2)
    g, bad, out = tmp_path / "g.json", tmp_path / "bad.json", tmp_path / "x.json"
    g.write_text(gmi(F(1, 2)).to_json())
    bad.write_text(json.dumps(BAD_LEAF_TREE))
    code, stdout, _ = run(capsys, "merge", str(g), str(g), "--b1", "1/2",
                          "--b2", "1/3", "--out", str(out))
    c = json.loads(stdout)
    assert code == 1 and not out.exists()
    assert c["verdict"] == "fail" and c["stage"] == "minimality"
    assert c["reason"] == "f2 is not minimal at b2 = 1/3"
    assert c["detail"] == "symmetry" and c["witness"]["kind"] == "point"
    f, b2, x = gmi(F(1, 2)), F(1, 3), rat(c["witness"]["x"])
    assert f.eval(x) + f.eval(b2 - x) == rat(c["witness"]["sum"]) != 1
    code, stdout, err = run(capsys, "merge", str(g), str(bad), "--b1", "1/2",
                            "--out", str(out))
    assert code == 2 and stdout == "" and _one_error_line(err)
    assert "f2 is not minimal" in err and not out.exists()


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


@pytest.mark.parametrize("values", [["0", "-1"], ["-1", "-1/2"], ["0", "1"],
                                    ["0", "-1" + "0" * 400]])
def test_plot_svg_draws_every_point_on_the_canvas(tmp_path, capsys, values):
    # the height spans [min(0, values), max(0, values)]: a negative value
    # is drawn inside the canvas, 0 sits on the lower edge when no value is
    # negative, and every float is a ratio in [0, 1], even for a value no
    # float can hold
    f = tmp_path / "f.json"
    f.write_text(json.dumps({"breakpoints": ["0", "1/2"], "values": values}))
    out = tmp_path / "f.svg"
    assert run(capsys, "plot", str(f), "--out", str(out))[0] == 0
    text = out.read_text()
    assert 'viewBox="0 0 640 360"' in text
    pad, height = 40, 360
    poly = re.search(r'points="([^"]*)"', text).group(1)
    ys = [float(p.split(",")[1]) for p in poly.split()]
    ys += [float(y) for y in re.findall(r'cy="([^"]*)"', text)]
    assert len(ys) == 6 and all(pad <= y <= height - pad for y in ys)
    if values == ["0", "1"]:
        assert poly == "40.00,320.00 320.00,40.00 600.00,320.00"


@pytest.mark.parametrize("value, suffix", [
    ("1" + "0" * 400, ".csv"), ("-1" + "0" * 400, ".csv"),
])
def test_plot_refuses_a_value_outside_the_float_range(tmp_path, capsys, value, suffix):
    # exit 2, not a traceback, and no partial file: the floats come first
    f = tmp_path / "f.json"
    f.write_text(json.dumps({"breakpoints": ["0", "1/2"], "values": ["0", value]}))
    out = tmp_path / f"p{suffix}"
    code, stdout, err = run(capsys, "plot", str(f), "--out", str(out))
    assert code == 2 and stdout == "" and _one_error_line(err)
    assert "outside the float range" in err and not out.exists()


def test_unknown_verb_and_flags(capsys):
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys, "construct", "gmi")[0] == 2   # missing --b


# argv, exit code, and for exit 2 a text its one error line holds; for exit
# 0 or 1, the argv whose stdout it must repeat.  {f} is pi_3(1/2).
SPELLINGS = [
    (["construct", "gmi", "--b=1/2"], 0, ["construct", "gmi", "--b", "1/2"]),
    (["certify", "{f}", "--b", "1/2", "--mo", "replay", "--k", "3"], 0,
     ["certify", "{f}", "--b", "1/2", "--mode", "replay", "--k", "3"]),
    (["certify", "{f}", "--b", "1/2", "--mo=two-slope"], 1,
     ["certify", "{f}", "--b", "1/2", "--mode", "two-slope"]),
    (["construct", "pi-k", "--b", "1/2", "--k", "5", "--k", "3"], 0,
     ["construct", "pi-k", "--b", "1/2", "--k", "3"]),
    (["eval", "{f}", "--x=-1/4"], 0, ["eval", "{f}", "--x", "3/4"]),
    (["verify", "--b", "1/2", "minimal", "{f}"], 0, ["verify", "minimal", "{f}", "--b", "1/2"]),
    (["merge", "{f}", "{f}", "--b", "1/2", "--out", "{out}"], 2,
     "ambiguous option: --b could match --b1, --b2"),
    (["construct", "gmi", "--b", "1/2", "--out"], 2, "argument --out: expected one argument"),
    (["eval", "{f}", "--x", "-1/4"], 2, "argument --x: expected one argument"),
    (["construct", "gmi", "--b", "1/2", "--frob"], 2, "unrecognized arguments: --frob"),
    (["construct", "gmi", "--b", "1/2", "extra"], 2, "unrecognized arguments: extra"),
    (["construct", "gmi"], 2, "the following arguments are required: --b"),
    (["merge", "{f}"], 2, "the following arguments are required: inner, --b1, --out"),
    (["construct", "gmi", "--b", "3/2"], 2,
     "argument --b: right-hand side b must lie in (0, 1), got 3/2"),
    (["verify", "bogus", "{f}"], 2, "argument check: invalid choice: 'bogus'"),
    (["certify", "{f}", "--b", "1/2", "--mode=bogus"], 2, "argument --mode: invalid choice: 'bogus'"),
    ([], 2, "the following arguments are required: verb"),
    (["frobnicate"], 2, "argument verb: invalid choice: 'frobnicate'"),
]


@pytest.mark.parametrize("argv, code, expect", SPELLINGS,
                         ids=[" ".join(argv) or "empty" for argv, _, _ in SPELLINGS])
def test_argv_spellings(tmp_path, capsys, argv, code, expect):
    f = tmp_path / "f.json"
    f.write_text(pi_k(3, F(1, 2)).to_json())
    out = tmp_path / "out.json"

    def fill(words):
        return [w.format(f=f, out=out) for w in words]

    got, stdout, err = run(capsys, *fill(argv))
    assert got == code, err
    if code == 2:
        assert stdout == "" and _one_error_line(err) and expect in err, err
        assert not out.exists()
    else:
        assert err == "" and (got, stdout) == run(capsys, *fill(expect))[:2]


@pytest.mark.parametrize("verb", [None, *_VERBS])
@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_names_every_verb_and_flag(tmp_path, capsys, verb, flag):
    # help wins over a missing required argument, and writes nothing
    argv = [flag] if verb is None else [verb, flag]
    code, stdout, err = run(capsys, *argv)
    assert code == 0 and err == "" and stdout.startswith("usage: groupcut")
    for name in _VERBS if verb is None else [verb]:
        _, text, positionals, flags = _VERBS[name]
        assert name in stdout and text in stdout
        assert all(f"{name_} " in stdout for name_ in flags)
        assert all((",".join(r) if isinstance(r, (tuple, dict)) else p) in stdout
                   for p, r in positionals)
    if verb is not None:
        # a flag that only some choices read is led by those choices
        _, _, positionals, flags = _VERBS[verb]
        choices = next((r for r in (*(r for _, r in positionals),
                                    *(spec[0] for spec in flags.values()))
                        if isinstance(r, dict)), {})
        lines = {line.split()[0]: line for line in stdout.splitlines()
                 if line.startswith("  --")}
        for opt in flags:
            by = [c for c, reads in choices.items() if opt in reads]
            head = f"for {', '.join(by)}: " if by else ""
            text = lines[opt].split(None, 1)[1]
            assert text.startswith(head), lines[opt]
            assert not text[len(head):].startswith("for "), lines[opt]
    out = tmp_path / "g.json"
    code, stdout2, _ = run(capsys, "construct", "gmi", "--out", str(out), flag)
    assert code == 0 and stdout2.startswith("usage: groupcut construct")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["construct", "pi-k", "--b", "1/2", "--k", "65"],
    ["construct", "pi-inf", "--b", "1/2", "--K", "65"],
    ["construct", "phi-m", "--b", "1/2", "--m", "990"],
    ["construct", "pi-n-k", "--b", "1/2", "--n", "65", "--k", "3"],
    ["construct", "pi-n-k", "--b", "1/2", "--n", "2", "--k", "100000"],
    ["verify", "slopes", "{f}", "--b", "1/2", "--k", "65"],
    ["certify", "{f}", "--b", "1/2", "--mode", "replay", "--k", "65"],
], ids=["pi-k", "pi-inf", "phi-m", "pi-n-k-n", "pi-n-k-k", "verify", "certify"])
def test_level_flags_are_capped(tmp_path, capsys, argv):
    # pi_k grows as k^2 bits, and phi-m --m 990 used to exit with a
    # RecursionError traceback
    f = tmp_path / "f.json"
    f.write_text(pi_k(3, F(1, 2)).to_json())
    code, stdout, err = run(capsys, *[w.format(f=f) for w in argv])
    assert code == 2 and stdout == "" and _one_error_line(err), (argv, err)
    assert "at most 64" in err


def test_certify_replay_requires_k_before_any_scan(tmp_path, capsys, gate_counts):
    # a missing --k, a level below 3 and a b above 1/2 are each refused
    # before the minimality gate runs, whether or not f would pass it
    for f in (gmi(F(1, 3)), pi_k(3, F(1, 2))):     # not minimal, minimal
        path = tmp_path / "f.json"
        path.write_text(f.to_json())
        for argv, flag in ((["--b", "1/2"], "--k"),
                           (["--b", "1/2", "--k", "2"], "k must be >= 3"),
                           (["--b", "2/3", "--k", "3"], "b must lie in (0, 1/2]")):
            code, stdout, err = run(capsys, "certify", str(path), "--mode",
                                    "replay", *argv)
            assert code == 2 and stdout == "" and _one_error_line(err)
            assert flag in err, (argv, err)
    assert gate_counts["scans"] == 0


def test_k_is_refused_where_nothing_reads_it(tmp_path, capsys, gate_counts):
    # --k levels only the replay and the slope census, and --b is read by
    # minimal, symmetry and slopes only: any other certify mode or verify
    # check refuses them before loading f, as merge refuses a --b2 that has
    # no node to apply to
    path = tmp_path / "f.json"
    path.write_text(pi_k(3, F(1, 2)).to_json())
    cases = [(["certify", str(path), "--b", "1/2", "--mode", mode], "--k",
              "certify --mode replay") for mode in ("two-slope", "pwl-perturbation")]
    cases += [(["verify", check, str(path), *b], "--k", "verify slopes")
              for check, b in (("minimal", ["--b", "1/2"]), ("subadditive", []),
                               ("symmetry", ["--b", "1/2"]), ("zero-set", []))]
    cases += [(["verify", check, str(path)], "--b",
               "verify minimal and symmetry and slopes")
              for check in ("subadditive", "zero-set")]
    stray = {"--k": ("5", "3"), "--b": ("1/2", "1/3")}
    for argv, flag, where in cases:
        for value in stray[flag]:
            code, stdout, err = run(capsys, *argv, flag, value)
            assert code == 2 and stdout == "" and _one_error_line(err), (argv, err)
            assert f"{flag} applies only to {where}" in err
    assert gate_counts == {"lattices": 0, "scans": 0}
    # without the stray flag each runs
    for argv, _, _ in cases:
        assert run(capsys, *argv)[0] in (0, 1)


def test_construct_refuses_levels_its_kind_does_not_read(tmp_path, capsys,
                                                       monkeypatch):
    # each kind reads only its own levels: a stray one is refused before
    # anything is built or written, as --k is for certify and verify
    built = []
    for module, name in ((constructions, "gmi"), (constructions, "pi_k"),
                         (seqmerge, "phi_m"), (seqmerge, "pi_n_k")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *a, real=real: built.append(a) or real(*a))
    own = {"gmi": [], "pi-k": ["--k", "3"], "pi-inf": ["--K", "3"],
           "phi-m": ["--m", "2"], "pi-n-k": ["--n", "2", "--k", "3"]}
    read_by = {"--k": "pi-k and pi-n-k", "--K": "pi-inf", "--n": "pi-n-k",
               "--m": "phi-m"}
    out = tmp_path / "f.json"
    for kind, levels in own.items():
        for flag in sorted(read_by.keys() - set(levels)):
            for value in ("3", "0"):
                code, stdout, err = run(capsys, "construct", kind, "--b", "1/2",
                                        *levels, flag, value, "--out", str(out))
                assert code == 2 and stdout == "" and _one_error_line(err), err
                assert f"{flag} applies only to construct {read_by[flag]}" in err
    assert built == [] and not out.exists()
    code, _, err = run(capsys, "construct", "gmi", "--b", "1/2", "--k", "5",
                       "--n", "3", "--out", str(out))
    assert (code, err) == (2, "error: --k applies only to construct pi-k and "
                              "pi-n-k\n")
    # with its own levels only each kind builds
    for kind, levels in own.items():
        before = len(built)
        assert run(capsys, "construct", kind, "--b", "1/2", *levels)[0] == 0
        assert len(built) > before, kind


def test_refine_is_refused_where_nothing_reads_it(tmp_path, capsys, gate_counts,
                                                  monkeypatch):
    # --refine is read by pwl-perturbation only, which refines by 16 when
    # it is not given
    path = tmp_path / "f.json"
    path.write_text(pi_k(3, F(1, 2)).to_json())
    certify = ["certify", str(path), "--b", "1/2", "--mode"]
    modes = (["two-slope"], ["replay", "--k", "3"])
    for mode in modes:
        for refine in ("8", "16"):
            code, stdout, err = run(capsys, *certify, *mode, "--refine", refine)
            assert code == 2 and stdout == "" and _one_error_line(err), err
            assert "--refine applies only to certify --mode pwl-perturbation" in err
    assert gate_counts == {"lattices": 0, "scans": 0}
    for mode in modes:
        assert run(capsys, *certify, *mode)[0] in (0, 1)
    refines, test = [], extremality.restricted_facet_test
    monkeypatch.setattr(extremality, "restricted_facet_test",
                        lambda f, b, d: refines.append(d) or test(f, b, d))
    default = run(capsys, *certify, "pwl-perturbation")
    assert default == run(capsys, *certify, "pwl-perturbation", "--refine", "16")
    assert default[0] == 0 and refines == [16, 16]
    help_lines = run(capsys, "certify", "-h")[1].splitlines()
    assert [line for line in help_lines if "--refine " in line][-1].endswith(
        f"at most {MAX_REFINE} (default 16)")


# every single fault in the flags a choice reads, with the line it prints:
# each choice given each flag that only other choices read, and each choice
# without a flag it requires.  All but the three marked lines are the ones
# printed before the verb table named each choice's flags.
_CHOICE_FLAG_FAULTS = [
    ("construct gmi --b 1/2 --k 3", "--k applies only to construct pi-k and pi-n-k"),
    ("construct gmi --b 1/2 --K 3", "--K applies only to construct pi-inf"),
    ("construct gmi --b 1/2 --n 3", "--n applies only to construct pi-n-k"),
    ("construct gmi --b 1/2 --m 3", "--m applies only to construct phi-m"),
    ("construct pi-k --b 1/2 --k 3 --K 3", "--K applies only to construct pi-inf"),
    ("construct pi-k --b 1/2 --k 3 --n 3", "--n applies only to construct pi-n-k"),
    ("construct pi-k --b 1/2 --k 3 --m 3", "--m applies only to construct phi-m"),
    ("construct pi-inf --b 1/2 --K 3 --k 3",
     "--k applies only to construct pi-k and pi-n-k"),
    ("construct pi-inf --b 1/2 --K 3 --n 3", "--n applies only to construct pi-n-k"),
    ("construct pi-inf --b 1/2 --K 3 --m 3", "--m applies only to construct phi-m"),
    ("construct phi-m --b 1/2 --m 3 --k 3",
     "--k applies only to construct pi-k and pi-n-k"),
    ("construct phi-m --b 1/2 --m 3 --K 3", "--K applies only to construct pi-inf"),
    ("construct phi-m --b 1/2 --m 3 --n 3", "--n applies only to construct pi-n-k"),
    ("construct pi-n-k --b 1/2 --n 3 --k 3 --K 3",
     "--K applies only to construct pi-inf"),
    ("construct pi-n-k --b 1/2 --n 3 --k 3 --m 3", "--m applies only to construct phi-m"),
    ("construct pi-k --b 1/2", "construct pi-k requires --k"),
    # was "construct pi-inf requires --K (truncation level)"
    ("construct pi-inf --b 1/2", "construct pi-inf requires --K"),
    ("construct phi-m --b 1/2", "construct phi-m requires --m"),
    ("construct pi-n-k --b 1/2 --k 3", "construct pi-n-k requires --n and --k"),
    ("construct pi-n-k --b 1/2 --n 3", "construct pi-n-k requires --n and --k"),
    ("verify minimal {f} --b 1/2 --k 3", "--k applies only to verify slopes"),
    ("verify subadditive {f} --k 3", "--k applies only to verify slopes"),
    # these two exited 0 and ignored --b
    ("verify subadditive {f} --b 1/2",
     "--b applies only to verify minimal and symmetry and slopes"),
    ("verify symmetry {f} --b 1/2 --k 3", "--k applies only to verify slopes"),
    ("verify zero-set {f} --k 3", "--k applies only to verify slopes"),
    ("verify zero-set {f} --b 1/2",
     "--b applies only to verify minimal and symmetry and slopes"),
    ("verify minimal {f}", "verify minimal requires --b"),
    ("verify symmetry {f}", "verify symmetry requires --b"),
    ("verify slopes {f} --b 1/2", "verify slopes requires --k and --b"),
    ("verify slopes {f} --k 3", "verify slopes requires --k and --b"),
    ("certify {f} --b 1/2 --mode pwl-perturbation --k 3",
     "--k applies only to certify --mode replay"),
    ("certify {f} --b 1/2 --mode replay --k 3 --refine 16",
     "--refine applies only to certify --mode pwl-perturbation"),
    ("certify {f} --b 1/2 --mode two-slope --k 3",
     "--k applies only to certify --mode replay"),
    ("certify {f} --b 1/2 --mode two-slope --refine 16",
     "--refine applies only to certify --mode pwl-perturbation"),
    ("certify {f} --b 1/2 --mode replay", "certify --mode replay requires --k"),
]
# two faults: a flag refused comes before a flag required, and both before
# the file is read (verify read the file first, certify reported the
# requirement first)
_CHOICE_FLAG_TWO_FAULTS = [
    ("construct pi-k --b 1/2 --K 3", "--K applies only to construct pi-inf"),
    ("verify minimal {missing}", "verify minimal requires --b"),
    ("certify {f} --b 1/2 --mode replay --refine 16",
     "--refine applies only to certify --mode pwl-perturbation"),
]


def test_choice_flag_faults_print_one_fixed_line(tmp_path, capsys, gate_counts):
    f = tmp_path / "f.json"
    f.write_text(pi_k(3, F(1, 2)).to_json())
    missing = tmp_path / "missing.json"
    for argv, line in _CHOICE_FLAG_FAULTS + _CHOICE_FLAG_TWO_FAULTS:
        words = argv.format(f=f, missing=missing).split()
        assert run(capsys, *words) == (2, "", f"error: {line}\n"), argv
    assert gate_counts == {"lattices": 0, "scans": 0}


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


def test_refine_and_samples_have_an_upper_bound(tmp_path, capsys):
    f = tmp_path / "f.json"
    f.write_text(gmi(F(1, 2)).to_json())
    # every value here is refused by the argv parser, before any work starts
    for n in (MAX_REFINE + 1, 10**9):
        code, stdout, err = run(capsys, "certify", str(f), "--b", "1/2",
                                "--mode", "pwl-perturbation", "--refine", str(n))
        assert code == 2 and stdout == "" and _one_error_line(err)
        assert "--refine" in err and f"at most {MAX_REFINE}" in err
    for n in (MAX_SAMPLES + 1, 10**9):
        out = tmp_path / "f.csv"
        code, _, err = run(capsys, "plot", str(f), "--out", str(out),
                           "--samples", str(n))
        assert code == 2 and _one_error_line(err) and not out.exists()
        assert "--samples" in err and f"at most {MAX_SAMPLES}" in err
    # the bound itself is accepted
    code, stdout, _ = run(capsys, "certify", str(f), "--b", "1/2", "--mode",
                          "pwl-perturbation", "--refine", str(MAX_REFINE))
    assert code == 0 and json.loads(stdout)["verdict"] == "certified_unique"


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
    # every node must be minimal at its parameter: the non-minimal node is
    # the leaf of BAD_LEAF_TREE and the middle outer of a depth-3 tree
    leaf = {"kind": "leaf", "b": "1/2", "fn": gmi(F(1, 2)).to_dict()}
    bad_middle = {"kind": "merge", "b1": "1/2", "outer": gmi(F(1, 2)).to_dict(),
                  "inner": {"kind": "merge", "b1": "1/2",
                            "outer": gmi(F(1, 3)).to_dict(), "inner": leaf}}
    for tree, x in ((BAD_LEAF_TREE, "1/4,1/4"), (bad_middle, "1/4,1/4,1/4")):
        path.write_text(json.dumps(tree))
        code, stdout, err = run(capsys, "eval", str(path), "--x", x)
        assert code == 2 and stdout == "" and _one_error_line(err)
        assert "f2 is not minimal at b2 = 1/2" in err
    # a merge node's b1 is range-checked as in MergedFn (-1/2 + 1/2 = 0)
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


@pytest.mark.parametrize("fn", [
    {"breakpoints": ["0", "1/2"], "values": ["0", "9" * 5000]},
    {"breakpoints": ["0", "1/" + "9" * 5000], "values": ["0", "1"]},
], ids=["value", "breakpoint"])
def test_a_coordinate_past_the_int_digit_limit_is_a_usage_error(tmp_path, capsys, fn):
    # a JSON string, so the file reads; int() refuses the digits
    if not 0 < sys.get_int_max_str_digits() < 5000:
        pytest.skip("needs an int digit limit below 5000 digits")
    one_d, merged, outer = (tmp_path / name for name in ("f.json", "m.json", "g.json"))
    one_d.write_text(json.dumps(fn))
    merged.write_text(json.dumps({"kind": "leaf", "b": "1/2", "fn": fn}))
    outer.write_text(gmi(F(1, 2)).to_json())
    out = tmp_path / "out.json"
    for argv in (["eval", str(one_d), "--x", "1/4"],
                 ["verify", "minimal", str(one_d), "--b", "1/2"],
                 ["eval", str(merged), "--x", "1/4"],
                 ["merge", str(outer), str(merged), "--b1", "1/2", "--out", str(out)]):
        code, stdout, err = run(capsys, *argv)
        assert code == 2 and stdout == "" and _one_error_line(err), (argv, err)
        assert err.startswith("error: not a rational:")
    assert not out.exists()


# ---------------------------------------------------------------------------
# fuzz: mutated JSON documents and bounded flags through cli.main
# ---------------------------------------------------------------------------

SEED_DOCS = [gmi(F(1, 2)).to_dict(), pi_k(3, F(1, 3)).to_dict(),
             pi_k(4, F(1, 2)).to_dict(),
             bump_value(pi_k(3, F(1, 2)), 1, F(-1, 1000)).to_dict(),
             phi_m(2, F(1, 2)).to_dict(), phi_m(3, F(1, 2)).to_dict(),
             BAD_LEAF_TREE]
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
    verb = draw(st.sampled_from(["eval", "verify", "certify", "merge", "plot",
                                 "construct"]))
    flags = [*_VERBS[verb][3], "--help"]

    def given_(flag, value):
        # `--flag value`, `--flag=value`, or either with the flag cut to a
        # prefix that no other flag of the verb shares
        cut = draw(st.sampled_from([
            flag[:n] for n in range(3, len(flag) + 1)
            if [g for g in flags if g.startswith(flag[:n])] == [flag]]))
        return [f"{cut}={value}"] if draw(st.booleans()) else [cut, str(value)]

    def opt(flag, values):
        return given_(flag, draw(values)) if draw(st.booleans()) else []

    small_k = st.integers(-1, 6)
    if verb == "eval":
        xs = draw(st.lists(FLAG_RATIONAL, min_size=1, max_size=3))
        return ["eval", path, *given_("--x", ",".join(xs))]
    if verb == "verify":
        check = draw(st.sampled_from(["minimal", "subadditive", "symmetry",
                                      "slopes", "zero-set"]))
        return (["verify", check, path, *given_("--b", draw(FLAG_RATIONAL))]
                + opt("--k", small_k))
    if verb == "certify":
        mode = draw(st.sampled_from(["pwl-perturbation", "replay", "two-slope"]))
        return (["certify", path, *given_("--b", draw(FLAG_RATIONAL)),
                 *given_("--mode", mode)]
                + opt("--refine", st.integers(-1, 8)) + opt("--k", small_k))
    if verb == "merge":
        return (["merge", path, draw(st.sampled_from([path, other])),
                 *given_("--b1", draw(FLAG_RATIONAL))] + opt("--b2", FLAG_RATIONAL)
                + given_("--out", str(out_dir / "m.json")))
    if verb == "plot":
        suffix = draw(st.sampled_from([".csv", ".svg", ".txt"]))
        return (["plot", path, *given_("--out", str(out_dir / f"p{suffix}"))]
                + opt("--samples", st.integers(-1, 8)))
    kind = draw(st.sampled_from(["gmi", "pi-k", "pi-inf", "phi-m", "pi-n-k"]))
    return (["construct", kind, *given_("--b", draw(FLAG_RATIONAL))]
            + opt("--k", small_k) + opt("--K", small_k)
            + opt("--n", st.integers(-1, 3)) + opt("--m", st.integers(-1, 3)))


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
