"""Acceptance suite: one test per release criterion, each printing a single
pass/fail line with its runtime.  All comparisons are exact rational
arithmetic unless a check is explicitly a sampling harness.
"""
import contextlib
import csv
import random
import time
from fractions import Fraction as F
from math import lcm

from groupcut import (PeriodicPWL, brute_force_subadditive, check_genuinely_nd,
                      check_lift_nondecreasing, check_minimal,
                      check_slope_census, check_subadditive, eval_definitional,
                      eval_merged, gmi, group_space_eval, new_slope, phi_m,
                      pi_k, pi_k_reflected, pi_n_k, psi_eval, rat,
                      region_gradients, replay_pi_k_facet_proof,
                      restricted_facet_test, truncation_bound)
from groupcut.cli import main as cli_main
from groupcut.pwl import common_refinement

KS = range(2, 11)
BS = (F(1, 3), F(2, 5), F(1, 2))


from conftest import ACCEPTANCE_LINES


def _report(line):
    print("\n" + line)
    ACCEPTANCE_LINES.append(line)


@contextlib.contextmanager
def criterion(num, label, budget):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        _report(f"ACCEPTANCE {num}: FAIL — {label}")
        raise
    elapsed = time.monotonic() - t0
    assert elapsed < budget, f"criterion {num} took {elapsed:.1f}s (budget {budget}s)"
    _report(f"ACCEPTANCE {num}: PASS ({elapsed:.2f}s) — {label}")


def test_acceptance_1_slope_census():
    with criterion(1, "k-slope census, k=2..10, three parameters", 1.0):
        for k in KS:
            for b in BS:
                f = pi_k(k, b)
                expected = {F(-1) / (1 - b)} | {new_slope(i, b)
                                                for i in range(2, k + 1)}
                assert f.canonical().slopes() == frozenset(expected)
                assert len(expected) == k
                assert check_slope_census(f, k, b).passed


def test_acceptance_2_minimality():
    with criterion(2, "minimality of every constructed function", 10.0):
        for k in KS:
            for b in BS:
                f = pi_k(k, b)
                assert len(f.breakpoints) < 200
                c = check_minimal(f, b)
                assert c.passed, (k, b, c.witness)


def test_acceptance_3_mutation_sensitivity():
    with criterion(3, "mutation sensitivity with independent grid oracle", 30.0):
        b = F(1, 2)
        for k in (3, 4, 5):
            f = pi_k(k, b)
            cap = 4 * lcm(*(t.denominator for t in f.breakpoints))
            for i in range(len(f.breakpoints)):
                for sign in (1, -1):
                    vals = list(f.values)
                    vals[i] += F(sign, 1000)
                    mutant = PeriodicPWL(f.breakpoints, vals)
                    cert = check_minimal(mutant, b)
                    assert not cert.passed, (k, i, sign)
                    assert cert.witness is not None
                    # cap is a multiple of q, so every vertex of the slack
                    # lies on the grid, and the oracle decides both ways
                    oracle = brute_force_subadditive(mutant, cap)
                    assert oracle.passed == check_subadditive(mutant).passed, (k, i, sign)


def test_acceptance_4_facet_replay():
    with criterion(4, "exact replay of the facet-proof facts, k=3..8", 5.0):
        for k in range(3, 9):
            for b in BS:
                c = replay_pi_k_facet_proof(k, b)
                assert c.passed, (k, b, c.witness)


def test_acceptance_5_restricted_extremality():
    with criterion(5, "PWL-restricted extremality certificates", 60.0):
        for b in (F(1, 3), F(1, 2)):
            cases = [gmi(b)] + [pi_k(k, b) for k in (3, 4, 5)]
            for f in cases:
                verdicts = set()
                for d in (8, 16):
                    r = restricted_facet_test(f, b, d)
                    verdicts.add(r.verdict)
                    assert r.dimension == 0, (b, d, r.dimension)
                assert verdicts == {"certified_unique"}


def test_acceptance_6_uniform_convergence_bound():
    with criterion(6, "uniform convergence bound for the truncations", 1.0):
        b = F(1, 2)
        assert truncation_bound(4, b) == F(7, 64)
        for K in range(3, 9):
            f, g = pi_k(K, b), pi_k(K + 4, b)
            rf, rg = common_refinement(f, g)
            gap = max(abs(rf.eval(t) - rg.eval(t)) for t in rf.breakpoints)
            assert gap <= truncation_bound(K, b), (K, gap)


def _rand_vec(rng, n):
    return [F(rng.randint(-2 * q, 2 * q), q)
            for q in (rng.randint(2, 64) for _ in range(n))]


def test_acceptance_7_merge_consistency():
    with criterion(7, "sequential-merge evaluation-path agreement + lift round trip", 10.0):
        rng = random.Random(777)
        funcs = ([phi_m(m, F(1, 2)) for m in (1, 2, 3, 4)] +
                 [pi_n_k(n, k, F(1, 2)) for n in (2, 3) for k in (2, 3, 4, 5)])
        pts = 0
        while pts < 200:
            Fn = funcs[pts % len(funcs)]
            x = _rand_vec(rng, Fn.arity)
            assert eval_merged(Fn, x) == eval_definitional(Fn, x)
            pts += 1
        P = pi_n_k(2, 4, F(1, 2))
        bs = P.b_vector
        for _ in range(100):
            x = _rand_vec(rng, 2)
            inv = group_space_eval(lambda v: psi_eval(P, list(v)), bs, x)
            assert sum(x) - sum(bs) * inv == psi_eval(P, x)


def test_acceptance_8_structural_claims():
    with criterion(8, "higher-dimensional structural claims", 10.0):
        rng = random.Random(88)
        b = F(1, 2)
        # affine region on the open box below the parameter
        for m in (2, 3):
            Phi = phi_m(m, b)
            for _ in range(25):
                x = [F(rng.randint(1, 31), 64) for _ in range(m)]
                assert eval_merged(Phi, x) == sum(x) / (m * b)
        # zero set: exactly the integer lattice, sampled
        P = pi_n_k(2, 3, b)
        for _ in range(20):
            z = [F(rng.randint(-4, 4)) for _ in range(2)]
            assert eval_merged(P, z) == 0
        c = check_genuinely_nd(P, 100, seed=88)
        assert c.passed, c.witness
        # lift monotonicity of the reflected constructions
        for k in range(2, 9):
            assert check_lift_nondecreasing(pi_k_reflected(k, b), b).passed
        # gradient census: pairwise distinct, matched by finite differences
        for n, k in ((2, 3), (3, 4)):
            P = pi_n_k(n, k, b)
            grads = region_gradients(n, k, b)
            vecs = [g for _, g in grads]
            assert len(vecs) == k == len(set(vecs))
            h = F(1, 2 ** 12)
            for region, grad in grads:
                x = [iv.midpoint for iv in region]
                base = eval_merged(P, x)
                for i in range(n):
                    xp = list(x)
                    xp[i] += h
                    assert (eval_merged(P, xp) - base) / h == grad[i]


def test_acceptance_9_plot_reproduction(tmp_path, capsys):
    with criterion(9, "plot export reproduces the construction exactly", 10.0):
        b = F(1, 2)
        for k in (2, 3, 4):
            fpath = tmp_path / f"pi{k}.json"
            cpath = tmp_path / f"pi{k}.csv"
            spath = tmp_path / f"pi{k}.svg"
            assert cli_main(["construct", "pi-k", "--k", str(k), "--b", "1/2",
                             "--out", str(fpath)]) == 0
            assert cli_main(["plot", str(fpath), "--out", str(cpath),
                             "--samples", "64"]) == 0
            assert cli_main(["plot", str(fpath), "--out", str(spath)]) == 0
            capsys.readouterr()
            f = pi_k(k, b)
            rows = list(csv.DictReader(cpath.read_text().splitlines()))
            bp_rows = [(rat(r["x"]), rat(r["value"])) for r in rows
                       if r["kind"] == "breakpoint"]
            assert bp_rows == list(zip(f.breakpoints, f.values))
            assert spath.read_text().startswith("<svg")
            # shape facts: global peak of height 1 at b; for k >= 3 a local
            # maximum at the innermost new breakpoint
            assert f.eval(b) == 1
            assert max(f.values) == 1
            if k >= 3:
                eps = b * F(1, 8) ** (k - 2)
                assert f.eval(eps) > f.eval(eps / 2)
                assert f.eval(eps) > f.eval(2 * eps)
