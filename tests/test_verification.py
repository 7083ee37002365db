import random
from fractions import Fraction as F
from math import lcm

import pytest

from groupcut import (DomainError, PeriodicPWL, brute_force_subadditive,
                      check_genuinely_nd, check_minimal, check_nonnegative,
                      check_slope_census, check_subadditive, check_symmetry,
                      check_zero_set, equality_structure, gmi, phi_m, pi_k,
                      subadditivity_vertex_pairs)
from conftest import bump_value, fraction_vertex_pairs


def test_certificate_shape():
    c = check_subadditive(gmi(F(1, 2)))
    assert c.passed and c.witness is None
    d = c.to_dict()
    assert d["verdict"] == "pass" and d["checked"] == c.checked_count
    sampled = check_genuinely_nd(phi_m(2, F(1, 2)), trials=5, seed=0)
    assert "sampled; not a proof" in sampled.to_dict()["detail"]


def test_gmi_is_subadditive_and_symmetric():
    for b in (F(1, 3), F(1, 2), F(3, 4)):
        g = gmi(b)
        assert check_subadditive(g).passed
        assert check_symmetry(g, b).passed
        assert check_minimal(g, b).passed


def test_symmetry_fails_for_wrong_parameter():
    c = check_symmetry(gmi(F(1, 3)), F(1, 2))
    assert not c.passed
    assert c.witness is not None


def test_subadditivity_witness_is_lex_smallest():
    # lowering one value of the 3-slope function breaks a tight pair
    bad = bump_value(pi_k(3, F(1, 2)), 1, F(-1, 1000))
    c = check_subadditive(bad)
    assert not c.passed
    wx, wy = F(c.witness["x"]), F(c.witness["y"])
    # no violating vertex pair precedes the reported one
    for x, y in subadditivity_vertex_pairs(bad):
        if (x, y) < (wx, wy):
            assert bad.delta(x, y) >= 0


def test_vertex_scan_agrees_with_dense_grid():
    rng = random.Random(20260826)
    for _ in range(40):
        q = rng.randint(3, 14)
        ks = sorted(rng.sample(range(1, q), min(rng.randint(1, 4), q - 1)))
        bps = [F(0)] + [F(k, q) for k in ks]
        vals = [F(0)] + [F(rng.randint(0, 8), 8) for _ in ks]
        f = PeriodicPWL(bps, vals)
        exact = check_subadditive(f)
        grid = brute_force_subadditive(f, 2 * q * q)
        if exact.passed:
            assert grid.passed, (f.to_json(), grid.witness)
        else:
            # grid contains all breakpoints, so the violated vertex is on it
            assert not grid.passed, (f.to_json(), exact.witness)


def _reference_scan(f):
    """The vertex scan spelled out over Fractions: (verdict, witness, checked)."""
    pairs = fraction_vertex_pairs(f)
    assert subadditivity_vertex_pairs(f) == pairs
    for idx, (x, y) in enumerate(pairs):
        d = f.delta(x, y)
        if d < 0:
            return "fail", {"kind": "pair", "x": str(x), "y": str(y),
                            "delta": str(d)}, idx + 1
    return "pass", None, len(pairs)


def test_lattice_scan_agrees_with_fraction_scan():
    rng = random.Random(20261017)
    fns = []
    for _ in range(40):
        # mixed denominators, so q is a genuine lcm; negative values allowed
        dens = rng.sample([2, 3, 5, 7, 8, 9, 11, 12], 3)
        cands = sorted({F(rng.randint(1, d - 1), d) for d in dens for _ in range(2)})
        bps = [F(0)] + rng.sample(cands, rng.randint(1, len(cands)))
        bps.sort()
        vals = [F(0)] + [F(rng.randint(-4, 12), rng.choice([1, 3, 4, 7]))
                         for _ in bps[1:]]
        fns.append(PeriodicPWL(bps, vals))
    for k, b, mutants in ((3, F(1, 2), 3), (5, F(1, 3), 3), (8, F(2, 5), 3),
                          (20, F(1, 3), 1)):
        f = pi_k(k, b)
        fns.append(f)
        for i in rng.sample(range(1, len(f.breakpoints)), mutants):
            step = F(rng.choice([-1, 1]), 10 ** rng.randint(2, 6))
            fns.append(bump_value(f, i, step))
    assert lcm(*(t.denominator for t in pi_k(20, F(1, 3)).breakpoints)) > 10 ** 16
    verdicts = set()
    for f in fns:
        c = check_subadditive(f)
        got = (c.verdict, c.witness, c.checked_count)
        assert got == _reference_scan(f), f.to_json()
        verdicts.add(c.verdict)
    assert verdicts == {"pass", "fail"}


@pytest.mark.parametrize("f, vertices, faces", [
    (pi_k(8, F(1, 2)), 159, 56),
    (pi_k(5, F(1, 3)), 78, 29),
    (gmi(F(2, 5)), 3, 2),
])
def test_equality_structure_counts(f, vertices, faces):
    es = equality_structure(f)
    assert (len(es.additive_vertices), len(es.additive_faces)) == (vertices, faces)
    assert all(f.delta(x, y) == 0 for x, y in es.additive_vertices)


def test_check_minimal_order_of_failures():
    g = gmi(F(1, 2))
    shifted = PeriodicPWL(g.breakpoints, [F(1, 8), F(1)])
    c = check_minimal(shifted, F(1, 2))
    assert not c.passed and c.detail.startswith("f(0)")
    neg = PeriodicPWL(g.breakpoints, [F(0), F(-1, 2)])
    c = check_minimal(neg, F(1, 2))
    assert not c.passed
    assert not check_nonnegative(neg).passed


def test_zero_set_check():
    assert check_zero_set(pi_k(4, F(1, 2))).passed
    flat = PeriodicPWL([F(0), F(1, 2)], [F(0), F(0)])
    assert not check_zero_set(flat).passed


def test_zero_set_failure_at_the_origin_reproduces():
    lifted = PeriodicPWL([F(0), F(1, 2)], [F(1, 4), F(1)])
    c = check_zero_set(lifted)
    assert not c.passed and c.checked_count == 1
    assert c.witness == {"kind": "point", "x": "0", "value": "1/4"}
    assert c.witness == check_minimal(lifted, F(1, 2)).witness
    assert lifted.eval(F(c.witness["x"])) == F(c.witness["value"])


def test_slope_census_pass_and_fail():
    b = F(1, 2)
    assert check_slope_census(pi_k(5, b), 5, b).passed
    c = check_slope_census(pi_k(5, b), 4, b)
    assert not c.passed and c.witness["kind"] == "slope-set"


def test_brute_force_cap_validation():
    with pytest.raises(DomainError):
        brute_force_subadditive(gmi(F(1, 2)), 1)


def test_brute_force_matches_exact_on_true_function():
    f = pi_k(3, F(1, 2))
    cap = 4 * lcm(*(t.denominator for t in f.breakpoints))
    assert brute_force_subadditive(f, cap).passed


def test_mutation_detected_by_both_checkers():
    f = pi_k(3, F(1, 2))
    cap = 4 * lcm(*(t.denominator for t in f.breakpoints))
    mut = bump_value(f, 2, F(-1, 1000))
    assert not check_minimal(mut, F(1, 2)).passed
    oracle = brute_force_subadditive(mut, cap)
    if not oracle.passed:
        assert not check_subadditive(mut).passed
