import random
from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupcut import (DomainError, PeriodicPWL, brute_force_subadditive,
                      check_minimal, check_nonnegative, check_slope_census,
                      check_subadditive, check_symmetry, check_zero_set,
                      equality_structure, gmi, interval_system, new_slope,
                      phi_m, pi_k, pi_k_reflected, sample_subadditivity_nd)
from groupcut import verification
from groupcut.extremality import two_slope_shortcut
from groupcut.verification import _Lattice, _cross_pairs, _minimal, _rank, _scan
from conftest import bump_value, formula_slope, fraction_vertex_pairs, triple_pairs


def test_certificate_shape():
    c = check_subadditive(gmi(F(1, 2)))
    assert c.passed and c.witness is None
    d = c.to_dict()
    assert d["verdict"] == "pass" and d["checked"] == c.checked_count
    sampled = sample_subadditivity_nd(phi_m(2, F(1, 2)), trials=5, seed=0)
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


def _reference_symmetry(f, b):
    """check_symmetry's certificate spelled out over Fractions."""
    B = f.breakpoints
    pts = sorted(set(B) | {(b - t) % 1 for t in B})
    for x in pts:
        s = f.eval(x) + f.eval(b - x)
        if s != 1:
            return {"verdict": "fail", "checked": len(pts), "detail": "",
                    "witness": {"kind": "point", "x": str(x), "sum": str(s)}}
    return {"verdict": "pass", "witness": None, "checked": len(pts), "detail": ""}


@st.composite
def _symmetry_queries(draw):
    """A PWL function and a b: random ones, or gmi(b0) at b = b0 + m, so
    that some pass; b may be negative, past 1, or of a denominator coprime
    to the breakpoints'."""
    b = draw(st.fractions(-3, 3, max_denominator=13))
    if draw(st.booleans()):
        b0 = draw(st.fractions(0, 1, max_denominator=13).filter(lambda t: 0 < t < 1))
        return gmi(b0), b0 + draw(st.integers(-2, 2))
    inner = draw(st.sets(st.fractions(0, 1, max_denominator=12)
                         .filter(lambda t: 0 < t < 1), max_size=5))
    bps = [F(0)] + sorted(inner)
    vals = [draw(st.fractions(-2, 2, max_denominator=8)) for _ in bps]
    return PeriodicPWL(bps, vals), b


@settings(max_examples=300, deadline=None)
@given(_symmetry_queries())
def test_lattice_symmetry_agrees_with_fraction_symmetry(query):
    f, b = query
    assert check_symmetry(f, b).to_dict() == _reference_symmetry(f, b)


def test_subadditivity_witness_is_lex_smallest():
    # lowering one value of the 3-slope function breaks a tight pair
    bad = bump_value(pi_k(3, F(1, 2)), 1, F(-1, 1000))
    c = check_subadditive(bad)
    assert not c.passed
    wx, wy = F(c.witness["x"]), F(c.witness["y"])
    # no violating vertex pair precedes the reported one
    for x, y in fraction_vertex_pairs(bad):
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


# equally spaced breakpoints: (w - u) mod 1 is a breakpoint for all u, w
SIXTHS = PeriodicPWL([F(i, 6) for i in range(6)],
                     [F(0), F(1, 2), F(1), F(1), F(1), F(1, 2)])


def _scan_corpus():
    """Passing and failing functions for the scan's counts: random ones,
    pi_k up to k = 12, reflected pi_k and single-value mutants of them."""
    rng = random.Random(20261018)
    fns = []
    for _ in range(30):
        dens = rng.sample([2, 3, 4, 5, 6, 8, 9, 12], 3)
        cands = sorted({F(rng.randint(1, d - 1), d) for d in dens for _ in range(2)})
        bps = sorted([F(0)] + rng.sample(cands, rng.randint(0, len(cands))))
        vals = [F(0)] + [F(rng.randint(0, 12), rng.choice([2, 3, 4, 8]))
                         for _ in bps[1:]]
        fns.append(PeriodicPWL(bps, vals))
    fns.append(SIXTHS)
    tops = [pi_k(k, b) for k, b in ((2, F(1, 2)), (3, F(1, 3)), (5, F(2, 5)),
                                    (8, F(1, 2)), (12, F(1, 3)))]
    tops += [pi_k_reflected(k, b) for k, b in ((3, F(1, 2)), (6, F(3, 5)))]
    for f in tops:
        fns.append(f)
        for i in rng.sample(range(1, len(f.breakpoints)), min(2, len(f.breakpoints) - 1)):
            fns.append(bump_value(f, i, F(rng.choice([-1, 1]), 10 ** rng.randint(2, 5))))
    return fns


def test_scan_counts_and_zeros_match_the_fraction_reference():
    grid = SIXTHS.breakpoints
    assert all((w - u) % 1 in grid for u in grid for w in grid)
    verdicts = set()
    for f in _scan_corpus():
        lat = _Lattice(f)
        cert, zeros = _scan(lat)
        assert (cert.verdict, cert.witness, cert.checked_count) == _reference_scan(f)
        if cert.passed:
            assert cert.checked_count == len(fraction_vertex_pairs(f))
            reference = [(x, y) for x, y in fraction_vertex_pairs(f)
                         if x <= y and f.delta(x, y) == 0]
            assert [(F(i, lat.q), F(k, lat.q)) for i, k in sorted(zeros)] == reference
        else:
            assert zeros == []
        verdicts.add(cert.verdict)
    assert verdicts == {"pass", "fail"}


def _symmetric_corpus(seed, count):
    """Seeded nonnegative functions with f(0) = 0 and f(x) + f(b - x) = 1,
    at b below and above 1/2, each stored with a list closed under
    x -> b - x: values are drawn at points of (0, b/2) and of (b, (1+b)/2)
    and mirrored.  Sparse draws pass, dense ones mostly fail."""
    rng = random.Random(seed)
    fns = []
    for _ in range(count):
        b = rng.choice([F(1, 2), F(1, 3), F(2, 5), F(3, 5), F(2, 3), F(3, 4)])
        n = b.denominator * rng.choice([2, 3, 4])
        pts = {F(0): F(0), b: F(1)}
        for lo, hi, mirror in ((0, b / 2, b), (b, (1 + b) / 2, 1 + b)):
            cands = [F(i, n) for i in range(1, n) if lo < F(i, n) < hi]
            for t in rng.sample(cands, rng.randint(0, min(2, len(cands)))):
                v = F(rng.randint(0, 6), 6)
                pts[t], pts[mirror - t] = v, 1 - v
        xs = sorted(pts)
        fns.append((PeriodicPWL(xs, [pts[x] for x in xs]), b))
    return fns


def test_symmetric_gate_agrees_with_the_grid_oracle():
    # the oracle reads f through eval only; with q and b's denominator
    # dividing the cap, every vertex of the slack lies on its grid
    details = []
    for f, b in _symmetric_corpus(20261020, 300):
        assert check_symmetry(f, b).passed and check_nonnegative(f).passed
        cert = check_minimal(f, b)
        cap = 2 * lcm(b.denominator, *(t.denominator for t in f.breakpoints))
        oracle = brute_force_subadditive(f, cap)
        assert (cert.detail == "subadditivity") == (not oracle.passed), (f.to_json(), b)
        details.append(cert.detail)
    assert set(details) == {"", "subadditivity"}


def _triple_corpus():
    fns = _symmetric_corpus(20261021, 200)
    rng = random.Random(20261021)
    for k, b in ((3, F(1, 2)), (4, F(1, 3)), (6, F(2, 5)), (8, F(1, 2))):
        fns.append((pi_k(k, b), b))
        fns.append((pi_k_reflected(k, 1 - b), 1 - b))
        f = pi_k(k, b)
        for i in rng.sample(range(1, len(f.breakpoints)), 3):
            # move f(t) and f(b - t) by opposite amounts: still symmetric
            j = f.breakpoints.index((b - f.breakpoints[i]) % 1)
            step = F(rng.choice([-1, 1]), 10 ** rng.randint(2, 4))
            fns.append((bump_value(bump_value(f, i, step), j, -step), b))
    return fns


def _mirrors_handed_to_scan(monkeypatch):
    """The mirror argument of every `_scan` call the gate makes, in order."""
    handed = []

    def recording(lat, M=None):
        handed.append(M)
        return _scan(lat, M)

    monkeypatch.setattr(verification, "_scan", recording)
    return handed


def test_triple_walk_equals_the_pair_walk(monkeypatch):
    handed = _mirrors_handed_to_scan(monkeypatch)
    seen = set()
    for f, b in _triple_corpus():
        lat = _Lattice(f, b.denominator)
        handed.clear()
        cert, zeros = _minimal(f, lat, b)
        if cert.detail not in ("", "subadditivity"):
            continue          # the bump at t = b moved f(0), or made f negative
        # the gate skipped the second loop: the list is closed and f symmetric
        M = b.numerator * lat.q // b.denominator % lat.q
        assert handed == [M]
        triple = _scan(lat, M)
        pair = _scan(lat)
        assert triple[0] == pair[0], (f.to_json(), b)
        # each walked pair stands for its triple, which the pair walk lists
        assert triple_pairs(triple[1], M, lat.q) == set(pair[1]), (f.to_json(), b)
        assert all(lat.slack(u, v) == 0 for u, v in triple[1] + pair[1])
        assert zeros == triple[1]
        seen.add((pair[0].verdict, b < F(1, 2)))
    assert seen == {(v, low) for v in ("pass", "fail") for low in (True, False)}


def test_a_non_closed_copy_takes_the_pair_walk(monkeypatch):
    handed = _mirrors_handed_to_scan(monkeypatch)
    b = F(1, 2)
    f = pi_k(3, b)
    g = f.refine_to(sorted({*f.breakpoints, F(1, 32)}))     # 15/32 is not added
    assert (b - F(1, 32)) not in g.breakpoints
    lat = _Lattice(g, b.denominator)
    cert, zeros = _minimal(g, lat, b)
    assert cert.passed and handed == [None]
    parts = (check_nonnegative(g), check_subadditive(g), check_symmetry(g, b))
    assert cert.checked_count == 1 + sum(c.checked_count for c in parts)
    assert parts[1].checked_count == len(fraction_vertex_pairs(g))
    assert parts[1].checked_count != check_subadditive(f).checked_count
    assert zeros == _scan(_Lattice(g))[1]
    # the closed original is handed its mirror b q mod q
    handed.clear()
    lat = _Lattice(f, b.denominator)
    cert, zeros = _minimal(f, lat, b)
    assert cert.passed and handed == [lat.q // 2]
    assert triple_pairs(zeros, lat.q // 2, lat.q) == set(_scan(lat)[1])


def _walked_rank(lat, i, k):
    """`_rank` by brute force: every pair of P x P and both pairs of each
    `_cross_pairs` triple, compared with (i, k)."""
    P, top = lat.points, (i, k)
    return (sum((u, v) <= top for u in P for v in P)
            + sum(((u, d) <= top) + ((d, u) <= top) for u, d, _ in _cross_pairs(lat)))


def test_rank_equals_the_walked_count_on_every_failing_scan():
    # the witness of each failing scan, and seeded vertex pairs besides it,
    # so that both the i-in-P and the i-outside-P counts are exercised
    rng = random.Random(20261022)
    lattices = [_Lattice(f) for f in _scan_corpus()]
    lattices += [_Lattice(f, b.denominator) for f, b in _triple_corpus()]
    failing, outside = 0, False
    for lat in lattices:
        cert, _ = _scan(lat)
        if cert.passed:
            continue
        failing += 1
        i, k = (lat.numerator(F(cert.witness[c])) for c in "xy")
        assert cert.checked_count == _rank(lat, i, k) == _walked_rank(lat, i, k)
        P, q = lat.points, lat.q
        vertices = sorted({*P, *((w - u) % q for u in P for w in P)})
        for _ in range(3):
            i, k = sorted(rng.sample(vertices, 2)) if len(vertices) > 1 else (0, 0)
            assert _rank(lat, i, k) == _walked_rank(lat, i, k), (i, k)
            outside |= i not in P
    assert failing > 50 and outside


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


def _reference_zero_set(f):
    """check_zero_set's certificate spelled out over f's Fraction views."""
    bps, vals, n = f.breakpoints, f.values, len(f.P)
    if f.eval(0) != 0:
        return {"verdict": "fail", "checked": 1, "detail": "",
                "witness": {"kind": "point", "x": "0", "value": str(f.eval(0))}}
    for i, (t, v) in enumerate(zip(bps, vals)):
        x = None
        if i > 0 and v <= 0:
            x = t
        elif v <= 0 and vals[(i + 1) % n] <= 0:
            x = (t + (bps[i + 1] if i + 1 < n else 1)) / 2
        if x is not None:
            return {"verdict": "fail", "checked": n, "detail": "",
                    "witness": {"kind": "point", "x": str(x), "value": str(f.eval(x))}}
    return {"verdict": "pass", "checked": n, "detail": "", "witness": None}


@pytest.mark.parametrize("bps, vals, x, value", [
    ([0, F(1, 2)], [0, 0], "1/4", "0"),                    # W_1 = 0: piece 0's midpoint
    ([0, F(1, 3), F(1, 2)], [0, F(-1, 2), 1], "1/6", "-1/4"),   # W_1 < 0, not t_1
    ([0], [0], "1/2", "0"),                                # one piece, the wrap
    ([0, F(1, 4), F(1, 2)], [0, 1, 0], "1/2", "0"),        # a later breakpoint
    ([0, F(1, 4), F(3, 4)], [0, 1, F(-2, 3)], "3/4", "-2/3"),
    ([0, F(1, 4)], [F(-1, 3), 1], "0", "-1/3"),            # f(0) != 0
])
def test_zero_set_witnesses(bps, vals, x, value):
    f = PeriodicPWL(bps, vals)
    c = check_zero_set(f)
    assert c.witness == {"kind": "point", "x": x, "value": value}
    assert c.to_dict() == _reference_zero_set(f)
    assert f.eval(F(x)) == F(value)


def test_zero_set_matches_the_fraction_reference():
    rng = random.Random(5)
    verdicts = set()
    for _ in range(400):
        bps = sorted({F(0)} | {F(rng.randrange(1, 12), 12) for _ in range(rng.randrange(5))})
        vals = [F(0) if rng.random() < 0.9 else F(rng.randrange(-3, 4), 5)]
        vals += [F(rng.randrange(-2, 9), rng.randrange(1, 5)) for _ in bps[1:]]
        f = PeriodicPWL(bps, vals)
        got = check_zero_set(f).to_dict()
        assert got == _reference_zero_set(f), f
        verdicts.add(got["verdict"])
    assert verdicts == {"pass", "fail"}


def test_slope_census_pass_and_fail():
    b = F(1, 2)
    assert check_slope_census(pi_k(5, b), 5, b).passed
    c = check_slope_census(pi_k(5, b), 4, b)
    assert not c.passed and c.witness["kind"] == "slope-set"


def _reference_census(f, k, b):
    """check_slope_census's certificate spelled out over Fractions: f's
    piece slopes, and those of the pieces that meet I3 and I6."""
    n, ends = len(f.breakpoints), [*f.breakpoints[1:], 1]
    neg, news = F(-1) / (1 - b), [new_slope(i, b) for i in range(2, k + 1)]
    actual = {f.piece_slope(j) for j in range(n)}
    if actual != {neg, *news}:
        return {"verdict": "fail", "checked": 0, "detail": "", "witness": {
            "kind": "slope-set", "expected": sorted(map(str, {neg, *news})),
            "actual": sorted(map(str, actual))}}
    if k == 2:
        return {"verdict": "pass", "witness": None, "checked": 2, "detail": ""}
    s = interval_system(k, b)
    on_i3, on_i6 = ({f.piece_slope(j) for j in range(n)
                     if f.breakpoints[j] < I.hi and ends[j] > I.lo} for I in (s.i3, s.i6))
    if not set(news[:-1]) <= on_i3 <= {neg, *news[:-1]}:
        return {"verdict": "fail", "checked": k, "detail": "", "witness": {
            "kind": "slope-set", "where": "I3", "required": sorted(map(str, news[:-1])),
            "actual": sorted(map(str, on_i3))}}
    if on_i6 != {neg}:
        return {"verdict": "fail", "checked": k, "detail": "", "witness": {
            "kind": "slope-set", "where": "I6", "actual": sorted(map(str, on_i6))}}
    return {"verdict": "pass", "witness": None, "checked": k + len(on_i3) + 1, "detail": ""}


# the k = 3 census at b = 1/3 is {-3/2, 3, 15/2}, with I3 = [1/12, 1/4] and
# I6 = [1/3, 1]: here s_3 = 15/2 lies on I3, on [1/12, 1/6]
S3_ON_I3 = PeriodicPWL([0, F(1, 12), F(1, 6), F(1, 4)], [0, F(1, 4), F(7, 8), F(9, 8)])
# and here s_2 = 3 lies on I6, on [1/3, 5/12]
S2_ON_I6 = PeriodicPWL([0, F(1, 24), F(1, 12), F(1, 4), F(1, 3), F(5, 12)],
                       [0, F(5, 16), F(1, 4), F(3, 4), F(5, 8), F(7, 8)])


def _census_shaped(rng, k, b):
    """A function with exactly the level-k census slopes, in random places:
    random pieces carry every census slope, and a last piece of slope
    -1/(1 - b) closes the period; the lengths are then scaled to sum to 1."""
    neg, news = F(-1) / (1 - b), [new_slope(i, b) for i in range(2, k + 1)]
    pieces = [(rng.randint(1, 6), s) for s in rng.sample([neg, *news] * 2, 2 * k)]
    mass = sum(n * s for n, s in pieces)
    while mass <= 0:
        pieces.append((rng.randint(1, 6), rng.choice(news)))
        mass += pieces[-1][0] * pieces[-1][1]
    pieces.append((mass / -neg, neg))
    total = sum(n for n, _ in pieces)
    bps, vals = [F(0)], [F(0)]
    for n, s in pieces[:-1]:
        bps.append(bps[-1] + n / total)
        vals.append(vals[-1] + s * n / total)
    return PeriodicPWL(bps, vals)


def _census_corpus():
    """(f, k, b) triples: pi_k for k <= 12 with refined copies and seeded
    mutants, random functions, census-shaped functions and the two above."""
    rng = random.Random(20261019)
    out = [(S3_ON_I3, 3, F(1, 3)), (S2_ON_I6, 3, F(1, 3))]
    for b in (F(1, 2), F(1, 3), F(2, 5)):
        for k in range(2, 13):
            f = pi_k(k, b)
            grid = [F(i, 7 * f.breakpoints[1].denominator) for i in range(7)]
            mutant = bump_value(f, rng.randrange(len(f.breakpoints)),
                                F(rng.choice([-1, 1]), 997))
            out += [(g, m, b) for g in (f, f.refine_to(grid), mutant)
                    for m in {2, max(2, k - 1), k, k + 1}]
        for k in range(3, 7):
            out += [(_census_shaped(rng, k, b), k, b) for _ in range(15)]
    for _ in range(40):
        bps = sorted({F(0)} | {F(rng.randint(1, 23), 24) for _ in range(rng.randint(0, 6))})
        vals = [F(0)] + [F(rng.randint(-4, 12), rng.choice([1, 2, 3, 8])) for _ in bps[1:]]
        out.append((PeriodicPWL(bps, vals), rng.randint(2, 4), rng.choice([F(1, 2), F(1, 3)])))
    return out


def test_slope_census_matches_the_fraction_reference():
    outcomes = set()
    for f, k, b in _census_corpus():
        fresh = PeriodicPWL.from_dict(f.to_dict())
        cert = check_slope_census(fresh, k, b).to_dict()
        assert cert == _reference_census(fresh, k, b), (f.to_json(), k, b)
        outcomes.add((cert["verdict"], (cert["witness"] or {}).get("where")))
    assert outcomes == {("pass", None), ("fail", None), ("fail", "I3"), ("fail", "I6")}
    for f, where in ((S3_ON_I3, "I3"), (S2_ON_I6, "I6")):
        assert f.slopes() == {F(-3, 2), F(3), F(15, 2)}
        assert check_slope_census(f, 3, F(1, 3)).witness["where"] == where


@settings(max_examples=300, deadline=None)
@given(st.lists(st.fractions(0, 1, max_denominator=30).filter(lambda t: t < 1), max_size=6),
       st.data(), st.integers(1, 12))
def test_lattice_fields_match_the_fraction_formula(inner, data, denominator):
    bps = sorted({F(0), *inner})
    vals = data.draw(st.lists(st.fractions(-5, 5, max_denominator=40),
                              min_size=len(bps), max_size=len(bps)))
    f = PeriodicPWL(bps, vals)
    q = lcm(denominator, *(t.denominator for t in bps))
    steps = [formula_slope(f, j) / q for j in range(len(bps))]
    scale = lcm(*(v.denominator for v in (*vals, *steps)))
    lat = _Lattice(f, denominator)
    assert (lat.q, lat.scale) == (q, scale)
    assert lat.points == [t * q for t in bps]
    assert lat.steps == [s * scale for s in steps]
    assert lat._c == [v * scale - s * scale * t * q for v, s, t in zip(vals, steps, bps)]


def test_slope_questions_read_no_piece_slope(monkeypatch):
    cases = [(pi_k(6, F(1, 3)), 6, F(1, 3)), (gmi(F(2, 5)), 2, F(2, 5)),
             (S2_ON_I6, 3, F(1, 3))]
    files = [(f.to_dict(), k, b) for f, k, b in cases]

    def answers():
        # each question gets a function fresh from its file, no slope known
        out = []
        for d, k, b in files:
            lat = _Lattice(PeriodicPWL.from_dict(d), b.denominator)
            out.append((lat.q, lat.scale, lat.steps, lat._c,
                        check_slope_census(PeriodicPWL.from_dict(d), k, b).to_dict()))
        return out + [two_slope_shortcut(PeriodicPWL.from_dict(d), b).to_dict()
                      for d, _, b in files[:2]]
    expected = answers()

    def no_slope(*args):
        raise AssertionError("a slope question read a Fraction slope")

    monkeypatch.setattr(PeriodicPWL, "piece_slope", no_slope)
    monkeypatch.setattr(PeriodicPWL, "slopes", no_slope)
    assert answers() == expected
    assert [c[-1]["verdict"] for c in expected[:3]] == ["pass", "pass", "fail"]
    assert [c["verdict"] for c in expected[3:]] == ["fail", "pass"]


def test_a_passing_check_makes_no_fraction_per_coordinate(monkeypatch):
    # from the text of pi_k(1/3) to a passing verdict, the Fractions made
    # do not grow with k: the function is read into ints, its lattice is
    # built from them and the census is compared in steps
    b = F(1, 3)
    texts = {k: pi_k(k, b).to_dict() for k in (8, 20)}
    x = F(2, 7)
    want = {k: pi_k(k, b).eval(x) for k in texts}
    made, new = [], F.__new__
    monkeypatch.setattr(F, "__new__", staticmethod(
        lambda cls, *args, **kwargs: made.append(cls) or new(cls, *args, **kwargs)))
    counts = {}
    for k, d in texts.items():
        made.clear()
        assert PeriodicPWL.from_dict(d).eval(x) == want[k]
        counts["eval", k] = len(made)
        for name, check in (("census", lambda f: check_slope_census(f, k, b)),
                            ("minimal", lambda f: check_minimal(f, b))):
            made.clear()
            assert check(PeriodicPWL.from_dict(d)).passed
            counts[name, k] = len(made)
    monkeypatch.undo()
    assert counts["census", 8] == counts["census", 20]
    assert counts["minimal", 8] == counts["minimal", 20]
    assert counts["eval", 8] == counts["eval", 20]


def test_the_grid_oracle_reads_no_lattice(monkeypatch):
    # the oracle evaluates f through PeriodicPWL.eval alone, so it stays an
    # independent check of the lattice kernel
    f, g, rng = pi_k(3, F(1, 2)), pi_k(4, F(1, 3)), random.Random(2)
    mutant = bump_value(g, rng.randrange(1, len(g.P)), -F(1, rng.randrange(20, 200)))
    cases = [(gmi(F(2, 5)), 20), (f, 48), (bump_value(f, 2, F(-1, 1000)), 48),
             (mutant, 4 * g.q)]
    expected = [brute_force_subadditive(g, cap).to_dict() for g, cap in cases]

    def no_lattice(*args):
        raise AssertionError("the grid oracle read a _Lattice")

    for name in ("__init__", "value", "scaled_at"):
        monkeypatch.setattr(_Lattice, name, no_lattice)
    assert [brute_force_subadditive(g, cap).to_dict() for g, cap in cases] == expected
    assert [c["verdict"] for c in expected] == ["pass", "pass", "fail", "fail"]


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
    # cap is a multiple of q, so the grid holds every vertex: both decide
    assert brute_force_subadditive(mut, cap).passed == check_subadditive(mut).passed
