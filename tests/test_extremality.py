import itertools
import math
import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupcut import (DomainError, Interval, PeriodicPWL, check_minimal,
                      check_nonnegative, check_subadditive, check_symmetry,
                      equality_structure, gmi, interval_lemma_apply,
                      linear_combine, pi_k, pi_k_reflected,
                      replay_pi_k_facet_proof, restricted_facet_test,
                      two_slope_shortcut)
from groupcut.extremality import (_IntegerSolver, _inscribed_box,
                                  delta_zero_on_box)
from conftest import bump_value, fraction_vertex_pairs


def test_equality_structure_requires_subadditivity():
    bad = PeriodicPWL([F(0), F(1, 4), F(1, 2)], [F(0), F(1, 10), F(1)])
    assert bad.delta(F(1, 4), F(1, 4)) < 0
    with pytest.raises(DomainError):
        equality_structure(bad)
    # the gate is the vertex scan itself: it agrees with check_subadditive
    f = pi_k(4, F(1, 2))
    verdicts = []
    for i in range(1, len(f.breakpoints)):
        for step in (F(-1, 1000), F(1, 1000)):
            mut = bump_value(f, i, step)
            verdicts.append(check_subadditive(mut).passed)
            if verdicts[-1]:
                equality_structure(mut)
            else:
                with pytest.raises(DomainError):
                    equality_structure(mut)
    assert any(verdicts) and not all(verdicts)


def test_equality_structure_of_base_function():
    b = F(1, 2)
    es = equality_structure(gmi(b))
    # vertices live on the breakpoint arrangement
    assert (F(0), F(0)) in es.additive_vertices
    assert (F(0), F(1, 2)) in es.additive_vertices
    assert (F(1, 2), F(1, 2)) not in es.additive_vertices
    assert es.additive_faces
    # the two proof squares are covered by faces
    for sq in (Interval(F(0), F(1, 4)), Interval(F(3, 4), F(1))):
        assert any(u.contains_interval(sq) and v.contains_interval(sq)
                   for u, v in es.additive_faces)
    # every face really lies in the zero set of the slack
    g = gmi(b)
    for u, v in es.additive_faces:
        assert delta_zero_on_box(g, u, v)


def test_equality_structure_faces_of_pi_3():
    b = F(1, 2)
    f = pi_k(3, b)
    es = equality_structure(f)
    eps = b * F(1, 8)            # the level-3 inner band width
    proof_boxes = [
        (Interval((1 + b) / 2, F(1)), Interval((1 + b) / 2, F(1))),
        (Interval(b / 4, 3 * b / 8), Interval(b / 4, 3 * b / 8)),
        (Interval(3 * eps / 2, 2 * eps), Interval(1 - eps / 2, F(1))),
        (Interval(F(0), eps / 2), Interval(F(0), eps / 2)),
    ]
    for U, V in proof_boxes:
        assert delta_zero_on_box(f, U, V)
        assert any(fu.contains_interval(U) and fv.contains_interval(V)
                   for fu, fv in es.additive_faces), (U.to_pair(), V.to_pair())


def _full_square_walk(f):
    """`equality_structure(f).to_dict()` spelled out over Fractions on the
    whole period square, or the DomainError message for a negative slack.
    Vertices: every vertex pair in sorted order with slack 0.  Faces: every
    cell of P x P in (a1, b1, wl) order, zero iff the slack vanishes at each
    point where two of its six edge lines meet inside it, and each zero
    cell's inscribed box kept the first time it appears."""
    vertices = []
    for x, y in fraction_vertex_pairs(f):
        d = f.delta(x, y)
        if d < 0:
            witness = {"kind": "pair", "x": str(x), "y": str(y), "delta": str(d)}
            return ("equality structure requires a subadditive function: "
                    f"subadditivity fails: {witness}")
        if d == 0:
            vertices.append([str(x), str(y)])
    B = f.breakpoints
    P = list(B) + [F(1)]
    faces = []
    for a1, a2 in zip(P, P[1:]):
        for b1, b2 in zip(P, P[1:]):
            ws = sorted({a1 + b1, a2 + b2} | {t + m for t in B for m in (0, 1, 2)
                                              if a1 + b1 < t + m < a2 + b2})
            for wl, wu in zip(ws, ws[1:]):
                # each line (c0, c1, c) is c0*x + c1*y = c
                lines = [(1, 0, a1), (1, 0, a2), (0, 1, b1), (0, 1, b2),
                         (1, 1, wl), (1, 1, wu)]
                corners = []
                for (p0, p1, pc), (r0, r1, rc) in itertools.combinations(lines, 2):
                    det = p0 * r1 - p1 * r0
                    if det:
                        x, y = (pc * r1 - p1 * rc) / det, (p0 * rc - pc * r0) / det
                        if a1 <= x <= a2 and b1 <= y <= b2 and wl <= x + y <= wu:
                            corners.append((x, y))
                if all(f.delta(x, y) == 0 for x, y in corners):
                    box = _inscribed_box(a1, a2, b1, b2, wl, wu)
                    if box is not None and box not in faces:
                        faces.append(box)
    return {"additive_vertices": vertices,
            "additive_faces": [[u.to_pair(), v.to_pair()] for u, v in faces]}


def test_equality_structure_matches_a_full_square_walk():
    fns = []
    for b in (F(1, 5), F(1, 3), F(1, 2)):
        fns += [gmi(b)] + [pi_k(k, b) for k in range(2, 7)]
    fns += [pi_k_reflected(k, F(3, 5)) for k in (3, 4, 5)]
    fns.append(linear_combine(F(1, 2), gmi(F(1, 2)), F(1, 2), pi_k(3, F(1, 2))))
    for f in fns:
        assert equality_structure(f).to_dict() == _full_square_walk(f), f.to_json()
    # a subadditivity mutant: the same message, witness included
    bad = bump_value(pi_k(3, F(1, 2)), 1, F(-1, 1000))
    message = _full_square_walk(bad)
    assert isinstance(message, str)
    with pytest.raises(DomainError) as err:
        equality_structure(bad)
    assert str(err.value) == message


def _brute_zero_on_box(f, U, V):
    """The slack is affine between the vertices of its arrangement in U x V:
    the grid of x and y breakpoints with the box ends, and the points where
    x + y crosses a breakpoint on a grid line."""
    def cuts(lo, hi):
        return sorted({lo, hi} | {t + m for m in range(math.floor(lo), math.ceil(hi) + 1)
                                  for t in f.breakpoints if lo <= t + m <= hi})
    xs, ys = cuts(U.lo, U.hi), cuts(V.lo, V.hi)
    ws = cuts(U.lo + V.lo, U.hi + V.hi)
    pts = {(x, y) for x in xs for y in ys}
    pts |= {(x, w - x) for x in xs for w in ws if V.lo <= w - x <= V.hi}
    pts |= {(w - y, y) for y in ys for w in ws if U.lo <= w - y <= U.hi}
    return all(f.delta(x, y) == 0 for x, y in pts)


def test_delta_zero_on_box_matches_a_brute_enumeration():
    rng = random.Random(4)

    def random_pwl():
        bps = sorted({F(0)} | {F(rng.randrange(d), d) for d in
                               rng.choices([2, 3, 4, 5, 6, 8, 12], k=rng.randint(1, 6))})
        return PeriodicPWL(bps, [F(0)] + [F(rng.randint(-3, 9), rng.choice([1, 2, 4, 6]))
                                         for _ in bps[1:]])

    fns = [gmi(F(1, 2)), gmi(F(2, 5)), pi_k(4, F(1, 3)), pi_k(5, F(1, 2)),
           bump_value(pi_k(4, F(1, 2)), 2, F(1, 1000))]
    fns += [random_pwl() for _ in range(20)]

    def end(f):
        r = rng.random()
        if r < 0.4:
            return rng.choice(f.breakpoints + (F(1),))
        return F(rng.randint(0, 48), 48) if r < 0.7 else F(rng.randint(0, 97), 97)

    def side(f):
        lo, hi = sorted((end(f), end(f)))
        r = rng.random()
        if r < 0.15:
            return Interval(lo, lo)
        if r < 0.45:      # a small box near a point: often inside a face
            w = F(1, rng.choice([64, 200]))
            return Interval(max(F(0), lo - w), min(F(1), lo + w))
        return Interval(lo, hi)

    seen = set()
    for f in fns:
        # squares anchored at the origin, up to the whole period, then random
        # boxes, then the square on each side drawn for them: a square walks
        # half its cells
        boxes = [(Interval(F(0), t), Interval(F(0), t)) for t in f.breakpoints[1:] + (F(1),)]
        drawn = [(side(f), side(f)) for _ in range(30)]
        boxes += drawn + [(S, S) for box in drawn for S in box]
        for U, V in boxes:
            got = delta_zero_on_box(f, U, V)
            assert got == _brute_zero_on_box(f, U, V), (f, U, V)
            seen.add((got, U.degenerate or V.degenerate, U.hi + V.hi > 1))
    # true and false answers, with and without a degenerate side or a sum past 1
    assert seen == {(z, d, p) for z in (True, False) for d in (True, False)
                    for p in (True, False)}


def test_interval_lemma_apply():
    es = equality_structure(gmi(F(1, 2)))
    con = interval_lemma_apply(es, Interval(F(0), F(1, 8)),
                               Interval(F(0), F(1, 8)))
    assert con.sum_parts == (Interval(F(0), F(1, 4)),)
    # a sum landing entirely past 1 reduces to a single shifted segment
    con = interval_lemma_apply(es, Interval(F(7, 8), F(1)),
                               Interval(F(7, 8), F(1)))
    assert con.sum_parts == (Interval(F(3, 4), F(1)),)
    # a sum straddling 1 splits into two segments
    from groupcut.extremality import _sum_mod_segments
    parts = _sum_mod_segments(Interval(F(7, 8), F(1)), Interval(F(1, 16), F(3, 16)))
    assert parts == (Interval(F(15, 16), F(1)), Interval(F(0), F(3, 16)))
    with pytest.raises(DomainError):
        interval_lemma_apply(es, Interval(F(1, 8), F(1, 8)),
                             Interval(F(0), F(1, 8)))
    with pytest.raises(DomainError):
        interval_lemma_apply(es, Interval(F(0), F(1, 2)),
                             Interval(F(0), F(1, 2)))


def test_restricted_facet_test_certifies_true_functions():
    for f, b in ((gmi(F(1, 2)), F(1, 2)), (pi_k(3, F(1, 3)), F(1, 3))):
        r = restricted_facet_test(f, b, 8)
        assert r.verdict == "certified_unique"
        assert r.dimension == 0
        assert not r.basis_functions
        assert "perturbation" in r.note


def test_restricted_facet_test_detects_non_extreme_average():
    b = F(1, 2)
    avg = linear_combine(F(1, 2), gmi(b), F(1, 2), pi_k(3, b))
    r = restricted_facet_test(avg, b, 8)
    assert r.verdict == "not_unique"
    assert r.dimension >= 1
    # each basis direction fixes the pinned values
    for g in r.basis_functions:
        assert g.eval(F(0)) == 0
        assert g.eval(b) == 0


def test_restricted_facet_test_requires_minimality():
    b = F(1, 2)
    # symmetric and nonnegative, but f(1/8) + f(1/4) < f(3/8)
    dent = PeriodicPWL([F(0), F(1, 8), F(1, 4), F(3, 8), b],
                       [F(0), F(1, 5), F(1, 2), F(4, 5), F(1)])
    assert check_symmetry(dent, b).passed and check_nonnegative(dent).passed
    cases = [
        (PeriodicPWL([F(0), b], [F(1, 10), F(1)]), "f(0) != 0"),
        (PeriodicPWL([F(0), F(1, 4), b], [F(0), F(-1, 10), F(1)]), "nonnegativity"),
        (dent, "subadditivity"),
        (gmi(F(1, 3)), "symmetry"),
    ]
    for f, check in cases:
        cert = check_minimal(f, b)
        assert cert.detail == check
        # the check's name and its witness, as check_minimal gives them
        with pytest.raises(DomainError,
                           match=re.escape(f"{check} fails: {cert.witness}")):
            restricted_facet_test(f, b, 8)
    # subadditivity is decided by the equality structure's own vertex pass
    with pytest.raises(DomainError, match="^equality structure requires"):
        restricted_facet_test(dent, b, 8)


def test_restricted_facet_test_result_serializes():
    r = restricted_facet_test(gmi(F(1, 2)), F(1, 2), 8)
    d = r.to_dict()
    assert d["verdict"] == "certified_unique"
    assert d["dimension"] == 0
    assert "note" in d


def test_replay_passes_for_true_functions():
    for k in (3, 4):
        for b in (F(1, 3), F(1, 2)):
            c = replay_pi_k_facet_proof(k, b)
            assert c.passed, c.witness


def test_replay_names_a_failing_step_for_mutants():
    b = F(1, 2)
    f = pi_k(4, b)
    broken = bump_value(f, 1, F(1, 1000))
    c = replay_pi_k_facet_proof(4, b, broken)
    assert not c.passed
    assert c.witness["kind"] == "replay-step"
    assert c.witness["step"] in set("abcde")


def test_replay_domain_errors():
    with pytest.raises(DomainError):
        replay_pi_k_facet_proof(2, F(1, 2))
    with pytest.raises(DomainError):
        replay_pi_k_facet_proof(3, F(2, 3))


def test_two_slope_shortcut():
    assert two_slope_shortcut(gmi(F(1, 2)), F(1, 2)).passed
    c = two_slope_shortcut(pi_k(3, F(1, 2)), F(1, 2))
    assert not c.passed and c.witness["kind"] == "slope-count"
    c = two_slope_shortcut(gmi(F(1, 3)), F(1, 2))   # wrong parameter: not minimal
    assert not c.passed and c.detail == "not minimal"


def _gauss_jordan(rows, ncols):
    """Plain Fraction Gauss-Jordan: (consistent, {pivot col: (row, rhs)} of
    the reduced row echelon form, nullspace basis)."""
    mat = [[F(row.get(c, 0)) for c in range(ncols)] + [F(rhs)] for row, rhs in rows]
    pivots, r = [], 0
    for c in range(ncols):
        p = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if p is None:
            continue
        mat[r], mat[p] = mat[p], mat[r]
        mat[r] = [v / mat[r][c] for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                mat[i] = [v - mat[i][c] * w for v, w in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    if any(row[-1] != 0 for row in mat[r:]):
        return False, None, None
    rref = {c: (mat[i][:-1], mat[i][-1]) for i, c in enumerate(pivots)}
    basis = []
    for fc in (c for c in range(ncols) if c not in rref):
        vec = [F(0)] * ncols
        vec[fc] = F(1)
        for c, (row, _) in rref.items():
            vec[c] = -row[fc]
        basis.append(vec)
    return True, rref, basis


@st.composite
def _systems(draw):
    """Small sparse integer systems with duplicate, dependent and (now and
    then) inconsistent rows, in a drawn order."""
    ncols = draw(st.integers(1, 6))
    entry = st.integers(-4, 4).filter(bool)
    row = st.dictionaries(st.integers(0, ncols - 1), entry, min_size=1, max_size=3)
    x0 = draw(st.lists(st.integers(-2, 2), min_size=ncols, max_size=ncols))
    rows = [(r, sum(v * x0[c] for c, v in r.items()))     # solved by x0
            for r in draw(st.lists(row, min_size=1, max_size=6))]
    for _ in range(draw(st.integers(0, 4))):
        (r1, h1), (r2, h2) = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        a, c = draw(entry), draw(st.integers(-3, 3))
        comb = {k: a * r1.get(k, 0) + c * r2.get(k, 0) for k in {*r1, *r2}}
        shift = draw(st.sampled_from([0, 0, 0, 0, 0, 1]))   # 1: an inconsistent row
        rows.append((comb, a * h1 + c * h2 + shift))
    rows += draw(st.lists(st.sampled_from(rows), max_size=2))   # duplicates
    return ncols, draw(st.permutations(rows))


@settings(max_examples=300, deadline=None)
@given(_systems())
def test_integer_solver_matches_a_fraction_gauss_jordan(system):
    ncols, rows = system
    consistent, rref, basis = _gauss_jordan(rows, ncols)
    solver = _IntegerSolver(ncols)
    if not consistent:
        with pytest.raises(DomainError):
            for row, rhs in rows:
                solver.add(dict(row), rhs)
        return
    for row, rhs in rows:
        solver.add(dict(row), rhs)
    assert solver.rank == len(rref)
    assert solver.nullspace() == basis
    # each pivot row is the primitive integer multiple, lead positive, of
    # its reduced row
    assert set(solver.pivots) == set(rref)
    for col, (row, rhs) in solver.pivots.items():
        lead = row[col]
        assert lead > 0 and math.gcd(*row.values(), rhs) == 1
        want_row, want_rhs = rref[col]
        assert [F(row.get(c, 0), lead) for c in range(ncols)] == want_row
        assert F(rhs, lead) == want_rhs
