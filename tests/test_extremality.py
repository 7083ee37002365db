import itertools
import math
import random
import re
from bisect import bisect_right
from collections import Counter
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from groupcut import (DomainError, Interval, NotMinimal, PeriodicPWL,
                      check_minimal, check_nonnegative, check_subadditive,
                      check_symmetry, equality_structure, gmi, interval_system,
                      linear_combine, pi_k, pi_k_reflected, rat,
                      replay_pi_k_facet_proof, restricted_facet_test,
                      two_slope_shortcut)
from groupcut import extremality
from groupcut.extremality import (_IntegerSolver, _face_spans, _half_faces,
                                  _replay_boxes, _slope_classes, _zero_on_box)
from groupcut.pwl import pieces_in
from groupcut.verification import _Lattice, _require_minimal
from conftest import bump_value, fraction_vertex_pairs, triple_pairs


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


def _cell_corners(a1, a2, b1, b2, wl, wu):
    """The points of {a1 <= x <= a2, b1 <= y <= b2, wl <= x + y <= wu} where
    two of its six edge lines meet: every vertex of the cell, some twice."""
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
    return corners


def _covers(face, U, V):
    """U x V lies in the face {x in p1, y in p2, x + y in p3}."""
    p1, p2, p3 = face
    return (p1.contains_interval(U) and p2.contains_interval(V)
            and p3.contains_interval(Interval(U.lo + V.lo, U.hi + V.hi)))


def _assert_faces_in_zero_set(f, es):
    """Each face is one cell of the slack's complex, so the slack is affine
    on it: no breakpoint of x, y or x + y (mod 1) lies inside a projection.
    The slack then vanishes on the face iff it does at every vertex."""
    B = f.breakpoints
    for p1, p2, p3 in es.additive_faces:
        for p in (p1, p2, p3):
            assert not any(p.lo < t + m < p.hi for t in B for m in (0, 1, 2))
        corners = _cell_corners(p1.lo, p1.hi, p2.lo, p2.hi, p3.lo, p3.hi)
        assert corners and all(f.delta(x, y) == 0 for x, y in corners)


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
        assert any(_covers(face, sq, sq) for face in es.additive_faces)
    # every face really lies in the zero set of the slack
    _assert_faces_in_zero_set(gmi(b), es)


def _ends(lat, U, V):
    """The ends of the box U x V as numerators over lat.q, the arguments
    `_zero_on_box` takes after the lattice."""
    return [lat.numerator(t) for t in (U.lo, U.hi, V.lo, V.hi)]


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
    lat = _Lattice(f)
    for U, V in proof_boxes:
        assert _zero_on_box(lat, *_ends(lat, U, V))
        assert any(_covers(face, U, V) for face in es.additive_faces), \
            (U.to_pair(), V.to_pair())
    _assert_faces_in_zero_set(f, es)


def _full_square_walk(f):
    """`equality_structure(f).to_dict()` spelled out over Fractions on the
    whole period square, or the DomainError message for a negative slack.
    Vertices: every vertex pair in sorted order with slack 0.  Faces: every
    cell of P x P in (a1, b1, wl) order, zero iff the slack vanishes at each
    point where two of its six edge lines meet inside it, given by the
    ranges of x, y and x + y over those points.  No two zero cells share
    their ranges."""
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
                corners = _cell_corners(a1, a2, b1, b2, wl, wu)
                if all(f.delta(x, y) == 0 for x, y in corners):
                    faces.append(tuple(
                        (str(min(vals)), str(max(vals)))
                        for vals in (*zip(*corners), [x + y for x, y in corners])))
    assert len(set(faces)) == len(faces)
    return {"additive_vertices": vertices,
            "additive_faces": [[list(p) for p in face] for face in faces]}


def test_equality_structure_matches_a_full_square_walk():
    fns = []
    for b in (F(1, 5), F(1, 3), F(1, 2)):
        fns += [gmi(b)] + [pi_k(k, b) for k in range(2, 7)]
    fns += [pi_k_reflected(k, F(3, 5)) for k in (3, 4, 5)]
    fns.append(linear_combine(F(1, 2), gmi(F(1, 2)), F(1, 2), pi_k(3, F(1, 2))))
    # pieces split at collinear breakpoints, and a flat piece
    cuts = [F(97, 256), F(3, 5), *(F(i, 16) for i in range(1, 16))]
    fns += [g.refine_to(cuts) for g in (pi_k(3, F(1, 2)), gmi(F(1, 3)))]
    fns.append(PeriodicPWL([F(0), F(1, 4), F(1, 2), F(3, 4)],
                           [F(0), F(1, 2), F(1, 2), F(1)]))
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


def test_zero_on_box_matches_a_brute_enumeration():
    rng = random.Random(4)

    def random_pwl():
        bps = sorted({F(0)} | {F(rng.randrange(d), d) for d in
                               rng.choices([2, 3, 4, 5, 6, 8, 12], k=rng.randint(1, 6))})
        return PeriodicPWL(bps, [F(0)] + [F(rng.randint(-3, 9), rng.choice([1, 2, 4, 6]))
                                         for _ in bps[1:]])

    fns = [gmi(F(1, 2)), gmi(F(2, 5)), pi_k(4, F(1, 3)), pi_k(5, F(1, 2)),
           bump_value(pi_k(4, F(1, 2)), 2, F(1, 1000)),
           pi_k(3, F(1, 2)).refine_to([F(97, 256), *(F(i, 16) for i in range(16))])]
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

    seen, degenerate = set(), 0
    for f in fns:
        # squares anchored at the origin, up to the whole period, then random
        # boxes, then the square on each side drawn for them
        boxes = [(Interval(F(0), t), Interval(F(0), t)) for t in f.breakpoints[1:] + (F(1),)]
        drawn = [(side(f), side(f)) for _ in range(30)]
        boxes += drawn + [(S, S) for box in drawn for S in box]
        lat = _Lattice(f)
        for U, V in boxes:
            ends = _ends(lat, U, V)
            if U.degenerate or V.degenerate:
                degenerate += 1
                with pytest.raises(DomainError):
                    _zero_on_box(lat, *ends)
                continue
            got = _zero_on_box(lat, *ends)
            assert got == _brute_zero_on_box(f, U, V), (f, U, V)
            seen.add((got, U.hi + V.hi > 1, all(type(e) is int for e in ends)))
    # true and false answers, with and without a sum past 1, on the lattice
    # and off it
    assert degenerate and seen == set(itertools.product((True, False), repeat=3))


def test_face_spans_read_both_segments_of_a_straddling_p3():
    # grid pieces [0, 4], [4, 8], [8, 12], [12, 16] over Q = 16; the face
    # x in [6, 7], y in [9, 10], x + y in [15, 17] has p3 straddling Q, and
    # only its wrapped segment [0, 1] meets piece 0
    grid = [0, 4, 8, 12]
    face = ((6, 7), (9, 10), (15, 17))
    assert _face_spans(grid, face, 16) == [(1, 1), (2, 2), (3, 3), (0, 0)]
    # p3 wholly past Q: reduced to [1, 3] inside piece 0
    assert _face_spans(grid, ((6, 7), (11, 12), (17, 19)), 16) == [(1, 1), (2, 2), (0, 0)]
    # ends on grid points: a piece that only touches an end is not met
    assert _face_spans(grid, ((4, 12), (0, 16), (16, 20)), 16) == [(1, 2), (0, 3), (0, 0)]
    assert _face_spans(grid, ((4, 5), (7, 8), (12, 20)), 16) == [(1, 1), (1, 1), (3, 3), (0, 0)]
    assert _face_spans(grid, ((3, 5), (8, 9), (30, 33)), 16) == [(0, 1), (2, 2), (3, 3), (0, 0)]


def _per_piece_classes(grid, faces, B, Q):
    """`_slope_classes` spelled out one grid piece at a time: a union-find
    joins every piece that `pieces_in` meets in each projection of a face,
    and each piece with the piece that starts at its mirrored end."""
    parent = list(range(len(grid)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    def join(ids):
        for i, j in zip(ids, ids[1:]):
            i, j = sorted((find(i), find(j)))
            parent[i] = j

    index = {t: i for i, t in enumerate(grid)}
    for i, t in enumerate([*grid[1:], Q]):
        join((i, index[(B - t) % Q]))
    for face in faces:
        join(sorted({j for lo, hi in face for j, _, _ in pieces_in(grid, Q, lo, hi)}))
    roots = [find(i) for i in range(len(grid))]
    column = {r: c for c, r in enumerate(sorted(set(roots)))}
    return [column[r] for r in roots]


def _facet_grid(f, b, d):
    """The facet test's lattice, B, Q and grid at refinement d."""
    lat = _Lattice(f, math.lcm(d, b.denominator))
    Q, B = lat.q, lat.numerator(b) % lat.q
    pts = {*lat.points, B, *range(0, Q, Q // d)}
    return lat, B, Q, sorted(pts | {(B - t) % Q for t in pts})


def test_slope_classes_match_a_per_piece_union_find():
    classes, spans = set(), 0
    for f, b in _facet_cases():
        for d in (1, 2, 3, 4, 8, 16, 32, 64):
            lat, B, Q, grid = _facet_grid(f, b, d)
            faces = [face for _, face in _half_faces(lat)]
            cls = _slope_classes(grid, faces, B, Q)
            assert cls == _per_piece_classes(grid, faces, B, Q), (f, b, d)
            classes.add(max(cls) + 1)
            spans += sum(a < z for face in faces for a, z in _face_spans(grid, face, Q))
    # few classes and many, and ranges of more than one piece
    assert min(classes) == 2 and max(classes) >= 20 and spans


def test_slope_classes_of_pi_k_are_its_k_slopes():
    # at refinement 1 the grid is f's breakpoints and their mirrors; the
    # classes are exactly the level sets of f's slope
    for b in (F(1, 3), F(2, 5), F(1, 2)):
        for f, k in [(gmi(b), 2), *((pi_k(k, b), k) for k in (2, 3, 4, 5, 6, 8))]:
            lat, B, Q, grid = _facet_grid(f, b, 1)
            cls = _slope_classes(grid, [face for _, face in _half_faces(lat)], B, Q)
            assert sorted(set(cls)) == list(range(k))
            last = [max(i for i, c in enumerate(cls) if c == col) for col in range(k)]
            assert last == sorted(last)
            slopes = {}
            for c, t0, t1 in zip(cls, grid, [*grid[1:], Q]):
                x0, x1 = F(t0, Q), F(t1, Q)
                slopes.setdefault(c, set()).add((f.eval(x1) - f.eval(x0)) / (x1 - x0))
            assert all(len(s) == 1 for s in slopes.values())
            assert len(set().union(*slopes.values())) == k


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
                           match=re.escape(f"{check} fails: {cert.witness}")) as exc:
            restricted_facet_test(f, b, 8)
        assert type(exc.value) is NotMinimal and exc.value.certificate == cert
    # the gate is check_minimal's, so its message has one prefix
    with pytest.raises(DomainError, match="^restricted facet test requires"):
        restricted_facet_test(dent, b, 8)


def _full_grid_system(f, es, b, d):
    """The facet test's system over the grid values, in Fractions, from f's
    equality structure es: one column per grid value, the rows
    theta(0) = 0, theta(b) = 1, theta(x) + theta(b - x) = 1 at every grid
    point, one additivity row per additive vertex and the face slope rows.
    Returns the grid, the distinct rows and whether there are faces."""
    pts = {*f.breakpoints, b, *(F(i, d) for i in range(d))}
    grid = sorted(pts | {(b - t) % 1 for t in pts})
    n = len(grid)
    ends = grid[1:] + [F(1)]

    def value(x):
        x %= 1
        i = bisect_right(grid, x) - 1
        t0, t1 = grid[i], ends[i]
        if x == t0:
            return {i: F(1)}
        return {i: (t1 - x) / (t1 - t0), (i + 1) % n: (x - t0) / (t1 - t0)}

    def slope(i):
        w = 1 / (ends[i] - grid[i])
        return {i: -w, (i + 1) % n: w}

    def combine(*terms):
        row = {}
        for sign, part in terms:
            for c, w in part.items():
                row[c] = row.get(c, 0) + sign * w
        return {c: w for c, w in row.items() if w}

    rows = [(value(F(0)), 0), (value(b), 1)]
    rows += [(combine((1, value(x)), (1, value(b - x))), 1) for x in grid]
    rows += [(combine((1, value(x)), (1, value(y)), (-1, value(x + y))), 0)
             for x, y in es.additive_vertices]
    for p1, p2, p3 in es.additive_faces:
        segs = [(p1.lo, p1.hi), (p2.lo, p2.hi)]
        segs += [(max(p3.lo, m) - m, min(p3.hi, m + 1) - m) for m in (0, 1)
                 if max(p3.lo, m) < min(p3.hi, m + 1)]
        ids = sorted({i for lo, hi in segs for i in range(n)
                      if grid[i] < hi and ends[i] > lo})
        rows += [(combine((1, slope(i)), (-1, slope(ids[0]))), 0) for i in ids[1:]]
    unique = {(tuple(sorted(row.items())), rhs) for row, rhs in rows if row}
    return grid, [(dict(row), rhs) for row, rhs in sorted(unique)], bool(es.additive_faces)


# minimal at b = 1/5, with the diagonal additive vertices (2/5, 2/5) and
# (3/5, 3/5) on no additive face: at refinement 1 the unknown theta(4/5) is
# pinned to 2/3 only by the row 2 theta(2/5) = theta(4/5), with
# theta(2/5) = 1 - theta(4/5)
DIAGONAL = PeriodicPWL([F(i, 5) for i in range(5)],
                       [F(0), F(1), F(1, 3), F(1, 2), F(2, 3)])


def _facet_cases():
    """(f, b) for the facet test: DIAGONAL; gmi and pi_2..pi_6 at five b;
    reflected pi_k and gmi at 3/5; the midpoints of gmi and pi_3 and of
    pi_k and pi_(k+1)."""
    cases = [(DIAGONAL, F(1, 5))]
    for b in (F(1, 7), F(1, 3), F(2, 5), F(1, 2)):
        pis = [pi_k(k, b) for k in range(2, 7)]
        cases += [(g, b) for g in [gmi(b), *pis]]
    b = F(3, 5)
    pis = [pi_k_reflected(k, b) for k in range(2, 7)]
    cases += [(g, b) for g in [gmi(b), *pis]]
    for b in (F(1, 7), F(1, 3), F(2, 5), F(1, 2), F(3, 5)):
        ks = [pi_k(k, b) if b <= F(1, 2) else pi_k_reflected(k, b) for k in range(2, 6)]
        cases.append((linear_combine(F(1, 2), gmi(b), F(1, 2), ks[1]), b))
        cases += [(linear_combine(F(1, 2), g, F(1, 2), h), b) for g, h in zip(ks, ks[1:])]
    return cases


def test_facet_test_matches_the_full_grid_system():
    b = F(1, 5)
    es = equality_structure(DIAGONAL)
    off_diagonal = replace(es, additive_vertices=tuple(
        (x, y) for x, y in es.additive_vertices if x != y))
    for d in (1, 2):
        # the case guards the (x, x) rows: without them the basis grows
        grids = [_full_grid_system(DIAGONAL, s, b, d) for s in (es, off_diagonal)]
        full, no_diag = (_gauss_jordan(rows, len(grid))[2] for grid, rows, _ in grids)
        assert len(no_diag) > len(full)
    runs = [(f, b, (1, 3, 8, 16)) for f, b in _facet_cases()]
    # and the benchmark's sizes: the midpoint of gmi and pi_3 at b = 2/5
    b = F(2, 5)
    avg = linear_combine(F(1, 2), gmi(b), F(1, 2), pi_k(3, b))
    runs.append((avg, b, (32, 64)))
    verdicts, dims = set(), []
    for f, b, ds in runs:
        es = equality_structure(f)
        for d in ds:
            grid, rows, has_faces = _full_grid_system(f, es, b, d)
            consistent, _, basis = _gauss_jordan(rows, len(grid))
            assert consistent
            r = restricted_facet_test(f, b, d)
            assert has_faces and r.dimension == len(basis)
            assert r.verdict == ("not_unique" if basis else "certified_unique")
            assert [list(g.values) for g in r.basis_functions] == basis
            assert all(list(g.breakpoints) == grid for g in r.basis_functions)
            verdicts.add(r.verdict)
            dims.append(r.dimension)
    assert verdicts == {"certified_unique", "not_unique"}
    assert dims[-2:] == [5, 7]


def test_facet_test_self_check_catches_a_wrong_face_row(monkeypatch):
    # gmi has slope 1/b on the first grid piece and -1/(1 - b) on the last;
    # a face that joins them puts them in one class, which f violates
    face_spans = extremality._face_spans

    def with_both_ends(grid, face, period):
        return [*face_spans(grid, face, period), (0, 0), (len(grid) - 1, len(grid) - 1)]

    monkeypatch.setattr(extremality, "_face_spans", with_both_ends)
    with pytest.raises(RuntimeError, match="^constraint generation bug"):
        restricted_facet_test(gmi(F(1, 2)), F(1, 2), 8)


def test_facet_test_self_check_catches_a_wrong_slope_class(monkeypatch):
    # gmi has slope 1/b on the first grid piece and -1/(1 - b) on the last;
    # a class that holds both is one f violates
    slope_classes = extremality._slope_classes

    def joined(grid, faces, B, Q):
        cls = slope_classes(grid, faces, B, Q)
        return [cls[-1] if c == cls[0] else c for c in cls]

    monkeypatch.setattr(extremality, "_slope_classes", joined)
    with pytest.raises(RuntimeError, match="^constraint generation bug"):
        restricted_facet_test(gmi(F(1, 2)), F(1, 2), 8)


def test_facet_test_basis_does_not_depend_on_the_class_order(monkeypatch):
    b = F(2, 5)
    cases = [(linear_combine(F(1, 2), gmi(b), F(1, 2), pi_k(3, b)), d)
             for d in (1, 8, 32)]
    cases += [(linear_combine(F(1, 2), pi_k(3, b), F(1, 2), pi_k(4, b)), 16),
              (pi_k(4, b), 8)]
    want = [restricted_facet_test(f, b, d).to_dict() for f, d in cases]
    assert {w["dimension"] for w in want} >= {0, 1, 5}
    slope_classes = extremality._slope_classes

    def by_first_piece(cls):
        first = sorted(set(cls), key=cls.index)
        return [first.index(c) for c in cls]

    for order in (lambda cls: [max(cls) - c for c in cls], by_first_piece):
        monkeypatch.setattr(extremality, "_slope_classes",
                            lambda *args, order=order: order(slope_classes(*args)))
        assert [restricted_facet_test(f, b, d).to_dict() for f, d in cases] == want


def test_facet_basis_is_additive_at_every_zero_pair(monkeypatch):
    # one additivity row per zero triple loses no zero pair's row: every
    # basis vector is additive, read through eval, at each pair of each
    # zero triple of the gate
    solvers = []

    class Counted(_IntegerSolver):
        def __init__(self, ncols):
            super().__init__(ncols)
            self.rows = 0
            solvers.append(self)

        def add(self, row, rhs):
            self.rows += 1
            super().add(row, rhs)

    monkeypatch.setattr(extremality, "_IntegerSolver", Counted)
    merged, dims = 0, set()
    for b in (F(1, 3), F(2, 5), F(1, 2)):
        for g, h in ((gmi(b), pi_k(3, b)), (pi_k(3, b), pi_k(4, b))):
            f = linear_combine(F(1, 2), g, F(1, 2), h)
            for d in (1, 16):
                solvers.clear()
                r = restricted_facet_test(f, b, d)
                lat = _Lattice(f, math.lcm(d, b.denominator))
                Q, B = lat.q, b * lat.q
                _, zeros = _require_minimal(f, lat, b, "the test")
                triples = {tuple(sorted((x, y, (B - x - y) % Q))) for x, y in zeros}
                pairs = triple_pairs(zeros, B, Q)
                # closure, theta(b) = 1 and at most one row per triple
                assert solvers[0].rows <= 2 + len(triples)
                merged += len(pairs) - len(triples)
                for theta in r.basis_functions:
                    for x, y in pairs:
                        x, y = F(x, Q), F(y, Q)
                        assert theta.eval(x) + theta.eval(y) == theta.eval(x + y)
                dims.add(r.dimension)
    assert merged > 0 and 0 not in dims


def test_restricted_facet_test_rejects_refinement_below_one():
    for d in (0, -8):
        with pytest.raises(DomainError, match=f"got {d}$"):
            restricted_facet_test(pi_k(3, F(1, 2)), F(1, 2), d)


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
    # minimal functions of the wrong level reach the steps and fail one
    for f, step in ((pi_k(3, b), "c"), (pi_k(5, b), "e")):
        c = replay_pi_k_facet_proof(4, b, f)
        assert not c.passed
        assert c.witness["kind"] == "replay-step"
        assert c.witness["step"] == step
    # a non-minimal mutant stops at the gate, with check_minimal's certificate
    broken = bump_value(pi_k(4, b), 1, F(1, 1000))
    with pytest.raises(NotMinimal, match="^facet-proof replay requires") as exc:
        replay_pi_k_facet_proof(4, b, broken)
    assert exc.value.certificate == check_minimal(broken, b)


def test_replay_counts_every_fact_it_checks_the_failing_one_included(monkeypatch):
    b, f = F(1, 2), pi_k(4, F(1, 2))
    zero_on_box = extremality._zero_on_box

    def fail_box(n):
        """_zero_on_box, but False on its n-th call."""
        calls = itertools.count(1)
        return lambda *args: next(calls) != n and zero_on_box(*args)

    # the six boxes of the level-4 replay, each made to fail in turn
    for n, step in zip(range(1, 7), "abccde"):
        monkeypatch.setattr(extremality, "_zero_on_box", fail_box(n))
        c = replay_pi_k_facet_proof(4, b, f)
        assert (c.witness["step"], c.checked_count) == (step, n), n
    monkeypatch.setattr(extremality, "_zero_on_box", zero_on_box)
    # a second step on level 3's U + V only: the box reads the steps there
    steps_on, eps = _Lattice.steps_on, b / 8

    def bent_on_uv(lat, lo, hi):
        bent = (lo, hi) == (lat.numerator(1 + eps), lat.numerator(1 + 2 * eps))
        return steps_on(lat, lo, hi) | ({None} if bent else set())

    monkeypatch.setattr(_Lattice, "steps_on", bent_on_uv)
    c = replay_pi_k_facet_proof(4, b, f)
    assert (c.witness["step"], c.checked_count) == ("c", 3)
    monkeypatch.undo()
    for g, k, step, checked in ((gmi(b), 3, "c", 3), (f, 3, "e", 4)):
        c = replay_pi_k_facet_proof(k, b, g)
        assert (c.witness["step"], c.checked_count) == (step, checked)
    for k in range(3, 25):
        c = replay_pi_k_facet_proof(k, b)
        assert c.passed
        assert c.checked_count == 2 * k - 2


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 64),
       st.fractions(0, F(1, 2), max_denominator=10**4).filter(bool))
@example(64, F(1, 2))
def test_replay_boxes_carry_the_identities_of_the_interval_systems(k, b):
    """The interval identities the replay no longer checks hold on the
    boxes it yields, at a drawn b and at b = 1/2, on the least lattice
    that makes every end an int and on a multiple of it."""
    for b, times in itertools.product((b, F(1, 2)), (1, 3)):
        lv = {m: interval_system(m, b) for m in range(3, k + 1)}
        boxes = _replay_intervals(k, b, times * 2 * 8 ** (k - 2) * b.denominator)
        assert "".join(s for s, *_ in boxes) == "ab" + "c" * (k - 2) + "d" * (k - 3) + "e"
        sums = [(U, V, U.lo + V.lo, U.hi + V.hi) for _, U, V, _ in boxes]
        (_, _, lo, hi), (Ue, Ve, elo, ehi) = sums[0], sums[-1]
        assert Interval(lo - 1, hi - 1) == lv[3].i6 == Interval(b, F(1))
        for j, (U, V, lo, hi) in enumerate(sums[2:k], 3):
            assert Interval(lo - 1, hi - 1) == lv[j].i2
            assert lv[j].i6.contains_interval(V)
        for j, (U, V, lo, hi) in enumerate(sums[k:-1], 3):
            istar = Interval(2 * lv[j + 1].i1.hi, lv[j].i1.hi)
            assert U == V and (U.lo, U.hi, hi) == (istar.lo, lo, istar.hi)
            assert all(lv[m].i3.contains_interval(istar) for m in range(j + 1, k + 1))
        assert Ue == Ve and Interval(elo, ehi) == lv[k].i1


def _replay_intervals(k, b, q):
    """`_replay_boxes(k, b q, q)` with each end checked to be an int and
    read back as Fraction(n, q): (step, U, V, reason) with Intervals."""
    boxes = []
    for step, U, V, reason in _replay_boxes(k, b.numerator * (q // b.denominator), q):
        assert all(type(n) is int for n in (*U, *V))
        boxes.append((step, Interval(F(U[0], q), F(U[1], q)),
                      Interval(F(V[0], q), F(V[1], q)), reason))
    return boxes


def _slope_on(lat, I):
    """f's slope on I, read from its one lattice step there, or None."""
    steps = lat.steps_on(lat.numerator(I.lo), lat.numerator(I.hi))
    return F(steps.pop() * lat.q, lat.scale) if len(steps) == 1 else None


def test_replay_boxes_imply_the_facts_they_replace():
    """Wherever a box passes after the gate, the facts about f that
    `_replay_boxes` derives from it hold."""
    seen = Counter()
    for b in (F(1, 2), F(1, 3), F(2, 5)):
        fns = [pi_k(j, b) for j in range(2, 9)]
        fns += [linear_combine(F(1, 2), f, F(1, 2), g)
                for f, g in itertools.combinations(fns, 2)]
        slope = -1 / (1 - b)
        for f, k in itertools.product(fns, range(3, 9)):
            # the replay's lattice, on which the gate runs
            lat = _Lattice(f, 2 * 8 ** (k - 2) * b.denominator)
            _require_minimal(f, lat, b, "the replay")

            def value(x):
                return F(lat.value(lat.numerator(x)), lat.scale)

            level = Counter()
            for step, U, V, _ in _replay_intervals(k, b, lat.q):
                if not _zero_on_box(lat, *_ends(lat, U, V)):
                    break
                level[step] += 1
                j = level[step] + 2
                if step == "a":
                    assert _slope_on(lat, Interval(b, F(1))) == slope
                elif step == "b":
                    assert [value(c * b) for c in (F(1, 4), F(1, 2), F(3, 4))] \
                        == [F(1, 4), F(1, 2), F(3, 4)]
                elif step == "c":
                    assert all(_slope_on(lat, I) == slope
                               for I in (U, V, interval_system(j, b).i2))
                elif step == "d":
                    x2, x4 = lat.numerator(U.lo), lat.numerator(U.hi)
                    assert lat.slack(x2, x2) == lat.slack(x4, x4) == 0
                    assert 4 * value(U.lo) == value(interval_system(j, b).i1.hi)
                seen[step] += 1
    # every step passed somewhere, so each implication was exercised
    assert set(seen) == set("abcde"), seen


def _fraction_replay(k, b, f):
    """`replay_pi_k_facet_proof(k, b, f)` spelled out over Fractions: the
    gate's certificate when check_minimal fails, else the replay's
    `to_dict()`, its boxes read off `interval_system` and each decided by
    `_brute_zero_on_box`."""
    gate = check_minimal(f, b)
    if not gate.passed:
        return gate
    lv = {j: interval_system(j, b) for j in range(3, k + 1)}
    i6 = lv[3].i6
    boxes = [("a", Interval(i6.midpoint, i6.hi), None,
              "slack does not vanish on the I6 square"),
             ("b", Interval(lv[3].i3.lo, lv[3].i3.lo + lv[3].i2.lo), None,
              "slack does not vanish on the central square")]
    boxes += [("c", Interval(lv[j].i2.midpoint, lv[j].i2.hi),
               Interval(1 - lv[j].i1.midpoint, F(1)),
               f"j={j}: slack does not vanish on U x V") for j in range(3, k + 1)]
    boxes += [("d", Interval(lv[j + 1].i2.hi, lv[j].i1.midpoint), None,
               f"j={j}: slack does not vanish on U x U") for j in range(3, k)]
    boxes.append(("e", Interval(F(0), lv[k].i1.midpoint), None,
                  "slack does not vanish on the I1 square"))
    for checked, (step, U, V, reason) in enumerate(boxes, 1):
        if not _brute_zero_on_box(f, U, V or U):
            return {"verdict": "fail", "checked": checked, "detail": "", "witness": {
                "kind": "replay-step", "step": step, "reason": reason}}
    return {"verdict": "pass", "witness": None, "checked": len(boxes), "detail": ""}


def test_replay_matches_a_fraction_replay():
    seen = Counter()
    for b in (F(1, 2), F(1, 3), F(2, 5), F(3, 10), F(1, 7), F(1, 5)):
        pis = [pi_k(j, b) for j in range(2, 10)]
        fns = [gmi(b), *pis]
        fns += [linear_combine(F(1, 2), g, F(1, 2), h) for g, h in zip(fns, pis)]
        fns.append(bump_value(pis[2], 1, F(1, 1000)))       # not minimal
        for f, k in itertools.product(fns, range(3, 11)):
            want = _fraction_replay(k, b, f)
            if isinstance(want, dict):
                assert replay_pi_k_facet_proof(k, b, f).to_dict() == want, (k, b, f)
                seen[(want["witness"] or {}).get("step")] += 1
                continue
            with pytest.raises(NotMinimal) as exc:
                replay_pi_k_facet_proof(k, b, f)
            assert exc.value.certificate == want
            seen["gate"] += 1
    # passes, the gate, and failures at the boxes of several steps
    assert {None, "gate", "c", "e"} <= set(seen), seen


def test_replay_refuses_a_function_that_is_not_subadditive():
    # pi_3 with a breakpoint at 97/256 raised by 10^-6: every fact the replay
    # checks still holds, but the function is not subadditive
    b, x = F(1, 2), F(97, 256)
    g = pi_k(3, b).refine_to([x])
    g = bump_value(g, g.breakpoints.index(x), F(1, 10**6))
    with pytest.raises(NotMinimal, match="subadditivity fails") as exc:
        replay_pi_k_facet_proof(3, b, g)
    cert = exc.value.certificate
    assert cert == check_minimal(g, b) and cert.detail == "subadditivity"
    w = cert.witness
    assert (w["x"], w["y"], w["delta"]) == ("7/16", "241/256", "-1/1000000")
    assert g.delta(rat(w["x"]), rat(w["y"])) == rat(w["delta"])


def test_replay_domain_errors():
    with pytest.raises(DomainError):
        replay_pi_k_facet_proof(2, F(1, 2))
    with pytest.raises(DomainError):
        replay_pi_k_facet_proof(3, F(2, 3))


def _reference_slope(f, I):
    """f's slope on I by Fractions, or None when a breakpoint strictly
    inside I bends: its left and right piece slopes differ."""
    if I.degenerate:
        return None
    n = len(f.breakpoints)
    for m in range(math.floor(I.lo) - 1, math.ceil(I.hi) + 1):
        for i, t in enumerate(f.breakpoints):
            if (I.lo < t + m < I.hi
                    and f.piece_slope((i - 1) % n) != f.piece_slope(i)):
                return None
    return (f.eval(I.hi) - f.eval(I.lo)) / I.length


@st.composite
def _slope_queries(draw):
    """A PWL function and an interval whose ends are on its lattice (1/q)Z,
    off it, or the wrapping V = [1 - eps/2, 1] of the replay."""
    inner = draw(st.sets(st.fractions(0, 1, max_denominator=12)
                         .filter(lambda t: 0 < t < 1), max_size=5))
    bps = [F(0)] + sorted(inner)
    vals = [draw(st.fractions(-2, 2, max_denominator=8)) for _ in bps]
    f = PeriodicPWL(bps, vals)
    q = math.lcm(*(t.denominator for t in bps))
    kind = draw(st.sampled_from(["lattice", "off", "wrap"]))
    if kind == "lattice":
        lo, hi = sorted(F(draw(st.integers(-q, 2 * q)), q) for _ in range(2))
    elif kind == "off":
        lo, hi = sorted(draw(st.fractions(-1, 2, max_denominator=97))
                        for _ in range(2))
    else:
        eps = draw(st.fractions(0, 1, max_denominator=64).filter(bool))
        lo, hi = 1 - eps / 2, F(1)
    return f, Interval(lo, hi)


@settings(max_examples=300, deadline=None)
@given(_slope_queries())
def test_steps_on_matches_a_fraction_chord(query):
    f, I = query
    lat = _Lattice(f)
    steps = lat.steps_on(lat.numerator(I.lo), lat.numerator(I.hi))
    slope = _reference_slope(f, I)
    assert (len(steps) == 1) == (slope is not None)
    if slope is not None:
        assert steps == {slope * lat.scale / lat.q}
    assert all(type(s) is int for s in steps)


def test_steps_on_fixed_cases():
    b = F(1, 2)
    f = pi_k(4, b)
    lat = _Lattice(f)
    eps = b / 64
    down = -1 / (1 - b) * lat.scale / lat.q
    for I in (Interval(1 - eps / 2, F(1)), Interval(3 * eps / 2, 2 * eps)):
        assert lat.steps_on(lat.numerator(I.lo), lat.numerator(I.hi)) == {down}
    # an all-int function, on an end off its lattice
    assert _Lattice(PeriodicPWL([0], [0])).steps_on(0, F(1, 3)) == {0}
    # a bending breakpoint strictly inside, and a degenerate window
    assert len(lat.steps_on(0, lat.numerator(b))) > 1
    assert lat.steps_on(lat.q // 4, lat.q // 4) == set()


def test_two_slope_shortcut():
    assert two_slope_shortcut(gmi(F(1, 2)), F(1, 2)).passed
    c = two_slope_shortcut(pi_k(3, F(1, 2)), F(1, 2))
    assert not c.passed and c.witness["kind"] == "slope-count"
    f = gmi(F(1, 3))    # wrong parameter: not minimal
    with pytest.raises(NotMinimal, match="^two-slope shortcut requires") as exc:
        two_slope_shortcut(f, F(1, 2))
    cert = exc.value.certificate
    assert cert == check_minimal(f, F(1, 2)) and cert.detail == "symmetry"
    assert cert.witness == {"kind": "point", "x": "0", "sum": "3/4"}


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
    # each nullspace vector is an int multiple, positive at its free column,
    # of the Fraction basis vector
    free = [c for c in range(ncols) if c not in rref]
    null = solver.nullspace()
    assert all(type(v) is int for vec in null for v in vec)
    assert all(vec[fc] > 0 for fc, vec in zip(free, null))
    assert [[F(v, vec[fc]) for v in vec] for fc, vec in zip(free, null)] == basis
    # each pivot row is the primitive integer multiple, lead positive, of
    # its reduced row
    assert set(solver.pivots) == set(rref)
    for col, (row, rhs) in solver.pivots.items():
        lead = row[col]
        assert lead > 0 and math.gcd(*row.values(), rhs) == 1
        want_row, want_rhs = rref[col]
        assert [F(row.get(c, 0), lead) for c in range(ncols)] == want_row
        assert F(rhs, lead) == want_rhs
