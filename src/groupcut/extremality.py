"""Equality structure of the subadditivity slack, mechanical interval-lemma
application, extremality certification within the piecewise-linear
perturbation class, and an exact replay of the numeric facts behind the
facet argument for the k-slope family.

The perturbation certificates are deliberately scoped: `certified_unique`
means the function is the unique solution of the finite linear system over
continuous PWL perturbations on the chosen refinement.  That is the
checkable shadow of the unrestricted facet property, never a substitute for
it, and every serialized result says so.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .constructions import interval_system, pi_k, new_slope
from .errors import DomainError
from .pwl import (Interval, PeriodicPWL, breakpoints_in, pieces_meeting,
                  points_in, rat, rat_str)
from .verification import (Certificate, _Lattice, _pair_witness, _point_witness,
                           check_minimal, check_nonnegative, check_symmetry)

PWL_CAVEAT = ("certified within the continuous piecewise-linear perturbation "
              "class on the chosen refinement; this checks the facet "
              "theorem's hypothesis for PWL perturbations only, not for "
              "arbitrary minimal perturbations")


# ---------------------------------------------------------------------------
# equality structure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EqualityStructure:
    """Additive vertices and full-dimensional additive faces of the
    subadditivity complex of a function."""

    additive_vertices: tuple      # of (x, y) pairs, slack exactly 0
    additive_faces: tuple         # of (Interval, Interval): U x V inside the zero set

    def to_dict(self) -> dict:
        return {
            "additive_vertices": [[rat_str(x), rat_str(y)]
                                  for x, y in self.additive_vertices],
            "additive_faces": [[u.to_pair(), v.to_pair()]
                               for u, v in self.additive_faces],
        }


def delta_zero_on_box(f: PeriodicPWL, U: Interval, V: Interval) -> bool:
    """True iff the subadditivity slack vanishes identically on U x V."""
    return _zero_on_box(_Lattice(f), U, V)


def _zero_on_box(lat: _Lattice, U: Interval, V: Interval) -> bool:
    """The box test on a lattice built once.  Box ends on (1/q)Z become int
    numerators and ends off it stay exact rational ones; a degenerate side
    [lo, lo] walks one segment.  A square (U == V) walks half its cells, as
    `_cells` says."""
    q = lat.q

    def num(t):
        t *= q
        return t.numerator if t.denominator == 1 else t

    def cuts(I):
        lo, hi = num(I.lo), num(I.hi)
        return [lo, *(p for p in points_in(lat.points, q, lo, hi)
                      if lo < p < hi), hi]

    return all(zero for _, zero in _cells(lat, cuts(U), cuts(V)))


def _cell_vertices(a1, a2, b1, b2, wl, wu):
    """Vertices of the convex cell {box} intersect {wl <= x+y <= wu}: first
    the box corners inside the strip, then the diagonals' crossings of the
    box edges.  A vertex may come twice (a corner on a diagonal is also a
    crossing); the callers only ask whether the slack vanishes at all of
    them, and stop at the first one where it does not."""
    for x in (a1, a2):
        for y in (b1, b2):
            if wl <= x + y <= wu:
                yield x, y
    for w in (wl, wu):
        for x in (a1, a2):
            if b1 <= w - x <= b2:
                yield x, w - x
        for y in (b1, b2):
            if a1 <= w - y <= a2:
                yield w - y, y


def _cells(lat: _Lattice, xs: list, ys: list):
    """Walk the cells of the slack's complex on [xs[0], xs[-1]] x
    [ys[0], ys[-1]] in lattice numerators, xs and ys sorted and holding every
    breakpoint between their ends.  Yields each cell (a1, a2, b1, b2, wl, wu)
    with whether the slack, affine on it, vanishes at all its vertices.  A
    point box is one cell with wl == wu.

    Given the same cuts on both axes (xs == ys), it walks only the cells
    with a1 <= b1.  The mirror (b1, b2, a1, a2, wl, wu) of a cell is a cell
    of the full walk, and since D(x, y) = D(y, x) the slack vanishes on one
    iff it vanishes on the other.  A caller that needs every cell adds the
    mirrors of the cells off the diagonal."""
    q, slack = lat.q, lat.slack
    ysegs = list(zip(ys, ys[1:]))
    half = xs == ys
    for n, (a1, a2) in enumerate(zip(xs, xs[1:])):
        for b1, b2 in ysegs[n:] if half else ysegs:
            ws = sorted({a1 + b1, a2 + b2,
                         *points_in(lat.points, q, a1 + b1, a2 + b2)})
            for wl, wu in zip(ws, ws[1:] or ws):
                cell = (a1, a2, b1, b2, wl, wu)
                yield cell, all(slack(x, y) == 0
                                for x, y in _cell_vertices(*cell))


def _inscribed_box(a1, a2, b1, b2, wl, wu):
    """A nondegenerate axis box inside the (full-dimensional) diagonal cell.

    Centered on the midline x + y = (wl+wu)/2; the half-size is capped so the
    box stays inside the strip and the bounding box.
    """
    wm = (wl + wu) / 2
    xlo = max(a1, wm - b2)
    xhi = min(a2, wm - b1)
    cx = (xlo + xhi) / 2
    cy = wm - cx
    h = min(cx - a1, a2 - cx, cy - b1, b2 - cy, (wu - wl) / 4)
    if h <= 0:
        return None
    return Interval(cx - h, cx + h), Interval(cy - h, cy + h)


def equality_structure(f: PeriodicPWL) -> EqualityStructure:
    """Enumerate additive vertices and additive faces exactly.

    Faces: every full-dimensional cell of the slack's complex on which the
    slack vanishes identically contributes its inscribed axis box.  Cells are
    walked per orientation, and a box equal to one already listed is skipped.

    The vertices are those of `check_subadditive`'s scan, so the same pass
    decides subadditivity: a negative slack raises DomainError.
    """
    lat = _Lattice(f)
    q = lat.q
    vertices, faces = _additive_sets(lat)
    return EqualityStructure(
        additive_vertices=tuple((Fraction(x, q), Fraction(y, q))
                                for x, y in vertices),
        additive_faces=tuple((Interval(u.lo / q, u.hi / q),
                              Interval(v.lo / q, v.hi / q))
                             for u, v in faces))


def _additive_sets(lat: _Lattice) -> tuple:
    """`equality_structure` in lattice numerators: the additive vertex pairs
    (i, k) of ints, and the face boxes (U, V) scaled by q, in the same order.
    A negative slack raises DomainError naming subadditivity, with the
    witness `check_subadditive` gives.

    Both passes use D(x, y) = D(y, x).  The vertex pass evaluates the pairs
    with x <= y, as `check_subadditive` does; a pair with x > y comes after
    its mirror and is additive iff the mirror was.  The cell walk covers the
    half a1 <= b1 of the square; each zero cell off the diagonal brings its
    mirror, whose inscribed box is (V, U), and sorting the zero cells by
    (a1, b1, wl) restores the order of the full walk, so the faces and
    their dedupe are unchanged."""
    q, slack = lat.q, lat.slack
    vertices = []
    additive = set()
    for x, y in lat.vertex_pairs():
        if x > y:
            if (y, x) in additive:
                vertices.append((x, y))
            continue
        d = slack(x, y)
        if d < 0:
            raise DomainError(
                "equality structure requires a subadditive function: "
                "subadditivity fails: " + str(_pair_witness(
                    Fraction(x, q), Fraction(y, q), Fraction(d, lat.scale))))
        if d == 0:
            additive.add((x, y))
            vertices.append((x, y))
    P = lat.points + [q]
    zero_cells = []       # ((a1, b1, wl), inscribed box) of each zero cell
    for cell, zero in _cells(lat, P, P):
        box = _inscribed_box(*map(Fraction, cell)) if zero else None
        if box is not None:
            a1, _, b1, _, wl, _ = cell
            zero_cells.append(((a1, b1, wl), box))
            if a1 != b1:
                zero_cells.append(((b1, a1, wl), box[::-1]))
    zero_cells.sort()
    faces = []
    seen = set()
    for _, box in zero_cells:
        if box not in seen:
            seen.add(box)
            faces.append(box)
    return vertices, faces


# ---------------------------------------------------------------------------
# interval lemma
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AffinityConstraint:
    """Affinity with one shared slope on U, V and U+V (the latter reduced
    modulo 1, possibly into two segments)."""

    u: Interval
    v: Interval
    sum_parts: tuple   # one or two Intervals inside [0, 1]


def _sum_mod_segments(U: Interval, V: Interval, period=1):
    lo, hi = U.lo + V.lo, U.hi + V.hi
    if hi <= period:
        return (Interval(lo, hi),)
    if lo >= period:
        return (Interval(lo - period, hi - period),)
    return (Interval(lo, Fraction(period)), Interval(Fraction(0), hi - period))


def interval_lemma_apply(structure: EqualityStructure, U: Interval,
                         V: Interval) -> AffinityConstraint:
    """Emit the affinity constraints licensed by U x V lying in an additive
    face: one unknown slope shared by U, V and U+V."""
    if U.degenerate or V.degenerate:
        raise DomainError("interval lemma requires nondegenerate intervals")
    for fu, fv in structure.additive_faces:
        if fu.contains_interval(U) and fv.contains_interval(V):
            return AffinityConstraint(u=U, v=V, sum_parts=_sum_mod_segments(U, V))
    raise DomainError("U x V is not contained in any additive face")


# ---------------------------------------------------------------------------
# PWL-restricted facet test
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PerturbationTestResult:
    dimension: int
    basis_functions: tuple
    verdict: str              # certified_unique | not_unique | inconclusive
    note: str = PWL_CAVEAT

    def to_dict(self) -> dict:
        return {"verdict": self.verdict, "dimension": self.dimension,
                "basis": [g.to_dict() for g in self.basis_functions],
                "note": self.note}


def _primitive(row: dict, rhs: int) -> tuple:
    """The row and right-hand side divided by the gcd of all their entries,
    signed so that the lead (lowest column) entry is positive."""
    g = math.gcd(*row.values(), rhs)
    if row[min(row)] < 0:
        g = -g
    return {c: v // g for c, v in row.items()}, rhs // g


def _eliminate(row: dict, rhs: int, prow: dict, prhs: int, col: int) -> tuple:
    """p*row - r*prow and its right-hand side, with p and r the entries of
    prow and row at col over their gcd: zero at col, and integer."""
    p, r = prow[col], row[col]
    g = math.gcd(p, r)
    p, r = p // g, r // g
    out = {c: p * v for c, v in row.items()}
    for c, v in prow.items():
        w = out.get(c, 0) - r * v
        if w:
            out[c] = w
        else:
            del out[c]
    return out, p * rhs - r * prhs


class _IntegerSolver:
    """Incremental reduced row echelon form over integer rows, fraction-free.

    Rows are dicts column -> int with an int right-hand side.  Each pivot row
    is kept as the primitive integer multiple, lead entry positive, of its
    row in the reduced row echelon form over the rationals: it is zero in
    every other pivot column.  Elimination cross-multiplies and divides out
    the gcd, in the spirit of Bareiss's integer-preserving elimination
    (Math. Comp. 1968), so no Fraction is built until the nullspace.  The
    reduced form is unique, so rank, pivots and nullspace do not depend on
    the order of the rows.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.pivots = {}       # col -> (row dict, rhs)

    def add(self, row: dict, rhs: int):
        row = {c: v for c, v in row.items() if v}
        for col in [c for c in row if c in self.pivots]:
            # a pivot row is zero in every other pivot column, so this
            # brings in no pivot column the loop has not seen
            row, rhs = _eliminate(row, rhs, *self.pivots[col], col)
        if not row:
            if rhs != 0:
                raise DomainError("inconsistent constraint system")
            return
        row, rhs = _primitive(row, rhs)
        lead = min(row)
        # keep the existing pivot rows reduced against the new one
        for col, (prow, prhs) in self.pivots.items():
            if lead in prow:
                self.pivots[col] = _primitive(
                    *_eliminate(prow, prhs, row, rhs, lead))
        self.pivots[lead] = (row, rhs)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def nullspace(self) -> list:
        """One basis vector per free column fc: 1 at fc, and at each pivot
        column minus the reduced row's entry at fc."""
        free = [c for c in range(self.ncols) if c not in self.pivots]
        basis = []
        for fc in free:
            vec = [Fraction(0)] * self.ncols
            vec[fc] = Fraction(1)
            for col, (prow, _) in self.pivots.items():
                v = prow.get(fc)
                if v:
                    vec[col] = Fraction(-v, prow[col])
            basis.append(vec)
        return basis


def _not_minimal(check: str, witness: dict) -> DomainError:
    return DomainError(f"restricted facet test requires a minimal function: "
                       f"{check} fails: {witness}")


def restricted_facet_test(f: PeriodicPWL, b, refinement_denominator: int
                          ) -> PerturbationTestResult:
    """Solve, exactly, for all continuous PWL perturbations on the refinement
    that satisfy every constraint forced by the equality structure of f.

    Constraints: theta(0)=0, theta(b)=1, the symmetry identity at every grid
    point, additivity at every additive vertex, and interval-lemma affinity
    over every additive face.  `certified_unique` iff f is the only solution.

    Everything runs on one lattice (1/Q)Z, Q the lcm of f's breakpoint
    denominators, the refinement denominator d and b's denominator: grid
    points are int numerators over Q and every row is scaled to ints.  The
    minimality gate runs in check_minimal's order, f(0) = 0, nonnegativity,
    subadditivity (decided by the equality structure's own vertex pass) and
    symmetry, and a failure raises DomainError naming the check and its
    witness.
    """
    b = rat(b)
    d = refinement_denominator
    if f.values[0] != 0:
        raise _not_minimal("f(0) != 0", _point_witness(
            Fraction(0), value=rat_str(f.values[0])))
    cert = check_nonnegative(f)
    if not cert.passed:
        raise _not_minimal("nonnegativity", cert.witness)
    lat = _Lattice(f, math.lcm(d, b.denominator))
    Q = lat.q
    vertices, faces = _additive_sets(lat)
    cert = check_symmetry(f, b)
    if not cert.passed:
        raise _not_minimal("symmetry", cert.witness)

    B = b.numerator * (Q // b.denominator) % Q
    pts = {*lat.points, B, *range(0, Q, Q // d)}
    pts |= {(B - t) % Q for t in pts}
    grid = sorted(pts)
    n = len(grid)

    def piece(i):
        """The right end of grid piece i as (numerator, column); the last
        piece ends at Q, whose value is the value at 0."""
        return (grid[i + 1] if i + 1 < n else Q), (i + 1) % n

    def interp(x):
        """The value at x/Q as (L, ((column, weight), ...)): the weighted sum
        of the grid unknowns, divided by L."""
        x %= Q
        i = bisect_right(grid, x) - 1
        t0 = grid[i]
        if x == t0:
            return 1, ((i, 1),)
        t1, c1 = piece(i)
        return t1 - t0, ((i, t1 - x), (c1, x - t0))

    def slope(i):
        """Q times the slope of piece i, in the same form."""
        t1, c1 = piece(i)
        return t1 - grid[i], ((i, -1), (c1, 1))

    rows = []

    def add_row(terms, rhs):
        """sum(sign * (weighted sum) / L) = rhs, scaled to a primitive int row."""
        m = math.lcm(*(L for _, (L, _) in terms))
        row = {}
        for sign, (L, weights) in terms:
            k = sign * (m // L)
            for c, w in weights:
                row[c] = row.get(c, 0) + k * w
        row = {c: v for c, v in row.items() if v}
        if row:
            rows.append(_primitive(row, rhs * m))

    add_row([(1, interp(0))], 0)
    add_row([(1, interp(B))], 1)
    for x in grid:
        add_row([(1, interp(x)), (1, interp(B - x))], 1)
    for x, y in vertices:
        add_row([(1, interp(x)), (1, interp(y)), (-1, interp(x + y))], 0)
    for fu, fv in faces:
        # the interval lemma on the face itself: one slope on fu, fv, fu+fv
        piece_ids = sorted({i for g in (fu, fv, *_sum_mod_segments(fu, fv, Q))
                            for i in pieces_meeting(grid, g.lo, g.hi)})
        ref = slope(piece_ids[0])
        for pid in piece_ids[1:]:
            add_row([(1, slope(pid)), (-1, ref)], 0)

    # every constraint is a consequence of facts f itself satisfies; f's
    # grid values are read off the lattice, scaled by lat.scale
    fvec = [lat.value(t) for t in grid]
    for row, rhs in rows:
        if sum(v * fvec[c] for c, v in row.items()) != rhs * lat.scale:
            raise RuntimeError("constraint generation bug: f violates its own "
                               "equality structure")

    solver = _IntegerSolver(n)
    seen = set()
    for row, rhs in rows:
        key = (frozenset(row.items()), rhs)
        if key in seen:
            continue
        seen.add(key)
        solver.add(row, rhs)

    dim = n - solver.rank
    xs = [Fraction(t, Q) for t in grid]
    basis = tuple(PeriodicPWL(xs, vec) for vec in solver.nullspace())
    if not faces:
        verdict = "inconclusive"
    elif dim == 0:
        verdict = "certified_unique"
    else:
        verdict = "not_unique"
    return PerturbationTestResult(dimension=dim, basis_functions=basis,
                                  verdict=verdict)


# ---------------------------------------------------------------------------
# exact replay of the facet-proof facts
# ---------------------------------------------------------------------------

def affine_slope_on(f: PeriodicPWL, I: Interval) -> Optional[Fraction]:
    """The single slope of f on I, or None if f is not affine there."""
    if I.degenerate:
        return None
    chord = (f.eval(I.hi) - f.eval(I.lo)) / (I.hi - I.lo)
    for t in breakpoints_in(f, I.lo, I.hi):
        if f.eval(t) != f.eval(I.lo) + chord * (t - I.lo):
            return None
    return chord


def replay_pi_k_facet_proof(k: int, b, f: Optional[PeriodicPWL] = None
                            ) -> Certificate:
    """Verify, exactly, every numeric fact the facet argument for the
    level-k function rests on.  `f` defaults to the genuine construction;
    passing a mutant exercises the failure paths."""
    b = rat(b)
    if k < 3:
        raise DomainError(f"k must be >= 3, got {k}")
    if not (0 < b <= Fraction(1, 2)):
        raise DomainError(f"b must lie in (0, 1/2], got {b}")
    if f is None:
        f = pi_k(k, b)
    lat = _Lattice(f)
    eighth = Fraction(1, 8)
    checked = 0

    def fail(step, msg):
        return Certificate("fail", witness={"kind": "replay-step", "step": step,
                                            "reason": msg},
                           checked_count=checked)

    # (a) the I6 face: [(1+b)/2, 1] + [(1+b)/2, 1] covers I6 mod 1, additively
    half = Interval((1 + b) / 2, Fraction(1))
    lo, hi = half.lo + half.lo, half.hi + half.hi
    checked += 1
    if (lo - 1, hi - 1) != (b, Fraction(1)):
        return fail("a", "sum interval does not reduce to [b, 1] mod 1")
    if not _zero_on_box(lat, half, half):
        return fail("a", "slack does not vanish on the I6 square")
    checked += 1

    # (b) the central face and the quarter-point values
    U = Interval(b / 4, 3 * b / 8)
    if not _zero_on_box(lat, U, U):
        return fail("b", "slack does not vanish on the central square")
    checked += 1
    for x, v in ((b / 4, Fraction(1, 4)), (b / 2, Fraction(1, 2)),
                 (3 * b / 4, Fraction(3, 4))):
        checked += 1
        if f.eval(x) != v:
            return fail("b", f"value at {x} is {f.eval(x)}, expected {v}")

    # (c) per level j: U + V recovers I2 mod 1, additively, with one slope
    for j in range(3, k + 1):
        eps = b * eighth ** (j - 2)
        U = Interval(3 * eps / 2, 2 * eps)
        V = Interval(1 - eps / 2, Fraction(1))
        i2 = interval_system(j, b).i2
        checked += 1
        if (U.lo + V.lo - 1, U.hi + V.hi - 1) != (i2.lo, i2.hi):
            return fail("c", f"j={j}: U+V does not reduce to I2 mod 1")
        if not _zero_on_box(lat, U, V):
            return fail("c", f"j={j}: slack does not vanish on U x V")
        checked += 1
        s1, s2, s3 = (affine_slope_on(f, U), affine_slope_on(f, V),
                      affine_slope_on(f, i2))
        checked += 1
        if not (s1 == s2 == s3 == Fraction(-1) / (1 - b)):
            return fail("c", f"j={j}: slopes disagree on U, V, I2")

    # (d) per level j: the doubling chain pins the inner stub of I1
    for j in range(3, k):
        dl = b * eighth ** (j - 1)
        eps = b * eighth ** (j - 2)
        istar = Interval(2 * dl, eps)
        U = Interval(2 * dl, 4 * dl)
        checked += 1
        if (U.lo + U.lo, U.hi + U.hi) != (4 * dl, eps):
            return fail("d", f"j={j}: U+U is not the upper half of I*")
        if not (U.hi == 4 * dl and istar == Interval(U.lo, eps)):
            return fail("d", f"j={j}: U and U+U do not tile I*")
        for m in range(j + 1, k + 1):
            i3 = interval_system(m, b).i3
            checked += 1
            if not i3.contains_interval(istar):
                return fail("d", f"j={j}: I* is not inside level-{m} I3")
        checked += 3
        if f.delta(2 * dl, 2 * dl) != 0 or f.delta(4 * dl, 4 * dl) != 0:
            return fail("d", f"j={j}: doubling additivities fail")
        if 4 * f.eval(2 * dl) != f.eval(eps):
            return fail("d", f"j={j}: the 4x doubling chain breaks")
        if not _zero_on_box(lat, U, U):
            return fail("d", f"j={j}: slack does not vanish on U x U")
        checked += 1

    # (e) the outermost stub: U + U tiles I1 additively
    eps = b * eighth ** (k - 2)
    U = Interval(Fraction(0), eps / 2)
    checked += 1
    if (U.lo, U.hi + U.hi) != (Fraction(0), eps):
        return fail("e", "U+U is not I1")
    if not _zero_on_box(lat, U, U):
        return fail("e", "slack does not vanish on the I1 square")
    checked += 1

    return Certificate("pass", checked_count=checked)


def two_slope_shortcut(f: PeriodicPWL, b) -> Certificate:
    """Facet certificate by the two-slope theorem: a continuous minimal
    valid function with exactly 2 slopes is a facet, no perturbation
    computation needed."""
    b = rat(b)
    cm = check_minimal(f, b)
    if not cm.passed:
        return Certificate("fail", witness=cm.witness, checked_count=cm.checked_count,
                           detail="not minimal")
    ns = len(f.slopes())
    if ns != 2:
        return Certificate("fail", witness={"kind": "slope-count", "count": ns},
                           checked_count=cm.checked_count + 1,
                           detail="slope count is not 2; the shortcut does not apply")
    return Certificate("pass", checked_count=cm.checked_count + 1)
