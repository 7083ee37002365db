"""Equality structure of the subadditivity slack, extremality
certification within the piecewise-linear perturbation class, and an exact
replay of the additive boxes behind the facet argument for the k-slope
family.

The perturbation certificates are deliberately scoped: `certified_unique`
means the function is the unique solution of the finite linear system over
continuous PWL perturbations on the chosen refinement.  That is the
checkable shadow of the unrestricted facet property, never a substitute for
it, and every serialized result says so.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .constructions import pi_k
from .errors import DomainError
from .pwl import Interval, PeriodicPWL, pieces_in, rat, rat_str
from .verification import Certificate, _Lattice, _require_minimal, _scan

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
    subadditivity complex of a function.  Each face is a zero cell of the
    slack, given by its projections p1, p2 and p3 onto x, y and x + y."""

    additive_vertices: tuple      # of (x, y) pairs, slack exactly 0
    additive_faces: tuple         # of (p1, p2, p3) Intervals: the zero cell
                                  # {x in p1, y in p2, x + y in p3}

    def to_dict(self) -> dict:
        return {
            "additive_vertices": [[rat_str(x), rat_str(y)]
                                  for x, y in self.additive_vertices],
            "additive_faces": [[p.to_pair() for p in face]
                               for face in self.additive_faces],
        }


def _zero_on_box(lat: _Lattice, u1, u2, v1, v2) -> bool:
    """True iff the subadditivity slack D(x, y) = f(x) + f(y) - f(x + y)
    vanishes identically on U x V, U = [u1/q, u2/q] and V = [v1/q, v2/q],
    for u1 < u2 and v1 < v2; a degenerate side raises DomainError.  The
    ends are numerators over q: ints on the lattice, else exact rationals.

    This is the Gomory-Johnson interval lemma for a continuous PWL f: D
    vanishes on U x V iff f is affine with one slope on U, on V and on
    U + V, and D is 0 at one point, here (u1, v1).  If f has slope s on all
    three, D(x, y) = D(u1, v1) on the box.  Conversely, the lines x, y and
    x + y through breakpoints cut the box into cells; on a 2-D cell, where
    f has slopes s1, s2, s3 at x, y, x + y, D is affine with gradient
    (s1 - s3, s2 - s3), so D = 0 there forces s1 = s2 = s3.  Every
    x-segment of U meets every y-segment of V in a 2-D cell, and every
    segment of U + V meets the open box in one, so the pieces of f that
    meet U, V and U + V have one lattice step between them."""
    if u1 >= u2 or v1 >= v2:
        q = lat.q
        raise DomainError(f"box sides must be nondegenerate, got "
                          f"[{Fraction(u1, q)}, {Fraction(u2, q)}] x "
                          f"[{Fraction(v1, q)}, {Fraction(v2, q)}]")
    steps = lat.steps_on(u1, u2) | lat.steps_on(v1, v2) | lat.steps_on(u1 + v1, u2 + v2)
    return len(steps) == 1 and lat.slack(u1, v1) == 0


def _half_faces(lat: _Lattice):
    """The zero cells of the slack's complex over the half a1 <= b1 of the
    period square, each as its walk key (a1, b1, wl) and its projection
    triple (p1, p2, p3) of int pairs (lo, hi).

    The box [a1, a2] x [b1, b2] of pieces i <= j is cut by the breakpoints
    between a1 + b1 and a2 + b2 into strip cells wl <= x + y <= wu, one per
    piece of f that `pieces_in` meets there, and each is a 2-D cell.  On it
    the slack is affine with gradient (s1 - s3, s2 - s3), s1, s2, s3 f's
    steps on pieces i and j and on the strip's piece, so it vanishes iff
    s1 = s2 = s3 and it is 0 at one vertex, here (p1's lo, wl - p1's lo).
    A box with s1 != s2 has no zero cell.  The cell projects to
    p1 = [max(a1, wl - b2), min(a2, wu - b1)], p2 likewise with the axes
    swapped, and p3 = [wl, wu].  The mirror (b1, b2, a1, a2, wl, wu) of a
    cell is a cell of the full square, and since D(x, y) = D(y, x) it is
    zero iff the cell is."""
    P, q, steps = lat.points, lat.q, lat.steps
    ends = [*P[1:], q]
    for n, (a1, a2, s) in enumerate(zip(P, ends, steps)):
        for b1, b2, t in zip(P[n:], ends[n:], steps[n:]):
            if s != t:
                continue
            for j, wl, wu in pieces_in(P, q, a1 + b1, a2 + b2):
                x = max(a1, wl - b2)
                if steps[j] == s and lat.slack(x, wl - x) == 0:
                    p1 = (x, min(a2, wu - b1))
                    p2 = (max(b1, wl - a2), min(b2, wu - a1))
                    yield (a1, b1, wl), (p1, p2, (wl, wu))


def equality_structure(f: PeriodicPWL) -> EqualityStructure:
    """Enumerate additive vertices and additive faces exactly.

    Faces: every full-dimensional cell of the slack's complex on which the
    slack vanishes identically, given by its three projections (p1, p2, p3):
    the cell is {x in p1, y in p2, x + y in p3}, with p3 unreduced in
    [0, 2].  Distinct cells have distinct projections.

    The vertices are those of `check_subadditive`'s scan, so the same pass
    decides subadditivity: a negative slack raises DomainError.

    Both sets cover the whole square, in the order of a full walk, through
    D(x, y) = D(y, x).  A vertex pair with x > y is additive iff its mirror
    is, so the vertices are the scan's walked zero pairs x <= y and their
    mirrors, sorted as a full scan would meet them.  `_half_faces` walks
    the half a1 <= b1; each zero cell off the diagonal brings its mirror,
    whose triple is (p2, p1, p3), and sorting the zero cells by
    (a1, b1, wl) restores the order of the full walk.
    """
    lat = _Lattice(f)
    q = lat.q
    cert, zeros = _scan(lat)
    if not cert.passed:
        raise DomainError("equality structure requires a subadditive function: "
                          f"subadditivity fails: {cert.witness}")
    vertices = sorted({*zeros, *((k, i) for i, k in zeros)})
    half = list(_half_faces(lat))
    cells = sorted([*half, *(((b1, a1, wl), (p2, p1, p3))
                             for (a1, b1, wl), (p1, p2, p3) in half if a1 != b1)])
    return EqualityStructure(
        additive_vertices=tuple((Fraction(x, q), Fraction(y, q))
                                for x, y in vertices),
        additive_faces=tuple(tuple(Interval(Fraction(lo, q), Fraction(hi, q))
                                   for lo, hi in face)
                             for _, face in cells))


def _face_spans(grid: list, face: tuple, period: int) -> list:
    """The grid pieces that a face's projections p1, p2 and p3 meet, p3
    read modulo the period, as ranges (first, last) of piece ids.

    Piece j = [grid[j], grid[j + 1]] meets (lo, hi) iff grid[j] < hi and
    its end is > lo, so the pieces that meet it run from the last start
    <= lo to the last start < hi: two bisects.  A projection lies in one
    piece of f, so it is no longer than the period: reduced to start in
    [0, period), it ends at most one period on, and one that ends past the
    period gives two ranges, up to the last piece and from piece 0.  (The
    p3 of a cell of `_half_faces` never does, as 0 is a breakpoint of f.)"""
    spans = []
    for lo, hi in face:
        m, lo = divmod(lo, period)
        hi -= m * period
        first = bisect_right(grid, lo) - 1
        if hi <= period:
            spans.append((first, bisect_left(grid, hi) - 1))
        else:
            spans += [(first, len(grid) - 1), (0, bisect_left(grid, hi - period) - 1)]
    return spans


def _slope_classes(grid: list, faces, B: int, Q: int) -> list:
    """The slope class of each grid piece, as a column number.

    A union-find over the pieces joins the pieces each face meets, since by
    the interval lemma a perturbation has one slope on the face's three
    projections, and each piece with its mirror under x -> (B - x) mod Q, a
    grid piece since the grid is closed under that map.

    The pieces a projection meets are one range of consecutive pieces
    (`_face_spans`).  The ranges of all faces are sorted and overlapping
    ones merged, and each piece of a merged range but its last is linked to
    that last piece once.  A face then joins the first pieces of its
    ranges.  The map reverses the cyclic order of the pieces and sends
    piece 0, [0, grid[1]], to the piece that ends at B, so piece i's mirror
    is piece (m - i) mod n, m + 1 the index of B; each pair is joined once.
    Every link and join points the smaller root at the larger, so a class's
    root is its last piece, and the columns number the classes in the order
    of their last pieces."""
    n = len(grid)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def join(i, j):
        i, j = find(i), find(j)
        if i != j:
            parent[min(i, j)] = max(i, j)

    spans = [_face_spans(grid, face, Q) for face in faces]
    lo = hi = 0
    for first, last in sorted(s for face in spans for s in face):
        if first > hi:
            parent[lo:hi] = [hi] * (hi - lo)
            lo = first
        hi = max(hi, last)
    parent[lo:hi] = [hi] * (hi - lo)
    for face in spans:
        for (i, _), (j, _) in zip(face, face[1:]):
            join(i, j)
    m = bisect_left(grid, B) - 1
    for i in range(n):
        if i < (m - i) % n:
            join(i, (m - i) % n)
    roots = [find(i) for i in range(n)]
    column = {r: c for c, r in enumerate(sorted(set(roots)))}
    return [column[r] for r in roots]


# ---------------------------------------------------------------------------
# PWL-restricted facet test
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PerturbationTestResult:
    dimension: int
    basis_functions: tuple
    verdict: str              # certified_unique | not_unique
    note = PWL_CAVEAT         # a class constant, not a field

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
    (Math. Comp. 1968), so no Fraction is built.  The reduced form is
    unique, so rank, pivots and nullspace do not depend on the order of the
    rows.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.pivots = {}       # col -> (row dict, rhs)

    def add(self, row: dict, rhs: int):
        """Add any int row: zero entries are dropped, and a row that reduces
        to zero adds nothing."""
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
        """One basis vector per free column fc, in ints: m at fc, and at
        each pivot column minus m times the reduced row's entry at fc, with
        m > 0 the lcm of the lead entries that this divides."""
        basis = []
        for fc in (c for c in range(self.ncols) if c not in self.pivots):
            rows = [(col, prow) for col, (prow, _) in self.pivots.items() if fc in prow]
            m = math.lcm(*(prow[col] for col, prow in rows))
            vec = [0] * self.ncols
            vec[fc] = m
            for col, prow in rows:
                vec[col] = -prow[fc] * (m // prow[col])
            basis.append(vec)
        return basis


def restricted_facet_test(f: PeriodicPWL, b, refinement_denominator: int
                          ) -> PerturbationTestResult:
    """Solve, exactly, for all continuous PWL perturbations on the refinement
    that satisfy every constraint forced by the equality structure of f.

    Constraints: theta(0)=0, theta(b)=1, the symmetry identity
    theta(x) + theta(b - x) = 1, one additivity row per zero triple of the
    gate, which spans the rows of additivity at each additive vertex, and
    the interval lemma on each face's three projections: one slope on p1,
    p2 and p3, the last reduced modulo 1.  `certified_unique` iff f is the
    only solution, else `not_unique` with a basis of the solutions.

    There is always a face: the gate proves f(0) = 0, and f is linear on
    its first piece [0, t1], so the slack vanishes on the cell x, y >= 0,
    x + y <= t1.  `_half_faces` yields it from its first box (both pieces
    0, the first strip, slack(0, 0) = f(0) = 0).

    Everything runs on one lattice (1/Q)Z, Q the lcm of f's breakpoint
    denominators, the refinement denominator d and b's denominator: grid
    points are int numerators over Q and every row is scaled to ints.  The
    minimality gate is check_minimal's, run once on that lattice; a failure
    raises NotMinimal naming the check and its witness.

    The unknowns are slopes, one per class of `_slope_classes`.  The
    interval lemma puts the pieces a face meets in one class; the faces are
    the half walk's zero cells, since a mirrored face (p2, p1, p3) meets the
    same pieces.  The symmetry identity puts each piece in its mirror's
    class under x -> b - x, since theta(x) + theta(b - x) has slope 0.
    Conversely, with closure, equal slopes on mirrored pieces make
    theta(x) + theta(b - x) constant on the period, so equal to its value
    theta(0) + theta(b) = theta(b) at 0: the mirror unions and the row
    theta(b) = 1 are the symmetry identity.  This is x -> b - x acting on
    the perturbations, as in Basu, Hildebrand and Koeppe, "Equivariant
    perturbation in Gomory and Johnson's infinite group problem I" (Math.
    Oper. Res. 2015).  theta at x is the sum, over the pieces before x, of
    each piece's length times its class's slope, plus x's part of its own
    piece, so theta(0) = 0 and every row is an int row.  The rows are
    closure, theta(1) = theta(0); theta(b) = 1; and one additivity row per
    zero triple of the gate.  The faces add no row.  Each row is checked
    against f's slopes, and a class on which f has two slopes is refused,
    as a bug in generating constraints.

    One row per zero triple: write B = b Q and extend theta to the line
    with theta(x + Q) = theta(x) + theta(Q), theta(Q) the closure row.
    Mirror pieces share a class, so theta(x) + theta(B - x) has slope 0 and
    equals theta(B), its value at 0; read modulo Q,
    theta(x) + theta((B - x) mod Q) - theta(B) is 0 or the closure row.
    With z = (B - x - y) mod Q, the additivity row
    theta(x) + theta(y) - theta(x + y) is therefore
    theta(x) + theta(y) + theta(z) - theta(B) up to a multiple of the
    closure row.  f is symmetric, so every pair of a zero triple
    {x, y, z} is a zero pair, and the three rows of its pairs all equal
    theta(x) + theta(y) + theta(z) - theta(B) = 0 modulo closure.  The
    gate walks a zero pair of each zero triple, and each triple adds that
    one row: the row space is the same, and so is its reduced form.

    The basis is the one the system over the n grid values gives.  Its
    reduced row echelon form pivots on each row's lowest column, so its
    basis is the one fixed by the solution space alone: each vector has its
    last nonzero entry at its own pivot, 1 there and 0 at the other
    vectors' pivots.  The running sum maps the solutions in slopes one to
    one onto the solutions in grid values, since closure fixes the last
    piece's slope.  So the mapped nullspace, reduced to that form
    fraction-free on ints and divided once at the end, is that basis.  The
    reduction keeps every vector reduced against every other, so it does
    not depend on the order of the classes; ordering them by last piece
    only keeps it short.
    """
    b = rat(b)
    d = refinement_denominator
    if d < 1:
        raise DomainError(f"refinement_denominator must be >= 1, got {d}")
    lat = _Lattice(f, math.lcm(d, b.denominator))
    Q = lat.q
    _, zeros = _require_minimal(f, lat, b, "restricted facet test")
    faces = [face for _, face in _half_faces(lat)]

    B = lat.numerator(b) % Q
    pts = {*lat.points, B, *range(0, Q, Q // d)}
    pts |= {(B - t) % Q for t in pts}
    grid = sorted(pts)
    n = len(grid)
    lengths = [t1 - t0 for t0, t1 in zip(grid, [*grid[1:], Q])]
    cls = _slope_classes(grid, faces, B, Q)
    k = max(cls) + 1

    # every constraint is a consequence of facts f itself satisfies; f's
    # slope on each class is read off the lattice, scaled by lat.scale
    fslope = [None] * k
    for t, L, c in zip(grid, lengths, cls):
        s = (lat.value(t + L) - lat.value(t)) // L
        if fslope[c] not in (None, s):
            raise RuntimeError("constraint generation bug: f violates its own "
                               "equality structure")
        fslope[c] = s
    prefix = [[0] * k]             # theta at grid point i, as a row
    for L, c in zip(lengths, cls):
        prefix.append(prefix[-1][:])
        prefix[-1][c] += L

    def theta(x):
        """theta(x/Q) as a row of int coefficients on the class slopes."""
        x %= Q
        i = bisect_right(grid, x) - 1
        row = prefix[i][:]
        row[cls[i]] += x - grid[i]
        return row

    solver = _IntegerSolver(k)

    def add_row(row, rhs):
        """Check the row against f's slopes and add it to the solver."""
        if sum(v * s for v, s in zip(row, fslope)) != rhs * lat.scale:
            raise RuntimeError("constraint generation bug: f violates its own "
                               "equality structure")
        solver.add(dict(enumerate(row)), rhs)

    tB = theta(B)
    add_row(prefix[n], 0)          # closure: theta(1) = theta(0)
    add_row(tB, 1)
    for x, y, z in sorted({tuple(sorted((x, y, (B - x - y) % Q))) for x, y in zeros}):
        add_row([u + v + w - t for u, v, w, t in zip(theta(x), theta(y), theta(z), tB)], 0)

    # map each solution to grid values, columns reversed so that the
    # solver's lead entry is the last nonzero grid value
    canon = _IntegerSolver(n)
    for vec in solver.nullspace():
        row, acc = {}, 0
        for i, (L, c) in enumerate(zip(lengths, cls)):
            row[n - 1 - i] = acc
            acc += L * vec[c]
        canon.add(row, 0)
    basis = []
    for col in sorted(canon.pivots, reverse=True):
        row, _ = canon.pivots[col]
        W = [0] * n
        for c, v in row.items():
            W[n - 1 - c] = v
        # grid value i is W[i]/row[col], the lead entry row[col] > 0
        basis.append(PeriodicPWL._of_ints(Q, grid, row[col], W))
    return PerturbationTestResult(
        dimension=len(basis), basis_functions=tuple(basis),
        verdict="not_unique" if basis else "certified_unique")


# ---------------------------------------------------------------------------
# exact replay of the facet-proof boxes
# ---------------------------------------------------------------------------

def _replay_boxes(k: int, B: int, q: int):
    """The additive boxes of the facet argument for the level-k function,
    in order, as (step, (u1, u2), (v1, v2), reason): the slack must vanish
    on [u1/q, u2/q] x [v1/q, v2/q].  They depend on k and b = B/q only,
    with eps_j = b/8^(j-2) from its recurrence eps_2 = b,
    eps_(j+1) = eps_j/8, read as the numerators E_j = eps_j q: E_2 = B and
    E_(j+1) = E_j // 8.

    Every end is an int when 2 8^(k-2) divides both q and B, as on the
    replay's lattice: with b = p/r, q is a multiple of 2 8^(k-2) r there,
    so B = p (q/r) is a multiple of 2 8^(k-2).  Then E_j = B/8^(j-2) is
    2 8^(k-j) times an int, so each // is exact and E_j is even for
    j <= k; q and B are even, and 8 divides B (k >= 3).  The ends below,
    over q, are (q + B)/2, B/4, 3B/8, 3E_j/2, 2E_j, q - E_j/2, 2D, 4D for
    D = E_(j+1), and E_k/2: all ints.

    Each box stands for the facts the argument reads off it.  They follow
    from what `_zero_on_box` checks, one slope on U, V and U + V and slack
    0 at (U.lo, V.lo), and from the gate: f(0) = 0, so f(1) = 0, and
    f(x) + f(b - x) = 1, so f(b) = 1.  The identities hold for every
    j >= 3 and b in (0, 1/2].
    (a) U = V = [(1+b)/2, 1]: U + V = [1+b, 2] is I6 = [b, 1] mod 1, so f
        has one slope on [b, 1], and it is (f(1) - f(b))/(1 - b) = -1/(1 - b).
    (b) U = V = [b/4, 3b/8]: 2f(b/4) = f(b/2), and symmetry at b/2 and at
        b/4 gives f(b/2) = 1/2, f(b/4) = 1/4 and f(3b/4) = 3/4.
    (c) level j = 3..k, U = [3eps_j/2, 2eps_j], V = [1 - eps_j/2, 1]:
        U + V = [1 + eps_j, 1 + 2eps_j] is level j's I2 mod 1, and V lies in
        [b, 1] since 1 - eps_j/2 >= 1 - b/16 > b.  So after (a) the box puts
        the slope -1/(1 - b) on U, on V and on I2.
    (d) level j = 3..k-1, d = eps_(j+1) = eps_j/8, U = V = [2d, 4d]:
        U + U = [4d, eps_j], so U and U + U tile I* = [2d, eps_j].  With one
        slope on U and on U + U the slack is 2f(2d) - f(4d) on the whole box,
        so it is 0 at (2d, 2d) and at (4d, 4d): f(eps_j) = 2f(4d) = 4f(2d).
        I* lies in I3 = [2eps_m, b - 2eps_m] of every level m in (j, k],
        since 2eps_m <= 2d and eps_j <= b/8 < b - b/32 <= b - 2eps_m.
    (e) U = V = [0, eps_k/2]: U + U = [0, eps_k] is level k's I1."""
    eps = [B // 8]                      # E_3, ..., E_k
    while len(eps) < k - 2:
        eps.append(eps[-1] // 8)
    half = ((q + B) // 2, q)
    yield "a", half, half, "slack does not vanish on the I6 square"
    U = (B // 4, 3 * B // 8)
    yield "b", U, U, "slack does not vanish on the central square"
    for j, e in enumerate(eps, 3):
        yield ("c", (3 * e // 2, 2 * e), (q - e // 2, q),
               f"j={j}: slack does not vanish on U x V")
    for j, d in enumerate(eps[1:], 3):
        U = (2 * d, 4 * d)
        yield "d", U, U, f"j={j}: slack does not vanish on U x U"
    U = (0, eps[-1] // 2)
    yield "e", U, U, "slack does not vanish on the I1 square"


def replay_pi_k_facet_proof(k: int, b, f: Optional[PeriodicPWL] = None
                            ) -> Certificate:
    """Check, exactly, the additive boxes the facet argument for the
    level-k function rests on; the values, slopes and doubling chains it
    reads follow from them and the gate, as `_replay_boxes` proves.  `f`
    defaults to the genuine construction; passing a mutant exercises the
    failure paths.  The argument assumes f minimal: check_minimal's gate
    runs once, after the checks on k and b, on the lattice the replay
    reads, and a failure raises NotMinimal.  That lattice holds
    2 8^(k-2) b's denominator, so every box end is an int numerator on it.
    The 2k - 2 boxes run in order up to the first on which the slack does
    not vanish, and `checked` counts the boxes checked, the failing one
    included."""
    b = rat(b)
    if k < 3:
        raise DomainError(f"k must be >= 3, got {k}")
    if not (0 < b <= Fraction(1, 2)):
        raise DomainError(f"b must lie in (0, 1/2], got {b}")
    if f is None:
        f = pi_k(k, b)
    r = b.denominator
    lat = _Lattice(f, 2 * 8 ** (k - 2) * r)
    _require_minimal(f, lat, b, "facet-proof replay")
    q = lat.q
    for checked, (step, U, V, reason) in enumerate(
            _replay_boxes(k, b.numerator * (q // r), q), 1):
        if not _zero_on_box(lat, *U, *V):
            return Certificate("fail", checked_count=checked, witness={
                "kind": "replay-step", "step": step, "reason": reason})
    return Certificate("pass", checked_count=checked)


def two_slope_shortcut(f: PeriodicPWL, b) -> Certificate:
    """Facet certificate by the two-slope theorem: a continuous minimal
    valid function with exactly 2 slopes is a facet, no perturbation
    computation needed.  The minimality hypothesis is check_minimal's gate;
    a failure raises NotMinimal."""
    b = rat(b)
    lat = _Lattice(f, b.denominator)
    cm, _ = _require_minimal(f, lat, b, "two-slope shortcut")
    ns = len(set(lat.steps))      # equal steps iff equal slopes
    if ns != 2:
        return Certificate("fail", witness={"kind": "slope-count", "count": ns},
                           checked_count=cm.checked_count + 1,
                           detail="slope count is not 2; the shortcut does not apply")
    return Certificate("pass", checked_count=cm.checked_count + 1)
