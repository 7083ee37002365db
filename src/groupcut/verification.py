"""Exact decision procedures for minimality and the structural claims about
the k-slope family.  Every verifier returns a Certificate; a fail always
carries an exact witness that reproduces the violation."""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .constructions import interval_system, new_slope
from .errors import DomainError
from .pwl import PeriodicPWL, pieces_meeting, rat, rat_str


@dataclass(frozen=True)
class Certificate:
    verdict: str                      # "pass" | "fail"
    witness: Optional[dict] = None
    checked_count: int = 0
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_dict(self) -> dict:
        return {"verdict": self.verdict, "witness": self.witness,
                "checked": self.checked_count, "detail": self.detail}


def _pair_witness(x, y, d) -> dict:
    return {"kind": "pair", "x": rat_str(x), "y": rat_str(y), "delta": rat_str(d)}


def _point_witness(x, **extra) -> dict:
    w = {"kind": "point", "x": rat_str(x)}
    w.update(extra)
    return w


class _Lattice:
    """f restricted to the lattice (1/q)Z and scaled to integers.

    q is the lcm of the breakpoint denominators and of `denominator`, so
    every breakpoint is p/q for an integer p, and so is every sum and
    difference of breakpoints: every vertex of the slack's arrangement lies
    on (1/q)Z.  A `denominator` above 1 puts other points on the same
    lattice, such as a refinement grid.
    On piece j, scale*f(i/q) = a_j*i + c_j with integers a_j, c_j, so the
    slack at (i/q, k/q) is the integer value(i) + value(k) - value(i + k),
    which is scale times the exact slack.  This is the finite-group
    restriction of Basu, Hildebrand and Koeppe (Equivariant perturbation in
    Gomory and Johnson's infinite group problem I, Math. Oper. Res. 2015).
    """

    __slots__ = ("q", "scale", "points", "_a", "_c", "_memo")

    def __init__(self, f: PeriodicPWL, denominator: int = 1):
        bps, vals = f.breakpoints, f.values
        q = math.lcm(denominator, *(t.denominator for t in bps))
        # Fraction(): an all-int function has a float slope, 0/1 == 0.0
        steps = [Fraction(f.piece_slope(j)) / q for j in range(len(bps))]
        scale = math.lcm(*(v.denominator for v in vals),
                         *(s.denominator for s in steps))
        self.q, self.scale = q, scale
        self.points = [t.numerator * (q // t.denominator) for t in bps]
        self._a = [s.numerator * (scale // s.denominator) for s in steps]
        self._c = [v.numerator * (scale // v.denominator) - a * p
                   for v, a, p in zip(vals, self._a, self.points)]
        self._memo = {}

    def value(self, i: int) -> int:
        """scale*f(i/q) for any integer or rational i: on each piece it is
        the affine a_j*i + c_j, so it is exact between lattice points too."""
        i %= self.q
        v = self._memo.get(i)
        if v is None:
            j = bisect_right(self.points, i) - 1
            v = self._memo[i] = self._a[j] * i + self._c[j]
        return v

    def slack(self, i: int, k: int) -> int:
        """scale times f(x) + f(y) - f(x+y) at x = i/q, y = k/q."""
        value = self.value
        return value(i) + value(k) - value(i + k)

    def vertex_pairs(self) -> list:
        """The vertex pairs of `subadditivity_vertex_pairs`, as numerators
        over q, in the same (lexicographic) order."""
        P, q = self.points, self.q
        pairs = {(u, v) for u in P for v in P}
        for u in P:
            for w in P:
                d = (w - u) % q
                pairs.add((u, d))
                pairs.add((d, u))
        return sorted(pairs)


def subadditivity_vertex_pairs(f: PeriodicPWL) -> list:
    """The finite vertex set on which the subadditivity slack attains its
    minimum.

    The slack D(x,y) = f(x)+f(y)-f(x+y) is piecewise linear on the
    arrangement cut by the lines x in B+Z, y in B+Z, x+y in B+Z (B the
    breakpoint set), so its minimum over the period square is attained at an
    intersection of two such lines.  Those intersections project exactly to
    the pairs enumerated here: (u, v), (u, w-u) and (w-u, u) for u, v, w in
    B, reduced modulo 1 and sorted.
    """
    lat = _Lattice(f)
    q = lat.q
    return [(Fraction(i, q), Fraction(k, q)) for i, k in lat.vertex_pairs()]


def check_subadditive(f: PeriodicPWL) -> Certificate:
    """Exact subadditivity decision via the vertex scan, in integer
    arithmetic on the lattice; witness is the lexicographically smallest
    violating pair.

    The pair set is symmetric and D(x, y) = D(y, x), so only the pairs
    (i, k) with i <= k are evaluated.  A pair with i > k comes after its
    mirror (k, i) in the sorted list, and the scan got past the mirror only
    because its slack is nonnegative.  So the first negative pair, hence the
    witness and `checked` (its index + 1 in the full list), are those of the
    full scan.
    """
    lat = _Lattice(f)
    q, slack = lat.q, lat.slack
    pairs = lat.vertex_pairs()
    for idx, (i, k) in enumerate(pairs):
        if i > k:
            continue
        d = slack(i, k)
        if d < 0:
            return Certificate("fail", checked_count=idx + 1, witness=_pair_witness(
                Fraction(i, q), Fraction(k, q), Fraction(d, lat.scale)))
    return Certificate("pass", checked_count=len(pairs))


def check_symmetry(f: PeriodicPWL, b) -> Certificate:
    """Decide f(x) + f(b-x) = 1 for all x.

    g(x) = f(x) + f(b-x) is piecewise linear with breakpoints in
    B union (b - B) mod 1, so g = 1 everywhere iff it holds at those points.
    """
    b = rat(b)
    pts = sorted({t for t in f.breakpoints} | {(b - t) % 1 for t in f.breakpoints})
    for x in pts:
        s = f.eval(x) + f.eval(b - x)
        if s != 1:
            return Certificate("fail", witness=_point_witness(x, sum=rat_str(s)),
                               checked_count=len(pts))
    return Certificate("pass", checked_count=len(pts))


def check_nonnegative(f: PeriodicPWL) -> Certificate:
    """Minimum of a continuous PWL function is attained at a breakpoint."""
    for t, v in zip(f.breakpoints, f.values):
        if v < 0:
            return Certificate("fail", witness=_point_witness(t, value=rat_str(v)),
                               checked_count=len(f.breakpoints))
    return Certificate("pass", checked_count=len(f.breakpoints))


def check_minimal(f: PeriodicPWL, b) -> Certificate:
    """Minimality test: zero at integers, nonnegative, subadditive, symmetric.

    Sub-checks run in that fixed order and the first failure is reported.
    """
    b = rat(b)
    checked = 1
    if f.eval(0) != 0:
        return Certificate("fail", checked_count=1, detail="f(0) != 0",
                           witness=_point_witness(Fraction(0), value=rat_str(f.eval(0))))
    for name, cert in (("nonnegativity", check_nonnegative(f)),
                       ("subadditivity", check_subadditive(f)),
                       ("symmetry", check_symmetry(f, b))):
        checked += cert.checked_count
        if not cert.passed:
            return Certificate("fail", witness=cert.witness, checked_count=checked,
                               detail=name)
    return Certificate("pass", checked_count=checked)


def check_zero_set(f: PeriodicPWL) -> Certificate:
    """Pass iff f(0) = 0 and f > 0 everywhere else on [0, 1).

    Positivity on a piece is decided by its endpoint values.
    """
    if f.eval(0) != 0:
        return Certificate("fail", checked_count=1,
                           witness=_point_witness(Fraction(0), value=rat_str(f.eval(0))))
    n = len(f.breakpoints)
    for i, (t, v) in enumerate(zip(f.breakpoints, f.values)):
        if i > 0 and v <= 0:
            return Certificate("fail", witness=_point_witness(t, value=rat_str(v)),
                               checked_count=n)
        nxt = f.values[(i + 1) % n]
        if v <= 0 and nxt <= 0:
            # piece identically <= 0 on its interior
            hi = f.breakpoints[i + 1] if i + 1 < n else Fraction(1)
            mid = (t + hi) / 2
            return Certificate("fail", witness=_point_witness(mid, value=rat_str(f.eval(mid))),
                               checked_count=n)
    return Certificate("pass", checked_count=n)


def check_slope_census(f: PeriodicPWL, k: int, b) -> Certificate:
    """Exact comparison of the slope set against the level-k census, plus the
    placement facts: intermediate slopes on I3, the negative slope on I6."""
    b = rat(b)
    if k < 2:
        raise DomainError(f"k must be >= 2, got {k}")
    if not 0 < b < 1:
        raise DomainError(f"b must lie in (0, 1), got {b}")
    neg = Fraction(-1) / (1 - b)
    expected = frozenset({neg} | {new_slope(i, b) for i in range(2, k + 1)})
    actual = f.slopes()
    if actual != expected:
        return Certificate("fail", witness={
            "kind": "slope-set",
            "expected": sorted(map(rat_str, expected)),
            "actual": sorted(map(rat_str, actual))})
    checked = len(expected)
    if k >= 3:
        sysk = interval_system(k, b)
        on_i3, on_i6 = (frozenset(f.piece_slope(i)
                                  for i in pieces_meeting(f.breakpoints, I.lo, I.hi))
                        for I in (sysk.i3, sysk.i6))
        want_i3 = frozenset(new_slope(i, b) for i in range(2, k))
        # the central band carries every intermediate new slope; the inherited
        # down-slope may appear there too, but the level-k new slope must not
        if not (want_i3 <= on_i3 <= want_i3 | {neg}):
            return Certificate("fail", witness={
                "kind": "slope-set", "where": "I3",
                "required": sorted(map(rat_str, want_i3)),
                "actual": sorted(map(rat_str, on_i3))}, checked_count=checked)
        if on_i6 != frozenset({neg}):
            return Certificate("fail", witness={
                "kind": "slope-set", "where": "I6",
                "actual": sorted(map(rat_str, on_i6))}, checked_count=checked)
        checked += len(on_i3) + 1
    return Certificate("pass", checked_count=checked)


def brute_force_subadditive(f: PeriodicPWL, denominator_cap: int) -> Certificate:
    """Independent grid oracle: checks the slack on the uniform grid with the
    given denominator.  A pass is necessary but not sufficient for
    subadditivity; scanning is lexicographic with early exit, so a fail
    reports the lexicographically smallest violating grid pair.
    """
    q = denominator_cap
    if q < 2:
        raise DomainError(f"denominator_cap must be >= 2, got {q}")
    vals = [f.eval(Fraction(p, q)) for p in range(q)]
    scale = math.lcm(*(v.denominator for v in vals))
    a = [int(v * scale) for v in vals]
    checked = 0
    for i in range(q):
        ai = a[i]
        row = a[i:] + a[:i]      # row[j] = a[(i+j) % q]
        for j in range(q):
            checked += 1
            if ai + a[j] < row[j]:
                x, y = Fraction(i, q), Fraction(j, q)
                return Certificate("fail", witness=_pair_witness(x, y, f.delta(x, y)),
                                   checked_count=checked)
    return Certificate("pass", checked_count=checked)
