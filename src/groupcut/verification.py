"""Exact decision procedures for minimality and the structural claims about
the k-slope family.  Every verifier returns a Certificate; a fail always
carries an exact witness that reproduces the violation."""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import DomainError, NotMinimal
from .pwl import PeriodicPWL, pieces_in, rat, rat_str


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
    which is scale times the exact slack.  a_j is `steps[j]`, f's lattice
    step on piece j, scale/q times its slope: two pieces have equal steps
    iff f's slopes on them are equal, and `steps_on` collects the steps of
    the pieces that meet an interval.  This is the finite-group restriction
    of Basu, Hildebrand and Koeppe (Equivariant perturbation in Gomory and
    Johnson's infinite group problem I, Math. Oper. Res. 2015).

    The build reads f's own ints and makes no Fraction.  f stores breakpoint
    j as f.P[j]/f.q and value j as W_j/D, W = f.W and D = f.D, with f.q and
    D the lcm of the reduced denominators.  So q = lcm(f.q, `denominator`),
    P_j = f.P[j]*(q/f.q) = q*t_j, and piece j's slope over q is
    dW_j / (D*dP_j), reduced by one gcd to n_j/d_j.  scale is the lcm of D
    and the d_j, as it is of the value and step denominators, and
    a_j = n_j*(scale/d_j), c_j = W_j*(scale/D) - a_j*P_j.
    """

    __slots__ = ("q", "scale", "points", "steps", "_c")

    def __init__(self, f: PeriodicPWL, denominator: int = 1):
        q = math.lcm(denominator, f.q)
        m, D, W = q // f.q, f.D, f.W
        P = [p * m for p in f.P]
        steps = []                    # (n_j, d_j); the last piece ends at (q, W_0)
        for w0, w1, p0, p1 in zip(W, [*W[1:], W[0]], P, [*P[1:], q]):
            dW, den = w1 - w0, D * (p1 - p0)
            g = math.gcd(dW, den)
            steps.append((dW // g, den // g))
        scale = math.lcm(D, *(d for _, d in steps))
        self.q, self.scale, self.points = q, scale, P
        self.steps = [n * (scale // d) for n, d in steps]
        self._c = [w * (scale // D) - a * p for w, a, p in zip(W, self.steps, P)]

    def numerator(self, t):
        """q*t: an int for t on (1/q)Z, else the exact rational numerator."""
        t *= self.q
        return t.numerator if t.denominator == 1 else t

    def value(self, i: int) -> int:
        """scale*f(i/q) for any integer or rational i: on each piece it is
        the affine a_j*i + c_j, so it is exact between lattice points too."""
        i %= self.q
        j = bisect_right(self.points, i) - 1
        return self.steps[j] * i + self._c[j]

    def scaled_at(self, n: int, d: int) -> int:
        """scale*d*f(n/d) for ints n and d > 0, n/d not necessarily reduced.
        p = n*q mod q*d is q*d times n/d mod 1, so the piece j that holds
        p/d is the one that holds floor(p/d), and the value is a_j*p + c_j*d."""
        p = n * self.q % (self.q * d)
        j = bisect_right(self.points, p // d) - 1
        return self.steps[j] * p + self._c[j] * d

    def steps_on(self, lo, hi) -> set:
        """f's steps on the pieces that meet (lo/q, hi/q), lo and hi ints or
        exact rationals anywhere on the line: one step iff f is affine there."""
        return {self.steps[j] for j, _, _ in pieces_in(self.points, self.q, lo, hi)}

    def slack(self, i: int, k: int) -> int:
        """scale times f(x) + f(y) - f(x+y) at x = i/q, y = k/q."""
        value = self.value
        return value(i) + value(k) - value(i + k)


def _cross_pairs(lat: _Lattice):
    """The pairs (u, d, w) with u, w in P, d = (w - u) mod q not in P: the
    vertex pairs (u, d) outside P x P, each with the breakpoint w = u + d."""
    P, q = lat.points, lat.q
    in_P = set(P)
    for u in P:
        for w in P:
            d = (w - u) % q
            if d not in in_P:
                yield u, d, w


def check_subadditive(f: PeriodicPWL) -> Certificate:
    """Exact subadditivity decision via the vertex scan, in integer
    arithmetic on the lattice; witness is the lexicographically smallest
    violating pair."""
    return _scan(_Lattice(f))[0]


def _scan(lat: _Lattice, M: Optional[int] = None) -> tuple:
    """The vertex scan: `check_subadditive`'s certificate and, on a pass,
    the zero-slack pairs (i, k), i <= k, that it walked, unsorted.

    The slack D(x, y) = f(x) + f(y) - f(x + y) is piecewise linear on the
    arrangement cut by the lines x, y, x + y in B + Z, B the breakpoints, so
    its minimum over the period square is attained where two such lines
    cross.  With P the breakpoint numerators, n = |P| and V[u] = value(u),
    those crossings, reduced modulo 1, are the sorted vertex list: P x P
    together with (u, d) and (d, u) for u, w in P, d = (w - u) mod q, that
    is, the pairs (x, y) with at least two of x, y, x + y in P.  The list
    has n^2 + 2|B'| pairs, B' as below, and no dedupe is needed: a B' pair
    has d outside P, so it is not in P x P, and for a fixed u distinct w
    give distinct d, while neither (u, d) nor its mirror (d, u) comes from
    another u', since d is not in P.

    The scan builds no list of the vertex pairs.  Its one walk, the same
    for every caller, is over u <= v in P with t = (u + v) mod q and slack
    V[u] + V[v] - value(t), and it counts T = #{ordered (u, v) in P x P :
    t in P}.  Through d = (w - u) mod q, the pairs (u, w) of P x P with d
    in P are the ordered pairs (u, d) of P x P with u + d in P, which T
    counts; so B', the triples (u, d, w) of `_cross_pairs`, has n^2 - T
    entries, and a pass counts n^2 + 2(n^2 - T) pairs.  As D(x, y) =
    D(y, x) decides each pair's mirror, every half-pair (i, k), i <= k, of
    the list is evaluated once: those of P x P by the walk, those of B' by
    a second loop with slack V[u] + value(d) - V[w], as u + d = w mod q.

    Given a mirror M, the second loop is skipped.  The gate passes M only
    when it has proved f(x) + f(M/q - x) = 1 and that P is closed under
    x -> (M - x) mod q.  Then value(M - t) = scale - value(t), so the
    walk's slack is V[u] + V[v] + value(z) - scale, z = (M - t) mod q: the
    same for every pair of {u, v, z}, since each sum of two of them is M
    minus the third, mod q.  And t is in P iff z is.  A B' triple
    (u, d, w) has u, w in P, so z' = (M - w) mod q is in P too, and the
    walk meets the pair {u, z'}, whose triple is {u, z', d}.  So every
    pair of the second loop shares its triple and slack with a pair of the
    walk, and a walked nonpositive slack stands for its sorted triple
    a <= b <= c: its half-pairs (a, b), (a, c) and (b, c) have that slack.

    The first negative pair of the sorted list is its smallest negative
    half-pair, since a pair's mirror sorts after it when i < k; with M
    that is the least (a, b) over the sorted negative triples, as every
    half-pair of a triple sorts at or after its (a, b).  That is the
    witness, and `checked` is its position in the list, counted by
    `_rank`.  A failing scan returns no zeros.
    """
    P, q, A, C = lat.points, lat.q, lat.steps, lat._c
    V = {u: a * u + c for u, a, c in zip(P, A, C)}
    negative, zeros, T = [], [], 0          # negative: (i, k, slack)
    for idx, u in enumerate(P):
        Vu = V[u]
        for v in P[idx:]:
            t = (u + v) % q
            j = bisect_right(P, t) - 1
            if P[j] == t:
                T += 1 if u == v else 2
            s = Vu + V[v] - A[j] * t - C[j]
            if s <= 0:
                if s < 0:
                    tri = (u, v) if M is None else sorted((u, v, (M - t) % q))
                    negative.append((tri[0], tri[1], s))
                else:
                    zeros.append((u, v))
    if M is None:
        for u, d, w in _cross_pairs(lat):
            j = bisect_right(P, d) - 1
            s = V[u] + A[j] * d + C[j] - V[w]
            if s <= 0:
                pair = (u, d) if u < d else (d, u)
                if s < 0:
                    negative.append((*pair, s))
                else:
                    zeros.append(pair)
    if negative:
        i, k, s = min(negative)
        return Certificate("fail", checked_count=_rank(lat, i, k), witness=_pair_witness(
            Fraction(i, q), Fraction(k, q), Fraction(s, lat.scale))), []
    n = len(P)
    return Certificate("pass", checked_count=n * n + 2 * (n * n - T)), zeros


def _rank(lat: _Lattice, i: int, k: int) -> int:
    """The number of pairs of the sorted vertex list that are <= (i, k),
    i <= k, counted from P with bisects instead of a walk of the list.

    With lo = #{u in P : u < i}, P x P has lo*n pairs (u, v) with u < i,
    and if i is in P the pairs (i, v) with v <= k.  A pair (u, w) of
    P x P gives the B' pairs (u, d) and (d, u), d = (w - u) mod q, when d
    is not in P.  The (u, d) with u < i number lo*n - C, where C =
    #{(u, d) in P x P : u < i, u + d in P mod q}.  The (d, u) with d < i
    number S - C, where S = #{(u, w) in P x P : (w - u) mod q < i} is read
    by bisects: u + d = d + u, so C also counts the pairs (u, d) of P x P
    with d < i and u + d in P.  Last, the B' pairs that start with i: if
    i is in P, the (i, d) with d <= k, that is the w with (w - i) mod q
    <= k less those with d in P; else the (i, u) with u <= k and u + i in
    P, as d = i there."""
    P, q = lat.points, lat.q
    n, in_P, lo = len(P), set(P), bisect_left(P, i)

    def within(u, m):    # #{w in P : (w - u) mod q < m}, 0 <= m <= q
        start, end = bisect_left(P, u), u + m
        return bisect_left(P, end) - start if end <= q else (
            n - start + bisect_left(P, end - q))

    C = sum((u + d) % q in in_P for u in P[:lo] for d in P)
    S = sum(within(u, i) for u in P)
    upto = bisect_right(P, k)            # #{v in P : v <= k}
    if i in in_P:
        head = upto + within(i, k + 1) - sum((i + d) % q in in_P for d in P[:upto])
    else:
        head = sum((u + i) % q in in_P for u in P[:upto])
    return 2 * (lo * n - C) + S + head


def check_symmetry(f: PeriodicPWL, b) -> Certificate:
    """Decide f(x) + f(b-x) = 1 for all x."""
    b = rat(b)
    return _symmetry(_Lattice(f, b.denominator), b)


def _symmetry(lat: _Lattice, b: Fraction) -> Certificate:
    """`check_symmetry` on a lattice (1/q)Z that holds b.

    g(x) = f(x) + f(b-x) is piecewise linear with breakpoints in
    P union (B - P) mod q, in numerators over q, so g = 1 everywhere iff
    value(x) + value(B - x) == scale at those points, B = b q an int.
    """
    q, value = lat.q, lat.value
    B = b.numerator * (q // b.denominator)
    pts = sorted({*lat.points, *((B - p) % q for p in lat.points)})
    for x in pts:
        s = value(x) + value(B - x)
        if s != lat.scale:
            return Certificate("fail", checked_count=len(pts), witness=_point_witness(
                Fraction(x, q), sum=rat_str(Fraction(s, lat.scale))))
    return Certificate("pass", checked_count=len(pts))


def check_nonnegative(f: PeriodicPWL) -> Certificate:
    """Minimum of a continuous PWL function is attained at a breakpoint.
    The values are read as f's int numerators over D > 0, and a Fraction is
    made only for a witness."""
    n = len(f.W)
    for p, w in zip(f.P, f.W):
        if w < 0:
            return Certificate("fail", checked_count=n, witness=_point_witness(
                Fraction(p, f.q), value=rat_str(Fraction(w, f.D))))
    return Certificate("pass", checked_count=n)


def check_minimal(f: PeriodicPWL, b) -> Certificate:
    """Minimality test: zero at integers, nonnegative, subadditive, symmetric.

    Sub-checks run in that fixed order and the first failure is reported.
    """
    b = rat(b)
    return _minimal(f, _Lattice(f, b.denominator), b)[0]


def _minimal(f: PeriodicPWL, lat: _Lattice, b: Fraction) -> tuple:
    """`check_minimal` on a lattice that holds b: its certificate and the
    zero pairs `_scan` walked (empty unless the scan ran).

    Symmetry is decided as soon as nonnegativity passes, before the scan:
    if it passes and its point set P union (M - P) mod q, M = b q mod q, is
    P itself, the scan is handed M and skips its second loop; otherwise it
    is handed None and runs both.  For a minimal f, 0 and b are true
    breakpoints, so a canonically stored f is closed.  The report keeps
    the fixed order f(0), nonnegativity, subadditivity, symmetry: the first
    failure is reported, and `checked` sums the checks up to it."""
    if f.W[0] != 0:
        w = _point_witness(Fraction(0), value=rat_str(Fraction(f.W[0], f.D)))
        return Certificate("fail", witness=w, checked_count=1, detail="f(0) != 0"), []
    checks, zeros = [("nonnegativity", check_nonnegative(f))], []
    if checks[0][1].passed:
        sym = _symmetry(lat, b)
        # _symmetry checks the points of P union (M - P): P is closed iff they are n
        closed = sym.passed and sym.checked_count == len(lat.points)
        M = b.numerator * (lat.q // b.denominator) % lat.q
        scan, zeros = _scan(lat, M if closed else None)
        checks += [("subadditivity", scan), ("symmetry", sym)]
    checked = 1
    for name, cert in checks:
        checked += cert.checked_count
        if not cert.passed:
            return Certificate("fail", witness=cert.witness, checked_count=checked,
                               detail=name), zeros
    return Certificate("pass", checked_count=checked), zeros


def _require_minimal(f: PeriodicPWL, lat: _Lattice, b: Fraction, what: str) -> tuple:
    """`_minimal` as the gate of `what`: its passing certificate and walked
    zero pairs, or NotMinimal naming the failing check and its witness."""
    cert, zeros = _minimal(f, lat, b)
    if not cert.passed:
        raise NotMinimal(f"{what} requires a minimal function: "
                         f"{cert.detail} fails: {cert.witness}", cert)
    return cert, zeros


def check_zero_set(f: PeriodicPWL) -> Certificate:
    """Pass iff f(0) = 0 and f > 0 everywhere else on [0, 1).

    Positivity on a piece is decided by the signs of its endpoint values,
    read as f's int numerators over D > 0; a Fraction is made only for a
    witness.  With f(0) = 0, piece 0 is <= 0 on its interior iff its right
    end is, and the witness is then its midpoint, where f is W_1/(2D) (W_0
    at n = 1, the wrap); otherwise it is the first breakpoint whose value
    is <= 0.
    """
    P, W, D, n = f.P, f.W, f.D, len(f.P)
    if W[0] != 0:
        return Certificate("fail", checked_count=1,
                           witness=_point_witness(Fraction(0), value=rat_str(Fraction(W[0], D))))
    if W[1 % n] <= 0:
        hi = P[1] if n > 1 else f.q
        return Certificate("fail", checked_count=n, witness=_point_witness(
            Fraction(hi, 2 * f.q), value=rat_str(Fraction(W[1 % n], 2 * D))))
    for p, w in zip(P[1:], W[1:]):
        if w <= 0:
            return Certificate("fail", checked_count=n, witness=_point_witness(
                Fraction(p, f.q), value=rat_str(Fraction(w, D))))
    return Certificate("pass", checked_count=n)


def check_slope_census(f: PeriodicPWL, k: int, b) -> Certificate:
    """Exact comparison of the slope set against the level-k census, plus the
    placement facts: intermediate slopes on I3, the negative slope on I6.
    b lies in (0, 1) at k = 2 and in (0, 1/2], where the intervals exist,
    at k >= 3.

    f is read through one `_Lattice` that holds b, whose steps are
    scale/q times f's slopes, and the census is compared in steps, on ints.
    With b = p/r, the census is -1/(1 - b) = -r/(r - p) and the new slopes
    s_i = (2^(i-2) - b) / (b - b^2) = (2^(i-2) r - p) r / (p (r - p)) of
    `new_slope`, i = 2..k, all distinct.  Over the common denominator
    p (r - p) q their steps have numerators -r p scale and
    (2^(i-2) r - p) r scale; a quotient that is not an int is no lattice
    step, so the set differs.  I3 = [2 eps_k, b - 2 eps_k] and I6 = [b, 1]
    of `interval_system(k, b)` are read by `steps_on` in numerators over
    q: b q = p (q/r) is an int, as r divides q, and
    2 eps_k q = 2 b q / 8^(k-2), exact rational if off the lattice.
    Steps become slopes again only for a witness."""
    b = rat(b)
    if k < 2:
        raise DomainError(f"k must be >= 2, got {k}")
    if k == 2 and not 0 < b < 1:
        raise DomainError(f"b must lie in (0, 1), got {b}")
    if k >= 3 and not 0 < b <= Fraction(1, 2):
        raise DomainError(f"b must lie in (0, 1/2], got {b}")
    lat = _Lattice(f, b.denominator)
    q, scale = lat.q, lat.scale
    p, r = b.numerator, b.denominator

    def slopes(steps):
        return sorted(rat_str(Fraction(a * q, scale)) for a in steps)

    def census(nums):
        # a step numerator n over p (r - p) q is the slope n / (p (r - p) scale)
        return sorted(rat_str(Fraction(n, p * (r - p) * scale)) for n in nums)

    nums = [-r * p * scale, *((2 ** (i - 2) * r - p) * r * scale for i in range(2, k + 1))]
    den = p * (r - p) * q
    neg, *news = (n // den if n % den == 0 else None for n in nums)
    actual = set(lat.steps)
    if actual != {neg, *news}:
        return Certificate("fail", witness={
            "kind": "slope-set", "expected": census(nums), "actual": slopes(actual)})
    checked = k
    if k >= 3:
        B = p * (q // r)
        e, rem = divmod(2 * B, 8 ** (k - 2))
        if rem:
            e = Fraction(2 * B, 8 ** (k - 2))
        on_i3, on_i6 = lat.steps_on(e, B - e), lat.steps_on(B, q)
        want_i3 = set(news[:-1])
        # the central band carries every intermediate new slope; the inherited
        # down-slope may appear there too, but the level-k new slope must not
        if not (want_i3 <= on_i3 <= want_i3 | {neg}):
            return Certificate("fail", witness={
                "kind": "slope-set", "where": "I3", "required": census(nums[1:-1]),
                "actual": slopes(on_i3)}, checked_count=checked)
        if on_i6 != {neg}:
            return Certificate("fail", witness={
                "kind": "slope-set", "where": "I6",
                "actual": slopes(on_i6)}, checked_count=checked)
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
