"""Exact continuous piecewise-linear functions on R, periodic modulo Z.

Functions are stored by (breakpoint, value) pairs on [0, 1), with 0 always
present, so continuity is structural.  A function is held as integers:
breakpoint numerators over one denominator and value numerators over
another, which is what the exact checks and `eval` read; the
`fractions.Fraction` views are made on each read.  No floats enter any
computation here.
"""
from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import DomainError, FormatError


def _digits(x: str):
    """The ints (n, d) of ASCII text '-?digits' or '-?digits/digits', not
    reduced, read by int() without Fraction's regular expression; None for
    any other text.  A zero denominator, or a number past int()'s digit
    limit, raises FormatError."""
    num, slash, den = x.partition("/")
    if not (x.isascii() and num.removeprefix("-").isdigit()
            and (den.isdigit() or not slash)):
        return None
    try:
        n, d = int(num), int(den or 1)
    except ValueError as exc:       # past the int-to-str digit limit
        raise FormatError(f"not a rational: {x!r}") from exc
    if d == 0:
        raise FormatError(f"not a rational: {x!r}")
    return n, d


def rat(x) -> Fraction:
    """Parse an exact rational from an int, Fraction, or "p/q" string.

    Booleans are rejected: JSON ``true`` is not the number 1.

    Decimal strings (anything containing '.') are rejected: a decimal on a
    boundary would silently contaminate exact computations.

    A string of ASCII digits, with an optional leading '-' and an optional
    '/digits', is read by `_digits`; every other string goes through
    Fraction(str).
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        nd = _digits(x)
        if nd is not None:
            return Fraction(*nd)
        if "." in x or "e" in x.lower():
            raise FormatError(f"expected exact rational 'p/q', got {x!r}")
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise FormatError(f"not a rational: {x!r}") from exc
    raise FormatError(f"cannot interpret {type(x).__name__} as exact rational")


def _pair(x) -> tuple:
    """rat(x) as ints (n, d) in lowest terms, d > 0, with no Fraction made
    for text that `_digits` reads; anything else goes through `rat`, so
    every error is rat's."""
    nd = _digits(x) if isinstance(x, str) else None
    if nd is None:
        x = rat(x)
        return x.numerator, x.denominator
    n, d = nd
    g = math.gcd(n, d)
    return n // g, d // g


def _texts(nums, den: int) -> list:
    """str(Fraction(n, den)) for each int n, den > 0."""
    out = []
    for n in nums:
        g = math.gcd(n, den)
        out.append(str(n // g) if g == den else f"{n // g}/{den // g}")
    return out


def rat_str(q: Fraction) -> str:
    return str(q)


@dataclass(frozen=True, order=True)
class Interval:
    """A closed interval [lo, hi] with rational endpoints, lo <= hi."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise DomainError(f"interval endpoints out of order: [{self.lo}, {self.hi}]")

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo

    @property
    def degenerate(self) -> bool:
        return self.lo == self.hi

    def contains(self, x: Fraction) -> bool:
        return self.lo <= x <= self.hi

    def contains_interval(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def to_pair(self) -> list:
        return [rat_str(self.lo), rat_str(self.hi)]


class PeriodicPWL:
    """A continuous piecewise-linear function R -> R, periodic modulo Z.

    ``breakpoints`` is a strictly increasing tuple of rationals in [0, 1)
    starting with 0; ``values`` the corresponding function values.  The last
    piece wraps: on [breakpoints[-1], 1] the function runs linearly to
    ``values[0]`` at abscissa 1.  Both are read through `_pair`: an int,
    a Fraction or "p/q" text is exact, and a float or bool raises
    FormatError.  ``__init__`` is the only validator of a function: 0
    first, strict increase and a last breakpoint below 1 put every
    breakpoint in [0, 1).

    The function is its ints: breakpoint i is P[i]/q and value i is W[i]/D,
    with q and D the lcm of the reduced denominators of the breakpoints and
    of the values, which fixes the four for given points.  Everything else
    is computed from them on each call: ``breakpoints`` and ``values`` are
    tuples of Fractions made on each read, and nothing is cached.
    """

    __slots__ = ("q", "P", "D", "W")

    def __init__(self, breakpoints, values):
        bps = [_pair(t) for t in breakpoints]
        vals = [_pair(v) for v in values]
        if len(bps) == 0 or len(bps) != len(vals):
            raise FormatError("breakpoints/values must be nonempty and equal length")
        q = math.lcm(*(d for _, d in bps))
        P = tuple([n * (q // d) for n, d in bps])
        if P[0] != 0:
            raise FormatError("breakpoint 0 must be present (and first)")
        for i in range(1, len(P)):
            if P[i] <= P[i - 1]:
                raise FormatError("breakpoints must be strictly increasing")
        if P[-1] >= q:
            raise FormatError(f"breakpoint {Fraction(*bps[-1])} outside [0, 1)")
        D = math.lcm(*(d for _, d in vals))
        self._set(q, P, D, tuple([n * (D // d) for n, d in vals]))

    def _set(self, q, P: tuple, D, W: tuple):
        for name, v in zip(self.__slots__, (q, P, D, W)):
            object.__setattr__(self, name, v)

    def __setattr__(self, *a):  # immutable value type
        raise AttributeError("PeriodicPWL is immutable")

    # -- construction -----------------------------------------------------

    @classmethod
    def _of_ints(cls, q: int, P, D: int, W) -> "PeriodicPWL":
        """The function with breakpoints P[i]/q and values W[i]/D, for ints
        q, D > 0 and P increasing from 0 and below q, which nothing checks.
        Each list and its denominator are divided by their gcd, so q and D
        come out the lcm of the reduced denominators, as `__init__` makes
        them."""
        g, h = math.gcd(q, *P), math.gcd(D, *W)
        out = cls.__new__(cls)
        out._set(q // g, tuple([p // g for p in P]), D // h, tuple([w // h for w in W]))
        return out

    @classmethod
    def from_points(cls, points: Iterable[tuple]) -> "PeriodicPWL":
        """Build from (x, value) pairs; x is normalized mod 1.

        Duplicate abscissae must carry equal values.  The result is put in
        canonical form (collinear interior breakpoints merged).
        """
        seen = {}
        for x, v in points:
            x = rat(x) % 1
            v = rat(v)
            if x in seen and seen[x] != v:
                raise DomainError(f"conflicting values at breakpoint {x}")
            seen[x] = v
        bps = sorted(seen)
        return cls(bps, [seen[t] for t in bps]).canonical()

    def canonical(self) -> "PeriodicPWL":
        """Merge adjacent pieces of equal slope; breakpoint 0 is always kept.

        Piece i rises dW_i over a run dP_i in the stored ints, so pieces
        i - 1 and i have equal slopes iff dW_(i-1)*dP_i = dW_i*dP_(i-1).
        A function with no such pair is its own canonical form."""
        P, W = self.P, self.W
        dP = [b - a for a, b in zip(P, (*P[1:], self.q))]
        dW = [b - a for a, b in zip(W, (*W[1:], W[0]))]
        keep = [0] + [i for i in range(1, len(P))
                      if dW[i - 1] * dP[i] != dW[i] * dP[i - 1]]
        if len(keep) == len(P):
            return self
        return PeriodicPWL._of_ints(self.q, [P[i] for i in keep], self.D,
                                    [W[i] for i in keep])

    # -- evaluation -------------------------------------------------------

    @property
    def breakpoints(self) -> tuple:
        q = self.q
        return tuple([Fraction(p, q) for p in self.P])

    @property
    def values(self) -> tuple:
        D = self.D
        return tuple([Fraction(w, D) for w in self.W])

    def _piece(self, i: int) -> tuple:
        """Piece i's start P_i, its value W_i there, its run dP_i and its
        rise dW_i, in the stored ints; the last piece ends at (q, W_0)."""
        P, W = self.P, self.W
        p, w, j = P[i], W[i], i + 1
        if j == len(P):
            return p, w, self.q - p, W[0] - w
        return p, w, P[j] - p, W[j] - w

    def piece_slope(self, i: int) -> Fraction:
        """Slope on piece [t_i, t_{i+1}] (the last piece wraps to 1), for i
        in range(n); any other index raises IndexError.  The piece rises
        dW_i/D over a run dP_i/q, so the slope is dW_i q / (D dP_i)."""
        if not 0 <= i < len(self.P):
            raise IndexError(f"piece {i} outside range({len(self.P)})")
        _, _, dp, dw = self._piece(i)
        return Fraction(dw * self.q, self.D * dp)

    def eval(self, x) -> Fraction:
        """f(x) for any exact rational x, from the stored ints.

        With x mod 1 = n/d, n = x's numerator mod d, the abscissa is
        n q / d in numerators over q, and it lies on the piece j with
        P_j <= n q / d < P_(j+1), that is P_j <= floor(n q / d) < P_(j+1)
        since the P are ints: j = bisect_right(P, n q // d) - 1.  On piece j
        f rises dW_j/D over the run dP_j/q, so

            f(x) = W_j/D + (dW_j q / (D dP_j)) (n/d - P_j/q)
                 = (W_j dP_j d + dW_j (n q - P_j d)) / (D dP_j d),

        which is made as one Fraction.  It reads only this function's own
        ints, so an oracle that evaluates f here shares no code with the
        lattice of `verification`."""
        n, d = _pair(x)
        n %= d
        q = self.q
        p, w, dp, dw = self._piece(bisect_right(self.P, n * q // d) - 1)
        return Fraction(w * dp * d + dw * (n * q - p * d), self.D * dp * d)

    __call__ = eval

    def delta(self, x, y) -> Fraction:
        """Subadditivity slack f(x) + f(y) - f(x+y)."""
        x, y = rat(x), rat(y)
        return self.eval(x) + self.eval(y) - self.eval(x + y)

    def slopes(self) -> frozenset:
        """The distinct piece slopes: each dW_i q / (D dP_i) is reduced by
        one gcd, and one Fraction is made per distinct pair."""
        q, D, pairs = self.q, self.D, set()
        for i in range(len(self.P)):
            _, _, dp, dw = self._piece(i)
            n, m = dw * q, D * dp
            g = math.gcd(n, m)
            pairs.add((n // g, m // g))
        return frozenset([Fraction(n, m) for n, m in pairs])

    # -- algebra ----------------------------------------------------------

    def reflect(self) -> "PeriodicPWL":
        """The function x -> f(-x), again continuous periodic PWL, in
        canonical form: breakpoint P/q goes to ((q - P) mod q)/q."""
        q = self.q
        pts = sorted(((q - p) % q, w) for p, w in zip(self.P, self.W))
        return PeriodicPWL._of_ints(q, [p for p, _ in pts], self.D,
                                    [w for _, w in pts]).canonical()

    def refine_to(self, breakpoints) -> "PeriodicPWL":
        """Re-express over a superset of the breakpoints (not canonicalized)."""
        bps = sorted(set(self.breakpoints) | {rat(t) % 1 for t in breakpoints})
        return PeriodicPWL(bps, [self.eval(t) for t in bps])

    # -- equality / hashing ----------------------------------------------

    def _key(self) -> tuple:
        c = self.canonical()
        return c.q, c.P, c.D, c.W

    def __eq__(self, other):
        if not isinstance(other, PeriodicPWL):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        pts = ", ".join(f"({t}, {v})" for t, v in zip(self.breakpoints, self.values))
        return f"PeriodicPWL[{pts}]"

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        return {"breakpoints": _texts(self.P, self.q), "values": _texts(self.W, self.D)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    @classmethod
    def from_dict(cls, d: dict) -> "PeriodicPWL":
        """Check the JSON shape; `__init__` validates the function."""
        return cls(*_lists(d))

    @classmethod
    def from_json(cls, text: str) -> "PeriodicPWL":
        try:
            d = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FormatError(f"invalid JSON: {exc}") from exc
        return cls.from_dict(d)


def _lists(d) -> tuple:
    """The breakpoint and value lists of a function's JSON object, or
    FormatError for any other shape."""
    if not isinstance(d, dict) or set(d) != {"breakpoints", "values"}:
        raise FormatError("expected object with 'breakpoints' and 'values'")
    if not (isinstance(d["breakpoints"], list) and isinstance(d["values"], list)):
        raise FormatError("'breakpoints' and 'values' must be JSON lists")
    return d["breakpoints"], d["values"]


def common_refinement(f: PeriodicPWL, g: PeriodicPWL):
    """Re-express both functions over the union of their breakpoint sets."""
    union = sorted(set(f.breakpoints) | set(g.breakpoints))
    return f.refine_to(union), g.refine_to(union)


def linear_combine(c1, f: PeriodicPWL, c2, g: PeriodicPWL) -> PeriodicPWL:
    """c1*f + c2*g, exact, in canonical form."""
    c1, c2 = rat(c1), rat(c2)
    rf, rg = common_refinement(f, g)
    vals = [c1 * a + c2 * b for a, b in zip(rf.values, rg.values)]
    return PeriodicPWL(rf.breakpoints, vals).canonical()


def pieces_in(points, period, lo, hi):
    """Yield (j, a, c), ascending, for each piece j = [points[j],
    points[j + 1]] (the last one ending at the period), shifted by a
    multiple of the period, that meets (lo, hi), clipped: lo <= a < c <= hi.
    `points` is sorted in [0, period) and starts with 0 (breakpoints with
    period 1, or int numerators with period q); lo and hi are ints or exact
    rationals anywhere on the line, and lo >= hi yields nothing."""
    m, r = divmod(lo, period)
    j, base, n = bisect_right(points, r) - 1, m * period, len(points)
    a = lo
    while a < hi:
        k = j + 1
        c = base + (points[k] if k < n else period)
        if c > hi:
            c = hi
        yield j, a, c
        a, j = c, k
        if j == n:
            j, base = 0, base + period
