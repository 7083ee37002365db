"""Exact continuous piecewise-linear functions on R, periodic modulo Z.

Functions are stored by (breakpoint, value) pairs on [0, 1), with 0 always
present, so continuity is structural.  All arithmetic is over
``fractions.Fraction``; no floats enter any computation here.
"""
from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import DomainError, FormatError


def rat(x) -> Fraction:
    """Parse an exact rational from an int, Fraction, or "p/q" string.

    Booleans are rejected: JSON ``true`` is not the number 1.

    Decimal strings (anything containing '.') are rejected: a decimal on a
    boundary would silently contaminate exact computations.

    A string of ASCII digits, with an optional leading '-' and an optional
    '/digits', is read by int() without Fraction's regular expression;
    every other string goes through Fraction(str).
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        num, slash, den = x.partition("/")
        if (x.isascii() and num.removeprefix("-").isdigit()
                and (den.isdigit() or not slash)):
            try:
                return Fraction(int(num), int(den or 1))
            except (ValueError, ZeroDivisionError) as exc:
                raise FormatError(f"not a rational: {x!r}") from exc
        if "." in x or "e" in x.lower():
            raise FormatError(f"expected exact rational 'p/q', got {x!r}")
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise FormatError(f"not a rational: {x!r}") from exc
    raise FormatError(f"cannot interpret {type(x).__name__} as exact rational")


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
    ``values[0]`` at abscissa 1.  Both are read through `rat`: an int
    becomes a Fraction, and a float or bool raises FormatError.
    ``__init__`` is the only validator of a function: 0 first, strict
    increase and a last breakpoint below 1 put every breakpoint in [0, 1).

    Each piece's slope is computed on first use and kept in a private slot,
    so an object computes it at most once.
    """

    __slots__ = ("breakpoints", "values", "_slopes")

    def __init__(self, breakpoints, values):
        bps = tuple(map(rat, breakpoints))
        vals = tuple(map(rat, values))
        if len(bps) == 0 or len(bps) != len(vals):
            raise FormatError("breakpoints/values must be nonempty and equal length")
        if bps[0] != 0:
            raise FormatError("breakpoint 0 must be present (and first)")
        for i in range(1, len(bps)):
            if bps[i] <= bps[i - 1]:
                raise FormatError("breakpoints must be strictly increasing")
        if bps[-1] >= 1:
            raise FormatError(f"breakpoint {bps[-1]} outside [0, 1)")
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "_slopes", [None] * len(bps))

    def __setattr__(self, *a):  # immutable value type
        raise AttributeError("PeriodicPWL is immutable")

    # -- construction -----------------------------------------------------

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

        A kept piece's slope is that of every piece merged into it, so the
        result starts with all its slopes known."""
        slopes = self._piece_slopes()
        keep = [0] + [i for i in range(1, len(slopes))
                      if slopes[i - 1] != slopes[i]]
        return PeriodicPWL._with_slopes([self.breakpoints[i] for i in keep],
                                        [self.values[i] for i in keep],
                                        [slopes[i] for i in keep])

    @classmethod
    def _with_slopes(cls, breakpoints, values, slopes: list) -> "PeriodicPWL":
        """The function with these points whose piece slopes are `slopes`,
        by index; the caller has proved them, and nothing checks them."""
        out = cls(breakpoints, values)
        object.__setattr__(out, "_slopes", slopes)
        return out

    # -- evaluation -------------------------------------------------------

    def piece_slope(self, i: int) -> Fraction:
        """Slope on piece [t_i, t_{i+1}] (the last piece wraps to 1), for i
        in range(n); any other index raises IndexError."""
        memo = self._slopes
        if not 0 <= i < len(memo):
            raise IndexError(f"piece {i} outside range({len(memo)})")
        s = memo[i]
        if s is None:
            bps, vals = self.breakpoints, self.values
            if i == len(bps) - 1:
                s = (vals[0] - vals[-1]) / (1 - bps[-1])
            else:
                s = (vals[i + 1] - vals[i]) / (bps[i + 1] - bps[i])
            memo[i] = s
        return s

    def _piece_slopes(self) -> list:
        """Every piece's slope by index: the object's own list, not a copy."""
        memo = self._slopes
        for i, s in enumerate(memo):
            if s is None:
                self.piece_slope(i)
        return memo

    def eval(self, x) -> Fraction:
        x = rat(x) % 1
        i = bisect_right(self.breakpoints, x) - 1
        t = self.breakpoints[i]
        if x == t:
            return self.values[i]
        return self.values[i] + self.piece_slope(i) * (x - t)

    __call__ = eval

    def delta(self, x, y) -> Fraction:
        """Subadditivity slack f(x) + f(y) - f(x+y)."""
        x, y = rat(x), rat(y)
        return self.eval(x) + self.eval(y) - self.eval(x + y)

    def slopes(self) -> frozenset:
        return frozenset(self._piece_slopes())

    # -- algebra ----------------------------------------------------------

    def reflect(self) -> "PeriodicPWL":
        """The function x -> f(-x), again continuous periodic PWL."""
        return PeriodicPWL.from_points(
            ((-t) % 1, v) for t, v in zip(self.breakpoints, self.values))

    def refine_to(self, breakpoints) -> "PeriodicPWL":
        """Re-express over a superset of the breakpoints (not canonicalized)."""
        bps = sorted(set(self.breakpoints) | {rat(t) % 1 for t in breakpoints})
        return PeriodicPWL(bps, [self.eval(t) for t in bps])

    # -- equality / hashing ----------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, PeriodicPWL):
            return NotImplemented
        a, b = self.canonical(), other.canonical()
        return a.breakpoints == b.breakpoints and a.values == b.values

    def __hash__(self):
        c = self.canonical()
        return hash((c.breakpoints, c.values))

    def __repr__(self):
        pts = ", ".join(f"({t}, {v})" for t, v in zip(self.breakpoints, self.values))
        return f"PeriodicPWL[{pts}]"

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "breakpoints": [rat_str(t) for t in self.breakpoints],
            "values": [rat_str(v) for v in self.values],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    @classmethod
    def from_dict(cls, d: dict) -> "PeriodicPWL":
        """Check the JSON shape; `__init__` validates the function."""
        if not isinstance(d, dict) or set(d) != {"breakpoints", "values"}:
            raise FormatError("expected object with 'breakpoints' and 'values'")
        if not (isinstance(d["breakpoints"], list) and isinstance(d["values"], list)):
            raise FormatError("'breakpoints' and 'values' must be JSON lists")
        return cls(d["breakpoints"], d["values"])

    @classmethod
    def from_json(cls, text: str) -> "PeriodicPWL":
        try:
            d = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FormatError(f"invalid JSON: {exc}") from exc
        return cls.from_dict(d)


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
