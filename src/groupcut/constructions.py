"""The concrete function families: GMI, the recursive k-slope family, the
infinite-slope limit's truncations, and the six defining intervals."""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError
from .pwl import Interval, PeriodicPWL, rat

def gmi(b) -> PeriodicPWL:
    """The classical two-slope mixed-integer function for right-hand side b.

    Slope 1/b on [0, b], slope -1/(1-b) on [b, 1]; value 1 at b.
    """
    b = rat(b)
    if not (0 < b < 1):
        raise DomainError(f"b must lie in (0, 1), got {b}")
    return PeriodicPWL.from_points([(0, 0), (b, 1)])


@dataclass(frozen=True)
class IntervalSystem:
    """The six intervals that structure level k of the recursive construction."""

    k: int
    b: Fraction
    i1: Interval
    i2: Interval
    i3: Interval
    i4: Interval
    i5: Interval
    i6: Interval

    @property
    def intervals(self):
        return (self.i1, self.i2, self.i3, self.i4, self.i5, self.i6)

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "b": str(self.b),
            "intervals": [iv.to_pair() for iv in self.intervals],
        }


def interval_system(k: int, b) -> IntervalSystem:
    b = rat(b)
    if k < 3:
        raise DomainError(f"k must be >= 3, got {k}")
    if not (0 < b <= Fraction(1, 2)):
        raise DomainError(f"b must lie in (0, 1/2], got {b}")
    eps = b / 8 ** (k - 2)
    return IntervalSystem(
        k=k, b=b,
        i1=Interval(Fraction(0), eps),
        i2=Interval(eps, 2 * eps),
        i3=Interval(2 * eps, b - 2 * eps),
        i4=Interval(b - 2 * eps, b - eps),
        i5=Interval(b - eps, b),
        i6=Interval(b, Fraction(1)),
    )


def new_slope(k: int, b: Fraction) -> Fraction:
    """The positive slope introduced at level k: (2^(k-2) - b) / (b - b^2)."""
    return (Fraction(2) ** (k - 2) - b) / (b - b * b)


def pi_k(k: int, b) -> PeriodicPWL:
    """The k-slope minimal valid function: the GMI's points plus the four
    points eps_j, 2 eps_j, b - 2 eps_j, b - eps_j that each level j = 3..k
    of the recursion adds.  They lie strictly inside every later level's
    I3, which later levels leave alone, so one pass suffices."""
    b = rat(b)
    if k < 2:
        raise DomainError(f"k must be >= 2, got {k}")
    if not (0 < b <= Fraction(1, 2)):
        raise DomainError(f"b must lie in (0, 1/2], got {b}")
    pts = [(Fraction(0), Fraction(0)), (b, Fraction(1))]
    for j in range(3, k + 1):
        s = interval_system(j, b)
        slope, four_pow = new_slope(j, b), Fraction(4) ** (2 - j)
        pts += [
            (s.i2.lo, slope * s.i2.lo),
            (s.i2.hi, (four_pow - s.i2.hi) / (1 - b)),
            (s.i4.lo, (1 - four_pow - s.i4.lo) / (1 - b)),
            (s.i4.hi, (1 - Fraction(2) ** (j - 2)) / (1 - b) + slope * s.i4.hi),
        ]
    return PeriodicPWL.from_points(pts)


def pi_k_reflected(k: int, b) -> PeriodicPWL:
    """The k-slope function for b in [1/2, 1), obtained by reflection."""
    b = rat(b)
    if not (Fraction(1, 2) <= b < 1):
        raise DomainError(f"b must lie in [1/2, 1), got {b}")
    return pi_k(k, 1 - b).reflect()


def stabilization_index(x, b) -> int:
    """Least N >= 3 at which the value of the level-k function at x has
    stabilized, i.e. x lies in I^N_3 or I^N_6."""
    x, b = rat(x) % 1, rat(b)
    if not (0 < b <= Fraction(1, 2)):
        raise DomainError(f"b must lie in (0, 1/2], got {b}")
    if x == 0 or x == b:
        raise DomainError(f"x = {x} is a special point of the limit function")
    if x > b:
        return 3
    n = 3
    while not interval_system(n, b).i3.contains(x):
        n += 1
    return n


def pi_infinity_value(x, b) -> Fraction:
    """Exact pointwise value of the infinite-slope limit function."""
    x, b = rat(x) % 1, rat(b)
    if x == 0:
        return Fraction(0)
    if x == b:
        return Fraction(1)
    n = stabilization_index(x, b)
    return pi_k(n, b).eval(x)


@dataclass(frozen=True)
class PiInfinityTruncation:
    """A finite truncation of the limit function, with a uniform error bound."""

    fn: PeriodicPWL
    K: int
    sup_error_bound: Fraction


def truncation_bound(K: int, b: Fraction) -> Fraction:
    return Fraction(2) ** (4 - 3 * K) * (Fraction(2) ** K - 4 * b) / (1 - b)


def pi_infinity_truncation(b, K: int) -> PiInfinityTruncation:
    """Level-K truncation; the limit differs from it by at most the bound,
    uniformly."""
    b = rat(b)
    if K < 2:
        raise DomainError(f"K must be >= 2, got {K}")
    fn = pi_k(K, b)
    return PiInfinityTruncation(fn=fn, K=K, sup_error_bound=truncation_bound(K, b))
