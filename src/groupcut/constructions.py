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
    I3, which later levels leave alone, so one pass suffices.

    The levels follow a recurrence from eps_2 = b: level j sets
    eps_j = eps_{j-1}/8, doubles 2^(j-2) and quarters 4^(2-j), and its new
    slope is s_j = (2^(j-2) - b) / (b - b^2), as `new_slope` gives it.  The
    points it adds are

        (eps_j, s_j eps_j),
        (2 eps_j, (4^(2-j) - 2 eps_j) / (1 - b)),
        (b - 2 eps_j, (1 - 4^(2-j) - (b - 2 eps_j)) / (1 - b)),
        (b - eps_j, (1 - 2^(j-2)) / (1 - b) + s_j (b - eps_j)),

    the ends of I2 and I4 of `interval_system(j, b)`.  Since
    2 eps_j < eps_{j-1}, listing the I2 points of the levels from k down to
    3 and the I4 points from 3 up to k gives them in ascending order.  They
    are canonical as listed: the piece slopes alternate between some
    s_j > 0 (2^(j-2) >= 1 > b) and -1/(1 - b), the wrap included, so no two
    adjacent pieces merge.  From 0 they run s_k, -1/(1 - b), ..., s_3,
    -1/(1 - b), then 1/b = s_2 on I3 of level 3, then -1/(1 - b), s_3, ...,
    -1/(1 - b), s_k and -1/(1 - b) on [b, 1].

    The points are built on ints.  With b = p/r, N = 8^(k-2),
    E_j = 8^(k-j), T_j = 2^(j-2) and F_j = 4^(k-j) 2^(k-2), the recurrence
    unrolls to eps_j = p E_j / (r N), 4^(2-j) = F_j / N (as
    4^(k-2) 2^(k-2) = N) and 1 - b = (r - p)/r, while
    s_j = (T_j r - p) r / (p (r - p)).  Over rN the breakpoints are
    2p E_j, p E_j, pN - 2p E_j, pN - p E_j and, for b, pN.  Multiplying
    each value above by (r - p) N gives, in the same order,

        r F_j - 2p E_j,
        (T_j r - p) E_j,
        (r - p) N - r F_j + 2p E_j,
        (1 - T_j) r N + (T_j r - p)(N - E_j),

    and (r - p) N for f(b) = 1: the third is (r - p) N minus the first, as
    the third value is 1 minus the first, and in the fourth
    s_j (b - eps_j) (r - p) N = (T_j r - p)(N - E_j).  Along the levels
    E_j falls by 8, T_j doubles and F_j falls by 4, all exactly."""
    b = rat(b)
    if k < 2:
        raise DomainError(f"k must be >= 2, got {k}")
    if not (0 < b <= Fraction(1, 2)):
        raise DomainError(f"b must lie in (0, 1/2], got {b}")
    p, r = b.numerator, b.denominator
    N = E = F = 8 ** (k - 2)
    rN, pN, mN = r * N, p * N, (r - p) * N
    T = 1
    lows, highs = [], []
    for _ in range(3, k + 1):
        E //= 8
        T *= 2
        F //= 4
        pE, rF, up = p * E, r * F, T * r - p
        lows += [(2 * pE, rF - 2 * pE), (pE, up * E)]
        highs += [(pN - 2 * pE, mN - rF + 2 * pE), (pN - pE, (1 - T) * rN + up * (N - E))]
    points = [(0, 0), *reversed(lows), *highs, (pN, mN)]
    return PeriodicPWL._of_ints(rN, [t for t, _ in points], mN, [v for _, v in points])


def pi_k_reflected(k: int, b) -> PeriodicPWL:
    """The k-slope function for b in [1/2, 1), obtained by reflection."""
    b = rat(b)
    if not (Fraction(1, 2) <= b < 1):
        raise DomainError(f"b must lie in [1/2, 1), got {b}")
    return pi_k(k, 1 - b).reflect()


def _limit_point(x, b) -> tuple:
    x, b = rat(x) % 1, rat(b)
    if not (0 < b <= Fraction(1, 2)):
        raise DomainError(f"b must lie in (0, 1/2], got {b}")
    return x, b


def _level(y: Fraction, b: Fraction) -> int:
    """Least n >= 3 with 2 eps_n = 2b 8^(2-n) <= y, for 0 < y <= b/2: the
    least n with 8^(n-2) >= t = ceil(2b / y), and t >= 4 makes n >= 3."""
    t = -(-2 * b.numerator * y.denominator // (b.denominator * y.numerator))
    return 2 + ((t - 1).bit_length() + 2) // 3


def stabilization_index(x, b) -> int:
    """Least N >= 3 at which the value of the level-k function at x has
    stabilized, i.e. x lies in I^N_3 or I^N_6: 3 right of b, else the least
    N with 2 eps_N <= min(x, b - x)."""
    x, b = _limit_point(x, b)
    if x == 0 or x == b:
        raise DomainError(f"x = {x} is a special point of the limit function")
    return 3 if x > b else _level(min(x, b - x), b)


def pi_infinity_value(x, b) -> Fraction:
    """Exact pointwise value of the infinite-slope limit function, read off
    the two points of pi_N around x (N the stabilization index):
    - right of b every level is (1 - x) / (1 - b);
    - pi_N(x) + pi_N(b - x) = 1, and x and b - x stabilize together;
    - for x <= b/2, pi_N is s_(N-1) x on [2 eps_N, eps_(N-1)] (x / b at
      N = 3) and (4^(3-N) - x) / (1 - b) on [eps_(N-1), 2 eps_(N-1)]."""
    x, b = _limit_point(x, b)
    if x == 0:
        return Fraction(0)
    if x == b:
        return Fraction(1)
    if x > b:
        return (1 - x) / (1 - b)
    y = min(x, b - x)
    n = _level(y, b)
    if y <= b / 8 ** (n - 3):
        value = new_slope(n - 1, b) * y
    else:
        value = (Fraction(1, 4 ** (n - 3)) - y) / (1 - b)
    return value if y == x else 1 - value


def truncation_bound(K: int, b: Fraction) -> Fraction:
    """The paper's bound on sup |pi_inf - pi_K|.  pi_(j+1) - pi_j is 0 off
    [0, 2 eps_(j+1)] and [b - 2 eps_(j+1), b] and peaks at eps_(j+1) with
    (s_(j+1) - s_j) eps_(j+1) = 2^(1-2j) / (1 - b), so the sup gap telescopes
    to at most 2^(3-2K) / (3 (1 - b)), which is below this bound for K >= 2."""
    return Fraction(2) ** (4 - 3 * K) * (Fraction(2) ** K - 4 * b) / (1 - b)
