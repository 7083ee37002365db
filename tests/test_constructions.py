import functools
import random
from fractions import Fraction as F
from itertools import islice

import pytest

from groupcut import (DomainError, FormatError, PeriodicPWL, constructions,
                      gmi, interval_system, new_slope, pi_infinity_value, pi_k,
                      pi_k_reflected, truncation_bound)
from conftest import formula_slope
from oracles import common_refinement


def test_gmi_shape_and_values():
    g = gmi(F(1, 2))
    assert g.breakpoints == (F(0), F(1, 2))
    assert g.eval(F(1, 4)) == F(1, 2)
    assert g.eval(F(1, 2)) == 1
    assert g.eval(F(3, 4)) == F(1, 2)
    assert g.slopes() == frozenset({F(2), F(-2)})
    g3 = gmi(F(1, 3))
    assert g3.slopes() == frozenset({F(3), F(-3, 2)})


@pytest.mark.parametrize("b", [F(0), F(1), F(3, 2), F(-1, 4)])
def test_gmi_domain(b):
    with pytest.raises(DomainError):
        gmi(b)


def test_interval_system_partitions_the_period():
    s = interval_system(3, F(1, 2))
    eps = F(1, 2) * F(1, 8)
    assert s.i1.to_pair() == ["0", "1/16"]
    assert s.i2.hi == 2 * eps
    assert s.i3.to_pair() == ["1/8", "3/8"]
    assert s.i5.hi == F(1, 2)
    assert s.i6.to_pair() == ["1/2", "1"]
    # consecutive intervals share endpoints and cover [0, 1]
    ivs = s.intervals
    for a, b in zip(ivs, ivs[1:]):
        assert a.hi == b.lo
    assert ivs[0].lo == 0 and ivs[-1].hi == 1


def test_interval_system_domain():
    with pytest.raises(DomainError):
        interval_system(2, F(1, 2))
    with pytest.raises(DomainError):
        interval_system(3, F(2, 3))


def test_pi_2_is_the_base_function():
    assert pi_k(2, F(1, 2)) == gmi(F(1, 2))
    assert pi_k(2, F(1, 3)) == gmi(F(1, 3))


def test_pi_3_values_at_half():
    p = pi_k(3, F(1, 2))
    assert p.eval(F(1, 16)) == F(3, 8)
    assert p.eval(F(1, 8)) == F(1, 4)
    assert p.eval(F(1, 2)) == 1
    assert p.eval(F(7, 16)) == F(5, 8)       # symmetry: 1 - value at 1/16


def test_pi_4_slopes():
    p = pi_k(4, F(1, 2))
    assert p.slopes() == frozenset({F(-2), F(2), F(6), F(14)})


def _pi_k_closed_form(k, b):
    """pi_k's points from each level's interval system and new slope."""
    pts = [(F(0), F(0)), (b, F(1))]
    for j in range(3, k + 1):
        s, slope, four_pow = interval_system(j, b), new_slope(j, b), F(4) ** (2 - j)
        pts += [(s.i2.lo, slope * s.i2.lo),
                (s.i2.hi, (four_pow - s.i2.hi) / (1 - b)),
                (s.i4.lo, (1 - four_pow - s.i4.lo) / (1 - b)),
                (s.i4.hi, (1 - F(2) ** (j - 2)) / (1 - b) + slope * s.i4.hi)]
    return PeriodicPWL.from_points(pts)


@pytest.mark.parametrize("b", [F(1, 2), F(1, 3), F(2, 5), F(1, 4), F(3, 7),
                               F(1, 10), F(1, 7), F(5, 11)])
def test_pi_k_recurrence_matches_the_closed_form(b):
    for k in range(2, 25):
        assert pi_k(k, b).to_dict() == _pi_k_closed_form(k, b).to_dict(), k


def test_new_slope_formula():
    assert new_slope(2, F(1, 2)) == F(2)
    assert new_slope(4, F(1, 2)) == F(14)
    assert new_slope(3, F(1, 3)) == (2 - F(1, 3)) / (F(1, 3) - F(1, 9))


def test_pi_k_agrees_with_predecessor_on_central_band():
    for k in (3, 4, 5):
        for b in (F(1, 3), F(1, 2)):
            cur, prev = pi_k(k, b), pi_k(k - 1, b)
            s = interval_system(k, b)
            for box in (s.i3, s.i6):
                for t in (box.lo, box.midpoint, box.hi):
                    assert cur.eval(t % 1) == prev.eval(t % 1)


def _levels(b):
    """pi_2, pi_3, ... by the paper's recursion, written out: level j puts
    new points on the outer intervals I1, I2, I4, I5 and copies the previous
    level's breakpoints on I3 and I6."""
    f = PeriodicPWL.from_points([(0, 0), (b, 1)])
    j = 2
    while True:
        yield f
        j += 1
        eps = b / 8 ** (j - 2)
        s = (F(2) ** (j - 2) - b) / (b - b * b)
        pts = {
            F(0): F(0),
            eps: s * eps,
            2 * eps: F(4) ** (2 - j) / (1 - b) - 2 * eps / (1 - b),
            b - 2 * eps: (1 - F(4) ** (2 - j)) / (1 - b) - (b - 2 * eps) / (1 - b),
            b - eps: (1 - F(2) ** (j - 2)) / (1 - b) + s * (b - eps),
            b: F(1),
        }
        for t, v in zip(f.breakpoints, f.values):
            if 2 * eps < t < b - 2 * eps or t > b:
                pts[t] = v
        f = PeriodicPWL.from_points(pts.items())


PI_K_B = [F(1, 2), F(1, 3), F(2, 5), F(1, 4), F(3, 7), F(1, 10), F(1, 7), F(5, 11)]


def test_pi_k_matches_the_level_recursion():
    for b in PI_K_B:
        for k, ref in zip(range(2, 21), _levels(b)):
            f = pi_k(k, b)
            assert (f.breakpoints, f.values) == (ref.breakpoints, ref.values), (k, b)
            if k <= 12:
                g, r = pi_k_reflected(k, 1 - b), ref.reflect()
                assert (g.breakpoints, g.values) == (r.breakpoints, r.values), (k, b)
    rng = random.Random(6)
    levels = set()
    for b in PI_K_B:
        ref = next(islice(_levels(b), 8, None))   # pi_10
        for _ in range(25):
            n = rng.randint(3, 8)
            # 2 eps_n <= x < 2 eps_(n-1) stabilizes exactly at level n
            x = 2 * b / 8 ** (n - 2) * (1 + F(7 * rng.randint(0, 63), 64))
            if n == 3 or rng.random() < 0.2:
                x = F(rng.randint(1, 999), 1000)
            if x in (0, b):
                continue
            levels.add(_reference_level(x, b))
            assert pi_infinity_value(x, b) == ref.eval(x), (x, b)
    assert levels >= set(range(3, 9))


def test_pi_k_is_canonical_as_built():
    # pi_k hands its points to PeriodicPWL without canonical()
    for b in (F(1, 2), F(1, 3), F(2, 5), F(1, 97)):
        for k in range(2, 65):
            f = pi_k(k, b)
            c = f.canonical()
            assert (c.breakpoints, c.values) == (f.breakpoints, f.values), (k, b)


def test_pi_k_piece_slopes_follow_its_docstring():
    # from 0: s_k, -1/(1-b), ..., s_3, -1/(1-b), 1/b, -1/(1-b), s_3, ...,
    # s_k, -1/(1-b), as pi_k's docstring lists them
    for b in (F(1, 2), F(1, 3), F(2, 5), F(1, 97)):
        neg = -1 / (1 - b)
        for k in range(2, 65):
            ups = [x for j in range(3, k + 1) for x in (neg, new_slope(j, b))]
            want = [*reversed(ups), new_slope(2, b), *ups, neg]
            f = pi_k(k, b)
            assert [f.piece_slope(i) for i in range(len(f.P))] == want, (k, b)


def test_pi_k_symmetry_about_b():
    for b in (F(2, 5), F(1, 2)):
        p = pi_k(5, b)
        for t in p.breakpoints:
            assert p.eval(t) + p.eval((b - t) % 1) == 1


def test_pi_k_domain():
    with pytest.raises(DomainError):
        pi_k(1, F(1, 2))
    with pytest.raises(DomainError):
        pi_k(3, F(2, 3))


def test_pi_k_reflected_matches_reflection():
    p = pi_k_reflected(4, F(2, 3))
    q = pi_k(4, F(1, 3))
    for i in range(13):
        x = F(i, 13)
        assert p.eval(x) == q.eval((-x) % 1)
    with pytest.raises(DomainError):
        pi_k_reflected(4, F(1, 3))


@pytest.mark.parametrize("b", [F(0), F(3, 4), F(2)])
def test_limit_functions_check_b_first(b):
    # x = 0 and x = b answered 0 and 1 before b was checked
    for x in (F(0), b, F(1, 5)):
        with pytest.raises(DomainError, match="b must lie in"):
            pi_infinity_value(x, b)


def _reference_level(x, b):
    """The stabilization level by its definition: 3 right of b, else the
    least n with x in interval_system(n, b).i3."""
    x = x % 1
    if x > b:
        return 3
    n = 3
    while not interval_system(n, b).i3.contains(x):
        n += 1
    return n


LIMIT_B = [F(1, 2), F(1, 3), F(2, 5), F(1, 7), F(1, 97), F(49, 100)]


def test_pi_infinity_pointwise_matches_stabilized_level():
    assert pi_infinity_value(F(0), F(1, 2)) == 0
    assert pi_infinity_value(F(1, 2), F(1, 2)) == 1
    rng = random.Random(23)
    level = functools.cache(pi_k)
    seen_levels, seen_cases = set(), set()
    for b in LIMIT_B:
        for n in range(3, 31):
            eps = b / 8 ** (n - 2)
            xs = [2 * eps, b - 2 * eps, b - 2 * eps * (1 + F(rng.randint(0, 63), 64)),
                  b + (1 - b) * F(rng.randint(1, 99), 100)]
            if n > 3:   # eps_(N-1) and the band [2 eps_N, 2 eps_(N-1))
                xs += [8 * eps, 2 * eps * (1 + F(7 * rng.randint(0, 63), 64))]
            xs += [x + rng.choice((-3, -1, 1, 2)) for x in xs]
            for x in xs:
                N = _reference_level(x, b)
                seen_levels.add(N)
                seen_cases.add((x % 1 == 2 * eps, x % 1 > b, b / 2 < x % 1 < b))
                assert (pi_infinity_value(x, b) == level(N, b).eval(x)
                        == level(N + 2, b).eval(x)), (x, b)
    assert seen_levels == set(range(3, 31))
    assert seen_cases >= {(True, False, False), (False, True, False), (False, False, True)}


def test_pi_infinity_value_builds_no_level(monkeypatch):
    b = F(2, 5)
    points = []
    for n in range(3, 61):
        eps = b / 8 ** (n - 2)
        points += [(n, x) for x in (2 * eps, 3 * eps, b - 2 * eps, 1 - eps)]
    expected = [pi_infinity_value(x, b) for _, x in points]

    def no_build(*args):
        raise AssertionError("pi_infinity_value must not build a level")

    monkeypatch.setattr(constructions, "pi_k", no_build)
    monkeypatch.setattr(constructions, "interval_system", no_build)
    got = [pi_infinity_value(x, b) for _, x in points]
    assert got == expected


def test_consecutive_levels_differ_by_the_closed_form_gap():
    # sup |pi_(j+1) - pi_j| = 2^(1-2j) / (1 - b), attained at a breakpoint;
    # up to the level cap 64 at two b, to keep the run short
    for b in (F(1, 2), F(1, 3), F(2, 5), F(1, 7)):
        for j in range(3, 64 if b in (F(1, 2), F(1, 3)) else 16):
            f, g = common_refinement(pi_k(j + 1, b), pi_k(j, b))
            gap = max(abs(u - v) for u, v in zip(f.values, g.values))
            assert gap == F(2) ** (1 - 2 * j) / (1 - b), (j, b)


def test_telescoped_tail_is_within_the_truncation_bound():
    for b in (F(1, 2), F(1, 3), F(2, 5), F(1, 7), F(1, 97), F(49, 100)):
        for K in range(2, 65):
            assert F(2) ** (3 - 2 * K) / (3 * (1 - b)) <= truncation_bound(K, b), (K, b)


def test_truncation_bound_closed_form():
    assert truncation_bound(4, F(1, 2)) == F(7, 64)
    K, b = 6, F(1, 3)
    assert truncation_bound(K, b) == F(2) ** (4 - 3 * K) * (2 ** K - 4 * b) / (1 - b)
    # the bound is proved for K >= 2 only
    with pytest.raises(DomainError, match="^K must be >= 2, got 1$"):
        truncation_bound(1, F(1, 2))


def test_truncation_bound_reads_b_as_pi_k_does():
    # b = 1 or True divided by 0, "1/3" raised TypeError, 0.3 gave a float
    bound = truncation_bound(3, "1/3")
    assert bound == F(5, 16) and type(bound) is F
    for b, error in ((1, DomainError), (F(0), DomainError), (F(2, 3), DomainError),
                     (True, FormatError), (0.3, FormatError)):
        with pytest.raises(error) as exc:
            truncation_bound(3, b)
        assert str(exc.value) == (f"b must lie in (0, 1/2], got {b}" if error is DomainError
                                  else f"cannot interpret {type(b).__name__} as exact rational")
    with pytest.raises(DomainError, match="^K must be >= 2, got 1$"):
        truncation_bound(1, F(2, 3))
