import random
from fractions import Fraction as F
from itertools import islice

import pytest

from groupcut import (DomainError, PeriodicPWL, gmi, interval_system, new_slope,
                      pi_infinity_truncation, pi_infinity_value, pi_k,
                      pi_k_reflected, stabilization_index, truncation_bound)


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
            levels.add(stabilization_index(x, b))
            assert pi_infinity_value(x, b) == ref.eval(x), (x, b)
    assert levels >= set(range(3, 9))


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


def test_stabilization_index():
    b = F(1, 2)
    assert stabilization_index(F(3, 4), b) == 3      # right of b
    assert stabilization_index(F(1, 4), b) == 3      # inside the level-3 band
    assert stabilization_index(F(1, 100), b) == 5
    for x in (F(0), b):
        with pytest.raises(DomainError):
            stabilization_index(x, b)


def test_pi_infinity_pointwise_matches_stabilized_level():
    b = F(1, 2)
    assert pi_infinity_value(F(0), b) == 0
    assert pi_infinity_value(b, b) == 1
    for x in (F(1, 4), F(1, 100), F(9, 10)):
        n = stabilization_index(x, b)
        assert pi_infinity_value(x, b) == pi_k(n, b).eval(x)
        # stabilized: deeper levels agree
        assert pi_infinity_value(x, b) == pi_k(n + 2, b).eval(x)


def test_truncation_bound_closed_form():
    assert truncation_bound(4, F(1, 2)) == F(7, 64)
    K, b = 6, F(1, 3)
    assert truncation_bound(K, b) == F(2) ** (4 - 3 * K) * (2 ** K - 4 * b) / (1 - b)


def test_pi_infinity_truncation_bundles_function_and_bound():
    tr = pi_infinity_truncation(F(1, 2), 4)
    assert tr.fn == pi_k(4, F(1, 2))
    assert tr.K == 4
    assert tr.sup_error_bound == F(7, 64)
