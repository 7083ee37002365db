"""Tests of the reference evaluator against values worked out by hand.

Run with ``python3 -m pytest perfbench``.  None of these compare against
groupcut's output: the reference is what the benchmark checks the program
with, so it is pinned only by hand computation.
"""
from fractions import Fraction as F

import pytest

from reference import Fn1D, b_mass, merged_value, slack, truncation_bound


def gmi_json(b):
    return {"breakpoints": ["0", str(b)], "values": ["0", "1"]}


def phi_json(m, b):
    tree = {"kind": "leaf", "b": str(b), "fn": gmi_json(b)}
    for _ in range(m - 1):
        tree = {"kind": "merge", "b1": str(b), "outer": gmi_json(b), "inner": tree}
    return tree


def test_gmi_values_by_hand():
    g = Fn1D(gmi_json(F(1, 2)))
    assert g(F(1, 4)) == F(1, 2)
    assert g(F(1, 2)) == 1
    assert g(F(3, 4)) == F(1, 2)
    assert g(0) == 0
    # periodic modulo 1, negative arguments included
    assert g(F(5, 4)) == F(1, 2)
    assert g(F(-1, 4)) == F(1, 2)


def test_gmi_slopes_and_slack_by_hand():
    g = Fn1D(gmi_json(F(1, 3)))
    assert g.slopes() == {F(3), F(-3, 2)}
    h = Fn1D(gmi_json(F(1, 2)))
    assert slack(h, F(1, 4), F(1, 4)) == 0
    assert slack(h, F(1, 2), F(1, 2)) == 2
    # f(1/8) + f(1/2) - f(5/8) = 1/4 + 1 - 3/4
    assert slack(h, F(1, 8), F(1, 2)) == F(1, 2)


def test_three_piece_function_by_hand():
    f = Fn1D({"breakpoints": ["0", "1/4", "1/2"], "values": ["0", "1/2", "1/4"]})
    assert f(F(1, 8)) == F(1, 4)
    assert f(F(3, 8)) == F(3, 8)
    # the last piece runs from (1/2, 1/4) back to (1, 0)
    assert f(F(3, 4)) == F(1, 8)
    assert f.slopes() == {F(2), F(-1), F(-1, 2)}


@pytest.mark.parametrize("m", [1, 2, 3, 5])
@pytest.mark.parametrize("b", [F(1, 2), F(3, 5), F(2, 3)])
def test_phi_m_is_affine_on_the_low_box(m, b):
    tree = phi_json(m, b)
    assert b_mass(tree) == m * b
    for num in range(1, 8):
        x = [b * F(num + i, 16) for i in range(m)]
        assert merged_value(tree, x) == sum(x) / (m * b)


def test_two_fold_merge_by_hand():
    # inner g(1/4) = 1/2, B2 = 1/2, f(3/8 - 1/4) = 1/4, value 1/4 + 1/8
    assert merged_value(phi_json(2, F(1, 2)), [F(1, 8), F(1, 4)]) == F(3, 8)
    assert merged_value(phi_json(3, F(1, 2)), [0, 0, 0]) == 0


def test_truncation_bound_by_hand():
    assert truncation_bound(4, F(1, 2)) == F(7, 64)
    assert truncation_bound(3, F(1, 3)) == F(2) ** -5 * (8 - F(4, 3)) * F(3, 2)


def test_rejects_malformed_function():
    with pytest.raises(ValueError):
        Fn1D({"breakpoints": ["1/4"], "values": ["0"]})
    with pytest.raises(ValueError):
        merged_value(phi_json(2, F(1, 2)), [F(1, 4)])
