from fractions import Fraction
from itertools import combinations

import pytest

from groupcut import PeriodicPWL

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def bump_value(f: PeriodicPWL, index: int, amount: Fraction) -> PeriodicPWL:
    """Copy of f with one breakpoint value shifted by `amount`."""
    vals = list(f.values)
    vals[index] += amount
    return PeriodicPWL(f.breakpoints, vals)


def formula_slope(f: PeriodicPWL, i: int) -> Fraction:
    """(v1 - v0) / (t1 - t0) on piece i, the last piece ending at (1, v_0)."""
    n = len(f.breakpoints)
    t1 = f.breakpoints[i + 1] if i + 1 < n else 1
    return (f.values[(i + 1) % n] - f.values[i]) / (t1 - f.breakpoints[i])


def fraction_vertex_pairs(f: PeriodicPWL) -> list:
    """The slack's vertex pairs spelled out over Fractions, sorted: (u, v),
    (u, w - u) and (w - u, u) mod 1 for breakpoints u, v, w."""
    B = f.breakpoints
    pairs = {(u, v) for u in B for v in B}
    pairs |= {(u, (w - u) % 1) for u in B for w in B}
    pairs |= {((w - u) % 1, u) for u in B for w in B}
    return sorted(pairs)


def triple_pairs(zeros, M: int, q: int) -> set:
    """Every half-pair (a, b), a <= b, of the triple {x, y, (M - x - y) mod q}
    of each zero pair (x, y): what one pair of a zero triple stands for
    once f is symmetric about M/q."""
    return {pair for x, y in zeros
            for pair in combinations(sorted((x, y, (M - x - y) % q)), 2)}


@pytest.fixture
def F():
    return Fraction
