from fractions import Fraction

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


def fraction_vertex_pairs(f: PeriodicPWL) -> list:
    """The slack's vertex pairs spelled out over Fractions, sorted: (u, v),
    (u, w - u) and (w - u, u) mod 1 for breakpoints u, v, w."""
    B = f.breakpoints
    pairs = {(u, v) for u in B for v in B}
    pairs |= {(u, (w - u) % 1) for u in B for w in B}
    pairs |= {((w - u) % 1, u) for u in B for w in B}
    return sorted(pairs)


@pytest.fixture
def F():
    return Fraction
