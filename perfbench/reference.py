"""Reference arithmetic for checking groupcut's outputs, written apart from
the program.

Functions are read straight from the JSON interchange format: a 1-D
function is ``{"breakpoints": [...], "values": [...]}`` with "p/q" strings;
a merged n-D function is a tree of ``{"kind": "leaf", "b", "fn"}`` and
``{"kind": "merge", "b1", "outer", "inner"}`` nodes.  Nothing here imports
groupcut, so a check made with this module does not share the code it
checks.
"""
from __future__ import annotations

from fractions import Fraction
from math import floor


def q(s) -> Fraction:
    """An exact rational from a "p/q" string or an int."""
    return Fraction(s)


class Fn1D:
    """A continuous periodic piecewise-linear function read from JSON.

    The pieces run from each breakpoint to the next; the last one runs to 1,
    where the function takes the value it has at 0 again.
    """

    def __init__(self, obj: dict):
        self.xs = [q(t) for t in obj["breakpoints"]]
        self.ys = [q(v) for v in obj["values"]]
        if not self.xs or self.xs[0] != 0 or len(self.xs) != len(self.ys):
            raise ValueError("a function needs breakpoint 0 and one value per breakpoint")

    def pieces(self):
        """(left end, right end, left value, right value) of every piece."""
        ends = self.xs[1:] + [Fraction(1)]
        right = self.ys[1:] + [self.ys[0]]
        return list(zip(self.xs, ends, self.ys, right))

    def __call__(self, x) -> Fraction:
        x = q(x)
        x -= floor(x)
        for lo, hi, ylo, yhi in self.pieces():
            if lo <= x < hi:
                return ylo + (yhi - ylo) * (x - lo) / (hi - lo)
        raise AssertionError("unreachable: the pieces cover [0, 1)")

    def slopes(self) -> set:
        return {(yhi - ylo) / (hi - lo) for lo, hi, ylo, yhi in self.pieces()}


def slack(f: Fn1D, x, y) -> Fraction:
    """The subadditivity slack f(x) + f(y) - f(x + y)."""
    x, y = q(x), q(y)
    return f(x) + f(y) - f(x + y)


def b_mass(tree: dict) -> Fraction:
    """Sum of the right-hand-side parameters of every node of a merge tree."""
    if tree["kind"] == "leaf":
        return q(tree["b"])
    return q(tree["b1"]) + b_mass(tree["inner"])


def arity(tree: dict) -> int:
    return 1 if tree["kind"] == "leaf" else 1 + arity(tree["inner"])


def merged_value(tree: dict, xs) -> Fraction:
    """The sequential merge by its closed formula: with inner value g at the
    tail of x and inner mass B2, the merge of f (parameter b1) is
    (B2*g + b1*f(sum(x) - B2*g)) / (b1 + B2)."""
    xs = [q(v) for v in xs]
    if len(xs) != arity(tree):
        raise ValueError("point and tree differ in dimension")
    if tree["kind"] == "leaf":
        return Fn1D(tree["fn"])(xs[0])
    b1, B2 = q(tree["b1"]), b_mass(tree["inner"])
    g = merged_value(tree["inner"], xs[1:])
    f = Fn1D(tree["outer"])
    return (B2 * g + b1 * f(sum(xs) - B2 * g)) / (b1 + B2)


def truncation_bound(K: int, b) -> Fraction:
    """Uniform distance between the level-K function and the infinite-slope
    limit: 2^(4-3K) (2^K - 4b) / (1 - b)."""
    b = q(b)
    return Fraction(2) ** (4 - 3 * K) * (Fraction(2) ** K - 4 * b) / (1 - b)
