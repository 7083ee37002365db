"""Lifting-space and group-space representations, the sequential-merge
operation on cut-generating functions, the m-fold merge of the basic
mixed-integer function, its k-slope variant, and sampled structural checks
for the resulting n-dimensional functions.

n-dimensional functions are never materialized as polyhedral complexes;
they exist only as evaluation trees with two independent evaluation paths
(a recursive closed formula and the definitional nested-lift route) that
must agree exactly.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .constructions import gmi, pi_k_reflected
from .errors import DomainError, FormatError
from .pwl import Interval, PeriodicPWL, rat, rat_str
from .verification import Certificate, check_minimal

Vector = Sequence[Fraction]


# ---------------------------------------------------------------------------
# lifting space <-> group space
# ---------------------------------------------------------------------------

def lift_eval(f: PeriodicPWL, b, x) -> Fraction:
    """Lifting-space value x - b*f(x); pseudo-periodic with period-1 shifts."""
    b, x = rat(b), rat(x)
    if not 0 < b < 1:
        raise DomainError(f"b must lie in (0, 1), got {b}")
    return x - b * f.eval(x)


def group_space_eval(psi: Callable[[Vector], Fraction], b_vector, x) -> Fraction:
    """Group-space value (sum(x) - psi(x)) / sum(b); inverts the lift on
    pseudo-periodic functions."""
    b_vector = [rat(v) for v in b_vector]
    x = [rat(v) for v in x]
    total_b = sum(b_vector)
    if total_b == 0:
        raise DomainError("b_vector must have nonzero sum")
    return (sum(x) - psi(x)) / total_b


# ---------------------------------------------------------------------------
# merge trees
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MergedFn:
    """Evaluation tree: a leaf holds a 1-D periodic function with its
    right-hand-side parameter; a merge node combines an outer 1-D function
    with an inner tree via the sequential-merge formula."""

    kind: str                      # "leaf" | "merge"
    fn: Optional[PeriodicPWL] = None       # leaf payload
    b: Optional[Fraction] = None           # leaf parameter
    outer: Optional[PeriodicPWL] = None    # merge payload
    b1: Optional[Fraction] = None
    inner: Optional["MergedFn"] = None

    @property
    def arity(self) -> int:
        return 1 if self.kind == "leaf" else 1 + self.inner.arity

    @property
    def b_vector(self) -> list:
        if self.kind == "leaf":
            return [self.b]
        return [self.b1] + self.inner.b_vector

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        if self.kind == "leaf":
            return {"kind": "leaf", "b": rat_str(self.b), "fn": self.fn.to_dict()}
        return {"kind": "merge", "b1": rat_str(self.b1),
                "outer": self.outer.to_dict(), "inner": self.inner.to_dict()}

    @classmethod
    def from_dict(cls, obj: dict) -> "MergedFn":
        if not isinstance(obj, dict) or "kind" not in obj:
            raise FormatError("merged function JSON must be an object with a 'kind'")
        if obj["kind"] == "leaf":
            if set(obj) != {"kind", "b", "fn"}:
                raise FormatError("leaf node must have exactly kind, b, fn")
            return leaf(PeriodicPWL.from_dict(obj["fn"]), rat(obj["b"]))
        if obj["kind"] == "merge":
            if set(obj) != {"kind", "b1", "outer", "inner"}:
                raise FormatError("merge node must have exactly kind, b1, outer, inner")
            b1 = rat(obj["b1"])
            if not 0 < b1 < 1:   # as in seq_merge; b1 + B2 = 0 would divide by 0
                raise DomainError(f"b1 must lie in (0, 1), got {b1}")
            return cls(kind="merge", outer=PeriodicPWL.from_dict(obj["outer"]),
                       b1=b1, inner=cls.from_dict(obj["inner"]))
        raise FormatError(f"unknown node kind {obj['kind']!r}")

    def __call__(self, x) -> Fraction:
        return eval_merged(self, x)


def leaf(f: PeriodicPWL, b) -> MergedFn:
    b = rat(b)
    if not 0 < b < 1:
        raise DomainError(f"b must lie in (0, 1), got {b}")
    return MergedFn(kind="leaf", fn=f, b=b)


def seq_merge(f: PeriodicPWL, b1, g: MergedFn) -> MergedFn:
    """Merge the 1-D function f (parameter b1) over the tree g.  All 1-D
    ingredients must be minimal; that is what makes the result periodic
    modulo the integer lattice."""
    b1 = rat(b1)
    if not 0 < b1 < 1:
        raise DomainError(f"b1 must lie in (0, 1), got {b1}")
    cert = check_minimal(f, b1)
    if not cert.passed:
        raise DomainError(f"outer function is not minimal: {cert.witness}")
    _check_tree_minimal(g)
    return MergedFn(kind="merge", outer=f, b1=b1, inner=g)


def _check_tree_minimal(g: MergedFn) -> None:
    if g.kind == "leaf":
        cert = check_minimal(g.fn, g.b)
        if not cert.passed:
            raise DomainError(f"inner leaf is not minimal: {cert.witness}")
    else:
        cert = check_minimal(g.outer, g.b1)
        if not cert.passed:
            raise DomainError(f"inner merge outer function is not minimal: "
                              f"{cert.witness}")
        _check_tree_minimal(g.inner)


# ---------------------------------------------------------------------------
# evaluation: closed formula and definitional path
# ---------------------------------------------------------------------------

def _coerce_vector(F: MergedFn, x) -> list:
    x = [rat(v) for v in x]
    if len(x) != F.arity:
        raise DomainError(f"expected a vector of length {F.arity}, got {len(x)}")
    return x


def eval_merged(F: MergedFn, x) -> Fraction:
    """Recursive closed formula: with inner value g(x2) and inner parameter
    mass B2, the merge evaluates to
    (B2*g(x2) + b1*f(sum(x) - B2*g(x2))) / (b1 + B2)."""
    x = _coerce_vector(F, x)
    return _eval_closed(F, x)


def _eval_closed(F: MergedFn, x: list) -> Fraction:
    if F.kind == "leaf":
        return F.fn.eval(x[0])
    B2 = sum(F.inner.b_vector)
    gval = _eval_closed(F.inner, x[1:])
    return (B2 * gval + F.b1 * F.outer.eval(sum(x) - B2 * gval)) / (F.b1 + B2)


def psi_eval(F: MergedFn, x) -> Fraction:
    """The nested-lift (pseudo-periodic) representation of F."""
    x = _coerce_vector(F, x)
    return _psi(F, x)


def _psi(F: MergedFn, x: list) -> Fraction:
    if F.kind == "leaf":
        return lift_eval(F.fn, F.b, x[0])
    t = x[0] + _psi(F.inner, x[1:])
    return t - F.b1 * F.outer.eval(t)


def eval_definitional(F: MergedFn, x) -> Fraction:
    """Definitional path: group-space value of the nested lifts.  Must agree
    exactly with eval_merged."""
    x = _coerce_vector(F, x)
    return group_space_eval(lambda v: _psi(F, list(v)), F.b_vector, x)


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------

def _require_b_upper(b) -> Fraction:
    b = rat(b)
    if not Fraction(1, 2) <= b < 1:
        raise DomainError(f"b must lie in [1/2, 1), got {b}")
    return b


def phi_m(m: int, b) -> MergedFn:
    """m-fold sequential merge of the basic mixed-integer function."""
    b = _require_b_upper(b)
    if m < 1:
        raise DomainError(f"m must be >= 1, got {m}")
    f = gmi(b)
    tree = leaf(f, b)
    for _ in range(m - 1):
        tree = MergedFn(kind="merge", outer=f, b1=b, inner=tree)
    return tree


def pi_n_k(n: int, k: int, b) -> MergedFn:
    """The k-slope function (reflected for upper b) merged over the
    (n-1)-fold basic merge."""
    b = _require_b_upper(b)
    if n < 2:
        raise DomainError(f"n must be >= 2, got {n}")
    if k < 2:
        raise DomainError(f"k must be >= 2, got {k}")
    return MergedFn(kind="merge", outer=pi_k_reflected(k, b), b1=b,
                    inner=phi_m(n - 1, b))


def check_lift_nondecreasing(f: PeriodicPWL, b) -> Certificate:
    """x - b*f(x) is nondecreasing iff every slope of f is at most 1/b."""
    b = rat(b)
    if not 0 < b < 1:
        raise DomainError(f"b must lie in (0, 1), got {b}")
    bound = 1 / b
    g = f.canonical()
    for i in range(len(g.breakpoints)):
        s = g.piece_slope(i)
        if s > bound:
            return Certificate(
                "fail", checked_count=i + 1,
                witness={"kind": "slope-bound", "piece_start": rat_str(g.breakpoints[i]),
                         "slope": rat_str(s), "bound": rat_str(bound)})
    return Certificate("pass", checked_count=len(g.breakpoints))


def region_gradients(n: int, k: int, b) -> list:
    """For each distinct slope of the reflected k-slope function, one maximal
    piece J of that slope and the exact gradient of the n-dimensional merge
    on the open region J x (0,b)^{n-1}: (slope/n, 1/(bn), ..., 1/(bn))."""
    b = _require_b_upper(b)
    if n < 2:
        raise DomainError(f"n must be >= 2, got {n}")
    f = pi_k_reflected(k, b).canonical()
    tail = [1 / (b * n)] * (n - 1)
    box = tuple(Interval(Fraction(0), b) for _ in range(n - 1))
    out = []
    seen = set()
    P = list(f.breakpoints) + [Fraction(1)]
    for i in range(len(f.breakpoints)):
        s = f.piece_slope(i)
        if s in seen:
            continue
        seen.add(s)
        region = (Interval(P[i], P[i + 1]),) + box
        out.append((region, tuple([s / n] + tail)))
    return out


# ---------------------------------------------------------------------------
# sampled structural checks
# ---------------------------------------------------------------------------

def _random_fraction(rng: random.Random, max_denominator: int) -> Fraction:
    q = rng.randint(2, max_denominator)
    return Fraction(rng.randint(0, q - 1), q)


def _as_evaluator(F) -> tuple:
    """Accept a MergedFn or a (callable, arity) pair."""
    if isinstance(F, MergedFn):
        return (lambda v: eval_merged(F, v)), F.arity
    func, arity = F
    return func, arity


def check_genuinely_nd(F, trials: int, seed: int,
                       max_denominator: int = 64) -> Certificate:
    """Sampled check that the zero set is exactly the integer lattice: zero
    at integer vectors, strictly positive at random non-integer rational
    vectors.  A pass is evidence, not proof ('consistent with genuinely
    n-dimensional')."""
    if trials < 1:
        raise DomainError("trials must be >= 1")
    func, arity = _as_evaluator(F)
    rng = random.Random(seed)
    checked = 0
    zero_pts = [[Fraction(0)] * arity]
    for _ in range(max(20, arity * 4)):
        zero_pts.append([Fraction(rng.randint(-3, 3)) for _ in range(arity)])
    for pt in zero_pts:
        checked += 1
        if func(pt) != 0:
            return Certificate("fail", checked_count=checked,
                               witness={"kind": "nonzero-at-integer",
                                        "point": [rat_str(v) for v in pt],
                                        "value": rat_str(func(pt))})
    done = 0
    while done < trials:
        pt = [_random_fraction(rng, max_denominator) for _ in range(arity)]
        if all(v == 0 for v in pt):
            continue
        done += 1
        checked += 1
        if func(pt) <= 0:
            return Certificate("fail", checked_count=checked,
                               witness={"kind": "nonpositive-off-lattice",
                                        "point": [rat_str(v) for v in pt],
                                        "value": rat_str(func(pt))})
    return Certificate("pass", checked_count=checked,
                       detail="consistent with genuinely n-dimensional "
                              "(sampled; not a proof)")


def sample_subadditivity_nd(F, trials: int, seed: int,
                            max_denominator: int = 64) -> Certificate:
    """Falsification harness: look for F(x)+F(y) < F(x+y) at random rational
    pairs.  A pass means no violation was found, nothing more."""
    if trials < 1:
        raise DomainError("trials must be >= 1")
    func, arity = _as_evaluator(F)
    rng = random.Random(seed)
    for t in range(trials):
        x = [_random_fraction(rng, max_denominator) for _ in range(arity)]
        y = [_random_fraction(rng, max_denominator) for _ in range(arity)]
        s = [a + c for a, c in zip(x, y)]
        if func(x) + func(y) - func(s) < 0:
            return Certificate("fail", checked_count=t + 1,
                               witness={"kind": "subadditivity-nd",
                                        "x": [rat_str(v) for v in x],
                                        "y": [rat_str(v) for v in y]})
    return Certificate("pass", checked_count=trials,
                       detail="no violation found (sampled; not a proof)")
