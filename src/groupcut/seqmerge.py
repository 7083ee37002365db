"""Lifting-space and group-space representations, the sequential-merge
operation on cut-generating functions, the m-fold merge of the basic
mixed-integer function, its k-slope variant, and sampled structural checks
for the resulting n-dimensional functions.

n-dimensional functions are never materialized as polyhedral complexes;
they exist only as checked chains of 1-D functions with two independent
evaluation paths that must agree exactly: the closed formula
`eval_merged`, which runs on integers through the lattice each node's
minimality check built, and the definitional nested lifts (`psi_eval`,
`eval_definitional`), which run on `PeriodicPWL.eval`.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from .constructions import gmi, pi_k_reflected
from .errors import DomainError, FormatError, NotMinimal
from .pwl import Interval, PeriodicPWL, _lists, _pair, rat, rat_str
from .verification import Certificate, _Lattice, _minimal

Vector = Sequence[Fraction]
_MAX_DENOMINATOR = 64   # the largest denominator of a sampled coordinate


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
# merged functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MergedFn:
    """The sequential merge of the chain ((f_1, b_1), ..., (f_n, b_n)): f_1
    merged over the merge of the rest, with f_n alone at the end.  A merge
    tree is always right-nested, so the chain is all of it.  Building one
    checks that every b_i lies in (0, 1) and every f_i is minimal at b_i,
    which is what makes the merge periodic modulo the integer lattice.  A
    node repeated within the chain is checked once, on one lattice that
    `eval_merged` then reads for every copy of the node.  The range check,
    the node key (f's ints with b's numerator and denominator) and the mass
    b_1 + ... + b_n (one int numerator over the lcm of the denominators)
    read b as ints, and `from_dict` reads each distinct b text once."""

    nodes: tuple                   # ((PeriodicPWL, Fraction), ...)
    _lattices: tuple = field(init=False, repr=False, compare=False)
    _mass: Fraction = field(init=False, repr=False, compare=False)  # b_1 + ... + b_n

    def __post_init__(self):
        if not self.nodes:
            raise DomainError("a merged function needs at least one node")
        checked = {}       # the stored ints: __hash__ would canonicalize
        lattices = []
        mass, L = 0, 1     # b_1 + ... + b_i = mass / L, L the lcm of their d
        for i, (f, b) in enumerate(self.nodes, 1):
            n, d = b.numerator, b.denominator
            if not 0 < n < d:      # b_1 + ... + b_n = 0 would divide by 0
                raise DomainError(f"b{i} must lie in (0, 1), got {b}")
            key = (f.q, f.P, f.D, f.W, n, d)
            lat = checked.get(key)
            if lat is None:
                lat = _Lattice(f, d)
                cert = _minimal(f, lat, b)[0]
                if not cert.passed:
                    raise NotMinimal(f"f{i} is not minimal at b{i} = {b}: "
                                     f"{cert.witness}", cert)
                checked[key] = lat
            lattices.append(lat)
            if L % d:
                m = d // math.gcd(L, d)
                mass, L = mass * m, L * m
            mass += n * (L // d)
        object.__setattr__(self, "_lattices", tuple(lattices))
        object.__setattr__(self, "_mass", Fraction(mass, L))

    @property
    def arity(self) -> int:
        return len(self.nodes)

    @property
    def b_vector(self) -> list:
        return [b for _, b in self.nodes]

    # -- serialization: nested {"kind": "merge"|"leaf"} objects -------------

    def to_dict(self) -> dict:
        (f, b), *outers = reversed(self.nodes)
        obj = {"kind": "leaf", "b": rat_str(b), "fn": f.to_dict()}
        for f, b in outers:
            obj = {"kind": "merge", "b1": rat_str(b), "outer": f.to_dict(),
                   "inner": obj}
        return obj

    @classmethod
    def from_dict(cls, obj: dict) -> "MergedFn":
        """Read a nested merge object; each node's function is checked by
        `PeriodicPWL`, and a node whose two lists of text repeat an earlier
        node's, or a b text that repeats an earlier one, is parsed once
        within the call."""
        nodes, parsed = [], {}
        while True:
            if not isinstance(obj, dict) or "kind" not in obj:
                raise FormatError("merged function JSON must be an object "
                                  "with a 'kind'")
            if obj["kind"] == "leaf":
                if set(obj) != {"kind", "b", "fn"}:
                    raise FormatError("leaf node must have exactly kind, b, fn")
                nodes.append((_node(obj["fn"], parsed), _b(obj["b"], parsed)))
                return cls(tuple(nodes))
            if obj["kind"] != "merge":
                raise FormatError(f"unknown node kind {obj['kind']!r}")
            if set(obj) != {"kind", "b1", "outer", "inner"}:
                raise FormatError("merge node must have exactly kind, b1, "
                                  "outer, inner")
            nodes.append((_node(obj["outer"], parsed), _b(obj["b1"], parsed)))
            obj = obj["inner"]

    def __call__(self, x) -> Fraction:
        return eval_merged(self, x)


def _node(d, parsed: dict) -> PeriodicPWL:
    """`PeriodicPWL.from_dict(d)`, looked up in `parsed` by its two lists
    when they hold text only: equal text is an equal function, while a
    number could equal a bool or a float that `PeriodicPWL` refuses."""
    bps, vals = _lists(d)
    if {*map(type, bps), *map(type, vals)} != {str}:
        return PeriodicPWL(bps, vals)
    key = (tuple(bps), tuple(vals))
    f = parsed.get(key)
    if f is None:
        f = parsed[key] = PeriodicPWL(bps, vals)
    return f


def _b(text, parsed: dict) -> Fraction:
    """`rat(text)`, looked up in `parsed` when it is text; a node's key
    there is a tuple, never text.  A number is read each time, as it could
    equal a bool that `rat` refuses."""
    if type(text) is not str:
        return rat(text)
    b = parsed.get(text)
    if b is None:
        b = parsed[text] = rat(text)
    return b


def leaf(f: PeriodicPWL, b) -> MergedFn:
    return MergedFn(((f, rat(b)),))


def seq_merge(f: PeriodicPWL, b1, g: MergedFn) -> MergedFn:
    """Merge the 1-D function f (parameter b1) over g."""
    return MergedFn(((f, rat(b1)),) + g.nodes)


# ---------------------------------------------------------------------------
# evaluation: closed formula and definitional path
# ---------------------------------------------------------------------------

def _coerce_vector(F: MergedFn, x, read=rat) -> list:
    x = [read(v) for v in x]
    if len(x) != F.arity:
        raise DomainError(f"expected a vector of length {F.arity}, got {len(x)}")
    return x


def eval_merged(F: MergedFn, x) -> Fraction:
    """Closed formula on integers, from the last node out.  With g the value
    and B the parameter mass of the nodes after f_i, s the sum of their
    coordinates plus x_i and h = B*g, the merge up to f_i has
    h <- h + b_i*f_i(s - h), and F(x) is h over the total mass.  s and h are
    kept as S/D and H/D over one unreduced int D, and f_i(s - h) is
    lat.scaled_at(S - H, D) / (scale*D) on f_i's lattice.  Each coordinate
    is read as an int pair (n, d) by `pwl._pair`, so text makes no Fraction."""
    x = _coerce_vector(F, x, _pair)
    S, H, D = 0, 0, 1
    for (_, b), lat, (xn, xd) in zip(reversed(F.nodes), reversed(F._lattices), reversed(x)):
        S, H, D = S * xd + xn * D, H * xd, D * xd
        v = lat.scaled_at(S - H, D)
        m = b.denominator * lat.scale
        S, H, D = S * m, H * m + b.numerator * v, D * m
    M = F._mass
    return Fraction(H * M.denominator, D * M.numerator)


def psi_eval(F: MergedFn, x) -> Fraction:
    """The nested-lift (pseudo-periodic) representation of F: from the last
    node out, psi is the lift of f_i at x_i plus psi of the nodes after f_i."""
    psi = Fraction(0)
    for (f, b), xi in zip(reversed(F.nodes), reversed(_coerce_vector(F, x))):
        psi = lift_eval(f, b, xi + psi)
    return psi


def eval_definitional(F: MergedFn, x) -> Fraction:
    """Definitional path: group-space value of the nested lifts.  Must agree
    exactly with eval_merged."""
    return group_space_eval(lambda v: psi_eval(F, v), F.b_vector, x)


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
    return MergedFn(((gmi(b), b),) * m)


def pi_n_k(n: int, k: int, b) -> MergedFn:
    """The k-slope function (reflected for upper b) merged over the
    (n-1)-fold basic merge."""
    b = _require_b_upper(b)
    if n < 2:
        raise DomainError(f"n must be >= 2, got {n}")
    if k < 2:
        raise DomainError(f"k must be >= 2, got {k}")
    return MergedFn(((pi_k_reflected(k, b), b),) + ((gmi(b), b),) * (n - 1))


def check_lift_nondecreasing(f: PeriodicPWL, b) -> Certificate:
    """x - b*f(x) is nondecreasing iff every slope of f is at most 1/b."""
    b = rat(b)
    if not 0 < b < 1:
        raise DomainError(f"b must lie in (0, 1), got {b}")
    bound = 1 / b
    g = f.canonical()
    for i in range(len(g.P)):
        s = g.piece_slope(i)
        if s > bound:
            return Certificate(
                "fail", checked_count=i + 1,
                witness={"kind": "slope-bound", "piece_start": rat_str(g.breakpoints[i]),
                         "slope": rat_str(s), "bound": rat_str(bound)})
    return Certificate("pass", checked_count=len(g.P))


def region_gradients(n: int, k: int, b) -> list:
    """For each distinct slope of the reflected k-slope function, one maximal
    piece J of that slope and the exact gradient of the n-dimensional merge
    on the open region J x (0,b)^{n-1}: (slope/n, 1/(bn), ..., 1/(bn))."""
    b = _require_b_upper(b)
    if n < 2:
        raise DomainError(f"n must be >= 2, got {n}")
    f = pi_k_reflected(k, b)
    tail = [1 / (b * n)] * (n - 1)
    box = tuple(Interval(Fraction(0), b) for _ in range(n - 1))
    out = []
    seen = set()
    P = [*f.breakpoints, Fraction(1)]
    for i in range(len(P) - 1):
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

def _random_fraction(rng: random.Random) -> Fraction:
    q = rng.randint(2, _MAX_DENOMINATOR)
    return Fraction(rng.randint(0, q - 1), q)


def _as_evaluator(F) -> tuple:
    """Accept a MergedFn or a (callable, arity) pair."""
    if isinstance(F, MergedFn):
        return (lambda v: eval_merged(F, v)), F.arity
    func, arity = F
    return func, arity


def check_genuinely_nd(F, trials: int, seed: int) -> Certificate:
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
        value = func(pt)
        if value != 0:
            return Certificate("fail", checked_count=checked,
                               witness={"kind": "nonzero-at-integer",
                                        "point": [rat_str(v) for v in pt],
                                        "value": rat_str(value)})
    done = 0
    while done < trials:
        pt = [_random_fraction(rng) for _ in range(arity)]
        if all(v == 0 for v in pt):
            continue
        done += 1
        checked += 1
        value = func(pt)
        if value <= 0:
            return Certificate("fail", checked_count=checked,
                               witness={"kind": "nonpositive-off-lattice",
                                        "point": [rat_str(v) for v in pt],
                                        "value": rat_str(value)})
    return Certificate("pass", checked_count=checked,
                       detail="consistent with genuinely n-dimensional "
                              "(sampled; not a proof)")


def sample_subadditivity_nd(F, trials: int, seed: int) -> Certificate:
    """Falsification harness: look for F(x)+F(y) < F(x+y) at random rational
    pairs.  A pass means no violation was found, nothing more."""
    if trials < 1:
        raise DomainError("trials must be >= 1")
    func, arity = _as_evaluator(F)
    rng = random.Random(seed)
    for t in range(trials):
        x = [_random_fraction(rng) for _ in range(arity)]
        y = [_random_fraction(rng) for _ in range(arity)]
        s = [a + c for a, c in zip(x, y)]
        delta = func(x) + func(y) - func(s)
        if delta < 0:
            return Certificate("fail", checked_count=t + 1,
                               witness={"kind": "subadditivity-nd",
                                        "x": [rat_str(v) for v in x],
                                        "y": [rat_str(v) for v in y],
                                        "delta": rat_str(delta)})
    return Certificate("pass", checked_count=trials,
                       detail="no violation found (sampled; not a proof)")
