"""Independent checkers the tests hold the package to, written against
public `groupcut` names only.

The definitional n-D path reads each node's f through `PeriodicPWL.eval`
and nothing else, so it shares no code with the integer lattice that
`eval_merged` runs on.  None of these checks its input: a test hands it
what the package has already accepted.
"""
import random
from fractions import Fraction

from groupcut import Certificate, Interval, MergedFn, PeriodicPWL, pi_k_reflected, rat


def lift_eval(f: PeriodicPWL, b, x) -> Fraction:
    """Lifting-space value x - b*f(x); pseudo-periodic with period-1 shifts."""
    return x - b * f.eval(x)


def group_space_eval(psi, b_vector, x) -> Fraction:
    """Group-space value (sum(x) - psi(x)) / sum(b); inverts the lift on
    pseudo-periodic functions."""
    return (sum(x) - psi(x)) / sum(b_vector)


def psi_eval(F: MergedFn, x) -> Fraction:
    """The nested-lift (pseudo-periodic) representation of F: from the last
    node out, psi is the lift of f_i at x_i plus psi of the nodes after f_i."""
    psi = 0
    for (f, b), xi in zip(reversed(F.nodes), reversed(x)):
        psi = lift_eval(f, b, xi + psi)
    return psi


def eval_definitional(F: MergedFn, x) -> Fraction:
    """Group-space value of the nested lifts: must agree exactly with
    `eval_merged`."""
    x = [rat(v) for v in x]
    return group_space_eval(lambda v: psi_eval(F, v), F.b_vector, x)


def region_gradients(n: int, k: int, b) -> list:
    """For each distinct slope of the reflected k-slope function, one maximal
    piece J of that slope and the exact gradient of the n-dimensional merge
    on the open region J x (0,b)^{n-1}: (slope/n, 1/(bn), ..., 1/(bn))."""
    f = pi_k_reflected(k, b)
    P = (*f.breakpoints, Fraction(1))
    box = (Interval(Fraction(0), b),) * (n - 1)
    first = {}          # slope -> the first piece of that slope
    for i in range(len(P) - 1):
        first.setdefault(f.piece_slope(i), i)
    return [((Interval(P[i], P[i + 1]), *box), (s / n, *[1 / (b * n)] * (n - 1)))
            for s, i in first.items()]


def _random_fraction(rng: random.Random) -> Fraction:
    q = rng.randint(2, 64)
    return Fraction(rng.randint(0, q - 1), q)


def check_genuinely_nd(F, trials: int, seed: int) -> Certificate:
    """Sampled check that the zero set of F, a MergedFn or a (callable,
    arity) pair, is exactly the integer lattice: zero at integer vectors,
    strictly positive at random non-integer rational vectors.  A pass is
    evidence, not proof ('consistent with genuinely n-dimensional')."""
    func, arity = (F, F.arity) if isinstance(F, MergedFn) else F
    rng = random.Random(seed)
    points = [[Fraction(0)] * arity] + [[Fraction(rng.randint(-3, 3)) for _ in range(arity)]
                                        for _ in range(max(20, arity * 4))]
    lattice = len(points)
    while len(points) < lattice + trials:
        pt = [_random_fraction(rng) for _ in range(arity)]
        if any(pt):
            points.append(pt)
    for checked, pt in enumerate(points, 1):
        value = func(pt)
        if value != 0 if checked <= lattice else value <= 0:
            kind = "nonzero-at-integer" if checked <= lattice else "nonpositive-off-lattice"
            return Certificate("fail", checked_count=checked, witness={
                "kind": kind, "point": [str(v) for v in pt], "value": str(value)})
    return Certificate("pass", checked_count=len(points),
                       detail="consistent with genuinely n-dimensional (sampled; not a proof)")


def common_refinement(f: PeriodicPWL, g: PeriodicPWL):
    """Re-express both functions over the union of their breakpoint sets."""
    union = sorted(set(f.breakpoints) | set(g.breakpoints))
    return f.refine_to(union), g.refine_to(union)


def linear_combine(c1, f: PeriodicPWL, c2, g: PeriodicPWL) -> PeriodicPWL:
    """c1*f + c2*g, exact, in canonical form."""
    rf, rg = common_refinement(f, g)
    vals = [c1 * a + c2 * b for a, b in zip(rf.values, rg.values)]
    return PeriodicPWL(rf.breakpoints, vals).canonical()
