"""The three workloads: seeded inputs, the operations issued on them, and
the check each operation's output must pass.

A workload is a list of cases; a case is a short chain of operations that
must run in order (construct a file, then verify it).  Every round issues
the same cases in a freshly seeded order.  An operation is one `groupcut`
CLI call made in-process through `groupcut.cli.main(argv)`, or one call of
a library function that has no verb.  Checks use `reference`, which shares
no code with the program, or a property the method must have.
"""
from __future__ import annotations

import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction as Q
from pathlib import Path
from typing import Callable

from reference import (Fn1D, arity, b_mass, merged_value, slack,
                       truncation_bound)


class Failure(Exception):
    """An operation's output did not pass its check."""


def expect(cond, msg):
    if not cond:
        raise Failure(msg)


@dataclass
class Op:
    verb: str                         # CLI verb, or the library function's name
    run: Callable[[], object]
    check: Callable[[object], None]   # raises Failure when the output is wrong


class Inputs:
    """Writes a workload's input files into one directory, and issues
    operations on them.  `gc` holds the groupcut modules; operations look
    functions up on them at call time, so a traced run sees every call."""

    def __init__(self, gc, work: Path, rng: random.Random):
        self.gc, self.work, self.rng = gc, work, rng

    def path(self, name) -> str:
        return str(self.work / name)

    def write(self, name, obj) -> str:
        p = self.path(name)
        Path(p).write_text(json.dumps(obj) + "\n")
        return p

    def cli(self, argv, rc, check=None) -> Op:
        """A CLI call that must exit with `rc` (a code or a tuple of codes)
        and whose standard output must pass `check`."""
        codes = rc if isinstance(rc, tuple) else (rc,)

        def run():
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = self.gc.cli.main(argv)
            return code, out.getvalue()

        def verify(result):
            code, out = result
            expect(code in codes, f"{' '.join(argv)}: exit {code}, expected {rc}: "
                                  f"{out[-400:]}")
            if check is not None:
                check(out)
        return Op(argv[0], run, verify)

    # -- seeded inputs ------------------------------------------------------

    def mutant(self, obj: dict) -> dict:
        """Copy of a 1-D function with one seeded breakpoint value shifted.

        Any nonzero shift breaks minimality: it moves f(0) off 0, or moves
        f(t) + f(b - t) off 1 at the shifted breakpoint t.
        """
        vals = [Q(v) for v in obj["values"]]
        i = self.rng.randrange(len(vals))
        vals[i] += Q(self.rng.choice((-1, 1)) * self.rng.randint(1, 64), 1024)
        return {"breakpoints": list(obj["breakpoints"]),
                "values": [str(v) for v in vals]}

    def rational(self) -> Q:
        """A seeded rational in [-2, 2] with denominator at most 64."""
        q = self.rng.randint(2, 64)
        return Q(self.rng.randint(-2 * q, 2 * q), q)


def passed(out):
    c = json.loads(out)
    expect(c["verdict"] == "pass", f"verdict {c['verdict']}: {c.get('witness')}")


def check_witness(f: Fn1D, b, c: dict):
    """A failing minimality certificate's witness must reproduce under the
    reference: a negative slack equal to the reported delta, a value off
    zero at 0 or negative, or a symmetry sum off 1."""
    expect(c["verdict"] == "fail", f"verdict {c['verdict']}, expected fail")
    w = c["witness"]
    expect(w is not None, "failure without a witness")
    x = Q(w["x"])
    if w["kind"] == "pair":
        d = slack(f, x, Q(w["y"]))
        expect(d < 0 and d == Q(w["delta"]), f"pair witness does not reproduce: {w}, slack {d}")
    elif "value" in w:
        v = f(x)
        expect(v == Q(w["value"]) and (v < 0 or (x == 0 and v != 0)),
               f"value witness does not reproduce: {w}, value {v}")
    else:
        s = f(x) + f(Q(b) - x)
        expect("sum" in w and s == Q(w["sum"]) and s != 1,
               f"symmetry witness does not reproduce: {w}, sum {s}")


# ---------------------------------------------------------------------------
# verify: the vertex scan and the exact slack arithmetic
# ---------------------------------------------------------------------------

VERIFY_B = ["1/3", "2/5", "1/2"]
VERIFY_K = range(4, 21)
# The full vertex scan is the costly step, so `verify minimal` runs on a
# spread of (k, b) rather than on all 51.  Nine scans cost more than k = 8
# and nine cost the same as k = 8 (26 breakpoints each), so that the 90th
# percentile of a round's operations falls inside the k = 8 group rather
# than on a step between two groups.
VERIFY_MINIMAL = {(9, "1/3"), (9, "2/5"), (10, "2/5"), (10, "1/2"), (11, "1/2"),
                  (12, "1/3"), (13, "2/5"), (14, "1/2"), (20, "1/2"),
                  (8, "1/3"), (8, "2/5"), (8, "1/2"),
                  (4, "1/3"), (5, "2/5"), (6, "1/2"), (7, "1/3")}
VERIFY_REFLECTED = [(8, "1/2"), (8, "4/7"), (8, "3/5"), (8, "2/3"), (8, "3/4"),
                    (8, "4/5"), (4, "2/3"), (6, "3/5")]
VERIFY_GMI = ["1/3", "2/5", "1/2", "2/3"]
# small bases keep every mutant cheaper than the full scans, so the seeded
# mutant positions do not move the round's slowest tenth
VERIFY_MUTANT_BASES = [(3, "1/3"), (4, "1/3"), (5, "2/5"), (4, "1/2")]
MUTANTS_PER_BASE = 3
ORACLE_BASES = [(3, "1/3"), (3, "1/2"), (4, "2/5")]


def build_verify(inp: Inputs) -> list:
    gc = inp.gc
    cases = []
    for b in VERIFY_B:
        for k in VERIFY_K:
            out = inp.path(f"pi{k}_{b.replace('/', '-')}.json")

            def constructed(text, k=k, b=b, out=out):
                expect(f"slopes ({k})" in text, f"construct pi-k --k {k}: {text[:200]}")
                f = Fn1D(json.loads(Path(out).read_text()))
                expect(f(0) == 0 and f(Q(b)) == 1, f"pi_{k}({b}) misses f(0)=0, f(b)=1")
                expect(len(f.slopes()) == k, f"pi_{k}({b}) has {len(f.slopes())} slopes")

            def census(text, k=k, out=out):
                passed(text)
                n = len(Fn1D(json.loads(Path(out).read_text())).slopes())
                expect(n == k, f"reference counts {n} slopes on pi_{k}, expected {k}")

            chain = [inp.cli(["construct", "pi-k", "--k", str(k), "--b", b, "--out", out],
                             0, constructed)]
            if (k, b) in VERIFY_MINIMAL:
                chain.append(inp.cli(["verify", "minimal", out, "--b", b], 0, passed))
            chain.append(inp.cli(["verify", "slopes", out, "--k", str(k), "--b", b], 0,
                                 census))
            cases.append(chain)
    for k, b in VERIFY_REFLECTED:
        obj = gc.constructions.pi_k_reflected(k, Q(b)).to_dict()
        p = inp.write(f"refl{k}_{b.replace('/', '-')}.json", obj)

        def reflected(text, k=k, obj=obj):
            passed(text)
            n = len(Fn1D(obj).slopes())
            expect(n == k, f"reference counts {n} slopes on reflected pi_{k}")
        cases.append([inp.cli(["verify", "minimal", p, "--b", b], 0, reflected)])
    for b in VERIFY_GMI:
        out = inp.path(f"gmi_{b.replace('/', '-')}.json")
        cases.append([inp.cli(["construct", "gmi", "--b", b, "--out", out], 0),
                      inp.cli(["verify", "minimal", out, "--b", b], 0, passed)])
    for k, b in VERIFY_MUTANT_BASES:
        base = gc.constructions.pi_k(k, Q(b)).to_dict()
        for j in range(MUTANTS_PER_BASE):
            obj = inp.mutant(base)
            p = inp.write(f"mut{k}_{b.replace('/', '-')}_{j}.json", obj)
            cases.append([inp.cli(
                ["verify", "minimal", p, "--b", b], 1,
                lambda text, f=Fn1D(obj), b=b: check_witness(f, b, json.loads(text)))])
    for k, b in ORACLE_BASES:
        obj = inp.mutant(gc.constructions.pi_k(k, Q(b)).to_dict())
        p = inp.write(f"oracle{k}_{b.replace('/', '-')}.json", obj)
        fn = gc.pwl.PeriodicPWL.from_dict(obj)
        cap = 4 * math.lcm(*(Q(t).denominator for t in obj["breakpoints"]))
        ref = Fn1D(obj)
        seen = {}

        def oracle(c, ref=ref, seen=seen):
            seen["fail"] = not c.passed
            if not c.passed:
                w = c.witness
                d = slack(ref, Q(w["x"]), Q(w["y"]))
                expect(d < 0 and d == Q(w["delta"]),
                       f"oracle witness does not reproduce: {w}, slack {d}")

        def exact(text, ref=ref, seen=seen):
            c = json.loads(text)
            if seen["fail"]:
                expect(c["verdict"] == "fail", "the oracle found a violation the scan missed")
            if c["verdict"] == "fail":
                check_witness(ref, 0, c)

        # the exact scan may also find a violation off the oracle's grid,
        # so exit 1 is legal even when the oracle passed
        cases.append([
            Op("brute_force_subadditive",
               lambda fn=fn, cap=cap:
               inp.gc.verification.brute_force_subadditive(fn, cap), oracle),
            inp.cli(["verify", "subadditive", p], (0, 1), exact)])
    return cases


# ---------------------------------------------------------------------------
# certify: equality structure, constraint generation, the exact solver
# ---------------------------------------------------------------------------

CERTIFY_B = ["1/3", "2/5", "1/2"]
CERTIFY_REFINE = [16, 32, 64]
# gmi is extreme for every b in (0, 1)
GMI_B = ["1/5", "1/4", "1/3", "2/5", "1/2", "3/5", "2/3", "3/4", "4/5", "5/6"]
CERTIFY_PI = [(3, "1/3", 64), (4, "1/3", 64), (5, "1/3", 32),
              (3, "2/5", 32), (4, "2/5", 16), (6, "2/5", 64),
              (3, "1/2", 16), (5, "1/2", 64), (8, "1/2", 64)]
CERTIFY_MIDPOINTS = [("gmi", 3, "1/3", 32), ("gmi", 3, "2/5", 64),
                     ("gmi", 3, "1/2", 16), (3, 4, "1/2", 16)]
REPLAY_K = range(3, 8)
# replay of k = 8 costs about as much as the costlier perturbation tests;
# eight of them put the 90th percentile inside that group
REPLAY_8_B = ["1/3", "2/5", "1/2", "1/4", "1/5", "3/10", "3/8", "1/6"]
# mutants of pi_3 fail their minimality gate in a few ms whatever the seed,
# so the seeded positions cannot move the round's median
CERTIFY_MUTANT_BASES = [(3, b) for b in ("1/3", "2/5", "1/2", "1/4", "1/5", "3/10")]
TWO_SLOPE_PI = [3, 4, 5]


def midpoint(f: dict, g: dict) -> dict:
    """(f + g) / 2 on the union of the two breakpoint sets, by the reference."""
    rf, rg = Fn1D(f), Fn1D(g)
    xs = sorted({Q(t) for t in f["breakpoints"]} | {Q(t) for t in g["breakpoints"]})
    return {"breakpoints": [str(x) for x in xs],
            "values": [str((rf(x) + rg(x)) / 2) for x in xs]}


def slope_count(k, obj):
    """two-slope must refuse a function with k != 2 slopes, and say k."""
    def check(text):
        c = json.loads(text)
        w = c["witness"]
        expect(c["verdict"] == "fail" and w["kind"] == "slope-count"
               and w["count"] == k == len(Fn1D(obj).slopes()),
               f"two-slope on a {k}-slope function: {c}")
    return check


def unique(text):
    r = json.loads(text)
    expect(r["verdict"] == "certified_unique" and r["dimension"] == 0 and not r["basis"],
           f"verdict {r['verdict']} dimension {r['dimension']}, expected certified_unique")


def build_certify(inp: Inputs) -> list:
    gc = inp.gc
    cases = []
    funcs = {}

    def fn(k, b):
        key = (k, b)
        if key not in funcs:
            f = gc.constructions.gmi(Q(b)) if k == "gmi" else gc.constructions.pi_k(k, Q(b))
            obj = f.to_dict()
            funcs[key] = (inp.write(f"{k}_{b.replace('/', '-')}.json", obj), obj)
        return funcs[key]

    def perturb(path, b, d, rc, check):
        return inp.cli(["certify", path, "--b", b, "--mode", "pwl-perturbation",
                        "--refine", str(d)], rc, check)

    for b in GMI_B:
        for d in CERTIFY_REFINE:
            cases.append([perturb(fn("gmi", b)[0], b, d, 0, unique)])
        cases.append([inp.cli(["certify", fn("gmi", b)[0], "--b", b, "--mode",
                               "two-slope"], 0, passed)])
    for k, b, d in CERTIFY_PI:
        cases.append([perturb(fn(k, b)[0], b, d, 0, unique)])
    for k1, k2, b, d in CERTIFY_MIDPOINTS:
        obj = midpoint(fn(k1, b)[1], fn(k2, b)[1])
        p = inp.write(f"mid_{k1}_{k2}_{b.replace('/', '-')}.json", obj)

        def not_unique(text, b=Q(b)):
            r = json.loads(text)
            expect(r["verdict"] == "not_unique" and r["dimension"] >= 1
                   and len(r["basis"]) == r["dimension"],
                   f"midpoint: verdict {r['verdict']} dimension {r['dimension']}")
            for theta in r["basis"]:
                t = Fn1D(theta)
                expect(t(0) == 0 and t(b) == 0, "basis function moves f(0) or f(b)")
                for x in t.xs:
                    expect(t(x) + t(b - x) == 0, f"basis function breaks symmetry at {x}")
        cases.append([perturb(p, b, d, 1, not_unique)])
        cases.append([inp.cli(["certify", p, "--b", b, "--mode", "two-slope"], 1,
                              slope_count(len(Fn1D(obj).slopes()), obj))])
    for b in REPLAY_8_B:
        cases.append([inp.cli(["certify", fn(8, b)[0], "--b", b, "--mode", "replay",
                               "--k", "8"], 0, passed)])
    for b in CERTIFY_B:
        for k in REPLAY_K:
            cases.append([inp.cli(["certify", fn(k, b)[0], "--b", b, "--mode", "replay",
                                   "--k", str(k)], 0, passed)])
        for k in TWO_SLOPE_PI:
            path, obj = fn(k, b)
            cases.append([inp.cli(["certify", path, "--b", b, "--mode", "two-slope"],
                                  1, slope_count(k, obj))])
    for k, b in CERTIFY_MUTANT_BASES:
        obj = inp.mutant(fn(k, b)[1])
        p = inp.write(f"mut{k}_{b.replace('/', '-')}.json", obj)

        def rejected(text, f=Fn1D(obj), b=b):
            c = json.loads(text)
            expect(c.get("stage") == "minimality", f"certify passed a mutant: {c}")
            check_witness(f, b, c)
        cases.append([
            inp.cli(["certify", p, "--b", b, "--mode", "replay", "--k", str(k)], 1,
                    rejected),
            perturb(p, b, 16, 1, rejected)])
    return cases


# ---------------------------------------------------------------------------
# merge-eval: merge trees, evaluation, JSON loading; the scan only in the gate
# ---------------------------------------------------------------------------

EVAL_1D = [(4, "1/3"), (6, "2/5"), (8, "1/2")]
EVAL_1D_POINTS = 10
PHI = [(2, "1/2"), (4, "3/5"), (8, "1/2")]
PNK = [(2, 3, "3/5"), (5, 4, "1/2"), (8, 3, "2/3")]
MERGES = [(2, "3/5", "phi", 3, "1/2"), (3, "2/3", "pnk", 2, "3/5"),
          (4, "1/2", "gmi", 1, "1/3"), (3, "1/2", "phi", 6, "3/5")]
ND_POINTS = 6
SHIFT_PAIRS = 2
PI_INF = [("1/3", 5), ("2/5", 6), ("1/2", 5)]
PI_INF_POINTS = 6
# pi_infinity_value builds pi_N for the level N at which x stabilizes, and N
# grows as x nears 0: a small x stabilizes exactly at level N when
# 2b 8^(2-N) <= x < 2b 8^(3-N).  One seeded point in each band gives a
# fixed ladder of depths, so the seed does not change the cost.
PI_INF_LEVELS = range(4, 10)
SAMPLE_TRIALS = 40


def build_merge_eval(inp: Inputs) -> list:
    gc = inp.gc
    cases = []

    def eval_case(path, tree, x, extra=None):
        """eval at x, checked exactly against the reference; `extra` adds a
        property the value must have."""
        ref = merged_value(tree, x) if "kind" in tree else Fn1D(tree)(x[0])

        def check(text):
            v = Q(text.strip())
            expect(v == ref, f"eval {path} at {x}: {v}, reference {ref}")
            if extra is not None:
                extra(v)
        return inp.cli(["eval", path, "--x=" + ",".join(map(str, x))], 0, check)

    def nd_points(path, tree, n):
        """Seeded points, integer vectors, and x, x + e_i pairs."""
        ops = [[eval_case(path, tree, [inp.rational() for _ in range(n)])]
               for _ in range(ND_POINTS)]
        z = [Q(inp.rng.randint(-3, 3)) for _ in range(n)]
        ops.append([eval_case(path, tree, z,
                              lambda v: expect(v == 0, f"F(z) = {v} at integer z"))])
        for _ in range(SHIFT_PAIRS):
            x = [inp.rational() for _ in range(n)]
            i = inp.rng.randrange(n)
            shifted = list(x)
            shifted[i] += 1
            ref = merged_value(tree, x)
            ops.append([eval_case(path, tree, x), eval_case(
                path, tree, shifted,
                lambda v, ref=ref: expect(v == ref, "F(x + e_i) != F(x)"))])
        return ops

    def built(out, n, b):
        """A constructed n-fold tree: arity n, every parameter b."""
        def check(text):
            expect(f"arity {n}" in text, f"construct: {text[:200]}")
            tree = json.loads(Path(out).read_text())
            expect(arity(tree) == n and b_mass(tree) == n * Q(b),
                   f"constructed tree has arity {arity(tree)}, mass {b_mass(tree)}")
        return check

    for k, b in EVAL_1D:
        obj = gc.constructions.pi_k(k, Q(b)).to_dict()
        p = inp.write(f"pi{k}_{b.replace('/', '-')}.json", obj)
        cases += [[eval_case(p, obj, [inp.rational()])] for _ in range(EVAL_1D_POINTS)]

    trees = {}
    for m, b in PHI:
        tree = gc.seqmerge.phi_m(m, Q(b)).to_dict()
        p = inp.write(f"phi{m}_{b.replace('/', '-')}.json", tree)
        trees[("phi", m, b)] = (p, tree)
        out = inp.path(f"phi{m}_{b.replace('/', '-')}_built.json")
        cases.append([inp.cli(["construct", "phi-m", "--m", str(m), "--b", b,
                               "--out", out], 0, built(out, m, b))])
        cases += nd_points(p, tree, m)
        bq = Q(b)
        for _ in range(ND_POINTS):
            x = [bq * Q(inp.rng.randint(1, 63), 64) for _ in range(m)]
            want = sum(x) / (m * bq)
            cases.append([eval_case(p, tree, x, lambda v, want=want: expect(
                v == want, f"phi_m off sum(x)/(m b) on the low box: {v} != {want}"))])
    for n, k, b in PNK:
        tree = gc.seqmerge.pi_n_k(n, k, Q(b)).to_dict()
        p = inp.write(f"pnk{n}_{k}_{b.replace('/', '-')}.json", tree)
        trees[("pnk", n, b)] = (p, tree)
        out = inp.path(f"pnk{n}_{k}_{b.replace('/', '-')}_built.json")
        cases.append([inp.cli(["construct", "pi-n-k", "--n", str(n), "--k", str(k),
                               "--b", b, "--out", out], 0, built(out, n, b))])
        cases += nd_points(p, tree, n)
    for k, b1, kind, m, b2 in MERGES:
        outer = inp.write(f"refl{k}_{b1.replace('/', '-')}.json",
                          gc.constructions.pi_k_reflected(k, Q(b1)).to_dict())
        if kind == "gmi":
            obj = gc.constructions.gmi(Q(b2)).to_dict()
            inner = inp.write(f"gmi_{b2.replace('/', '-')}.json", obj)
            inner_tree = {"kind": "leaf", "b": b2, "fn": obj}
            flags = ["--b2", b2]
        else:
            key = (kind, m, b2)
            if key not in trees:
                t = (gc.seqmerge.phi_m(m, Q(b2)) if kind == "phi"
                     else gc.seqmerge.pi_n_k(m, 3, Q(b2))).to_dict()
                trees[key] = (inp.write(f"{kind}{m}_{b2.replace('/', '-')}.json", t), t)
            inner, inner_tree = trees[key]
            flags = []
        out = inp.path(f"merged{k}_{b1.replace('/', '-')}_{kind}{m}.json")
        n = 1 + arity(inner_tree)

        def merged(text, out=out, n=n):
            expect(f"arity {n}" in text, f"merge: {text[:200]}")
            expect(arity(json.loads(Path(out).read_text())) == n, "merged tree arity")
        # the merged tree is what the merge must produce by definition; the
        # evals after the merge read the file the merge wrote
        tree = {"kind": "merge", "b1": b1,
                "outer": json.loads(Path(outer).read_text()), "inner": inner_tree}
        chain = [inp.cli(["merge", outer, inner, "--b1", b1, *flags, "--out", out],
                         0, merged)]
        for _ in range(ND_POINTS):
            chain.append(eval_case(out, tree, [inp.rational() for _ in range(n)]))
        cases.append(chain)

    for b, K in PI_INF:
        bq = Q(b)
        obj = gc.constructions.pi_k(K, bq).to_dict()
        trunc = Fn1D(obj)
        bound = truncation_bound(K, bq)
        out = inp.path(f"piinf{K}_{b.replace('/', '-')}.json")
        cases.append([inp.cli(
            ["construct", "pi-inf", "--K", str(K), "--b", b, "--out", out], 0,
            lambda text, bound=bound: expect(f"uniform error bound {bound}" in text,
                                             f"construct pi-inf: {text[:200]}"))])
        points = [Q(inp.rng.randint(1, 95), 96) for _ in range(PI_INF_POINTS)]
        points += [2 * bq * Q(8) ** (2 - n) * (1 + Q(7 * inp.rng.randint(0, 63), 64))
                   for n in PI_INF_LEVELS]
        for x in points:
            def close(v, x=x, trunc=trunc, bound=bound):
                expect(abs(v - trunc(x)) <= bound,
                       f"|pi_inf({x}) - pi_K({x})| = {abs(v - trunc(x))} > {bound}")
            cases.append([Op("pi_infinity_value",
                             lambda x=x, bq=bq:
                             inp.gc.constructions.pi_infinity_value(x, bq), close)])

    for key in (("pnk", 5, "1/2"), ("phi", 4, "3/5"), ("pnk", 8, "2/3")):
        F = gc.seqmerge.MergedFn.from_dict(trees[key][1])
        seed = inp.rng.randrange(2 ** 31)
        cases.append([Op(
            "sample_subadditivity_nd",
            lambda F=F, seed=seed:
            inp.gc.seqmerge.sample_subadditivity_nd(F, SAMPLE_TRIALS, seed),
            lambda c: expect(c.passed, f"sampled violation: {c.witness}"))])
    return cases


WORKLOADS = {"verify": build_verify, "certify": build_certify,
             "merge-eval": build_merge_eval}
