"""Command-line surface: construct, evaluate, verify, certify, merge, and
plot cut-generating functions over the JSON interchange format.

Exit codes: 0 = pass/success, 1 = verified failure (a certificate with a
witness was produced), 2 = usage or I/O error.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import constructions, extremality, seqmerge, verification
from .errors import DomainError, FormatError, NotMinimal
from .pwl import PeriodicPWL, rat, rat_str


class _UsageError(Exception):
    pass


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError: malformed JSON, bad UTF-8 or an integer literal past
        # the int-to-str digit limit; RecursionError: nesting too deep
        raise _UsageError(f"cannot read {path}: {exc}") from exc


def _load_pwl(path: str) -> PeriodicPWL:
    obj = _load_json(path)
    if isinstance(obj, dict) and obj.get("kind") in ("leaf", "merge"):
        raise _UsageError(f"{path} holds a merged function; a 1-D function "
                          "is required here")
    return PeriodicPWL.from_dict(obj)


def _load_any(path: str):
    obj = _load_json(path)
    if isinstance(obj, dict) and obj.get("kind") in ("leaf", "merge"):
        return seqmerge.MergedFn.from_dict(obj)
    return PeriodicPWL.from_dict(obj)


def _write_json(path: str, obj: dict) -> None:
    try:
        Path(path).write_text(json.dumps(obj, indent=2) + "\n")
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc}") from exc


def _print_cert(cert) -> int:
    print(json.dumps(cert.to_dict(), indent=2))
    return 0 if cert.passed else 1


def _print_arity(F: seqmerge.MergedFn) -> None:
    print(f"arity {F.arity}, b-vector "
          f"[{', '.join(rat_str(v) for v in F.b_vector)}]")


def _print_not_minimal(exc: NotMinimal, **extra) -> int:
    print(json.dumps({"verdict": "fail", "stage": "minimality", **extra,
                      **exc.certificate.to_dict()}, indent=2))
    return 1


# ---------------------------------------------------------------------------
# verbs
# ---------------------------------------------------------------------------

def cmd_construct(args) -> int:
    kind = args.kind
    if kind == "gmi":
        f = constructions.gmi(args.b)
        out_obj, summary = f.to_dict(), f
    elif kind == "pi-k":
        if args.k is None:
            raise _UsageError("construct pi-k requires --k")
        f = constructions.pi_k(args.k, args.b)
        out_obj, summary = f.to_dict(), f
    elif kind == "pi-inf":
        if args.K is None:
            raise _UsageError("construct pi-inf requires --K (truncation level)")
        f = constructions.pi_k(args.K, args.b)
        out_obj, summary = f.to_dict(), f
        print(f"truncation level {args.K}, uniform error bound "
              f"{rat_str(constructions.truncation_bound(args.K, args.b))}")
    elif kind == "phi-m":
        if args.m is None:
            raise _UsageError("construct phi-m requires --m")
        F = seqmerge.phi_m(args.m, args.b)
        out_obj, summary = F.to_dict(), None
        _print_arity(F)
    else:   # pi-n-k, the last of argparse's choices
        if args.n is None or args.k is None:
            raise _UsageError("construct pi-n-k requires --n and --k")
        F = seqmerge.pi_n_k(args.n, args.k, args.b)
        out_obj, summary = F.to_dict(), None
        _print_arity(F)
    if summary is not None:
        slopes = sorted(summary.slopes())
        print(f"breakpoints: {len(summary.P)}")
        print(f"slopes ({len(slopes)}): "
              f"[{', '.join(rat_str(s) for s in slopes)}]")
    if args.out:
        _write_json(args.out, out_obj)
        print(f"wrote {args.out}")
    else:
        print(json.dumps(out_obj))
    return 0


def cmd_eval(args) -> int:
    F = _load_any(args.path)
    coords = [rat(tok) for tok in args.x.split(",")]
    if isinstance(F, PeriodicPWL):
        if len(coords) != 1:
            raise _UsageError("1-D function takes a single --x value")
        val = F.eval(coords[0])
    else:
        val = seqmerge.eval_merged(F, coords)
    print(rat_str(val))
    return 0


def cmd_verify(args) -> int:
    f = _load_pwl(args.path)
    check = args.check
    if check in ("minimal", "symmetry") and args.b is None:
        raise _UsageError(f"verify {check} requires --b")
    if check == "minimal":
        cert = verification.check_minimal(f, args.b)
    elif check == "subadditive":
        cert = verification.check_subadditive(f)
    elif check == "symmetry":
        cert = verification.check_symmetry(f, args.b)
    elif check == "slopes":
        if args.k is None or args.b is None:
            raise _UsageError("verify slopes requires --k and --b")
        cert = verification.check_slope_census(f, args.k, args.b)
    else:   # zero-set, the last of argparse's choices
        cert = verification.check_zero_set(f)
    return _print_cert(cert)


def cmd_certify(args) -> int:
    if args.mode == "replay" and args.k is None:
        raise _UsageError("certify --mode replay requires --k")
    f = _load_pwl(args.path)
    b = args.b
    try:    # each mode gates on minimality itself, once
        if args.mode == "pwl-perturbation":
            result = extremality.restricted_facet_test(f, b, args.refine)
            print(json.dumps(result.to_dict(), indent=2))
            return 0 if result.verdict == "certified_unique" else 1
        if args.mode == "replay":
            return _print_cert(extremality.replay_pi_k_facet_proof(args.k, b, f))
        return _print_cert(extremality.two_slope_shortcut(f, b))
    except NotMinimal as exc:
        return _print_not_minimal(exc)


def cmd_merge(args) -> int:
    outer = _load_pwl(args.outer)
    inner = _load_any(args.inner)    # a merged file is checked here: exit 2
    if isinstance(inner, seqmerge.MergedFn):
        if args.b2 is not None:    # a merged file carries its own parameters
            raise _UsageError("--b2 applies only to a plain 1-D inner function")
        nodes = inner.nodes
    elif args.b2 is None:
        raise _UsageError("plain 1-D inner function requires --b2")
    else:
        nodes = ((inner, args.b2),)
    try:    # the outer at --b1 is f1, a plain inner at --b2 is f2
        F = seqmerge.MergedFn(((outer, args.b1),) + nodes)
    except NotMinimal as exc:   # "f<i> is not minimal at b<i> = <b>: <witness>"
        return _print_not_minimal(exc, reason=str(exc).partition(": ")[0])
    lift_ok = seqmerge.check_lift_nondecreasing(outer, args.b1)
    if not lift_ok.passed:
        print("warning: the outer lift is not nondecreasing; the merge is "
              "defined but the minimality theorem's hypothesis fails",
              file=sys.stderr)
    _write_json(args.out, F.to_dict())
    _print_arity(F)
    print(f"wrote {args.out}")
    return 0


def _svg(f: PeriodicPWL) -> str:
    # floats appear only here, at the final coordinate mapping
    W, H, PAD = 640, 360, 40
    vals = f.values
    pts = list(zip(f.breakpoints, vals))
    pts.append((Fraction(1), vals[0]))
    # [lo, hi] = [min(0, values), max(0, values)] fills the height; a
    # function that is 0 everywhere is drawn on the unit range
    lo, hi = min(0, *vals), max(0, *vals)
    if lo == hi:
        hi = Fraction(1)

    def mx(x):
        return PAD + float(x) * (W - 2 * PAD)

    def my(y):
        return H - PAD - float((y - lo) / (hi - lo)) * (H - 2 * PAD)

    poly = " ".join(f"{mx(x):.2f},{my(y):.2f}" for x, y in pts)
    marks = "".join(
        f'<circle cx="{mx(x):.2f}" cy="{my(y):.2f}" r="3" fill="#c00"/>'
        for x, y in pts)
    axes = (f'<line x1="{PAD}" y1="{H-PAD}" x2="{W-PAD}" y2="{H-PAD}" '
            f'stroke="#888"/>'
            f'<line x1="{PAD}" y1="{PAD}" x2="{PAD}" y2="{H-PAD}" '
            f'stroke="#888"/>')
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" '
            f'height="{H}" viewBox="0 0 {W} {H}">{axes}'
            f'<polyline points="{poly}" fill="none" stroke="#06c" '
            f'stroke-width="1.5"/>{marks}</svg>\n')


def cmd_plot(args) -> int:
    f = _load_pwl(args.path)
    out = args.out
    suffix = Path(out).suffix.lower()
    if suffix not in (".csv", ".svg"):
        raise _UsageError("plot output must end in .csv or .svg")
    try:    # every float is computed before --out is opened
        if suffix == ".svg":
            text = _svg(f)
        else:
            buf = io.StringIO()
            w = csv.writer(buf)
            w.writerow(["x", "value", "kind"])
            w.writerows([rat_str(x), rat_str(v), "breakpoint"]
                        for x, v in zip(f.breakpoints, f.values))
            xs = [Fraction(i, args.samples) for i in range(args.samples + 1)]
            w.writerows([float(x), float(f.eval(x)), "sample"] for x in xs)
            text = buf.getvalue()
    except OverflowError:
        raise _UsageError(f"cannot plot {args.path}: a value is outside "
                          "the float range") from None
    try:
        Path(out).write_text(text, newline="")
    except OSError as exc:
        raise _UsageError(f"cannot write {out}: {exc}") from exc
    print(f"wrote {out}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _rhs(text: str) -> Fraction:
    """A right-hand side b, b1 or b2: an exact rational in (0, 1).  Checked
    here for every verb; `check_minimal` would read b = 3/2 as b = 1/2."""
    try:
        b = rat(text)
    except FormatError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not 0 < b < 1:
        raise argparse.ArgumentTypeError(
            f"right-hand side b must lie in (0, 1), got {b}")
    return b


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _at_most(n: int, cap: int) -> int:
    if n > cap:
        raise argparse.ArgumentTypeError(f"must be at most {cap}, got {n}")
    return n


def _positive_int(text: str, cap: int) -> int:
    n = _int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {n}")
    return _at_most(n, cap)


# pi_k has about 4k breakpoints of about 3k bits each, so its size grows as
# k^2 bits and k = 10^5 would need tens of GB.  At 64 every verb ends within a
# second: on a shared 2-core Xeon, `python -m groupcut.cli` takes 0.12 s for
# verify minimal on pi_64(1/3), 0.13 s for certify --mode replay --k 64 and
# 0.13 s for eval of the pi-n-k --n 64 --k 64 --b 2/3 file (medians of 21
# interleaved runs, the fastest 0.10 s), of which check_minimal on pi_64(1/3)
# takes 0.02 s and loading the pi-n-k file, with its minimality check, 0.02 s
# (best of 7, in one process)
MAX_LEVEL = 64
# the facet test's grid has about 2d points: on a 2-core Xeon, certify of
# pi_8(1/2) takes 0.15 s at --refine 1024 and 1.4 s at 4096
MAX_REFINE = 1024
# each CSV sample is one exact evaluation: 16384 of them take 0.5 s there
MAX_SAMPLES = 16384


def _level(text: str) -> int:
    """A level --k, --K, --m or --n: an int at most MAX_LEVEL.  Its lower
    bound is the library's, which differs per construction."""
    return _at_most(_int(text), MAX_LEVEL)


def _refine(text: str) -> int:
    return _positive_int(text, MAX_REFINE)


def _samples(text: str) -> int:
    return _positive_int(text, MAX_SAMPLES)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@functools.cache   # one parser per process: building it costs more than an eval
def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="groupcut",
                description="Exact construction and verification of periodic "
                            "piecewise-linear cut-generating functions.")
    sub = p.add_subparsers(dest="verb", required=True)

    c = sub.add_parser("construct", help="build a function and write it as JSON")
    c.add_argument("kind", choices=["gmi", "pi-k", "pi-inf", "phi-m", "pi-n-k"])
    c.add_argument("--b", type=_rhs, required=True,
                   help="right-hand-side parameter, p/q in (0, 1)")
    c.add_argument("--k", type=_level)
    c.add_argument("--K", type=_level, help="truncation level for pi-inf")
    c.add_argument("--n", type=_level)
    c.add_argument("--m", type=_level)
    c.add_argument("--out")
    c.set_defaults(func=cmd_construct)

    e = sub.add_parser("eval", help="evaluate a function at a rational point")
    e.add_argument("path")
    e.add_argument("--x", required=True,
                   help="rational p/q, comma-separated for merged functions")
    e.set_defaults(func=cmd_eval)

    v = sub.add_parser("verify", help="run a verification check, print a certificate")
    v.add_argument("check", choices=["minimal", "subadditive", "symmetry",
                                     "slopes", "zero-set"])
    v.add_argument("path")
    v.add_argument("--b", type=_rhs)
    v.add_argument("--k", type=_level)
    v.set_defaults(func=cmd_verify)

    ce = sub.add_parser("certify", help="run an extremality certification")
    ce.add_argument("path")
    ce.add_argument("--b", type=_rhs, required=True)
    ce.add_argument("--mode", required=True,
                    choices=["pwl-perturbation", "replay", "two-slope"])
    ce.add_argument("--refine", type=_refine, default=16,
                    help="refinement denominator for pwl-perturbation, "
                         f"at most {MAX_REFINE}")
    ce.add_argument("--k", type=_level, help="level for replay mode")
    ce.set_defaults(func=cmd_certify)

    m = sub.add_parser("merge", help="sequential-merge an outer function over an inner one")
    m.add_argument("outer")
    m.add_argument("inner")
    m.add_argument("--b1", type=_rhs, required=True)
    m.add_argument("--b2", type=_rhs, help="parameter for a plain 1-D inner function")
    m.add_argument("--out", required=True)
    m.set_defaults(func=cmd_merge)

    pl = sub.add_parser("plot", help="export a CSV or SVG plot")
    pl.add_argument("path")
    pl.add_argument("--out", required=True, help="output file, .csv or .svg")
    pl.add_argument("--samples", type=_samples, default=256,
                    help=f"uniform float samples added to a .csv, at most "
                         f"{MAX_SAMPLES} (an .svg draws the exact "
                         "breakpoints only)")
    pl.set_defaults(func=cmd_plot)

    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (_UsageError, DomainError, FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
