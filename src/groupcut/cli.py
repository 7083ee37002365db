"""Command-line surface: construct, evaluate, verify, certify, merge, and
plot cut-generating functions over the JSON interchange format.

Exit codes: 0 = pass/success, 1 = verified failure (a certificate with a
witness was produced), 2 = usage or I/O error.
"""
from __future__ import annotations

import csv
import io
import json
import re
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

from . import constructions, extremality, seqmerge, verification
from .errors import DomainError, FormatError, NotMinimal
from .pwl import PeriodicPWL, _pair, rat, rat_str


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
        f = constructions.pi_k(args.k, args.b)
        out_obj, summary = f.to_dict(), f
    elif kind == "pi-inf":
        f = constructions.pi_k(args.K, args.b)
        out_obj, summary = f.to_dict(), f
        print(f"truncation level {args.K}, uniform error bound "
              f"{rat_str(constructions.truncation_bound(args.K, args.b))}")
    elif kind == "phi-m":
        F = seqmerge.phi_m(args.m, args.b)
        out_obj, summary = F.to_dict(), None
        _print_arity(F)
    else:   # pi-n-k, the last of the choices
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
    coords = args.x.split(",")      # text: each reader takes it as an int pair
    if isinstance(F, PeriodicPWL):
        if len(coords) != 1:
            for tok in coords:      # a bad token is reported before the count
                _pair(tok)
            raise _UsageError("1-D function takes a single --x value")
        val = F.eval(coords[0])
    else:
        val = seqmerge.eval_merged(F, coords)
    print(rat_str(val))
    return 0


def cmd_verify(args) -> int:
    check = args.check
    f = _load_pwl(args.path)
    if check == "minimal":
        cert = verification.check_minimal(f, args.b)
    elif check == "subadditive":
        cert = verification.check_subadditive(f)
    elif check == "symmetry":
        cert = verification.check_symmetry(f, args.b)
    elif check == "slopes":
        cert = verification.check_slope_census(f, args.k, args.b)
    else:   # zero-set, the last of the choices
        cert = verification.check_zero_set(f)
    return _print_cert(cert)


def cmd_certify(args) -> int:
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
        raise _UsageError(str(exc)) from None
    if not 0 < b < 1:
        raise _UsageError(f"right-hand side b must lie in (0, 1), got {b}")
    return b


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise _UsageError(f"invalid int value: {text!r}") from None


def _at_most(n: int, cap: int) -> int:
    if n > cap:
        raise _UsageError(f"must be at most {cap}, got {n}")
    return n


def _positive_int(text: str, cap: int) -> int:
    n = _int(text)
    if n < 1:
        raise _UsageError(f"must be a positive integer, got {n}")
    return _at_most(n, cap)


# pi_k has about 4k breakpoints of about 3k bits each, so its size grows as
# k^2 bits and k = 10^5 would need tens of GB.  At 64 every verb ends within a
# second: on a shared 2-core Xeon, Python 3.11, with no bytecode cache,
# `python -m groupcut.cli` takes 0.10 s for verify minimal on pi_64(1/3),
# 0.10 s for certify --mode replay --k 64 on that file and 0.10 s for eval of
# the pi-n-k --n 64 --k 64 --b 2/3 file at 64 coordinates (medians of 41
# interleaved runs, the fastest 0.09 s), most of it interpreter start-up and
# import: in one process check_minimal on pi_64(1/3) takes 0.015 s and the
# whole replay, its gate included, 0.026 s (best of 7)
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


# verb -> (handler, help, positionals, flags).  A positional is (name,
# reader); a flag maps to (reader, default, required, help).  A reader is a
# function of the text or a dict of choices, which maps each choice to the
# flags that choice reads: those flags are refused with any other choice,
# and required with it unless they have a default.  The handler reads each
# argument as an attribute named after it, without the dashes.
_VERBS = {
    "construct": (cmd_construct, "build a function and write it as JSON",
                  (("kind", {"gmi": (), "pi-k": ("--k",), "pi-inf": ("--K",),
                             "phi-m": ("--m",), "pi-n-k": ("--n", "--k")}),),
                  {"--b": (_rhs, None, True, "right-hand-side parameter, p/q in (0, 1)"),
                   "--k": (_level, None, False, "level"),
                   "--K": (_level, None, False, "truncation level"),
                   "--n": (_level, None, False, "dimension"),
                   "--m": (_level, None, False, "dimension"),
                   "--out": (str, None, False, "output file; stdout without it")}),
    "eval": (cmd_eval, "evaluate a function at a rational point",
             (("path", str),),
             {"--x": (str, None, True,
                      "rational p/q, comma-separated for merged functions")}),
    "verify": (cmd_verify, "run a verification check, print a certificate",
               (("check", {"minimal": ("--b",), "subadditive": (),
                           "symmetry": ("--b",), "slopes": ("--k", "--b"),
                           "zero-set": ()}), ("path", str)),
               {"--b": (_rhs, None, False, "right-hand-side parameter, p/q in (0, 1)"),
                "--k": (_level, None, False, "level")}),
    "certify": (cmd_certify, "run an extremality certification",
                (("path", str),),
                {"--b": (_rhs, None, True, "right-hand-side parameter, p/q in (0, 1)"),
                 "--mode": ({"pwl-perturbation": ("--refine",), "replay": ("--k",),
                             "two-slope": ()}, None, True, "the certificate to run"),
                 "--refine": (_refine, 16, False,
                              f"refinement denominator, at most {MAX_REFINE}"),
                 "--k": (_level, None, False, "level")}),
    "merge": (cmd_merge, "sequential-merge an outer function over an inner one",
              (("outer", str), ("inner", str)),
              {"--b1": (_rhs, None, True, "parameter for the outer function"),
               "--b2": (_rhs, None, False, "parameter for a plain 1-D inner function"),
               "--out": (str, None, True, "output file")}),
    "plot": (cmd_plot, "export a CSV or SVG plot",
             (("path", str),),
             {"--out": (str, None, True, "output file, .csv or .svg"),
              "--samples": (_samples, 256, False,
                            f"uniform float samples added to a .csv, at most "
                            f"{MAX_SAMPLES} (an .svg draws the exact "
                            "breakpoints only)")}),
}
_HELP = ("-h", "--help")
_NEGATIVE = re.compile(r"-\d+$|-\d*\.\d+$")


def _read(name: str, reader, text: str):
    """The value of argument `name` given as text: one of the keys of a
    dict of choices, or what the reader function makes of it."""
    if isinstance(reader, dict):
        if text in reader:
            return text
        raise _UsageError(f"argument {name}: invalid choice: {text!r} "
                          f"(choose from {', '.join(map(repr, reader))})")
    try:
        return reader(text)
    except _UsageError as exc:
        raise _UsageError(f"argument {name}: {exc}") from None


def _option(names, token: str):
    """How an argv token reads: None for a value, else (flag, the value
    attached by '=' or None), flag None when no flag in `names` matches.
    A flag may be shortened to a unique prefix.  A token that starts with
    '-' is a value only if it is '-', a negative number or holds a space."""
    if token[:1] != "-" or token == "-":
        return None
    name, eq, value = token.partition("=")
    value = value if eq else None
    if name in names:
        return name, value
    if name[:2] == "--" and len(name) > 2:
        hits = [flag for flag in names if flag.startswith(name)]
        if len(hits) > 1:
            raise _UsageError(f"ambiguous option: {token} could match "
                              f"{', '.join(hits)}")
        if hits:
            return hits[0], value
    if _NEGATIVE.match(token) or " " in token:
        return None
    return None, None


def _help(verb=None) -> str:
    """What -h or --help prints: every verb's usage, or one verb's usage
    and the help of its flags, led by the choices that read each."""
    lines = []
    for name in _VERBS if verb is None else (verb,):
        _, text, positionals, flags = _VERBS[name]
        words = [f"{{{','.join(r)}}}" if isinstance(r, dict) else p
                 for p, r in positionals]
        for flag, (r, _, required, _) in flags.items():
            word = f"{flag} " + (f"{{{','.join(r)}}}" if isinstance(r, dict)
                                 else flag[2:].upper())
            words.append(word if required else f"[{word}]")
        lines += [f"usage: groupcut {name} {' '.join(words)}", f"  {text}"]
    if verb is None:
        lines += ["", "Exact construction and verification of periodic "
                  "piecewise-linear cut-generating functions."]
    else:
        by = {f: f"for {', '.join(c)}: " for f, c in _PLANS[verb][2].items()}
        lines += [f"  {flag:<10} {by.get(flag, '')}{help_}" + (
            "" if default is None else f" (default {default})")
            for flag, (_, default, _, help_) in flags.items()]
    return "\n".join(lines) + "\n"


def _plan(verb: str, positionals, flags) -> tuple:
    """(start values, choice rule or None, each flag some choice reads ->
    its choices), derived once from a verb's entry.  Such a flag starts at
    None, so a value means it was given.  The rule is (choice argument,
    the words before a choice, choice -> the flags it reads)."""
    values = {flag[2:]: spec[1] for flag, spec in flags.items()}
    for name, reads in (*positionals, *((f, spec[0]) for f, spec in flags.items())):
        if isinstance(reads, dict):
            readers = {flag: by for flag in flags
                       if (by := tuple(c for c, read in reads.items() if flag in read))}
            values.update(dict.fromkeys((flag[2:] for flag in readers), None))
            where = f"{verb} {name} " if name in flags else f"{verb} "
            return values, (name.lstrip("-"), where, reads), readers
    return values, None, {}


_PLANS = {verb: _plan(verb, *spec[2:]) for verb, spec in _VERBS.items()}


def _print_help(text: str) -> int:
    print(text, end="")
    return 0


def _parse(argv: list) -> tuple:
    """(handler, arguments) for argv, read in one pass against `_VERBS`:
    `--flag value` or `--flag=value`, the last of a repeated flag winning.
    -h or --help gives (`_print_help`, its text).  A usage fault raises
    `_UsageError`; a missing argument or an unknown token is reported
    only once the whole argv has been read."""
    tokens, extras = iter(argv), []
    for verb in tokens:             # the verb is the first value
        opt = _option(_HELP, verb)
        if opt is None:
            break
        if opt[0] is not None:
            return _print_help, _help()
        extras.append(verb)
    else:
        raise _UsageError("the following arguments are required: verb")
    handler, _, positionals, flags = _VERBS[_read("verb", _VERBS, verb)]
    names = (*flags, *_HELP)
    start, rule, readers = _PLANS[verb]
    values = dict(start)
    filled = 0
    for token in tokens:
        opt = _option(names, token)
        if opt is None:             # the next positional, or an extra
            if filled < len(positionals):
                name, reader = positionals[filled]
                values[name] = _read(name, reader, token)
                filled += 1
            else:
                extras.append(token)
            continue
        flag, value = opt
        if flag is None:
            extras.append(token)
            continue
        if flag in _HELP:
            if value is not None:
                raise _UsageError(f"argument -h/--help: ignored explicit "
                                  f"argument {value!r}")
            return _print_help, _help(verb)
        if value is None:
            value = next(tokens, None)
            if value is None or _option(names, value) is not None:
                raise _UsageError(f"argument {flag}: expected one argument")
        values[flag[2:]] = _read(flag, flags[flag][0], value)
    # a required flag has no default, and no reader returns None
    missing = [name for name, _ in positionals[filled:]]
    missing += [flag for flag, (_, _, required, _) in flags.items()
                if required and values[flag[2:]] is None]
    if missing:
        raise _UsageError(f"the following arguments are required: "
                          f"{', '.join(missing)}")
    if extras:
        raise _UsageError(f"unrecognized arguments: {' '.join(extras)}")
    if rule is not None:    # the chosen choice reads its own flags only
        name, where, reads = rule
        choice = values[name]
        for flag, by in readers.items():
            if choice not in by and values[flag[2:]] is not None:
                raise _UsageError(f"{flag} applies only to {where}"
                                  f"{' and '.join(by)}")
        for flag in reads[choice]:
            if values[flag[2:]] is None:
                if flags[flag][1] is None:
                    raise _UsageError(f"{where}{choice} requires "
                                      f"{' and '.join(reads[choice])}")
                values[flag[2:]] = flags[flag][1]
    return handler, SimpleNamespace(**values)


def main(argv=None) -> int:
    try:
        handler, args = _parse(sys.argv[1:] if argv is None else argv)
        return handler(args)
    except (_UsageError, DomainError, FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
