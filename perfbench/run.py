"""groupcut benchmark: one closed-loop, single-client workload per process.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

The run builds nothing: it imports groupcut from `src/` of the checkout it
sits in.  Set-up (importing groupcut and writing the seeded input files)
runs SETUP_REPEATS times and `setup_s` is their median.  The timed phase
then issues rounds: every round runs all of the workload's operations, in
an order shuffled afresh from the seed, and checks every output.  After
the first two, a new round starts only if it is expected to end within
--seconds, so a run always ends on a whole round.

Every operation is timed between calibration samples: a fixed piece of
pure-Python exact arithmetic that shares no code with groupcut.  The
operation's wall time is scaled by REFERENCE_CAL_S over the calibration
time around it, which removes the changes in speed of a shared machine and
gives the time the operation takes at the reference machine's usual speed.
`run_s` is one round's time, summed from each operation's median scaled
latency over the rounds; `op_p50_ms` and `op_p90_ms` are percentiles over
every operation of every round; `setup_s` is scaled the same way.

With `--trace 0` the last line of standard output holds the end-to-end
metrics; with `--trace 1`, untraced and traced rounds alternate and the last
line holds the per-layer metrics named in BENCHMARK.json, per round.
`--smoke` runs every workload for one round, in a child process each, and
exits 1 if any output is wrong.
"""
from __future__ import annotations

import argparse
import importlib
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
from bisect import bisect_right
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import Tracer, counts            # noqa: E402
from workloads import WORKLOADS, Failure, Inputs  # noqa: E402

SETUP_REPEATS = 9
DEFAULT_SEED = 1
HELD_OUT_SEED = 7
REFERENCE_CAL_S = 0.0013   # the median of calibrate() on the reference machine
MODULES = ("cli", "pwl", "constructions", "verification", "extremality", "seqmerge")
OUT_DIR = ROOT / ".perfbench_run"


def load_groupcut() -> SimpleNamespace:
    """Import groupcut from the checkout afresh, dropping any earlier import,
    so that every set-up pays the import."""
    for name in [n for n in sys.modules if n == "groupcut" or n.startswith("groupcut.")]:
        del sys.modules[name]
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    package = importlib.import_module("groupcut")
    mods = {m: importlib.import_module(f"groupcut.{m}") for m in MODULES}
    return SimpleNamespace(package=package, modules=mods, **mods)


def set_up(workload: str, seed: int, work: Path):
    t0 = perf_counter()
    gc = load_groupcut()
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    cases = WORKLOADS[workload](Inputs(gc, work, random.Random(seed)))
    return perf_counter() - t0, gc, cases


# One calibration sample: a fixed piece of pure-Python exact arithmetic, like
# the program's own, that shares no code with it.  Timing it next to every
# operation measures how fast the shared machine runs at that moment.
_CAL_POINTS = [Fraction(i, 97) for i in range(1, 97)]
_CAL_SLOPES = [Fraction(s, 5) for s in (-3, 2, 7)]


def calibrate() -> float:
    """Seconds one calibration sample takes now."""
    t0 = perf_counter()
    acc = Fraction(0)
    for x in _CAL_POINTS:
        i = bisect_right(_CAL_POINTS, x / 2)
        acc = max(acc, (x * _CAL_SLOPES[i % 3] + Fraction(1, 7)) % 1)
    return perf_counter() - t0


def scaled(dt: float, cal: float) -> float:
    """A wall time at the reference speed, given the calibration time
    measured next to it."""
    return dt * REFERENCE_CAL_S / cal


def run_round(cases, rng, failures) -> list:
    """Issue every operation once, in a seeded order of cases, and check
    each output; return (operation, scaled seconds, wall seconds) per
    operation.  Only the calls are timed, not the checks."""
    order = list(cases)
    rng.shuffle(order)
    timed = []
    cal = calibrate()
    for case in order:
        for op in case:
            t0 = perf_counter()
            try:
                result, err = op.run(), None
            except Exception as exc:      # an operation that raises has failed
                result, err = None, exc
            dt = perf_counter() - t0
            # a long operation gets more samples, since one sample is noisy
            cal_after = statistics.median(
                calibrate() for _ in range(1 + min(6, int(dt / 0.05))))
            timed.append((op, scaled(dt, (cal + cal_after) / 2), dt))
            cal = cal_after
            try:
                if err is not None:
                    raise Failure(f"{op.verb} raised {err!r}")
                op.check(result)
            except Exception as exc:      # a failed check, or output that cannot be read
                failures.append(f"{op.verb}: {exc}")
    return timed


def round_time(timed, wall=False) -> float:
    """One round's time: the sum over operations of each one's median
    scaled (or wall) latency across the rounds."""
    per_op = {}
    for op, dt, wall_dt in timed:
        per_op.setdefault(id(op), []).append(wall_dt if wall else dt)
    return sum(statistics.median(v) for v in per_op.values())


def per_layer(names, traced, ops_per_round, verb_ms, traced_s, overhead) -> dict:
    """Per-round values of the per-layer metrics from the traced rounds.
    Times are wall seconds, like the spans they come from."""
    n = len(traced)

    def stat(fn, st):
        return sum(t.get(fn, {}).get(st, 0) for t in traced) / n

    out = {}
    for name in names:
        parts = name.split(".")
        if parts[0] == "trace":
            out[name] = {"overhead": overhead, "run_s": traced_s}[parts[1]]
        elif parts[0] == "cli" and parts[-1] == "p50_ms":
            lat = verb_ms.get(parts[1])
            out[name] = statistics.median(lat) if lat else 0.0
        elif len(parts) == 2:          # a whole layer's self time
            out[name] = sum(stat(fn, "self_s") for fn in {f for t in traced for f in t}
                            if fn.split(".")[0] == parts[0])
        elif parts[-1] == "calls_per_op":
            out[name] = stat(".".join(parts[:2]), "calls") / ops_per_round
        else:
            out[name] = stat(".".join(parts[:2]), parts[2])
    return out


def run_workload(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work_root = OUT_DIR / f"work-{args.workload}-{args.seed}"
    setup_times = []
    try:
        cal = calibrate()
        for i in range(SETUP_REPEATS):
            dt, gc, cases = set_up(args.workload, args.seed, work_root / f"setup{i}")
            cal_after = calibrate()
            setup_times.append(scaled(dt, (cal + cal_after) / 2))
            cal = cal_after
        failures, timed_all = [], {False: [], True: []}   # untraced / traced
        traced_totals = []
        span_file = None
        if args.trace:
            span_file = open(OUT_DIR / f"spans-{args.workload}-{args.seed}.tsv", "w")
            span_file.write("round\tid\tname\tstart\tend\tparent\tself_s\n")
        t_phase = perf_counter()
        r = 0
        while True:
            traced = bool(args.trace) and r % 2 == 1
            rng = random.Random(args.seed * 1_000_003 + r)
            tracer = None
            if traced:
                tracer = Tracer(gc.package, gc.modules)
                tracer.install()
            try:
                timed = run_round(cases, rng, failures)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            if tracer is not None:
                traced_totals.append(tracer.totals())
                tracer.write_spans(span_file, r)
            timed_all[traced].extend(timed)
            r += 1
            elapsed = perf_counter() - t_phase
            if args.rounds:
                if r >= args.rounds:
                    break
            elif r >= 2 and elapsed + elapsed / r > args.seconds:
                break
    finally:
        if span_file is not None:
            span_file.close()
        shutil.rmtree(work_root, ignore_errors=True)

    for msg in failures[:20]:
        print(f"FAILED {msg}", file=sys.stderr)
    if args.trace:
        if any(counts(t) != counts(traced_totals[0]) for t in traced_totals[1:]):
            print("warning: per-layer counts differ between traced rounds",
                  file=sys.stderr)
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        verb_ms = {}
        for op, _, wall_dt in timed_all[True]:
            verb_ms.setdefault(op.verb, []).append(wall_dt * 1000)
        values = per_layer(
            names, traced_totals, len(timed_all[True]) / len(traced_totals), verb_ms,
            round_time(timed_all[True], wall=True),
            round_time(timed_all[True]) / round_time(timed_all[False]))
    else:
        lat_ms = [dt * 1000 for _, dt, _ in timed_all[False]]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = {
            "setup_s": statistics.median(setup_times),
            "run_s": round_time(timed_all[False]),
            "op_p50_ms": statistics.median(lat_ms),
            "op_p90_ms": statistics.quantiles(lat_ms, n=10)[8],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    attempted = len(timed_all[False]) + len(timed_all[True])
    print(f"workload {args.workload}, seed {args.seed}, {r} rounds, "
          f"{attempted} operations, {len(failures)} failed")
    for name, v in values.items():
        print(f"  {name} = {v:.6g} {units[name]}")
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }))
    return 0


def smoke() -> int:
    """Every workload for one round, with every check."""
    ok = True
    for w in WORKLOADS:
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", w, "--seed", "1",
             "--seconds", "1", "--trace", "0", "--rounds", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=170)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        good = bool(result and result["correct"] and result["failed"] == 0)
        ok = ok and good
        print(f"{w}: {'ok' if good else 'FAILED'} ({perf_counter() - t0:.1f} s, "
              f"{result['attempted'] if result else 0} operations)")
        if not good:
            print(proc.stdout[-2000:] + proc.stderr[-2000:], file=sys.stderr)
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"input seed (default {DEFAULT_SEED}; seed {HELD_OUT_SEED} is "
                        "held out for confirming a claimed gain)")
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--rounds", type=int, default=0,
                   help="run exactly this many rounds instead of --seconds")
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        p.error("--workload is required")
    if not (ROOT / "src" / "groupcut" / "__init__.py").is_file():
        print(f"error: no groupcut sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
