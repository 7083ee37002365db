"""Tracing from outside the program: wrap groupcut's public functions at
every name they are bound to, record a span per call, and turn the spans
into per-layer figures.

A span is (id, name, start, end, parent id, self time, outermost).  Self
time is the span's duration minus the durations of the traced calls made
from it on the same thread.  Work that `check_subadditive` hands to its
thread pool runs on other threads, so it counts as the caller's self time;
the pool's `eval` and `delta` calls are still counted and timed.

`PeriodicPWL.eval` and `delta` run over 10^5 times per round, so
they keep per-thread totals instead of one span per call.  `rat` and
`rat_str` (string/number coercion) and `piece_slope` (a step of `eval`)
are left unwrapped: wrapping them would cost more than the work they do.
"""
from __future__ import annotations

import inspect
import itertools
import threading
from time import perf_counter

LEAVES = frozenset({"pwl.eval", "pwl.delta"})
UNWRAPPED = frozenset({"rat", "rat_str"})   # piece_slope is left out of PWL_METHODS
PWL_METHODS = ("eval", "__call__", "delta", "canonical", "slopes", "reflect",
               "refine_to", "from_points", "from_dict", "to_dict", "from_json",
               "to_json")
MERGED_METHODS = ("from_dict", "to_dict")

# work done, read from a traced call's result: name -> {stat: counter}
WORK = {
    "verification.subadditivity_vertex_pairs": {"pairs": len},
    "verification.check_subadditive": {"checked": lambda c: c.checked_count},
    "verification.brute_force_subadditive": {"checked": lambda c: c.checked_count},
    "extremality.equality_structure": {
        "vertices": lambda es: len(es.additive_vertices),
        "faces": lambda es: len(es.additive_faces)},
}


class Tracer:
    """Installs wrappers on the given groupcut modules; `uninstall` puts
    every original back."""

    def __init__(self, package, modules: dict):
        self.package = package
        self.modules = modules          # short name -> module
        self.spans = []
        self.work = []                  # (name, stat, amount)
        self._tls = threading.local()
        self._leaf_tables = []          # (main thread?, {name: [calls, s, self_s]}) per thread
        self._ids = itertools.count(1)
        self._patches = []

    # -- per-thread state ---------------------------------------------------

    def _state(self):
        st = getattr(self._tls, "st", None)
        if st is None:
            table = {}
            main = threading.current_thread() is threading.main_thread()
            self._leaf_tables.append((main, table))
            st = self._tls.st = ([], {}, table)   # frame stack, active names, leaf totals
        return st

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, name, fn):
        work = WORK.get(name, {})
        if name in LEAVES:
            def leaf(*args, **kwargs):
                stack, _, table = self._state()
                frame = [0.0]
                stack.append(frame)
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = perf_counter() - t0
                    stack.pop()
                    if stack:
                        stack[-1][0] += dt
                    tot = table.get(name)
                    if tot is None:
                        tot = table[name] = [0, 0.0, 0.0]
                    tot[0] += 1
                    tot[1] += dt
                    tot[2] += dt - frame[0]
            return leaf

        def spanned(*args, **kwargs):
            stack, active, _ = self._state()
            frame = [0.0, next(self._ids)]
            parent = stack[-1][1] if stack and len(stack[-1]) > 1 else 0
            outer = not active.get(name)
            active[name] = active.get(name, 0) + 1
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                active[name] -= 1
                if stack:
                    stack[-1][0] += t1 - t0
                self.spans.append((frame[1], name, t0, t1, parent,
                                   t1 - t0 - frame[0], outer))
            for stat, count in work.items():
                self.work.append((name, stat, count(result)))
            return result
        return spanned

    def install(self):
        wrappers = {}        # id(original function) -> wrapper, shared by all bindings

        def wrapper_for(name, fn):
            w = wrappers.get(id(fn))
            if w is None:
                w = wrappers[id(fn)] = self._wrap(name, fn)
            return w

        pwl, seqmerge = self.modules["pwl"], self.modules["seqmerge"]
        self._wrap_methods(pwl.PeriodicPWL, "pwl", PWL_METHODS, wrapper_for)
        self._wrap_methods(seqmerge.MergedFn, "seqmerge", MERGED_METHODS, wrapper_for)
        method_names = {f"pwl.{m}" for m in PWL_METHODS}
        for owner in [self.package, *self.modules.values()]:
            for attr, fn in list(vars(owner).items()):
                if (attr.startswith("_") or attr in UNWRAPPED
                        or not inspect.isfunction(fn)
                        or not fn.__module__.startswith("groupcut.")):
                    continue
                name = f"{fn.__module__.split('.')[-1]}.{fn.__name__}"
                if name in method_names:
                    continue     # a module-level alias of a wrapped method
                self._patch(owner, attr, wrapper_for(name, fn))

    def _wrap_methods(self, cls, prefix, methods, wrapper_for):
        for m in methods:
            raw = cls.__dict__[m]
            if isinstance(raw, classmethod):
                new = classmethod(wrapper_for(f"{prefix}.{m}", raw.__func__))
            else:       # __call__ is eval's own function, so it shares eval's wrapper
                new = wrapper_for(f"{prefix}.{m}", raw)
            self._patch(cls, m, new)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------------

    def totals(self) -> dict:
        """name -> {calls, s, self_s, <work stats>} summed over the run."""
        out = {}
        for _, name, t0, t1, _, self_s, outer in self.spans:
            rec = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            rec["calls"] += 1
            rec["self_s"] += self_s
            if outer:             # a recursive call is inside its caller's time
                rec["s"] += t1 - t0
        for main, table in self._leaf_tables:
            for name, (calls, secs, self_secs) in table.items():
                rec = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
                rec["calls"] += calls
                rec["s"] += secs
                if main:          # pool-thread work is already its caller's self time
                    rec["self_s"] += self_secs
        for name, stat, amount in self.work:
            rec = out[name]
            rec[stat] = rec.get(stat, 0) + amount
        return out

    def write_spans(self, fh, round_no):
        for sid, name, t0, t1, parent, self_s, _ in self.spans:
            fh.write(f"{round_no}\t{sid}\t{name}\t{t0:.9f}\t{t1:.9f}\t{parent}\t"
                     f"{self_s:.9f}\n")


def counts(totals: dict) -> dict:
    """Every count in a `Tracer.totals` result; these must repeat exactly
    from round to round and from run to run on one seed."""
    return {(name, stat): v for name, rec in totals.items()
            for stat, v in rec.items() if stat not in ("s", "self_s")}
