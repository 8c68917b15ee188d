"""Per-layer tracing from outside the package.

``Tracer.install`` replaces the package's public layer functions with timing
wrappers in every module namespace that holds them, so that each caller's
binding is traced, and restores the originals on ``uninstall``.  Spans are
kept in memory.  ``TrigMatrix.evaluate`` and ``trig_compose`` run hundreds of
thousands of times per pass, so they only feed aggregate counters.

A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

import drivenqubit
from drivenqubit import asymptotics, bloch, cli, nonmarkov, visibility
from drivenqubit.bloch import TrigMatrix

MODULES = (drivenqubit, bloch, asymptotics, nonmarkov, visibility, cli)

# Traced name -> (module that defines it, attribute).
LAYER_FUNCTIONS = {
    "bloch.trig_compose": (bloch, "trig_compose"),
    "bloch.gaussian_average": (bloch, "gaussian_average"),
    "bloch.propagate": (bloch, "propagate"),
    "bloch.protocol_product": (bloch, "protocol_product"),
    "asymptotics.asymptotic_map": (asymptotics, "asymptotic_map"),
    "asymptotics.asymptotic_cycle": (asymptotics, "asymptotic_cycle"),
    "asymptotics.convergence_profile": (asymptotics, "convergence_profile"),
    "nonmarkov.pair_distances": (nonmarkov, "pair_distances"),
    "nonmarkov.optimal_pair_search": (nonmarkov, "optimal_pair_search"),
    "visibility.maximize_visibility": (visibility, "maximize_visibility"),
    "cli.calibrate": (cli, "calibrate"),
    "cli.run": (cli, "run"),
    "cli.main": (cli, "main"),
}
EVALUATE = "bloch.evaluate"
TRACED = (EVALUATE, *LAYER_FUNCTIONS)
AGGREGATE_ONLY = frozenset({EVALUATE, "bloch.trig_compose"})

# Counters beyond calls and self time.  The first two are computed from the
# arguments and results (kernel work), the rest are counted as they happen.
COMPUTED_COUNTERS = ("bloch.trig_compose.term_pairs", "bloch.band_max")
COUNTERS = COMPUTED_COUNTERS + (
    "asymptotics.asymptotic_map.errors",
    "asymptotics.asymptotic_map.evaluate_calls",
    "nonmarkov.optimal_pair_search.nfev",
    "visibility.maximize_visibility.nfev",
    "cli.calibrate.evaluations",
    "cli.main.errors",
)
# scipy's minimize as bound in each optimizer module -> counter of its nfev.
MINIMIZE_BINDINGS = (
    (nonmarkov, "nonmarkov.optimal_pair_search.nfev"),
    (visibility, "visibility.maximize_visibility.nfev"),
)


class Tracer:
    """Collects spans, per-function totals and counters while installed."""

    def __init__(self):
        self.current_op = None
        self.spans = []
        self.op_stats = defaultdict(lambda: defaultdict(lambda: [0.0, 0.0]))
        self._stack = []
        self._active = defaultdict(int)
        self._restore = []
        self.reset_totals()

    def reset_totals(self):
        self.totals = {name: [0, 0.0] for name in TRACED}
        self.counters = dict.fromkeys(COUNTERS, 0)

    def snapshot(self) -> dict:
        """Per-function calls and self time plus counters since the last reset."""
        out = {}
        for name, (calls, self_s) in self.totals.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        out.update(self.counters)
        return out

    def install(self):
        for name, (module, attr) in LAYER_FUNCTIONS.items():
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for mod in MODULES:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)
        self._restore.append((TrigMatrix, "evaluate", TrigMatrix.evaluate))
        TrigMatrix.evaluate = self._wrap(EVALUATE, TrigMatrix.evaluate)
        for module, counter in MINIMIZE_BINDINGS:
            self._restore.append((module, "minimize", module.minimize))
            module.minimize = self._count_nfev(counter, module.minimize)

    def uninstall(self):
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    def _count_nfev(self, counter: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counters[counter] += int(result.nfev)
            return result

        return wrapper

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            self._enter(name, args)
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._leave(name, frame, start, None, failed=True)
                raise
            self._leave(name, frame, start, result, failed=False)
            return result

        return wrapper

    def _enter(self, name: str, args):
        self._active[name] += 1
        if name == EVALUATE:
            if self._active["asymptotics.asymptotic_map"]:
                self.counters["asymptotics.asymptotic_map.evaluate_calls"] += 1
        elif name == "bloch.trig_compose":
            a, b = args[0], args[1]
            self.counters["bloch.trig_compose.term_pairs"] += len(a.harmonics()) * len(b.harmonics())

    def _leave(self, name: str, frame, start: float, result, failed: bool):
        end = time.perf_counter()
        self._stack.pop()
        self._active[name] -= 1
        duration = end - start
        self_time = duration - frame[0]
        if self._stack:
            self._stack[-1][0] += duration
        total = self.totals[name]
        total[0] += 1
        total[1] += self_time
        stats = self.op_stats[self.current_op][name]
        if not self._active[name]:
            stats[0] += duration
        stats[1] += self_time
        if name not in AGGREGATE_ONLY:
            self.spans.append((self.current_op, name, start, end, len(self._stack)))
        if isinstance(result, TrigMatrix):
            self.counters["bloch.band_max"] = max(self.counters["bloch.band_max"], result.max_harmonic)
        if name == "asymptotics.asymptotic_map" and failed:
            self.counters["asymptotics.asymptotic_map.errors"] += 1
        elif name == "cli.main" and (failed or result != 0):
            self.counters["cli.main.errors"] += 1
        elif name == "cli.calibrate" and not failed:
            self.counters["cli.calibrate.evaluations"] += result.n_evaluations
