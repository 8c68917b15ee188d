"""The per-layer tracer of the benchmark harness against the package.

``bench/tracing.py`` wraps package functions by name and feeds counters
from the arguments and results of ``trig_compose``.  Loaded here by file
path, it must find every name it wraps and restore each afterwards, and
its kernel-work counters must keep the values recorded for one steady cycle.
"""

import importlib.util
from pathlib import Path

import pytest

import numpy as np

from drivenqubit import AsymptoticCycle, BlochMap, TrigMatrix, asymptotic_cycle, bloch, nonmarkov

from conftest import recorded_ops

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings(tracing):
    """Every binding the tracer may replace, by owner and name."""
    out = {(mod.__name__, key): value for mod in tracing.MODULES for key, value in vars(mod).items()}
    out["TrigMatrix", "evaluate"] = TrigMatrix.evaluate
    return out


def test_tracer_wraps_and_restores_every_name(tracing, two_controls, calibrated_spectrum):
    before = bindings(tracing)
    # Cached step matrices would skip their compose calls.
    bloch.step_matrix.cache_clear()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        during = bindings(tracing)
        asymptotic_cycle(two_controls, calibrated_spectrum)
    finally:
        tracer.uninstall()
    wrapped = {key for key, value in during.items() if value is not before[key]}
    names = {attr for _, attr in tracing.LAYER_FUNCTIONS.values()} | {"evaluate", "minimize"}
    assert {attr for _, attr in wrapped} == names
    assert during.keys() == before.keys()
    after = bindings(tracing)
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    counts = tracer.snapshot()
    # Two step matrices, the chain to P_2, one rotated period.
    assert counts["bloch.trig_compose.calls"] == 6
    # The compose left out, step 0 after I, met 2 x 1 harmonic pairs.
    assert counts["bloch.trig_compose.term_pairs"] == 16
    assert counts["bloch.band_max"] == 5


def test_pair_search_nfev_counts_scipy_evaluations(tracing):
    # The lockstep replay evaluates candidate points that scipy would not;
    # the counter reads only scipy's evaluations: 5,163 over the 32 starts
    # of this degenerate op's per-start scipy runs.  A non-degenerate op
    # ends with the eigenvector ascent, which no counter reads.
    counts = {}
    for op_id in ("pair.p2-s8.25.v0", "pair.p3-s2.83.v0"):
        op = recorded_ops("steady_sweep", lambda op: op["id"] == op_id)[0]
        cycle = AsymptoticCycle.from_maps(BlochMap(np.array(m)) for m in op["maps"])
        tracer = tracing.Tracer()
        tracer.install()
        try:
            nonmarkov.optimal_pair_search(cycle)
        finally:
            tracer.uninstall()
        counts[op_id] = tracer.snapshot()["nonmarkov.optimal_pair_search.nfev"]
    assert counts == {"pair.p2-s8.25.v0": 5163, "pair.p3-s2.83.v0": 0}
