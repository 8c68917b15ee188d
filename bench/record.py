"""Record the benchmark's ops and their reference outputs from the current code.

    python3 bench/record.py [workload ...]

Run from the repository root.  It writes ``bench/refs/<workload>.json``:
every op of every template variant, with the summary of its output that
``bench/run.py`` compares against.  Re-record only on purpose, when the
outputs are meant to change; the files in git come from the commit that
introduced the benchmark.

The templates below were drawn once from the ranges each workload states,
with a fixed generator, and kept when a single op ran between about 0.01 s
and 2.5 s (two-core Intel Xeon, Python 3.11, numpy 2.4, scipy 1.17), so that
a run of ``run_seconds`` holds several passes.  A template fixes what sets
an op's cost (period, k, eta, depth, spectral width, step order); its
variants change only the mean phase and the initial state.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import sys
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

from drivenqubit import cli  # noqa: E402
from drivenqubit.bloch import STEP_ORDERS  # noqa: E402

import numpy as np  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Each template draws CANDIDATES variants and keeps the VARIANTS whose work
# counts (below, exact and free of timing noise) lie closest together, so
# that the seed's choice barely moves a pass.
CANDIDATES = 8
VARIANTS = 4
WORK_COUNTS = (
    "bloch.evaluate.calls",
    "bloch.trig_compose.term_pairs",
    "bloch.gaussian_average.calls",
    "nonmarkov.optimal_pair_search.nfev",
    "visibility.maximize_visibility.nfev",
)
INF = math.inf

# (name, steps as (k, eta), depth, subcommand, spectral width s, step order).
# Depth 50-400, period 1-4, k 0-4, eta in {0, 0.3, 0.5, 0.7, 1},
# s in [0.1, 1] plus the edges 0 and inf.
LONG_HORIZON = [
    ("p2-n394", ((1, 0.7), (0, 0.3)), 394, "simulate", 0.474, "eq2b"),
    ("p3-n116", ((2, 0.3), (1, 1.0), (1, 0.7)), 116, "nonmarkov", 0.792, "eq4a"),
    ("p4-n144", ((2, 0.5), (4, 0.5), (3, 0.3), (1, 0.0)), 144, "simulate", 0.148, "eq2b"),
    ("p4-n72-inf", ((4, 0.3), (1, 0.3), (4, 0.5), (1, 0.0)), 72, "nonmarkov", INF, "eq4a"),
    ("p1-n152", ((2, 0.5),), 152, "simulate", 0.786, "eq2b"),
    ("p4-n114-sharp", ((1, 0.0), (0, 0.5), (4, 0.7), (0, 0.0)), 114, "simulate", 0.0, "eq4a"),
    ("p2-n143-inf", ((4, 1.0), (0, 0.5)), 143, "simulate", INF, "eq2b"),
    # Drawn at depth 270; 220 puts this op, whose cost no variant changes,
    # at the median of the pass.
    ("p3-n220-inf", ((0, 0.0), (1, 1.0), (2, 0.5)), 220, "simulate", INF, "eq2b"),
    ("p2-n281", ((1, 0.0), (0, 1.0)), 281, "nonmarkov", 0.872, "eq4a"),
    ("p3-n71", ((0, 0.5), (0, 1.0), (2, 0.0)), 71, "simulate", 0.407, "eq2b"),
    ("p1-n86-sharp", ((0, 0.5),), 86, "nonmarkov", 0.0, "eq4a"),
]

# (name, steps as (k, eta), spectral width s, step order): s log-uniform
# in [0.1, 40] plus the edges 0 and inf.
STEADY_SWEEP = [
    ("p2-s8.25", ((0, 0.3), (4, 0.5)), 8.253, "eq2b"),
    ("p4-s4.31", ((1, 0.7), (3, 0.0), (1, 0.7), (0, 0.0)), 4.311, "eq4a"),
    ("p3-s2.83", ((4, 0.3), (3, 0.0), (3, 0.3)), 2.833, "eq2b"),
    ("p1-s21.7", ((2, 0.5),), 21.67, "eq4a"),
    ("p2-inf", ((3, 1.0), (0, 0.3)), INF, "eq2b"),
    ("p2-sharp", ((2, 0.3), (2, 0.5)), 0.0, "eq4a"),
]

CLI_FILES = {
    "simulate": {"trajectory.csv": "sha256"},
    "asymptotics": {"asymptotics.json": "sha256"},
    "nonmarkov": {"nonmarkov.csv": "sha256", "nonmarkov.json": "json"},
    "visibility": {"visibility.json": "json"},
    "verify": {"verify.json": "json"},
}
LONG_HORIZON_FILES = {
    "simulate": {"trajectory.csv": "csv"},
    "nonmarkov": {"nonmarkov.csv": "csv", "nonmarkov.json": "json"},
}


def _cli_op(workload: str, op_id: str, argv: list, files: dict, config=None) -> dict:
    out = (workloads.WORK_DIR / workload / op_id).as_posix()
    op = {"id": op_id, "kind": "cli", "out": out, "files": {"effective_config.json": "sha256", **files}}
    if config is None:
        op["argv"] = argv + ["--out", out]
    else:
        config_path = (workloads.WORK_DIR / workload / f"{op_id}.json").as_posix()
        op["config"] = dict(config, outputs={"dir": out})
        op["config_path"] = config_path
        op["argv"] = argv + ["--config", config_path]
    return op


def cli_presets_templates() -> list:
    templates = []
    for preset in cli.PRESETS:
        for order in STEP_ORDERS:
            for sub in cli.SUBCOMMANDS:
                op_id = f"{sub}.{preset}.{order}"
                argv = [sub, "--preset", preset, "--order", order]
                templates.append((op_id, [[_cli_op("cli_presets", op_id, argv, CLI_FILES[sub])]]))
    return templates


def long_horizon_templates() -> list:
    templates = []
    for name, steps, depth, sub, s, order in LONG_HORIZON:
        variants = []
        for v in range(CANDIDATES):
            rng = random.Random(f"long_horizon/{name}/{v}")
            config = {
                "protocol": {
                    "base_unit_wavelengths": 40.0,
                    "steps": [{"k": k, "eta": eta} for k, eta in steps],
                },
                "spectrum": {"theta_bar": round(rng.uniform(0.0, 2.0 * math.pi), 6), "s": s},
                "initial_state": {
                    "theta": round(rng.uniform(0.0, math.pi), 6),
                    "phi": round(rng.uniform(0.0, 2.0 * math.pi), 6),
                },
                "n_steps": depth,
                "order": order,
            }
            op_id = f"{sub}.{name}.v{v}"
            variants.append([_cli_op("long_horizon", op_id, [sub], LONG_HORIZON_FILES[sub], config)])
        templates.append((name, variants))
    return templates


def steady_sweep_templates() -> list:
    templates = []
    for name, steps, s, order in STEADY_SWEEP:
        variants = []
        for v in range(CANDIDATES):
            rng = random.Random(f"steady_sweep/{name}/{v}")
            cycle = {
                "id": f"cycle.{name}.v{v}",
                "kind": "cycle",
                "steps": [list(step) for step in steps],
                "theta_bar": round(rng.uniform(0.0, 2.0 * math.pi), 6),
                "s": s,
                "order": order,
            }
            ops = [cycle]
            # The optimizer ops take the recorded cycle as input; see record().
            ops.append({"id": f"pair.{name}.v{v}", "kind": "pair", "maps": None})
            if len(steps) in (2, 3):
                ops.append({"id": f"vis.{name}.v{v}", "kind": "vis", "maps": None})
            variants.append(ops)
        templates.append((name, variants))
    for order in STEP_ORDERS:
        op = {"id": f"calibrate.two_controls.{order}", "kind": "calibrate", "preset": "two_controls", "order": order}
        templates.append((op["id"], [[op]]))
    return templates


TEMPLATES = {
    "cli_presets": cli_presets_templates,
    "long_horizon": long_horizon_templates,
    "steady_sweep": steady_sweep_templates,
}


def _record_ops(workload: str, ops: list, tracer) -> list:
    """Run one variant's ops, store their reference outputs, return op work."""
    work = []
    cycle_maps = None
    for op in ops:
        if op["kind"] in ("pair", "vis"):
            op["maps"] = cycle_maps
        files = op.pop("files", {})
        tracer.reset_totals()
        t0 = time.perf_counter()
        result = workloads.prepare(op)()
        elapsed = time.perf_counter() - t0
        counts = tracer.snapshot()
        work.append(sum(counts[name] for name in WORK_COUNTS))
        op["expect"] = workloads.summarize(op, result, files)
        if op["kind"] == "cycle":
            cycle_maps = op["expect"]["maps"]
        if op["kind"] == "cli" and (result != 0 or None in op["expect"]["files"].values()):
            raise SystemExit(f"{op['id']} exited with {result} or left a file out")
        print(f"{workload:13s} {op['id']:40s} {elapsed:8.3f} s {work[-1]:10d} work", flush=True)
    return work


def _alike(candidates: list, work: list, keep: int) -> list:
    """The ``keep`` candidates whose per-op work counts are closest together."""
    logs = np.log1p(np.array(work, dtype=float))

    def spread(subset):
        return max(float(np.sum(np.abs(logs[i] - logs[j]))) for i, j in itertools.combinations(subset, 2))

    best = min(itertools.combinations(range(len(candidates)), keep), key=spread)
    return [candidates[i] for i in best]


def record(workload: str) -> dict:
    out = {"workload": workload, "templates": []}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for name, candidates in TEMPLATES[workload]():
            work = [_record_ops(workload, ops, tracer) for ops in candidates]
            kept = _alike(candidates, work, VARIANTS) if len(candidates) > VARIANTS else candidates
            out["templates"].append({"name": name, "variants": kept})
    finally:
        tracer.uninstall()
    return out


def main(argv) -> int:
    names = argv or list(TEMPLATES)
    for workload in names:
        refs = record(workload)
        path = workloads.REFS_DIR / f"{workload}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(refs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    os.chdir(ROOT)
    sys.exit(main(sys.argv[1:]))
