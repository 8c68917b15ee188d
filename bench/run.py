"""drivenqubit benchmark: one workload per run, closed loop, one thread.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --self-test

Run from the repository root; the package is imported from ``src``.  The
seed picks one recorded variant per template of the workload and the op
order.  The op list then runs pass after pass, each op starting when the
previous one ends, until ``--seconds`` have gone by and at least
``MIN_PASSES`` passes are complete.  Every op's output is compared with its
reference in ``bench/refs``; a mismatch, an exception or a non-zero exit
counts as a failed op.  Times are scaled to a reference CPU speed (see
``probed``).

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` spends the first half of the time untraced and the second half
with every layer function wrapped, and reports the per-layer metrics; the
full set of spans and per-op timings goes to ``.bench_work/trace-*.json``.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
# Pinned before numpy is first imported, here and in every child process.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "drivenqubit" / "__init__.py").is_file():
    sys.exit(f"bench: no package source at {ROOT / 'src' / 'drivenqubit'}")
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("cli_presets", "long_horizon", "steady_sweep")
# op_tail_s is this percentile of the op list's per-op latencies.
TAIL_PERCENTILE = 95
# Each op's latency is its median over at least MIN_PASSES passes.
MIN_PASSES = 3
TOP_DECILE = 90
# Scaling to a reference CPU speed: the shared host this was built on runs
# a thread at one of two speeds about 1.9x apart, switching every few
# hundred milliseconds to minutes, so raw times of whole runs differ by 50%.
# Timed work is probed for speed before, after and every PROBE_INTERVAL_S
# during it, and scaled to the speed at which one probe takes PROBE_REF_S
# (the faster of the two).
PROBE_MATRIX = np.array([[0.3, 0.1, 0.2], [0.0, 0.5, 0.1], [0.2, 0.1, 0.4]])
PROBE_LOOPS = 200
PROBE_REF_S = 8.0e-4
PROBE_INTERVAL_S = 0.02
SETUP_REPEATS = 3
IMPORTTIME_REPEATS = 3
CHILD_TIMEOUT_S = 120
COLD_START = "import sys; from drivenqubit.cli import main; sys.exit(main(sys.argv[1:]))"
BLOCH_FUNCTIONS = tuple(name for name in tracing.TRACED if name.startswith("bloch."))


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def speed_probe() -> float:
    """Seconds that a fixed loop of 3x3 numpy products and dict updates takes now."""
    start = time.perf_counter()
    m = np.eye(3)
    acc: dict = {}
    for i in range(PROBE_LOOPS):
        m = 0.5 * (PROBE_MATRIX @ m) + 0.1 * m
        acc[i % 7] = acc.get(i % 7, 0.0) + float(m[0, 0])
    return time.perf_counter() - start


class SpeedSampler:
    """Runs the speed probe every PROBE_INTERVAL_S of wall time from SIGALRM.

    The handler runs between bytecodes of the timed work, so its samples
    follow the CPU speed through an op, weighted by wall time.
    """

    def __enter__(self):
        self.samples: list = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def _sample(self, signum, frame):
        self.samples.append(speed_probe())

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


def probed(fn, sample: bool = True):
    """Run ``fn`` and time it at the reference CPU speed.

    Returns its result (or the formatted exception), the elapsed seconds
    scaled to the reference speed, and the raw elapsed seconds.  The speed
    is the mean of probes taken just before, just after and, when
    ``sample`` is set, during the call; time spent in those probes is taken
    out.  A child process is timed without sampling, since the probes would
    compete with it for the CPU.
    """
    before = speed_probe()
    with contextlib.ExitStack() as stack:
        sampler = stack.enter_context(SpeedSampler()) if sample else None
        start = time.perf_counter()
        try:
            result, error = fn(), None
        except Exception:
            result, error = None, traceback.format_exc(limit=3)
        raw = time.perf_counter() - start
    during = sampler.samples if sampler else []
    speed = statistics.fmean(PROBE_REF_S / probe for probe in [before, speed_probe(), *during])
    return result, error, (raw - sum(during)) * speed, raw


def cold_start_seconds(workload: str) -> float:
    """Median scaled time of a fresh interpreter running a minimal simulate."""
    out = workloads.WORK_DIR / workload / "cold-start"
    argv = [sys.executable, "-c", COLD_START, "simulate", "--preset", "two_controls", "--steps", "1", "--out", str(out)]
    times = []
    for _ in range(SETUP_REPEATS):
        proc, error, scaled, _ = probed(
            lambda: subprocess.run(argv, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S),
            sample=False,
        )
        if error is not None:
            raise RuntimeError(f"cold start failed: {error}")
        times.append(scaled)
        rows = (out / "trajectory.csv").read_text().splitlines() if proc.returncode == 0 else []
        if len(rows) != 3:
            raise RuntimeError(f"cold start failed (exit {proc.returncode}): {proc.stderr.strip()}")
    return statistics.median(times)


def import_seconds() -> dict:
    """Median cumulative import time of drivenqubit and of scipy inside it."""
    argv = [sys.executable, "-X", "importtime", "-c", "import drivenqubit"]
    package, scipy_s = [], []
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run(argv, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"import failed: {proc.stderr.strip()[-2000:]}")
        tops = _import_roots(proc.stderr)
        package.append(tops.get("drivenqubit", 0.0))
        scipy_s.append(sum(v for k, v in tops.items() if k == "scipy" or k.startswith("scipy.")))
    return {"import.drivenqubit_s": statistics.median(package), "import.scipy_s": statistics.median(scipy_s)}


def _import_roots(stderr: str) -> dict:
    """Cumulative seconds of each import whose parent belongs to another package.

    ``-X importtime`` prints imports in post-order, nesting shown by two
    spaces per level, so walking the lines backwards visits parents first.
    """
    roots: dict = {}
    path: list = []
    for line in reversed(stderr.splitlines()):
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3 or "cumulative" in line:
            continue
        name = parts[2]
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        name = name.strip()
        path = path[:depth] + [name]
        parent = path[depth - 1] if depth else ""
        if parent.split(".")[0] != name.split(".")[0]:
            roots[name] = roots.get(name, 0.0) + int(parts[1]) * 1e-6
    return roots


class Runner:
    """Runs ops, times them, checks their outputs and keeps the failures."""

    def __init__(self, ops: list):
        self.ops = ops
        self.tracer = None
        self.latencies: list = []  # (sequence number, op id, scaled seconds, raw seconds)
        self.failures: list = []

    def run_op(self, op: dict) -> float:
        fn = workloads.prepare(op)
        seq = len(self.latencies)
        if self.tracer is not None:
            self.tracer.current_op = seq
        result, error, latency, raw = probed(fn)
        if error is not None:
            problems = [error]
        else:
            try:
                problems = workloads.check(op, result)
            except Exception:
                problems = [traceback.format_exc(limit=3)]
        if problems:
            self.failures.append((op["id"], problems[:3]))
        self.latencies.append((seq, op["id"], latency, raw))
        return latency

    def run_pass(self) -> float:
        """Run the whole op list once; returns the summed scaled op latencies."""
        return sum(self.run_op(op) for op in self.ops)


def select_ops(refs: dict, seed: int) -> list:
    rng = random.Random(seed)
    ops = []
    for template in refs["templates"]:
        ops.extend(template["variants"][rng.randrange(len(template["variants"]))])
    rng.shuffle(ops)
    return ops


def warm_up(workload: str):
    """One untimed op, so lazy set-up inside the process is not timed."""
    if workload == "steady_sweep":
        config = workloads.cli.preset("two_controls")
        workloads.asymptotics.asymptotic_cycle(config.protocol, workloads.Spectrum(0.0, 0.0))
    else:
        out = str(workloads.WORK_DIR / workload / "warm-up")
        rc = workloads.cli.main(["simulate", "--preset", "two_controls", "--steps", "1", "--out", out])
        if rc != 0:
            raise RuntimeError(f"warm-up op exited with {rc}")


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def op_medians(latencies: list, n_ops: int) -> list:
    """Per op of the list: (first seq, id, median scaled seconds) over its runs."""
    out = []
    for i in range(n_ops):
        runs = latencies[i::n_ops]
        out.append((runs[0][0], runs[0][1], statistics.median(entry[2] for entry in runs)))
    return out


def measure(workload: str, ops: list, seconds: float) -> tuple:
    setup_s = cold_start_seconds(workload)
    warm_up(workload)
    runner = Runner(ops)
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(runner.latencies) < MIN_PASSES * len(ops):
        runner.run_op(ops[len(runner.latencies) % len(ops)])
    passes = len(runner.latencies) // len(ops)
    per_op = [lat for _, _, lat in op_medians(runner.latencies, len(ops))]
    raw_pass = sum(entry[3] for entry in runner.latencies[: passes * len(ops)]) / passes
    metrics = {
        "setup_s": setup_s,
        "wall_s": sum(per_op),
        "op_p50_s": statistics.median(per_op),
        "op_tail_s": percentile(per_op, TAIL_PERCENTILE),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    of_ops = f"of {len(ops)} ops, each its median over {passes} or {passes + 1} runs"
    notes = {
        "setup_s": f"median of {SETUP_REPEATS} cold starts",
        "wall_s": f"sum {of_ops}; unscaled mean pass {raw_pass:.3f} s",
        "op_p50_s": f"median {of_ops}",
        "op_tail_s": f"p{TAIL_PERCENTILE} {of_ops}",
        "peak_rss_mb": "this process",
    }
    return runner, metrics, notes, {}


def measure_traced(workload: str, ops: list, seconds: float) -> tuple:
    imports = import_seconds()
    warm_up(workload)
    start = time.perf_counter()
    runner = Runner(ops)
    plain_passes = [runner.run_pass()]
    while time.perf_counter() - start < seconds / 2.0:
        plain_passes.append(runner.run_pass())

    first_traced = len(runner.latencies)
    tracer = runner.tracer = tracing.Tracer()
    passes: list = []
    tracer.install()
    try:
        while not passes or time.perf_counter() - start < seconds:
            tracer.reset_totals()
            wall = runner.run_pass()
            passes.append((wall, tracer.snapshot()))
    finally:
        tracer.uninstall()

    metrics = dict(imports)
    first = passes[0][1]
    for key in first:
        if key.endswith("_s"):
            metrics[key] = statistics.median(snap[key] for _, snap in passes)
        else:
            metrics[key] = first[key]
    unstable = sorted(k for k in first if not k.endswith("_s") and any(s[k] != first[k] for _, s in passes))
    traced_wall = statistics.median(wall for wall, _ in passes)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - statistics.median(plain_passes)

    # Shares compare the tracer's unscaled times with unscaled op latencies.
    latencies = runner.latencies[first_traced:]
    stats = tracer.op_stats
    metrics["bloch.self_share"] = sum(
        sum(snap[f"{name}.self_s"] for name in BLOCH_FUNCTIONS) for _, snap in passes
    ) / sum(entry[3] for entry in latencies)
    cut = percentile([entry[3] for entry in latencies], TOP_DECILE)
    top = [(seq, raw) for seq, _, _, raw in latencies if raw >= cut]
    top_time = sum(raw for _, raw in top)
    metrics["top_decile.asymptotic_map.share"] = (
        sum(stats[seq]["asymptotics.asymptotic_map"][0] for seq, _ in top) / top_time
    )
    metrics["top_decile.trig_compose.self_share"] = (
        sum(stats[seq]["bloch.trig_compose"][1] for seq, _ in top) / top_time
    )
    # The op behind op_tail_s, found the same way, and its share in the first traced pass.
    ranked = sorted(op_medians(latencies, len(ops)), key=lambda entry: entry[2])
    tail_seq, tail_id, _ = ranked[math.ceil(TAIL_PERCENTILE / 100.0 * len(ranked)) - 1]
    tail_raw = latencies[tail_seq - first_traced][3]
    metrics["tail_op.maximize_visibility.share"] = stats[tail_seq]["visibility.maximize_visibility"][0] / tail_raw

    notes = {
        "trace.wall_s": f"median of {len(passes)} traced passes; untraced median of {len(plain_passes)}",
        "tail_op.maximize_visibility.share": f"tail op {tail_id}",
    }
    for key in unstable:
        notes[key] = "differs between passes"
    report = {
        "passes": [{"wall_s": wall, **snap} for wall, snap in passes],
        "untraced_passes_s": plain_passes,
        "ops": [
            {"seq": seq, "id": op_id, "latency_s": lat, "unscaled_s": raw, "layers": dict(stats[seq])}
            for seq, op_id, lat, raw in latencies
        ],
        "spans": tracer.spans,
    }
    return runner, metrics, notes, report


def self_test() -> int:
    """Corrupt one reference per comparison mode and check that only those ops fail."""
    cases = []
    cli_ops = {op["id"]: op for t in workloads.load_refs("cli_presets")["templates"] for op in t["variants"][0]}
    bad = json.loads(json.dumps(cli_ops["simulate.two_controls.eq2b"]))
    bad["expect"]["files"]["trajectory.csv"]["sha256"] = "0" * 64
    cases += [(bad, True), (cli_ops["simulate.two_controls.eq4a"], False)]

    lh = {t["name"]: t["variants"] for t in workloads.load_refs("long_horizon")["templates"]}["p3-n71"]
    bad = json.loads(json.dumps(lh[0][0]))
    entry = bad["expect"]["files"]["trajectory.csv"]
    entry["csv"] = entry["csv"].replace("\n10,", "\n10,1", 1)
    cases += [(bad, True), (lh[1][0], False)]

    ss = {t["name"]: t["variants"] for t in workloads.load_refs("steady_sweep")["templates"]}["p2-sharp"]
    bad = json.loads(json.dumps(ss[0][0]))
    bad["expect"]["maps"][0][0][0] += 1e-6
    cases += [(bad, True), (ss[1][0], False)]

    runner = Runner([op for op, _ in cases])
    runner.run_pass()
    failed = {op_id for op_id, _ in runner.failures}
    ok = True
    for op, corrupted in cases:
        counted = op["id"] in failed
        ok = ok and counted == corrupted
        state = "corrupted" if corrupted else "intact"
        print(f"self-test {op['id']:34s} {state:9s} -> {'failed' if counted else 'passed'}")
    print(f"self-test: {len(failed)} of {len(cases)} ops counted as failed; {'ok' if ok else 'WRONG'}")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true", help="check that corrupted references count as failures")
    args = parser.parse_args()
    os.chdir(ROOT)
    # One CPU for this process and its children, so that the speed probes
    # measure the CPU the timed work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.self_test:
        try:
            return self_test()
        finally:
            for workload in WORKLOADS:
                shutil.rmtree(workloads.WORK_DIR / workload, ignore_errors=True)
    if args.workload is None:
        parser.error("--workload is required")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    ops = select_ops(workloads.load_refs(args.workload), args.seed)
    env = environment()
    measure_fn = measure_traced if args.trace else measure
    try:
        runner, metrics, notes, report = measure_fn(args.workload, ops, args.seconds)
    finally:
        shutil.rmtree(workloads.WORK_DIR / args.workload, ignore_errors=True)

    for op_id, problems in runner.failures[:5]:
        print(f"FAILED {op_id}: {' | '.join(problems)}", file=sys.stderr)
    attempted, failed = len(runner.latencies), len(runner.failures)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: {attempted} ops, {failed} failed")
    print("env: " + ", ".join(f"{k} {v}" for k, v in env.items() if k != "threads") + ", BLAS/OpenMP threads 1")
    if not args.trace:
        print(f"  {'error_rate':44s} {failed / attempted:14.6g} ratio  ({failed} of {attempted} ops)")
    units = {m["name"]: m["unit"] for m in wanted}
    for name, value in metrics.items():
        unit = units.get(name) or ("s" if name.endswith("_s") else "count")
        print(f"  {name:44s} {value:14.6g} {unit:6s} {notes.get(name, '')}".rstrip())
    if args.trace:
        trace_path = workloads.WORK_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({"workload": args.workload, "seed": args.seed, "env": env, "metrics": metrics, **report}))
        print(f"trace written to {trace_path}")

    missing = [name for name in units if name not in metrics]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
