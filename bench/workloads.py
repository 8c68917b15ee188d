"""Benchmark ops: how each one is prepared, run, summarised and checked.

An op is a JSON-able dict stored in ``bench/refs/<workload>.json`` together
with the summary of its output recorded from the reference commit.  The
summary keeps what the project promises to keep stable:

* CLI files named ``sha256`` must stay byte-identical (the preset contract);
* CLI files named ``csv`` or ``json`` and library results must agree within
  ``VALUE_TOL`` (plus one unit in the ninth printed digit for CLI files);
* directions must agree up to sign within ``DIRECTION_TOL``;
* verdicts, flags and exit codes must be equal.

Solver diagnostics (``gradient_norm``, ``hessian_eigenvalues``, ``nfev``) and
the free-text details of ``verify.json`` are not part of a summary.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

from drivenqubit import asymptotics, cli, nonmarkov, visibility
from drivenqubit.asymptotics import AsymptoticCycle
from drivenqubit.bloch import BlochMap, ControlStep, Protocol, Spectrum

REFS_DIR = Path(__file__).resolve().parent / "refs"
# Outputs go below the checkout root, which is the working directory.
WORK_DIR = Path(".bench_work")

VALUE_TOL = 1e-9
DIRECTION_TOL = 1e-6
IGNORED_KEYS = frozenset({"gradient_norm", "hessian_eigenvalues", "theta", "phi", "detail"})


def load_refs(workload: str) -> dict:
    return json.loads((REFS_DIR / f"{workload}.json").read_text())


def protocol_of(steps) -> Protocol:
    return Protocol.from_steps(ControlStep(eta=float(eta), k=int(k)) for k, eta in steps)


def _cycle_of(maps) -> AsymptoticCycle:
    return AsymptoticCycle.from_maps(BlochMap(np.array(m)) for m in maps)


def prepare(op: dict):
    """Build the op's inputs and return a zero-argument callable that runs it.

    Everything outside the returned callable is set-up and is not timed.
    The callable looks the API up on its module at call time, so that
    tracing wrappers installed later are seen.
    """
    kind = op["kind"]
    if kind == "cli":
        out = Path(op["out"])
        out.mkdir(parents=True, exist_ok=True)
        for stale in out.iterdir():
            stale.unlink()
        if op.get("config") is not None:
            Path(op["config_path"]).write_text(json.dumps(op["config"], indent=2) + "\n")
        argv = list(op["argv"])

        def run_cli():
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.main(argv)

        return run_cli
    if kind == "cycle":
        p = protocol_of(op["steps"])
        sp = Spectrum(op["theta_bar"], op["s"])
        return lambda: asymptotics.asymptotic_cycle(p, sp, op["order"])
    if kind == "pair":
        cycle = _cycle_of(op["maps"])
        return lambda: nonmarkov.optimal_pair_search(cycle)
    if kind == "vis":
        cycle = _cycle_of(op["maps"])
        return lambda: visibility.maximize_visibility(cycle)
    if kind == "calibrate":
        config = dataclasses.replace(cli.preset(op["preset"]), order=op["order"])
        return lambda: cli.calibrate(config)
    raise ValueError(f"unknown op kind {kind!r}")


def _file_summary(path: Path, mode: str):
    if mode == "sha256":
        return hashlib.sha256(path.read_bytes()).hexdigest()
    if mode == "csv":
        return path.read_text()
    if mode == "json":
        return _drop_ignored(json.loads(path.read_text()))
    raise ValueError(f"unknown file mode {mode!r}")


def _drop_ignored(obj):
    if isinstance(obj, dict):
        return {k: _drop_ignored(v) for k, v in obj.items() if k not in IGNORED_KEYS}
    if isinstance(obj, list):
        return [_drop_ignored(v) for v in obj]
    return obj


def summarize(op: dict, result, file_modes: dict) -> dict:
    """JSON-able summary of an op's output; ``file_modes`` maps CLI file -> mode."""
    kind = op["kind"]
    if kind == "cli":
        out = Path(op["out"])
        files = {}
        for name, mode in file_modes.items():
            path = out / name
            files[name] = {mode: _file_summary(path, mode)} if path.exists() else None
        return {"exit": result, "files": files}
    if kind == "cycle":
        return {"maps": [m.m.tolist() for m in result.maps], "y_eigenvalues": list(result.y_eigenvalues)}
    if kind == "pair":
        return {
            "rate": result.rate,
            "purity_swing": result.purity_swing,
            "direction": result.pair.a_plus.as_array().tolist(),
        }
    if kind == "vis":
        return {
            "value": result.value,
            "direction": result.direction.tolist(),
            "verdict": result.verdict,
            "degenerate": result.degenerate,
        }
    if kind == "calibrate":
        return {"s": result.s, "lambda_y": result.lambda_y, "max_abs_residual": result.max_abs_residual}
    raise ValueError(f"unknown op kind {kind!r}")


def file_modes(expect: dict) -> dict:
    """File -> comparison mode, as recorded in a CLI op's reference."""
    return {name: next(iter(entry)) for name, entry in expect.get("files", {}).items()}


def _close(a: float, b: float, printed: bool) -> bool:
    tol = VALUE_TOL
    if printed and b != 0.0:
        # Files carry 9 significant digits, so a last-bit change in the
        # library can move the printed value by one unit in the ninth digit.
        tol += 10.0 ** (math.floor(math.log10(abs(b))) - 8)
    return abs(a - b) <= tol


def _parse_csv(text: str):
    lines = text.strip().split("\n")
    return lines[0], [[float(v) for v in line.split(",")] for line in lines[1:]]


def _compare_csv(actual: str, expect: str, where: str, problems: list):
    head_a, rows_a = _parse_csv(actual)
    head_e, rows_e = _parse_csv(expect)
    if head_a != head_e or len(rows_a) != len(rows_e):
        problems.append(f"{where}: header or row count differs")
        return
    for i, (ra, re_) in enumerate(zip(rows_a, rows_e)):
        if len(ra) != len(re_) or not all(_close(a, b, True) for a, b in zip(ra, re_)):
            problems.append(f"{where}: row {i} differs ({ra} vs {re_})")
            return


def _same_direction(a, b) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return min(np.max(np.abs(a - b)), np.max(np.abs(a + b))) <= DIRECTION_TOL


def _compare(actual, expect, where: str, printed: bool, problems: list):
    if isinstance(expect, dict):
        if not isinstance(actual, dict) or set(actual) != set(expect):
            problems.append(f"{where}: keys differ")
            return
        for key, value in expect.items():
            sub = f"{where}.{key}"
            if key == "sha256":
                if actual[key] != value:
                    problems.append(f"{sub}: bytes differ")
            elif key == "csv":
                _compare_csv(actual[key], value, sub, problems)
            elif key == "direction":
                # A degenerate maximum has no unique direction to compare.
                if not expect.get("degenerate") and not _same_direction(actual[key], value):
                    problems.append(f"{sub}: {actual[key]} vs {value} (up to sign)")
            elif key == "json":
                _compare(actual[key], value, sub, True, problems)
            else:
                _compare(actual[key], value, sub, printed, problems)
    elif isinstance(expect, list):
        if not isinstance(actual, list) or len(actual) != len(expect):
            problems.append(f"{where}: length differs")
            return
        for i, (a, e) in enumerate(zip(actual, expect)):
            _compare(a, e, f"{where}[{i}]", printed, problems)
    elif isinstance(expect, float) and not isinstance(actual, bool) and isinstance(actual, (int, float)):
        if not _close(float(actual), expect, printed):
            problems.append(f"{where}: {actual!r} vs {expect!r}")
    elif actual != expect or type(actual) is not type(expect):
        problems.append(f"{where}: {actual!r} vs {expect!r}")


def check(op: dict, result) -> list:
    """Problems found comparing an op's output with its reference (empty if none)."""
    expect = op["expect"]
    problems: list = []
    _compare(summarize(op, result, file_modes(expect)), expect, op["id"], False, problems)
    return problems
