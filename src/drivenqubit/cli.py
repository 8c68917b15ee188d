"""Configuration, presets, calibration, cross-checks and file emission.

The command line exposes five subcommands -- simulate, asymptotics,
nonmarkov, visibility and verify -- that all consume the same JSON run
configuration (or a named preset) and write deterministic CSV/JSON files:
identical configurations produce byte-identical outputs (data floats are
fixed at 9 significant digits; the effective-config echo keeps full
precision so that re-ingesting it reproduces the run exactly).

Exit codes: 0 success, 2 configuration error, 3 numerical/convergence
error, 4 verification failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import itertools
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .asymptotics import (
    abel_limit,
    asymptotic_cycle,
    cesaro_mean,
    convergence_profile,
    limit_cycle,
    resolvent,
    steady_fold,
)
from .bloch import (
    ORDER_PHASE_AFTER,
    STEP_ORDERS,
    BlochVector,
    ControlStep,
    Protocol,
    Spectrum,
    averaged_maps,
    gaussian_average,
    product_chain,
    propagate,
    spectrum_from_physical,
    trig_compose,
)
from .errors import CalibrationError, ConfigError, ConvergenceError, DomainError, PoleError
from .nonmarkov import StatePair, asymptotic_blp_rate, blp_accumulate, pair_distances
from .visibility import SphereAngles, maximize_visibility

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_VERIFY = 4

NAMED_STATES = {
    "H": BlochVector(0.0, 0.0, 1.0),
    "V": BlochVector(0.0, 0.0, -1.0),
    "+y": BlochVector(0.0, 1.0, 0.0),
    "-y": BlochVector(0.0, -1.0, 0.0),
}

# Reference steady-cycle maps of the benchmark configurations (measured
# with a 3 nm filter at 800 nm).  The y-channel contraction 0.114589 of
# the two-unit cycle anchors the spectral-width calibration; the
# remaining entries serve as consistency targets.
CALIBRATION_ANCHOR = 0.114589
CALIBRATION_BRACKET = (0.05, 1.5)
CALIBRATION_TOL = 1e-6
# Longest run a config may ask for.  The cost grows faster than the square
# of the step count: in process on one CPU of a two-core Xeon, a simulate of
# a preset takes 1.3-1.9 s at 5,000 steps and 41-47 s at 20,000.
MAX_STEPS = 2**16

TWO_CONTROL_REFERENCE = (
    np.array(
        [
            [0.635946, 0.0, 0.394485],
            [0.0, 0.114589, 0.0],
            [0.394485, 0.0, 0.249465],
        ]
    ),
    np.array(
        [
            [0.394485, 0.0, 0.249465],
            [0.0, 0.114589, 0.0],
            [0.635946, 0.0, 0.394485],
        ]
    ),
)

THREE_CONTROL_REFERENCE = (
    np.array(
        [
            [0.363253, 0.0, 0.331023],
            [0.0, 0.0590277, 0.0],
            [0.331023, 0.0, 0.577719],
        ]
    ),
    np.array(
        [
            [0.350767, 0.0, 0.399416],
            [0.0, 0.127151, 0.0],
            [0.363253, 0.0, 0.331023],
        ]
    ),
    np.array(
        [
            [0.331023, 0.0, 0.577719],
            [0.0, -0.0386657, 0.0],
            [0.350767, 0.0, 0.399416],
        ]
    ),
)

_PRESET_WAVELENGTH_NM = 800.0
_PRESET_FWHM_NM = 3.0
_PRESET_BASE_UNIT = 40.0


# Each benchmark preset's protocol and reference cycle.
_PRESETS = {
    name: (Protocol.from_steps(ControlStep(eta=0.5, k=k) for k in ks), reference)
    for name, ks, reference in [
        ("two_controls", (3, 2), TWO_CONTROL_REFERENCE),
        ("three_controls", (3, 2, 1), THREE_CONTROL_REFERENCE),
    ]
}
PRESETS = tuple(_PRESETS)


def _check_base_unit(base: float) -> None:
    if not 0.0 < base < math.inf:  # false for NaN, unlike base <= 0
        raise ConfigError(f"protocol.base_unit_wavelengths must be finite and positive, got {base}")


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved inputs of one analysis run; ``state`` is the initial
    state as given, a key of NAMED_STATES or the SphereAngles of a pure state."""

    protocol: Protocol
    base_unit_wavelengths: float
    spectrum: Spectrum
    state: str | SphereAngles
    n_steps: int
    order: str = ORDER_PHASE_AFTER
    out_dir: str = "out"

    def __post_init__(self):
        if not (isinstance(self.state, SphereAngles) or self.state in tuple(NAMED_STATES)):
            raise ConfigError(
                f"initial_state must be one of {sorted(NAMED_STATES)} or an object "
                f"{{theta, phi}}, got {self.state!r}"
            )
        if not 0 <= self.n_steps <= MAX_STEPS:
            raise ConfigError(f"n_steps must be in [0, {MAX_STEPS}], got {self.n_steps}")
        if self.order not in STEP_ORDERS:
            raise ConfigError(f"order must be one of {STEP_ORDERS}, got {self.order!r}")
        _check_base_unit(self.base_unit_wavelengths)

    @property
    def initial_state(self) -> BlochVector:
        if isinstance(self.state, SphereAngles):
            return BlochVector.from_array(self.state.unit_vector())
        return NAMED_STATES[self.state]


def preset(name: str) -> RunConfig:
    """Benchmark run configurations: 50 cyclically stacked units.

    ``two_controls`` alternates plate multipliers k = (3, 2);
    ``three_controls`` cycles k = (3, 2, 1).  Both use eta = 1/2 rotations,
    a base plate of 40 wavelengths, the 800 nm / 3 nm FWHM filter spectrum
    and the initial state "H".
    """
    if name not in _PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {PRESETS}")
    return RunConfig(
        protocol=_PRESETS[name][0],
        base_unit_wavelengths=_PRESET_BASE_UNIT,
        spectrum=spectrum_from_physical(
            _PRESET_WAVELENGTH_NM, _PRESET_FWHM_NM, _PRESET_BASE_UNIT
        ),
        state="H",
        n_steps=50,
    )


def reference_maps_for(protocol: Protocol):
    """Reference cycle for a protocol, or None if it has none."""
    return next((ref for p, ref in _PRESETS.values() if p == protocol), None)


def _require(mapping: dict, key: str, context: str):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{context} must be an object, got {mapping!r}")
    if key not in mapping:
        raise ConfigError(f"missing field {context}.{key}" if context else f"missing field {key}")
    return mapping[key]


def _number(mapping: dict, key: str, context: str) -> float:
    """Required field ``context.key`` as a float; only a JSON number, not a bool, is one."""
    value = _require(mapping, key, context)
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        with contextlib.suppress(OverflowError):
            return float(value)
    raise ConfigError(f"{context}.{key} must be a number, got {value!r}")


def _integer(value, name: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return value


def config_from_dict(raw: dict) -> RunConfig:
    """Build a RunConfig from parsed JSON, naming any offending field."""
    if not isinstance(raw, dict):
        raise ConfigError("configuration root must be an object")
    proto_raw = _require(raw, "protocol", "")
    base = _number(proto_raw, "base_unit_wavelengths", "protocol")
    _check_base_unit(base)  # before the physical spectrum derived from it
    steps_raw = _require(proto_raw, "steps", "protocol")
    if not isinstance(steps_raw, list) or not steps_raw:
        raise ConfigError("protocol.steps must be a non-empty array")
    steps = []
    try:
        for i, s in enumerate(steps_raw):
            context = f"protocol.steps[{i}]"
            k = _integer(_require(s, "k", context), f"{context}.k")
            steps.append(ControlStep(eta=_number(s, "eta", context), k=k))
    except DomainError as exc:
        raise ConfigError(f"{context} is out of range: {exc}") from exc
    protocol = Protocol.from_steps(steps)

    spec_raw = _require(raw, "spectrum", "")
    if not isinstance(spec_raw, dict):
        raise ConfigError(f"spectrum must be an object, got {spec_raw!r}")
    direct = {"theta_bar", "s"} <= set(spec_raw)
    physical = {"lambda_nm", "fwhm_nm"} <= set(spec_raw)
    if direct == physical:
        raise ConfigError(
            "spectrum must give exactly one of {theta_bar, s} or {lambda_nm, fwhm_nm}"
        )
    try:
        if direct:
            spectrum = Spectrum(
                _number(spec_raw, "theta_bar", "spectrum"), _number(spec_raw, "s", "spectrum")
            )
        else:
            spectrum = spectrum_from_physical(
                _number(spec_raw, "lambda_nm", "spectrum"),
                _number(spec_raw, "fwhm_nm", "spectrum"),
                base,
            )
    except DomainError as exc:
        raise ConfigError(f"spectrum: {exc}") from exc

    state = raw.get("initial_state", "H")
    if isinstance(state, dict):
        try:
            state = SphereAngles(
                _number(state, "theta", "initial_state"), _number(state, "phi", "initial_state")
            )
        except DomainError as exc:
            raise ConfigError(f"initial_state: {exc}") from exc

    n_steps = _integer(raw.get("n_steps", 50), "n_steps")
    order = raw.get("order", ORDER_PHASE_AFTER)
    outputs = raw.get("outputs", {})
    if not isinstance(outputs, dict):
        raise ConfigError("outputs must be an object")
    out_dir = outputs.get("dir", "out")
    if not isinstance(out_dir, str):
        raise ConfigError(f"outputs.dir must be a string, got {out_dir!r}")

    return RunConfig(
        protocol=protocol,
        base_unit_wavelengths=base,
        spectrum=spectrum,
        state=state,
        n_steps=n_steps,
        order=order,
        out_dir=out_dir,
    )


def config_to_dict(config: RunConfig) -> dict:
    """Fully resolved configuration echo; re-ingesting reproduces the run."""
    state = config.state
    if isinstance(state, SphereAngles):
        state = {"theta": state.theta, "phi": state.phi}
    return {
        "protocol": {
            "base_unit_wavelengths": config.base_unit_wavelengths,
            "steps": [{"k": s.k, "eta": s.eta} for s in config.protocol.steps],
        },
        "spectrum": {"theta_bar": config.spectrum.theta_bar, "s": config.spectrum.s},
        "initial_state": state,
        "n_steps": config.n_steps,
        "order": config.order,
        "outputs": {"dir": config.out_dir},
    }


def load_config(path) -> RunConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return config_from_dict(raw)


@dataclass(frozen=True)
class CalibrationResult:
    """Fitted spectral width plus consistency residuals against the
    reference cycle (when the protocol has one), read from the folds at the
    fitted width, and the phase-0 fold every bisection width was read from:
    its node count N, strip half-width and guard delta (see
    ``asymptotics.SteadyFold``)."""

    spectrum: Spectrum
    s: float
    lambda_y: float
    anchor: float
    residuals: tuple | None
    max_abs_residual: float | None
    n_evaluations: int
    nodes: int
    strip_halfwidth: float
    guard_delta: float

    def table(self) -> str:
        lines = [
            f"fitted s = {self.s:.9g}",
            f"lambda_y = {self.lambda_y:.9g} (anchor {self.anchor:.9g})",
            f"{self.n_evaluations} widths from one fold: N = {self.nodes}, "
            f"strip half-width {self.strip_halfwidth:.4g}, guard delta {self.guard_delta:.3e}",
        ]
        if self.residuals is None:
            lines.append("no reference cycle for this protocol; no residual table")
            return "\n".join(lines)
        for k, res in enumerate(self.residuals):
            lines.append(f"phase {k} |computed - reference|:")
            for row in res:
                lines.append("  " + "  ".join(f"{v:.3e}" for v in row))
        lines.append(f"max abs residual = {self.max_abs_residual:.3e}")
        return "\n".join(lines)


def calibrate(config: RunConfig, anchor: float = CALIBRATION_ANCHOR) -> CalibrationResult:
    """Fit the spectral width so the phase-0 y-channel contraction hits
    the anchor, by bisection on s over CALIBRATION_BRACKET to CALIBRATION_TOL.

    Every width is read from the phase-0 fold of the steady integrand onto
    one period: ``asymptotics.steady_fold`` folds all T phases from one node
    pass over the axis of the period product, once, for the smallest width
    of the bracket, and lambda_y(s) is one dot product of phase 0's
    coefficients with the damping row exp(-h^2 s^2 / 2).  When the protocol
    has a reference cycle, the maps of all T folds at the fitted width give
    the residuals of all remaining entries as a consistency table.  Raises
    ConvergenceError where the folds need more nodes than the steady maps'
    cap or a phase fails its guard.

    Intended for the two-unit benchmark protocol (any protocol whose
    steady cycle decouples the y axis works the same way).
    """
    theta_bar = config.spectrum.theta_bar
    evaluations = 0
    reference = reference_maps_for(config.protocol)
    folds = steady_fold(config.protocol, theta_bar, CALIBRATION_BRACKET[0], config.order)
    fold = folds[0]

    def lambda_y(s: float) -> float:
        nonlocal evaluations
        evaluations += 1
        return float(fold.map_at(s)[1, 1])

    lo, hi = CALIBRATION_BRACKET
    f_lo = lambda_y(lo) - anchor
    f_hi = lambda_y(hi) - anchor
    if f_lo * f_hi > 0.0:
        sweep = np.linspace(lo, hi, 9)
        table = ", ".join(f"s={v:.3f}: {lambda_y(v):.6f}" for v in sweep)
        raise CalibrationError(
            f"no sign change of lambda_y - {anchor} on [{lo}, {hi}]; sweep: {table}"
        )
    mid, f_mid = lo, f_lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = lambda_y(mid) - anchor
        if abs(f_mid) < CALIBRATION_TOL:
            break
        if f_lo * f_mid <= 0.0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    else:
        raise CalibrationError(
            f"bisection did not reach |lambda_y - anchor| < {CALIBRATION_TOL}; "
            f"last residual {f_mid:.3e}"
        )

    residuals = None
    max_res = None
    if reference is not None:
        residuals = tuple(np.abs(f.map_at(mid) - ref) for f, ref in zip(folds, reference))
        max_res = float(max(np.max(r) for r in residuals))
    return CalibrationResult(
        spectrum=Spectrum(theta_bar, mid),
        s=mid,
        lambda_y=f_mid + anchor,
        anchor=anchor,
        residuals=residuals,
        max_abs_residual=max_res,
        n_evaluations=evaluations,
        nodes=fold.nodes,
        strip_halfwidth=fold.strip_halfwidth,
        guard_delta=fold.guard_delta,
    )


def _round_floats(obj):
    """Clamp every float to 9 significant digits for deterministic output."""
    if isinstance(obj, float):
        return float(f"{obj:.9g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _write_json(path: Path, payload: dict, round_floats: bool = True):
    if round_floats:
        payload = _round_floats(payload)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header, rows):
    """Floats at 9 significant digits, anything else as ``str``.  Each
    column keeps the type of its first row, so one format serves all rows."""
    fmt = ",".join("%.9g" if isinstance(v, float) else "%s" for v in rows[0])
    lines = [",".join(header)] + [fmt % row for row in rows]
    path.write_text("\n".join(lines) + "\n")


def _run_simulate(config: RunConfig, out: Path):
    traj = propagate(config.protocol, config.spectrum, config.n_steps, config.initial_state, config.order)
    x, y, z = traj.T
    # tr(rho^2), summed in the order 1, x^2, y^2, z^2.
    table = np.column_stack([traj, 0.5 * (1.0 + x**2 + y**2 + z**2)]).tolist()
    rows = [(step, *row) for step, row in enumerate(table)]
    _write_csv(out / "trajectory.csv", ("step", "ax", "ay", "az", "purity"), rows)


def _run_asymptotics(config: RunConfig, out: Path):
    cycle = asymptotic_cycle(config.protocol, config.spectrum, config.order)
    a0 = config.initial_state
    m_max = max(1, config.n_steps // cycle.period)
    traj = propagate(config.protocol, config.spectrum, m_max * cycle.period, a0, config.order)
    profile = convergence_profile(cycle, traj, 0)
    payload = {
        "period": cycle.period,
        "maps": [m.m.tolist() for m in cycle.maps],
        "y_eigenvalues": list(cycle.y_eigenvalues),
        "limit_cycle": limit_cycle(cycle, a0).tolist(),
        "convergence": {
            "phase": 0,
            "distances": list(profile.distances),
            "converged": profile.converged,
            "tolerance": profile.tolerance,
        },
    }
    _write_json(out / "asymptotics.json", payload)


def _run_nonmarkov(config: RunConfig, out: Path):
    pair = StatePair.antipodal(config.initial_state)
    d = pair_distances(
        config.protocol, config.spectrum, pair, config.n_steps, config.order
    )
    _write_csv(
        out / "nonmarkov.csv",
        ("step", "trace_distance"),
        [(i, float(v)) for i, v in enumerate(d)],
    )
    cycle = asymptotic_cycle(config.protocol, config.spectrum, config.order)
    payload = {
        "blp_total": blp_accumulate(d),
        "per_cycle_rate": asymptotic_blp_rate(cycle, pair),
        "n_steps": config.n_steps,
        "period": cycle.period,
        "y_eigenvalues": list(cycle.y_eigenvalues),
    }
    _write_json(out / "nonmarkov.json", payload)


def _run_visibility(config: RunConfig, out: Path):
    cycle = asymptotic_cycle(config.protocol, config.spectrum, config.order)
    vm = maximize_visibility(cycle)
    payload = {
        "theta": vm.angles.theta,
        "phi": vm.angles.phi,
        "direction": vm.direction.tolist(),
        "value": vm.value,
        "gradient_norm": vm.gradient_norm,
        "hessian_eigenvalues": list(vm.hessian_eigenvalues),
        "verdict": vm.verdict,
        "degenerate": vm.degenerate,
    }
    _write_json(out / "visibility.json", payload)


def _trapezoid_average(tm, sp: Spectrum) -> np.ndarray:
    """Average of tm(theta) over the Gaussian phase by the trapezoid rule on
    theta_bar + s x, |x| <= 9, at the step 2 pi / (s H + 9) in x.  Harmonic
    h <= H then aliases at most exp(-9^2 / 2) of its weight, as much as the
    tails cut off (Trefethen & Weideman, SIAM Rev. 56, 2014)."""
    step = 2.0 * math.pi / (sp.s * tm.max_harmonic + 9.0)
    j = math.ceil(9.0 / step)
    x = step * np.arange(-j, j + 1)
    w = np.exp(-0.5 * x * x)
    # A running sum in node order.
    return np.add.reduce((w / w.sum())[:, None, None] * tm.evaluate(sp.theta_bar + sp.s * x), axis=0)


def _max_dev(a, b) -> float:
    """Largest entrywise |a - b|; 0.0 for empty stacks."""
    return float(np.max(np.abs(a - b), initial=0.0))


def _residue(w: np.ndarray) -> np.ndarray:
    """Residues of the resolvents of a stack (n, 3, 3) at z = 1,
    Richardson-extrapolated from (1 - z) (I - z W)^-1 at z = 1 - 1e-7 and
    1 - 1e-8."""
    r = resolvent(w[:, None], [1.0 - 1e-7, 1.0 - 1e-8])
    v7 = 1e-7 * r[:, 0]
    v8 = 1e-8 * r[:, 1]
    return np.real((10.0 * v8 - v7) / 9.0)


def _verification_checks(config: RunConfig):
    """Oracle cross-checks on the configured run; yields (name, ok, detail).
    Each check evaluates all of its probe phases in one call."""
    rng = np.random.default_rng(20240801)
    p = config.protocol
    sp = config.spectrum
    order = config.order
    eye = np.eye(3)
    # Every product the checks read: P_0 = I up to the deepest one used.
    products = list(itertools.islice(product_chain(p, order), max(50, 3 * p.period) + 1))
    period_tm = products[p.period]

    thetas = rng.uniform(-np.pi, np.pi, size=100)
    half = products[max(1, p.period // 2)]
    lhs = trig_compose(period_tm, half).evaluate(thetas)
    worst = _max_dev(lhs, period_tm.evaluate(thetas) @ half.evaluate(thetas))
    yield "compose/evaluate homomorphism", worst < 1e-12, f"max dev {worst:.3e}"

    ms = np.concatenate([products[n].evaluate(rng.uniform(-np.pi, np.pi, size=10)) for n in (1, 7, 50)])
    worst = max(_max_dev(ms.transpose(0, 2, 1) @ ms, eye), _max_dev(np.linalg.det(ms), 1.0))
    yield "products stay special orthogonal", worst < 1e-10, f"max dev {worst:.3e}"

    tm = products[3 * p.period]
    # The uniform limit, where every harmonic h >= 1 is damped to 0.0 and
    # the average is exactly the harmonic-0 term.
    if sp.is_uniform:
        quad = tm.terms[0, 0]
        detail = "uniform limit: harmonic-0 term"
    elif sp.s == 0.0:
        quad = tm.evaluate(sp.theta_bar)
        detail = "sharp limit: point evaluation"
    else:
        quad = _trapezoid_average(tm, sp)
        detail = "trapezoid rule"
    dev = _max_dev(gaussian_average(tm, sp).m, quad)
    yield "harmonic average vs quadrature", dev < 1e-10, f"{detail}, max dev {dev:.3e}"

    probe = period_tm.evaluate(rng.uniform(-np.pi, np.pi, size=40))
    gap = np.abs(np.trace(probe, axis1=1, axis2=2) - 3.0)
    keep = gap >= 1e-3
    kept = probe[keep]
    proj = abel_limit(kept)
    worst = max(_max_dev(proj @ proj, proj), _max_dev(proj @ kept, proj), _max_dev(kept @ proj, proj))
    # The Cesaro sum converges like 1/(N * spectral gap); keep to
    # comfortably non-degenerate rotations.
    wide = np.flatnonzero(gap[keep] > 1e-1)[:5]
    cesaro_worst = _max_dev(cesaro_mean(kept[wide]), proj[wide])
    yield "axis projector laws", worst < 1e-12, f"max dev {worst:.3e}"
    yield "Abel limit vs Cesaro iteration", cesaro_worst < 1e-5, f"max dev {cesaro_worst:.3e}"

    head = probe[:5]
    z = np.array([0.3 + 0.4j, -0.5 + 0.2j, 0.9])
    worst = _max_dev((eye - z[:, None, None] * head[:, None]) @ resolvent(head[:, None], z), eye)
    turned = head[gap[:5] > 1e-1]
    residue_worst = _max_dev(_residue(turned), abel_limit(turned))
    yield "resolvent inverse identity", worst < 1e-12, f"max dev {worst:.3e}"
    yield "residue at z=1 vs Abel limit", residue_worst < 1e-6, f"max dev {residue_worst:.3e}"

    averaged = averaged_maps(p, sp, 2 * p.period, order)
    steady = [m.m for m in asymptotic_cycle(p, sp, order).maps]
    worst = float(np.max(np.linalg.svd(np.concatenate([averaged, steady]), compute_uv=False)))
    yield "averaged maps contract", worst <= 1.0 + 1e-12, f"max singular value {worst:.12f}"

    worst_excess, aligned_dev = _measurement_bound(rng, 50)
    yield (
        "measurement bound on distinguishability",
        worst_excess <= 1e-14 and aligned_dev <= 1e-14,
        f"max excess {worst_excess:.3e}, aligned dev {aligned_dev:.3e}",
    )


def _measurement_bound(rng, n: int):
    """Over n random states x, y in the unit ball and effects f with
    |f| <= 1: the largest excess of f . (x - y) / 2 over the trace distance
    (-1.0 floor), and the largest deviation from it of the effect aligned
    with x - y.  Per sample the draws run x, y, f, each a normal direction
    then a uniform radius; the values are evaluated in one pass."""
    draws = [(rng.normal(size=3), rng.uniform(0.0, 1.0)) for _ in range(3 * n)]
    directions = np.array([v for v, _ in draws]).reshape(n, 3, 3)
    # x and y are uniform in the ball.  Python's float power: numpy's array
    # power may round differently.
    radii = np.array([r if i % 3 == 2 else r ** (1.0 / 3.0) for i, (_, r) in enumerate(draws)])
    # np.linalg.norm's bits: the square root of a dot product.
    unit = directions / np.sqrt(np.vecdot(directions, directions))[..., None]
    x, y, f = (unit * radii.reshape(n, 3, 1)).transpose(1, 0, 2)
    diff = x - y
    # trace_distance and trace_distance_povm's bits: dot products with x - y.
    d = 0.5 * np.sqrt(np.vecdot(diff, diff))
    worst_excess = float(np.max(0.5 * np.vecdot(f, diff) - d, initial=-1.0))
    diff, d = diff[d > 1e-12], d[d > 1e-12]
    aligned = diff / (2.0 * d[:, None])
    aligned_dev = float(np.max(np.abs(0.5 * np.vecdot(aligned, diff) - d), initial=0.0))
    return worst_excess, aligned_dev


def _run_verify(config: RunConfig, out: Path) -> int:
    report = []
    all_ok = True
    for name, ok, detail in _verification_checks(config):
        report.append({"check": name, "passed": bool(ok), "detail": detail})
        all_ok = all_ok and ok
        print(f"{'ok  ' if ok else 'FAIL'} {name} ({detail})")
    _write_json(out / "verify.json", {"passed": all_ok, "checks": report})
    return EXIT_OK if all_ok else EXIT_VERIFY


# Each subcommand's runner; only verify returns an exit code.
_RUNNERS = {
    "simulate": _run_simulate,
    "asymptotics": _run_asymptotics,
    "nonmarkov": _run_nonmarkov,
    "visibility": _run_visibility,
    "verify": _run_verify,
}
SUBCOMMANDS = tuple(_RUNNERS)


def run(config: RunConfig, subcommand: str) -> int:
    """Execute one subcommand, writing its files into the output directory."""
    if subcommand not in SUBCOMMANDS:
        raise ConfigError(f"unknown subcommand {subcommand!r}; available: {SUBCOMMANDS}")
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "effective_config.json", config_to_dict(config), round_floats=False)
    return _RUNNERS[subcommand](config, out) or EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drivenqubit",
        description="Simulate and analyze periodically driven qubit dephasing.",
    )
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", type=Path, help="JSON run configuration")
    source.add_argument("--preset", choices=PRESETS, help="named benchmark configuration")
    parser.add_argument("--out", help="output directory (overrides the config)")
    parser.add_argument("--order", choices=STEP_ORDERS, help="step-operator ordering")
    parser.add_argument(
        "--spectrum-s", type=float, dest="spectrum_s",
        help="override the spectral width s (radians per base unit)",
    )
    parser.add_argument("--steps", type=int, help="override the number of steps")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = preset(args.preset) if args.preset else load_config(args.config)
        spectrum = None if args.spectrum_s is None else Spectrum(config.spectrum.theta_bar, args.spectrum_s)
        overrides = {"order": args.order, "spectrum": spectrum, "n_steps": args.steps, "out_dir": args.out}
        config = dataclasses.replace(config, **{k: v for k, v in overrides.items() if v is not None})
        return run(config, args.subcommand)
    except (ConfigError, DomainError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ConvergenceError, PoleError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as exc:
        print(f"numerical error: out of memory: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
