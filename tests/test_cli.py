import copy
import dataclasses
import hashlib
import json
import math
import os
import random
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from drivenqubit import (
    CALIBRATION_ANCHOR,
    BlochVector,
    CalibrationError,
    ConfigError,
    ControlStep,
    ConvergenceError,
    PoleError,
    Protocol,
    SphereAngles,
    Spectrum,
    asymptotic_cycle,
    asymptotic_map,
    calibrate,
    config_from_dict,
    config_to_dict,
    preset,
    run,
    spectrum_from_physical,
    trace_distance,
    trace_distance_povm,
)
from drivenqubit import asymptotics, bloch, cli
from drivenqubit.cli import MAX_STEPS, main

from conftest import CALIBRATED_S, random_ball_point, recorded_ops

# Hashes of the preset CLI outputs pinned by the benchmark references.
PRESET_REFS = Path(__file__).resolve().parents[1] / "bench" / "refs" / "cli_presets.json"


def preset_ops() -> list:
    """The 20 preset runs: five subcommands x two presets x two step orders."""
    templates = json.loads(PRESET_REFS.read_text())["templates"]
    return [op for template in templates for variant in template["variants"] for op in variant]


def src_env() -> dict:
    """The environment with this checkout's src first on PYTHONPATH."""
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}


def read_output(out_dir, name: str) -> str:
    return (Path(out_dir) / name).read_text()


@pytest.fixture()
def two_config(tmp_path):
    return dataclasses.replace(preset("two_controls"), out_dir=str(tmp_path / "out"))


def config_dict(out_dir, **overrides):
    base = {
        "protocol": {
            "base_unit_wavelengths": 40,
            "steps": [{"k": 3, "eta": 0.5}, {"k": 2, "eta": 0.5}],
        },
        "spectrum": {"theta_bar": 0.0, "s": 0.4},
        "initial_state": "H",
        "n_steps": 10,
        "order": "eq2b",
        "outputs": {"dir": str(out_dir)},
    }
    base.update(overrides)
    return base


class TestPreset:
    def test_two_controls(self):
        cfg = preset("two_controls")
        ks = [s.k for s in cfg.protocol.steps]
        assert ks == [3, 2]
        assert ks[0] / ks[1] == pytest.approx(3 / 2)
        assert all(s.eta == 0.5 for s in cfg.protocol.steps)
        assert cfg.n_steps == 50
        assert cfg.state == "H"
        assert cfg.initial_state.as_array().tolist() == [0.0, 0.0, 1.0]

    def test_three_controls(self):
        cfg = preset("three_controls")
        ks = [s.k for s in cfg.protocol.steps]
        assert ks == [3, 2, 1]
        assert ks[0] / ks[1] == pytest.approx(3 / 2)
        assert ks[1] / ks[2] == pytest.approx(2.0)
        assert cfg.n_steps == 50
        assert cfg.state == "H"
        assert cfg.initial_state.as_array().tolist() == [0.0, 0.0, 1.0]

    def test_physical_spectrum(self):
        cfg = preset("two_controls")
        assert cfg.spectrum.theta_bar == 0.0
        assert cfg.spectrum.s == pytest.approx(0.400233469, abs=1e-9)

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            preset("four_controls")


class TestConfigParsing:
    def test_round_trip(self, tmp_path):
        cfg = config_from_dict(config_dict(tmp_path))
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_round_trip_with_angles(self, tmp_path):
        raw = config_dict(tmp_path, initial_state={"theta": 1.1, "phi": 2.2})
        cfg = config_from_dict(raw)
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_preset_round_trip(self):
        cfg = preset("three_controls")
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_spectrum_forms_are_exclusive(self, tmp_path):
        raw = config_dict(tmp_path)
        raw["spectrum"] = {"theta_bar": 0.0, "s": 0.4, "lambda_nm": 800, "fwhm_nm": 3}
        with pytest.raises(ConfigError, match="spectrum"):
            config_from_dict(raw)
        raw["spectrum"] = {}
        with pytest.raises(ConfigError, match="spectrum"):
            config_from_dict(raw)

    def test_physical_spectrum_resolution(self, tmp_path):
        raw = config_dict(tmp_path)
        raw["spectrum"] = {"lambda_nm": 800, "fwhm_nm": 3}
        cfg = config_from_dict(raw)
        assert cfg.spectrum == spectrum_from_physical(800, 3, 40)

    def test_fully_dephased_limit_via_infinity_literal(self, tmp_path):
        path = tmp_path / "uniform.json"
        raw = config_dict(tmp_path / "u")
        path.write_text(
            json.dumps(raw).replace('"s": 0.4', '"s": Infinity')
        )
        from drivenqubit.cli import load_config

        cfg = load_config(path)
        assert cfg.spectrum.is_uniform
        assert run(cfg, "simulate") == 0
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_missing_field_is_named(self, tmp_path):
        raw = config_dict(tmp_path)
        del raw["protocol"]["steps"]
        with pytest.raises(ConfigError, match="protocol.steps"):
            config_from_dict(raw)

    def test_bad_initial_state(self, tmp_path):
        with pytest.raises(ConfigError, match="initial_state"):
            config_from_dict(config_dict(tmp_path, initial_state="D"))

    def test_n_steps_bound(self):
        cfg = preset("two_controls")
        assert dataclasses.replace(cfg, n_steps=MAX_STEPS).n_steps == MAX_STEPS
        with pytest.raises(ConfigError, match="n_steps"):
            dataclasses.replace(cfg, n_steps=MAX_STEPS + 1)

    def test_bad_step_values(self, tmp_path):
        raw = config_dict(tmp_path)
        raw["protocol"]["steps"][0]["eta"] = 1.5
        with pytest.raises(ConfigError, match="protocol.steps"):
            config_from_dict(raw)


def bisect_on_window(config, anchor=CALIBRATION_ANCHOR):
    """calibrate's bisection with one adaptive ``asymptotic_map`` per width,
    kept as the oracle of the fold's widths: (s, lambda_y, evaluations), or
    None where the bracket has no sign change."""
    widths = []

    def f(s):
        widths.append(s)
        sp = Spectrum(config.spectrum.theta_bar, s)
        return float(asymptotic_map(config.protocol, sp, 0, config.order).m[1, 1]) - anchor

    lo, hi = cli.CALIBRATION_BRACKET
    f_lo, f_hi = f(lo), f(hi)
    if f_lo * f_hi > 0.0:
        return None
    while True:
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if abs(f_mid) < cli.CALIBRATION_TOL:
            return mid, f_mid + anchor, len(widths)
        if f_lo * f_mid <= 0.0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid


class TestCalibrate:
    @pytest.mark.parametrize("order", ["eq2b", "eq4a"])
    def test_fitted_width_keeps_its_bits(self, two_config, order):
        result = calibrate(dataclasses.replace(two_config, order=order))
        assert result.s == CALIBRATED_S
        assert result.n_evaluations == 19
        assert abs(result.lambda_y - 0.11458804666813145) <= 1e-15
        # One fold serves all 19 widths: N = 512 nodes for rho = 0.4415.
        assert (result.nodes, round(result.strip_halfwidth, 4)) == (512, 0.4415)
        assert result.guard_delta <= 1e-12
        assert "19 widths from one fold: N = 512, strip half-width 0.4415, guard delta" in result.table()

    @pytest.mark.parametrize("order", ["eq2b", "eq4a"])
    @pytest.mark.parametrize("name", ["two_controls", "three_controls"])
    def test_residuals_come_from_the_folds(self, name, order, monkeypatch):
        # The folds of every phase come from the phase-0 fold's node pass, so
        # calibrate runs no asymptotic_cycle and no window at all: it asks
        # for no window nodes.  The table is within 1e-12 of the window's
        # cycle at the fitted width.
        config = dataclasses.replace(preset(name), order=order)
        windows = []
        monkeypatch.setattr(cli, "asymptotic_cycle", lambda *args: pytest.fail("calibrate ran asymptotic_cycle"))
        monkeypatch.setattr(asymptotics, "_quad_nodes", lambda *args: windows.append(args))
        result = calibrate(config)
        monkeypatch.undo()
        assert windows == []
        cycle = asymptotic_cycle(config.protocol, result.spectrum, order)
        reference = cli.reference_maps_for(config.protocol)
        assert len(result.residuals) == len(reference) == config.protocol.period
        for got, m, ref in zip(result.residuals, cycle.maps, reference):
            assert np.max(np.abs(got - np.abs(m.m - ref))) <= 1e-12

    def test_random_protocols_fit_the_window_bisection(self, two_config):
        rng = np.random.default_rng(20261019)
        fitted = 0
        for _ in range(8):
            steps = [ControlStep(float(rng.uniform()), int(rng.integers(0, 5))) for _ in range(rng.integers(1, 4))]
            config = dataclasses.replace(two_config, protocol=Protocol(steps), order=str(rng.choice(["eq2b", "eq4a"])))
            want = bisect_on_window(config)
            if want is None:
                with pytest.raises(CalibrationError, match="no sign change"):
                    calibrate(config)
                continue
            got = calibrate(config)
            assert (got.s, got.n_evaluations) == (want[0], want[2])
            assert abs(got.lambda_y - want[1]) <= 1e-14
            fitted += 1
        assert fitted >= 3

    def test_two_control_anchor(self, two_config):
        result = calibrate(two_config)
        physical = spectrum_from_physical(800.0, 3.0, 40.0).s
        assert abs(result.s - physical) < 1e-4
        assert result.lambda_y == pytest.approx(CALIBRATION_ANCHOR, abs=1e-6)
        assert result.max_abs_residual is not None
        assert result.max_abs_residual <= 2e-3
        assert "fitted s" in result.table()

    def test_uniform_limit_misses_anchor(self, two_config):
        lam_uniform = asymptotic_map(two_config.protocol, Spectrum(0.0, math.inf), 0).m[1, 1]
        assert abs(lam_uniform - CALIBRATION_ANCHOR) > 0.05

    def test_unreachable_anchor_raises_with_sweep(self, two_config):
        with pytest.raises(CalibrationError, match="sweep"):
            calibrate(two_config, anchor=0.9)

    def test_protocol_without_reference_has_no_residuals(self, tmp_path):
        raw = config_dict(tmp_path)
        raw["protocol"]["steps"] = [{"k": 2, "eta": 0.5}, {"k": 1, "eta": 0.5}]
        cfg = config_from_dict(raw)
        result = calibrate(cfg)
        assert result.lambda_y == pytest.approx(CALIBRATION_ANCHOR, abs=1e-6)
        assert result.residuals is None
        assert "no reference cycle" in result.table()


class TestRunOutputs:
    def test_simulate_row_count(self, two_config):
        assert run(two_config, "simulate") == 0
        rows = read_output(two_config.out_dir, "trajectory.csv").strip().split("\n")
        assert rows[0] == "step,ax,ay,az,purity"
        assert len(rows) == 52  # header + steps 0..50

    def test_determinism(self, two_config):
        run(two_config, "simulate")
        first = read_output(two_config.out_dir, "trajectory.csv")
        run(two_config, "simulate")
        assert read_output(two_config.out_dir, "trajectory.csv") == first

    def test_replaced_initial_state_round_trips(self, tmp_path):
        # The echo names the state the run starts from, and re-ingesting it
        # reproduces the run byte for byte.
        cases = [("V", "V"), (SphereAngles(2.0, 4.0), {"theta": 2.0, "phi": 4.0})]
        for i, (state, echo) in enumerate(cases):
            cfg = dataclasses.replace(
                preset("two_controls"), state=state, n_steps=10, out_dir=str(tmp_path / f"run{i}")
            )
            assert run(cfg, "simulate") == 0
            start = read_output(cfg.out_dir, "trajectory.csv").split("\n")[1].split(",")[1:4]
            assert [float(v) for v in start] == pytest.approx(cfg.initial_state.as_array().tolist())
            echoed = json.loads(read_output(cfg.out_dir, "effective_config.json"))
            assert echoed["initial_state"] == echo
            echoed["outputs"]["dir"] = str(tmp_path / f"replay{i}")
            replay = config_from_dict(echoed)
            assert replay == dataclasses.replace(cfg, out_dir=echoed["outputs"]["dir"])
            assert run(replay, "simulate") == 0
            assert read_output(replay.out_dir, "trajectory.csv") == read_output(
                cfg.out_dir, "trajectory.csv"
            )

    def test_effective_config_reproduces_run(self, two_config, tmp_path):
        run(two_config, "simulate")
        echoed = json.loads(read_output(two_config.out_dir, "effective_config.json"))
        echoed["outputs"]["dir"] = str(tmp_path / "replay")
        replay = config_from_dict(echoed)
        run(replay, "simulate")
        assert read_output(replay.out_dir, "trajectory.csv") == read_output(
            two_config.out_dir, "trajectory.csv"
        )

    def test_large_mean_phase_echoes_reduced(self, tmp_path):
        # A config theta_bar of a million turns runs on, and echoes, the mean
        # phase reduced by whole turns; re-ingesting the echo reproduces
        # the run byte for byte.
        cfg = config_from_dict(config_dict(tmp_path / "big", spectrum={"theta_bar": 2.0**20 + 0.3, "s": CALIBRATED_S}))
        assert cfg.spectrum.theta_bar == Spectrum(2.0**20 + 0.3, CALIBRATED_S).theta_bar
        assert 0.0 < cfg.spectrum.theta_bar < 2.0 * math.pi
        assert run(cfg, "asymptotics") == 0
        echoed = json.loads(read_output(cfg.out_dir, "effective_config.json"))
        assert echoed["spectrum"]["theta_bar"] == cfg.spectrum.theta_bar
        echoed["outputs"]["dir"] = str(tmp_path / "replay")
        replay = config_from_dict(echoed)
        assert replay == dataclasses.replace(cfg, out_dir=echoed["outputs"]["dir"])
        assert run(replay, "asymptotics") == 0
        assert read_output(replay.out_dir, "asymptotics.json") == read_output(cfg.out_dir, "asymptotics.json")

    def test_library_steps_echo_integer_k(self, two_config):
        # Steps built with a whole float or numpy k echo "k" as an integer,
        # which config_from_dict accepts.
        steps = [ControlStep(np.float64(0.5), 3.0), ControlStep(0.5, np.int64(2))]
        cfg = dataclasses.replace(two_config, protocol=Protocol(steps))
        echoed = json.loads(json.dumps(config_to_dict(cfg)))
        assert echoed["protocol"]["steps"] == [{"k": 3, "eta": 0.5}, {"k": 2, "eta": 0.5}]
        assert all(type(step["k"]) is int for step in echoed["protocol"]["steps"])
        assert config_from_dict(echoed) == two_config

    def test_asymptotics_emits_period_maps(self, tmp_path):
        cfg = config_from_dict(
            config_dict(
                tmp_path / "a3",
                protocol={
                    "base_unit_wavelengths": 40,
                    "steps": [
                        {"k": 3, "eta": 0.5},
                        {"k": 2, "eta": 0.5},
                        {"k": 1, "eta": 0.5},
                    ],
                },
                n_steps=30,
            )
        )
        assert run(cfg, "asymptotics") == 0
        payload = json.loads(read_output(cfg.out_dir, "asymptotics.json"))
        assert payload["period"] == 3
        assert len(payload["maps"]) == 3
        assert len(payload["limit_cycle"]) == 3
        assert len(payload["y_eigenvalues"]) == 3

    @pytest.mark.parametrize("name, period", [("two_controls", 2), ("three_controls", 3)])
    def test_asymptotics_runs_one_quadrature_pass(self, name, period, tmp_path, monkeypatch):
        # The steady cycle is computed once, for all phases, from one product
        # chain and one window, and the limit cycle and the convergence
        # profile read it.
        periods, refinements = [], []
        chain, quad_nodes = asymptotics._chain, asymptotics._quad_nodes

        def counted_chain(p, order):
            periods.append(p.period)
            return chain(p, order)

        def counted_nodes(sp, n_nodes):
            refinements.append(n_nodes)
            return quad_nodes(sp, n_nodes)

        monkeypatch.setattr(asymptotics, "_chain", counted_chain)
        monkeypatch.setattr(asymptotics, "_quad_nodes", counted_nodes)
        assert main(["asymptotics", "--preset", name, "--out", str(tmp_path)]) == 0
        assert periods == [period]
        assert refinements.count(asymptotics.QUAD_MIN_NODES) == 1

    def test_nonmarkov_files(self, tmp_path):
        cfg = config_from_dict(config_dict(tmp_path / "nm", initial_state="+y"))
        assert run(cfg, "nonmarkov") == 0
        rows = read_output(cfg.out_dir, "nonmarkov.csv").strip().split("\n")
        assert rows[0] == "step,trace_distance"
        assert len(rows) == cfg.n_steps + 2  # header + D_0..D_n
        payload = json.loads(read_output(cfg.out_dir, "nonmarkov.json"))
        assert payload["blp_total"] >= 0.0
        assert "per_cycle_rate" in payload

    def test_csv_prints_noise_as_zero(self, tmp_path):
        # Each |x| < 1e-12, -0.0 included, prints as 0; +-1e-12 print as they are.
        table = np.array([[9.99e-13, -1e-13, -0.0, 1e-12, -1e-12], [0.25, -3.0, 1e-11, 0.0, 1.0 / 3.0]])
        cli._write_csv(tmp_path / "t.csv", ("step", "a", "b", "c", "d", "e"), table)
        assert read_output(tmp_path, "t.csv") == "step,a,b,c,d,e\n0,0,0,0,1e-12,-1e-12\n1,0.25,-3,1e-11,0,0.333333333\n"

    def test_visibility_report(self, tmp_path):
        cfg = config_from_dict(config_dict(tmp_path / "vis", n_steps=6))
        assert run(cfg, "visibility") == 0
        payload = json.loads(read_output(cfg.out_dir, "visibility.json"))
        assert set(payload) >= {"theta", "phi", "direction", "value", "verdict", "degenerate"}
        assert payload["verdict"].startswith("negative")

    def test_unknown_subcommand(self, two_config):
        with pytest.raises(ConfigError):
            run(two_config, "calibrate")


class TestMainEntry:
    def test_verify_presets_exit_zero(self, tmp_path, capsys):
        for name in ("two_controls", "three_controls"):
            code = main(["verify", "--preset", name, "--out", str(tmp_path / name)])
            assert code == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"protocol": {}}))
        assert main(["simulate", "--config", str(bad), "--out", str(tmp_path)]) == 2

    def test_collapsed_spectral_window_exit_zero(self, tmp_path):
        # theta_bar -/+ 8 s round to one float: the steady maps are point values.
        path = tmp_path / "narrow.json"
        raw = config_dict(tmp_path / "out", spectrum={"theta_bar": 1.0, "s": 1e-18})
        path.write_text(json.dumps(raw))
        assert main(["asymptotics", "--config", str(path)]) == 0

    def test_subnormal_spectral_window_exit_zero(self, tmp_path):
        # Every quadrature weight underflows at the smallest widths: point values.
        path = tmp_path / "subnormal.json"
        raw = config_dict(tmp_path / "out", spectrum={"theta_bar": 0.0, "s": 5e-324})
        path.write_text(json.dumps(raw))
        assert main(["asymptotics", "--config", str(path)]) == 0

    @pytest.mark.parametrize(
        "keys, value, field",
        [
            (("protocol", "steps", 0, "eta"), "abc", "protocol.steps[0].eta"),
            (("protocol", "steps", 0, "eta"), None, "protocol.steps[0].eta"),
            (("protocol", "steps", 0, "eta"), True, "protocol.steps[0].eta"),
            (("spectrum", "s"), 10**400, "spectrum.s"),
            (("protocol", "base_unit_wavelengths"), "x", "protocol.base_unit_wavelengths"),
            (("spectrum", "theta_bar"), "a", "spectrum.theta_bar"),
            (("spectrum",), 5, "spectrum"),
            (("protocol", "steps"), [3], "protocol.steps[0]"),
            (("protocol", "steps", 0, "k"), 2.5, "protocol.steps[0].k"),
            (("protocol", "steps", 0, "k"), True, "protocol.steps[0].k"),
            (("protocol", "steps", 0, "k"), 10**30, "protocol.steps[0]"),
            (("outputs", "dir"), [1], "outputs.dir"),
            (("initial_state",), 5, "initial_state"),
            # A number written as a JSON string is not a number.
            (("protocol", "steps", 0, "eta"), "0.5", "protocol.steps[0].eta"),
            (("protocol", "base_unit_wavelengths"), "40", "protocol.base_unit_wavelengths"),
            (("spectrum", "s"), " 1e3 ", "spectrum.s"),
            (("protocol", "steps"), [], "protocol.steps"),
            (("initial_state",), {"theta": 4.0, "phi": 0.0}, "initial_state: theta"),
            (("initial_state",), {"theta": 1.0, "phi": 7.0}, "initial_state: phi"),
            (("order",), "x", "order"),
            (("outputs",), 5, "outputs"),
        ],
        ids=["eta-str", "eta-null", "eta-bool", "s-overflow", "base-str", "theta_bar-str", "spectrum-int", "step-int",
             "k-float", "k-bool", "k-oversized", "dir-list", "state-int", "eta-numeric-str", "base-numeric-str",
             "s-padded-str", "steps-empty", "theta-range", "phi-range", "order-token", "outputs-int"],
    )
    def test_wrong_field_type_exit_code(self, tmp_path, capsys, monkeypatch, keys, value, field):
        raw = config_dict(tmp_path / "out")
        parent = raw
        for key in keys[:-1]:
            parent = parent[key]
        parent[keys[-1]] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--config", str(path)]) == 2
        assert f"configuration error: {field} " in capsys.readouterr().err
        # No output directory is made: neither the configured one nor one named after the value.
        assert [p.name for p in tmp_path.iterdir()] == ["bad.json"]

    @pytest.mark.parametrize("base", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize(
        "spectrum", [{"theta_bar": 0.0, "s": 0.4}, {"lambda_nm": 800.0, "fwhm_nm": 3.0}], ids=["direct", "physical"]
    )
    def test_non_finite_base_unit_exit_code(self, tmp_path, capsys, monkeypatch, base, spectrum):
        # NaN <= 0 is false, and a NaN echoed into effective_config.json is not JSON.
        raw = config_dict(tmp_path / "out", spectrum=spectrum)
        raw["protocol"]["base_unit_wavelengths"] = base
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--config", str(path)]) == 2
        assert "configuration error: protocol.base_unit_wavelengths " in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["bad.json"]
        with pytest.raises(ConfigError, match="base_unit_wavelengths"):
            dataclasses.replace(preset("two_controls"), base_unit_wavelengths=base)

    @pytest.mark.parametrize("source", ["config", "--steps"])
    def test_oversized_n_steps_exits_at_once(self, tmp_path, capsys, source):
        raw = config_dict(tmp_path / "out")
        argv = ["simulate", "--config", str(tmp_path / "long.json")]
        if source == "config":
            raw["n_steps"] = 10**12
        else:
            argv += ["--steps", str(10**12)]
        (tmp_path / "long.json").write_text(json.dumps(raw))
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 1.0
        assert "configuration error: n_steps " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "error, message",
        [
            (MemoryError("cannot allocate the harmonic band"), "numerical error: out of memory: cannot allocate"),
            (ConvergenceError("steady-map quadrature did not converge"), "numerical error: steady-map quadrature"),
            (PoleError("resolvent pole of matrix 0"), "numerical error: resolvent pole of matrix 0"),
        ],
        ids=["MemoryError", "ConvergenceError", "PoleError"],
    )
    def test_out_of_memory_exit_code(self, tmp_path, monkeypatch, capsys, error, message):
        def exhausted(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, "propagate", exhausted)
        assert main(["simulate", "--preset", "two_controls", "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err.startswith(message)

    def test_output_path_taken_by_a_file_exit_code(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("keep")
        assert main(["simulate", "--preset", "two_controls", "--out", str(taken)]) == 2
        assert capsys.readouterr().err.startswith("i/o error:")
        assert taken.read_text() == "keep"

    @pytest.mark.parametrize(
        "text, message",
        [("[1, 2]", "configuration root must be an object"), ("{protocol", "config file {path} is not valid JSON")],
        ids=["root-array", "not-json"],
    )
    def test_unusable_config_file_exit_code(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("configuration error: " + message.format(path=path))
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("s", ["1e3", "1e200", "2.3e307"])
    @pytest.mark.parametrize("name", ["two_controls", "three_controls"])
    @pytest.mark.parametrize("subcommand", cli.SUBCOMMANDS)
    def test_huge_spectral_width(self, tmp_path, subcommand, name, s):
        # From s* = 38.604 on every layer takes the uniform limit, so every
        # data file equals the s = inf run.
        def outputs(width):
            out = tmp_path / width
            assert main([subcommand, "--preset", name, "--spectrum-s", width, "--out", str(out)]) == 0
            return {f.name: f.read_bytes() for f in out.iterdir() if f.name != "effective_config.json"}

        got = outputs(s)
        assert got and got == outputs("inf")

    def test_verify_at_overflowing_width(self, tmp_path, capsys):
        # Every harmonic h >= 1 is damped to 0.0: the node rule's weights
        # are 1/N, and its mean matches the band's harmonic-0 term.
        argv = ["verify", "--preset", "two_controls", "--spectrum-s", "1e308", "--out", str(tmp_path)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "ok   harmonic average vs quadrature (node rule, max dev " in out
        assert "FAIL" not in out

    def test_harmonic_average_check_at_huge_width(self, tmp_path, capsys):
        # At s = 1e200 the node rule runs in the uniform limit, and the whole
        # verify, steady maps included, passes.
        base = preset("two_controls")
        config = dataclasses.replace(base, spectrum=Spectrum(base.spectrum.theta_bar, 1e200))
        name, ok, detail = next(c for c in cli._verification_checks(config) if c[0] == "harmonic average vs quadrature")
        assert ok, detail
        assert detail.startswith("node rule, max dev ")
        assert main(["verify", "--preset", "two_controls", "--spectrum-s", "1e200", "--out", str(tmp_path)]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_trapezoid_rule_at_subnormal_width(self, tmp_path, capsys):
        # At s = 5e-324 verify neither overflows nor warns, and the node rule
        # (a periodic trapezoid rule) gives the band's value at theta_bar.
        base = preset("three_controls")
        tm = bloch.protocol_product(base.protocol, 9)
        for theta_bar in (0.0, 2.1):
            sp = Spectrum(theta_bar, 5e-324)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = bloch.averaged_maps(base.protocol, sp, 9)[-1]
                assert run(dataclasses.replace(base, spectrum=sp, out_dir=str(tmp_path)), "verify") == 0
            assert np.isfinite(got).all()
            assert np.max(np.abs(got - tm.evaluate(theta_bar))) < 1e-14
            out = capsys.readouterr().out
            assert "ok   harmonic average vs quadrature (node rule, max dev " in out
            assert "FAIL" not in out

    @pytest.mark.parametrize("name", ["two_controls", "three_controls"])
    def test_harmonic_average_check_fails_on_wrong_width(self, tmp_path, capsys, monkeypatch, name):
        # A closed form that averages at 1.001 s must not pass the check.
        average = cli.gaussian_average
        monkeypatch.setattr(cli, "gaussian_average", lambda tm, sp: average(tm, Spectrum(sp.theta_bar, 1.001 * sp.s)))
        assert main(["verify", "--preset", name, "--out", str(tmp_path)]) == 4
        assert "FAIL harmonic average vs quadrature (node rule, max dev " in capsys.readouterr().out

    # two_controls at s = 0 is left out: its 6-step product at theta = 0 is
    # C(eta)^6 = I for every eta, so a shifted eta leaves that band's value
    # there unchanged.
    @pytest.mark.parametrize(
        "name, s",
        [("three_controls", s) for s in (None, "0", "12", "inf")] + [("two_controls", s) for s in (None, "12", "inf")],
    )
    def test_harmonic_average_check_fails_on_wrong_band(self, tmp_path, capsys, monkeypatch, name, s):
        # The bands come from a protocol whose every eta is 1e-6 too large;
        # the node rule multiplies the configured steps, so verify must fail
        # at every width, the sharp and uniform limits included.
        chain = cli.product_chain

        def shifted(p, order):
            return chain(Protocol(ControlStep(min(step.eta + 1e-6, 1.0), step.k) for step in p.steps), order)

        monkeypatch.setattr(cli, "product_chain", shifted)
        argv = ["verify", "--preset", name, "--out", str(tmp_path)]
        assert main(argv if s is None else argv + ["--spectrum-s", s]) == 4
        assert "FAIL harmonic average vs quadrature (node rule, max dev " in capsys.readouterr().out

    def test_phaseless_mean_phase_exit_code(self, tmp_path, capsys):
        # h theta_bar would overflow to a NaN period map.
        path = tmp_path / "far.json"
        path.write_text(json.dumps(config_dict(tmp_path / "out", spectrum={"theta_bar": 1e308, "s": 0.4})))
        assert main(["simulate", "--config", str(path)]) == 2
        assert "configuration error: spectrum: theta_bar " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_config_file(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 2

    def test_bad_override_exit_code(self, tmp_path):
        code = main(
            ["simulate", "--preset", "two_controls", "--out", str(tmp_path), "--spectrum-s", "-1"]
        )
        assert code == 2

    def test_overrides(self, tmp_path):
        out = tmp_path / "o"
        code = main(
            [
                "simulate",
                "--preset", "two_controls",
                "--out", str(out),
                "--steps", "7",
                "--spectrum-s", "0.5",
                "--order", "eq4a",
            ]
        )
        assert code == 0
        rows = (out / "trajectory.csv").read_text().strip().split("\n")
        assert len(rows) == 9
        echoed = json.loads((out / "effective_config.json").read_text())
        assert echoed["spectrum"]["s"] == 0.5
        assert echoed["order"] == "eq4a"
        assert echoed["n_steps"] == 7


class TestColdStart:
    def test_subcommands_do_not_import_scipy(self, tmp_path):
        # scipy takes longer to import than the rest of the package, and
        # the package needs it nowhere, verify's quadrature check included.
        runs = [
            [cmd, "--preset", name, "--out", str(tmp_path / f"{cmd}-{name}")]
            for cmd in cli.SUBCOMMANDS
            for name in ("two_controls", "three_controls")
        ] + [
            ["visibility", "--preset", "three_controls", "--order", "eq4a", "--out", str(tmp_path / "vis3-eq4a")],
            ["verify", "--preset", "two_controls", "--spectrum-s", "12", "--out", str(tmp_path / "verify-12")],
        ]
        script = (
            "import json, sys\n"
            "from drivenqubit.cli import main\n"
            f"codes = [main(argv) for argv in {runs!r}]\n"
            "scipy = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
            "print(json.dumps([codes, scipy]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], env=src_env(), capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        codes, scipy_modules = json.loads(proc.stdout.splitlines()[-1])
        assert codes == [0] * len(runs)
        assert scipy_modules == []

    def test_no_run_imports_numpy_ma(self, tmp_path):
        # numpy's set routines (np.setdiff1d, np.isin, np.unique) import
        # numpy.ma, about 1 MB of resident memory that no run needs, and
        # numpy.random costs 6 MB: verify draws its probes from random.Random,
        # which numpy's import has loaded.  The cycles are sharp, folded
        # first (s = 8.25) and uniform; verify takes each branch of its
        # quadrature check.
        runs = [
            [cmd, "--preset", name, "--out", str(tmp_path / f"{cmd}-{name}")]
            for cmd in cli.SUBCOMMANDS
            for name in ("two_controls", "three_controls")
        ] + [
            ["verify", "--preset", "two_controls", "--spectrum-s", s, "--out", str(tmp_path / f"verify-{s}")]
            for s in ("0", "inf", "12")
        ]
        script = (
            "import json, math, sys\n"
            "import drivenqubit as dq\n"
            "from drivenqubit.cli import calibrate, main, preset\n"
            f"codes = [main(argv) for argv in {runs!r}]\n"
            "two, three = preset('two_controls'), preset('three_controls')\n"
            "cycles = [dq.asymptotic_cycle(two.protocol, dq.Spectrum(0.3, s)) for s in (0.0, 8.25, math.inf)]\n"
            "calibrate(two)\n"
            "dq.optimal_pair_search(cycles[1])\n"
            "dq.maximize_visibility(dq.asymptotic_cycle(three.protocol, three.spectrum))\n"
            "print(json.dumps([codes, 'numpy.ma' in sys.modules, 'numpy.random' in sys.modules]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], env=src_env(), capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == [[0] * len(runs), False, False]

    def test_import_leaves_numpy_fft_unloaded(self):
        # numpy loads numpy.fft on first use.  The node weights and the
        # fold take it at their first call; importing the package must not.
        script = "import sys\nimport drivenqubit\nprint('numpy' in sys.modules, 'numpy.fft' in sys.modules)\n"
        proc = subprocess.run(
            [sys.executable, "-c", script], env=src_env(), capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["True", "False"]

    def test_package_runs_as_module(self, tmp_path):
        # python -m drivenqubit.cli would warn that the package, which
        # imports .cli, already loaded it; the package's __main__ does not.
        argv = [sys.executable, "-m", "drivenqubit", "simulate", "--preset", "two_controls", "--steps", "1"]
        proc = subprocess.run(argv, cwd=tmp_path, env=src_env(), capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")


# sha256 of the nonmarkov and visibility reports, which the benchmark
# references compare only to 1e-9.
REPORT_DIGESTS = {
    "nonmarkov.two_controls.eq2b": "49e14da3c95047c9e96a7b4ef105676e218cf308cfed4974f0680ad7d6ae93b6",
    "nonmarkov.two_controls.eq4a": "05f4c2f50ae192c3ba11016b2886711fa741962cf06134b5eb99118ae296c14b",
    "nonmarkov.three_controls.eq2b": "55be0b239c107777ac2966134c118314e945a81043bea553d9ad99f9527fdfc9",
    "nonmarkov.three_controls.eq4a": "91766831598526366f4115bf8814f10f21253d25e97319bed9c78c14be907782",
    "visibility.two_controls.eq2b": "64ac033264358e4bbc14d4ad7dcf5e5d0d51bb198cef714bc8f85dcb75d0eb96",
    "visibility.two_controls.eq4a": "179df5e0cadddf4c3b4ae45be8b3272e20a0455d426380a36b9f6463b607d2bf",
    "visibility.three_controls.eq2b": "1fb98845e01df3041cea4714974d495e93a45922e451835230c8cee60154fbdc",
    "visibility.three_controls.eq4a": "5e348dde9ff64bd8eaae7f8391476d1e48f3d8d7d6c1fbae3a6ee4bd8c2f211e",
}


class TestPresetBytes:
    @pytest.mark.parametrize("op", preset_ops(), ids=lambda op: op["id"])
    def test_outputs_match_pinned_hashes(self, op, tmp_path, monkeypatch, capsys):
        # The recorded --out is relative and echoed in effective_config.json,
        # so the run happens in a scratch directory with the same layout.
        monkeypatch.chdir(tmp_path)
        assert main(list(op["argv"])) == op["expect"]["exit"]
        pinned = {name: f["sha256"] for name, f in op["expect"]["files"].items() if "sha256" in f}
        if op["id"] in REPORT_DIGESTS:
            pinned[f"{op['argv'][0]}.json"] = REPORT_DIGESTS[op["id"]]
        assert pinned
        for name, digest in pinned.items():
            assert hashlib.sha256((Path(op["out"]) / name).read_bytes()).hexdigest() == digest, name


# sha256 of verify.json and of stdout.  The resolvent checks' details carry
# the rounding of numpy.linalg's LU inverse, and the quadrature check's the
# node weights of numpy.fft (pocketfft), so these pairs move with both, and
# with the probe draws of random.Random(20240801); every check name and pass
# flag stays.  The last three runs put the node rule at the sharp limit (one
# node), the uniform limit (weights 1/N) and a wide width.  The contraction
# check's detail prints the steady maps' largest singular value, which tells
# the widths apart: 0.882 at the two_controls preset width, 0.403 at s = inf
# and 0.99999999308 at s = 0, where CONTINUITY_NUDGE's error shows.
VERIFY_DIGESTS = {
    ("two_controls", "eq2b", None): (
        "daf74a67c15777da11431ffac6e1d5c52873b7d9a7cae25d082005504dd566e1",
        "91d9d9173f5fae5f90ac7d1cbd29b05a1535f29a78be698683ba5fbfe7be4a32",
    ),
    ("two_controls", "eq4a", None): (
        "026b6082e7ee71b6c99b4e472e8d903f8fcb38141eb96e9e69766ffcb0097e92",
        "b1c75d461c33a4243f35beb10d52b5d2ba1047b63ab813374314d037c0df9e76",
    ),
    ("three_controls", "eq2b", None): (
        "fe8f8367eabb522851a0119d890fc2a56713c1c62a9185f4e6a8508460ca78ee",
        "177cd9fff5fe083f1c5f3d44d33d7fa2c136f4a2508b9683d0b6a6c6115aca15",
    ),
    ("three_controls", "eq4a", None): (
        "3ea4f8bfb26c601f2fcde4e586bd1cd579e6f856935c3f8f0a793746861c2e17",
        "deed747cf6b03ca87d73a3f843f688cb6a858a594e77f3b6191427b183c84801",
    ),
    ("two_controls", "eq2b", "0"): (
        "f7aed78ab3f67429ea5f8e7c5251c75b6a4e46d0dd7ea388183edb7efb612ee0",
        "212387e348ce71ac5189650d27c5dcc011dbbc3d32bd86ba44e773fb6b981213",
    ),
    ("two_controls", "eq2b", "inf"): (
        "c34927ce85fcfd8b6097b84d380ef6165fdd70dea0e5ab2b2d50130ba5847f02",
        "3a9fb8266267488064d27dd4ce82d4e6789db02e3a89a74412998e5f564cc539",
    ),
    ("two_controls", "eq2b", "12"): (
        "98acd979ba2985c5666c9f3d4bb94a69b2e1fffeb9f8492576be666fa764b711",
        "2570b4af86d32012246ec55e483077069e842464907258b1b86e479b53131cb9",
    ),
}


# verify's checks in order; every one passes on every VERIFY_DIGESTS run.
VERIFY_CHECKS = [
    "compose/evaluate homomorphism",
    "products stay special orthogonal",
    "harmonic average vs quadrature",
    "axis projector laws",
    "Abel limit vs Cesaro iteration",
    "resolvent inverse identity",
    "residue at z=1 vs Abel limit",
    "averaged maps contract",
    "measurement bound on distinguishability",
]


def verify_argv(name, order, s, out) -> list:
    argv = ["verify", "--preset", name, "--order", order, "--out", str(out)]
    return argv if s is None else argv + ["--spectrum-s", s]


class TestVerifyBytes:
    @pytest.mark.parametrize("key", VERIFY_DIGESTS, ids=lambda key: ".".join(map(str, key)))
    def test_report_and_stdout_match_pinned_hashes(self, key, tmp_path, capsys):
        assert main(verify_argv(*key, tmp_path)) == 0
        report, stdout = VERIFY_DIGESTS[key]
        checks = json.loads((tmp_path / "verify.json").read_text())["checks"]
        assert [(c["check"], c["passed"]) for c in checks] == [(name, True) for name in VERIFY_CHECKS]
        assert hashlib.sha256((tmp_path / "verify.json").read_bytes()).hexdigest() == report
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == stdout

    @pytest.mark.parametrize("order", ["eq2b", "eq4a"])
    @pytest.mark.parametrize("name", ["two_controls", "three_controls"])
    def test_each_check_evaluates_its_phases_at_once(self, name, order, tmp_path, monkeypatch, capsys):
        # Point-by-point checks took 385 (two_controls) and 401 calls.
        calls = 0
        evaluate = bloch.TrigMatrix.evaluate

        def counted(self, theta):
            nonlocal calls
            calls += 1
            return evaluate(self, theta)

        monkeypatch.setattr(bloch.TrigMatrix, "evaluate", counted)
        assert main(verify_argv(name, order, None, tmp_path)) == 0
        assert 0 < calls <= 7

    @pytest.mark.parametrize("order", ["eq2b", "eq4a"])
    @pytest.mark.parametrize("name", ["two_controls", "three_controls"])
    def test_oracles_take_stacks(self, name, order, tmp_path, monkeypatch, capsys):
        # Matrix by matrix, verify made 45 abel_limit and 25 resolvent calls.
        calls = {"abel_limit": 0, "resolvent": 0}

        def counting(fn):
            def wrapper(*args):
                calls[fn.__name__] += 1
                return fn(*args)

            return wrapper

        for fn in (cli.abel_limit, cli.resolvent):
            monkeypatch.setattr(cli, fn.__name__, counting(fn))
        assert main(verify_argv(name, order, None, tmp_path)) == 0
        assert 0 < calls["abel_limit"] <= 3 and 0 < calls["resolvent"] <= 3

    @pytest.mark.parametrize("order", ["eq2b", "eq4a"])
    @pytest.mark.parametrize("name", ["two_controls", "three_controls"])
    def test_measurement_bound_matches_sample_loop(self, name, order, tmp_path, monkeypatch, capsys):
        # The generator as verify's measurement check finds it, and its values.
        seen = []
        bound = cli._measurement_bound

        def recorded(rng, n):
            seen.append((copy.deepcopy(rng), n, bound(rng, n)))
            return seen[-1][2]

        monkeypatch.setattr(cli, "_measurement_bound", recorded)
        assert main(verify_argv(name, order, None, tmp_path)) == 0
        [(rng, n, got)] = seen
        assert n == 50
        assert [v.hex() for v in got] == [v.hex() for v in measurement_bound_loop(rng, n)]

    def test_probes_are_seeded_standard_library_draws(self, tmp_path, monkeypatch, capsys):
        # 100 + 3 x 10 + 40 phases, then 50 samples of x, y and f, each three
        # normals and a uniform radius, all from one generator.
        draws = []

        class Counted(random.Random):
            def __init__(self, seed):
                draws.append(("seed", seed))
                super().__init__(seed)

            def uniform(self, a, b):
                draws.append(("uniform", a, b))
                return super().uniform(a, b)

            def gauss(self, mu, sigma):
                draws.append(("gauss", mu, sigma))
                return super().gauss(mu, sigma)

        monkeypatch.setattr(cli.random, "Random", Counted)
        assert main(verify_argv("two_controls", "eq2b", None, tmp_path)) == 0
        sample = [("gauss", 0.0, 1.0)] * 3 + [("uniform", 0.0, 1.0)]
        assert draws == [("seed", 20240801)] + [("uniform", -math.pi, math.pi)] * 170 + sample * 150

    @pytest.mark.parametrize("seed", range(20))
    def test_measurement_bound_matches_sample_loop_on_fresh_draws(self, seed):
        got = cli._measurement_bound(random.Random(seed), 50)
        want = measurement_bound_loop(random.Random(seed), 50)
        assert [v.hex() for v in got] == [v.hex() for v in want]


class GeneratorShape:
    """A random.Random behind the two numpy Generator methods that
    random_ball_point and measurement_bound_loop call, drawing the same
    values in the same order as verify: a normal direction is three
    gauss(0, 1) draws and a uniform is one uniform(low, high)."""

    def __init__(self, rng: random.Random):
        self.rng = rng

    def normal(self, size):
        return np.array([self.rng.gauss(0.0, 1.0) for _ in range(size)])

    def uniform(self, low, high):
        return self.rng.uniform(low, high)


def measurement_bound_loop(rng, n):
    """The sample-by-sample loop that verify's measurement check replaced:
    (max excess, aligned dev) through BlochVector and the trace distances,
    drawn from the random.Random ``rng``."""
    rng = GeneratorShape(rng)
    worst_excess = -1.0
    aligned_dev = 0.0
    for _ in range(n):
        x = BlochVector.from_array(random_ball_point(rng))
        y = BlochVector.from_array(random_ball_point(rng))
        d = trace_distance(x, y)
        u = rng.normal(size=3)
        f = BlochVector.from_array(u / np.linalg.norm(u) * rng.uniform(0.0, 1.0))
        worst_excess = max(worst_excess, trace_distance_povm(x, y, f) - d)
        if d > 1e-12:
            aligned = BlochVector.from_array((x.as_array() - y.as_array()) / (2.0 * d))
            aligned_dev = max(aligned_dev, abs(trace_distance_povm(x, y, aligned) - d))
    return worst_excess, aligned_dev


class TestDeepChainBytes:
    # TestPresetBytes stops at 50 steps; these recorded runs go up to 394.
    @pytest.mark.parametrize(
        "op", recorded_ops("long_horizon", lambda op: op["id"].endswith(".v0")), ids=lambda op: op["id"]
    )
    def test_outputs_match_recorded_text(self, op, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        config = Path(op["config_path"])
        config.parent.mkdir(parents=True)
        config.write_text(json.dumps(op["config"], indent=2) + "\n")
        assert main(list(op["argv"])) == op["expect"]["exit"]
        files = op["expect"]["files"]
        texts = {name: f["csv"] for name, f in files.items() if "csv" in f}
        assert texts
        for name, text in texts.items():
            assert (Path(op["out"]) / name).read_text() == text, name
        for name, f in files.items():
            if "sha256" in f:
                assert hashlib.sha256((Path(op["out"]) / name).read_bytes()).hexdigest() == f["sha256"], name
