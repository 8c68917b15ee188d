import hashlib
import json
import linecache
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from numpy.testing import assert_allclose

from drivenqubit import (
    STEP_ORDERS,
    AsymptoticCycle,
    BlochMap,
    BlochVector,
    ControlStep,
    DomainError,
    Protocol,
    Spectrum,
    StatePair,
    asymptotic_blp_rate,
    asymptotic_cycle,
    blp_accumulate,
    gaussian_average,
    optimal_pair_search,
    pair_distances,
    propagate,
    protocol_product,
    trace_distance,
    trace_distance_povm,
)
from drivenqubit import bloch, nonmarkov

from conftest import UNIFORM_S, random_ball_point, random_contraction, recorded_ops

EY = BlochVector(0.0, 1.0, 0.0)


class TestTraceDistance:
    def test_antipodal_pure_states(self):
        assert trace_distance(EY, -EY) == 1.0

    def test_coincident_states(self):
        a = BlochVector(0.1, 0.2, 0.3)
        assert trace_distance(a, a) == 0.0

    def test_range_and_triangle_inequality(self):
        rng = np.random.default_rng(30)
        for _ in range(200):
            x, y, z = (BlochVector.from_array(random_ball_point(rng)) for _ in range(3))
            d = trace_distance(x, y)
            assert 0.0 <= d <= 1.0
            assert d <= trace_distance(x, z) + trace_distance(z, y) + 1e-15

    def test_cycle_distances_follow_y_eigenvalues(self, three_cycle):
        pair = StatePair.antipodal(EY)
        d = [
            trace_distance(m.apply(pair.a_plus), m.apply(pair.a_minus))
            for m in three_cycle.maps
        ]
        assert d[0] == pytest.approx(0.0590277, abs=1e-4)
        assert d[1] == pytest.approx(0.127151, abs=1e-4)
        assert d[2] == pytest.approx(0.0386657, abs=1e-4)


class TestTraceDistancePovm:
    def test_aligned_effect_attains_maximum(self):
        assert trace_distance_povm(EY, -EY, EY) == 1.0

    def test_trivial_effect(self):
        rng = np.random.default_rng(31)
        x = BlochVector.from_array(random_ball_point(rng))
        y = BlochVector.from_array(random_ball_point(rng))
        assert trace_distance_povm(x, y, BlochVector(0, 0, 0)) == 0.0

    def test_never_exceeds_trace_distance(self):
        rng = np.random.default_rng(32)
        x = BlochVector.from_array(random_ball_point(rng))
        y = BlochVector.from_array(random_ball_point(rng))
        d = trace_distance(x, y)
        diff = x.as_array() - y.as_array()
        aligned = BlochVector.from_array(diff / np.linalg.norm(diff))
        best = -1.0
        for _ in range(10**4):
            u = rng.normal(size=3)
            f = BlochVector.from_array(u / np.linalg.norm(u) * rng.uniform(0, 1))
            v = trace_distance_povm(x, y, f)
            assert v <= d + 1e-14
            best = max(best, v)
        assert trace_distance_povm(x, y, aligned) == pytest.approx(d, abs=1e-14)
        assert best <= trace_distance_povm(x, y, aligned) + 1e-14

    def test_effect_norm_bound_enforced(self):
        with pytest.raises(DomainError):
            trace_distance_povm(EY, -EY, BlochVector(1.0, 0.5, 0.0))


class TestPairDistances:
    def test_one_product_chain(self, three_controls, calibrated_spectrum, monkeypatch):
        # Both states share each averaged map: the pair costs the compose
        # calls of one trajectory.  At every width, the uniform limit
        # included, the maps are node products, with no compose.
        calls = []

        def counting(a, b, compose=bloch.trig_compose):
            calls.append(1)
            return compose(a, b)

        monkeypatch.setattr(bloch, "trig_compose", counting)
        pair = StatePair(BlochVector(0.6, 0.3, -0.2), BlochVector(0.0, 0.0, 1.0))
        for s in (calibrated_spectrum.s, 0.0, UNIFORM_S, math.inf):
            sp = Spectrum(calibrated_spectrum.theta_bar, s)
            bloch.step_matrix.cache_clear()
            pair_distances(three_controls, sp, pair, 20)
            per_pair = len(calls)
            calls.clear()
            bloch.step_matrix.cache_clear()
            propagate(three_controls, sp, 20, pair.a_plus)
            assert per_pair == len(calls) == 0
            calls.clear()

    def test_zero_steps(self, two_controls, calibrated_spectrum):
        pair = StatePair(BlochVector(0.6, 0.3, -0.2), BlochVector(0.0, 0.0, 1.0))
        d = pair_distances(two_controls, calibrated_spectrum, pair, 0)
        assert d.tolist() == [trace_distance(pair.a_plus, pair.a_minus)]


class TestBlpAccumulate:
    def test_unitary_dynamics_has_no_backflow(self, two_controls):
        pair = StatePair.antipodal(EY)
        assert blp_accumulate(pair_distances(two_controls, Spectrum(0.0, 0.0), pair, 20)) < 1e-12

    def test_three_control_growth_is_unbounded(self, three_controls, calibrated_spectrum):
        pair = StatePair.antipodal(EY)
        d = pair_distances(three_controls, calibrated_spectrum, pair, 180)
        increments = np.maximum(0.0, np.diff(d))
        blp = np.cumsum(increments)
        # The accumulated measure after n steps reads the first n + 1 distances.
        for n in (30, 90, 180):
            assert blp_accumulate(d[: n + 1]) == float(np.sum(increments[:n]))
        b10, b30, b60 = blp[10 * 3 - 1], blp[30 * 3 - 1], blp[60 * 3 - 1]
        assert b10 < b30 < b60
        # Linear growth: the per-cycle slope stabilizes.
        slope_a = (b30 - b10) / 20
        slope_b = (b60 - b30) / 30
        assert slope_b == pytest.approx(slope_a, rel=0.1)

    def test_two_control_rate_vanishes(self, two_cycle):
        rate = asymptotic_blp_rate(two_cycle, StatePair.antipodal(EY))
        assert rate < 1e-6

    def test_rejects_empty_sequence(self):
        for d in ([], np.zeros((0,))):
            with pytest.raises(DomainError, match="non-empty 1-D"):
                blp_accumulate(d)

    def test_rejects_two_dimensional_input(self):
        with pytest.raises(DomainError, match="non-empty 1-D"):
            blp_accumulate(np.zeros((3, 2)))

    def test_zero_steps_has_no_backflow(self, two_controls, calibrated_spectrum):
        d = pair_distances(two_controls, calibrated_spectrum, StatePair.antipodal(EY), 0)
        assert blp_accumulate(d) == 0.0


class TestAsymptoticRate:
    def test_three_control_y_pair_rate(self, three_cycle):
        rate = asymptotic_blp_rate(three_cycle, StatePair.antipodal(EY))
        assert rate == pytest.approx(0.0884853, abs=1e-4)

    def test_rate_from_eigenvalues(self, three_cycle):
        lam = [abs(v) for v in three_cycle.y_eigenvalues]
        expected = (lam[1] - lam[0]) + (lam[0] - lam[2])
        rate = asymptotic_blp_rate(three_cycle, StatePair.antipodal(EY))
        assert rate == pytest.approx(expected, abs=1e-12)

    def test_swap_symmetry(self, three_cycle):
        rng = np.random.default_rng(33)
        pair = StatePair(
            BlochVector.from_array(random_ball_point(rng)),
            BlochVector.from_array(random_ball_point(rng)),
        )
        assert asymptotic_blp_rate(three_cycle, pair) == pytest.approx(
            asymptotic_blp_rate(three_cycle, StatePair(pair.a_minus, pair.a_plus)), abs=1e-15
        )

    def test_sign_pattern(self, three_cycle):
        pair = StatePair.antipodal(EY)
        d = [
            trace_distance(m.apply(pair.a_plus), m.apply(pair.a_minus))
            for m in three_cycle.maps
        ]
        assert d[1] - d[0] > 0
        assert d[2] - d[1] < 0
        assert d[0] - d[2] > 0


class TestOptimalPairSearch:
    def test_dominates_y_pair(self, three_cycle):
        result = optimal_pair_search(three_cycle)
        y_rate = asymptotic_blp_rate(three_cycle, StatePair.antipodal(EY))
        assert result.rate >= y_rate
        assert result.rate == pytest.approx(asymptotic_blp_rate(three_cycle, result.pair), abs=1e-12)

    def test_returns_antipodal_pair(self, three_cycle):
        result = optimal_pair_search(three_cycle)
        assert result.pair.a_minus == -result.pair.a_plus
        assert np.linalg.norm(result.pair.a_plus.as_array()) == pytest.approx(1.0, abs=1e-12)

    def test_one_degree_grid_oracle(self, three_cycle):
        result = optimal_pair_search(three_cycle)
        th = np.deg2rad(np.arange(0, 181))
        ph = np.deg2rad(np.arange(0, 360))
        big_th, big_ph = np.meshgrid(th, ph, indexing="ij")
        u = np.stack(
            [
                np.cos(big_ph) * np.sin(big_th),
                np.sin(big_ph) * np.sin(big_th),
                np.cos(big_th),
            ],
            axis=-1,
        ).reshape(-1, 3)
        d = np.stack([np.linalg.norm(u @ m.m.T, axis=1) for m in three_cycle.maps])
        rates = np.maximum(0.0, np.roll(d, -1, axis=0) - d).sum(axis=0)
        grid_best = float(rates.max())
        assert result.rate >= grid_best - 1e-12
        assert result.rate - grid_best < 1e-6


def cycle_of(maps):
    return AsymptoticCycle.from_maps(BlochMap(np.asarray(m, dtype=float)) for m in maps)


def result_bytes(result):
    values = np.array([result.rate, result.purity_swing]).tobytes()
    return values + result.pair.a_plus.as_array().tobytes() + bytes([result.degenerate])


PROJECTOR_Z, PROJECTOR_X = np.diag([0.0, 0.0, 1.0]), np.diag([1.0, 0.0, 0.0])


class TestEigenvectorAscent:
    def test_maximum_on_an_eigenvector_start(self):
        # All 32 grid starts converge to a stationary point in the xz plane
        # at 0.4267972911156445; the maximum sits on e_y, an eigenvector of
        # the Gram matrices M_j^T M_j.
        steps = [(0.19055724815811337, 2), (0.21719484630772246, 4), (0.7691109901866398, 0),
                 (0.47340258775716537, 0), (0.03255832664519298, 0)]
        p = Protocol.from_steps(ControlStep(eta, k) for eta, k in steps)
        cycle = asymptotic_cycle(p, Spectrum(-0.2698951010856008, 6.066024452455165), "eq2b")
        result = optimal_pair_search(cycle)
        assert result.rate >= 0.4271878537146996 - 1e-12
        assert abs(result.pair.a_plus.ay) == pytest.approx(1.0, abs=1e-12)
        assert not result.degenerate

    @pytest.mark.parametrize(
        "maps, rate",
        [((PROJECTOR_Z, PROJECTOR_X), 1.0), ((PROJECTOR_Z, 0.5 * PROJECTOR_Z), 0.5), ((PROJECTOR_X, np.zeros((3, 3)), PROJECTOR_Z), 1.0)],
        ids=["z-x", "z-half-z", "x-zero-z"],
    )
    def test_starts_in_a_kernel_give_finite_output(self, maps, rate):
        # The Gram eigenvectors e_x, e_y, e_z are starts with M_j u = 0
        # exactly; their terms are dropped, and RuntimeWarnings are errors.
        ms = np.stack(maps)
        starts = np.swapaxes(np.linalg.eigh(np.swapaxes(ms, 1, 2) @ ms)[1], 1, 2).reshape(-1, 3)
        assert np.any(nonmarkov._map_norms(ms, starts) == 0.0)
        result = optimal_pair_search(cycle_of(maps))
        assert result.rate == pytest.approx(rate, abs=1e-12)
        assert np.isfinite(result.pair.a_plus.as_array()).all() and np.isfinite(result.purity_swing)

    @pytest.mark.parametrize(
        "steps",
        [[(0.0, 1), (0.0, 2)], [(0.5, 1), (0.0, 0), (0.0, 2)], [(0.0, 1), (0.5, 0), (0.0, 1), (0.3, 0)]],
    )
    @pytest.mark.parametrize("order", STEP_ORDERS)
    def test_rank_deficient_uniform_limit_maps(self, steps, order):
        # Steps with eta = 0 turn about z only, and their s = inf averages are projectors.
        p = Protocol.from_steps(ControlStep(eta, k) for eta, k in steps)
        cycle = asymptotic_cycle(p, Spectrum(0.3, math.inf), order)
        assert min(np.linalg.matrix_rank(m.m) for m in cycle.maps) < 3
        result = optimal_pair_search(cycle)
        assert np.isfinite([result.rate, result.purity_swing, *result.pair.a_plus.as_array()]).all()
        assert result.rate == pytest.approx(asymptotic_blp_rate(cycle, result.pair), abs=1e-15)

    @pytest.mark.parametrize("period", range(1, 6))
    def test_degenerate_cycles_return_the_replay_bytes(self, period):
        # Equal maps have rate 0 everywhere; the replay's path picks the
        # direction, and the purity swing of equal maps is exactly 0.
        m = random_contraction(np.random.default_rng(440 + period))
        ms = np.stack([m] * period)
        result = optimal_pair_search(cycle_of(ms))
        assert result.degenerate
        u, rate = nonmarkov._replay(ms)
        assert result_bytes(result) == np.array([rate, 0.0]).tobytes() + u.tobytes() + bytes([True])

    def test_period_one_returns_the_replay_bytes_without_it(self, monkeypatch):
        # The doubled cycle (M, M) has the same objective, 0.0 at every
        # point, and runs the whole Nelder-Mead replay; a period-1 cycle
        # returns its answer with no minimize call.
        rng = np.random.default_rng(450)
        maps = [np.zeros((3, 3)), np.eye(3), *(random_contraction(rng) for _ in range(30))]
        replays = [nonmarkov._replay(np.stack([m, m])) for m in maps]

        def refuse(*args, **kwargs):
            raise AssertionError("the replay ran")

        monkeypatch.setattr(nonmarkov, "minimize", refuse)
        for m, (u, rate) in zip(maps, replays):
            result = optimal_pair_search(cycle_of([m]))
            assert result_bytes(result) == np.array([rate, 0.0]).tobytes() + u.tobytes() + bytes([True])

    def test_non_degenerate_cycles_make_no_replay_call(self, three_cycle, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the replay ran")

        monkeypatch.setattr(nonmarkov, "minimize", refuse)
        assert not optimal_pair_search(three_cycle).degenerate

    def test_search_loads_no_scipy(self):
        script = (
            "import json, sys\n"
            "import numpy as np\n"
            "from drivenqubit import AsymptoticCycle, BlochMap, optimal_pair_search\n"
            "maps = [np.diag([0.9, 0.5, 0.2]), np.diag([0.3, 0.8, 0.6]), np.diag([0.4, 0.4, 0.4])]\n"
            "flags = [optimal_pair_search(AsymptoticCycle.from_maps(BlochMap(m) for m in ms)).degenerate\n"
            "         for ms in (maps, maps[:1] * 2)]\n"
            "scipy = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
            "print(json.dumps([flags, scipy]))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == [[False, True], []]


class TestReflectionSymmetry:
    def test_antipodal_pairs_stay_antipodal(self, three_controls, calibrated_spectrum):
        a0 = BlochVector.from_array(np.array([0.6, 0.3, -0.2]))
        plus = propagate(three_controls, calibrated_spectrum, 15, a0)
        minus = propagate(three_controls, calibrated_spectrum, 15, -a0)
        assert plus.shape == minus.shape == (16, 3)
        assert_allclose(plus, -minus, atol=1e-15)

    def test_single_map_contraction_bound(self, two_controls, calibrated_spectrum):
        rng = np.random.default_rng(34)
        m = gaussian_average(protocol_product(two_controls, 7), calibrated_spectrum)
        smax = float(np.max(m.singular_values()))
        for _ in range(50):
            a = BlochVector.from_array(random_ball_point(rng))
            b = BlochVector.from_array(random_ball_point(rng))
            assert trace_distance(m.apply(a), m.apply(b)) <= smax * trace_distance(a, b) + 1e-14


# sha256 of the rate, the purity swing and the direction of each recorded
# pair op, which the benchmark compares only to 1e-9 and 1e-6.  The p4 and
# p3 ops are the eigenvector ascent's; the degenerate ones, the replay's.
PAIR_DIGESTS = {
    "pair.p2-s8.25.v0": "98b5c54c4391c551a7c5418496bf41bcf55222142df7f90bed9edc8b2a11e2eb",
    "pair.p2-s8.25.v1": "3be89a1407b3e4d16d8279d7db700d532456259ab2e285c4cc7c15fe5ff33acb",
    "pair.p2-s8.25.v2": "2f0436474f3bdb6fb04729e15072581b9215e10a62b9db23161e4aa53eaaf92b",
    "pair.p2-s8.25.v3": "741805dd9f646804cd06e82a2ab5d7239e80aa9835a8d1c98ebe8506a6b2a006",
    "pair.p4-s4.31.v1": "5e4cbba1fe058e84f3ea4d2f7606664f9aae5c1cd6d0b2bf67bb5c50492cb1f0",
    "pair.p4-s4.31.v3": "5093ceaccf5e0cb98ee6cf55bc303010ceb25dd17cb5113755e67fa3c3e039a1",
    "pair.p4-s4.31.v4": "a989bd1243f705c03dd41b8b90e0d1c53cead89a682750e85f892a4af698407a",
    "pair.p4-s4.31.v5": "d8b9105478ca6f7b89612b262e568d8008894c1aadb53c6e119516bded713b20",
    "pair.p3-s2.83.v0": "c3f28ed87a9b33aa46c6d044169f4395d819b90b9d7272685122f1defb94accb",
    "pair.p3-s2.83.v1": "8604e1f20db8a620926270e96708562041c226c30736b97b9028944a8af6e7ca",
    "pair.p3-s2.83.v5": "1db200c3bf09e40b0f91d932e4f1892a42ba28424106b004df64a1936812a18f",
    "pair.p3-s2.83.v7": "28db427c933a9741504a8f66c8b13a05e1247eaede75be25f13b3e61e94773d1",
    "pair.p1-s21.7.v0": "58611db900db4d176e4f5dacffb940a74fd4c1f27f7d783859d56224799582fe",
    "pair.p1-s21.7.v1": "58611db900db4d176e4f5dacffb940a74fd4c1f27f7d783859d56224799582fe",
    "pair.p1-s21.7.v2": "58611db900db4d176e4f5dacffb940a74fd4c1f27f7d783859d56224799582fe",
    "pair.p1-s21.7.v3": "58611db900db4d176e4f5dacffb940a74fd4c1f27f7d783859d56224799582fe",
    "pair.p2-inf.v0": "fab47b97c1951eccf072cdf52a7cc60735998adf200a5ae53bb1230e7d865fb8",
    "pair.p2-inf.v1": "fab47b97c1951eccf072cdf52a7cc60735998adf200a5ae53bb1230e7d865fb8",
    "pair.p2-inf.v2": "fab47b97c1951eccf072cdf52a7cc60735998adf200a5ae53bb1230e7d865fb8",
    "pair.p2-inf.v3": "fab47b97c1951eccf072cdf52a7cc60735998adf200a5ae53bb1230e7d865fb8",
    "pair.p2-sharp.v1": "c0d258231e40e29dfb21e828eb155e631ccff940ab00c82af0526d61f22edb42",
    "pair.p2-sharp.v3": "63f7374f07a7f3a62c0145cbde3aa024a3f9dcc388790c75e02c444b7f0cc074",
    "pair.p2-sharp.v4": "ee4d7fa87fd41e880f64245aef5a6a04026a50eba131d7fc52a499fc0ccec0f8",
    "pair.p2-sharp.v7": "e582e1827951712b2dca6afcbdde4c164511ad9ec034ceae859d8df26fdc6864",
}
# The 16 ops whose best rate is rounding noise (at most 5.6e-16; the other 8
# are at least 0.17).
DEGENERATE_PAIR_OPS = ("pair.p2-s8.25", "pair.p1-s21.7", "pair.p2-inf", "pair.p2-sharp")


class TestRecordedPairs:
    @pytest.mark.parametrize(
        "op", recorded_ops("steady_sweep", lambda op: op["kind"] == "pair"), ids=lambda op: op["id"]
    )
    def test_steady_sweep_pair(self, op):
        # The benchmark's comparison: values within 1e-9, direction within
        # 1e-6 up to sign.
        cycle = AsymptoticCycle.from_maps(BlochMap(np.array(m)) for m in op["maps"])
        result = optimal_pair_search(cycle)
        expect = op["expect"]
        assert abs(result.rate - expect["rate"]) <= 1e-9
        assert abs(result.purity_swing - expect["purity_swing"]) <= 1e-9
        got, want = result.pair.a_plus.as_array(), np.asarray(expect["direction"])
        assert min(np.max(np.abs(got - want)), np.max(np.abs(got + want))) <= 1e-6
        # And bit for bit.
        values = np.array([result.rate, result.purity_swing]).tobytes() + got.tobytes()
        assert hashlib.sha256(values).hexdigest() == PAIR_DIGESTS[op["id"]]
        assert result.degenerate == op["id"].startswith(DEGENERATE_PAIR_OPS)


def kinked_bowl(x):
    """A kink along x0 = 0.3 and a flat floor, so runs expand, contract,
    shrink and tie."""
    return np.maximum(np.abs(x[:, 0] - 0.3) + (x[:, 1] - 0.7) ** 2, 0.01)


def nan_bowl(x):
    """The kinked bowl, NaN beyond x0 = 1.5."""
    return np.where(x[:, 0] > 1.5, np.nan, kinked_bowl(x))


# One start has a zero coordinate, which takes the absolute initial step.
CAP_STARTS = np.array([[0.0, 0.0], [2.0, -1.0], [0.3, 5.0], [-3.0, 0.5], [1.0, 1.0], [0.31, 0.69]])
TOLERANCES = {"xatol": 1e-12, "fatol": 1e-14}


def scipy_runs(objective=kinked_bowl, starts=CAP_STARTS, **caps):
    """One scipy Nelder-Mead per start, and the step of every evaluation,
    read from the line of scipy's loop that asked for it."""
    runs, paths = [], []
    for x0 in starts:
        path = []

        def fun(x):
            caller = sys._getframe(2)  # scipy's loop, through its counting wrapper
            step = linecache.getline(caller.f_code.co_filename, caller.f_lineno).split("=")[0].strip()
            path.append(f"shrink{caller.f_locals['j']}" if step == "fsim[j]" else step)
            return float(objective(x[None])[0])

        runs.append(scipy.optimize.minimize(fun, x0, method="Nelder-Mead", options={**TOLERANCES, **caps}))
        paths.append(path)
    return runs, paths


def assert_matches_scipy(objective=kinked_bowl, starts=CAP_STARTS, **caps):
    runs, _ = scipy_runs(objective, starts, **caps)
    got = nonmarkov.minimize(objective, starts, **TOLERANCES, **caps)
    assert got.x.tobytes() == np.array([r.x for r in runs]).tobytes()
    assert got.fun.tobytes() == np.array([r.fun for r in runs]).tobytes()
    assert got.nfev == sum(r.nfev for r in runs)
    return got


class TestLockstepNelderMead:
    def test_matches_scipy_at_search_caps(self):
        assert_matches_scipy(maxiter=4000, maxfev=8000)

    def test_maxfev_abort_in_every_step(self):
        # A run capped at maxfev refuses evaluation maxfev + 1 of its
        # uncapped path, so the sweep aborts inside every step kind.
        _, paths = scipy_runs(maxiter=4000, maxfev=8000)
        refused = set()
        for maxfev in range(1, 61):
            assert_matches_scipy(maxiter=4000, maxfev=maxfev)
            refused |= {path[maxfev] for path in paths if len(path) > maxfev}
        assert {"fsim[k]", "fxe", "fxc", "fxcc", "shrink1", "shrink2"} <= refused

    def test_maxiter_caps(self):
        for maxiter in range(1, 31):
            assert_matches_scipy(maxiter=maxiter, maxfev=8000)

    @pytest.mark.parametrize("maxiter, maxfev", [(4000, 8000), (4000, 25), (12, 8000)])
    def test_each_start_alone_matches_its_batch_row(self, maxiter, maxfev):
        # Finished starts leave the batch: no start may depend on which
        # others are still live.
        caps = {**TOLERANCES, "maxiter": maxiter, "maxfev": maxfev}
        batch = nonmarkov.minimize(kinked_bowl, CAP_STARTS, **caps)
        alone = [nonmarkov.minimize(kinked_bowl, x0[None], **caps) for x0 in CAP_STARTS]
        assert np.concatenate([r.x for r in alone]).tobytes() == batch.x.tobytes()
        assert np.concatenate([r.fun for r in alone]).tobytes() == batch.fun.tobytes()
        assert sum(r.nfev for r in alone) == batch.nfev

    def test_nan_values_match_scipy(self):
        # NaN fails every comparison, so scipy takes each else-branch.  The
        # start (2, -1) lies where every value is NaN and ends at NaN on the
        # maxfev cap; (-3, 0.5) evaluates one NaN candidate, and the added
        # start (1.45, 0.2) begins with a NaN vertex.
        starts = np.vstack([CAP_STARTS, [1.45, 0.2]])
        got = assert_matches_scipy(nan_bowl, starts, maxiter=4000, maxfev=8000)
        assert np.flatnonzero(np.isnan(got.fun)).tolist() == [1]
        assert got.nfev == 8949 + 205
