import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from numpy.testing import assert_allclose

from drivenqubit import (
    AsymptoticCycle,
    BlochMap,
    ControlStep,
    DomainError,
    Protocol,
    SphereAngles,
    Spectrum,
    asymptotic_cycle,
    maximize_visibility,
    volume,
)
from drivenqubit import nonmarkov, visibility
from drivenqubit.cli import main
from drivenqubit.visibility import (
    INDEFINITE,
    NEG_DEFINITE,
    NEG_SEMIDEFINITE,
    _forms,
    _sphere_derivatives,
    _tangent_basis,
    _value,
)

from conftest import recorded_ops


def closed_form_maximum(cycle):
    """Largest eigenvalue of D^T D for the two-point functional |D a|^2."""
    d = cycle.maps[0].m - cycle.maps[1].m
    vals, vecs = np.linalg.eigh(d.T @ d)
    return float(vals[-1]), vecs[:, -1]


def random_map(rng):
    """A random contraction: rotation, singular values in [0, 1), rotation."""
    q1, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    q2, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    return q1 @ np.diag(rng.uniform(0.0, 1.0, 3)) @ q2


def heron_area(x0, x1, x2):
    a = np.linalg.norm(x1 - x0)
    b = np.linalg.norm(x2 - x1)
    c = np.linalg.norm(x0 - x2)
    s = 0.5 * (a + b + c)
    return math.sqrt(max(0.0, s * (s - a) * (s - b) * (s - c)))


def random_three_cycle(seed, draw=0):
    """Period-3 cycle of the ``draw``-th triple of random maps from one seed."""
    rng = np.random.default_rng(seed)
    maps = [random_map(rng) for _ in range(3 * draw + 3)]
    return AsymptoticCycle.from_maps(BlochMap(m) for m in maps[-3:])


def bfgs_maximum(cycle):
    """The visibility maximum by one scipy BFGS per grid start on the
    scale-free extension ``|q(x)|^2 / |x|^4`` in R^3, then one Newton step
    in the tangent plane: (value, direction, verdict, degenerate)."""
    forms, c = _forms(cycle)
    # Unit-norm forms make BFGS's absolute gradient tolerance relative.
    unit = forms / (np.linalg.norm(forms) or 1.0)

    def neg_extension(x):
        r2 = float(x @ x)
        q = x @ unit @ x
        qq = float(q @ q)
        grad = 4.0 * (np.tensordot(q, unit, 1) @ x) / r2**2 - 4.0 * qq * x / r2**3
        return -qq / r2**2, -grad

    candidates = []
    for start in nonmarkov._fibonacci_sphere(nonmarkov.SEARCH_GRID_POINTS):
        x = scipy.optimize.minimize(neg_extension, start, jac=True, method="BFGS", options={"gtol": 1e-10}).x
        candidates.append((_value(forms, c, x / np.linalg.norm(x)), x / np.linalg.norm(x)))
    best_value, best_u = max(candidates, key=lambda cand: cand[0])
    clusters = []
    for value, u in candidates:
        if value >= best_value - 1e-9 and not any(abs(u @ v) > 1.0 - 1e-6 for v in clusters):
            clusters.append(u)
    grad, hess = _sphere_derivatives(forms, c, best_u)
    best_u = best_u + _tangent_basis(best_u) @ np.linalg.lstsq(hess, -grad, rcond=None)[0]
    best_u /= np.linalg.norm(best_u)
    eigs = np.linalg.eigvalsh(_sphere_derivatives(forms, c, best_u)[1])
    verdict = NEG_DEFINITE if np.all(eigs < -1e-8) else NEG_SEMIDEFINITE if np.all(eigs <= 1e-8) else INDEFINITE
    return _value(forms, c, best_u), best_u, verdict, len(clusters) >= 2


class TestSphereAngles:
    def test_round_trip(self):
        rng = np.random.default_rng(40)
        for _ in range(50):
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            sa = SphereAngles.from_vector(v)
            assert_allclose(sa.unit_vector(), v, atol=1e-12)

    def test_range_validation(self):
        with pytest.raises(DomainError):
            SphereAngles(-0.1, 0.0)
        with pytest.raises(DomainError):
            SphereAngles(1.0, 2.0 * math.pi)

    @pytest.mark.parametrize(
        "v", [[0.0, 0.0, 0.0], [math.nan, 0.0, 1.0], [0.0, math.inf, 0.0], [-math.inf, math.inf, 1.0]]
    )
    def test_direction_must_be_nonzero_and_finite(self, v):
        # Dividing by a zero or non-finite norm would warn and then fail on
        # theta = nan with a message about theta.
        with pytest.raises(DomainError, match="direction must be a nonzero finite vector"):
            SphereAngles.from_vector(v)

    @pytest.mark.parametrize(
        "v, theta, phi",
        [
            ([1e200, 1e200, 0.0], math.pi / 2, math.pi / 4),
            ([1e-200, 1e-200, 0.0], math.pi / 2, math.pi / 4),
            ([5e-324, 0.0, 0.0], math.pi / 2, 0.0),
            ([1.7e308] * 3, math.acos(1.0 / math.sqrt(3.0)), math.pi / 4),
        ],
        ids=["norm-overflows", "norm-underflows", "subnormal", "near-max"],
    )
    def test_direction_whose_norm_under_or_overflows(self, v, theta, phi):
        # |v| rounds to 0 or inf although v is nonzero and finite.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sa = SphereAngles.from_vector(v)
        assert sa.theta == pytest.approx(theta, rel=1e-15)
        assert sa.phi == pytest.approx(phi, rel=1e-15, abs=0.0)


class TestVolumeTwo:
    def test_y_direction_is_dark(self, reference_two_cycle):
        assert volume(reference_two_cycle, SphereAngles(math.pi / 2, math.pi / 2)) < 1e-12

    def test_closed_form_maximum(self, reference_two_cycle):
        value, direction = closed_form_maximum(reference_two_cycle)
        assert value == pytest.approx(0.158668, abs=1e-6)
        # The difference map has rank one; its top eigenvector carries it.
        want = np.array([0.241461, 0.0, 0.145020])
        want /= np.linalg.norm(want)
        assert abs(np.dot(direction, want)) == pytest.approx(1.0, abs=1e-9)
        got = volume(reference_two_cycle, SphereAngles.from_vector(direction))
        assert got == pytest.approx(value, abs=1e-12)

    def test_antipodal_invariance(self, reference_two_cycle):
        rng = np.random.default_rng(41)
        for _ in range(20):
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            f_plus = volume(reference_two_cycle, SphereAngles.from_vector(v))
            f_minus = volume(reference_two_cycle, SphereAngles.from_vector(-v))
            assert f_plus == pytest.approx(f_minus, abs=1e-14)

    def test_period_three_cycle_is_its_triangle_area(self, reference_three_cycle):
        # One name serves both periods: a period-3 cycle is not rejected.
        a = SphereAngles(0.5, 0.5)
        x0, x1, x2 = (m.m @ a.unit_vector() for m in reference_three_cycle.maps)
        assert volume(reference_three_cycle, a) == pytest.approx(heron_area(x0, x1, x2), abs=1e-12)
        assert heron_area(x0, x1, x2) > 1e-3

    def test_xz_restriction_has_rank_one(self, reference_two_cycle):
        d = reference_two_cycle.maps[0].m - reference_two_cycle.maps[1].m
        block = d[:, [0, 2]]
        quad_form = block.T @ block
        eigs = np.sort(np.linalg.eigvalsh(quad_form))
        assert eigs[0] < 1e-12
        assert eigs[1] > 0.1


class TestVolumeThree:
    def test_collinear_points_have_zero_area(self):
        cycle = AsymptoticCycle.from_maps(
            [BlochMap(0.9 * np.eye(3)), BlochMap(0.5 * np.eye(3)), BlochMap(0.1 * np.eye(3))]
        )
        rng = np.random.default_rng(42)
        for _ in range(10):
            v = rng.normal(size=3)
            sa = SphereAngles.from_vector(v)
            assert volume(cycle, sa) < 1e-14

    def test_y_direction_is_dark(self, reference_three_cycle):
        assert volume(reference_three_cycle, SphereAngles(math.pi / 2, math.pi / 2)) < 1e-12

    def test_heron_oracle(self, reference_three_cycle):
        # Half the cyclic cross-product sum is the area of the triangle
        # spanned by the three cycle points.
        rng = np.random.default_rng(43)
        mats = [m.m for m in reference_three_cycle.maps]
        for _ in range(50):
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            x0, x1, x2 = (m @ v for m in mats)
            got = volume(reference_three_cycle, SphereAngles.from_vector(v))
            assert got == pytest.approx(heron_area(x0, x1, x2), abs=1e-12)

    def test_wrong_period_rejected(self):
        for period in (1, 4):
            cycle = AsymptoticCycle.from_maps(BlochMap(0.5 * np.eye(3)) for _ in range(period))
            with pytest.raises(DomainError, match="periods 2 and 3"):
                volume(cycle, SphereAngles(0.5, 0.5))


class TestMaximizeVisibility:
    def test_reference_two_point_maximum(self, reference_two_cycle):
        result = maximize_visibility(reference_two_cycle)
        value, direction = closed_form_maximum(reference_two_cycle)
        assert result.value == pytest.approx(value, abs=1e-9)
        assert result.value == pytest.approx(0.158668, abs=1e-6)
        assert abs(np.dot(result.direction, direction)) == pytest.approx(1.0, abs=1e-6)
        assert result.gradient_norm < 1e-9
        assert result.verdict in (NEG_DEFINITE, NEG_SEMIDEFINITE)
        assert not result.degenerate

    def test_every_ascent_calls_module_minimize(self, reference_two_cycle, reference_three_cycle,
                                                monkeypatch):
        # bench/tracing.py counts the ascent's form evaluations by wrapping this name.
        calls = []
        forward = visibility.minimize

        def counting(forms, starts):
            result = forward(forms, starts)
            calls.append((len(starts), len(result.x), result.nfev))
            return result

        monkeypatch.setattr(visibility, "minimize", counting)
        maximize_visibility(reference_two_cycle)
        assert calls == []
        maximize_visibility(reference_three_cycle)
        assert len(calls) == 1
        n_starts, n_results, nfev = calls[0]
        assert n_starts == n_results == nonmarkov.SEARCH_GRID_POINTS == 32
        assert nfev >= nonmarkov.SEARCH_GRID_POINTS

    def test_matches_bfgs_oracle(self, reference_two_cycle, reference_three_cycle):
        # default_rng(4)'s first triple keeps one start creeping until the
        # ascent's iteration cap; the Newton finish still certifies it.
        capped = random_three_cycle(4)
        forms, _ = _forms(capped)
        nfev = visibility.minimize(forms, nonmarkov._fibonacci_sphere(nonmarkov.SEARCH_GRID_POINTS)).nfev
        assert nfev == nonmarkov.SEARCH_GRID_POINTS * (nonmarkov.ASCENT_MAX_ITER + 1)
        cycles = [reference_two_cycle, reference_three_cycle, capped]
        cycles += [random_three_cycle(7, draw) for draw in (0, 1)]
        for cycle in cycles:
            result = maximize_visibility(cycle)
            value, direction, verdict, degenerate = bfgs_maximum(cycle)
            assert result.value >= value - 1e-12
            assert (result.verdict, result.degenerate) == (verdict, degenerate)
            if not degenerate:
                assert min(np.max(np.abs(result.direction - s * direction)) for s in (1, -1)) <= 1e-6

    def test_starts_where_q_vanishes(self):
        # q(u) = (0, 0, u_x u_y): Fibonacci start 0 has u_y = 0, so q = 0
        # there.  The maximum 1/4 sits at (+-1, +-1, 0)/sqrt(2), two
        # non-antipodal maximizer pairs.
        cycle = AsymptoticCycle.from_maps(
            [BlochMap(np.diag([1.0, 0.0, 0.0])), BlochMap(np.diag([0.0, 1.0, 0.0])), BlochMap(np.zeros((3, 3)))]
        )
        forms, _ = _forms(cycle)
        start = nonmarkov._fibonacci_sphere(nonmarkov.SEARCH_GRID_POINTS)[0]
        assert not np.any(start @ forms @ start)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = maximize_visibility(cycle)
            zero = maximize_visibility(AsymptoticCycle.from_maps([BlochMap(np.zeros((3, 3)))] * 3))
        assert result.value == 0.25000000000000006
        assert result.verdict == NEG_DEFINITE
        assert result.degenerate
        assert_allclose(result.direction, [-math.sqrt(0.5), math.sqrt(0.5), 0.0], atol=1e-15)
        assert zero.value == 0.0
        assert zero.degenerate

    def test_both_searches_run_one_ascent_loop(self, reference_two_cycle, monkeypatch):
        calls = []
        forward = nonmarkov._sphere_ascent

        def counting(starts, step):
            calls.append(len(starts))
            return forward(starts, step)

        for module in (nonmarkov, visibility):
            monkeypatch.setattr(module, "_sphere_ascent", counting)
        op = recorded_ops("steady_sweep", lambda op: op["id"] == "pair.p3-s2.83.v0")[0]
        three = AsymptoticCycle.from_maps(BlochMap(np.array(m)) for m in op["maps"])
        nonmarkov.optimal_pair_search(three)
        # 32 grid points and the 3T Gram eigenvectors.
        assert calls == [nonmarkov.SEARCH_GRID_POINTS + 9]
        maximize_visibility(three)
        assert calls[1:] == [nonmarkov.SEARCH_GRID_POINTS]
        maximize_visibility(reference_two_cycle)
        nonmarkov.optimal_pair_search(AsymptoticCycle.from_maps(three.maps[:1]))
        assert len(calls) == 2

    def test_hessian_negative_semidefinite(self, reference_two_cycle, reference_three_cycle):
        for cycle in (reference_two_cycle, reference_three_cycle):
            result = maximize_visibility(cycle)
            assert all(e <= 1e-8 for e in result.hessian_eigenvalues)

    def test_three_point_maximum_beats_random_sampling(self, reference_three_cycle):
        result = maximize_visibility(reference_three_cycle)
        rng = np.random.default_rng(44)
        best = 0.0
        for _ in range(10**4):
            v = rng.normal(size=3)
            best = max(
                best, volume(reference_three_cycle, SphereAngles.from_vector(v))
            )
        assert result.value >= best - 1e-12

    def test_one_degree_grid_oracle(self, reference_two_cycle):
        result = maximize_visibility(reference_two_cycle)
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
        d = reference_two_cycle.maps[0].m - reference_two_cycle.maps[1].m
        grid_best = float(np.max(np.sum((u @ d.T) ** 2, axis=1)))
        assert result.value >= grid_best - 1e-12
        assert result.value - grid_best < 1e-6

    def test_degenerate_maximizer_set_is_flagged(self):
        # Opposite scalar maps give the same separation from every
        # direction, so the whole sphere maximizes.
        cycle = AsymptoticCycle.from_maps(
            [BlochMap(0.4 * np.eye(3)), BlochMap(-0.4 * np.eye(3))]
        )
        result = maximize_visibility(cycle)
        assert result.value == pytest.approx(0.64, abs=1e-12)
        assert result.degenerate
        assert result.verdict == NEG_SEMIDEFINITE

    @pytest.mark.parametrize("period", [2, 3])
    def test_equal_maps_have_zero_visibility(self, period):
        # Every initial state lands on one point: q vanishes identically,
        # so every direction maximizes.
        a = random_map(np.random.default_rng(46))
        cycle = AsymptoticCycle.from_maps([BlochMap(a)] * period)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = maximize_visibility(cycle)
        assert result.value == 0.0
        assert result.gradient_norm == 0.0
        assert result.verdict == NEG_SEMIDEFINITE
        assert result.degenerate

    def test_rounding_noise_visibility_is_degenerate(self):
        # The two steady maps agree to rounding, so the visibility is
        # noise (about 1e-31) everywhere; all directions tie within 1e-9.
        p = Protocol.from_steps([ControlStep(0.5, 1), ControlStep(0.5, 1)])
        result = maximize_visibility(asymptotic_cycle(p, Spectrum(0.4, 0.3)))
        assert result.value < 1e-20
        assert result.verdict == NEG_SEMIDEFINITE
        assert result.degenerate

    @pytest.mark.parametrize(
        "steps, sp, value, degenerate",
        [
            # BFGS alone stops at |grad| = 3e-9 here.  The pinned values
            # and flags come from a Nelder-Mead search in spherical angles
            # with a central-difference Newton polish.
            (
                [(1.0, 0), (0.7312653398013568, 3), (0.0, 0)],
                Spectrum(0.0, math.inf),
                0.290567053050546,
                True,
            ),
            # A maximum of 3e-8: the ascent must not stop on the absolute
            # size of the gradient.
            (
                [(0.0, 0), (0.0, 1), (0.9999999999999999, 0)],
                Spectrum(2.0, 0.0),
                3.281991372036315e-08,
                False,
            ),
        ],
        ids=["bfgs-stall", "tiny-maximum"],
    )
    def test_three_point_maximum_is_stationary(self, steps, sp, value, degenerate):
        p = Protocol.from_steps(ControlStep(eta, k) for eta, k in steps)
        result = maximize_visibility(asymptotic_cycle(p, sp))
        assert result.value == pytest.approx(value, rel=1e-9)
        assert result.gradient_norm < 1e-9
        assert result.verdict == NEG_DEFINITE
        assert result.degenerate == degenerate

    def test_flat_maximum_takes_newton_steps_until_stationary(self):
        # A flat maximum: one Newton step leaves |grad| = 3.6e-8, and a
        # second reaches 7.3e-14.
        steps = [(0.7818444124871367, 1), (0.5134939413281067, 1), (0.19473921890500656, 1)]
        p = Protocol.from_steps(ControlStep(eta, k) for eta, k in steps)
        cycle = asymptotic_cycle(p, Spectrum(-0.6456894800771762, 4.472831417872813), "eq4a")
        result = maximize_visibility(cycle)
        assert result.gradient_norm < 1e-12
        assert result.value == pytest.approx(0.0279405939354017, rel=1e-9)
        assert result.verdict == NEG_DEFINITE

    def test_polar_maximizer_uses_rotated_chart(self):
        # Optimum exactly at a pole of the spherical angles: the maximizer
        # works on the sphere without a chart and still certifies concavity.
        cycle = AsymptoticCycle.from_maps(
            [BlochMap(np.diag([0.1, 0.1, 0.9])), BlochMap(np.diag([0.1, 0.1, -0.9]))]
        )
        result = maximize_visibility(cycle)
        assert result.value == pytest.approx(3.24, abs=1e-9)
        assert abs(result.direction[2]) == pytest.approx(1.0, abs=1e-9)
        assert result.gradient_norm < 1e-9
        assert result.verdict in (NEG_DEFINITE, NEG_SEMIDEFINITE)

    def test_gradient_step_consistency(self, reference_three_cycle):
        # The analytic Riemannian gradient and Hessian agree with central
        # differences of the value along geodesics in the tangent basis.
        rng = np.random.default_rng(45)
        random_two_cycle = AsymptoticCycle.from_maps(BlochMap(random_map(rng)) for _ in range(2))
        h1, h2 = 1e-5, 1e-4
        for cycle in (reference_three_cycle, random_two_cycle):
            forms, c = _forms(cycle)
            for _ in range(20):
                u = rng.normal(size=3)
                u /= np.linalg.norm(u)
                grad, hess = _sphere_derivatives(forms, c, u)
                basis = _tangent_basis(u)
                assert_allclose(basis.T @ basis, np.eye(2), atol=1e-15)
                assert_allclose(basis.T @ u, 0.0, atol=1e-15)

                def along(v, t):
                    return _value(forms, c, math.cos(t) * u + math.sin(t) * v)

                def second(v):
                    return (along(v, h2) + along(v, -h2) - 2.0 * along(v, 0.0)) / h2**2

                b1, b2 = basis.T
                fd_grad = np.array([(along(b, h1) - along(b, -h1)) / (2.0 * h1) for b in (b1, b2)])
                h11, h22 = second(b1), second(b2)
                h12 = second((b1 + b2) / math.sqrt(2.0)) - 0.5 * (h11 + h22)
                fd_hess = np.array([[h11, h12], [h12, h22]])
                assert np.linalg.norm(grad - fd_grad) / max(np.linalg.norm(fd_grad), 1e-6) < 1e-6
                assert np.linalg.norm(hess - fd_hess) / max(np.linalg.norm(fd_hess), 1e-6) < 1e-5


def assert_matches_record(result, expect, value_tol):
    assert abs(result["value"] - expect["value"]) <= value_tol
    assert result["verdict"] == expect["verdict"]
    assert result["degenerate"] == expect["degenerate"]
    if not expect["degenerate"]:
        got, want = np.asarray(result["direction"]), np.asarray(expect["direction"])
        assert min(np.max(np.abs(got - want)), np.max(np.abs(got + want))) <= 1e-6


class TestRecordedReferences:
    @pytest.mark.parametrize(
        "op", recorded_ops("steady_sweep", lambda op: op["kind"] == "vis"), ids=lambda op: op["id"]
    )
    def test_steady_sweep_maximum(self, op):
        cycle = AsymptoticCycle.from_maps(BlochMap(np.array(m)) for m in op["maps"])
        result = maximize_visibility(cycle)
        summary = {
            "value": result.value,
            "direction": result.direction,
            "verdict": result.verdict,
            "degenerate": result.degenerate,
        }
        assert_matches_record(summary, op["expect"], 1e-9)

    @pytest.mark.parametrize(
        "op",
        recorded_ops("cli_presets", lambda op: op["argv"][0] == "visibility"),
        ids=lambda op: op["id"],
    )
    def test_preset_visibility_file(self, op, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(list(op["argv"])) == op["expect"]["exit"]
        expect = op["expect"]["files"]["visibility.json"]["json"]
        got = json.loads((Path(op["out"]) / "visibility.json").read_text())
        # Files carry 9 significant digits: allow one unit in the ninth.
        printed = 10.0 ** (math.floor(math.log10(abs(expect["value"]))) - 8)
        assert_matches_record(got, expect, 1e-9 + printed)
