import dataclasses
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from drivenqubit import (
    STEP_ORDERS,
    THREE_CONTROL_REFERENCE,
    TWO_CONTROL_REFERENCE,
    BlochVector,
    ControlStep,
    ConvergenceError,
    DomainError,
    PoleError,
    Protocol,
    Spectrum,
    abel_limit,
    asymptotic_cycle,
    asymptotic_map,
    cesaro_mean,
    convergence_profile,
    gaussian_average,
    limit_cycle,
    propagate,
    protocol_product,
    step_matrix,
    resolvent,
    steady_fold,
    trig_roots,
)
from drivenqubit import asymptotics, bloch, cli
from conftest import UNIFORM_S, random_rotation, recorded_ops


class TestResolvent:
    def test_identity_geometric_series(self):
        assert_allclose(resolvent(np.eye(3), 0.5), 2.0 * np.eye(3), atol=1e-14)

    def test_inverse_identity(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            w, _, _ = random_rotation(rng)
            z = rng.uniform(-0.7, 0.7) + 1j * rng.uniform(-0.7, 0.7)
            r = resolvent(w, z)
            assert_allclose((np.eye(3) - z * w) @ r, np.eye(3), atol=1e-12)

    def test_simple_pole_at_one(self):
        rng = np.random.default_rng(11)
        w, _, _ = random_rotation(rng)
        with pytest.raises(PoleError):
            resolvent(w, 1.0)
        # The determinant vanishes linearly in 1 - z, so the pole is simple.
        dets = [abs(np.linalg.det(np.eye(3) - (1.0 - eps) * w)) for eps in (1e-4, 1e-5)]
        assert dets[0] / dets[1] == pytest.approx(10.0, rel=0.2)


class TestAbelLimit:
    def test_quarter_turn_projects_on_axis(self):
        w = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        assert_allclose(abel_limit(w), np.diag([0.0, 0.0, 1.0]), atol=1e-14)

    def test_identity_maps_to_identity(self):
        assert_allclose(abel_limit(np.eye(3)), np.eye(3), atol=1e-15)

    def test_cesaro_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            w, _, _ = random_rotation(rng)
            assert np.max(np.abs(cesaro_mean(w) - abel_limit(w))) < 1e-5

    def test_projector_laws(self, two_controls):
        rng = np.random.default_rng(13)
        tm = protocol_product(two_controls, two_controls.period)
        for theta in rng.uniform(0.2, 3.0, size=20):
            w = tm.evaluate(theta)
            p = abel_limit(w)
            assert np.max(np.abs(p @ p - p)) < 1e-12
            assert np.max(np.abs(p @ w - p)) < 1e-12
            assert np.max(np.abs(w @ p - p)) < 1e-12

    def test_half_turn_axis(self):
        rng = np.random.default_rng(14)
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        k = np.array([[0, -u[2], u[1]], [u[2], 0, -u[0]], [-u[1], u[0], 0]])
        for angle in (math.pi, math.pi - 1e-5, math.pi + 1e-5, math.pi - 1e-9):
            w = np.eye(3) + math.sin(angle) * k + (1 - math.cos(angle)) * (k @ k)
            assert_allclose(abel_limit(w), np.outer(u, u), atol=1e-7)

    def test_rejects_non_rotation(self):
        with pytest.raises(DomainError):
            abel_limit(1.1 * np.eye(3))
        with pytest.raises(DomainError):
            abel_limit(np.diag([1.0, 1.0, -1.0]))  # orthogonal but det = -1

    def test_residue_equivalence(self):
        # (1-z) R(z) = P + (1-z) B + O((1-z)^2); eliminate the linear term
        # from the samples at z = 1 - 1e-7 and 1 - 1e-8.
        rng = np.random.default_rng(15)
        for _ in range(10):
            w, _, _ = random_rotation(rng)
            v7 = 1e-7 * resolvent(w, 1.0 - 1e-7)
            v8 = 1e-8 * resolvent(w, 1.0 - 1e-8)
            extrapolated = np.real((10.0 * v8 - v7) / 9.0)
            assert np.max(np.abs(extrapolated - abel_limit(w))) < 1e-6


def axis_rotation(u, angle):
    """Rodrigues' rotation by angle about the unit axis u."""
    k = np.array([[0, -u[2], u[1]], [u[2], 0, -u[0]], [-u[1], u[0], 0]])
    return np.eye(3) + math.sin(angle) * k + (1 - math.cos(angle)) * (k @ k)


def rotation_stack(rng):
    """Random rotations with the identity, exact half turns, half turns
    within 1e-9 of pi (Rodrigues' half-turn branch) and small angles among them."""
    ws = [random_rotation(rng, min_angle=0.0)[0] for _ in range(20)]
    ws += [np.eye(3), np.diag([1.0, -1.0, -1.0]), np.diag([-1.0, -1.0, 1.0])]
    for angle in (math.pi, math.pi - 1e-9, math.pi + 5e-10, 1e-3, 1e-6):
        u = rng.normal(size=3)
        ws.append(axis_rotation(u / np.linalg.norm(u), angle))
    return np.array(ws)[rng.permutation(len(ws))]


def random_axis(rng):
    u = rng.normal(size=3)
    return u / np.linalg.norm(u)


class TestHalfTurn:
    # Inside the half-turn mask the projector is Rodrigues' closed form
    # (W + W^T - (tr W - 1) I) / (3 - tr W), exact to rounding.
    def test_projector_is_exact_inside_the_mask(self):
        rng = np.random.default_rng(40)
        for u in [*np.eye(3), *(random_axis(rng) for _ in range(50))]:
            for gap in (0.0, 5e-10, 1e-9, 4e-9):
                w = axis_rotation(u, math.pi - gap)
                assert np.max(np.abs(abel_limit(w) - np.outer(u, u))) <= 1e-15

    @pytest.mark.xfail(
        strict=True,
        reason="above the mask the normalised antisymmetric part loses digits like 1e-16 / |a| (ROADMAP item 1)",
    )
    def test_projector_is_exact_just_above_the_mask(self):
        rng = np.random.default_rng(41)
        for u in (random_axis(rng) for _ in range(50)):
            w = axis_rotation(u, math.pi - math.exp(rng.uniform(math.log(1e-8), math.log(1e-6))))
            assert np.max(np.abs(abel_limit(w) - np.outer(u, u))) <= 1e-14

    def test_no_eigensolve(self, monkeypatch):
        # A half turn at every phase: every node takes the closed form.
        def refuse(*args, **kwargs):
            raise AssertionError("numpy.linalg.eigh was called")

        p = Protocol.from_steps([ControlStep(0.7, 0)])
        axis = abel_limit(protocol_product(p, 1).evaluate(0.4))
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        for s in (0.3, math.inf):
            assert np.max(np.abs(asymptotic_cycle(p, Spectrum(0.4, s)).maps[0].m - axis)) <= 1e-15
            assert np.max(np.abs(steady_fold(p, 0.4, s)[0].map_at(s) - axis)) <= 1e-15
        assert abel_limit(np.diag([1.0, -1.0, -1.0])).tobytes() == np.diag([1.0, 0.0, 0.0]).tobytes()


class TestStacks:
    # Each matrix of a stack keeps the bits of its single call.
    def test_abel_limit_stack_matches_single_calls(self):
        ws = rotation_stack(np.random.default_rng(30))
        single = np.array([abel_limit(w) for w in ws])
        assert abel_limit(ws).tobytes() == single.tobytes()
        assert abel_limit(ws.reshape(4, 7, 3, 3)).tobytes() == single.tobytes()
        assert abel_limit(ws[:1]).tobytes() == single[:1].tobytes()

    def test_resolvent_stack_matches_single_calls(self):
        rng = np.random.default_rng(31)
        ws = np.array([random_rotation(rng)[0] for _ in range(12)])
        ws[3] = np.diag([1.0, -1.0, -1.0])
        z = np.concatenate([rng.uniform(-0.9, 0.9, 3) + 1j * rng.uniform(-0.9, 0.9, 3), [0.9, -0.5, 1.0 - 1e-7]])
        single = np.array([[resolvent(w, zi) for zi in z] for w in ws])
        assert resolvent(ws[:, None], z).tobytes() == single.tobytes()
        # One z for the whole stack, and one z per matrix.
        assert resolvent(ws, z[0]).tobytes() == single[:, 0].tobytes()
        assert resolvent(ws, z[np.arange(12) % 6]).tobytes() == single[np.arange(12), np.arange(12) % 6].tobytes()

    def test_empty_stack(self):
        assert abel_limit(np.empty((0, 3, 3))).shape == (0, 3, 3)
        assert resolvent(np.empty((0, 3, 3)), 0.5).shape == (0, 3, 3)
        assert resolvent(np.empty((0, 1, 3, 3)), [0.5, 0.3j]).shape == (0, 2, 3, 3)

    def test_one_non_rotation_names_its_index(self):
        ws = rotation_stack(np.random.default_rng(32))
        bad = ws.copy()
        bad[5] *= 1.1
        with pytest.raises(DomainError, match="matrix 5 is not orthogonal"):
            abel_limit(bad)
        bad = ws.copy()
        bad[9] = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(DomainError, match="matrix 9 is not a proper rotation"):
            abel_limit(bad)

    def test_one_pole_names_its_index(self):
        rng = np.random.default_rng(33)
        ws = np.array([random_rotation(rng)[0] for _ in range(6)])
        z = np.full(6, 0.5)
        z[4] = 1.0
        with pytest.raises(PoleError, match="matrix 4:"):
            resolvent(ws, z)
        with pytest.raises(PoleError, match="matrix 2:"):
            resolvent(ws[:, None], [0.5, -0.5j, 1.0])

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: abel_limit(np.full((3, 3), np.nan)), "matrix 0 has a non-finite entry"),
            (lambda: abel_limit(np.diag([np.inf, 1.0, 1.0])), "matrix 0 has a non-finite entry"),
            (lambda: abel_limit(np.stack([np.eye(3), np.eye(3), np.diag([1.0, np.nan, 1.0])])), "matrix 2 has"),
            (lambda: resolvent(np.full((3, 3), np.nan), 0.5), "matrix 0 has a non-finite entry"),
            (lambda: resolvent(np.eye(3), float("nan")), r"z\[0\] = \(nan\+0j\) is not finite"),
            (lambda: resolvent(np.eye(3), [0.5, complex(0.2, math.inf)]), r"z\[1\] = .* is not finite"),
            (lambda: abel_limit(np.zeros((3, 2))), r"expected a 3x3 matrix or a stack of them, got shape \(3, 2\)"),
        ],
        ids=["abel-nan", "abel-inf", "abel-stack-nan", "resolvent-nan-w", "resolvent-nan-z", "resolvent-inf-z",
             "abel-shape"],
    )
    def test_non_finite_input_raises_before_arithmetic(self, call, message):
        # The suite turns RuntimeWarnings into errors: the check comes first.
        with pytest.raises(DomainError, match=message):
            call()

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: abel_limit(np.full((3, 3), 1e200)), r"matrix 0 is not orthogonal: max \|W_ij\| = 1.000e\+200"),
            (lambda: abel_limit(np.stack([np.eye(3), np.full((3, 3), 1e200)])), "matrix 1 is not orthogonal"),
            # This I - zW rounds to a singular matrix, whose LAPACK det is
            # 0: a false pole unless the bound comes first.
            (lambda: resolvent(np.full((3, 3), 1e200), 0.5), r"matrix 0: \|z\| max\|W\| = 5.000e\+199"),
            (lambda: resolvent(np.eye(3), 1e300), r"matrix 0: \|z\| max\|W\| = 1.000e\+300"),
            (lambda: resolvent(np.stack([np.eye(3)] * 4), [0.5, 0.2j, 1e300, 0.1]), "matrix 2:"),
            (lambda: resolvent(np.full((3, 3), 1e300), 1e300), r"max\|W\| = inf"),
        ],
        ids=["abel-huge", "abel-stack-huge", "resolvent-huge-w", "resolvent-huge-z", "resolvent-stack-huge-z", "resolvent-overflow"],
    )
    def test_huge_input_raises_before_arithmetic(self, call, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=message):
                call()

    def test_large_input_inside_the_bound(self):
        w = random_rotation(np.random.default_rng(34))[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = resolvent(np.stack([w, np.eye(3)]), 1e99)
        assert np.max(np.abs((np.eye(3) - 1e99 * w) @ r[0] - np.eye(3))) < 1e-15
        assert np.max(np.abs((1.0 - 1e99) * r[1] - np.eye(3))) < 1e-15


def rotated(p, k):
    """The schedule of p started at step k: steps[k:] + steps[:k]."""
    return Protocol(p.steps[k:] + p.steps[:k])


def random_protocol(rng, period):
    return Protocol.from_steps(
        ControlStep(float(rng.uniform(0.0, 1.0)), int(rng.integers(0, 5))) for _ in range(period)
    )


class TestRotatedSchedule:
    def test_zero_rotation(self, three_controls):
        assert rotated(three_controls, 0) == three_controls
        want = protocol_product(three_controls, 3).terms
        assert protocol_product(rotated(three_controls, 0), 3).terms.tobytes() == want.tobytes()

    def test_full_rotation_is_identity_operation(self):
        p = random_protocol(np.random.default_rng(16), 4)
        back = rotated(rotated(p, 4 - 1), 1)
        assert back == p
        for order in STEP_ORDERS:
            got = protocol_product(back, 4, order).terms
            assert got.tobytes() == protocol_product(p, 4, order).terms.tobytes()

    def test_double_rotation_product(self):
        # Application order [c, b, a] is the product a @ b @ c; two
        # rotations give the product b @ c @ a.
        p = random_protocol(np.random.default_rng(17), 3)
        c, b, a = (step_matrix(s) for s in p.steps)
        product = protocol_product(rotated(p, 2), 3)
        for theta in np.random.default_rng(170).uniform(-np.pi, np.pi, size=10):
            want = b.evaluate(theta) @ c.evaluate(theta) @ a.evaluate(theta)
            assert_allclose(product.evaluate(theta), want, atol=1e-14)

    @pytest.mark.parametrize("order", STEP_ORDERS)
    def test_rotation_conjugates_the_product(self, three_controls, order):
        thetas = np.random.default_rng(18).uniform(-np.pi, np.pi, size=10)
        for p in (three_controls, random_protocol(np.random.default_rng(180), 4)):
            full = protocol_product(p, p.period, order).evaluate(thetas)
            for k in range(p.period):
                got = protocol_product(rotated(p, k), p.period, order).evaluate(thetas)
                prefix = protocol_product(p, k, order).evaluate(thetas)
                want = prefix @ full @ np.swapaxes(prefix, -1, -2)
                assert_allclose(got, want, atol=1e-13)

    def test_out_of_range(self, calibrated_spectrum):
        p = Protocol.from_steps([ControlStep(0.5, 3)])
        for K in (-1, 1):
            with pytest.raises(DomainError):
                asymptotic_map(p, calibrated_spectrum, K)

    def test_phase_validation(self, two_controls, calibrated_spectrum):
        # The rotation steps[K:] + steps[:K] is defined only for 0 <= K < T,
        # on both the quadrature and the point-value path, in every order.
        for sp in (calibrated_spectrum, Spectrum(0.7, 0.0)):
            for order in STEP_ORDERS:
                for K in (-1, 2, 3):
                    with pytest.raises(DomainError):
                        asymptotic_map(two_controls, sp, K, order)

    def test_sharp_map_is_rotated_axis_times_prefix(self, three_controls):
        for K in range(3):
            period = protocol_product(rotated(three_controls, K), 3)
            prefix = protocol_product(three_controls, K)
            for theta in (0.1, 0.9):
                got = asymptotic_map(three_controls, Spectrum(theta, 0.0), K).m
                want = abel_limit(period.evaluate(theta)) @ prefix.evaluate(theta)
                assert got.tobytes() == want.tobytes()


class TestAsymptoticMap:
    def test_two_control_reference(self, two_cycle):
        for got, want in zip(two_cycle.maps, TWO_CONTROL_REFERENCE):
            assert np.max(np.abs(got.m - want)) < 2e-3

    def test_three_control_reference(self, three_cycle):
        for got, want in zip(three_cycle.maps, THREE_CONTROL_REFERENCE):
            assert np.max(np.abs(got.m - want)) < 5e-3
        assert three_cycle.y_eigenvalues[0] == pytest.approx(0.0590277, abs=5e-3)
        assert three_cycle.y_eigenvalues[1] == pytest.approx(0.127151, abs=5e-3)
        assert three_cycle.y_eigenvalues[2] == pytest.approx(-0.0386657, abs=5e-3)

    def test_eigenvalue_magnitude_ordering(self, three_cycle):
        lam, lam_p, lam_pp = three_cycle.y_eigenvalues
        assert abs(lam_pp) < abs(lam) < abs(lam_p)

    def test_y_axis_decouples(self, two_cycle, three_cycle):
        for cycle in (two_cycle, three_cycle):
            for m in cycle.maps:
                off = np.abs(m.m[1, :]).sum() + np.abs(m.m[:, 1]).sum() - 2 * abs(m.m[1, 1])
                assert off < 1e-12

    def test_long_iteration_oracle(self, two_controls, calibrated_spectrum):
        # The driven dynamics approaches the steady maps only like
        # 1/sqrt(m) (stationary-phase tails of the spectral integral), so
        # the agreement at 200 steps sits at the 1e-3 level and improves
        # slowly; the asserted bounds are measured values.
        for K in (0, 1):
            target = asymptotic_map(two_controls, calibrated_spectrum, K).m
            def err(n):
                avg = gaussian_average(
                    protocol_product(two_controls, n), calibrated_spectrum
                ).m
                return float(np.max(np.abs(avg - target)))
            n_big = 200 + K - (200 % 2)
            e_small, e_big = err(20 + K), err(n_big)
            assert e_big < 2e-3
            assert e_big < e_small

    def test_phase_out_of_range(self, two_controls, calibrated_spectrum):
        with pytest.raises(DomainError):
            asymptotic_map(two_controls, calibrated_spectrum, 2)

    def test_sharp_spectrum_point_value(self, two_controls):
        # s = 0 reduces the spectral integral to a point evaluation.
        sp = Spectrum(0.7, 0.0)
        got = asymptotic_map(two_controls, sp, 0).m
        w = protocol_product(two_controls, 2).evaluate(0.7)
        assert_allclose(got, abel_limit(w), atol=1e-12)

    def test_node_cap_raises_with_diagnostics(
        self, two_controls, calibrated_spectrum, monkeypatch
    ):
        import drivenqubit.asymptotics as asym

        monkeypatch.setattr(asym, "QUAD_TOL", 0.0)
        monkeypatch.setattr(asym, "QUAD_MAX_NODES", 128)
        with pytest.raises(ConvergenceError, match="nodes"):
            asymptotic_map(two_controls, calibrated_spectrum, 0)

    def test_node_cap_reports_last_change(self, two_controls, monkeypatch):
        # s = 8.25 needs 4,096 nodes; at a cap of 128 the last two
        # refinements still differ, and the message says by how much.
        import drivenqubit.asymptotics as asym

        monkeypatch.setattr(asym, "QUAD_MAX_NODES", 128)
        with pytest.raises(ConvergenceError) as info:
            asymptotic_map(two_controls, Spectrum(0.0, 8.25), 0)
        change = float(re.search(r"last change (\S+)\)", str(info.value)).group(1))
        assert change > 1e-10

    @pytest.mark.parametrize(
        "theta_bar, s",
        [
            pytest.param(1.0, 1e-18, id="1e-18"),
            pytest.param(1.0, 1.04e-287, id="1.04e-287"),
            pytest.param(0.0, 5e-324, id="0-5e-324"),
            pytest.param(0.0, 1e-323, id="0-1e-323"),
        ],
    )
    def test_collapsed_window_is_point_value(self, two_controls, theta_bar, s):
        # Either theta_bar -/+ 8 s round to the same float, or every panel
        # weight of a refinement underflows (s of one or two subnormals at
        # theta_bar = 0); the Gaussian weights would be 0/0 there, so the
        # map is the sharp point value.
        for K in range(2):
            got = asymptotic_map(two_controls, Spectrum(theta_bar, s), K).m
            want = asymptotic_map(two_controls, Spectrum(theta_bar, 0.0), K).m
            assert got.tobytes() == want.tobytes()

    def test_overflowing_window_is_uniform_limit(self, two_controls):
        # From s* on the nodes span one period with uniform weights; here
        # 8 s overflows, and a NaN window would give the sharp map.
        for K in range(2):
            got = asymptotic_map(two_controls, Spectrum(0.7, 1e308), K).m
            want = asymptotic_map(two_controls, Spectrum(0.7, math.inf), K).m
            assert got.tobytes() == want.tobytes()

    def test_subnormal_widths_converge_to_point_value(self, two_controls):
        # The smallest widths s = m * 5e-324 resolve to a few distinct nodes:
        # every one converges, without a NaN weight, to the sharp map.
        sharp = [asymptotic_map(two_controls, Spectrum(0.0, 0.0), K).m for K in range(2)]
        for m in range(1, 40):
            for K in range(2):
                got = asymptotic_map(two_controls, Spectrum(0.0, m * 5e-324), K).m
                assert np.max(np.abs(got - sharp[K])) < 1e-15


class TestPhaseIndex:
    # A phase is an integer in [0, T), T = 2 here: operator.index admits
    # numpy integers and rejects floats (integral ones too), strings and None.
    @pytest.mark.parametrize("K", [0.5, 1.0, "1", None, -1, 2])
    def test_rejects_anything_but_a_phase_of_the_period(self, two_controls, calibrated_spectrum, two_cycle, K):
        traj = propagate(two_controls, calibrated_spectrum, 4, BlochVector(0, 0, 1))
        with pytest.raises(DomainError, match="phase"):
            asymptotic_map(two_controls, calibrated_spectrum, K)
        with pytest.raises(DomainError, match="phase"):
            convergence_profile(two_cycle, traj, K)

    def test_numpy_integer_is_the_int_phase(self, two_controls, calibrated_spectrum, two_cycle):
        traj = propagate(two_controls, calibrated_spectrum, 4, BlochVector(0, 0, 1))

        def results(K):
            return (
                asymptotic_map(two_controls, calibrated_spectrum, K).m.tobytes(),
                convergence_profile(two_cycle, traj, K),
            )

        assert results(np.int64(1)) == results(1)


class TestLockstepCycle:
    def test_one_coefficient_row_per_node_block(self, three_controls, calibrated_spectrum, monkeypatch):
        # Every phase's period and prefix series read the rows of one shared
        # table: each node of each refinement enters exactly one row, where a
        # phase-by-phase quadrature builds 2 T rows per block.  A cycle the
        # window hands to the fold takes one fold pass for all its phases, on
        # the period's one node count N: 2N nodes, in blocks of the same size.
        rows, refinements = [], []
        build_rows, quad_nodes = bloch._coefficient_rows, asymptotics._quad_nodes

        def counted_rows(theta, damping):
            rows.append(np.size(theta))
            return build_rows(theta, damping)

        def counted_nodes(sp, n_nodes):
            rule = quad_nodes(sp, n_nodes)
            refinements.append(len(rule[0]))
            return rule

        capped = Protocol([ControlStep(0.3875, 4), ControlStep(0.3815, 2)])
        # three_controls converges within one block of 630 nodes at 512 of
        # its fold's 2N = 512.  The capped cycle refines to 32,768 nodes in
        # blocks of 630, where both phases take their 2N = 32,768-node folds
        # from one pass.
        cases = [(three_controls, calibrated_spectrum, [], []), (capped, Spectrum(-0.707, 4.597), [2**15, 2**15], [2**15])]
        for protocol, sp, folds, passes in cases:
            # Every node block, of the window, the fold and evaluate, comes from bloch._node_blocks.
            monkeypatch.setattr(bloch, "_coefficient_rows", counted_rows)
            monkeypatch.setattr(asymptotics, "_quad_nodes", counted_nodes)
            rows.clear()
            refinements.clear()
            asymptotic_cycle(protocol, sp)
            monkeypatch.undo()
            top = protocol_product(protocol, protocol.period).max_harmonic
            block = bloch._SUM_BLOCK_TERMS // (2 * top + 1)
            assert len(refinements) > 1
            window = [min(block, n - lo) for n in refinements for lo in range(0, n, block)]
            assert rows == window + [min(block, n - lo) for n in passes for lo in range(0, n, block)]
            if folds:
                assert [2 * fold.nodes for fold in steady_fold(protocol, sp.theta_bar, sp.s)] == folds
                assert folds == [max(refinements)] * protocol.period
        assert max(refinements) > 4 * block

    def test_peak_memory_is_a_few_blocks(self):
        # The window refines to 16,384 nodes, short of its fold's 2N, at
        # 2 H + 1 = 17 terms: blocks of 481 nodes keep the peak at 1.0 MB;
        # blocks of 2^14 or 2^15 terms x nodes would peak at 1.8 or 3.2 MB.
        p = Protocol.from_steps([ControlStep(0.743, 4), ControlStep(0.749, 4)])
        sp = Spectrum(0.4, 0.186)
        asymptotic_cycle(p, sp)  # numpy's one-off first-call allocations
        tracemalloc.start()
        try:
            asymptotic_cycle(p, sp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2**20


# The two cycles that hit the window's node cap: (eta, k) steps, spectrum and rho.
CAPPED_CYCLES = [
    pytest.param([(0.9357, 0), (0.5, 1), (0.1672, 3), (1.0, 3), (0.0, 0)], Spectrum(0.0917, 38.6), 0.0394, id="period-5-s38.6"),
    pytest.param([(0.3875, 4), (0.3815, 2)], Spectrum(-0.707, 4.597), 3.05e-3, id="period-2-s4.597"),
]


def strip_depths(period):
    """|log|z|| of every root of d = 3 - tr W, sorted."""
    d = -np.trace(period.terms, axis1=2, axis2=3)
    d[0, 0] += 3.0
    return np.sort(np.abs(np.log(np.abs(trig_roots(d)))))


class TestTrigRoots:
    @pytest.mark.parametrize("a", [1.01, 1.5, 3.0, 40.0])
    @pytest.mark.parametrize("shift", [0.0, 0.8])
    def test_shifted_cosine_has_the_arccosh_strip(self, a, shift):
        # a - cos(theta - shift) vanishes at theta = shift -/+ i arccosh(a).
        roots = trig_roots([[a, 0.0], [-math.cos(shift), -math.sin(shift)]])
        assert_allclose(np.sort(np.abs(np.log(np.abs(roots)))), [math.acosh(a)] * 2, rtol=1e-12)
        assert_allclose(np.angle(roots), [shift] * 2, atol=1e-12)

    def test_constant_series_has_no_roots(self):
        # Trailing zero harmonics are trimmed, so no root lands at z = 0
        # (whose log would warn, an error here).
        for series in ([[2.0, 0.0]], [[2.0, 0.0], [0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]):
            assert trig_roots(series).size == 0
        roots = np.sort(np.abs(trig_roots([[1.5, 0.0], [-1.0, 0.0], [0.0, 0.0]])))
        assert_allclose(roots, [1.5 - math.sqrt(1.25), 1.5 + math.sqrt(1.25)], rtol=1e-14)

    @pytest.mark.parametrize("order", STEP_ORDERS)
    @pytest.mark.parametrize(
        "steps, rho, on_circle",
        [([(0.5, 3), (0.5, 2)], 0.4415038, 2), ([(0.5, 3), (0.5, 2), (0.5, 1)], 0.2240102, 0)],
        ids=["two_controls", "three_controls"],
    )
    def test_preset_strips(self, steps, rho, on_circle, order):
        # two_controls turns through the identity at one phase: a double
        # root of 3 - tr W on the circle, which rounding splits by about 5e-10.
        p = Protocol([ControlStep(eta, k) for eta, k in steps])
        depths = strip_depths(protocol_product(p, p.period, order))
        assert np.count_nonzero(depths < asymptotics.ON_CIRCLE_TOL) == on_circle
        assert np.all(depths[on_circle:] > 0.2)
        fold = steady_fold(p, 0.0, 0.05, order)[0]
        assert fold.strip_halfwidth == pytest.approx(rho, abs=1e-7)
        assert fold.nodes == 512


class TestSteadyFold:
    @pytest.mark.parametrize("order", STEP_ORDERS)
    def test_matches_the_window_at_every_width(self, two_controls, three_controls, order):
        # One node pass for all phases serves all 40 widths; measured at
        # most 3.7e-15 from the window's maps.
        for p in (two_controls, three_controls):
            folds = steady_fold(p, 0.0, 0.05, order)
            for s in np.linspace(0.05, 1.5, 40):
                cycle = asymptotic_cycle(p, Spectrum(0.0, s), order)
                for fold, m in zip(folds, cycle.maps, strict=True):
                    assert np.max(np.abs(fold.map_at(s) - m.m)) <= 1e-12

    def test_off_centre_mean_phase(self, three_controls):
        # The coefficients are taken about theta_bar, whatever it is.
        for theta_bar in (0.7, -2.3):
            folds = steady_fold(three_controls, theta_bar, 0.2)
            for s in (0.2, 0.9, 4.0, 50.0):
                cycle = asymptotic_cycle(three_controls, Spectrum(theta_bar, s))
                for fold, m in zip(folds, cycle.maps, strict=True):
                    assert np.max(np.abs(fold.map_at(s) - m.m)) <= 1e-12

    def test_constant_trace_takes_its_nodes_from_the_weights(self):
        # k = 0 steps give a phase-free period map: no root, rho = inf, and
        # N = 2 H* = 2 ceil(sqrt(80) / 0.5) = 36, rounded up to 64.
        p = Protocol([ControlStep(0.3, 0), ControlStep(0.6, 0)])
        folds = steady_fold(p, 0.4, 0.5)
        assert len(folds) == 2
        for K, fold in enumerate(folds):
            assert fold.strip_halfwidth == math.inf
            assert fold.nodes == 64
            assert_allclose(fold.map_at(0.5), asymptotic_map(p, Spectrum(0.4, 0.5), K).m, atol=1e-14)

    @pytest.mark.parametrize("steps", [[(0.5, 3), (0.5, 2), (0.5, 1)], [(0.7, 1), (0.0, 3), (0.7, 1), (0.0, 0)]])
    def test_every_phase_reads_the_strip_of_the_unshifted_period(self, steps):
        # rho comes from P_T of the one chain, whichever phase is folded.
        p = Protocol([ControlStep(eta, k) for eta, k in steps])
        rho = [fold.strip_halfwidth for fold in steady_fold(p, 0.3, 0.5)]
        assert math.isfinite(rho[0])
        assert rho == [rho[0]] * p.period

    def test_domain(self, two_controls):
        for s_min in (0.0, -1.0, math.nan):
            with pytest.raises(DomainError, match="s_min"):
                steady_fold(two_controls, 0.0, s_min)
        with pytest.raises(DomainError, match="theta_bar"):
            steady_fold(two_controls, math.inf, 0.5)

    # Widths whose weights need a harmonic above the fold's H*: read through
    # the truncated row they were 7.4e-7 (s = 0.1) and 1.2e-5 (s -> 0) off
    # asymptotic_map for a fold built at s = 0.4, and 0.18 off at s = 1 for
    # a uniform-limit fold.
    @pytest.mark.parametrize(
        "s_min, s, served",
        [
            (0.4, 0.1, r"harmonic 23: it serves widths s >= 0\.388881, not s = 0\.1"),
            (0.4, 1e-9, "harmonic 23"),
            (0.4, 0.0, "harmonic 23"),
            (0.4, -1.0, "harmonic 23"),
            (0.4, math.nan, "harmonic 23"),
            (50.0, 1.0, "harmonic 0: it serves the uniform limit only, not s = 1.0"),
        ],
    )
    def test_widths_below_the_fold_raise(self, two_controls, s_min, s, served):
        fold = steady_fold(two_controls, 0.0, s_min)[0]
        with pytest.raises(DomainError, match=served):
            fold.map_at(s)

    def test_widths_the_fold_serves(self, two_controls):
        fold = steady_fold(two_controls, 0.0, 0.4)[0]
        for s in (0.39, 0.4, 1.0, 38.6, math.inf):
            assert_allclose(fold.map_at(s), asymptotic_map(two_controls, Spectrum(0.0, s), 0).m, atol=1e-12)
        uniform = steady_fold(two_controls, 0.0, 50.0)[0]
        assert uniform.map_at(UNIFORM_S).tobytes() == uniform.map_at(math.inf).tobytes()

    @pytest.mark.parametrize("steps, sp, rho", CAPPED_CYCLES)
    def test_window_at_its_cap_takes_the_fold(self, steps, sp, rho):
        # Both cycles raised ConvergenceError at the window's 65,536 nodes.
        # Every phase's map is its own fold's; asymptotic_map, one phase of
        # the same cycle, shows it end to end.
        p = Protocol([ControlStep(eta, k) for eta, k in steps])
        cycle = asymptotic_cycle(p, sp, "eq2b")
        for m, fold in zip(cycle.maps, steady_fold(p, sp.theta_bar, sp.s, "eq2b"), strict=True):
            assert fold.strip_halfwidth == pytest.approx(rho, rel=0.01)
            assert fold.guard_delta <= asymptotics.QUAD_TOL
            assert m.m.tobytes() == fold.map_at(sp.s).tobytes()
        assert cycle.maps[0].m.tobytes() == asymptotic_map(p, sp, 0, "eq2b").m.tobytes()

    @pytest.mark.parametrize("steps, sp, rho", CAPPED_CYCLES)
    def test_rescued_maps_hold_on_twice_the_nodes(self, steps, sp, rho, monkeypatch):
        # A fold on twice the nodes, an interleaved grid, agrees.
        p = Protocol([ControlStep(eta, k) for eta, k in steps])
        coarse = steady_fold(p, sp.theta_bar, sp.s, "eq2b")[0]
        monkeypatch.setattr(asymptotics, "FOLD_TOL", asymptotics.FOLD_TOL**2)
        fine = steady_fold(p, sp.theta_bar, sp.s, "eq2b")[0]
        assert fine.nodes == 2 * coarse.nodes
        assert np.max(np.abs(fine.map_at(sp.s) - coarse.map_at(sp.s))) <= 1e-13

    def test_cap_error_names_strip_nodes_and_guard(self, monkeypatch):
        p = Protocol([ControlStep(0.3875, 4), ControlStep(0.3815, 2)])
        monkeypatch.setattr(asymptotics, "QUAD_MAX_NODES", 2**14)
        with pytest.raises(ConvergenceError, match=r"strip half-width 3.05\de-03, N = 16384\) needs 32768 nodes"):
            asymptotic_cycle(p, Spectrum(-0.707, 4.597), "eq2b")

    def test_one_node_pass_serves_every_phase(self, monkeypatch):
        # Phase 1's prefix has degree 4, so the period's N is 16: both
        # phases fold on it from one pass of 32 nodes, and a failed guard
        # names that N after that one pass.
        p = Protocol([ControlStep(0.5, 4), ControlStep(0.5, 0)])
        passes = []
        node_blocks = asymptotics._node_blocks

        def counted(theta, pairs):
            passes.append(len(theta))
            return node_blocks(theta, pairs)

        monkeypatch.setattr(asymptotics, "_node_blocks", counted)
        assert [fold.nodes for fold in steady_fold(p, 0.3, 10.0, "eq2b")] == [16, 16]
        assert passes == [32]
        passes.clear()
        monkeypatch.setattr(asymptotics, "QUAD_TOL", -1.0)
        with pytest.raises(ConvergenceError, match=r"N = 16\) has guard delta"):
            steady_fold(p, 0.3, 10.0, "eq2b")
        assert passes == [32]

    def test_failed_guard_raises(self, two_controls, calibrated_spectrum, monkeypatch):
        # Nothing meets a zero tolerance: the window hands phase 0 to its
        # fold at 2N = 256 nodes, at a Gaussian width and in the uniform
        # limit alike, and the fold's guard, a sum of rounding-level
        # changes, exceeds it.  The call ends there, short of the cap.
        monkeypatch.setattr(asymptotics, "QUAD_TOL", 0.0)
        monkeypatch.setattr(asymptotics, "QUAD_MAX_NODES", 2**10)
        for sp in (calibrated_spectrum, Spectrum(0.0, math.inf)):
            message = (
                rf"did not reach 0.0 by 256 nodes \(period 2, phase 0, s = {re.escape(str(sp.s))}, last change \S+\); "
                r"the one-period fold \(strip half-width 4.415e-01, N = 128\) has guard delta \S+, above 0.0$"
            )
            with pytest.raises(ConvergenceError, match=message):
                asymptotic_map(two_controls, sp, 0)

    @pytest.mark.parametrize("order", STEP_ORDERS)
    def test_uniform_limit_hands_over_at_2n(self, two_controls, order, monkeypatch):
        # At s = inf the window's changes stay above 1e-15 up to the cap, so
        # at that tolerance it never finishes.  The rule of every width
        # hands both phases to their folds (N = 128, guard 1.2e-16) at
        # 2N = 256 nodes, not at the cap.
        refinements = []
        quad_nodes = asymptotics._quad_nodes

        def counted_nodes(sp, n_nodes):
            refinements.append(n_nodes)
            return quad_nodes(sp, n_nodes)

        monkeypatch.setattr(asymptotics, "QUAD_TOL", 1e-15)
        monkeypatch.setattr(asymptotics, "_quad_nodes", counted_nodes)
        cycle = asymptotic_cycle(two_controls, Spectrum(0.7, math.inf), order)
        assert refinements == [64, 128, 256]
        for m, fold in zip(cycle.maps, steady_fold(two_controls, 0.7, math.inf, order), strict=True):
            assert fold.nodes == 128
            assert m.m.tobytes() == fold.map_at(math.inf).tobytes()


# Near-equal-eta period-2 cycles at theta_bar = 0.3 whose strip half-width
# (7.1e-4 and 8.5e-4) asks for a fold of 2N = 131,072 nodes, twice the cap.
SMALL_STRIP_CYCLES = [
    pytest.param([(0.8448432473003343, 3), (0.8460209740061696, 2)], "eq2b", id="eq2b-rho7.1e-4"),
    pytest.param([(0.29496259510545375, 2), (0.29580399870435947, 2)], "eq4a", id="eq4a-rho8.5e-4"),
]


class TestSmallStrip:
    @pytest.mark.xfail(
        strict=True,
        raises=ConvergenceError,
        reason="the window misses 1e-10 at 65,536 nodes, and the fold needs 131,072",
    )
    @pytest.mark.parametrize("s", [1.0, 5.0, 38.5])
    @pytest.mark.parametrize("steps, order", SMALL_STRIP_CYCLES)
    def test_gaussian_width_raises_in_the_domain(self, steps, order, s):
        p = Protocol([ControlStep(eta, k) for eta, k in steps])
        asymptotic_cycle(p, Spectrum(0.3, s), order)

    @pytest.mark.parametrize("steps, order", SMALL_STRIP_CYCLES)
    def test_uniform_limit_converges_in_the_window(self, steps, order, monkeypatch):
        # The window finishes below the cap; a fold on 2N = 131,072 nodes,
        # past the cap, agrees with it (measured 5.0e-14 and 2.4e-15).
        p = Protocol([ControlStep(eta, k) for eta, k in steps])
        cycle = asymptotic_cycle(p, Spectrum(0.3, math.inf), order)
        monkeypatch.setattr(asymptotics, "QUAD_MAX_NODES", 2**18)
        for m, fold in zip(cycle.maps, steady_fold(p, 0.3, math.inf, order), strict=True):
            assert 2 * fold.nodes == 2**17
            assert np.max(np.abs(fold.map_at(math.inf) - m.m)) <= 1e-13


class TestRecordedCycles:
    # The benchmark's comparison of library results: every value within 1e-9.
    @pytest.mark.parametrize(
        "op", recorded_ops("steady_sweep", lambda op: op["kind"] == "cycle"), ids=lambda op: op["id"]
    )
    def test_steady_sweep_cycle(self, op):
        p = Protocol([ControlStep(float(eta), int(k)) for k, eta in op["steps"]])
        cycle = asymptotic_cycle(p, Spectrum(op["theta_bar"], op["s"]), op["order"])
        expect = op["expect"]
        assert_allclose([m.m for m in cycle.maps], expect["maps"], rtol=0.0, atol=1e-9)
        assert_allclose(cycle.y_eigenvalues, expect["y_eigenvalues"], rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize(
        "op", recorded_ops("steady_sweep", lambda op: op["kind"] == "calibrate"), ids=lambda op: op["id"]
    )
    def test_steady_sweep_calibration(self, op):
        result = cli.calibrate(dataclasses.replace(cli.preset(op["preset"]), order=op["order"]))
        got = [result.s, result.lambda_y, result.max_abs_residual]
        expect = op["expect"]
        assert_allclose(got, [expect["s"], expect["lambda_y"], expect["max_abs_residual"]], rtol=0.0, atol=1e-9)


class TestLimitCycle:
    def test_zero_input(self, two_cycle):
        states = limit_cycle(two_cycle, BlochVector(0, 0, 0))
        assert np.array_equal(states, np.zeros((2, 3)))

    def test_reads_the_cycle_maps(self, three_cycle):
        a0 = BlochVector(0.2, 0.5, -0.4)
        states = limit_cycle(three_cycle, a0)
        assert states.shape == (3, 3)
        assert states.tobytes() == np.array([m.m @ a0.as_array() for m in three_cycle.maps]).tobytes()

    def test_y_polarized_input_is_cycle_fixed_point(self, two_cycle):
        ey = BlochVector(0, 1, 0)
        points = [m.apply(ey) for m in two_cycle.maps]
        for a in points:
            assert abs(a.ax) < 1e-12 and abs(a.az) < 1e-12
            assert a.ay == pytest.approx(0.114589, abs=2e-3)
        assert points[0].ay == pytest.approx(points[1].ay, abs=1e-9)

    def test_three_control_norm_ordering(self, three_cycle):
        a = BlochVector(1 / math.sqrt(2), 0, 1 / math.sqrt(2))
        norms = np.linalg.norm(limit_cycle(three_cycle, a), axis=1)
        assert norms[1] < norms[0] < norms[2]


def profile_of(p, sp, a0, K, m_max):
    """Convergence profile of a0 at phase K over m = 0..m_max periods."""
    return convergence_profile(asymptotic_cycle(p, sp), propagate(p, sp, m_max * p.period + K, a0), K)


class TestConvergenceProfile:
    def test_unitary_dynamics_does_not_converge(self, two_controls):
        profile = profile_of(two_controls, Spectrum(0.0, 0.0), BlochVector(0, 0, 1), 0, 20)
        assert len(profile.distances) == 21
        assert not profile.converged
        assert profile.distances[-1] > 0.1

    def test_two_control_transient(self, two_controls, calibrated_spectrum):
        profile = profile_of(two_controls, calibrated_spectrum, BlochVector(0, 0, 1), 0, 25)
        assert len(profile.distances) == 26
        assert profile.converged
        assert all(d < 0.01 for d in profile.distances[15:])

    def test_sign_flip_invariance(self, three_controls, calibrated_spectrum):
        a0 = BlochVector(0.2, 0.5, -0.4)
        up = profile_of(three_controls, calibrated_spectrum, a0, 1, 10)
        down = profile_of(three_controls, calibrated_spectrum, -a0, 1, 10)
        assert len(up.distances) == len(down.distances) == 11
        assert_allclose(up.distances, down.distances, atol=1e-14)

    @pytest.mark.parametrize("order", STEP_ORDERS)
    def test_distances_from_each_phase_map(self, three_controls, calibrated_spectrum, order):
        # The profile reads the computed cycle: the bits of asymptotic_map at
        # each phase, and the norm of each trajectory point's difference.
        a0 = BlochVector(0.2, 0.5, -0.4)
        cycle = asymptotic_cycle(three_controls, calibrated_spectrum, order)
        traj = propagate(three_controls, calibrated_spectrum, 20, a0, order)
        for K in range(3):
            target = asymptotic_map(three_controls, calibrated_spectrum, K, order).apply(a0).as_array()
            expected = np.array([np.linalg.norm(a - target) for a in traj[K::3]])
            assert np.array(convergence_profile(cycle, traj, K).distances).tobytes() == expected.tobytes()

    def test_phase_outside_the_period_or_past_the_trajectory(self, three_cycle, three_controls, calibrated_spectrum):
        traj = propagate(three_controls, calibrated_spectrum, 1, BlochVector(0, 0, 1))
        for K in (3, -1):
            with pytest.raises(DomainError, match="outside"):
                convergence_profile(three_cycle, traj, K)
        # Two states reach phase 1 but not phase 2.
        assert len(convergence_profile(three_cycle, traj, 1).distances) == 1
        with pytest.raises(DomainError, match="past"):
            convergence_profile(three_cycle, traj, 2)


class TestRandomProtocolOracle:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_steady_map_matches_moderate_iteration(self, seed):
        # Independent cross-check on arbitrary protocols at honest
        # (slow-convergence) tolerances.
        rng = np.random.default_rng(100 + seed)
        period = int(rng.integers(1, 4))
        steps = [
            ControlStep(eta=float(rng.choice([0.3, 0.5, 0.7])), k=int(rng.integers(1, 5)))
            for _ in range(period)
        ]
        p = Protocol.from_steps(steps)
        sp = Spectrum(0.0, float(rng.choice([0.3, 0.6])))
        for K in range(period):
            target = asymptotic_map(p, sp, K).m
            n = (200 - K) // period * period + K
            got = gaussian_average(protocol_product(p, n), sp).m
            assert np.max(np.abs(got - target)) < 0.1
