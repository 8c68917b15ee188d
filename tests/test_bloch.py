import hashlib
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import roots_hermite

from drivenqubit import (
    BlochMap,
    BlochVector,
    ControlStep,
    DomainError,
    Protocol,
    Spectrum,
    TrigMatrix,
    asymptotic_cycle,
    c_rotation,
    gaussian_average,
    limit_cycle,
    propagate,
    protocol_product,
    quartz_rotation,
    spectrum_from_physical,
    step_matrix,
    trig_compose,
)
from drivenqubit import bloch
from drivenqubit.bloch import averaged_maps

from conftest import CALIBRATED_S, UNIFORM_S, assert_pair_weights_are_exact, exact_turns_off, machin_two_pi


def z_rotation(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def gauss_hermite_average(tm, sp, n):
    """Independent quadrature oracle: GH average of tm(theta)."""
    x, w = roots_hermite(n)
    theta = sp.theta_bar + math.sqrt(2.0) * sp.s * x
    w = w / math.sqrt(math.pi)
    return np.tensordot(w, tm.evaluate(theta), axes=1)


class TestControlRotation:
    def test_half_eta(self):
        assert_allclose(c_rotation(0.5), [[0, 0, 1], [0, -1, 0], [1, 0, 0]], atol=1e-15)

    def test_eta_one_is_z_flip(self):
        assert_allclose(c_rotation(1.0), [[-1, 0, 0], [0, -1, 0], [0, 0, 1]], atol=1e-15)

    def test_eta_zero_is_x_flip(self):
        assert_allclose(c_rotation(0.0), [[1, 0, 0], [0, -1, 0], [0, 0, -1]], atol=1e-15)

    @pytest.mark.parametrize("eta", [0.0, 0.17, 0.3, 0.5, 0.77, 1.0])
    def test_orthogonal_involution(self, eta):
        c = c_rotation(eta)
        assert_allclose(c.T @ c, np.eye(3), atol=1e-14)
        assert np.linalg.det(c) == pytest.approx(1.0, abs=1e-14)
        assert_allclose(c @ c, np.eye(3), atol=1e-14)

    @pytest.mark.parametrize("eta", [-0.1, 1.1, 2.0])
    def test_out_of_range(self, eta):
        with pytest.raises(DomainError):
            c_rotation(eta)


class TestQuartzRotation:
    def test_zero_is_identity(self):
        tm = quartz_rotation(0)
        assert tm.max_harmonic == 0
        assert_allclose(tm.evaluate(1.234), np.eye(3), atol=1e-15)

    def test_value_at_half_pi(self):
        assert_allclose(
            quartz_rotation(2).evaluate(math.pi / 2),
            [[-1, 0, 0], [0, -1, 0], [0, 0, 1]],
            atol=1e-15,
        )

    def test_orthogonal_at_random_phases(self):
        rng = np.random.default_rng(0)
        tm = quartz_rotation(3)
        for theta in rng.uniform(-10, 10, size=100):
            m = tm.evaluate(theta)
            assert_allclose(m.T @ m, np.eye(3), atol=1e-14)

    def test_harmonic_population(self):
        tm = quartz_rotation(3)
        assert tm.harmonics() == [0, 3]
        # Pair layout [(C0, S0), (C1, S1), (C2, S2), (C3, S3)]; harmonics 1
        # and 2 are empty.
        want = np.zeros((4, 2, 3, 3))
        want[0, 0, 2, 2] = 1.0
        want[3, 0] = np.diag([1.0, 1.0, 0.0])
        want[3, 1, 0, 1], want[3, 1, 1, 0] = -1.0, 1.0
        assert np.array_equal(tm.terms, want)
        assert not tm.terms.flags.writeable

    def test_negative_k(self):
        with pytest.raises(DomainError):
            quartz_rotation(-1)


class TestStepMatrix:
    def test_pure_rotation_squares_to_identity(self):
        tm = step_matrix(ControlStep(eta=0.5, k=0))
        twice = trig_compose(tm, tm)
        assert_allclose(twice.evaluate(0.7), np.eye(3), atol=1e-14)

    def test_printed_layout_order(self):
        # The alternative order puts the rotation last, so the top row
        # reads (b cos(k theta), -b sin(k theta), a).
        eta, k = 0.3, 2
        b, a = 1 - 2 * eta, 2 * math.sqrt(eta * (1 - eta))
        tm = step_matrix(ControlStep(eta=eta, k=k), order="eq4a")
        assert tm.max_harmonic == k
        # Entry (0, 0) is b cos(k theta) and entry (0, 2) the constant a:
        # every other (harmonic, cos/sin) slot of the two series is exactly zero.
        assert np.argwhere(tm.terms[..., 0, 0]).tolist() == [[k, 0]]
        assert np.argwhere(tm.terms[..., 0, 2]).tolist() == [[0, 0]]
        assert tm.terms[k, 0, 0, 0] == pytest.approx(b)
        assert tm.terms[0, 0, 0, 2] == pytest.approx(a)

    def test_matches_two_factor_product(self):
        theta = 0.3
        tm = step_matrix(ControlStep(eta=0.5, k=3))
        expected = z_rotation(3 * theta) @ c_rotation(0.5)
        assert_allclose(tm.evaluate(theta), expected, atol=1e-14)

    def test_order_flag_swaps_factors(self):
        theta = -1.1
        step = ControlStep(eta=0.7, k=2)
        after = step_matrix(step, order="eq2b").evaluate(theta)
        before = step_matrix(step, order="eq4a").evaluate(theta)
        assert_allclose(after, z_rotation(2 * theta) @ c_rotation(0.7), atol=1e-14)
        assert_allclose(before, c_rotation(0.7) @ z_rotation(2 * theta), atol=1e-14)

    def test_unknown_order(self):
        with pytest.raises(DomainError):
            step_matrix(ControlStep(eta=0.5, k=1), order="eq5")


class TestTrigCompose:
    def test_identity_is_neutral(self):
        tm = step_matrix(ControlStep(eta=0.3, k=4))
        composed = trig_compose(tm, TrigMatrix.identity())
        assert composed.harmonics() == tm.harmonics()
        for theta in (0.0, 0.4, 2.2):
            assert_allclose(composed.evaluate(theta), tm.evaluate(theta), atol=1e-15)

    def test_homomorphism(self, two_controls):
        rng = np.random.default_rng(1)
        a = protocol_product(two_controls, 3)
        b = protocol_product(two_controls, 5)
        ab = trig_compose(a, b)
        for theta in rng.uniform(-math.pi, math.pi, size=100):
            assert_allclose(
                ab.evaluate(theta), a.evaluate(theta) @ b.evaluate(theta), atol=1e-12
            )

    def test_rotation_angles_add(self):
        composed = trig_compose(quartz_rotation(2), quartz_rotation(3))
        expected = quartz_rotation(5)
        assert composed.harmonics() == expected.harmonics()
        assert np.array_equal(composed.terms, expected.terms)

    def test_max_harmonic_bound(self, three_controls):
        a = protocol_product(three_controls, 4)
        b = protocol_product(three_controls, 7)
        assert trig_compose(a, b).max_harmonic <= a.max_harmonic + b.max_harmonic

    # sha256 of the terms of deep products, in both step orders, read in
    # the interleaved order [C0, C1, S1, ..., CH, SH].  The bitwise property
    # tests draw products of at most 8 steps; these pin the addition order of
    # every coefficient of bands up to 581 terms.
    @pytest.mark.parametrize(
        "steps, n, order, digest",
        [
            ([(1, 0.7), (0, 0.3)], 394, "eq2b", "9558184f1ee1e63f120ae6996ab539c87e81ac29e0ea4e8e809b823861e17dc5"),
            ([(1, 0.7), (0, 0.3)], 394, "eq4a", "1ef954b3ed453a881aa5ab8900b8facd2511c984c812f83317ca9b5ee7f18945"),
            ([(2, 0.5), (4, 0.5), (3, 0.3), (1, 0.0)], 144, "eq2b",
             "e349a5bf10d7e3cee030b46943fc130934fd16aba73c0e63f264c3d87efc0baf"),
            ([(2, 0.5), (4, 0.5), (3, 0.3), (1, 0.0)], 144, "eq4a",
             "68a375e78631fc851b509b1544cd2d90d87aaa17378481a8765aba2b4d0d7bad"),
        ],
        ids=["p2-n394-eq2b", "p2-n394-eq4a", "p4-n144-eq2b", "p4-n144-eq4a"],
    )
    def test_deep_products_keep_their_bytes(self, steps, n, order, digest):
        p = Protocol.from_steps([ControlStep(eta=eta, k=k) for k, eta in steps])
        t = protocol_product(p, n, order).terms
        assert t[0, 1].tobytes() == bytes(72)
        interleaved = np.concatenate([t[:1, 0], t[1:].reshape(-1, 3, 3)])
        assert hashlib.sha256(interleaved.tobytes()).hexdigest() == digest

    def test_peak_memory_is_a_few_bands(self):
        # Two 1,000-harmonic factors: a table of all harmonic pairs would
        # take hundreds of MB, the kernel a few copies of the output band.
        rng = np.random.default_rng(7)
        bands = rng.standard_normal((2, 1001, 2, 3, 3))
        bands[:, 0, 1] = 0.0
        a, b = (TrigMatrix(t) for t in bands)
        trig_compose(TrigMatrix(a.terms[:2]), b)  # numpy's one-off first-call allocations
        tracemalloc.start()
        try:
            out = trig_compose(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.max_harmonic == 2000
        # The output band: its 2 H + 1 blocks that may be nonzero.
        band = out.terms.nbytes - out.terms[0, 1].nbytes
        assert peak < 8 * band

    def test_step_compose_copies_no_band(self):
        # A step against a 1,000-harmonic product holds four bands at its
        # peak: the accumulator, which becomes the product's storage, one
        # band of products for harmonic 0 and two for harmonic 1.  Copying
        # the deep factor's band to read it, or the accumulator to store
        # it, would take a band each.
        rng = np.random.default_rng(7)
        terms = rng.standard_normal((1001, 2, 3, 3))
        terms[0, 1] = 0.0
        deep = TrigMatrix(terms)
        step = step_matrix(ControlStep(eta=0.3, k=1))
        trig_compose(step, TrigMatrix(deep.terms[:2]))  # numpy's one-off first-call allocations
        tracemalloc.start()
        try:
            out = trig_compose(step, deep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.max_harmonic == 1001
        assert peak < 5 * out.terms.nbytes


class TestNodeAverages:
    def test_pair_weights_match_a_direct_cosine_sum(self):
        # From a live harmonic on every node (s = 1e-4) to harmonic 1 alone,
        # its damping subnormal (s = 38.5).
        for s in (1e-4, 0.4, 3.0, 38.5):
            for top in (1, 2, 7, 60, 100, 400):
                assert_pair_weights_are_exact(s, top)

    @pytest.mark.parametrize(
        "extra, s, n",
        [((), CALIBRATED_S, 2000), ((ControlStep(0.5, 4096),), 1.0, 3)],
        ids=["two_controls-2000-steps", "k4096"],
    )
    def test_peak_memory_is_linear_in_the_nodes(self, two_controls, extra, s, n):
        # One grid of N > H_n + L nodes: two buffers of the step products and
        # a few tables of N.  An (n, N) table would take 82 MB for 2,000
        # steps of two_controls (N = 5,097), and cosines for every harmonic
        # up to k = 4,096 (N = 4,141) 136 MB; the trig tables are per
        # distinct k.
        p = Protocol.from_steps(two_controls.steps + extra)
        sp = Spectrum(0.0, s)
        top = bloch._top_harmonic_bound(p, n)
        last = int(np.flatnonzero(bloch._damping(s, top))[-1])
        nodes = (top + last + 1) | 1
        assert nodes > top + last and nodes % 2 == 1
        propagate(p, sp, 2, BlochVector(0.0, 0.0, 1.0))  # numpy's one-off first-call allocations
        tracemalloc.start()
        try:
            traj = propagate(p, sp, n, BlochVector(0.0, 0.0, 1.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traj.shape == (n + 1, 3)
        assert peak < 64 * 8 * nodes


class TestTrigEvaluate:
    def test_unit_harmonic_at_zero(self):
        assert_allclose(quartz_rotation(1).evaluate(0.0), np.eye(3), atol=1e-15)

    def test_determinant_is_one(self):
        rng = np.random.default_rng(2)
        tm = step_matrix(ControlStep(eta=0.5, k=3))
        for theta in rng.uniform(-5, 5, size=20):
            assert np.linalg.det(tm.evaluate(theta)) == pytest.approx(1.0, abs=1e-13)

    def test_fifty_step_product_is_orthogonal(self, two_controls):
        rng = np.random.default_rng(3)
        tm = protocol_product(two_controls, 50)
        for theta in rng.uniform(-math.pi, math.pi, size=10):
            m = tm.evaluate(theta)
            assert np.max(np.abs(m.T @ m - np.eye(3))) < 1e-10


class TestGaussianAverage:
    def test_constant_term_passes_through(self):
        tm = TrigMatrix.constant(c_rotation(0.3))
        for sp in (Spectrum(0.0, 0.0), Spectrum(1.0, 0.7), Spectrum(-2.0, math.inf)):
            assert_allclose(gaussian_average(tm, sp).m, c_rotation(0.3), atol=1e-15)

    def test_uniform_limit_kills_harmonics(self):
        out = gaussian_average(quartz_rotation(3), Spectrum(0.5, math.inf))
        assert_allclose(out.m, np.diag([0.0, 0.0, 1.0]), atol=1e-15)

    def test_single_cosine_moment(self):
        tm = quartz_rotation(1)
        sp = Spectrum(0.0, 0.4)
        got = gaussian_average(tm, sp).m[0, 0]
        assert got == pytest.approx(math.exp(-0.08), abs=1e-15)
        assert got == pytest.approx(0.923116, abs=1e-6)
        quad = gauss_hermite_average(tm, sp, 128)
        assert got == pytest.approx(quad[0, 0], abs=1e-12)

    @pytest.mark.parametrize(
        "n_steps,sp,nodes",
        [
            (4, Spectrum(0.0, 0.4), 256),
            (16, Spectrum(-0.7, 1.0), 2048),
            (60, Spectrum(0.3, 2.0), 32768),  # max harmonic 150
        ],
    )
    def test_matches_gauss_hermite(self, two_controls, n_steps, sp, nodes):
        tm = protocol_product(two_controls, n_steps)
        quad = gauss_hermite_average(tm, sp, nodes)
        assert np.max(np.abs(gaussian_average(tm, sp).m - quad)) < 1e-10

    @pytest.mark.parametrize(
        "n_steps,sp,nodes",
        [(4, Spectrum(0.0, 0.4), 256), (16, Spectrum(-0.7, 1.0), 2048), (9, Spectrum(1.3, 3.0), 4096)],
    )
    def test_trapezoid_rule_matches_gauss_hermite(self, three_controls, n_steps, sp, nodes):
        # The node rule, verify's quadrature, against this module's
        # independent oracle.
        tm = protocol_product(three_controls, n_steps)
        got = averaged_maps(three_controls, sp, n_steps)[-1]
        assert np.max(np.abs(got - gauss_hermite_average(tm, sp, nodes))) < 1e-12

    def test_sharp_spectrum_is_point_evaluation(self, two_controls):
        tm = protocol_product(two_controls, 5)
        sp = Spectrum(0.9, 0.0)
        assert_allclose(gaussian_average(tm, sp).m, tm.evaluate(0.9), atol=1e-14)


class TestProtocolProduct:
    def test_zero_steps_is_identity(self, three_controls):
        tm = protocol_product(three_controls, 0)
        assert tm.max_harmonic == 0
        assert_allclose(tm.evaluate(0.3), np.eye(3), atol=1e-15)

    def test_two_step_harmonic_degree(self, two_controls):
        assert protocol_product(two_controls, 2).max_harmonic == 5

    def test_fifty_steps_end_on_second_unit(self, three_controls):
        # 50 mod 3 = 2, so the 50th unit is the k=2 step.
        full = protocol_product(three_controls, 50)
        last = step_matrix(three_controls.steps[1])
        resumed = trig_compose(last, protocol_product(three_controls, 49))
        for theta in (0.2, 1.5):
            assert_allclose(full.evaluate(theta), resumed.evaluate(theta), atol=1e-11)

    def test_negative_n(self, two_controls):
        with pytest.raises(DomainError):
            protocol_product(two_controls, -1)

    @pytest.mark.parametrize("n", [0, 1, 7])
    def test_composes_through_module_name(self, three_controls, monkeypatch, n):
        # The benchmark's tracer counts composes and term pairs by replacing
        # bloch.trig_compose, so every compose of the chain must look it up.
        protocol_product(three_controls, three_controls.period)  # warm the step cache
        pairs = []

        def counting(a, b, compose=bloch.trig_compose):
            pairs.append(len(a.harmonics()) * len(b.harmonics()))
            return compose(a, b)

        monkeypatch.setattr(bloch, "trig_compose", counting)
        protocol_product(three_controls, n)
        assert len(pairs) == n
        assert all(pairs)


class TestPropagate:
    def test_zero_vector_stays_zero(self, two_controls, calibrated_spectrum):
        traj = propagate(two_controls, calibrated_spectrum, 8, BlochVector(0, 0, 0))
        assert np.array_equal(traj, np.zeros((9, 3)))

    def test_linearity_under_sign_flip(self, three_controls, calibrated_spectrum):
        a0 = BlochVector(0.3, -0.2, 0.5)
        plus = propagate(three_controls, calibrated_spectrum, 12, a0)
        minus = propagate(three_controls, calibrated_spectrum, 12, -a0)
        assert plus.shape == minus.shape == (13, 3)
        assert_allclose(plus, -minus, atol=1e-15)

    def test_tail_alternates_between_cycle_points(self, two_controls, calibrated_spectrum):
        a0 = BlochVector(0, 0, 1)
        traj = propagate(two_controls, calibrated_spectrum, 50, a0)
        cycle = limit_cycle(asymptotic_cycle(two_controls, calibrated_spectrum), a0)
        for n in range(40, 51):
            dist = np.linalg.norm(traj[n] - cycle[n % 2])
            assert dist < 5e-3
        # The two visited points are genuinely distinct.
        gap = np.linalg.norm(cycle[0] - cycle[1])
        assert gap > 0.2

    def test_zero_steps(self, two_controls, calibrated_spectrum):
        a0 = BlochVector(0.3, -0.2, 0.5)
        assert averaged_maps(two_controls, calibrated_spectrum, 0).shape == (0, 3, 3)
        traj = propagate(two_controls, calibrated_spectrum, 0, a0)
        assert traj.shape == (1, 3)
        assert traj.tobytes() == a0.as_array().tobytes()
        assert not traj.flags.writeable

    @pytest.mark.parametrize("s", [1e200, 1e308])
    def test_huge_width_is_uniform_limit(self, three_controls, s):
        # (h s)^2 would overflow past s = 1.3e154; every harmonic is damped
        # to 0.0 as in the uniform limit.
        a0 = BlochVector(0.3, -0.2, 0.5)
        got = propagate(three_controls, Spectrum(0.7, s), 9, a0)
        want = propagate(three_controls, Spectrum(0.7, math.inf), 9, a0)
        assert got.shape == want.shape == (10, 3)
        assert got.tobytes() == want.tobytes()

    def test_stacked_guard_names_first_expanding_step(self, monkeypatch):
        # Step 1 has k = 0, so map 1 is a rotation whatever the damping;
        # amplified harmonics make a later map expand.
        p = Protocol.from_steps([ControlStep(0.5, 0), ControlStep(0.3, 1)])
        sp = Spectrum(0.4, 0.5)
        assert averaged_maps(p, sp, 6).shape == (6, 3, 3)
        monkeypatch.setattr(bloch, "_damping", lambda s, top: np.array([1.0] + [3.0] * top))
        with pytest.raises(DomainError, match=r"of map 2 exceeds 1"):
            averaged_maps(p, sp, 6)


class TestSpectrumFromPhysical:
    def test_benchmark_filter_width(self):
        sp = spectrum_from_physical(800.0, 3.0, 40.0)
        assert sp.theta_bar == 0.0
        assert sp.s == pytest.approx(0.400233469, abs=1e-9)

    def test_integer_multiples_have_zero_mean_phase(self):
        assert spectrum_from_physical(800.0, 3.0, 120.0).theta_bar == 0.0
        sp = spectrum_from_physical(800.0, 3.0, 40.25)
        assert sp.theta_bar == pytest.approx(math.pi / 2, abs=1e-12)

    def test_narrow_filter_is_unitary_limit(self):
        assert spectrum_from_physical(800.0, 1e-9, 40.0).s < 1e-9

    @pytest.mark.parametrize("args", [(0, 3, 40), (800, -1, 40), (800, 3, 0)])
    def test_rejects_non_positive(self, args):
        with pytest.raises(DomainError):
            spectrum_from_physical(*args)


class TestMemoryEffect:
    def test_average_of_product_is_not_product_of_averages(
        self, two_controls, calibrated_spectrum
    ):
        whole = gaussian_average(protocol_product(two_controls, 2), calibrated_spectrum).m
        first = gaussian_average(step_matrix(two_controls.steps[0]), calibrated_spectrum).m
        second = gaussian_average(step_matrix(two_controls.steps[1]), calibrated_spectrum).m
        assert np.max(np.abs(whole - second @ first)) > 1e-3

    def test_uniform_truncation_commutes_per_step_only(self, two_controls):
        uniform = Spectrum(0.0, math.inf)
        a = step_matrix(two_controls.steps[0])
        # Per step: dropping h >= 1 before averaging changes nothing.
        truncated = TrigMatrix.constant(a.terms[0, 0])
        assert_allclose(
            gaussian_average(a, uniform).m, gaussian_average(truncated, uniform).m, atol=1e-15
        )
        # Across steps with a shared harmonic it matters: the (h, h) cross
        # terms of the product feed back into harmonic 0.
        product_then_average = gaussian_average(trig_compose(a, a), uniform).m
        average_then_product = a.terms[0, 0] @ a.terms[0, 0]
        assert np.max(np.abs(product_then_average - average_then_product)) > 1e-3


class TestDomainTypes:
    def test_bloch_vector_purity_bound(self):
        BlochVector(0.6, 0.0, 0.8)
        with pytest.raises(DomainError):
            BlochVector(1.0, 0.1, 0.0)

    def test_spectrum_width_bound(self):
        Spectrum(0.0, math.inf)
        with pytest.raises(DomainError):
            Spectrum(0.0, -0.1)

    def test_uniform_limit_starts_where_harmonic_1_underflows(self):
        assert not Spectrum(0.0, np.nextafter(UNIFORM_S, 0.0)).is_uniform
        for s in (UNIFORM_S, 1e308, math.inf):
            assert Spectrum(0.0, s).is_uniform
        ulps = UNIFORM_S + np.spacing(UNIFORM_S) * np.arange(-50, 51)
        for s in np.concatenate([np.linspace(38.0, 39.0, 1001), ulps]):
            damped = math.exp(-0.5 * s * s) == 0.0
            assert Spectrum(0.0, s).is_uniform == (bloch._damping(s, 1)[1] == 0.0) == damped

    def test_spectrum_mean_phase_bound(self):
        # From 2^52 on one ulp of theta_bar is at least 1 rad.  Below it the
        # mean phase is kept reduced by whole turns toward zero: 2^52 - 1 is
        # 716,770,142,402,832 turns and 1.0778 rad, to the bit.
        assert Spectrum(-(2.0**52 - 1.0), 0.4).theta_bar == -1.07777121530127
        for theta_bar in (2.0**52, -(2.0**52), 1e308, math.inf, math.nan):
            with pytest.raises(DomainError, match="theta_bar"):
                Spectrum(theta_bar, 0.4)

    def test_mean_phase_reduction(self):
        # Every theta_bar with |theta_bar| < fl(2 pi) is stored as given,
        # -0.0 included, so no pinned or recorded input moves.
        rng = np.random.default_rng(20261020)
        fl_two_pi = 2.0 * math.pi
        edges = [0.0, -0.0, 5e-324, -5e-324, math.pi, np.nextafter(fl_two_pi, 0.0), -np.nextafter(fl_two_pi, 0.0)]
        for theta_bar in [*edges, *rng.uniform(-fl_two_pi, fl_two_pi, 2000)]:
            assert Spectrum(float(theta_bar), 0.4).theta_bar.hex() == float(theta_bar).hex()
        # Larger ones lose whole turns toward zero.  Against whole turns of a
        # rational 2 pi, modulo 2 pi, the result is within one ulp of
        # itself, counted at no less than 0.25, where the rounding of the
        # turns' share of 2 pi - fl(2 pi) (up to 1.4e-17) takes over from
        # the result's own.  Reducing again keeps the bits.
        two_pi = machin_two_pi()
        draws = np.ldexp(rng.uniform(1.0, 2.0, 2000), rng.integers(0, 52, 2000)) * rng.choice([-1.0, 1.0], 2000)
        edges = [fl_two_pi, -fl_two_pi, 2.0**52 - 1.0, -(2.0**52 - 1.0), 2.0**20 + 0.3, 2.0**51 + 0.3]
        for theta_bar in [*edges, *draws.tolist()]:
            reduced = Spectrum(theta_bar, 0.4).theta_bar
            assert abs(reduced) < fl_two_pi
            assert Spectrum(reduced, 0.4).theta_bar.hex() == reduced.hex()
            offset = (Fraction(reduced) - exact_turns_off(theta_bar, two_pi)) / two_pi
            error = abs((offset - round(offset)) * two_pi)
            assert error <= math.ulp(max(abs(reduced), 0.25))

    def test_control_step_normalises_its_fields(self):
        # A whole float or numpy k is stored as an int, eta as a float.
        for eta, k in ((0.5, 2.0), (np.float64(0.5), np.int64(2)), (np.float32(0.5), np.float64(2.0))):
            step = ControlStep(eta, k)
            assert (type(step.eta), type(step.k)) == (float, int)
            assert step == ControlStep(0.5, 2) and hash(step) == hash(ControlStep(0.5, 2))

    def test_float_or_numpy_k_averages_as_int_k(self):
        # The averaged maps of a float-k or np.int64-k protocol are those of
        # the int-k one, to the bit, at every kind of width.
        int_k = Protocol([ControlStep(0.5, 3), ControlStep(0.25, 2)])
        for k in (3.0, np.int64(3)):
            p = Protocol([ControlStep(0.5, k), ControlStep(0.25, 2)])
            for s in (0.0, 0.4, math.inf):
                sp = Spectrum(0.3, s)
                assert averaged_maps(p, sp, 13).tobytes() == averaged_maps(int_k, sp, 13).tobytes()

    def test_control_step_ranges(self):
        with pytest.raises(DomainError):
            ControlStep(eta=1.2, k=1)
        with pytest.raises(DomainError):
            ControlStep(eta=0.5, k=-2)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 2.5, -1], ids=["nan", "inf", "-inf", "2.5", "-1"])
    @pytest.mark.parametrize(
        "call",
        [
            lambda x: ControlStep(0.5, x),
            quartz_rotation,
            lambda x: protocol_product(Protocol([ControlStep(0.5, 1)]), x),
            lambda x: averaged_maps(Protocol([ControlStep(0.5, 1)]), Spectrum(0.0, 0.4), x),
        ],
        ids=["control-step", "quartz-rotation", "protocol-product", "averaged-maps"],
    )
    def test_bad_whole_numbers_are_named(self, call, value):
        # NaN and +-inf included: the range is compared before any int().
        # propagate and pair_distances take n through averaged_maps.
        with pytest.raises(DomainError, match=rf"^[kn] must be (a non-negative integer|an integer in \[0, 1048576\]), got {value}$"):
            call(value)

    def test_protocol_needs_steps(self):
        with pytest.raises(DomainError):
            Protocol.from_steps([])

    def test_protocol_from_list_is_immutable(self):
        steps = [ControlStep(0.5, 1)]
        p = Protocol(steps)
        steps.append(ControlStep(0.5, 2))
        assert p.steps == (ControlStep(0.5, 1),)
        assert p == Protocol.from_steps([ControlStep(0.5, 1)])
        assert hash(p) == hash(Protocol.from_steps([ControlStep(0.5, 1)]))

    def test_trig_matrix_rejects_zero_harmonic_sine(self):
        # sin(0 theta) = 0, so a nonzero S_0 has no meaning.
        terms = np.zeros((2, 2, 3, 3))
        terms[1, 0] = np.eye(3)
        assert TrigMatrix(terms).max_harmonic == 1
        for value in (1.0, -5e-324, math.nan):
            terms[0, 1, 2, 0] = value
            with pytest.raises(DomainError, match="S_0"):
                TrigMatrix(terms)
        terms[0, 1, 2, 0] = -0.0
        assert TrigMatrix(terms).max_harmonic == 1

    def test_trig_matrix_takes_only_the_pair_layout(self):
        assert TrigMatrix(np.zeros((1, 2, 3, 3))).harmonics() == []
        assert TrigMatrix(np.zeros((5, 2, 3, 3))).terms.shape == (1, 2, 3, 3)
        # The interleaved stack [C0, C1, S1], a bare matrix, wrong trailing
        # shapes and an empty stack.
        for shape in ((3, 3, 3), (3, 3), (2, 3, 3, 3), (2, 2, 3, 2), (2, 2, 9), (1, 1, 2, 3, 3), (0, 2, 3, 3)):
            with pytest.raises(DomainError, match="shape"):
                TrigMatrix(np.zeros(shape))
        with pytest.raises(DomainError, match="shape"):
            TrigMatrix.constant(np.eye(2))

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: Protocol([ControlStep(0.5, 1), (0.5, 2)]), r"protocol step 1 must be a ControlStep, got \(0.5, 2\)"),
            (lambda: BlochMap(np.zeros((3, 2))), r"Bloch map must be 3x3, got shape \(3, 2\)"),
            (
                lambda: averaged_maps(Protocol([ControlStep(0.5, 1)]), Spectrum(0.0, 0.4), -1),
                "n must be a non-negative integer, got -1",
            ),
            (
                lambda: averaged_maps(Protocol([ControlStep(0.5, 1)]), Spectrum(0.0, 0.4), 2, "eq3"),
                r"order must be one of \('eq2b', 'eq4a'\), got 'eq3'",
            ),
        ],
        ids=["protocol-step-type", "bloch-map-shape", "averaged-maps-negative-n", "averaged-maps-unknown-order"],
    )
    def test_malformed_input_is_named(self, call, message):
        with pytest.raises(DomainError, match=message):
            call()

    def test_bloch_map_rejects_expansion(self):
        with pytest.raises(DomainError):
            BlochMap(1.5 * np.eye(3))
