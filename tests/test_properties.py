"""Property suite for the harmonic-series core, the steady maps and the
visibility maximum over random protocols.

Protocols have periods 1-5, rotation parameters that include the edges
eta = 0 and eta = 1, phase multipliers that include k = 0, and both step
orders.  The examples are drawn by the deterministic profile registered in
conftest.py, so every run checks the same cases.
"""

import functools
import hashlib
import itertools
import math
import re

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from drivenqubit import (
    STEP_ORDERS,
    AsymptoticCycle,
    BlochMap,
    BlochVector,
    ControlStep,
    ConvergenceError,
    Protocol,
    Spectrum,
    SphereAngles,
    StatePair,
    TrigMatrix,
    asymptotic_blp_rate,
    asymptotic_cycle,
    asymptotic_map,
    c_rotation,
    gaussian_average,
    maximize_visibility,
    optimal_pair_search,
    pair_distances,
    product_chain,
    propagate,
    protocol_product,
    step_matrix,
    trace_distance,
    trig_compose,
)
from drivenqubit import asymptotics, bloch, cli, nonmarkov, visibility
from drivenqubit.bloch import averaged_maps

from conftest import (
    CALIBRATED_S,
    UNIFORM_S,
    assert_pair_weights_are_exact,
    random_ball_point,
    random_contraction,
    recorded_ops,
)


def protocols_with(etas, min_period=1):
    steps = st.builds(ControlStep, eta=etas, k=st.integers(0, 4))
    return st.lists(steps, min_size=min_period, max_size=5).map(Protocol.from_steps)


edge_etas = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
protocols = protocols_with(edge_etas)
# eta in {0, 1/2, 1} gives rotation entries in {-1, 0, 1}, so products of up
# to 12 steps are exact dyadic rationals: a coefficient is either exactly 0
# or at least 2^-12, and a DFT of the values reads the degree without doubt.
exact_protocols = protocols_with(st.sampled_from([0.0, 0.5, 1.0]))
orders = st.sampled_from(STEP_ORDERS)
depths = st.integers(0, 12)
phases = st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=8).map(np.array)
spectra = st.builds(
    Spectrum,
    theta_bar=st.floats(-math.pi, math.pi),
    s=st.one_of(st.sampled_from([0.0, math.inf]), st.floats(0.0, 5.0)),
)


def true_degree(tm) -> int:
    """Highest harmonic of tm(theta) read off a DFT of its sampled values."""
    n = 2 * tm.max_harmonic + 2
    values = tm.evaluate(2.0 * math.pi * np.arange(n) / n)
    spectrum = np.abs(np.fft.rfft(values, axis=0)).reshape(n // 2 + 1, 9).max(axis=1) / n
    return int(np.flatnonzero(spectrum > 1e-9)[-1])


def pairwise_compose(a, b):
    """Reference product: each harmonic pair (h, g) of a and b in turn adds
    its product-to-sum parts at |h - g| and h + g."""
    ca = list(a.terms[:, 0])
    sa = [np.zeros((3, 3))] + list(a.terms[1:, 1])
    cb = list(b.terms[:, 0])
    sb = [np.zeros((3, 3))] + list(b.terms[1:, 1])
    top = a.max_harmonic + b.max_harmonic
    cos = np.zeros((top + 1, 3, 3))
    sin = np.zeros((top + 1, 3, 3))
    for h in a.harmonics():
        for g in b.harmonics():
            lo, hi, sgn = abs(h - g), h + g, np.sign(h - g)
            cc, ss = 0.5 * (ca[h] @ cb[g]), 0.5 * (sa[h] @ sb[g])
            sc, cs = 0.5 * (sa[h] @ cb[g]), 0.5 * (ca[h] @ sb[g])
            cos[lo] += cc
            cos[hi] += cc
            cos[lo] += ss
            cos[hi] -= ss
            sin[hi] += sc
            sin[lo] += sgn * sc
            sin[hi] += cs
            sin[lo] -= sgn * cs
    sin[0] = 0.0
    return TrigMatrix(np.stack([cos, sin], axis=1))


@given(protocols, orders, st.integers(0, 8), st.integers(0, 8))
def test_compose_replays_pairs_bitwise(p, order, n1, n2):
    a = protocol_product(p, n1, order)
    b = protocol_product(p, n2, order)
    step = step_matrix(p.steps[-1], order)
    for x, y in ((a, b), (b, a), (step, a), (a, step)):
        assert np.array_equal(trig_compose(x, y).terms, pairwise_compose(x, y).terms)


@pytest.mark.parametrize("order", STEP_ORDERS)
@pytest.mark.parametrize("k", range(5))
def test_compose_replays_pairs_bitwise_deep(k, order):
    # A step against a 150-step product, up to 525 harmonics wide.
    p = Protocol.from_steps([ControlStep(0.3, k), ControlStep(0.7, 3)])
    deep = protocol_product(p, 150, order)
    step = step_matrix(p.steps[0], order)
    for x, y in ((step, deep), (deep, step)):
        assert np.array_equal(trig_compose(x, y).terms, pairwise_compose(x, y).terms)


@pytest.mark.parametrize("order", STEP_ORDERS)
@pytest.mark.parametrize(
    "steps, n1, n2",
    [
        ([(0.5, 3), (0.5, 2)], 2, 1),
        ([(0.5, 3), (0.5, 2), (0.5, 1)], 3, 1),
        ([(0.2, 4), (1.0, 1), (0.0, 3), (0.6, 0), (0.9, 2)], 5, 2),
        ([(0.2, 4), (1.0, 1), (0.0, 3), (0.6, 0), (0.9, 2)], 60, 30),
    ],
    ids=["two-period-half", "three-period-half", "five-period-half", "five-60x30"],
)
def test_compose_replays_pairs_bitwise_wide(steps, n1, n2, order):
    # verify's period x half shape (P_T against P_max(1, T//2)), and a deeper one.
    p = Protocol.from_steps([ControlStep(eta, k) for eta, k in steps])
    a, b = protocol_product(p, n1, order), protocol_product(p, n2, order)
    for x, y in ((a, b), (b, a)):
        assert np.array_equal(trig_compose(x, y).terms, pairwise_compose(x, y).terms)


def assert_compose_replays_pairs_bytewise(x, y):
    got = trig_compose(x, y).terms
    assert got.tobytes() == pairwise_compose(x, y).terms.tobytes()
    # Every sum starts at +0.0, so no coefficient is -0.0.
    assert not np.signbit(got[got == 0.0]).any()


@pytest.mark.parametrize("order", STEP_ORDERS)
def test_constant_first_factor_replays_pairs_bytewise(order):
    # Harmonic 0 alone takes the pair-run path; -0.0 and subnormal entries
    # among the constants.
    rng = np.random.default_rng(11)
    signed = rng.standard_normal((3, 3))
    signed[0, 1], signed[2, 0], signed[1, 2] = -0.0, 5e-324, -5e-324
    p = Protocol.from_steps([ControlStep(0.3, 2), ControlStep(0.5, 3)])
    deep = protocol_product(p, 20, order)
    constants = [TrigMatrix.constant(m) for m in (signed, np.zeros((3, 3)), -np.eye(3))]
    constants.append(step_matrix(ControlStep(0.5, 0), order))
    for c in constants:
        assert c.max_harmonic == 0
        for y in (deep, step_matrix(p.steps[1], order), constants[0], c):
            assert_compose_replays_pairs_bytewise(c, y)


@pytest.mark.parametrize("order", STEP_ORDERS)
def test_signed_zero_and_subnormal_chains_replay_pairs_bytewise(order):
    # eta = 5e-324 gives a = 4.4e-162, whose squares are subnormal; eta =
    # 1 - 2^-53 gives b = -1 + 2^-52.  A composed series holds no -0.0, but
    # the bare rotation of eta = 1/2 does (-b = -0.0).
    p = Protocol.from_steps([ControlStep(5e-324, 2), ControlStep(0.5, 0), ControlStep(1.0 - 2.0**-53, 3)])
    rotations = [TrigMatrix.constant(c_rotation(s.eta)) for s in p.steps]
    assert np.signbit(rotations[1].terms[0, 0, 2, 2]) and rotations[1].terms[0, 0, 2, 2] == 0.0
    subnormal = False
    for n, tm in enumerate(itertools.islice(product_chain(p, order), 41)):
        subnormal |= bool(((tm.terms != 0.0) & (np.abs(tm.terms) < np.finfo(float).tiny)).any())
        for factor in (step_matrix(p.step(n), order), rotations[n % p.period]):
            assert_compose_replays_pairs_bytewise(factor, tm)
            assert_compose_replays_pairs_bytewise(tm, factor)
    assert subnormal


@given(protocols, orders, st.integers(0, 300))
def test_top_harmonic_bound_is_the_step_sum(p, order, n):
    loop = sum(step_matrix(p.step(i), order).max_harmonic for i in range(n))
    assert bloch._top_harmonic_bound(p, n) == loop


@given(protocols, orders, st.integers(0, 8), st.integers(0, 8), phases)
def test_compose_evaluate_homomorphism(p, order, n1, n2, thetas):
    a = protocol_product(p, n1, order)
    b = protocol_product(p, n2, order)
    step = step_matrix(p.steps[0], order)
    for x, y in ((a, b), (b, a), (step, a), (a, step)):
        want = x.evaluate(thetas) @ y.evaluate(thetas)
        assert np.max(np.abs(trig_compose(x, y).evaluate(thetas) - want)) < 1e-12


def compose_loop(steps, order):
    """Reference product: from the identity, compose each step's matrix in turn."""
    out = TrigMatrix.identity()
    for step in steps:
        out = trig_compose(step_matrix(step, order), out)
    return out


@given(protocols, orders, depths)
def test_products_match_step_loop_bitwise(p, order, n):
    chain = list(itertools.islice(product_chain(p, order), n + 1))
    for m, tm in enumerate(chain):
        want = compose_loop([p.step(i) for i in range(m)], order).terms.tobytes()
        assert tm.terms.tobytes() == want
    assert protocol_product(p, n, order).terms.tobytes() == chain[-1].terms.tobytes()


ball_points = st.tuples(*[st.floats(-1.0, 1.0)] * 3).map(
    lambda v: BlochVector.from_array(np.array(v) / max(1.0, float(np.linalg.norm(v))))
)
state_pairs = st.one_of(
    ball_points.map(StatePair.antipodal), st.builds(StatePair, ball_points, ball_points)
)


def trajectory_reference(p, sp, n, a0, order):
    """Reference trajectory (n + 1, 3): a running product, averaged afresh at every step."""
    out, running = [a0.as_array()], TrigMatrix.identity()
    for i in range(n):
        running = trig_compose(step_matrix(p.step(i), order), running)
        out.append(gaussian_average(running, sp).m @ a0.as_array())
    return np.array(out)


@given(protocols, orders, depths, spectra, state_pairs)
def test_pair_distances_match_two_trajectories_bitwise(p, order, n, sp, pair):
    plus, minus = (propagate(p, sp, n, a, order) for a in (pair.a_plus, pair.a_minus))
    want = trajectory_reference(p, sp, n, pair.a_plus, order)
    assert plus.shape == want.shape == (n + 1, 3)
    assert np.max(np.abs(plus - want)) <= 1e-12
    if sp.is_uniform:
        assert plus.tobytes() == propagate(p, Spectrum(0.0, sp.s), n, pair.a_plus, order).tobytes()
    want = np.array([trace_distance(BlochVector.from_array(a), BlochVector.from_array(b)) for a, b in zip(plus, minus)])
    assert pair_distances(p, sp, pair, n, order).tobytes() == want.tobytes()


@given(protocols, orders, depths, phases)
def test_products_stay_special_orthogonal(p, order, n, thetas):
    m = protocol_product(p, n, order).evaluate(thetas)
    assert np.max(np.abs(np.swapaxes(m, -1, -2) @ m - np.eye(3))) < 1e-12
    assert np.max(np.abs(np.linalg.det(m) - 1.0)) < 1e-12


@given(protocols, orders, depths, spectra)
def test_averaged_maps_are_unital_contractions(p, order, n, sp):
    bm = gaussian_average(protocol_product(p, n, order), sp)
    assert np.array_equal(bm.apply(BlochVector(0.0, 0.0, 0.0)).as_array(), np.zeros(3))
    assert np.max(bm.singular_values()) <= 1.0 + 1e-12


F_ODD = (np.array([0, 1, 1, 2]), np.array([1, 0, 2, 1]))


def refuse_compose(a, b):
    raise AssertionError("averaged_maps composed a band")


def assert_maps_match_own_averages(p, sp, n, order):
    """``averaged_maps``, with no compose, against the band average of each
    product to 1e-12, with the band's symmetry zeros: at theta_bar = 0 the
    F-odd entries xy, yx, yz and zy are +0.0 in both.  In the uniform limit
    the grid is anchored at 0, so the stack has the bits of the
    theta_bar = 0 stack and those +0.0 at every theta_bar.  Other exact
    zeros of the band, such as the entries of C_h that a damping of 0.0
    leaves alone, node sums meet only to rounding."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bloch, "trig_compose", refuse_compose)
        stack = averaged_maps(p, sp, n, order)
    assert stack.shape == (n, 3, 3) and not stack.flags.writeable
    chain = itertools.islice(product_chain(p, order), 1, n + 1)
    want = np.array([gaussian_average(tm, sp).m for tm in chain]).reshape(n, 3, 3)
    assert np.max(np.abs(stack - want), initial=0.0) <= 1e-12
    if sp.is_uniform:
        assert stack.tobytes() == averaged_maps(p, Spectrum(0.0, sp.s), n, order).tobytes()
    if sp.theta_bar == 0.0 or sp.is_uniform:
        for maps in (stack, want):
            odd = maps[:, F_ODD[0], F_ODD[1]]
            assert not np.any(odd) and not np.any(np.signbit(odd))


@given(protocols, orders, depths, spectra)
def test_averaged_maps_match_own_average(p, order, n, sp):
    assert_maps_match_own_averages(p, sp, n, order)


# The cut-off h s = 38.7 falls between harmonics h - 1 and h.
cut_off_widths = st.tuples(st.floats(38.6, 38.8), st.integers(2, 400)).map(lambda t: t[0] / t[1])
damping_widths = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-310, math.inf]),
    st.floats(math.log(1e-4), math.log(300.0)).map(math.exp),
    st.floats(38.6, 38.8),
    cut_off_widths,
)


@settings(max_examples=400)
@given(damping_widths, st.integers(0, 400))
def test_damping_cut_off_matches_every_exponential(s, top):
    # Past h s = 38.7 every term rounds to 0.0, so skipping its exponential
    # (and the overflow clamp at 40) changes no bit.
    want = np.array([1.0] + [math.exp(-0.5 * min(h * s, 40.0) ** 2) for h in range(1, top + 1)])
    assert bloch._damping(s, top).tobytes() == want.tobytes()


@given(cut_off_widths, st.integers(1, 400))
def test_pair_weights_are_exact_at_the_damping_cut_off(s, top):
    assert_pair_weights_are_exact(s, top)


deep_protocols = st.lists(st.builds(ControlStep, eta=edge_etas, k=st.integers(0, 8)), min_size=1, max_size=5).map(
    Protocol.from_steps
)
node_spectra = st.builds(
    Spectrum,
    theta_bar=st.one_of(st.just(0.0), st.floats(-math.pi, math.pi)),
    s=st.one_of(
        st.sampled_from([0.0, 5e-324, math.inf]),
        st.floats(math.log(1e-4), math.log(38.5)).map(math.exp),
        cut_off_widths,
    ),
)


def deep_case(steps, theta_bar, s, n, order):
    return example(Protocol.from_steps(ControlStep(eta, k) for eta, k in steps), order, n, Spectrum(theta_bar, s))


# Full depth at s = 1e-4, where every harmonic of the products (up to 3,000)
# is live and the grid holds 6,003 nodes; and one harmonic per step, up to
# 3,200, at a sharp theta_bar near -pi.  There the band's cos(h theta_bar) takes
# h theta_bar past 8,192, rounded to 1.8e-12: at step 331 the band is off
# the exact map by 8.4e-13, the node product by 4e-15.  In the uniform limit
# the 2,669 nodes carry weight 1/N each and the band keeps only C_0.
@deep_case([(0.3, 8), (0.8, 7)], 0.0, 1e-4, 400, "eq4a")
@deep_case([(0.3, 8), (0.8, 7), (0.55, 5)], -2.7, 1e-4, 400, "eq2b")
@deep_case([(1.0, 8)], -3.1, 0.0, 400, "eq2b")
@deep_case([(0.3, 8), (0.8, 7), (0.55, 5)], 2.2, math.inf, 400, "eq4a")
@given(deep_protocols, orders, st.integers(0, 400), node_spectra)
def test_node_averages_match_the_band_to_depth_400(p, order, n, sp):
    # Against the band average of every product of the chain.  The bound
    # 1e-12 holds for |h theta_bar| < 2^14, where a rounding of h theta_bar
    # moves the band's cosines by at most 9.1e-13.
    assert_maps_match_own_averages(p, sp, n, order)


@given(protocols, orders, depths, st.floats(-10.0, 10.0))
def test_sharp_average_is_point_evaluation_bitwise(p, order, n, theta_bar):
    tm = protocol_product(p, n, order)
    # A mean phase of at least fl(2 pi) is kept reduced by whole turns.
    sp = Spectrum(theta_bar, 0.0)
    assert np.array_equal(gaussian_average(tm, sp).m, tm.evaluate(sp.theta_bar))


def loop_sum(tm, theta, s=0.0):
    """Reference harmonic sum: from zero, add each damped term in increasing h."""
    out = np.zeros((3, 3))
    for h in range(tm.max_harmonic + 1):
        d = math.exp(-0.5 * (h * s) ** 2) if h else 1.0
        out += d * math.cos(h * theta) * tm.terms[h, 0]
        if h:
            out += d * math.sin(h * theta) * tm.terms[h, 1]
    return out


@given(protocols, orders, depths, phases)
def test_array_evaluate_matches_scalar_calls_bitwise(p, order, n, thetas):
    tm = protocol_product(p, n, order)
    stacked = np.stack([tm.evaluate(t) for t in thetas])
    assert np.array_equal(tm.evaluate(thetas), stacked)
    assert np.array_equal(tm.evaluate(thetas[None, :]), stacked[None])
    assert np.array_equal(stacked, np.stack([loop_sum(tm, t) for t in thetas]))


@given(protocols, orders, depths, spectra)
def test_average_matches_loop_reference_bitwise(p, order, n, sp):
    tm = protocol_product(p, n, order)
    assert np.array_equal(gaussian_average(tm, sp).m, loop_sum(tm, sp.theta_bar, sp.s))


@given(
    protocols,
    orders,
    st.integers(1, 15),
    st.floats(-2.0 * math.pi, 2.0 * math.pi),
    st.floats(math.log(1e-9), math.log(UNIFORM_S), exclude_max=True).map(math.exp).filter(lambda s: s < UNIFORM_S),
)
def test_trapezoid_rule_matches_closed_form_average(p, order, n, theta_bar, s):
    # verify's quadrature check: the node rule against the band's closed form.
    tm = protocol_product(p, n, order)
    sp = Spectrum(theta_bar, s)
    assert np.max(np.abs(averaged_maps(p, sp, n, order)[-1] - gaussian_average(tm, sp).m)) < 1e-13


def chain_and_composed(p, order, n1, n2):
    """The chain to depth max(n1, n2), and products of its members, a step
    and the zero series in both orders; the last one is zero."""
    chain = list(itertools.islice(product_chain(p, order), max(n1, n2) + 1))
    a, b = chain[n1], chain[n2]
    step, zero = step_matrix(p.steps[0], order), TrigMatrix.constant(np.zeros((3, 3)))
    return chain, [trig_compose(x, y) for x, y in ((a, b), (b, a), (step, a), (a, step), (zero, a), (a, zero))]


@given(protocols, orders, depths, depths)
def test_bands_keep_a_zero_sine_0_and_a_nonzero_top(p, order, n1, n2):
    chain, composed = chain_and_composed(p, order, n1, n2)
    for tm in chain + composed:
        assert tm.terms[0, 1].tobytes() == bytes(72)
        assert tm.terms[-1].any() or (tm.terms.shape == (1, 2, 3, 3) and not tm.terms.any())
    assert composed[-1].max_harmonic == 0 and not composed[-1].terms.any()


@given(protocols, orders, depths, depths)
def test_terms_are_a_read_only_view_of_one_band(p, order, n1, n2):
    # A product keeps the compose's accumulator, the cosine band then the
    # sine band of transposed blocks, and the next compose reads it as is.
    chain, composed = chain_and_composed(p, order, n1, n2)
    for tm in chain + composed:
        assert tm.terms.transpose(1, 0, 3, 2).flags.c_contiguous
        assert not tm.terms.flags.writeable
        assert tm.terms.base is not None and not tm.terms.base.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            tm.terms[-1, 0, 0, 0] = 1.0


@given(protocols, orders, depths)
def test_max_harmonic_is_highest_stored_harmonic(p, order, n):
    tm = protocol_product(p, n, order)
    assert tm.terms.shape == (tm.max_harmonic + 1, 2, 3, 3)
    assert tm.max_harmonic == (tm.harmonics() or [0])[-1]
    assert true_degree(tm) <= tm.max_harmonic


@given(exact_protocols, orders, depths)
def test_max_harmonic_is_highest_nonzero_harmonic(p, order, n):
    tm = protocol_product(p, n, order)
    assert tm.max_harmonic == true_degree(tm)


def test_half_turns_about_x_cancel_harmonics():
    # At eta = 0 the rotation flips the sense of the z rotation that
    # follows it, so k = 3 and k = 2 leave only harmonic 3 - 2 = 1.
    p = Protocol.from_steps([ControlStep(0.0, 3), ControlStep(0.0, 2)])
    tm = protocol_product(p, 2)
    assert tm.max_harmonic == 1
    assert true_degree(tm) == 1


def axis_projector_reference(w):
    """Projector onto the rotation axis of one proper rotation != I."""
    a = np.array([w[2, 1] - w[1, 2], w[0, 2] - w[2, 0], w[1, 0] - w[0, 1]])
    norm = float(np.linalg.norm(a))
    trace = w[0, 0] + w[1, 1] + w[2, 2]
    if trace <= 1.0 and norm < asymptotics.ANTISYMMETRIC_NORM_TOL:
        # Rodrigues: W + W^T - (tr W - 1) I = (3 - tr W) u u^T.
        return (w + w.T - (trace - 1.0) * np.eye(3)) / (3.0 - trace)
    u = a / norm
    return np.outer(u, u)


def is_identity_reference(w):
    """A rotation is I when its angle is acute and its antisymmetric part vanishes."""
    a = np.array([w[2, 1] - w[1, 2], w[0, 2] - w[2, 0], w[1, 0] - w[0, 1]])
    return np.trace(w) > 1.0 and float(a @ a) < asymptotics.IDENTITY_AXIS_NORM2_TOL


def steady_projector_reference(period, theta, w, nudged=False):
    """Axis projector of w = period(theta), by continuity where W = I."""
    if not is_identity_reference(w):
        return axis_projector_reference(w)
    if nudged:
        return np.eye(3)
    left, right = (
        steady_projector_reference(period, t, period.evaluate(t), nudged=True)
        for t in (theta - asymptotics.CONTINUITY_NUDGE, theta + asymptotics.CONTINUITY_NUDGE)
    )
    return 0.5 * (left + right)


def steady_map_reference(p, sp, K, order, fold_nodes=None):
    """Reference window map of phase K (see ``steady_cycle_reference``)."""
    cycle = steady_cycle_reference(p, sp, order, fold_nodes)
    return None if cycle is None else cycle[K]


@functools.cache
def steady_cycle_reference(p, sp, order, fold_nodes=None):
    """Reference window maps of every phase: one node at a time, added to a
    running sum, refined until no phase's map changes by ``QUAD_TOL``.

    None where the cycle is handed to its fold: not converged at a
    refinement of at least 2 ``fold_nodes`` nodes, the fold's N at any
    width.  Cached: each phase of a cycle reads the same run."""
    series = [
        (compose_loop(p.steps[K:] + p.steps[:K], order), compose_loop(p.steps[:K], order)) for K in range(p.period)
    ]
    half = asymptotics.GAUSSIAN_WINDOW_SIGMAS * sp.s
    if sp.theta_bar - half == sp.theta_bar + half:
        return [
            steady_projector_reference(period, sp.theta_bar, period.evaluate(sp.theta_bar)) @ prefix.evaluate(sp.theta_bar)
            for period, prefix in series
        ]

    def integral(n_nodes, period, prefix):
        nodes, weights = asymptotics._quad_nodes(sp, n_nodes)
        values = zip(nodes, weights, period.evaluate(nodes), prefix.evaluate(nodes))
        acc = np.zeros((3, 3))
        for theta, weight, w, x in values:
            acc += weight * (steady_projector_reference(period, theta, w) @ x)
        return acc

    n_nodes, prev = asymptotics.QUAD_MIN_NODES, None
    while True:
        cur = [integral(n_nodes, period, prefix) for period, prefix in series]
        if prev is not None and all(float(np.max(np.abs(c - q))) < asymptotics.QUAD_TOL for c, q in zip(cur, prev)):
            return cur
        if fold_nodes is not None and n_nodes >= 2 * fold_nodes:
            return None
        if n_nodes >= asymptotics.QUAD_MAX_NODES:
            raise ConvergenceError("reference quadrature hit the node cap")
        n_nodes, prev = 2 * n_nodes, cur


def fold_node_values(p, K, order, n, rotated=False):
    """The fold's 2n nodes ``2 pi (j + 1/2) / 2n``, anchored at 0 at every
    theta_bar, and each node's value, shape (2n, 3, 3): the
    one-axis integrand ``P_K Pi``, Pi the axis projector of the unshifted
    period P_T; with ``rotated``, the window's form ``proj(W_K) P_K`` over
    the period of the schedule rotated by K."""
    period = compose_loop(p.steps[K:] + p.steps[:K] if rotated else p.steps, order)
    prefix = compose_loop(p.steps[:K], order)
    nodes = np.pi * (2.0 * np.arange(2 * n) + 1.0) / (2 * n)
    values = np.empty((2 * n, 3, 3))
    for j, (theta, w, x) in enumerate(zip(nodes, period.evaluate(nodes), prefix.evaluate(nodes))):
        proj = steady_projector_reference(period, theta, w)
        values[j] = proj @ x if rotated else x @ proj
    return nodes, values


def fold_reference(p, sp, K, order, n, rotated=False):
    """The fold's rule summed node by node, with no FFT: the values of
    ``fold_node_values``, each weighted by the truncated wrapped-normal
    density ``(1 + 2 sum_{h <= H*} exp(-h^2 s^2 / 2) cos h(theta_j - theta_bar)) / 2n``."""
    nodes, values = fold_node_values(p, K, order, n, rotated)
    density = np.ones(2 * n)
    for h in range(1, 1 if sp.is_uniform else math.ceil(asymptotics.FOLD_TAIL / sp.s) + 1):
        density += 2.0 * math.exp(-0.5 * (h * sp.s) ** 2) * np.cos(h * (nodes - sp.theta_bar))
    acc = np.zeros((3, 3))
    for weight, value in zip(density / (2 * n), values):
        acc += weight * value
    return acc


def assert_fold_matches_reference(fold, p, sp, K, order, rotated=False, tol=1e-13):
    want = fold_reference(p, sp, K, order, fold.nodes, rotated)
    assert np.max(np.abs(fold.map_at(sp.s) - want)) <= tol


def assert_steady_map_matches_reference(p, sp, K, order):
    """The window's map equals the node loop bit for bit.  A phase the loop
    has not finished at 2N nodes, N its fold's count at any width, is handed
    to the fold: it has the fold's bits and the fold matches its node-by-node
    oracle, or the fold raised and so does the map.  A fold that needs more
    than the cap is named only at the cap, where the loop raises too."""
    fold = nodes = None
    if sp.s > 0.0:
        try:
            fold = asymptotics.steady_fold(p, sp.theta_bar, sp.s, order)[K]
            nodes = fold.nodes
        except ConvergenceError as error:
            nodes = int(re.search(r"N = (\d+)\)", str(error)).group(1))
    try:
        want = steady_map_reference(p, sp, K, order, nodes)
    except ConvergenceError:
        want = None
    if want is not None:
        assert asymptotic_map(p, sp, K, order).m.tobytes() == want.tobytes()
    elif fold is None:
        with pytest.raises(ConvergenceError, match=r"last change \S+\); the one-period fold \(strip half-width"):
            asymptotic_map(p, sp, K, order)
    else:
        assert asymptotic_map(p, sp, K, order).m.tobytes() == fold.map_at(sp.s).tobytes()
        assert_fold_matches_reference(fold, p, sp, K, order)


# (eta, k) steps, spectrum and order: both presets at the calibrated width
# and at 8.25, the first variant of each Gaussian steady_sweep template, and
# the two cycles that hit the window's node cap (2N = 2,048 and 32,768).
FOLD_ORACLE_CASES = [
    pytest.param([(0.5, 3), (0.5, 2)], Spectrum(0.0, CALIBRATED_S), "eq2b", id="two_controls-calibrated"),
    pytest.param([(0.5, 3), (0.5, 2), (0.5, 1)], Spectrum(0.0, CALIBRATED_S), "eq2b", id="three_controls-calibrated"),
    pytest.param([(0.5, 3), (0.5, 2)], Spectrum(0.0, 8.25), "eq2b", id="two_controls-s8.25"),
    pytest.param([(0.5, 3), (0.5, 2), (0.5, 1)], Spectrum(0.0, 8.25), "eq2b", id="three_controls-s8.25"),
    pytest.param([(0.3, 0), (0.5, 4)], Spectrum(5.306289, 8.253), "eq2b", id="p2-s8.25"),
    pytest.param([(0.7, 1), (0.0, 3), (0.7, 1), (0.0, 0)], Spectrum(2.20643, 4.311), "eq4a", id="p4-s4.31"),
    pytest.param([(0.3, 4), (0.0, 3), (0.3, 3)], Spectrum(5.364735, 2.833), "eq2b", id="p3-s2.83"),
    pytest.param([(0.5, 2)], Spectrum(2.426895, 21.67), "eq4a", id="p1-s21.7"),
    pytest.param([(0.9357, 0), (0.5, 1), (0.1672, 3), (1.0, 3), (0.0, 0)], Spectrum(0.0917, 38.6), "eq2b", id="period-5-s38.6"),
    pytest.param([(0.3875, 4), (0.3815, 2)], Spectrum(-0.707, 4.597), "eq2b", id="period-2-s4.597"),
]


# sha256 of the phase-0 fold coefficients of each FOLD_ORACLE_CASES entry:
# phase 0 folds Pi + 0.0 itself, with the bits it had before the fold
# moved onto the one axis.  The six cases with theta_bar != 0 are pinned on
# the grid anchored at 0, where theta_bar is the phase of each harmonic.
PHASE_ZERO_FOLD_DIGESTS = {
    "two_controls-calibrated": "89a02f3ab7aec55065a286ac1bed784824ca4d31a272277358459cca63e67ef8",
    "three_controls-calibrated": "f0e1a012cb29369dedb7cf2b5ed27211a7fc91aea6a6b0542628c19f693dc038",
    "two_controls-s8.25": "a2c1c612de4db7ec38a1cdd1bcd5a35673e2cd028e6c772a3529ef4c79fc8162",
    "three_controls-s8.25": "e50a901f810d2be61af06ec2f7918b1bde0b800c521a067e2aa6cf6a6ca68af4",
    "p2-s8.25": "0adbdfd8d54689c7aed3c083ea1c5e180498f2fa05c23320e38362a48604706d",
    "p4-s4.31": "252040638c7fa1670af70aa1599556862a43691f5701efa69c523b4036ad9a5d",
    "p3-s2.83": "e551244a122faf9e370e9084988a5f38b5414ca85745be44f9090c93b437fbc4",
    "p1-s21.7": "eb7a69c744a2f73ae33e24241a36d84aafb6f0bc67a7c8698dbd277739d823d3",
    "period-5-s38.6": "a9a631e72c7daffec012034ed53dc85fcf725679423ac274ec63262d5c4238df",
    "period-2-s4.597": "b431feaef979c37d1f260d36d599eb197b7eb1a0b8dc88309fc4aedd3bf033b5",
}


@pytest.mark.parametrize("steps, sp, order", FOLD_ORACLE_CASES)
def test_fold_matches_its_node_by_node_oracle(steps, sp, order, request):
    # The fold sums the one-axis integrand P_K Pi; the window's rotated-period
    # form proj(W_K) P_K, summed on the same nodes, agrees with it.
    p = Protocol.from_steps(ControlStep(eta, k) for eta, k in steps)
    for K, fold in enumerate(asymptotics.steady_fold(p, sp.theta_bar, sp.s, order)):
        assert_fold_matches_reference(fold, p, sp, K, order)
        if K:
            assert_fold_matches_reference(fold, p, sp, K, order, rotated=True)
        else:
            digest = hashlib.sha256(fold.coefficients.tobytes()).hexdigest()
            assert digest == PHASE_ZERO_FOLD_DIGESTS[request.node.callspec.id]


def assert_guard_bounds_the_change(folds, p, sp, order):
    """Each fold's guard_delta bounds the change between its 2N-node rule and
    the rule's N even nodes, both summed node by node in long double on the
    exact grid phases pi (2j + 1) / 2N less theta_bar, at 400 widths from
    s_min to s* and at s = inf: the widths between the doublings of s_min
    included.  The guard's FFT rounds, so the bound holds to one ulp of 1
    (measured at most 5.1e-17 short, over 870 folds of 300 random cycles)."""
    h = np.arange(len(folds[0].coefficients))
    finite = np.geomspace(sp.s, max(sp.s, UNIFORM_S), 400)
    damping = np.vstack([np.exp(-0.5 * np.multiply.outer(finite, h).astype(np.longdouble) ** 2), h == 0])
    for K, fold in enumerate(folds):
        _, values = fold_node_values(p, K, order, fold.nodes)
        count = 2 * fold.nodes
        grid = np.arccos(np.longdouble(-1.0)) * (2 * np.arange(count, dtype=np.longdouble) + 1) / count
        cosines = np.cos(np.multiply.outer(h, grid - sp.theta_bar)) * np.where(h == 0, 1, 2)[:, None]
        # Harmonic by harmonic: the rule's sums less its even nodes' sums.
        values = values.reshape(count, 9)
        change = cosines @ values / count - cosines[:, ::2] @ values[::2] / (count // 2)
        assert np.max(np.abs(damping @ change)) <= fold.guard_delta + np.finfo(float).eps


@pytest.mark.parametrize("steps, sp, order", FOLD_ORACLE_CASES)
def test_guard_bounds_the_change_at_every_width(steps, sp, order):
    p = Protocol.from_steps(ControlStep(eta, k) for eta, k in steps)
    assert_guard_bounds_the_change(asymptotics.steady_fold(p, sp.theta_bar, sp.s, order), p, sp, order)


def test_guard_bounds_the_change_on_random_cycles():
    # Periods 1-5 and s_min log-uniform over [0.05, 38.5]; folds past N =
    # 256 are left to FOLD_ORACLE_CASES, for the node-by-node sums' cost.
    rng = np.random.default_rng(20261020)
    checked = 0
    while checked < 40:
        steps = [(float(rng.choice([0.0, 1.0, rng.uniform()])), int(rng.integers(0, 5))) for _ in range(rng.integers(1, 6))]
        p = Protocol.from_steps(ControlStep(eta, k) for eta, k in steps)
        sp = Spectrum(float(rng.uniform(-math.pi, math.pi)), math.exp(rng.uniform(math.log(0.05), math.log(38.5))))
        order = str(rng.choice(STEP_ORDERS))
        try:
            folds = asymptotics.steady_fold(p, sp.theta_bar, sp.s, order)
        except ConvergenceError:
            continue
        if folds[0].nodes <= 256:
            assert_guard_bounds_the_change(folds, p, sp, order)
            checked += 1


def test_guard_bounds_the_change_between_doubled_widths():
    # Four grid nodes with 1 + tr W = 2.7e-14 and |a| = 3.3e-7, just above
    # the half-turn mask (ROADMAP item 1), leave the change table flat out to
    # H* = 63.  The change peaks at 1.47e-12 near s = 0.38, between the
    # doubled widths 0.28 and 0.57, where a guard sampled at s_min 2^k reads
    # at most 1.32e-12.  The one-row bound reads 4.04e-12.
    p = Protocol.from_steps([ControlStep(0.5, 4), ControlStep(0.5, 2), ControlStep(0.5, 2)])
    sp = Spectrum(-1.1897039732514385, 0.14194170041730123)
    assert_guard_bounds_the_change(asymptotics.steady_fold(p, sp.theta_bar, sp.s, "eq2b"), p, sp, "eq2b")


def twice_the_nodes(p, theta_bar, s, order):
    """Every phase's fold on twice its node count N."""
    count = asymptotics._fold_count
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(asymptotics, "_fold_count", lambda *args: 2 * count(*args))
        return asymptotics.steady_fold(p, theta_bar, s, order)


def assert_one_axis_folds_hold(p, theta_bar, s, order, rotated_tol=1e-13):
    """The folds of all phases from one lockstep pass share the period's N;
    for K >= 1 they agree to 1e-13 with a fold on twice the nodes (the
    fold's error against its own refinement, ROADMAP 2b), and to
    ``rotated_tol`` with the rotated-period form summed node by node."""
    folds = asymptotics.steady_fold(p, theta_bar, s, order)
    fine = twice_the_nodes(p, theta_bar, s, order)
    sp = Spectrum(theta_bar, s)
    assert len(folds) == len(fine) == p.period
    for K, (fold, finer) in enumerate(zip(folds, fine)):
        assert fold.nodes == folds[0].nodes
        assert finer.nodes == 2 * fold.nodes
        if K:
            assert_fold_matches_reference(fold, p, sp, K, order, rotated=True, tol=rotated_tol)
            assert np.max(np.abs(finer.map_at(s) - fold.map_at(s))) <= 1e-13


@pytest.mark.parametrize("order", STEP_ORDERS)
@pytest.mark.parametrize("s", [3.0, 8.25, 12.0])
@pytest.mark.parametrize("steps", [[(0.5, 3), (0.5, 2)], [(0.5, 3), (0.5, 2), (0.5, 1)]], ids=["two", "three"])
def test_preset_folds_on_the_one_axis(steps, s, order):
    assert_one_axis_folds_hold(Protocol.from_steps(ControlStep(eta, k) for eta, k in steps), 0.0, s, order)


@given(
    protocols_with(edge_etas, min_period=2),
    orders,
    st.floats(-math.pi, math.pi),
    st.floats(math.log(0.2), math.log(38.5)).map(math.exp),
)
def test_folds_on_the_one_axis(p, order, theta_bar, s):
    # The node-by-node reference costs about 20 us a node, so folds past
    # N = 1,024 are left to the cases above and to FOLD_ORACLE_CASES.  The
    # rotated-period form carries the axis error of nodes near a half turn
    # (ROADMAP item 1): [(0, 0), (0, 0), (0.5, 0), (0, 1), (1, 4)] eq2b at
    # theta_bar = -0.8517, s = 1 has a node with 1 + tr W_4 = 1.4e-9, and its
    # phase-4 sum reads 1.5e-13 from the fold, which is 3.6e-15 from a fold
    # on 8N nodes.  So that form is held to the 1e-12 of the window's maps.
    try:
        nodes = max(fold.nodes for fold in asymptotics.steady_fold(p, theta_bar, s, order))
    except ConvergenceError:
        reject()
    if nodes > 2**10:
        reject()
    assert_one_axis_folds_hold(p, theta_bar, s, order, rotated_tol=1e-12)


# Cycles whose fold grid has a node just above the half-turn mask: 1 + tr W
# is 3e-14 and 3e-11 there, and |a| is 3.4e-7 and 1.1e-5.  The a/|a| branch
# puts up to 8.5e-12 and 2.1e-13 into the folds; Rodrigues' form on every
# tr W <= 1 node brings both below 7e-17 (ROADMAP item 1).
@pytest.mark.xfail(strict=True, reason="a fold node sits just above the half-turn mask (ROADMAP item 1)")
@pytest.mark.parametrize(
    "steps, theta_bar",
    [
        (
            [(1.175494351e-38, 4), (1.0, 2), (0.3387874686216508, 0), (0.3387874686216508, 1), (0.7602994344921545, 4)],
            -6.103515625e-05,
        ),
        ([(0.0, 2), (1.0, 0), (0.34375, 2), (0.34375, 1), (0.759765625, 2)], 0.0),
    ],
    ids=["tr-3e-14", "tr-3e-11"],
)
def test_folds_near_a_half_turn_hold_on_twice_the_nodes(steps, theta_bar):
    p = Protocol.from_steps(ControlStep(eta, k) for eta, k in steps)
    folds = asymptotics.steady_fold(p, theta_bar, 1.0, "eq4a")
    fine = twice_the_nodes(p, theta_bar, 1.0, "eq4a")
    for fold, finer in zip(folds, fine):
        assert finer.nodes == 2 * fold.nodes
        assert np.max(np.abs(finer.map_at(1.0) - fold.map_at(1.0))) <= 1e-13


steady_spectra = st.builds(
    Spectrum,
    theta_bar=st.floats(-math.pi, math.pi),
    s=st.one_of(
        st.sampled_from([0.0, math.inf]), st.floats(0.01, 0.5), st.floats(0.5, 25.0), st.floats(UNIFORM_S, 1e300)
    ),
)


@given(protocols, orders, st.integers(0, 4), steady_spectra)
def test_steady_map_matches_node_loop_bytewise(p, order, phase, sp):
    assert_steady_map_matches_reference(p, sp, phase % p.period, order)


@pytest.mark.parametrize("order", STEP_ORDERS)
@pytest.mark.parametrize(
    "steps, sp",
    [
        # The period map is the identity at every phase: every node takes
        # the continuity nudge, and the map stays I beside it.
        ([ControlStep(1.0, 0), ControlStep(1.0, 0)], Spectrum(0.4, 0.3)),
        ([ControlStep(1.0, 0), ControlStep(1.0, 0)], Spectrum(0.4, 0.0)),
        # The identity only at theta = 0, where the axis turns: the nudge
        # averages two projectors 8e-5 apart.
        ([ControlStep(0.5, 1), ControlStep(0.5, 2)], Spectrum(0.0, 0.0)),
        # A half turn at every phase: every node takes Rodrigues' closed form.
        ([ControlStep(0.7, 0)], Spectrum(0.4, 0.3)),
        ([ControlStep(0.7, 0)], Spectrum(0.4, math.inf)),
        # The window spends 2N = 256 nodes unconverged and hands both
        # phases to the fold (it converged at 4,096 nodes).
        ([ControlStep(0.5, 3), ControlStep(0.5, 2)], Spectrum(0.4, 8.25)),
        # The window converges at 2,048 nodes, in blocks of 744, short of
        # its fold's 2N.
        ([ControlStep(0.605, 1), ControlStep(0.5, 4)], Spectrum(0.4, 0.48)),
    ],
)
def test_steady_map_fallbacks_and_blocks_match_node_loop(steps, sp, order):
    p = Protocol.from_steps(steps)
    for K in range(p.period):
        assert_steady_map_matches_reference(p, sp, K, order)


def test_window_oracle_refines_the_whole_cycle():
    # The window stops when no phase's map changes, so a phase that
    # converged a refinement earlier takes the later one too; an oracle that
    # stopped each phase at its own refinement missed phase 0's bits here.
    steps = [(0.318414910499757, 1), (1.0, 1), (0.6324235927297248, 2), (0.5263811677246363, 0), (0.9375649037593979, 3)]
    p = Protocol.from_steps(ControlStep(eta, k) for eta, k in steps)
    assert_steady_map_matches_reference(p, Spectrum(-2.5008924578824114, math.inf), 0, "eq4a")


@pytest.mark.parametrize("order", STEP_ORDERS)
@pytest.mark.parametrize("s", [0.0, 5e-324, math.inf])
@pytest.mark.parametrize(
    "steps",
    [[ControlStep(0.0, 1)], [ControlStep(1.0, 1)], [ControlStep(0.0, 3), ControlStep(1.0, 2)]],
    ids=["x-half-turn", "z-turn", "mixed"],
)
def test_phase_zero_maps_keep_the_identity_prefix_zeros(steps, s, order):
    # Phase 0 skips the product with its prefix P_0 = I.  Its projectors
    # have zero entries, some -0.0, which the product turns into +0.0.  At
    # a point value (s = 0 and 5e-324 here) the map is that node value, so
    # the signs show in the bytes.  At s = inf the window's running sum
    # starts at +0.0 and hides them, and a phase handed to its fold at 2N
    # nodes has the fold's bits.
    p = Protocol.from_steps(steps)
    sp = Spectrum(0.4, s)
    cycle = asymptotic_cycle(p, sp, order)
    for K in range(p.period):
        if math.isinf(s):
            assert_steady_map_matches_reference(p, sp, K, order)
            assert cycle.maps[K].m.tobytes() == asymptotic_map(p, sp, K, order).m.tobytes()
        else:
            assert cycle.maps[K].m.tobytes() == steady_map_reference(p, sp, K, order).tobytes()


def maps_or_message(maps):
    """The bytes of each map, or the message of the ConvergenceError raised."""
    try:
        return [m.m.tobytes() for m in maps()]
    except ConvergenceError as error:
        return str(error)


def assert_lockstep_matches_phase_by_phase(p, sp, order):
    lockstep = maps_or_message(lambda: asymptotic_cycle(p, sp, order).maps)
    by_phase = maps_or_message(lambda: [asymptotic_map(p, sp, K, order) for K in range(p.period)])
    assert lockstep == by_phase


@given(protocols, orders, steady_spectra)
def test_lockstep_cycle_matches_phase_by_phase_maps(p, order, sp):
    assert_lockstep_matches_phase_by_phase(p, sp, order)


# F = diag(1, -1, 1) commutes with every c_rotation and turns a z rotation
# by k theta into one by -k theta, so P(-theta) = F P(theta) F for every
# product; the spectrum at -theta_bar mirrors the one at theta_bar, so
# M_K(-theta_bar) = F M_K(theta_bar) F at every width.
REFLECTION = np.diag([1.0, -1.0, 1.0])
reflection_widths = st.one_of(
    st.sampled_from([0.0, 1e-18, math.inf]),
    st.floats(1e-4, 0.05),
    st.floats(math.log(0.05), math.log(30.0)).map(math.exp),
)


@given(protocols, orders, st.floats(-math.pi, math.pi), reflection_widths)
def test_cycle_at_the_reflected_mean_phase_is_the_reflected_cycle(p, order, theta_bar, s):
    try:
        cycle = asymptotic_cycle(p, Spectrum(theta_bar, s), order)
        mirrored = asymptotic_cycle(p, Spectrum(-theta_bar, s), order)
    except ConvergenceError:
        reject()
    for m, r in zip(cycle.maps, mirrored.maps):
        assert np.max(np.abs(r.m - REFLECTION @ m.m @ REFLECTION)) <= 1e-14


@pytest.mark.xfail(
    strict=True,
    reason="a fold node with 1 + tr W = 4.9e-10 sits just above the half-turn mask (ROADMAP item 1)",
)
def test_reflected_cycle_with_a_node_near_a_half_turn():
    steps = [(1.0, 0), (0.39007455193986174, 4), (0.6252614844151068, 4), (0.5215251221324175, 2), (0.0, 3)]
    p = Protocol.from_steps(ControlStep(eta, k) for eta, k in steps)
    cycle, mirrored = (asymptotic_cycle(p, Spectrum(t, 27.82), "eq2b") for t in (1.62298, -1.62298))
    for m, r in zip(cycle.maps, mirrored.maps):
        assert np.max(np.abs(r.m - REFLECTION @ m.m @ REFLECTION)) <= 1e-14


def assert_folds_reflect(p, theta_bar, s, order):
    """M_K(-theta_bar) = F M_K(theta_bar) F, F = diag(1, -1, 1), to 1e-13 at
    every phase, read at s and 2 s: theta -> -theta takes every step matrix
    P to F P F, and the grid anchored at 0 maps onto itself."""
    plus = asymptotics.steady_fold(p, theta_bar, s, order)
    minus = asymptotics.steady_fold(p, -theta_bar, s, order)
    assert len(plus) == len(minus) == p.period
    for a, b in zip(plus, minus):
        assert a.nodes == b.nodes
        for width in (s, 2 * s):
            assert np.max(np.abs(b.map_at(width) - REFLECTION @ a.map_at(width) @ REFLECTION)) <= 1e-13


@pytest.mark.parametrize(
    "steps, sp, order",
    [case for case in FOLD_ORACLE_CASES if case.values[1].theta_bar != 0.0]
    + [
        # Folds on a grid at theta_bar + pi (2j + 1) / 2N missed their
        # mirror by 1.79e-12, 7.6e-13 and 5.4e-13 here.
        pytest.param(
            [(0.0, 4), (0.0, 2), (0.5, 3), (0.5, 1)],
            Spectrum(-1.6327778870630456, 6.837032258022275),
            "eq4a",
            id="period-4-s6.84",
        ),
        pytest.param(
            [(0.11040123550286973, 4), (0.5, 2)], Spectrum(1.9082869888484977, 0.4286484230125275), "eq4a", id="p2-s0.429"
        ),
        pytest.param(
            [(1.0, 3), (0.0, 2), (0.5, 3), (0.5, 0)],
            Spectrum(-0.7269463492293196, 0.4553812685981908),
            "eq2b",
            id="period-4-s0.455",
        ),
    ],
)
def test_folds_reflect_the_mean_phase(steps, sp, order):
    assert_folds_reflect(Protocol.from_steps(ControlStep(eta, k) for eta, k in steps), sp.theta_bar, sp.s, order)


def test_folds_reflect_the_mean_phase_on_random_cycles():
    # Periods 1-5, theta_bar uniform on (-pi, pi) and s log-uniform over
    # [0.05, 38.5]; a cycle whose fold raises at either mean phase is drawn
    # again.  The worst of the 200 misses its mirror by 3.1e-14.
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 200:
        steps = [(float(rng.choice([0.0, 0.5, 1.0, rng.uniform()])), int(rng.integers(0, 5))) for _ in range(rng.integers(1, 6))]
        p = Protocol.from_steps(ControlStep(eta, k) for eta, k in steps)
        theta_bar, s = float(rng.uniform(-math.pi, math.pi)), math.exp(rng.uniform(math.log(0.05), math.log(38.5)))
        order = str(rng.choice(STEP_ORDERS))
        try:
            assert_folds_reflect(p, theta_bar, s, order)
        except ConvergenceError:
            continue
        checked += 1


@pytest.mark.parametrize("theta_bar", [0.3, 1.1])
@pytest.mark.parametrize("steps", [[(0.5, 3), (0.5, 2)], [(0.5, 3), (0.5, 2), (0.5, 1)]], ids=["two", "three"])
def test_optimizers_are_even_in_the_mean_phase(steps, theta_bar):
    # F maps the sphere onto itself, so the reflected cycle has the same
    # best pair rate and visibility maximum.
    p = Protocol.from_steps(ControlStep(eta, k) for eta, k in steps)
    cycles = [asymptotic_cycle(p, Spectrum(t, CALIBRATED_S)) for t in (theta_bar, -theta_bar)]
    rates = [optimal_pair_search(c).rate for c in cycles]
    values = [maximize_visibility(c).value for c in cycles]
    assert rates[1] == pytest.approx(rates[0], rel=0, abs=1e-9)
    assert values[1] == pytest.approx(values[0], rel=0, abs=1e-9)


mean_phases = st.floats(-(2.0**52), 2.0**52, exclude_min=True, exclude_max=True)
uniform_widths = st.floats(math.log(UNIFORM_S), math.log(1e307)).map(
    lambda x: min(max(math.exp(x), UNIFORM_S), 1e307)
)


@given(protocols, orders, mean_phases, uniform_widths)
def test_uniform_limit_cycle_is_the_infinite_width_cycle(p, order, theta_bar, s):
    # From s* on every harmonic h >= 1 is damped to 0.0: the steady maps
    # integrate over one period, whatever the mean phase.
    got = maps_or_message(lambda: asymptotic_cycle(p, Spectrum(theta_bar, s), order).maps)
    want = maps_or_message(lambda: asymptotic_cycle(p, Spectrum(0.0, math.inf), order).maps)
    assert got == (want if isinstance(want, list) else want.replace("s = inf", f"s = {s}"))


def fold_or_message(p, theta_bar, s, K, order):
    """The fold's node count and map bytes at s, or its ConvergenceError's message."""
    try:
        fold = asymptotics.steady_fold(p, theta_bar, s, order)[K]
    except ConvergenceError as error:
        return str(error)
    return fold.nodes, fold.map_at(s).tobytes()


@example(Protocol.from_steps([ControlStep(0.0, 1)]), "eq2b", 1.0, 54.6, 0)
@given(protocols, orders, mean_phases, uniform_widths, st.integers(0, 4))
def test_uniform_limit_fold_is_the_infinite_width_fold(p, order, theta_bar, s, phase):
    # The fold reads the same rule: from s* on it takes H* = 0 and a grid
    # anchored at 0, so [(0.0, 1)] takes N = 2 at s = 54.6, as at s = inf,
    # and its map does not move with theta_bar.
    K = phase % p.period
    assert fold_or_message(p, theta_bar, s, K, order) == fold_or_message(p, 0.0, math.inf, K, order)


@given(protocols, orders, st.floats(-math.pi, math.pi), st.floats(0.05, 3.0), st.floats(1.0, 3.0))
def test_fold_matches_the_window_where_it_converges(p, order, theta_bar, s_min, scale):
    # One fold per phase serves every width from s_min on.  Wherever the
    # window converges the two rules agree to its stopping tolerance, not
    # to 1e-12: the window errs by 1.7e-11 on a [(0.5, 4)] cycle at s = 9.2,
    # where a fold on four times the nodes moves by 2e-18, and a node near a
    # half turn puts up to 3e-11 into the fold.
    s = s_min * scale
    try:
        cycle = asymptotic_cycle(p, Spectrum(theta_bar, s), order)
    except ConvergenceError:
        reject()
    for fold, m in zip(asymptotics.steady_fold(p, theta_bar, s_min, order), cycle.maps, strict=True):
        assert fold.guard_delta <= asymptotics.QUAD_TOL
        assert np.max(np.abs(fold.map_at(s) - m.m)) <= asymptotics.QUAD_TOL


@pytest.mark.parametrize(
    "steps, sp, cap, fold_nodes",
    [
        # Every phase hits the node cap, and the fold rescues none: its
        # 2N = 32,768 nodes (strip half-width 3.05e-3) exceed a cap of
        # 16,384, so the whole cycle raises, naming no phase.  At the real
        # cap the fold converges.
        ([ControlStep(0.3875, 4), ControlStep(0.3815, 2)], Spectrum(-0.707, 4.597), 2**14, 2**14),
        # Phases 0, 1, 2 converge at 512, 1,024 and 1,024 nodes: at a cap of
        # 512 the cycle is handed over whole, and its fold (N = 512) needs
        # more nodes than the cap.
        ([ControlStep(0.862, 3), ControlStep(0.371, 0), ControlStep(0.852, 2)], Spectrum(-2.09, 0.44), 512, 512),
        ([ControlStep(0.862, 3), ControlStep(0.371, 0), ControlStep(0.852, 2)], Spectrum(-2.09, 0.44), None, None),
    ],
    ids=["all-capped", "phase-1-capped", "converged"],
)
def test_lockstep_cycle_raises_first_capped_phase(steps, sp, cap, fold_nodes, monkeypatch):
    if cap is not None:
        monkeypatch.setattr(asymptotics, "QUAD_MAX_NODES", cap)
    p = Protocol.from_steps(steps)
    assert_lockstep_matches_phase_by_phase(p, sp, "eq2b")
    if fold_nodes is None:
        asymptotic_cycle(p, sp)
    else:
        message = (
            rf"^steady-map quadrature did not reach 1e-10 by {cap} nodes \(period {p.period}, s = {sp.s}, "
            rf"largest last change \S+\); the one-period fold \(strip half-width \S+, N = {fold_nodes}\) "
            rf"needs {2 * fold_nodes} nodes, more than {cap}; its guard did not run$"
        )
        with pytest.raises(ConvergenceError, match=message) as error:
            asymptotic_cycle(p, sp)
        assert "phase" not in str(error.value)


@pytest.mark.parametrize("sp", [Spectrum(0.0045, 1.0), Spectrum(0.0, 0.25)])
def test_small_angle_period_maps_converge(sp):
    # Near theta = 0 the period map turns by angles down to about 1e-5, far
    # from the identity to rounding: each node must take its own axis.  A
    # trace-based identity test gives those nodes the projector I, and the
    # quadrature then hits its node cap.
    p = Protocol.from_steps([ControlStep(6.103515625e-05, 1)] * 2)
    for K in range(p.period):
        assert_steady_map_matches_reference(p, sp, K, "eq2b")


def protocols_of_period(period):
    return protocols.filter(lambda p: p.period == period)


# Widths below 1 keep each steady map at a few hundred nodes.
cycle_spectra = st.builds(
    Spectrum,
    theta_bar=st.floats(-math.pi, math.pi),
    s=st.one_of(st.sampled_from([0.0, math.inf]), st.floats(0.01, 1.0)),
)


def steady_cycle(p, sp, order):
    """The steady cycle; examples whose quadrature hits its node cap (near-
    degenerate period maps) are rejected, since the optimizer is under test."""
    try:
        return asymptotic_cycle(p, sp, order)
    except ConvergenceError:
        reject()


def assert_verdict_matches_eigenvalues(result):
    eigs = np.array(result.hessian_eigenvalues)
    if np.all(eigs < -visibility.HESSIAN_EIG_TOL):
        assert result.verdict == visibility.NEG_DEFINITE
    elif np.all(eigs <= visibility.HESSIAN_EIG_TOL):
        assert result.verdict == visibility.NEG_SEMIDEFINITE
    else:
        assert result.verdict == visibility.INDEFINITE


@given(protocols_of_period(2), cycle_spectra, orders)
def test_two_point_maximum_is_top_eigenpair(p, sp, order):
    cycle = steady_cycle(p, sp, order)
    result = maximize_visibility(cycle)
    d = cycle.maps[0].m - cycle.maps[1].m
    top = np.linalg.eigvalsh(d.T @ d)[-1]
    assert abs(result.value - top) < 1e-12
    u = result.direction
    assert abs(np.linalg.norm(u) - 1.0) < 1e-12
    assert np.max(np.abs(d.T @ d @ u - top * u)) < 1e-12
    assert_verdict_matches_eigenvalues(result)


@given(protocols_of_period(3), cycle_spectra, orders, st.integers(0, 2**32 - 1))
def test_three_point_maximum_beats_random_directions(p, sp, order, seed):
    cycle = steady_cycle(p, sp, order)
    result = maximize_visibility(cycle)
    u = np.random.default_rng(seed).normal(size=(2000, 3))
    x0, x1, x2 = (u @ m.m.T for m in cycle.maps)
    areas = 0.5 * np.linalg.norm(np.cross(x0, x1) + np.cross(x1, x2) + np.cross(x2, x0), axis=1)
    best = float(np.max(areas / np.sum(u * u, axis=1)))
    assert result.value >= best - 1e-12
    assert result.gradient_norm < 1e-9
    assert_verdict_matches_eigenvalues(result)


def pair_search_reference(cycle):
    """The backflow-pair search as one scipy Nelder-Mead per grid start, in
    start order: (rate, purity swing, direction)."""

    def rate_of(u):
        d = np.array([np.linalg.norm(m.m @ u) for m in cycle.maps])
        return float(np.sum(np.maximum(0.0, np.roll(d, -1) - d)))

    def unit(angles):
        th, ph = angles
        return np.array([np.cos(ph) * np.sin(th), np.sin(ph) * np.sin(th), np.cos(th)])

    best_u, best_rate = None, -1.0
    for start in nonmarkov._fibonacci_sphere(nonmarkov.SEARCH_GRID_POINTS):
        th = float(np.arccos(np.clip(start[2], -1.0, 1.0)))
        ph = float(np.arctan2(start[1], start[0]))
        res = scipy.optimize.minimize(
            lambda ang: -rate_of(unit(ang)),
            np.array([th, ph]),
            method="Nelder-Mead",
            options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 4000, "maxfev": 8000},
        )
        if -res.fun > best_rate:
            best_rate, best_u = -res.fun, unit(res.x)
    best_u = best_u / np.linalg.norm(best_u)
    d = np.array([np.linalg.norm(m.m @ best_u) for m in cycle.maps])
    return best_rate, float(np.max(d) - np.min(d)), best_u


def assert_pair_search_matches_reference(maps):
    cycle = AsymptoticCycle.from_maps(BlochMap(m) for m in maps)
    result = optimal_pair_search(cycle)
    rate, swing, direction = pair_search_reference(cycle)
    assert np.float64(result.rate).tobytes() == np.float64(rate).tobytes()
    assert np.float64(result.purity_swing).tobytes() == np.float64(swing).tobytes()
    assert result.pair.a_plus.as_array().tobytes() == direction.tobytes()


@pytest.mark.parametrize("period", range(1, 6))
def test_pair_search_matches_scipy_loop_bytewise(period):
    rng = np.random.default_rng(400 + period)
    maps = [random_contraction(rng) for _ in range(period)]
    if period == 1:
        # The rate is 0 identically, so the result is the replay's.
        assert_pair_search_matches_reference(maps)
        return
    # The eigenvector ascent finds scipy's maximum or better.  At T >= 4 the
    # swing is first order in the direction, which Nelder-Mead leaves about
    # 1e-8 off.
    cycle = AsymptoticCycle.from_maps(BlochMap(m) for m in maps)
    result = optimal_pair_search(cycle)
    rate, swing, direction = pair_search_reference(cycle)
    assert not result.degenerate
    assert result.rate >= rate - 1e-12
    got = result.pair.a_plus.as_array()
    assert min(np.max(np.abs(got - direction)), np.max(np.abs(got + direction))) <= 1e-6
    assert abs(result.purity_swing - swing) <= 1e-7


@pytest.mark.parametrize("period", [2, 4])
def test_degenerate_pair_search_matches_scipy_loop_bytewise(period):
    # All maps equal: the rate is exactly 0 everywhere, every value ties,
    # and the direction is set by the simplex path alone.
    m = random_contraction(np.random.default_rng(410 + period))
    assert_pair_search_matches_reference([m] * period)


def random_steady_cycle(rng, periods=(2, 6)):
    """A steady cycle of a period in ``range(*periods)`` (2-5 by default) in
    either order, at a mean phase of 0, pi or uniform, and a width of 0, inf
    or log-uniform in [0.1, 30]."""
    steps = [ControlStep(float(rng.uniform()), int(rng.integers(0, 5))) for _ in range(rng.integers(*periods))]
    theta_bar = [0.0, math.pi, float(rng.uniform(-math.pi, math.pi))][rng.integers(3)]
    s = [0.0, math.inf, float(math.exp(rng.uniform(math.log(0.1), math.log(30.0))))][rng.integers(3)]
    return asymptotic_cycle(Protocol.from_steps(steps), Spectrum(theta_bar, s), STEP_ORDERS[rng.integers(2)])


def test_pair_search_beats_the_replay_on_random_cycles():
    # The Nelder-Mead replay is the oracle of the eigenvector ascent; a
    # degenerate result is the replay's own.  24 cycles keep the test under 1 s.
    rng = np.random.default_rng(450)
    degenerate = 0
    for _ in range(24):
        cycle = random_steady_cycle(rng)
        result = optimal_pair_search(cycle)
        if result.degenerate:
            degenerate += 1
            continue
        _, replay_rate = nonmarkov._replay(np.stack([m.m for m in cycle.maps]))
        assert result.rate >= replay_rate - 1e-12
    assert 0 < degenerate < 24


def pair_ascent_reference(ms):
    """The pair search's eigenvector ascent as its own loop, as it ran before
    it shared ``nonmarkov._sphere_ascent`` with visibility: the rate and the
    bytes of the result it returned when the rate was above the degeneracy
    tolerance."""
    grams = np.swapaxes(ms, 1, 2) @ ms
    eigenvectors = np.swapaxes(np.linalg.eigh(grams)[1], 1, 2).reshape(-1, 3)
    u = np.vstack([nonmarkov._fibonacci_sphere(nonmarkov.SEARCH_GRID_POINTS), eigenvectors])
    best_u, best = u.copy(), np.full(len(u), -np.inf)
    for iteration in range(nonmarkov.ASCENT_MAX_ITER + 1):
        d = nonmarkov._map_norms(ms, u)
        rate = nonmarkov._cycle_gain(d)
        rose = rate > best
        best_u[rose] = u[rose]
        previous, best = best, np.maximum(best, rate)
        if iteration == nonmarkov.ASCENT_MAX_ITER or not np.any(best - previous > nonmarkov.ASCENT_RTOL * best):
            break
        rises = np.roll(d, -1, axis=1) > d
        c = np.roll(rises, 1, axis=1) - rises.astype(float)
        weights = np.divide(c, d, out=np.zeros_like(d), where=d > 0.0)
        top = np.linalg.eigh(np.tensordot(weights, grams, 1))[1][..., -1]
        u = top * np.where(np.vecdot(top, u) < 0.0, -1.0, 1.0)[:, None]
    top = best_u[np.argmax(best)]
    top = top / np.linalg.norm(top)
    d = nonmarkov._map_norms(ms, top[None])[0]
    rate = float(nonmarkov._cycle_gain(d))
    return rate, np.array([rate, np.max(d) - np.min(d)]).tobytes() + top.tobytes()


def visibility_ascent_reference(forms, starts):
    """``visibility.minimize`` as its own loop, as it ran before it shared
    ``nonmarkov._sphere_ascent``: each start reports its last point and
    value, the stop rule reads the last two values, and a start where
    ``q(u) = 0`` stays where it is."""
    u = np.array(starts, dtype=float)
    value = np.full(len(u), -np.inf)
    for iteration in range(nonmarkov.ASCENT_MAX_ITER + 1):
        q = np.vecdot(u @ forms, u).T
        value, previous = np.linalg.norm(q, axis=1), value
        if iteration == nonmarkov.ASCENT_MAX_ITER or not np.any(value - previous > nonmarkov.ASCENT_RTOL * value):
            break
        moving = value > 0.0
        top = np.linalg.eigh(np.tensordot(q[moving] / value[moving, None], forms, 1))[1][..., -1]
        u[moving] = top * np.where(np.vecdot(top, u[moving]) < 0.0, -1.0, 1.0)[:, None]
    return nonmarkov.MultiStartResult(u, -value, (iteration + 1) * len(u))


def pair_bytes(result):
    return np.array([result.rate, result.purity_swing]).tobytes() + result.pair.a_plus.as_array().tobytes()


def visibility_bytes(result):
    """Every field of a visibility maximum but its direction, as bytes."""
    floats = np.array([result.value, result.gradient_norm, *result.hessian_eigenvalues])
    return floats.tobytes(), result.verdict, result.degenerate


def visibility_pair(cycle, monkeypatch):
    """The visibility maximum by the shared ascent and by its own loop."""
    got = maximize_visibility(cycle)
    with monkeypatch.context() as patch:
        patch.setattr(visibility, "minimize", visibility_ascent_reference)
        return got, maximize_visibility(cycle)


def test_shared_ascent_keeps_recorded_pair_bytes():
    non_degenerate = 0
    for op in recorded_ops("steady_sweep", lambda op: op["kind"] == "pair"):
        ms = np.array(op["maps"])
        rate, want = pair_ascent_reference(ms)
        if rate > nonmarkov.DEGENERACY_VALUE_TOL:
            non_degenerate += 1
            assert pair_bytes(optimal_pair_search(AsymptoticCycle.from_maps(BlochMap(m) for m in ms))) == want
    assert non_degenerate == 8


def test_shared_ascent_keeps_recorded_visibility_bytes(monkeypatch):
    ops = recorded_ops("steady_sweep", lambda op: op["id"].startswith("vis.p3-s2.83"))
    assert len(ops) == 4
    for op in ops:
        got, want = visibility_pair(AsymptoticCycle.from_maps(BlochMap(np.array(m)) for m in op["maps"]), monkeypatch)
        assert visibility_bytes(got) == visibility_bytes(want)
        assert got.direction.tobytes() == want.direction.tobytes()


@pytest.mark.parametrize("order", STEP_ORDERS)
def test_shared_ascent_moves_one_preset_direction_bit(order, monkeypatch):
    # The best start reaches its best value a few steps before the stop
    # and keeps it while its point moves by rounding: the shared ascent
    # reports the first point at that value, the reference the last.  The
    # Newton finish lands one unit in the last place apart (2.8e-17 in
    # eq2b, 3.6e-31 in an entry that is 0 by symmetry in eq4a); the
    # value, gradient norm and Hessian keep their bytes.
    config = cli.preset("three_controls")
    got, want = visibility_pair(asymptotic_cycle(config.protocol, config.spectrum, order), monkeypatch)
    assert visibility_bytes(got) == visibility_bytes(want)
    assert np.max(np.abs(got.direction - want.direction)) <= 2.8e-17


def test_shared_ascent_keeps_random_pair_bytes(monkeypatch):
    # The replay is stubbed out: a degenerate ascent hands over to it
    # exactly when the reference's would.
    replays = []

    def replay(ms):
        replays.append(ms)
        return np.array([0.0, 0.0, 1.0]), 0.0

    monkeypatch.setattr(nonmarkov, "_replay", replay)
    rng = np.random.default_rng(11)
    degenerate = 0
    for _ in range(48):
        cycle = random_steady_cycle(rng)
        rate, want = pair_ascent_reference(np.stack([m.m for m in cycle.maps]))
        result = optimal_pair_search(cycle)
        if rate > nonmarkov.DEGENERACY_VALUE_TOL:
            assert pair_bytes(result) == want
        else:
            degenerate += 1
            assert result.degenerate
        assert len(replays) == degenerate
    assert 0 < degenerate < 48


def test_shared_ascent_agrees_on_random_three_point_visibility(monkeypatch):
    # A start whose last step fell by rounding now reports its best
    # point, so values and directions may move at rounding level.  Among
    # the tied maximizers of a degenerate maximum the pick is arbitrary.
    rng = np.random.default_rng(7)
    for _ in range(48):
        cycle = random_steady_cycle(rng, periods=(3, 4))
        got, want = visibility_pair(cycle, monkeypatch)
        assert abs(got.value - want.value) <= 1e-15
        assert (got.verdict, got.degenerate) == (want.verdict, want.degenerate)
        if not want.degenerate:
            assert min(np.max(np.abs(got.direction - sign * want.direction)) for sign in (1, -1)) <= 1e-13


def blp_rate_reference(cycle, pair):
    """The per-cycle backflow rate as a loop over the maps."""
    plus, minus = pair.a_plus.as_array(), pair.a_minus.as_array()
    d = np.array([0.5 * np.linalg.norm(m.m @ (plus - minus)) for m in cycle.maps])
    return float(np.sum(np.maximum(0.0, np.roll(d, -1) - d)))


@pytest.mark.parametrize("period", range(1, 6))
def test_blp_rate_matches_map_loop_bitwise(period):
    rng = np.random.default_rng(420 + period)
    for i in range(200):
        maps = [random_contraction(rng) for _ in range(period)]
        if i % 5 == 0:
            maps = [maps[0]] * period
        cycle = AsymptoticCycle.from_maps(BlochMap(m) for m in maps)
        a = BlochVector.from_array(random_ball_point(rng))
        general = StatePair(a, BlochVector.from_array(random_ball_point(rng)))
        for pair in (general, StatePair.antipodal(a)):
            got, want = asymptotic_blp_rate(cycle, pair), blp_rate_reference(cycle, pair)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_unit_vector_matches_scalar_formula_bitwise():
    rng = np.random.default_rng(430)
    thetas = [0.0, math.pi, math.pi / 2, *rng.uniform(0.0, math.pi, 5000)]
    phis = [0.0, math.pi, np.nextafter(2.0 * math.pi, 0.0), *rng.uniform(0.0, 2.0 * math.pi, 5000)]
    for theta, phi in zip(map(float, thetas), map(float, phis)):
        want = np.array([np.cos(phi) * np.sin(theta), np.sin(phi) * np.sin(theta), np.cos(theta)])
        assert SphereAngles(theta, phi).unit_vector().tobytes() == want.tobytes()
