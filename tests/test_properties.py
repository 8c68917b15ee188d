"""Property suite for the harmonic-series core and the steady maps over
random protocols.

Protocols have periods 1-5, rotation parameters that include the edges
eta = 0 and eta = 1, phase multipliers that include k = 0, and both step
orders.  The examples are drawn by the deterministic profile registered in
conftest.py, so every run checks the same cases.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from drivenqubit import (
    STEP_ORDERS,
    BlochVector,
    ControlStep,
    ConvergenceError,
    PeriodicRecursion,
    Protocol,
    Spectrum,
    TrigMatrix,
    asymptotic_map,
    gaussian_average,
    protocol_product,
    step_matrix,
    trig_compose,
)
from drivenqubit import asymptotics


def protocols_with(etas):
    steps = st.builds(ControlStep, eta=etas, k=st.integers(0, 4))
    return st.lists(steps, min_size=1, max_size=5).map(Protocol.from_steps)


protocols = protocols_with(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
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
    ca = [a.terms[0]] + list(a.terms[1::2])
    sa = [np.zeros((3, 3))] + list(a.terms[2::2])
    cb = [b.terms[0]] + list(b.terms[1::2])
    sb = [np.zeros((3, 3))] + list(b.terms[2::2])
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
    terms = np.zeros((2 * top + 1, 3, 3))
    terms[0], terms[1::2], terms[2::2] = cos[0], cos[1:], sin[1:]
    return TrigMatrix(terms)


@given(protocols, orders, st.integers(0, 8), st.integers(0, 8))
def test_compose_replays_pairs_bitwise(p, order, n1, n2):
    a = protocol_product(p, n1, order)
    b = protocol_product(p, n2, order)
    step = step_matrix(p.steps[-1], order)
    for x, y in ((a, b), (b, a), (step, a), (a, step)):
        assert np.array_equal(trig_compose(x, y).terms, pairwise_compose(x, y).terms)


@given(protocols, orders, st.integers(0, 8), st.integers(0, 8), phases)
def test_compose_evaluate_homomorphism(p, order, n1, n2, thetas):
    a = protocol_product(p, n1, order)
    b = protocol_product(p, n2, order)
    step = step_matrix(p.steps[0], order)
    for x, y in ((a, b), (b, a), (step, a), (a, step)):
        want = x.evaluate(thetas) @ y.evaluate(thetas)
        assert np.max(np.abs(trig_compose(x, y).evaluate(thetas) - want)) < 1e-12


@given(protocols, orders, depths, phases)
def test_products_stay_special_orthogonal(p, order, n, thetas):
    m = protocol_product(p, n, order).evaluate(thetas)
    assert np.max(np.abs(np.swapaxes(m, -1, -2) @ m - np.eye(3))) < 1e-12
    assert np.max(np.abs(np.linalg.det(m) - 1.0)) < 1e-12


@given(protocols, orders, depths, spectra)
def test_averaged_maps_are_unital_contractions(p, order, n, sp):
    bm = gaussian_average(protocol_product(p, n, order), sp)
    assert bm.apply(BlochVector(0.0, 0.0, 0.0)).norm() == 0.0
    assert np.max(bm.singular_values()) <= 1.0 + 1e-12


@given(protocols, orders, depths, st.floats(-10.0, 10.0))
def test_sharp_average_is_point_evaluation_bitwise(p, order, n, theta_bar):
    tm = protocol_product(p, n, order)
    assert np.array_equal(gaussian_average(tm, Spectrum(theta_bar, 0.0)).m, tm.evaluate(theta_bar))


def loop_sum(tm, theta, s=0.0):
    """Reference harmonic sum: from zero, add each damped term in increasing h."""
    out = np.zeros((3, 3))
    for h in range(tm.max_harmonic + 1):
        d = math.exp(-0.5 * (h * s) ** 2) if h else 1.0
        out += d * math.cos(h * theta) * tm.terms[max(2 * h - 1, 0)]
        if h:
            out += d * math.sin(h * theta) * tm.terms[2 * h]
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


@given(protocols, orders, depths)
def test_max_harmonic_is_highest_stored_harmonic(p, order, n):
    tm = protocol_product(p, n, order)
    assert tm.terms.shape == (2 * tm.max_harmonic + 1, 3, 3)
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
    if norm < asymptotics.ANTISYMMETRIC_NORM_TOL:
        vals, vecs = np.linalg.eigh(0.5 * (w + np.eye(3)))
        u = vecs[:, int(np.argmax(vals))]
    else:
        u = a / norm
    return np.outer(u, u)


def steady_projector_reference(period, theta, w, nudged=False):
    """Axis projector of w = period(theta), by continuity where W = I."""
    if abs(np.trace(w) - 3.0) >= asymptotics.IDENTITY_TRACE_TOL:
        return axis_projector_reference(w)
    if nudged:
        return np.eye(3)
    left, right = (
        steady_projector_reference(period, t, period.evaluate(t), nudged=True)
        for t in (theta - asymptotics.CONTINUITY_NUDGE, theta + asymptotics.CONTINUITY_NUDGE)
    )
    return 0.5 * (left + right)


def steady_map_reference(p, sp, K, order):
    """Reference steady map: one node at a time, added to a running sum."""
    rec = PeriodicRecursion.from_protocol(p, K, order)
    period, prefix = rec.shifted_product(), rec.prefix_product()
    if sp.s == 0.0:
        w = period.evaluate(sp.theta_bar)
        return steady_projector_reference(period, sp.theta_bar, w) @ prefix.evaluate(sp.theta_bar)

    def integral(n_nodes):
        nodes, weights = asymptotics._quad_nodes(sp, n_nodes)
        values = zip(nodes, weights, period.evaluate(nodes), prefix.evaluate(nodes))
        acc = np.zeros((3, 3))
        for theta, weight, w, x in values:
            acc += weight * (steady_projector_reference(period, theta, w) @ x)
        return acc

    n_nodes = asymptotics.QUAD_MIN_NODES
    prev = integral(n_nodes)
    while n_nodes < asymptotics.QUAD_MAX_NODES:
        n_nodes *= 2
        cur = integral(n_nodes)
        if float(np.max(np.abs(cur - prev))) < asymptotics.QUAD_TOL:
            return cur
        prev = cur
    raise ConvergenceError("reference quadrature hit the node cap")


def assert_steady_map_matches_reference(p, sp, K, order):
    try:
        want = steady_map_reference(p, sp, K, order)
    except ConvergenceError:
        with pytest.raises(ConvergenceError):
            asymptotic_map(p, sp, K, order)
        return
    assert asymptotic_map(p, sp, K, order).m.tobytes() == want.tobytes()


steady_spectra = st.builds(
    Spectrum,
    theta_bar=st.floats(-math.pi, math.pi),
    s=st.one_of(
        st.sampled_from([0.0, math.inf]), st.floats(0.01, 0.5), st.floats(0.5, 25.0)
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
        # A half turn at every phase: every node takes the eigh fallback.
        ([ControlStep(0.7, 0)], Spectrum(0.4, 0.3)),
        ([ControlStep(0.7, 0)], Spectrum(0.4, math.inf)),
        # The last refinements span two blocks (4,096 nodes).
        ([ControlStep(0.5, 3), ControlStep(0.5, 2)], Spectrum(0.4, 8.25)),
    ],
)
def test_steady_map_fallbacks_and_blocks_match_node_loop(steps, sp, order):
    p = Protocol.from_steps(steps)
    for K in range(p.period):
        assert_steady_map_matches_reference(p, sp, K, order)
