import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from drivenqubit import (
    THREE_CONTROL_REFERENCE,
    TWO_CONTROL_REFERENCE,
    AsymptoticCycle,
    BlochMap,
    ControlStep,
    Protocol,
    Spectrum,
    asymptotic_cycle,
)
from drivenqubit import bloch

# Spectral width fitted once against the reference y-channel contraction
# 0.114589 of the two-unit benchmark (see test_acceptance, criterion 2);
# frozen here so the module suites do not re-run the bisection.
CALIBRATED_S = 0.4002315521240235

# s*: the smallest width whose harmonic-1 damping exp(-s^2 / 2) rounds to
# 0.0, where every layer switches to the uniform limit.
UNIFORM_S = 38.6039692027113

# Optimizer results recorded by the benchmark references (read only).
REFS = Path(__file__).resolve().parents[1] / "bench" / "refs"

# Property tests draw the same bounded set of examples on every run and
# keep no example database, so the suite stays reproducible.  With
# derandomize, hypothesis seeds each test from its function's source text,
# decorators and comments included: editing a @given test, even a comment,
# draws new examples, which may meet inputs no earlier run tried.
settings.register_profile("tier1", derandomize=True, deadline=None, max_examples=40, database=None)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def two_controls() -> Protocol:
    return Protocol.from_steps([ControlStep(eta=0.5, k=3), ControlStep(eta=0.5, k=2)])


@pytest.fixture(scope="session")
def three_controls() -> Protocol:
    return Protocol.from_steps(
        [ControlStep(eta=0.5, k=3), ControlStep(eta=0.5, k=2), ControlStep(eta=0.5, k=1)]
    )


@pytest.fixture(scope="session")
def calibrated_spectrum() -> Spectrum:
    return Spectrum(theta_bar=0.0, s=CALIBRATED_S)


@pytest.fixture(scope="session")
def two_cycle(two_controls, calibrated_spectrum) -> AsymptoticCycle:
    return asymptotic_cycle(two_controls, calibrated_spectrum)


@pytest.fixture(scope="session")
def three_cycle(three_controls, calibrated_spectrum) -> AsymptoticCycle:
    return asymptotic_cycle(three_controls, calibrated_spectrum)


@pytest.fixture(scope="session")
def reference_two_cycle() -> AsymptoticCycle:
    return AsymptoticCycle.from_maps(BlochMap(m) for m in TWO_CONTROL_REFERENCE)


@pytest.fixture(scope="session")
def reference_three_cycle() -> AsymptoticCycle:
    return AsymptoticCycle.from_maps(BlochMap(m) for m in THREE_CONTROL_REFERENCE)


def random_rotation(rng, min_angle=0.3):
    """Haar-ish random rotation with the angle kept away from zero."""
    u = rng.normal(size=3)
    u = u / np.linalg.norm(u)
    angle = rng.uniform(min_angle, np.pi)
    k = np.array([[0, -u[2], u[1]], [u[2], 0, -u[0]], [-u[1], u[0], 0]])
    return np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k), u, angle


def random_contraction(rng):
    """Orthogonal times singular values in [0, 1) times orthogonal."""
    left, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    right, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    return left @ np.diag(rng.uniform(0.0, 1.0, 3)) @ right


def random_ball_point(rng):
    """Uniform random point of the closed unit ball."""
    v = rng.normal(size=3)
    return v / np.linalg.norm(v) * rng.uniform(0.0, 1.0) ** (1.0 / 3.0)


def assert_pair_weights_are_exact(s, top):
    """The mirror-pair weights of the node grid for H_n = ``top`` at width
    ``s``: on grids of at most 201 nodes within rounding of a direct cosine
    sum, and on every grid the full sum of ``w_j cos(h t_j)`` is d_h for
    each h <= L, so the rule integrates the wrapped normal's moments."""
    damping = bloch._damping(s, top)
    last = 0 if damping[-1] == 1.0 else int(np.flatnonzero(damping)[-1])
    nodes = (top + last + 1) | 1 if last else 1
    weights = bloch._pair_weights(damping[: last + 1], nodes)
    assert weights.shape == (nodes // 2 + 1,)
    # cos(h t_j) from the exact angle 2 pi (h j mod N) / N.
    cos = np.cos(np.multiply.outer(np.arange(last + 1), np.arange(nodes // 2 + 1)) % nodes * (2.0 * math.pi / nodes))
    if nodes <= 201:
        direct = np.array([math.fsum([1.0, *(2.0 * damping[1 : last + 1] * col[1:])]) for col in cos.T]) / nodes
        direct[0] *= 0.5
        assert np.max(np.abs(weights - direct)) <= 1e-15 * (2 * last + 1) / nodes
    moments = np.array([math.fsum(2.0 * weights * row) for row in cos])
    assert np.max(np.abs(moments - damping[: last + 1])) <= 2e-15


def recorded_ops(workload, keep):
    """The recorded ops of one benchmark workload that ``keep`` selects."""
    templates = json.loads((REFS / f"{workload}.json").read_text())["templates"]
    return [op for t in templates for variant in t["variants"] for op in variant if keep(op)]


def machin_two_pi(bits: int = 256) -> Fraction:
    """2 pi as a rational within 2^-bits, from Machin's formula
    pi = 16 atan(1/5) - 4 atan(1/239) summed in Python integers."""
    one = 1 << (bits + 16)

    def atan_inv(x):
        total, term, n = 0, one // x, 1
        while term:
            total += (term // n) * (1 if n % 4 == 1 else -1)
            term //= x * x
            n += 2
        return total

    return Fraction(2 * (16 * atan_inv(5) - 4 * atan_inv(239)), one)


def exact_turns_off(theta: float, two_pi: Fraction) -> Fraction:
    """theta less its whole turns toward zero, exactly, for a rational 2 pi."""
    t = Fraction(theta)
    return t - int(t / two_pi) * two_pi
