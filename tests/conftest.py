import json
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


def recorded_ops(workload, keep):
    """The recorded ops of one benchmark workload that ``keep`` selects."""
    templates = json.loads((REFS / f"{workload}.json").read_text())["templates"]
    return [op for t in templates for variant in t["variants"] for op in variant if keep(op)]
