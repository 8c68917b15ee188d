"""Visibility of the steady cycle and its maximization over pure states.

The observable footprint of the limit cycle depends on the initial state.
For a two-point cycle the natural size is the squared Euclidean distance
between the two asymptotic states; for a three-point cycle it is the area
spanned by the three asymptotic endpoints (half the norm of the cyclic
cross-product sum).  Both are smooth functions of the initial direction on
the Bloch sphere and are maximized by a multi-start ascent in spherical
angles.  The spherical chart is singular at the poles, so a candidate
landing near one is re-optimized in a rotated frame; definiteness of the
Hessian at a stationary point is invariant under such chart changes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .errors import ConvergenceError, DomainError
from .nonmarkov import _fibonacci_sphere

NEG_DEFINITE = "negative_definite"
NEG_SEMIDEFINITE = "negative_semidefinite"
INDEFINITE = "indefinite"

GRADIENT_STEP = 1e-5
HESSIAN_STEP = 1e-4
STATIONARITY_TOL = 1e-9
HESSIAN_EIG_TOL = 1e-8
POLE_MARGIN = 1e-3
DEGENERACY_VALUE_TOL = 1e-9
N_STARTS = 32

# Fixed frame rotation (quarter turn about y) used to move a polar
# maximizer onto the equator of the working chart.
_POLE_FRAME = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]])


@dataclass(frozen=True)
class SphereAngles:
    """Spherical coordinates of a pure-state direction on the Bloch sphere."""

    theta: float
    phi: float

    def __post_init__(self):
        if not 0.0 <= self.theta <= np.pi:
            raise DomainError(f"theta must lie in [0, pi], got {self.theta}")
        if not 0.0 <= self.phi < 2.0 * np.pi:
            raise DomainError(f"phi must lie in [0, 2 pi), got {self.phi}")

    @classmethod
    def from_vector(cls, v) -> "SphereAngles":
        v = np.asarray(v, dtype=float)
        v = v / np.linalg.norm(v)
        theta = float(np.arccos(np.clip(v[2], -1.0, 1.0)))
        phi = float(np.arctan2(v[1], v[0])) % (2.0 * np.pi)
        if phi >= 2.0 * np.pi:
            # A tiny negative angle can wrap onto 2 pi exactly in floats.
            phi = 0.0
        return cls(theta, phi)

    def unit_vector(self) -> np.ndarray:
        return np.array(
            [
                np.cos(self.phi) * np.sin(self.theta),
                np.sin(self.phi) * np.sin(self.theta),
                np.cos(self.theta),
            ]
        )


def _functional(cycle):
    if cycle.period == 2:
        diff = cycle.maps[0].m - cycle.maps[1].m

        def f(u: np.ndarray) -> float:
            return float(np.dot(diff @ u, diff @ u))

        return f
    if cycle.period == 3:
        mats = [m.m for m in cycle.maps]

        def f(u: np.ndarray) -> float:
            x0, x1, x2 = (m @ u for m in mats)
            total = np.cross(x0, x1) + np.cross(x1, x2) + np.cross(x2, x0)
            return 0.5 * float(np.linalg.norm(total))

        return f
    raise DomainError(f"visibility is defined for periods 2 and 3, got {cycle.period}")


def volume_two(cycle, a: SphereAngles) -> float:
    """Squared distance between the two cycle points reached from ``a``."""
    if cycle.period != 2:
        raise DomainError(f"volume_two needs a period-2 cycle, got {cycle.period}")
    return _functional(cycle)(a.unit_vector())


def volume_three(cycle, a: SphereAngles) -> float:
    """Area spanned by the three cycle points reached from ``a``.

    Half the norm of the cyclic cross-product sum: the area of the
    triangle with the three asymptotic states as vertices (half the
    parallelogram spanned by its edge vectors).
    """
    if cycle.period != 3:
        raise DomainError(f"volume_three needs a period-3 cycle, got {cycle.period}")
    return _functional(cycle)(a.unit_vector())


@dataclass(frozen=True)
class VisibilityMaximum:
    """Result of the visibility maximization."""

    angles: SphereAngles
    direction: np.ndarray
    value: float
    gradient_norm: float
    hessian_eigenvalues: tuple
    verdict: str
    degenerate: bool


def _angles_to_unit(angles: np.ndarray, frame: np.ndarray) -> np.ndarray:
    th, ph = angles
    u = np.array([np.cos(ph) * np.sin(th), np.sin(ph) * np.sin(th), np.cos(th)])
    return frame @ u


def _gradient(g, x: np.ndarray, h: float = GRADIENT_STEP) -> np.ndarray:
    out = np.zeros(2)
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        out[i] = (g(x + e) - g(x - e)) / (2.0 * h)
    return out


def _hessian(g, x: np.ndarray, h: float = HESSIAN_STEP) -> np.ndarray:
    out = np.zeros((2, 2))
    for i in range(2):
        for j in range(2):
            ei = np.zeros(2)
            ej = np.zeros(2)
            ei[i] = h
            ej[j] = h
            out[i, j] = (
                g(x + ei + ej) - g(x + ei - ej) - g(x - ei + ej) + g(x - ei - ej)
            ) / (4.0 * h * h)
    return 0.5 * (out + out.T)


def _refine(f, u_start: np.ndarray, frame: np.ndarray):
    th = float(np.arccos(np.clip((frame.T @ u_start)[2], -1.0, 1.0)))
    ph = float(np.arctan2((frame.T @ u_start)[1], (frame.T @ u_start)[0]))

    def neg(angles):
        return -f(_angles_to_unit(angles, frame))

    res = minimize(
        neg,
        np.array([th, ph]),
        method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-15, "maxiter": 5000, "maxfev": 10000},
    )
    return -float(res.fun), np.asarray(res.x)


def maximize_visibility(cycle) -> VisibilityMaximum:
    """Maximize the cycle's visibility over pure initial states.

    Multi-start ascent from a 32-point sphere grid with derivative-free
    refinement, followed by Newton polishing on central-difference
    derivatives until the gradient norm drops below 1e-9.  Returns the
    best maximizer, its value, and the definiteness verdict of the 2x2
    numerical Hessian in the working chart (negative eigenvalue within
    1e-8 of zero counts as semidefinite).  The result is flagged
    degenerate when distinct, non-antipodal maximizers tie with the best
    value to within 1e-9.
    """
    f = _functional(cycle)
    eye = np.eye(3)

    candidates = []
    for u0 in _fibonacci_sphere(N_STARTS):
        value, angles = _refine(f, u0, eye)
        candidates.append((value, _angles_to_unit(angles, eye)))

    best_value, best_u = max(candidates, key=lambda c: c[0])

    # Re-optimize in a rotated chart whenever the maximizer sits too close
    # to a pole of the working chart for stable derivatives.
    frame = eye
    if abs(best_u[2]) > np.cos(POLE_MARGIN):
        frame = _POLE_FRAME
        best_value, angles = _refine(f, best_u, frame)
        best_u = _angles_to_unit(angles, frame)

    def g(angles):
        return f(_angles_to_unit(angles, frame))

    x = np.array(
        [
            float(np.arccos(np.clip((frame.T @ best_u)[2], -1.0, 1.0))),
            float(np.arctan2((frame.T @ best_u)[1], (frame.T @ best_u)[0])),
        ]
    )
    grad = _gradient(g, x)
    for _ in range(100):
        if np.linalg.norm(grad) < STATIONARITY_TOL:
            break
        hess = _hessian(g, x)
        try:
            delta = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            delta = -grad
        if np.linalg.norm(delta) > 0.1:
            delta *= 0.1 / np.linalg.norm(delta)
        x_new = x + delta
        if g(x_new) < g(x) - 1e-15:
            # Newton overshoot on a non-concave patch; damp it.
            x_new = x + 0.25 * delta
        x = x_new
        grad = _gradient(g, x)
    else:
        raise ConvergenceError(
            f"visibility polish stalled with |grad| = {np.linalg.norm(grad):.3e}"
        )

    best_u = _angles_to_unit(x, frame)
    best_value = f(best_u)
    hess = _hessian(g, x)
    eigs = np.linalg.eigvalsh(hess)
    if np.all(eigs < -HESSIAN_EIG_TOL):
        verdict = NEG_DEFINITE
    elif np.all(eigs <= HESSIAN_EIG_TOL):
        verdict = NEG_SEMIDEFINITE
    else:
        verdict = INDEFINITE

    top = [c for c in candidates if c[0] >= best_value - DEGENERACY_VALUE_TOL]
    clusters = []
    for _, u in top:
        if not any(abs(np.dot(u, v)) > 1.0 - 1e-6 for v in clusters):
            clusters.append(u)
    degenerate = len(clusters) >= 2

    return VisibilityMaximum(
        angles=SphereAngles.from_vector(best_u),
        direction=best_u / np.linalg.norm(best_u),
        value=best_value,
        gradient_norm=float(np.linalg.norm(grad)),
        hessian_eigenvalues=tuple(float(e) for e in eigs),
        verdict=verdict,
        degenerate=degenerate,
    )
