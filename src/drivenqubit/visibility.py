"""Visibility of the steady cycle and its maximization over pure states.

The observable footprint of the limit cycle depends on the initial state.
For a two-point cycle the natural size is the squared Euclidean distance
between the two asymptotic states; for a three-point cycle it is the area
spanned by the three asymptotic endpoints (half the norm of the cyclic
cross-product sum).  Both have one form, ``c |q(u)|`` with the quadratic
forms ``q_k(u) = u^T Q_k u`` of the initial direction ``u``:

* period 2: ``Q = D^T D`` with ``D = M_0 - M_1`` and ``c = 1``;
* period 3: ``Q_k = sym(D_1^T eps_k D_2)`` with ``D_i = M_i - M_0``, the
  Levi-Civita matrix ``eps_k`` of axis k and ``c = 1/2``.  This equals
  ``sym(sum_i M_i^T eps_k M_{i+1})``, since ``(x_1 - x_0) x (x_2 - x_0)`` is
  the cyclic cross-product sum, and is exactly 0 when the maps are equal.

The period-2 maximum is the top eigenpair of ``Q``.  The period-3 maximum
is a multi-start alternating ascent on the sphere (see ``minimize``),
finished by Newton steps in the tangent plane.  Gradient and Hessian at
the result are the analytic Riemannian ones on the sphere, in an
orthonormal basis of the tangent plane.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .nonmarkov import (
    ASCENT_RTOL,
    DEGENERACY_VALUE_TOL,
    SEARCH_GRID_POINTS,
    MultiStartResult,
    _angles_to_unit,
    _fibonacci_sphere,
    _sphere_ascent,
)

NEG_DEFINITE = "negative_definite"
NEG_SEMIDEFINITE = "negative_semidefinite"
INDEFINITE = "indefinite"

STATIONARITY_TOL = 1e-9
HESSIAN_EIG_TOL = 1e-8

# _LEVI_CIVITA[k] is the matrix eps_k with (a x b)_k = a^T eps_k b.
_LEVI_CIVITA = np.moveaxis(np.cross(np.eye(3)[:, None], np.eye(3)), -1, 0)


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
        with np.errstate(over="ignore"):
            norm = np.linalg.norm(v)
        if norm in (0.0, np.inf) and np.isfinite(v).all() and v.any():
            # |v| under- or overflowed: measure v in units of its largest
            # component.  Every other vector keeps the bits of v / |v|.
            v = v / np.abs(v).max()
            norm = np.linalg.norm(v)
        if not 0.0 < norm < np.inf:
            raise DomainError("direction must be a nonzero finite vector")
        v = v / norm
        theta = float(np.arccos(np.clip(v[2], -1.0, 1.0)))
        phi = float(np.arctan2(v[1], v[0])) % (2.0 * np.pi)
        if phi >= 2.0 * np.pi:
            # A tiny negative angle can wrap onto 2 pi exactly in floats.
            phi = 0.0
        return cls(theta, phi)

    def unit_vector(self) -> np.ndarray:
        return _angles_to_unit(np.array([self.theta, self.phi]))


def _forms(cycle):
    """Quadratic forms ``Q`` (shape (K, 3, 3)) and scale ``c`` of the
    cycle's visibility ``c |q(u)|``, ``q_k(u) = u^T Q_k u``."""
    mats = [m.m for m in cycle.maps]
    if cycle.period == 2:
        d = mats[0] - mats[1]
        return (d.T @ d)[None], 1.0
    if cycle.period == 3:
        d1, d2 = mats[1] - mats[0], mats[2] - mats[0]
        forms = d1.T @ _LEVI_CIVITA @ d2
        return 0.5 * (forms + np.swapaxes(forms, 1, 2)), 0.5
    raise DomainError(f"visibility is defined for periods 2 and 3, got {cycle.period}")


def _value(forms: np.ndarray, c: float, u: np.ndarray) -> float:
    return c * float(np.linalg.norm(u @ forms @ u))


def volume(cycle, a: SphereAngles) -> float:
    """Visibility of the cycle points reached from ``a``: their squared
    distance for period 2, the area of their triangle for period 3."""
    return _value(*_forms(cycle), a.unit_vector())


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


def _tangent_basis(u: np.ndarray) -> np.ndarray:
    """Orthonormal basis (3 x 2) of the tangent plane at the unit vector u."""
    return np.linalg.svd(u[None, :])[2][1:].T


def _sphere_derivatives(forms: np.ndarray, c: float, u: np.ndarray):
    """Riemannian gradient and Hessian of ``c |q|`` at the unit vector u,
    in the basis ``_tangent_basis(u)``."""
    q = u @ forms @ u
    norm = float(np.linalg.norm(q))
    if norm == 0.0:
        # q vanishes at a maximizer only when it vanishes on the whole
        # sphere, that is when every form is zero.
        return np.zeros(2), np.zeros((2, 2))
    n = q / norm
    jac = 2.0 * (forms @ u)
    grad = c * (n @ jac)
    perp = np.eye(len(q)) - np.outer(n, n)
    hess = c * (jac.T @ perp @ jac / norm + 2.0 * np.tensordot(n, forms, 1))
    basis = _tangent_basis(u)
    # The sphere's curvature adds -(u . grad) to the projected Hessian.
    return basis.T @ grad, basis.T @ hess @ basis - float(u @ grad) * np.eye(2)


def minimize(forms: np.ndarray, starts: np.ndarray) -> MultiStartResult:
    """Minimize ``-|q(u)|`` over unit vectors from every row of ``starts``
    with ``nonmarkov._sphere_ascent``; ``nfev`` counts form evaluations.

    ``|q(u)| = max_{|n|=1} u^T (sum_k n_k Q_k) u``, so each step takes
    ``n = q(u)/|q(u)|`` (``n = 0`` where ``q(u) = 0``) and then the top
    eigenvector of ``sum_k n_k Q_k``, and neither step can lower ``|q|`` (a
    relative of the shifted power method for symmetric tensors).  Without a
    stop tolerance the values oscillate at rounding level, so each start
    keeps its best under the ascent's relative stop rule.
    """

    def step(u):
        q = np.vecdot(u @ forms, u).T
        value = np.linalg.norm(q, axis=1)
        n = np.divide(q, value[:, None], out=np.zeros_like(q), where=value[:, None] > 0.0)
        return value, np.tensordot(n, forms, 1)

    return _sphere_ascent(starts, step)


def maximize_visibility(cycle) -> VisibilityMaximum:
    """Maximize the cycle's visibility over pure initial states.

    Period 2 takes the top eigenpair of ``D^T D``; the maximum is flagged
    degenerate when the top two eigenvalues are within 1e-9.  Period 3
    ascends from a 32-point sphere grid with ``minimize``; ties to rounding
    go to the earliest start, and the maximum is flagged degenerate when
    distinct, non-antipodal maximizers tie with the best to within 1e-9.
    Returns the maximizer, its value, the norm of the Riemannian gradient
    there (``ConvergenceError`` unless below 1e-9) and the definiteness
    verdict of the 2x2 Riemannian Hessian in an orthonormal tangent basis
    (an eigenvalue within 1e-8 of zero counts as semidefinite).
    """
    forms, c = _forms(cycle)
    if cycle.period == 2:
        vals, vecs = np.linalg.eigh(forms[0])
        best_u = vecs[:, -1]
        degenerate = bool(vals[-1] - vals[-2] <= DEGENERACY_VALUE_TOL)
        grad, hess = _sphere_derivatives(forms, c, best_u)
    else:
        res = minimize(forms, _fibonacci_sphere(SEARCH_GRID_POINTS))
        values = -c * res.fun
        best = np.max(values)
        best_u = res.x[np.argmax(values >= (1.0 - ASCENT_RTOL) * best)]
        top = res.x[values >= best - DEGENERACY_VALUE_TOL]
        degenerate = bool(np.any(np.abs(top @ top[0]) <= 1.0 - 1e-6))
        # The alternating ascent converges only linearly, so Newton steps in
        # the tangent plane finish the best maximizer: one always, more
        # while the gradient is not yet stationary and the last step lowered it.
        grad, hess = _sphere_derivatives(forms, c, best_u)
        while True:
            last = np.linalg.norm(grad)
            best_u = best_u + _tangent_basis(best_u) @ np.linalg.lstsq(hess, -grad, rcond=None)[0]
            best_u /= np.linalg.norm(best_u)
            grad, hess = _sphere_derivatives(forms, c, best_u)
            if not STATIONARITY_TOL <= np.linalg.norm(grad) < last:
                break

    gradient_norm = float(np.linalg.norm(grad))
    if gradient_norm >= STATIONARITY_TOL:
        raise ConvergenceError(f"visibility ascent stalled with |grad| = {gradient_norm:.3e}")
    eigs = np.linalg.eigvalsh(hess)
    if np.all(eigs < -HESSIAN_EIG_TOL):
        verdict = NEG_DEFINITE
    elif np.all(eigs <= HESSIAN_EIG_TOL):
        verdict = NEG_SEMIDEFINITE
    else:
        verdict = INDEFINITE

    return VisibilityMaximum(
        angles=SphereAngles.from_vector(best_u),
        direction=best_u,
        value=_value(forms, c, best_u),
        gradient_norm=gradient_norm,
        hessian_eigenvalues=tuple(float(e) for e in eigs),
        verdict=verdict,
        degenerate=degenerate,
    )
