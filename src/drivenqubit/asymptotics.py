"""Steady-cycle analysis of the periodically driven dephasing dynamics.

At a fixed environment phase the n-step evolution is a linear recursion of
orthogonal matrices, so its generating function is a resolvent whose only
pole on the unit circle sits at z = 1.  The residue there -- equivalently
the Abel mean of the matrix powers -- is the spectral projector onto the
rotation axis of the one-period product.  Averaging that projector (times
the partial-period prefix) over the environment spectrum yields the
asymptotic map for each integer phase of the driving period: the dynamics
does not relax to a fixed point but to a limit cycle of period T.

Per fixed phase the matrix powers themselves keep rotating; it is the
spectral integral that damps the oscillatory parts (Riemann-Lebesgue), so
the averaged Abel limit is the operative steady-state definition.  It is
validated against a weighted long-run mean of the averaged products of
long-iteration propagation; the products themselves keep a residual
oscillatory error that decays only like 1/sqrt(m) through stationary
points of the rotation angle.

All functions are pure.  Each quadrature refinement runs in blocks of
nodes: the axis projectors of a block are extracted in one batched pass,
and the weighted terms are added as one running sum in node order, carried
from block to block, so results are reproducible bit for bit and equal a
node-by-node loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bloch import (
    ORDER_PHASE_AFTER,
    BlochMap,
    BlochVector,
    Protocol,
    Spectrum,
    TrigMatrix,
    propagate,
    step_matrix,
    trig_compose,
)
from .errors import ConvergenceError, DomainError, PoleError

ORTHOGONALITY_TOL = 1e-10
# Rotations closer to the identity than this (in |trace - 3|) have an
# ill-conditioned axis; they are treated as the identity map.
IDENTITY_TRACE_TOL = 1e-9
# Crossover to the eigenvector-based axis extraction at a half turn: the
# antisymmetric part (norm 2|sin angle|) keeps full relative accuracy down
# to this norm, so the fallback is needed only essentially at angle = pi.
ANTISYMMETRIC_NORM_TOL = 1e-8
# Phase offset used to define the integrand by continuity at isolated
# points where the period map degenerates to the identity.
CONTINUITY_NUDGE = 1e-4

QUAD_PANEL_ORDER = 32
QUAD_MIN_NODES = 64
QUAD_MAX_NODES = 2**16
QUAD_TOL = 1e-10
GAUSSIAN_WINDOW_SIGMAS = 8.0
RESOLVENT_DET_TOL = 1e-12
# Quadrature nodes reduced per block: bounds the (block, 3, 3) buffers to
# about 0.15 MB each.
_QUAD_BLOCK = 2**11


def _det3(m: np.ndarray):
    return (
        m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
        - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
        + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0])
    )


def _adjugate3(m: np.ndarray) -> np.ndarray:
    out = np.empty_like(m)
    out[0, 0] = m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1]
    out[0, 1] = m[0, 2] * m[2, 1] - m[0, 1] * m[2, 2]
    out[0, 2] = m[0, 1] * m[1, 2] - m[0, 2] * m[1, 1]
    out[1, 0] = m[1, 2] * m[2, 0] - m[1, 0] * m[2, 2]
    out[1, 1] = m[0, 0] * m[2, 2] - m[0, 2] * m[2, 0]
    out[1, 2] = m[0, 2] * m[1, 0] - m[0, 0] * m[1, 2]
    out[2, 0] = m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0]
    out[2, 1] = m[0, 1] * m[2, 0] - m[0, 0] * m[2, 1]
    out[2, 2] = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    return out


def resolvent(w: np.ndarray, z: complex) -> np.ndarray:
    """(I - z W)^-1 computed from the adjugate/determinant form.

    Raises PoleError when z sits at (or numerically too close to) a
    reciprocal eigenvalue of W, where the determinant vanishes.
    """
    w = np.asarray(w, dtype=float)
    m = np.eye(3, dtype=complex) - complex(z) * w
    det = _det3(m)
    if abs(det) < RESOLVENT_DET_TOL:
        raise PoleError(f"resolvent pole: |det(I - zW)| = {abs(det):.3e} at z = {z}")
    return _adjugate3(m) / det


def _check_rotation(w: np.ndarray):
    if w.shape != (3, 3):
        raise DomainError(f"expected a 3x3 matrix, got shape {w.shape}")
    defect = float(np.max(np.abs(w.T @ w - np.eye(3))))
    if defect > ORTHOGONALITY_TOL:
        raise DomainError(f"matrix is not orthogonal: max |W^T W - I| = {defect:.3e}")
    det = _det3(w)
    if abs(det - 1.0) > ORTHOGONALITY_TOL:
        raise DomainError(f"matrix is not a proper rotation: det = {det}")


def _axis_projectors(w: np.ndarray):
    """Axis projectors of a stack of proper rotations, shape (n, 3, 3).

    Returns the projectors and the mask of maps within |trace - 3| < 1e-9
    of the identity, whose projector is the identity.  Each axis is the
    normalised antisymmetric part, or at a half turn the dominant
    eigenvector of (W + I) / 2, so every map gets the bits of a one-map call.
    """
    identity = np.abs(w[:, 0, 0] + w[:, 1, 1] + w[:, 2, 2] - 3.0) < IDENTITY_TRACE_TOL
    a = np.stack([w[:, 2, 1] - w[:, 1, 2], w[:, 0, 2] - w[:, 2, 0], w[:, 1, 0] - w[:, 0, 1]], -1)
    # np.linalg.norm's bits: the square root of a dot product.
    norm = np.sqrt(np.vecdot(a, a))
    half_turn = ~identity & (norm < ANTISYMMETRIC_NORM_TOL)
    u = np.divide(a, norm[:, None], out=np.zeros_like(a), where=~(identity | half_turn)[:, None])
    if half_turn.any():
        # Essentially a half turn: W + I ~ 2 u u^T.
        vals, vecs = np.linalg.eigh(0.5 * (w[half_turn] + np.eye(3)))
        u[half_turn] = vecs[np.arange(len(vals)), :, np.argmax(vals, axis=1)]
    p = u[:, :, None] * u[:, None, :]
    p[identity] = np.eye(3)
    return p, identity


def abel_limit(w: np.ndarray) -> np.ndarray:
    """Abel mean of the powers of a rotation: lim (1-z) (I - zW)^-1 at z -> 1.

    For a rotation by a nonzero angle about a unit axis u this is the
    spectral projector u u^T onto the eigenvalue-1 eigenspace; for W = I
    (within |trace - 3| < 1e-9) it is the identity.
    """
    w = np.asarray(w, dtype=float)
    _check_rotation(w)
    return _axis_projectors(w[None])[0][0]


def cesaro_mean(w: np.ndarray, doublings: int = 24) -> np.ndarray:
    """Brute-force Cesaro mean (1/N) sum_{n<N} W^n with N = 2^doublings.

    Uses the doubling identity S_{2N} = S_N + W^N S_N, so the cost is
    logarithmic in N.  Serves as the iteration oracle for abel_limit.
    """
    s = np.eye(3)
    p = np.asarray(w, dtype=float)
    n = 1
    for _ in range(doublings):
        s = s + p @ s
        p = p @ p
        n *= 2
    return s / n


def cyc_shift(factors, k: int) -> list:
    """Cyclically shift the factors of a one-period product by k positions.

    ``factors`` lists the per-step operators in application order (element
    0 acts first), so the represented product is
    ``factors[-1] @ ... @ factors[0]``.  One shift moves the first-applied
    operator to the end of the schedule, i.e. it conjugates the product by
    that operator; k shifts conjugate by the k-step prefix.  Shifting by
    the full period returns the original schedule.
    """
    n = len(factors)
    if not 0 <= k < max(n, 1):
        raise DomainError(f"shift {k} outside [0, {n})")
    return list(factors[k:]) + list(factors[:k])


@dataclass(frozen=True)
class PeriodicRecursion:
    """One period of step generators plus the integer phase of interest.

    ``factors`` are the exact per-step matrices in application order; the
    n-step product for n = m T + K is (shifted period product)^m times the
    K-step prefix, which is the decomposition the asymptotics uses.
    """

    factors: tuple
    phase: int

    def __post_init__(self):
        if len(self.factors) < 1:
            raise DomainError("need at least one factor")
        if not 0 <= self.phase < len(self.factors):
            raise DomainError(f"phase {self.phase} outside [0, {len(self.factors)})")

    @classmethod
    def from_protocol(
        cls, p: Protocol, phase: int, order: str = ORDER_PHASE_AFTER
    ) -> "PeriodicRecursion":
        return cls(tuple(step_matrix(s, order) for s in p.steps), phase)

    @property
    def period(self) -> int:
        return len(self.factors)

    def shifted_product(self) -> TrigMatrix:
        """Exact one-period product after the cyclic shift by the phase."""
        out = TrigMatrix.identity()
        for f in cyc_shift(self.factors, self.phase):
            out = trig_compose(f, out)
        return out

    def prefix_product(self) -> TrigMatrix:
        """Exact product of the first ``phase`` factors."""
        out = TrigMatrix.identity()
        for f in self.factors[: self.phase]:
            out = trig_compose(f, out)
        return out


@lru_cache(maxsize=None)
def _panel_rule(order: int):
    return np.polynomial.legendre.leggauss(order)


def _quad_nodes(sp: Spectrum, n_nodes: int):
    """Composite Gauss-Legendre nodes and normalized spectral weights."""
    x, w = _panel_rule(QUAD_PANEL_ORDER)
    panels = max(1, n_nodes // QUAD_PANEL_ORDER)
    if sp.is_uniform:
        lo, hi = 0.0, 2.0 * np.pi
    else:
        half = GAUSSIAN_WINDOW_SIGMAS * sp.s
        lo, hi = sp.theta_bar - half, sp.theta_bar + half
    edges = np.linspace(lo, hi, panels + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    half_widths = 0.5 * np.diff(edges)
    nodes = (centers[:, None] + half_widths[:, None] * x[None, :]).ravel()
    weights = (half_widths[:, None] * w[None, :]).ravel()
    if not sp.is_uniform:
        weights = weights * np.exp(-0.5 * ((nodes - sp.theta_bar) / sp.s) ** 2)
    return nodes, weights / np.sum(weights)


def _steady_projectors(period: TrigMatrix, theta: np.ndarray) -> np.ndarray:
    """Axis projectors of the period maps at an array of phases, extended by
    continuity where W = I: there the mean of the projectors at
    theta -/+ CONTINUITY_NUDGE, and the identity if the map stays I there."""
    p, identity = _axis_projectors(period.evaluate(theta))
    if identity.any():
        t = theta[identity]
        side, _ = _axis_projectors(
            period.evaluate(np.concatenate([t - CONTINUITY_NUDGE, t + CONTINUITY_NUDGE]))
        )
        p[identity] = 0.5 * (side[: len(t)] + side[len(t) :])
    return p


def asymptotic_map(
    p: Protocol, sp: Spectrum, K: int, order: str = ORDER_PHASE_AFTER
) -> BlochMap:
    """Steady-cycle map at integer driving phase K.

    Computes the spectral average of the axis projector of the cyclically
    shifted one-period product times the K-step prefix.  The quadrature
    doubles its node count until two successive refinements agree to
    1e-10 entrywise (the integrand is piecewise analytic, so this is
    reached quickly); exceeding the node cap raises ConvergenceError.
    """
    rec = PeriodicRecursion.from_protocol(p, K, order)
    period = rec.shifted_product()
    prefix = rec.prefix_product()

    def integral(n_nodes: int) -> np.ndarray:
        nodes, weights = _quad_nodes(sp, n_nodes)
        acc = np.zeros((3, 3))
        for lo in range(0, len(nodes), _QUAD_BLOCK):
            theta = nodes[lo : lo + _QUAD_BLOCK]
            proj = _steady_projectors(period, theta)
            parts = weights[lo : lo + _QUAD_BLOCK, None, None] * (proj @ prefix.evaluate(theta))
            # A running sum in node order, carried from the previous block.
            parts[0] += acc
            acc = np.cumsum(parts, axis=0)[-1]
        return acc

    if sp.s == 0.0:
        # Sharp spectrum: the average is a point evaluation.
        proj = _steady_projectors(period, np.array([sp.theta_bar]))[0]
        return BlochMap(proj @ prefix.evaluate(sp.theta_bar))

    n_nodes = QUAD_MIN_NODES
    prev = integral(n_nodes)
    while n_nodes < QUAD_MAX_NODES:
        n_nodes *= 2
        cur = integral(n_nodes)
        if float(np.max(np.abs(cur - prev))) < QUAD_TOL:
            return BlochMap(cur)
        prev = cur
    diff = float(np.max(np.abs(cur - prev)))
    raise ConvergenceError(
        f"steady-map quadrature did not reach {QUAD_TOL} within {QUAD_MAX_NODES} nodes "
        f"(period {p.period}, phase {K}, s = {sp.s}, last change {diff:.3e})"
    )


@dataclass(frozen=True)
class AsymptoticCycle:
    """The T steady-cycle maps and their middle (y-channel) entries."""

    maps: tuple
    y_eigenvalues: tuple

    @classmethod
    def from_maps(cls, maps) -> "AsymptoticCycle":
        maps = tuple(maps)
        return cls(maps, tuple(float(m.m[1, 1]) for m in maps))

    @property
    def period(self) -> int:
        return len(self.maps)


def asymptotic_cycle(
    p: Protocol, sp: Spectrum, order: str = ORDER_PHASE_AFTER
) -> AsymptoticCycle:
    """All T steady-cycle maps of a protocol."""
    return AsymptoticCycle.from_maps(
        asymptotic_map(p, sp, K, order) for K in range(p.period)
    )


def limit_cycle(
    p: Protocol, sp: Spectrum, a0: BlochVector, order: str = ORDER_PHASE_AFTER
) -> list:
    """The T states visited asymptotically by an initial Bloch vector."""
    return [m.apply(a0) for m in asymptotic_cycle(p, sp, order).maps]


@dataclass(frozen=True)
class ConvergenceProfile:
    """Distances of the driven trajectory from its steady-cycle point."""

    distances: tuple
    converged: bool
    tolerance: float


def convergence_profile(
    p: Protocol,
    sp: Spectrum,
    a0: BlochVector,
    K: int,
    m_max: int,
    order: str = ORDER_PHASE_AFTER,
    tolerance: float = 1e-2,
) -> ConvergenceProfile:
    """Euclidean distance of a_{mT+K} from the phase-K steady point, m <= m_max.

    The profile is flagged converged when its final entry drops below the
    tolerance; with a sharp spectrum (s = 0) there is no dephasing and the
    distances need not decay at all.
    """
    if m_max < 0:
        raise DomainError(f"m_max must be >= 0, got {m_max}")
    target = asymptotic_map(p, sp, K, order).apply(a0).as_array()
    traj = propagate(p, sp, m_max * p.period + K, a0, order)
    distances = tuple(
        float(np.linalg.norm(traj[m * p.period + K].as_array() - target))
        for m in range(m_max + 1)
    )
    return ConvergenceProfile(distances, distances[-1] < tolerance, tolerance)
