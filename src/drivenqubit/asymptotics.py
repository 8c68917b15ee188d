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

All functions are pure.  The T steady maps refine as one cycle
(``asymptotic_cycle``; ``asymptotic_map`` is its phase K): the window
stops at the first refinement where no phase's map changes by QUAD_TOL.
Each refinement runs in blocks of nodes: one harmonic-major cos/sin table
per block (``bloch._node_values``) gives the period and prefix series of
every phase, the axis projectors of a block are extracted in one batched
pass, and the weighted terms are added as one running sum in node order,
carried from block to block.  So results are reproducible bit for bit and equal a
node-by-node loop run to the cycle's last refinement.

The integrand is 2 pi-periodic, so the spectral average is also a periodic
trapezoid sum over one period with the exact wrapped-normal weights
``(1 + 2 sum_h exp(-h^2 s^2 / 2) cos h(theta - theta_bar)) / N``.  On that
grid, anchored at 0 for every spectrum, the node values depend on neither
s nor theta_bar; only the weights do.  Each phase's fold (``steady_fold``
returns the T of them) takes their cosine coefficients about theta_bar
from one FFT, theta_bar being the phase of each harmonic, so the map at
any width is one dot product with the damping row, which takes no
exponential past h s = 38.7 (every later term is 0.0); a fold serves the
widths whose weights stop at its top harmonic H*, and no others.
Its node count is fixed a priori by the strip where the integrand is
analytic: the projector is a trigonometric polynomial over d(theta) =
3 - tr W(theta), whose roots off the unit circle (``trig_roots``) set the
strip's half-width rho, and the trapezoid rule errs like exp(-rho N)
(Trefethen & Weideman, SIAM Rev. 56, 2014).

The fold reads one axis.  Phase K's rotated period is W_K = P_K P_T P_K^-1,
so its projector is P_K Pi P_K^T and its integrand is P_K Pi, with Pi the
axis projector of the one unshifted period product P_T (phase 0's integrand
is Pi itself).  So one node pass, on the same nodes at every theta_bar,
evaluates P_T and Pi once per node for every phase, on the period's one
node count N; the window keeps the rotated form proj(W_K) P_K.
Calibration reads every bisection width from the phase-0 fold and, for a
protocol with a reference cycle, its residual table from the folds of all
phases, all out of the one pass.

Fold first: in the uniform limit (s >= s*), where the fold is the plain
period mean on 2N nodes, and where the Gaussian window theta_bar -/+ 8 s
spans two periods or more (s >= pi/4), every phase takes the bits of its
fold's map at s before any refinement, and the window runs only where the
fold raises.  Then, and below pi/4, the hand-off: a cycle the window has
not finished at its first refinement of n >= 2N nodes, or at the node
cap, is handed over whole, and every phase takes the bits of its fold's
map at s.  A fold that raises there ends the call; the error names the
phase whose guard failed, the window's node count, s and largest last
change.  The folds run at most once per call: a fold that raised first
hands its error to the hand-off.  rho is solved at most once per call,
from P_T: at once where the cycle folds first, and in the window only
past the smallest 2N of any strip.  At the calibrated s two_controls
converges there, at 128 nodes; three_controls, in both orders, passes 128
unconverged, solves rho = 0.22401 and converges at 512 nodes, its 2N,
without the hand-off.  In the uniform limit both presets fold first, on
256 and 512 nodes.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .bloch import (
    ORDER_PHASE_AFTER,
    BlochMap,
    BlochVector,
    Protocol,
    Spectrum,
    TrigMatrix,
    _damping,
    _node_values,
    _nonzero_pairs,
    product_chain,
    protocol_product,
)
from .errors import ConvergenceError, DomainError, PoleError

ORTHOGONALITY_TOL = 1e-10
# Rotations with trace > 1 and an antisymmetric part of squared norm (4 sin^2
# angle) below this are the identity; any larger part still fixes the axis.
IDENTITY_AXIS_NORM2_TOL = 1e-26
# Crossover to Rodrigues' closed form at a half turn.  The form is exact at
# every trace <= 1; this narrow mask only keeps the bits of the normalised
# antisymmetric part (norm 2|sin angle|) on every other node.
ANTISYMMETRIC_NORM_TOL = 1e-8
# Phase offset used to define the integrand by continuity at isolated
# points where the period map degenerates to the identity.
CONTINUITY_NUDGE = 1e-4

QUAD_PANEL_ORDER = 32
QUAD_MIN_NODES = 64
QUAD_MAX_NODES = 2**16
QUAD_TOL = 1e-10
GAUSSIAN_WINDOW_SIGMAS = 8.0
# The fold's a-priori error target, and its weights' top harmonic H* =
# ceil(FOLD_TAIL / s): past h s = sqrt(80) the damping is below e^-40.
FOLD_TOL = 1e-13
FOLD_TAIL = math.sqrt(80.0)
# Identity points are double roots of 3 - tr W on the unit circle; rounding
# moves them off it by about the square root of the coefficients' error
# relative to the trace (seen up to 6e-7), so roots within this |log|z|| of
# the circle are taken to lie on it.
ON_CIRCLE_TOL = 1e-5
RESOLVENT_DET_TOL = 1e-12
# Bound on |z| max|W|: det(I - zW) sums triple products, which stay finite
# for entries up to about 3e102.
RESOLVENT_MAX_SCALE = 1e100
CESARO_DOUBLINGS = 24
CONVERGENCE_TOL = 1e-2


def _first(bad: np.ndarray):
    """Index of the first True entry of a 1-D mask, or None."""
    where = np.flatnonzero(bad)
    return int(where[0]) if where.size else None


def _matrix_stack(w: np.ndarray) -> np.ndarray:
    """A 3x3 matrix or a stack (..., 3, 3) as a flat stack (n, 3, 3); raises
    DomainError for another shape or a non-finite entry, before any arithmetic."""
    if w.ndim < 2 or w.shape[-2:] != (3, 3):
        raise DomainError(f"expected a 3x3 matrix or a stack of them, got shape {w.shape}")
    stack = w.reshape(-1, 3, 3)
    if (i := _first(~np.isfinite(stack).all(axis=(1, 2)))) is not None:
        raise DomainError(f"matrix {i} has a non-finite entry")
    return stack


def resolvent(w: np.ndarray, z) -> np.ndarray:
    """(I - z W)^-1 by numpy.linalg (LAPACK's LU factorisation).

    W is a 3x3 matrix or a stack (..., 3, 3), and z a number or an array
    broadcast against the stack's leading axes; numpy's linalg calls LAPACK
    once per matrix, so each matrix gets the bits of its own single call.
    Raises DomainError for a non-finite W or z, or for |z| max|W| above
    RESOLVENT_MAX_SCALE, and PoleError when z sits at (or numerically too
    close to) a reciprocal eigenvalue of W, where the determinant vanishes.
    The messages name the first offending matrix or z by its flat index.
    """
    w = np.asarray(w, dtype=float)
    z = np.asarray(z, dtype=complex)
    _matrix_stack(w)
    if (i := _first(~np.isfinite(z.ravel()))) is not None:
        raise DomainError(f"z[{i}] = {z.ravel()[i]} is not finite")
    z = np.broadcast_to(z, np.broadcast_shapes(w.shape[:-2], z.shape))
    # A product past the float range is inf, which the bound rejects.
    with np.errstate(over="ignore"):
        scale = np.ravel(np.abs(z) * np.max(np.abs(w), axis=(-2, -1)))
    if (i := _first(scale > RESOLVENT_MAX_SCALE)) is not None:
        raise DomainError(f"matrix {i}: |z| max|W| = {scale[i]:.3e} exceeds {RESOLVENT_MAX_SCALE:.0e}")
    m = np.eye(3, dtype=complex) - z[..., None, None] * w
    det = np.ravel(np.linalg.det(m))
    if (i := _first(np.abs(det) < RESOLVENT_DET_TOL)) is not None:
        raise PoleError(f"resolvent pole of matrix {i}: |det(I - zW)| = {abs(det[i]):.3e} at z = {z.ravel()[i]}")
    return np.linalg.inv(m)


def _check_rotation(w: np.ndarray):
    """DomainError unless every matrix of the stack (n, 3, 3) is a proper
    rotation; the message names the first matrix that fails the test.  No
    entry of a rotation exceeds 1 in size, so larger ones are rejected
    before W^T W can overflow."""
    size = np.max(np.abs(w), axis=(1, 2))
    if (i := _first(size > 1.0 + ORTHOGONALITY_TOL)) is not None:
        raise DomainError(f"matrix {i} is not orthogonal: max |W_ij| = {size[i]:.3e} > 1")
    defect = np.max(np.abs(w.mT @ w - np.eye(3)), axis=(1, 2))
    if (i := _first(defect > ORTHOGONALITY_TOL)) is not None:
        raise DomainError(f"matrix {i} is not orthogonal: max |W^T W - I| = {defect[i]:.3e}")
    det = np.linalg.det(w)
    if (i := _first(np.abs(det - 1.0) > ORTHOGONALITY_TOL)) is not None:
        raise DomainError(f"matrix {i} is not a proper rotation: det = {det[i]}")


def _axis_projectors(w: np.ndarray):
    """Axis projectors of a stack of proper rotations, shape (n, 3, 3).

    Returns the projectors and the mask of identity maps (trace > 1, no
    antisymmetric part), whose projector is I.  Each projector is u u^T, u the
    normalised antisymmetric part, or at a half turn (trace <= 1, tiny
    antisymmetric part) Rodrigues' closed form; each map gets one-map bits.
    """
    trace = w[:, 0, 0] + w[:, 1, 1] + w[:, 2, 2]
    small_angle = trace > 1.0
    a = np.stack([w[:, 2, 1] - w[:, 1, 2], w[:, 0, 2] - w[:, 2, 0], w[:, 1, 0] - w[:, 0, 1]], -1)
    norm2 = np.vecdot(a, a)
    # np.linalg.norm's bits: the square root of a dot product.
    norm = np.sqrt(norm2)
    identity = small_angle & (norm2 < IDENTITY_AXIS_NORM2_TOL)
    half_turn = ~small_angle & (norm < ANTISYMMETRIC_NORM_TOL)
    u = np.divide(a, norm[:, None], out=np.zeros_like(a), where=~(identity | half_turn)[:, None])
    p = u[:, :, None] * u[:, None, :]
    if half_turn.any():
        # W + W^T = 2 cos(angle) I + (3 - tr W) u u^T; the denominator is about 4 here.
        h, t = w[half_turn], trace[half_turn, None, None]
        p[half_turn] = (h + h.mT - (t - 1.0) * np.eye(3)) / (3.0 - t)
    p[identity] = np.eye(3)
    return p, identity


def abel_limit(w: np.ndarray) -> np.ndarray:
    """Abel mean of the powers of a rotation: lim (1-z) (I - zW)^-1 at z -> 1.

    For a rotation by a nonzero angle about a unit axis u this is the
    spectral projector u u^T onto the eigenvalue-1 eigenspace; for W = I
    (trace > 1 and antisymmetric part below 1e-13) it is the identity.  At
    a half turn (trace <= 1, antisymmetric part below 1e-8) it is Rodrigues'
    closed form (W + W^T - (tr W - 1) I) / (3 - tr W), exact to rounding.
    W is a 3x3 matrix or a stack (..., 3, 3), whose every matrix gets the
    bits of its own single call.  Raises DomainError, naming the first
    offending matrix, for a non-finite entry or a matrix that is not a
    proper rotation.
    """
    w = np.asarray(w, dtype=float)
    stack = _matrix_stack(w)
    _check_rotation(stack)
    return _axis_projectors(stack)[0].reshape(w.shape)


def cesaro_mean(w: np.ndarray) -> np.ndarray:
    """Brute-force Cesaro mean (1/N) sum_{n<N} W^n with N = 2^CESARO_DOUBLINGS.

    Uses the doubling identity S_{2N} = S_N + W^N S_N, so the cost is
    logarithmic in N.  A stack of matrices (n, 3, 3) gives each one's mean.
    Serves as the iteration oracle for abel_limit.
    """
    s = np.eye(3)
    p = np.asarray(w, dtype=float)
    n = 1
    for _ in range(CESARO_DOUBLINGS):
        s = s + p @ s
        p = p @ p
        n *= 2
    return s / n


# Gauss-Legendre rule of one quadrature panel on [-1, 1].
_PANEL_NODES, _PANEL_WEIGHTS = np.polynomial.legendre.leggauss(QUAD_PANEL_ORDER)


def _quad_nodes(sp: Spectrum, n_nodes: int):
    """Composite Gauss-Legendre nodes and normalized weights: uniform over
    one period if ``sp.is_uniform``, else Gaussian over theta_bar -/+ 8 s.
    None for a point value: the window rounds to one float (s = 0, tiny s),
    or every weight underflows (s of one or two subnormals)."""
    panels = max(1, n_nodes // QUAD_PANEL_ORDER)
    uniform = sp.is_uniform
    half = GAUSSIAN_WINDOW_SIGMAS * sp.s
    lo, hi = (0.0, 2.0 * np.pi) if uniform else (sp.theta_bar - half, sp.theta_bar + half)
    if lo == hi:
        return None
    edges = np.linspace(lo, hi, panels + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    half_widths = 0.5 * np.diff(edges)
    nodes = (centers[:, None] + half_widths[:, None] * _PANEL_NODES[None, :]).ravel()
    weights = (half_widths[:, None] * _PANEL_WEIGHTS[None, :]).ravel()
    if not uniform:
        weights = weights * np.exp(-0.5 * ((nodes - sp.theta_bar) / sp.s) ** 2)
    total = np.sum(weights)
    return (nodes, weights / total) if total > 0.0 else None


def _steady_projectors(period: TrigMatrix, theta: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Axis projectors of the period maps ``w`` at an array of phases,
    extended by continuity where W = I: there the mean of the projectors at
    theta -/+ CONTINUITY_NUDGE, and the identity if the map stays I there."""
    p, identity = _axis_projectors(w)
    if identity.any():
        t = theta[identity]
        side, _ = _axis_projectors(
            period.evaluate(np.concatenate([t - CONTINUITY_NUDGE, t + CONTINUITY_NUDGE]))
        )
        p[identity] = 0.5 * (side[: len(t)] + side[len(t) :])
    return p


def _check_phase(K, period: int) -> int:
    """K as an int; DomainError unless it is an integer in [0, period)."""
    try:
        K = operator.index(K)
    except TypeError:
        raise DomainError(f"phase {K!r} is not an integer") from None
    if not 0 <= K < period:
        raise DomainError(f"phase {K} outside [0, {period})")
    return K


def _chain(p: Protocol, order: str) -> list:
    """The products P_0 = I, P_1, ..., P_T of one chain: P_K is phase K's
    prefix, and every phase's period map is conjugate to P_T."""
    return list(itertools.islice(product_chain(p, order), p.period + 1))


def trig_roots(series) -> np.ndarray:
    """Roots in z = e^(i theta) of a scalar trigonometric polynomial.

    ``series[h] = (c_h, s_h)``, shape (H+1, 2), gives
    ``p(theta) = c_0 + sum_h c_h cos(h theta) + s_h sin(h theta)``.  The
    roots are the eigenvalues of the companion matrix of ``z^H p(z)``, of
    degree 2H once the series is trimmed to its top nonzero harmonic: its
    lowest and highest coefficients are then conjugate and nonzero, so no
    root lies at z = 0.  A constant series has none.  Real roots of p lie on
    the unit circle; the others come in pairs z, 1 / conj(z).
    """
    series = np.asarray(series, dtype=float)
    series = series[: _nonzero_pairs(series)]
    top = 0.5 * (series[1:, 0] - 1j * series[1:, 1])
    return np.roots(np.concatenate([top[::-1], series[:1, 0], np.conj(top)]))


def _strip_halfwidth(period: TrigMatrix) -> float:
    """Smallest |log|z|| over the roots of d = 3 - tr W off the unit circle:
    the half-width of the strip where the steady integrand is analytic (inf
    if there is no such root)."""
    d = -np.trace(period.terms, axis1=2, axis2=3)
    d[0, 0] += 3.0
    # Coefficients within rounding of d's largest would only add roots near
    # 0 and infinity, or overflow the companion matrix.
    d[np.abs(d) <= np.finfo(float).eps * np.max(np.abs(d))] = 0.0
    with np.errstate(divide="ignore"):
        depth = np.abs(np.log(np.abs(trig_roots(d))))
    off = depth[depth > ON_CIRCLE_TOL]
    return float(np.min(off)) if off.size else math.inf


@dataclass(frozen=True, eq=False)
class SteadyFold:
    """One phase's steady integrand folded onto one period.

    The integrand is ``P_K(theta) Pi(theta)``, with Pi the axis projector of
    the unshifted period product P_T (the one axis of every phase; phase 0
    is Pi itself).  ``coefficients[h]`` is its h-th cosine coefficient about
    theta_bar (doubled for h >= 1), h <= H*, so the steady map at any width
    s with ``H* >= FOLD_TAIL / s`` is their sum weighted by the damping row
    ``exp(-h^2 s^2 / 2)``; a uniform-limit fold keeps only h = 0.
    ``nodes`` is the period's a-priori count N, the same at every phase:
    the rule runs on the 2N nodes ``2 pi (j + 1/2) / (2N)`` at every
    theta_bar, and ``guard_delta`` bounds the change of the map from the
    rule's N-node half (the even nodes) at every width s >= s_min, s = inf
    included.  ``strip_halfwidth`` is rho.
    """

    coefficients: np.ndarray
    nodes: int
    strip_halfwidth: float
    guard_delta: float

    def map_at(self, s: float) -> np.ndarray:
        """The steady map at width s, shape (3, 3).  Raises DomainError
        where the weights at s need a harmonic above H*: below
        FOLD_TAIL / H*, or for a uniform-limit fold below s*."""
        h_top = len(self.coefficients) - 1
        if not (s > 0.0 and _fold_harmonics(s) <= h_top):
            served = f"widths s >= {FOLD_TAIL / h_top:.6g}" if h_top else "the uniform limit only"
            raise DomainError(f"this fold's weights stop at harmonic {h_top}: it serves {served}, not s = {s}")
        return (_damping(s, h_top) @ self.coefficients.reshape(h_top + 1, 9)).reshape(3, 3)


def _fold_harmonics(s: float) -> int:
    """H*, the weights' top harmonic at a width s > 0: ceil(FOLD_TAIL / s),
    and 0 in the uniform limit, where every harmonic h >= 1 is damped to 0.0."""
    return 0 if _damping(s, 1)[1] == 0.0 else math.ceil(min(FOLD_TAIL / s, QUAD_MAX_NODES))


def _decay(rho: float, period: TrigMatrix) -> int:
    """Harmonics the integrand needs past the weights' and the prefix's:
    Rodrigues' projector (a series of the period's degree over d) is a
    polynomial of the period's degree where d is constant; else its
    coefficients fall like exp(-rho h).  At least 1."""
    if rho < math.inf:
        return math.ceil(min(math.log(1.0 / FOLD_TOL) / rho, QUAD_MAX_NODES))
    return period.max_harmonic + 1


def _fold_count(decay: int, h_top: int, chain: list) -> int:
    """The period's fold node count N = decay + 2 H* + H_P, rounded up to a
    power of 2; H_P is the deepest degree of the prefixes P_0, ..., P_{T-1}
    of ``chain``.  decay = 1 gives the smallest N of any strip, a bound
    that needs no root."""
    h_prefix = max(tm.max_harmonic for tm in chain[:-1])
    return 2 ** max(decay + 2 * h_top + h_prefix - 1, 1).bit_length()


def _folds(chain: list, sp: Spectrum, rho: float):
    """The folds of the T phases for widths from sp.s on, about
    sp.theta_bar, yielded in phase order.  ``chain`` is P_0, ..., P_T and
    rho the strip half-width of P_T.  theta_bar is only the phase of each
    harmonic, so the node pass, N and rho follow from the chain and sp.s;
    in the uniform limit H* = 0 and every such fold is the s = inf fold.
    Raises ConvergenceError, naming rho and N: for the whole cycle, before
    any node, when the 2N nodes exceed QUAD_MAX_NODES, and with the guard
    delta and the phase at the first phase whose guard exceeds QUAD_TOL.

    Every phase folds on the period's N (``_fold_count``) from one node
    pass: per node block the values of P_T and P_1, ..., P_{T-1}
    (``_node_values``), the axis projectors Pi of P_T once, and each
    phase's ``P_K Pi``.  The FFT and the guard run per phase.  The guard,
    ``max_entries sum_h d_h(sp.s) |change_h|``, bounds the change from the
    rule's N-node half at every width s >= sp.s, s = inf included, as
    0 <= d_h(s) <= d_h(sp.s).
    """
    top = chain[-1]
    h_top = _fold_harmonics(sp.s)
    n = _fold_count(_decay(rho, top), h_top, chain)
    where = f"the one-period fold (strip half-width {rho:.3e}, N = {n})"
    if 2 * n > QUAD_MAX_NODES:
        raise ConvergenceError(f"{where} needs {2 * n} nodes, more than {QUAD_MAX_NODES}; its guard did not run")
    theta = np.pi * (2.0 * np.arange(2 * n) + 1.0) / (2 * n)
    values = np.empty((len(chain) - 1, 2 * n, 3, 3))
    for block, sums in _node_values([top, *chain[1:-1]], theta):
        axis = _steady_projectors(top, theta[block], next(sums))
        for K, v in enumerate(values):
            # Phase 0's prefix is I: ``+ 0.0`` gives the +0.0 zeros of the product with it.
            v[block] = axis + 0.0 if K == 0 else next(sums) @ axis
    h = np.arange(h_top + 1)
    scale = np.where(h == 0, 1.0, 2.0)[:, None] / (2 * n)
    # On theta_j = pi (2j + 1) / 2N, sum_j f_j cos h(theta_j - theta_bar) = Re(shift_h F_h);
    # the even nodes alone alias harmonic N - h onto h, through conj(F_{N-h}).
    shift = np.exp(1j * h * (sp.theta_bar - 0.5 * np.pi / n))[:, None]
    row = _damping(sp.s, h_top)
    for K, v in enumerate(values):
        spectrum = np.fft.rfft(v.reshape(2 * n, 9), axis=0)
        coefficients = scale * np.real(shift * spectrum[h])
        change = scale * np.real(shift * np.conj(spectrum[n - h]))
        guard = float(np.max(row @ np.abs(change)))
        if not guard <= QUAD_TOL:
            raise ConvergenceError(f"{where} has guard delta {guard:.3e} at phase {K}, above {QUAD_TOL}")
        yield SteadyFold(coefficients.reshape(-1, 3, 3), n, rho, guard)


def steady_fold(p: Protocol, theta_bar: float, s_min: float, order: str = ORDER_PHASE_AFTER) -> tuple:
    """The one-period folds of the steady integrand at the T phases, for
    every width s >= s_min about the mean phase theta_bar: one node pass
    over the axis of the unshifted period product, on the period's node
    count N.  Phase K's ``map_at(s)`` is the steady map at
    Spectrum(theta_bar, s), as ``asymptotic_cycle`` returns it.  The folds
    agree with the window to its tolerance, and their own error is about
    FOLD_TOL.  Raises DomainError for s_min not positive or theta_bar out
    of range, and ConvergenceError when the rule needs more than
    QUAD_MAX_NODES nodes, or at the first phase that fails its guard,
    which the message names."""
    if not s_min > 0.0:
        raise DomainError(f"the fold needs a smallest width s_min > 0, got {s_min}")
    sp = Spectrum(theta_bar, s_min)  # checks theta_bar
    chain = _chain(p, order)
    return tuple(_folds(chain, sp, _strip_halfwidth(chain[-1])))


@dataclass(frozen=True)
class AsymptoticCycle:
    """The T steady-cycle maps and their middle (y-channel) entries."""

    maps: tuple

    @classmethod
    def from_maps(cls, maps) -> "AsymptoticCycle":
        return cls(tuple(maps))

    @property
    def period(self) -> int:
        return len(self.maps)

    @property
    def y_eigenvalues(self) -> tuple:
        return tuple(float(m.m[1, 1]) for m in self.maps)


def asymptotic_cycle(p: Protocol, sp: Spectrum, order: str = ORDER_PHASE_AFTER) -> AsymptoticCycle:
    """All T steady-cycle maps of a protocol, refined as one cycle.

    Phase K's map is the spectral average of the axis projector of the
    schedule rotated by K (``steps[K:] + steps[:K]``) times the K-step
    prefix.  The window doubles its nodes until no phase's map changes by
    QUAD_TOL entrywise; ``_node_values`` gives each block of nodes every
    phase's rotated period and prefix.  The uniform limit integrates over
    one period, free of theta_bar; where ``_quad_nodes`` gives no nodes
    (s = 0 or tiny s) the maps are point values.  In the uniform limit and
    where a Gaussian window spans two periods (8 s >= 2 pi) the window does
    not run unless the folds raise: the cycle takes its folds' maps first.
    A cycle the window has not finished at its first refinement of 2N
    nodes, or at the cap, takes its folds' maps (the hand-off of the
    module docstring).  A fold that raises there, or that raised first,
    ends the call: its ConvergenceError, which names the failing phase, is
    raised again with the window's node count, s and largest last change.
    """
    chain = _chain(p, order)
    top = chain[-1]
    rho = functools.cache(lambda: _strip_halfwidth(top))
    # The uniform limit, or a Gaussian window of two periods or more: the
    # folds serve first, and the window runs only if they raise.  Their
    # error is kept for the hand-off, so the folds run at most once.
    failed = None
    if sp.is_uniform or GAUSSIAN_WINDOW_SIGMAS * sp.s >= 2.0 * np.pi:
        try:
            return AsymptoticCycle.from_maps(BlochMap(fold.map_at(sp.s)) for fold in _folds(chain, sp, rho()))
        except ConvergenceError as error:
            failed = error
    periods = [
        protocol_product(Protocol(p.steps[K:] + p.steps[:K]), p.period, order) if K else top for K in range(p.period)
    ]
    # In reading order: each phase's rotated period, then its prefix (none for phase 0).
    series = [top] + [tm for K in range(1, p.period) for tm in (periods[K], chain[K])]

    def integrals(nodes, weights):
        acc = np.zeros((p.period, 3, 3))
        for block, values in _node_values(series, nodes):
            w = weights[block, None, None]
            theta = nodes[block]
            for K, period in enumerate(periods):
                proj = _steady_projectors(period, theta, next(values))
                # Phase 0's prefix is I: ``+ 0.0`` gives the +0.0 zeros of the product with it.
                parts = w * (proj + 0.0 if K == 0 else proj @ next(values))
                # A running sum in node order, carried from the previous block.
                parts[0] += acc[K]
                acc[K] = np.add.reduce(parts, axis=0)
        return acc

    # The first refinement changes every map by inf.
    n_nodes, maps = QUAD_MIN_NODES, np.full((p.period, 3, 3), np.inf)
    while (rule := _quad_nodes(sp, n_nodes)) is not None:
        cur = integrals(*rule)
        diff, maps = np.max(np.abs(cur - maps), axis=(1, 2)), cur
        if np.all(diff < QUAD_TOL):
            break
        h_top = _fold_harmonics(sp.s)
        # decay = 1 gives the smallest N of any strip: no root is solved below it.
        ready = n_nodes >= 2 * _fold_count(1, h_top, chain)
        if n_nodes >= QUAD_MAX_NODES or ready and n_nodes >= 2 * _fold_count(_decay(rho(), top), h_top, chain):
            try:
                if failed is not None:
                    raise failed
                maps = [fold.map_at(sp.s) for fold in _folds(chain, sp, rho())]
            except ConvergenceError as error:
                raise ConvergenceError(
                    f"steady-map quadrature did not reach {QUAD_TOL} by {n_nodes} nodes "
                    f"(period {p.period}, s = {sp.s}, largest last change {np.max(diff):.3e}); {error}"
                ) from error
            break
        n_nodes *= 2
    else:
        # The spectral integral is a point value (see _quad_nodes).
        maps = integrals(np.array([sp.theta_bar]), np.ones(1))
    return AsymptoticCycle.from_maps(BlochMap(m) for m in maps)


def asymptotic_map(p: Protocol, sp: Spectrum, K: int, order: str = ORDER_PHASE_AFTER) -> BlochMap:
    """Steady-cycle map at integer driving phase K: phase K of
    ``asymptotic_cycle(p, sp, order)``, so it computes the whole period.
    Raises DomainError unless K is an integer in [0, T), and
    ConvergenceError where a fold of the cycle raises."""
    K = _check_phase(K, p.period)
    return asymptotic_cycle(p, sp, order).maps[K]


def limit_cycle(cycle: AsymptoticCycle, a0: BlochVector) -> np.ndarray:
    """The T states ``M_K a0`` visited asymptotically by an initial Bloch vector, shape (T, 3)."""
    return np.stack([m.m for m in cycle.maps]) @ a0.as_array()


@dataclass(frozen=True)
class ConvergenceProfile:
    """Distances of the driven trajectory from its steady-cycle point."""

    distances: tuple
    converged: bool
    tolerance: float


def convergence_profile(cycle: AsymptoticCycle, trajectory: np.ndarray, K: int) -> ConvergenceProfile:
    """Euclidean distance of a_{mT+K} from the phase-K steady point M_K a_0,
    for every m with mT + K in the trajectory: a ``propagate`` array
    (n + 1, 3) of the cycle's protocol, spectrum and step order.

    The profile is flagged converged when its final entry drops below
    CONVERGENCE_TOL; with a sharp spectrum (s = 0) there is no dephasing and the
    distances need not decay at all.
    """
    K = _check_phase(K, cycle.period)
    if K >= len(trajectory):
        raise DomainError(f"phase {K} lies past a trajectory of {len(trajectory)} states")
    d = trajectory[K :: cycle.period] - cycle.maps[K].m @ trajectory[0]
    # np.linalg.norm's bits: the square root of a dot product.
    distances = tuple(np.sqrt(np.vecdot(d, d)).tolist())
    return ConvergenceProfile(distances, distances[-1] < CONVERGENCE_TOL, CONVERGENCE_TOL)
