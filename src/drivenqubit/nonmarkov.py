"""Trace-distance dynamics and information backflow of the driven qubit.

For qubits the trace distance is half the Euclidean distance of the Bloch
vectors, so distinguishability can be tracked directly on trajectories.
The non-Markovianity measure used here sums all positive one-step
increments of the trace distance (the discrete-time transcription of the
information-backflow quantifier).  Because the steady state is a limit
cycle rather than a fixed point, the distance keeps oscillating forever;
whenever the per-cycle positive increments do not cancel, the measure
grows without bound, linearly in the number of cycles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bloch import ORDER_PHASE_AFTER, BlochVector, Protocol, Spectrum, averaged_maps
from .errors import DomainError

# Resolution of the search grid.
SEARCH_GRID_POINTS = 32
# scipy's non-adaptive Nelder-Mead: reflection, expansion, contraction and
# shrink coefficients, and the initial-simplex steps (relative, and absolute
# for a zero coordinate).
NM_RHO, NM_CHI, NM_PSI, NM_SIGMA = 1, 2, 0.5, 0.5
NM_NONZDELT, NM_ZDELT = 0.05, 0.00025


@dataclass(frozen=True)
class StatePair:
    """A pair of qubit states evolved jointly for distinguishability."""

    a_plus: BlochVector
    a_minus: BlochVector

    @classmethod
    def antipodal(cls, a: BlochVector) -> "StatePair":
        return cls(a, -a)


def trace_distance(x: BlochVector, y: BlochVector) -> float:
    """Half the Euclidean distance of the Bloch vectors."""
    return 0.5 * float(np.linalg.norm(x.as_array() - y.as_array()))


def trace_distance_povm(x: BlochVector, y: BlochVector, f: BlochVector) -> float:
    """Distinguishability witnessed by the measurement effect (1 + f.sigma)/2.

    Returns ``f . (x - y) / 2``, which never exceeds the trace distance and
    attains it exactly when f is the unit vector along x - y.  The norm
    bound on f is enforced by the BlochVector type itself.
    """
    return 0.5 * float(np.dot(f.as_array(), x.as_array() - y.as_array()))


def pair_distances(
    p: Protocol,
    sp: Spectrum,
    pair: StatePair,
    n: int,
    order: str = ORDER_PHASE_AFTER,
) -> np.ndarray:
    """Trace distance of the jointly evolved pair after 0..n steps, shape
    ``(n + 1,)``; both states share each averaged map."""
    ms = averaged_maps(p, sp, n, order)
    plus, minus = pair.a_plus.as_array(), pair.a_minus.as_array()
    diff = np.vstack([plus - minus, ms @ plus - ms @ minus])
    # trace_distance's bits: half the square root of a dot product.
    return 0.5 * np.sqrt(np.vecdot(diff, diff))


def blp_accumulate(d) -> float:
    """Sum of the positive increments of a non-empty trace-distance sequence,
    such as ``pair_distances``; one entry (no step) gives 0.0."""
    d = np.asarray(d, dtype=float)
    if d.ndim != 1 or not d.size:
        raise DomainError(f"expected a non-empty 1-D distance sequence, got shape {d.shape}")
    return float(np.sum(np.maximum(0.0, np.diff(d))))


def _map_norms(ms: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``|M_i u|`` of stacked maps (T, 3, 3) and each row of u (n, 3), shape
    (n, T), with the bits of the per-map ``np.linalg.norm(m.m @ u)``."""
    v = np.matmul(ms[None], u[:, None, :, None])[..., 0]
    return np.sqrt(np.vecdot(v, v))


def _cycle_gain(d: np.ndarray) -> np.ndarray:
    """Sum of the positive increments along the last axis, wrap-around included."""
    return np.maximum(0.0, np.concatenate([d[..., 1:], d[..., :1]], axis=-1) - d).sum(axis=-1)


def asymptotic_blp_rate(cycle, pair: StatePair) -> float:
    """Per-cycle growth of the backflow measure in the steady cycle.

    Sums the positive increments of the trace distance around one full
    period, including the wrap-around increment back into phase 0 of the
    next cycle (asymptotically the phase-0 distance repeats).
    """
    ms = np.stack([m.m for m in cycle.maps])
    diff = pair.a_plus.as_array() - pair.a_minus.as_array()
    return float(_cycle_gain(0.5 * _map_norms(ms, diff[None])[0]))


@dataclass(frozen=True)
class OptimalPairResult:
    """Best antipodal pair found, its per-cycle backflow rate, and the
    size of its purity oscillation over the cycle."""

    pair: StatePair
    rate: float
    purity_swing: float


def _angles_to_unit(angles: np.ndarray) -> np.ndarray:
    """Unit vectors of spherical angles (theta, phi) along the last axis."""
    th, ph = angles[..., 0], angles[..., 1]
    return np.stack([np.cos(ph) * np.sin(th), np.sin(ph) * np.sin(th), np.cos(th)], axis=-1)


def _fibonacci_sphere(n: int) -> np.ndarray:
    """Deterministic quasi-uniform unit vectors for multi-start searches."""
    i = np.arange(n)
    z = 1.0 - (2.0 * i + 1.0) / n
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    golden = np.pi * (3.0 - np.sqrt(5.0))
    return np.stack([r * np.cos(golden * i), r * np.sin(golden * i), z], axis=1)


@dataclass(frozen=True)
class MultiStartResult:
    """Best point ``x`` and its value ``fun`` per start of a lockstep
    multi-start minimization, and the evaluations ``nfev`` over all starts."""

    x: np.ndarray
    fun: np.ndarray
    nfev: int


def minimize(fun, starts, *, xatol: float, fatol: float, maxiter: int, maxfev: int) -> MultiStartResult:
    """Nelder-Mead from every row of ``starts``, all starts in lockstep.

    Each start replays scipy 1.17's non-adaptive ``_minimize_neldermead``
    bit for bit: the same initial simplex, vertex formulas, branch tests,
    sort and convergence test, and the same ``maxiter``/``maxfev`` caps,
    including its abort when ``maxfev`` runs out partway through an
    iteration.  ``fun`` maps an (m, n) array of points to their m values;
    each group of evaluations in an iteration is one call.  The benchmark's
    tracer counts evaluations by wrapping this name and reading ``nfev``.
    """
    x0 = np.asarray(starts, dtype=float)
    n_starts, n = x0.shape
    sim = np.repeat(x0[:, None, :], n + 1, axis=1)
    for k in range(n):
        y = sim[:, k + 1, k]
        sim[:, k + 1, k] = np.where(y != 0, (1 + NM_NONZDELT) * y, NM_ZDELT)
    fsim = np.full((n_starts, n + 1), np.inf)
    first = min(n + 1, maxfev)
    fsim[:, :first] = fun(sim[:, :first].reshape(-1, n)).reshape(n_starts, first)
    nfev = np.full(n_starts, first)
    iterations = np.ones(n_starts, dtype=int)
    # scipy sorts the initial simplex twice; an unstable sort may permute ties again.
    for _ in range(2):
        _sort_simplices(sim, fsim, np.arange(n_starts))
    converged = np.zeros(n_starts, dtype=bool)
    while True:
        rows = np.flatnonzero(~converged & (nfev < maxfev) & (iterations < maxiter))
        if not len(rows):
            break
        s, f = sim[rows], fsim[rows]
        done = (np.max(np.abs(s[:, 1:] - s[:, :1]), axis=(1, 2)) <= xatol) & (
            np.max(np.abs(f[:, :1] - f[:, 1:]), axis=1) <= fatol
        )
        converged[rows[done]] = True
        rows, s, f = rows[~done], s[~done], f[~done]

        xbar = np.add.reduce(s[:, :-1], 1) / n
        worst = s[:, -1]
        xr = (1 + NM_RHO) * xbar - NM_RHO * worst
        fxr = fun(xr)
        nfev[rows] += 1
        expand = fxr < f[:, 0]
        accept_r = ~expand & (fxr < f[:, -2])
        outside = ~expand & ~accept_r & (fxr < f[:, -1])
        inside = ~expand & ~accept_r & ~outside
        # One trial point per start beyond the reflection: expansion or a contraction.
        trial = np.where(
            expand[:, None],
            (1 + NM_RHO * NM_CHI) * xbar - NM_RHO * NM_CHI * worst,
            np.where(
                outside[:, None],
                (1 + NM_PSI * NM_RHO) * xbar - NM_PSI * NM_RHO * worst,
                (1 - NM_PSI) * xbar + NM_PSI * worst,
            ),
        )
        tried = ~accept_r & (nfev[rows] < maxfev)
        ftrial = np.full(len(rows), np.nan)
        ftrial[tried] = fun(trial[tried])
        nfev[rows[tried]] += 1

        take_trial = tried & (
            (expand & (ftrial < fxr)) | (outside & (ftrial <= fxr)) | (inside & (ftrial < f[:, -1]))
        )
        take_r = accept_r | (tried & expand & ~take_trial)
        s[take_r, -1], f[take_r, -1] = xr[take_r], fxr[take_r]
        s[take_trial, -1], f[take_trial, -1] = trial[take_trial], ftrial[take_trial]

        shrink = np.flatnonzero(tried & ~expand & ~take_trial)
        if len(shrink):
            # Vertex j moves once j - 1 evaluations succeeded, and is evaluated
            # if the budget allows: an abort leaves it moved with its old value.
            budget = (maxfev - nfev[rows[shrink]])[:, None]
            j = np.arange(1, n + 1)[None, :]
            moved, evaluated = j <= budget + 1, j <= budget
            best = s[shrink, :1]
            shrunk = np.where(moved[..., None], best + NM_SIGMA * (s[shrink, 1:] - best), s[shrink, 1:])
            fshrunk = f[shrink, 1:].copy()
            fshrunk[evaluated] = fun(shrunk[evaluated])
            s[shrink, 1:], f[shrink, 1:] = shrunk, fshrunk
            nfev[rows[shrink]] += evaluated.sum(axis=1)

        # scipy does not count an aborted iteration, but then maxfev ends the run anyway.
        iterations[rows] += 1
        sim[rows], fsim[rows] = s, f
        _sort_simplices(sim, fsim, rows)
    return MultiStartResult(sim[:, 0], np.min(fsim, axis=1), int(np.sum(nfev)))


def _sort_simplices(sim: np.ndarray, fsim: np.ndarray, rows: np.ndarray) -> None:
    """Order the vertices of the given simplices by value, with the sort
    scipy applies to one simplex."""
    ind = np.argsort(fsim[rows], axis=1)
    fsim[rows], sim[rows] = fsim[rows[:, None], ind], sim[rows[:, None], ind]


def optimal_pair_search(cycle) -> OptimalPairResult:
    """Antipodal initial pair maximizing the per-cycle backflow rate.

    By linearity an antipodal pair stays antipodal, so the trace distance
    reduces to the evolved norm and the search runs over unit vectors
    only.  Multi-start: every point of a 32-point sphere grid is refined
    locally in spherical angles by Nelder-Mead, all starts in lockstep with
    one batched rate evaluation per group of trial points.  The objective
    can be non-smooth where an increment changes sign, hence the
    derivative-free refinement.  Ties go to the earliest start.
    """
    ms = np.stack([m.m for m in cycle.maps])

    def neg_rates(angles: np.ndarray) -> np.ndarray:
        return -_cycle_gain(_map_norms(ms, _angles_to_unit(angles)))

    grid = _fibonacci_sphere(SEARCH_GRID_POINTS)
    starts = np.stack([np.arccos(np.clip(grid[:, 2], -1.0, 1.0)), np.arctan2(grid[:, 1], grid[:, 0])], axis=1)
    res = minimize(neg_rates, starts, xatol=1e-12, fatol=1e-14, maxiter=4000, maxfev=8000)
    best = int(np.argmin(res.fun))
    best_rate = -res.fun[best]
    best_u = _angles_to_unit(res.x[best])
    best_u = best_u / np.linalg.norm(best_u)
    d = _map_norms(ms, best_u[None])[0]
    pair = StatePair.antipodal(BlochVector.from_array(best_u))
    return OptimalPairResult(pair, best_rate, float(np.max(d) - np.min(d)))
