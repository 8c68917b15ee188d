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
# Values this close are equal up to rounding; a search that cannot tell them apart is degenerate.
DEGENERACY_VALUE_TOL = 1e-9
# Stop rule of ``_sphere_ascent``, which the pair search and ``visibility``
# share: stop when no start's value rises by more than ASCENT_RTOL relative,
# or after ASCENT_MAX_ITER steps.
ASCENT_RTOL = 1e-14
ASCENT_MAX_ITER = 400
# scipy's non-adaptive Nelder-Mead (rho = 1, chi = 2, psi = sigma = 0.5):
# candidate points ``a * xbar - b * worst``, rows (a, b) for the reflection,
# expansion, outside and inside contraction (``a - (-b) * w`` has the bits of
# scipy's ``a + b * w``), the shrink factor, and the initial-simplex steps
# (relative, and absolute for a zero coordinate).
NM_STEPS = np.array([[2, 1], [3, 2], [1.5, 0.5], [0.5, -0.5]])
NM_SIGMA, NM_NONZDELT, NM_ZDELT = 0.5, 0.05, 0.00025


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
    ``(n + 1,)``; both states share each averaged map (``averaged_maps``),
    so the result has the bits of ``trace_distance`` between two
    ``propagate`` trajectories."""
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
    step = np.take(d, range(1, d.shape[-1] + 1), axis=-1, mode="wrap")
    return np.maximum(0.0, np.subtract(step, d, out=step), out=step).sum(axis=-1)


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
    size of its purity oscillation over the cycle.  ``degenerate``: the rate
    is rounding noise, so every direction ties and the Nelder-Mead replay's
    path alone picks the one returned."""

    pair: StatePair
    rate: float
    purity_swing: float
    degenerate: bool


def _angles_to_unit(angles: np.ndarray) -> np.ndarray:
    """Unit vectors of spherical angles (theta, phi) along the last axis."""
    sin, cos = np.sin(angles), np.cos(angles)
    u = np.empty(angles.shape[:-1] + (3,))
    u[..., 0], u[..., 1], u[..., 2] = cos[..., 1] * sin[..., 0], sin[..., 1] * sin[..., 0], cos[..., 0]
    return u


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
    multi-start minimization, and the evaluations ``nfev`` over all starts:
    the evaluations each start's own run would make, not the candidate
    points a batched step evaluates and discards."""

    x: np.ndarray
    fun: np.ndarray
    nfev: int


def minimize(fun, starts, *, xatol: float, fatol: float, maxiter: int, maxfev: int) -> MultiStartResult:
    """Nelder-Mead from every row of ``starts``, all starts in lockstep.

    Each start replays scipy 1.17's non-adaptive ``_minimize_neldermead``
    bit for bit: the same initial simplex, vertex formulas, branch tests,
    sort and convergence test, and the same ``maxiter``/``maxfev`` caps,
    including its abort when ``maxfev`` runs out partway through an
    iteration.  ``fun`` maps an (m, n) array of points to their m values.
    An iteration makes one call for the four candidate points of every
    live start (reflection, expansion, outside and inside contraction) and
    one more for the starts that shrink; ``nfev`` counts only the
    evaluations scipy makes.  A start that converges or reaches a cap
    leaves the batch.  The benchmark's tracer counts evaluations by
    wrapping this name and reading ``nfev``.
    """
    x0 = np.asarray(starts, dtype=float)
    n_starts, n = x0.shape
    # One row per vertex: the point, then its value.
    sim = np.full((n_starts, n + 1, n + 1), np.inf)
    sim[..., :n] = x0[:, None]
    for k in range(n):
        y = sim[:, k + 1, k]
        sim[:, k + 1, k] = np.where(y != 0, (1 + NM_NONZDELT) * y, NM_ZDELT)
    first = min(n + 1, maxfev)
    sim[:, :first, n] = fun(sim[:, :first, :n].reshape(-1, n)).reshape(n_starts, first)
    nfev, rows = np.full(n_starts, first), np.arange(n_starts)
    # scipy sorts the initial simplex twice; an unstable sort may permute ties again.
    for _ in range(2):
        sim = sim[rows[:, None], np.argsort(sim[..., n], axis=1)]
    final, final_nfev, live = np.empty_like(sim), np.empty_like(nfev), rows

    def retire(gone):
        """Write out the finished starts; the live ones and their row indices."""
        final[live[gone]], final_nfev[live[gone]], keep = sim[gone], nfev[gone], ~gone
        return sim[keep], nfev[keep], live[keep], np.arange(np.count_nonzero(keep))

    sim, nfev, live, rows = retire(nfev >= maxfev)
    # scipy's max |v_j - v_0| <= xatol and max |f_0 - f_j| <= fatol, entry by entry (NaN fails both).
    tol = np.append(np.full(n, xatol), fatol)
    iterations = 1
    while len(live) and iterations < maxiter:
        converged = np.logical_and.reduce(np.abs(sim[:, 1:] - sim[:, :1]) <= tol, axis=(1, 2))
        if converged.any():
            sim, nfev, live, rows = retire(converged)
            continue

        xbar = np.add.reduce(sim[:, :-1, :n], 1) / n
        points = NM_STEPS[:, :1] * xbar[:, None] - NM_STEPS[:, 1:] * sim[:, -1:, :n]
        trial = np.concatenate([points, fun(points.reshape(-1, n)).reshape(len(live), -1, 1)], axis=2)
        f, fxr = sim[..., n], trial[:, 0, n]
        expand = fxr < f[:, 0]
        accept = ~expand & (fxr < f[:, -2])
        # The one candidate beyond the reflection that scipy evaluates, and
        # whether it beats the reflection (the worst vertex when inside).
        k = np.where(expand, 1, 3 - (fxr < f[:, -1]))
        fk = trial[rows, k, n]
        better = np.where(k == 3, fk < f[:, -1], np.where(expand, fk < fxr, fk <= fxr))
        tried = ~accept & (nfev < maxfev - 1)
        nfev += 1 + tried
        # An abort before the candidate's evaluation leaves the simplex as it was.
        take = np.where(tried & better, k, np.where(accept | (tried & expand), 0, -1))
        sim[:, -1] = np.where(take[:, None] < 0, sim[:, -1], trial[rows, take])

        shrink = np.flatnonzero(tried & ~better & ~expand)
        if len(shrink):
            # Vertex j moves once j - 1 evaluations succeeded, and is evaluated
            # if the budget allows: an abort leaves it moved with its old value.
            budget = np.minimum(maxfev - nfev[shrink], n)[:, None]
            old, best, j = sim[shrink, 1:], sim[shrink, :1, :n], np.arange(n)
            moved = best + NM_SIGMA * (old[..., :n] - best)
            values = fun(moved.reshape(-1, n)).reshape(len(shrink), n)
            sim[shrink, 1:, :n] = np.where((j <= budget)[..., None], moved, old[..., :n])
            sim[shrink, 1:, n] = np.where(j < budget, values, old[..., n])
            nfev[shrink] += budget[:, 0]

        # scipy does not count an aborted iteration, but then maxfev ends the run anyway.
        iterations += 1
        sim = sim[rows[:, None], np.argsort(sim[..., n], axis=1)]
        exhausted = nfev >= maxfev
        if exhausted.any():
            sim, nfev, live, rows = retire(exhausted)
    retire(np.ones(len(live), dtype=bool))
    return MultiStartResult(final[:, 0, :n], np.min(final[..., n], axis=1), int(np.sum(final_nfev)))


def _sphere_ascent(starts, step) -> MultiStartResult:
    """Lockstep eigenvector ascent on the unit sphere from every row of
    ``starts``.  ``step(u)`` gives the values at the points ``u`` (n, 3) and
    one symmetric matrix each, whose top eigenvector, signed towards ``u``,
    is the next point.  A step need not rise, so each start keeps its best;
    the ascent stops when no best rises by more than ``ASCENT_RTOL``
    relative, or after ``ASCENT_MAX_ITER`` steps.  ``fun`` is the negated
    best, and ``nfev`` counts one evaluation per start and step."""
    u = np.array(starts, dtype=float)
    best_u, best = u.copy(), np.full(len(u), -np.inf)  # the first evaluation counts as a rise
    for iteration in range(ASCENT_MAX_ITER + 1):
        value, matrices = step(u)
        rose = value > best
        best_u[rose] = u[rose]
        previous, best = best, np.maximum(best, value)
        if iteration == ASCENT_MAX_ITER or not np.any(best - previous > ASCENT_RTOL * best):
            break
        top = np.linalg.eigh(matrices)[1][..., -1]
        u = top * np.where(np.vecdot(top, u) < 0.0, -1.0, 1.0)[:, None]
    return MultiStartResult(best_u, -best, (iteration + 1) * len(u))


def _replay(ms: np.ndarray) -> tuple:
    """The Nelder-Mead pair search on the maps ``ms`` (T, 3, 3): every grid
    point refined in spherical angles by ``minimize``, ties going to the
    earliest start.  Returns the best unit vector and its rate.  Its path
    alone picks a degenerate cycle's direction."""

    def neg_rates(angles: np.ndarray) -> np.ndarray:
        return -_cycle_gain(_map_norms(ms, _angles_to_unit(angles)))

    grid = _fibonacci_sphere(SEARCH_GRID_POINTS)
    starts = np.stack([np.arccos(np.clip(grid[:, 2], -1.0, 1.0)), np.arctan2(grid[:, 1], grid[:, 0])], axis=1)
    res = minimize(neg_rates, starts, xatol=1e-12, fatol=1e-14, maxiter=4000, maxfev=8000)
    best = int(np.argmin(res.fun))
    best_u = _angles_to_unit(res.x[best])
    return best_u / np.linalg.norm(best_u), -res.fun[best]


def optimal_pair_search(cycle) -> OptimalPairResult:
    """Antipodal initial pair maximizing the per-cycle backflow rate.

    By linearity an antipodal pair stays antipodal, so the search runs over
    unit vectors.  With the rise pattern ``s_j = [d_{j+1} > d_j]`` of
    ``d_j = |M_j u|`` fixed, the rate is ``sum_j c_j d_j`` with
    ``c_j = s_{j-1} - s_j``, and at a maximizer
    ``(sum_j c_j A_j / d_j) u = lambda u`` with ``A_j = M_j^T M_j``.  That
    matrix (terms with ``d_j = 0`` dropped) is the step of ``_sphere_ascent``
    from a 32-point sphere grid and the eigenvectors of every ``A_j``.  Ties
    go to the earliest start; the rate and the purity swing are read at the
    normalised best direction.  For periods up to 3 the rate is
    ``max d_i - min d_j``, and by Brickman's convexity theorem its maximizer
    is a top eigenvector of ``A_i - mu A_j`` for some ``mu >= 0``, so the
    search is exact there.

    When the best rate is rounding noise, as it always is at period 1, any
    direction maximizes: the direction and rate are then the Nelder-Mead
    replay's (``_replay``), whose path picks the direction.
    """
    ms = np.stack([m.m for m in cycle.maps])
    rate = 0.0
    if cycle.period > 1:
        grams = np.swapaxes(ms, 1, 2) @ ms

        def step(u):
            d = _map_norms(ms, u)
            rises = np.roll(d, -1, axis=1) > d
            c = np.roll(rises, 1, axis=1) - rises.astype(float)
            weights = np.divide(c, d, out=np.zeros_like(d), where=d > 0.0)
            return _cycle_gain(d), np.tensordot(weights, grams, 1)

        eigenvectors = np.swapaxes(np.linalg.eigh(grams)[1], 1, 2).reshape(-1, 3)
        res = _sphere_ascent(np.vstack([_fibonacci_sphere(SEARCH_GRID_POINTS), eigenvectors]), step)
        u = res.x[np.argmin(res.fun)]
        u = u / np.linalg.norm(u)
        rate = float(_cycle_gain(_map_norms(ms, u[None])[0]))
    if rate <= DEGENERACY_VALUE_TOL:
        u, rate = _replay(ms)
    d = _map_norms(ms, u[None])[0]
    pair = StatePair.antipodal(BlochVector.from_array(u))
    return OptimalPairResult(pair, rate, float(np.max(d) - np.min(d)), bool(rate <= DEGENERACY_VALUE_TOL))
