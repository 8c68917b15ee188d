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
from scipy.optimize import minimize

from .bloch import ORDER_PHASE_AFTER, BlochVector, Protocol, Spectrum, averaged_maps
from .errors import DomainError

# Antipodal-pair tolerance and the resolution of the search grid.
ANTIPODAL_TOL = 1e-12
SEARCH_GRID_POINTS = 32


@dataclass(frozen=True)
class StatePair:
    """A pair of qubit states evolved jointly for distinguishability."""

    a_plus: BlochVector
    a_minus: BlochVector

    @classmethod
    def antipodal(cls, a: BlochVector) -> "StatePair":
        return cls(a, -a)

    @property
    def is_antipodal(self) -> bool:
        return bool(
            np.max(np.abs(self.a_plus.as_array() + self.a_minus.as_array()))
            <= ANTIPODAL_TOL
        )

    def swapped(self) -> "StatePair":
        return StatePair(self.a_minus, self.a_plus)


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
    """Trace distance of the jointly evolved pair after 0..n steps; both
    states share each averaged map."""
    d = [trace_distance(pair.a_plus, pair.a_minus)]
    for m in averaged_maps(p, sp, n, order):
        d.append(trace_distance(m.apply(pair.a_plus), m.apply(pair.a_minus)))
    return np.array(d)


def blp_accumulate(
    p: Protocol,
    sp: Spectrum,
    pair: StatePair,
    n: int,
    order: str = ORDER_PHASE_AFTER,
) -> float:
    """Sum of the positive trace-distance increments over the first n steps."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    d = pair_distances(p, sp, pair, n, order)
    return float(np.sum(np.maximum(0.0, np.diff(d))))


def _cycle_distances(cycle, pair: StatePair) -> np.ndarray:
    plus = pair.a_plus.as_array()
    minus = pair.a_minus.as_array()
    return np.array([0.5 * np.linalg.norm(m.m @ (plus - minus)) for m in cycle.maps])


def asymptotic_blp_rate(cycle, pair: StatePair) -> float:
    """Per-cycle growth of the backflow measure in the steady cycle.

    Sums the positive increments of the trace distance around one full
    period, including the wrap-around increment back into phase 0 of the
    next cycle (asymptotically the phase-0 distance repeats).
    """
    d = _cycle_distances(cycle, pair)
    increments = np.roll(d, -1) - d
    return float(np.sum(np.maximum(0.0, increments)))


@dataclass(frozen=True)
class OptimalPairResult:
    """Best antipodal pair found, its per-cycle backflow rate, and the
    size of its purity oscillation over the cycle."""

    pair: StatePair
    rate: float
    purity_swing: float


def _angles_to_unit(angles: np.ndarray) -> np.ndarray:
    th, ph = angles
    return np.array(
        [np.cos(ph) * np.sin(th), np.sin(ph) * np.sin(th), np.cos(th)]
    )


def _fibonacci_sphere(n: int) -> np.ndarray:
    """Deterministic quasi-uniform unit vectors for multi-start searches."""
    i = np.arange(n)
    z = 1.0 - (2.0 * i + 1.0) / n
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    golden = np.pi * (3.0 - np.sqrt(5.0))
    return np.stack([r * np.cos(golden * i), r * np.sin(golden * i), z], axis=1)


def optimal_pair_search(cycle) -> OptimalPairResult:
    """Antipodal initial pair maximizing the per-cycle backflow rate.

    By linearity an antipodal pair stays antipodal, so the trace distance
    reduces to the evolved norm and the search runs over unit vectors
    only.  Multi-start: every point of a 32-point sphere grid is refined
    locally in spherical angles.  The objective can be non-smooth where an
    increment changes sign, hence the derivative-free refinement.
    """

    def rate_of(u: np.ndarray) -> float:
        d = np.array([np.linalg.norm(m.m @ u) for m in cycle.maps])
        return float(np.sum(np.maximum(0.0, np.roll(d, -1) - d)))

    best_u, best_rate = None, -1.0
    for start in _fibonacci_sphere(SEARCH_GRID_POINTS):
        th = float(np.arccos(np.clip(start[2], -1.0, 1.0)))
        ph = float(np.arctan2(start[1], start[0]))
        res = minimize(
            lambda ang: -rate_of(_angles_to_unit(ang)),
            np.array([th, ph]),
            method="Nelder-Mead",
            options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 4000, "maxfev": 8000},
        )
        if -res.fun > best_rate:
            best_rate = -res.fun
            best_u = _angles_to_unit(res.x)
    best_u = best_u / np.linalg.norm(best_u)
    d = np.array([np.linalg.norm(m.m @ best_u) for m in cycle.maps])
    pair = StatePair.antipodal(BlochVector.from_array(best_u))
    return OptimalPairResult(pair, best_rate, float(np.max(d) - np.min(d)))
