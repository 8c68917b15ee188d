"""Exact Bloch-picture dynamics of a periodically controlled dephasing qubit.

A single qubit (photon polarization) repeatedly passes through operation
units, each consisting of a polarization rotation followed by a birefringent
phase that couples the qubit to a frequency-like environment variable.  All
plate phases are integer multiples ``k * theta`` of a common base-unit phase
``theta``, so the n-step evolution at fixed ``theta`` is a product of
rotation matrices whose entries are finite harmonic series in ``theta``.
This module keeps that representation exact: a series is one dense band
of 3x3 cosine/sine coefficient pairs, composition is a convolution of bands,
and averaging over a Gaussian environment spectrum reduces to closed-form
damping ``exp(-h^2 s^2 / 2)`` of each harmonic.  The averaged n-step map
is the spectral average of the *whole* n-step product, which is what makes
the reduced dynamics non-Markovian -- it is generally not the n-th power
of the averaged single step.

Propagation (``averaged_maps``) runs in node space.  P_n has degree
H_n, the sum of the steps' k, and the wrapped-normal weight
``1 + 2 sum_h d_h cos(h t)`` has degree L, the last harmonic whose damping
is nonzero, so the trapezoid rule on the least odd N > H_n + L equispaced
nodes, with weights from one real inverse FFT, gives every ``E[P_m]``,
m <= n, exactly.  The step matrices are multiplied at the nodes and
summed; mirror nodes ``theta_bar +- t`` are added in pairs first, so at
theta_bar = 0 the entries that are odd under theta -> -theta are +0.0.
A sharp spectrum takes one node.  In the uniform limit (L = 0) the weights
are 1/N and the grid is anchored at 0, so the maps do not depend on
theta_bar, to the bit.  At every width they agree with ``gaussian_average``
to rounding (1e-12 up to 3,200 harmonics).  The bands, ``product_chain``
and ``gaussian_average`` stay the exact oracle.

Everything here is a pure function of its inputs; all values are immutable
after construction and safe to share across threads.  Sums over harmonics
are always taken in increasing harmonic order so results are reproducible
bit for bit.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

# Unit-ball checks allow this much floating-point slack.
PURITY_TOL = 1e-12
# Construction guard for averaged maps: admits rounding accumulated over
# long exact compositions, still orders of magnitude below any physics.
CONTRACTION_GUARD_TOL = 1e-9
# Largest phase multiplier: one step's harmonic band then takes about 150 MB.
MAX_PHASE_MULTIPLIER = 2**20
# Bound on |theta_bar|, exclusive: from 2^52 on one ulp of theta_bar is at
# least 1 rad, so it carries no phase.
MAX_THETA_BAR = 2.0**52
_TWO_PI_HI, _TWO_PI_LO = 2.0 * math.pi, 2.4492935982947064e-16  # 2 pi as fl(2 pi) + the rest

# Step-operator orderings within one operation unit.  ORDER_PHASE_AFTER
# applies the polarization rotation first and the environment phase second;
# ORDER_PHASE_BEFORE swaps the two factors.  Both conventions are kept so
# reference cycles can be reconciled under either, and the token values
# are part of the CLI contract.
ORDER_PHASE_AFTER = "eq2b"
ORDER_PHASE_BEFORE = "eq4a"
STEP_ORDERS = (ORDER_PHASE_AFTER, ORDER_PHASE_BEFORE)

_FWHM_TO_SIGMA = 2.0 * math.sqrt(2.0 * math.log(2.0))


def _readonly(a: np.ndarray) -> np.ndarray:
    """Read-only C-ordered float copy of ``a``.  ``TrigMatrix`` copies its
    band this way, so its ``terms`` is a read-only pair-major view of one
    contiguous band, as a composed series' is of the compose's own band:
    the next compose reads either without a copy."""
    a = np.array(a, dtype=float, order="C")
    a.setflags(write=False)
    return a


def _whole(x, name: str, top: float = math.inf) -> int:
    """``x`` as an int; DomainError naming it unless it is a whole number in [0, top]."""
    if not (0 <= x <= top and x < math.inf and x == int(x)):
        span = "a non-negative integer" if top == math.inf else f"an integer in [0, {top}]"
        raise DomainError(f"{name} must be {span}, got {x}")
    return int(x)


@dataclass(frozen=True)
class BlochVector:
    """Point in the closed unit ball of R^3 representing a qubit state."""

    ax: float
    ay: float
    az: float

    def __post_init__(self):
        n2 = self.ax**2 + self.ay**2 + self.az**2
        if not n2 <= 1.0 + PURITY_TOL:
            raise DomainError(f"Bloch vector norm^2 = {n2} exceeds the unit ball")

    @classmethod
    def from_array(cls, a) -> "BlochVector":
        a = np.asarray(a, dtype=float)
        return cls(float(a[0]), float(a[1]), float(a[2]))

    def as_array(self) -> np.ndarray:
        return np.array([self.ax, self.ay, self.az])

    def __neg__(self) -> "BlochVector":
        return BlochVector(-self.ax, -self.ay, -self.az)


@dataclass(frozen=True)
class Spectrum:
    """Gaussian statistics of the environment phase per base unit.

    ``theta_bar`` is the mean phase accumulated over one base unit and
    ``s`` its standard deviation, both in radians.  ``s = 0`` means a
    perfectly sharp (unitary) environment, ``s = inf`` is the admitted
    sentinel for the fully dephased limit where the phase is uniform.
    From s* = 38.6039692027113 on every harmonic h >= 1 is damped to 0.0,
    so every layer treats such a spectrum as uniform (``is_uniform``).
    ``theta_bar`` is stored reduced by whole turns toward zero, within an
    ulp of the exact reduction; |theta_bar| < fl(2 pi) keeps its bits.
    """

    theta_bar: float
    s: float

    def __post_init__(self):
        if not abs(self.theta_bar) < MAX_THETA_BAR:
            raise DomainError(f"theta_bar must be finite with |theta_bar| < 2^52, got {self.theta_bar}")
        if math.isnan(self.s) or self.s < 0.0:
            raise DomainError(f"spectral width s must be >= 0, got {self.s}")
        rest = math.fmod(self.theta_bar, _TWO_PI_HI)  # exact: whole turns of fl(2 pi) off
        object.__setattr__(self, "theta_bar", rest - round((self.theta_bar - rest) / _TWO_PI_HI) * _TWO_PI_LO)

    @property
    def is_uniform(self) -> bool:
        return _damping(self.s, 1)[1] == 0.0


@dataclass(frozen=True)
class ControlStep:
    """One operation unit: rotation parameter eta, stored as a float, and phase multiplier k, as an int."""

    eta: float
    k: int

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise DomainError(f"eta must lie in [0, 1], got {self.eta}")
        object.__setattr__(self, "eta", float(self.eta))
        object.__setattr__(self, "k", _whole(self.k, "k", MAX_PHASE_MULTIPLIER))


@dataclass(frozen=True)
class Protocol:
    """A periodic sequence of control steps; steps[0] acts first.  Any
    iterable of steps is stored as a tuple, so protocols are hashable."""

    steps: tuple

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))
        if len(self.steps) < 1:
            raise DomainError("a protocol needs at least one step")
        for i, s in enumerate(self.steps):
            if not isinstance(s, ControlStep):
                raise DomainError(f"protocol step {i} must be a ControlStep, got {s!r}")

    @classmethod
    def from_steps(cls, steps) -> "Protocol":
        return cls(steps)

    @property
    def period(self) -> int:
        return len(self.steps)

    def step(self, i: int) -> ControlStep:
        """Step applied at position ``i`` (0-based) of the cyclic schedule."""
        return self.steps[i % self.period]


def _nonzero_pairs(terms: np.ndarray) -> int:
    """H+1 for the highest harmonic H with a nonzero pair in the pair-major
    ``terms``; 1 if there is none."""
    # A composed band rarely cancels at its top, so this loop is short.
    pairs = len(terms)
    while pairs > 1 and not np.count_nonzero(terms[pairs - 1]):
        pairs -= 1
    return pairs


@dataclass(frozen=True, eq=False, repr=False)
class TrigMatrix:
    """3x3 matrix whose entries are finite harmonic series in the phase.

    The matrix value at phase ``theta`` is

        A(theta) = C_0 + sum_{h=1..H}  C_h cos(h theta) + S_h sin(h theta)

    with real 3x3 coefficients stored densely as cosine/sine pairs,
    ``terms[h] = (C_h, S_h)``, of shape ``(H+1, 2, 3, 3)``.  ``terms`` is a
    read-only pair-major view ``band.transpose(1, 0, 3, 2)`` of one
    contiguous band: the H+1 cosine blocks then the H+1 sine blocks, each
    transposed.  A composed series keeps the compose's own accumulator as
    that band, and the next compose reads it without a copy.  The sine
    ``S_0`` of harmonic 0 is zero, and the band is trimmed so that H is the
    highest harmonic with a nonzero coefficient.  Instances are immutable.
    """

    terms: np.ndarray

    def __post_init__(self):
        terms = np.asarray(self.terms, dtype=float)
        if terms.ndim != 4 or terms.shape[1:] != (2, 3, 3) or not len(terms):
            raise DomainError(f"terms must have shape (H+1, 2, 3, 3), got {terms.shape}")
        if np.count_nonzero(terms[0, 1]):
            raise DomainError("the sine S_0 of harmonic 0 must be zero")
        pairs = _nonzero_pairs(terms)
        band = _readonly(terms[:pairs].transpose(1, 0, 3, 2))
        object.__setattr__(self, "terms", band.transpose(1, 0, 3, 2))

    @classmethod
    def constant(cls, matrix) -> "TrigMatrix":
        """Phase-independent matrix (harmonic 0 only)."""
        return cls(np.stack([matrix, np.zeros_like(matrix)])[None])

    @classmethod
    def identity(cls) -> "TrigMatrix":
        return cls.constant(np.eye(3))

    @property
    def max_harmonic(self) -> int:
        return len(self.terms) - 1

    @functools.cached_property
    def _harmonics(self) -> tuple:
        return tuple(np.flatnonzero(self.terms.any(axis=(1, 2, 3))).tolist())

    def harmonics(self):
        """Sorted non-negative harmonics carrying a nonzero coefficient."""
        return list(self._harmonics)

    def evaluate(self, theta):
        """Sum the series at a phase, or at every phase of an array.

        Returns shape ``np.shape(theta) + (3, 3)``.
        """
        theta = np.asarray(theta, dtype=float)
        out = np.empty((theta.size, 3, 3))
        for block, (value,) in _node_values([self], theta.reshape(-1)):
            out[block] = value
        return out.reshape(theta.shape + (3, 3))

    def __repr__(self):
        return f"TrigMatrix(max_harmonic={self.max_harmonic}, harmonics={len(self._harmonics)})"


# Phases per block of ``_node_values`` (evaluate, the steady-map window and
# the fold) times the 2H+1 slots of a series that can be nonzero: bounds the
# (2H+2, 9, block) products of ``_running_sum`` to about 0.6 MB.
_SUM_BLOCK_TERMS = 2**13


def _node_values(series, theta: np.ndarray):
    """``(slice, values)`` per block of the 1-D phases ``theta``, in order:
    ``values`` iterates over the series at the block's phases, (block, 3, 3)
    each, from one table of coefficient rows built for the deepest series.
    Each phase gets the bits of a scalar call."""
    pairs = max(len(tm.terms) for tm in series)
    size = max(1, _SUM_BLOCK_TERMS // (2 * pairs - 1))
    for lo in range(0, len(theta), size):
        coef = _coefficient_rows(theta[lo : lo + size], np.ones(pairs))
        # Summed as read, one at a time: holding all of a block's sums made a steady
        # cycle amid other work page-fault about a hundred times per call.
        yield slice(lo, lo + size), map(functools.partial(_running_sum, coef), [tm.terms for tm in series])


def _coefficient_rows(theta, damping: np.ndarray) -> np.ndarray:
    """Rows ``[[d_0, 0], [d_1 cos(theta), d_1 sin(theta)], ...,
    [d_H cos(H theta), d_H sin(H theta)]]`` of a phase or an array of
    phases, shape ``(H+1, 2) + np.shape(theta)``, slot for slot with
    ``TrigMatrix.terms``.  Row h does not depend on H, so the rows built for
    a deep series serve every shallower one as a prefix."""
    theta = np.asarray(theta, dtype=float)
    angle = np.multiply.outer(np.arange(len(damping)), theta)
    scale = damping.reshape((-1,) + (1,) * theta.ndim)
    coef = np.empty((len(damping), 2) + theta.shape)
    np.multiply(scale, np.cos(angle), out=coef[:, 0])
    np.multiply(scale, np.sin(angle), out=coef[:, 1])
    return coef


def _running_sum(coef: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """``sum_h coef[h, 0] * C_h + coef[h, 1] * S_h`` over the first
    ``len(terms)`` rows of ``coef``, shape ``coef.shape[2:] + (3, 3)``.

    The 2(H+1) slots are added one by one in increasing harmonic order,
    cosine before sine, starting from zero: the reduction axis j is the
    outermost axis of the ``(2H+2, 9, phases)`` products, so numpy adds
    whole slices in order j = 0, 1, ... (a pairwise sum happens only along
    the innermost axis).  Every phase of an array therefore gets the bits of
    a scalar call.  The slot of the zero ``S_0`` adds +-0.0 to a sum that
    is never -0.0, which changes nothing.
    """
    J = 2 * len(terms)
    parts = terms.reshape(J, 9, 1) * coef[: len(terms)].reshape(J, 1, -1)
    # The first addition is to zero, so a -0.0 term ends as 0.0.
    parts[0] += 0.0
    return np.add.reduce(parts, axis=0).T.reshape(coef.shape[2:] + (3, 3))


def _check_contractions(ms: np.ndarray) -> None:
    """Raise ``DomainError`` unless every map of the stack ``(n, 3, 3)`` is
    a contraction up to ``CONTRACTION_GUARD_TOL``; the message gives the
    1-based position of the first that is not.  One batched SVD."""
    smax = np.linalg.svd(ms, compute_uv=False)[:, 0]
    bad = np.flatnonzero(smax > 1.0 + CONTRACTION_GUARD_TOL)
    if bad.size:
        i = int(bad[0])
        raise DomainError(f"largest singular value {smax[i]} of map {i + 1} exceeds 1: not a contraction")


@dataclass(frozen=True)
class BlochMap:
    """Spectrally averaged qubit channel in Bloch form.

    The channel is unital, so it is fully described by the linear part
    ``m``; averaging rotations can only contract, hence every singular
    value is at most 1 (up to floating-point slack).
    """

    m: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.m, dtype=float)
        if mat.shape != (3, 3):
            raise DomainError(f"Bloch map must be 3x3, got shape {mat.shape}")
        _check_contractions(mat[None])
        object.__setattr__(self, "m", _readonly(mat))

    def apply(self, a: BlochVector) -> BlochVector:
        return BlochVector.from_array(self.m @ a.as_array())

    def singular_values(self) -> np.ndarray:
        return np.linalg.svd(self.m, compute_uv=False)


def c_rotation(eta: float) -> np.ndarray:
    """Bloch matrix of the polarization rotation with parameter eta.

    Returns ``[[b, 0, a], [0, -1, 0], [a, 0, -b]]`` with ``b = 1 - 2 eta``
    and ``a = 2 sqrt(eta (1 - eta))``: an involutive rotation (a half turn)
    whose axis tilts in the x-z plane from x (eta = 0) to z (eta = 1).
    """
    if not 0.0 <= eta <= 1.0:
        raise DomainError(f"eta must lie in [0, 1], got {eta}")
    b = 1.0 - 2.0 * eta
    a = 2.0 * math.sqrt(eta * (1.0 - eta))
    return np.array([[b, 0.0, a], [0.0, -1.0, 0.0], [a, 0.0, -b]])


def quartz_rotation(k: int) -> TrigMatrix:
    """Environment-phase action of a plate with phase multiplier k.

    The phase rotates the Bloch vector about the z axis by ``k * theta``:
    only harmonic ``h = k`` is populated (plus h = 0 for the z-z entry).
    """
    k = _whole(k, "k")
    if k == 0:
        return TrigMatrix.identity()
    terms = np.zeros((k + 1, 2, 3, 3))
    terms[0, 0] = [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
    terms[k, 0] = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]]
    terms[k, 1] = [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
    return TrigMatrix(terms)


@functools.lru_cache(maxsize=256)
def step_matrix(step: ControlStep, order: str = ORDER_PHASE_AFTER) -> TrigMatrix:
    """Exact Bloch matrix of one operation unit as a function of the phase.

    With the default order the rotation acts first and the plate phase
    second, i.e. the returned matrix is ``quartz_rotation(k)(theta) @
    c_rotation(eta)``.  ``order="eq4a"`` swaps the two factors.  The
    immutable result is cached, since every product chain starts from it.
    """
    if order not in STEP_ORDERS:
        raise DomainError(f"order must be one of {STEP_ORDERS}, got {order!r}")
    rot = TrigMatrix.constant(c_rotation(step.eta))
    phase = quartz_rotation(step.k)
    if order == ORDER_PHASE_AFTER:
        return trig_compose(phase, rot)
    return trig_compose(rot, phase)


def trig_compose(a: TrigMatrix, b: TrigMatrix) -> TrigMatrix:
    """Harmonic series of the pointwise product a(theta) @ b(theta).

    This is the convolution of the complex bands ``sum_h A_h e^{i h theta}``:
    harmonic h of ``a`` and g of ``b`` meet at h + g, where they add
    ``cc - ss`` to the cosine and ``sc + cs`` to the sine, and at |h - g|,
    where they add ``cc + ss`` and ``sign(h - g) (sc - cs)``, with
    ``cc = C_h C_g / 2``, ``ss = S_h S_g / 2``, ``sc = S_h C_g / 2`` and
    ``cs = C_h S_g / 2``.  The max harmonic is at most
    ``a.max_harmonic + b.max_harmonic``.

    Each nonzero harmonic h of ``a`` takes one matrix product with the
    whole band of ``b``, which gives all four families for every g, and adds
    them to three runs of output harmonics: the pairs g <= h at h - g, every
    pair at h + g, and the pairs g > h at g - h.  Work is O(H_a H_b) and
    memory O(H_a + H_b); deep products should pass the narrow factor first.
    Blocks are kept transposed, ``(C_h V)^T = V^T C_h^T``, so that each
    family is one contiguous run of 3x3 blocks.  The accumulator is the
    cosine band then the sine band, the storage layout of ``TrigMatrix``:
    it becomes the product's storage, and both factors' bands are read as
    stored, with no copy.

    Products are reproducible bit for bit: every output coefficient adds its
    parts one at a time in (h, g) pair order, as ``pairwise_compose`` in the
    tests does.  Parts that are +-0.0 by construction (from the zero sine
    of harmonic 0, or a zero block) may be added or skipped: the sums start
    at +0.0, and a round-to-nearest sum is -0.0 only if both addends are, so
    adding +-0.0 never changes them.  The matrix product relies on OpenBLAS
    rounding each 3-term dot product the same way whatever the shape of the
    product, as the tests check against single 3x3 products.
    """
    hb = b.max_harmonic
    # Every block V of b, transposed and stacked: band @ U^T holds (U V)^T.
    band = b.terms.transpose(1, 0, 3, 2).reshape(-1, 3)
    # Transposed cosine and sine accumulators, each one contiguous band; the
    # narrow first factor is usually a cached step matrix, so its harmonics
    # are kept on the instance.
    out = np.zeros((2, a.max_harmonic + hb + 1, 3, 3))
    cos, sin = out
    for h in a._harmonics:
        if h == 0:
            # S_0 = 0, so C_0 alone gives cc and cs of every pair (0, g):
            # one cosine/sine pair-run, which adds twice at g.
            run = (band @ a.terms[0, 0].T).reshape(2, hb + 1, 3, 3)
            run *= 0.5
            out[:, : hb + 1] += run
            out[:, : hb + 1] += run
            continue
        prod = band @ a.terms[h].transpose(0, 2, 1)
        prod *= 0.5
        (cc, cs), (sc, ss) = prod.reshape(2, 2, hb + 1, 3, 3)
        # Pairs g <= h at h - g, so g runs down; the sine at harmonic 0 is
        # set to zero at the end.
        lo = max(0, h - hb)
        run, g = slice(lo, h + 1), slice(h - lo, None, -1)
        cos[run] += cc[g]
        cos[run] += ss[g]
        sin[run] += sc[g]
        sin[run] -= cs[g]
        run = slice(h, h + hb + 1)
        cos[run] += cc
        cos[run] -= ss
        sin[run] += sc
        sin[run] += cs
        if h < hb:
            run, g = slice(1, hb - h + 1), slice(h + 1, None)
            cos[run] += cc[g]
            cos[run] += ss[g]
            sin[run] -= sc[g]
            sin[run] += cs[g]
    sin[0] = 0.0
    pairs = _nonzero_pairs(out.transpose(1, 0, 3, 2))
    if pairs < out.shape[1]:
        out = np.ascontiguousarray(out[:, :pairs])  # trimming costs a copy
    # Hand the band over as the product's storage, past the constructor's
    # copy and checks, which it meets by construction.
    out.setflags(write=False)
    product = object.__new__(TrigMatrix)
    object.__setattr__(product, "terms", out.transpose(1, 0, 3, 2))
    return product


def _damping(s: float, max_harmonic: int) -> np.ndarray:
    """Moment damping ``exp(-h^2 s^2 / 2)`` of the harmonics 0..max_harmonic.
    It is 0.0 from h s = s* on (``Spectrum.is_uniform``), so the row takes
    no exponential past h s = 38.7; that also keeps h s from reaching 1.3e154,
    past which its square would overflow."""
    row = np.zeros(max_harmonic + 1)
    # exp(-38.7^2 / 2) is below the smallest subnormal: every later term is 0.0.
    live = int(38.7 / s) if s * max_harmonic > 38.7 else max_harmonic
    row[: live + 1] = [1.0] + [math.exp(-0.5 * (h * s) ** 2) for h in range(1, live + 1)]
    return row


def gaussian_average(a: TrigMatrix, sp: Spectrum) -> BlochMap:
    """Average the harmonic series over the environment phase distribution.

    For a Gaussian phase each harmonic term acquires the moment damping
    ``exp(-h^2 s^2 / 2)`` and is evaluated at the mean phase:

        <c cos(h theta) + d sin(h theta)>
            = exp(-h^2 s^2 / 2) * (c cos(h theta_bar) + d sin(h theta_bar))

    In the uniform limit ``s = inf`` only the h = 0 term survives.  The
    formula is exact for every s: integer harmonics have the same moments
    under the wrapped and the unwrapped normal, since
    ``exp(i h (theta + 2 pi m)) = exp(i h theta)``.
    """
    row = _coefficient_rows(sp.theta_bar, _damping(sp.s, a.max_harmonic))
    return BlochMap(_running_sum(row, a.terms))


def product_chain(p: Protocol, order: str = ORDER_PHASE_AFTER):
    """Endless, lazy chain of the exact products ``P_0 = I, P_1, P_2, ...``
    of the cyclic schedule: ``P_{n+1} = trig_compose(step[n mod T], P_n)``.
    Every n-step product of the package comes from this compose sequence."""
    factors = [step_matrix(s, order) for s in p.steps]
    out = TrigMatrix.identity()
    for i in itertools.count():
        yield out
        out = trig_compose(factors[i % p.period], out)


def protocol_product(p: Protocol, n: int, order: str = ORDER_PHASE_AFTER) -> TrigMatrix:
    """Exact n-step product of cyclically scheduled step matrices.

    Returns ``step[(n-1) mod T] @ ... @ step[1 mod T] @ step[0]`` as a
    harmonic series; ``n = 0`` gives the identity.
    """
    return next(itertools.islice(product_chain(p, order), _whole(n, "n"), None))


def _top_harmonic_bound(p: Protocol, n: int) -> int:
    """Sum of the phase multipliers k of steps 0..n-1, in O(period).  A step's
    top harmonic is its k, so this bounds P_n's, with no compose."""
    ks = [s.k for s in p.steps]
    periods, rest = divmod(n, p.period)
    return periods * sum(ks) + sum(ks[:rest])


def _pair_weights(damping: np.ndarray, nodes: int) -> np.ndarray:
    """Weights ``(1 + 2 sum_{h=1..L} d_h cos(2 pi h j / N)) / N`` of the mirror
    pairs j = 0..N // 2, the centre halved, as one real inverse FFT (N > 2L odd)."""
    weights = np.fft.irfft(damping, nodes)[: nodes // 2 + 1]
    weights[0] *= 0.5
    return weights


def _node_averages(p: Protocol, sp: Spectrum, n: int, order: str) -> np.ndarray:
    """``E[P_1], ..., E[P_n]`` from the step products at the nodes
    ``theta_bar + t_j``, j = -half..half, of one grid.

    ``P_m`` has degree H_m <= H_n, and the node weights (``_pair_weights``)
    have degree L, the last harmonic whose damping is nonzero, so the
    trapezoid rule is exact on N = 2 half + 1 > H_n + L nodes, the least
    such odd N.  With no harmonic damped (s = 0, or s H_n below about
    1.5e-8) E[P] is P(theta_bar), one node.  In the uniform limit L = 0,
    every weight is 1/N and E[P] is the period mean, which does not depend
    on theta_bar: the grid is then anchored at 0.  The nodes are kept as two
    halves, ``+t_j`` and ``-t_j`` for j = 0..half (the centre in both), and
    node j keeps ``P(theta_j)^T``, whose rows are the columns (x, y, z) of
    P.  The rotation ``C(eta)`` is one product of every row with the
    symmetric C, and ``R(k theta)`` multiplies each ``x + i y`` by
    ``exp(i k theta)``, taken once per distinct k from one table of
    ``exp(2 pi i m / N)`` and conjugated on the second half.  So at
    theta_bar = 0 node -t_j computes ``F P(t_j) F``,
    F = diag(1, -1, 1), to the bit (as ``trig_compose``, this relies on
    OpenBLAS rounding each 3-term dot product alike in every row).  Each
    mirror pair is added before it is weighted, so the F-odd entries (xy,
    yx, yz, zy) sum to +0.0 there.  Work is O(n N) for the products and
    O(N log N) for the weights, memory O(N + n).
    """
    top = _top_harmonic_bound(p, n)
    damping = _damping(sp.s, top)
    sharp = damping[-1] == 1.0
    last = 0 if sharp else int(np.flatnonzero(damping)[-1])
    nodes = 1 if sharp else (top + last + 1) | 1
    theta_bar = 0.0 if sp.is_uniform else sp.theta_bar
    half = nodes // 2
    phase = np.arange(nodes) * (2.0 * math.pi / nodes)
    unit = np.empty(nodes, dtype=complex)
    unit.real, unit.imag = np.cos(phase), np.sin(phase)
    weights = _pair_weights(damping[: last + 1], nodes)
    turns = {}
    for k in {s.k for s in p.steps if s.k}:
        turn = np.empty((2, half + 1), dtype=complex)
        turn[0] = unit[np.arange(half + 1) * k % len(unit)]
        np.conjugate(turn[0], out=turn[1])
        turn *= complex(math.cos(k * theta_bar), math.sin(k * theta_bar))
        turns[k] = turn[..., None, None]
    factors = [(c_rotation(s.eta), turns.get(s.k)) for s in p.steps]
    # Two buffers of both halves; each step's C reads one and writes the other.
    rows = np.empty((2, 2, half + 1, 3, 3))
    rows[0] = np.eye(3)
    views = [(x.reshape(-1, 3), x[..., :2].view(complex), x[0].reshape(-1, 9), x[1].reshape(-1, 9)) for x in rows]
    pairs = np.empty((half + 1, 9))
    out = np.empty((n, 9))
    for i in range(n):
        c, turn = factors[i % p.period]
        (flat, xy, _, _), (flat_next, xy_next, plus, minus) = views[i % 2], views[1 - i % 2]
        if turn is not None and order == ORDER_PHASE_BEFORE:
            np.multiply(xy, turn, out=xy)
        np.matmul(flat, c, out=flat_next)
        if turn is not None and order == ORDER_PHASE_AFTER:
            np.multiply(xy_next, turn, out=xy_next)
        np.add(plus, minus, out=pairs)
        np.matmul(weights, pairs, out=out[i])
    # Back from P^T; a sum of signed zeros may end as -0.0.
    return np.add(out.reshape(n, 3, 3).transpose(0, 2, 1), 0.0, out=np.empty((n, 3, 3)))


def averaged_maps(p: Protocol, sp: Spectrum, n: int, order: str = ORDER_PHASE_AFTER) -> np.ndarray:
    """Spectral averages ``E[P_1], ..., E[P_n]`` of the exact products,
    stacked read-only with shape ``(n, 3, 3)``.

    The environment phase is shared by all steps, so ``E[P_m]`` is *not*
    the m-th power of the averaged one-step map.  At every width the maps
    are weighted node sums of the step products on one grid
    (``_node_averages``), with no compose, and agree with
    ``gaussian_average(P_m, sp).m`` to rounding.  In the uniform limit they
    are the period means of the products, with the same bits at every
    theta_bar.  One batched SVD checks every map, as ``BlochMap`` checks
    one; the error names the step m of the first map that is not a
    contraction.
    """
    n = _whole(n, "n")
    if order not in STEP_ORDERS:
        raise DomainError(f"order must be one of {STEP_ORDERS}, got {order!r}")
    out = _node_averages(p, sp, n, order)
    _check_contractions(out)
    out.setflags(write=False)
    return out


def propagate(
    p: Protocol,
    sp: Spectrum,
    n: int,
    a0: BlochVector,
    order: str = ORDER_PHASE_AFTER,
) -> np.ndarray:
    """Bloch trajectory under the averaged dynamics, read-only with shape
    ``(n + 1, 3)``: row 0 is ``a0``, and row m applies the spectral average
    of the full m-step product to it (see ``averaged_maps``: node sums,
    within rounding of the band average at every width).
    """
    a = a0.as_array()
    out = np.vstack([a, averaged_maps(p, sp, n, order) @ a])
    out.setflags(write=False)
    return out


def spectrum_from_physical(lambda0: float, fwhm: float, delta_L_over_lambda: float) -> Spectrum:
    """Environment phase statistics from photon-filter parameters.

    Parameters
    ----------
    lambda0 : float
        Central wavelength (any length unit, same as ``fwhm``).
    fwhm : float
        Full width at half maximum of the (Gaussian) intensity filter.
    delta_L_over_lambda : float
        Effective path difference of the base plate in units of lambda0.

    Returns
    -------
    Spectrum
        Mean phase ``2 pi * delta_L_over_lambda`` reduced mod 2 pi (exactly
        zero for integer multiples) and width
        ``2 pi * delta_L_over_lambda * sigma_lambda / lambda0`` with the
        filter FWHM converted to a standard deviation.
    """
    if not (lambda0 > 0.0 and fwhm > 0.0 and delta_L_over_lambda > 0.0):
        raise DomainError(
            "lambda0, fwhm and delta_L_over_lambda must all be positive, got "
            f"({lambda0}, {fwhm}, {delta_L_over_lambda})"
        )
    sigma_lambda = fwhm / _FWHM_TO_SIGMA
    theta_bar = 2.0 * math.pi * (delta_L_over_lambda % 1.0)
    s = 2.0 * math.pi * delta_L_over_lambda * sigma_lambda / lambda0
    return Spectrum(theta_bar=theta_bar, s=s)
