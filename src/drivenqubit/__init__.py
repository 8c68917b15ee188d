"""Discrete-time, periodically driven dephasing dynamics of a single qubit.

The package simulates a qubit (photon polarization) that repeatedly
traverses operation units -- a polarization rotation followed by a
birefringent phase shared with a Gaussian frequency environment -- and
characterizes the resulting non-equilibrium steady cycle analytically:
exact harmonic-series propagation, steady-cycle maps from the residue of
the matrix resolvent, trace-distance information backflow, and visibility
maximization over initial pure states.
"""

from .asymptotics import (
    AsymptoticCycle,
    ConvergenceProfile,
    SteadyFold,
    abel_limit,
    asymptotic_cycle,
    asymptotic_map,
    cesaro_mean,
    convergence_profile,
    limit_cycle,
    resolvent,
    steady_fold,
    trig_roots,
)
from .bloch import (
    ORDER_PHASE_AFTER,
    ORDER_PHASE_BEFORE,
    STEP_ORDERS,
    BlochMap,
    BlochVector,
    ControlStep,
    Protocol,
    Spectrum,
    TrigMatrix,
    c_rotation,
    gaussian_average,
    product_chain,
    propagate,
    protocol_product,
    quartz_rotation,
    spectrum_from_physical,
    step_matrix,
    trig_compose,
)
from .cli import (
    CALIBRATION_ANCHOR,
    THREE_CONTROL_REFERENCE,
    TWO_CONTROL_REFERENCE,
    CalibrationResult,
    RunConfig,
    calibrate,
    config_from_dict,
    config_to_dict,
    preset,
    run,
)
from .errors import (
    CalibrationError,
    ConfigError,
    ConvergenceError,
    DomainError,
    PoleError,
)
from .nonmarkov import (
    OptimalPairResult,
    StatePair,
    asymptotic_blp_rate,
    blp_accumulate,
    optimal_pair_search,
    pair_distances,
    trace_distance,
    trace_distance_povm,
)
from .visibility import (
    SphereAngles,
    VisibilityMaximum,
    maximize_visibility,
    volume,
)

__version__ = "0.1.0"
