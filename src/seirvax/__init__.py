"""SEIR epidemic simulation with feedback vaccination synthesis.

Core entry points:

    integrate(scenario)               run one scenario (fixed-step RK4)
    build_preset(name)                bundled scenarios
    detect_steady_state(traj)         settled-regime search
    standard_verdicts(params, diag)   stability profile; each verdict's
                                      hypothesis_holds is derived from its
                                      conditions, and is False where it
                                      does not apply
    integral_test(traj)               the run's integral-identity diagnostic,
                                      None where the identity does not apply
    make_rate_fn(params)              the vector field, as
                                      rate(S, E, I, R, V) -> (dS, dE, dI, dR)
    build_matrix(params, x, variant)  one of the eight 4x4 factorizations,
                                      as a bare ndarray
    control_sample(cfg, params, ...)  the feedback law at one state and time:
                                      every control value a recorded row holds
"""

from .errors import (
    ConfigError,
    DecompositionError,
    DegenerateProfileError,
    SeirvaxError,
    SingularStateError,
)
from .model import (
    CANONICAL_VARIANT,
    COMPONENT_NAMES,
    N_FLOOR,
    MatrixVariant,
    ModelParams,
    StateVec,
    build_matrix,
    forcing_vector,
    make_rate_fn,
    reconstruct_derivative,
)
from .positivity import (
    MetzlerReport,
    ResetEvent,
    apply_reset,
    check_metzler,
    decompose_star,
    metzler_parameter_criterion,
)
from .stability import (
    ConditionCheck,
    IntegralDiagnostic,
    StabilityCriterion,
    StabilityVerdict,
    check_mortality_absorbs_growth,
    check_population_nonincreasing,
    check_unforced_boundedness,
    integral_test,
    integral_verdict,
    standard_verdicts,
)
from .control import (
    ControlConfig,
    ControlSample,
    ModulationFamily,
    ReferenceProfile,
    TrackingBound,
    TrackingCase,
    VaccinationLaw,
    control_sample,
    decay_design_g_ceiling,
    immune_closed_form,
    stationary_tracking_level,
    tracking_bound,
)
from .sim import (
    STEADY_STATE_WINDOW_DAYS,
    RunStatus,
    ScenarioConfig,
    SteadyState,
    Trajectory,
    detect_steady_state,
    integrate,
)
from .presets import BASELINE_PARAMS, PRESETS, build_preset, preset_names
from .config import load_scenario

__version__ = "0.1.0"

__all__ = [
    "BASELINE_PARAMS",
    "CANONICAL_VARIANT",
    "COMPONENT_NAMES",
    "ConditionCheck",
    "ConfigError",
    "ControlConfig",
    "ControlSample",
    "DecompositionError",
    "DegenerateProfileError",
    "IntegralDiagnostic",
    "MatrixVariant",
    "MetzlerReport",
    "ModelParams",
    "ModulationFamily",
    "N_FLOOR",
    "PRESETS",
    "ReferenceProfile",
    "ResetEvent",
    "RunStatus",
    "STEADY_STATE_WINDOW_DAYS",
    "ScenarioConfig",
    "SeirvaxError",
    "SingularStateError",
    "StabilityCriterion",
    "StabilityVerdict",
    "StateVec",
    "SteadyState",
    "TrackingBound",
    "TrackingCase",
    "Trajectory",
    "VaccinationLaw",
    "apply_reset",
    "build_matrix",
    "build_preset",
    "check_metzler",
    "check_mortality_absorbs_growth",
    "check_population_nonincreasing",
    "check_unforced_boundedness",
    "control_sample",
    "decay_design_g_ceiling",
    "decompose_star",
    "detect_steady_state",
    "forcing_vector",
    "immune_closed_form",
    "integral_test",
    "integral_verdict",
    "integrate",
    "load_scenario",
    "make_rate_fn",
    "metzler_parameter_criterion",
    "preset_names",
    "reconstruct_derivative",
    "stationary_tracking_level",
    "standard_verdicts",
    "tracking_bound",
    "__version__",
]
