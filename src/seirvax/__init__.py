"""SEIR epidemic simulation with feedback vaccination synthesis.

Core entry points:

    integrate(scenario)               run one scenario (fixed-step RK4)
    build_preset(name)                bundled scenarios
    detect_steady_state(traj)         settled-regime search
    standard_verdicts(params, integral)
                                      stability profile; each verdict's
                                      hypothesis_holds is derived from its
                                      conditions, and is False where it
                                      does not apply
    integral_test(traj)               the run's T3_integral verdict, not
                                      applicable where the identity does
                                      not apply
    make_rate_fn(params)              the vector field, as
                                      rate(S, E, I, R, V) -> (dS, dE, dI, dR)
    build_matrix(params, x, variant)  one of the eight 4x4 factorizations,
                                      as a bare ndarray
    control_sample(cfg, params, ...)  the feedback law at one state and time:
                                      every control value a recorded row holds
    load_scenario(path)               a scenario file, unresolved

The run modules hold what a simulation executes. The paper's analysis
apparatus (the factorizations such as build_matrix, the Metzler checks,
decompose_star, the tracking bounds, the closed forms and the single-sample
controller control_sample with its ControlSample record) lives in
seirvax.analysis, and scenario-file parsing (load_scenario) in
seirvax.config; the numeric key table it reads sits beside ScenarioConfig
in seirvax.sim. Their names import from here too, and the first access to
one of them imports its module: no run loads seirvax.analysis, and only a
scenario file loads seirvax.config.
"""

from .errors import (
    ConfigError,
    DecompositionError,
    DegenerateProfileError,
    SeirvaxError,
    SingularStateError,
)
from .model import COMPONENT_NAMES, N_FLOOR, ModelParams, StateVec, make_rate_fn
from .stability import (
    ConditionCheck,
    StabilityCriterion,
    StabilityVerdict,
    check_mortality_absorbs_growth,
    check_population_nonincreasing,
    check_unforced_boundedness,
    integral_test,
    standard_verdicts,
)
from .control import (
    ControlConfig,
    ModulationFamily,
    ReferenceProfile,
    VaccinationLaw,
    decay_design_g_ceiling,
)
from .sim import (
    STEADY_STATE_WINDOW_DAYS,
    ResetEvent,
    RunStatus,
    ScenarioConfig,
    SteadyState,
    Trajectory,
    apply_reset,
    detect_steady_state,
    integrate,
)
from .presets import BASELINE_PARAMS, PRESETS, build_preset, preset_names

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


def __getattr__(name):
    # every exported name not bound above is read by no preset run, so its
    # module is imported on first access, not here: load_scenario parses
    # scenario files (seirvax.config, with configparser), and the rest is
    # the paper's analysis apparatus (seirvax.analysis)
    if name == "load_scenario":
        from .config import load_scenario

        return load_scenario
    if name in __all__:
        from . import analysis

        return getattr(analysis, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
