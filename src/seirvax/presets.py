"""Bundled scenarios.

All presets share one baseline rate set for a fast-spreading respiratory
infection with demographic turnover: mean infectious and latent periods of
2.2 days, immunity lasting 15 days on average, 10% infection mortality,
a 255-day mean lifetime otherwise, and one birth per 150 individuals per
day. The outbreak presets start mid-epidemic; the tracking presets start
disease-free so the immune compartment follows its design in closed form.
"""

from __future__ import annotations

from dataclasses import replace
from typing import NamedTuple

from .control import (
    ControlConfig,
    ModulationFamily,
    ReferenceProfile,
    VaccinationLaw,
)
from .errors import ConfigError
from .model import ModelParams, StateVec
from .sim import ScenarioConfig

BASELINE_PARAMS = ModelParams(
    mu=1.0 / 255.0,
    omega=1.0 / 15.0,
    beta=1.66,
    sigma=1.0 / 2.2,
    gamma=1.0 / 2.2,
    rho=0.1,
    nu=1.0 / 150.0,
)

OUTBREAK_X0 = StateVec(S=400.0, E=150.0, I=250.0, R=200.0)
DISEASE_FREE_X0 = StateVec(S=800.0, E=0.0, I=0.0, R=200.0)

# The outbreak runs settle onto a slowly drifting ray (the state direction
# freezes while the total keeps creeping), so their stillness tolerance is
# scaled to that drift; the strict default would never trigger there.
OUTBREAK_SS_TOL = 1e-3


# Births balance deaths and nobody dies of the infection, so N stays
# constant to integration accuracy.
BALANCED_PARAMS = replace(BASELINE_PARAMS, nu=BASELINE_PARAMS.mu, rho=0.0)

# eps0 must dominate both nu and the immune recovery rate (~0.409) for the
# switched modulation; it cancels from the applied signal.
_FIG2 = ScenarioConfig(
    name="fig2-saturated",
    params=BASELINE_PARAMS,
    x0=OUTBREAK_X0,
    control=ControlConfig(
        eps0=0.5, c=0.2, g_family=ModulationFamily.SWITCHED,
        h_family=ReferenceProfile.EXP_SETTLING, law=VaccinationLaw.SATURATED,
    ),
    horizon=600.0,
    dt=0.01,
    steady_state_tol=OUTBREAK_SS_TOL,
)


class PresetEntry(NamedTuple):
    description: str
    scenario: ScenarioConfig


PRESETS: dict[str, PresetEntry] = {
    entry.scenario.name: entry
    for entry in (
        PresetEntry(
            "uncontrolled outbreak: 600-day endemic settling with no vaccination",
            replace(_FIG2, name="fig1-no-vaccination",
                    control=ControlConfig(law=VaccinationLaw.NONE)),
        ),
        PresetEntry(
            "outbreak under the clamped feedback law with the switched modulation",
            _FIG2,
        ),
        PresetEntry(
            "same controller unclamped, relying on boundary resets for positivity",
            replace(_FIG2, name="fig3-unsaturated",
                    control=replace(_FIG2.control, law=VaccinationLaw.UNSATURATED)),
        ),
        PresetEntry(
            "births balance deaths, no disease mortality: N must stay constant",
            ScenarioConfig(
                name="constant-population-check",
                params=BALANCED_PARAMS,
                x0=OUTBREAK_X0,
                control=ControlConfig(
                    g_family=ModulationFamily.ZERO, h_family=ReferenceProfile.EXP_SETTLING,
                    law=VaccinationLaw.SATURATED,
                ),
                horizon=100.0,
                dt=0.01,
            ),
        ),
        # Disease-free start; the decay design drives the immune level along
        # a known closed form while the clamp stays inactive.
        PresetEntry(
            "disease-free run whose immune level follows the exponential-decay design",
            ScenarioConfig(
                name="immune-decay",
                params=BASELINE_PARAMS,
                x0=DISEASE_FREE_X0,
                control=ControlConfig(
                    vartheta=0.08, g_family=ModulationFamily.IMMUNE_DECAY_DESIGN,
                    h_family=ReferenceProfile.DECAY_DESIGN, law=VaccinationLaw.SATURATED,
                ),
                horizon=200.0,
                dt=0.01,
            ),
        ),
        # Pole-matched reference with births balancing deaths: the immune
        # population reproduces h*N exactly and converges to the whole
        # population. The raw signal sits far above 1, so the law must be
        # the unclamped one.
        PresetEntry(
            "disease-free run tracking the pole-matched immune reference exactly",
            ScenarioConfig(
                name="disease-free-tracking",
                params=BALANCED_PARAMS,
                x0=DISEASE_FREE_X0,
                control=ControlConfig(
                    g_family=ModulationFamily.ZERO, h_family=ReferenceProfile.POLE_MATCHED,
                    law=VaccinationLaw.UNSATURATED,
                ),
                horizon=600.0,
                dt=0.01,
            ),
        ),
    )
}


def preset_names() -> tuple[str, ...]:
    return tuple(PRESETS)


def build_preset(name: str) -> ScenarioConfig:
    """The named preset's scenario; an unknown name is a ConfigError."""
    try:
        entry = PRESETS[name]
    except KeyError:
        known = ", ".join(PRESETS)
        raise ConfigError(f"unknown preset {name!r}; available: {known}") from None
    return entry.scenario
