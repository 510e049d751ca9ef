"""Vector-field and parameter-validation tests.

Hand-computed expected values were derived with exact rational arithmetic
from the model definitions before being frozen here.
"""

import math

import numpy as np
import pytest

import seirvax as sx
from seirvax import (
    MatrixVariant,
    ModelParams,
    StateVec,
    build_matrix,
    make_rate_fn,
)
from seirvax.errors import ConfigError, SingularStateError


class TestVectorField:
    def test_hand_computed_rates_at_outbreak_state(self, params, outbreak_x0):
        dS, dE, dI, dR = make_rate_fn(params)(*outbreak_x0, 0.0)
        assert dS == pytest.approx(-147.5686274509804, rel=1e-12)
        assert dE == pytest.approx(97.22994652406418, rel=1e-12)
        assert dI == pytest.approx(-46.4349376114082, rel=1e-12)
        assert dR == pytest.approx(88.15508021390374, rel=1e-12)

    def test_two_decimal_reference_values(self, params, outbreak_x0):
        # coarse cross-check against independently rounded figures
        dS, dE, dI, dR = make_rate_fn(params)(*outbreak_x0, 0.0)
        assert dS == pytest.approx(-147.57, abs=5e-3)
        assert dE == pytest.approx(97.23, abs=5e-3)
        assert dI == pytest.approx(-46.43, abs=5e-3)
        assert dR == pytest.approx(88.15, abs=6e-3)

    def test_population_rate_closed_form(self, params, outbreak_x0):
        # dN = (nu - mu)*N - rho*gamma*I, as the controller evaluates it
        cfg = sx.ControlConfig(law=sx.VaccinationLaw.NONE)
        dn = sx.control_sample(cfg, params, 0.0, outbreak_x0, outbreak_x0.R).dN
        assert dn == pytest.approx(-8.618538324420678, rel=1e-12)
        d = make_rate_fn(params)(*outbreak_x0, 0.0)
        assert sum(d) == pytest.approx(dn, abs=1e-10)

    def test_vaccination_routes_newborns_without_changing_total(
        self, params, outbreak_x0
    ):
        births = params.nu * outbreak_x0.N
        rate = make_rate_fn(params)
        dS0, dE0, dI0, dR0 = d0 = rate(*outbreak_x0, 0.0)
        dS1, dE1, dI1, dR1 = d1 = rate(*outbreak_x0, 1.0)
        assert dS1 - dS0 == pytest.approx(-births, rel=1e-12)
        assert dR1 - dR0 == pytest.approx(births, rel=1e-12)
        assert dE1 == dE0 and dI1 == dI0
        assert sum(d1) == pytest.approx(sum(d0), abs=1e-10)

    def test_degree_one_homogeneity(self, params, outbreak_x0):
        rate = make_rate_fn(params)
        d1 = rate(*outbreak_x0, 0.37)
        for lam in (0.125, 3.0, 41.5):
            dl = rate(*(lam * v for v in outbreak_x0), 0.37)
            for a, b in zip(dl, d1):
                assert a == pytest.approx(lam * b, rel=1e-12)

    def test_zero_population_is_singular(self, params):
        with pytest.raises(SingularStateError) as caught:
            make_rate_fn(params)(0.0, 0.0, 0.0, 0.0, 0.0)
        assert caught.value.total == 0.0
        with pytest.raises(SingularStateError):
            build_matrix(params, StateVec(0.0, 0.0, 0.0, 0.0), sx.CANONICAL_VARIANT)

    def test_nan_population_is_singular_and_carries_its_total(self, params):
        with pytest.raises(SingularStateError) as caught:
            make_rate_fn(params)(1.0, math.nan, 1.0, 1.0, 0.0)
        assert math.isnan(caught.value.total)

    def test_state_and_rate_containers(self, params, outbreak_x0):
        assert outbreak_x0.N == 1000.0
        arr = np.asarray(outbreak_x0, dtype=float)
        assert arr.dtype == float and arr.shape == (4,)
        # a rate is a plain (dS, dE, dI, dR) tuple, summing to dN
        d = make_rate_fn(params)(1.0, 2.0, 3.0, 4.0, 0.0)
        assert type(d) is tuple and len(d) == 4
        assert sum(d) == pytest.approx(
            (params.nu - params.mu) * 10.0 - params.rho * params.gamma * 3.0, rel=1e-12
        )


RATE_NAMES = ("mu", "omega", "beta", "sigma", "gamma", "rho", "nu")


def _params(**edit) -> ModelParams:
    rates = dict(mu=0.1, omega=0.1, beta=1.0, sigma=0.5, gamma=0.5, rho=0.1, nu=0.01)
    return ModelParams(**{**rates, **edit})


class TestParamsValidation:
    @pytest.mark.parametrize("value", [-0.1, -5e-324, -math.inf])
    @pytest.mark.parametrize("name", RATE_NAMES)
    def test_negative_rate_rejected(self, name, value):
        with pytest.raises(ConfigError, match=f"^{name} must be"):
            _params(**{name: value})

    @pytest.mark.parametrize("rho", [math.nextafter(1.0, 2.0), 1.01])
    def test_rho_outside_unit_interval_rejected(self, rho):
        with pytest.raises(ConfigError, match=r"rho must be in \[0, 1\]"):
            _params(rho=rho)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    @pytest.mark.parametrize("name", RATE_NAMES)
    def test_nonfinite_rate_rejected(self, name, value):
        with pytest.raises(ConfigError, match=f"^{name} must be finite"):
            _params(**{name: value})

    @pytest.mark.parametrize("value", [0.0, -0.0])
    @pytest.mark.parametrize("name", RATE_NAMES)
    def test_signed_zero_accepted(self, name, value):
        assert getattr(_params(**{name: value}), name) == 0.0

    def test_rho_of_one_accepted(self):
        assert _params(rho=1.0).rho == 1.0

    @pytest.mark.parametrize("refs", [
        (math.inf, math.inf), (10.0, math.inf), (math.nan, 50.0), (10.0, math.nan),
    ])
    def test_non_finite_references_rejected(self, params, outbreak_x0, refs):
        # a reference pair enters only as its fraction I0_ref/N0_ref; a
        # non-finite pair gives nan or 0, which decompose_star refuses
        with pytest.raises(ConfigError, match=r"ref_fraction must be in \(0, 1\]"):
            sx.decompose_star(params, outbreak_x0, ref_fraction=refs[0] / refs[1])

    def test_immune_recovery_rate(self, params):
        assert params.immune_recovery_rate == pytest.approx(
            0.4090909090909091, rel=1e-14
        )

    def test_immune_pole(self, params, outbreak_x0):
        assert params.immune_pole == params.mu + params.omega
        # the R row's diagonal, in the rate closure and in every factoring
        R_only = StateVec(0.0, 0.0, 0.0, 1.0)
        assert make_rate_fn(params)(*R_only, 0.0)[3] == -params.immune_pole
        for variant in MatrixVariant:
            m = build_matrix(params, outbreak_x0, variant)
            assert m[3, 3] == -params.immune_pole
