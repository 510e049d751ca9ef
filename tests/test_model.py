"""Vector-field, parameter-validation, and matrix-representation tests.

Hand-computed expected values were derived with exact rational arithmetic
from the model definitions before being frozen here.
"""

import math

import numpy as np
import pytest

import seirvax as sx
from seirvax import (
    ForcingForm,
    MatrixVariant,
    ModelParams,
    StateVec,
    build_matrix,
    forcing_vector,
    make_rate_fn,
    reconstruct_derivative,
)
from seirvax.errors import ConfigError, SingularStateError

from conftest import random_state

BASE_FORMS = (ForcingForm.VACCINE_PLUS_BIRTH_VECTOR, ForcingForm.BIRTH_ROUTED_CONTROL)


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
        arr = outbreak_x0.as_array()
        assert arr.dtype == float and arr.shape == (4,)
        # a rate is a plain (dS, dE, dI, dR) tuple, summing to dN
        d = make_rate_fn(params)(1.0, 2.0, 3.0, 4.0, 0.0)
        assert type(d) is tuple and len(d) == 4
        assert sum(d) == pytest.approx(
            (params.nu - params.mu) * 10.0 - params.rho * params.gamma * 3.0, rel=1e-12
        )


class TestParamsValidation:
    def test_negative_rate_rejected(self):
        with pytest.raises(ConfigError):
            ModelParams(mu=-0.1, omega=0.1, beta=1.0, sigma=0.5, gamma=0.5,
                        rho=0.1, nu=0.01)

    def test_rho_outside_unit_interval_rejected(self):
        for rho in (-0.01, 1.01):
            with pytest.raises(ConfigError):
                ModelParams(mu=0.1, omega=0.1, beta=1.0, sigma=0.5, gamma=0.5,
                            rho=rho, nu=0.01)

    def test_nonfinite_rate_rejected(self):
        with pytest.raises(ConfigError):
            ModelParams(mu=math.nan, omega=0.1, beta=1.0, sigma=0.5, gamma=0.5,
                        rho=0.1, nu=0.01)

    def test_references_must_come_together(self, params):
        with pytest.raises(ConfigError):
            ModelParams(mu=0.1, omega=0.1, beta=1.0, sigma=0.5, gamma=0.5,
                        rho=0.1, nu=0.01, I0_ref=10.0)

    def test_reference_ordering_enforced(self):
        kw = dict(mu=0.1, omega=0.1, beta=1.0, sigma=0.5, gamma=0.5,
                  rho=0.1, nu=0.01)
        with pytest.raises(ConfigError):
            ModelParams(**kw, I0_ref=100.0, N0_ref=50.0)
        with pytest.raises(ConfigError):
            ModelParams(**kw, I0_ref=0.0, N0_ref=50.0)
        ok = ModelParams(**kw, I0_ref=50.0, N0_ref=50.0)
        assert ok.reference_infectious_fraction == 1.0

    @pytest.mark.parametrize("refs", [
        (math.inf, math.inf), (10.0, math.inf), (math.nan, 50.0), (10.0, math.nan),
    ])
    def test_non_finite_references_rejected(self, refs):
        kw = dict(mu=0.1, omega=0.1, beta=1.0, sigma=0.5, gamma=0.5,
                  rho=0.1, nu=0.01)
        with pytest.raises(ConfigError, match="must be finite"):
            ModelParams(**kw, I0_ref=refs[0], N0_ref=refs[1])

    def test_reference_fraction_defaults_to_worst_case(self, params):
        assert params.reference_infectious_fraction == 1.0
        scaled = params.with_references(250.0, 1000.0)
        assert scaled.reference_infectious_fraction == 0.25

    def test_immune_recovery_rate(self, params):
        assert params.immune_recovery_rate == pytest.approx(
            0.4090909090909091, rel=1e-14
        )


class TestMatrixRepresentations:
    def test_canonical_matrix_frozen_entries(self, params, outbreak_x0):
        m = build_matrix(params, outbreak_x0, MatrixVariant.SPLIT_DRAIN_S_GAIN_I)
        expected = np.array([
            [-0.418921568627451, 0.0, 0.0, 0.06666666666666667],
            [0.0, -0.4584670231729055, 0.664, 0.0],
            [0.0, 0.45454545454545453, -0.4584670231729055, 0.0],
            [0.0, 0.0, 0.4090909090909091, -0.07058823529411765],
        ])
        assert isinstance(m, np.ndarray) and m.shape == (4, 4)
        np.testing.assert_allclose(m, expected, rtol=1e-12, atol=0.0)

    def test_bilinear_attribution_placement(self, params, outbreak_x0):
        foi = params.beta * outbreak_x0.I / outbreak_x0.N  # 0.415
        contact = params.beta * outbreak_x0.S / outbreak_x0.N  # 0.664
        a1 = build_matrix(params, outbreak_x0, MatrixVariant.BILINEAR_VIA_S)
        a2 = build_matrix(params, outbreak_x0, MatrixVariant.BILINEAR_VIA_I)
        a3 = build_matrix(params, outbreak_x0, MatrixVariant.SPLIT_DRAIN_I_GAIN_S)
        # drain in the S column, gain from the S column
        assert a1[0, 0] == pytest.approx(-(params.mu + foi), rel=1e-14)
        assert a1[1, 0] == pytest.approx(foi, rel=1e-14)
        assert a1[0, 2] == 0.0 and a1[1, 2] == 0.0
        # drain and gain both through the I column
        assert a2[0, 2] == pytest.approx(-contact, rel=1e-14)
        assert a2[1, 2] == pytest.approx(contact, rel=1e-14)
        assert a2[0, 0] == pytest.approx(-params.mu, rel=1e-14)
        # mixed: drain via I, gain via S
        assert a3[0, 2] == pytest.approx(-contact, rel=1e-14)
        assert a3[1, 0] == pytest.approx(foi, rel=1e-14)
        # infectious and immune rows are shared by all variants
        np.testing.assert_allclose(a1[2:], a2[2:], rtol=0.0, atol=0.0)
        np.testing.assert_allclose(a1[2:], a3[2:], rtol=0.0, atol=0.0)

    def test_birth_sibling_is_rank_one_row_shift(self, params, outbreak_x0):
        for variant in MatrixVariant:
            if variant.includes_birth_term:
                continue
            sibling = MatrixVariant(variant.value + "_0")
            base = build_matrix(params, outbreak_x0, variant)
            lifted = build_matrix(params, outbreak_x0, sibling)
            diff = lifted - base
            np.testing.assert_allclose(diff[0], params.nu, rtol=1e-14)
            np.testing.assert_allclose(diff[1:], 0.0, atol=0.0)

    def test_zero_transmission_makes_mixed_variants_metzler(self, outbreak_x0):
        p = ModelParams(mu=0.01, omega=0.05, beta=0.0, sigma=0.4, gamma=0.4,
                        rho=0.2, nu=0.005)
        m = build_matrix(p, outbreak_x0, MatrixVariant.BILINEAR_VIA_I)
        off = m[~np.eye(4, dtype=bool)]
        assert off.min() >= 0.0

    def test_representation_equivalence_all_variants(self, params, rng):
        # every factoring must rebuild the same vector field
        for _ in range(1000):
            x = random_state(rng)
            v = float(rng.uniform(-0.2, 1.2))
            d = np.array(make_rate_fn(params)(*x, v))
            scale = np.maximum(1.0, np.abs(d))
            for variant in MatrixVariant:
                forms = (
                    (ForcingForm.BIRTH_INSIDE_MATRIX,)
                    if variant.includes_birth_term
                    else BASE_FORMS
                )
                for form in forms:
                    rebuilt = reconstruct_derivative(params, x, v, variant, form)
                    assert np.all(np.abs(rebuilt - d) <= 1e-10 * scale)

    def test_variant_form_pairing_enforced(self, params, outbreak_x0):
        with pytest.raises(ConfigError):
            reconstruct_derivative(
                params, outbreak_x0, 0.5,
                MatrixVariant.SPLIT_DRAIN_S_GAIN_I_WITH_BIRTH,
                ForcingForm.VACCINE_PLUS_BIRTH_VECTOR,
            )
        with pytest.raises(ConfigError):
            reconstruct_derivative(
                params, outbreak_x0, 0.5,
                MatrixVariant.SPLIT_DRAIN_S_GAIN_I,
                ForcingForm.BIRTH_INSIDE_MATRIX,
            )

    def test_forcing_forms_agree(self, params, outbreak_x0):
        v = 0.3
        affine = forcing_vector(
            params, outbreak_x0, v, ForcingForm.VACCINE_PLUS_BIRTH_VECTOR
        )
        routed = forcing_vector(
            params, outbreak_x0, v, ForcingForm.BIRTH_ROUTED_CONTROL
        )
        np.testing.assert_allclose(affine, routed, rtol=1e-14)
        births = params.nu * outbreak_x0.N
        inside = forcing_vector(
            params, outbreak_x0, v, ForcingForm.BIRTH_INSIDE_MATRIX
        )
        np.testing.assert_allclose(
            affine - inside, [births, 0.0, 0.0, 0.0], rtol=1e-14
        )

    def test_routed_control_nonnegative_for_admissible_input(
        self, params, outbreak_x0
    ):
        for v in (0.0, 0.25, 1.0):
            vec = forcing_vector(
                params, outbreak_x0, v, ForcingForm.BIRTH_ROUTED_CONTROL
            )
            assert vec.min() >= 0.0

    def test_variant_ids_are_stable(self):
        assert {v.value for v in MatrixVariant} == {
            "A1", "A2", "A3", "A4", "A1_0", "A2_0", "A3_0", "A4_0"
        }
        assert sx.CANONICAL_VARIANT.value == "A4"
        assert MatrixVariant("A3_0").base is MatrixVariant.SPLIT_DRAIN_I_GAIN_S
