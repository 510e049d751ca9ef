"""The analysis apparatus: Metzler scans, the parameter-level criterion,
the constant/varying split, and the matrix representations with their
forcing vectors.

The matrix representations' hand-computed expected values were derived
with exact rational arithmetic from the model definitions before being
frozen here.
"""

import math
from inspect import signature

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seirvax as sx
from seirvax import (
    MatrixVariant,
    ModelParams,
    StateVec,
    build_matrix,
    check_metzler,
    decompose_star,
    forcing_vector,
    make_rate_fn,
    metzler_parameter_criterion,
    reconstruct_derivative,
)
from seirvax.errors import ConfigError, DecompositionError

from conftest import random_state, rate


@st.composite
def rate_sets(draw):
    """The seven rates, with the criterion's edges beta = 0, nu = beta and
    nu > beta drawn often."""
    beta = draw(st.one_of(st.just(0.0), rate(0.0, 2.0)))
    nu = draw(st.one_of(st.just(beta), rate(0.0, 2.0), rate(0.0, 1.0).map(lambda d: beta + d)))
    return ModelParams(
        mu=draw(rate(0.0, 0.1)), omega=draw(rate(0.0, 1.0)), beta=beta,
        sigma=draw(rate(0.0, 1.0)), gamma=draw(rate(0.0, 1.0)), rho=draw(rate(0.0, 1.0)),
        nu=nu,
    )


def drain_entry(params: ModelParams, x: StateVec, variant: MatrixVariant) -> float:
    """Entry (0, 2) of a variant that puts the contact drain in the I
    column: -beta*S/N, plus nu when the variant carries the births."""
    drain = -(params.beta * (x.S / x.N))
    return drain + params.nu if variant.includes_birth_term else drain


# nonnegative components, each often exactly zero, with a total above 1
_component = st.one_of(st.just(0.0), rate(0.0, 1000.0))
admissible_states = st.builds(StateVec, _component, _component, _component, _component).filter(
    lambda x: x.N > 1.0
)


class TestMetzlerScan:
    def test_crafted_violation_is_reported(self):
        m = np.array([
            [-1.0, 0.5, 0.0],
            [0.2, -2.0, -0.3],
            [0.0, 0.1, -0.5],
        ])
        report = check_metzler(m)
        assert not report.is_metzler
        assert report.violating_entries == ((1, 2, -0.3),)
        assert report.min_offdiagonal == -0.3

    def test_roundoff_below_zero_is_a_violation(self):
        m = np.array([[-1.0, -1e-12], [0.0, -1.0]])
        assert not check_metzler(m).is_metzler

    @pytest.mark.parametrize("m", [[[1.0]], np.zeros((0, 0))], ids=["1x1", "0x0"])
    def test_no_offdiagonal_entry_is_metzler(self, m):
        report = check_metzler(m)
        assert report.is_metzler
        assert report.min_offdiagonal == math.inf
        assert report.violating_entries == ()

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError):
            check_metzler(np.zeros((2, 3)))

    def test_built_matrix_is_scanned_directly(self, params, outbreak_x0):
        m = build_matrix(params, outbreak_x0, MatrixVariant.BILINEAR_VIA_I)
        report = check_metzler(m)
        assert not report.is_metzler  # susceptible drain sits off-diagonal
        assert report.violating_entries == ((0, 2, float(m[0, 2])),)


class TestParameterCriterion:
    def test_endemic_parameters(self, params):
        # drain attributed to the S column keeps it on the diagonal
        expected = {
            MatrixVariant.BILINEAR_VIA_S: True,
            MatrixVariant.BILINEAR_VIA_I: False,
            MatrixVariant.SPLIT_DRAIN_I_GAIN_S: False,
            MatrixVariant.SPLIT_DRAIN_S_GAIN_I: True,
            MatrixVariant.BILINEAR_VIA_S_WITH_BIRTH: True,
            MatrixVariant.BILINEAR_VIA_I_WITH_BIRTH: False,
            MatrixVariant.SPLIT_DRAIN_I_GAIN_S_WITH_BIRTH: False,
            MatrixVariant.SPLIT_DRAIN_S_GAIN_I_WITH_BIRTH: True,
        }
        for variant, want in expected.items():
            assert metzler_parameter_criterion(params, variant) is want, variant

    def test_weak_transmission_saves_birth_variants(self, params):
        # nu >= beta keeps nu - beta*S/N nonnegative for every state
        weak = ModelParams(mu=params.mu, omega=params.omega, beta=0.001,
                           sigma=params.sigma, gamma=params.gamma,
                           rho=params.rho, nu=params.nu)
        assert metzler_parameter_criterion(
            weak, MatrixVariant.BILINEAR_VIA_I_WITH_BIRTH
        )
        assert metzler_parameter_criterion(
            weak, MatrixVariant.SPLIT_DRAIN_I_GAIN_S_WITH_BIRTH
        )
        # the vector-forcing siblings still need beta == 0 exactly
        assert not metzler_parameter_criterion(weak, MatrixVariant.BILINEAR_VIA_I)
        zero = ModelParams(mu=params.mu, omega=params.omega, beta=0.0,
                           sigma=params.sigma, gamma=params.gamma,
                           rho=params.rho, nu=params.nu)
        assert metzler_parameter_criterion(zero, MatrixVariant.BILINEAR_VIA_I)

    def test_criterion_matches_state_scan(self, params, rng):
        # True must mean Metzler at every admissible state; False must have
        # a witness near the all-susceptible corner, whose one violation is
        # the contact drain in the I column
        worst = StateVec(3.0 - 3e-6, 1e-6, 1e-6, 1e-6)
        for variant in MatrixVariant:
            if metzler_parameter_criterion(params, variant):
                for _ in range(50):
                    x = random_state(rng)
                    assert check_metzler(build_matrix(params, x, variant)).is_metzler
            else:
                report = check_metzler(build_matrix(params, worst, variant))
                assert report.violating_entries == (
                    (0, 2, drain_entry(params, worst, variant)),
                ), variant

    def test_nu_equal_to_beta_keeps_the_corner_metzler(self):
        # beta*S/N taken left to right is 0.1*3/3 = 0.1 + 1 ulp, which made
        # nu - beta*S/N negative at S = N although the criterion holds
        p = ModelParams(mu=0.0, omega=0.0, beta=0.1, sigma=0.0, gamma=0.0, rho=0.0, nu=0.1)
        variant = MatrixVariant.BILINEAR_VIA_I_WITH_BIRTH
        assert metzler_parameter_criterion(p, variant)
        m = build_matrix(p, StateVec(3.0, 0.0, 0.0, 0.0), variant)
        assert m[0, 2] == 0.0
        assert check_metzler(m).is_metzler

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(params=rate_sets(), states=st.lists(admissible_states, min_size=1, max_size=4))
    def test_criterion_agrees_with_the_scan_on_generated_rates(self, params, states):
        # True: every drawn state and the all-susceptible corner of its
        # population give a Metzler matrix. False: the contact drain is the
        # only entry that can go negative, at every drawn state, and each
        # corner is a witness
        corners = [StateVec(x.N, 0.0, 0.0, 0.0) for x in states]
        for variant in MatrixVariant:
            if metzler_parameter_criterion(params, variant):
                for x in (*states, *corners):
                    report = check_metzler(build_matrix(params, x, variant))
                    assert report.is_metzler, (variant, x, report.violating_entries)
            else:
                for x in (*states, *corners):
                    entry = drain_entry(params, x, variant)
                    want = ((0, 2, entry),) if entry < 0.0 else ()
                    report = check_metzler(build_matrix(params, x, variant))
                    assert report.violating_entries == want, (variant, x)
                assert all(drain_entry(params, x, variant) < 0.0 for x in corners), variant


class TestConstantVaryingSplit:
    def test_split_at_outbreak_state(self, params, outbreak_x0):
        a_const, b = decompose_star(params, outbreak_x0)
        expected_diag = [
            -1.6639215686274509,
            -0.4584670231729055,
            -0.4584670231729055,
            -0.07058823529411765,
        ]
        np.testing.assert_allclose(np.diag(a_const), expected_diag, rtol=1e-12)
        # constant part: no latent gain, so the spectrum is the diagonal
        assert a_const[1, 2] == 0.0
        np.testing.assert_allclose(
            sorted(np.linalg.eigvals(a_const).real), sorted(expected_diag),
            rtol=1e-12,
        )
        assert b[0, 0] == pytest.approx(1.245, rel=1e-12)
        assert b[1, 2] == pytest.approx(0.664, rel=1e-12)
        mask = np.ones((4, 4), dtype=bool)
        mask[0, 0] = mask[1, 2] = False
        assert np.all(b[mask] == 0.0)
        canonical = build_matrix(
            params, outbreak_x0, MatrixVariant.SPLIT_DRAIN_S_GAIN_I
        )
        np.testing.assert_allclose(a_const + b, canonical, rtol=1e-12, atol=1e-15)

    def test_split_reproduces_vector_field(self, params, rng):
        for _ in range(100):
            x = random_state(rng)
            v = float(rng.uniform(0.0, 1.0))
            a_const, b = decompose_star(params, x)
            forcing = forcing_vector(params, x, v, MatrixVariant.SPLIT_DRAIN_S_GAIN_I)
            rebuilt = (a_const + b) @ np.asarray(x, dtype=float) + forcing
            d = np.array(make_rate_fn(params)(*x, v))
            scale = np.maximum(1.0, np.abs(d))
            assert np.all(np.abs(rebuilt - d) <= 1e-10 * scale)

    def test_birth_fold_spectrum(self, params, outbreak_x0):
        a_const, b = decompose_star(params, outbreak_x0, include_birth=True)
        expected = sorted([
            -1.6572549019607843,   # -(mu + beta - nu)
            -0.4584670231729055,
            -0.4584670231729055,
            -0.07058823529411765,
        ])
        np.testing.assert_allclose(
            sorted(np.linalg.eigvals(a_const).real), expected, rtol=1e-12
        )
        lifted = build_matrix(
            params, outbreak_x0, MatrixVariant.SPLIT_DRAIN_S_GAIN_I_WITH_BIRTH
        )
        np.testing.assert_allclose(a_const + b, lifted, rtol=1e-12, atol=1e-15)

    def test_reference_fraction_bound(self, params, outbreak_x0):
        with pytest.raises(DecompositionError):
            decompose_star(params, outbreak_x0, ref_fraction=0.1)  # I/N = 0.25
        calm = StateVec(700.0, 100.0, 100.0, 100.0)  # I/N = 0.1 exactly
        a_const, b = decompose_star(params, calm, ref_fraction=0.1)
        assert b[0, 0] == pytest.approx(0.0, abs=1e-15)
        assert a_const[0, 0] == pytest.approx(-(params.mu + 0.166), rel=1e-12)

    @pytest.mark.parametrize("ref_fraction", [math.nan, math.inf, 0.0, 1.5])
    def test_ref_fraction_must_lie_in_unit_interval(self, params, outbreak_x0, ref_fraction):
        with pytest.raises(ConfigError, match=r"ref_fraction must be in \(0, 1\]"):
            decompose_star(params, outbreak_x0, ref_fraction=ref_fraction)

    def test_ref_fraction_defaults_to_worst_case(self, params, outbreak_x0):
        # the default is the fraction 1 every admissible state satisfies,
        # and it is what an unset pair of references used to give: x0.N/x0.N
        assert signature(decompose_star).parameters["ref_fraction"].default == 1.0
        S, E, I, R = outbreak_x0
        N = outbreak_x0.N
        for include_birth in (False, True):
            a_const, b = decompose_star(params, outbreak_x0, include_birth=include_birth)
            old_default = decompose_star(
                params, outbreak_x0, N / N, include_birth=include_birth
            )
            expected_b = np.zeros((4, 4))
            expected_b[0, 0] = params.beta * (1.0 - I / N)
            expected_b[1, 2] = params.beta * S / N
            assert np.array_equal(b, expected_b)
            for got, old in zip((a_const, b), old_default):
                assert np.array_equal(got, old)
        # the worst case admits an everyone-infectious state
        decompose_star(params, StateVec(0.0, 0.0, 10.0, 0.0))


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
                rebuilt = reconstruct_derivative(params, x, v, variant)
                assert np.all(np.abs(rebuilt - d) <= 1e-10 * scale)

    def test_birth_sibling_forcing_drops_the_inflow(self, params, outbreak_x0):
        v = 0.3
        births = params.nu * outbreak_x0.N
        for variant in MatrixVariant:
            if variant.includes_birth_term:
                continue
            sibling = MatrixVariant(variant.value + "_0")
            base = forcing_vector(params, outbreak_x0, v, variant)
            inside = forcing_vector(params, outbreak_x0, v, sibling)
            np.testing.assert_allclose(
                base - inside, [births, 0.0, 0.0, 0.0], rtol=1e-14
            )

    def test_base_forcing_nonnegative_for_admissible_input(
        self, params, outbreak_x0
    ):
        for v in (0.0, 0.25, 1.0):
            vec = forcing_vector(params, outbreak_x0, v, sx.CANONICAL_VARIANT)
            assert vec.min() >= 0.0

    def test_variant_ids_are_stable(self):
        assert {v.value for v in MatrixVariant} == {
            "A1", "A2", "A3", "A4", "A1_0", "A2_0", "A3_0", "A4_0"
        }
        assert sx.CANONICAL_VARIANT.value == "A4"
        assert MatrixVariant("A3_0").base is MatrixVariant.SPLIT_DRAIN_I_GAIN_S
