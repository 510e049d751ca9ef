"""Metzler scans, the parameter-level criterion, the constant/varying
split, and the nonnegativity machinery."""

import numpy as np
import pytest

from seirvax import (
    ForcingForm,
    MatrixVariant,
    ModelParams,
    StateVec,
    apply_reset,
    build_matrix,
    check_metzler,
    decompose_star,
    forcing_vector,
    make_rate_fn,
    metzler_parameter_criterion,
    monitor_nonnegativity,
)
from seirvax.errors import DecompositionError

from conftest import random_state


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

    def test_tolerance_absorbs_roundoff(self):
        m = np.array([[-1.0, -1e-12], [0.0, -1.0]])
        assert not check_metzler(m).is_metzler
        assert check_metzler(m, tol=1e-9).is_metzler

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
        # a witness, and the all-susceptible corner is the worst case.
        worst = StateVec(3.0 - 3e-6, 1e-6, 1e-6, 1e-6)
        for variant in MatrixVariant:
            if metzler_parameter_criterion(params, variant):
                for _ in range(50):
                    x = random_state(rng)
                    assert check_metzler(build_matrix(params, x, variant)).is_metzler
            else:
                report = check_metzler(build_matrix(params, worst, variant))
                assert not report.is_metzler


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
            forcing = forcing_vector(
                params, x, v, ForcingForm.VACCINE_PLUS_BIRTH_VECTOR
            )
            rebuilt = (a_const + b) @ x.as_array() + forcing
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
        tight = params.with_references(100.0, 1000.0)
        with pytest.raises(DecompositionError):
            decompose_star(tight, outbreak_x0)  # I/N = 0.25 > 0.1
        calm = StateVec(700.0, 100.0, 100.0, 100.0)  # I/N = 0.1 exactly
        a_const, b = decompose_star(tight, calm)
        assert b[0, 0] == pytest.approx(0.0, abs=1e-15)
        assert a_const[0, 0] == pytest.approx(-(params.mu + 0.166), rel=1e-12)


class TestNonnegativityTools:
    def test_monitor_clean_and_dirty(self):
        clean = np.array([[1.0, 0.0, 2.0, 3.0], [0.5, -1e-12, 0.1, 0.2]])
        report = monitor_nonnegativity(clean)
        assert report.ok and report.violation_count == 0
        assert report.first_violation is None
        assert report.min_value == -1e-12

        dirty = np.array([[1.0, 0.0, 2.0, 3.0], [0.5, -1e-6, 0.1, -2e-6]])
        report = monitor_nonnegativity(dirty)
        assert not report.ok
        assert report.violation_count == 1  # one bad record
        assert report.first_violation == (1, 1)
        assert report.min_value == -2e-6

    def test_monitor_accepts_single_state(self):
        report = monitor_nonnegativity([1.0, 2.0, 3.0, -0.5], tol=1e-9)
        assert not report.ok and report.first_violation == (0, 3)

    def test_reset_clamps_to_exact_zero(self):
        x = StateVec(1.0, -0.5, 0.0, -1e-14)
        cleaned, clamps = apply_reset(x)
        assert cleaned == StateVec(1.0, 0.0, 0.0, 0.0)
        assert cleaned.E == 0.0 and cleaned.R == 0.0
        assert clamps == ((1, -0.5), (3, -1e-14))

    def test_reset_noop_passthrough(self):
        x = StateVec(1.0, 0.0, 2.0, 3.0)
        cleaned, clamps = apply_reset(x)
        assert cleaned is x
        assert clamps == ()
