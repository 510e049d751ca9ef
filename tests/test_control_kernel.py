"""Invariants of the per-run control kernel on generated admissible inputs.

Every admissible family/profile/law combination is drawn together with a
nonnegative state, a sample time and the design constants; the kernel must
satisfy the controller identity, keep the clamped law inside [0, 1] and
report the population rate dN/dt = (nu - mu)*N - rho*gamma*I. The
indicators and the identity residual, which the integrator derives once per
run over whole columns, are pinned to the per-sample scalar formula they
replaced, on inputs that include nan, infinities, signed zeros, subnormals
and overflowing products. The single-sample surface, control_sample, is
pinned to recorded rows here on a resetting run and in test_control_grid.py
on every family, profile and law.
"""

import math
import struct
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from seirvax import (
    BASELINE_PARAMS,
    ControlConfig,
    ModulationFamily,
    ReferenceProfile,
    ScenarioConfig,
    StateVec,
    VaccinationLaw,
    control_sample,
    integrate,
)
from seirvax.control import _derived_values

from conftest import assert_rows_match_control_sample

P = BASELINE_PARAMS
count = st.floats(0.0, 1000.0)


def reference_residual(nu, eps, eps0, N, V_a, g):
    """The residual as a per-sample float formula: the oracle for the array
    form that integrate applies to whole columns."""
    actual = nu * N * V_a
    target = eps0 * (1.0 - eps * g) * N
    scale = max(abs(actual), abs(target), eps0 * N)
    if scale == 0.0:
        return 0.0
    return abs(actual - target) / scale


def bits(x) -> bytes:
    return struct.pack("<d", float(x))


@st.composite
def kernel_inputs(draw):
    # eps0 above the switched floor max(nu, gamma*(1-rho)) ~ 0.409 and
    # vartheta above the immune pole mu + omega ~ 0.0706 keep every
    # combination admissible.
    cfg = ControlConfig(
        eps0=draw(st.floats(0.41, 2.0)),
        vartheta=draw(st.floats(0.08, 1.0)),
        eps=draw(st.floats(0.1, 4.0)),
        c=draw(st.floats(0.01, 1.0)),
        g_family=draw(st.sampled_from(ModulationFamily)),
        h_family=draw(st.sampled_from(ReferenceProfile)),
        law=draw(st.sampled_from(VaccinationLaw)),
    ).validated(P)
    x = StateVec(draw(count), draw(count), draw(count), draw(count))
    if not x.N > 1.0:
        x = x._replace(S=x.S + 1.0 + draw(count))
    t = draw(st.floats(0.0, 200.0))
    r0 = draw(count)
    negative = draw(st.booleans())
    return cfg, x, t, r0, negative


@settings(derandomize=True, max_examples=300, deadline=None)
@given(kernel_inputs())
def test_kernel_invariants(inputs):
    cfg, x, t, r0, negative = inputs
    s = control_sample(cfg, P, t, x, r0, negative)
    V_a, V, g, dN = s.V_a, s.V, s.g, s.dN

    assert dN == (P.nu - P.mu) * x.N - P.rho * P.gamma * x.I
    if cfg.law is VaccinationLaw.NONE:
        assert (V_a, V, g, s.identity_residual) == (0.0, 0.0, 0.0, 0.0)
        return
    residual = _derived_values(cfg, P, x.N, V_a, g)[2]
    assert residual < 1e-10 and s.identity_residual == residual
    if cfg.law is VaccinationLaw.SATURATED:
        assert 0.0 <= V <= 1.0
    else:
        assert V >= 0.0


# Values where a numpy spelling of the residual could part from the scalar
# one: nan, both infinities, both zeros, the smallest subnormal and normal,
# products that overflow (1e300 * 1e300) or underflow (1e-300 * 1e-300,
# as eps0*N does for eps0 = N = 1e-300) to zero.
EDGE = st.sampled_from([
    math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
    2.2250738585072014e-308, 1e-300, -1e-300, 1e300, -1e300, 1.0, -1.0, 0.5,
])
value = st.one_of(EDGE, st.floats())


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    nu=value, eps=value, eps0=value,
    samples=st.lists(st.tuples(value, value, value), min_size=1, max_size=12),
)
def test_derived_columns_match_the_scalar_formula(nu, eps, eps0, samples):
    # _derived_values reads only law, eps and eps0 of the config and nu of
    # the parameters, so unvalidated constants can reach it here
    cfg = SimpleNamespace(law=VaccinationLaw.SATURATED, eps=eps, eps0=eps0)
    params = SimpleNamespace(nu=nu)
    N, V_a, g = (np.array(col, dtype=np.float64) for col in zip(*samples))
    theta0, theta1, residual = _derived_values(cfg, params, N, V_a, g)
    assert residual.dtype == np.float64 and residual.shape == N.shape
    for k, (n, va, gk) in enumerate(samples):
        expected = reference_residual(nu, eps, eps0, n, va, gk)
        assert bits(residual[k]) == bits(expected)
        th0, th1, one = _derived_values(cfg, params, n, va, gk)
        assert bits(one) == bits(expected) and (th0, th1) == (va < 0.0, va > 1.0)
    assert theta0.tolist() == [va < 0.0 for _, va, _ in samples]
    assert theta1.tolist() == [va > 1.0 for _, va, _ in samples]
    cfg.law = VaccinationLaw.NONE
    assert _derived_values(cfg, params, N, V_a, g)[2].tolist() == [0.0] * len(samples)


# An unclamped run that resets and leaves [0, 1].
RESETTING_RUN = ScenarioConfig(
    params=P,
    x0=StateVec(400.0, 150.0, 250.0, 200.0),
    control=ControlConfig(eps0=0.5, c=0.2, law=VaccinationLaw.UNSATURATED),
    horizon=100.0,
    dt=0.5,
)


def test_run_columns_match_the_scalar_formula():
    """integrate's derived columns equal the per-row scalar formula, on an
    unclamped run that resets and leaves [0, 1]."""
    sc = RESETTING_RUN
    traj = integrate(sc)
    assert traj.reset_counts.sum() > 0 and traj.theta1.any()
    cfg = traj.scenario.control
    for k in range(len(traj)):
        N = traj.state(k).N
        va, g = float(traj.V_a[k]), float(traj.g[k])
        assert bits(traj.identity_residual[k]) == bits(
            reference_residual(P.nu, cfg.eps, cfg.eps0, N, va, g))
        assert (traj.theta0[k], traj.theta1[k]) == (va < 0.0, va > 1.0)
    none = integrate(replace(sc, control=replace(sc.control, law=VaccinationLaw.NONE)))
    assert not none.identity_residual.any()
    assert not (none.theta0.any() or none.theta1.any())


def test_resetting_run_rows_match_the_single_sample_controller():
    """integrate composes the controller inline at each boundary; on the
    unclamped run above, rows taken after a reset (negative = True) and
    rows above 1 equal control_sample's output bit for bit."""
    traj = integrate(RESETTING_RUN)
    assert traj.theta1.any()
    assert assert_rows_match_control_sample(traj) > 0
