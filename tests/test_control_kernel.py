"""Invariants of the per-run control kernel on generated admissible inputs.

Every admissible family/profile/law combination is drawn together with a
nonnegative state, a sample time and the design constants; the kernel must
satisfy the controller identity, keep the clamped law inside [0, 1], raise
the indicators exactly when the demand leaves [0, 1], report the population
rate dN/dt = (nu - mu)*N - rho*gamma*I, and agree bit for bit with the
public single-sample helpers it replaces in the integrator.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from seirvax import (
    BASELINE_PARAMS,
    ControlConfig,
    ModulationFamily,
    ReferenceProfile,
    StateVec,
    VaccinationLaw,
    make_control_fn,
    modulation_identity_residual,
    reference,
    vaccination_saturated,
    vaccination_unsaturated,
)

P = BASELINE_PARAMS
count = st.floats(0.0, 1000.0)


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
    raw_min = draw(st.one_of(st.just(min(x)), st.floats(-1.0, -1e-12)))
    return cfg, x, t, r0, raw_min


@settings(derandomize=True, max_examples=300, deadline=None)
@given(kernel_inputs())
def test_kernel_invariants(inputs):
    cfg, x, t, r0, raw_min = inputs
    out = make_control_fn(cfg, P, r0)(t, *x, raw_min)
    (V_a, V, theta0, theta1, g, h, h_dot, R_star, R_star_dot,
     K_N, K_I, residual, dN) = out

    assert dN == (P.nu - P.mu) * x.N - P.rho * P.gamma * x.I
    assert theta0 == (V_a < 0.0) and theta1 == (V_a > 1.0)
    assert residual < 1e-10
    if cfg.law is VaccinationLaw.NONE:
        assert (V_a, V, g, residual) == (0.0, 0.0, 0.0, 0.0)
        return
    if cfg.law is VaccinationLaw.SATURATED:
        assert 0.0 <= V <= 1.0
    else:
        assert V >= 0.0

    ref = reference(cfg, P, t, x, r0)
    assert (h, h_dot, R_star, R_star_dot) == tuple(ref)
    if cfg.law is VaccinationLaw.SATURATED:
        sample = vaccination_saturated(cfg, P, t, x, ref, r0=r0)
    else:
        sample = vaccination_unsaturated(cfg, P, t, x, ref, r0=r0, raw_min=raw_min)
    assert (sample.V_a, sample.V, sample.theta0, sample.theta1, sample.g,
            sample.K_N, sample.K_I) == (V_a, V, theta0, theta1, g, K_N, K_I)
    assert modulation_identity_residual(cfg, P, x, sample) == residual
