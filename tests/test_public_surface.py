"""The package's public surface: every exported name resolves.

Guards deletions against a stale export: a name left in ``__all__`` after
its definition is gone would break ``from seirvax import *``.
"""

from dataclasses import fields
from inspect import signature

import seirvax
from seirvax.cli import RunReport


def test_every_exported_name_resolves_once():
    names = seirvax.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(seirvax, name)] == []


def test_star_import():
    namespace: dict = {}
    exec("from seirvax import *", namespace)
    assert set(seirvax.__all__) <= set(namespace)


def test_single_sample_surface_is_control_sample():
    assert "control_sample" in seirvax.__all__
    for gone in (
        "reference", "gain_schedule", "vaccination_saturated", "vaccination_unsaturated",
        "modulation_identity_residual", "ReferenceSample", "total_population_rate",
        "make_control_fn",
    ):
        assert not hasattr(seirvax, gone), gone


def test_model_records_restate_nothing():
    # make_rate_fn is the one vector field, build_matrix returns a bare
    # array, and a verdict's flag is derived from its conditions
    assert {"make_rate_fn", "build_matrix", "StabilityVerdict"} <= set(seirvax.__all__)
    for gone in ("derivative", "StateRate", "DynamicsMatrix", "InconsistentVerdictError"):
        assert not hasattr(seirvax, gone), gone
        for module in (seirvax.model, seirvax.errors, seirvax.stability):
            assert not hasattr(module, gone), (module.__name__, gone)


def test_run_report_keeps_the_run_and_its_analyses():
    # everything else report.txt shows is read off the run, and the
    # scenario's steady_state_tol is the only steady-state tolerance
    assert [f.name for f in fields(RunReport)] == [
        "traj", "steady_state", "integral", "verdicts",
    ]
    assert list(signature(seirvax.detect_steady_state).parameters) == ["traj"]
