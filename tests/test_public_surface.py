"""The package's public surface: every exported name resolves.

Guards deletions against a stale export: a name left in ``__all__`` after
its definition is gone would break ``from seirvax import *``.
"""

import seirvax


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
