"""The package's public surface: every exported name resolves and has a reader.

Guards deletions against a stale export: a name left in ``__all__`` after
its definition is gone would break ``from seirvax import *``. And guards
the surface against growth: an exported name that nothing in the program
reads, and that is not one of the paper's stated results, has no reason
to be kept.
"""

import ast
import os
import subprocess
import sys
from dataclasses import fields, is_dataclass
from importlib import import_module
from importlib.util import find_spec
from inspect import signature
from pathlib import Path

import pytest

import seirvax
import seirvax.analysis
from seirvax.cli import TRAJECTORY_COLUMNS, RunReport
from seirvax.presets import PresetEntry

from conftest import readme_ini


def test_every_exported_name_resolves_once():
    names = seirvax.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(seirvax, name)] == []


# Exported for the paper's content (a closed form, a bound, a criterion or
# a factorization) though no program path reads them: the tests read each
# of them, and README shows most.
PAPER_CONTENT_NAMES = frozenset({
    "control_sample", "tracking_bound", "immune_closed_form", "stationary_tracking_level",
    "decompose_star", "metzler_parameter_criterion", "reconstruct_derivative",
})


def _loaded_names(paths) -> set[str]:
    """Every name read as a bare name or an attribute in these files."""
    loaded = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    return loaded


def test_every_exported_name_has_a_reader():
    # a reader is the package itself (outside the re-exporting __init__),
    # the benchmark harness, or the paper-content list above
    root = Path(__file__).resolve().parents[1]
    package = sorted((root / "src" / "seirvax").glob("*.py"))
    readers = [p for p in package if p.name != "__init__.py"]
    loaded = _loaded_names(readers + sorted((root / "perfbench").rglob("*.py")))
    assert PAPER_CONTENT_NAMES <= set(seirvax.__all__)
    unread = [name for name in seirvax.__all__ if name not in loaded | PAPER_CONTENT_NAMES]
    assert unread == []


def test_step_size_ladder_is_gone():
    # RK4's order is checked by direct integrate calls in test_sim.py
    for gone in ("convergence_study", "ConvergenceRow"):
        assert gone not in seirvax.__all__, gone
        for module in (seirvax, seirvax.sim):
            assert not hasattr(module, gone), (module.__name__, gone)


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
    # the switched design's two branches are spelled once, in _modulation_fn
    for gone in (
        "g_signal", "IndicatorMismatchError", "_switched_interior_g", "_switched_saturated_g",
    ):
        for module in (seirvax, seirvax.control, seirvax.errors):
            assert not hasattr(module, gone), (module.__name__, gone)


def test_model_records_restate_nothing():
    # make_rate_fn is the one vector field, build_matrix returns a bare
    # array, and a verdict's flag is derived from its conditions
    assert {"make_rate_fn", "build_matrix", "StabilityVerdict"} <= set(seirvax.__all__)
    for gone in ("derivative", "StateRate", "DynamicsMatrix", "InconsistentVerdictError"):
        assert not hasattr(seirvax, gone), gone
        for module in (seirvax.model, seirvax.errors, seirvax.stability):
            assert not hasattr(module, gone), (module.__name__, gone)


# Every result record: immutable, compared and hashed by value, changed
# with _replace. RunReport keeps the run and its two analyses, as
# everything else report.txt shows is read off the run (its integral
# verdict is one of the verdicts); a preset entry holds its scenario.
RESULT_FIELDS = {
    seirvax.stability.ConditionCheck: ("name", "lhs", "rhs", "satisfied"),
    seirvax.stability.StabilityVerdict: ("criterion", "conditions", "applicable", "notes"),
    seirvax.analysis.MetzlerReport: ("min_offdiagonal", "violating_entries"),
    seirvax.sim.ResetEvent: ("t", "index", "value_before"),
    seirvax.sim.SteadyState: ("t_ss", "x_ss"),
    seirvax.analysis.TrackingBound: ("case", "R_bar", "ratio", "immune_extinction", "requires"),
    PresetEntry: ("description", "scenario"),
    RunReport: ("traj", "steady_state", "verdicts"),
}


def test_results_are_named_tuples_and_settings_are_dataclasses():
    # a dataclass is a setting callers change with dataclasses.replace, or
    # the run itself; building a NamedTuple class generates no methods
    modules = [import_module(f"seirvax.{path.stem}")
               for path in Path(seirvax.__file__).parent.glob("*.py")
               if path.stem != "__init__"]
    classes = {
        cls for module in modules for cls in vars(module).values()
        if isinstance(cls, type) and cls.__module__ == module.__name__
    }
    assert {cls.__name__ for cls in classes if is_dataclass(cls)} == {
        "ModelParams", "ControlConfig", "ScenarioConfig", "Trajectory",
    }
    named_tuples = {cls for cls in classes if issubclass(cls, tuple)}
    assert named_tuples == set(RESULT_FIELDS) | {seirvax.StateVec, seirvax.ControlSample}
    for cls, names in RESULT_FIELDS.items():
        assert cls._fields == names, cls.__name__


def test_run_report_keeps_the_run_and_its_analyses():
    # the scenario's steady_state_tol is the only steady-state tolerance
    assert list(signature(seirvax.detect_steady_state).parameters) == ["traj"]


def test_model_params_are_the_seven_rates():
    # the decomposition's reference fraction is decompose_star's argument
    assert [f.name for f in fields(seirvax.ModelParams)] == [
        "mu", "omega", "beta", "sigma", "gamma", "rho", "nu",
    ]
    for gone in ("I0_ref", "N0_ref", "with_references", "reference_infectious_fraction"):
        assert not hasattr(seirvax.ModelParams, gone), gone
    assert list(signature(seirvax.decompose_star).parameters) == [
        "params", "x", "ref_fraction", "include_birth",
    ]


def test_integral_verdict_stores_no_derived_value():
    # the integral identity is the T3_integral verdict: whether it holds is
    # derived from its two conditions, the pointwise tolerance is
    # POINTWISE_TOL, and the horizon is the run's last sample time
    assert isinstance(seirvax.StabilityVerdict.hypothesis_holds, property)
    for gone in ("tol", "horizon", "residual", "consistent"):
        assert not hasattr(seirvax.StabilityVerdict, gone), gone


def test_one_selector_per_controller_behaviour():
    # the switched design is one family; its branch comes from the indicators
    assert [m.value for m in seirvax.ModulationFamily] == [
        "zero", "constant_inv_eps", "eq33b", "eq43_theorem6", "corollary2_ii",
        "custom_case_a", "custom_case_b",
    ]
    assert seirvax.ModulationFamily("eq33b") is seirvax.ModulationFamily.SWITCHED
    # a pinned reference is section7 at c = 0
    assert [h.value for h in seirvax.ReferenceProfile] == [
        "section7", "corollary2_i", "theorem6_ii",
    ]
    assert not hasattr(seirvax.ReferenceProfile, "CONSTANT_LEVEL")
    for gone in ("SATURATED_BRANCH", "INTERIOR_BRANCH"):
        assert not hasattr(seirvax.ModulationFamily, gone), gone
    assert not hasattr(seirvax.control, "_SWITCHED_FAMILIES")
    # one closure composes the population rate, profile, modulation and law
    assert list(signature(seirvax.control.boundary_fn).parameters) == ["cfg", "params", "r0"]
    for gone in ("control_pieces", "_law_fn"):
        assert not hasattr(seirvax.control, gone), gone
    # a built profile is the paper's h and its time-derivative, from (t, N);
    # the boundary closure forms R_star and its product rule from them
    params = seirvax.build_preset("fig2-saturated").params
    for h_family in seirvax.ReferenceProfile:
        cfg = seirvax.ControlConfig(h_family=h_family, vartheta=1.0).validated(params)
        profile = seirvax.control._profile_fn(cfg, params, 10.0)
        assert list(signature(profile).parameters) == ["t", "N"], h_family
        assert len(profile(0.0, 100.0)) == 2, h_family


def test_presets_are_values():
    # each entry is keyed by its scenario's own name
    for name, entry in seirvax.PRESETS.items():
        assert entry.scenario.name == name
        assert seirvax.build_preset(name) is entry.scenario
    for gone in (
        "_no_vaccination", "_switched_control", "_saturated_outbreak",
        "_unsaturated_outbreak", "_constant_population_check", "_immune_decay",
        "_disease_free_tracking",
    ):
        assert not hasattr(seirvax.presets, gone), gone


def test_run_columns_share_the_control_sample_names():
    # a run's control columns are the ControlSample fields it records, in
    # its order; h_dot, R_star_dot, K_N and K_I serve only to form V_a and
    # are not recorded. trajectory.csv's float columns are run attributes of
    # the same names, its control columns the ones sim records.
    names = [f.name for f in fields(seirvax.Trajectory)]
    start = names.index("rates") + 1
    recorded = [name for name in seirvax.ControlSample._fields if name in names]
    assert (len(recorded), len(seirvax.ControlSample._fields)) == (9, 13)
    assert names[start:start + len(recorded)] == recorded
    assert TRAJECTORY_COLUMNS[6:12] == seirvax.sim._RECORDED_CONTROL == tuple(recorded[:6])
    assert seirvax.sim._ROW.size == 8 * (10 + len(seirvax.sim._RECORDED_CONTROL)) == 128
    for name in TRAJECTORY_COLUMNS[:12]:
        assert hasattr(seirvax.Trajectory, name) or name in names, name
    for gone in ("va", "v", "r_star", "r_star_dot", "k_n", "k_i", "dn",
                 "h_dot", "R_star_dot", "K_N", "K_I"):
        assert gone not in names and not hasattr(seirvax.Trajectory, gone), gone
    assert not hasattr(seirvax.sim, "_CONTROL_COLUMNS")
    assert "_RECORDED_CONTROL" not in seirvax.__all__


def test_positivity_and_integral_analyses_take_only_their_subject():
    # the run already records states after the reset and carries its own
    # params and step; the Metzler definition is strict; "does not apply"
    # is a verdict's applicable flag, not an exception; the integral
    # identity is the T3_integral verdict integral_test returns
    for gone in ("monitor_nonnegativity", "NonnegativityReport", "NonUniformGridError",
                 "NotApplicableError", "IntegralDiagnostic", "integral_verdict"):
        assert gone not in seirvax.__all__, gone
        for module in (seirvax, seirvax.analysis, seirvax.stability, seirvax.errors):
            assert not hasattr(module, gone), (module.__name__, gone)
    assert list(signature(seirvax.integral_test).parameters) == ["traj"]
    assert list(signature(seirvax.standard_verdicts).parameters) == ["params", "integral"]
    assert list(signature(seirvax.check_metzler).parameters) == ["matrix"]
    # the Metzler checks moved into seirvax.analysis with the rest of the
    # analysis apparatus
    assert find_spec("seirvax.positivity") is None
    assert not hasattr(seirvax, "positivity")


# The paper's analysis apparatus, which no run executes: seirvax exports
# each name and imports seirvax.analysis on first access to one of them.
ANALYSIS_NAMES = (
    "MatrixVariant", "CANONICAL_VARIANT", "build_matrix", "forcing_vector",
    "reconstruct_derivative", "MetzlerReport", "check_metzler",
    "metzler_parameter_criterion", "decompose_star", "TrackingCase", "TrackingBound",
    "tracking_bound", "immune_closed_form", "stationary_tracking_level",
    "ControlSample", "control_sample",
)

IMPORT_BOUNDARY_CHILD = """
import sys
import seirvax
from seirvax import cli
assert cli.main(["--preset", "constant-population-check", "--horizon", "1",
                 "--out", sys.argv[1]]) == 0
assert "seirvax.analysis" not in sys.modules, "a run imported seirvax.analysis"
for name in sys.argv[2:]:
    assert getattr(seirvax, name).__module__ == "seirvax.analysis", name
assert "seirvax.analysis" in sys.modules
"""


# A preset run with no override reads no scenario file and sets no numeric
# key: it loads neither seirvax.config nor configparser, and the names that
# read them resolve on first access.
PRESET_RUN_CHILD = """
import sys
import seirvax
from seirvax import cli
assert cli.main(["--preset", "constant-population-check", "--out", sys.argv[1]]) == 0
for module in ("seirvax.config", "configparser", "seirvax.analysis"):
    assert module not in sys.modules, f"a preset run imported {module}"
assert seirvax.load_scenario.__module__ == "seirvax.config"
import seirvax.sim
assert cli.apply_sweep_value is seirvax.sim.with_numeric
"""


# One CLI run in a fresh interpreter: argv[1] is 1 where the run must have
# loaded seirvax.config (and configparser with it), 0 where it must not;
# the rest is the run's argv.
CLI_MODE_CHILD = """
import sys
from seirvax import cli
assert cli.main(sys.argv[2:]) == 0
for module in ("seirvax.config", "configparser"):
    assert (module in sys.modules) == (sys.argv[1] == "1"), module
"""


def _run_child(script: str, *args: str) -> None:
    # a fresh interpreter, as this one has imported seirvax.analysis above
    path = [str(Path(seirvax.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    child = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env, capture_output=True, text=True, timeout=120, check=False,
    )
    assert child.returncode == 0, child.stderr


def test_a_run_loads_no_analysis_code(tmp_path):
    _run_child(IMPORT_BOUNDARY_CHILD, str(tmp_path), *ANALYSIS_NAMES)
    assert (tmp_path / "trajectory.csv").is_file()
    assert set(ANALYSIS_NAMES) <= set(seirvax.__all__)
    assert not hasattr(seirvax, "no_such_name")


def test_a_preset_run_loads_no_scenario_file_parser(tmp_path):
    _run_child(PRESET_RUN_CHILD, str(tmp_path))
    assert (tmp_path / "trajectory.csv").is_file()
    assert "load_scenario" in seirvax.__all__


# Numeric overrides set keys through the table beside ScenarioConfig in
# seirvax.sim: only a scenario file loads the parser.
@pytest.mark.parametrize("extra", [
    pytest.param(["--dt", "0.5", "--sweep", "beta=1,2"], id="sweep"),
    pytest.param(["--dt", "0.5"], id="dt-horizon"),
])
def test_a_numeric_override_loads_no_scenario_file_parser(tmp_path, extra):
    _run_child(CLI_MODE_CHILD, "0", "--preset", "constant-population-check",
               "--horizon", "1", *extra, "--out", str(tmp_path))
    made = "sweep.csv" if "--sweep" in extra else "trajectory.csv"
    assert (tmp_path / made).is_file()


def test_a_config_run_loads_the_scenario_file_parser(tmp_path):
    ini = tmp_path / "scenario.ini"
    ini.write_text(readme_ini(horizon="1"), encoding="utf-8")
    _run_child(CLI_MODE_CHILD, "1", "--config", str(ini), "--out", str(tmp_path))
    assert (tmp_path / "trajectory.csv").is_file()


def test_the_numeric_key_table_has_one_spelling():
    import seirvax.config
    import seirvax.sim

    assert seirvax.config.numeric_key is seirvax.sim.numeric_key
