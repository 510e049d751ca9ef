"""Command-line behavior: artifacts, report content, config parsing,
overrides, sweeps, and exit codes. Everything runs main() in-process."""

import configparser
import contextlib
import csv
import io
import math
import os
import shutil
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from seirvax import (
    ModulationFamily,
    ReferenceProfile,
    VaccinationLaw,
    build_preset,
    integrate,
    load_scenario,
    preset_names,
)
from seirvax.cli import (
    SWEEP_COLUMNS,
    TRAJECTORY_COLUMNS,
    build_run_report,
    main,
    read_trajectory_csv,
    write_trajectory_csv,
)
from seirvax.errors import ConfigError
from seirvax.sim import _BLOCK_ROWS, with_numeric

from conftest import csv_column, nan_profile_from, readme_ini, run_cli

# README's ini example over 2 days, without its comments, name and
# steady-state tolerance: the base file every scenario-file test edits.
BASE_INI = readme_ini(name=None, steady_state_tol=None, horizon="2")

# vartheta = mu + omega: the decay profile's denominator vanishes.
DEGENERATE_DECAY_INI = """\
[params]
mu = 0.1
omega = 0.1
beta = 1.66
sigma_days = 2.2
gamma_days = 2.2
rho = 0.1
nu_days = 150

[control]
law = saturated
g_family = zero
h_family = theorem6_ii
vartheta = 0.2

[scenario]
S0 = 400
E0 = 150
I0 = 250
R0 = 200
horizon = 2
dt = 0.01
"""

# mu = omega = 0 with eps0 given: the corollary2_i profile has no pole to
# divide by.
POLE_FREE_INI = """\
[params]
mu = 0
omega = 0
beta = 1.66
sigma_days = 2.2
gamma_days = 2.2
rho = 0.1
nu_days = 150

[control]
law = saturated
g_family = zero
h_family = corollary2_i
eps0 = 0.5

[scenario]
S0 = 400
E0 = 150
I0 = 250
R0 = 200
horizon = 2
dt = 0.01
"""

# Births cannot keep up with mortality: the run goes extinct partway.
COLLAPSE_INI = """\
[params]
mu = 1000
omega = 0.1
beta = 1.0
sigma = 0.5
gamma = 0.5
rho = 0.1
nu = 0

[control]
law = none

[scenario]
S0 = 1
E0 = 0
I0 = 0
R0 = 0
horizon = 1
dt = 0.001
"""

# Recovery is so fast that the first step's stage evaluation drives the
# population below the floor: the run records its initial boundary only.
FIRST_STEP_EXTINCTION_INI = """\
[params]
mu = 0.01
omega = 0.1
beta = 0.5
sigma = 0.5
gamma = 10000
rho = 1
nu = 0.02

[control]
law = none

[scenario]
S0 = 1
E0 = 1
I0 = 100
R0 = 1
horizon = 10
dt = 0.01
"""

VERDICT_IDS = ("T2", "T3_necessary", "T3_integral", "T4_case1", "T4_case2")

# The numeric keys that scenario files and --sweep both take, by section,
# and the ones that also take a mean period (KEY_days = D means KEY = 1/D).
NUMERIC_KEYS = {
    "params": ("mu", "omega", "beta", "sigma", "gamma", "rho", "nu"),
    "control": ("K_R", "K_Rd", "eps", "eps0", "vartheta", "c"),
    "scenario": ("horizon", "dt", "steady_state_tol"),
}
PERIOD_KEYS = ("mu", "omega", "beta", "sigma", "gamma", "nu", "c")
NUMERIC_SPELLINGS = [
    (section, spelling)
    for section, keys in NUMERIC_KEYS.items()
    for key in keys
    for spelling in ((key, key + "_days") if key in PERIOD_KEYS else (key,))
]


@st.composite
def sweep_specs(draw):
    """A numeric key (or its _days spelling) and 1-3 values, drawn from the
    edge values and arbitrary floats. The grid keys' arbitrary draws keep a
    run of README's 2-day base at dt = 0.01 to at most 2000 steps and one
    of a 40-day base at dt = 0.1 to at most 4000; their edge values still
    reach the non-finite and unstorable grid errors."""
    _, key = draw(st.sampled_from(NUMERIC_SPELLINGS))
    arbitrary = {"horizon": st.floats(max_value=20.0),
                 "dt": st.floats(min_value=0.01)}.get(key, st.floats())
    edges = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0,
                             1e300, 1e-300, 5e-324, 1e308])
    values = draw(st.lists(st.one_of(edges, arbitrary), min_size=1, max_size=3))
    return key, values


# Hypothesis favours a list's first entries: the finite values come first,
# so that edited files run (and blow up or go extinct) as well as fail.
EDGE_VALUES = (1e300, 1e-300, 5e-324, 0.0, -0.0, -1.0, math.nan, math.inf, -math.inf)
# Each enum key's valid values, and spellings that no enum accepts.
ENUM_VALUES = {
    "law": tuple(m.value for m in VaccinationLaw),
    "g_family": tuple(m.value for m in ModulationFamily),
    "h_family": tuple(m.value for m in ReferenceProfile),
}
BAD_ENUM_VALUES = ("", "sideways", "EQ33B", "0")
# The decay design and the decay profile, which an even pick among their
# key's eleven or seven spellings seldom reaches: the enum edit picks them
# about half the time it sets their key.
DECAY_VALUES = {"g_family": "eq43_theorem6", "h_family": "theorem6_ii"}


@st.composite
def scenario_files(draw):
    """BASE_INI with up to three edits: a section dropped, a key dropped or
    moved to another section, an enum key set to a valid or an invalid
    value, a numeric value set to an edge value, or a grid of a subnormal
    step and a horizon of 1-20 such steps. The horizon is never
    dropped alone: the default horizon is 600 days. vartheta is set, so
    that the eq43_theorem6 and theorem6_ii edits run."""
    base = configparser.ConfigParser(interpolation=None)
    base.optionxform = str
    base.read_string(BASE_INI)
    base["control"]["vartheta"] = "0.08"
    names = base.sections()
    owner = {key: name for name in names for key in base[name]}
    raws = {key: raw for name in names for key, raw in base[name].items()}
    present = set(names)
    edits = st.sampled_from(("number", "enum", "move", "drop", "section", "grid"))
    for edit in draw(st.lists(edits, max_size=3)):
        if edit == "section":
            present.discard(draw(st.sampled_from(names)))
        elif edit == "drop":
            raws.pop(draw(st.sampled_from([k for k in raws if k != "horizon"])))
        elif edit == "move":
            key = draw(st.sampled_from(list(raws)))
            owner[key] = draw(st.sampled_from([n for n in names if n != owner[key]]))
        elif edit == "enum":
            key = draw(st.sampled_from(list(ENUM_VALUES)))
            values = st.sampled_from(ENUM_VALUES[key] + BAD_ENUM_VALUES)
            if key in DECAY_VALUES:
                values = st.one_of(st.just(DECAY_VALUES[key]), values)
            raws[key] = draw(values)
        elif edit == "grid":
            dt = draw(st.floats(5e-324, math.nextafter(sys.float_info.min, 0.0)))
            raws["dt"] = repr(dt)
            raws["horizon"] = repr(draw(st.integers(1, 20)) * dt)
        else:
            key = draw(st.sampled_from([k for k in owner if k not in ENUM_VALUES]))
            raws[key] = repr(draw(st.sampled_from(EDGE_VALUES)))
    return "".join(
        f"[{name}]\n"
        + "".join(f"{key} = {raw}\n" for key, raw in raws.items() if owner[key] == name)
        for name in names
        if name in present
    )


@pytest.fixture(autouse=True)
def _no_env_out(monkeypatch):
    monkeypatch.delenv("SEIRVAX_OUT", raising=False)


def machine_block(report_text: str) -> dict[str, str]:
    lines = report_text.splitlines()
    start = lines.index("[machine]") + 1
    out = {}
    for line in lines[start:]:
        if not line:
            break
        key, _, value = line.partition("=")
        out[key] = value
    return out


def write_ini(tmp_path, text, name="scenario.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def sweep_statuses(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return [row["status"] for row in rows]


def assert_refused(err: str, out) -> None:
    """main refused its input: one error line and no output directory."""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert not out.exists()


def assert_sweep_rows(path, key, values, err: str) -> None:
    """sweep.csv holds the header, then one full row per value in order,
    each with a status; an error row has empty cells and one cause line."""
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    assert tuple(header) == SWEEP_COLUMNS
    assert [len(row) for row in rows] == [len(SWEEP_COLUMNS)] * len(values)
    assert [row[:2] for row in rows] == [[key, repr(v)] for v in values]
    failed = []
    for row in rows:
        assert row[2] in ("ok", "extinct", "blowup", "error"), row
        if row[2] == "error":
            assert row[3:] == [""] * (len(SWEEP_COLUMNS) - 3), row
            failed.append(f"sweep row {key}={row[1]} failed: ")
    lines = err.splitlines()
    assert len(lines) == len(failed)
    assert all(line.startswith(cause) for line, cause in zip(lines, failed)), lines


def assert_csv_matches(path, traj):
    """trajectory.csv holds every recorded column of traj bit for bit."""
    data = read_trajectory_csv(path)
    assert tuple(data) == TRAJECTORY_COLUMNS
    for name in TRAJECTORY_COLUMNS:
        assert np.array_equal(data[name], csv_column(traj, name)), name


class TestListing:
    def test_human_listing(self, capsys):
        assert main(["--list-presets"]) == 0
        out = capsys.readouterr().out
        for name in preset_names():
            assert name in out
        # descriptions ride along
        assert "vaccination" in out

    def test_machine_listing(self, capsys):
        assert main(["--list-presets", "--machine"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == list(preset_names())
        assert len(lines) == 6


class TestRunArtifacts:
    def test_preset_run_writes_artifacts(self, tmp_path, capsys):
        rc = main(["--preset", "fig2-saturated", "--horizon", "2",
                   "--out", str(tmp_path)])
        assert rc == 0
        csv_path = tmp_path / "trajectory.csv"
        report_path = tmp_path / "report.txt"
        assert csv_path.exists() and report_path.exists()
        out = capsys.readouterr().out
        assert "fig2-saturated" in out and "wrote" in out

        data = read_trajectory_csv(csv_path)
        assert tuple(data) == TRAJECTORY_COLUMNS

        report = report_path.read_text(encoding="utf-8")
        for vid in VERDICT_IDS:
            assert f"] {vid}:" in report
        assert "vaccination identity max relative residual" in report

    def test_csv_round_trips_run_exactly(self, tmp_path):
        rc = main(["--preset", "fig2-saturated", "--horizon", "100",
                   "--out", str(tmp_path)])
        assert rc == 0
        traj = integrate(replace(build_preset("fig2-saturated"), horizon=100.0))
        # several write chunks, the last one partial
        assert len(traj) > 2 * _BLOCK_ROWS
        assert len(traj) % _BLOCK_ROWS != 0
        assert_csv_matches(tmp_path / "trajectory.csv", traj)

    def test_csv_round_trips_truncated_run(self, tmp_path):
        path = write_ini(tmp_path, COLLAPSE_INI, name="collapse.ini")
        rc = main(["--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 3
        traj = integrate(load_scenario(path))
        assert 1 < len(traj) < 1001
        assert_csv_matches(tmp_path / "o" / "trajectory.csv", traj)

    def test_csv_round_trip_keeps_every_bit_but_a_nans_sign(self, tmp_path):
        # eps0 = 1e306 (eps0/nu = 1.5e308) overflows the first demand: one
        # blowup row whose V_a, V and g are nan; the file writes repr's "nan"
        # for either sign, so those cells read back as nan and every other
        # cell bit for bit
        sc = with_numeric(build_preset("fig2-saturated"), "eps0", 1e306)
        traj = integrate(replace(sc, horizon=2.0, dt=0.1))
        assert traj.status.value == "blowup" and len(traj) == 1
        path = tmp_path / "trajectory.csv"
        write_trajectory_csv(traj, path)
        data = read_trajectory_csv(path)
        nan_columns = ("V_a", "V", "g")
        for name in TRAJECTORY_COLUMNS:
            written = csv_column(traj, name).astype(float)
            if name in nan_columns:
                assert np.isnan(written).all() and np.isnan(data[name]).all(), name
            else:
                assert not np.isnan(written).any(), name
                assert data[name].tobytes() == written.tobytes(), name

    def test_run_reports_hash_and_compare(self):
        sc = replace(build_preset("fig1-no-vaccination"), horizon=2.0)
        a, b = (build_run_report(integrate(sc)) for _ in range(2))
        assert hash(a) == hash(a)
        assert a == a
        assert a != b  # two runs of one scenario are two runs

    def test_header_only_csv_reads_as_empty_columns(self, tmp_path):
        path = tmp_path / "trajectory.csv"
        path.write_text(",".join(TRAJECTORY_COLUMNS) + "\r\n", encoding="utf-8")
        data = read_trajectory_csv(path)
        assert tuple(data) == TRAJECTORY_COLUMNS
        assert all(col.shape == (0,) for col in data.values())

    def test_env_out_dir(self, tmp_path, monkeypatch):
        target = tmp_path / "envout"
        monkeypatch.setenv("SEIRVAX_OUT", str(target))
        rc = main(["--preset", "fig1-no-vaccination", "--horizon", "1"])
        assert rc == 0
        assert (target / "trajectory.csv").exists()

    def test_machine_block(self, tmp_path):
        rc = main(["--preset", "fig1-no-vaccination", "--out", str(tmp_path)])
        assert rc == 0
        block = machine_block(
            (tmp_path / "report.txt").read_text(encoding="utf-8")
        )
        assert block["scenario"] == "fig1-no-vaccination"
        assert block["status"] == "ok"
        assert block["steady_state_found"] == "1"
        assert float(block["t_ss"]) == pytest.approx(57.13, abs=1e-9)
        assert float(block["infected_fraction_ss"]) == pytest.approx(
            0.18316822975040722, rel=1e-12
        )
        assert block["T2"] == "0"
        assert block["T3_necessary"] == "1"
        assert block["T3_integral"] == "1"
        assert block["T4_case1"] == "0"
        assert block["T4_case2"] == "0"
        assert block["reset_count"] == "0"
        assert float(block["identity_max_residual"]) == 0.0
        assert float(block["integral_max_pointwise_residual"]) < 1e-3

    def test_large_population_steady_state_is_finite(self, tmp_path):
        # the 10-day window of S = 1e307 sums past the float range, and
        # its mean used to read inf with a numpy overflow warning
        ini = """\
[params]
mu = 0.01
omega = 0
beta = 1
sigma = 0.5
gamma = 0.5
rho = 0
nu = 0.01

[control]
law = none

[scenario]
S0 = 1e307
E0 = 0
I0 = 0
R0 = 0
horizon = 40
dt = 0.1
"""
        out = tmp_path / "o"
        rc = main(["--config", str(write_ini(tmp_path, ini)), "--out", str(out)])
        assert rc == 0
        block = machine_block((out / "report.txt").read_text(encoding="utf-8"))
        assert block["steady_state_found"] == "1"
        assert (block["S_ss"], block["N_ss"]) == ("1e+307", "1e+307")


    @pytest.mark.parametrize("sweep", [[], ["--sweep", "beta=1,2"]], ids=["run", "sweep"])
    @pytest.mark.parametrize("name, shown", [(b"\xffout", "\\xffout"), ("é-out".encode(), "é-out")],
                             ids=["undecodable", "utf-8"])
    def test_wrote_line_prints_on_a_strict_stdout(self, tmp_path, sweep, name, shown):
        # a byte of the out path that is not UTF-8 once ended a finished run
        # in a traceback and exit 1 where stdout cannot encode it; it prints
        # escaped, and a UTF-8 path prints as it is
        out = tmp_path / os.fsdecode(name)
        child = run_cli("--preset", "fig2-saturated", "--horizon", "1", *sweep, "--out", out,
                        PYTHONIOENCODING="utf-8:strict")
        assert child.returncode == 0, child.stderr
        assert b"Traceback" not in child.stderr
        made = ["sweep.csv"] if sweep else ["trajectory.csv", "report.txt"]
        assert all((out / artifact).is_file() for artifact in made)
        shown = os.path.join(tmp_path, shown)
        wrote = " and ".join(os.path.join(shown, artifact) for artifact in made)
        assert child.stdout.decode("utf-8").splitlines()[-1] == f"wrote {wrote}"


class TestOverrides:
    def test_dt_and_horizon(self, tmp_path):
        rc = main(["--preset", "fig1-no-vaccination", "--dt", "0.02",
                   "--horizon", "3", "--out", str(tmp_path)])
        assert rc == 0
        block = machine_block(
            (tmp_path / "report.txt").read_text(encoding="utf-8")
        )
        assert block["dt"] == "0.02"
        assert block["horizon"] == "3.0"
        data = read_trajectory_csv(tmp_path / "trajectory.csv")
        assert len(data["t"]) == 151

    def test_own_grid_as_overrides_changes_nothing(self, tmp_path):
        name = "constant-population-check"
        sc = build_preset(name)
        grid = ["--dt", repr(sc.dt), "--horizon", repr(sc.horizon)]
        for folder, overrides in (("plain", []), ("grid", grid)):
            assert main(["--preset", name, *overrides, "--out", str(tmp_path / folder)]) == 0
        for artifact in ("trajectory.csv", "report.txt"):
            plain = (tmp_path / "plain" / artifact).read_bytes()
            assert (tmp_path / "grid" / artifact).read_bytes() == plain, artifact

    def test_law_none_disables_vaccination(self, tmp_path):
        rc = main(["--preset", "fig2-saturated", "--law", "none",
                   "--horizon", "2", "--out", str(tmp_path)])
        assert rc == 0
        data = read_trajectory_csv(tmp_path / "trajectory.csv")
        assert np.all(data["V"] == 0.0)
        assert np.all(data["V_a"] == 0.0)


class TestConfigFiles:
    def test_period_spelling_round_trip(self, tmp_path):
        path = write_ini(tmp_path, BASE_INI)
        sc = load_scenario(path)
        baseline = build_preset("fig2-saturated")
        assert sc.params == baseline.params
        assert sc.params.mu == 1.0 / 255.0
        assert sc.control.c == 0.2
        assert sc.name == "scenario"
        assert sc.horizon == 2.0

        rc = main(["--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 0

    @pytest.mark.parametrize("mangle, needle", [
        (lambda s: s.replace("rho = 0.1\n", ""), "rho"),
        (lambda s: s.replace("beta = 1.66", "beta = fast"), "not a number"),
        (lambda s: s.replace("beta = 1.66", "beta = 1.66\nzeta = 1"), "zeta"),
        (lambda s: s + "\n[extra]\nx = 1\n", "unknown section"),
        (lambda s: s.replace("beta = 1.66", "beta = 1.66\nbeta_days = 0.6"),
         "not both"),
        (lambda s: s.replace("law = saturated", "law = sideways"), "allowed"),
        (lambda s: s.replace("rho = 0.1", "rho = 0.1\ndt = 0.01"), "belongs in"),
        # configparser copies [DEFAULT]'s keys into every section, where each
        # would be blamed on [params], a section the file never wrote it in
        (lambda s: "[DEFAULT]\ndt = 0.1\n\n" + s, "unknown section(s): DEFAULT"),
        (lambda s: "[DEFAULT]\nK_R = 2\n\n" + s, "unknown section(s): DEFAULT"),
    ])
    def test_rejected_configs(self, tmp_path, capsys, mangle, needle):
        path = write_ini(tmp_path, mangle(BASE_INI))
        rc = main(["--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert needle in capsys.readouterr().err

    def test_degenerate_decay_profile_is_a_config_error(self, tmp_path, capsys):
        path = write_ini(tmp_path, DEGENERATE_DECAY_INI)
        rc = main(["--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "vartheta" in err
        assert "Traceback" not in err

    def test_non_finite_controller_constant_is_a_config_error(self, tmp_path, capsys):
        ini = BASE_INI.replace("eps0 = 0.5", "eps0 = 0.5\nK_R = inf")
        path = write_ini(tmp_path, ini)
        out = tmp_path / "o"
        rc = main(["--config", str(path), "--out", str(out)])
        assert rc == 2
        assert "K_R must be finite" in capsys.readouterr().err
        assert not (out / "trajectory.csv").exists()
        assert not (out / "report.txt").exists()

    @pytest.mark.parametrize("line, control, message", [
        ("c_days = 5", "c = -1", "c >= 0"),
        ("h_family = section7", "h_family = theorem6_ii\nvartheta = -1.0", "vartheta >= 0"),
    ])
    def test_growing_reference_is_a_config_error(self, tmp_path, capsys, line, control,
                                                 message):
        # a negative settling rate (section7) or decay rate (theorem6_ii)
        # makes the reference's exponential grow until math.exp overflows
        ini = BASE_INI.replace(line, control)
        ini = ini.replace("horizon = 2\ndt = 0.01", "horizon = 800\ndt = 0.1")
        path = write_ini(tmp_path, ini)
        out = tmp_path / "o"
        rc = main(["--config", str(path), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ") and message in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("line, control", [
        ("c_days = 5", "c = 0"),
        ("c_days = 5", "c_days = inf"),
        ("h_family = section7", "h_family = theorem6_ii\nvartheta = 0"),
    ])
    def test_zero_reference_rate_runs(self, tmp_path, capsys, line, control):
        ini = BASE_INI.replace(line, control)
        path = write_ini(tmp_path, ini)
        out = tmp_path / "o"
        rc = main(["--config", str(path), "--out", str(out)])
        assert rc == 0
        assert capsys.readouterr().err == ""
        data = read_trajectory_csv(out / "trajectory.csv")
        assert np.all(np.isfinite(data["R_star"]))

    def test_multi_line_name_is_a_config_error(self, tmp_path, capsys):
        # configparser joins an indented line onto the one before: the name
        # once split report.txt's [machine] block across two lines
        path = write_ini(tmp_path, readme_ini(name="my\n  run", horizon="2"))
        out = tmp_path / "o"
        assert main(["--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: scenario name must be one line, got 'my\\nrun'\n"
        assert_refused(err, out)

    def test_undecodable_file_name_names_the_run(self, tmp_path, capsys):
        # a file with no name line names the run after itself; a byte of
        # its name that is not UTF-8 once ended the run in a traceback while
        # report.txt was written, and now reads as U+FFFD
        name = os.fsdecode(b"\xff-scenario.ini")
        path = write_ini(tmp_path, readme_ini(name=None), name=name)
        out = tmp_path / "o"
        assert main(["--config", str(path), "--horizon", "1", "--out", str(out)]) == 0
        report = (out / "report.txt").read_bytes().decode("utf-8")
        assert "\nscenario=\ufffd-scenario\n" in report
        assert capsys.readouterr().out.startswith("\ufffd-scenario: status ok;")
        # only a real process decodes the file name from argv bytes
        out = tmp_path / "child"
        child = run_cli("--config", os.fsencode(path), "--horizon", "1", "--out", out)
        assert child.returncode == 0, child.stderr
        report = (out / "report.txt").read_bytes().decode("utf-8")
        assert "\nscenario=\ufffd-scenario\n" in report

    @pytest.mark.parametrize("refs", ["I0_ref = inf\nN0_ref = inf",
                                      "I0_ref = 10\nN0_ref = inf",
                                      "I0_ref = nan\nN0_ref = 1000"])
    def test_non_finite_reference_is_a_config_error(self, tmp_path, capsys, refs):
        # the decomposition references are no parameters: like any key
        # outside the key table they are rejected, whatever their value
        path = write_ini(tmp_path, BASE_INI.replace("nu_days = 150", f"nu_days = 150\n{refs}"))
        out = tmp_path / "o"
        rc = main(["--config", str(path), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: [params] unknown key 'I0_ref'; numeric keys:")
        assert not out.exists()

    def test_non_finite_initial_total_is_a_config_error(self, tmp_path, capsys):
        # each component is finite, their sum is not
        ini = BASE_INI
        for name in ("S0 = 400", "E0 = 150", "I0 = 250", "R0 = 200"):
            ini = ini.replace(name, name.split(" = ")[0] + " = 1e308")
        path = write_ini(tmp_path, ini)
        out = tmp_path / "o"
        rc = main(["--config", str(path), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0] == "error: initial population total must be finite, got inf"
        assert not out.exists()

    def test_infinite_demand_level_is_a_config_error(self, tmp_path, capsys):
        # the default controller's eps0 = mu + omega = 1 over nu = 5e-324
        # overflows: the run once ended blowup after one row with V_a = inf
        ini = ("[params]\nmu = 0\nomega = 1\nbeta = 0\nsigma = 0\ngamma = 0\nrho = 0\n"
               "nu = 5e-324\n[scenario]\nS0 = 1\nE0 = 0\nI0 = 0\nR0 = 0\nhorizon = 2\n")
        out = tmp_path / "o"
        rc = main(["--config", str(write_ini(tmp_path, ini)), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: an active vaccination law needs a finite eps0/nu, got eps0 = 1.0 "
            "and nu = 5e-324, whose ratio overflows"
        ]
        assert not out.exists()

    def test_pole_free_corollary2_i_is_a_config_error(self, tmp_path, capsys):
        path = write_ini(tmp_path, POLE_FREE_INI)
        out = tmp_path / "o"
        rc = main(["--config", str(path), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ") and "mu + omega > 0" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("control, message", [
        pytest.param("g_family = eq33a",
                     "error: [control] g_family = 'eq33a'; allowed values: zero, "
                     "constant_inv_eps, eq33b, eq43_theorem6, corollary2_ii, "
                     "custom_case_a, custom_case_b", id="eq33a"),
        # the decay design's ceiling divides by eps*eps0 = 0.5*5e-324 = 0.0
        pytest.param("g_family = eq43_theorem6\nvartheta = 0.08\neps = 5e-324",
                     "error: the eq43_theorem6 design needs eps*eps0 > 0, got eps = 5e-324 "
                     "and eps0 = 0.5, whose product underflows to 0",
                     id="eq43_theorem6-underflow"),
    ])
    def test_rejected_modulation_writes_nothing(self, tmp_path, capsys, control, message):
        path = write_ini(tmp_path, BASE_INI.replace("g_family = eq33b", control))
        out = tmp_path / "o"
        rc = main(["--config", str(path), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [message]
        assert not out.exists()

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["--config", str(tmp_path / "absent.ini")])
        assert rc == 2
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize("content, prefix, needles", [
        pytest.param(b"\xff\xfe[params]\nbeta=1\n", "cannot read config",
                     ["'utf-8' codec can't decode byte 0xff in position 0"], id="not-utf-8"),
        # configparser spreads these over several lines: file, line, text
        pytest.param(b"beta=1\n", "malformed config",
                     ["no section headers", "bad.ini', line: 1 ", r"'beta=1\n'"],
                     id="no-section-header"),
        pytest.param(b"[params]\nbeta\n", "malformed config",
                     ["bad.ini' [line  2]: ", r"'beta\n'"], id="no-equals-sign"),
    ])
    def test_unparsable_file_is_a_one_line_config_error(self, tmp_path, capsys, content,
                                                        prefix, needles):
        path = tmp_path / "bad.ini"
        path.write_bytes(content)
        out = tmp_path / "o"
        rc = main(["--config", str(path), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {prefix} {str(path)!r}: ")
        for needle in needles:
            assert needle in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("content", [None, b"beta=1\n"], ids=["missing", "malformed"])
    def test_a_newline_in_the_path_stays_on_the_error_line(self, tmp_path, capsys, content):
        # README promises one error line naming the path: the path is quoted
        path = tmp_path / "no\nsuch.ini"
        if content is not None:
            path.write_bytes(content)
        out = tmp_path / "o"
        assert main(["--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert f"config {str(path)!r}: " in err[0]
        assert not out.exists()

    @settings(derandomize=True, max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=scenario_files())
    # the decay design and profile, each on the otherwise unedited base
    @example(text=BASE_INI.replace("eq33b", "eq43_theorem6\nvartheta = 0.08"))
    @example(text=BASE_INI.replace("section7", "theorem6_ii\nvartheta = 0.08"))
    def test_generated_scenario_files_end_in_an_exit_code(self, tmp_path, text):
        # every file runs to a status or is refused with one error line and
        # no output directory; nothing escapes main (tmp_path is shared:
        # each example clears its output directory first)
        path = write_ini(tmp_path, text)
        out = tmp_path / "o"
        shutil.rmtree(out, ignore_errors=True)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = main(["--config", str(path), "--out", str(out)])
        assert rc in (0, 2, 3, 4)
        if rc == 2:
            assert_refused(err.getvalue(), out)
        else:
            assert (out / "trajectory.csv").is_file() and (out / "report.txt").is_file()
            block = machine_block((out / "report.txt").read_text(encoding="utf-8"))
            assert block["status"] == {0: "ok", 3: "extinct", 4: "blowup"}[rc]
            # README's non-finite rule: only these two fields may read nan or
            # inf, and only under blowup; the verdicts read 1, 0 or na
            loose = ("identity_max_residual", "decay_g_max") if rc == 4 else ()
            for key, value in block.items():
                if key not in ("scenario", "status", *loose) and value != "na":
                    assert math.isfinite(float(value)), (key, value)

    def test_unknown_preset(self, capsys):
        rc = main(["--preset", "figure-nine"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "fig1-no-vaccination" in err  # available names listed

    def test_unknown_preset_is_a_config_error_in_the_library(self):
        with pytest.raises(ConfigError, match=r"unknown preset 'figure-nine'; available: "):
            build_preset("figure-nine")


class TestKeyTable:
    """Scenario files and --sweep accept and reject the same numeric keys."""

    @staticmethod
    def ini_with(section, spelling, raw):
        """BASE_INI with the key behind spelling set only through it."""
        field = spelling.removesuffix("_days")
        lines = [line for line in BASE_INI.splitlines()
                 if line.partition(" = ")[0] not in (field, field + "_days")]
        lines.insert(lines.index(f"[{section}]") + 1, f"{spelling} = {raw}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def assert_sweep_aborts(tmp_path, capsys, spec):
        out = tmp_path / "s"
        rc = main(["--preset", "fig1-no-vaccination", "--sweep", spec,
                   "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: unknown key")
        assert not out.exists()  # aborted before any row

    @pytest.mark.parametrize("section, spelling", NUMERIC_SPELLINGS)
    def test_file_and_sweep_set_the_same_field(self, tmp_path, section, spelling):
        swept = with_numeric(
            load_scenario(write_ini(tmp_path, BASE_INI)), spelling, 0.5
        )
        from_file = load_scenario(
            write_ini(tmp_path, self.ini_with(section, spelling, "0.5"))
        )
        assert from_file == swept
        target = from_file if section == "scenario" else getattr(from_file, section)
        field = spelling.removesuffix("_days")
        assert getattr(target, field) == (2.0 if spelling != field else 0.5)

    @pytest.mark.parametrize("key", ["rho_days", "zeta", "zeta_days", "dt_days",
                                     "I0_ref", "N0_ref"])
    def test_file_and_sweep_reject_the_same_keys(self, tmp_path, capsys, key):
        ini = BASE_INI.replace("[params]\n", f"[params]\n{key} = 4\n")
        rc = main(["--config", str(write_ini(tmp_path, ini)),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert key in capsys.readouterr().err
        self.assert_sweep_aborts(tmp_path, capsys, f"{key}=1,2")

    # I0_ref is a key neither a file nor a sweep accepts
    @pytest.mark.parametrize("key", ["I0_ref", "S0", "name", "law"])
    def test_sweep_rejects_file_only_keys(self, tmp_path, capsys, key):
        self.assert_sweep_aborts(tmp_path, capsys, f"{key}=1,2")

    @pytest.mark.parametrize("section, key", [("params", "mu_days"),
                                              ("control", "c_days")])
    def test_zero_period_rejected_by_file_and_sweep_row(
        self, tmp_path, capsys, section, key
    ):
        rc = main(["--config",
                   str(write_ini(tmp_path, self.ini_with(section, key, "0"))),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert f"{key} must be nonzero" in capsys.readouterr().err
        rc = main(["--preset", "fig1-no-vaccination", "--horizon", "1",
                   "--sweep", f"{key}=0,5", "--out", str(tmp_path)])
        assert rc == 0
        assert sweep_statuses(tmp_path / "sweep.csv") == ["error", "ok"]
        assert f"{key}=0.0 failed: {key} must be nonzero" in capsys.readouterr().err


class TestExitCodes:
    @pytest.mark.parametrize("grid", [["--dt", "1e-300", "--horizon", "1e300"],
                                      ["--horizon", "1e300"]])
    def test_unstorable_grid(self, tmp_path, capsys, grid):
        out = tmp_path / "o"
        rc = main(["--preset", "fig1-no-vaccination", *grid, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_window_past_the_float_range(self, tmp_path):
        # the steady-state window's step count overflows below dt = 1.7e-307:
        # the ten-step run writes its artifacts and reports no settled regime
        out = tmp_path / "o"
        rc = main(["--preset", "fig2-saturated", "--dt", "1e-320", "--horizon", "1e-319",
                   "--out", str(out)])
        assert rc == 0
        block = machine_block((out / "report.txt").read_text(encoding="utf-8"))
        assert (block["status"], block["steady_state_found"]) == ("ok", "0")

    # needle None: the message names the --out path (the OSError's filename)
    @pytest.mark.parametrize("source, under_a_file, needle", [
        pytest.param(["--preset", "fig1-no-vaccination", "--horizon", "1"], True,
                     None, id="unwritable-out"),
        pytest.param([], False, "nothing to run", id="no-preset-or-config"),
    ])
    def test_usage_errors_write_nothing(self, tmp_path, capsys, source, under_a_file,
                                        needle):
        # a directory under a regular file cannot be made, not even by root
        parent = tmp_path
        if under_a_file:
            parent = tmp_path / "file"
            parent.write_text("", encoding="utf-8")
        out = parent / "o"
        rc = main([*source, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert (needle or str(out)) in err
        assert not out.exists()

    @pytest.mark.parametrize("artifact, args", [
        ("trajectory.csv", ["--horizon", "1"]),
        ("report.txt", ["--horizon", "1"]),
        ("sweep.csv", ["--sweep", "beta=1,2"]),
    ])
    def test_failed_artifact_write(self, tmp_path, capsys, artifact, args):
        # the artifact's name is taken by a directory, so opening it fails
        out = tmp_path / "o"
        (out / artifact).mkdir(parents=True)
        rc = main(["--preset", "constant-population-check", *args, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(out / artifact) in err

    def test_extinction(self, tmp_path):
        path = write_ini(tmp_path, COLLAPSE_INI, name="collapse.ini")
        rc = main(["--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 3

    def test_extinction_inside_first_step(self, tmp_path, capsys):
        path = write_ini(tmp_path, FIRST_STEP_EXTINCTION_INI)
        out = tmp_path / "o"
        rc = main(["--config", str(path), "--out", str(out)])
        assert rc == 3
        assert capsys.readouterr().err == ""
        assert len(read_trajectory_csv(out / "trajectory.csv")["t"]) == 1
        block = machine_block((out / "report.txt").read_text(encoding="utf-8"))
        assert block["status"] == "extinct"
        # one row: the identity is never evaluated, so it does not apply
        assert block["T3_integral"] == "na"
        assert "integral_consistent" not in block

    def test_blowup(self, tmp_path):
        ini = """\
[params]
mu = 0.01
omega = 0.1
beta = 1.0
sigma = 0.5
gamma = 0.5
rho = 0.1
nu = 500

[control]
law = none

[scenario]
S0 = 400
E0 = 150
I0 = 250
R0 = 200
horizon = 2
dt = 0.01
"""
        path = write_ini(tmp_path, ini, name="runaway.ini")
        rc = main(["--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 4

    def test_nan_inside_a_step_is_blowup(self, tmp_path, capsys, monkeypatch):
        # the reference, and so the demand, reads nan from t = 703.8 on
        nan_profile_from(monkeypatch, 703.75)
        ini = BASE_INI.replace("horizon = 2\ndt = 0.01", "horizon = 800\ndt = 0.1")
        path = write_ini(tmp_path, ini)
        out = tmp_path / "o"
        rc = main(["--config", str(path), "--out", str(out)])
        assert rc == 4
        assert capsys.readouterr().err == ""
        assert len(read_trajectory_csv(out / "trajectory.csv")["t"]) == 7039
        block = machine_block((out / "report.txt").read_text(encoding="utf-8"))
        assert block["status"] == "blowup"

    def test_infinite_demand_is_blowup(self, tmp_path, capsys):
        # eps0 = 1e306 keeps eps0/nu = 1.5e308 finite, but K_N*N overflows
        # the first demand to inf, which the saturated law would clamp to 1
        # and run on
        ini = BASE_INI.replace("g_family = eq33b", "g_family = zero")
        ini = ini.replace("eps0 = 0.5", "eps0 = 1e306")
        ini = ini.replace("dt = 0.01", "dt = 0.1")
        out = tmp_path / "o"
        rc = main(["--config", str(write_ini(tmp_path, ini)), "--out", str(out)])
        assert rc == 4
        assert capsys.readouterr().err == ""
        data = read_trajectory_csv(out / "trajectory.csv")
        assert data["t"].tolist() == [0.0] and data["V_a"].tolist() == [np.inf]
        block = machine_block((out / "report.txt").read_text(encoding="utf-8"))
        assert block["status"] == "blowup"
        non_finite = [key for key, value in block.items()
                      if value in ("nan", "inf", "-inf")]
        assert non_finite == ["identity_max_residual"]
        assert block["identity_max_residual"] == "nan"

    # (scenario file edits, rows recorded): a divisor underflows to 0.0 on
    # the last recorded row
    @pytest.mark.parametrize("edits, rows", [
        pytest.param({"eps0 = 0.5": "eps0 = 0.5\neps = 5e-324"}, 1, id="eq33b-eps0*eps"),
        pytest.param({"g_family = eq33b": "g_family = custom_case_a\neps = 5e-324"}, 1,
                     id="custom_case_a-eps*nu"),
        pytest.param({"g_family = eq33b": "g_family = custom_case_a\neps = 1e-300",
                      "nu_days = 150": "nu = 1e-30"}, 1, id="custom_case_a-eps_nu*N"),
        pytest.param({"g_family = eq33b": "g_family = corollary2_ii",
                      "eps0 = 0.5": "eps0 = 5e-324"}, 2, id="corollary2_ii-eps0*settled"),
        pytest.param({"g_family = eq33b": "g_family = zero", "nu_days = 150": "nu = 5e-324",
                      "eps0 = 0.5": "eps0 = 5e-324", "S0 = 400": "S0 = 0.4", "E0 = 150": "E0 = 0",
                      "I0 = 250": "I0 = 0", "R0 = 200": "R0 = 0"}, 1, id="zero-nu*N"),
    ])
    def test_underflowed_divisor_is_blowup(self, tmp_path, capsys, edits, rows):
        ini = BASE_INI.replace("dt = 0.01", "dt = 0.1")
        for old, new in edits.items():
            assert old in ini
            ini = ini.replace(old, new)
        out = tmp_path / "o"
        rc = main(["--config", str(write_ini(tmp_path, ini)), "--out", str(out)])
        assert rc == 4
        assert capsys.readouterr().err == ""
        data = read_trajectory_csv(out / "trajectory.csv")
        assert len(data["t"]) == rows
        assert np.isnan(data["V_a"][-1]) and np.isnan(data["V"][-1])
        block = machine_block((out / "report.txt").read_text(encoding="utf-8"))
        assert block["status"] == "blowup"
        assert block["identity_max_residual"] == "nan"

    def test_nan_on_the_final_boundary_is_blowup(self, tmp_path, monkeypatch):
        # the last boundary, 703.8, reads the nan and takes no step
        nan_profile_from(monkeypatch, 703.75)
        rc = main(["--preset", "fig2-saturated", "--dt", "0.1", "--horizon", "703.8",
                   "--out", str(tmp_path)])
        assert rc == 4
        block = machine_block((tmp_path / "report.txt").read_text(encoding="utf-8"))
        assert block["status"] == "blowup"


class TestStabilityFlag:
    def test_profile_only(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        rc = main(["--preset", "fig1-no-vaccination", "--check-stability"])
        assert rc == 0
        out = capsys.readouterr().out
        for vid in VERDICT_IDS:
            assert f"] {vid}:" in out
        # no run, so the integral identity is not judged
        t3 = out.split("] T3_integral:")[1].split("\n  [")[0]
        assert "[N/A  ] T3_integral:" in out and "VIOLATED" not in t3
        assert list(tmp_path.iterdir()) == []  # no artifacts

    def test_not_applicable_reads_the_same_with_or_without_a_run(self, tmp_path, capsys):
        # births balance deaths, so the identity does not apply to the run
        # either: the report prints the block --check-stability prints
        def t3_integral_block(text):
            return text.split("] T3_integral:")[1].split("\n  [")[0]

        preset = ["--preset", "constant-population-check"]
        assert main([*preset, "--check-stability"]) == 0
        profile = capsys.readouterr().out
        assert main([*preset, "--out", str(tmp_path)]) == 0
        report = (tmp_path / "report.txt").read_text(encoding="utf-8")
        assert "[N/A  ] T3_integral:" in report
        assert t3_integral_block(report) == t3_integral_block(profile)


class TestSweep:
    def test_transmission_sweep_grid(self, tmp_path):
        rc = main(["--preset", "fig1-no-vaccination", "--horizon", "300",
                   "--sweep", "beta=0.5,1.0,1.66", "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "sweep.csv").read_text(encoding="utf-8").splitlines()
        header = lines[0].split(",")
        assert tuple(header) == SWEEP_COLUMNS
        rows = [line.split(",") for line in lines[1:]]
        assert [r[header.index("value")] for r in rows] == ["0.5", "1.0", "1.66"]
        assert all(r[header.index("status")] == "ok" for r in rows)
        fractions = [
            float(r[header.index("terminal_infected_fraction")]) for r in rows
        ]
        expected = (0.01728481011681296, 0.13796422227871977,
                    0.1831447741977693)
        for got, want in zip(fractions, expected):
            assert got == pytest.approx(want, rel=1e-12)
        assert fractions[0] < fractions[1] < fractions[2]
        assert float(rows[1][header.index("t_ss")]) == pytest.approx(
            54.06, abs=1e-9
        )

    def test_sweep_over_a_subnormal_grid(self, tmp_path):
        # every row runs its ten steps; none overflows the steady-state window
        path = write_ini(tmp_path, readme_ini(dt="1e-320", horizon="1e-319"))
        rc = main(["--config", str(path), "--sweep", "beta=1.0,1.5",
                   "--out", str(tmp_path / "o")])
        assert rc == 0
        assert sweep_statuses(tmp_path / "o" / "sweep.csv") == ["ok", "ok"]

    def test_single_point_sweep_matches_plain_run(self, tmp_path):
        args = ["--preset", "fig1-no-vaccination", "--horizon", "300"]
        rc = main([*args, "--sweep", "beta=1.66", "--out", str(tmp_path / "s")])
        assert rc == 0
        rc = main([*args, "--out", str(tmp_path / "p")])
        assert rc == 0
        lines = (tmp_path / "s" / "sweep.csv").read_text("utf-8").splitlines()
        header = lines[0].split(",")
        row = lines[1].split(",")
        block = machine_block(
            (tmp_path / "p" / "report.txt").read_text(encoding="utf-8")
        )
        # repr strings must agree exactly: identical runs, identical output
        for sweep_col, machine_key in [
            ("t_ss", "t_ss"),
            ("infected_fraction_ss", "infected_fraction_ss"),
            ("terminal_infected_fraction", "terminal_infected_fraction"),
            ("identity_max_residual", "identity_max_residual"),
        ]:
            assert row[header.index(sweep_col)] == block[machine_key]

    def test_sweep_rows_survive_per_point_failures(self, tmp_path, capsys):
        rc = main(["--preset", "fig2-saturated", "--horizon", "5",
                   "--sweep", "nu=0.0,0.006666666666666667",
                   "--out", str(tmp_path)])
        assert rc == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1  # one cause line per error row
        assert "nu=0.0" in err[0] and "nu > 0" in err[0]
        lines = (tmp_path / "sweep.csv").read_text(encoding="utf-8").splitlines()
        header = lines[0].split(",")
        statuses = [line.split(",")[header.index("status")] for line in lines[1:]]
        assert statuses == ["error", "ok"]
        with open(tmp_path / "sweep.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert [len(row) for row in rows] == [len(SWEEP_COLUMNS)] * 3

    def test_non_finite_controller_constant_fails_only_its_row(self, tmp_path, capsys):
        rc = main(["--preset", "fig2-saturated", "--horizon", "5",
                   "--sweep", "c=nan,0.2", "--out", str(tmp_path)])
        assert rc == 0
        assert sweep_statuses(tmp_path / "sweep.csv") == ["error", "ok"]
        assert "c must be finite" in capsys.readouterr().err

    def test_nan_inside_a_step_is_a_blowup_row(self, tmp_path, monkeypatch):
        # only the longer run reaches the boundary where the reference
        # turns nan
        nan_profile_from(monkeypatch, 703.75)
        rc = main(["--preset", "fig2-saturated", "--dt", "0.1",
                   "--sweep", "horizon=800,700", "--out", str(tmp_path)])
        assert rc == 0
        assert sweep_statuses(tmp_path / "sweep.csv") == ["blowup", "ok"]

    def test_growing_reference_fails_only_its_row(self, tmp_path, capsys):
        rc = main(["--preset", "fig2-saturated", "--horizon", "5",
                   "--sweep", "c=-1,0.2", "--out", str(tmp_path)])
        assert rc == 0
        assert sweep_statuses(tmp_path / "sweep.csv") == ["error", "ok"]
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "c >= 0" in err[0]

    @pytest.mark.parametrize("family, spec", [
        pytest.param("corollary2_ii", "eps0=1e306,0.5", id="corollary2_ii"),
        pytest.param("custom_case_a", "eps0=1e306,0.5", id="custom_case_a"),
        # the first value makes a divisor underflow to 0.0
        pytest.param("eq33b", "eps=5e-324,1", id="eq33b-underflow"),
        pytest.param("corollary2_ii", "eps0=5e-324,0.5", id="corollary2_ii-underflow"),
        pytest.param("custom_case_a", "eps=5e-324,1", id="custom_case_a-underflow"),
    ])
    def test_infinite_demand_row_is_blowup(self, tmp_path, capsys, family, spec):
        ini = BASE_INI.replace("g_family = eq33b", f"g_family = {family}")
        ini = ini.replace("dt = 0.01", "dt = 0.1")
        rc = main(["--config", str(write_ini(tmp_path, ini)),
                   "--sweep", spec, "--out", str(tmp_path)])
        assert rc == 0
        assert capsys.readouterr().err == ""
        with open(tmp_path / "sweep.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["status"] for r in rows] == ["blowup", "ok"]
        assert rows[0]["identity_max_residual"] == "nan"
        assert float(rows[1]["identity_max_residual"]) < 1e-12

    def test_pole_free_sweep_value_becomes_error_row(self, tmp_path, capsys):
        # the base file needs a pole of its own: main resolves it first
        ini = POLE_FREE_INI.replace("omega = 0\n", "omega = 0.0666\n")
        path = write_ini(tmp_path, ini)
        rc = main(["--config", str(path), "--sweep", "omega=0,0.0666",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert sweep_statuses(tmp_path / "sweep.csv") == ["error", "ok"]
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "mu + omega > 0" in err[0]

    def test_degenerate_sweep_value_becomes_error_row(self, tmp_path):
        ini = DEGENERATE_DECAY_INI.replace("vartheta = 0.2", "vartheta = 0.3")
        path = write_ini(tmp_path, ini)
        rc = main(["--config", str(path), "--sweep", "vartheta=0.3,0.2,0.4",
                   "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "sweep.csv").read_text(encoding="utf-8").splitlines()
        header = lines[0].split(",")
        statuses = [line.split(",")[header.index("status")] for line in lines[1:]]
        assert statuses == ["ok", "error", "ok"]

    def test_unstorable_grid_fails_only_its_row(self, tmp_path, capsys):
        rc = main(["--preset", "fig1-no-vaccination",
                   "--sweep", "horizon=1,1e300,2", "--out", str(tmp_path)])
        assert rc == 0
        assert sweep_statuses(tmp_path / "sweep.csv") == ["ok", "error", "ok"]
        assert "horizon=1e+300 failed" in capsys.readouterr().err

    def test_sweep_period_keys(self, tmp_path):
        rc = main(["--preset", "fig1-no-vaccination", "--horizon", "1",
                   "--sweep", "mu_days=255,100", "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "sweep.csv").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 3

    @settings(derandomize=True, max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(spec=sweep_specs())
    def test_generated_sweep_values_end_in_a_row_each(self, tmp_path, spec):
        # every value runs to a status or fails its own row with one cause
        # line; nothing escapes main (tmp_path is shared: each example
        # rewrites sweep.csv before reading it). The base outlasts the
        # 30-day steady-state window, so its runs reach the window scan.
        key, values = spec
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main(["--preset", "fig2-saturated", "--horizon", "40", "--dt", "0.1",
                       "--sweep", f"{key}={','.join(map(repr, values))}",
                       "--out", str(tmp_path)])
        assert rc == 0
        assert_sweep_rows(tmp_path / "sweep.csv", key, values, err.getvalue())

    @settings(derandomize=True, max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=scenario_files(), spec=sweep_specs())
    def test_generated_sweeps_over_generated_files_end_in_an_exit_code(self, tmp_path,
                                                                      text, spec):
        # a file main refuses exits 2 as a plain run would; any other file
        # sweeps to a row per value (each example clears its output
        # directory first)
        key, values = spec
        path = write_ini(tmp_path, text)
        out = tmp_path / "o"
        shutil.rmtree(out, ignore_errors=True)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = main(["--config", str(path),
                       "--sweep", f"{key}={','.join(map(repr, values))}", "--out", str(out)])
        assert rc in (0, 2)
        if rc == 2:
            assert_refused(err.getvalue(), out)
        else:
            assert_sweep_rows(out / "sweep.csv", key, values, err.getvalue())

    @pytest.mark.parametrize("spec", ["zeta=1,2", "beta=", "beta", "beta=a,1"])
    def test_rejected_sweep_specs(self, tmp_path, capsys, spec):
        out = tmp_path / "o"
        rc = main(["--preset", "fig1-no-vaccination", "--sweep", spec, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not out.exists()
