"""trajectory.csv formatted while the run integrates, against the serial writer.

A single CLI run forks one formatter process (``seirvax.stream.Formatter``)
when ``os.fork`` exists, two CPUs are usable (``os.sched_getaffinity``), the
grid holds more than one chunk and a temporary file can be made; otherwise
``write_trajectory_csv`` writes the file after the run. Both ways give the
same bytes. Only a run that streams loads ``seirvax.stream``. A streamed run
leaves no child process behind on any exit path, and a formatter that dies
is one ``error:`` line with no trajectory.csv. Under ``-X dev`` (CI), a pipe
or file left open fails its test as a ResourceWarning.
"""

import hashlib
import os
import signal
import tempfile
from dataclasses import replace

import pytest

from seirvax import (
    ScenarioConfig,
    build_preset,
    cli,
    integrate,
    load_scenario,
    preset_names,
    stream,
)
from seirvax.cli import main
from seirvax.sim import _BLOCK_ROWS

from conftest import nan_profile_from, profile_from, reference_write
from test_artifacts import recorded_digests
from test_control_grid import SCENARIOS
from test_public_surface import _run_child

ONE_CPU, TWO_CPUS = {0}, {0, 1}

# mu = 1 takes the population below the extinction floor after 2764 of the
# grid's 10001 rows: two whole blocks and a part
EXTINCT_ROWS = 2764
EXTINCTION_INI = """\
[params]
mu = 1
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
horizon = 100
dt = 0.01
"""


def write_ini(tmp_path, text):
    path = tmp_path / "scenario.ini"
    path.write_text(text, encoding="utf-8")
    return path


def use_cpus(monkeypatch, cpus) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus), raising=False)


@pytest.fixture
def taken(monkeypatch):
    """The writer each cli.main call took, in call order: "streamed" or
    "serial". The machine's CPUs are two unless a test says otherwise."""
    calls = []

    class Recording(stream.Formatter):
        def __init__(self, scenario):
            super().__init__(scenario)
            calls.append("streamed")

    write = cli.write_trajectory_csv

    def serial(traj, path):
        calls.append("serial")
        write(traj, path)

    monkeypatch.setattr(stream, "Formatter", Recording)
    monkeypatch.setattr(cli, "write_trajectory_csv", serial)
    use_cpus(monkeypatch, TWO_CPUS)
    return calls


def assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def streamed_csv(sc: ScenarioConfig, path):
    """Run sc with its trajectory.csv written to path by the formatter
    process, as a streamed CLI run writes it; returns the run."""
    formatter = stream.Formatter(sc.resolved())
    try:
        traj = integrate(sc, on_rows=formatter.send)
        formatter.end_rows()
        formatter.write(path)
    finally:
        formatter.close()
    return traj


def assert_matches_reference(sc: ScenarioConfig, tmp_path):
    traj = streamed_csv(sc, tmp_path / "streamed.csv")
    reference_write(traj, tmp_path / "reference.csv")
    assert (tmp_path / "streamed.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
    return traj


@pytest.mark.parametrize("name", preset_names())
def test_preset_writes_the_same_bytes_both_ways(name, tmp_path, monkeypatch, taken):
    written = []
    for cpus in (TWO_CPUS, ONE_CPU):
        use_cpus(monkeypatch, cpus)
        out = tmp_path / f"{len(cpus)}-cpus"
        assert main(["--preset", name, "--out", str(out)]) == 0
        written.append([(out / f).read_bytes() for f in ("trajectory.csv", "report.txt")])
    assert taken == ["streamed", "serial"]
    assert written[0] == written[1]
    csv_digest = hashlib.sha256(written[0][0]).hexdigest()
    assert csv_digest == recorded_digests()[name]["trajectory_csv"]
    assert_no_child_left()


# Each combination's own 201-row run, shorter than one chunk, and under the
# unsaturated law, the one whose runs reset, a 2501-row run at dt 0.04: two
# whole blocks and a part, with resets in both blocks on 8 combinations.
GRID_RUNS = [pytest.param(key, 0.5, id=f"{key}-201-rows") for key in SCENARIOS] + [
    pytest.param(key, 0.04, id=f"{key}-2501-rows")
    for key in SCENARIOS if key.endswith("/unsaturated")
]


@pytest.mark.parametrize("key, dt", GRID_RUNS)
def test_grid_run_streams_the_reference_bytes(key, dt, tmp_path):
    assert_matches_reference(replace(SCENARIOS[key], dt=dt), tmp_path)


@pytest.mark.parametrize("rows", [
    2, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS,
    2 * _BLOCK_ROWS + 1,
])
def test_block_edges_stream_the_reference_bytes(rows, tmp_path):
    sc = build_preset("fig2-saturated")
    traj = assert_matches_reference(replace(sc, horizon=(rows - 1) * sc.dt), tmp_path)
    assert len(traj) == rows


def test_blowup_partway_through_a_chunk_streams_the_reference_bytes(tmp_path, monkeypatch):
    nan_profile_from(monkeypatch, 703.75)
    sc = replace(build_preset("fig2-saturated"), horizon=800.0, dt=0.1)
    traj = assert_matches_reference(sc, tmp_path)
    assert (traj.status.value, len(traj)) == ("blowup", 7039)


def test_extinction_partway_through_a_chunk_streams_the_reference_bytes(tmp_path):
    traj = assert_matches_reference(load_scenario(write_ini(tmp_path, EXTINCTION_INI)), tmp_path)
    assert (traj.status.value, len(traj)) == ("extinct", EXTINCT_ROWS)


@pytest.mark.parametrize("why", ["one-cpu", "no-fork", "one-chunk", "no-temporary-file"])
def test_serial_path_is_taken(why, tmp_path, monkeypatch, taken):
    horizon = "100"
    if why == "one-cpu":
        use_cpus(monkeypatch, ONE_CPU)
    elif why == "no-fork":
        monkeypatch.delattr(os, "fork")
    elif why == "one-chunk":
        horizon = str((_BLOCK_ROWS - 1) * 0.01)
    else:
        def no_file(*args, **kwargs):
            raise OSError("no temporary file")

        monkeypatch.setattr(tempfile, "TemporaryFile", no_file)
    rc = main(["--preset", "constant-population-check", "--horizon", horizon,
               "--out", str(tmp_path)])
    assert rc == 0 and taken == ["serial"]


def profile_fails(t, N):
    raise RuntimeError("profile failed")


@pytest.mark.parametrize("ending", [
    "ok", "extinct", "blowup", "unstorable-grid", "unwritable-out", "raised-in-integrate",
])
def test_every_exit_reaps_the_formatter(ending, tmp_path, monkeypatch, capsys, taken):
    out = tmp_path / "o"
    args = ["--preset", "fig2-saturated", "--horizon", "20"]
    code = {"ok": 0, "extinct": 3, "blowup": 4, "raised-in-integrate": None}.get(ending, 2)
    if ending == "extinct":
        args = ["--config", str(write_ini(tmp_path, EXTINCTION_INI))]
    elif ending == "blowup":
        nan_profile_from(monkeypatch, 703.75)
        args = ["--preset", "fig2-saturated", "--dt", "0.1", "--horizon", "800"]
    elif ending == "unstorable-grid":
        args = ["--preset", "fig2-saturated", "--horizon", "1e300"]
    elif ending == "unwritable-out":
        (tmp_path / "file").write_text("", encoding="utf-8")
        out = tmp_path / "file" / "o"
    elif ending == "raised-in-integrate":
        # after the first block of 1024 rows has gone down the pipe
        profile_from(monkeypatch, 15.0, profile_fails)
    if ending == "raised-in-integrate":
        with pytest.raises(RuntimeError, match="profile failed"):
            main([*args, "--out", str(out)])
    else:
        assert main([*args, "--out", str(out)]) == code
    assert taken == ["streamed"]
    assert_no_child_left()
    if code == 2:
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
    if ending in ("unstorable-grid", "unwritable-out", "raised-in-integrate"):
        assert not out.exists()


@pytest.mark.parametrize("death", ["raises", "killed"])
def test_a_dead_formatter_is_one_error_line(death, tmp_path, monkeypatch, capsys, taken):
    # the parent of a streamed run never formats a chunk: only the child does
    def dies(traj, chunk):
        if death == "killed":
            os.kill(os.getpid(), signal.SIGKILL)
        raise RuntimeError("formatter failed")

    monkeypatch.setattr(cli, "_csv_chunk", dies)
    # the error names the path quoted, so a newline in it stays on the line
    out = tmp_path / "o\nut"
    rc = main(["--preset", "fig2-saturated", "--horizon", "100", "--out", str(out)])
    assert rc == 2 and taken == ["streamed"]
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert repr(str(out / "trajectory.csv")) in err and "Traceback" not in err
    assert not (out / "trajectory.csv").exists()
    assert_no_child_left()


# One CLI run in a fresh interpreter that sees two CPUs: argv[1] is 1 where
# the run must have loaded seirvax.stream, 0 where it must not; the rest is
# the run's argv.
STREAM_LOAD_CHILD = """
import os, sys
os.sched_getaffinity = lambda pid: {0, 1}
from seirvax import cli
assert cli.main(sys.argv[2:]) == 0
assert ("seirvax.stream" in sys.modules) == (sys.argv[1] == "1"), "seirvax.stream"
"""


@pytest.mark.parametrize("loads, args", [
    pytest.param("1", [], id="preset"),
    pytest.param("0", ["--horizon", "1"], id="one-chunk"),
    pytest.param("0", ["--sweep", "beta=1,2"], id="sweep"),
])
def test_only_a_streamed_run_loads_the_formatter(loads, args, tmp_path):
    _run_child(STREAM_LOAD_CHILD, loads, "--preset", "constant-population-check", *args,
               "--out", str(tmp_path))
