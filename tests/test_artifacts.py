"""Byte identity of the CLI artifacts on every bundled preset.

``perfbench/digests.json`` holds the sha256 of each preset's
trajectory.csv and of the ``[machine]`` block of its report.txt (from the
``[machine]`` line to the end of the file); ``data/report_digests.json``
holds the sha256 of the whole report.txt, human section included, and of
each preset's ``--check-stability`` stdout. Every change that does not set
out to alter model output must reproduce them exactly. A change that sets
out to alter the report re-records the latter (presets, control grid and
stability profiles) with

    PYTHONPATH=src python tests/test_artifacts.py

No preset fires a boundary reset, so one more scenario pins the reset
path's bytes: README's ``ini`` example, read by ``conftest.readme_ini``,
under the unsaturated law with an overdriven demand, whose digests are
recorded below.
"""

import hashlib
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from seirvax import build_preset, integrate, preset_names
from seirvax.cli import main

from conftest import REPORT_DIGESTS, readme_ini, report_sha256

DIGESTS = Path(__file__).resolve().parents[1] / "perfbench" / "digests.json"
MACHINE_MARKER = b"[machine]\n"

# README's ini example with g = 0 and eps0 = 5 under the unsaturated law,
# from a mostly immune start: the demand overdrives S, and the boundary
# resets it on 249 of the 501 rows of a 5-day run.
RESETTING_EDITS = {
    "law": "unsaturated", "g_family": "zero", "eps0": "5",
    "S0": "100", "E0": "0", "I0": "0", "R0": "900",
}
RESETTING_DIGESTS = {
    "trajectory_csv": "ed6c31051dd6b45b0b285e6b45ee2846daf8d1ad5e2b6311e188e4751be36141",
    "machine_block": "ea6ff081c55c35ad3742ba57c77b96554b44ac70aa962b01db9bf5bad1f13c6a",
}


def recorded_digests() -> dict:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))["presets"]


def machine_block_sha256(report: bytes) -> str:
    start = report.find(MACHINE_MARKER)
    assert start >= 0, "report.txt has no [machine] block"
    return hashlib.sha256(report[start:]).hexdigest()


def stability_profile_sha256(name: str) -> str:
    """The sha256 of what ``--check-stability`` prints for this preset."""
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["--preset", name, "--check-stability"]) == 0
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def test_every_preset_has_a_digest():
    assert sorted(recorded_digests()) == sorted(preset_names())
    profiles = json.loads(REPORT_DIGESTS.read_text(encoding="utf-8"))["check_stability"]
    assert sorted(profiles) == sorted(preset_names())


@pytest.mark.parametrize("name", preset_names())
def test_preset_artifacts_match_recorded_digests(name, tmp_path, monkeypatch):
    monkeypatch.delenv("SEIRVAX_OUT", raising=False)
    assert main(["--preset", name, "--out", str(tmp_path)]) == 0
    want = recorded_digests()[name]
    csv_bytes = (tmp_path / "trajectory.csv").read_bytes()
    assert hashlib.sha256(csv_bytes).hexdigest() == want["trajectory_csv"]
    report = (tmp_path / "report.txt").read_bytes()
    assert machine_block_sha256(report) == want["machine_block"]
    whole = json.loads(REPORT_DIGESTS.read_text(encoding="utf-8"))["presets"][name]
    assert hashlib.sha256(report).hexdigest() == whole


@pytest.mark.parametrize("name", preset_names())
def test_stability_profile_matches_recorded_digest(name):
    want = json.loads(REPORT_DIGESTS.read_text(encoding="utf-8"))["check_stability"][name]
    assert stability_profile_sha256(name) == want


def test_resetting_scenario_matches_recorded_digests(tmp_path, monkeypatch):
    monkeypatch.delenv("SEIRVAX_OUT", raising=False)
    ini = tmp_path / "resetting.ini"
    ini.write_text(readme_ini(**RESETTING_EDITS), encoding="utf-8")
    out = tmp_path / "o"
    assert main(["--config", str(ini), "--horizon", "5", "--out", str(out)]) == 0
    report = (out / "report.txt").read_bytes()
    assert b"\nreset_count=249\n" in report
    csv_bytes = (out / "trajectory.csv").read_bytes()
    assert hashlib.sha256(csv_bytes).hexdigest() == RESETTING_DIGESTS["trajectory_csv"]
    assert machine_block_sha256(report) == RESETTING_DIGESTS["machine_block"]


def record_reports() -> dict:
    from test_control_grid import SCENARIOS

    return {
        "presets": {name: report_sha256(integrate(build_preset(name))) for name in preset_names()},
        "grid": {key: report_sha256(integrate(sc)) for key, sc in SCENARIOS.items()},
        "check_stability": {name: stability_profile_sha256(name) for name in preset_names()},
    }


if __name__ == "__main__":
    REPORT_DIGESTS.write_text(
        json.dumps(record_reports(), indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {REPORT_DIGESTS}")
