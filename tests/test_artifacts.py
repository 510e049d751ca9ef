"""Byte identity of the CLI artifacts on every bundled preset.

``perfbench/digests.json`` holds the sha256 of each preset's
trajectory.csv and of the ``[machine]`` block of its report.txt (from the
``[machine]`` line to the end of the file); ``data/report_digests.json``
holds the sha256 of the whole report.txt, human section included. Every
change that does not set out to alter model output must reproduce them
exactly. A change that sets out to alter the report re-records the latter
(presets and control grid) with

    PYTHONPATH=src python tests/test_artifacts.py

No preset fires a boundary reset, so one more scenario pins the reset
path's bytes: README's ``ini`` example under the unsaturated law with an
overdriven demand, whose digests are recorded below.
"""

import hashlib
import json
from pathlib import Path

import pytest

from seirvax import build_preset, integrate, preset_names
from seirvax.cli import main

from conftest import REPORT_DIGESTS, report_sha256

DIGESTS = Path(__file__).resolve().parents[1] / "perfbench" / "digests.json"
README = Path(__file__).resolve().parents[1] / "README.md"
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


def test_every_preset_has_a_digest():
    assert sorted(recorded_digests()) == sorted(preset_names())


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


def resetting_ini() -> str:
    """README's ini example with RESETTING_EDITS applied."""
    text = README.read_text(encoding="utf-8").split("```ini\n", 1)[1].split("```\n", 1)[0]
    lines = []
    for line in text.splitlines():
        key = line.partition(" = ")[0]
        lines.append(f"{key} = {RESETTING_EDITS[key]}" if key in RESETTING_EDITS else line)
    return "\n".join(lines) + "\n"


def test_resetting_scenario_matches_recorded_digests(tmp_path, monkeypatch):
    monkeypatch.delenv("SEIRVAX_OUT", raising=False)
    ini = tmp_path / "resetting.ini"
    ini.write_text(resetting_ini(), encoding="utf-8")
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
    }


if __name__ == "__main__":
    REPORT_DIGESTS.write_text(
        json.dumps(record_reports(), indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {REPORT_DIGESTS}")
