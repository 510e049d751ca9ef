"""Byte identity of the CLI artifacts on every bundled preset.

``perfbench/digests.json`` holds the sha256 of each preset's
trajectory.csv and of the ``[machine]`` block of its report.txt (from the
``[machine]`` line to the end of the file). Every change that does not set
out to alter model output must reproduce them exactly.
"""

import hashlib
import json
from pathlib import Path

import pytest

from seirvax import preset_names
from seirvax.cli import main

DIGESTS = Path(__file__).resolve().parents[1] / "perfbench" / "digests.json"
MACHINE_MARKER = b"[machine]\n"


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
