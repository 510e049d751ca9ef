"""Record the output digests the presets-cli workload checks against.

Runs every bundled preset through ``seirvax.cli.main`` and writes the
sha256 of its trajectory.csv and of the ``[machine]`` block of its
report.txt to digests.json. Run it only on a commit whose outputs are the
reference, from the repository root:

    python3 perfbench/digests.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from workloads import (
    DIGESTS_PATH,
    ROOT,
    file_sha256,
    load_seirvax,
    machine_block_sha256,
)


def main() -> int:
    sx = load_seirvax()
    out = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        presets = {}
        for name in sx.presets.preset_names():
            code = sx.cli.main(["--preset", name, "--out", str(out)])
            if code != 0:
                print(f"{name}: exit code {code}", file=sys.stderr)
                return 1
            presets[name] = {
                "trajectory_csv": file_sha256(out / "trajectory.csv"),
                "machine_block": machine_block_sha256(out / "report.txt"),
            }
    finally:
        shutil.rmtree(out, ignore_errors=True)
    commit = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
        capture_output=True, text=True, check=False,
    ).stdout.strip()
    DIGESTS_PATH.write_text(
        json.dumps({"recorded_at_commit": commit or None, "presets": presets}, indent=2)
        + "\n",
        encoding="utf-8",
    )
    print(f"wrote {DIGESTS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
