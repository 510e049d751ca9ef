"""README's two runnable examples keep running: the ```ini scenario file
through the CLI, plain, with a byte-order mark and as a sweep, and the
```python quick start through the library."""

import csv

from seirvax.cli import SWEEP_COLUMNS, main

from conftest import readme_block


def test_scenario_file_runs_with_or_without_a_byte_order_mark(tmp_path):
    # some editors save UTF-8 with a leading byte-order mark; the file
    # must run exactly as the same text without it
    outputs = []
    for prefix, folder in ((b"", "plain"), (b"\xef\xbb\xbf", "bom")):
        (tmp_path / folder).mkdir()
        path = tmp_path / folder / "readme.ini"
        path.write_bytes(prefix + readme_block("ini").encode("utf-8"))
        out = tmp_path / folder / "o"
        assert main(["--config", str(path), "--horizon", "2", "--out", str(out)]) == 0
        outputs.append([(out / name).read_bytes()
                        for name in ("trajectory.csv", "report.txt")])
    assert outputs[0] == outputs[1]


def test_scenario_file_sweeps(tmp_path):
    path = tmp_path / "readme.ini"
    path.write_text(readme_block("ini"), encoding="utf-8")
    out = tmp_path / "o"
    rc = main(["--config", str(path), "--horizon", "2",
               "--sweep", "omega_days=15,30", "--out", str(out)])
    assert rc == 0
    with open(out / "sweep.csv", newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    assert tuple(header) == SWEEP_COLUMNS
    assert [(len(row), row[2]) for row in rows] == [(len(SWEEP_COLUMNS), "ok")] * 2


def test_library_quick_start_runs(capsys):
    exec(compile(readme_block("python"), "README.md", "exec"), {})
    found, *verdicts = capsys.readouterr().out.splitlines()
    assert found.startswith("True ")
    assert [line.split()[0] for line in verdicts] == [
        "T2", "T3_necessary", "T3_integral", "T4_case1", "T4_case2",
    ]
