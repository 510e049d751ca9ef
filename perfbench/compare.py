"""Summarise one result set, or compare two, per workload and metric.

    python3 perfbench/compare.py BASE.jsonl [CHANGE.jsonl]

A result set is the JSON lines that ``run.py --record FILE`` appends, one
per run. With one file, each end-to-end metric gets its median, quartiles
and spread (quartile distance over median) against the bound in
BENCHMARK.json. With two, each gets a verdict for CHANGE against BASE:

  better       CHANGE wins at least 9 of 10 seed-paired runs and its median
               beats BASE's by more than BASE's quartile distance
  worse        CHANGE's median is worse than BASE's by more than the bound
  unresolved   either side's spread exceeds the bound, unless every CHANGE
               run beats every BASE run
  within bound otherwise

Runs pair up by workload and seed. Exits 1 when any verdict is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> dict[str, dict[str, dict[int, float]]]:
    """workload -> metric -> seed -> value, from untraced runs."""
    out: dict = defaultdict(lambda: defaultdict(dict))
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            if rec["trace"]:
                continue
            for name, m in rec["metrics"].items():
                out[rec["workload"]][name][rec["seed"]] = m["value"]
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def verdict(base: dict[int, float], change: dict[int, float], bound: float,
            higher: bool) -> tuple[str, int, int]:
    def gain(a: float, b: float) -> float:
        """How much b beats a, positive when b is better."""
        return b - a if higher else a - b

    b_vals, c_vals = list(base.values()), list(change.values())
    b_q1, b_med, b_q3 = quartiles(b_vals)
    c_med = quartiles(c_vals)[1]
    seeds = sorted(base.keys() & change.keys())
    wins = sum(gain(base[s], change[s]) > 0 for s in seeds)
    all_better = min(gain(b, c) for b in b_vals for c in c_vals) > 0
    if max(spread(b_vals), spread(c_vals)) > bound and not all_better:
        return "unresolved", wins, len(seeds)
    if seeds and wins >= 0.9 * len(seeds) and gain(b_med, c_med) > b_q3 - b_q1:
        return "better", wins, len(seeds)
    if -gain(b_med, c_med) > bound * abs(b_med):
        return "worse", wins, len(seeds)
    return "within bound", wins, len(seeds)


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    metrics = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))["end_to_end"]
    sets = [load(p) for p in argv]
    worse = False
    for workload in sorted(set().union(*sets)):
        print(f"== {workload}")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            sides = [s[workload].get(name, {}) for s in sets]
            if not all(sides):
                print(f"  {name:<14} missing")
                continue
            cells = []
            for side in sides:
                q1, med, q3 = quartiles(list(side.values()))
                cells.append(
                    f"n={len(side)} median {med:.6g} [{q1:.6g}, {q3:.6g}] "
                    f"spread {spread(list(side.values())):.3f}"
                )
            line = f"  {name:<14} {m['unit']:<5} " + "  |  ".join(cells)
            if len(sides) == 1:
                line += f"  (bound {bound})"
            else:
                v, wins, pairs = verdict(*sides, bound, m["better"] == "higher")
                worse |= v == "worse"
                line += f"  -> {v}, {wins}/{pairs} pairs won (bound {bound})"
            print(line)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
