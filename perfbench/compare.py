"""Print the figures for comparing benchmark runs of two commits.

    python3 perfbench/compare.py parent.jsonl change.jsonl

Each file holds the result lines (the last stdout line of ``run.py``) of
one workload, one line per run, in run order; line i of both files is pair
i, made with the same ``--seed``.  For every metric it prints each side's
median and quartiles, the change of the median as a share of the parent's,
and how many pairs the change won.  It also prints the failed operations
of each side.  It gives no verdict: README.md has the rule for that.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    lines = Path(path).read_text().splitlines()
    return [json.loads(line) for line in lines if line.strip()]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def main(argv):
    if len(argv) != 2:
        print(__doc__)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load(argv[0]), load(argv[1])
    for side, runs in (("parent", parent), ("change", change)):
        print(f"{side}: {len(runs)} runs, {sum(r['failed'] for r in runs)} of "
              f"{sum(r['attempted'] for r in runs)} operations failed")
    print(f"{'metric':<30} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'delta':>8}  wins")
    for item in spec["end_to_end"] + spec["per_layer"]:
        name = item["name"]
        pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                 for p, c in zip(parent, change)
                 if name in p["metrics"] and name in c["metrics"]]
        if not pairs:
            continue
        sign = 1.0 if item["better"] == "higher" else -1.0
        wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
        (p1, pm, p3), (c1, cm, c3) = (quartiles([v[k] for v in pairs])
                                      for k in (0, 1))
        delta = (cm - pm) / abs(pm) if pm else 0.0
        print(f"{name:<30} {pm:>12.5g} [{p1:.5g}, {p3:.5g}]".ljust(65)
              + f" {cm:>12.5g} [{c1:.5g}, {c3:.5g}]".ljust(35)
              + f" {delta:>+8.1%}  {wins:>2}/{len(pairs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
