"""Rewrite the seven golden files in this directory from the runs that the
tests compare them with.

    python tests/data/regen_golden.py

Each trace comes from its entry in ``test_cli.GOLDEN_TRACES``,
``golden_results.csv`` from ``run_example1(test_cli.TINY)`` and
``golden_default_sweep.json`` (``test_acceptance.sweep_digests``) from the
default example1 sweep, so the files are made by the same runner and
configuration that the tests use.  ``golden_results.csv`` is rewritten
only when a column other than ``wall_ms``, which the tests skip, would
change.  On an unchanged program the files come out byte for byte as
they were, which CI checks.  Under the name of each trace whose bytes
it changed, the script prints the largest relative change of every
numeric column (0 where no cell of the column moved), and the row counts
when they differ.  After a deliberate change of the numerics, record in
CHANGES.md which files moved and by how much.
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
from pathlib import Path

DATA = Path(__file__).resolve().parent
sys.path[:0] = [str(DATA.parents[1] / "src"), str(DATA.parent)]

from cfcg.cli import ExperimentConfig, run_example1, write_rows  # noqa: E402
from test_acceptance import SWEEP_DIGESTS, sweep_digests  # noqa: E402
from test_cli import GOLDEN_TRACES, TINY, read_csv_rows  # noqa: E402


def _without_wall(path):
    return [{k: v for k, v in row.items() if k != "wall_ms"}
            for row in read_csv_rows(path)] if path.exists() else None


def relative_drift(old_rows, new_rows):
    """Largest |new - old| / |old| of each numeric column over the rows
    two traces share.  Equal cells count 0, nan against nan too; a cell
    that moves from 0, from or to a non-finite value counts inf."""
    drift = {}
    for old, new in zip(old_rows, new_rows):
        for key, a in old.items():
            try:
                a, b = float(a), float(new[key])
            except (KeyError, ValueError):
                continue
            if a == b or (math.isnan(a) and math.isnan(b)):
                change = 0.0
            elif a == 0.0 or not (math.isfinite(a) and math.isfinite(b)):
                change = math.inf
            else:
                change = abs(b - a) / abs(a)
            drift[key] = max(drift.get(key, 0.0), change)
    return drift


def main():
    results = DATA / "golden_results.csv"
    with tempfile.TemporaryDirectory() as out:
        fresh = Path(out) / results.name
        write_rows(run_example1(TINY), fresh, "csv")
        if _without_wall(fresh) != _without_wall(results):
            results.write_bytes(fresh.read_bytes())
            print(results.name)
    for golden, (runner, config, written) in sorted(GOLDEN_TRACES.items()):
        path = DATA / golden
        with tempfile.TemporaryDirectory() as out:
            runner(config, out)
            fresh = Path(out) / written
            print(golden)
            if path.exists() and fresh.read_bytes() != path.read_bytes():
                old, new = read_csv_rows(path), read_csv_rows(fresh)
                if len(new) != len(old):
                    print(f"  rows {len(old)} -> {len(new)}")
                for column, change in relative_drift(old, new).items():
                    print(f"  {column} {change:.3g}")
            path.write_bytes(fresh.read_bytes())
    with tempfile.TemporaryDirectory() as out:
        digests = sweep_digests(out, run_example1(ExperimentConfig(), out))
    SWEEP_DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True)
                             + "\n")
    print(SWEEP_DIGESTS.name)


if __name__ == "__main__":
    main()
