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
they were, which CI checks.  After a deliberate change of the numerics,
read ``git diff tests/data`` and record in CHANGES.md which files moved
and by how much.
"""

from __future__ import annotations

import json
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


def main():
    results = DATA / "golden_results.csv"
    with tempfile.TemporaryDirectory() as out:
        fresh = Path(out) / results.name
        write_rows(run_example1(TINY), fresh, "csv")
        if _without_wall(fresh) != _without_wall(results):
            results.write_bytes(fresh.read_bytes())
            print(results.name)
    for golden, (runner, config, written) in sorted(GOLDEN_TRACES.items()):
        with tempfile.TemporaryDirectory() as out:
            runner(config, out)
            (DATA / golden).write_bytes((Path(out) / written).read_bytes())
        print(golden)
    with tempfile.TemporaryDirectory() as out:
        digests = sweep_digests(out, run_example1(ExperimentConfig(), out))
    SWEEP_DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True)
                             + "\n")
    print(SWEEP_DIGESTS.name)


if __name__ == "__main__":
    main()
