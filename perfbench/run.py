"""cfcg benchmark: one command per workload, run from the repository root.

    python3 perfbench/run.py --workload tikhonov-sweep --seed 42 --seconds 45 --trace 0

Prints the environment, every end-to-end metric by name with its unit and
sample count (and with ``--trace 1`` every per-layer metric), then, as the
last line, one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The metrics in that object are the ones
``BENCHMARK.json`` lists.  Exit code 0 when every correctness check
passed, 1 when one failed, 2 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

# one BLAS thread per process unless the caller chose otherwise: on a
# shared 2-core VM a second BLAS thread measures the neighbours' load.
# Set before numpy loads; the workload processes inherit it.
ONE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
THREADS_FOUND = {key: os.environ.get(key) for key in ONE_THREAD}
for _key in ONE_THREAD:
    os.environ.setdefault(_key, "1")

from hostref import NOMINAL_S  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 9
# every run must end within 180 s
DEADLINE_S = 170.0


def _worker(*args):
    return [sys.executable, str(HERE / "worker.py"), *map(str, args)]


def measure_setup(args, out, probes, deadline):
    """Median wall time of fresh processes that import cfcg and build the
    workload's inputs, raw and at the reference host speed (hostref.py).
    Each probe prints the wall clock when it is done, since waiting with a
    timeout would round its end up to the poll interval, and then the time
    of the reference loop run in the same process."""
    walls, scaled = [], []
    for _ in range(probes):
        t0 = time.time()
        proc = subprocess.run(
            _worker("--setup-only", "--workload", args.workload, "--seed",
                    args.seed, "--out", out, *(["--smoke"] if args.smoke else [])),
            stdout=subprocess.PIPE, text=True, check=True,
            timeout=deadline - time.perf_counter())
        end, ref = map(float, proc.stdout.split()[-2:])
        walls.append(end - t0)
        scaled.append(walls[-1] * NOMINAL_S / ref)
    return statistics.median(scaled), statistics.median(walls), len(walls)


def show(name, value, unit, n):
    text = "n/a" if value is None or math.isnan(value) else f"{value:.6g}"
    print(f"  {name:<30} {text:>12} {unit:<6} n={n}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny problem sizes, for the benchmark's own test")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.seed is None:
        args.seed = workload.default_seed

    if not (ROOT / "src" / "cfcg" / "__init__.py").is_file():
        print(f"no cfcg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    out = ROOT / ".bench_build" / "cfcgbench" / (
        workload.name + ("-smoke" if args.smoke else ""))
    out.mkdir(parents=True, exist_ok=True)
    (out / "result.json").unlink(missing_ok=True)

    deadline = time.perf_counter() + DEADLINE_S
    try:
        setup_s, raw_setup_s, probes = measure_setup(
            args, out, 2 if args.smoke else SETUP_PROBES, deadline)
        subprocess.run(_worker("--workload", workload.name, "--seed", args.seed,
                               "--seconds", args.seconds, "--trace", args.trace,
                               "--out", out, *(["--smoke"] if args.smoke else [])),
                       check=True, timeout=deadline - time.perf_counter())
        result = json.loads((out / "result.json").read_text())
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2

    print(f"workload {workload.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} calls={result['calls']} "
          f"repeats={result['repeats']}")
    print("env " + json.dumps(dict(result["env"], threads_found=THREADS_FOUND),
                              sort_keys=True))
    failures = result["failures"]
    measured = {"setup_s": (setup_s, "s", probes),
                "raw.setup_s": (raw_setup_s, "s", probes),
                "peak_rss_mb": (result["peak_rss_mb"], "MB", 1)}
    measured.update((k, tuple(v)) for k, v in
                    result.get("end_to_end", {}).items())
    attempted = max(result["attempted"], 1)
    measured["failed_share"] = (len(failures) / attempted, "share", attempted)
    print("end-to-end:")
    for name, (value, unit, n) in measured.items():
        show(name, value, unit, n)
    layers = result.get("per_layer", {})
    if layers:
        print("per-layer (traced run, per entry call):")
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for name, value in layers.items():
            show(name, value, units.get(name, ""), result["traced_calls"])

    values = {name: v[0] for name, v in measured.items()}
    values.update(layers)
    metrics = {}
    for item in wanted:
        value = values.get(item["name"])
        if value is None or not math.isfinite(value):
            failures.append(f"metric {item['name']} was not measured")
            continue
        metrics[item["name"]] = {"value": value, "unit": item["unit"]}
    for message in list(dict.fromkeys(failures))[:20]:
        print(f"FAILED: {message}", file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
