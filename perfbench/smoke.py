"""The benchmark's own smoke test, at tiny problem sizes, in under a minute.

    python3 perfbench/smoke.py

Runs every workload untraced and traced, checks the result line against
``BENCHMARK.json`` and the layer isolation the workloads promise, feeds the
correctness gate faulty results, traces a package that lacks every hook,
and checks that the benchmark refuses to run without the ``cfcg`` sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from tracer import LAYERS, Tracer, layer_metrics  # noqa: E402
from workloads import (TIKHONOV_DIST_BOUND, WORKLOADS,  # noqa: E402
                       check_call)

KEYS = {"correct", "attempted", "failed", "metrics"}
# the self times of the five layers must account for the traced wall time;
# this only shows that spans nest, since cli.main is the root of every span
SELF_SUM_RANGE = (0.97, 1.0001)
# time in functions no hook wraps lands in the nearest wrapped ancestor,
# mostly cli.main; at full sizes cli.self_share stays below 0.02, at the
# tiny smoke sizes argument parsing alone is about a tenth
CLI_SELF_MAX = 0.3


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def check_workloads(spec, errors):
    if not {w["name"] for w in spec["workloads"]} <= set(WORKLOADS):
        errors.append("BENCHMARK.json names a workload workloads.py lacks")
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = bench("--workload", name, "--seed", "3", "--seconds", "0.5",
                         "--trace", str(trace), "--smoke")
            where = f"{name} trace={trace}"
            if proc.returncode != 0:
                errors.append(f"{where}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            listed = spec["per_layer" if trace else "end_to_end"]
            if set(result) != KEYS or not result["correct"]:
                errors.append(f"{where}: bad result keys or not correct")
            if set(result["metrics"]) != {m["name"] for m in listed}:
                errors.append(f"{where}: metrics differ from BENCHMARK.json")
            if trace:
                check_isolation(name, result["metrics"], errors)


def check_isolation(name, metrics, errors):
    value = {k: v["value"] for k, v in metrics.items()}
    if name == "tikhonov-sweep":
        zero = ("fraccalc.quad_grad_calls", "problems.eval_line_calls")
        busy = ("fraccalc.closed_grad_calls", "tikhonov.setup_calls")
    else:
        zero = ("fraccalc.closed_grad_calls", "tikhonov.setup_calls")
        busy = ("fraccalc.quad_grad_calls", "problems.line_points")
    for key in zero:
        if value[key] != 0:
            errors.append(f"{name}: {key} = {value[key]}, expected 0")
    for key in busy + ("engine.gradient_evals", "engine.line_search_calls"):
        if not value[key] > 0:
            errors.append(f"{name}: {key} = {value[key]}, expected > 0")
    lo, hi = SELF_SUM_RANGE
    if not lo <= value["layers.self_sum_share"] <= hi:
        errors.append(f"{name}: layer self times sum to "
                      f"{value['layers.self_sum_share']:.4f} of wall time")
    if not value["cli.self_share"] <= CLI_SELF_MAX:
        errors.append(f"{name}: cli self time outside I/O is "
                      f"{value['cli.self_share']:.3f} of wall time")


def row(**fields):
    base = {"solver": "CFCG", "beta": "FR", "gamma": 1.0, "status": "Converged",
            "stop_reason": "grad_tol", "trials_completed": 1,
            "final_grad_norm": 1e-5, "final_dist": 1e-7}
    return {**base, **fields}


def check_gate(errors):
    from cfcg.cli import ExperimentConfig

    cfg = ExperimentConfig(gamma_grid=(1.0,), beta_kinds=("FR",),
                           solvers=("CFCG",), write_traces=False)
    sweep = WORKLOADS["tikhonov-sweep"]
    cases = {
        "clean": ([row()], 0, 0),
        "error row": ([row(status="Error(ValueError)")], 1, 1),
        "row count": ([row(), row()], 0, 1),
        "exit code": ([row(status="MaxIter")], 0, 1),
        "distance": ([row(final_dist=10 * TIKHONOV_DIST_BOUND)], 0, 1),
    }
    for label, (rows, rc, want) in cases.items():
        got = len(check_call(sweep, cfg, rc, rows, None))
        if got != want:
            errors.append(f"gate case {label!r}: {got} failures, expected {want}")


def check_missing_hooks(errors):
    """A package without any of the traced functions reads as zeros."""
    empty = types.SimpleNamespace(**{name: types.SimpleNamespace()
                                     for name in LAYERS})
    tracer = Tracer()
    tracer.install(empty)
    tracer.uninstall()
    if any(layer_metrics(tracer.spans, 1).values()):
        errors.append("missing hooks do not read as zero")


def check_bare_directory(errors):
    bare = ROOT / ".bench_build" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench("--workload", "tikhonov-sweep", "--seconds", "1", cwd=bare)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        errors.append("benchmark ran without the cfcg sources")
    shutil.rmtree(bare)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    check_gate(errors)
    check_missing_hooks(errors)
    check_bare_directory(errors)
    check_workloads(spec, errors)
    for error in errors:
        print(f"FAIL {error}")
    print("smoke: ok" if not errors else f"smoke: {len(errors)} failure(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
