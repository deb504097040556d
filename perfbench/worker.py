"""The workload process: runs one workload's entry calls and writes
``result.json`` into its output directory.

Started by ``run.py``; run alone as
``python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --out DIR``.
With ``--setup-only`` it imports ``cfcg``, builds the workload's inputs,
prints the wall clock and the time of one pass of the host-speed reference
loop, and exits; ``setup_s`` is the time from before its start to the
clock it printed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from hostref import reference_s  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def environment():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def prepare(workload, seed, out, smoke):
    """Write the workload's config file; returns (config path or None,
    parsed config).  This and building the problems is the set-up."""
    import cfcg.cli

    from workloads import write_config

    values = workload.smoke_config if smoke else workload.config
    out.mkdir(parents=True, exist_ok=True)
    if not values:
        return None, cfcg.cli.ExperimentConfig()
    path = out / "workload.cfg"
    write_config(values, path)
    return path, cfcg.cli.load_config(path)


def build_inputs(cfcg, workload, cfg, seed):
    """Build every problem instance the workload's calls will solve, seeded
    as ``cfcg.cli`` seeds them."""
    import numpy as np

    if workload.command == "example1":
        cfcg.gen_example1(cfcg.Example1Config(
            seed=seed, m=cfg.m, n=cfg.n, gamma_grid=cfg.gamma_grid))
        return
    spec = cfcg.MlpSpec(hidden_units=cfg.hidden_units,
                        train_points=cfg.train_points, trials=cfg.trials)
    if workload.command == "example2":
        runs = [(ti, target, trial) for ti, target in enumerate(cfg.targets)
                for trial in range(cfg.trials)]
    else:
        runs = [(0, "h1", 0)]
    for call_seed in workload.call_seeds(seed):
        for ti, target, trial in runs:
            data, init = np.random.SeedSequence((call_seed, ti, trial)).spawn(2)
            cfcg.mlp_objective(spec, target, data)
            cfcg.mlp_init(spec, init)


def run(args):
    import cfcg
    import cfcg.cli

    from tracer import LAYERS, Tracer, layer_metrics
    from workloads import (WORKLOADS, CallRecord, check_call, check_reference,
                           end_to_end, read_final_fs, read_rows, rows_key)

    workload = WORKLOADS[args.workload]
    out = Path(args.out)
    shutil.rmtree(out / "calls", ignore_errors=True)
    config_path, cfg = prepare(workload, args.seed, out, args.smoke)

    failures = []  # one message per failed cell or check
    if workload.command == "example1":
        failures += check_reference(cfcg, cfg, args.seed)
    tracer = Tracer() if args.trace else None
    calls, finals, first_rows = [], [], {}
    attempted = 0
    reps = []  # (traced, wall of the repeat)
    start = time.perf_counter()
    ref_before = reference_s()
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        if traced:
            tracer.install(cfcg)
        rep_wall = 0.0
        try:
            for seed in workload.call_seeds(args.seed):
                call_dir = out / "calls" / f"seed{seed}"
                argv = workload.argv(seed, config_path, call_dir)
                expected = workload.expected_rows(cfg)
                attempted += expected
                t0 = time.perf_counter()
                try:
                    with contextlib.redirect_stdout(io.StringIO()):
                        rc = cfcg.cli.main(argv)
                except Exception:  # noqa: BLE001 - a crash is a counted failure
                    crash = traceback.format_exc()
                    failures += [f"seed {seed}: crashed\n{crash}"] * expected
                    continue
                wall = time.perf_counter() - t0
                ref_after = reference_s()
                ref = (ref_before + ref_after) / 2
                ref_before = ref_after
                rep_wall += wall
                rows = read_rows(call_dir / "results.csv")
                first = seed not in first_rows
                call_finals = read_final_fs(call_dir) if first else None
                problems = check_call(workload, cfg, rc, rows, call_finals)
                if first:
                    first_rows[seed] = rows_key(rows)
                    finals += call_finals
                elif rows_key(rows) != first_rows[seed]:
                    problems.append("rerun rows differ beyond wall_ms")
                failures += [f"seed {seed}: {p}" for p in problems]
                calls.append(CallRecord(seed, traced, wall, ref, rows))
        finally:
            if traced:
                tracer.uninstall()
        reps.append((traced, rep_wall))
        done = time.perf_counter() - start >= args.seconds
        if done and (not args.trace or len(reps) >= 2):
            break

    result = {
        "workload": workload.name,
        "seed": args.seed,
        "env": environment(),
        "attempted": attempted,
        "failures": failures,
        "calls": len(calls),
        "traced_calls": sum(c.traced for c in calls),
        "repeats": len(reps),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "call_log": [(c.seed, c.traced, c.wall_s, c.grad_ms, c.ref_s)
                     for c in calls],
    }
    if not calls:
        return result
    result["end_to_end"] = end_to_end(workload, calls, finals)
    if tracer is not None:
        traced_calls = [c for c in calls if c.traced]
        layers = layer_metrics(tracer.spans, len(traced_calls))
        plain = statistics.median(w for t, w in reps if not t)
        with_trace = statistics.median(w for t, w in reps if t)
        layers["trace_overhead_share"] = with_trace / plain - 1.0
        traced_wall = sum(c.wall_s for c in traced_calls)
        layers["traced.wall_s"] = traced_wall / max(len(traced_calls), 1)
        self_sum = sum(layers[f"layer.{name}.self_s"] for name in LAYERS)
        layers["layers.self_sum_share"] = (
            self_sum * len(traced_calls) / traced_wall if traced_wall else 0.0)
        layers["cli.self_share"] = (
            layers["cli.self_s"] * len(traced_calls) / traced_wall
            if traced_wall else 0.0)
        result["per_layer"] = layers
        tracer.write_spans(out / "spans.csv")
    return result


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    if args.setup_only:
        import cfcg
        import cfcg.cli

        from workloads import WORKLOADS

        workload = WORKLOADS[args.workload]
        _, cfg = prepare(workload, args.seed, Path(args.out), args.smoke)
        build_inputs(cfcg, workload, cfg, args.seed)
        done = time.time()
        print(done, reference_s())
        return 0
    result = run(args)
    Path(args.out, "result.json").write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
