"""The benchmark's workloads, the correctness gate and the end-to-end
metrics computed from the program's own result rows.

Every workload is closed loop: one caller in one process runs the
``cfcg-bench`` entry point (``cfcg.cli.main``) and waits for it before the
next call.  Inputs are generated from the workload seed only.
"""

from __future__ import annotations

import csv
import math
import statistics
from dataclasses import dataclass, replace
from pathlib import Path

from hostref import NOMINAL_S

# converged tikhonov-sweep CFCG cells must end this close to the
# closed-form solution; grad_tol 1e-4 over the smallest eigenvalue of the
# iteration matrix (about 16 at gamma 0.5) allows roughly 6e-6
TIKHONOV_DIST_BOUND = 1e-4
# the benchmark's own solve of the regularized normal equations must match
# cfcg.tikhonov_solution to this relative tolerance
TIKHONOV_REF_RTOL = 1e-8
STATUSES = ("Converged", "MaxIter", "LineSearchFailure")
FLOAT_FIELDS = ("alpha", "rho", "gamma", "iterations", "objective_evals",
                "gradient_evals", "final_grad_norm", "final_dist",
                "step_param", "wall_ms")


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    # config-file overrides of cfcg.cli.ExperimentConfig, full and smoke size
    config: dict
    smoke_config: dict
    default_seed: int
    heldout_seed: int
    # entry calls per repeat; consecutive seeds from the workload seed
    calls: int = 1
    extra_args: tuple = ()

    def argv(self, seed, config_path, out_dir):
        args = [self.command, *self.extra_args, "--seed", str(seed),
                "--out", str(out_dir)]
        if config_path is not None:
            args += ["--config", str(config_path)]
        return args

    def call_seeds(self, seed):
        return [seed + k for k in range(self.calls)]

    def expected_rows(self, cfg):
        if self.command == "example1":
            return len(cfg.gamma_grid) * len(cfg.beta_kinds) * len(cfg.solvers)
        if self.command == "example2":
            alphas = len(cfg.alpha_grid) or 1
            per_target = len(cfg.beta_kinds) + ("CFSD" in cfg.solvers)
            return alphas * len(cfg.targets) * per_target
        return 1


# why each workload exists: README.md and BENCHMARK.json
WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="tikhonov-sweep",
            command="example1", config={},
            smoke_config={"m": 12, "n": 12, "gamma_grid": "0.5,2.0",
                          "max_iter": 200},
            default_seed=42, heldout_seed=7),
        Workload(
            name="mlp-sweep",
            command="example2",
            config={"hidden_units": 20, "train_points": 50, "trials": 3,
                    "grad_tol": 1e-4, "f_decrease_tol": 1e-4, "max_iter": 500,
                    "node_count": 32, "alpha": 0.9},
            smoke_config={"hidden_units": 3, "train_points": 10, "trials": 1,
                          "max_iter": 10, "node_count": 8},
            default_seed=20250810, heldout_seed=20250813, calls=3),
        # a fixed budget of 8 iterations per call: at the default
        # tolerances a call stops after 1 to 25 iterations, which makes the
        # time of a call a property of its seed more than of the program
        Workload(
            name="mlp-single-wide",
            command="single",
            config={"max_iter": 8, "grad_tol": 1e-12, "f_decrease_tol": 1e-12},
            smoke_config={"hidden_units": 4, "train_points": 10, "max_iter": 5},
            default_seed=42, heldout_seed=1000, calls=16,
            extra_args=("--problem", "mlp-h1", "--solver", "CFCG",
                        "--beta", "FR")),
    )
}


def write_config(values, path):
    """A flat ``key = value`` file as read by ``cfcg.cli.load_config``."""
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))


def read_rows(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        for name in FLOAT_FIELDS:
            row[name] = float(row[name])
        row["trials_completed"] = int(row["trials_completed"])
    return rows


def read_final_fs(out_dir):
    """Final loss of every run, from the terminal row of each trace file."""
    finals = []
    for path in sorted(Path(out_dir).glob("trace_*.csv")):
        with open(path, newline="") as fh:
            last = None
            for last in csv.DictReader(fh):
                pass
        finals.append(float(last["f"]) if last else math.nan)
    return finals


def gradient_evals(rows):
    """Fractional-gradient evaluations of all runs behind the rows."""
    return sum(r["gradient_evals"] * r["trials_completed"] for r in rows
               if r["status"] in STATUSES)


def check_call(workload, cfg, rc, rows, finals):
    """Correctness problems of one entry call, one string per failed cell
    or check; ``finals`` are the final losses read from its traces."""
    problems = []
    want = workload.expected_rows(cfg)
    if len(rows) != want:
        problems.append(f"{len(rows)} rows, expected {want}")
    for r in rows:
        if r["status"] not in STATUSES:
            problems.append(f"{r['status']} row: {r['stop_reason']}")
        elif not math.isfinite(r["final_grad_norm"]):
            problems.append(f"non-finite final_grad_norm in {r['solver']} row")
    converged = all(r["status"] == "Converged" for r in rows)
    if rc != (0 if converged else 1):
        problems.append(f"exit code {rc} but statuses "
                        f"{sorted({r['status'] for r in rows})}")
    if finals is not None:  # trace files are read on a seed's first call
        runs = sum(r["trials_completed"] for r in rows)
        if cfg.write_traces and len(finals) != runs:
            problems.append(f"{len(finals)} trace files for {runs} runs")
        if not all(math.isfinite(f) for f in finals):
            problems.append("non-finite final loss in a trace")
    if workload.command == "example1":
        for r in rows:
            if (r["solver"] == "CFCG" and r["status"] == "Converged"
                    and not r["final_dist"] <= TIKHONOV_DIST_BOUND):
                problems.append(f"CFCG {r['beta']} gamma={r['gamma']:g} ends "
                                f"{r['final_dist']:.3g} from the closed form")
    return problems


def check_reference(cfcg, cfg, seed):
    """Compare cfcg.tikhonov_solution with a direct solve of the
    regularized normal equations, for every gamma of the sweep."""
    import numpy as np

    prob, _, _ = cfcg.gen_example1(cfcg.Example1Config(
        seed=seed, m=cfg.m, n=cfg.n, gamma_grid=cfg.gamma_grid))
    problems = []
    for gamma in cfg.gamma_grid:
        M = prob.A + gamma * np.diag(np.diag(prob.A))
        rhs = prob.X @ (prob.y - prob.X.T @ prob.x_bar)
        direct = prob.x_bar + np.linalg.solve(M, rhs)
        got = cfcg.tikhonov_solution(replace(prob, gamma=gamma))
        err = np.linalg.norm(got - direct) / np.linalg.norm(direct)
        if not err <= TIKHONOV_REF_RTOL:
            problems.append(f"tikhonov_solution off by {err:.3g} "
                            f"at gamma={gamma:g}")
    return problems


def rows_key(rows):
    """Rows without wall_ms, for the rerun-determinism check."""
    return [tuple("nan" if isinstance(v, float) and math.isnan(v) else v
                  for k, v in r.items() if k != "wall_ms") for r in rows]


def percentile(values, q):
    """The q-th percentile, or None unless ten samples lie beyond it."""
    if len(values) < 2:
        return statistics.median(values) if values and q == 50 else None
    cut = statistics.quantiles(values, n=100, method="inclusive")[q - 1]
    return cut if q == 50 or sum(v > cut for v in values) >= 10 else None


@dataclass
class CallRecord:
    seed: int
    traced: bool
    wall_s: float
    # mean time of the host-speed reference loop just before and after
    ref_s: float
    rows: list

    @property
    def grad_ms(self):
        grads = gradient_evals(self.rows)
        return self.wall_s * 1e3 / grads if grads else math.nan

    @property
    def speed(self):
        """Factor that turns this call's times into seconds at the
        reference host speed."""
        return NOMINAL_S / self.ref_s


def end_to_end(workload, calls, finals):
    """End-to-end metrics of the untraced calls: {name: (value, unit, n)};
    value None where the metric does not apply or lacks samples."""
    plain = [c for c in calls if not c.traced]
    if not plain:
        return {}
    rows = [r for c in plain for r in c.rows]
    grads = [c for c in plain if not math.isnan(c.grad_ms)]

    def median(values):
        return statistics.median(values) if values else math.nan

    m = {
        "wall_s": (median([c.wall_s * c.speed for c in plain]), "s",
                   len(plain)),
        "grad_ms": (median([c.grad_ms * c.speed for c in grads]), "ms",
                    len(grads)),
        "raw.wall_s": (median([c.wall_s for c in plain]), "s", len(plain)),
        "raw.grad_ms": (median([c.grad_ms for c in grads]), "ms", len(grads)),
        "host.ref_ms": (median([c.ref_s * 1e3 for c in plain]), "ms",
                        len(plain)),
    }
    for solver in ("CFCG", "CFSD"):
        cells = [r["wall_ms"] for r in rows if r["solver"] == solver
                 and r["status"] in STATUSES]
        for q in (50, 90):
            m[f"{solver.lower()}.cell_ms.p{q}"] = (percentile(cells, q), "ms",
                                                   len(cells))
    m["converged_share"] = (
        sum(r["status"] == "Converged" for r in rows) / len(rows) if rows
        else math.nan, "share", len(rows))
    mlp = workload.command != "example1"
    m["final_f_mean"] = (statistics.fmean(finals) if mlp and finals else None,
                         "loss", len(finals))
    dists = [r["final_dist"] for r in rows
             if r["solver"] == "CFCG" and r["status"] == "Converged"
             and not math.isnan(r["final_dist"])]
    m["tikhonov.dist_max"] = (max(dists) if dists and not mlp else None, "1",
                              len(dists))
    return m
