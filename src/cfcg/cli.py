"""Command-line benchmark harness.

Three subcommands: ``example1`` sweeps the random regularized
least-squares instance over the gamma grid and all requested beta kinds,
``example2`` trains the tiny tanh network on the three scalar targets and
reports per-cell means over trials, ``single`` runs the first cell of the
configured sweep on one problem and serializes its full trace.

Configuration lives in a flat ``key = value`` text file; command-line
flags override file values.  Exit codes: 0 all runs converged, 1 some run
did not, 2 configuration error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import sys
import time
import typing
from collections import namedtuple
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .engine import (BetaKind, GridStep, LineSearchParams, RunStatus,
                     StopCriteria, cfcg_minimize, cfsd_minimize)
from .fraccalc import FracParams, QuadratureSpec
from .problems import (BENCHMARK_IDS, Example1Config, MlpSpec, gen_example1,
                       mlp_init, mlp_lower_terminal, mlp_objective,
                       tikhonov_run_objective)

__all__ = [
    "ExperimentConfig",
    "ResultRow",
    "load_config",
    "save_config",
    "run_example1",
    "run_example2",
    "run_single",
    "write_rows",
    "write_trace_csv",
    "main",
]

ALL_KINDS = tuple(k.value for k in BetaKind)
SOLVERS = ("CFCG", "CFSD")
OUTPUT_FORMATS = ("csv", "json")


@dataclass
class ExperimentConfig:
    seed: int = 42
    beta_kinds: tuple[str, ...] = ALL_KINDS
    alpha: float = 0.9
    alpha_grid: tuple[float, ...] = ()
    rho: float = 0.1
    gamma_grid: tuple[float, ...] = (0.5, 0.75, 1.0, 2.0, 3.0, 4.0)
    solvers: tuple[str, ...] = SOLVERS
    grad_tol: float = 1e-4
    max_iter: int = 2000
    c1: float = 1e-4
    c2: float = 0.9
    backtrack_ratio: float = 0.5
    max_trials: int = 60
    sd_step: float = 2e-4
    sd_grid: tuple[float, ...] = (0.01, 0.005, 0.001, 0.0005, 0.0001, 0.00005, 0.00001)
    f_decrease_tol: float = 1e-4
    node_count: int = 32
    m: int = 100
    n: int = 100
    hidden_units: int = 60
    train_points: int = 100
    trials: int = 5
    targets: tuple[str, ...] = BENCHMARK_IDS
    problem: str = "example1"
    out: str = "bench_out"
    format: str = "csv"
    write_traces: bool = True

    def line_search(self):
        return LineSearchParams(self.c1, self.c2, self.backtrack_ratio,
                                self.max_trials)

    def quad_spec(self):
        return QuadratureSpec(self.node_count)


@dataclass
class ResultRow:
    experiment: str
    solver: str
    beta: str
    alpha: float
    rho: float
    gamma: float
    seed: int
    target: str
    trials_completed: int
    status: str
    stop_reason: str
    iterations: float
    objective_evals: float
    gradient_evals: float
    final_grad_norm: float
    final_dist: float
    step_param: float
    wall_ms: float

    def __post_init__(self):
        # beta names the CFCG update: CFSD rows, finished or failed, have none
        if self.solver != "CFCG":
            self.beta = ""


ResultRow.FIELDS = tuple(f.name for f in dataclasses.fields(ResultRow))
_FIELD_KINDS = typing.get_type_hints(ExperimentConfig)


# ---------------------------------------------------------------------------
# config file io


def _parse_value(text, kind):
    """A config value of the field type ``kind``: bool, int, float, str or
    a tuple[elem, ...] written comma-separated."""
    text = text.strip()
    if kind is bool:
        if text.lower() in ("true", "1", "yes"):
            return True
        if text.lower() in ("false", "0", "no"):
            return False
        raise ValueError(f"not a boolean: {text!r}")
    if kind in (int, float):
        return kind(text)
    if typing.get_origin(kind) is tuple:
        if not text:
            return ()
        elem = typing.get_args(kind)[0]
        return tuple(elem(p.strip()) for p in text.split(","))
    return text


def _format_value(value):
    if isinstance(value, tuple):
        return ",".join(repr(v) if isinstance(v, float) else str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


class ConfigError(ValueError):
    pass


def load_config(path):
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, text = line.partition("=")
        key = key.strip()
        if key not in _FIELD_KINDS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = _parse_value(text, _FIELD_KINDS[key])
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: field {key!r}: {exc}") from exc
    return ExperimentConfig(**values)


def save_config(config, path):
    lines = [f"{f.name} = {_format_value(getattr(config, f.name))}"
             for f in dataclasses.fields(config)]
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# serialization


def _fmt(x):
    if isinstance(x, float):
        return "%.17g" % x
    return str(x)


def write_rows(rows, path, fmt):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(ResultRow.FIELDS)
            for row in rows:
                writer.writerow([_fmt(getattr(row, name)) for name in ResultRow.FIELDS])
    elif fmt == "json":
        payload = [{name: getattr(row, name) for name in ResultRow.FIELDS}
                   for row in rows]
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
    else:
        raise ConfigError(f"unknown output format {fmt!r}")


TRACE_COLUMNS = ("k", "f", "grad_norm", "step", "beta", "descent_inner",
                 "cos_theta", "restarted", "dist_to_ref")
# one trace row as csv.writer writes it from _fmt's fields: no field needs
# quoting, and rows end in \r\n
_TRACE_ROW = "%d,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%d,%s\r\n"


def write_trace_csv(trace, path):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\r\n")
        fh.writelines(_TRACE_ROW % (
            rec.k, rec.f_value, rec.grad_norm, rec.step, rec.beta,
            rec.descent_inner, rec.cos_theta, rec.restarted,
            "" if rec.dist_to_reference is None else "%.17g" % rec.dist_to_reference,
        ) for rec in trace)


# ---------------------------------------------------------------------------
# runners


def _row_from_report(report, config, experiment, solver, beta, gamma,
                     step_param, wall_ms, target=""):
    last = report.trace[-1]
    dist = float("nan") if last.dist_to_reference is None else last.dist_to_reference
    return ResultRow(
        experiment=experiment, solver=solver,
        beta=beta, alpha=config.alpha,
        rho=config.rho, gamma=gamma, seed=config.seed, target=target,
        trials_completed=1,
        status=report.status.value, stop_reason=report.stop_reason,
        iterations=report.iterations, objective_evals=report.objective_evals,
        gradient_evals=report.gradient_evals,
        final_grad_norm=report.final_grad_norm, final_dist=dist,
        step_param=step_param, wall_ms=wall_ms,
    )


# what one solver call needs besides the solver and its beta kind; sd_rule
# is the problem's CFSD step rule
_Problem = namedtuple("_Problem", "objective x0 frac stop sd_rule quad reference",
                      defaults=(None, None))


def _run_cell(config, problem, solver, beta, out_dir=None, trace_name=None):
    """Run one solver on one problem and write its trace under out_dir
    (if given); returns (report, wall_ms, step_param).

    The objective's counters are reset first, so a problem can be shared
    by several cells.  step_param is the CFSD rule's largest step; nan
    for CFCG.
    """
    p = problem
    p.objective.reset_counters()
    t0 = time.perf_counter()
    if solver == "CFCG":
        report = cfcg_minimize(p.objective, p.x0, p.frac, beta,
                               ls=config.line_search(), stop=p.stop,
                               quad=p.quad, reference=p.reference)
        step_param = float("nan")
    else:
        report = cfsd_minimize(p.objective, p.x0, p.frac, p.sd_rule,
                               stop=p.stop, quad=p.quad, reference=p.reference)
        step_param = max(p.sd_rule.etas)
    wall = (time.perf_counter() - t0) * 1e3
    if out_dir is not None and config.write_traces:
        write_trace_csv(report.trace, Path(out_dir) / trace_name)
    return report, wall, step_param


def _example1_instance(config):
    """The seeded least-squares instance: (problem, x0, frac)."""
    prob, x0, c = gen_example1(Example1Config(seed=config.seed, m=config.m,
                                              n=config.n))
    return prob, x0, FracParams(config.alpha, config.rho, c)


def _tikhonov_problem(config, prob, x0, frac, gamma):
    """The example1 run at one gamma, shared by every cell of that gamma."""
    prob = dataclasses.replace(prob, gamma=gamma)
    objective, target, _ = tikhonov_run_objective(prob, frac)
    return _Problem(objective, x0, frac,
                    StopCriteria(config.grad_tol, config.max_iter),
                    GridStep((config.sd_step,)), reference=target)


def _example1_cell(config, setup, solver, beta, out_dir=None, trace_name=None):
    """One example1 cell; setup() returns the problem of the cell's gamma
    (built by the first cell that calls it).  perfbench's tracer times each
    call of this function as one cell, setup included."""
    return _run_cell(config, setup(), solver, beta, out_dir, trace_name)


def run_example1(config, out_dir=None):
    """Sweep gamma grid x beta kinds x solvers on one seeded instance."""
    _check_config(config)
    prob, x0, frac = _example1_instance(config)
    rows = []
    for gamma in config.gamma_grid:
        # a failed setup is not cached: each cell retries it and records
        # the same error
        setup = functools.cache(functools.partial(
            _tikhonov_problem, config, prob, x0, frac, gamma))
        for beta_kind in config.beta_kinds:
            for solver in config.solvers:
                name = f"trace_example1_g{gamma:g}_{solver}_{beta_kind}.csv"
                try:
                    report, wall, step = _example1_cell(
                        config, setup, solver, beta_kind, out_dir, name)
                except Exception as exc:  # noqa: BLE001 - row records the failure
                    nan = float("nan")
                    rows.append(ResultRow(
                        experiment="example1", solver=solver, beta=beta_kind,
                        alpha=config.alpha, rho=config.rho, gamma=gamma,
                        seed=config.seed, target="", trials_completed=0,
                        status=f"Error({type(exc).__name__})", stop_reason=str(exc),
                        iterations=nan, objective_evals=nan, gradient_evals=nan,
                        final_grad_norm=nan, final_dist=nan, step_param=nan,
                        wall_ms=0.0))
                    continue
                rows.append(_row_from_report(report, config, "example1", solver,
                                             beta_kind, gamma, step, wall))
    return rows


def _mlp_problem(config, alpha, target, trial):
    """One seeded network-training trial on one target; the seeds depend on
    the target's place in BENCHMARK_IDS, not on the other targets run."""
    spec = MlpSpec(hidden_units=config.hidden_units,
                   train_points=config.train_points, trials=config.trials)
    seeds = np.random.SeedSequence(
        (config.seed, BENCHMARK_IDS.index(target), trial))
    data_ss, init_ss = seeds.spawn(2)
    return _Problem(
        mlp_objective(spec, target, data_ss), mlp_init(spec, init_ss),
        FracParams(alpha, config.rho, mlp_lower_terminal(spec)),
        StopCriteria(config.grad_tol, config.max_iter,
                     f_decrease_tol=config.f_decrease_tol),
        GridStep(config.sd_grid), quad=config.quad_spec())


def _mean_row(reports, walls, config, solver, beta, alpha, target, step_param):
    worst = max(reports, key=lambda r: (r.status is not RunStatus.CONVERGED,))
    row = _row_from_report(worst, config, "example2", solver, beta, float("nan"),
                           step_param, float(np.sum(walls)), target)
    means = {name: float(np.mean([getattr(r, name) for r in reports]))
             for name in ("iterations", "objective_evals", "gradient_evals",
                          "final_grad_norm")}
    return dataclasses.replace(row, alpha=alpha, trials_completed=len(reports),
                               stop_reason="mean-over-trials", **means)


def run_example2(config, out_dir=None):
    """Network-training comparison; one mean row per (alpha, target, solver/beta)."""
    _check_config(config)
    alphas = config.alpha_grid if config.alpha_grid else (config.alpha,)
    cells = [("CFCG", bk) for bk in config.beta_kinds if "CFCG" in config.solvers]
    if "CFSD" in config.solvers:
        cells.append(("CFSD", ""))
    rows = []
    for alpha in alphas:
        for target in config.targets:
            for solver, beta_kind in cells:
                reports, walls = [], []
                for trial in range(config.trials):
                    problem = _mlp_problem(config, alpha, target, trial)
                    name = (f"trace_example2_a{alpha:g}_{target}_"
                            f"{solver}{beta_kind}_t{trial}.csv")
                    report, wall, step = _run_cell(config, problem, solver,
                                                   beta_kind, out_dir, name)
                    walls.append(wall)
                    reports.append(report)
                rows.append(_mean_row(reports, walls, config, solver, beta_kind,
                                      alpha, target, step))
    return rows


def run_single(config, out_dir=None):
    """The first cell of the configured sweep; returns (row, report)."""
    _check_config(config)
    solver, beta = config.solvers[0], config.beta_kinds[0]
    target = config.problem[4:] if config.problem.startswith("mlp-") else ""
    gamma = float("nan") if target else config.gamma_grid[0]
    if config.problem == "example1":
        prob, x0, frac = _example1_instance(config)
        cell = functools.partial(_example1_cell, config, functools.partial(
            _tikhonov_problem, config, prob, x0, frac, gamma))
    else:
        cell = functools.partial(_run_cell, config, _mlp_problem(
            config, config.alpha, target, 0))

    report, wall, step = cell(solver, beta, out_dir, "trace_single.csv")
    row = _row_from_report(report, config, "single", solver, beta, gamma,
                           step, wall, target)
    return row, report


# ---------------------------------------------------------------------------
# entry point


@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="cfcg-bench",
        description="fractional conjugate-gradient benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("example1", "example2", "single"):
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None,
                       help="flat key=value config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--alpha", type=float, default=None)
        p.add_argument("--rho", type=float, default=None)
        p.add_argument("--beta", type=str, default=None,
                       help="comma-separated beta kinds (FR,CD,DY,PRP,HS)")
        p.add_argument("--gamma", type=str, default=None,
                       help="comma-separated gamma grid")
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--max-iter", type=int, default=None)
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--format", type=str, default=None)
        if name == "single":
            p.add_argument("--problem", type=str, default=None)
            p.add_argument("--solver", type=str, default=None)
    return parser


# flags copied as given: flag attribute -> config field
_PLAIN_FLAGS = {"seed": "seed", "alpha": "alpha", "rho": "rho",
                "tol": "grad_tol", "max_iter": "max_iter", "out": "out",
                "format": "format", "problem": "problem"}
# comma-separated flags: flag attribute -> (config field, element type)
_GRID_FLAGS = {"beta": ("beta_kinds", str.upper), "solver": ("solvers", str),
               "gamma": ("gamma_grid", float)}


def _apply_overrides(config, args):
    updates = {}
    for flag, name in _PLAIN_FLAGS.items():
        if getattr(args, flag, None) is not None:
            updates[name] = getattr(args, flag)
    for flag, (name, elem) in _GRID_FLAGS.items():
        text = getattr(args, flag, None)
        if text is not None:
            try:
                updates[name] = tuple(elem(v.strip()) for v in text.split(","))
            except ValueError as exc:
                raise ConfigError(f"--{flag}: {exc}") from exc
    return dataclasses.replace(config, **updates)


def _check_config(config):
    """Check every rule on a config value, whichever runner uses it.  Each
    runner calls this first, so a bad value is a ConfigError before any
    cell runs, not a traceback or a row of Error(ValueError) per cell."""
    empty = [name for name in ("beta_kinds", "solvers", "gamma_grid", "targets")
             if not getattr(config, name)]
    if empty:
        raise ConfigError(f"empty list(s): {', '.join(empty)}")
    for what, names, known in (
            ("beta kind", config.beta_kinds, ALL_KINDS),
            ("solver", config.solvers, SOLVERS),
            ("target", config.targets, BENCHMARK_IDS),
            ("problem", (config.problem,),
             ("example1",) + tuple(f"mlp-{t}" for t in BENCHMARK_IDS)),
            ("output format", (config.format,), OUTPUT_FORMATS)):
        bad = [name for name in names if name not in known]
        if bad:
            raise ConfigError(f"unknown {what}(s): {', '.join(bad)}")
    if not all(g >= 0.0 for g in config.gamma_grid):
        raise ConfigError("gamma must be nonnegative, got "
                          + _format_value(config.gamma_grid))
    try:
        config.line_search()
        config.quad_spec()
        StopCriteria(config.grad_tol, config.max_iter, config.f_decrease_tol)
        GridStep((config.sd_step,))
        GridStep(config.sd_grid)
        MlpSpec(hidden_units=config.hidden_units,
                train_points=config.train_points, trials=config.trials)
        for alpha in config.alpha_grid + (config.alpha,):
            FracParams(alpha, config.rho, ())
    except ValueError as exc:
        raise ConfigError(exc) from exc


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config) if args.config else ExperimentConfig()
        config = _apply_overrides(config, args)
        out_dir = Path(config.out)
        if args.command == "example1":
            rows = run_example1(config, out_dir)
        elif args.command == "example2":
            rows = run_example2(config, out_dir)
        else:
            row, _ = run_single(config, out_dir)
            rows = [row]
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    write_rows(rows, out_dir / f"results.{config.format}", config.format)
    print(f"{len(rows)} result row(s) -> {out_dir}/results.{config.format}")
    all_converged = all(r.status == RunStatus.CONVERGED.value for r in rows)
    return 0 if all_converged else 1


if __name__ == "__main__":
    sys.exit(main())
