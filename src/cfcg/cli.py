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
import itertools
import json
import math
import operator
import re
import sys
import time
import typing
from collections import namedtuple
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .engine import (BetaKind, GridStep, RunStatus, StopCriteria,
                     cfcg_minimize, cfsd_minimize)
from .fraccalc import FracParams, QuadratureSpec
from .problems import (BENCHMARK_IDS, Example1Config, MlpSpec, gen_example1,
                       mlp_init, mlp_lower_terminal, mlp_objective,
                       tikhonov_run_objective)

__all__ = [
    "ExperimentConfig",
    "ResultRow",
    "load_config",
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
# the CFSD step rules: example1's fixed step and the networks' grid
EXAMPLE1_SD_RULE = GridStep((2e-4,))
MLP_SD_RULE = GridStep((0.01, 0.005, 0.001, 0.0005, 0.0001, 0.00005, 0.00001))


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
    f_decrease_tol: float = 1e-4
    # cells of the trapezoid rule, taken only for objectives without
    # eval_line: no problem here reads it now, but the benchmark sets it
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

    def __post_init__(self):
        # one case rule for beta kinds and solvers, wherever they come from
        self.beta_kinds = tuple(k.upper() for k in self.beta_kinds)
        self.solvers = tuple(s.upper() for s in self.solvers)


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
    # what only a finished run knows: nan in an Error(...) row
    iterations: float = math.nan
    objective_evals: float = math.nan
    gradient_evals: float = math.nan
    final_grad_norm: float = math.nan
    final_dist: float = math.nan
    step_param: float = math.nan
    wall_ms: float = 0.0

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
    a tuple[elem, ...] written comma-separated, with no empty entry."""
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
        parts = [p.strip() for p in text.split(",")] if text else []
        if "" in parts:
            raise ValueError(f"empty entry in {text!r}")
        return tuple(map(typing.get_args(kind)[0], parts))
    return text


class ConfigError(ValueError):
    pass


def load_config(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    values, lines = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, text = line.partition("=")
        key = key.strip()
        if key not in _FIELD_KINDS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in lines:
            raise ConfigError(f"{path}:{lineno}: key {key!r} repeats "
                              f"line {lines[key]}")
        lines[key] = lineno
        try:
            values[key] = _parse_value(text, _FIELD_KINDS[key])
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: field {key!r}: {exc}") from exc
    return ExperimentConfig(**values)


# ---------------------------------------------------------------------------
# serialization


def _fmt(x):
    return "%.17g" % x if isinstance(x, float) else str(x)


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
        # JSON has no nan or infinity: a non-finite float is written null
        payload = [{name: None if isinstance(v := getattr(row, name), float)
                    and not math.isfinite(v) else v for name in ResultRow.FIELDS}
                   for row in rows]
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1, allow_nan=False)
            fh.write("\n")
    else:
        raise ConfigError(f"unknown output format {fmt!r}")


TRACE_COLUMNS = ("k", "f", "grad_norm", "step", "beta", "descent_inner",
                 "cos_theta", "restarted", "dist_to_ref")
# the record attribute and format of each column, as csv.writer writes
# _fmt's fields: no field needs quoting, rows end in \r\n, and a distance
# of None is an empty field
_TRACE_FIELDS = (("k", "%d"), ("f_value", "%.17g"), ("grad_norm", "%.17g"),
                 ("step", "%.17g"), ("beta", "%.17g"),
                 ("descent_inner", "%.17g"), ("cos_theta", "%.17g"),
                 ("restarted", "%d"), ("dist_to_reference", "%.17g"))


def _trace_lines(records):
    """The csv lines of a list of trace records, each column built once.
    A float column that holds any non-float goes through _fmt.  A column
    that holds the very same object in every row of two or more is
    formatted once, into the row format: `is`, not `==`, since
    0.0 == -0.0.  k differs per row, so at least one column is zipped."""
    specs, columns = [], []
    for name, spec in _TRACE_FIELDS:
        values = list(map(operator.attrgetter(name), records))
        if spec != "%d" and not all(map(float.__instancecheck__, values)):
            spec, values = "%s", ["" if v is None else _fmt(v) for v in values]
        if len(values) > 1 and all(
                map(operator.is_, values, itertools.repeat(values[0]))):
            specs.append(spec % values[0])
        else:
            specs.append(spec)
            columns.append(values)
    return map((",".join(specs) + "\r\n").__mod__, zip(*columns))


def write_trace_csv(trace, path):
    """Write a trace as csv.writer writes its records' _fmt fields: the
    rows above the terminal row in one pass, so a field that a run holds
    fixed (a fixed step, steepest descent's beta 0.0 and cos_theta 1.0,
    restarted) is formatted once per run, then the terminal row alone."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\r\n")
        fh.writelines(_trace_lines(trace[:-1]))
        fh.writelines(_trace_lines(trace[-1:]))


# ---------------------------------------------------------------------------
# runners


# one sweep cell: setup() returns its (objective, x0, frac, reference),
# built when the cell runs; alpha, gamma and target name the cell in its
# result row, stop and sd_rule (the CFSD step rule) are its problem's, and
# trace names its trace file
_Cell = namedtuple("_Cell", "setup solver beta trace alpha gamma target "
                   "stop sd_rule")


def _run_cell(config, experiment, cell, out_dir=None):
    """Set up and run one cell and write its trace under out_dir (if
    given); returns (row, report), the row being the run's one ResultRow:
    step_param the CFSD rule's largest step (nan for CFCG), final_dist nan
    without a reference.  A cell whose set-up fails gets an Error(...) row
    and no report: the row names the cell, its error and trials_completed
    0, and leaves the run-only fields at their defaults (nan, wall_ms 0.0).
    """
    row = functools.partial(ResultRow, experiment, cell.solver, cell.beta,
                            cell.alpha, config.rho, cell.gamma, config.seed,
                            cell.target)
    try:
        objective, x0, frac, reference = cell.setup()
    except Exception as exc:  # noqa: BLE001 - row records the failure
        return row(0, f"Error({type(exc).__name__})", str(exc)), None
    t0 = time.perf_counter()
    if cell.solver == "CFCG":
        report = cfcg_minimize(objective, x0, frac, cell.beta, stop=cell.stop,
                               reference=reference)
        step_param = math.nan
    else:
        report = cfsd_minimize(objective, x0, frac, cell.sd_rule,
                               stop=cell.stop, reference=reference)
        step_param = max(cell.sd_rule.etas)
    wall = (time.perf_counter() - t0) * 1e3
    if out_dir is not None and config.write_traces:
        write_trace_csv(report.trace, Path(out_dir) / cell.trace)
    dist = report.trace[-1].dist_to_reference
    return row(1, report.status.value, report.stop_reason, report.iterations,
               report.objective_evals, report.gradient_evals,
               report.final_grad_norm, math.nan if dist is None else dist,
               step_param, wall), report


# perfbench/tracer.py:29 times each call of this name as one cell; it wraps
# every module attribute bound to the function, so _run_cell's calls too
_example1_cell = _run_cell


def _tikhonov_problem(prob, x0, frac, gamma):
    """The example1 run at one gamma: (objective, x0, frac, reference)."""
    objective, target, _ = tikhonov_run_objective(
        dataclasses.replace(prob, gamma=gamma), frac)
    return objective, x0, frac, target


def _mlp_problem(config, alpha, target, trial):
    """One seeded network-training trial on one target, as (objective, x0,
    frac, None); the seeds depend on the target's place in BENCHMARK_IDS,
    not on the other targets run."""
    spec = MlpSpec(hidden_units=config.hidden_units,
                   train_points=config.train_points, trials=config.trials)
    seeds = np.random.SeedSequence(
        (config.seed, BENCHMARK_IDS.index(target), trial))
    data_ss, init_ss = seeds.spawn(2)
    return (mlp_objective(spec, target, data_ss), mlp_init(spec, init_ss),
            FracParams(alpha, config.rho, mlp_lower_terminal(spec)), None)


def _cells(config, experiment):
    """The cells of example1, example2 or single, in run order; single's
    are those of its problem's sweep, so its cell is their first.

    example1: gamma x beta kind x solver on one seeded instance.  A
    gamma's set-up is built by its first cell and shared by the others;
    a failed set-up is not cached, so each cell retries it and records the
    same error.  The networks: alpha x target x solver x kind x trial,
    the one CFSD cell with kind "".
    """
    problem = config.problem if experiment == "single" else experiment
    if problem == "example1":
        stop = StopCriteria(config.grad_tol, config.max_iter)
        prob, x0, c = gen_example1(Example1Config(seed=config.seed, m=config.m,
                                                  n=config.n))
        frac = FracParams(config.alpha, config.rho, c)
        for gamma in config.gamma_grid:
            setup = functools.cache(functools.partial(
                _tikhonov_problem, prob, x0, frac, gamma))
            for kind, solver in itertools.product(config.beta_kinds,
                                                  config.solvers):
                yield _Cell(setup, solver, kind,
                            f"trace_example1_g{gamma:g}_{solver}_{kind}.csv",
                            config.alpha, gamma, "", stop, EXAMPLE1_SD_RULE)
        return
    stop = StopCriteria(config.grad_tol, config.max_iter,
                        f_decrease_tol=config.f_decrease_tol)
    targets = config.targets if problem == "example2" else (problem[4:],)
    for alpha, target, solver in itertools.product(
            config.alpha_grid or (config.alpha,), targets, config.solvers):
        for kind in config.beta_kinds if solver == "CFCG" else ("",):
            for trial in range(config.trials):
                yield _Cell(
                    functools.partial(_mlp_problem, config, alpha, target,
                                      trial), solver, kind,
                    f"trace_example2_a{alpha:g}_{target}_{solver}{kind}_"
                    f"t{trial}.csv", alpha, math.nan, target, stop,
                    MLP_SD_RULE)


def run_example1(config, out_dir=None):
    """Sweep gamma grid x beta kinds x solvers on one seeded instance."""
    _check_config(config)
    return [_run_cell(config, "example1", cell, out_dir)[0]
            for cell in _cells(config, "example1")]


def _mean_row(rows):
    """One row for a cell's trials: the worst trial's row (the first that
    did not converge, else the first) with the trials' mean iterations,
    objective and gradient evaluations and final gradient norm, their
    summed wall_ms, trials_completed and stop_reason mean-over-trials."""
    worst = max(rows, key=lambda r: r.status != RunStatus.CONVERGED.value)
    means = {name: float(np.mean([getattr(r, name) for r in rows]))
             for name in ("iterations", "objective_evals", "gradient_evals",
                          "final_grad_norm")}
    return dataclasses.replace(
        worst, trials_completed=len(rows), stop_reason="mean-over-trials",
        wall_ms=float(np.sum([r.wall_ms for r in rows])), **means)


def run_example2(config, out_dir=None):
    """Network-training comparison; one mean row per (alpha, target, solver/beta)."""
    _check_config(config)
    rows = [_run_cell(config, "example2", cell, out_dir)[0]
            for cell in _cells(config, "example2")]
    n = config.trials  # the cells list each mean row's trials in a run
    return [_mean_row(rows[i:i + n]) for i in range(0, len(rows), n)]


def run_single(config, out_dir=None):
    """The first cell of the configured sweep; returns (row, report).  A
    failed set-up gives the sweep's Error(...) row and no report."""
    _check_config(config)
    cell = next(_cells(config, "single"))
    return _run_cell(config, "single", cell._replace(trace="trace_single.csv"),
                     out_dir)


# ---------------------------------------------------------------------------
# entry point


class _Parser(argparse.ArgumentParser):
    """Usage errors (unknown flag, missing subcommand) as the one-line
    ``config error:`` of any invalid input; subparsers inherit it."""

    def error(self, message):
        print(f"config error: {message}", file=sys.stderr)
        raise SystemExit(2)


@functools.cache
def _build_parser():
    # no abbreviated flags: --m would set max_iter, though m is a file key
    parser = _Parser(
        prog="cfcg-bench", allow_abbrev=False,
        description="fractional conjugate-gradient benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("example1", "example2", "single"):
        p = sub.add_parser(name, allow_abbrev=False)
        # Python 3.11 reads -1 and -.1 as numbers, but -1e-3 as a flag
        p._negative_number_matcher = re.compile(r"^-\.?\d")
        p.add_argument("--config", help="flat key=value config file")
        for flag, field in _FLAGS.items():
            if name == "single" or flag not in ("problem", "solver"):
                p.add_argument(f"--{flag}", help=f"sets {field}")
    return parser


# flag -> the config field it sets; --problem and --solver are single's only
_FLAGS = {"seed": "seed", "alpha": "alpha", "rho": "rho", "beta": "beta_kinds",
          "gamma": "gamma_grid", "tol": "grad_tol", "max-iter": "max_iter",
          "out": "out", "format": "format", "problem": "problem",
          "solver": "solvers"}


def _apply_overrides(config, args):
    """The config with each given flag's text read as a file value is."""
    updates = {}
    for flag, name in _FLAGS.items():
        text = getattr(args, flag.replace("-", "_"), None)
        if text is not None:
            try:
                updates[name] = _parse_value(text, _FIELD_KINDS[name])
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
    # gamma and alpha compare as the trace names give them: :g, 6 digits
    for name in ("beta_kinds", "solvers", "gamma_grid", "targets", "alpha_grid"):
        seen = {}
        for value in getattr(config, name):
            key = f"{value:g}" if isinstance(value, float) else value
            if key in seen:
                raise ConfigError(f"repeated entries in {name}: "
                                  + ",".join(map(str, (seen[key], value))))
            seen[key] = value
    if config.m < 1 or config.n < 1:
        raise ConfigError(f"m and n must be positive, got m={config.m}, "
                          f"n={config.n}")
    if config.seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {config.seed}")
    if not all(0.0 <= g < math.inf for g in config.gamma_grid):
        raise ConfigError("gamma must be nonnegative and finite, got "
                          + ",".join(map(str, config.gamma_grid)))
    try:
        QuadratureSpec(config.node_count)
        StopCriteria(config.grad_tol, config.max_iter, config.f_decrease_tol)
        MlpSpec(hidden_units=config.hidden_units,
                train_points=config.train_points, trials=config.trials)
        for alpha in config.alpha_grid + (config.alpha,):
            FracParams(alpha, config.rho, ())
    except ValueError as exc:
        raise ConfigError(exc) from exc


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        config = (ExperimentConfig() if args.config is None
                  else load_config(args.config))
        config = _apply_overrides(config, args)
        _check_config(config)  # before mkdir: an invalid config makes nothing
        out_dir = Path(config.out)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except (OSError, ValueError) as exc:  # ValueError: a NUL byte
            raise ConfigError(f"out: {exc}") from exc
        if args.command == "single":
            rows = [run_single(config, out_dir)[0]]
        elif args.command == "example1":
            rows = run_example1(config, out_dir)
        else:
            rows = run_example2(config, out_dir)
        write_rows(rows, out_dir / f"results.{config.format}", config.format)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # a trace or results file the OS refuses
        print(f"config error: out: {exc}", file=sys.stderr)
        return 2
    print(f"{len(rows)} result row(s) -> {out_dir}/results.{config.format}")
    return 0 if all(r.status == RunStatus.CONVERGED.value for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
