import csv
import dataclasses
import errno
import io
import itertools
import json
import math
import random
import struct
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfcg.cli import (EXAMPLE1_SD_RULE, MLP_SD_RULE, ConfigError,
                      ExperimentConfig, ResultRow, load_config, main,
                      run_example1, run_example2, run_single, write_rows,
                      write_trace_csv, TRACE_COLUMNS, _fmt)
from cfcg.engine import (IterRecord, LineSearchParams, RunStatus,
                         StopCriteria, cfcg_minimize)
from cfcg.fraccalc import FracParams
from cfcg.problems import (BENCHMARK_IDS, Example1Config, gen_example1,
                           tikhonov_run_objective)
from replay import recheck_armijo_wolfe, run_with_steps

DATA_DIR = Path(__file__).parent / "data"

TINY = dataclasses.replace(
    ExperimentConfig(), seed=7, m=8, n=8, gamma_grid=(1.0,),
    beta_kinds=("FR",), write_traces=False)

# one float object, shared by every row that steps by it
_STEP = 1.0 / 3.0

DESK = dataclasses.replace(
    ExperimentConfig(), seed=3, m=20, n=20, write_traces=False)


def read_csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def write_config(config, path):
    """config as the key = value file load_config reads, a list
    comma-joined.  It reads back as config only for values that hold no
    "#", no line break, no surrounding whitespace and, in a list, no ","
    and no empty entry; the configs written here hold none."""
    with open(path, "w", encoding="utf-8") as fh:
        for name, value in vars(config).items():
            if isinstance(value, tuple):
                value = ",".join(map(str, value))
            fh.write(f"{name} = {value}\n")


def rows_without_wall(rows):
    out = []
    for r in rows:
        vals = []
        for name in ResultRow.FIELDS:
            if name == "wall_ms":
                continue
            v = getattr(r, name)
            if isinstance(v, float) and math.isnan(v):
                v = "nan"
            vals.append(v)
        out.append(vals)
    return out


class TestConfigFile:
    def test_round_trip_identity(self, tmp_path):
        config = dataclasses.replace(
            ExperimentConfig(), seed=99, beta_kinds=("CD", "HS"),
            gamma_grid=(0.25, 1.5), alpha=0.75, trials=2, write_traces=False,
            format="json", alpha_grid=(0.5, 0.25))
        path = tmp_path / "bench.cfg"
        write_config(config, path)
        assert load_config(path) == config

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# a comment\n\nseed = 5  # trailing\nalpha = 0.8\n")
        config = load_config(path)
        assert config.seed == 5
        assert config.alpha == 0.8

    def test_unknown_key_reports_line(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("seed = 5\nwibble = 3\n")
        with pytest.raises(ConfigError, match="2"):
            load_config(path)

    def test_float_grid_with_empty_default(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("alpha_grid = 0.5,0.9\n")
        assert load_config(path).alpha_grid == (0.5, 0.9)

    def test_repeated_key_names_both_lines(self, tmp_path):
        # the last value used to win: these lines ran 5 iterations
        path = tmp_path / "c.cfg"
        path.write_text("max_iter = 3\nseed = 5\nmax_iter = 5\n")
        with pytest.raises(ConfigError,
                           match=r"c\.cfg:3: key 'max_iter' repeats line 1$"):
            load_config(path)

    def test_bad_value_reports_field(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("max_iter = soon\n")
        with pytest.raises(ConfigError, match="max_iter"):
            load_config(path)

    def test_missing_equals(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("seed 5\n")
        with pytest.raises(ConfigError):
            load_config(path)


# a config string the file format can hold: no comment mark, no list
# separator and no whitespace, which the reader strips
_CONFIG_TEXT = st.characters(exclude_categories=("Cs",),
                             exclude_characters="#,").filter(
                                 lambda ch: not ch.isspace())


def _field_values(name, kind):
    if name == "format":
        return st.sampled_from(("csv", "json"))
    if typing.get_origin(kind) is tuple:
        # an empty element would read back as no element
        elem = _field_values(name, typing.get_args(kind)[0])
        return st.lists(elem.filter(lambda v: v != ""), max_size=4).map(tuple)
    return {bool: st.booleans(), int: st.integers(),
            float: st.floats(allow_nan=False, allow_infinity=False),
            str: st.text(_CONFIG_TEXT, max_size=8)}[kind]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.builds(ExperimentConfig, **{
    name: _field_values(name, kind)
    for name, kind in typing.get_type_hints(ExperimentConfig).items()}))
def test_config_round_trip(tmp_path_factory, config):
    path = tmp_path_factory.getbasetemp() / "round_trip.cfg"
    write_config(config, path)
    assert load_config(path) == config


def _terminal(k, dist=None):
    return IterRecord(k, 0.5, 0.25, math.nan, math.nan, math.nan, math.nan,
                      None, dist)


def _fixed_step_trace(rows, step=lambda k: 0.125, beta=lambda k: 0.0,
                      dist=lambda k: k / 7.0):
    """rows records as a fixed-step run writes them, then a terminal row;
    step, beta and dist give each row's value from k."""
    return [IterRecord(k, 1.0 / (k + 1), 2.0 ** -k, step(k), beta(k),
                       -1.0 / (k + 3), 1.0, None, dist(k))
            for k in range(rows)] + [_terminal(rows, 0.1)]


# write_trace_csv formats a field once per run when it holds the very same
# object in every row above the terminal row; these traces hold what that
# must get right
HAND_TRACES = {
    # the values the golden traces never hold: non-finite, signed zero,
    # subnormal, an int step, a restart and a missing distance
    "special-values": [
        IterRecord(0, math.nan, math.inf, 1, -0.0, -math.inf, 5e-324,
                   "staleness", None),
        IterRecord(1, 0.1, 2.0 / 3.0, 0.5, 1e300, -1e-300, 0.0, None, 1.0),
        IterRecord(2, -0.0, 0.0, math.nan, math.nan, math.nan, math.nan,
                   None, math.nan),
    ],
    "one-object-above-terminal": _fixed_step_trace(6, step=lambda k: _STEP),
    # equal values, made one by one: distinct objects
    "equal-distinct-objects": _fixed_step_trace(
        6, step=lambda k: float("0.1"), beta=lambda k: math.fsum([0.25])),
    # equal as floats, written "0" and "-0"
    "signed-zeros": _fixed_step_trace(6, beta=lambda k: -0.0 if k % 3 else 0.0),
    "int-step": _fixed_step_trace(5, step=lambda k: 2),
    # ints that "%.17g" writes as 1e+17: one object, then one per row
    "huge-int-step": _fixed_step_trace(5, step=lambda k: 10**17,
                                       beta=lambda k: 10**17 + k),
    "distance-missing-in-some-rows": _fixed_step_trace(
        6, dist=lambda k: None if k in (1, 2, 5) else k / 7.0),
    "distance-missing-in-all-rows": _fixed_step_trace(4, dist=lambda k: None),
    "one-row": [_terminal(0, 0.5)],
    "two-rows": _fixed_step_trace(1),
    # a long run whose step object changes part way, whose distance goes
    # missing for a few rows, and whose beta changes sign near its end
    "blocks": _fixed_step_trace(
        2 * 128 + 3,
        step=lambda k: _STEP if k < 128 + 5 else 0.125,
        beta=lambda k: -0.0 if k >= 2 * 128 else 0.0,
        dist=lambda k: None if 128 - 2 <= k <= 128 + 1 else float(k)),
}

# objects that many rows of a run can share
_SHARED = (0.0, -0.0, math.nan, math.inf, 5e-324, 2e-4)


def _drawn_value(rnd):
    """A shared object, a fresh float of any bit pattern, or an int up to
    10**17, as a float column may hold."""
    kind = rnd.randrange(3)
    if kind == 0:
        return rnd.choice(_SHARED)
    if kind == 1:
        return struct.unpack("<d", rnd.randbytes(8))[0]
    return rnd.randint(0, 10**17)


def _drawn_distance(rnd):
    return None if rnd.random() < 0.3 else float(_drawn_value(rnd))


def _drawn_column(rnd, mode, rows, draw):
    """rows values of one column: one object in every row (mode 0), a new
    but equal object per row (mode 1) or a value drawn per row (mode 2)."""
    if mode == 2:
        return [draw(rnd) for _ in range(rows)]
    value = draw(rnd)
    if mode == 1 and type(value) in (int, float):
        return [type(value)(repr(value)) for _ in range(rows)]
    return [value] * rows


def csv_writer_trace(trace):
    """The bytes that csv.writer writes for a trace's _fmt fields, the
    reference that write_trace_csv must match."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(TRACE_COLUMNS)
    for rec in trace:
        writer.writerow([
            rec.k, _fmt(rec.f_value), _fmt(rec.grad_norm), _fmt(rec.step),
            _fmt(rec.beta), _fmt(rec.descent_inner), _fmt(rec.cos_theta),
            int(rec.restarted),
            "" if rec.dist_to_reference is None
            else _fmt(rec.dist_to_reference)])
    return buf.getvalue().encode()


class TestSerialization:
    def test_csv_header_is_stable(self, tmp_path):
        rows = run_example1(TINY)
        out = tmp_path / "r.csv"
        write_rows(rows, out, "csv")
        header = out.read_text().splitlines()[0]
        assert header == ("experiment,solver,beta,alpha,rho,gamma,seed,target,"
                          "trials_completed,status,stop_reason,iterations,"
                          "objective_evals,gradient_evals,final_grad_norm,"
                          "final_dist,step_param,wall_ms")

    def test_json_matches_csv_schema(self, tmp_path):
        rows = run_example1(TINY)
        write_rows(rows, tmp_path / "r.json", "json")

        def reject(token):
            raise ValueError(f"not JSON: {token}")

        payload = json.loads((tmp_path / "r.json").read_text(),
                             parse_constant=reject)
        assert len(payload) == len(rows)
        assert tuple(payload[0].keys()) == ResultRow.FIELDS
        # a CFCG row's step_param is nan, which JSON writes as null
        cfcg = [row for row in payload if row["solver"] == "CFCG"]
        assert cfcg and all(row["step_param"] is None for row in cfcg)

    @pytest.mark.bytes
    def test_golden_miniature_run(self, tmp_path):
        # regression pin on the full row content of a seeded miniature run
        rows = run_example1(TINY)
        write_rows(rows, tmp_path / "r.csv", "csv")
        got = read_csv_rows(tmp_path / "r.csv")
        want = read_csv_rows(DATA_DIR / "golden_results.csv")
        assert len(got) == len(want)
        for g, w in zip(got, want):
            for key in ResultRow.FIELDS:
                if key == "wall_ms":
                    continue
                assert g[key] == w[key], f"column {key}"

    def test_trace_bytes_match_csv_writer(self, tmp_path):
        for name, trace in sorted(HAND_TRACES.items()):
            got = tmp_path / f"got-{name}.csv"
            write_trace_csv(trace, got)
            assert got.read_bytes() == csv_writer_trace(trace), name

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(rows=st.integers(0, 299),
           modes=st.lists(st.integers(0, 2), min_size=8, max_size=8),
           seed=st.integers(0, 2**32 - 1))
    def test_drawn_trace_bytes_match_csv_writer(self, tmp_path_factory, rows,
                                                modes, seed):
        # 1-300 rows: each column above the terminal row is one object, equal
        # copies, or drawn per row
        rnd = random.Random(seed)
        draws = [_drawn_value] * 6 + [
            lambda r: "staleness" if r.random() < 0.5 else None,
            _drawn_distance]
        columns = [_drawn_column(rnd, mode, rows, draw)
                   for mode, draw in zip(modes, draws)]
        trace = [IterRecord(k, *fields)
                 for k, fields in enumerate(zip(*columns))]
        trace.append(_terminal(rows, _drawn_distance(rnd)))
        got = tmp_path_factory.getbasetemp() / "drawn-trace.csv"
        write_trace_csv(trace, got)
        assert got.read_bytes() == csv_writer_trace(trace)

    def test_trace_float_precision_round_trips(self, tmp_path):
        # the CFCG-FR cell at gamma 1
        _, report = run_single(TINY)
        path = tmp_path / "trace.csv"
        write_trace_csv(report.trace, path)
        parsed = read_csv_rows(path)
        assert [r["k"] for r in parsed] == [str(t.k) for t in report.trace]
        for row, rec in zip(parsed, report.trace):
            assert float(row["f"]) == rec.f_value
            assert float(row["grad_norm"]) == rec.grad_norm
            if not math.isnan(rec.step):
                assert float(row["step"]) == rec.step


MLP_TINY = dataclasses.replace(
    ExperimentConfig(), problem="mlp-h2",
    hidden_units=4, train_points=12, node_count=12, max_iter=30,
    beta_kinds=("FR",), write_traces=True)

# the benchmark's mlp-single-wide call at its default seed: H=60, N=100 and
# a fixed budget of 8 iterations
MLP_WIDE = dataclasses.replace(
    ExperimentConfig(), problem="mlp-h1", solvers=("CFCG",),
    beta_kinds=("FR",), seed=42, hidden_units=60, train_points=100,
    max_iter=8, grad_tol=1e-12, f_decrease_tol=1e-12, write_traces=True)

# golden file -> (runner, config, trace file the run writes)
GOLDEN_TRACES = {
    "golden_trace_example1_cfcg_fr.csv":
        (run_example1, dataclasses.replace(TINY, write_traces=True),
         "trace_example1_g1_CFCG_FR.csv"),
    "golden_trace_example1_cfsd.csv":
        (run_example1, dataclasses.replace(TINY, write_traces=True),
         "trace_example1_g1_CFSD_FR.csv"),
    "golden_trace_single_mlp_h2_cfcg_fr.csv":
        (run_single, dataclasses.replace(MLP_TINY, solvers=("CFCG",)),
         "trace_single.csv"),
    "golden_trace_single_mlp_h2_cfsd.csv":
        (run_single, dataclasses.replace(MLP_TINY, solvers=("CFSD",)),
         "trace_single.csv"),
    "golden_trace_single_mlp_h1_wide_cfcg_fr.csv":
        (run_single, MLP_WIDE, "trace_single.csv"),
}


@pytest.mark.bytes
class TestGoldenTraces:
    # traces carry no wall time, so the whole file is pinned byte for byte
    @pytest.mark.parametrize("golden", sorted(GOLDEN_TRACES))
    def test_trace_bytes(self, golden, tmp_path):
        runner, config, written = GOLDEN_TRACES[golden]
        runner(config, tmp_path)
        got = (tmp_path / written).read_bytes()
        assert got == (DATA_DIR / golden).read_bytes()


class TestExample1Runner:
    def test_row_count(self):
        rows = run_example1(DESK)
        # 6 gammas x 5 kinds x 2 solvers
        assert len(rows) == 60

    def test_rerun_identical_except_wall(self):
        a = run_example1(DESK)
        b = run_example1(DESK)
        assert rows_without_wall(a) == rows_without_wall(b)

    def test_sweep_isolation_matches_single_cell(self):
        rows = run_example1(DESK)
        # reproduce an arbitrary interior cell in isolation: a one-cell sweep
        target_row = next(r for r in rows
                          if r.solver == "CFCG" and r.beta == "DY" and r.gamma == 2.0)
        _, report = run_single(dataclasses.replace(
            DESK, gamma_grid=(2.0,), beta_kinds=("DY",), solvers=("CFCG",)))
        assert report.iterations == target_row.iterations
        assert report.objective_evals == target_row.objective_evals
        assert report.final_grad_norm == target_row.final_grad_norm

    def test_f_decrease_tol_is_not_read(self):
        # example1 stops on grad_tol and max_iter alone, as the README says;
        # the key is the network runs'
        rows = run_example1(dataclasses.replace(TINY, f_decrease_tol=1e300))
        assert rows_without_wall(rows) == rows_without_wall(run_example1(TINY))
        assert min(row.iterations for row in rows) > 1

    def test_trace_files_written(self, tmp_path):
        config = dataclasses.replace(TINY, write_traces=True)
        run_example1(config, tmp_path)
        traces = sorted(tmp_path.glob("trace_example1_*.csv"))
        assert len(traces) == 2  # one CFCG, one CFSD
        header = traces[0].read_text().splitlines()[0]
        assert header == ",".join(TRACE_COLUMNS)

    def test_distance_column_tracks_reference(self, tmp_path):
        config = dataclasses.replace(TINY, write_traces=True)
        run_example1(config, tmp_path)
        path = tmp_path / "trace_example1_g1_CFCG_FR.csv"
        recs = read_csv_rows(path)
        dists = [float(r["dist_to_ref"]) for r in recs]
        assert dists[-1] < dists[0]
        assert dists[-1] < 1e-2

    def test_failed_cfsd_row_has_no_beta(self):
        # rho = -50 makes every iteration matrix indefinite, so each cell
        # records the setup's error; CFSD rows leave beta empty as
        # finished ones do
        rows = run_example1(dataclasses.replace(TINY, rho=-50.0,
                                                beta_kinds=("FR", "CD")))
        assert all(r.status == "Error(ArithmeticError)" for r in rows)
        assert [(r.solver, r.beta) for r in rows] == [
            ("CFCG", "FR"), ("CFSD", ""), ("CFCG", "CD"), ("CFSD", "")]

    def test_failed_cell_row(self, tmp_path):
        # an Error(...) row knows the cell and its error, not a run: every
        # run-only field is nan, wall_ms 0, and results.json writes nan null
        rows = run_example1(dataclasses.replace(TINY, rho=-50.0))
        run_only = ("iterations", "objective_evals", "gradient_evals",
                    "final_grad_norm", "final_dist", "step_param")
        for row in rows:
            assert row.status == "Error(ArithmeticError)"
            assert row.trials_completed == 0 and row.wall_ms == 0.0
            assert all(math.isnan(getattr(row, name)) for name in run_only)
        write_rows(rows, tmp_path / "results.json", "json")
        for got in json.loads((tmp_path / "results.json").read_text()):
            assert [got[name] for name in run_only] == [None] * len(run_only)
            assert (got["trials_completed"], got["wall_ms"]) == (0, 0.0)
            assert (got["alpha"], got["rho"], got["gamma"]) == (0.9, -50.0, 1.0)

    def test_failed_setup_fails_each_cell_of_its_gamma(self):
        # rho = -5 leaves the iteration matrix indefinite at gamma 0.5 but
        # not at 40: each cell of gamma 0.5 records the same error
        rows = run_example1(dataclasses.replace(
            TINY, alpha=0.1, rho=-5.0, gamma_grid=(0.5, 40.0), max_iter=20,
            beta_kinds=("FR", "CD")))
        failed = [r for r in rows if r.gamma == 0.5]
        assert len(failed) == 4
        assert {(r.status, r.stop_reason) for r in failed} == {(
            "Error(ArithmeticError)",
            "iteration matrix not positive definite at gamma=0.5")}
        assert not any(r.status.startswith("Error") for r in rows
                       if r.gamma == 40.0)


class TestExample2Runner:
    CONFIG = dataclasses.replace(
        ExperimentConfig(), seed=1, hidden_units=4, train_points=12, trials=2,
        targets=("h2",), beta_kinds=("FR", "CD"), node_count=12, max_iter=40,
        write_traces=False)

    def test_mean_rows(self):
        rows = run_example2(self.CONFIG)
        # (FR, CD, CFSD) x one target x one alpha
        assert len(rows) == 3
        for row in rows:
            assert row.trials_completed == 2
            assert row.experiment == "example2"
        sd = next(r for r in rows if r.solver == "CFSD")
        assert sd.step_param == max(MLP_SD_RULE.etas)

    def test_solvers_select_the_cells(self):
        config = dataclasses.replace(self.CONFIG, trials=1, solvers=("CFSD",))
        rows = run_example2(config)
        assert [(r.solver, r.beta) for r in rows] == [("CFSD", "")]

    def test_single_trial_mean_equals_run(self):
        config = dataclasses.replace(self.CONFIG, trials=1, beta_kinds=("FR",))
        rows = run_example2(config)
        again = run_example2(config)
        assert rows_without_wall(rows) == rows_without_wall(again)

    @pytest.mark.parametrize("solver", ["CFCG", "CFSD"])
    @pytest.mark.parametrize("target", BENCHMARK_IDS)
    def test_single_trial_row_is_the_single_row(self, solver, target):
        # one trial's mean row is the run's own row, every count, alpha,
        # rho, target and step_param alike: only the experiment, the mean's
        # stop_reason and the wall time differ.  single is the sweep's
        # first cell: at alpha_grid[0], and solvers[0] whichever comes first
        other = "CFSD" if solver == "CFCG" else "CFCG"
        for alpha_grid, solvers in itertools.product(
                ((), (0.5, 0.9)), ((solver,), (solver, other))):
            config = dataclasses.replace(
                self.CONFIG, trials=1, targets=(target,), beta_kinds=("PRP",),
                solvers=solvers, alpha_grid=alpha_grid)
            mean = run_example2(config)[0]
            row, _ = run_single(dataclasses.replace(config,
                                                    problem=f"mlp-{target}"))
            assert (mean.experiment, mean.stop_reason) == (
                "example2", "mean-over-trials")
            assert (row.experiment, row.trials_completed) == ("single", 1)
            assert rows_without_wall([dataclasses.replace(
                mean, experiment="single", stop_reason=row.stop_reason)]) == (
                    rows_without_wall([row]))
            assert (mean.solver, mean.alpha, mean.rho, mean.target) == (
                solver, (alpha_grid or (0.9,))[0], 0.1, target)

    def test_alpha_grid_sweep(self):
        config = dataclasses.replace(self.CONFIG, alpha_grid=(0.8, 0.9),
                                     beta_kinds=("FR",), trials=1)
        rows = run_example2(config)
        assert len(rows) == 4  # 2 alphas x (FR + CFSD)
        assert sorted({r.alpha for r in rows}) == [0.8, 0.9]

    def test_alpha_grid_from_config_file(self, tmp_path):
        path = tmp_path / "e2.cfg"
        path.write_text("seed = 1\nhidden_units = 4\ntrain_points = 12\n"
                        "trials = 1\ntargets = h2\nbeta_kinds = FR\n"
                        "node_count = 12\nmax_iter = 40\n"
                        "write_traces = false\nalpha_grid = 0.5,0.9\n")
        rows = run_example2(load_config(path))
        assert len(rows) == 4  # 2 alphas x (FR + CFSD)
        assert sorted({r.alpha for r in rows}) == [0.5, 0.9]

    def test_trial_seeds_follow_the_target(self, tmp_path):
        # h2 on its own seeds its trial 0 as single --problem mlp-h2 does
        config = dataclasses.replace(self.CONFIG, trials=1, beta_kinds=("FR",),
                                     solvers=("CFCG",), write_traces=True)
        run_example2(config, tmp_path / "e2")
        run_single(dataclasses.replace(config, problem="mlp-h2"), tmp_path / "s")
        sweep = read_csv_rows(tmp_path / "e2" / "trace_example2_a0.9_h2_CFCGFR_t0.csv")
        single = read_csv_rows(tmp_path / "s" / "trace_single.csv")
        assert sweep[0] == single[0]
        assert sweep == single


class TestSingleRunner:
    def test_example1_single_and_trace(self, tmp_path):
        config = dataclasses.replace(TINY, gamma_grid=(1.0,),
                                     solvers=("CFCG",), beta_kinds=("FR",),
                                     write_traces=True)
        row, report = run_single(config, tmp_path)
        assert row.status == "Converged"
        recs = read_csv_rows(tmp_path / "trace_single.csv")
        assert float(recs[-1]["grad_norm"]) < config.grad_tol

    def test_trace_replay_through_invariant_checker(self):
        config = TINY
        e1 = Example1Config(seed=config.seed, m=config.m, n=config.n)
        prob, x0, c = gen_example1(e1)
        prob = dataclasses.replace(prob, gamma=config.gamma_grid[0])
        frac = FracParams(config.alpha, config.rho, c)
        objective, target, _ = tikhonov_run_objective(prob, frac)
        _, steps = run_with_steps(
            cfcg_minimize, objective, x0, frac, config.beta_kinds[0],
            ls=LineSearchParams(),
            stop=StopCriteria(config.grad_tol, config.max_iter),
            reference=target)
        slack = recheck_armijo_wolfe(steps, objective,
                                     objective.frac_gradient,
                                     LineSearchParams())
        assert slack >= -1e-12

    @pytest.mark.parametrize("solver", ["CFCG", "CFSD"])
    def test_mlp_problem(self, solver):
        config = dataclasses.replace(
            ExperimentConfig(), problem="mlp-h2",
            hidden_units=4, train_points=12, node_count=12, max_iter=30,
            solvers=(solver,), beta_kinds=("PRP",), write_traces=False)
        row, report = run_single(config)
        assert row.target == "h2"
        assert report.iterations <= 30
        if solver == "CFSD":
            # the rule run_single uses on MLP problems is the grid search
            assert row.step_param == max(MLP_SD_RULE.etas)
        else:
            assert math.isnan(row.step_param)

    def test_unknown_problem(self):
        config = dataclasses.replace(TINY, problem="rosenbrock")
        with pytest.raises(ConfigError):
            run_single(config)


@pytest.mark.parametrize("runner, config", [
    (run_example1, dataclasses.replace(TINY, solvers=("SD",))),
    (run_example2, dataclasses.replace(TestExample2Runner.CONFIG, trials=0)),
    (run_single, dataclasses.replace(TINY, problem="example1", solvers=("SD",))),
    (run_example1, dataclasses.replace(TINY, m=8.5)),
    (run_example1, dataclasses.replace(TINY, n=7.0)),
    (run_single, dataclasses.replace(TINY, seed=1.5)),
], ids=["example1-solver-unknown", "example2-trials-zero",
        "single-solver-unknown", "example1-m-fractional", "example1-n-float",
        "single-seed-fractional"])
def test_runner_checks_its_config(runner, config):
    # called from Python, not through main
    with pytest.raises(ConfigError):
        runner(config)


class TestMainEntry:
    def test_single_exit_zero_on_convergence(self, tmp_path, capsys):
        code = main(["single", "--seed", "7", "--out", str(tmp_path / "o"),
                     "--beta", "FR", "--gamma", "1.0", "--config",
                     str(self._tiny_cfg(tmp_path))])
        assert code == 0
        assert (tmp_path / "o" / "results.csv").exists()
        assert (tmp_path / "o" / "trace_single.csv").exists()

    def test_single_exit_one_on_maxiter(self, tmp_path):
        cfg = self._tiny_cfg(tmp_path)
        code = main(["single", "--max-iter", "1", "--tol", "1e-12",
                     "--out", str(tmp_path / "o"), "--config", str(cfg)])
        assert code == 1
        rows = read_csv_rows(tmp_path / "o" / "results.csv")
        assert rows[0]["status"] == "MaxIter"

    def test_exit_two_on_bad_config(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("nonsense = 1\n")
        assert main(["example1", "--config", str(bad)]) == 2

    def test_flag_overrides_config_file(self, tmp_path):
        cfg = self._tiny_cfg(tmp_path)
        out = tmp_path / "o2"
        code = main(["example1", "--config", str(cfg), "--seed", "11",
                     "--gamma", "1.0", "--beta", "FR", "--out", str(out),
                     "--format", "json"])
        assert code in (0, 1)
        payload = json.loads((out / "results.json").read_text())
        assert all(row["seed"] == 11 for row in payload)
        assert all(row["gamma"] == 1.0 for row in payload)

    @pytest.mark.parametrize("value", ["-1e-3", "-1E-3", "-.5e-2", "-0.001"])
    def test_negative_flag_value_with_an_exponent(self, value, tmp_path):
        # Python 3.11's argparse reads only -1 and -.1 as numbers and took
        # -1e-3 for an unknown flag; each subparser's private
        # _negative_number_matcher, which this pins, reads it as a value
        out = tmp_path / "o"
        code = main(["single", "--problem", "example1", "--rho", value,
                     "--max-iter", "1", "--out", str(out),
                     "--config", str(self._tiny_cfg(tmp_path))])
        assert code in (0, 1)
        row = read_csv_rows(out / "results.csv")[0]
        assert float(row["rho"]) == float(value)

    def test_negative_gamma_with_an_exponent(self, tmp_path, capsys):
        # the value reaches the gamma rule, not argparse
        assert main(["example1", "--gamma", "-1e-3",
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "config error: gamma must be nonnegative and finite, got -0.001\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv", [
        pytest.param(["example1", "--beta", "XX"], id="beta-XX"),
        pytest.param(["example1", "--gamma", "1,abc"], id="gamma-not-a-number"),
        # an infinite gamma gave numpy warnings and a LinAlgError row per cell
        pytest.param(["example1", "--gamma", "inf"], id="gamma-infinite"),
        pytest.param(["example1", "--config",
                      "m = 8\nn = 8\ngamma_grid = 0.5,inf\n"],
                     id="gamma-grid-infinite"),
        pytest.param(["example1", "--gamma", "-5"], id="gamma-negative"),
        pytest.param(["single", "--problem", "example1", "--gamma", "-5"],
                     id="single-gamma-negative"),
        pytest.param(["single", "--problem", "mlp-h9"], id="unknown-mlp-target"),
        pytest.param(["single", "--problem", "mlp-h1", "--gamma", "-5"],
                     id="mlp-gamma-negative"),
        # the line-search settings and CFSD steps are constants: a file
        # that sets one, whatever the value, exits 2 as an unknown key
        pytest.param(["example1", "--config", "c1 = 0.0001\n"],
                     id="removed-key-c1"),
        pytest.param(["example1", "--config", "c2 = 0.9\n"],
                     id="removed-key-c2"),
        pytest.param(["example1", "--config", "backtrack_ratio = 0.5\n"],
                     id="removed-key-backtrack-ratio"),
        pytest.param(["example1", "--config", "max_trials = 60\n"],
                     id="removed-key-max-trials"),
        pytest.param(["example1", "--config", "sd_step = 0.0002\n"],
                     id="removed-key-sd-step"),
        pytest.param(["single", "--problem", "mlp-h1", "--config",
                      "sd_step = 0.0002\n"], id="mlp-removed-key-sd-step"),
        pytest.param(["example2", "--config", "sd_grid = 0.01,0.005\n"],
                     id="removed-key-sd-grid"),
        # nor can a file set a nan or infinite step
        pytest.param(["single", "--problem", "mlp-h1", "--solver", "CFSD",
                      "--max-iter", "1", "--config", "sd_grid = 0.1,nan\n"],
                     id="sd-grid-nan"),
        pytest.param(["example1", "--config", "m = 8\nn = 8\nsd_step = inf\n"],
                     id="sd-step-infinite"),
        pytest.param(["example2", "--config",
                      "sd_grid = 0.01,inf\ntargets = h1\nhidden_units = 2\n"
                      "train_points = 4\ntrials = 1\nmax_iter = 1\n"],
                     id="sd-grid-infinite"),
        pytest.param(["single", "--config", "format = xml\n"],
                     id="format-unknown"),
        pytest.param(["single", "--format", "xml"], id="format-flag-unknown"),
        pytest.param(["single", "--solver", "SD"], id="solver-flag-unknown"),
        pytest.param(["example1", "--config", "problem = rosenbrock\n"],
                     id="example1-problem-unknown"),
        pytest.param(["example1", "--config", "targets = h9\n"],
                     id="example1-target-unknown"),
        pytest.param(["example2", "--config", "targets = h2,h9\n"],
                     id="unknown-example2-target"),
        pytest.param(["example2", "--config", "trials = 0\n"], id="trials-zero"),
        pytest.param(["example2", "--config", "node_count = 1\n"],
                     id="node-count-one"),
        pytest.param(["single", "--problem", "mlp-h1", "--config",
                      "fd_step = 0\n"], id="fd-step-zero"),
        pytest.param(["example1", "--alpha", "1.5"], id="alpha-above-one"),
        pytest.param(["example1", "--max-iter", "0"], id="max-iter-zero"),
        pytest.param(["example1", "--tol", "-1"], id="tol-negative"),
        pytest.param(["example1", "--config", "beta_kinds = FR,XX\n"],
                     id="config-beta-unknown"),
        pytest.param(["example1", "--config", "solvers = CFCG,SD\n"],
                     id="solver-unknown"),
        pytest.param(["single", "--problem", "example1", "--tol", "nan",
                      "--max-iter", "5"], id="tol-nan"),
        pytest.param(["example1", "--config", "rho = nan\n"], id="rho-nan"),
        pytest.param(["example1", "--config", "rho = inf\n"], id="rho-inf"),
        pytest.param(["single", "--problem", "mlp-h1", "--max-iter", "1",
                      "--config", "f_decrease_tol = nan\n"],
                     id="f-decrease-tol-nan"),
        pytest.param(["example1", "--config", "beta_kinds =\n"],
                     id="beta-kinds-empty"),
        pytest.param(["single", "--config", "solvers =\n"],
                     id="solvers-empty"),
        pytest.param(["example1", "--config", "gamma_grid =\n"],
                     id="gamma-grid-empty"),
        pytest.param(["example2", "--config", "targets =\n"],
                     id="targets-empty"),
        # a repeat would run its cell again and write its trace twice; the
        # small sizes keep a run that misses the repeat short
        pytest.param(["example1", "--config",
                      "m = 8\nn = 8\nsolvers = CFSD,CFSD\n"],
                     id="solvers-repeated"),
        pytest.param(["example1", "--beta", "FR,fr", "--config",
                      "m = 8\nn = 8\ngamma_grid = 1\n"],
                     id="beta-kinds-repeated-across-case"),
        pytest.param(["example1", "--gamma", "1,1.0", "--config",
                      "m = 8\nn = 8\nbeta_kinds = FR\n"],
                     id="gamma-grid-repeated"),
        pytest.param(["example2", "--config",
                      "targets = h1,h1\nhidden_units = 2\ntrain_points = 4\n"
                      "trials = 1\nmax_iter = 1\nbeta_kinds = FR\n"],
                     id="targets-repeated"),
        pytest.param(["example2", "--config",
                      "alpha_grid = 0.5,0.5\ntargets = h1\nhidden_units = 2\n"
                      "train_points = 4\ntrials = 1\nmax_iter = 1\n"
                      "beta_kinds = FR\n"],
                     id="alpha-grid-repeated"),
        # trace names hold gamma and alpha to 6 significant digits, so
        # these entries would write the same trace files
        pytest.param(["example1", "--gamma", "0.5,0.5000001", "--config",
                      "m = 8\nn = 8\nbeta_kinds = FR\n"],
                     id="gamma-grid-same-trace-name"),
        pytest.param(["example2", "--config",
                      "alpha_grid = 0.9,0.9000001\ntargets = h1\n"
                      "hidden_units = 2\ntrain_points = 4\ntrials = 1\n"
                      "max_iter = 1\nbeta_kinds = FR\n"],
                     id="alpha-grid-same-trace-name"),
        # every flag value is read as a file value is
        pytest.param(["example1", "--seed", "x"], id="seed-not-an-int"),
        pytest.param(["example1", "--max-iter", "1.5"], id="max-iter-not-an-int"),
        pytest.param(["example1", "--alpha", "abc"], id="alpha-not-a-number"),
        pytest.param(["single", "--config", "max_iter = 3\nmax_iter = 5\n"],
                     id="config-key-repeated"),
        pytest.param(["example1", "--config", "m = 0\n"], id="m-zero"),
        pytest.param(["example1", "--config", "n = -3\n"], id="n-negative"),
        pytest.param(["example1", "--seed", "-1"], id="example1-seed-negative"),
        pytest.param(["example2", "--seed", "-1"], id="example2-seed-negative"),
        pytest.param(["single", "--seed", "-1"], id="single-seed-negative"),
        # a config file that cannot be read: None leaves the path missing
        pytest.param(["example1", "--config", None], id="config-missing"),
        pytest.param(["example1", "--config", b"seed = \xff\n"],
                     id="config-not-utf8"),
    ])
    def test_bad_beta_flag(self, argv, tmp_path, capsys):
        if "--config" in argv:  # the value is the file's content
            cfg = tmp_path / "bad.cfg"
            if isinstance(argv[-1], bytes):
                cfg.write_bytes(argv[-1])
            elif argv[-1] is not None:
                cfg.write_text(argv[-1])
            argv = argv[:-1] + [str(cfg)]
        assert main(argv + ["--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv, message", [
        pytest.param(["example1", "--beta", "FR,"],
                     "--beta: empty entry in 'FR,'", id="beta-trailing-comma"),
        pytest.param(["example1", "--gamma", "0.5,"],
                     "--gamma: empty entry in '0.5,'", id="gamma-trailing-comma"),
        pytest.param(["single", "--solver", " , CFCG"],
                     "--solver: empty entry in ', CFCG'", id="solver-flag-blank"),
        pytest.param(["example1", "--config", "solvers = ,CFCG\n"],
                     "bad.cfg:1: field 'solvers': empty entry in ',CFCG'",
                     id="solvers-leading-comma"),
        pytest.param(["example2", "--config", "targets = h1,,h2\n"],
                     "bad.cfg:1: field 'targets': empty entry in 'h1,,h2'",
                     id="targets-double-comma"),
        pytest.param(["example2", "--config", "alpha_grid = 0.5, ,0.7\n"],
                     "bad.cfg:1: field 'alpha_grid': empty entry in '0.5, ,0.7'",
                     id="alpha-grid-blank-entry"),
    ])
    def test_empty_list_entry(self, argv, message, tmp_path, capsys):
        # an empty entry names nothing: one message for every tuple field,
        # from a flag or a file alike
        if "--config" in argv:
            cfg = tmp_path / "bad.cfg"
            cfg.write_text(argv[-1])
            argv = argv[:-1] + [str(cfg)]
        assert main(argv + ["--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert err.rstrip("\n").endswith(message)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv", [
        # argparse took these for --max-iter 2 and --tol 5; m is a file key
        pytest.param(["example1", "--m", "2"], id="m-abbreviation"),
        pytest.param(["example1", "--t", "5"], id="tol-abbreviation"),
        pytest.param(["single", "--prob", "example1"],
                     id="problem-abbreviation"),
        pytest.param(["example1", "--wibble", "1"], id="unknown-flag"),
    ])
    def test_flag_not_in_the_table(self, argv, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert capsys.readouterr().err == (
            f"config error: unrecognized arguments: {' '.join(argv[1:])}\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv", [
        pytest.param([], id="nothing"),
        pytest.param(["--m", "2"], id="flag-only"),
        pytest.param(["example3"], id="unknown-subcommand"),
    ])
    def test_no_subcommand(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1

    def test_beta_kinds_case_from_flag_and_file(self, tmp_path):
        # one case rule, whether the kinds come from --beta or a file
        cfg = tmp_path / "lower.cfg"
        cfg.write_text("m = 8\nn = 8\ngamma_grid = 1\nwrite_traces = false\n"
                       "beta_kinds = fr,Prp\n")
        runs = {"file": [], "flag": ["--beta", "fr,Prp"],
                "upper": ["--beta", "FR,PRP"]}
        rows = {}
        for name, flags in runs.items():
            out = tmp_path / name
            assert main(["example1", "--config", str(cfg), "--out", str(out)]
                        + flags) in (0, 1)
            rows[name] = read_csv_rows(out / "results.csv")
            for row in rows[name]:
                del row["wall_ms"]
        assert rows["file"] == rows["flag"] == rows["upper"]
        assert [r["beta"] for r in rows["file"] if r["solver"] == "CFCG"] == [
            "FR", "PRP"]
        assert ExperimentConfig(beta_kinds=("hs",)).beta_kinds == ("HS",)
        # the same rule for solvers
        cfg.write_text("m = 8\nn = 8\nmax_iter = 5\nwrite_traces = false\n")
        runs = {"flag": ["--solver", "cfsd"], "upper": ["--solver", "CFSD"],
                "file": ["--config", str(tmp_path / "solvers.cfg")]}
        (tmp_path / "solvers.cfg").write_text(cfg.read_text() + "solvers = cfsd\n")
        for name, flags in runs.items():
            out = tmp_path / f"solver-{name}"
            assert main(["single", "--problem", "example1", "--config", str(cfg),
                         "--out", str(out)] + flags) in (0, 1)
            rows[name] = read_csv_rows(out / "results.csv")
            del rows[name][0]["wall_ms"]
        assert rows["file"] == rows["flag"] == rows["upper"]
        assert rows["file"][0]["solver"] == "CFSD"
        assert ExperimentConfig(solvers=("cfcg",)).solvers == ("CFCG",)

    def test_single_setup_failure_is_an_error_row(self, tmp_path):
        # rho = -5 makes the iteration matrix indefinite: single records the
        # setup's error as the sweep does, and exits 1
        flags = ["--alpha", "0.1", "--rho", "-5", "--gamma", "0.5",
                 "--beta", "FR", "--config", str(self._tiny_cfg(tmp_path))]
        assert main(["example1", "--out", str(tmp_path / "e1")] + flags) == 1
        assert main(["single", "--problem", "example1",
                     "--out", str(tmp_path / "s")] + flags) == 1
        sweep = read_csv_rows(tmp_path / "e1" / "results.csv")[0]
        single = read_csv_rows(tmp_path / "s" / "results.csv")[0]
        assert (sweep.pop("experiment"), single.pop("experiment")) == (
            "example1", "single")
        assert single == sweep
        assert single["status"] == "Error(ArithmeticError)"
        assert not (tmp_path / "s" / "trace_single.csv").exists()

    @pytest.mark.parametrize("out", ["file", "file/sub"])
    def test_out_that_is_a_file(self, out, tmp_path, capsys):
        (tmp_path / "file").write_text("keep\n")
        argv = ["single", "--problem", "example1", "--out", str(tmp_path / out),
                "--config", str(self._tiny_cfg(tmp_path))]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: out: ") and err.count("\n") == 1
        assert (tmp_path / "file").read_text() == "keep\n"

    def test_out_the_os_rejects(self, tmp_path, capsys):
        # a name past NAME_MAX makes the directory check itself raise
        # ENAMETOOLONG; that is a usage error (exit 2), not a failed run
        argv = ["single", "--problem", "example1", "--max-iter", "2",
                "--out", str(tmp_path / ("x" * 300))]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: out: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_out_through_a_symlink_loop(self, tmp_path, capsys):
        # Path.exists() reads ELOOP as "no such file", so a check built on
        # it lets the run start and write_rows fail after it; only "does
        # not exist" may pass the check
        (tmp_path / "loop").symlink_to("loop")
        argv = ["single", "--problem", "example1", "--max-iter", "2",
                "--out", str(tmp_path / "loop" / "out")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: out: [Errno {errno.ELOOP}] ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_out_through_a_dangling_symlink(self, tmp_path, capsys):
        # stat() reads a dangling link as "does not exist", but mkdir finds
        # the link: exit 2 before the run, not a traceback after it
        (tmp_path / "dangling").symlink_to("nowhere")
        argv = ["single", "--problem", "example1", "--max-iter", "2",
                "--out", str(tmp_path / "dangling" / "x")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == (f"config error: out: [Errno {errno.EEXIST}] File exists: "
                       f"'{tmp_path / 'dangling'}'\n")

    def test_out_with_a_nul_byte(self, tmp_path, capsys):
        # a NUL byte is a ValueError, not an OSError, from every path call
        cfg = tmp_path / "nul.cfg"
        cfg.write_text(f"out = {tmp_path}/a\0b\nmax_iter = 2\n")
        assert main(["single", "--problem", "example1", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: out: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("blocked, problem", [
        ("results.csv", "example1"), ("trace_single.csv", "mlp-h1"),
        ("trace_single.csv", "example1")])
    def test_output_file_the_os_refuses(self, blocked, problem, tmp_path,
                                        capsys):
        # a directory where a trace or the results file goes: exit 2 and
        # one config error line, not a traceback or an Error(...) row
        out = tmp_path / "out"
        (out / blocked).mkdir(parents=True)
        argv = ["single", "--problem", problem, "--max-iter", "2",
                "--out", str(out), "--config", str(self._tiny_cfg(tmp_path))]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: out: [Errno {errno.EISDIR}] ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_invalid_config_makes_no_out(self, tmp_path, capsys):
        # the config is checked before the out directory is made
        out = tmp_path / "new" / "o"
        assert main(["single", "--beta", "XX", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: unknown beta kind(s): XX\n")
        assert not (tmp_path / "new").exists()

    def test_single_is_the_first_sweep_cell(self, tmp_path):
        cfg = tmp_path / "small.cfg"
        cfg.write_text("m = 20\nn = 20\n")
        main(["example1", "--config", str(cfg), "--out", str(tmp_path / "e1")])
        main(["single", "--problem", "example1", "--config", str(cfg),
              "--out", str(tmp_path / "s")])
        sweep = read_csv_rows(tmp_path / "e1" / "results.csv")[0]
        single = read_csv_rows(tmp_path / "s" / "results.csv")[0]
        assert (sweep.pop("experiment"), single.pop("experiment")) == (
            "example1", "single")
        del sweep["wall_ms"], single["wall_ms"]
        assert single == sweep
        assert (single["solver"], single["beta"], single["gamma"]) == (
            "CFCG", "FR", "0.5")
        assert ((tmp_path / "s" / "trace_single.csv").read_bytes()
                == (tmp_path / "e1" / "trace_example1_g0.5_CFCG_FR.csv")
                .read_bytes())

    def test_single_reads_the_sweep_grids(self, tmp_path):
        cfg = tmp_path / "grids.cfg"
        cfg.write_text("m = 20\nn = 20\nwrite_traces = false\n"
                       "solvers = CFSD\nbeta_kinds = CD\ngamma_grid = 2.0\n")
        main(["single", "--problem", "example1", "--config", str(cfg),
              "--out", str(tmp_path / "o")])
        row = read_csv_rows(tmp_path / "o" / "results.csv")[0]
        assert (row["solver"], row["beta"], row["gamma"]) == ("CFSD", "", "2")
        assert float(row["step_param"]) == max(EXAMPLE1_SD_RULE.etas)

    @pytest.mark.parametrize("m, n", [(12, 8), (8, 12)])
    def test_example1_runs_when_m_differs_from_n(self, m, n, tmp_path):
        cfg = tmp_path / "mn.cfg"
        cfg.write_text(f"m = {m}\nn = {n}\nwrite_traces = false\n")
        code = main(["example1", "--config", str(cfg), "--gamma", "0.5,4",
                     "--beta", "FR", "--out", str(tmp_path / "o")])
        assert code in (0, 1)
        rows = read_csv_rows(tmp_path / "o" / "results.csv")
        assert len(rows) == 4
        done = [r for r in rows
                if r["solver"] == "CFCG" and r["status"] == "Converged"]
        assert done and all(float(r["final_dist"]) <= 1e-4 for r in done)

    @staticmethod
    def _tiny_cfg(tmp_path):
        path = tmp_path / "tiny.cfg"
        write_config(dataclasses.replace(TINY, write_traces=True), path)
        return path
