"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
verdict lines.
"""

import csv
import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from cfcg.cli import (EXAMPLE1_SD_RULE, ExperimentConfig, ResultRow,
                      run_example1, run_example2, write_rows)
from cfcg.engine import (BetaKind, LineSearchParams, Objective, RunStatus,
                         StopCriteria, cfcg_minimize, cfsd_minimize)
from cfcg.fraccalc import (FracParams, QuadratureSpec, frac_gradient_general,
                           frac_gradient_quadratic)
from cfcg.problems import (Example1Config, MlpSpec, benchmark_fn,
                           gen_example1, mlp_init, mlp_lower_terminal,
                           mlp_objective, stacked_problem,
                           tikhonov_run_objective)
from cfcg.tikhonov import (abar_matrix, build_quadratic, solve_spd,
                           tikhonov_solution)
from replay import recheck_armijo_wolfe, run_with_steps

ALL_KINDS = ("FR", "CD", "DY", "PRP", "HS")
# digests of the default example1 sweep's outputs; see sweep_digests
SWEEP_DIGESTS = Path(__file__).parent / "data" / "golden_default_sweep.json"


def sweep_digests(out_dir, rows):
    """SHA-256 of every trace file in out_dir, by name, and of the
    results.csv of rows with wall_ms set to 0, the one column that varies
    between reruns."""
    out_dir = Path(out_dir)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(out_dir.glob("trace_*.csv"))}
    results = out_dir / "results.csv"
    write_rows([dataclasses.replace(r, wall_ms=0.0) for r in rows], results,
               "csv")
    digests["results.csv (wall_ms written as 0)"] = hashlib.sha256(
        results.read_bytes()).hexdigest()
    return digests


def verdict(ok, label, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}" + (f" :: {detail}" if detail else ""))
    assert ok, f"{label} {detail}"


def central_diff_gradient(fn, x, rel_step=1e-6):
    g = np.zeros_like(x)
    for i in range(x.size):
        h = rel_step * max(1.0, abs(x[i]))
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (fn(x + e) - fn(x - e)) / (2.0 * h)
    return g


@pytest.fixture(scope="module")
def default_sweep_rows():
    return run_example1(ExperimentConfig())


@pytest.fixture(scope="module")
def stepped_cells():
    """Every CFCG cell of the default sweep, rerun with each accepted
    step's record, x, g and d collected."""
    config = ExperimentConfig()
    e1 = Example1Config(seed=config.seed, m=config.m, n=config.n)
    prob0, x0, c = gen_example1(e1)
    frac = FracParams(config.alpha, config.rho, c)
    cells = {}
    for gamma in config.gamma_grid:
        prob = dataclasses.replace(prob0, gamma=gamma)
        for kind in ALL_KINDS:
            objective, target, _ = tikhonov_run_objective(prob, frac)
            report, steps = run_with_steps(
                cfcg_minimize, objective, x0, frac, kind,
                stop=StopCriteria(config.grad_tol, config.max_iter),
                reference=target)
            cells[(gamma, kind)] = (report, steps, objective)
    return cells


def test_criterion_01_tikhonov_convergence():
    # five seeded 30x30 instances, alpha=0.9 rho=0.1 gamma=1: every kind
    # lands within 1e-3 of the closed-form regularized solution
    worst = 0.0
    for i in range(5):
        prob, x0, c = gen_example1(Example1Config(seed=1000 + i, m=30, n=30))
        prob = dataclasses.replace(prob, gamma=1.0)
        frac = FracParams(0.9, 0.1, c)
        for kind in ALL_KINDS:
            objective, target, _ = tikhonov_run_objective(prob, frac)
            report = cfcg_minimize(objective, x0, frac, kind,
                                   stop=StopCriteria(1e-6, 2000))
            dist = float(np.linalg.norm(report.final_x - target))
            worst = max(worst, dist)
            assert report.iterations <= 2000
            if dist > 1e-3:
                verdict(False, "criterion 1 (Tikhonov convergence)",
                        f"seed={1000+i} kind={kind} dist={dist:.2e}")
    verdict(True, "criterion 1 (Tikhonov convergence)",
            f"worst distance {worst:.2e} <= 1e-3")


def test_criterion_02_table1_qualitative(default_sweep_rows):
    rows = default_sweep_rows
    sd_iters = {r.gamma: r.iterations for r in rows if r.solver == "CFSD"}
    worst_cg, worst_ratio = 0, math.inf
    for r in rows:
        if r.solver != "CFCG":
            continue
        ratio = sd_iters[r.gamma] / max(r.iterations, 1)
        worst_cg = max(worst_cg, r.iterations)
        worst_ratio = min(worst_ratio, ratio)
        if r.iterations > 200 or r.iterations > sd_iters[r.gamma] / 5.0:
            verdict(False, "criterion 2 (Table-1 qualitative)",
                    f"gamma={r.gamma} beta={r.beta}: cfcg={r.iterations} "
                    f"cfsd={sd_iters[r.gamma]}")
    verdict(True, "criterion 2 (Table-1 qualitative)",
            f"max CFCG iters {worst_cg} <= 200, min CFSD/CFCG ratio "
            f"{worst_ratio:.1f} >= 5")


def test_criterion_03_gradient_oracle_agreement():
    rng = np.random.default_rng(314)
    n = 10
    B = rng.normal(size=(n, n))
    A = B @ B.T + n * np.eye(n)
    d = 1.0 / np.sqrt(np.diag(A))
    A = A * np.outer(d, d)          # unit diagonal keeps both paths aligned
    b = rng.normal(size=n)
    c = rng.uniform(-0.3, 0.0, n)
    x = rng.uniform(0.7, 1.7, n)
    params = FracParams(0.9, 0.1, c)

    def f(z):
        return 0.5 * float(z @ A @ z) + float(b @ z)

    general = frac_gradient_general(f, x, params, QuadratureSpec(node_count=2000))
    closed = frac_gradient_quadratic(A, b, x, params)
    rel = np.max(np.abs(general - closed) / np.abs(closed))
    verdict(rel <= 1e-3, "criterion 3 (gradient oracle agreement)",
            f"max componentwise rel err {rel:.2e} <= 1e-3 at 2000 nodes")


def test_criterion_04_classical_limit():
    params_n = None
    # (a) scalar benchmark target composed with a quadratic map of R^6
    rng = np.random.default_rng(2718)
    n = 6
    Q = rng.normal(size=(n, n))
    Q = 0.5 * (Q + Q.T)
    p = rng.normal(size=n)
    x = rng.uniform(0.6, 1.4, n)

    def lifted(z):
        return float(benchmark_fn("h2", 0.5 * float(z @ Q @ z) + float(p @ z)))

    frac = FracParams(1.0 - 1e-6, 0.0, np.full(n, -0.5))
    general = frac_gradient_general(Objective(lifted), x, frac,
                                    QuadratureSpec(node_count=1000))
    oracle = central_diff_gradient(lifted, x)
    rel_a = np.linalg.norm(general - oracle) / np.linalg.norm(oracle)

    # (b) the network objective at random parameters
    spec = MlpSpec(hidden_units=20, train_points=50, trials=3)
    objective = mlp_objective(spec, "h2", data_seed=5)
    theta = mlp_init(spec, 6)
    frac_mlp = FracParams(1.0 - 1e-6, 0.0, mlp_lower_terminal(spec))
    general_mlp = frac_gradient_general(objective, theta, frac_mlp,
                                        QuadratureSpec(node_count=400))
    oracle_mlp = central_diff_gradient(objective.eval, theta)
    rel_b = np.linalg.norm(general_mlp - oracle_mlp) / np.linalg.norm(oracle_mlp)

    verdict(rel_a <= 1e-4 and rel_b <= 1e-4, "criterion 4 (classical limit)",
            f"lifted-target rel {rel_a:.2e}, network rel {rel_b:.2e} <= 1e-4")


def test_criterion_05_line_search_soundness(stepped_cells):
    ls = LineSearchParams()
    worst = math.inf
    checked = 0
    for (gamma, kind), (_, steps, objective) in stepped_cells.items():
        slack = recheck_armijo_wolfe(steps, objective,
                                     objective.frac_gradient, ls)
        worst = min(worst, slack)
        checked += len(steps)
        if slack < -1e-12:
            verdict(False, "criterion 5 (line-search soundness)",
                    f"gamma={gamma} {kind}: slack {slack:.2e}")
    verdict(True, "criterion 5 (line-search soundness)",
            f"{checked} accepted steps re-verified, worst slack {worst:.2e}")


def test_criterion_06_descent_identities(stepped_cells):
    checked = 0
    for (gamma, kind), (report, steps, _) in stepped_cells.items():
        body = report.trace[:-1]
        if kind in ("PRP", "HS"):
            if any(rec.beta < 0.0 for rec in body):
                verdict(False, "criterion 6 (descent identities)",
                        f"negative recorded beta in {kind} at gamma={gamma}")
        if kind != "FR":
            continue
        for (_, _, g_prev, d_prev), (rec, _, g, d) in zip(steps, steps[1:]):
            if rec.restart is not None:
                continue
            lhs = float(g @ d)
            rhs = -float(g @ g) * (1.0 - float(g @ d_prev) / float(g_prev @ g_prev))
            if not math.isclose(lhs, rhs, rel_tol=1e-10):
                verdict(False, "criterion 6 (descent identities)",
                        f"FR identity off at gamma={gamma} k={rec.k}")
            checked += 1
    verdict(checked > 0, "criterion 6 (descent identities)",
            f"FR identity at {checked} non-restart iterations, "
            "PRP/HS betas all nonnegative")


def test_criterion_07_linear_rate():
    rng = np.random.default_rng(777)
    n = 20
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    lam = np.geomspace(1.0, 30.0, n)     # condition number 30 <= 100
    A = Q @ np.diag(lam) @ Q.T
    c = np.zeros(n)
    frac = FracParams(0.9, 0.1, c)
    rbar = np.sqrt(np.diag(A))
    abar = A + frac.gamma * np.diag(rbar)
    xstar = rng.normal(size=n)
    b = -(abar @ xstar) + frac.gamma * rbar * c

    def fn(x):
        e = x - xstar
        return 0.5 * float(e @ (abar @ e))

    objective = Objective(fn, frac_gradient=lambda x:
                          frac_gradient_quadratic(A, b, x, frac))
    x0 = rng.uniform(1, 10, n)
    report, steps = run_with_steps(cfcg_minimize, objective, x0, frac, "FR",
                                   stop=StopCriteria(1e-9, 3000))
    assert report.status is RunStatus.CONVERGED
    xs = [x for _, x, _, _ in steps] + [report.final_x]
    errs = [np.linalg.norm(z - xstar) for z in xs]
    ratios = [errs[i + 1] / errs[i] for i in range(len(errs) - 1)]
    tail = ratios[-10:]
    verdict(len(tail) == 10 and max(tail) <= 0.99,
            "criterion 7 (linear rate)",
            f"max tail contraction ratio {max(tail):.4f} <= 0.99")


class TestTextbookBaselines:
    """The default example1 instance against textbook methods on the run
    objective, the quadratic e' abar e / 2 with e = x - target: linear CG
    with exact steps, and the spectral rate of CFSD at the paper's fixed
    step (Nocedal & Wright 2006, ch. 3 and 5).  Criteria 2 and 7 stay as
    the paper's own setting; these put its numbers next to a yardstick."""

    CONFIG = dataclasses.replace(ExperimentConfig(), max_iter=100_000)

    @pytest.fixture(scope="class")
    def instance(self):
        config = self.CONFIG
        prob, x0, c = gen_example1(Example1Config(seed=config.seed,
                                                  m=config.m, n=config.n))
        return prob, x0, FracParams(config.alpha, config.rho, c)

    def run_objective(self, instance, gamma):
        prob, _, frac = instance
        return tikhonov_run_objective(dataclasses.replace(prob, gamma=gamma),
                                      frac)

    def test_linear_cg_iterations(self, instance):
        # exact steps from the sweep's x0 until ||abar e|| <= grad_tol, the
        # solvers' own stopping test on the run gradient
        x0, counts = instance[1], []
        for gamma in self.CONFIG.gamma_grid:
            _, target, abar = self.run_objective(instance, gamma)
            g = abar @ (x0 - target)
            d, k = -g, 0
            while np.linalg.norm(g) > self.CONFIG.grad_tol:
                ad = abar @ d
                g_new = g + (g @ g) / (d @ ad) * ad
                d = -g_new + (g_new @ g_new) / (g @ g) * d
                g, k = g_new, k + 1
            counts.append(k)
        assert counts == [24, 20, 19, 15, 13, 12]

    def test_cfsd_tail_contraction_meets_spectral_rate(self, instance):
        # the median of the last 40 ratios sqrt(f_{k+1} / f_k) of an
        # uncapped CFSD run at eta = 2e-4 stays at most 1 - eta lmin(abar)
        # and within 1.5e-3 of it: "at least linear", as a number
        _, x0, frac = instance
        (eta,) = EXAMPLE1_SD_RULE.etas
        gaps = []
        for gamma in self.CONFIG.gamma_grid:
            objective, target, abar = self.run_objective(instance, gamma)
            report = cfsd_minimize(
                objective, x0, frac, EXAMPLE1_SD_RULE,
                stop=StopCriteria(self.CONFIG.grad_tol, self.CONFIG.max_iter))
            assert report.status is RunStatus.CONVERGED
            f = np.array([rec.f_value for rec in report.trace[-41:]])
            observed = float(np.median(np.sqrt(f[1:] / f[:-1])))
            predicted = 1.0 - eta * np.linalg.eigvalsh(abar)[0]
            gaps.append(predicted - observed)
        assert all(0.0 <= gap <= 1.5e-3 for gap in gaps), gaps


class TestDataOnlyFixedPoint:
    """What the method converges to on the default example1 instance when
    no merit is centred on the closed-form target.  Its fixed point on the
    stacked system is z = abar^-1 (X_aug y_aug + gamma_ar Rbar c), where
    the fractional gradient abar x - X_aug y_aug - gamma_ar Rbar c
    vanishes; the sweep's run merit is centred on tikhonov_solution
    instead, through its linear term b_eff."""

    CONFIG = ExperimentConfig()

    @pytest.fixture(scope="class")
    def cells(self):
        """Per gamma: (stacked system, z, closed-form target)."""
        config = self.CONFIG
        prob0, x0, c = gen_example1(Example1Config(seed=config.seed,
                                                   m=config.m, n=config.n))
        frac = FracParams(config.alpha, config.rho, c)
        cells = {}
        for gamma in config.gamma_grid:
            prob = dataclasses.replace(prob0, gamma=gamma)
            stacked = stacked_problem(prob)
            z = solve_spd(abar_matrix(stacked, frac),
                          stacked.X @ stacked.y
                          + frac.gamma * stacked.r_bar * frac.c)
            cells[gamma] = (stacked, z, tikhonov_solution(prob))
        return x0, frac, cells

    def run_all(self, cells, merit):
        """Every CFCG cell on merit(stacked, frac), with the fractional
        gradient as its gradient: (gamma, kind, report, z) per cell."""
        x0, frac, cells = cells
        stop = StopCriteria(self.CONFIG.grad_tol, self.CONFIG.max_iter)
        for gamma, (stacked, z, _) in cells.items():
            objective = Objective(
                merit(stacked, frac),
                frac_gradient=lambda x, s=stacked: frac_gradient_quadratic(
                    s.A, -(s.X @ s.y), x, frac))
            for kind in BetaKind:
                yield (gamma, kind, cfcg_minimize(objective, x0, frac, kind,
                                                  stop=stop), z)

    @staticmethod
    def loss(stacked, frac):
        """The plain stacked least-squares loss ||X_aug' x - y_aug||^2 / 2."""
        def fn(x):
            r = stacked.X.T @ x - stacked.y
            return 0.5 * float(r @ r)
        return fn

    @classmethod
    def merit(cls, stacked, frac):
        """The loss plus gamma_ar (x - c)' Rbar (x - c) / 2: built from the
        data alone, with the fractional gradient as its gradient."""
        loss = cls.loss(stacked, frac)

        def fn(x):
            e = x - frac.c
            return loss(x) + 0.5 * frac.gamma * float(e @ (stacked.r_bar * e))
        return fn

    def test_z_is_not_the_target(self, cells):
        dists = [np.linalg.norm(z - target)
                 for _, z, target in cells[2].values()]
        assert [f"{d:.2e}" for d in dists] == [
            "6.97e-03", "5.18e-03", "4.15e-03", "2.32e-03", "1.59e-03",
            "1.18e-03"]

    def test_data_only_merit_converges_to_z(self, cells):
        # measured: at most 2.1e-6 from z
        for gamma, kind, report, z in self.run_all(cells, self.merit):
            assert report.status is RunStatus.CONVERGED, (gamma, kind)
            assert np.linalg.norm(report.final_x - z) <= 1e-5, (gamma, kind)

    def test_plain_loss_fails_every_search(self, cells):
        # Armijo on the loss, directions and curvature on the fractional
        # field: where the field's zero is not the loss's minimizer, the
        # search fails near that zero
        iterations = []
        for gamma, kind, report, _ in self.run_all(cells, self.loss):
            assert report.status is RunStatus.LINE_SEARCH_FAILURE, (gamma,
                                                                    kind)
            iterations.append(report.iterations)
        assert (min(iterations), max(iterations)) == (16, 52)


def test_criterion_08_closed_form_oracle():
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(9000 + seed)
        n = int(rng.integers(5, 51))
        X = rng.uniform(-1, 1, (n, n))
        y = rng.uniform(-1, 1, n)
        x_bar = rng.normal(size=n)
        gamma = float(rng.uniform(0.3, 4.0))
        prob = build_quadratic(X, y, gamma=gamma, x_bar=x_bar)
        got = tikhonov_solution(prob)
        # independent stacked-normal-equation solve
        A = X @ X.T
        R2 = np.diag(np.diag(A))
        want = np.linalg.solve(A + gamma * R2, X @ y + gamma * R2 @ x_bar)
        rel = np.linalg.norm(got - want) / np.linalg.norm(want)
        worst = max(worst, rel)
        if rel > 1e-8:
            verdict(False, "criterion 8 (closed-form oracle)",
                    f"seed={seed} n={n} rel={rel:.2e}")
    verdict(True, "criterion 8 (closed-form oracle)",
            f"20 instances, worst rel err {worst:.2e} <= 1e-8")


def test_criterion_09_network_desk_ordering():
    config = dataclasses.replace(
        ExperimentConfig(), seed=20250810, hidden_units=20, train_points=50,
        trials=3, grad_tol=1e-4, f_decrease_tol=1e-4, max_iter=500,
        node_count=32, alpha=0.9, write_traces=False)
    rows = run_example2(config)
    sd_mean = float(np.mean([r.iterations for r in rows if r.solver == "CFSD"]))
    detail = []
    ok = True
    for kind in ALL_KINDS:
        cg_mean = float(np.mean([r.iterations for r in rows if r.beta == kind]))
        detail.append(f"{kind}={cg_mean:.2f}")
        ok = ok and cg_mean < sd_mean
    verdict(ok, "criterion 9 (network desk-scale ordering)",
            f"mean CFCG iters {{{', '.join(detail)}}} < CFSD {sd_mean:.2f}")


@pytest.mark.bytes
def test_criterion_10_determinism(default_sweep_rows, tmp_path):
    config = ExperimentConfig()

    def strip(rows):
        out = []
        for r in rows:
            vals = []
            for name in ResultRow.FIELDS:
                if name == "wall_ms":
                    continue
                v = getattr(r, name)
                vals.append("nan" if isinstance(v, float) and math.isnan(v) else v)
            out.append(vals)
        return out

    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    rows_a = run_example1(config, dir_a)
    rows_b = run_example1(config, dir_b)
    rows_equal = (strip(rows_a) == strip(rows_b)
                  == strip(default_sweep_rows))
    traces_a = sorted(p.name for p in dir_a.glob("trace_*.csv"))
    traces_b = sorted(p.name for p in dir_b.glob("trace_*.csv"))
    traces_equal = traces_a == traces_b and all(
        (dir_a / name).read_bytes() == (dir_b / name).read_bytes()
        for name in traces_a)

    # and they are the outputs pinned in tests/data
    golden = json.loads(SWEEP_DIGESTS.read_text())
    digests = sweep_digests(dir_a, rows_a)
    moved = sorted(name for name in golden.keys() | digests.keys()
                   if golden.get(name) != digests.get(name))

    # a seeded network run repeats identically as well
    tiny = dataclasses.replace(
        ExperimentConfig(), seed=5, hidden_units=4, train_points=10, trials=1,
        targets=("h2",), beta_kinds=("FR",), node_count=8, max_iter=30,
        write_traces=False)
    mlp_equal = strip(run_example2(tiny)) == strip(run_example2(tiny))

    verdict(rows_equal and traces_equal and mlp_equal and not moved,
            "criterion 10 (determinism)",
            f"{len(traces_a)} trace files byte-identical, "
            "result rows identical up to wall-clock"
            + (f"; differ from {SWEEP_DIGESTS.name}: {', '.join(moved)}"
               if moved else f", as pinned in {SWEEP_DIGESTS.name}"))
