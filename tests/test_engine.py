import collections
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cfcg.cli import ExperimentConfig, _cells
from cfcg.engine import (DIRECTION_NORM_CAP, STALENESS_RESTART,
                         SUFFICIENT_DESCENT, BetaKind, GridStep,
                         LineSearchError, LineSearchParams, Objective,
                         RunStatus, StopCriteria, armijo_wolfe_search,
                         beta_value, cfcg_minimize, cfsd_minimize, direction)
from cfcg.fraccalc import (FracParams, QuadratureSpec, frac_gradient_general,
                           frac_gradient_quadratic)
from cfcg.problems import (BENCHMARK_IDS, Example1Config, MlpSpec, mlp_init,
                           mlp_lower_terminal, mlp_objective)
from replay import recheck_armijo_wolfe, run_with_steps


def quadratic_objective(A, b, frac, center=None):
    """Objective whose fractional gradient is the closed-form quadratic one.

    When ``center`` is given, f is the matched quadratic centered there
    (value zero at the stationary point), which keeps Armijo resolvable at
    tight tolerances.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    rbar = np.sqrt(np.diag(A))
    abar = A + frac.gamma * np.diag(rbar)
    if center is None:
        center = np.linalg.solve(abar, -(b - frac.gamma * rbar * frac.c))

    def fn(x):
        e = x - center
        return 0.5 * float(e @ (abar @ e))

    def grad(x):
        return frac_gradient_quadratic(A, b, x, frac)

    return Objective(fn, frac_gradient=grad), center, abar


def classical_params(n):
    # alpha -> 1, rho = 0 collapses the fractional machinery
    return FracParams(1.0 - 1e-14, 0.0, np.zeros(n))


class TestBetaValue:
    def test_fr_equal_gradients(self):
        g = np.array([1.0, 2.0])
        assert beta_value("FR", g, g, np.array([1.0, 0.0])) == pytest.approx(1.0)

    def test_prp_equal_gradients(self):
        g = np.array([1.0, 2.0])
        assert beta_value("PRP", g, g, np.array([1.0, 0.0])) == 0.0

    def test_dy_hand_value(self):
        g_k = np.array([1.0, 0.0])
        g_prev = np.array([0.0, 1.0])
        d_prev = np.array([0.0, -1.0])
        # |g_k|^2 / d_prev'(g_k - g_prev) = 1 / ((0,-1).(1,-1)) = 1
        assert beta_value("DY", g_k, g_prev, d_prev) == pytest.approx(1.0)

    def test_cd_sign(self):
        g_k = np.array([2.0, 0.0])
        g_prev = np.array([1.0, 0.0])
        d_prev = np.array([-1.0, 0.0])  # g_prev'd_prev = -1
        # -|g_k|^2 / (g_prev'd_prev) = -4 / -1 = 4
        assert beta_value("CD", g_k, g_prev, d_prev) == pytest.approx(4.0)

    def test_prp_hs_clamped(self):
        g_k = np.array([1.0, 0.0])
        g_prev = np.array([2.0, 0.0])  # g_k'(g_k - g_prev) = -1 < 0
        d_prev = np.array([-1.0, 0.0])
        assert beta_value("PRP", g_k, g_prev, d_prev) == 0.0
        # HS numerator also negative, denominator d_prev'(g_k-g_prev) = 1
        assert beta_value("HS", g_k, g_prev, d_prev) == 0.0

    def test_denominator_underflow(self):
        g_k = np.array([1.0, 0.0])
        assert beta_value("FR", g_k, np.zeros(2), np.array([1.0, 0.0])) is None
        # d_prev orthogonal to the gradient difference
        assert beta_value("DY", g_k, np.array([1.0, 1e-15]),
                          np.array([0.0, 1.0])) is None

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            beta_value("XX", np.ones(2), np.ones(2), np.ones(2))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8),
       scale=st.floats(-3.0, 3.0), ratio=st.floats(-2.0, 2.0))
def test_beta_kinds_agree_after_exact_steepest_step(seed, n, scale, ratio):
    # with g_k orthogonal to g_prev and d_prev = -g_prev, the five
    # numerators all reduce to |g_k|^2 and the denominators to
    # |g_prev|^2 (Hager & Zhang, "A survey of nonlinear conjugate gradient
    # methods", 2006)
    rng = np.random.default_rng(seed)
    u, v = rng.normal(size=(2, n))
    v_perp = v - (v @ u) / (u @ u) * u
    assume(np.linalg.norm(v_perp) >= 0.1 * np.linalg.norm(v))
    g_prev = 10.0**scale * u
    g_k = 10.0**(scale + ratio) * v_perp
    values = {kind: beta_value(kind, g_k, g_prev, -g_prev) for kind in BetaKind}
    fr = values[BetaKind.FR]
    assert fr > 0.0
    for kind, value in values.items():
        assert value == pytest.approx(fr, rel=1e-8, abs=0.0), kind


class TestDirection:
    # g_prev orthogonal to g with |g_prev| = |g|: FR's beta is 1
    G, G_PREV = np.array([1.0, 0.0]), np.array([0.0, 1.0])

    def test_first_iteration(self):
        g = np.array([3.0, -1.0])
        d, beta, restart = direction("FR", g, None, None)
        assert np.array_equal(d, -g)
        assert (beta, restart) == (0.0, None)

    def test_hand_example(self):
        d, beta, restart = direction("FR", self.G, self.G_PREV,
                                     np.array([-1.0, 0.0]))
        assert np.allclose(d, [-2.0, 0.0])
        assert (beta, restart) == (1.0, None)
        assert self.G @ d <= -(self.G @ self.G)

    def assert_restart(self, rule, kind, g_prev, d_prev):
        d, beta, restart = direction(kind, self.G, np.array(g_prev),
                                     np.array(d_prev))
        assert restart == rule
        assert np.array_equal(d, -self.G) and beta == 0.0

    def test_staleness(self):
        # consecutive gradients collinear, either sign; a nan product too
        self.assert_restart("staleness", "FR", [2.0, 0.0], [-1.0, 0.0])
        self.assert_restart("staleness", "PRP", [-1.0, 0.5], [-1.0, 0.0])
        self.assert_restart("staleness", "FR", [math.nan, 1.0], [-1.0, 0.0])

    def test_underflow(self):
        # FR's denominator |g_prev|^2 is 0
        self.assert_restart("underflow", "FR", [0.0, 0.0], [-1.0, 0.0])

    def test_ascent_fallback(self):
        # beta 1 along an ascent d_prev: g'd = 1 > 0
        self.assert_restart("descent", "FR", self.G_PREV, [2.0, 0.0])

    def test_norm_cap_fallback(self):
        # descent but absurdly long relative to the gradient
        self.assert_restart("norm cap", "FR", self.G_PREV, [-1e9, 1e9])

    def test_sufficient_descent_lemma_algebra(self):
        # when the new gradient sits in the window the curvature condition
        # carves out without overshoot (c2 * g_prev'd_prev <= g'd_prev <= 0)
        # the FR/CD/DY couplings inherit the strong bound g'd <= -|g|^2
        rng = np.random.default_rng(5)
        c2 = 0.9
        for _ in range(50):
            g_prev = rng.normal(size=4)
            d_prev = -g_prev + 0.5 * rng.normal(size=4)
            if g_prev @ d_prev >= 0:
                d_prev = -g_prev
            target = rng.uniform(c2 * float(g_prev @ d_prev), 0.0)
            g = rng.normal(size=4)
            g = g + (target - float(g @ d_prev)) / float(d_prev @ d_prev) * d_prev
            for kind in ("FR", "CD", "DY"):
                beta = beta_value(kind, g, g_prev, d_prev)
                d = -g + beta * d_prev
                assert g @ d <= -(g @ g) * (1 - 1e-10)


class TestLineSearch:
    def test_unit_step_accepted(self):
        # f = x^2/2 with the classical gradient: eta = 1 goes straight to 0
        frac = classical_params(1)
        obj, center, _ = quadratic_objective(np.eye(1), np.zeros(1), frac)
        x = np.array([1.0])
        g = np.array([1.0])
        d = np.array([-1.0])
        grad = lambda z: np.asarray(obj.frac_gradient(z))
        res = armijo_wolfe_search(obj, grad, x, d, g, LineSearchParams(),
                                  obj.eval(x))
        assert res.eta == 1.0
        assert res.trials == 1

    def test_rejects_non_descent(self):
        frac = classical_params(1)
        obj, _, _ = quadratic_objective(np.eye(1), np.zeros(1), frac)
        with pytest.raises(ValueError):
            armijo_wolfe_search(obj, lambda z: z, np.array([1.0]),
                                np.array([1.0]), np.array([1.0]),
                                LineSearchParams(), 0.5)

    def test_backtracks_on_quartic(self):
        calls = {"n": 0}

        def fn(x):
            return float(x[0] ** 4)

        def grad(x):
            calls["n"] += 1
            return np.array([4.0 * x[0] ** 3])

        obj = Objective(fn)
        x = np.array([1.0])
        g = grad(x)
        d = -20.0 * g  # deliberately steep
        params = LineSearchParams()
        res = armijo_wolfe_search(obj, grad, x, d, g, params, f_x=fn(x))
        assert res.eta < 1.0
        gd = float(g @ d)
        # both conditions re-assert at the accepted step
        assert fn(x + res.eta * d) <= fn(x) + params.c1 * res.eta * gd + 1e-15
        assert float(grad(x + res.eta * d) @ d) >= params.c2 * gd

    def test_exhaustion_raises(self):
        # Wolfe needs eta >= (1-c2)*eta_star; a huge eta_star makes every
        # candidate below 1 fail the curvature test
        def fn(x):
            return float(1e-8 * x[0] ** 2 / 2)

        def grad(x):
            return np.array([1e-8 * x[0]])

        obj = Objective(fn)
        x = np.array([1.0])
        g = grad(x)
        with pytest.raises(LineSearchError):
            armijo_wolfe_search(obj, grad, x, -g, g, LineSearchParams(),
                                f_x=fn(x))

    def test_param_validation(self):
        with pytest.raises(ValueError):
            LineSearchParams(c1=0.95, c2=0.9)
        with pytest.raises(ValueError):
            LineSearchParams(r=1.0)
        with pytest.raises(ValueError, match="^max_trials must be positive$"):
            LineSearchParams(max_trials=0)
        with pytest.raises(ValueError):
            StopCriteria(grad_tol=0.0)


@pytest.mark.parametrize("cls, field", [
    (QuadratureSpec, "node_count"), (StopCriteria, "max_iter"),
    (LineSearchParams, "max_trials"), (MlpSpec, "hidden_units"),
    (MlpSpec, "train_points"), (MlpSpec, "trials"), (Example1Config, "seed"),
    (Example1Config, "m"), (Example1Config, "n")])
def test_integer_settings_refuse_non_integers(cls, field):
    # 2.5 was accepted once, and failed only later: the trapezoid rule gave
    # nan, the loops, np.ones, numpy's uniform and SeedSequence a TypeError;
    # numpy integers stay accepted
    with pytest.raises(ValueError,
                       match=f"^{field} must be an integer, got 2.5$"):
        cls(**{field: 2.5})
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        cls(**{field: "4"})
    assert getattr(cls(**{field: np.int64(4)}), field) == 4


def seeded_spd(seed, n, cond=30.0):
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    lam = np.geomspace(1.0, cond, n)
    A = Q @ np.diag(lam) @ Q.T
    return A, rng


class TestCfcg:
    def test_converges_to_fractional_stationary_point(self):
        # the quadratic run's gradient vanishes at the regularized center;
        # the final iterate lands inside the tolerance-implied ball
        A, rng = seeded_spd(0, 12)
        frac = FracParams(0.9, 0.1, np.zeros(12))
        b = rng.normal(size=12)
        obj, center, abar = quadratic_objective(A, b, frac)
        x0 = rng.uniform(1, 10, 12)
        stop = StopCriteria(grad_tol=1e-7, max_iter=2000)
        rep = cfcg_minimize(obj, x0, frac, "FR", stop=stop)
        assert rep.status is RunStatus.CONVERGED
        lam_min = np.linalg.eigvalsh(abar)[0]
        assert np.linalg.norm(rep.final_x - center) <= stop.grad_tol / lam_min

    def test_already_stationary(self):
        frac = classical_params(3)
        A = np.eye(3)
        b = -np.ones(3)
        obj, center, _ = quadratic_objective(A, b, frac)
        rep = cfcg_minimize(obj, np.ones(3), frac, "FR")
        assert rep.status is RunStatus.CONVERGED
        assert rep.iterations == 0
        assert rep.objective_evals == 1     # just the initial value
        assert rep.gradient_evals == 1      # just the initial gradient
        assert len(rep.trace) == 1 and math.isnan(rep.trace[0].step)

    @pytest.mark.parametrize("kind", list(BetaKind))
    def test_classical_quadratic_minimizer(self, kind):
        A, rng = seeded_spd(3, 8, cond=10.0)
        b = rng.normal(size=8)
        frac = classical_params(8)
        obj, center, _ = quadratic_objective(A, b, frac)
        assert np.allclose(center, np.linalg.solve(A, -b), atol=1e-8)
        rep = cfcg_minimize(obj, rng.uniform(1, 4, 8), frac, kind,
                            stop=StopCriteria(1e-8, 2000))
        assert rep.status is RunStatus.CONVERGED
        assert np.linalg.norm(rep.final_x - np.linalg.solve(A, -b)) < 1e-6

    def test_trace_invariants(self):
        A, rng = seeded_spd(4, 10)
        frac = FracParams(0.9, 0.1, np.zeros(10))
        obj, center, _ = quadratic_objective(A, rng.normal(size=10), frac)
        rep = cfcg_minimize(obj, rng.uniform(1, 10, 10), frac, "PRP")
        assert rep.status is RunStatus.CONVERGED
        body = rep.trace[:-1]
        fs = [r.f_value for r in rep.trace]
        assert all(a > b for a, b in zip(fs, fs[1:]))        # strict decrease
        for r in body:
            assert r.descent_inner < 0.0
            assert r.descent_inner <= -1e-8 * r.grad_norm**2  # restart soundness
            assert r.beta >= 0.0                              # PRP clamp
            assert 0.0 < r.cos_theta <= 1.0 + 1e-12
        assert rep.trace[-1].grad_norm < 1e-4

    def test_fr_identity_on_non_restart_iterations(self):
        A, rng = seeded_spd(5, 10)
        frac = FracParams(0.9, 0.1, np.zeros(10))
        obj, _, _ = quadratic_objective(A, rng.normal(size=10), frac)
        _, steps = run_with_steps(cfcg_minimize, obj, rng.uniform(1, 10, 10),
                                  frac, "FR")
        checked = 0
        for (_, _, g_prev, d_prev), (rec, _, g, d) in zip(steps, steps[1:]):
            if rec.restart is not None:
                continue
            lhs = float(g @ d)
            rhs = -float(g @ g) * (1.0 - float(g @ d_prev) / float(g_prev @ g_prev))
            assert lhs == pytest.approx(rhs, rel=1e-10)
            checked += 1
        assert checked > 0

    def test_accepted_steps_recheck(self):
        A, rng = seeded_spd(6, 8)
        frac = FracParams(0.9, 0.1, np.zeros(8))
        obj, _, _ = quadratic_objective(A, rng.normal(size=8), frac)
        _, steps = run_with_steps(cfcg_minimize, obj, rng.uniform(1, 10, 8),
                                  frac, "HS")
        slack = recheck_armijo_wolfe(steps, obj, obj.frac_gradient,
                                     LineSearchParams())
        assert slack >= -1e-12

    def test_f_decrease_stop(self):
        A, rng = seeded_spd(7, 6)
        frac = classical_params(6)
        obj, _, _ = quadratic_objective(A, rng.normal(size=6), frac)
        stop = StopCriteria(grad_tol=1e-14, max_iter=500, f_decrease_tol=1e-3)
        rep = cfcg_minimize(obj, rng.uniform(1, 3, 6), frac, "FR", stop=stop)
        assert rep.status is RunStatus.CONVERGED
        assert rep.stop_reason == "f_decrease"
        assert rep.iterations < 500

    def test_quadrature_path_does_not_count_objective_evals(self):
        # general-gradient path: the quadrature probes f thousands of
        # times but the report counts only solver-level evaluations
        frac = FracParams(0.9, 0.1, np.full(2, -1.0))
        obj = Objective(lambda x: 0.5 * float(x @ x))
        quad = QuadratureSpec(node_count=64)
        rep = cfcg_minimize(obj, np.array([1.0, 2.0]), frac, "FR", quad=quad,
                            stop=StopCriteria(1e-5, 50))
        # initial f plus one f per line-search trial; far below the
        # 64-node quadrature's call volume
        assert rep.objective_evals < 200
        assert rep.objective_evals >= rep.iterations + 1
        assert rep.gradient_evals >= rep.iterations + 1

    @pytest.mark.parametrize("case, counts", [
        # 20 iterations, one gradient per iteration plus the initial one
        ("quadratic-FR", (35, 21)),
        # 1 initial + 2 one-trial steps + all 60 trials of the failed search
        ("black-box-PRP", (63, 23)),
    ])
    def test_each_run_counts_its_own_evals(self, case, counts):
        # the README's two quick-start objectives, each run twice: the
        # second report counts only its own run
        if case == "quadratic-FR":
            A, b = np.diag([1.0, 4.0]), np.array([-1.0, -8.0])
            frac = FracParams(0.9, 0.1, np.zeros(2))
            obj, _, _ = quadratic_objective(A, b, frac)
            run = lambda: cfcg_minimize(obj, np.ones(2), frac, "FR")
        else:
            obj = Objective(lambda x: float(np.sum(np.cos(x) + 0.1 * x**2)))
            frac = FracParams(0.9, 0.1, np.full(3, -4.0))
            run = lambda: cfcg_minimize(obj, np.full(3, 2.0), frac, "PRP",
                                        quad=QuadratureSpec(node_count=64))
        first, second = run(), run()
        assert (first.objective_evals, first.gradient_evals) == counts
        assert (second.objective_evals, second.gradient_evals) == counts

    def test_requires_quad_spec_without_hook(self):
        obj = Objective(lambda x: float(x @ x))
        with pytest.raises(ValueError):
            cfcg_minimize(obj, np.ones(2), FracParams(0.9, 0.1, np.zeros(2)), "FR")

    @pytest.mark.parametrize("solver", ["CFCG", "CFSD"])
    def test_line_hook_needs_no_quad_spec(self, solver):
        # the Gauss-Jacobi path reads no spec: a run without one is the run
        # with one, step for step
        spec = MlpSpec(hidden_units=4, train_points=10, trials=1)
        frac = FracParams(0.9, 0.1, mlp_lower_terminal(spec))
        run = cfcg_minimize if solver == "CFCG" else cfsd_minimize
        args = ("FR",) if solver == "CFCG" else (GridStep((0.01, 0.001)),)
        reports = [run(mlp_objective(spec, "h1", data_seed=0),
                       mlp_init(spec, 0), frac, *args,
                       stop=StopCriteria(1e-12, 5), quad=quad)
                   for quad in (None, QuadratureSpec())]
        bare, with_spec = reports
        assert bare.gradient_evals > 1
        assert np.array_equal(bare.final_x, with_spec.final_x)
        assert ([r.f_value for r in bare.trace]
                == [r.f_value for r in with_spec.trace])


def restart_cause(kind, g, g_prev, d_prev):
    """The rule that makes CFCG restart at gradient g after the step along
    d_prev from g_prev, tested in the solver's order, or None when the
    coupled direction is taken."""
    gn = math.sqrt(g.dot(g))
    if abs(float(g @ g_prev)) >= STALENESS_RESTART * gn * gn:
        return "staleness"
    beta = beta_value(kind, g, g_prev, d_prev)
    if beta is None:
        return "underflow"
    d = -g + beta * d_prev
    gn2 = float(g @ g)
    if float(g @ d) > -SUFFICIENT_DESCENT * gn2:
        return "descent"
    if float(d @ d) > DIRECTION_NORM_CAP**2 * gn2:
        return "norm cap"
    return None


def restart_tally(steps, kind):
    """The restarts among a CFCG run's collected steps (see
    run_with_steps), counted by rule; a record whose restart differs from
    restart_cause's replay counts as "unexplained"."""
    tally = collections.Counter()
    for (_, _, g_prev, d_prev), (rec, _, g, _) in zip(steps, steps[1:]):
        cause = restart_cause(kind, g, g_prev, d_prev)
        if rec.restart != cause:
            tally["unexplained"] += 1
        elif cause is not None:
            tally[cause] += 1
    return tally


class TestRestartRules:
    """Every CFCG restart replays, from each step's g and d, as one of the
    rules direction() names: staleness (consecutive gradients nearly
    collinear), a beta denominator underflow, or a non-descent or runaway
    coupled direction.  A row restarted by any other rule shows as
    unexplained."""

    def test_default_sweep(self):
        # the example1 default instance: 6 gammas x 5 kinds, 1426 steps
        tally = collections.Counter()
        for cell in _cells(ExperimentConfig(solvers=("CFCG",)), "example1"):
            objective, x0, frac, _ = cell.setup()
            _, steps = run_with_steps(cfcg_minimize, objective, x0, frac,
                                      cell.beta, stop=cell.stop)
            tally += restart_tally(steps, cell.beta)
        assert tally == {"staleness": 743, "descent": 19}

    def test_networks(self):
        # trial 0 of each default network target, 5 kinds each
        tally = collections.Counter()
        for cell in _cells(ExperimentConfig(solvers=("CFCG",), trials=1),
                           "example2"):
            objective, x0, frac, _ = cell.setup()
            _, steps = run_with_steps(cfcg_minimize, objective, x0, frac,
                                      cell.beta, stop=cell.stop)
            tally += restart_tally(steps, cell.beta)
        assert tally == {"staleness": 214, "descent": 1}

    @pytest.mark.parametrize("kind", ["FR", "CD", "DY"])
    def test_norm_cap_restarts_an_ill_conditioned_run(self, kind):
        # f = x'Ax / 2 with A = diag(0.2, 1e9, 1e16), from the x whose
        # gradient is (1, 1e-4, 1e-15); gamma = 0, so the closed form is the
        # classical gradient.  Each of the first two steps overshoots a
        # stiffer coordinate, and |g| grows 1.25e4-fold, then 7.5e3-fold.
        # The coupled direction keeps the first step's length, so at step 1
        # it is 80-100 times inside the cap (1e6 |g|) and at step 2 82-128
        # times past it, with every other rule passed: only the norm cap
        # restarts it, under any rounding.  The budget ends the run after
        # the restarted step, before its tail, whose status does depend on
        # rounding
        A = np.diag([0.2, 1e9, 1e16])
        frac = FracParams(0.5, 1 / 3, np.zeros(3))
        assert frac.gamma == 0.0
        obj, _, _ = quadratic_objective(A, np.zeros(3), frac, np.zeros(3))
        x0 = np.array([1.0, 1e-4, 1e-15]) / np.diag(A)
        rep, steps = run_with_steps(cfcg_minimize, obj, x0, frac, kind,
                                    stop=StopCriteria(1e-4, 3))
        tally = restart_tally(steps, kind)
        assert tally["norm cap"] >= 1 and tally["unexplained"] == 0
        assert rep.status is RunStatus.MAX_ITER


class TestCfsd:
    def test_fixed_eval_count(self):
        # evaluations exceed iterations by exactly one
        A, rng = seeded_spd(8, 6, cond=5.0)
        frac = FracParams(0.9, 0.1, np.zeros(6))
        obj, _, _ = quadratic_objective(A, rng.normal(size=6), frac)
        rep = cfsd_minimize(obj, rng.uniform(1, 4, 6), frac, GridStep((0.05,)),
                            stop=StopCriteria(1e-6, 5000))
        assert rep.status is RunStatus.CONVERGED
        assert rep.objective_evals == rep.iterations + 1

    def test_already_stationary(self):
        frac = classical_params(2)
        obj, _, _ = quadratic_objective(np.eye(2), -np.ones(2), frac)
        rep = cfsd_minimize(obj, np.ones(2), frac, GridStep((0.1,)))
        assert rep.iterations == 0
        assert rep.objective_evals == 1

    def test_grid_eval_count_and_selection(self):
        A, rng = seeded_spd(9, 5, cond=4.0)
        frac = classical_params(5)
        obj, _, _ = quadratic_objective(A, rng.normal(size=5), frac)
        grid = GridStep((0.5, 0.05, 0.005))
        rep = cfsd_minimize(obj, rng.uniform(1, 4, 5), frac, grid,
                            stop=StopCriteria(1e-6, 3000))
        assert rep.status is RunStatus.CONVERGED
        assert rep.objective_evals == 1 + rep.iterations * 3
        assert all(r.step in grid.etas for r in rep.trace[:-1])

    def test_grid_takes_the_lowest_trial(self):
        frac = classical_params(1)
        obj, _, _ = quadratic_objective(np.eye(1), np.zeros(1), frac)
        grid = GridStep((1.0, 0.2))
        rep = cfsd_minimize(obj, np.array([1.0]), frac, grid,
                            stop=StopCriteria(1e-12, 1))
        # from x=1 with g=1: f(0) = 0 beats f(0.8); step 1.0 chosen
        assert rep.trace[0].step == 1.0

    @pytest.mark.parametrize("etas, step, reason", [
        ((0.5, 1.5), 0.5, "max_iter"),
        ((0.5, 3.0, 0.2), 3.0, "non-finite"),
    ], ids=["tie-keeps-the-first", "nan-trial-is-kept"])
    def test_grid_ties_and_nan_trials(self, etas, step, reason):
        # f is nan beyond |x| = 1.5; from x = 1 with g = 1, steps 0.5 and
        # 1.5 tie at f = 1/8, and step 3.0 lands on a nan, which is kept so
        # that the next iteration stops at the non-finite guard
        obj = Objective(
            lambda x: 0.5 * float(x @ x) if abs(x[0]) <= 1.5 else math.nan,
            frac_gradient=lambda x: x.copy())
        rep = cfsd_minimize(obj, np.array([1.0]), classical_params(1),
                            GridStep(etas), stop=StopCriteria(1e-12, 2))
        assert rep.trace[0].step == step
        assert rep.stop_reason == reason

    def test_on_step_gets_no_direction(self):
        # each step's callback gets the point and gradient its record
        # describes, and no direction: steepest descent builds no -g
        frac = classical_params(2)
        obj, _, _ = quadratic_objective(np.eye(2), np.zeros(2), frac)
        rep, steps = run_with_steps(cfsd_minimize, obj, np.ones(2), frac,
                                    GridStep((0.1,)),
                                    stop=StopCriteria(1e-12, 3))
        assert len(steps) == rep.iterations == 3
        for k, (rec, x, g, d) in enumerate(steps):
            assert rec.k == k and d is None and not x.flags.writeable
            assert rec.f_value == obj.eval(x)
            assert rec.grad_norm == math.sqrt(g.dot(g))
        xs = [x for _, x, _, _ in steps] + [rep.final_x]
        assert all(np.array_equal(x_new, x - 0.1 * g)
                   for x_new, (_, x, g, _) in zip(xs[1:], steps))

    def test_divergence_guard(self):
        # a hook pointing uphill makes every grid step increase f, for a
        # fixed step and for a multi-entry grid alike
        obj = Objective(lambda x: 0.5 * float(x @ x),
                        frac_gradient=lambda x: -np.asarray(x))
        frac = classical_params(2)
        for etas in ((0.1,), (0.1, 0.05)):
            rep = cfsd_minimize(obj, np.ones(2), frac, GridStep(etas),
                                stop=StopCriteria(1e-8, 10000))
            assert rep.status is RunStatus.MAX_ITER
            assert rep.stop_reason == "divergence"
            assert rep.iterations == 50

    def test_step_rule_validation(self):
        with pytest.raises(ValueError):
            GridStep((0.0,))
        with pytest.raises(ValueError):
            GridStep(())
        with pytest.raises(ValueError):
            GridStep((0.1, -0.2))
        # an infinite step makes every iterate non-finite
        with pytest.raises(ValueError):
            GridStep((0.1, math.inf))
        with pytest.raises(ValueError):
            GridStep((0.1, math.nan))


@pytest.mark.parametrize("solve", [
    lambda obj, x0, frac: cfcg_minimize(obj, x0, frac, "FR"),
    lambda obj, x0, frac: cfsd_minimize(obj, x0, frac, GridStep((0.1,))),
], ids=["CFCG", "CFSD"])
def test_non_finite_start_stops_at_once(solve):
    # before the guard CFCG spent 60 line-search trials and CFSD all of
    # max_iter on a nan start
    frac = classical_params(2)
    obj, _, _ = quadratic_objective(np.eye(2), -np.ones(2), frac)
    rep = solve(obj, np.array([np.nan, 1.0]), frac)
    assert rep.status is RunStatus.MAX_ITER
    assert rep.stop_reason == "non-finite"
    assert rep.iterations == 0
    assert rep.objective_evals == 1
    assert rep.gradient_evals == 1
    assert len(rep.trace) == 1 and math.isnan(rep.trace[0].step)


@pytest.mark.parametrize("solve", [
    lambda obj, x0, frac: cfcg_minimize(obj, x0, frac, "FR"),
    lambda obj, x0, frac: cfsd_minimize(obj, x0, frac, GridStep((0.1, 0.05))),
], ids=["CFCG", "CFSD"])
def test_points_are_read_only_and_final_x_is_not(solve):
    # what lets an objective share work between f and its gradient at one
    # array (problems.tikhonov_run_objective); the caller's x0 and the
    # final iterate stay the caller's to change
    seen = []
    frac = classical_params(3)
    obj, _, _ = quadratic_objective(np.diag([1.0, 2.0, 3.0]), -np.ones(3),
                                    frac)
    fn = obj.fn

    def spy(x):
        seen.append((x.flags.writeable, x.flags.owndata))
        return fn(x)

    obj.fn = spy
    x0 = np.full(3, 2.0)
    rep = solve(obj, x0, frac)
    assert rep.iterations > 0
    assert seen and all(not writeable and owned for writeable, owned in seen)
    assert x0.flags.writeable and rep.final_x.flags.writeable
    rep.final_x[0] = 0.0


def test_non_finite_mid_run_stops_before_divergence_streak():
    # the fixed step multiplies x by about 1e100: at the second point f is
    # 1e200 and still finite, but the gradient norm overflows
    obj = Objective(lambda x: 0.5 * float(x @ x),
                    frac_gradient=lambda x: -1e100 * np.asarray(x))
    frac = classical_params(2)
    with np.errstate(over="ignore"):
        rep = cfsd_minimize(obj, np.ones(2), frac, GridStep((1.0,)),
                            stop=StopCriteria(1e-8, 10000))
    assert rep.status is RunStatus.MAX_ITER
    assert rep.stop_reason == "non-finite"
    assert rep.iterations == 1
    assert rep.objective_evals == 2
    assert math.isfinite(rep.trace[-1].f_value)
    assert rep.final_grad_norm == math.inf


# every accepted step of a CFCG run meets both line-search conditions when
# replayed: the replay evaluates the same f and gradient at the same points,
# so the slack is not negative, not even by rounding


@pytest.mark.parametrize("kind", list(BetaKind))
@settings(max_examples=8, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), hidden=st.integers(1, 3),
       alpha=st.floats(0.5, 0.95), rho=st.floats(0.0, 0.3))
def test_accepted_steps_recheck_on_networks(kind, seed, hidden, alpha, rho):
    # small networks take the Gauss-Jacobi path; most of these runs end in
    # LineSearchFailure within six iterations, after a few accepted steps
    spec = MlpSpec(hidden_units=hidden, train_points=20, trials=1)
    obj = mlp_objective(spec, BENCHMARK_IDS[seed % 3], data_seed=seed)
    frac = FracParams(alpha, rho, mlp_lower_terminal(spec))
    _, steps = run_with_steps(cfcg_minimize, obj, mlp_init(spec, seed), frac,
                              kind, stop=StopCriteria(1e-12, 6))
    slack = recheck_armijo_wolfe(
        steps, obj, lambda x: frac_gradient_general(obj, x, frac, None),
        LineSearchParams())
    assert slack >= 0.0


@pytest.mark.parametrize("kind", list(BetaKind))
@settings(max_examples=15, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8),
       cond=st.floats(1.0, 1e3), alpha=st.floats(0.3, 0.95),
       rho=st.floats(0.0, 0.3))
def test_accepted_steps_recheck_on_quadratics(kind, seed, n, cond, alpha, rho):
    A, rng = seeded_spd(seed, n, cond)
    frac = FracParams(alpha, rho, rng.uniform(-1.0, 1.0, n))
    obj, _, abar = quadratic_objective(A, rng.normal(size=n), frac)
    assume(np.linalg.eigvalsh(abar)[0] > 0.0)
    _, steps = run_with_steps(cfcg_minimize, obj, rng.uniform(1.0, 10.0, n),
                              frac, kind, stop=StopCriteria(1e-8, 200))
    assert recheck_armijo_wolfe(steps, obj, obj.frac_gradient,
                                LineSearchParams()) >= 0.0
