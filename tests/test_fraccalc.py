import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfcg.cli import ExperimentConfig, _mlp_problem
from cfcg.engine import Objective, RunStatus, cfcg_minimize
from cfcg.fraccalc import (FD_STEP, JACOBI_NODES, FracParams, QuadratureSpec,
                           _jacobi_rule, _unit_rule,
                           frac_gradient_general, frac_gradient_quadratic,
                           gamma_coeff)
from cfcg.problems import (BENCHMARK_IDS, MlpSpec, benchmark_fn, mlp_init,
                           mlp_lower_terminal, mlp_objective)


def caputo_power_exact(x, power, alpha):
    """Closed form of the order-alpha Caputo derivative of t^power at x
    (lower terminal 0): power! / Gamma(power + 1 - alpha) * x^(power - alpha)."""
    return (math.factorial(power) / math.gamma(power + 1 - alpha)
            * x ** (power - alpha))


class TestScalarCoefficients:
    # the modified Taylor coefficient Gamma(2-a)Gamma(2)/Gamma(3-a) + rho
    # is gamma_coeff + 1
    def test_hand_values(self):
        assert gamma_coeff(0.9, 0.1) == pytest.approx(0.1 - 0.1 / 1.1, abs=1e-15)
        assert gamma_coeff(0.9, 0.1) == pytest.approx(1.0 / 110.0, abs=1e-15)
        assert gamma_coeff(0.5, 0.0) == pytest.approx(-1.0 / 3.0, abs=1e-15)

    def test_classical_limit(self):
        assert gamma_coeff(1.0 - 1e-12, 0.3) == pytest.approx(0.3, abs=1e-11)
        assert gamma_coeff(1.0 - 1e-12, 0.0) + 1.0 == pytest.approx(1.0, abs=1e-11)

    def test_taylor_gamma_ratio_form(self):
        # the Gamma-function form must agree with the simplified one
        rng = np.random.default_rng(7)
        for _ in range(100):
            alpha = rng.uniform(1e-6, 1 - 1e-6)
            rho = rng.uniform(-2, 2)
            via_gamma = (math.gamma(2 - alpha) * math.gamma(2)
                         / math.gamma(3 - alpha) + rho)
            assert gamma_coeff(alpha, rho) + 1.0 == pytest.approx(via_gamma,
                                                                  rel=1e-14)

    def test_taylor_value(self):
        assert gamma_coeff(0.9, 0.1) + 1.0 == pytest.approx(1.0 / 1.1 + 0.1,
                                                            abs=1e-15)

    def test_difference_is_one(self):
        rng = np.random.default_rng(123)
        for _ in range(100):
            alpha = rng.uniform(1e-3, 1 - 1e-3)
            rho = rng.uniform(-5, 5)
            taylor = 1.0 / (2.0 - alpha) + rho
            assert abs(taylor - gamma_coeff(alpha, rho) - 1.0) < 1e-12

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, 1.2])
    def test_domain_errors(self, alpha):
        with pytest.raises(ValueError):
            gamma_coeff(alpha, 0.1)


class TestQuadratureSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(node_count=1)

    def test_frac_params_validation(self):
        with pytest.raises(ValueError):
            FracParams(1.5, 0.0, np.zeros(2))


def rule_caputo(fprime, a, x, alpha, node_count):
    """Order-alpha Caputo derivative at x, lower terminal a, from
    _unit_rule's weights: (x-a)^(1-alpha) / Gamma(2-alpha) * sum w_j f'(t_j)."""
    s, w = _unit_rule(alpha, node_count)
    return ((x - a) ** (1.0 - alpha) * float(w @ fprime(a + (x - a) * s))
            / math.gamma(2.0 - alpha))


class TestCaputo1d:
    N = 200

    def test_identity_map(self):
        # f(t) = t, f' = 1: exact value x^(1-alpha)/Gamma(2-alpha)
        got = rule_caputo(np.ones_like, 0.0, 2.0, 0.5, self.N)
        assert got == pytest.approx(caputo_power_exact(2.0, 1, 0.5), rel=1e-12)
        assert got == pytest.approx(2.0 ** 0.5 / math.gamma(1.5), rel=1e-12)

    def test_square_is_exact(self):
        # linear f' is reproduced exactly by the product-trapezoid rule
        got = rule_caputo(lambda t: 2.0 * t, 0.0, 1.0, 0.9, self.N)
        exact = caputo_power_exact(1.0, 2, 0.9)
        assert exact == pytest.approx(2.0 / math.gamma(2.1), rel=1e-14)
        assert got == pytest.approx(exact, rel=1e-12)

    def test_refinement_halves_error(self):
        # cubic has a genuinely curved f'; halving the mesh must cut the
        # error at least in half at every rung
        exact = caputo_power_exact(1.0, 3, 0.9)
        errors = []
        for n in (25, 50, 100, 200):
            got = rule_caputo(lambda t: 3.0 * t * t, 0.0, 1.0, 0.9, n)
            errors.append(abs(got - exact))
        for coarse, fine in zip(errors, errors[1:]):
            assert fine <= 0.5 * coarse

    def test_normalizer_matches_identity_quadrature(self):
        # the per-coordinate normalizer used by the gradient equals the
        # quadrature of the identity map to 1e-3 relative
        for alpha, a, x in [(0.9, 0.1, 1.3), (0.4, -1.0, 0.5)]:
            quad = rule_caputo(np.ones_like, a, x, alpha, self.N)
            closed = (x - a) ** (1.0 - alpha) / math.gamma(2.0 - alpha)
            assert quad == pytest.approx(closed, rel=1e-3)


def unit_diag_spd(rng, n):
    """Random SPD matrix rescaled to a unit diagonal."""
    B = rng.normal(size=(n, n))
    A = B @ B.T + n * np.eye(n)
    d = 1.0 / np.sqrt(np.diag(A))
    return A * np.outer(d, d)


class TestQuadraticGradient:
    def test_identity_matrix(self):
        params = FracParams(0.9, 0.1, np.zeros(4))
        x = np.array([1.0, -2.0, 0.5, 3.0])
        got = frac_gradient_quadratic(np.eye(4), np.zeros(4), x, params)
        assert np.allclose(got, (1.0 + params.gamma) * x, rtol=1e-14)

    def test_classical_limit(self):
        rng = np.random.default_rng(11)
        A = unit_diag_spd(rng, 5)
        b = rng.normal(size=5)
        x = rng.normal(size=5)
        params = FracParams(1.0 - 1e-12, 0.0, np.zeros(5))
        got = frac_gradient_quadratic(A, b, x, params)
        assert np.allclose(got, A @ x + b, atol=1e-10)

    def test_at_lower_terminal(self):
        rng = np.random.default_rng(12)
        A = unit_diag_spd(rng, 3)
        b = rng.normal(size=3)
        c = rng.normal(size=3)
        params = FracParams(0.6, 0.2, c)
        got = frac_gradient_quadratic(A, b, c, params)
        assert np.allclose(got, A @ c + b, rtol=1e-14)

    def test_dimension_mismatch(self):
        params = FracParams(0.9, 0.1, np.zeros(3))
        with pytest.raises(ValueError, match="dimension mismatch"):
            frac_gradient_quadratic(np.eye(2), np.zeros(2), np.zeros(2), params)

    def test_negative_diagonal(self):
        params = FracParams(0.9, 0.1, np.zeros(2))
        A = np.array([[-1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="negative diagonal"):
            frac_gradient_quadratic(A, np.zeros(2), np.ones(2), params)

    def test_negative_diagonal_beside_nan(self):
        # a minimum that propagates nan would let the negative entry through
        params = FracParams(0.9, 0.1, np.zeros(2))
        A = np.diag([np.nan, -1.0])
        with pytest.raises(ValueError, match="negative diagonal"):
            frac_gradient_quadratic(A, np.zeros(2), np.ones(2), params)

    def test_empty(self):
        params = FracParams(0.9, 0.1, np.zeros(0))
        got = frac_gradient_quadratic(np.zeros((0, 0)), np.zeros(0),
                                      np.zeros(0), params)
        assert got.shape == (0,)

    def test_matches_the_formula_bit_for_bit(self):
        rng = np.random.default_rng(13)
        A = unit_diag_spd(rng, 7) * rng.uniform(0.5, 2.0)
        b, x, c = rng.normal(size=(3, 7))
        params = FracParams(0.7, 0.3, c)
        want = A @ x + b + params.gamma * np.sqrt(np.diag(A)) * (x - c)
        assert np.array_equal(frac_gradient_quadratic(A, b, x, params), want)

    def test_rbar_model_is_not_the_caputo_gradient(self):
        # the closed form is the paper's iteration model, Rbar =
        # diag(sqrt(A_ii)); the Caputo gradient of a quadratic, which the
        # quadrature gets exactly, has diag(A) there.  They agree only
        # where diag(A) = 1
        A, b, x = np.diag([4.0, 9.0]), np.array([1.0, -2.0]), np.array([2.0, 3.0])
        params = FracParams(0.7, 0.2, np.zeros(2))
        quad = frac_gradient_general(lambda z: 0.5 * float(z @ A @ z) + b @ z,
                                     x, params, QuadratureSpec(64))
        closed = frac_gradient_quadratic(A, b, x, params)
        assert quad == pytest.approx(A @ x + b + params.gamma * np.diag(A) * x,
                                     rel=1e-12)
        assert closed == pytest.approx(
            A @ x + b + params.gamma * np.sqrt(np.diag(A)) * x, rel=1e-15)
        assert quad == pytest.approx([8.7538, 24.1692], abs=1e-4)
        assert closed == pytest.approx([8.8769, 24.7231], abs=1e-4)


class TestGeneralGradient:
    def test_matches_quadratic_on_sphere(self):
        # 10-dim half-norm-squared, c = 0.1, x = 1
        n = 10
        params = FracParams(0.9, 0.1, np.full(n, 0.1))
        x = np.ones(n)
        spec = QuadratureSpec(node_count=2000)
        general = frac_gradient_general(lambda z: 0.5 * float(z @ z), x, params, spec)
        closed = frac_gradient_quadratic(np.eye(n), np.zeros(n), x, params)
        assert np.all(np.abs(general - closed) <= 1e-3 * np.abs(closed))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_quadratic_consistency_random_spd(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 9))
        A = unit_diag_spd(rng, n)
        b = rng.normal(size=n)
        c = rng.uniform(-0.2, 0.2, n)
        x = rng.uniform(0.8, 1.8, n)
        params = FracParams(0.9, 0.1, c)
        spec = QuadratureSpec(node_count=2000)

        def f(z):
            return 0.5 * float(z @ A @ z) + float(b @ z)

        general = frac_gradient_general(f, x, params, spec)
        closed = frac_gradient_quadratic(A, b, x, params)
        rel = np.linalg.norm(general - closed) / np.linalg.norm(closed)
        assert rel <= 1e-3

    def test_constant_function(self):
        params = FracParams(0.7, 0.3, np.zeros(3))
        spec = QuadratureSpec(node_count=64)
        got = frac_gradient_general(lambda z: 4.2, np.ones(3), params, spec)
        assert np.allclose(got, 0.0, atol=1e-9)

    def test_classical_limit_linear(self):
        b = np.array([2.0, -1.0, 0.5])
        params = FracParams(1.0 - 1e-6, 0.0, np.zeros(3))
        spec = QuadratureSpec(node_count=400)
        got = frac_gradient_general(lambda z: float(b @ z), np.ones(3), params, spec)
        assert np.linalg.norm(got - b) / np.linalg.norm(b) <= 1e-4

    def test_below_lower_terminal(self):
        # iterate on the other side of c: must still match the closed form
        rng = np.random.default_rng(3)
        n = 4
        A = unit_diag_spd(rng, n)
        b = rng.normal(size=n)
        c = np.full(n, 0.5)
        x = c - rng.uniform(0.5, 1.0, n)
        params = FracParams(0.8, 0.1, c)
        spec = QuadratureSpec(node_count=1000)

        def f(z):
            return 0.5 * float(z @ A @ z) + float(b @ z)

        general = frac_gradient_general(f, x, params, spec)
        closed = frac_gradient_quadratic(A, b, x, params)
        rel = np.linalg.norm(general - closed) / np.linalg.norm(closed)
        assert rel <= 1e-3

    @staticmethod
    def mixed_cubic(z):
        return float(np.sum(z**3) + z[0] * z[1] - np.sin(z[2]))

    def test_continuous_at_the_terminal(self):
        # as x[1] - c[1] -> 0 from either side the value approaches the one
        # on the terminal (the central difference, pinned below) linearly,
        # down to that difference's roundoff (about eps |f| / FD_STEP)
        f = self.mixed_cubic
        c = np.array([0.0, 0.3, -1.0])
        x = np.array([1.2, 0.3, -1.7])
        params = FracParams(0.8, 0.2, c)
        spec = QuadratureSpec(node_count=16)
        at = frac_gradient_general(f, x, params, spec)[1]
        for delta in 10.0 ** -np.arange(3, 13):
            for side in (1.0, -1.0):
                x[1] = c[1] + side * delta
                got = frac_gradient_general(f, x, params, spec)[1]
                # slope: f'' on [c, x] times (1 + rho), about 1.9 here
                assert abs(got - at) <= 3.0 * delta + 1e-10

    def test_shape_mismatch(self):
        params = FracParams(0.9, 0.1, np.zeros(2))
        spec = QuadratureSpec(node_count=16)
        with pytest.raises(ValueError):
            frac_gradient_general(lambda z: 0.0, np.ones(3), params, spec)

    def test_guarded_coordinate_is_central_difference(self):
        # x[1] sits on its terminal, the others do not
        f = self.mixed_cubic
        c = np.array([0.0, 0.3, -1.0])
        x = np.array([1.2, 0.3, -1.7])
        spec = QuadratureSpec(node_count=16)
        got = frac_gradient_general(f, x, FracParams(0.8, 0.2, c), spec)
        h = FD_STEP * max(1.0, abs(x[1]))
        up, down = x.copy(), x.copy()
        up[1] += h
        down[1] -= h
        # the weights sum to one up to rounding
        assert got[1] == pytest.approx((f(up) - f(down)) / (2.0 * h), rel=1e-15)
        assert np.all(np.isfinite(got))

    def test_line_evaluator_gives_the_plain_gradient(self):
        # the hook path is the Gauss-Jacobi mean of f' + rho (x_i - c_i) f''
        # of the plain function: here with its derivatives taken by
        # fourth-order central differences of eval at the nodes
        spec = MlpSpec(hidden_units=6, train_points=20, trials=1)
        obj = mlp_objective(spec, "h2", data_seed=5)
        c = mlp_lower_terminal(spec)
        s, w = _jacobi_rule(0.9, JACOBI_NODES)
        h = 1e-3
        for seed in range(3):
            x = mlp_init(spec, seed)
            span = x - c
            d1, d2 = np.zeros((2, x.size, s.size))
            for i in range(x.size):
                for k, t in enumerate(c[i] + span[i] * s):
                    lo2, lo1, mid, up1, up2 = (
                        obj.eval(np.where(np.arange(x.size) == i,
                                          t + m * h, x))
                        for m in (-2, -1, 0, 1, 2))
                    d1[i, k] = (lo2 - up2 + 8.0 * (up1 - lo1)) / (12.0 * h)
                    d2[i, k] = ((16.0 * (lo1 + up1) - lo2 - up2 - 30.0 * mid)
                                / (12.0 * h * h))
            for rho in (0.0, 0.1, 0.3):
                got = frac_gradient_general(obj, x, FracParams(0.9, rho, c),
                                            None)
                want = d1 @ w + rho * span * (d2 @ w)
                assert np.max(np.abs(got - want)) <= 1e-8

    def test_samples_each_node_once(self):
        # one line evaluation per gradient, ts given by keyword: every
        # coordinate's JACOBI_NODES nodes c_i + s_k (x_i - c_i) back to
        # back, also for a coordinate near or on its terminal
        spec = MlpSpec(hidden_units=20, train_points=10, trials=1)
        obj = mlp_objective(spec, "h1", data_seed=2)
        c = mlp_lower_terminal(spec)
        params = FracParams(0.8, 0.2, c)
        calls = []

        class Counting:
            @staticmethod
            def eval_line(x, *, ts):
                calls.append(ts)
                return obj.eval_line(x, ts)

        s, _ = _jacobi_rule(0.8, JACOBI_NODES)
        x = mlp_init(spec, 1)
        for near in (None, 1e-6, 0.0):
            if near is not None:
                x[3] = c[3] + near
            frac_gradient_general(Counting, x, params, None)
            ts, = calls
            assert np.array_equal(ts, (c[:, None] + (x - c)[:, None] * s).ravel())
            calls.clear()

    def test_trapezoid_rule_needs_a_spec(self):
        # only the trapezoid branch reads the spec
        params = FracParams(0.8, 0.2, np.zeros(3))
        with pytest.raises(ValueError, match="QuadratureSpec"):
            frac_gradient_general(self.mixed_cubic, np.ones(3), params, None)

    def test_coordinate_on_its_terminal_is_the_classical_derivative(self):
        # every node is x_i, and the weights sum to one up to rounding
        spec = MlpSpec(hidden_units=6, train_points=20, trials=1)
        obj = mlp_objective(spec, "h3", data_seed=4)
        c = mlp_lower_terminal(spec)
        x = mlp_init(spec, 2)
        on = np.array([0, 7, 13, 18])  # one coordinate from each block
        x[on] = c[on]
        got = frac_gradient_general(obj, x, FracParams(0.6, 0.4, c), None)
        h = 1e-6
        for i in on:
            up, down = x.copy(), x.copy()
            up[i] += h
            down[i] -= h
            classical = (obj.eval(up) - obj.eval(down)) / (2 * h)
            assert got[i] == pytest.approx(classical, rel=1e-8, abs=1e-10)

    def test_near_terminal_coordinate_is_central_difference(self):
        # 0 < |x_1 - c_1| < N h: the 3-point differences of step h at x_1
        f = self.mixed_cubic
        c = np.array([0.0, 0.3, -1.0])
        x = np.array([1.2, 0.3 + 4e-5, -1.7])
        params = FracParams(0.8, 0.2, c)
        spec = QuadratureSpec(node_count=16)
        got = frac_gradient_general(f, x, params, spec)
        h = FD_STEP * max(1.0, abs(x[1]))
        assert abs(x[1] - c[1]) < spec.node_count * h
        up, down = x.copy(), x.copy()
        up[1] += h
        down[1] -= h
        d1 = (f(up) - f(down)) / (2.0 * h)
        d2 = (f(up) - 2.0 * f(x) + f(down)) / (h * h)
        want = d1 + params.rho * (x[1] - c[1]) * d2
        # the rho term is about 1e-5 of the value, so a plain d1 fails
        assert got[1] == pytest.approx(want, rel=1e-14)
        assert got[1] != pytest.approx(d1, rel=1e-7)

    def test_nan_coordinate_gives_nan(self):
        # a nan step is neither near nor off the terminal; it must still
        # reach the gradient for the solver's non-finite stop
        params = FracParams(0.8, 0.2, np.array([0.0, 0.3, -1.0]))
        got = frac_gradient_general(self.mixed_cubic,
                                    np.array([1.2, np.nan, -1.7]), params,
                                    QuadratureSpec(node_count=16))
        assert np.isnan(got[1])

    CASES = ((0.9, 0.1), (0.5, 0.3), (0.7, 0.0))

    def test_accuracy_on_a_small_network(self):
        # worst norm-relative error of the Gauss-Jacobi gradient against the
        # trapezoid rule at N = 2048, over the three targets, two starts and
        # three (alpha, rho): 1.04e-5, against 4.8e-4 for the trapezoid rule
        # at N = 32
        spec = MlpSpec(hidden_units=6, train_points=20, trials=1)
        z = np.random.default_rng(5).uniform(-1.0, 1.0, spec.train_points)
        c = mlp_lower_terminal(spec)
        worst = 0.0
        for target in BENCHMARK_IDS:
            obj = mlp_objective(spec, target, data_seed=5)
            for start in (0, 1):
                x = mlp_init(spec, start)
                refs = trapezoid_reference(z, benchmark_fn(target, z), x, c,
                                           self.CASES)
                for (alpha, rho), ref in zip(self.CASES, refs):
                    got = frac_gradient_general(
                        obj, x, FracParams(alpha, rho, c), None)
                    worst = max(worst, np.linalg.norm(got - ref)
                                / np.linalg.norm(ref))
        assert worst <= 1.05 * 1.04e-5
        # the reference is the trapezoid rule on eval
        plain = frac_gradient_general(obj.eval, x,
                                      FracParams(alpha, rho, c),
                                      QuadratureSpec(2048))
        assert np.max(np.abs(plain - ref)) <= 1e-9 * np.max(np.abs(ref))

    def test_accuracy_at_sixty_hidden_units(self):
        # the CLI's networks (H = 60, seed 42) on the three targets, trials
        # 0 and 1, at three (alpha, rho): the worst norm-relative error of
        # the Gauss-Jacobi gradient against the N = 2048 trapezoid rule is
        # 1.88e-6, against 5.3e-5 for the N = 32 rule
        config = ExperimentConfig()
        worst = 0.0
        for target in BENCHMARK_IDS:
            for trial in (0, 1):
                objective, x, frac, _ = _mlp_problem(config, 0.9, target,
                                                     trial)
                # the problem's dataset, from the same seeds
                data_ss, _ = np.random.SeedSequence(
                    (config.seed, BENCHMARK_IDS.index(target), trial)).spawn(2)
                z = np.random.default_rng(data_ss).uniform(
                    -1.0, 1.0, config.train_points)
                c = frac.c
                refs = trapezoid_reference(z, benchmark_fn(target, z), x, c,
                                           self.CASES)
                for (alpha, rho), ref in zip(self.CASES, refs):
                    got = frac_gradient_general(
                        objective, x, FracParams(alpha, rho, c), None)
                    worst = max(worst, np.linalg.norm(got - ref)
                                / np.linalg.norm(ref))
        assert worst <= 5e-6


def network_on_lines(z, tv, p, i, ts):
    """The loss of the tanh network with parameters p, with p[i] set to
    each entry of ts, on the data (z, tv): one forward pass per point, in
    which only the hidden unit that p[i] belongs to is recomputed (along
    b2, unit 0, unchanged)."""
    H = (p.size - 1) // 3
    w, b1, v, b2 = p[:H], p[H:2 * H], p[2 * H:3 * H], p[3 * H]
    r = np.tanh(np.outer(z, w) + b1) @ v + b2 - tv
    j = i % H
    q = np.repeat(p[None, [j, H + j, 2 * H + j, 3 * H]], ts.size, axis=0)
    q[:, i // H] = ts
    res = (r - v[j] * np.tanh(z * w[j] + b1[j]) - b2
           + q[:, 2:3] * np.tanh(np.outer(q[:, 0], z) + q[:, 1:2]) + q[:, 3:4])
    return np.mean(res * res, axis=1)


def trapezoid_reference(z, tv, x, c, cases, node_count=2048):
    """frac_gradient_general's trapezoid rule for the network's loss at x,
    one gradient per (alpha, rho) in cases, with every line's samples
    taken by network_on_lines: the plain path's value (no coordinate of
    x is near its terminal), without a Python call per sample."""
    span = x - c
    q = span / node_count
    k = np.arange(-node_count - 2, 3)
    y = np.array([network_on_lines(z, tv, x, i, x[i] + q[i] * k)
                  for i in range(x.size)])
    # the fourth-order stencils at every rule node, then the rule's weights
    lo2, lo1, mid, up1, up2 = (y[:, j:j + node_count + 1] for j in range(5))
    d1 = (lo2 - up2 + 8.0 * (up1 - lo1)) / 12.0
    d2 = (16.0 * (lo1 + up1) - lo2 - up2 - 30.0 * mid) / 12.0
    refs = []
    for alpha, rho in cases:
        _, w = _unit_rule(alpha, node_count)
        refs.append(d1 @ w / q + rho * span * (d2 @ w) / (q * q))
    return refs


class TestKinkedObjective:
    """f(x) = sum |x_i - k_i| + 0.1 ||x||^2, with its kinks k_i between the
    terminals c_i = -4 and the start x_i = 2; its minimum is at x = k."""

    K = np.random.default_rng(3).uniform(-3.0, 1.5, 8)
    X = np.full(8, 2.0)
    C = np.full(8, -4.0)

    @classmethod
    def f(cls, x):
        return float(np.sum(np.abs(x - cls.K)) + 0.1 * (x @ x))

    @classmethod
    def exact_gradient(cls, alpha, rho, x=None):
        """[D^a f + rho (x - c) D^(1+a) f] / D^a I at x > c (X if omitted)
        in closed form.  For c < k < x, D^a |t - k| = (2 (x-k)^(1-a) -
        (x-c)^(1-a)) / G(2-a) and D^(1+a) |t - k| = 2 (x-k)^(-a) / G(1-a);
        for x <= k, |t - k| = k - t on [c, x], so D^a |t - k| = -D^a I and
        D^(1+a) |t - k| = 0.  The 0.1 t^2 term and the normalizer D^a I =
        (x-c)^(1-a) / G(2-a) are powers of x - c."""
        x = cls.X if x is None else x
        a, span, above = alpha, x - cls.C, x > cls.K
        gap = np.where(above, x - cls.K, 1.0)  # 1.0: any base, never read
        g1, g2, g3 = (math.gamma(j - a) for j in (1, 2, 3))
        d_a = (np.where(above, (2.0 * gap ** (1 - a) - span ** (1 - a)) / g2,
                        -span ** (1 - a) / g2)
               + 0.2 * (x * span ** (1 - a) / g2
                        - (1 - a) * span ** (2 - a) / g3))
        d_1a = (np.where(above, 2.0 * gap ** -a / g1, 0.0)
                + 0.2 * span ** (1 - a) / g2)
        return (d_a + rho * span * d_1a) / (span ** (1 - a) / g2)

    @classmethod
    def fixed_point(cls, alpha, rho):
        """Each coordinate's zero of the closed form, by bisection on
        [k - 1, X]: the field is negative up to the kink and rises past
        it (checked at the bracket's ends)."""
        lo, hi = cls.K - 1.0, cls.X.copy()
        assert np.all(cls.exact_gradient(alpha, rho, lo) < 0.0)
        assert np.all(cls.exact_gradient(alpha, rho, hi) > 0.0)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            up = cls.exact_gradient(alpha, rho, mid) > 0.0
            lo, hi = np.where(up, lo, mid), np.where(up, mid, hi)
        return 0.5 * (lo + hi)

    @pytest.mark.parametrize("alpha, rho, error_32", [
        (0.9, 0.1, 2.7522e-5), (0.5, 0.3, 1.3700e-4), (0.7, 0.0, 2.8592e-4)])
    def test_quadrature_error(self, alpha, rho, error_32):
        # the stencils smear each kink over a few nodes, and the rho term's
        # 2 (x-k)^(-a) grows without bound near a kink, yet the rule
        # converges to the closed form
        exact = self.exact_gradient(alpha, rho)
        params = FracParams(alpha, rho, self.C)
        err = {n: np.linalg.norm(frac_gradient_general(
            self.f, self.X, params, QuadratureSpec(n)) - exact)
            / np.linalg.norm(exact) for n in (32, 1024)}
        assert err[32] <= 1.05 * error_32
        assert err[1024] <= 1e-6

    @pytest.mark.parametrize("alpha, rho", [(0.9, 0.1), (0.5, 0.3), (0.7, 0.05)])
    def test_cfcg_stops_short_of_the_minimum(self, alpha, rho):
        # what the README states for non-smooth f: every kind stops in
        # LineSearchFailure after 3-18 iterations, at f = 2.93-6.92, against
        # a minimum of 2.475 and f = 30.3 at the start; at (0.7, 0.05), where
        # the field has zeros above the kinks, after 10-12 at f = 4.69-5.14
        assert 0.1 * float(self.K @ self.K) == pytest.approx(2.4748, abs=1e-4)
        params = FracParams(alpha, rho, self.C)
        for kind in ("FR", "CD", "DY", "PRP", "HS"):
            rep = cfcg_minimize(Objective(self.f), self.X, params, kind,
                                quad=QuadratureSpec(32))
            assert rep.status is RunStatus.LINE_SEARCH_FAILURE
            assert 3 <= rep.iterations <= 18
            assert 2.9 <= self.f(rep.final_x) <= 7.0

    def test_cfcg_converges_to_the_fixed_point_at_rho_0(self):
        # with rho = 0 the field's zero is not the minimizer k: at (0.7, 0)
        # it lies 2.05 from k at f = 6.926, and every kind ends Converged
        # next to it after 18 iterations, at f = 6.9325
        zero = self.fixed_point(0.7, 0.0)
        assert np.all((zero > self.K) & (zero < self.X))
        assert np.linalg.norm(zero - self.K) == pytest.approx(2.05, abs=0.01)
        assert self.f(zero) == pytest.approx(6.926, abs=1e-3)
        params = FracParams(0.7, 0.0, self.C)
        for kind in ("FR", "CD", "DY", "PRP", "HS"):
            rep = cfcg_minimize(Objective(self.f), self.X, params, kind,
                                quad=QuadratureSpec(32))
            assert rep.status is RunStatus.CONVERGED
            assert np.linalg.norm(rep.final_x - zero) <= 0.005

    def test_sign_changes_at_rho_above_0(self):
        # at the paper's settings each coordinate's field is negative on
        # (c, k) and positive on (k, X]: it changes sign only at the kink,
        # the minimizer.  A small rho does not do that: at (0.7, 0.05) the
        # field turns negative again past the kink and has two zeros above it
        u = np.logspace(-9.0, 0.0, 4000)[:, None]  # log-spaced toward k
        below = self.K - (self.K - self.C) * u[:-1]  # c itself left out
        above = self.K + (self.X - self.K) * u
        for alpha, rho in [(0.9, 0.1), (0.5, 0.3)]:
            assert np.all(self.exact_gradient(alpha, rho, below) < 0.0)
            assert np.all(self.exact_gradient(alpha, rho, above) > 0.0)
        for rho, two_zeros in [(0.05, 7), (0.1, 4)]:
            up = self.exact_gradient(0.7, rho, above) > 0.0
            assert np.sum(np.diff(up, axis=0).sum(axis=0) == 2) == two_zeros

        def field0(t):  # coordinate 0 at (0.7, 0.05); its kink is at -2.6146
            x = self.X.copy()
            x[0] = t
            return self.exact_gradient(0.7, 0.05, x)[0]

        def zero(lo, hi):
            up = field0(lo) > 0.0
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if (field0(mid) > 0.0) == up else (lo, mid)
            return 0.5 * (lo + hi)

        assert self.K[0] == pytest.approx(-2.6146, abs=1e-4)
        assert field0(self.K[0] + 1e-6) == pytest.approx(596, abs=1)
        assert field0(-2.3) == pytest.approx(-0.218, abs=1e-3)
        assert field0(-1.5) == pytest.approx(0.232, abs=1e-3)
        assert zero(self.K[0] + 1e-6, -2.3) == pytest.approx(-2.6070, abs=1e-3)
        assert zero(-2.3, -1.5) == pytest.approx(-2.0000, abs=1e-3)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 4),
       alpha=st.floats(0.05, 0.95), rho=st.floats(-1.0, 1.0),
       node_count=st.integers(2, 16))
def test_quadrature_exact_on_quadratics(seed, n, alpha, rho, node_count):
    # f is quadratic along every coordinate line, so the product-trapezoid
    # rule is exact; what is left is the roundoff of the inner differences
    rng = np.random.default_rng(seed)
    A = unit_diag_spd(rng, n)
    b = rng.uniform(-1.0, 1.0, n)
    c = rng.uniform(-1.0, 1.0, n)
    # both signs of x - c in one call
    signs = rng.permutation(np.where(np.arange(n) % 2 == 0, 1.0, -1.0))
    x = c + signs * rng.uniform(0.05, 1.5, n)
    params = FracParams(alpha, rho, c)

    def f(z):
        return 0.5 * float(z @ A @ z) + float(b @ z)

    got = frac_gradient_general(f, x, params, QuadratureSpec(node_count))
    want = frac_gradient_quadratic(A, b, x, params)
    assert np.all(np.abs(got - want) <= 1e-4 * np.maximum(np.abs(want), 1.0))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(alpha=st.floats(0.05, 0.95), node_count=st.integers(2, 1024))
def test_unit_rule_weights_are_a_mean(alpha, node_count):
    s, w = _unit_rule(alpha, node_count)
    assert s[0] == 0.0 and s[-1] == 1.0 and s.shape == w.shape
    assert np.all(np.isfinite(w)) and np.all(w >= 0.0)
    assert abs(w.sum() - 1.0) <= 1e-14


@settings(max_examples=100, deadline=None, derandomize=True)
@given(x=st.lists(st.floats(-1.5, 1.5), min_size=3, max_size=3),
       c=st.lists(st.floats(-1.5, 1.5), min_size=3, max_size=3),
       node_count=st.integers(24, 64))
def test_general_classical_limit(x, c, node_count):
    # as alpha -> 1 the weights gather on the node at x_i, so with rho = 0
    # the value tends to f'(x_i).  Off that node they carry under 6e-6,
    # against f' varying by at most 10 along these lines; the stencil at
    # x_i is exact on the cubic and off by at most (3/N)^4 / 30 on the sine
    x = np.array(x)
    params = FracParams(1.0 - 1e-6, 0.0, np.array(c))
    got = frac_gradient_general(TestGeneralGradient.mixed_cubic, x, params,
                                QuadratureSpec(node_count))
    want = 3.0 * x**2 + np.array([x[1], x[0], -math.cos(x[2])])
    assert np.all(np.abs(got - want) <= 1e-4 * np.maximum(np.abs(want), 1.0))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6),
       rho_share=st.floats(0.0, 1.0))
def test_quadratic_classical_limit(seed, n, rho_share):
    # alpha -> 1 and rho -> 0 together: with 1 - alpha = eps and
    # 0 <= rho <= eps, |gamma| = |rho - eps / (1 + eps)| <= eps, so the
    # closed form tends to A x + b linearly in eps (1 - alpha rounds to
    # eps within a relative 1e-7, hence the factor 1.001)
    rng = np.random.default_rng(seed)
    A = unit_diag_spd(rng, n) * rng.uniform(0.1, 10.0)
    b, x, c = rng.normal(size=(3, n))
    classical = A @ x + b
    shift = np.linalg.norm(np.sqrt(np.diag(A)) * (x - c))
    for eps in (1e-3, 1e-6, 1e-9):
        params = FracParams(1.0 - eps, rho_share * eps, c)
        got = frac_gradient_quadratic(A, b, x, params)
        err = np.linalg.norm(got - classical)
        assert err <= 1.001 * eps * shift + 1e-15 * np.linalg.norm(classical)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(alpha=st.floats(0.05, 0.999), node_count=st.integers(1, 16))
def test_jacobi_rule_moments(alpha, node_count):
    # sum_k W_k s_k^m is the weight's m-th moment,
    # (1-alpha) B(m+1, 1-alpha) = m! Gamma(2-alpha) / Gamma(m+2-alpha),
    # for every m up to 2 node_count - 1
    s, w = _jacobi_rule(alpha, node_count)
    assert s.shape == w.shape == (node_count,)
    assert np.all(w > 0.0) and abs(w.sum() - 1.0) <= 1e-13
    assert 0.0 < s[0] and s[-1] < 1.0 and np.all(np.diff(s) > 0.0)
    for m in range(2 * node_count):
        exact = math.exp(math.lgamma(m + 1) + math.lgamma(2 - alpha)
                         - math.lgamma(m + 2 - alpha))
        assert float(w @ s**m) == pytest.approx(exact, rel=1e-12)


def test_jacobi_rule_is_cached_and_read_only():
    s, w = _jacobi_rule(0.9, JACOBI_NODES)
    assert _jacobi_rule(0.9, JACOBI_NODES)[0] is s
    for a in (s, w):
        with pytest.raises(ValueError):
            a[0] = 0.5


def test_jacobi_rule_calls_no_linalg(monkeypatch):
    # the first numpy.linalg eigensolver call loads LAPACK, about 1 MB of
    # resident memory (860 kB with numpy 2.4.6), and the network gradient
    # uses no other LAPACK routine; the rule gets its nodes by Sturm
    # bisection instead
    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg called")

    for name in ("eig", "eigh", "eigvals", "eigvalsh", "solve"):
        monkeypatch.setattr(np.linalg, name, refuse)
    s, w = _jacobi_rule.__wrapped__(0.9, JACOBI_NODES)
    assert s.size == w.size == JACOBI_NODES
