import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfcg.fraccalc import (FD_STEP, FracParams, QuadratureSpec, _unit_rule,
                           frac_gradient_general, frac_gradient_quadratic,
                           gamma_coeff)
from cfcg.problems import MlpSpec, mlp_init, mlp_lower_terminal, mlp_objective


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
        # the two evaluators round f differently in the last bit; the
        # stencils divide that by the grid step (its square in the rho
        # term), which is |x_i - c_i| / N, not FD_STEP
        spec = MlpSpec(hidden_units=6, train_points=20, trials=1)
        obj = mlp_objective(spec, "h2", data_seed=5)
        quad = QuadratureSpec(node_count=16)
        for rho in (0.0, 0.1, 0.3):
            params = FracParams(0.9, rho, mlp_lower_terminal(spec))
            for seed in range(3):
                x = mlp_init(spec, seed)
                batched = frac_gradient_general(obj, x, params, quad)
                plain = frac_gradient_general(obj.eval_uncounted, x, params,
                                              quad)
                assert np.max(np.abs(batched - plain)) <= 1e-12

    def test_samples_each_node_once(self):
        # N+1 rule nodes and two ghost nodes beyond each end per coordinate
        # off its terminal, three points per coordinate near it; one line
        # evaluation for the first kind and one more for the second
        spec = MlpSpec(hidden_units=20, train_points=10, trials=1)
        obj = mlp_objective(spec, "h1", data_seed=2)
        c = mlp_lower_terminal(spec)
        params = FracParams(0.8, 0.2, c)
        quad = QuadratureSpec(node_count=32)
        points = []

        class Counting:
            @staticmethod
            def eval_line(x, idx, ts):
                points.append(np.size(ts))
                return obj.eval_line(x, idx, ts)

        x = mlp_init(spec, 1)
        n = x.size
        frac_gradient_general(Counting, x, params, quad)
        assert points == [(32 + 5) * n]
        points.clear()
        x[3] = c[3] + 1e-6
        frac_gradient_general(Counting, x, params, quad)
        assert points == [(32 + 5) * (n - 1), 3]

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

    def test_accuracy_on_a_small_network(self):
        # worst norm-relative error of the N = 32 gradient against N = 2048
        # over the three targets, two starts and three (alpha, rho).  Exact
        # inner derivatives (three samples per node at step FD_STEP) give
        # 4.80e-4 worst here, all of it the product-trapezoid rule's own
        # error; the bound allows the fourth-order stencils 5% on top
        spec = MlpSpec(hidden_units=6, train_points=20, trials=1)
        worst = 0.0
        for target in ("h1", "h2", "h3"):
            obj = mlp_objective(spec, target, data_seed=5)
            for start in (0, 1):
                x = mlp_init(spec, start)
                for alpha, rho in ((0.9, 0.1), (0.5, 0.3), (0.7, 0.0)):
                    params = FracParams(alpha, rho, mlp_lower_terminal(spec))
                    coarse, fine = (
                        frac_gradient_general(obj, x, params,
                                              QuadratureSpec(node_count))
                        for node_count in (32, 2048))
                    worst = max(worst, np.linalg.norm(coarse - fine)
                                / np.linalg.norm(fine))
        assert worst <= 1.05 * 4.80e-4


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
