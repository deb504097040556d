import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfcg.fraccalc import (FracParams, QuadratureSpec, SingularTerminalError,
                           caputo_deriv_1d, frac_gradient_general,
                           frac_gradient_quadratic, gamma_coeff, taylor_coeff)
from cfcg.problems import MlpSpec, mlp_init, mlp_lower_terminal, mlp_objective


def caputo_power_exact(x, power, alpha):
    """Closed form of the order-alpha Caputo derivative of t^power at x
    (lower terminal 0): power! / Gamma(power + 1 - alpha) * x^(power - alpha)."""
    return (math.factorial(power) / math.gamma(power + 1 - alpha)
            * x ** (power - alpha))


class TestScalarCoefficients:
    def test_hand_values(self):
        assert gamma_coeff(0.9, 0.1) == pytest.approx(0.1 - 0.1 / 1.1, abs=1e-15)
        assert gamma_coeff(0.9, 0.1) == pytest.approx(1.0 / 110.0, abs=1e-15)
        assert gamma_coeff(0.5, 0.0) == pytest.approx(-1.0 / 3.0, abs=1e-15)

    def test_classical_limit(self):
        assert gamma_coeff(1.0 - 1e-12, 0.3) == pytest.approx(0.3, abs=1e-11)
        assert taylor_coeff(1.0 - 1e-12, 0.0) == pytest.approx(1.0, abs=1e-11)

    def test_taylor_gamma_ratio_form(self):
        # the Gamma-function form must agree with the simplified one
        rng = np.random.default_rng(7)
        for _ in range(100):
            alpha = rng.uniform(1e-6, 1 - 1e-6)
            rho = rng.uniform(-2, 2)
            via_gamma = (math.gamma(2 - alpha) * math.gamma(2)
                         / math.gamma(3 - alpha) + rho)
            assert taylor_coeff(alpha, rho) == pytest.approx(via_gamma, rel=1e-14)

    def test_taylor_value(self):
        assert taylor_coeff(0.9, 0.1) == pytest.approx(1.0 / 1.1 + 0.1, abs=1e-15)

    def test_difference_is_one(self):
        rng = np.random.default_rng(123)
        for _ in range(100):
            alpha = rng.uniform(1e-3, 1 - 1e-3)
            rho = rng.uniform(-5, 5)
            assert abs(taylor_coeff(alpha, rho) - gamma_coeff(alpha, rho) - 1.0) < 1e-12

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, 1.2])
    def test_domain_errors(self, alpha):
        with pytest.raises(ValueError):
            gamma_coeff(alpha, 0.1)
        with pytest.raises(ValueError):
            taylor_coeff(alpha, 0.1)


class TestQuadratureSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(node_count=1)
        with pytest.raises(ValueError):
            QuadratureSpec(fd_step=0.0)

    def test_frac_params_validation(self):
        with pytest.raises(ValueError):
            FracParams(1.5, 0.0, np.zeros(2))


class TestCaputo1d:
    SPEC = QuadratureSpec(node_count=200)

    def test_identity_map(self):
        # f(t) = t, f' = 1: exact value x^(1-alpha)/Gamma(2-alpha)
        got = caputo_deriv_1d(lambda t: 1.0, 0.0, 2.0, 0.5, self.SPEC)
        assert got == pytest.approx(caputo_power_exact(2.0, 1, 0.5), rel=1e-12)
        assert got == pytest.approx(2.0 ** 0.5 / math.gamma(1.5), rel=1e-12)

    def test_constant_function(self):
        assert caputo_deriv_1d(lambda t: 0.0, -1.0, 3.0, 0.3, self.SPEC) == 0.0

    def test_degenerate_interval(self):
        assert caputo_deriv_1d(lambda t: 1.0, 1.0, 1.0, 0.5, self.SPEC) == 0.0

    def test_square_is_exact(self):
        # linear f' is reproduced exactly by the product-trapezoid rule
        got = caputo_deriv_1d(lambda t: 2.0 * t, 0.0, 1.0, 0.9, self.SPEC)
        exact = caputo_power_exact(1.0, 2, 0.9)
        assert exact == pytest.approx(2.0 / math.gamma(2.1), rel=1e-14)
        assert got == pytest.approx(exact, rel=1e-12)

    def test_refinement_halves_error(self):
        # cubic has a genuinely curved f'; halving the mesh must cut the
        # error at least in half at every rung
        exact = caputo_power_exact(1.0, 3, 0.9)
        errors = []
        for n in (25, 50, 100, 200):
            got = caputo_deriv_1d(lambda t: 3.0 * t * t, 0.0, 1.0, 0.9,
                                  QuadratureSpec(node_count=n))
            errors.append(abs(got - exact))
        for coarse, fine in zip(errors, errors[1:]):
            assert fine <= 0.5 * coarse

    def test_reversed_interval_rejected(self):
        with pytest.raises(ValueError):
            caputo_deriv_1d(lambda t: 1.0, 2.0, 1.0, 0.5, self.SPEC)

    def test_alpha_domain(self):
        with pytest.raises(ValueError):
            caputo_deriv_1d(lambda t: 1.0, 0.0, 1.0, 1.0, self.SPEC)

    def test_normalizer_matches_identity_quadrature(self):
        # the per-coordinate normalizer used by the gradient equals the
        # quadrature of the identity map to 1e-3 relative
        for alpha, a, x in [(0.9, 0.1, 1.3), (0.4, -1.0, 0.5)]:
            quad = caputo_deriv_1d(lambda t: 1.0, a, x, alpha, self.SPEC)
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

    def test_singular_terminal_raises(self):
        params = FracParams(0.9, 0.1, np.zeros(2))
        spec = QuadratureSpec(node_count=16)
        x = np.array([1.0, 0.0])  # x[1] sits on the terminal
        with pytest.raises(SingularTerminalError):
            frac_gradient_general(lambda z: float(z @ z), x, params, spec)
        # with the crossing guard the call degrades gracefully instead
        out = frac_gradient_general(lambda z: float(z @ z), x, params, spec,
                                    crossing_guard=True)
        assert np.all(np.isfinite(out))

    def test_shape_mismatch(self):
        params = FracParams(0.9, 0.1, np.zeros(2))
        spec = QuadratureSpec(node_count=16)
        with pytest.raises(ValueError):
            frac_gradient_general(lambda z: 0.0, np.ones(3), params, spec)

    def test_guarded_coordinate_is_central_difference(self):
        # near/far mix: x[1] sits on its terminal, the others do not
        def f(z):
            return float(np.sum(z**3) + z[0] * z[1] - np.sin(z[2]))

        c = np.array([0.0, 0.3, -1.0])
        x = np.array([1.2, 0.3, -1.7])
        spec = QuadratureSpec(node_count=16, fd_step=1e-5)
        got = frac_gradient_general(f, x, FracParams(0.8, 0.2, c), spec,
                                    crossing_guard=True)
        h = spec.fd_step * max(1.0, abs(x[1]))
        up, down = x.copy(), x.copy()
        up[1] += h
        down[1] -= h
        assert got[1] == (f(up) - f(down)) / (2.0 * h)
        assert np.all(np.isfinite(got))

    def test_line_evaluator_gives_the_plain_gradient(self):
        # rho = 0 and a wide fd_step: the two evaluators round f
        # differently in the last bit, and the inner differences divide
        # that by h (by h*h in the rho term)
        spec = MlpSpec(hidden_units=6, train_points=20, trials=1)
        obj = mlp_objective(spec, "h2", data_seed=5)
        params = FracParams(0.9, 0.0, mlp_lower_terminal(spec))
        quad = QuadratureSpec(node_count=16, fd_step=1e-3)
        for seed in range(3):
            x = mlp_init(spec, seed)
            batched = frac_gradient_general(obj, x, params, quad)
            plain = frac_gradient_general(obj.eval_uncounted, x, params, quad)
            assert np.max(np.abs(batched - plain)) <= 1e-12


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
