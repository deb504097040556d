import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cfcg.fraccalc import FracParams
from cfcg.tikhonov import (SingularSystemError, abar_matrix, build_quadratic,
                           check_Abar_pd, regularized_matrix, solve_spd,
                           tikhonov_solution)


def normal_equation_oracle(prob):
    """Independent solve of the stacked normal equations
    (XX' + g Rbar Rbar') x = X y + g Rbar Rbar' x_bar."""
    A = prob.X @ prob.X.T
    R2 = np.diag(np.diag(A))
    M = A + prob.gamma * R2
    rhs = prob.X @ prob.y + prob.gamma * R2 @ prob.x_bar
    return np.linalg.solve(M, rhs)


def regularized_objective(prob, x):
    """||X'x - y||^2 + gamma ||Rbar'(x - x_bar)||^2, which
    tikhonov_solution minimizes."""
    resid = prob.X.T @ x - prob.y
    reg = prob.r_bar * (x - prob.x_bar)
    return float(resid @ resid + prob.gamma * (reg @ reg))


def analytic_reg_gradient(prob, x):
    return (2.0 * prob.X @ (prob.X.T @ x - prob.y)
            + 2.0 * prob.gamma * prob.r_bar**2 * (x - prob.x_bar))


def random_problem(seed, n, m=None, gamma=1.0):
    rng = np.random.default_rng(seed)
    m = n if m is None else m
    X = rng.uniform(-1, 1, (n, m))
    y = rng.uniform(-1, 1, m)
    x_bar = rng.normal(size=n)
    return build_quadratic(X, y, gamma=gamma, x_bar=x_bar)


class TestBuildQuadratic:
    def test_identity_section_form(self):
        y = np.array([1.0, 2.0, 3.0])
        prob = build_quadratic(np.eye(3), y)
        assert np.array_equal(prob.A, np.eye(3))
        assert np.array_equal(prob.y, y)

    def test_r_bar_from_diagonal(self):
        prob = random_problem(0, 6)
        assert np.allclose(prob.r_bar, np.sqrt(np.diag(prob.X @ prob.X.T)))

    def test_dimension_checks(self):
        with pytest.raises(ValueError):
            build_quadratic(np.eye(3), np.ones(2))
        with pytest.raises(ValueError, match="^X must be a nonempty matrix$"):
            build_quadratic(np.empty((2, 0)), np.empty(0))
        with pytest.raises(ValueError,
                           match=r"^x_bar has shape \(3,\), expected \(2,\)$"):
            build_quadratic(np.eye(2), np.ones(2), x_bar=np.ones(3))
        # nan and inf were accepted once: tikhonov_solution then failed
        # with "Eigenvalues did not converge" after a RuntimeWarning
        for gamma in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError,
                               match="^gamma must be nonnegative and finite$"):
                build_quadratic(np.eye(2), np.ones(2), gamma=gamma)

    @pytest.mark.parametrize("gamma", [np.nan, np.inf, -np.inf])
    def test_replace_refuses_a_non_finite_gamma(self, gamma):
        # the route a sweep cell takes: tikhonov_solution used to fail with
        # "Eigenvalues did not converge" at nan and warn at inf
        prob = random_problem(0, 3)
        with pytest.raises(ValueError, match="^gamma must be finite, got "):
            dataclasses.replace(prob, gamma=gamma)

    def test_same_bytes_on_one_and_two_blas_threads(self):
        # X X' through dgemm or dsyrk rounds differently on one BLAS thread
        # than on two; A's bytes must not depend on the thread count.  A
        # 100 x 200 X is the stacked system's shape on the default instance
        code = ("import hashlib, numpy as np\n"
                "from cfcg.tikhonov import build_quadratic\n"
                "X = np.random.default_rng(0).uniform(-1, 1, (100, 200))\n"
                "A = build_quadratic(X, np.zeros(200)).A\n"
                "print(hashlib.sha256(A.tobytes()).hexdigest())\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        digests = [subprocess.run(
            [sys.executable, "-c", code], check=True, capture_output=True,
            text=True, timeout=120,
            env=dict(env, OPENBLAS_NUM_THREADS=threads)).stdout
                   for threads in ("1", "2")]
        assert digests[0] == digests[1] != ""


class TestTikhonovSolution:
    def test_gamma_zero_square(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(4, 4)) + 2.0 * np.eye(4)
        y = rng.normal(size=4)
        expected = np.linalg.solve(X @ X.T, X @ y)
        for x_bar in (np.zeros(4), rng.normal(size=4)):
            prob = build_quadratic(X, y, gamma=0.0, x_bar=x_bar)
            assert np.allclose(tikhonov_solution(prob), expected, atol=1e-9)

    def test_huge_gamma_pins_anchor(self):
        prob = random_problem(2, 5, gamma=1e12)
        assert np.linalg.norm(tikhonov_solution(prob) - prob.x_bar) < 1e-6

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_normal_equation_oracle(self, seed):
        prob = random_problem(seed, 5, gamma=0.8)
        got = tikhonov_solution(prob)
        want = normal_equation_oracle(prob)
        assert np.linalg.norm(got - want) / np.linalg.norm(want) <= 1e-8

    def test_optimality_residual(self):
        for seed, n in [(0, 10), (1, 30), (2, 50)]:
            prob = random_problem(seed, n, gamma=1.5)
            sol = tikhonov_solution(prob)
            resid = np.linalg.norm(analytic_reg_gradient(prob, sol))
            assert resid <= 1e-8 * (1.0 + np.linalg.norm(prob.X @ prob.y))

    def test_gamma_monotone_anchor_pull(self):
        rng = np.random.default_rng(9)
        X = rng.uniform(-1, 1, (20, 20))
        y = rng.uniform(-1, 1, 20)
        x_bar = rng.normal(size=20)
        dists = []
        for gamma in (0.5, 0.75, 1.0, 2.0, 3.0, 4.0):
            prob = build_quadratic(X, y, gamma=gamma, x_bar=x_bar)
            dists.append(np.linalg.norm(tikhonov_solution(prob) - x_bar))
        assert all(a >= b - 1e-12 for a, b in zip(dists, dists[1:]))

    def test_singular_system(self):
        prob = build_quadratic(np.zeros((3, 3)), np.zeros(3))
        with pytest.raises(SingularSystemError):
            tikhonov_solution(prob)

    def test_solve_spd_fallback(self):
        # indefinite but well-conditioned: an LU fallback used to return
        # the stationary point, [2, -2] here, as if it were a minimizer
        with pytest.raises(SingularSystemError, match="not positive definite"):
            solve_spd(np.diag([1.0, -1.0]), np.array([2.0, 2.0]))
        # a negative gamma makes M indefinite (eigenvalues -5.25 ... 1.80)
        prob = dataclasses.replace(random_problem(0, 6), gamma=-2.0)
        eigs = np.linalg.eigvalsh(regularized_matrix(prob))
        assert eigs[0] < 0.0 < eigs[-1]
        with pytest.raises(SingularSystemError, match="not positive definite"):
            tikhonov_solution(prob)


class TestRegularizedObjective:
    def test_zero_at_consistent_anchor(self):
        # y = X' x_bar zeroes both terms at x_bar, so x_bar is the solution
        rng = np.random.default_rng(4)
        X = rng.normal(size=(3, 3))
        x_bar = rng.normal(size=3)
        prob = build_quadratic(X, X.T @ x_bar, gamma=2.0,
                               x_bar=x_bar)
        assert regularized_objective(prob, x_bar) == pytest.approx(0.0, abs=1e-20)
        assert np.allclose(tikhonov_solution(prob), x_bar, rtol=0, atol=1e-12)

    def test_gamma_zero_is_plain_residual(self):
        prob = random_problem(5, 4, gamma=0.0)
        x = np.random.default_rng(6).normal(size=4)
        expected = float(np.sum((prob.X.T @ x - prob.y) ** 2))
        assert regularized_objective(prob, x) == pytest.approx(expected, rel=1e-14)
        # the solution satisfies the plain normal equations X (X'x - y) = 0
        sol = tikhonov_solution(prob)
        assert np.linalg.norm(prob.X @ (prob.X.T @ sol - prob.y)) <= 1e-10

    def test_fd_gradient_matches_analytic(self):
        prob = random_problem(7, 6, gamma=1.3)
        rng = np.random.default_rng(8)
        x = rng.normal(size=6)
        h = 1e-6
        fd = np.zeros(6)
        for i in range(6):
            e = np.zeros(6)
            e[i] = h
            fd[i] = (regularized_objective(prob, x + e)
                     - regularized_objective(prob, x - e)) / (2 * h)
        ana = analytic_reg_gradient(prob, x)
        assert np.linalg.norm(fd - ana) / np.linalg.norm(ana) <= 1e-5


class TestAbar:
    def test_identity_case(self):
        prob = build_quadratic(np.eye(3), np.ones(3))
        frac = FracParams(0.9, 0.1, np.zeros(3))
        assert check_Abar_pd(prob, frac)
        assert np.allclose(abar_matrix(prob, frac),
                           (1.0 + 1.0 / 110.0) * np.eye(3))

    def test_zero_matrix_not_pd(self):
        prob = build_quadratic(np.zeros((2, 2)), np.zeros(2))
        frac = FracParams(0.5, 0.0, np.zeros(2))
        assert not check_Abar_pd(prob, frac)

    def test_full_rank_with_nonneg_gamma(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(5, 8))
        prob = build_quadratic(X, rng.normal(size=8))
        frac = FracParams(0.9, 0.1, np.zeros(5))  # gamma_ar > 0
        assert check_Abar_pd(prob, frac)

    def test_two_regularizers_are_distinct(self):
        prob = random_problem(11, 4, gamma=2.0)
        frac = FracParams(0.9, 0.1, np.zeros(4))
        reg = regularized_matrix(prob)
        abar = abar_matrix(prob, frac)
        assert np.allclose(reg - prob.A, 2.0 * np.diag(prob.r_bar**2))
        assert np.allclose(abar - prob.A, frac.gamma * np.diag(prob.r_bar))
        assert not np.allclose(reg, abar)
