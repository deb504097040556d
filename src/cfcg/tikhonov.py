"""Least-squares quadratics, their Tikhonov-regularized forms, and the
closed-form reference solutions the convergence checks are verified
against.

Two regularizer matrices appear side by side on purpose.  The closed-form
solution ``tikhonov_solution`` uses gamma * Rbar Rbar' (i.e. gamma *
diag(A)); the iteration matrix ``abar_matrix`` uses gamma_ar * Rbar with a
single diagonal square-root factor.  They are distinct objects and are
kept under distinct names.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LeastSquaresProblem",
    "SingularSystemError",
    "build_quadratic",
    "regularized_matrix",
    "abar_matrix",
    "tikhonov_solution",
    "check_Abar_pd",
    "solve_spd",
]

# reciprocal-condition threshold below which a solve is refused
RCOND_FLOOR = 1e-14


class SingularSystemError(np.linalg.LinAlgError):
    """The regularized system is numerically singular."""


@dataclass
class LeastSquaresProblem:
    """Data of min ||X'x - y||^2 with its Tikhonov quantities.

    X      : n x m data matrix
    y      : length-m target
    A      : X X' (symmetric PSD by construction)
    r_bar  : diagonal of Rbar, i.e. sqrt(diag(A))
    gamma  : Tikhonov parameter (>= 0)
    x_bar  : anchor point of the regularizer

    No linear term is stored: a run objective builds the one its
    iteration matrix needs (see problems.tikhonov_run_objective).
    """

    X: np.ndarray
    y: np.ndarray
    A: np.ndarray
    r_bar: np.ndarray
    gamma: float
    x_bar: np.ndarray


def build_quadratic(X, y, gamma=0.0, x_bar=None):
    """Assemble a LeastSquaresProblem with A = XX'."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.size == 0:
        raise ValueError("X must be a nonempty matrix")
    n, m = X.shape
    if y.shape != (m,):
        raise ValueError(f"y has shape {y.shape}, expected ({m},)")
    if gamma < 0.0:
        raise ValueError("gamma must be nonnegative")
    A = X @ X.T
    x_bar = np.zeros(n) if x_bar is None else np.asarray(x_bar, dtype=float)
    if x_bar.shape != (n,):
        raise ValueError(f"x_bar has shape {x_bar.shape}, expected ({n},)")
    return LeastSquaresProblem(X=X, y=y, A=A, r_bar=np.sqrt(np.diag(A)),
                               gamma=float(gamma), x_bar=x_bar)


def regularized_matrix(prob):
    """X X' + gamma * Rbar Rbar'  (the closed-form solution's matrix)."""
    return prob.A + prob.gamma * np.diag(prob.r_bar**2)


def abar_matrix(prob, frac):
    """X X' + gamma_ar * Rbar  (the solver's iteration matrix)."""
    return prob.A + frac.gamma * np.diag(prob.r_bar)


def solve_spd(M, rhs):
    """Cholesky solve with a symmetric-indefinite fallback.

    Refuses matrices whose reciprocal condition estimate is below
    RCOND_FLOOR.
    """
    M = np.asarray(M, dtype=float)
    eigs = np.linalg.eigvalsh(M)
    largest = np.max(np.abs(eigs))
    if largest == 0.0 or np.min(np.abs(eigs)) / largest < RCOND_FLOOR:
        raise SingularSystemError(
            f"reciprocal condition estimate below {RCOND_FLOOR:g}"
        )
    try:
        L = np.linalg.cholesky(M)
        z = np.linalg.solve(L, rhs)
        return np.linalg.solve(L.T, z)
    except np.linalg.LinAlgError:
        return np.linalg.solve(M, rhs)


def tikhonov_solution(prob):
    """x_bar + (XX' + gamma Rbar Rbar')^{-1} X (y - X' x_bar), the minimizer
    of ||X'x - y||^2 + gamma ||Rbar'(x - x_bar)||^2."""
    M = regularized_matrix(prob)
    rhs = prob.X @ (prob.y - prob.X.T @ prob.x_bar)
    return prob.x_bar + solve_spd(M, rhs)


def check_Abar_pd(prob, frac):
    """True iff the iteration matrix XX' + gamma_ar Rbar is positive
    definite (checked by its smallest eigenvalue); convergence claims
    are only made under this condition."""
    eigs = np.linalg.eigvalsh(abar_matrix(prob, frac))
    return bool(eigs[0] > 0.0)
