"""Seeded benchmark problems: random Tikhonov least-squares instances and
tiny tanh-network regression objectives.

All generators are pure functions of their seeds; independent draws come
from spawned child streams of one PCG64 seed sequence so each sub-draw is
reproducible on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import Objective
from .fraccalc import frac_gradient_quadratic
from .tikhonov import (abar_matrix, build_quadratic, check_Abar_pd,
                       tikhonov_solution)

__all__ = [
    "Example1Config",
    "MlpSpec",
    "gen_example1",
    "benchmark_fn",
    "BENCHMARK_IDS",
    "mlp_objective",
    "mlp_init",
    "mlp_param_bounds",
    "mlp_lower_terminal",
    "stacked_problem",
    "tikhonov_run_objective",
]

BENCHMARK_IDS = ("h1", "h2", "h3")

#: most doubles in one (train_points x points) temporary of the MLP line
#: evaluator, which keeps each under glibc's 128 KiB mmap threshold
LINE_CHUNK = 12_000


@dataclass(frozen=True)
class Example1Config:
    seed: int = 42
    m: int = 100
    n: int = 100
    gamma_grid: tuple = (0.5, 0.75, 1.0, 2.0, 3.0, 4.0)


@dataclass(frozen=True)
class MlpSpec:
    hidden_units: int = 60
    train_points: int = 100
    trials: int = 5

    def __post_init__(self):
        if self.hidden_units < 1 or self.train_points < 1 or self.trials < 1:
            raise ValueError("hidden_units, train_points, trials must be positive")

    @property
    def param_dim(self):
        return 3 * self.hidden_units + 1


def gen_example1(config):
    """Random least-squares instance: X (n x m) and y (m) uniform on
    (-1, 1), A = XX', x0 uniform on (1, 10), c = ones.

    Returns (problem, x0, c); the problem's anchor x_bar is set to c and
    its gamma to the first grid entry (swap per sweep cell with
    dataclasses.replace).
    """
    ss = np.random.SeedSequence(config.seed)
    problem_stream, x0_stream = [np.random.default_rng(s) for s in ss.spawn(2)]
    X = problem_stream.uniform(-1.0, 1.0, (config.n, config.m))
    y = problem_stream.uniform(-1.0, 1.0, config.m)
    x0 = x0_stream.uniform(1.0, 10.0, config.n)
    c = np.ones(config.n)
    prob = build_quadratic(X, y, gamma=config.gamma_grid[0], x_bar=c)
    return prob, x0, c


def stacked_problem(prob):
    """The regularized problem written as a plain least-squares system.

    Stacking sqrt(gamma) Rbar' under X' absorbs the penalty term, so the
    stacked system's ordinary solution is exactly the closed-form
    regularized solution of the original problem.
    """
    scaled = math.sqrt(prob.gamma) * prob.r_bar
    X_aug = np.hstack([prob.X, np.diag(scaled)])
    y_aug = np.concatenate([prob.y, scaled * prob.x_bar])
    return build_quadratic(X_aug, y_aug, x_bar=prob.x_bar)


def tikhonov_run_objective(prob, frac):
    """Engine objective for one regularized sweep cell.

    The iteration matrix is the stacked system's matrix plus the
    fractional diagonal correction, and the quadratic is centered on the
    closed-form regularized solution, so the run's fractional gradient
    vanishes exactly there and the minimum value is zero.  Returns
    (objective, target, abar); raises ArithmeticError when the iteration
    matrix is not positive definite.
    """
    stacked = stacked_problem(prob)
    if not check_Abar_pd(stacked, frac):
        raise ArithmeticError(
            f"iteration matrix not positive definite at gamma={prob.gamma}")
    abar = abar_matrix(stacked, frac)
    target = tikhonov_solution(prob)
    # b making frac_gradient_quadratic(A_stacked, b, x) == abar (x - target)
    b_eff = -(abar @ target) + frac.gamma * stacked.r_bar * frac.c

    def fn(x):
        e = x - target
        return 0.5 * float(e @ (abar @ e))

    def grad(x):
        return frac_gradient_quadratic(stacked.A, b_eff, x, frac)

    return Objective(fn, frac_gradient=grad), target, abar


def benchmark_fn(fn_id, z):
    """The three scalar regression targets; h3 jumps at z = 0 and the
    indicator evaluates to 0 there."""
    z = np.asarray(z, dtype=float)
    if fn_id == "h1":
        out = np.sin(5.0 * np.pi * z)
    elif fn_id == "h2":
        out = np.sin(2.0 * np.pi * z) * np.exp(-(z**2))
    elif fn_id == "h3":
        out = (z > 0.0).astype(float) + 0.2 * np.sin(2.0 * np.pi * z)
    else:
        raise ValueError(f"unknown benchmark id {fn_id!r}")
    return out if out.ndim else float(out)


def mlp_param_bounds(spec):
    """Half-widths of the uniform init, 1/sqrt(fan_in) per coordinate.

    Layout of the flattened parameter vector (H = hidden_units):
    [input weights (H) | input biases (H) | output weights (H) | output bias].
    Input-side entries have fan_in 1, output-side entries fan_in H.
    """
    H = spec.hidden_units
    return np.concatenate([np.ones(2 * H), np.full(H + 1, 1.0 / math.sqrt(H))])


def mlp_init(spec, seed):
    bounds = mlp_param_bounds(spec)
    rng = np.random.default_rng(seed)
    return rng.uniform(-bounds, bounds)


def mlp_lower_terminal(spec):
    """Default lower terminals: one unit below the init range."""
    return -(1.0 + mlp_param_bounds(spec))


def mlp_objective(spec, target, data_seed):
    """Mean-squared-error objective of a 1-H-1 tanh network against a
    sampled target function.

    The dataset (train_points inputs uniform on (-1, 1)) is drawn
    from data_seed only.  Besides plain evaluation the objective carries a
    vectorized coordinate-line evaluator used by the quadrature path.
    """
    rng = np.random.default_rng(data_seed)
    z = rng.uniform(-1.0, 1.0, spec.train_points)
    tv = benchmark_fn(target, z)
    H = spec.hidden_units

    def fn(p):
        w, b1, v, b2 = p[:H], p[H:2 * H], p[2 * H:3 * H], p[3 * H]
        pred = np.tanh(np.outer(z, w) + b1) @ v + b2
        return float(np.mean((pred - tv) ** 2))

    def eval_line(p, idx, ts):
        # f(p with p[idx[m]] = ts[m]) for every point m; one hidden-layer
        # pass for the call, then the points chunk by chunk per parameter
        # block
        ts = np.asarray(ts, dtype=float)
        idx = np.broadcast_to(np.asarray(idx), ts.shape)
        w, b1, v, b2 = p[:H], p[H:2 * H], p[2 * H:3 * H], p[3 * H]
        hid = np.tanh(np.outer(z, w) + b1)
        base = (hid @ v + b2)[:, None]
        block = np.minimum(idx // H, 3)
        width = max(3, LINE_CHUNK // z.size)
        out = np.empty(ts.size)
        for k in range(4):
            sel = np.flatnonzero(block == k)
            if not sel.size:
                continue
            # even chunks of at most width >= 3 points leave no lone
            # column, whose mean would be summed pairwise, not row by row
            for cols in np.array_split(sel, -(-sel.size // width)):
                j, t = idx[cols] - k * H, ts[cols]
                # a C-ordered gather keeps the mean's summation order
                hj = np.take(hid, j, axis=1)
                if k == 0:
                    pred = base + v[j] * (np.tanh(np.outer(z, t) + b1[j]) - hj)
                elif k == 1:
                    pred = base + v[j] * (np.tanh(z[:, None] * w[j] + t) - hj)
                elif k == 2:
                    pred = base + (t - v[j]) * hj
                else:
                    pred = base + (t - b2)
                out[cols] = np.mean((pred - tv[:, None]) ** 2, axis=0)
        return out

    return Objective(fn, eval_line=eval_line)
