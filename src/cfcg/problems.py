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

#: most doubles in one (points x train_points) temporary of the MLP line
#: evaluator's input-side rows, which keeps each under glibc's 128 KiB
#: mmap threshold
LINE_CHUNK = 12_000

#: largest |activation| over the training points of a hidden unit whose b1
#: lines the line evaluator takes by the tanh addition formula; it keeps
#: that formula's denominator 1 + hid_j tanh(t - b1_j) at or above 1/64
CALM_HID = 1.0 - 1.0 / 64.0


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
        # f(p with p[idx[m]] = ts[m]) for every point m, from one
        # hidden-layer pass (hid[j] is unit j over the training points)
        # and the residual r at p
        ts = np.asarray(ts, dtype=float)
        idx = np.broadcast_to(np.asarray(idx), ts.shape)
        w, b1, v, b2 = p[:H], p[H:2 * H], p[2 * H:3 * H], p[3 * H]
        hid = np.tanh(np.outer(w, z) + b1[:, None])
        r = v @ hid + b2 - tv
        out = np.empty(ts.size)
        # along v_j, or b2 as a unit fixed at one, f is the quadratic
        # mean(r**2) + d (2 mean(r hid[j]) + d mean(hid[j]**2)), d = t - p[i]
        sel = np.flatnonzero(idx >= 2 * H)
        j, d = idx[sel] - 2 * H, ts[sel] - p[idx[sel]]
        s1 = np.append(np.mean(hid * r, axis=1), np.mean(r))
        s2 = np.append(np.mean(hid * hid, axis=1), 1.0)
        out[sel] = np.mean(r * r) + d * (2.0 * s1[j] + d * s2[j])
        # along w_j or b1_j one C-ordered (points x train_points) row of the
        # new residual per point, chunk by chunk, each reduced on its own:
        # v_j tanh(a) + u_j with u = r - v hid.  Along b1_j of a calm unit,
        # v_j (tanh(a) - hid_j) is s_j tau / (1 + hid_j tau) with
        # s = v (1 - hid**2) and tau = tanh(t - b1_j): one tanh per point
        u = r - v[:, None] * hid
        s = v[:, None] * (1.0 - hid * hid)
        unit, block = idx % H, idx // H
        calm = (block == 1) & (np.max(np.abs(hid), axis=1) <= CALM_HID)[unit]
        width = max(1, LINE_CHUNK // z.size)
        for kind, group in enumerate((block == 0, (block == 1) & ~calm, calm)):
            sel = np.flatnonzero(group)
            for cols in (sel[m:m + width] for m in range(0, sel.size, width)):
                j, t = unit[cols], ts[cols, None]
                if kind == 2:
                    tau = np.tanh(t - b1[j, None])
                    a = hid[j] * tau
                    a += 1.0
                    np.divide(s[j] * tau, a, out=a)
                    a += r
                else:
                    a = z * t + b1[j, None] if kind == 0 else z * w[j, None] + t
                    np.tanh(a, out=a)
                    a *= v[j, None]
                    a += u[j]
                out[cols] = np.vecdot(a, a) / z.size
        return out

    return Objective(fn, eval_line=eval_line)
