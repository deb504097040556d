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
    matrix is not positive definite, and ValueError when the closed-form
    fractional gradient rejects the stacked system.

    With the b below, that closed form is abar (x - target), so a point
    costs one product: fn takes g = abar e with e = x - target and returns
    e'g / 2.  The gradient reuses that g once, if it gets the very array
    fn saw last and the array is read-only and owns its data, as the
    solvers' points are (see engine.Objective); any other x gets a fresh
    product.  Both raise ValueError for an x not shaped like target.
    """
    stacked = stacked_problem(prob)
    if not check_Abar_pd(stacked, frac):
        raise ArithmeticError(
            f"iteration matrix not positive definite at gamma={prob.gamma}")
    abar = abar_matrix(stacked, frac)
    target = tikhonov_solution(prob)
    # b making frac_gradient_quadratic(A_stacked, b, x) == abar (x - target);
    # one call runs that closed form's checks for the whole run
    b_eff = -(abar @ target) + frac.gamma * stacked.r_bar * frac.c
    frac_gradient_quadratic(stacked.A, b_eff, target, frac)
    seen = seen_g = None  # fn's last point and its g, until grad takes g

    def error(x):
        if x.shape != target.shape:
            raise ValueError(
                f"x has shape {x.shape}, expected {target.shape}")
        return x - target

    def fn(x):
        nonlocal seen, seen_g
        e = error(x)
        seen, seen_g = x, abar.dot(e)
        return 0.5 * float(e.dot(seen_g))

    def grad(x):
        nonlocal seen, seen_g
        if x is seen and not x.flags.writeable and x.flags.owndata:
            g, seen, seen_g = seen_g, None, None
            return g
        return abar.dot(error(x))

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
    vectorized ``eval_line`` that gives f' and f'' along all coordinate
    lines at once in closed form, which the quadrature path takes in place
    of f samples.
    """
    rng = np.random.default_rng(data_seed)
    z = rng.uniform(-1.0, 1.0, spec.train_points)
    tv = benchmark_fn(target, z)
    H = spec.hidden_units

    def fn(p):
        w, b1, v, b2 = p[:H], p[H:2 * H], p[2 * H:3 * H], p[3 * H]
        a = z[:, None] * w
        a += b1
        res = np.tanh(a, out=a) @ v
        res += b2
        res -= tv
        return float(np.add.reduce(np.square(res, out=res)) / z.size)

    def eval_line(p, ts):
        # f' and f'' (rows 0 and 1) along every coordinate line of p, line
        # i's K abscissae at ts[i K:(i + 1) K], from one hidden-layer pass
        # (hid[j] is unit j over the training points) and the residual r
        # at p
        ts = np.reshape(np.asarray(ts, dtype=float), (p.size, -1))
        K = ts.shape[1]  # reshape raised ValueError for a fractional K
        w, b1, v, b2 = p[:H], p[H:2 * H], p[2 * H:3 * H], p[3 * H]
        hid = np.tanh(np.outer(w, z) + b1[:, None])
        r = v @ hid + b2 - tv
        out = np.empty((2,) + ts.shape)
        # along v_j, or b2 as a unit fixed at one, f is the quadratic
        # mean(r**2) + d (2 s1 + d s2) in d = t - p[i]
        s1 = np.append((hid * r).sum(axis=1), r.sum())[:, None] / z.size
        s2 = np.append((hid * hid).sum(axis=1) / z.size, 1.0)[:, None]
        out[0, 2 * H:] = 2.0 * (s1 + (ts[2 * H:] - p[2 * H:, None]) * s2)
        out[1, 2 * H:] = 2.0 * s2
        # along w_j or b1_j one C-ordered (points x train_points) row per
        # point, chunk by chunk, each reduced on its own.  The new residual
        # is u_j + v_j tanh(a) with u = r - v hid and a = z w_j + b1_j at the
        # new value; with g = v_j sech(a)**2 and q = g z (q = g along b1_j),
        # f' = 2 mean(res q) and f'' = 2 mean(q q - 2 q res tanh(a) z)
        # (without that last z along b1_j)
        u = r - v[:, None] * hid
        width = max(1, LINE_CHUNK // z.size)
        j = np.repeat(np.arange(H), K)
        vj = v[j, None]
        for block in range(2):
            t = ts[block * H:(block + 1) * H].reshape(-1, 1)
            c1, c2 = (t, b1[j, None]) if block == 0 else (w[j, None], t)
            d = out[:, block * H:(block + 1) * H].reshape(2, -1)  # a view
            for m in range(0, j.size, width):
                jm, rows = j[m:m + width], slice(m, m + width)
                th = z * c1[rows]
                th += c2[rows]
                np.tanh(th, out=th)
                q = vj[rows] * th
                res = u[jm]
                res += q
                q *= th
                np.subtract(vj[rows], q, out=q)
                if block == 0:
                    q *= z
                d[0, rows] = np.vecdot(res, q)
                res *= th
                if block == 0:
                    res *= z
                d[1, rows] = np.vecdot(q, q) - 2.0 * np.vecdot(q, res)
            d *= 2.0 / z.size
        return out.reshape(2, -1)

    return Objective(fn, eval_line=eval_line)
