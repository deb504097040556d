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
from .fraccalc import _index, frac_gradient_quadratic
from .tikhonov import (LeastSquaresProblem, abar_matrix, build_quadratic,
                       check_Abar_pd, regularized_matrix, tikhonov_solution)

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

#: most doubles in each of the MLP line evaluator's two input-side row
#: buffers (whole units of points x train_points rows), unless one unit's
#: rows are more
LINE_CHUNK = 12_000


@dataclass(frozen=True)
class Example1Config:
    seed: int = 42
    m: int = 100
    n: int = 100
    gamma_grid: tuple = (0.5, 0.75, 1.0, 2.0, 3.0, 4.0)

    def __post_init__(self):
        if _index(self.m, "m") < 1 or _index(self.n, "n") < 1:
            raise ValueError(f"m and n must be positive, got m={self.m}, "
                             f"n={self.n}")
        if _index(self.seed, "seed") < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


@dataclass(frozen=True)
class MlpSpec:
    hidden_units: int = 60
    train_points: int = 100
    trials: int = 5

    def __post_init__(self):
        for name in ("hidden_units", "train_points", "trials"):
            if _index(getattr(self, name), name) < 1:
                raise ValueError("hidden_units, train_points, trials must be positive")


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
    stacked system solves the closed-form regularized problem; its matrix
    is regularized_matrix(prob), X_aug X_aug' in exact arithmetic.
    """
    scaled = math.sqrt(prob.gamma) * prob.r_bar
    X_aug = np.hstack([prob.X, np.diag(scaled)])
    y_aug = np.concatenate([prob.y, scaled * prob.x_bar])
    A = regularized_matrix(prob)
    return LeastSquaresProblem(X=X_aug, y=y_aug, A=A, r_bar=np.sqrt(np.diag(A)),
                               gamma=0.0, x_bar=prob.x_bar)


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
    # every tanh argument t z + b is one product of the pair (t, b) with
    # the columns of zb; b 1 is exact, so the product rounds as t z, then
    # + b, as two elementwise passes would
    zb = np.stack([z, np.ones(z.size)])

    def fn(p):
        a = zb.T @ p[:2 * H].reshape(2, H)
        res = np.tanh(a, out=a) @ p[2 * H:3 * H]
        res += p[3 * H]
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
        hid = p[:2 * H].reshape(2, H).T @ zb
        np.tanh(hid, out=hid)
        r = v @ hid + b2 - tv
        out = np.empty((2,) + ts.shape)
        # along v_j, or b2 as a unit fixed at one, f is the quadratic
        # mean(r**2) + d (2 s1 + d s2) in d = t - p[i]
        s1 = np.append((hid * r).sum(axis=1), r.sum())[:, None] / z.size
        s2 = np.append((hid * hid).sum(axis=1) / z.size, 1.0)[:, None]
        out[0, 2 * H:] = 2.0 * (s1 + (ts[2 * H:] - p[2 * H:, None]) * s2)
        out[1, 2 * H:] = 2.0 * s2
        # along w_j or b1_j one C-ordered row over the training points per
        # point.  The new residual is u_j + v_j th with u = r - v hid,
        # th = tanh(a) and a = z w_j + b1_j at the new value; with
        # S = 1 - th**2, P = S th and y = z (y = 1 along b1_j), v_j factors
        # out of every sum:
        #   f' N / 2 = v_j (S.(u_j y) + v_j P.y)
        #   f'' N / 2 = v_j (v_j (3 S**2.y**2 - 2 S.y**2) - 2 P.(u_j y**2))
        # A chunk is whole units' K rows each, S and P in two buffers made
        # once per call; P.y, S.y**2 and S**2.y**2 are gemv products, and
        # one broadcast vecdot takes both u_j-weighted sums
        u = r - v[:, None] * hid
        per = max(1, LINE_CHUNK // (K * z.size))  # units per chunk
        rows = np.empty((2, min(per, H), K, z.size))  # S, P
        chunks = [(slice(m, m + per), rows[:, :min(per, H - m)])
                  for m in range(0, H, per)]
        # per point S.(u y), P.(u y**2), P.y, S.y**2 and S**2.y**2
        sums = np.empty((5, H, K))
        vh = v[:, None]
        for block, y in enumerate((z, np.ones(z.size))):
            t = ts[block * H:(block + 1) * H].reshape(-1, 1)
            other = np.repeat(b1 if block == 0 else w, K)[:, None]
            coef = np.hstack((t, other) if block == 0 else (other, t))
            y2 = y * y
            uy = (np.stack((y, y2))[:, None] * u)[:, :, None]  # u y, u y**2
            for units, SP in chunks:
                S, P = SP.reshape(2, -1, z.size)
                at = sums[:, units].reshape(5, -1)  # a view
                np.matmul(coef[units.start * K:units.stop * K], zb, out=P)
                np.tanh(P, out=P)
                np.square(P, out=S)
                np.subtract(1.0, S, out=S)
                P *= S
                np.vecdot(SP, uy[:, units], out=sums[:2, units])
                np.matmul(P, y, out=at[2])
                np.matmul(S, y2, out=at[3])
                S *= S
                np.matmul(S, y2, out=at[4])
            d = out[:, block * H:(block + 1) * H]  # a view
            d[0] = vh * (sums[0] + vh * sums[2])
            d[1] = vh * (vh * (3.0 * sums[4] - 2.0 * sums[3]) - 2.0 * sums[1])
            d *= 2.0 / z.size
        return out.reshape(2, -1)

    return Objective(fn, eval_line=eval_line)
