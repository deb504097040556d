"""Caputo fractional derivatives and fractional gradients.

Two evaluation paths are provided.  Quadratic objectives use a closed-form
gradient built from the scalar coefficient ``gamma_coeff``; everything else
goes through a product-integration (L1-type) quadrature of the weakly
singular Caputo kernel along each coordinate line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FracParams",
    "QuadratureSpec",
    "SingularTerminalError",
    "gamma_coeff",
    "taylor_coeff",
    "caputo_deriv_1d",
    "frac_gradient_quadratic",
    "frac_gradient_general",
]

#: below this separation the coordinate normalizer (x_i - c_i)^(1-alpha)
#: is considered singular
TERMINAL_GUARD = 1e-8

#: coordinate lines sampled per line evaluation; at node_count 32 (the
#: CLI default) a group's sample arrays stay under glibc's 128 KiB mmap
#: threshold
LINE_GROUP = 32


class SingularTerminalError(ValueError):
    """Some |x_i - c_i| is below the terminal guard."""


def _check_alpha(alpha):
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"fractional order must lie in (0, 1), got {alpha}")


@dataclass(frozen=True)
class FracParams:
    """Parameters of the fractional gradient.

    alpha : fractional order, 0 < alpha < 1
    rho   : shift entering the modified Taylor coefficient
    c     : lower integration terminals, one per coordinate
    """

    alpha: float
    rho: float
    c: np.ndarray

    def __post_init__(self):
        _check_alpha(self.alpha)
        object.__setattr__(self, "c", np.asarray(self.c, dtype=float))

    @property
    def gamma(self):
        return gamma_coeff(self.alpha, self.rho)


@dataclass(frozen=True)
class QuadratureSpec:
    """Discretization of the singular-kernel quadrature.

    node_count : subintervals per coordinate line (>= 2)
    fd_step    : relative step for the inner central differences; the actual
                 step at abscissa t is fd_step * max(1, |t|)
    """

    node_count: int = 256
    fd_step: float = 1e-5

    def __post_init__(self):
        if self.node_count < 2:
            raise ValueError("node_count must be >= 2")
        if self.fd_step <= 0.0:
            raise ValueError("fd_step must be positive")


def gamma_coeff(alpha, rho):
    """rho - (1 - alpha) / (2 - alpha)."""
    _check_alpha(alpha)
    return rho - (1.0 - alpha) / (2.0 - alpha)


def taylor_coeff(alpha, rho):
    """Gamma(2-a)Gamma(2)/Gamma(3-a) + rho, simplified to 1/(2-a) + rho.

    Exceeds ``gamma_coeff`` by exactly one for every (alpha, rho).
    """
    _check_alpha(alpha)
    return 1.0 / (2.0 - alpha) + rho


def _kernel_weights(ts, x, alpha):
    """Per-node weights of the product-trapezoid rule on [ts[r, 0], x[r]],
    one row r per line.

    The integrand is k(t) * p(t) with k(t) = (x - t)^(-alpha) and p the
    piecewise-linear interpolant of the sampled integrand values; k is
    integrated exactly on every subinterval, so the singular last cell
    needs no special casing.
    """
    om = 1.0 - alpha
    a_dist = x[:, None] - ts[:, :-1]
    b_dist = x[:, None] - ts[:, 1:]
    i0 = (a_dist**om - b_dist**om) / om
    i1 = a_dist * i0 - (a_dist ** (om + 1.0) - b_dist ** (om + 1.0)) / (om + 1.0)
    h = ts[:, 1:2] - ts[:, 0:1]
    w = np.zeros_like(ts)
    w[:, :-1] += i0 - i1 / h
    w[:, 1:] += i1 / h
    return w


def caputo_deriv_1d(derivative_sampler, a, x, alpha, spec):
    """Caputo derivative of order alpha in (0,1) at x with lower terminal a.

    Evaluates 1/Gamma(1-alpha) * int_a^x (x-t)^(-alpha) f'(t) dt where
    ``derivative_sampler`` supplies f'.  The sampler is taken at the
    node_count+1 uniform abscissae and interpolated linearly; the kernel
    moments are exact, which makes the rule exact whenever f' is linear.
    """
    _check_alpha(alpha)
    if a > x:
        raise ValueError(f"lower terminal {a} exceeds evaluation point {x}")
    if a == x:
        return 0.0
    ts = np.linspace(a, x, spec.node_count + 1)
    vals = np.asarray([derivative_sampler(t) for t in ts], dtype=float)
    w = _kernel_weights(ts[None, :], np.array([x], dtype=float), alpha)[0]
    return float(w @ vals) / math.gamma(1.0 - alpha)


def frac_gradient_quadratic(A, b, x, params):
    """Closed-form fractional gradient of 0.5 x'Ax + b'x.

    Returns A x + b + gamma * Rbar (x - c) with Rbar = diag(sqrt(diag A)).
    No quadrature is involved; with gamma = 0 this is the classical
    gradient.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    x = np.asarray(x, dtype=float)
    n = x.size
    if A.shape != (n, n) or b.shape != (n,) or params.c.shape != (n,):
        raise ValueError(
            f"dimension mismatch: A {A.shape}, b {b.shape}, x {x.shape}, "
            f"c {params.c.shape}"
        )
    # a view and one reduction: np.diag copies and np.any dispatches, which
    # together cost as much as the arithmetic below at n = 100.  fmin skips
    # nan, so a negative entry beside a nan is still caught; it has no
    # identity, so the empty case is left out
    diag = A.diagonal()
    if n and np.fmin.reduce(diag) < 0.0:
        raise ValueError("A has a negative diagonal entry; Rbar is undefined")
    rbar = np.sqrt(diag)
    return A @ x + b + params.gamma * rbar * (x - params.c)


def _line_samples(f, x, ii, where, h):
    """f along the coordinate lines ii at where+h, where-h and where.

    ``where`` and ``h`` hold one row of abscissae per coordinate, and the
    three sample sets come back in that (rows, nodes) shape.  An
    objective's vectorized ``eval_line(x, idx, ts)`` gets all the points
    in one call; otherwise ``eval_uncounted`` (or the plain callable) is
    probed point by point.
    """
    pts = np.stack([where + h, where - h, where], axis=1)
    idx = np.repeat(ii, pts[0].size)
    line = getattr(f, "eval_line", None)
    if line is not None:
        out = np.asarray(line(x, idx, pts.ravel()), dtype=float)
    else:
        fn = getattr(f, "eval_uncounted", f)
        z = np.array(x, dtype=float)
        out = np.empty(pts.size)
        for j, (i, t) in enumerate(zip(idx, pts.flat)):
            z[i] = t
            out[j] = fn(z)
            z[i] = x[i]
    out = out.reshape(pts.shape)
    return out[:, 0], out[:, 1], out[:, 2]


def frac_gradient_general(f, x, params, spec, crossing_guard=False):
    """Fractional gradient by singular-kernel quadrature along every
    coordinate line.

    Coordinate i is
        [ D^alpha f + rho |x_i - c_i| D^(1+alpha) f ] / D^alpha I,
    with D^alpha I = (x_i - c_i)^(1-alpha) / Gamma(2-alpha) and the inner
    integer-order derivatives taken by central differences.  For
    x_i < c_i the integral runs over [x_i, c_i] with the kernel singular
    at x_i; the odd-order term picks up a sign, the even-order one does
    not, which keeps the classical limit correct on both sides.

    The lines are sampled in groups of ``LINE_GROUP`` coordinates, one
    line evaluation per group, so an objective with a vectorized
    ``eval_line`` shares its work across the group; each coordinate's
    value is bit-for-bit what it would be on its own.

    With ``crossing_guard`` a coordinate inside the terminal guard falls
    back to its classical central-difference partial (the limit of the
    normalized formula as x_i approaches c_i) instead of raising; solvers
    use this so that an iterate brushing past a terminal does not abort
    the run.
    """
    x = np.asarray(x, dtype=float)
    c = params.c
    if x.shape != c.shape:
        raise ValueError(f"x has shape {x.shape} but c has shape {c.shape}")
    alpha, rho = params.alpha, params.rho
    gamma2 = math.gamma(2.0 - alpha)
    gamma1 = math.gamma(1.0 - alpha)
    span = x - c
    dist = np.abs(span)
    inside = dist < TERMINAL_GUARD
    near = np.flatnonzero(inside)
    if near.size and not crossing_guard:
        i = near[0]
        raise SingularTerminalError(
            f"|x[{i}] - c[{i}]| = {dist[i]:.3e} is inside the terminal guard")
    g = np.empty(x.size)
    if near.size:
        h0 = spec.fd_step * np.maximum(1.0, np.abs(x[near]))
        up, down, _ = _line_samples(f, x, near, x[near, None], h0[:, None])
        g[near] = (up[:, 0] - down[:, 0]) / (2.0 * h0)
    far = np.flatnonzero(~inside)
    for start in range(0, far.size, LINE_GROUP):
        ii = far[start:start + LINE_GROUP]
        pos = span[ii] >= 0.0
        sign = np.where(pos, 1.0, -1.0)
        lo = np.where(pos, c[ii], x[ii])
        hi = np.where(pos, x[ii], c[ii])
        ts = np.linspace(lo, hi, spec.node_count + 1, axis=1)
        # mirrored orientation: sample the line so that node j sits at
        # distance (hi - ts[j]) from the singular endpoint
        where = np.where(pos[:, None], ts, (hi + lo)[:, None] - ts)
        h = spec.fd_step * np.maximum(1.0, np.abs(where))
        up, down, mid = _line_samples(f, x, ii, where, h)
        d1 = (up - down) / (2.0 * h)
        d2 = (up - 2.0 * mid + down) / (h * h)
        w = _kernel_weights(ts, hi, alpha)
        for r, i in enumerate(ii):
            # per-line dots and scalar powers, as for a lone coordinate;
            # the dots take fresh copies, since the BLAS dot of row views
            # can round differently (it depends on operand alignment)
            wr = w[r].copy()
            frac1 = sign[r] * (wr @ d1[r].copy()) / gamma1
            frac2 = (wr @ d2[r].copy()) / gamma1
            normalizer = sign[r] * dist[i] ** (1.0 - alpha) / gamma2
            g[i] = (frac1 + rho * dist[i] * frac2) / normalizer
    return g
