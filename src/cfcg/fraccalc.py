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
    "gamma_coeff",
    "frac_gradient_quadratic",
    "frac_gradient_general",
]


#: relative step of the central differences near a terminal
FD_STEP = 1e-5


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
        if not math.isfinite(self.rho):
            raise ValueError(f"rho must be finite, got {self.rho}")
        object.__setattr__(self, "c", np.asarray(self.c, dtype=float))

    @property
    def gamma(self):
        return gamma_coeff(self.alpha, self.rho)


@dataclass(frozen=True)
class QuadratureSpec:
    """Discretization of the singular-kernel quadrature.

    node_count : subintervals per coordinate line (>= 2)

    The central differences near a terminal take the fixed relative step
    FD_STEP.
    """

    node_count: int = 256

    def __post_init__(self):
        if self.node_count < 2:
            raise ValueError("node_count must be >= 2")


def gamma_coeff(alpha, rho):
    """rho - (1 - alpha) / (2 - alpha), one less than the modified Taylor
    coefficient Gamma(2-alpha)Gamma(2)/Gamma(3-alpha) + rho."""
    _check_alpha(alpha)
    return rho - (1.0 - alpha) / (2.0 - alpha)


def _unit_rule(alpha, node_count):
    """Nodes s_j = j/N on [0, 1] and the product-trapezoid weights of the
    kernel (1-alpha)(1-s)^(-alpha) there, which sum to one.

    The integrand is the kernel times the piecewise-linear interpolant of
    the sampled values; the kernel is integrated exactly on every
    subinterval, so the singular last cell needs no special casing and
    the rule is exact whenever the sampled function is linear.  On
    [a, x] the kernel (x-t)^(-alpha) has the same weights times
    (x-a)^(1-alpha)/(1-alpha), so one vector serves every interval.
    """
    om = 1.0 - alpha
    s = np.arange(node_count + 1) / node_count
    a_dist = 1.0 - s[:-1]
    b_dist = 1.0 - s[1:]
    # (1-alpha) times each cell's zeroth kernel moment and first moment / h
    m0 = a_dist**om - b_dist**om
    m1 = (a_dist * m0 - om * (a_dist ** (om + 1.0) - b_dist ** (om + 1.0))
          / (om + 1.0)) * node_count
    w = np.append(m0 - m1, 0.0)
    w[1:] += m1
    return s, w


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


def _line_samples(f, x, ii, pts):
    """f along the coordinate lines ii at the abscissae ``pts``, one row
    per coordinate, returned in that shape.  An objective's vectorized
    ``eval_line(x, idx, ts)`` gets all the points in one call; otherwise
    ``eval_uncounted`` (or the plain callable) is probed point by point.
    """
    idx = np.repeat(ii, pts.shape[1])
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
    return out.reshape(pts.shape)


def frac_gradient_general(f, x, params, spec):
    """Fractional gradient by singular-kernel quadrature along every
    coordinate line.

    Coordinate i is
        [ D^alpha f + rho |x_i - c_i| D^(1+alpha) f ] / D^alpha I
    on the interval between c_i and x_i, with the kernel singular at x_i.
    The product-trapezoid weights on that interval are
    |x_i - c_i|^(1-alpha) times one fixed vector, and D^alpha I cancels
    them exactly, so the value is a weighted mean along the line,
        sum_j w_j [ f'(t_j) + rho (x_i - c_i) f''(t_j) ],
    with weights that sum to one and t_j running from c_i to x_i.  The
    form holds for either sign of x_i - c_i.

    f is sampled once per node, at the N+1 rule nodes and two ghost nodes
    beyond each end (up to 2 |x_i - c_i| / N outside [c_i, x_i]); f' and
    f'' come from fourth-order central stencils there, exact on quadratics.
    Where |x_i - c_i| / N < h = FD_STEP * max(1, |x_i|), coordinate i is
    d1 + rho (x_i - c_i) d2 from central differences of step h at x_i,
    which is continuous at x_i = c_i.

    All the coordinates off their terminal are sampled in one line
    evaluation, so an objective with a vectorized ``eval_line`` shares its
    work across them; the near-terminal ones take one more.  Each
    coordinate's sum is a row-wise reduction of its own samples, so its
    value does not depend on the other coordinates sampled with it.
    """
    x = np.asarray(x, dtype=float)
    c = params.c
    if x.shape != c.shape:
        raise ValueError(f"x has shape {x.shape} but c has shape {c.shape}")
    _, w = _unit_rule(params.alpha, spec.node_count)
    span = x - c
    q = span / spec.node_count
    h = FD_STEP * np.maximum(1.0, np.abs(x))
    k = np.arange(-spec.node_count - 2, 3)  # offsets from x_i in steps of q
    near = np.abs(q) < h
    g = np.empty(x.size)
    ii = np.flatnonzero(~near)  # nan steps too, so nan reaches g
    if ii.size:
        qi = q[ii, None]
        y = _line_samples(f, x, ii, x[ii, None] + qi * k)
        lo2, lo1, mid, up1, up2 = (y[:, j:j + w.size] for j in range(5))
        d1 = (lo2 - up2 + 8.0 * (up1 - lo1)) / (12.0 * qi)
        d2 = (16.0 * (lo1 + up1) - lo2 - up2 - 30.0 * mid) / (12.0 * qi * qi)
        g[ii] = ((d1 + params.rho * span[ii, None] * d2) * w).sum(axis=1)
    ii = np.flatnonzero(near)
    if ii.size:
        hi = h[ii]
        pts = x[ii, None] + hi[:, None] * np.array([1.0, -1.0, 0.0])
        up, down, mid = _line_samples(f, x, ii, pts).T
        g[ii] = ((up - down) / (2.0 * hi)
                 + params.rho * span[ii] * (up - 2.0 * mid + down) / (hi * hi))
    return g
