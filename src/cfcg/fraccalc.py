"""Caputo fractional derivatives and fractional gradients.

Three evaluation paths are provided.  Quadratic objectives use a
closed-form gradient built from the scalar coefficient ``gamma_coeff``.
An objective whose ``eval_line`` gives f' and f'' along coordinate lines
gets a Gauss-Jacobi rule for the weakly singular Caputo kernel; everything
else goes through a product-integration (L1-type) trapezoid rule of that
kernel along each coordinate line.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FracParams",
    "QuadratureSpec",
    "gamma_coeff",
    "frac_gradient_quadratic",
    "frac_gradient_general",
]


#: relative step of the stencils on a line near its terminal
FD_STEP = 1e-5

#: nodes of the Gauss-Jacobi rule on objectives with an ``eval_line`` hook;
#: exact for f' + rho (x_i - c_i) f'' of degree 2 * JACOBI_NODES - 1
JACOBI_NODES = 8


def _index(value, name):
    """operator.index(value), or a ValueError that names the field."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


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

    node_count : subintervals per coordinate line (>= 2) of the trapezoid
                 rule, which only objectives without ``eval_line`` take

    A line whose cell is below FD_STEP * max(1, |x_i|) takes the rule's
    one-node case, of that step (see frac_gradient_general).
    """

    node_count: int = 256

    def __post_init__(self):
        if _index(self.node_count, "node_count") < 2:
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


@functools.lru_cache(maxsize=16)
def _jacobi_rule(alpha, node_count):
    """Nodes s_k, increasing in (0, 1), and weights W_k of the Gauss rule
    of the weight (1-alpha)(1-s)^(-alpha) on [0, 1], the Jacobi weight
    (1-u)^(-alpha) on u = 2s - 1 (Golub & Welsch, Math. Comp. 23, 1969).

    The nodes are the eigenvalues of the tridiagonal matrix of the
    weight's three-term recurrence, found by Sturm-sequence bisection, and
    the weights are the Christoffel numbers 1 / sum_n p_n(s_k)^2 of its
    orthonormal polynomials, so no LAPACK routine is loaded.  Made once
    per (alpha, node_count) and read-only, as every caller shares them.
    """
    # the monic Jacobi recurrence (a_n, b_n) of exponents (-alpha, 0) moved
    # to [0, 1]: diagonal (1 + a_n) / 2, off-diagonal sqrt(b_n) / 2, off[0] 0
    n = np.arange(node_count, dtype=float)
    m = 2.0 * n - alpha
    diag = 0.5 - 0.5 * alpha * alpha / (m * (m + 2.0))
    off = np.sqrt((n * (n - alpha)) ** 2 / (m * m * (m + 1.0) * (m - 1.0)))
    lo, hi = np.zeros(node_count), np.ones(node_count)
    for _ in range(100):  # halves [0, 1] past the last bit of every node
        mid = 0.5 * (lo + hi)
        below = np.zeros(node_count)  # eigenvalues below mid, by Sturm count
        pivot = np.ones(node_count)
        for j in range(node_count):
            with np.errstate(divide="ignore"):  # 0 acts as a tiny positive
                pivot = diag[j] - mid - off[j] ** 2 / pivot
            below += pivot < 0.0
        above = below > n  # node n lies below mid
        hi, lo = np.where(above, mid, hi), np.where(above, lo, mid)
    s = 0.5 * (lo + hi)
    prev, p, total = 0.0, np.ones(node_count), np.ones(node_count)
    for j in range(node_count - 1):
        prev, p = p, ((s - diag[j]) * p - off[j] * prev) / off[j + 1]
        total += p * p
    w = 1.0 / total
    s.setflags(write=False)
    w.setflags(write=False)
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
    if np.any(A.diagonal() < 0.0):
        raise ValueError("A has a negative diagonal entry; Rbar is undefined")
    rbar = np.sqrt(A.diagonal())
    return A @ x + b + params.gamma * rbar * (x - params.c)


def _stencil_sums(f, x, ii, step, w):
    """(d1, d2): the fourth-order central stencils of f' step and f''
    step^2 at x_i + step_i * (1 - w.size .. 0), summed under w, for each
    line i in ii.  f is probed point by point through ``fn`` of an
    Objective (or the plain callable) on x_i + step_i * (-1 - w.size .. 2)."""
    fn = getattr(f, "fn", f)
    pts = x[ii, None] + step[:, None] * np.arange(-1 - w.size, 3)
    y = np.empty(pts.shape)
    for i, row, out in zip(ii, pts, y):
        z = x.copy()
        for j, t in enumerate(row):
            z[i] = t
            out[j] = fn(z)
    # each weighted point's samples two and one steps below, at and above it
    lo2, lo1, mid, up1, up2 = (y[:, j:j + w.size] for j in range(5))
    d1 = np.vecdot(lo2 - up2 + 8.0 * (up1 - lo1), w) / 12.0
    d2 = np.vecdot(16.0 * (lo1 + up1) - lo2 - up2 - 30.0 * mid, w) / 12.0
    return d1, d2


def frac_gradient_general(f, x, params, spec):
    """Fractional gradient by singular-kernel quadrature along every
    coordinate line.

    Coordinate i is
        [ D^alpha f + rho |x_i - c_i| D^(1+alpha) f ] / D^alpha I
    on the interval between c_i and x_i, with the kernel singular at x_i.
    With t = c_i + s (x_i - c_i), D^alpha I cancels the interval's length,
    so the value is the mean of f'(t) + rho (x_i - c_i) f''(t) over s in
    [0, 1] under the weight (1-alpha)(1-s)^(-alpha), which integrates to
    one; this holds for either sign of x_i - c_i.

    An objective with ``eval_line`` (see engine.Objective) gives f' and
    f'' at the JACOBI_NODES nodes of the Gauss-Jacobi rule of that weight,
    t_k = c_i + s_k (x_i - c_i), for every line in one call; spec is not
    read.  At x_i = c_i every node is x_i and the value is f'(x_i).

    Any other objective needs a spec (else ValueError) and takes the
    product-trapezoid rule of spec.node_count cells, whose weights also sum
    to one, probing ``fn`` of an Objective (or the plain callable) once per
    node, at the N+1 rule nodes and two ghost nodes beyond each end (up
    to 2 |x_i - c_i| / N outside [c_i, x_i]); f' and f'' come from
    fourth-order central stencils there, exact on quadratics.  Where
    |x_i - c_i| / N < h = FD_STEP * max(1, |x_i|), line i is the rule's
    one-node case: the same stencils of step h at x_i alone, weight 1, on
    the 5 points x_i + h * (-2..2), which is continuous at x_i = c_i.

    Each coordinate's sum is a row-wise reduction of its own line's
    values, so it does not depend on the other coordinates.
    """
    x = np.asarray(x, dtype=float)
    c = params.c
    if x.shape != c.shape:
        raise ValueError(f"x has shape {x.shape} but c has shape {c.shape}")
    span = x - c
    line = getattr(f, "eval_line", None)
    if line is not None:
        s, w = _jacobi_rule(params.alpha, JACOBI_NODES)
        ts = c[:, None] + span[:, None] * s
        # ts by keyword: perfbench's tracer counts the nodes it is given
        d1, d2 = np.reshape(line(x, ts=ts.ravel()), (2,) + ts.shape)
        return np.vecdot(d1, w) + params.rho * span * np.vecdot(d2, w)
    if spec is None:
        raise ValueError("objective has no eval_line hook; its trapezoid "
                         "rule needs a QuadratureSpec")
    q = span / spec.node_count
    h = FD_STEP * np.maximum(1.0, np.abs(x))
    near = np.abs(q) < h  # a nan step is not near, so nan reaches g
    step = np.where(near, h, q)
    _, w = _unit_rule(params.alpha, spec.node_count)
    g = np.empty(x.size)
    # a line near its terminal is the rule's one-node case: weight 1 at x_i
    rules = (np.flatnonzero(~near), w), (np.flatnonzero(near), np.ones(1))
    for ii, wi in rules:
        qi = step[ii]
        d1, d2 = _stencil_sums(f, x, ii, qi, wi)
        g[ii] = d1 / qi + params.rho * span[ii] * d2 / (qi * qi)
    return g
