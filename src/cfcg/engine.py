"""Conjugate-gradient iteration with fractional gradients, plus the
steepest-descent baseline.

The solver follows the usual template: gradient, beta-coupled direction,
backtracking Armijo-Wolfe step, update.  The Wolfe curvature test is taken
with the same fractional gradient that drives the directions, so a single
gradient evaluation per accepted trial serves both the test and the next
iteration.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .fraccalc import _index, frac_gradient_general

__all__ = [
    "BetaKind",
    "RunStatus",
    "LineSearchParams",
    "StopCriteria",
    "GridStep",
    "Objective",
    "IterRecord",
    "RunReport",
    "LineSearchResult",
    "LineSearchError",
    "beta_value",
    "direction",
    "armijo_wolfe_search",
    "cfcg_minimize",
    "cfsd_minimize",
]

# sufficient-descent threshold r_d: accept d only if g'd <= -r_d ||g||^2
SUFFICIENT_DESCENT = 1e-8
# relative denominator floor for the beta formulas
DENOMINATOR_FLOOR = 1e-12
# restart when consecutive gradients are this collinear (stalled/cycling run)
STALENESS_RESTART = 0.95
# restart when the direction norm runs away from the gradient scale
DIRECTION_NORM_CAP = 1e6
# consecutive objective increases tolerated by step-grid descent
DIVERGENCE_STREAK = 50


class BetaKind(str, enum.Enum):
    FR = "FR"
    CD = "CD"
    DY = "DY"
    PRP = "PRP"
    HS = "HS"


class RunStatus(str, enum.Enum):
    CONVERGED = "Converged"
    MAX_ITER = "MaxIter"
    LINE_SEARCH_FAILURE = "LineSearchFailure"


class LineSearchError(RuntimeError):
    """No candidate step satisfied both line-search conditions."""


@dataclass(frozen=True)
class LineSearchParams:
    c1: float = 1e-4
    c2: float = 0.9
    r: float = 0.5
    max_trials: int = 60

    def __post_init__(self):
        if not 0.0 < self.c1 < self.c2 < 1.0:
            raise ValueError(f"need 0 < c1 < c2 < 1, got c1={self.c1}, c2={self.c2}")
        if not 0.0 < self.r < 1.0:
            raise ValueError(f"backtracking ratio must be in (0,1), got {self.r}")
        if _index(self.max_trials, "max_trials") < 1:
            raise ValueError("max_trials must be positive")


@dataclass(frozen=True)
class StopCriteria:
    grad_tol: float = 1e-4
    max_iter: int = 2000
    # optional extra rule: stop once an accepted step decreases f by less
    # than this (the neural-network runs stop on loss stagnation)
    f_decrease_tol: float | None = None

    def __post_init__(self):
        if not self.grad_tol > 0.0:  # nan too
            raise ValueError("grad_tol must be positive")
        if _index(self.max_iter, "max_iter") < 1:
            raise ValueError("max_iter must be positive")
        if self.f_decrease_tol is not None and math.isnan(self.f_decrease_tol):
            raise ValueError("f_decrease_tol must not be nan")


@dataclass(frozen=True)
class GridStep:
    """Steepest-descent step rule; a fixed step eta is GridStep((eta,))."""

    etas: tuple

    def __post_init__(self):
        object.__setattr__(self, "etas", tuple(float(e) for e in self.etas))
        if not self.etas or not all(0.0 < e < math.inf for e in self.etas):
            raise ValueError("step grid must be nonempty, positive and finite")


class Objective:
    """An objective f with two optional hooks that replace probes of f.

    ``frac_gradient`` is an analytic fractional gradient, used by quadratic
    problems in place of quadrature.  ``eval_line(x, ts)`` gives f' and f''
    along every coordinate line of x, line i's K abscissae at
    ts[i K:(i + 1) K], as a (2, ts.size) array; with it the quadrature
    takes a Gauss-Jacobi rule (see fraccalc.frac_gradient_general).  With
    either hook the solvers need no QuadratureSpec.  The trapezoid rule
    probes ``fn`` directly; each run counts its own evaluations (see
    RunReport), so one objective can serve any number of runs.

    The solvers pass every point they evaluate as a read-only array that
    owns its data, so ``fn`` and ``frac_gradient`` may share work done at
    the same array object (problems.tikhonov_run_objective does).
    """

    def __init__(self, fn, frac_gradient=None, eval_line=None):
        self.fn = fn
        self.frac_gradient = frac_gradient
        self.eval_line = eval_line

    def eval(self, x):
        return float(self.fn(x))


@dataclass
class IterRecord:
    k: int
    f_value: float
    grad_norm: float
    step: float
    beta: float
    descent_inner: float
    cos_theta: float
    # the restart rule direction() named at this step, or None
    restart: str | None
    dist_to_reference: float | None = None

    @property
    def restarted(self):
        return self.restart is not None


@dataclass
class RunReport:
    status: RunStatus
    stop_reason: str
    iterations: int
    # this run's own evaluations: solver-level f values, fractional gradients
    objective_evals: int
    gradient_evals: int
    final_x: np.ndarray
    final_grad_norm: float
    trace: list


@dataclass(frozen=True)
class LineSearchResult:
    eta: float
    trials: int
    x_new: np.ndarray
    f_new: float
    g_new: np.ndarray


def beta_value(kind, g_k, g_prev, d_prev):
    """One of the five conjugate-direction couplings.

    PRP and HS return max(0, formula).  Returns None when the denominator
    is negligible relative to the numerator's terms (see direction).
    """
    kind = BetaKind(kind)
    g_k = np.asarray(g_k, dtype=float)
    g_prev = np.asarray(g_prev, dtype=float)
    d_prev = np.asarray(d_prev, dtype=float)
    gg = float(g_k @ g_k)

    if kind in (BetaKind.FR, BetaKind.PRP):
        den = float(g_prev @ g_prev)
    elif kind == BetaKind.CD:
        den = float(d_prev @ g_prev)
    else:  # DY, HS
        den = float(d_prev @ (g_k - g_prev))

    if kind in (BetaKind.FR, BetaKind.CD, BetaKind.DY):
        num = scale = gg
    else:
        gp = float(g_k @ g_prev)
        num, scale = gg - gp, gg + abs(gp)

    if abs(den) < DENOMINATOR_FLOOR * scale:
        return None

    if kind == BetaKind.CD:
        return -num / den
    if kind in (BetaKind.FR, BetaKind.DY):
        return num / den
    return max(0.0, num / den)  # PRP, HS


def direction(kind, g, g_prev, d_prev):
    """The CG direction at gradient g after the step along d_prev from
    g_prev: (d, beta, restart).  The first step (d_prev None) is -g and no
    restart.  After it the coupled -g + beta d_prev is taken unless a rule
    restarts along -g with beta 0, tested in this order: "staleness"
    (consecutive gradients nearly collinear), "underflow" (beta_value's
    denominator negligible), "descent" (fails the sufficient-descent test)
    and "norm cap" (d runs away from the gradient scale)."""
    g = np.asarray(g, dtype=float)
    if d_prev is None:
        return -g, 0.0, None
    gg = float(g @ g)
    if not abs(float(g @ g_prev)) < STALENESS_RESTART * gg:
        return -g, 0.0, "staleness"
    beta = beta_value(kind, g, g_prev, d_prev)
    if beta is None:
        return -g, 0.0, "underflow"
    d = -g + beta * np.asarray(d_prev, dtype=float)
    if float(g @ d) > -SUFFICIENT_DESCENT * gg:
        return -g, 0.0, "descent"
    if float(d @ d) > DIRECTION_NORM_CAP**2 * gg:
        return -g, 0.0, "norm cap"
    return d, beta, None


def armijo_wolfe_search(f, grad, x, d, g, params, f_x):
    """First step in {1, r, r^2, ...} meeting both line-search conditions.

    Sufficient decrease is checked on the objective against f_x, the
    caller's f at x, curvature on the fractional gradient at the trial
    point.  The gradient is evaluated only for candidates that already
    pass the decrease test, and the accepted candidate's f and gradient
    ride along in the result so the caller never re-evaluates them.
    Trial points are read-only (see Objective).
    """
    x = np.asarray(x, dtype=float)
    d = np.asarray(d, dtype=float)
    gd = float(g @ d)
    if gd >= 0.0:
        raise ValueError(f"not a descent direction: g'd = {gd:.3e} >= 0")
    eta = 1.0
    for j in range(params.max_trials):
        x_new = x + eta * d
        x_new.setflags(write=False)
        f_new = f.eval(x_new)
        if f_new <= f_x + params.c1 * eta * gd:
            g_new = grad(x_new)
            if float(g_new @ d) >= params.c2 * gd:
                return LineSearchResult(eta, j + 1, x_new, f_new, g_new)
        eta *= params.r
    raise LineSearchError(
        f"no step in {params.max_trials} trials (g'd = {gd:.3e})"
    )


def _distance(x, reference):
    if reference is None:
        return None
    e = x - reference
    return math.sqrt(e.dot(e))


def _minimize(f, x0, frac, kind, rule, stop, quad, reference, on_step):
    """The one iteration loop behind both solvers.

    kind is a BetaKind for conjugate directions, each step chosen by the
    Armijo-Wolfe search with rule a LineSearchParams; or None for steepest
    descent (beta = 0, d = -g, no restarts) with rule a GridStep, whose
    entries are all tried and the lowest trial value kept.  Steepest
    descent also stops after DIVERGENCE_STREAK consecutive objective
    increases ("divergence").  Every step evaluates the gradient once, at
    the accepted point.  A run whose f or gradient norm at the current
    point is not finite stops there with MaxIter and stop reason
    "non-finite".  on_step, if given, is called after each accepted step
    as on_step(record, x, g, d): the point and gradient the record
    describes and the direction taken from there (None for steepest
    descent).  They are the loop's own arrays, not copies; x is read-only,
    and a callback must not write to g or d either.
    """
    stop = stop or StopCriteria()
    hook = f.frac_gradient
    grads = 0

    def grad(x):
        nonlocal grads
        grads += 1
        if hook is not None:
            return np.asarray(hook(x), dtype=float)
        return frac_gradient_general(f, x, frac, quad)

    x = np.array(x0, dtype=float)
    x.setflags(write=False)
    f_x = f.eval(x)
    evals = 1
    g = grad(x)
    g_prev = d_prev = None
    increase_streak = 0
    trace = []

    status, reason, k = RunStatus.MAX_ITER, "max_iter", 0
    for k in range(stop.max_iter):
        # norms as sqrt(v.dot(v)), what np.linalg.norm computes for a 1-D
        # float array, without its dispatch
        gn = math.sqrt(g.dot(g))
        if not (math.isfinite(f_x) and math.isfinite(gn)):
            status, reason = RunStatus.MAX_ITER, "non-finite"
            break
        if gn < stop.grad_tol:
            status, reason = RunStatus.CONVERGED, "grad_tol"
            break

        if kind is None:
            # d = -g, so each trial point is x - eta g, bit for bit x + eta d
            d = restart = None
            beta, cos_theta = 0.0, 1.0
            descent_inner = -gn * gn
            for j, eta_j in enumerate(rule.etas):
                x_j = x - eta_j * g
                x_j.setflags(write=False)
                f_j = f.eval(x_j)
                # the first trial, then the first lowest; a kept nan stays,
                # so the non-finite guard stops the run
                if j == 0 or (f_new == f_new and not f_j >= f_new):
                    eta, x_new, f_new = eta_j, x_j, f_j
            evals += len(rule.etas)
            g_new = grad(x_new)
            increase_streak = increase_streak + 1 if f_new > f_x else 0
        else:
            d, beta, restart = direction(kind, g, g_prev, d_prev)
            descent_inner = float(g @ d)
            cos_theta = -descent_inner / (gn * math.sqrt(d.dot(d)))
            try:
                res = armijo_wolfe_search(f, grad, x, d, g, rule, f_x=f_x)
            except LineSearchError as exc:
                evals += rule.max_trials  # every trial was spent
                status, reason = RunStatus.LINE_SEARCH_FAILURE, str(exc)
                break
            evals += res.trials
            eta, x_new, f_new, g_new = res.eta, res.x_new, res.f_new, res.g_new
            g_prev, d_prev = g, d

        record = IterRecord(k, f_x, gn, eta, beta, descent_inner, cos_theta,
                            restart, _distance(x, reference))
        trace.append(record)
        if on_step is not None:
            on_step(record, x, g, d)

        decrease = f_x - f_new
        x, f_x, g = x_new, f_new, g_new
        if increase_streak >= DIVERGENCE_STREAK:
            status, reason, k = RunStatus.MAX_ITER, "divergence", k + 1
            break
        if stop.f_decrease_tol is not None and decrease < stop.f_decrease_tol:
            status, reason, k = RunStatus.CONVERGED, "f_decrease", k + 1
            break
    else:
        k = stop.max_iter

    gn = math.sqrt(g.dot(g))
    trace.append(IterRecord(k, f_x, gn, math.nan, math.nan, math.nan,
                            math.nan, None, _distance(x, reference)))
    # the iterate is a read-only trial point; the caller gets its own copy
    return RunReport(status, reason, k, evals, grads, x.copy(), gn, trace)


def cfcg_minimize(f, x0, frac, kind, stop=None, quad=None, reference=None,
                  on_step=None):
    """Fractional conjugate-gradient minimization; every step is chosen by
    armijo_wolfe_search with LineSearchParams()'s defaults.

    f          : Objective (analytic gradient hook or quadrature path)
    x0         : starting point
    frac       : FracParams
    kind       : BetaKind (or its string value)
    stop       : StopCriteria, defaulted when omitted
    quad       : QuadratureSpec of the trapezoid rule, needed only by an
                 objective with neither hook (else ValueError)
    reference  : optional point whose distance is logged per iteration
    on_step    : optional on_step(record, x, g, d) after each accepted step
    """
    return _minimize(f, x0, frac, BetaKind(kind), LineSearchParams(), stop,
                     quad, reference, on_step)


def cfsd_minimize(f, x0, frac, step_rule, stop=None, quad=None,
                  reference=None, on_step=None):
    """Fractional steepest descent: x <- x - eta * g, the beta = 0 case of
    the conjugate-gradient loop with a step rule in place of the search.

    step_rule is a GridStep: every entry is tried each iteration and the
    lowest trial value kept, so a one-entry grid is a fixed step whose
    evaluations exceed iterations by exactly one.  DIVERGENCE_STREAK
    consecutive increases stop the run (MaxIter, "divergence").
    quad is needed only by an objective with neither hook; on_step is
    cfcg_minimize's, with d None.
    """
    return _minimize(f, x0, frac, None, step_rule, stop, quad, reference,
                     on_step)

