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

from .fraccalc import frac_gradient_general

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
    "DenominatorUnderflow",
    "LineSearchError",
    "beta_value",
    "direction",
    "armijo_wolfe_search",
    "cfcg_minimize",
    "cfsd_minimize",
    "recheck_armijo_wolfe",
]

# sufficient-descent threshold r_d: accept d only if g'd <= -r_d ||g||^2
SUFFICIENT_DESCENT = 1e-8
# relative denominator floor for the beta formulas
DENOMINATOR_FLOOR = 1e-12
# restart when consecutive gradients are this collinear (stalled/cycling run)
STALENESS_RESTART = 0.95
# restart when the direction norm runs away from the gradient scale
DIRECTION_NORM_CAP = 1e6
# restart after a step that moved the iterate less than this (relative)
STALL_DISPLACEMENT = 1e-9
# restart after a line search that needed this many backtracks
STALL_TRIALS = 30
# consecutive objective increases tolerated by step-grid descent
DIVERGENCE_STREAK = 50


class BetaKind(str, enum.Enum):
    FR = "FR"
    CD = "CD"
    DY = "DY"
    PRP = "PRP"
    HS = "HS"

    #: kinds whose formula is clamped at zero
    @property
    def clamped(self):
        return self in (BetaKind.PRP, BetaKind.HS)


class RunStatus(str, enum.Enum):
    CONVERGED = "Converged"
    MAX_ITER = "MaxIter"
    LINE_SEARCH_FAILURE = "LineSearchFailure"


class DenominatorUnderflow(ArithmeticError):
    """A beta denominator is negligible against the numerator scale."""


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
        if self.max_trials < 1:
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
        if self.max_iter < 1:
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
    """An objective with instrumented call counters.

    ``eval`` increments ``objective_evals`` by exactly one per call; the
    quadrature path probes the function through ``eval_uncounted`` so
    counters reflect only the solver-level evaluations.  Two optional
    hooks replace probes of f.  ``frac_gradient`` is an analytic
    fractional gradient, used by quadratic problems in place of
    quadrature.  ``eval_line(x, ts)`` gives f' and f'' along every
    coordinate line of x, line i's K abscissae at ts[i K:(i + 1) K], as a
    (2, ts.size) array; with it the quadrature takes a Gauss-Jacobi rule
    (see fraccalc.frac_gradient_general).  Neither touches the counters,
    and with either the solvers need no QuadratureSpec.

    The solvers pass every point they evaluate as a read-only array that
    owns its data, so ``fn`` and ``frac_gradient`` may share work done at
    the same array object (problems.tikhonov_run_objective does).
    """

    def __init__(self, fn, frac_gradient=None, eval_line=None):
        self.fn = fn
        self.frac_gradient = frac_gradient
        if eval_line is not None:
            self.eval_line = eval_line
        self.objective_evals = 0
        self.gradient_evals = 0

    def eval(self, x):
        self.objective_evals += 1
        return float(self.fn(x))

    def eval_uncounted(self, x):
        return float(self.fn(x))

    def reset_counters(self):
        self.objective_evals = 0
        self.gradient_evals = 0


@dataclass
class IterRecord:
    k: int
    f_value: float
    grad_norm: float
    step: float
    beta: float
    descent_inner: float
    cos_theta: float
    restarted: bool
    dist_to_reference: float | None = None

    @property
    def is_terminal(self):
        return math.isnan(self.step)


@dataclass
class RunReport:
    status: RunStatus
    stop_reason: str
    iterations: int
    objective_evals: int
    gradient_evals: int
    final_x: np.ndarray
    final_grad_norm: float
    trace: list
    # populated only when the solver is asked to keep per-iteration vectors
    xs: list | None = None
    gs: list | None = None
    ds: list | None = None
    steps: list | None = None


@dataclass(frozen=True)
class LineSearchResult:
    eta: float
    trials: int
    x_new: np.ndarray
    f_new: float
    g_new: np.ndarray


def beta_value(kind, g_k, g_prev, d_prev):
    """One of the five conjugate-direction couplings.

    PRP and HS return max(0, formula).  Raises DenominatorUnderflow when
    the denominator is negligible relative to the numerator's terms;
    callers restart with beta = 0.
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
        raise DenominatorUnderflow(
            f"{kind.value} denominator {den:.3e} below floor for scale {scale:.3e}"
        )

    value = (-num if kind == BetaKind.CD else num) / den
    if kind.clamped:
        value = max(0.0, value)
    return value


def direction(g_k, beta, d_prev):
    """Conjugate direction -g + beta * d_prev with a steepest-descent
    fallback whenever the formula fails the sufficient-descent test (or
    its norm runs away); returns (d, restarted)."""
    g_k = np.asarray(g_k, dtype=float)
    if d_prev is None:
        return -g_k, False
    d = -g_k + beta * np.asarray(d_prev, dtype=float)
    gn2 = float(g_k @ g_k)
    if (float(g_k @ d) > -SUFFICIENT_DESCENT * gn2
            or float(d @ d) > (DIRECTION_NORM_CAP**2) * gn2):
        return -g_k, True
    return d, False


def armijo_wolfe_search(f, grad, x, d, g, params, f_x=None):
    """First step in {1, r, r^2, ...} meeting both line-search conditions.

    Sufficient decrease is checked on the objective, curvature on the
    fractional gradient at the trial point.  The gradient is evaluated
    only for candidates that already pass the decrease test, and the
    accepted candidate's f and gradient ride along in the result so the
    caller never re-evaluates them.  Trial points are read-only (see
    Objective).
    """
    x = np.asarray(x, dtype=float)
    d = np.asarray(d, dtype=float)
    gd = float(g @ d)
    if gd >= 0.0:
        raise ValueError(f"not a descent direction: g'd = {gd:.3e} >= 0")
    if f_x is None:
        f_x = f.eval(x)
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


def _minimize(f, x0, frac, kind, rule, stop, quad, reference, keep_vectors):
    """The one iteration loop behind both solvers.

    kind is a BetaKind for conjugate directions, each step chosen by the
    Armijo-Wolfe search with rule a LineSearchParams; or None for steepest
    descent (beta = 0, d = -g, no restarts) with rule a GridStep, whose
    entries are all tried and the lowest trial value kept.  Steepest
    descent also stops after DIVERGENCE_STREAK consecutive objective
    increases ("divergence").  Every step evaluates the gradient once, at
    the accepted point.  A run whose f or gradient norm at the current
    point is not finite stops there with MaxIter and stop reason
    "non-finite".
    """
    stop = stop or StopCriteria()
    hook = f.frac_gradient
    etas = rule.etas if kind is None else None

    def grad(x):
        f.gradient_evals += 1
        if hook is not None:
            return np.asarray(hook(x), dtype=float)
        return frac_gradient_general(f, x, frac, quad)

    x = np.array(x0, dtype=float)
    x.setflags(write=False)
    f_x = f.eval(x)
    g = grad(x)
    g_prev = d_prev = None
    force_restart = False
    increase_streak = 0
    trace = []
    # g, d and the steps are kept for recheck_armijo_wolfe, so only when a
    # line search chose the steps
    keep_search = keep_vectors and kind is not None
    xs = [x.copy()] if keep_vectors else None
    gs = [g.copy()] if keep_search else None
    ds = [] if keep_search else None
    steps = [] if keep_search else None

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
            restarted, beta, cos_theta = False, 0.0, 1.0
            descent_inner = -gn * gn
            eta = etas[0]
            x_new = x - eta * g
            x_new.setflags(write=False)
            f_new = f.eval(x_new)
            for eta_j in etas[1:]:
                x_j = x - eta_j * g
                x_j.setflags(write=False)
                f_j = f.eval(x_j)
                # the first nan trial is kept, so the non-finite guard stops
                # the run; else the first lowest
                if f_new == f_new and not f_j >= f_new:
                    eta, x_new, f_new = eta_j, x_j, f_j
            g_new = grad(x_new)
            increase_streak = increase_streak + 1 if f_new > f_x else 0
        else:
            restarted, beta = False, 0.0
            if d_prev is None:
                d = -g
            elif force_restart or abs(float(g @ g_prev)) >= STALENESS_RESTART * gn * gn:
                d, restarted = -g, True
            else:
                try:
                    beta = beta_value(kind, g, g_prev, d_prev)
                    d, restarted = direction(g, beta, d_prev)
                except DenominatorUnderflow:
                    d, restarted = -g, True
                if restarted:
                    beta = 0.0
            descent_inner = float(g @ d)
            d_norm = math.sqrt(d.dot(d))
            cos_theta = -descent_inner / (gn * d_norm)
            try:
                res = armijo_wolfe_search(f, grad, x, d, g, rule, f_x=f_x)
            except LineSearchError as exc:
                status, reason = RunStatus.LINE_SEARCH_FAILURE, str(exc)
                break
            eta, x_new, f_new, g_new = res.eta, res.x_new, res.f_new, res.g_new
            force_restart = (eta * d_norm < STALL_DISPLACEMENT
                             * (1.0 + math.sqrt(x.dot(x)))
                             or res.trials >= STALL_TRIALS)
            g_prev, d_prev = g, d

        trace.append(IterRecord(k, f_x, gn, eta, beta, descent_inner,
                                cos_theta, restarted, _distance(x, reference)))
        if keep_vectors:
            xs.append(x_new.copy())
        if keep_search:
            gs.append(g_new.copy())
            ds.append(d.copy())
            steps.append(eta)

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
                            math.nan, False, _distance(x, reference)))
    # the iterate is a read-only trial point; the caller gets its own copy
    return RunReport(status, reason, k, f.objective_evals,
                     f.gradient_evals, x.copy(), gn, trace, xs, gs, ds, steps)


def cfcg_minimize(f, x0, frac, kind, ls=None, stop=None, quad=None,
                  reference=None, keep_vectors=False):
    """Fractional conjugate-gradient minimization.

    f          : Objective (analytic gradient hook or quadrature path)
    x0         : starting point
    frac       : FracParams
    kind       : BetaKind (or its string value)
    ls, stop   : LineSearchParams / StopCriteria, defaulted when omitted
    quad       : QuadratureSpec of the trapezoid rule, needed only by an
                 objective with neither hook (else ValueError)
    reference  : optional point whose distance is logged per iteration
    keep_vectors : retain per-iteration x, g, d (for invariant replay)
    """
    return _minimize(f, x0, frac, BetaKind(kind), ls or LineSearchParams(),
                     stop, quad, reference, keep_vectors)


def cfsd_minimize(f, x0, frac, step_rule, stop=None, quad=None,
                  reference=None, keep_vectors=False):
    """Fractional steepest descent: x <- x - eta * g, the beta = 0 case of
    the conjugate-gradient loop with a step rule in place of the search.

    step_rule is a GridStep: every entry is tried each iteration and the
    lowest trial value kept, so a one-entry grid is a fixed step whose
    evaluations exceed iterations by exactly one.  DIVERGENCE_STREAK
    consecutive increases stop the run (MaxIter, "divergence").
    keep_vectors retains x only, so recheck_armijo_wolfe refuses it.
    quad is needed only by an objective with neither hook.
    """
    return _minimize(f, x0, frac, None, step_rule, stop, quad, reference,
                     keep_vectors)


def recheck_armijo_wolfe(report, f, grad, ls):
    """Re-evaluate both accepted-step conditions along a kept-vector run.

    Returns the smallest slack over all accepted steps (negative slack
    means a violated condition).  Evaluations here are uncounted probes.
    """
    if report.xs is None or report.ds is None:
        raise ValueError("run kept no line-search steps "
                         "(cfcg_minimize with keep_vectors=True)")
    worst = math.inf
    for x, g, d, eta in zip(report.xs, report.gs, report.ds, report.steps):
        gd = float(g @ d)
        x_new = x + eta * d
        armijo = (f.eval_uncounted(x) + ls.c1 * eta * gd) - f.eval_uncounted(x_new)
        wolfe = float(grad(x_new) @ d) - ls.c2 * gd
        worst = min(worst, armijo, wolfe)
    return worst
