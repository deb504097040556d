"""Per-step replays of solver runs, for the tests of the paper's per-step
invariants: a collector for the solvers' on_step callback, and the
reference Armijo-Wolfe replay over what it collected."""

import math


def run_with_steps(solve, *args, **kwargs):
    """solve(*args, **kwargs) with an on_step collector: (report, steps),
    steps holding one (record, x, g, d) per accepted step, so the step
    taken is record.step and the next point is the next step's x (the
    last step's is report.final_x)."""
    steps = []
    report = solve(*args, on_step=lambda *step: steps.append(step), **kwargs)
    return report, steps


def recheck_armijo_wolfe(steps, f, grad, ls):
    """Re-evaluate both line-search conditions at every collected step of
    a CFCG run: the smallest slack over all of them, negative where a
    condition fails."""
    worst = math.inf
    for record, x, g, d in steps:
        eta = record.step
        gd = float(g @ d)
        x_new = x + eta * d
        armijo = (f.eval(x) + ls.c1 * eta * gd) - f.eval(x_new)
        wolfe = float(grad(x_new) @ d) - ls.c2 * gd
        worst = min(worst, armijo, wolfe)
    return worst
