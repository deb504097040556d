"""Span tracing of the ``cfcg`` layers, installed from outside the package.

``Tracer.install`` replaces public functions of ``cfcg.cli``,
``cfcg.engine``, ``cfcg.fraccalc``, ``cfcg.problems`` and ``cfcg.tikhonov``
by timing wrappers.  A function is replaced under every module attribute
that refers to it, so calls through ``from .x import f`` bindings are seen
too.  ``uninstall`` puts the originals back.  Nothing in ``src/cfcg`` is
edited, and a hook that no longer exists is skipped, so its metrics read 0.

Spans are kept in memory as ``[name, start, end, parent, cell, note]`` and
written out by ``write_spans`` after the run.  A cell is one sweep cell
(``_example1_cell``) or, where that hook is absent, one solver call; every
span inside it carries the cell's id.
"""

from __future__ import annotations

import csv
import os
import statistics
import time

LAYERS = ("cli", "engine", "fraccalc", "problems", "tikhonov")

QUAD = "fraccalc.frac_gradient_general"
CLOSED = "fraccalc.frac_gradient_quadratic"
SEARCH = "engine.armijo_wolfe_search"
SOLVERS = ("engine.cfcg_minimize", "engine.cfsd_minimize")
CELLS = ("cli._example1_cell",) + SOLVERS
EVAL = "engine.Objective.eval"
EVAL_LINE = "problems.eval_line"
IO = ("cli.write_rows", "cli.write_trace_csv")
BUILD = ("problems.gen_example1", "problems.mlp_objective",
         "problems.mlp_init", "problems.mlp_lower_terminal")


def _file_size(out, args, kwargs):
    path = args[1] if len(args) > 1 else kwargs.get("path")
    return os.path.getsize(path) if os.path.exists(path) else 0


def _trace_note(out, args, kwargs):
    # (rows, bytes) of one trace file
    return (len(args[0]), _file_size(out, args, kwargs))


def _search_trials(out, args, kwargs):
    if out is None:  # LineSearchError: every trial was spent
        params = args[5] if len(args) > 5 else kwargs["params"]
        return (params.max_trials, False)
    return (out.trials, True)


def _solve_note(out, args, kwargs):
    if out is None:
        return None
    restarts = sum(1 for rec in out.trace[:-1] if rec.restarted)
    return (out.gradient_evals, len(out.trace) - 1, restarts)


def _line_points(out, args, kwargs):
    ts = args[2] if len(args) > 2 else kwargs["ts"]
    return len(ts)


# (module, attribute, span name, note) for every wrapped function; the note
# turns a call's result into the counts that the metrics need
HOOKS = (
    ("cli", "main", "cli.main", None),
    ("cli", "load_config", "cli.load_config", None),
    ("cli", "run_example1", "cli.run_example1", None),
    ("cli", "run_example2", "cli.run_example2", None),
    ("cli", "run_single", "cli.run_single", None),
    ("cli", "_example1_cell", "cli._example1_cell", None),
    ("cli", "write_rows", "cli.write_rows", _file_size),
    ("cli", "write_trace_csv", "cli.write_trace_csv", _trace_note),
    ("engine", "cfcg_minimize", "engine.cfcg_minimize", _solve_note),
    ("engine", "cfsd_minimize", "engine.cfsd_minimize", _solve_note),
    ("engine", "armijo_wolfe_search", SEARCH, _search_trials),
    ("fraccalc", "frac_gradient_general", QUAD, None),
    ("fraccalc", "frac_gradient_quadratic", CLOSED, None),
    ("problems", "gen_example1", "problems.gen_example1", None),
    ("problems", "mlp_objective", "problems.mlp_objective", None),
    ("problems", "mlp_init", "problems.mlp_init", None),
    ("problems", "mlp_lower_terminal", "problems.mlp_lower_terminal", None),
    ("problems", "stacked_problem", "problems.stacked_problem", None),
    ("problems", "tikhonov_run_objective", "problems.tikhonov_run_objective",
     None),
    ("tikhonov", "tikhonov_solution", "tikhonov.tikhonov_solution", None),
    ("tikhonov", "abar_matrix", "tikhonov.abar_matrix", None),
    ("tikhonov", "check_Abar_pd", "tikhonov.check_Abar_pd", None),
    ("tikhonov", "build_quadratic", "tikhonov.build_quadratic", None),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.cell = None
        self.cells = 0
        self._undo = []

    def wrap(self, name, fn, note=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        opens_cell = name in CELLS

        def traced(*args, **kwargs):
            new_cell = opens_cell and self.cell is None
            if new_cell:
                self.cell = self.cells
                self.cells += 1
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.cell, None]
            stack.append(len(spans))
            spans.append(rec)
            out = None
            try:
                rec[1] = clock()
                out = fn(*args, **kwargs)
                return out
            finally:
                rec[2] = clock()
                stack.pop()
                if new_cell:
                    self.cell = None
                if note is not None:
                    rec[5] = note(out, args, kwargs)

        traced.__wrapped__ = fn
        return traced

    def _replace(self, modules, original, wrapper):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, original))

    def install(self, cfcg):
        """Wrap every hook present in the imported ``cfcg`` package."""
        modules = {name: getattr(cfcg, name) for name in LAYERS}
        everything = [cfcg, *modules.values()]
        for module, attr, name, note in HOOKS:
            original = getattr(modules[module], attr, None)
            if callable(original):
                self._replace(everything, original, self.wrap(name, original, note))

        objective = getattr(modules["engine"], "Objective", None)
        if objective is None:
            return
        if callable(getattr(objective, "eval", None)):
            self._undo.append((objective, "eval", objective.eval))
            objective.eval = self.wrap(EVAL, objective.eval)
        # eval_line is a closure stored on each instance; wrap it as the
        # instance is built
        init = objective.__init__
        tracer = self

        def traced_init(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            line = obj.__dict__.get("eval_line")
            if line is not None:
                obj.eval_line = tracer.wrap(EVAL_LINE, line, _line_points)

        self._undo.append((objective, "__init__", init))
        objective.__init__ = traced_init

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def write_spans(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("id", "name", "start_s", "end_s", "parent", "cell",
                             "note"))
            for i, (name, t0, t1, parent, cell, note) in enumerate(self.spans):
                writer.writerow((i, name, "%.9f" % t0, "%.9f" % t1, parent,
                                 "" if cell is None else cell,
                                 "" if note is None else note))


def layer_metrics(spans, traced_calls):
    """Per-layer totals over the traced entry calls, as {name: value}.

    Times and counts are divided by ``traced_calls`` so that they are per
    entry call; ratios are taken over the pooled spans.
    """
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    names = [s[0] for s in spans]
    parent_name = [names[s[3]] if s[3] >= 0 else "" for s in spans]

    def select(*wanted):
        return [i for i in range(n) if names[i] in wanted]

    def total(idx):
        return sum(dur[i] for i in idx)

    def self_time(idx):
        return sum(dur[i] - child[i] for i in idx)

    quad = select(QUAD)
    closed = select(CLOSED)
    lines = select(EVAL_LINE)
    searches = select(SEARCH)
    solves = select(*SOLVERS)
    evals = select(EVAL)
    io = select(*IO)
    builds = select(*BUILD)
    setup = [i for i in range(n)
             if names[i].startswith("tikhonov.") and spans[i][4] is not None
             and not parent_name[i].startswith("tikhonov.")]

    points = sum(spans[i][5] for i in lines)
    trials = [spans[i][5] for i in searches]
    accepted = sum(1 for t in trials if t[1])
    ls_grads = sum(1 for i in quad + closed if parent_name[i] == SEARCH)
    solve_notes = [spans[i][5] for i in solves if spans[i][5] is not None]
    cg_notes = [spans[i][5] for i in select(SOLVERS[0]) if spans[i][5] is not None]
    cg_iters = sum(nt[1] for nt in cg_notes)
    trace_notes = [spans[i][5] for i in select(IO[1])]
    line_s = total(lines)
    per = 1.0 / max(traced_calls, 1)

    layer_self = dict.fromkeys(LAYERS, 0.0)
    for i in range(n):
        layer_self[names[i].split(".", 1)[0]] += dur[i] - child[i]

    m = {
        "fraccalc.quad_grad_s": total(quad) * per,
        "fraccalc.quad_grad_calls": len(quad) * per,
        "fraccalc.quad_grad_ms.p50": (statistics.median(dur[i] for i in quad) * 1e3
                                      if quad else 0.0),
        "fraccalc.quad_self_s": self_time(quad) * per,
        "problems.eval_line_s": line_s * per,
        "problems.eval_line_calls": len(lines) * per,
        "problems.line_points": points * per,
        "problems.ns_per_point": line_s / points * 1e9 if points else 0.0,
        "fraccalc.closed_grad_s": total(closed) * per,
        "fraccalc.closed_grad_calls": len(closed) * per,
        "tikhonov.setup_s": total(setup) * per,
        "tikhonov.setup_calls": len(setup) * per,
        "engine.objective_eval_s": total(evals) * per,
        "engine.objective_evals": len(evals) * per,
        "engine.gradient_evals": sum(nt[0] for nt in solve_notes) * per,
        "engine.solve_s": total(solves) * per,
        "engine.self_s": self_time(solves) * per,
        "engine.line_search_s": total(searches) * per,
        "engine.line_search_self_s": self_time(searches) * per,
        "engine.line_search_calls": len(searches) * per,
        "engine.ls_trials_per_search": (sum(t[0] for t in trials) / len(trials)
                                        if trials else 0.0),
        "engine.wolfe_reject_share": ((ls_grads - accepted) / ls_grads
                                      if ls_grads else 0.0),
        "engine.restart_share": (sum(nt[2] for nt in cg_notes) / cg_iters
                                 if cg_iters else 0.0),
        "cli.io_s": total(io) * per,
        "cli.trace_rows": sum(t[0] for t in trace_notes) * per,
        "cli.bytes_written": (sum(t[1] for t in trace_notes)
                              + sum(spans[i][5] for i in select(IO[0]))) * per,
        "cli.self_s": (layer_self["cli"] - self_time(io)) * per,
        "problems.build_s": total(builds) * per,
        "trace.cells": len({s[4] for s in spans if s[4] is not None}) * per,
        "trace.spans": n * per,
    }
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = layer_self[layer] * per
    return m
