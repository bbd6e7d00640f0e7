"""Outside-in span tracer for the per-layer metrics.

``Tracer.install`` replaces spectral_cheb's public functions and oracle
methods with wrappers that record a span per call: name, start, end, the
span that caused it, and counts measured at the call (matvec columns and
computed bytes, quadrature nodes, drawn degree, CG iterations).  Every
module's binding of a function is replaced, because ``optimize``,
``tasks``, ``cli`` and ``grad_est`` import functions by name.  Spans stay
in memory; ``metrics`` turns them into the per-layer numbers after the
run.  Nothing here changes what the wrapped code computes: the
benchmark checks that traced and untraced runs give bit-identical
outputs.

Matvec columns are counted at the innermost operator only.  A
``MatrixOracle`` whose matvec is a ``LowRankPSD``/``ParamMatrixOracle``
method (objective logging, the power method on a low-rank factor)
passes through untraced, so the inner operator's span carries the count.

A layer's self time is its span's duration minus the union of its child
spans' intervals.  Probe chunks run on worker threads when
SPECTRAL_CHEB_THREADS > 1; a span opened on such a thread takes the
main thread's innermost open span as its parent, and inclusive times of
such spans are summed over threads.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict

# span tuple fields
_ID, _PARENT, _NAME, _START, _END, _COLS, _BYTES, _EXTRA = range(8)

# spans whose matvec columns are attributed to a layer metric
_COL_OWNERS = ("grad_est.lowrank", "grad_est.generic", "optimize.objective_log")


def _operand_bytes(fn, index=None) -> int:
    """Bytes of the matrix a matvec closure multiplies by (0 if unknown)."""
    import numpy as np

    for cell in getattr(fn, "__closure__", None) or ():
        try:
            value = cell.cell_contents
        except ValueError:
            continue
        if index is not None and isinstance(value, (list, tuple)):
            value = value[index]
        if isinstance(value, np.ndarray):
            return value.nbytes
        parts = [getattr(value, a, None) for a in ("data", "indices", "indptr")]
        if all(isinstance(p, np.ndarray) for p in parts):
            return sum(p.nbytes for p in parts)
    return 0


def _cols(x) -> int:
    return 1 if x.ndim == 1 else x.shape[1]


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._undo: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, measure=None):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif stack is not self._main_stack and self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = 0
        sid = next(self._ids)
        stack.append(sid)
        result = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            cols, nbytes, extra = measure(args, kwargs, result) if measure else (0, 0, 0)
            self.spans.append((sid, parent, name, start, end, cols, nbytes, extra))

    def wrap(self, name, fn, measure=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, measure)

        return traced

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_function(self, original, replacement):
        """Rebind ``original`` in every spectral_cheb module that holds it."""
        for name, module in list(sys.modules.items()):
            if name != "spectral_cheb" and not name.startswith("spectral_cheb."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, replacement)

    def install(self) -> None:
        import scipy.sparse.linalg

        from spectral_cheb import chebyshev, degree_dist, grad_est, optimize, probes, tasks

        def drawn(args, kwargs, result):
            return 0, 0, -1 if result is None else int(result)

        def not_drawn(args, kwargs, result):
            return 0, 0, -1

        def stream(args, kwargs, result):
            return 0, 0, 1

        functions = {
            degree_dist.sample_degree: ("degree_dist.sample", drawn),
            probes.degree_rng: ("degree_dist.sample", not_drawn),
            degree_dist.weighted_coefficients: ("degree_dist.reweight", None),
            degree_dist.optimal_distribution: ("degree_dist.build", None),
            degree_dist.poisson_distribution: ("degree_dist.build", None),
            degree_dist.negbinomial_distribution: ("degree_dist.build", None),
            degree_dist.deterministic_distribution: ("degree_dist.build", None),
            probes.probe_rng: ("probes.probe_gen", stream),
            probes.rademacher_probe: ("probes.probe_gen", None),
            probes.estimate_spectral_sum_fixed: ("probes.estimate", None),
            probes.estimate_spectral_sum_unbiased: ("probes.estimate", None),
            probes.power_method_bound: ("probes.power", None),
            probes.load_matrix: ("probes.load", None),
            grad_est.grad_estimate_generic: ("grad_est.generic", None),
            grad_est.grad_estimate_lowrank: ("grad_est.lowrank", None),
            tasks.gp_negloglik: ("tasks.nll", None),
            tasks.completion_train: ("tasks.train", None),
            tasks.gp_train: ("tasks.train", None),
        }
        cli = sys.modules.get("spectral_cheb.cli")
        if cli is not None:
            functions[cli.main] = ("cli.main", None)
        for fn, (name, measure) in functions.items():
            self._replace_function(fn, self.wrap(name, fn, measure))
        self._replace_function(chebyshev.compute_coefficients,
                               self._wrap_coefficients(chebyshev.compute_coefficients))
        for fn in (optimize.sgd_run, optimize.svrg_run):
            self._replace_function(fn, self._wrap_optimizer(fn))

        self._wrap_operators(probes.MatrixOracle, grad_est.LowRankPSD, grad_est.ParamMatrixOracle)
        self._wrap_model(optimize.SpectralModel)
        self._set(tasks.GPProblem, "kernel", self.wrap("tasks.kernel", tasks.GPProblem.kernel))
        self._set(scipy.sparse.linalg, "cg", self._wrap_cg(scipy.sparse.linalg.cg))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _wrap_operators(self, matrix_oracle, low_rank, param_oracle):
        def lowrank_mv(args, kwargs, result):
            op, x = args
            return _cols(x), op.theta.nbytes + 16 * x.size, 0

        def param_mv(args, kwargs, result):
            op, x = args
            return _cols(x), _operand_bytes(op.apply) + 16 * x.size, 0

        def param_partial(args, kwargs, result):
            op, i, x = args
            return _cols(x), _operand_bytes(op.apply_partial, i) + 16 * x.size, 1

        def plain_mv(args, kwargs, result):
            op, x = args
            return _cols(x), _operand_bytes(op.matvec) + 16 * x.size, 0

        self._set(low_rank, "mv", self.wrap("probes.matvec", low_rank.mv, lowrank_mv))
        self._set(param_oracle, "mv", self.wrap("probes.matvec", param_oracle.mv, param_mv))
        self._set(param_oracle, "mv_partial",
                  self.wrap("probes.matvec", param_oracle.mv_partial, param_partial))

        apply = matrix_oracle.apply
        traced_apply = self.wrap("probes.matvec", apply, plain_mv)
        inner = (low_rank, param_oracle)

        @functools.wraps(apply)
        def apply_innermost(op, x):
            if isinstance(getattr(op.matvec, "__self__", None), inner):
                return apply(op, x)
            return traced_apply(op, x)

        self._set(matrix_oracle, "apply", apply_innermost)

    def _wrap_model(self, model_cls):
        tracer = self
        init = model_cls.__init__

        @functools.wraps(init)
        def traced_init(model, *args, **kwargs):
            init(model, *args, **kwargs)
            model.oracle_at = tracer.wrap("tasks.oracle_at", model.oracle_at)
            model.refresh = tracer.wrap("optimize.refresh", model.refresh)
            if model.extend_series is not None:
                model.extend_series = tracer.wrap("optimize.extend", model.extend_series)

        self._set(model_cls, "__init__", traced_init)
        for method in ("ensure", "grad_sample"):
            self._set(model_cls, method, self.wrap("optimize.model", getattr(model_cls, method)))
        self._set(model_cls, "objective_estimate",
                  self.wrap("optimize.objective_log", model_cls.objective_estimate))

    def _wrap_optimizer(self, run):
        """Trace the optimizer and the task callables passed into it, so
        the data term, the anchor gradient and the callback are not billed
        as optimizer overhead."""
        tracer = self
        signature = inspect.signature(run)

        @functools.wraps(run)
        def traced(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            arguments = bound.arguments
            obj = arguments["obj"]
            arguments["obj"] = dataclasses.replace(
                obj,
                g_value=tracer.wrap("tasks.data_term", obj.g_value),
                g_grad=tracer.wrap("tasks.data_term", obj.g_grad),
                projection=tracer.wrap("tasks.projection", obj.projection),
            )
            if arguments.get("exact_grad") is not None:
                arguments["exact_grad"] = tracer.wrap("reference.anchor_grad",
                                                      arguments["exact_grad"])
            if arguments.get("callback") is not None:
                arguments["callback"] = tracer.wrap("tasks.callback", arguments["callback"])
            return tracer.call("optimize.run", run, bound.args, bound.kwargs)

        return traced

    def _wrap_coefficients(self, compute):
        """Count the points at which the expanded function is evaluated."""
        import numpy as np

        tracer = self
        signature = inspect.signature(compute)

        @functools.wraps(compute)
        def traced(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            f = bound.arguments["f"]
            nodes = [0]

            def counted(x):
                nodes[0] += np.size(x)
                return f(x)

            bound.arguments["f"] = counted
            return tracer.call("chebyshev.coeff", compute, bound.args, bound.kwargs,
                               lambda *_: (0, 0, nodes[0]))

        return traced

    def _wrap_cg(self, cg):
        tracer = self

        @functools.wraps(cg)
        def traced(a_mat, rhs, *args, **kwargs):
            iterations = [0]
            user_callback = kwargs.get("callback")

            def count(xk):
                iterations[0] += 1
                if user_callback is not None:
                    user_callback(xk)

            kwargs["callback"] = count
            return tracer.call("tasks.cg", cg, (a_mat, rhs) + args, kwargs,
                               lambda *_: (0, 0, iterations[0]))

        return traced

    # -- aggregation -------------------------------------------------------

    def metrics(self) -> dict:
        spans = self.spans
        by_id = {s[_ID]: s for s in spans}
        children = defaultdict(list)
        for s in spans:
            children[s[_PARENT]].append(s)

        def self_time(s) -> float:
            start, end = s[_START], s[_END]
            covered, cursor = 0.0, start
            for lo, hi in sorted((max(c[_START], start), min(c[_END], end))
                                 for c in children[s[_ID]]):
                lo = max(lo, cursor)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            return (end - start) - covered

        inclusive = defaultdict(float)
        own = defaultdict(float)
        calls = defaultdict(int)
        for s in spans:
            inclusive[s[_NAME]] += s[_END] - s[_START]
            calls[s[_NAME]] += 1
        for name in ("probes.estimate", "grad_est.lowrank", "grad_est.generic",
                     "optimize.run", "optimize.model", "cli.main"):
            own[name] = sum(self_time(s) for s in spans if s[_NAME] == name)

        owner_of: dict[int, str | None] = {}

        def owner(sid: int):
            path = []
            found = None
            while sid and sid not in owner_of:
                s = by_id.get(sid)
                if s is None:
                    break
                if s[_NAME] in _COL_OWNERS:
                    found = s[_NAME]
                    break
                path.append(sid)
                sid = s[_PARENT]
            else:
                found = owner_of.get(sid)
            for p in path:
                owner_of[p] = found
            return found

        cols = defaultdict(int)
        matvec_cols = matvec_bytes = 0
        for s in spans:
            if s[_NAME] != "probes.matvec":
                continue
            matvec_cols += s[_COLS]
            matvec_bytes += s[_BYTES]
            where = owner(s[_PARENT])
            if where == "grad_est.generic":
                where += ".partial" if s[_EXTRA] else ".a"
            cols[where] += s[_COLS]

        draws = [s[_EXTRA] for s in spans
                 if s[_NAME] == "degree_dist.sample" and s[_EXTRA] >= 0]
        ms = 1e3
        matvec_ms = inclusive["probes.matvec"] * ms
        return {
            "chebyshev.coeff_calls": calls["chebyshev.coeff"],
            "chebyshev.coeff_ms": inclusive["chebyshev.coeff"] * ms,
            "chebyshev.coeff_nodes": sum(s[_EXTRA] for s in spans
                                         if s[_NAME] == "chebyshev.coeff"),
            "degree_dist.reweight_ms": inclusive["degree_dist.reweight"] * ms,
            "degree_dist.sample_ms": inclusive["degree_dist.sample"] * ms,
            "degree_dist.build_ms": inclusive["degree_dist.build"] * ms,
            "degree_dist.degrees_drawn": len(draws),
            "degree_dist.max_degree": max(draws, default=0),
            "probes.probe_streams": sum(s[_EXTRA] for s in spans
                                        if s[_NAME] == "probes.probe_gen"),
            "probes.probe_gen_ms": inclusive["probes.probe_gen"] * ms,
            "probes.recurrence_ms": own["probes.estimate"] * ms,
            "probes.matvec_cols": matvec_cols,
            "probes.matvec_ms": matvec_ms,
            "probes.ms_per_matvec_col": matvec_ms / matvec_cols if matvec_cols else 0.0,
            "probes.matvec_bytes_computed": matvec_bytes,
            "probes.power_ms": inclusive["probes.power"] * ms,
            "probes.load_ms": inclusive["probes.load"] * ms,
            "grad_est.lowrank_self_ms": own["grad_est.lowrank"] * ms,
            "grad_est.lowrank_cols": cols["grad_est.lowrank"],
            "grad_est.generic_self_ms": own["grad_est.generic"] * ms,
            "grad_est.a_cols": cols["grad_est.generic.a"],
            "grad_est.partial_cols": cols["grad_est.generic.partial"],
            "optimize.objective_log_ms": inclusive["optimize.objective_log"] * ms,
            "optimize.objective_log_cols": cols["optimize.objective_log"],
            "optimize.refresh_calls": calls["optimize.refresh"],
            "optimize.refresh_ms": inclusive["optimize.refresh"] * ms,
            "optimize.overhead_ms": (own["optimize.run"] + own["optimize.model"]) * ms,
            "tasks.cg_calls": calls["tasks.cg"],
            "tasks.cg_iters": sum(s[_EXTRA] for s in spans if s[_NAME] == "tasks.cg"),
            "tasks.cg_ms": inclusive["tasks.cg"] * ms,
            "tasks.data_term_ms": inclusive["tasks.data_term"] * ms,
            "tasks.kernel_ms": inclusive["tasks.kernel"] * ms,
            "tasks.nll_curve_ms": inclusive["tasks.nll"] * ms,
            "tasks.oracle_build_ms": inclusive["tasks.oracle_at"] * ms,
            "reference.anchor_grad_ms": inclusive["reference.anchor_grad"] * ms,
            "cli.self_ms": own["cli.main"] * ms,
        }
