"""Spans around corrconc's public functions, recorded from outside.

Nothing under ``src/`` is edited.  Each traced function is replaced, at
every module attribute it is called through, by a wrapper that records a
span (name, start, end, parent span, command id) in memory.  Counts that
the per-layer metrics need (series terms, replications, integrand
evaluations, exceptions leaving a layer) are taken at the same
boundaries.  ``uninstall`` puts the original functions back.
"""

from __future__ import annotations

import importlib
from collections import Counter
from time import perf_counter

import numpy as np

# (module the name is looked up in, attribute, span name).  Library
# functions are wrapped in ``corrconc.cli``, where commands call them, and
# again wherever another layer calls them, so nested calls get spans too.
TRACED = (
    ("corrconc.cli", "main", "cli.main"),
    ("corrconc.cli", "moment", "exactdist.moment"),
    ("corrconc.cli", "moment_quadrature", "exactdist.moment_quadrature"),
    ("corrconc.cli", "density_at", "exactdist.density_at"),
    ("corrconc.cli", "run_experiment", "mcsim.run_experiment"),
    ("corrconc.cli", "coverage_interval", "conc.coverage_interval"),
    ("corrconc.cli", "tail_bound", "conc.tail_bound"),
    ("corrconc.cli", "tail_bound_clamped", "conc.tail_bound_clamped"),
    ("corrconc.cli", "mean_approx", "approx.mean_approx"),
    ("corrconc.cli", "var_approx", "approx.var_approx"),
    ("corrconc.cli", "variance_bounds", "approx.variance_bounds"),
    ("corrconc.mcsim", "simulate_r_values", "mcsim.simulate_r_values"),
    ("corrconc.mcsim", "coverage_interval", "conc.coverage_interval"),
    ("corrconc.exactdist", "density_at", "exactdist.density_at"),
    ("corrconc.exactdist", "moment", "exactdist.moment"),
    ("corrconc.exactdist", "log_gamma", "gammakit.log_gamma"),
    ("corrconc.gammakit", "log_gamma", "gammakit.log_gamma"),
    ("corrconc.conc", "tail_bound", "conc.tail_bound"),
    ("corrconc.conc", "coverage_interval", "conc.coverage_interval"),
)


class Tracer:
    """Span recorder.  One instance per traced pass; ``command_id`` is
    the command id that new spans carry."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # Flat span columns: id is the index.
        self.name_id: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.cmd: list[int] = []
        self.command_id = -1
        self.calls: Counter = Counter()
        self.busy: Counter = Counter()   # seconds inside spans of a name
        self.self_time: Counter = Counter()  # busy minus child spans
        self.edges: Counter = Counter()  # (parent name, child name) -> calls
        self.counts: Counter = Counter()
        self.failures: Counter = Counter()  # (layer, exception type) -> count
        self._stack: list[list] = []  # [span id, name, start, child seconds]
        self._saved: list[tuple] = []

    def _nid(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn):
        nid = self._nid(name)
        layer = name.split(".", 1)[0]
        stack = self._stack
        on_result = _ON_RESULT.get(name)

        def traced(*args, **kwargs):
            sid = len(self.start)
            self.start.append(0.0)
            self.end.append(0.0)
            self.name_id.append(nid)
            self.parent.append(stack[-1][0] if stack else -1)
            self.cmd.append(self.command_id)
            frame = [sid, name, perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(frame)
                parent_layer = stack[-1][1].split(".", 1)[0] if stack else None
                if parent_layer != layer:
                    self.failures[(layer, type(exc).__name__)] += 1
                if name == "exactdist.moment" and hasattr(exc, "terms_used"):
                    self.counts["exactdist.moment.terms"] += exc.terms_used
                raise
            self._close(frame)
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _close(self, frame):
        end = perf_counter()
        stack = self._stack
        stack.pop()
        sid, name, start, child = frame
        dur = end - start
        self.start[sid] = start
        self.end[sid] = end
        self.calls[name] += 1
        self.busy[name] += dur
        self.self_time[name] += dur - child
        if stack:
            stack[-1][3] += dur
            self.edges[(stack[-1][1], name)] += 1
        else:
            self.edges[(None, name)] += 1

    def _wrap_quad(self, quad):
        counts = self.counts

        def traced_quad(func, a, b, *args, **kwargs):
            def counted(x, *fargs):
                counts["exactdist.quad.integrand_evals"] += 1
                return func(x, *fargs)

            return quad(counted, a, b, *args, **kwargs)

        traced_quad.__wrapped__ = quad
        return traced_quad

    def install(self) -> None:
        for module_name, attr, span_name in TRACED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(span_name, original))
        exactdist = importlib.import_module("corrconc.exactdist")
        self._saved.append((exactdist, "quad", exactdist.quad))
        exactdist.quad = self._wrap_quad(exactdist.quad)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def write(self, path) -> int:
        """Write the spans to ``path`` (.npz) and return how many."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.array(self.name_id, dtype=np.int32),
            start=np.array(self.start),
            end=np.array(self.end),
            parent=np.array(self.parent, dtype=np.int64),
            command=np.array(self.cmd, dtype=np.int32),
        )
        return len(self.start)


def _count_terms(tracer, args, kwargs, result):
    tracer.counts["exactdist.moment.terms"] += result.terms_used


def _count_reps(tracer, args, kwargs, result):
    tracer.counts["mcsim.simulate_r_values.reps"] += len(result)


def _count_inversions(tracer, args, kwargs, result):
    params = args[1] if len(args) > 1 else kwargs["params"]
    kind = args[0] if args else kwargs["kind"]
    if kind.value == "bernstein" and not params.is_degenerate:
        tracer.counts["conc.bernstein_inversions"] += 1


_ON_RESULT = {
    "exactdist.moment": _count_terms,
    "mcsim.simulate_r_values": _count_reps,
    "conc.coverage_interval": _count_inversions,
}


def layer_metrics(tr: Tracer, commands: int, overhead_share: float) -> dict[str, float]:
    """The per-layer metrics of one traced pass.  A rate over zero calls
    is reported as 0: the layer did no work on that workload."""

    def per(total, count, scale):
        return total * scale / count if count else 0.0

    ms, us, ns = 1e3, 1e6, 1e9
    approx_calls = sum(c for k, c in tr.calls.items() if k.startswith("approx."))
    approx_busy = sum(b for k, b in tr.busy.items() if k.startswith("approx."))
    reps = tr.counts["mcsim.simulate_r_values.reps"]
    terms = tr.counts["exactdist.moment.terms"]
    quad_calls = tr.calls["exactdist.moment_quadrature"]
    exact_failures = {t: c for (layer, t), c in tr.failures.items() if layer == "exactdist"}
    known = ("SeriesTruncationError", "QuadratureError", "OverflowError")
    metrics = {
        "mcsim.simulate_r_values.us_per_rep": per(tr.busy["mcsim.simulate_r_values"], reps, us),
        "mcsim.simulate_r_values.reps": float(reps),
        "mcsim.run_experiment.self_ms": tr.self_time["mcsim.run_experiment"] * ms,
        "exactdist.moment.calls": float(tr.calls["exactdist.moment"]),
        "exactdist.moment.terms": float(terms),
        "exactdist.moment.ns_per_term": per(tr.busy["exactdist.moment"], terms, ns),
        "exactdist.moment_quadrature.calls": float(quad_calls),
        "exactdist.moment_quadrature.self_ms": tr.self_time["exactdist.moment_quadrature"] * ms,
        "exactdist.moment_quadrature.integrand_evals_per_call": per(
            tr.counts["exactdist.quad.integrand_evals"], quad_calls, 1.0
        ),
        "exactdist.density_at.calls": float(tr.calls["exactdist.density_at"]),
        "exactdist.density_at.us_per_call": per(
            tr.busy["exactdist.density_at"], tr.calls["exactdist.density_at"], us
        ),
        "gammakit.log_gamma.calls": float(tr.calls["gammakit.log_gamma"]),
        "gammakit.log_gamma.us_per_call": per(
            tr.busy["gammakit.log_gamma"], tr.calls["gammakit.log_gamma"], us
        ),
        "conc.coverage_interval.calls": float(tr.calls["conc.coverage_interval"]),
        "conc.coverage_interval.us_per_call": per(
            tr.busy["conc.coverage_interval"], tr.calls["conc.coverage_interval"], us
        ),
        "conc.tail_bound.evals_per_inversion": per(
            tr.edges[("conc.coverage_interval", "conc.tail_bound")],
            tr.counts["conc.bernstein_inversions"], 1.0,
        ),
        "approx.calls": float(approx_calls),
        "approx.us_per_call": per(approx_busy, approx_calls, us),
        "cli.self_ms_per_cmd": per(tr.self_time["cli.main"], commands, ms),
        "trace.overhead_share": overhead_share,
    }
    for t in known:
        metrics[f"exactdist.failures.{t}"] = float(exact_failures.get(t, 0))
    metrics["exactdist.failures.other"] = float(
        sum(c for t, c in exact_failures.items() if t not in known)
    )
    return metrics
