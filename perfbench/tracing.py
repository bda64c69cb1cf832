"""Per-layer tracing of seqeve, installed from outside the package.

``Tracer.install`` replaces each traced function on every module attribute
that holds it (a function imported with ``from .x import f`` has one binding
per importing module, and a wrapper on only one of them reads 0 for callers
of the others) and ``Tracer.restore`` puts the originals back.

Spans record (id, name, start, end, parent id, request id).  They are kept
in memory and written out when the benchmark ends.  A span's self time is
its duration minus the durations of its child spans; calls are nested on one
thread, so children never overlap.  ``linalg.kron`` is only counted, so the
overhead on the innermost call stays small.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# Span name -> (module, function) traced under it.  The four measurement
# operators are reported together as measurement.operator.
SPAN_FUNCTIONS = {
    "measurement.projector": ("seqeve.measurement", "projector"),
    "measurement.effect": ("seqeve.measurement", "effect"),
    "measurement.sqrt_effect": ("seqeve.measurement", "sqrt_effect"),
    "measurement.weak_kraus": ("seqeve.measurement", "weak_kraus"),
    "chain.propagate": ("seqeve.chain", "propagate"),
    "chain.table": ("seqeve.chain", "table_from_operators"),
    "steering.report": ("seqeve.steering", "report"),
    "steering.report_from_table": ("seqeve.steering", "report_from_table"),
    "planner.max_eves": ("seqeve.planner", "max_eves"),
    "unbounded.branch_tree": ("seqeve.unbounded", "branch_tree"),
    "unbounded.schmidt_decompose": ("seqeve.unbounded", "schmidt_decompose"),
    "unbounded.evaluate_branch": ("seqeve.unbounded", "evaluate_branch"),
    "scenario.load": ("seqeve.scenario", "load_scenario"),
    "cli.write_rows": ("seqeve.cli", "_write_rows"),
}
MEASUREMENT_OPERATORS = tuple(n for n in SPAN_FUNCTIONS if n.startswith("measurement."))
REQUEST_SPAN = "request"

# Per-layer metrics reported by a traced run, in report order.
LAYER_METRICS = (
    ("linalg.kron.calls", "count", "lower"),
    ("states.TwoQubitState.calls", "count", "lower"),
    ("states.TwoQubitState.self_s", "s", "lower"),
    ("measurement.operator.calls", "count", "lower"),
    ("measurement.operator.self_s", "s", "lower"),
    ("chain.propagate.calls", "count", "lower"),
    ("chain.propagate.self_s", "s", "lower"),
    ("chain.eve_steps", "count", "lower"),
    ("chain.table.calls", "count", "lower"),
    ("chain.table.self_s", "s", "lower"),
    ("chain.steps_per_table", "ratio", "lower"),
    ("steering.report.calls", "count", "lower"),
    ("steering.report_from_table.self_s", "s", "lower"),
    ("planner.max_eves.self_s", "s", "lower"),
    ("planner.probes", "count", "lower"),
    ("planner.probes_per_eve", "ratio", "lower"),
    ("unbounded.branch_tree.self_s", "s", "lower"),
    ("unbounded.schmidt_decompose.calls", "count", "lower"),
    ("unbounded.schmidt_decompose.self_s", "s", "lower"),
    ("unbounded.evaluate_branch.calls", "count", "lower"),
    ("unbounded.evaluate_branch.self_s", "s", "lower"),
    ("unbounded.distinct_theta_ratio", "ratio", "higher"),
    ("scenario.load.self_s", "s", "lower"),
    ("cli.write_rows.self_s", "s", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


class Tracer:
    """Spans and counters for one traced phase of a benchmark run."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int | None, int]] = []
        self.counts: dict[str, int] = defaultdict(int)
        # Leaf angles of every branch tree, per request.
        self.leaf_thetas: dict[int, list[float]] = defaultdict(list)
        self.request_id = 0
        self._stack: list[int] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _enter(self) -> tuple[int, int | None]:
        parent = self._stack[-1] if self._stack else None
        span_id = self._next_id
        self._next_id += 1
        self._stack.append(span_id)
        return span_id, parent

    def _exit(self, span_id: int, name: str, start: float, parent: int | None) -> None:
        self._stack.pop()
        self.spans.append((span_id, name, start, perf_counter(), parent, self.request_id))

    def run_request(self, request_id: int, fn, *args):
        """Call ``fn(*args)`` inside the request's root span."""
        self.request_id = request_id
        span_id, parent = self._enter()
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            self._exit(span_id, REQUEST_SPAN, start, parent)

    def _span(self, name: str, fn, on_call=None, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            span_id, parent = self._enter()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(span_id, name, start, parent)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ----------------------------------------------------------

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, original, wrapper) -> None:
        """Point every seqeve module attribute bound to ``original`` at ``wrapper``."""
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "seqeve" and not mod_name.startswith("seqeve."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, wrapper)

    def install(self) -> None:
        import seqeve.cli  # loads every traced module

        hooks = {
            "chain.propagate": (self._count_eve_steps, None),
            "planner.max_eves": (None, self._count_accepted),
            "unbounded.branch_tree": (None, self._record_leaves),
        }
        for name, (mod_name, attr) in SPAN_FUNCTIONS.items():
            original = getattr(sys.modules[mod_name], attr)
            on_call, on_result = hooks.get(name, (None, None))
            self._rebind(original, self._span(name, original, on_call, on_result))
        self._rebind(
            seqeve.linalg.kron, self._counter("linalg.kron.calls", seqeve.linalg.kron)
        )
        # Only the planner's binding of report counts as a bisection probe.
        self._patch(
            seqeve.planner, "report", self._counter("planner.probes", seqeve.planner.report)
        )
        state_cls = seqeve.states.TwoQubitState
        self._patch(
            state_cls,
            "__post_init__",
            self._span("states.TwoQubitState", state_cls.__post_init__),
        )
        self._bob = seqeve.chain.BOB

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- hooks ---------------------------------------------------------------

    def _count_eve_steps(self, spec, party) -> None:
        # Mirrors chain._party_index: Eve m is preceded by m - 1 Eves.
        self.counts["chain.eve_steps"] += spec.n_eves if party == self._bob else party - 1

    def _count_accepted(self, plan) -> None:
        self.counts["planner.accepted_eves"] += plan.max_eves

    def _record_leaves(self, leaves) -> None:
        self.leaf_thetas[self.request_id].extend(leaf.theta for leaf in leaves)

    # -- analysis --------------------------------------------------------------

    def layer_metrics(self, n_requests: int, output_bytes: int) -> dict[str, float]:
        """Per-request means of every per-layer metric except the overhead ratio.

        ``n_requests`` must cover whole cycles of the workload's variants, so
        that the means repeat exactly for a seed.
        """
        child_time: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float, self.counts)
        for span_id, name, start, end, _, _ in self.spans:
            group = "measurement.operator" if name in MEASUREMENT_OPERATORS else name
            totals[f"{group}.calls"] += 1
            totals[f"{group}.self_s"] += end - start - child_time[span_id]
        totals["cli.output_bytes"] = output_bytes
        metrics = {
            name: totals[name] / n_requests
            for name, unit, _ in LAYER_METRICS
            if unit != "ratio"
        }
        metrics["chain.steps_per_table"] = _ratio(
            totals["chain.eve_steps"], totals["chain.table.calls"]
        )
        metrics["planner.probes_per_eve"] = _ratio(
            totals["planner.probes"], totals["planner.accepted_eves"]
        )
        # Angles equal to 12 decimals count once; they differ only by roundoff.
        distinct = [
            len({round(t, 12) for t in thetas}) / len(thetas)
            for thetas in self.leaf_thetas.values()
            if thetas
        ]
        metrics["unbounded.distinct_theta_ratio"] = (
            sum(distinct) / len(distinct) if distinct else 0.0
        )
        return metrics

    def write_spans(self, path: Path) -> None:
        """One JSON array per line: [id, name, start, end, parent, request]."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _ratio(numerator: float, denominator: float) -> float:
    """Waste ratio, 0 when the layer did no work."""
    return numerator / denominator if denominator else 0.0
