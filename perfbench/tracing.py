"""Traced run: spans and counters at the package's module boundaries.

Tracing wraps module attributes from outside the package; no file of the
package changes. Each op and each phase call (resolve, integrate, report,
steady state, verdicts, integral test, CSV, sweep row) becomes a span with
name, start, end and parent. Per-step calls into ``model`` and ``control``
are far too many for one span each, so they are aggregated as a call count
and a total time on the enclosing span (normally ``sim.integrate``).
Everything stays in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import os
import time
from dataclasses import dataclass, field

# (module attribute, span name) for phase calls. The cli module imported
# its callees by name, so the names it looks up are the ones wrapped.
PHASE_SPANS = (
    ("pkg", "integrate", "sim.integrate"),
    ("cli", "integrate", "sim.integrate"),
    ("cli", "detect_steady_state", "sim.steady_state"),
    ("cli", "integral_test", "stability.integral_test"),
    ("cli", "standard_verdicts", "stability.verdicts"),
    ("cli", "build_run_report", "cli.report"),
    ("cli", "render_report", "cli.report"),
    ("cli", "write_trajectory_csv", "cli.csv_write"),
    ("cli", "_sweep_row", "cli.sweep_row"),
)

# (sim attribute, counter) for the calls integrate makes once per step.
STEP_COUNTERS = (
    ("reference", "control.reference"),
    ("vaccination_saturated", "control.law"),
    ("vaccination_unsaturated", "control.law"),
    ("gain_schedule", "control.law"),
    ("modulation_identity_residual", "control.residual"),
)

PER_STEP = ("model.rate", "control.reference", "control.law", "control.residual")


@dataclass
class Span:
    id: int
    parent: int | None
    op: int | None
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)
    # counter name -> [calls, seconds] of the per-step calls made while the
    # span was open, nested spans included
    agg: dict = field(default_factory=dict)
    counters_at_open: dict = field(default_factory=dict, repr=False)

    def as_dict(self) -> dict:
        return {
            "id": self.id, "parent": self.parent, "op": self.op, "name": self.name,
            "start": self.start, "end": self.end, "attrs": self.attrs,
            "agg": self.agg,
        }


class Tracer:
    """Span recorder for one traced pass."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.op: int | None = None
        # counter name -> [calls, seconds], running totals over the pass
        self.counters: dict[str, list] = {name: [0, 0.0] for name in PER_STEP}

    def open(self, name: str) -> Span:
        parent = self.stack[-1] if self.stack else None
        span = Span(
            id=len(self.spans),
            parent=parent.id if parent else None,
            op=self.op,
            name=name,
            start=time.perf_counter(),
        )
        span.counters_at_open = {k: tuple(v) for k, v in self.counters.items()}
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        opened = span.counters_at_open
        span.agg = {
            k: [v[0] - opened[k][0], v[1] - opened[k][1]]
            for k, v in self.counters.items()
            if v[0] != opened[k][0]
        }
        self.stack.pop()

    @contextlib.contextmanager
    def op_span(self, index: int):
        """Span for one op of the workload; every span under it shares its id."""
        self.op = index
        span = self.open("op")
        try:
            yield span
        finally:
            self.close(span)
            self.op = None

    def phase(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            _annotate(span, args, result)
            return result

        return traced

    def counted(self, name: str, fn):
        cell = self.counters[name]
        clock = time.perf_counter

        def counted(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                cell[1] += clock() - t0
                cell[0] += 1

        return counted

    def counted_rate(self, rate):
        """``counted`` for the vector-field closure, with its fixed signature."""
        cell = self.counters["model.rate"]
        clock = time.perf_counter

        def counted(S, E, I, R, V):
            t0 = clock()
            try:
                return rate(S, E, I, R, V)
            finally:
                cell[1] += clock() - t0
                cell[0] += 1

        return counted


def _annotate(span: Span, args, result) -> None:
    """Record what a phase produced, outside the span's own interval."""
    if span.name == "sim.integrate":
        n = len(result)
        span.attrs.update(
            recorded=n,
            steps=max(n - 1, 0),
            complete=result.status.value == "ok",
            resets=int(result.reset_counts.sum()),
            clamped=int((result.theta0 | result.theta1).sum()),
        )
    elif span.name == "cli.csv_write":
        span.attrs["bytes"] = os.path.getsize(args[1])
    elif span.name == "cli.sweep_row":
        span.attrs["status"] = result[2]


@contextlib.contextmanager
def installed(tracer: Tracer, sx):
    """Wrap the package's boundaries for the duration of the block."""
    saved = []

    def patch(owner, attr, value):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    try:
        for module, attr, name in PHASE_SPANS:
            owner = getattr(sx, module)
            patch(owner, attr, tracer.phase(name, getattr(owner, attr)))
        scenario_cls = sx.sim.ScenarioConfig
        patch(scenario_cls, "resolved", tracer.phase("sim.resolve", scenario_cls.resolved))
        for attr, name in STEP_COUNTERS:
            patch(sx.sim, attr, tracer.counted(name, getattr(sx.sim, attr)))
        make_rate_fn = sx.sim.make_rate_fn

        def traced_make_rate_fn(params):
            return tracer.counted_rate(make_rate_fn(params))

        patch(sx.sim, "make_rate_fn", traced_make_rate_fn)
        yield tracer
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def layer_metrics(tracer: Tracer, scale: float = 1.0) -> dict[str, float]:
    """Per-layer totals of one traced pass, times multiplied by ``scale``."""
    total = {name: 0.0 for name in (
        "sim.integrate", "sim.resolve", "sim.steady_state", "stability.integral_test",
        "stability.verdicts", "cli.report", "cli.csv_write",
    )}
    calls = {name: n for name, (n, _) in tracer.counters.items()}
    step_s = {name: sec for name, (_, sec) in tracer.counters.items()}
    steps = resets = clamped = recorded = runs = complete = 0
    integrate_children = 0.0
    csv_bytes = sweep_rows = sweep_errors = 0
    for s in tracer.spans:
        if s.name in total:
            total[s.name] += s.end - s.start
        if s.name == "sim.integrate":
            integrate_children += sum(sec for _, sec in s.agg.values())
            runs += 1
            complete += s.attrs.get("complete", 0)
            steps += s.attrs.get("steps", 0)
            recorded += s.attrs.get("recorded", 0)
            resets += s.attrs.get("resets", 0)
            clamped += s.attrs.get("clamped", 0)
        elif s.name == "cli.csv_write":
            csv_bytes += s.attrs.get("bytes", 0)
        elif s.name == "cli.sweep_row":
            sweep_rows += 1
            sweep_errors += s.attrs.get("status") == "error"
    total = {name: sec * scale for name, sec in total.items()}
    step_s = {name: sec * scale for name, sec in step_s.items()}
    integrate_children *= scale
    return {
        "model.rate_calls": calls["model.rate"],
        "model.rate_s": step_s["model.rate"],
        "control.reference_calls": calls["control.reference"],
        "control.reference_s": step_s["control.reference"],
        "control.law_calls": calls["control.law"],
        "control.law_s": step_s["control.law"],
        "control.residual_s": step_s["control.residual"],
        "control.clamp_frac": clamped / recorded if recorded else 0.0,
        "sim.integrate_s": total["sim.integrate"],
        "sim.integrate_self_s": total["sim.integrate"] - integrate_children,
        "sim.us_per_step": 1e6 * total["sim.integrate"] / steps if steps else 0.0,
        "sim.steps": steps,
        "sim.resolve_s": total["sim.resolve"],
        "sim.steady_state_s": total["sim.steady_state"],
        "sim.reset_count": resets,
        "stability.integral_test_s": total["stability.integral_test"],
        "stability.verdicts_s": total["stability.verdicts"],
        "cli.csv_write_s": total["cli.csv_write"],
        "cli.csv_bytes": csv_bytes,
        "cli.report_s": total["cli.report"],
        "cli.sweep_rows": sweep_rows,
        "cli.sweep_error_rows": sweep_errors,
        # not reported; used for the rate-call identity check
        "_runs": runs,
        "_complete_runs": complete,
    }

