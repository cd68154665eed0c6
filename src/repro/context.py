"""Per-execution context threaded uniformly through the engine.

``execute_plan``, ``run_query`` and the multi-query service take one
:class:`ExecutionContext` instead of a keyword argument per
cross-cutting concern.  It carries:

* ``tracer`` — a :class:`repro.obs.Tracer`, or None (tracing off);
* ``telemetry`` — a :class:`repro.obs.Telemetry`, or None (off);
* ``deadline`` — per-query deadline in simulated ticks (the run aborts
  with :class:`~repro.errors.QueryAborted` past it), or None;
* ``priority`` — fair-share weight when the query runs through the
  :class:`~repro.service.QueryService` scheduler (higher = more worker
  time per global tick); ignored by direct single-query execution;
* ``query_id`` — the tenant identity stamped on flow-state snapshots,
  abort diagnostics, and per-tenant telemetry labels; None for plain
  single-query runs.
"""

from dataclasses import dataclass, replace


@dataclass
class ExecutionContext:
    """Everything cross-cutting about one query execution."""

    #: Optional repro.obs.Tracer recording this execution.
    tracer: object = None
    #: Optional repro.obs.Telemetry (registry + per-tick series).
    telemetry: object = None
    #: Abort the run past this many simulated ticks (None = no deadline).
    deadline: int = None
    #: Fair-share weight under the multi-query service scheduler.
    priority: int = 1
    #: Tenant identity for scoped diagnostics and telemetry labels.
    query_id: str = None

    def replace(self, **changes):
        """Return a copy with *changes* applied."""
        return replace(self, **changes)

    @classmethod
    def from_options(cls, options, engine=None, **overrides):
        """Build a context from :class:`~repro.plan.options.PlannerOptions`.

        Mirrors the engine's historical per-query switches: ``trace`` /
        ``telemetry`` flags allocate fresh recorders (falling back to
        the engine config's cluster-wide flags when *engine* is given),
        and ``timeout_ticks`` becomes the deadline.
        """
        tracer = None
        telemetry = None
        config = getattr(engine, "config", None)
        want_trace = (options is not None and options.trace) or (
            config is not None and config.trace
        )
        if want_trace:
            from repro.obs import Tracer

            max_events = (
                config.trace_max_events if config is not None else 1_000_000
            )
            tracer = Tracer(max_events=max_events)
        want_telemetry = (options is not None and options.telemetry) or (
            config is not None and config.telemetry
        )
        if want_telemetry:
            from repro.obs import Telemetry

            interval = (
                config.telemetry_interval if config is not None else 1
            )
            telemetry = Telemetry(interval=interval)
        deadline = options.timeout_ticks if options is not None else None
        context = cls(tracer=tracer, telemetry=telemetry, deadline=deadline)
        if overrides:
            context = context.replace(**overrides)
        return context
