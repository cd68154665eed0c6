"""Observability: structured tracing and profiling for query executions.

Enable tracing per query (``PlannerOptions(trace=True)``) or per cluster
(``ClusterConfig(trace=True)``); the engine then threads a
:class:`Tracer` through the simulator, network, machines, workers, flow
control, and the termination protocol, and returns it as
``QueryResult.trace``::

    result = engine.query(pgql, options=PlannerOptions(trace=True))
    result.trace.kinds()                  # distinct event types seen
    result.trace.profile().summary()      # per-stage / per-machine stats
    result.trace.to_chrome_json("trace.json")   # open in chrome://tracing
    print(result.trace.timeline())        # plain-text utilization rows

When tracing is off (the default) the runtime holds ``None`` instead of
a tracer and every instrumentation site reduces to one ``is not None``
check — see ``benchmarks/test_txt2_trace_overhead.py``.

Live telemetry is the second pillar: a label-aware
:class:`MetricsRegistry` (counters, gauges, histograms) plus a
:class:`TimeSeriesSampler` recording per-machine series every simulator
tick.  Enable it per query (``PlannerOptions(telemetry=True)``) or per
cluster (``ClusterConfig(telemetry=True)``); the engine returns the
:class:`Telemetry` handle as ``QueryResult.telemetry``::

    result = engine.query(pgql, options=PlannerOptions(telemetry=True))
    print(result.telemetry.summary())
    print(result.telemetry.prometheus())       # text exposition format
    series = result.telemetry.sampler.series(0)   # machine 0's curves

Telemetry-off follows the same zero-cost contract as tracing
(``benchmarks/test_txt3_telemetry_overhead.py``).
"""

from repro.obs.events import (
    EVENT_KINDS,
    DuplicateFrameDropped,
    FlowBlock,
    FlowUnblock,
    FrameBuffered,
    GhostPrune,
    MachineCrashed,
    MachineResumed,
    MachineStalled,
    MessageDelayed,
    MessageDeliver,
    MessageDropped,
    MessageDuplicated,
    MessageSend,
    QueryAbortedEvent,
    QuotaGranted,
    QuotaRequested,
    ResultEmitted,
    Retransmit,
    StageCompleted,
    TickSample,
    TraceEvent,
    WorkerSpan,
)
from repro.obs.export import chrome_trace, render_timeline
from repro.obs.feedback import (
    ExecutionProfile,
    FeedbackStore,
    MachineStageProfile,
    build_execution_profile,
    publish_drift,
    q_error,
    query_fingerprint,
)
from repro.obs.exporters import (
    parse_prometheus,
    parse_series_csv,
    parse_series_jsonl,
    prometheus_text,
    registry_csv,
    registry_jsonl,
    series_csv,
    series_jsonl,
)
from repro.obs.profile import TraceProfile
from repro.obs.sampler import MACHINE_COLUMNS, TimeSeriesSampler
from repro.obs.telemetry import (
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    Telemetry,
)
from repro.obs.tracer import Tracer

__all__ = [
    "Tracer",
    "TraceProfile",
    "Telemetry",
    "MetricsRegistry",
    "MetricFamily",
    "Counter",
    "Gauge",
    "Histogram",
    "TimeSeriesSampler",
    "MACHINE_COLUMNS",
    "MachineStageProfile",
    "ExecutionProfile",
    "FeedbackStore",
    "build_execution_profile",
    "publish_drift",
    "q_error",
    "query_fingerprint",
    "prometheus_text",
    "parse_prometheus",
    "registry_jsonl",
    "registry_csv",
    "series_jsonl",
    "series_csv",
    "parse_series_jsonl",
    "parse_series_csv",
    "TraceEvent",
    "EVENT_KINDS",
    "TickSample",
    "WorkerSpan",
    "MessageSend",
    "MessageDeliver",
    "FlowBlock",
    "FlowUnblock",
    "QuotaRequested",
    "QuotaGranted",
    "StageCompleted",
    "GhostPrune",
    "ResultEmitted",
    "MessageDropped",
    "MessageDuplicated",
    "MessageDelayed",
    "MachineStalled",
    "MachineResumed",
    "MachineCrashed",
    "Retransmit",
    "DuplicateFrameDropped",
    "FrameBuffered",
    "QueryAbortedEvent",
    "chrome_trace",
    "render_timeline",
]
