"""The PGX.D/Async engine façade (paper step iv).

``PgxdAsyncEngine`` binds a distributed graph to a cluster configuration
and executes PGQL queries end to end: plan (steps i-iii), instantiate
one :class:`QueryMachine` per simulated machine, run the simulator to
completion, and finalize the merged results.
"""

from repro.cluster.config import ClusterConfig
from repro.cluster.metrics import QueryMetrics
from repro.cluster.simulator import Simulator
from repro.context import ExecutionContext
from repro.engine_api import Engine
from repro.errors import ClusterConfigError, QueryAborted
from repro.graph.distributed import DistributedGraph
from repro.obs.feedback import MachineStageProfile, build_execution_profile, \
    publish_drift
from repro.pgql import parse_and_validate
from repro.pgql.ast import Query, SelectItem
from repro.plan import PlannerOptions, plan_query
from repro.plan.paths import expand_quantified_paths, has_quantified_paths
from repro.runtime.aggregation import arrange_rows, finalize, \
    finalize_grouped
from repro.runtime.machine import QueryMachine
from repro.runtime.results import ResultSet


class QueryResult:
    """The outcome of one query execution."""

    def __init__(self, result_set, metrics, plan, stage_profile=None,
                 trace=None, telemetry=None, machine_profiles=None):
        self.result_set = result_set
        self.metrics = metrics
        self.plan = plan
        #: Per-stage counters (EXPLAIN ANALYZE), summed over machines:
        #: list of dicts with ``visits`` (contexts entering the vertex
        #: function), ``passes`` (contexts surviving its checks),
        #: ``remote_in`` (contexts shipped to the stage over the
        #: network), ``scanned`` (neighbor candidates / edge ids its hop
        #: inspected) and ``emitted`` (continuation weight it produced;
        #: result rows for the output stage).  None for results that did
        #: not run on the distributed runtime (e.g. baselines).
        self.stage_profile = stage_profile
        #: The :class:`repro.obs.Tracer` that recorded this execution, or
        #: None when tracing was off (the default).
        self.trace = trace
        #: The :class:`repro.obs.Telemetry` (metrics registry + per-tick
        #: time series) of this execution, or None when live telemetry
        #: was off (the default).
        self.telemetry = telemetry
        #: One :class:`~repro.obs.feedback.MachineStageProfile` per
        #: machine (the per-machine split of ``stage_profile``), or None
        #: for results that did not run as one distributed plan
        #: (baselines, quantified-path unions).
        self.machine_profiles = machine_profiles
        self._execution_profile = None

    def execution_profile(self):
        """The plan-vs-actual :class:`~repro.obs.feedback.
        ExecutionProfile` (built once, on first use), or None when the
        result has no per-machine profiles."""
        if self.machine_profiles is None or self.plan is None:
            return None
        if self._execution_profile is None:
            self._execution_profile = build_execution_profile(
                self.plan, self.stage_profile, self.machine_profiles
            )
        return self._execution_profile

    def explain_analyze(self):
        """Stage plan annotated with runtime counters, as text.

        With tracing enabled the report folds in the event stream:
        time to first result, distinct ticks each stage spent refused by
        flow control, quota-borrowing traffic, and the tick each stage
        became globally complete.
        """
        if self.plan is None or self.stage_profile is None:
            return "no stage profile available"
        profile = self.trace.profile() if self.trace is not None else None
        exec_profile = self.execution_profile()
        lines = []
        if self.trace is not None and self.trace.dropped:
            lines.append(
                "WARNING: trace truncated — %d events dropped at "
                "max_events=%d; trace-derived counters under-count"
                % (self.trace.dropped, self.trace.max_events)
            )
        if profile is not None:
            ticks = profile.meta.get("ticks")
            if ticks is not None:
                lines.append("total: %d ticks" % ticks)
            if profile.first_result_tick is not None:
                lines.append(
                    "time to first result: tick %d"
                    % profile.first_result_tick
                )
        for stage, counters in zip(self.plan.stages, self.stage_profile):
            line = (
                "Stage %d (%s, %s)  visits=%d  passes=%d  remote_in=%d  "
                "hop=%s  scanned=%d  emitted=%d"
                % (
                    stage.index,
                    stage.var,
                    stage.kind.value,
                    counters["visits"],
                    counters["passes"],
                    counters["remote_in"],
                    stage.hop.kind.value,
                    counters["scanned"],
                    counters["emitted"],
                )
            )
            if profile is not None:
                stats = profile.stage_stats(stage.index)
                completed = stats["completed_at"]
                line += (
                    "  blocked_ticks=%d  quota_req=%d  quota_granted=%d  "
                    "completed_at=%s"
                    % (
                        stats["blocked_ticks"],
                        stats["quota_requests"],
                        stats["quota_granted"],
                        "-" if completed is None else completed,
                    )
                )
            lines.append(line)
        if exec_profile is not None:
            extra = exec_profile.summary_lines()
            if extra:
                lines.append("")
                lines.extend(extra)
        return "\n".join(lines)

    @property
    def rows(self):
        return self.result_set.rows

    @property
    def columns(self):
        return self.result_set.columns

    def __len__(self):
        return len(self.result_set)

    def __repr__(self):
        return "QueryResult(rows=%d, ticks=%d)" % (
            len(self.result_set),
            self.metrics.ticks,
        )


class PgxdAsyncEngine(Engine):
    """A distributed pattern-matching engine over a simulated cluster.

    Typical use::

        engine = PgxdAsyncEngine(graph, ClusterConfig(num_machines=8))
        result = engine.query("SELECT a, b WHERE (a)-[:friend]->(b)")
        for row in result.rows:
            ...
    """

    def __init__(self, graph, config=None, partitioner=None,
                 debug_checks=False):
        self.config = config or ClusterConfig()
        if isinstance(graph, DistributedGraph):
            if graph.num_machines != self.config.num_machines:
                raise ClusterConfigError(
                    "distributed graph has %d machines but config asks for %d"
                    % (graph.num_machines, self.config.num_machines)
                )
            self.dist_graph = graph
        else:
            self.dist_graph = DistributedGraph.create(
                graph, self.config.num_machines, partitioner=partitioner
            )
        self.graph = self.dist_graph.graph
        self.debug_checks = debug_checks

    def plan(self, query, options=None):
        """Compile *query* (steps i-iii) without executing it."""
        return plan_query(query, self.graph, options or PlannerOptions())

    def query(self, query, options=None, context=None):
        """Plan and execute *query*; returns a :class:`QueryResult`.

        *context* is an optional :class:`~repro.context.ExecutionContext`;
        when omitted one is derived from *options* and the cluster
        config (trace/telemetry flags, ``timeout_ticks``).
        """
        if isinstance(query, str):
            query = parse_and_validate(query)
        if has_quantified_paths(query):
            return execute_union(query, options, self.query)
        plan = self.plan(query, options)
        if context is None:
            context = ExecutionContext.from_options(options, engine=self)
        return self.execute_plan(plan, context)

    def submit(self, query, options=None, priority=1, deadline=None):
        """Non-blocking submission through the multi-query service.

        Returns a :class:`~repro.engine_api.QueryHandle` scheduled on
        this engine's default :class:`~repro.service.QueryService`
        (created on first use).  Queries executed as a union of
        quantified-path expansions fall back to the synchronous default
        handle — they run as several plans and are not (yet) a single
        service scope.
        """
        from repro.plan.paths import has_quantified_paths as _has_qp

        parsed = parse_and_validate(query) if isinstance(query, str) \
            else query
        if _has_qp(parsed):
            return super().submit(parsed, options)
        return self.service().submit(
            parsed, options, priority=priority, deadline=deadline
        )

    def service(self, service_config=None):
        """This engine's lazily created default query service.

        Pass *service_config* on first call to shape admission and
        scoped budgets; later calls with a config replace the service
        only if no queries were ever submitted to the old one.
        """
        from repro.service import QueryService

        existing = getattr(self, "_service", None)
        if existing is None or (
            service_config is not None and not existing.ever_submitted
        ):
            self._service = QueryService(self, service_config)
        return self._service

    def execute_plan(self, plan, context=None):
        """Step iv: run a compiled plan on the simulated cluster.

        *context* carries the cross-cutting execution state (tracer,
        telemetry, deadline, query_id); see :class:`~repro.context.
        ExecutionContext`.
        """
        if context is None:
            context = ExecutionContext()
        elif not isinstance(context, ExecutionContext):
            raise TypeError(
                "execute_plan expects an ExecutionContext, got %r"
                % (context,)
            )
        simulator, machines = self.prepare_execution(plan, context)
        metrics = simulator.run()
        return self.finalize_execution(plan, machines, metrics, context)

    def prepare_execution(self, plan, context, config=None):
        """Instantiate the simulator and per-machine runtimes for *plan*.

        Returns ``(simulator, machines)`` ready to run — either via
        ``simulator.run()`` (the synchronous path) or stepped one tick
        at a time by the multi-query service.  *config* overrides the
        engine's cluster config (the service passes a scoped copy whose
        flow-control window is carved from the machine-wide limit).
        """
        if config is None:
            config = self.config
        tracer = context.tracer
        telemetry = context.telemetry
        if tracer is not None:
            tracer.meta.update(
                num_machines=config.num_machines,
                num_stages=plan.num_stages,
                workers_per_machine=config.workers_per_machine,
                ops_per_tick=config.ops_per_tick,
            )
        simulator = Simulator(config, tracer=tracer, telemetry=telemetry)
        simulator.query_id = context.query_id
        if context.deadline is not None:
            simulator.deadline = context.deadline
        machines = [
            QueryMachine(
                plan,
                self.dist_graph,
                machine_id,
                simulator.api_for(machine_id),
                config,
                debug_checks=self.debug_checks,
                tracer=tracer,
                telemetry=telemetry,
            )
            for machine_id in range(config.num_machines)
        ]
        simulator.attach(machines)
        return simulator, machines

    def finalize_execution(self, plan, machines, metrics, context):
        """Merge per-machine state into the :class:`QueryResult`."""
        machine_profiles = [MachineStageProfile.snapshot(m) for m in machines]
        stage_profile = [
            {
                name: sum(getattr(p, name)[i] for p in machine_profiles)
                for name in MachineStageProfile.COUNTERS
            }
            for i in range(plan.num_stages)
        ]
        if plan.output.has_aggregates:
            # Merge the machines' partial aggregation states.
            merged = machines[0].collector
            for machine in machines[1:]:
                merged.merge(machine.collector)
            result_set = finalize_grouped(plan.output, merged)
        else:
            raw_rows = [
                ctx for machine in machines for ctx in machine.collector.rows
            ]
            result_set = finalize(
                plan.output,
                raw_rows,
                plan.query.vertex_vars(),
                plan.query.edge_vars(),
            )
        result = QueryResult(result_set, metrics, plan,
                             stage_profile=stage_profile,
                             trace=context.tracer,
                             telemetry=context.telemetry,
                             machine_profiles=machine_profiles)
        if context.telemetry is not None:
            publish_drift(context.telemetry, result.execution_profile())
        return result


def execute_union(query, options, run_one):
    """Execute a variable-length-path query as a union of expansions.

    *run_one* executes a single fixed-length Query (e.g. an engine's
    ``query`` method).  Each expansion runs with ORDER BY / LIMIT /
    DISTINCT stripped and the ORDER BY expressions appended as hidden
    projection columns, so the union can be globally sorted, deduped,
    and truncated here.
    """
    expansions = expand_quantified_paths(query)
    visible = len(query.select_items)
    hidden_order = list(query.order_by)

    all_rows = []
    columns = None
    combined = QueryMetrics()
    plan = None
    profiles = []  # (plan, stage_profile) of expansions that computed one
    merged_trace = None
    merged_telemetry = None
    for expansion in expansions:
        stripped = Query(
            list(expansion.select_items)
            + [SelectItem(item.expr) for item in hidden_order],
            expansion.paths,
            expansion.constraints,
        )
        try:
            result = run_one(stripped, options)
        except QueryAborted as aborted:
            # Fold the finished expansions' metrics into the abort so
            # the caller sees the whole union's partial progress.
            if aborted.metrics is not None:
                combined.merge(aborted.metrics)
            aborted.metrics = combined
            raise
        if columns is None:
            columns = result.columns[:visible]
            plan = result.plan
        all_rows.extend(result.rows)
        if result.stage_profile is not None:
            profiles.append((result.plan, result.stage_profile))
        if result.trace is not None:
            # Expansions run back to back: lay their traces out end to
            # end by offsetting each by the ticks accumulated so far.
            if merged_trace is None:
                from repro.obs import Tracer

                merged_trace = Tracer(max_events=result.trace.max_events)
            merged_trace.extend(result.trace, tick_offset=combined.ticks)
        if result.telemetry is not None:
            # Same end-to-end layout for the telemetry time series.
            if merged_telemetry is None:
                from repro.obs import Telemetry

                merged_telemetry = Telemetry()
            merged_telemetry.extend(
                result.telemetry, tick_offset=combined.ticks
            )
        combined.merge(result.metrics)

    stage_profile = None
    if profiles:
        # Expansions have different lengths; fold their per-stage counters
        # by stage position and report against the longest expansion's
        # plan so EXPLAIN ANALYZE covers every aggregated stage.
        plan = max(profiles, key=lambda pair: len(pair[1]))[0]
        stage_profile = [{} for _ in range(max(
            len(part) for _plan, part in profiles
        ))]
        for _plan, part in profiles:
            for index, entry in enumerate(part):
                slot = stage_profile[index]
                for key, value in entry.items():
                    slot[key] = slot.get(key, 0) + value

    rows = arrange_rows(
        [(row[visible:], row[:visible]) for row in all_rows],
        query.distinct, hidden_order, query.limit,
    )
    return QueryResult(ResultSet(columns, rows), combined, plan,
                       stage_profile=stage_profile, trace=merged_trace,
                       telemetry=merged_telemetry)


def run_query(graph, query, config=None, options=None, debug_checks=False,
              context=None):
    """One-shot convenience wrapper around :class:`PgxdAsyncEngine`.

    *context* is an optional :class:`~repro.context.ExecutionContext`
    passed through to :meth:`PgxdAsyncEngine.query`.
    """
    engine = PgxdAsyncEngine(graph, config=config, debug_checks=debug_checks)
    return engine.query(query, options=options, context=context)
