"""Tests for the concurrent multi-query service (repro.service)."""

import pytest

from repro import ClusterConfig, PgxdAsyncEngine
from repro.context import ExecutionContext
from repro.engine_api import QueryStatus
from repro.errors import ClusterConfigError, PlanError, QueryAborted, \
    RuntimeFault
from repro.service import (
    QueryService,
    ServiceConfig,
    TrafficConfig,
    arrival_schedule,
    percentile,
    run_traffic,
    saturation_sweep,
    verify_serial_parity,
)

QUERIES = [
    "SELECT a, b WHERE (a)-[]->(b), a.value > b.value",
    "SELECT x, y WHERE (x)-[]->(y)",
    "SELECT a, c WHERE (a)-[]->(b), (b)-[]->(c)",
]


def _engine(random_graph, **overrides):
    config = ClusterConfig(num_machines=3, **overrides)
    return PgxdAsyncEngine(random_graph, config)


class TestServiceConfig:
    def test_defaults(self):
        config = ServiceConfig()
        assert config.max_concurrent == 4
        assert config.scope_window is None

    @pytest.mark.parametrize("bad", [
        {"max_concurrent": 0},
        {"scope_window": 0},
        {"sample_interval": 0},
    ])
    def test_validation(self, bad):
        with pytest.raises(ClusterConfigError):
            ServiceConfig(**bad)

    def test_window_carved_evenly(self, random_graph):
        engine = _engine(random_graph, flow_control_window=8)
        service = QueryService(engine, ServiceConfig(max_concurrent=4))
        assert service.scope_config.flow_control_window == 2
        # Deployment shape untouched; only the budget is scoped.
        assert service.scope_config.num_machines == 3

    def test_window_pinned(self, random_graph):
        engine = _engine(random_graph, flow_control_window=8)
        service = QueryService(
            engine, ServiceConfig(max_concurrent=4, scope_window=5)
        )
        assert service.scope_config.flow_control_window == 5

    def test_window_never_below_one(self, random_graph):
        engine = _engine(random_graph, flow_control_window=2)
        service = QueryService(engine, ServiceConfig(max_concurrent=8))
        assert service.scope_config.flow_control_window == 1


class TestLifecycle:
    def test_submit_runs_to_done(self, random_graph):
        service = QueryService(_engine(random_graph))
        handle = service.submit(QUERIES[0])
        assert handle.status is QueryStatus.RUNNING
        result = handle.result()
        assert handle.status is QueryStatus.DONE
        assert handle.done
        assert result.rows
        assert handle.metrics is result.metrics
        assert service.idle

    def test_queueing_beyond_slots(self, random_graph):
        service = QueryService(
            _engine(random_graph), ServiceConfig(max_concurrent=1)
        )
        first = service.submit(QUERIES[0])
        second = service.submit(QUERIES[1])
        assert first.status is QueryStatus.RUNNING
        assert second.status is QueryStatus.QUEUED
        service.drain()
        assert first.status is QueryStatus.DONE
        assert second.status is QueryStatus.DONE
        scope = service.scope(second.query_id)
        assert scope.admission_wait > 0

    def test_duplicate_query_id_rejected(self, random_graph):
        service = QueryService(_engine(random_graph))
        service.submit(QUERIES[0], query_id="same")
        with pytest.raises(RuntimeFault):
            service.submit(QUERIES[1], query_id="same")

    def test_quantified_paths_rejected(self, random_graph):
        service = QueryService(_engine(random_graph))
        with pytest.raises(PlanError):
            service.submit("SELECT DISTINCT a, b WHERE (a)-/{1,2}/->(b)")

    def test_stats_table(self, random_graph):
        service = QueryService(_engine(random_graph))
        for query in QUERIES:
            service.submit(query)
        service.drain()
        records = service.stats()
        assert [r["query_id"] for r in records] == ["q0", "q1", "q2"]
        assert all(r["status"] == "done" for r in records)
        assert all(r["rows"] is not None for r in records)
        assert all(r["latency"] > 0 for r in records)


class TestDeterminism:
    """Concurrent execution must equal serial, row for row, tick for tick."""

    def test_concurrent_matches_solo_run(self, random_graph):
        """Each scope's result is bit-identical to a solo engine run
        under the same scoped config — co-tenancy is invisible."""
        engine = _engine(random_graph, flow_control_window=4)
        service = QueryService(engine, ServiceConfig(max_concurrent=3))
        handles = [service.submit(query) for query in QUERIES]
        service.drain()
        solo_engine = PgxdAsyncEngine(random_graph, service.scope_config)
        for handle, query in zip(handles, QUERIES):
            concurrent = handle.result()
            solo = solo_engine.query(query)
            assert concurrent.rows == solo.rows
            for metric in ("ticks", "total_ops", "num_results",
                           "work_messages", "contexts_shipped",
                           "peak_buffered_contexts"):
                assert getattr(concurrent.metrics, metric) == \
                    getattr(solo.metrics, metric), metric

    def test_serial_parity_gate(self, random_graph):
        engine = _engine(random_graph)
        traffic = TrafficConfig(arrivals=6, mean_interarrival=32,
                                slots=3, seed=7)
        concurrent, serial, mismatches = verify_serial_parity(
            engine, traffic
        )
        assert mismatches == []
        assert concurrent.completed == 6
        assert serial.completed == 6
        assert concurrent.peak_active >= 2

    def test_service_run_reproducible(self, random_graph):
        reports = []
        for _ in range(2):
            engine = _engine(random_graph)
            traffic = TrafficConfig(arrivals=5, mean_interarrival=48,
                                    slots=4, seed=3)
            reports.append(run_traffic(engine, traffic))
        first, second = reports
        assert first.total_ticks == second.total_ticks
        assert first.latencies == second.latencies
        assert first.records == second.records


class TestIsolation:
    """Cancelling or aborting one tenant never perturbs co-tenants."""

    def _run(self, random_graph, cancel_after=None):
        engine = _engine(random_graph)
        service = QueryService(engine, ServiceConfig(max_concurrent=3))
        handles = [service.submit(query) for query in QUERIES]
        if cancel_after is not None:
            for _ in range(cancel_after):
                service.step()
            handles[0].cancel()
        service.drain()
        return service, handles

    def test_cancelled_straggler_leaves_cotenants_bit_identical(
        self, random_graph
    ):
        baseline, _ = self._run(random_graph)
        cancelled, handles = self._run(random_graph, cancel_after=30)
        assert handles[0].status is QueryStatus.CANCELLED
        with pytest.raises(QueryAborted):
            handles[0].result()
        for query_id in ("q1", "q2"):
            a = baseline.scope(query_id)
            b = cancelled.scope(query_id)
            assert b.status is QueryStatus.DONE
            assert a.result.rows == b.result.rows
            for metric in ("ticks", "total_ops", "num_results",
                           "work_messages", "contexts_shipped",
                           "peak_buffered_contexts"):
                assert getattr(a.result.metrics, metric) == \
                    getattr(b.result.metrics, metric), metric

    def test_cancel_queued_scope_is_immediate(self, random_graph):
        service = QueryService(
            _engine(random_graph), ServiceConfig(max_concurrent=1)
        )
        first = service.submit(QUERIES[0])
        second = service.submit(QUERIES[1])
        assert second.cancel()
        assert second.status is QueryStatus.CANCELLED
        with pytest.raises(QueryAborted):
            second.result()
        service.drain()
        assert first.status is QueryStatus.DONE
        # A terminal scope can no longer be cancelled.
        assert not second.cancel()
        assert not first.cancel()

    def test_cancelled_scope_reports_partial_metrics(self, random_graph):
        service = QueryService(_engine(random_graph))
        handle = service.submit(QUERIES[2])
        for _ in range(20):
            service.step()
        handle.cancel()
        service.drain()
        assert handle.status is QueryStatus.CANCELLED
        assert handle.metrics is not None
        assert handle.metrics.ticks > 0


class TestDeadlines:
    def test_deadline_aborts_with_cotenant_flow_state(self, random_graph):
        service = QueryService(
            _engine(random_graph), ServiceConfig(max_concurrent=3)
        )
        doomed = service.submit(QUERIES[2], deadline=10)
        service.submit(QUERIES[0])
        service.drain()
        assert doomed.status is QueryStatus.ABORTED
        with pytest.raises(QueryAborted) as excinfo:
            doomed.result()
        aborted = excinfo.value
        # The flow snapshot is tenant-aware: own machines plus every
        # co-tenant's, each entry tagged with its query_id.
        tenants = {entry["query_id"] for entry in aborted.flow_state}
        assert doomed.query_id in tenants
        assert "q1" in tenants
        assert "co-tenant" in aborted.detail

    def test_deadline_is_virtual_ticks(self, random_graph):
        """A deadline binds the scope's own clock, not the global one —
        co-tenancy dilation cannot spuriously time a query out."""
        engine = _engine(random_graph)
        solo = PgxdAsyncEngine(
            random_graph,
            QueryService(engine, ServiceConfig(max_concurrent=3))
            .scope_config,
        )
        budget = solo.query(QUERIES[0]).metrics.ticks + 1
        service = QueryService(engine, ServiceConfig(max_concurrent=3))
        handle = service.submit(QUERIES[0], deadline=budget)
        service.submit(QUERIES[1])
        service.submit(QUERIES[2])
        service.drain()
        # Global time exceeded the deadline, virtual time did not.
        assert service.now > budget
        assert handle.status is QueryStatus.DONE


class TestFairShare:
    def test_priority_weights_grants(self, random_graph):
        service = QueryService(
            _engine(random_graph), ServiceConfig(max_concurrent=2)
        )
        fast = service.submit(QUERIES[0], priority=4)
        slow = service.submit(QUERIES[0], priority=1)
        service.drain()
        fast_scope = service.scope(fast.query_id)
        slow_scope = service.scope(slow.query_id)
        # Identical queries, identical virtual work ...
        assert fast_scope.virtual_ticks == slow_scope.virtual_ticks
        # ... but the priority-4 tenant got its grants ~4x as often.
        assert fast_scope.finished_at < slow_scope.finished_at
        assert fast_scope.latency < slow_scope.latency

    def test_equal_priorities_interleave(self, random_graph):
        service = QueryService(
            _engine(random_graph), ServiceConfig(max_concurrent=2)
        )
        a = service.submit(QUERIES[0])
        b = service.submit(QUERIES[0])
        service.drain()
        # Same query, same priority: they finish within a grant of each
        # other rather than running back to back.
        gap = abs(service.scope(a.query_id).finished_at
                  - service.scope(b.query_id).finished_at)
        assert gap <= 1


class TestTelemetry:
    def test_per_tenant_registry_and_series(self, random_graph):
        service = QueryService(
            _engine(random_graph),
            ServiceConfig(max_concurrent=2, telemetry=True,
                          sample_interval=16),
        )
        for query in QUERIES:
            service.submit(query)
        service.drain()
        registry = service.registry
        assert registry is not None
        rows = registry.samples()
        done = [
            value for name, labels, value in rows
            if name == "repro_service_queries_total"
            and labels.get("status") == "done"
        ]
        assert done == [3]
        grants = [
            value for name, labels, value in rows
            if name == "repro_service_scope_ticks_total"
        ]
        assert len(grants) == 3
        assert sum(grants) == service.now
        assert service.series
        assert all("scopes" in point for point in service.series)

    def test_no_registry_without_telemetry(self, random_graph):
        service = QueryService(_engine(random_graph))
        service.submit(QUERIES[0]).result()
        assert service.registry is None
        assert service.series == []


class TestTraffic:
    def test_percentile_nearest_rank(self):
        assert percentile([], 50) is None
        assert percentile([10], 99) == 10
        values = list(range(1, 101))
        assert percentile(values, 50) == 50
        assert percentile(values, 95) == 95
        assert percentile(values, 99) == 99

    def test_arrival_schedule_deterministic(self):
        traffic = TrafficConfig(arrivals=10, mean_interarrival=32, seed=9)
        first = arrival_schedule(traffic)
        assert first == arrival_schedule(traffic)
        assert len(first) == 10
        assert all(b > a for a, b in zip(first, first[1:]))

    def test_open_loop_run(self, random_graph):
        engine = _engine(random_graph)
        traffic = TrafficConfig(arrivals=8, mean_interarrival=24,
                                slots=4, seed=2)
        report = run_traffic(engine, traffic)
        assert report.arrivals == 8
        assert report.completed == 8
        assert report.peak_active >= 2
        assert report.percentile(50) is not None
        assert report.percentile(50) <= report.percentile(95) \
            <= report.percentile(99)
        assert report.throughput_per_kilotick > 0
        assert "latency p50=" in report.summary()

    def test_deadline_traffic_aborts_counted(self, random_graph):
        engine = _engine(random_graph)
        traffic = TrafficConfig(arrivals=4, mean_interarrival=16,
                                slots=4, deadline=5, seed=2)
        report = run_traffic(engine, traffic)
        assert report.aborted == 4
        assert report.completed == 0

    def test_saturation_sweep_orders_load(self, random_graph):
        engine = _engine(random_graph)
        traffic = TrafficConfig(arrivals=5, slots=4, seed=4)
        curve = saturation_sweep(engine, traffic, gaps=(512, 8))
        assert [gap for gap, _ in curve] == [512, 8]
        light, heavy = curve[0][1], curve[1][1]
        assert light.completed == heavy.completed == 5
        # Saturation: the overloaded point queues more and waits longer.
        assert heavy.peak_active >= light.peak_active
        assert heavy.percentile(95) >= light.percentile(95)


class TestEngineIntegration:
    def test_engine_submit_routes_through_service(self, random_graph):
        engine = _engine(random_graph)
        handle = engine.submit(QUERIES[0])
        assert handle.query_id == "q0"
        assert handle.result().rows
        assert engine.service().scope("q0").status is QueryStatus.DONE

    def test_engine_service_config_window(self, random_graph):
        engine = _engine(random_graph, flow_control_window=8)
        service = engine.service(ServiceConfig(max_concurrent=2))
        assert service.scope_config.flow_control_window == 4
        assert engine.service() is service
        service.submit(QUERIES[0]).result()
        # A used service is never silently replaced.
        assert engine.service(ServiceConfig(max_concurrent=8)) is service


class TestExecutionContext:
    def test_rejects_non_context(self, random_graph):
        engine = _engine(random_graph)
        plan = engine.plan(QUERIES[0])
        with pytest.raises(TypeError):
            engine.execute_plan(plan, object())

    def test_from_options_maps_timeout(self):
        from repro.plan import PlannerOptions

        context = ExecutionContext.from_options(
            PlannerOptions(timeout_ticks=42)
        )
        assert context.deadline == 42
        assert context.tracer is None
        assert context.telemetry is None

    def test_replace_is_functional(self):
        context = ExecutionContext()
        tagged = context.replace(query_id="q9", priority=3)
        assert tagged.query_id == "q9"
        assert tagged.priority == 3
        assert context.query_id is None
