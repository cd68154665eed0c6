"""White-box tests of runtime internals: machine, messages, hops, worker."""

from collections import Counter

import pytest

from repro import ClusterConfig, PlannerOptions, run_query
from repro.cluster.simulator import Simulator
from repro.errors import RuntimeFault
from repro.graph import DistributedGraph, GraphBuilder, uniform_random_graph
from repro.plan import plan_query
from repro.runtime.hops import AllScanItem, CNItem
from repro.runtime.machine import QueryMachine, _item_weight
from repro.runtime.messages import Ack, Completed, WorkMessage
from repro.runtime.worker import Computation, ScanFrame, StageFrame, Worker


def make_machine(graph=None, machines=2, **config_kwargs):
    graph = graph or uniform_random_graph(20, 60, seed=0)
    config = ClusterConfig(num_machines=machines, **config_kwargs)
    plan = plan_query("SELECT a, b WHERE (a)-[]->(b)", graph)
    dist = DistributedGraph.create(graph, machines)
    simulator = Simulator(config)
    built = [
        QueryMachine(plan, dist, m, simulator.api_for(m), config)
        for m in range(machines)
    ]
    simulator.attach(built)
    return simulator, built


class TestItemWeight:
    def test_plain_context(self):
        assert _item_weight((1, 2, 3)) == 1

    def test_cn_item(self):
        item = CNItem((1,), ((5, ()), (6, ())))
        assert _item_weight(item) == 3


class TestMessageHandling:
    def test_work_message_enters_inbox_and_load(self):
        _, (m0, m1) = make_machine()
        message = WorkMessage(1, ((0, 1), (0, 2)))
        m0.on_message(1, message)
        assert m0.stage_load[1] == 2
        assert m0.pop_message(1) is message
        assert message.src == 1

    def test_ack_frees_flow_window(self):
        _, (m0, _m1) = make_machine()
        m0.flow.on_send(1, 1)
        m0.on_message(1, Ack(1, 1, seqs=(42,)))
        assert m0.flow.inflight(1, 1) == 0
        assert m0.is_acked(42)

    def test_completed_recorded(self):
        _, (m0, _m1) = make_machine()
        m0.on_message(1, Completed(0))
        assert m0.termination.stage_globally_complete(0) is False
        m0.termination.mark_sent(0)
        assert m0.termination.stage_globally_complete(0) is True

    def test_unknown_payload_rejected(self):
        _, (m0, _m1) = make_machine()
        with pytest.raises(RuntimeFault):
            m0.on_message(1, object())


class TestBulkBuffering:
    def test_flush_on_full_buffer(self):
        simulator, (m0, _m1) = make_machine(bulk_message_size=2)
        comp = Computation(0)
        assert m0.route(comp, 1, 1, (0, 5)) is True
        assert len(simulator.network) == 0  # buffered, not yet sent
        assert m0.route(comp, 1, 1, (0, 6)) is True
        assert len(simulator.network) == 1  # bulk flushed at 2

    def test_flow_control_blocks_route(self):
        simulator, (m0, _m1) = make_machine(
            bulk_message_size=1, flow_control_window=1
        )
        comp = Computation(0)
        assert m0.route(comp, 1, 1, (0, 5)) is True   # sent (window used)
        assert m0.route(comp, 1, 1, (0, 6)) is True   # buffered
        assert m0.route(comp, 1, 1, (0, 7)) is False  # buffer full + no window
        assert m0.last_refused == (1, 1)
        assert m0.metrics.flow_control_blocks == 1

    def test_local_route_never_blocks(self):
        _, (m0, _m1) = make_machine(
            bulk_message_size=1, flow_control_window=1
        )
        comp = Computation(0)
        for value in range(50):
            assert m0.route(comp, 1, 0, (0, value)) is True
        # Work-shared up to the cap, the rest pushed depth-first.
        assert len(comp.stack) > 0
        assert m0.pop_local_item(1) is not None

    def test_idle_progress_flushes_partials(self):
        simulator, (m0, _m1) = make_machine(bulk_message_size=8)
        comp = Computation(0)
        m0.route(comp, 1, 1, (0, 5))
        assert len(simulator.network) == 0
        ops = m0.idle_progress()
        assert ops > 0
        assert len(simulator.network) == 1


class TestQuiescence:
    """A machine skips its workers only while a pass would repeat."""

    def test_idle_passes_skipped_until_delivery(self):
        _, (m0, _m1) = make_machine(workers_per_machine=2)
        while m0.run_workers(2, 32):
            pass  # bootstrap until every worker is idle or blocked
        m0.run_workers(2, 32)  # nothing left that an idle pass could send
        assert m0._quiescent
        idle, steps = m0.metrics.idle_ticks, m0.metrics.ops
        assert m0.run_workers(2, 32) == 0
        assert m0.metrics.idle_ticks == idle + 2  # skipped, still charged
        assert m0.metrics.ops == steps
        m0.on_message(1, Completed(1))
        assert not m0._quiescent

    def test_pass_that_sends_is_not_quiet(self):
        # With a zero send cost an idle worker's flush uses no ops; the
        # pass still changed the machine, so the next one must run.
        _, (m0, _m1) = make_machine(bulk_message_size=8, message_send_cost=0)
        m0._bootstrap_chunks.clear()
        m0.route(Computation(0), 1, 1, (0, 5))
        assert m0.run_workers(1, 32) == 0
        assert m0.metrics.work_messages_sent == 1
        assert not m0._quiescent
        assert m0.run_workers(1, 32) == 0
        assert m0._quiescent

    def test_free_workers_skip_their_step(self, monkeypatch):
        # One machine, no work sharing: worker 0 takes the only bootstrap
        # chunk and keeps every continuation on its own stack, so the
        # other three workers stay free and have nothing to find.
        def machine():
            _, (m0,) = make_machine(machines=1, workers_per_machine=4,
                                    work_sharing=False)
            return m0

        skipping, full = machine(), machine()
        stepped = Counter()
        original = Worker.step

        def counting_step(worker, budget):
            if worker.rt is skipping:
                stepped[worker.index] += 1
            return original(worker, budget)

        monkeypatch.setattr(Worker, "step", counting_step)
        passes = 0
        while not full._finished:
            passes += 1
            used = skipping.run_workers(4, 8)
            assert used == sum(full.worker_step(i, 8) for i in range(4))
            assert skipping.metrics.idle_ticks == full.metrics.idle_ticks
            assert skipping.metrics.ops == full.metrics.ops
            assert skipping._finished == full._finished
        assert passes > 3 and skipping.metrics.idle_ticks > 0
        assert stepped == Counter({0: passes})  # free workers never ran


class TestFrames:
    def test_scan_frame_fields(self):
        frame = ScanFrame(0, (), [1, 2, 3])
        assert frame.pos == 0
        assert frame.stage_index == 0

    def test_stage_frame_defaults(self):
        frame = StageFrame(1, (4,), 4)
        assert frame.phase == 0
        assert frame.cursor is None
        assert frame.cn_payload is None

    def test_all_scan_item_wraps_context(self):
        item = AllScanItem((1, 2))
        assert item.ctx == (1, 2)


class TestComputation:
    def test_from_message(self):
        message = WorkMessage(2, ((0, 1),))
        comp = Computation.from_message(message)
        assert comp.root_stage == 2
        assert comp.has_work()

    def test_bootstrap(self):
        comp = Computation.bootstrap(ScanFrame(0, (), [0]))
        assert comp.root_stage == 0
        assert comp.has_work()
        comp.stack.clear()
        assert not comp.has_work()


class TestBootstrapChunks:
    def test_single_vertex_only_on_owner(self):
        _, machines = make_machine()
        graph = uniform_random_graph(20, 60, seed=0)
        plan = plan_query("SELECT v WHERE (v WITH id() = 3)-[]->(b)", graph)
        config = ClusterConfig(num_machines=2)
        dist = DistributedGraph.create(graph, 2)
        simulator = Simulator(config)
        owners = [
            QueryMachine(plan, dist, m, simulator.api_for(m), config)
            for m in range(2)
        ]
        owner_id = dist.owner(3)
        assert not owners[owner_id].bootstrap_done
        assert owners[1 - owner_id].bootstrap_done

    def test_out_of_range_origin_everywhere_done(self):
        graph = uniform_random_graph(20, 60, seed=0)
        plan = plan_query(
            "SELECT v WHERE (v WITH id() = 999)-[]->(b)", graph
        )
        config = ClusterConfig(num_machines=2)
        dist = DistributedGraph.create(graph, 2)
        simulator = Simulator(config)
        machines = [
            QueryMachine(plan, dist, m, simulator.api_for(m), config)
            for m in range(2)
        ]
        assert all(machine.bootstrap_done for machine in machines)


class TestRemoteDisciplineEndToEnd:
    def test_debug_checks_catch_misrouted_frames(self):
        """A frame forced onto the wrong machine must be detected."""
        graph = uniform_random_graph(20, 60, seed=0)
        config = ClusterConfig(num_machines=2)
        plan = plan_query("SELECT a, b WHERE (a)-[]->(b)", graph)
        dist = DistributedGraph.create(graph, 2)
        simulator = Simulator(config)
        machines = [
            QueryMachine(plan, dist, m, simulator.api_for(m), config,
                         debug_checks=True)
            for m in range(2)
        ]
        simulator.attach(machines)
        remote_vertex = int(dist.local(1).local_vertices()[0])
        # Hand machine 0 a context whose stage-1 vertex it does not own.
        bogus = WorkMessage(1, ((0, remote_vertex),))
        machines[0].on_message(1, bogus)
        with pytest.raises(RuntimeFault):
            simulator.run()


class TestStrictSemanticsEndToEnd:
    def test_isomorphism_excludes_repeated_vertices(self):
        builder = GraphBuilder()
        a = builder.add_vertex()
        b = builder.add_vertex()
        builder.add_edge(a, b)
        builder.add_edge(b, a)
        graph = builder.build()
        from repro.plan import MatchSemantics

        homo = run_query(
            graph, "SELECT x, y, z WHERE (x)-[]->(y)-[]->(z)",
            ClusterConfig(num_machines=2),
        )
        iso = run_query(
            graph, "SELECT x, y, z WHERE (x)-[]->(y)-[]->(z)",
            ClusterConfig(num_machines=2),
            options=PlannerOptions(semantics=MatchSemantics.ISOMORPHISM),
        )
        # Homomorphism allows x = z (a->b->a); isomorphism forbids it.
        assert len(homo.rows) == 2
        assert len(iso.rows) == 0
