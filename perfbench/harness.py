"""The benchmark's workloads: seeded instances and the loops that drive them.

Every workload builds ``instances`` independent inputs from the run's
seed (instance *i* uses seed ``seed * instances + i``) and then runs
cycles round-robin over them.  A cycle is one instance's full query
list, driven through a fresh :class:`~repro.service.QueryService`:

* **closed loop** (``fig6_random``, ``skewed_cost``): one caller on a
  one-slot service submits the next query only after the previous one
  returned.  A one-slot service runs each query under the engine's own
  flow-control window, so its counts equal ``engine.query``'s;
* **open loop** (``svc_bsbm_q5``): arrivals are submitted at their
  seeded virtual ticks whether or not earlier ones finished, into an
  8-slot service that carves the window per scope.

The harness times only the calls into ``repro``: each ``submit()``,
each one-tick ``step()`` and each ``result()`` of a cycle is one timed
event.  A query's wall time is the sum of the events from its submit to
the step that made it terminal; a cycle's is the sum of all its events.
Row digests, the oracle and garbage collection happen outside those
timed regions.  settle() then prices every event at its fastest repeat
over the passes (see there).
"""

import gc
import statistics
import time
import traceback
from dataclasses import dataclass, field

import numpy as np
from repro.baselines.single_machine import SharedMemoryEngine
from repro.cluster.config import ClusterConfig
from repro.engine_api import QueryStatus
from repro.graph.distributed import DistributedGraph
from repro.plan import PlannerOptions, SchedulingPolicy
from repro.runtime.engine import PgxdAsyncEngine
from repro.service import QueryService, ServiceConfig
from repro.service.traffic import TrafficConfig, arrival_schedule
from repro.workloads.bsbm import generate_bsbm, query5_parts
from repro.workloads.random_graphs import random_query_suite, \
    uniform_random_graph
from repro.workloads.skewed import skewed_music_graph, skewed_query_suite

clock = time.perf_counter

#: Simulated machines of every workload (the paper's Fig. 5/6 scale).
MACHINES = 8

#: QueryMetrics counters kept per query for the per-layer table.
COUNTERS = (
    "total_ops", "total_idle_ticks", "work_messages", "contexts_shipped",
    "control_messages", "flow_control_blocks", "quota_requests",
    "quota_granted", "kernel_ops", "kernel_batches",
    "peak_buffered_contexts",
)


# ----------------------------------------------------------------------
# Workload definitions
# ----------------------------------------------------------------------
def _fig6_inputs(spec, seed):
    graph = uniform_random_graph(spec["vertices"], spec["edges"], seed=seed,
                                 num_types=8)
    return graph, None


def _fig6_queries(spec, seed, _extra):
    # The pattern suite is fixed (suite seed 0, the Fig. 6 patterns of
    # BENCH_seed.json's random_1000x5000_q4e4 row); the seed draws the
    # graph.  Patterns drawn per seed change a run's work by 20x
    # (0.7-15 s per 4-query suite over seeds 0-7), which no bound absorbs.
    return random_query_suite(spec["queries"], num_edges=spec["query_edges"],
                              seed=0, num_types=8), None


def _bsbm_inputs(spec, seed):
    bsbm = generate_bsbm(num_products=spec["products"], seed=seed,
                         num_features=spec["features"])
    return bsbm.graph, bsbm


def _bsbm_queries(spec, seed, bsbm):
    # The Poisson arrival schedule is fixed (traffic seed 0); the seed
    # draws the graph and the query-5 parts.  Schedules drawn per seed
    # move the median query wall by 2x (20-58 ms over seeds 0-15).
    # One pass is 200 arrivals over four instances, 50 each: the median
    # of one instance's 200 sits between two of its ten parts' latency
    # levels and, with the service ~80% busy, moved by 15-23% (IQR over
    # median) across graph seeds; pooling four graphs' parts halves that.
    arrivals = arrival_schedule(TrafficConfig(
        arrivals=spec["arrivals"], mean_interarrival=spec["mean_gap"],
        seed=0,
    ))
    return query5_parts(bsbm, num_parts=10, seed=seed), arrivals


def _skewed_inputs(spec, seed):
    graph = skewed_music_graph(
        num_persons=spec["persons"], fan_edges=spec["fans"],
        likes_edges=spec["likes"], seed=seed,
    )
    return graph, None


def _skewed_queries(spec, seed, _extra):
    suites = spec["suites"]
    return [
        query
        for suite in range(seed * suites, (seed + 1) * suites)
        for query in skewed_query_suite(seed=suite)
    ], None


@dataclass
class Workload:
    """One workload; README.md gives the reasons for each."""

    #: ``spec, seed -> (graph, extra)``: the timed graph generation.
    inputs: object
    #: ``spec, seed, extra -> (query texts, arrival ticks or None)``.
    queries: object
    spec: dict
    #: Seeded inputs per run; their median setup time is ``setup_s``.
    #: Few enough that each instance repeats at least five times in a
    #: 25-second run: a step's fastest of fewer repeats still carries
    #: host noise (see settle()).
    instances: int = 1
    #: Service admission slots: 1 = closed loop, more = open loop.
    slots: int = 1
    cost_planner: bool = False


WORKLOADS = {
    "fig6_random": Workload(
        _fig6_inputs, _fig6_queries,
        dict(vertices=1000, edges=5000, queries=4, query_edges=4),
        instances=2,
    ),
    "svc_bsbm_q5": Workload(
        _bsbm_inputs, _bsbm_queries,
        dict(products=2000, features=100, arrivals=50, mean_gap=100),
        instances=4, slots=8,
    ),
    "skewed_cost": Workload(
        _skewed_inputs, _skewed_queries,
        dict(persons=3000, fans=9000, likes=6000, suites=10),
        instances=3, cost_planner=True,
    ),
}


# ----------------------------------------------------------------------
# Instances (set-up)
# ----------------------------------------------------------------------
@dataclass
class Instance:
    seed: int
    graph: object
    engine: object
    queries: list
    arrivals: list
    options: object
    service_config: object
    #: Timed set-up phases in seconds.
    timings: dict


def setup_instance(workload, seed):
    """Build one seeded instance, timing each set-up phase.

    ``setup`` covers graph generation, partitioning, engine and service
    construction, plus statistics collection for the cost planner.
    """
    t0 = clock()
    graph, extra = workload.inputs(workload.spec, seed)
    t1 = clock()
    queries, arrivals = workload.queries(workload.spec, seed, extra)
    t2 = clock()
    dist = DistributedGraph.create(graph, MACHINES)
    t3 = clock()
    engine = PgxdAsyncEngine(dist, ClusterConfig(num_machines=MACHINES,
                                                 seed=seed))
    t4 = clock()
    if workload.cost_planner:
        graph.statistics()
    t5 = clock()
    service_config = ServiceConfig(max_concurrent=workload.slots)
    QueryService(engine, service_config)
    t6 = clock()
    options = (PlannerOptions(scheduling=SchedulingPolicy.COST)
               if workload.cost_planner else None)
    timings = {
        "seed": seed,
        "setup": t6 - t0,
        "build": t1 - t0,
        "partition": t3 - t2,
        "stats": t5 - t4 if workload.cost_planner else None,
    }
    return Instance(seed, graph, engine, queries, arrivals, options,
                    service_config, timings)


# ----------------------------------------------------------------------
# Query outcomes
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """One executed query, reduced to what verification needs."""

    instance: int
    index: int
    text: str
    error: str = None
    #: ``(first, stop)``: the cycle's events this query's wall covers.
    span: tuple = (0, 0)
    #: Wall of those events, each at its fastest repeat (see settle()).
    fast_s: float = None
    rows: int = 0
    digest: int = 0
    budget: int = 0
    ticks: int = 0
    latency_ticks: int = None
    admission_wait: int = None
    #: Plan candidates the cost planner priced (0 without one).
    candidates: int = 0
    counters: dict = field(default_factory=dict)
    failure: str = None

    @property
    def deterministic(self):
        """Counts that must repeat exactly for this (instance, query)."""
        return (self.error, self.rows, self.digest, self.ticks,
                self.latency_ticks, self.counters.get("total_ops"),
                self.counters.get("work_messages"))


def rows_digest(rows):
    """Order-insensitive fingerprint of a result's rows."""
    return hash(tuple(sorted(rows)))


def _outcome(instance, index, text, span, result, config, scope=None,
             error=None):
    outcome = Outcome(instance, index, text, error=error, span=span)
    if result is None:
        return outcome
    metrics = result.metrics
    outcome.rows = len(result.rows)
    outcome.digest = rows_digest(result.rows)
    outcome.ticks = metrics.ticks
    outcome.budget = (
        result.plan.num_stages * (config.num_machines - 1)
        * config.bulk_message_size * (config.flow_control_window + 1)
    )
    outcome.counters = {name: getattr(metrics, name) for name in COUNTERS}
    if result.plan.choice is not None:
        outcome.candidates = result.plan.choice.candidates_considered
    if scope is not None:
        outcome.latency_ticks = scope.latency
        outcome.admission_wait = scope.admission_wait
    return outcome


def _describe(exc):
    traceback.print_exc()
    return "%s: %s" % (type(exc).__name__, exc)


@dataclass
class Cycle:
    pass_index: int
    instance: int
    wall_s: float
    outcomes: list
    peak_active: int
    #: Process CPU time of the cycle; well below ``wall_s`` means the
    #: host descheduled this process (recorded in the result file).
    cpu_s: float = 0.0
    #: Wall time of each call into the service, in call order.
    events: object = None
    #: ``wall_s`` with every event at its fastest repeat (see settle()).
    fast_s: float = None


def _timed(events, fn, *args, **kwargs):
    """Call *fn*, appending its wall time to *events* even if it raises."""
    t0 = clock()
    try:
        return fn(*args, **kwargs)
    finally:
        events.append(clock() - t0)


def run_closed_cycle(number, inst, recorder=None):
    """One caller, one query at a time: submit, step the service until
    the query is terminal, then take its result.

    Returns the cycle's timed events (one per call into the service),
    its outcomes (each with the span of events its wall time covers)
    and the service's peak of active scopes.
    """
    service = QueryService(inst.engine, inst.service_config)
    config = service.scope_config
    events = []
    outcomes = []
    for index, text in enumerate(inst.queries):
        query_id = "q%d" % index
        if recorder is not None:
            recorder.set_query(recorder.prefix + query_id)
        first = len(events)
        error = result = None
        try:
            handle = _timed(events, service.submit, text, inst.options,
                            query_id=query_id)
            while not handle.status.terminal:
                if not _timed(events, service.step):
                    raise RuntimeError("service idle but %s not terminal"
                                       % query_id)
            result = _timed(events, handle.result)
        except Exception as exc:  # a failed query is counted, not fatal
            error = _describe(exc)
        outcomes.append(_outcome(number, index, text, (first, len(events)),
                                 result, config, error=error))
    return events, outcomes, service.peak_active


def run_open_cycle(number, inst, recorder=None):
    """Open loop: arrivals enter at their virtual ticks regardless of load.

    A query's wall time runs from its ``submit()`` call to the end of
    the ``step()`` that made it terminal: the events in between, the
    other scopes' grants included.  Arrivals are submitted at exactly
    their due tick (the loop never lets the clock pass one), so the
    generator is never late.
    """
    service = QueryService(inst.engine, inst.service_config)
    schedule = inst.arrivals
    mix = inst.queries
    events = []
    submitted = {}  # query_id -> (index, text, its submit event)
    finished = {}  # query_id -> end of its span of events, or an error
    live = []
    cursor = 0
    while cursor < len(schedule) or not service.idle:
        while cursor < len(schedule) and schedule[cursor] <= service.now:
            text = mix[cursor % len(mix)]
            query_id = "q%d" % cursor
            if recorder is not None:
                recorder.set_query(recorder.prefix + query_id)
            submitted[query_id] = (cursor, text, len(events))
            try:
                live.append(_timed(events, service.submit, text,
                                   query_id=query_id))
            except Exception as exc:  # counted as a failed query
                finished[query_id] = _describe(exc)
            if recorder is not None:
                recorder.query = 0
            cursor += 1
        if not _timed(events, service.step):
            if cursor >= len(schedule):
                break
            service.now = schedule[cursor]
            continue
        if any(handle.status.terminal for handle in live):
            for handle in [h for h in live if h.status.terminal]:
                finished[handle.query_id] = len(events)
                live.remove(handle)
    config = service.scope_config
    outcomes = []
    for query_id, (index, text, first) in submitted.items():
        stop = finished.get(query_id, "never reached a terminal state")
        if isinstance(stop, str):
            outcomes.append(_outcome(number, index, text, (first, first),
                                     None, config, error=stop))
            continue
        scope = service.scope(query_id)
        error = None
        if scope.status is not QueryStatus.DONE:
            error = "ended %s: %s" % (scope.status.value, scope.aborted)
        outcomes.append(_outcome(number, index, text, (first, stop),
                                 scope.result, config, scope=scope,
                                 error=error))
    return events, outcomes, service.peak_active


def warm_up(workload, instances):
    """One untimed cycle, so first-use costs (page faults of fresh heap,
    lazy imports) are paid before timing starts, as in a running service.
    Its outcomes are still verified."""
    gc.collect()
    _events, outcomes, peak = _cycle_runner(workload)(0, instances[0])
    return [Cycle(-1, 0, 0.0, outcomes, peak)]


def _cycle_runner(workload):
    return run_closed_cycle if workload.slots == 1 else run_open_cycle


class HostGauge:
    """A fixed reference kernel, timed between cycles, that gauges how
    fast the host runs this process right now.

    On a shared host other tenants slow this process down for minutes
    at a time (by up to 2x), more than any in-run statistic removes; in
    such phases the fastest repeat of every step is slow too.  The
    kernel (random gathers from a 4 MB array and lookups in a 20k-entry
    dict, ~2 ms) slows down with the program: over fourteen 20-second
    runs of ``svc_bsbm_q5`` in a noisy hour, the coefficient of
    variation of the pass wall was 0.17, and of the pass wall divided by
    the kernel's fastest time 0.06.  The same kernel over 16 and 64 MB
    tracked it worse (0.10, 0.11), and so did a loop over a 509-entry
    dict (0.27), a walk over 20k linked Python objects added to it, and
    the kernel cut into step-sized chunks each priced at its fastest
    repeat (both added spread on ``fig6_random`` in a quiet hour).  It
    does not touch ``repro``, so no change to the program moves it.
    """

    #: The kernel's fastest time on the reference host (a 2-vCPU Intel
    #: Xeon with a quiet neighbourhood); host_factor() scales to it.
    NOMINAL_S = 0.002

    def __init__(self):
        rng = np.random.default_rng(0)
        self.table = np.arange(500_000, dtype=np.int64)
        self.index = rng.integers(0, len(self.table), 100_000)
        self.mapping = {key: key for key in range(20_000)}
        self.keys = [int(i) % len(self.mapping) for i in self.index[:30_000]]
        self.times = []

    def kernel(self):
        total = int(self.table[self.index].sum())
        mapping = self.mapping
        for key in self.keys:
            total += mapping[key]
        return total

    def sample(self, repeats=5):
        for _ in range(repeats):
            t0 = clock()
            self.kernel()
            self.times.append(clock() - t0)

    def fastest_s(self):
        return min(self.times)

    def host_factor(self):
        """Nominal ÷ fastest kernel time: multiply a wall time by it to
        express it on the reference host."""
        return self.NOMINAL_S / self.fastest_s()


def run_cycles(workload, instances, seconds, count=None, recorder=None,
               setups=None, gauge=None):
    """Cycle round-robin over the instances until *seconds* of timed wall
    have passed, in whole passes.

    Cycle *c* runs instance ``c % len(instances)`` in pass
    ``c // len(instances)``.  Every instance runs equally often;
    instances that repeat have their deterministic counts compared
    across repeats.  *count* fixes the number of cycles instead (the
    traced run replays the untraced one).

    With a *setups* list, each pass first sets every instance up once
    more (discarded) and appends the timings: repeated set-ups of the
    same seed let fastest_setup() take each one's least disturbed time.
    A *gauge* (HostGauge) is sampled before every cycle.
    """
    drive = _cycle_runner(workload)
    cycles = []
    wall = 0.0
    while True:
        done = len(cycles)
        if count is not None:
            if done >= count:
                break
        elif done and done % len(instances) == 0 and wall >= seconds:
            break
        number = done % len(instances)
        pass_index = done // len(instances)
        if setups is not None and number == 0:
            for spare in instances:
                setups.append(setup_instance(workload, spare.seed).timings)
        gc.collect()
        if gauge is not None:
            gauge.sample()
        if recorder is not None:
            recorder.prefix = "c%d/" % done
        cpu0 = time.process_time()
        events, outcomes, peak = drive(number, instances[number], recorder)
        cpu = time.process_time() - cpu0
        events = np.array(events)
        cycles.append(Cycle(pass_index, number, float(events.sum()),
                            outcomes, peak, cpu, events))
        wall += cycles[-1].wall_s
    return cycles


def settle(cycles):
    """Set ``fast_s`` of every cycle and outcome: the wall of its span of
    events with each event at its fastest repeat.

    The simulation is deterministic, so event *k* of an instance's cycle
    (a submit or a one-tick step) does the same work in every pass; its
    fastest repeat is its cost with the least interference from other
    load on a shared host, which comes in bursts of milliseconds.
    """
    by_instance = {}
    for cycle in cycles:
        by_instance.setdefault(cycle.instance, []).append(cycle)
    for mine in by_instance.values():
        fastest = None
        if len({len(cycle.events) for cycle in mine}) == 1:
            fastest = np.min([cycle.events for cycle in mine], axis=0)
        # Otherwise the repeats diverged, which verify() reports; each
        # cycle then keeps its own times.
        for cycle in mine:
            events = cycle.events if fastest is None else fastest
            total = np.concatenate(([0.0], np.cumsum(events)))
            cycle.fast_s = float(total[-1])
            for outcome in cycle.outcomes:
                first, stop = outcome.span
                outcome.fast_s = float(total[stop] - total[first])


def fastest_setup(setups, phase):
    """Median over instances of each instance's fastest *phase* time."""
    by_seed = {}
    for timings in setups:
        by_seed.setdefault(timings["seed"], []).append(timings[phase])
    return statistics.median(min(times) for times in by_seed.values())


# ----------------------------------------------------------------------
# Verification
# ----------------------------------------------------------------------
def oracle_digests(instances):
    """``{(instance, text): (rows, digest)}`` from the shared-memory engine
    under the default planner (the correctness reference)."""
    expected = {}
    for number, inst in enumerate(instances):
        oracle = SharedMemoryEngine(inst.graph)
        for text in dict.fromkeys(inst.queries):
            rows = oracle.query(text).rows
            expected[number, text] = (len(rows), rows_digest(rows))
    return expected


def verify(cycle_sets, expected):
    """Mark every failed outcome; returns the failed outcomes.

    A query fails when it raised or did not end DONE, when its rows
    differ from the oracle's, when its peak buffered contexts exceed the
    flow-control budget, or when a deterministic count differs from the
    first execution of the same query on the same instance — across
    passes and between the untraced and traced runs (*cycle_sets* holds
    both).
    """
    first = {}
    failed = []
    for cycles in cycle_sets:
        for cycle in cycles:
            for outcome in cycle.outcomes:
                key = (outcome.instance, outcome.index)
                reference = first.setdefault(key, outcome.deterministic)
                peak = outcome.counters.get("peak_buffered_contexts", 0)
                if outcome.error is not None:
                    outcome.failure = outcome.error
                elif (outcome.rows, outcome.digest) != expected[
                        outcome.instance, outcome.text]:
                    outcome.failure = (
                        "rows differ from the oracle (%d rows, oracle %d)"
                        % (outcome.rows,
                           expected[outcome.instance, outcome.text][0])
                    )
                elif peak > outcome.budget:
                    outcome.failure = (
                        "peak buffered contexts %d over budget %d"
                        % (peak, outcome.budget)
                    )
                elif outcome.deterministic != reference:
                    outcome.failure = (
                        "deterministic counts changed between repeats: "
                        "%r != %r" % (outcome.deterministic, reference)
                    )
                if outcome.failure is not None:
                    failed.append(outcome)
    return failed
