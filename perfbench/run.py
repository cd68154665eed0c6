"""Same-machine, layer-attributed benchmark of the PGX.D/Async engine.

Run one workload::

    python3 perfbench/run.py --workload fig6_random --seed 0 \
        --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
Wall times price every step at its fastest repeat over the run and are
scaled to a reference host by a gauge kernel timed between cycles (see
``harness.settle`` and ``harness.HostGauge``).
``--trace 1`` runs the same cycles untraced and then traced, and reports
the per-layer metrics (self times from spans around the public methods
of each layer) plus the tracing overhead.  Either way every query's rows
are checked against the shared-memory oracle, peak buffered contexts
against the flow-control budget, and deterministic counts across
repeats; any failure makes the exit code nonzero.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full result, stamped
with a machine fingerprint, goes to ``.perfbench_out/`` in the checkout
(spans of a traced run too).  Compare two results with::

    python3 perfbench/run.py --compare OLD.json NEW.json

which refuses wall-clock and memory comparisons across differing
fingerprints.  See ``perfbench/README.md`` for every metric.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SCHEMA = "perfbench/1"

#: A tail percentile is reported only with at least 10 samples beyond it.
P95_MIN_SAMPLES = 200

#: name -> (unit, kind).  ``wall`` and ``memory`` depend on the machine
#: and are compared only between equal fingerprints; ``sim`` values are
#: deterministic functions of the seed.
END_TO_END = {
    "setup_s": ("s", "wall"),
    "queries_per_s": ("1/s", "wall"),
    "query_ms_p50": ("ms", "wall"),
    "sim_ticks": ("ticks", "sim"),
    "peak_rss_mb": ("MB", "memory"),
}

#: End-to-end metrics printed in the table and the result file but not
#: in the JSON line: they exist on one workload only, can be 0, or
#: spread across seeds wider than any bound (see README.md).
END_TO_END_EXTRA = {
    "query_ms_p95": ("ms", "wall"),
    "query_samples": ("count", "sim"),
    "svc_latency_ticks_p50": ("ticks", "sim"),
    "svc_latency_ticks_p95": ("ticks", "sim"),
    "peak_buffered_contexts": ("contexts", "sim"),
    "failed_frac": ("ratio", "sim"),
}

PER_LAYER = {
    "pgql.parse_ms": ("ms", "wall"),
    "plan.plan_ms": ("ms", "wall"),
    "plan.cost_candidates": ("count", "sim"),
    "stats.collect_s": ("s", "wall"),
    "graph.build_s": ("s", "wall"),
    "graph.partition_s": ("s", "wall"),
    "kernels.compile_ms": ("ms", "wall"),
    "kernels.compiles_per_query": ("ratio", "sim"),
    "kernels.run_calls": ("count", "sim"),
    "kernels.run_self_s": ("s", "wall"),
    "kernels.ops_per_batch": ("ops", "sim"),
    "kernels.op_share": ("ratio", "sim"),
    "engine.prepare_ms": ("ms", "wall"),
    "engine.finalize_ms": ("ms", "wall"),
    "simulator.steps": ("count", "sim"),
    "simulator.self_s": ("s", "wall"),
    "sim.idle_ticks": ("ticks", "sim"),
    "sim.utilisation": ("ratio", "sim"),
    "machine.worker_steps": ("count", "sim"),
    "machine.worker_step_busy_frac": ("ratio", "sim"),
    "machine.worker_step_self_s": ("s", "wall"),
    "machine.on_message_calls": ("count", "sim"),
    "machine.on_message_self_s": ("s", "wall"),
    "worker.step_self_s": ("s", "wall"),
    "flow.blocks": ("count", "sim"),
    "flow.quota_requests": ("count", "sim"),
    "flow.quota_granted": ("count", "sim"),
    "flow.peak_over_budget": ("ratio", "sim"),
    "network.deliver_self_s": ("s", "wall"),
    "network.work_messages": ("count", "sim"),
    "network.contexts_shipped": ("count", "sim"),
    "network.control_messages": ("count", "sim"),
    "service.submit_ms": ("ms", "wall"),
    "service.sched_self_s": ("s", "wall"),
    "service.admission_wait_ticks_p50": ("ticks", "sim"),
    "service.peak_active": ("count", "sim"),
    "workload.repeat_text_frac": ("ratio", "sim"),
    "trace.overhead_frac": ("ratio", "wall"),
}

UNITS = {**END_TO_END, **END_TO_END_EXTRA, **PER_LAYER}


def _import_repro():
    """Put this checkout's ``src`` first on the path and import from it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit("perfbench: no %s/repro to benchmark" % SRC)
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit("perfbench: imported repro from %s, not %s"
                         % (repro.__file__, SRC))


def fingerprint():
    """What wall-clock results depend on besides the code."""
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
    }


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _outcomes(cycles):
    return [outcome for cycle in cycles for outcome in cycle.outcomes]


def _first_pass(cycles):
    return [o for cycle in cycles if cycle.pass_index == 0
            for o in cycle.outcomes]


def pass_wall(cycles):
    """Wall of one pass over the instances, each cycle's events at their
    fastest repeat (``Cycle.fast_s``, set by ``harness.settle``)."""
    return sum({cycle.instance: cycle.fast_s for cycle in cycles}.values())


def end_to_end(workload, setups, cycles, rss_mb):
    from harness import fastest_setup
    from repro.service.traffic import percentile

    outcomes = _outcomes(cycles)
    good = [o for o in outcomes if o.failure is None]
    first = _first_pass(cycles)
    # Every repeat of a query has the same fast_s: count each once.
    walls_ms = sorted(o.fast_s * 1000.0 for o in first if o.failure is None)
    metrics = {
        "setup_s": fastest_setup(setups, "setup"),
        # Verified queries of one pass over the pass's wall.
        "queries_per_s": (len(good) / len(outcomes) * len(first)
                          / pass_wall(cycles)),
        "query_ms_p50": statistics.median(walls_ms) if walls_ms else 0.0,
        "sim_ticks": sum(o.ticks for o in first),
        "peak_rss_mb": rss_mb,
        "query_samples": len(walls_ms),
        "peak_buffered_contexts": max(
            (o.counters.get("peak_buffered_contexts", 0) for o in outcomes),
            default=0,
        ),
        "failed_frac": (len(outcomes) - len(good)) / len(outcomes),
    }
    if len(walls_ms) >= P95_MIN_SAMPLES:
        metrics["query_ms_p95"] = percentile(walls_ms, 95)
    if workload.slots > 1:
        latencies = sorted(o.latency_ticks for o in first
                           if o.latency_ticks is not None)
        metrics["svc_latency_ticks_p50"] = percentile(latencies, 50)
        metrics["svc_latency_ticks_p95"] = percentile(latencies, 95)
    return metrics


def instance_summary(instances, cycles):
    """Deterministic first-pass totals per instance."""
    first = _first_pass(cycles)
    summary = []
    for number, inst in enumerate(instances):
        mine = [o for o in first if o.instance == number]
        summary.append({
            "seed": inst.seed,
            "queries": len(mine),
            "distinct_queries": len({o.text for o in mine}),
            "ticks": sum(o.ticks for o in mine),
            "total_ops": sum(o.counters.get("total_ops", 0) for o in mine),
            "rows": sum(o.rows for o in mine),
        })
    return summary


def per_layer(recorder, instances, setups, untraced, cycles, stats_s):
    """Layer metrics of the traced *cycles*, normalised per query."""
    from harness import fastest_setup
    from repro.service.traffic import percentile

    outcomes = _outcomes(cycles)
    queries = len(outcomes)

    def calls(name):
        return recorder.stats(name)[0] / queries

    def total(name):
        return recorder.stats(name)[1] / queries

    def self_s(name):
        return recorder.stats(name)[2] / queries

    def summed(counter):
        return sum(o.counters.get(counter, 0) for o in outcomes)

    config = instances[0].engine.config
    capacity = (config.num_machines * config.workers_per_machine
                * config.ops_per_tick)
    step_calls, _, _, busy = recorder.stats("machine.worker_step")
    waits = sorted(o.admission_wait for o in outcomes
                   if o.admission_wait is not None)
    repeat = [1.0 - inst["distinct_queries"] / inst["queries"]
              for inst in instance_summary(instances, cycles)]
    return {
        "pgql.parse_ms": 1000.0 * self_s("pgql.parse"),
        "plan.plan_ms": 1000.0 * self_s("plan.plan"),
        "plan.cost_candidates": sum(o.candidates for o in outcomes) / queries,
        "stats.collect_s": stats_s,
        "graph.build_s": fastest_setup(setups, "build"),
        "graph.partition_s": fastest_setup(setups, "partition"),
        "kernels.compile_ms": 1000.0 * total("kernels.compile"),
        "kernels.compiles_per_query": calls("kernels.compile"),
        "kernels.run_calls": calls("kernels.run"),
        "kernels.run_self_s": self_s("kernels.run"),
        "kernels.ops_per_batch": (summed("kernel_ops")
                                  / max(1, summed("kernel_batches"))),
        "kernels.op_share": summed("kernel_ops") / max(1, summed("total_ops")),
        "engine.prepare_ms": 1000.0 * self_s("engine.prepare"),
        "engine.finalize_ms": 1000.0 * self_s("engine.finalize"),
        "simulator.steps": calls("simulator.step"),
        "simulator.self_s": self_s("simulator.step"),
        "sim.idle_ticks": summed("total_idle_ticks") / queries,
        "sim.utilisation": summed("total_ops") / max(
            1, capacity * sum(o.ticks for o in outcomes)),
        "machine.worker_steps": calls("machine.worker_step"),
        "machine.worker_step_busy_frac": busy / max(1, step_calls),
        "machine.worker_step_self_s": self_s("machine.worker_step"),
        "machine.on_message_calls": calls("machine.on_message"),
        "machine.on_message_self_s": self_s("machine.on_message"),
        "worker.step_self_s": self_s("worker.step"),
        "flow.blocks": summed("flow_control_blocks") / queries,
        "flow.quota_requests": summed("quota_requests") / queries,
        "flow.quota_granted": summed("quota_granted") / queries,
        "flow.peak_over_budget": max(
            (o.counters.get("peak_buffered_contexts", 0) / o.budget
             for o in outcomes if o.budget),
            default=0.0,
        ),
        "network.deliver_self_s": self_s("network.deliver"),
        "network.work_messages": summed("work_messages") / queries,
        "network.contexts_shipped": summed("contexts_shipped") / queries,
        "network.control_messages": summed("control_messages") / queries,
        "service.submit_ms": 1000.0 * self_s("service.submit"),
        "service.sched_self_s": (self_s("service.step")
                                 + self_s("service.result")),
        "service.admission_wait_ticks_p50": percentile(waits, 50) or 0,
        "service.peak_active": max(cycle.peak_active for cycle in cycles),
        "workload.repeat_text_frac": statistics.mean(repeat),
        "trace.overhead_frac": pass_wall(cycles) / pass_wall(untraced) - 1.0,
    }


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def peak_rss_mb():
    """This process's resident high-water mark (one workload per run)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rss_mb():
    """This process's resident set now (0 where /proc is missing)."""
    try:
        with open("/proc/self/statm") as handle:
            pages = int(handle.read().split()[1])
    except OSError:
        return 0.0
    return pages * os.sysconf("SC_PAGE_SIZE") / 2.0 ** 20


def host_scaled(metrics, factor):
    """*metrics* with every wall-clock time and rate expressed on the
    reference host: times times *factor*, rates divided by it."""
    scaled = dict(metrics)
    for name, value in metrics.items():
        unit, kind = UNITS[name]
        if kind == "wall" and unit in ("s", "ms"):
            scaled[name] = value * factor
        elif kind == "wall" and unit == "1/s":
            scaled[name] = value / factor
    return scaled


def run(workload_name, seed, seconds, trace):
    """Run one workload; returns the full result document."""
    from harness import WORKLOADS, HostGauge, clock, fastest_setup, \
        oracle_digests, run_cycles, settle, setup_instance, verify, warm_up

    workload = WORKLOADS[workload_name]
    before = rss_mb()
    gauge = HostGauge()
    # The gauge's arrays stay resident all run; peak_rss_mb leaves them out.
    gauge_mb = rss_mb() - before
    instances = [setup_instance(workload, seed * workload.instances + i)
                 for i in range(workload.instances)]
    setups = [inst.timings for inst in instances]
    warm = warm_up(workload, instances)
    cycles = run_cycles(workload, instances, seconds, setups=setups,
                        gauge=gauge)
    peak_mb = peak_rss_mb() - gauge_mb
    cycle_sets = [warm, cycles]
    layers = None
    spans_path = None
    if trace:
        from tracer import SpanRecorder, install, uninstall

        recorder = SpanRecorder()
        undo = install(recorder)
        try:
            traced = run_cycles(workload, instances, seconds,
                                count=len(cycles), recorder=recorder,
                                gauge=gauge)
        finally:
            uninstall(undo)
        cycle_sets.append(traced)
        if workload.cost_planner:
            stats_s = fastest_setup(setups, "stats")
        else:
            # The default planner never reads statistics; collect them
            # once here so the stats layer is measured on every graph.
            t0 = clock()
            instances[0].graph.statistics(refresh=True)
            stats_s = clock() - t0
    for timed in cycle_sets[1:]:
        settle(timed)
    expected = oracle_digests(instances)
    failed = verify(cycle_sets, expected)
    attempted = sum(len(_outcomes(c)) for c in cycle_sets)
    factor = gauge.host_factor()
    e2e = end_to_end(workload, setups, cycles, peak_mb)
    if trace:
        layers = per_layer(recorder, instances, setups, cycles, traced,
                           stats_s)
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / ("%s-s%d-spans.npz" % (workload_name, seed))
        recorder.write(spans_path)
    return {
        "schema": SCHEMA,
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "fingerprint": fingerprint(),
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "failures": sorted({o.failure for o in failed})[:20],
        "cycles": len(cycles),
        "cycles_wall_fast_cpu_s": [
            [c.pass_index, c.instance, c.wall_s, c.fast_s, c.cpu_s]
            for c in cycles
        ],
        "host": {"gauge_fastest_s": gauge.fastest_s(),
                 "gauge_nominal_s": gauge.NOMINAL_S,
                 "factor": factor, "gauge_mb": gauge_mb},
        "end_to_end": host_scaled(e2e, factor),
        "per_layer": layers and host_scaled(layers, factor),
        "end_to_end_unscaled": e2e,
        "spans": str(spans_path) if spans_path else None,
        "instances": instance_summary(instances, cycles),
    }


def metric_line(doc):
    """The JSON object the last output line carries."""
    if doc["trace"]:
        values = doc["per_layer"]
        names = PER_LAYER
    else:
        values = doc["end_to_end"]
        names = END_TO_END
    return {
        "correct": doc["correct"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {
            name: {"value": values[name], "unit": UNITS[name][0]}
            for name in names
        },
    }


def print_table(doc):
    print("perfbench %s seed=%d trace=%d cycles=%d  [%s, nproc=%s, "
          "python %s, numpy %s, PYTHONHASHSEED=%s]"
          % (doc["workload"], doc["seed"], doc["trace"], doc["cycles"],
             *(doc["fingerprint"][k] for k in
               ("cpu", "nproc", "python", "numpy", "hash_seed"))))
    print("  host gauge: fastest %.4g s, nominal %.4g s -> wall times x %.4f"
          % (doc["host"]["gauge_fastest_s"], doc["host"]["gauge_nominal_s"],
             doc["host"]["factor"]))
    for inst in doc["instances"]:
        print("  instance seed=%(seed)d queries=%(queries)d "
              "distinct=%(distinct_queries)d ticks=%(ticks)d "
              "total_ops=%(total_ops)d rows=%(rows)d" % inst)
    sections = [("end-to-end", doc["end_to_end"])]
    if doc["per_layer"]:
        sections.append(("per-layer", doc["per_layer"]))
    for title, values in sections:
        print("  %s:" % title)
        for name, value in values.items():
            print("    %-34s %16.6g %s" % (name, value, UNITS[name][0]))
    for failure in doc["failures"]:
        print("  FAILED: %s" % failure)


# ----------------------------------------------------------------------
# Comparing two results
# ----------------------------------------------------------------------
def compare(old_path, new_path):
    """Print new/old per metric; 3 when a wall comparison was refused."""
    with open(old_path) as handle:
        old = json.load(handle)
    with open(new_path) as handle:
        new = json.load(handle)
    for doc, path in ((old, old_path), (new, new_path)):
        if doc.get("schema") != SCHEMA:
            raise SystemExit("%s is not a %s result" % (path, SCHEMA))
    if (old["workload"], old["seconds"]) != (new["workload"],
                                             new["seconds"]):
        raise SystemExit("results are of different workloads or run "
                         "lengths; not comparable")
    same_machine = old["fingerprint"] == new["fingerprint"]
    if not same_machine:
        print("fingerprints differ; wall-clock and memory metrics are not "
              "compared:\n  old %s\n  new %s"
              % (old["fingerprint"], new["fingerprint"]))
    refused = 0
    for section in ("end_to_end", "per_layer"):
        before, after = old.get(section) or {}, new.get(section) or {}
        for name in before:
            if name not in after:
                continue
            unit, kind = UNITS[name]
            if kind != "sim" and not same_machine:
                refused += 1
                print("  %-34s refused (%s metric)" % (name, kind))
                continue
            ratio = (after[name] / before[name]) if before[name] else None
            print("  %-34s %14.6g -> %-14.6g %s%s" % (
                name, before[name], after[name], unit,
                "  x%.4f" % ratio if ratio is not None else ""))
    return 3 if refused else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    _import_repro()
    if args.compare:
        return compare(*args.compare)
    from harness import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error("--workload must be one of %s" % ", ".join(WORKLOADS))
    doc = run(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    result_path = OUT / ("%s-s%d-t%d.json"
                         % (args.workload, args.seed, args.trace))
    with open(result_path, "w") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print_table(doc)
    print("  result: %s" % result_path)
    print(json.dumps(metric_line(doc)))
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Row digests and set orders must not vary between runs: restart
        # this same process (no child) with a fixed hash seed.
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable] + sys.argv, env)
    sys.exit(main())
