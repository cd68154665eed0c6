"""Command-line interface: query and analyze graphs from the shell.

Usage examples::

    python -m repro query --random 1000x5000 --machines 4 \\
        "SELECT a, b WHERE (a)-[]->(b), a.value > b.value" --limit-print 10

    python -m repro query --graph data/graph.json --explain \\
        "SELECT COUNT(*) WHERE (a)-[:friend]->(b)"

    python -m repro trace --random 1000x5000 --machines 4 \\
        "SELECT a, b WHERE (a)-[]->(b)" --chrome-out trace.json

    python -m repro chaos --random 1000x5000 --machines 4 --seed 7 \\
        --profile soak --verify "SELECT a, b WHERE (a)-[]->(b)"

    python -m repro monitor --random 1000x5000 --machines 4 \\
        "SELECT a, b WHERE (a)-[]->(b)" --series-out series.jsonl

    python -m repro query --bsbm 500 --plan cost --explain \\
        "SELECT COUNT(*) WHERE (o:offer)-[:offerProduct]->(p:product)-[:producer]->(pr:producer)"

    python -m repro stats --bsbm 500 --top 3

    python -m repro bench --quick --compare BENCH_seed.json --threshold 25

    python -m repro lint src/repro --fail-on error --json-out lint.json

    python -m repro lint --explain RPR002

    python -m repro analyze --random 1000x5000 pagerank --iterations 20

    python -m repro analyze --bsbm 500 wcc
"""

import argparse
import os
import sys

from repro.bench import EXIT_REGRESSION
from repro.chaos import PROFILES, profile
from repro.cluster.config import ClusterConfig
from repro.context import ExecutionContext
from repro.errors import QueryAborted
from repro.graph import load_edge_list, load_json, uniform_random_graph
from repro.plan import MatchSemantics, PlannerOptions, SchedulingPolicy
from repro.runtime import PgxdAsyncEngine

#: Exit code for a query that aborted (deadline, crash) — distinct from
#: argparse's 2 so scripts can tell "bad usage" from "query cancelled".
EXIT_ABORTED = 3

#: Exit code for ``repro lint`` when findings meet the ``--fail-on``
#: threshold (usage errors stay argparse's 2).
EXIT_LINT = 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PGX.D/Async reproduction: distributed graph pattern "
                    "matching on a simulated cluster",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    query = subparsers.add_parser("query", help="run a PGQL query")
    _add_graph_args(query)
    _add_query_args(query)
    query.add_argument("--explain", action="store_true",
                       help="print the stage plan instead of executing")
    query.add_argument("--explain-analyze", action="store_true",
                       help="print the stage plan annotated with runtime "
                            "counters, estimated-vs-actual rows "
                            "(q-error), and per-machine skew after "
                            "executing")
    query.add_argument("--feedback-store", metavar="PATH",
                       help="planner feedback store (JSON): recorded "
                            "actuals correct the cost model's "
                            "selectivities under --plan cost, and this "
                            "run's profile is recorded back")
    query.add_argument("--limit-print", type=int, default=20,
                       help="max rows to print (default 20)")

    trace = subparsers.add_parser(
        "trace",
        help="run a PGQL query with event tracing and report the timeline",
    )
    _add_graph_args(trace)
    _add_query_args(trace)
    trace.add_argument("--chrome-out", metavar="PATH",
                       help="write a chrome://tracing JSON file")
    trace.add_argument("--width", type=int, default=72,
                       help="timeline width in columns (default 72)")
    trace.add_argument("--max-events", type=int, default=1_000_000,
                       help="cap on recorded trace events")

    chaos = subparsers.add_parser(
        "chaos",
        help="run a PGQL query under a fault profile with the "
             "reliability layer, and report delivered-exactly-once stats",
    )
    _add_graph_args(chaos)
    _add_query_args(chaos)
    chaos.add_argument("--profile", choices=sorted(PROFILES),
                       default="soak",
                       help="named fault mix (default: soak)")
    chaos.add_argument("--drop", type=float, default=None,
                       help="override the profile's message drop rate")
    chaos.add_argument("--dup", type=float, default=None,
                       help="override the duplication rate")
    chaos.add_argument("--reorder", type=float, default=None,
                       help="override the reordering rate")
    chaos.add_argument("--max-delay", type=int, default=None,
                       help="max extra ticks for reordered/duplicate copies")
    chaos.add_argument("--stall", action="append", default=[],
                       metavar="M@T+D",
                       help="stall machine M's workers from tick T for D "
                            "ticks (repeatable)")
    chaos.add_argument("--crash", metavar="M@T",
                       help="crash machine M at tick T (the query aborts)")
    chaos.add_argument("--verify", action="store_true",
                       help="also run fault-free and require identical "
                            "results (exit 1 on mismatch)")
    chaos.add_argument("--limit-print", type=int, default=0,
                       help="max rows to print (default 0: stats only)")

    monitor = subparsers.add_parser(
        "monitor",
        help="run a PGQL query with live telemetry and a terminal "
             "dashboard (sparklines per machine + stage wavefront)",
    )
    _add_graph_args(monitor)
    _add_query_args(monitor)
    monitor.add_argument("--interval", type=int, default=1,
                         help="sample the series every N ticks (default 1)")
    monitor.add_argument("--refresh", type=int, default=None,
                         help="redraw every N samples (default: 8 on a "
                              "TTY, 32 in snapshot mode)")
    monitor.add_argument("--width", type=int, default=32,
                         help="sparkline width in columns (default 32)")
    monitor.add_argument("--snapshots", action="store_true",
                         help="force plain-text snapshots instead of the "
                              "ANSI in-place redraw")
    monitor.add_argument("--prom-out", metavar="PATH",
                         help="write the final registry in Prometheus "
                              "text exposition format")
    monitor.add_argument("--series-out", metavar="PATH",
                         help="write the per-tick series (.csv for CSV, "
                              "anything else JSONL)")

    bench = subparsers.add_parser(
        "bench",
        help="run the seeded benchmark matrix, write BENCH_<tag>.json, "
             "and optionally gate against a baseline",
    )
    bench.add_argument("--quick", action="store_true",
                       help="run the CI subset of the matrix (a strict "
                            "subset of the full run, so comparisons "
                            "against a full baseline stay valid)")
    bench.add_argument("--tag", default="run",
                       help="tag for the output document (default: run)")
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--out", metavar="PATH",
                       help="output path (default: BENCH_<tag>.json)")
    bench.add_argument("--compare", metavar="PATH",
                       help="baseline BENCH JSON to diff against; exit "
                            "%d when a deterministic metric regressed "
                            "past the threshold" % EXIT_REGRESSION)
    bench.add_argument("--threshold", type=float, default=25.0,
                       help="regression threshold in percent (default 25)")
    bench.add_argument("--profile", action="store_true",
                       help="run the matrix under cProfile and print the "
                            "top 20 functions by cumulative time")
    bench.add_argument("--no-bulk-kernels", action="store_true",
                       help="disable the compiled bulk-kernel fast path "
                            "(micro-stepped reference execution; all "
                            "deterministic metrics are identical)")

    lint = subparsers.add_parser(
        "lint",
        help="run the invariant-aware static analysis rule pack "
             "(determinism, zero-cost-off, protocol exhaustiveness, ...)",
    )
    lint.add_argument("paths", nargs="*", metavar="PATH",
                      help="files or directories to analyze "
                           "(default: src/repro)")
    lint.add_argument("--format", choices=["text", "json", "sarif"],
                      default="text",
                      help="report format on stdout (default: text)")
    lint.add_argument("--json-out", metavar="PATH",
                      help="also write the JSON report to PATH "
                           "(CI artifact)")
    lint.add_argument("--sarif-out", metavar="PATH",
                      help="also write a SARIF 2.1.0 report to PATH "
                           "(code-scanning artifact)")
    lint.add_argument("--diff", metavar="REF",
                      help="only report findings in files changed vs the "
                           "given git ref (the full tree is still "
                           "analyzed so project-wide rules see complete "
                           "context)")
    lint.add_argument("--select", metavar="RPR00N[,RPR00N...]",
                      help="run only the named rules "
                           "(comma-separated ids)")
    lint.add_argument("--all-scopes", action="store_true",
                      help="ignore rule scope restrictions (apply every "
                           "selected rule to every scanned module — for "
                           "scanning tests/ and benchmarks/)")
    lint.add_argument("--severity", metavar="RPR00N=LEVEL",
                      action="append", default=[],
                      help="override a rule's severity (warning|error); "
                           "repeatable")
    lint.add_argument("--baseline", metavar="PATH",
                      help="baseline file of reviewed allowed findings "
                           "(default: discover lint-baseline.json "
                           "upward from the scanned path)")
    lint.add_argument("--no-baseline", action="store_true",
                      help="ignore any baseline file")
    lint.add_argument("--fail-on", choices=["warning", "error"],
                      default="error",
                      help="exit %d when findings at or above this "
                           "severity remain (default: error)" % EXIT_LINT)
    lint.add_argument("--write-baseline", metavar="PATH",
                      help="write the current findings as a baseline "
                           "(placeholder comments; review before "
                           "checking in) and exit 0")
    lint.add_argument("--prune-baseline", action="store_true",
                      help="rewrite the baseline file dropping entries "
                           "that no longer match any finding, then exit")
    lint.add_argument("--explain", metavar="RPR00N",
                      help="print the rule's rationale and an example "
                           "fix, then exit")

    serve = subparsers.add_parser(
        "serve",
        help="run several PGQL queries concurrently on one shared "
             "deployment through the multi-query service",
    )
    _add_graph_args(serve)
    serve.add_argument("queries", nargs="+", metavar="PGQL",
                       help="the PGQL query texts (each becomes one "
                            "service scope)")
    serve.add_argument("--slots", type=int, default=4,
                       help="admission slots: concurrent scopes "
                            "(default 4)")
    serve.add_argument("--scope-window", type=int, default=None,
                       help="per-scope flow-control window (default: "
                            "carve the machine window evenly across "
                            "the slots)")
    serve.add_argument("--priority", action="append", type=int,
                       default=[], metavar="P",
                       help="priority for the Nth query (repeatable; "
                            "default 1)")
    serve.add_argument("--timeout", type=int, default=None,
                       metavar="TICKS",
                       help="per-query deadline in virtual ticks")
    serve.add_argument("--cancel", action="append", default=[],
                       metavar="N@T",
                       help="cancel the Nth query at global tick T "
                            "(repeatable)")

    traffic = subparsers.add_parser(
        "traffic",
        help="drive a seeded open-loop arrival process against the "
             "multi-query service and report latency percentiles plus "
             "a saturation curve",
    )
    _add_graph_args(traffic)
    traffic.add_argument("--arrivals", type=int, default=12,
                         help="number of query arrivals (default 12)")
    traffic.add_argument("--gap", type=int, default=64,
                         help="mean interarrival gap in global ticks "
                              "(default 64)")
    traffic.add_argument("--slots", type=int, default=8,
                         help="admission slots (default 8)")
    traffic.add_argument("--scope-window", type=int, default=None,
                         help="per-scope flow-control window")
    traffic.add_argument("--query-edges", type=int, default=3,
                         help="edges per generated pattern query "
                              "(default 3)")
    traffic.add_argument("--distinct", type=int, default=4,
                         help="distinct generated queries cycled over "
                              "arrivals (default 4)")
    traffic.add_argument("--deadline", type=int, default=None,
                         metavar="TICKS",
                         help="per-query deadline in virtual ticks")
    traffic.add_argument("--sweep", metavar="G1,G2,...",
                         help="also sweep these interarrival gaps and "
                              "print the saturation curve")
    traffic.add_argument("--chaos", metavar="PROFILE", default=None,
                         choices=sorted(PROFILES),
                         help="run the shared deployment under this "
                              "fault profile with the reliability "
                              "layer enabled (service soak)")
    traffic.add_argument("--verify-serial", action="store_true",
                         help="re-run the arrivals one at a time with "
                              "the same scoped budgets and require "
                              "row- and metric-identical per-query "
                              "outcomes (exit 1 on mismatch)")

    stats = subparsers.add_parser(
        "stats",
        help="collect and print a graph's statistics (label counts, "
             "degree histograms, edge fan-out, property sketches)",
    )
    _add_graph_args(stats)
    _add_format_args(stats)
    stats.add_argument("--top", type=int, default=5,
                       help="fan-out triples / top values shown per "
                            "section in table mode (default 5)")
    stats.add_argument("--out", metavar="PATH",
                       help="also save the graph as JSON with the "
                            "statistics embedded (load_json re-attaches "
                            "them without recollection)")

    feedback = subparsers.add_parser(
        "feedback",
        help="inspect a planner feedback store: recorded plan-vs-actual "
             "profiles and the selectivity corrections they produce",
    )
    feedback.add_argument("store", metavar="PATH",
                          help="feedback store JSON written by "
                               "`repro query --feedback-store`")
    _add_format_args(feedback)

    analyze = subparsers.add_parser("analyze", help="run a BSP algorithm")
    _add_graph_args(analyze)
    analyze.add_argument(
        "algorithm",
        choices=["pagerank", "wcc", "sssp", "triangles", "degree"],
    )
    analyze.add_argument("--iterations", type=int, default=20,
                         help="pagerank iterations")
    analyze.add_argument("--source", type=int, default=0,
                         help="sssp source vertex")
    analyze.add_argument("--top", type=int, default=10,
                         help="print the top-N vertices")
    return parser


def _add_format_args(sub):
    """The shared report-output convention (matches ``repro lint``)."""
    sub.add_argument("--format", choices=["text", "json"], default="text",
                     help="report format on stdout (default: text)")
    sub.add_argument("--json-out", metavar="PATH",
                     help="also write the JSON report to PATH "
                          "(CI artifact)")


def _add_query_args(sub):
    sub.add_argument("pgql", help="the PGQL query text")
    sub.add_argument("--semantics", default="homomorphism",
                     choices=[s.value for s in MatchSemantics])
    sub.add_argument("--plan", default=None,
                     choices=[p.value for p in SchedulingPolicy],
                     help="vertex-ordering policy: appearance (query "
                          "text order), selectivity (greedy heuristic), "
                          "or cost (statistics-backed cost model; also "
                          "decides the common-neighbor operator)")
    sub.add_argument("--schedule", action="store_true",
                     help="alias for --plan selectivity (kept for "
                          "compatibility)")
    sub.add_argument("--common-neighbors",
                     action=argparse.BooleanOptionalAction, default=None,
                     help="force the specialized common-neighbor hop "
                          "on/off (default: off, except --plan cost "
                          "where the cost model decides)")
    sub.add_argument("--timeout", type=int, default=None, metavar="TICKS",
                     help="abort the query after TICKS simulated ticks "
                          "(exit code %d, partial metrics printed)"
                          % EXIT_ABORTED)


def _add_graph_args(sub):
    source = sub.add_mutually_exclusive_group(required=True)
    source.add_argument("--graph", metavar="PATH",
                        help="graph file (.json or edge list)")
    source.add_argument("--random", metavar="VxE",
                        help="uniform random graph, e.g. 1000x5000")
    source.add_argument("--bsbm", type=int, metavar="PRODUCTS",
                        help="BSBM-like e-commerce graph")
    sub.add_argument("--machines", type=int, default=4)
    sub.add_argument("--workers", type=int, default=4)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--ghost-threshold", type=int, default=None,
                     help="replicate vertices with total degree >= N "
                          "(PGX.D ghost nodes; off by default)")


def load_graph(args):
    if args.graph:
        if args.graph.endswith(".json"):
            return load_json(args.graph)
        return load_edge_list(args.graph)
    if args.random:
        try:
            vertices, edges = (int(part) for part in args.random.split("x"))
        except ValueError:
            raise SystemExit("--random expects VxE, e.g. 1000x5000")
        return uniform_random_graph(vertices, edges, seed=args.seed)
    from repro.workloads import generate_bsbm

    return generate_bsbm(args.bsbm, seed=args.seed).graph


def _build_engine(args, trace=False, **config_overrides):
    """Shared setup of the query/trace subcommands."""
    graph = load_graph(args)
    config = ClusterConfig(num_machines=args.machines,
                           workers_per_machine=args.workers,
                           seed=args.seed,
                           **config_overrides)
    if args.plan is not None:
        scheduling = SchedulingPolicy(args.plan)
    elif args.schedule:
        scheduling = SchedulingPolicy.SELECTIVITY
    else:
        scheduling = SchedulingPolicy.APPEARANCE
    options = PlannerOptions(
        semantics=MatchSemantics(args.semantics),
        scheduling=scheduling,
        use_common_neighbors=args.common_neighbors,
        timeout_ticks=getattr(args, "timeout", None),
        trace=trace,
    )
    if args.ghost_threshold is not None:
        from repro.graph import DistributedGraph

        graph = DistributedGraph.create(
            graph, config.num_machines,
            ghost_threshold=args.ghost_threshold,
        )
    return PgxdAsyncEngine(graph, config), options


def _print_abort(aborted):
    """Report an aborted query: the reason plus whatever partial state
    the simulator managed to collect before giving up."""
    print("query aborted:", aborted.reason)
    if aborted.tick is not None:
        print("at tick  :", aborted.tick)
    if aborted.metrics is not None:
        print("partial  :", aborted.metrics.summary())
    if aborted.detail:
        print("detail   :", aborted.detail)
    if getattr(aborted, "flow_state", None):
        # Scope-aware rendering: under the multi-query service the
        # snapshot covers every co-tenant, each entry tagged with its
        # query_id — so a timeout names who held the budget, not just
        # the global occupancy gauges.
        scoped = any(
            entry.get("query_id") is not None
            for entry in aborted.flow_state
        )
        print("flow     :")
        for entry in aborted.flow_state:
            windows = ",".join(
                "s%d->m%d:%d" % (stage, dest, count)
                for (stage, dest), count in sorted(
                    entry["occupancy"].items()
                )
            )
            scope = ""
            if scoped:
                scope = "[%s] " % (entry.get("query_id") or "-")
            print(
                "  %smachine %d: buffered=%d frames=%d inflight=%d%s"
                % (
                    scope,
                    entry["machine"],
                    entry["buffered_contexts"],
                    entry["live_frames"],
                    entry["inflight_total"],
                    "  windows [%s]" % windows if windows else "",
                )
            )
    return EXIT_ABORTED


def cmd_query(args):
    engine, options = _build_engine(args, trace=args.explain_analyze)
    store = None
    if args.feedback_store:
        from repro.obs.feedback import FeedbackStore

        store = FeedbackStore(args.feedback_store)
        options.feedback = store
    if args.explain:
        plan = engine.plan(args.pgql, options)
        print(plan.describe())
        return 0
    try:
        result = engine.query(args.pgql, options)
    except QueryAborted as aborted:
        return _print_abort(aborted)
    print(result.result_set.pretty(limit=args.limit_print))
    print()
    print("rows     :", len(result.rows))
    print("metrics  :", result.metrics.summary())
    if store is not None and result.plan is not None:
        profile = result.execution_profile()
        if profile is not None:
            recorded = store.record(
                result.plan.query, result.plan.graph,
                getattr(result.plan, "choice", None), profile,
            )
            if recorded is not None:
                store.save()
                print("feedback :", "recorded %s -> %s"
                      % (recorded, args.feedback_store))
    if args.explain_analyze:
        print()
        print(result.explain_analyze())
    return 0


def _parse_stall(spec):
    """Parse a ``M@T+D`` stall spec into a (machine, start, duration)."""
    try:
        machine, rest = spec.split("@")
        start, duration = rest.split("+")
        return int(machine), int(start), int(duration)
    except ValueError:
        raise SystemExit("--stall expects M@T+D, e.g. 1@50+30")


def _parse_crash(spec):
    """Parse a ``M@T`` crash spec into a (machine, tick)."""
    try:
        machine, tick = spec.split("@")
        return int(machine), int(tick)
    except ValueError:
        raise SystemExit("--crash expects M@T, e.g. 2@100")


def cmd_chaos(args):
    overrides = {}
    if args.drop is not None:
        overrides["drop_rate"] = args.drop
    if args.dup is not None:
        overrides["duplicate_rate"] = args.dup
    if args.reorder is not None:
        overrides["reorder_rate"] = args.reorder
    if args.max_delay is not None:
        overrides["max_delay"] = args.max_delay
    if args.stall:
        overrides["stalls"] = tuple(_parse_stall(s) for s in args.stall)
    if args.crash:
        overrides["crashes"] = (_parse_crash(args.crash),)
    chaos_config = profile(args.profile, seed=args.seed, **overrides)

    engine, options = _build_engine(
        args, chaos=chaos_config, reliability=True
    )
    try:
        result = engine.query(args.pgql, options)
    except QueryAborted as aborted:
        return _print_abort(aborted)

    if args.limit_print:
        print(result.result_set.pretty(limit=args.limit_print))
        print()
    print("rows     :", len(result.rows))
    print("metrics  :", result.metrics.summary())
    print("chaos    :", result.metrics.reliability_summary())

    if args.verify:
        clean_engine, clean_options = _build_engine(args)
        clean = clean_engine.query(args.pgql, clean_options)
        if sorted(result.rows) == sorted(clean.rows):
            print("verify   : OK (results identical to fault-free run)")
        else:
            print("verify   : MISMATCH (%d rows under chaos, %d fault-free)"
                  % (len(result.rows), len(clean.rows)))
            return 1
    return 0


def cmd_trace(args):
    engine, options = _build_engine(
        args, trace=True, trace_max_events=args.max_events
    )
    try:
        result = engine.query(args.pgql, options)
    except QueryAborted as aborted:
        return _print_abort(aborted)
    trace = result.trace
    print("rows     :", len(result.rows))
    print("metrics  :", result.metrics.summary())
    print(trace.summary())
    print()
    print(result.explain_analyze())
    print()
    print(trace.profile().summary())
    print()
    print(trace.timeline(width=args.width))
    if args.chrome_out:
        trace.to_chrome_json(args.chrome_out)
        print()
        print("chrome trace written to %s (open in chrome://tracing)"
              % args.chrome_out)
    return 0


def cmd_monitor(args):
    from repro.obs import Telemetry
    from repro.obs.dashboard import Dashboard
    from repro.obs.exporters import prometheus_text, series_csv, \
        series_jsonl
    from repro.pgql import parse_and_validate
    from repro.plan.paths import has_quantified_paths

    engine, options = _build_engine(args)
    query = parse_and_validate(args.pgql)
    dashboard = Dashboard(
        width=args.width,
        interactive=False if args.snapshots else None,
    )
    dashboard.refresh_every = args.refresh or (
        8 if dashboard.interactive else 32
    )
    telemetry = Telemetry(interval=args.interval)
    try:
        if has_quantified_paths(query):
            # Union expansions each carry their own sampler; render the
            # merged series once at the end instead of live.
            options.telemetry = True
            result = engine.query(query, options)
            telemetry = result.telemetry
        else:
            dashboard.attach(telemetry.sampler)
            plan = engine.plan(query, options)
            result = engine.execute_plan(plan, ExecutionContext(
                telemetry=telemetry, deadline=options.timeout_ticks
            ))
    except QueryAborted as aborted:
        code = _print_abort(aborted)
        if telemetry.sampler.num_samples:
            print(telemetry.summary())
        return code
    dashboard.final(telemetry.sampler, telemetry.meta.get("ticks", 0))
    print()
    print("rows     :", len(result.rows))
    print("metrics  :", result.metrics.summary())
    print(telemetry.summary())
    if args.prom_out:
        with open(args.prom_out, "w") as handle:
            handle.write(prometheus_text(telemetry.registry))
        print("prometheus text written to", args.prom_out)
    if args.series_out:
        exporter = (
            series_csv if args.series_out.endswith(".csv") else series_jsonl
        )
        with open(args.series_out, "w") as handle:
            handle.write(exporter(telemetry.sampler))
        print("series written to", args.series_out)
    return 0


def cmd_bench(args):
    from repro import bench

    bulk_kernels = not args.no_bulk_kernels
    if args.profile:
        # Profiling lives here (not in repro.bench): the bench module is
        # inside the RPR001 determinism scope, where wall-clock-adjacent
        # imports are off limits.
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        profiler.enable()
        doc = bench.run_bench(tag=args.tag, quick=args.quick,
                              seed=args.seed, progress=print,
                              bulk_kernels=bulk_kernels)
        profiler.disable()
        print()
        print("profile (top 20 by cumulative time):")
        stats = pstats.Stats(profiler)
        stats.sort_stats("cumulative").print_stats(20)
    else:
        doc = bench.run_bench(tag=args.tag, quick=args.quick,
                              seed=args.seed, progress=print,
                              bulk_kernels=bulk_kernels)
    out = args.out or ("BENCH_%s.json" % args.tag)
    bench.write_bench(doc, out)
    print("wrote", out)
    for key, record in sorted(doc["workloads"].items()):
        print(
            "  %-28s ticks=%-7d ops=%-9d rows=%-6d peak_buf=%d/%d "
            "wall=%.3fs tput=%.0f ops/s"
            % (
                key,
                record["ticks"],
                record["total_ops"],
                record["rows"],
                record["peak_buffered_contexts"],
                record["budget"],
                record["wall_time_seconds"],
                record.get("throughput_ops_per_sec", 0.0),
            )
        )
    if args.compare:
        baseline = bench.load_bench(args.compare)
        regressions, lines = bench.compare(doc, baseline,
                                           threshold=args.threshold)
        print()
        print("compare vs %s (threshold %.0f%%):"
              % (args.compare, args.threshold))
        for line in lines:
            print(" ", line)
        if regressions:
            print()
            print("REGRESSION: %d gated metric(s) worse than baseline"
                  % len(regressions))
            return EXIT_REGRESSION
        print()
        print("OK: no gated metric regressed past the threshold")
    return 0


def _lint_rules(args):
    """Instantiate the (possibly ``--select``-ed) rule objects."""
    from repro.analysis import default_rules, rule_by_id

    if args.select:
        rules = []
        for rule_id in args.select.replace(",", " ").split():
            rule = rule_by_id(rule_id)
            if rule is None:
                raise SystemExit(
                    "repro lint: unknown rule in --select: %s "
                    "(rules: RPR001..RPR009)" % rule_id
                )
            rules.append(rule)
    else:
        rules = default_rules()
    if args.all_scopes:
        for rule in rules:
            rule.scope = ()
    return rules


def _lint_severities(args):
    """Parse repeated ``--severity RPR00N=level`` overrides."""
    from repro.analysis import SEVERITIES

    severities = {}
    for spec in args.severity:
        rule_id, _, level = spec.partition("=")
        if level not in SEVERITIES:
            raise SystemExit(
                "repro lint: bad --severity %r (expected "
                "RPR00N=warning or RPR00N=error)" % spec
            )
        severities[rule_id.strip()] = level
    return severities


def _diff_paths(ref):
    """Absolute paths of files changed vs *ref* (``--diff``)."""
    import subprocess

    try:
        output = subprocess.run(
            ["git", "diff", "--name-only", ref, "--"],
            capture_output=True, text=True, check=True,
        ).stdout
    except (OSError, subprocess.CalledProcessError) as exc:
        detail = getattr(exc, "stderr", "") or str(exc)
        raise SystemExit(
            "repro lint: cannot diff against %r: %s"
            % (ref, detail.strip())
        )
    return [os.path.abspath(line) for line in output.splitlines() if line]


def cmd_lint(args):
    from repro.analysis import (
        analyze,
        discover_baseline,
        explain,
        json_report,
        prune_baseline,
        sarif_report,
        text_report,
        write_baseline,
    )

    if args.explain:
        text = explain(args.explain)
        if text is None:
            print("unknown rule: %s (rules: RPR001..RPR009)"
                  % args.explain)
            return 2
        print(text)
        return 0

    paths = args.paths or ["src/repro"]
    missing = [path for path in paths if not os.path.exists(path)]
    if missing:
        raise SystemExit(
            "repro lint: no such path: %s (run from the repository "
            "root, or name the paths to analyze)" % ", ".join(missing)
        )

    rules = _lint_rules(args)
    severities = _lint_severities(args)
    only = _diff_paths(args.diff) if args.diff else None

    if args.write_baseline:
        result = analyze(paths, rules=rules, severities=severities)
        count = write_baseline(result.findings, args.write_baseline)
        print("wrote %d baseline entr%s to %s — review each one and "
              "replace the placeholder comment before checking it in"
              % (count, "y" if count == 1 else "ies", args.write_baseline))
        return 0

    baseline_path = None
    if not args.no_baseline:
        baseline_path = args.baseline or discover_baseline(paths)
    result = analyze(paths, rules=rules, baseline_path=baseline_path,
                     severities=severities, only=only)
    if args.select:
        # A partial rule selection can't tell stale entries (for rules
        # that didn't run) from genuinely dead ones.
        result.stale_baseline = []

    if args.prune_baseline:
        if baseline_path is None:
            raise SystemExit("repro lint: --prune-baseline needs a "
                             "baseline file (none found)")
        if only is not None or args.select:
            raise SystemExit("repro lint: --prune-baseline needs a "
                             "full scan (no --diff / --select): a "
                             "partial scan cannot tell stale entries "
                             "from unscanned ones")
        dropped = prune_baseline(baseline_path, result.stale_baseline)
        print("pruned %d stale entr%s from %s"
              % (len(dropped), "y" if len(dropped) == 1 else "ies",
                 baseline_path))
        for entry in dropped:
            print("  dropped: %s" % entry.describe())
        return 0

    if args.format == "json":
        print(json_report(result))
    elif args.format == "sarif":
        print(sarif_report(result))
    else:
        if baseline_path is not None:
            print("baseline : %s" % baseline_path)
        if only is not None:
            print("diff     : %d changed file%s vs %s"
                  % (len(only), "" if len(only) == 1 else "s", args.diff))
        print(text_report(result))
    if args.json_out:
        with open(args.json_out, "w") as handle:
            handle.write(json_report(result))
            handle.write("\n")
    if args.sarif_out:
        with open(args.sarif_out, "w") as handle:
            handle.write(sarif_report(result))
            handle.write("\n")
    return EXIT_LINT if result.fails(args.fail_on) else 0


def _build_cluster_engine(args, **config_overrides):
    """Engine setup for the service subcommands (no planner options)."""
    graph = load_graph(args)
    config = ClusterConfig(num_machines=args.machines,
                           workers_per_machine=args.workers,
                           seed=args.seed,
                           **config_overrides)
    if args.ghost_threshold is not None:
        from repro.graph import DistributedGraph

        graph = DistributedGraph.create(
            graph, config.num_machines,
            ghost_threshold=args.ghost_threshold,
        )
    return PgxdAsyncEngine(graph, config)


def _parse_cancel(spec):
    """Parse an ``N@T`` cancellation spec into (query index, tick)."""
    try:
        index, tick = spec.split("@")
        return int(index), int(tick)
    except ValueError:
        raise SystemExit("--cancel expects N@T, e.g. 1@500")


def cmd_serve(args):
    from repro.service import QueryService, ServiceConfig

    engine = _build_cluster_engine(args)
    service = QueryService(engine, ServiceConfig(
        max_concurrent=args.slots,
        scope_window=args.scope_window,
        telemetry=True,
    ))
    handles = []
    for index, pgql in enumerate(args.queries):
        priority = (
            args.priority[index] if index < len(args.priority) else 1
        )
        handles.append(service.submit(
            pgql, priority=priority, deadline=args.timeout
        ))
    cancels = sorted(
        (_parse_cancel(spec) for spec in args.cancel),
        key=lambda pair: pair[1],
    )
    pending_cancels = list(cancels)
    while True:
        while pending_cancels and pending_cancels[0][1] <= service.now:
            index, _tick = pending_cancels.pop(0)
            if index >= len(handles):
                raise SystemExit(
                    "--cancel index %d out of range (%d queries)"
                    % (index, len(handles))
                )
            handles[index].cancel()
        if not service.step():
            break
    print("scope window :", service.scope_config.flow_control_window,
          "(machine-wide %d across %d slots)"
          % (engine.config.flow_control_window, args.slots))
    print("global ticks :", service.now)
    print("peak active  :", service.peak_active)
    print()
    print("%-6s %-10s %3s %8s %8s %8s %8s"
          % ("query", "status", "pri", "wait", "latency", "vticks",
             "rows"))
    for record in service.stats():
        print("%-6s %-10s %3d %8s %8s %8d %8s" % (
            record["query_id"],
            record["status"],
            record["priority"],
            record["admission_wait"] if record["admission_wait"]
            is not None else "-",
            record["latency"] if record["latency"] is not None else "-",
            record["virtual_ticks"],
            record["rows"] if record["rows"] is not None else "-",
        ))
    aborted = [
        record for record in service.stats()
        if record["status"] == "aborted"
    ]
    for record in aborted:
        scope = service.scope(record["query_id"])
        if scope.aborted is not None:
            print()
            print("abort [%s]:" % record["query_id"])
            _print_abort(scope.aborted)
    return EXIT_ABORTED if aborted else 0


def cmd_traffic(args):
    from repro.service import (
        TrafficConfig,
        run_traffic,
        saturation_sweep,
        verify_serial_parity,
    )

    overrides = {}
    if args.chaos:
        overrides["chaos"] = profile(args.chaos, seed=args.seed)
        overrides["reliability"] = True
    engine = _build_cluster_engine(args, **overrides)
    traffic = TrafficConfig(
        arrivals=args.arrivals,
        mean_interarrival=args.gap,
        seed=args.seed,
        slots=args.slots,
        scope_window=args.scope_window,
        query_edges=args.query_edges,
        distinct_queries=args.distinct,
        deadline=args.deadline,
        telemetry=True,
    )

    if args.verify_serial:
        concurrent, serial, mismatches = verify_serial_parity(
            engine, traffic
        )
        report = concurrent
    else:
        report = run_traffic(engine, traffic)

    print("traffic  :", report.summary())
    print("window   : scope=%d of machine-wide %d (%d slots)" % (
        report.service.scope_config.flow_control_window,
        engine.config.flow_control_window,
        args.slots,
    ))
    if args.chaos:
        print("chaos    : profile=%s (reliability on)" % args.chaos)
    print()
    print("%-6s %-10s %8s %8s %8s %8s"
          % ("query", "status", "wait", "latency", "vticks", "rows"))
    for record in report.records:
        print("%-6s %-10s %8s %8s %8d %8s" % (
            record["query_id"],
            record["status"],
            record["admission_wait"] if record["admission_wait"]
            is not None else "-",
            record["latency"] if record["latency"] is not None else "-",
            record["virtual_ticks"],
            record["rows"] if record["rows"] is not None else "-",
        ))

    if args.sweep:
        try:
            gaps = tuple(int(part) for part in args.sweep.split(","))
        except ValueError:
            raise SystemExit("--sweep expects G1,G2,..., e.g. 256,64,16")
        print()
        print("saturation curve (offered load sweep):")
        print("%8s %10s %8s %8s %8s %12s %6s" % (
            "gap", "completed", "p50", "p95", "p99", "done/kilotick",
            "peak",
        ))
        for gap, point in saturation_sweep(engine, traffic, gaps=gaps):
            print("%8d %10d %8s %8s %8s %12.2f %6d" % (
                gap,
                point.completed,
                point.percentile(50) if point.latencies else "-",
                point.percentile(95) if point.latencies else "-",
                point.percentile(99) if point.latencies else "-",
                point.throughput_per_kilotick,
                point.peak_active,
            ))

    if args.verify_serial:
        print()
        if mismatches:
            print("serial parity: MISMATCH (%d)" % len(mismatches))
            for line in mismatches:
                print("  " + line)
            return 1
        print("serial parity: OK — %d queries row- and metric-identical "
              "to the one-at-a-time run (serial ticks=%d)"
              % (serial.completed + serial.aborted + serial.cancelled,
                 serial.total_ticks))
    return 0


def cmd_stats(args):
    graph = load_graph(args)
    stats = graph.statistics()
    if args.format == "json":
        print(stats.to_json())
    else:
        print(stats.table(top=args.top))
    if args.json_out:
        with open(args.json_out, "w") as handle:
            handle.write(stats.to_json())
            handle.write("\n")
    if args.out:
        from repro.graph import save_json

        save_json(graph, args.out, include_stats=True)
        print()
        print("graph + statistics written to", args.out)
    return 0


def cmd_feedback(args):
    import json

    from repro.obs.feedback import FeedbackStore, q_error

    if not os.path.exists(args.store):
        raise SystemExit("repro feedback: no such store: %s" % args.store)
    store = FeedbackStore(args.store)
    doc = store.to_dict()
    if args.format == "json":
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print("feedback store: %s (%d quer%s)"
              % (args.store, len(store), "y" if len(store) == 1 else "ies"))
        for fingerprint, entry in store.entries():
            print()
            print("%s  %s" % (fingerprint, entry["pgql"]))
            print("  order=%s  common_neighbors=%s"
                  % (entry["order"], entry["use_common_neighbors"]))
            for row in entry["operators"]:
                print("  %-46s est~%-10.2f actual=%-8d q=%.2f"
                      % (row["op"], row["estimated"], row["actual"],
                         q_error(row["estimated"], row["actual"])))
    if args.json_out:
        with open(args.json_out, "w") as handle:
            json.dump(doc, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return 0


def cmd_analyze(args):
    from repro.analytics import (
        BspEngine,
        DegreeCentrality,
        PageRank,
        SingleSourceShortestPaths,
        TriangleCount,
        WeaklyConnectedComponents,
    )

    graph = load_graph(args)
    config = ClusterConfig(num_machines=args.machines,
                           workers_per_machine=args.workers)
    engine = BspEngine(graph, config)

    programs = {
        "pagerank": lambda: PageRank(iterations=args.iterations),
        "wcc": WeaklyConnectedComponents,
        "sssp": lambda: SingleSourceShortestPaths(args.source),
        "triangles": TriangleCount,
        "degree": DegreeCentrality,
    }
    result = engine.run(programs[args.algorithm]())

    if args.algorithm == "triangles":
        print("triangles:", sum(result.values.values()))
    elif args.algorithm == "wcc":
        labels = set(result.values.values())
        print("components:", len(labels))
    else:
        ranked = sorted(result.values.items(), key=lambda kv: kv[1],
                        reverse=(args.algorithm != "sssp"))
        print("top %d vertices:" % args.top)
        for vertex, value in ranked[: args.top]:
            print("  %8d  %s" % (vertex, value))
    print()
    print("supersteps:", result.supersteps)
    print("metrics   :", result.metrics.summary())
    return 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.command == "query":
        return cmd_query(args)
    if args.command == "trace":
        return cmd_trace(args)
    if args.command == "chaos":
        return cmd_chaos(args)
    if args.command == "monitor":
        return cmd_monitor(args)
    if args.command == "bench":
        return cmd_bench(args)
    if args.command == "lint":
        return cmd_lint(args)
    if args.command == "serve":
        return cmd_serve(args)
    if args.command == "traffic":
        return cmd_traffic(args)
    if args.command == "stats":
        return cmd_stats(args)
    if args.command == "feedback":
        return cmd_feedback(args)
    return cmd_analyze(args)


if __name__ == "__main__":
    sys.exit(main())
