"""Tests for the command-line interface."""

import pytest

from repro.cli import EXIT_ABORTED, build_parser, load_graph, main


class TestParser:
    def test_query_args(self):
        args = build_parser().parse_args(
            ["query", "--random", "100x400", "--machines", "2",
             "SELECT a WHERE (a)"]
        )
        assert args.command == "query"
        assert args.machines == 2
        assert args.pgql == "SELECT a WHERE (a)"

    def test_analyze_args(self):
        args = build_parser().parse_args(
            ["analyze", "--bsbm", "100", "pagerank", "--iterations", "5"]
        )
        assert args.command == "analyze"
        assert args.algorithm == "pagerank"
        assert args.iterations == 5

    def test_graph_source_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["query", "SELECT a WHERE (a)"])

    def test_chaos_args(self):
        args = build_parser().parse_args(
            ["chaos", "--random", "100x400", "--profile", "drop",
             "--drop", "0.1", "--stall", "1@5+10", "--verify",
             "SELECT a WHERE (a)"]
        )
        assert args.command == "chaos"
        assert args.profile == "drop"
        assert args.drop == 0.1
        assert args.stall == ["1@5+10"]
        assert args.verify

    def test_unknown_profile_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["chaos", "--random", "100x400", "--profile", "tsunami",
                 "SELECT a WHERE (a)"]
            )

    def test_timeout_arg(self):
        args = build_parser().parse_args(
            ["query", "--random", "100x400", "--timeout", "50",
             "SELECT a WHERE (a)"]
        )
        assert args.timeout == 50


class TestLoadGraph:
    def test_random(self):
        args = build_parser().parse_args(
            ["query", "--random", "50x200", "SELECT a WHERE (a)"]
        )
        graph = load_graph(args)
        assert graph.num_vertices == 50
        assert graph.num_edges == 200

    def test_random_bad_format(self):
        args = build_parser().parse_args(
            ["query", "--random", "50:200", "SELECT a WHERE (a)"]
        )
        with pytest.raises(SystemExit):
            load_graph(args)

    def test_bsbm(self):
        args = build_parser().parse_args(
            ["query", "--bsbm", "50", "SELECT a WHERE (a)"]
        )
        graph = load_graph(args)
        assert graph.num_vertices > 50

    def test_json_file(self, tmp_path, social_graph):
        from repro.graph import save_json

        path = tmp_path / "g.json"
        save_json(social_graph, path)
        args = build_parser().parse_args(
            ["query", "--graph", str(path), "SELECT a WHERE (a)"]
        )
        graph = load_graph(args)
        assert graph.num_vertices == social_graph.num_vertices

    def test_edge_list_file(self, tmp_path, social_graph):
        from repro.graph import save_edge_list

        path = tmp_path / "g.el"
        save_edge_list(social_graph, path)
        args = build_parser().parse_args(
            ["query", "--graph", str(path), "SELECT a WHERE (a)"]
        )
        graph = load_graph(args)
        assert graph.num_edges == social_graph.num_edges


class TestEndToEnd:
    def test_query_command(self, capsys):
        code = main(
            ["query", "--random", "60x240", "--machines", "2",
             "SELECT a, b WHERE (a)-[]->(b), a.value > 9000"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "rows" in out
        assert "ticks=" in out

    def test_explain_command(self, capsys):
        code = main(
            ["query", "--random", "60x240", "--explain",
             "SELECT a, b WHERE (a)-[]->(b)"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Stage 0" in out
        assert "output" in out

    def test_query_with_options(self, capsys):
        code = main(
            ["query", "--random", "60x240", "--schedule",
             "--semantics", "isomorphism",
             "SELECT a, b WHERE (a)-[]->(b WITH type = 1)"]
        )
        assert code == 0

    @pytest.mark.parametrize(
        "algorithm", ["pagerank", "wcc", "sssp", "triangles", "degree"]
    )
    def test_analyze_command(self, capsys, algorithm):
        code = main(
            ["analyze", "--random", "60x240", "--machines", "2", algorithm,
             "--iterations", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "supersteps:" in out


class TestChaosCommand:
    QUERY = "SELECT a, b WHERE (a)-[]->(b), a.value > b.value"

    def test_chaos_verify_ok(self, capsys):
        code = main(
            ["chaos", "--random", "100x400", "--machines", "4",
             "--seed", "7", "--profile", "soak", "--verify", self.QUERY]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "chaos" in out
        assert "retransmits=" in out
        assert "verify   : OK" in out

    def test_chaos_crash_aborts(self, capsys):
        code = main(
            ["chaos", "--random", "100x400", "--machines", "4",
             "--crash", "2@10", self.QUERY]
        )
        assert code == EXIT_ABORTED
        out = capsys.readouterr().out
        assert "query aborted: machine 2 crashed" in out
        assert "partial" in out

    def test_bad_stall_spec(self):
        with pytest.raises(SystemExit):
            main(["chaos", "--random", "100x400", "--stall", "nope",
                  self.QUERY])

    def test_bad_crash_spec(self):
        with pytest.raises(SystemExit):
            main(["chaos", "--random", "100x400", "--crash", "nope",
                  self.QUERY])


class TestTimeout:
    def test_timed_out_query_exits_nonzero_with_partial_metrics(
            self, capsys):
        code = main(
            ["query", "--random", "200x800", "--machines", "4",
             "--timeout", "2",
             "SELECT a, b WHERE (a)-[]->(b), a.value > b.value"]
        )
        assert code == EXIT_ABORTED
        assert code != 0
        out = capsys.readouterr().out
        assert "query aborted: deadline of 2 ticks exceeded" in out
        assert "partial  :" in out
        assert "ticks=" in out

    def test_generous_timeout_completes(self, capsys):
        code = main(
            ["query", "--random", "60x240", "--machines", "2",
             "--timeout", "100000",
             "SELECT a, b WHERE (a)-[]->(b), a.value > 9000"]
        )
        assert code == 0
        assert "rows" in capsys.readouterr().out


class TestMonitorCommand:
    QUERY = "SELECT a, b WHERE (a)-[]->(b), a.value > b.value"

    def test_monitor_args(self):
        args = build_parser().parse_args(
            ["monitor", "--random", "100x400", "--interval", "2",
             "--snapshots", "--series-out", "s.jsonl", self.QUERY]
        )
        assert args.command == "monitor"
        assert args.interval == 2
        assert args.snapshots
        assert args.series_out == "s.jsonl"

    def test_monitor_end_to_end(self, capsys, tmp_path):
        prom = tmp_path / "metrics.prom"
        series = tmp_path / "series.csv"
        code = main(
            ["monitor", "--random", "100x400", "--machines", "2",
             "--snapshots", "--prom-out", str(prom),
             "--series-out", str(series), self.QUERY]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "repro monitor" in out
        assert "stage wavefront" in out
        assert "telemetry:" in out
        assert "# TYPE repro_ops_total counter" in prom.read_text()
        header = series.read_text().splitlines()[0]
        assert header.startswith("tick,machine,")

    def test_monitor_series_jsonl(self, tmp_path, capsys):
        from repro.obs.exporters import parse_series_jsonl

        series = tmp_path / "series.jsonl"
        code = main(
            ["monitor", "--random", "60x240", "--machines", "2",
             "--snapshots", "--series-out", str(series), self.QUERY]
        )
        assert code == 0
        meta, rows = parse_series_jsonl(series.read_text())
        assert meta["num_machines"] == 2
        assert rows

    def test_monitor_abort_prints_flow_state(self, capsys):
        code = main(
            ["monitor", "--random", "200x800", "--machines", "4",
             "--snapshots", "--timeout", "3", self.QUERY]
        )
        assert code == EXIT_ABORTED
        out = capsys.readouterr().out
        assert "query aborted: deadline of 3 ticks exceeded" in out
        assert "flow     :" in out
        assert "machine 0:" in out

    def test_monitor_union_query(self, capsys):
        code = main(
            ["monitor", "--random", "60x240", "--machines", "2",
             "--snapshots", "SELECT a, b WHERE (a)-/{1,2}/->(b)"]
        )
        assert code == 0
        assert "telemetry:" in capsys.readouterr().out


class TestBenchArgs:
    def test_bench_args(self):
        args = build_parser().parse_args(
            ["bench", "--quick", "--tag", "ci", "--compare",
             "BENCH_seed.json", "--threshold", "25"]
        )
        assert args.command == "bench"
        assert args.quick
        assert args.tag == "ci"
        assert args.compare == "BENCH_seed.json"
        assert args.threshold == 25.0


class TestAbortFlowState:
    def test_query_timeout_reports_flow_state(self, capsys):
        code = main(
            ["query", "--random", "200x800", "--machines", "4",
             "--timeout", "2",
             "SELECT a, b WHERE (a)-[]->(b), a.value > b.value"]
        )
        assert code == EXIT_ABORTED
        out = capsys.readouterr().out
        assert "flow     :" in out
        assert "buffered=" in out


class TestServeCommand:
    def test_serve_args(self):
        args = build_parser().parse_args(
            ["serve", "--random", "100x400", "--slots", "2",
             "--priority", "3", "--cancel", "1@40",
             "SELECT a WHERE (a)-[]->(b)", "SELECT x WHERE (x)-[]->(y)"]
        )
        assert args.command == "serve"
        assert args.slots == 2
        assert args.priority == [3]
        assert args.cancel == ["1@40"]
        assert len(args.queries) == 2

    def test_serve_end_to_end(self, capsys):
        code = main(
            ["serve", "--random", "100x400", "--machines", "2",
             "--slots", "2",
             "SELECT a, b WHERE (a)-[]->(b)",
             "SELECT a WHERE (a)-[]->(b), (b)-[]->(c)"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "scope window" in out
        assert "q0" in out and "q1" in out
        assert out.count("done") >= 2

    def test_serve_cancel_one_tenant(self, capsys):
        code = main(
            ["serve", "--random", "100x400", "--machines", "2",
             "--slots", "2", "--cancel", "0@5",
             "SELECT a, b WHERE (a)-[]->(b)",
             "SELECT a WHERE (a)-[]->(b), (b)-[]->(c)"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cancelled" in out
        assert "done" in out

    def test_serve_deadline_prints_scoped_abort(self, capsys):
        code = main(
            ["serve", "--random", "200x800", "--machines", "2",
             "--slots", "2", "--timeout", "10",
             "SELECT a, b WHERE (a)-[]->(b), a.value > b.value",
             "SELECT a WHERE (a)-[]->(b), (b)-[]->(c)"]
        )
        assert code == EXIT_ABORTED
        out = capsys.readouterr().out
        assert "abort [q0]:" in out
        # Flow entries are tenant-tagged under the service.
        assert "[q0] machine" in out

    def test_bad_cancel_spec(self):
        with pytest.raises(SystemExit):
            main(["serve", "--random", "100x400", "--cancel", "zero@x",
                  "SELECT a WHERE (a)-[]->(b)"])


class TestTrafficCommand:
    def test_traffic_args(self):
        args = build_parser().parse_args(
            ["traffic", "--random", "100x400", "--arrivals", "6",
             "--gap", "32", "--slots", "4", "--sweep", "128,32",
             "--chaos", "soak", "--verify-serial"]
        )
        assert args.command == "traffic"
        assert args.arrivals == 6
        assert args.gap == 32
        assert args.sweep == "128,32"
        assert args.chaos == "soak"
        assert args.verify_serial

    def test_traffic_end_to_end(self, capsys):
        code = main(
            ["traffic", "--random", "100x400", "--machines", "2",
             "--arrivals", "5", "--gap", "24", "--slots", "4"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "arrivals=5 completed=5" in out
        assert "latency p50=" in out
        assert "peak_active=" in out

    def test_traffic_verify_serial_gate(self, capsys):
        code = main(
            ["traffic", "--random", "100x400", "--machines", "2",
             "--arrivals", "4", "--gap", "16", "--slots", "4",
             "--verify-serial"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "serial parity: OK" in out

    def test_traffic_sweep(self, capsys):
        code = main(
            ["traffic", "--random", "100x400", "--machines", "2",
             "--arrivals", "4", "--slots", "4", "--sweep", "256,16"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "saturation curve" in out
        assert "256" in out and "16" in out

    def test_traffic_chaos_parity(self, capsys):
        code = main(
            ["traffic", "--random", "100x400", "--machines", "2",
             "--arrivals", "3", "--gap", "24", "--slots", "2",
             "--chaos", "soak", "--verify-serial"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "serial parity: OK" in out


class TestStatsCommand:
    def test_stats_args(self):
        args = build_parser().parse_args(
            ["stats", "--bsbm", "100", "--top", "3", "--format", "json"]
        )
        assert args.command == "stats"
        assert args.top == 3
        assert args.format == "json"

    def test_stats_table(self, capsys):
        code = main(["stats", "--random", "80x320", "--top", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "vertex label" in out
        assert "fan-out" in out

    def test_stats_json(self, capsys):
        import json as json_mod

        code = main(["stats", "--random", "80x320", "--format", "json"])
        assert code == 0
        doc = json_mod.loads(capsys.readouterr().out)
        assert doc["num_vertices"] == 80
        assert doc["num_edges"] == 320

    def test_stats_out_saves_graph_with_stats(self, tmp_path, capsys):
        path = str(tmp_path / "g.json")
        code = main(["stats", "--random", "50x200", "--out", path])
        assert code == 0
        reloaded = load_graph(
            build_parser().parse_args(
                ["query", "--graph", path, "SELECT a WHERE (a)"]
            )
        )
        assert reloaded.num_vertices == 50


class TestPlanPolicyFlag:
    def test_plan_cost_explain(self, capsys):
        code = main(
            ["query", "--bsbm", "100", "--plan", "cost", "--explain",
             "SELECT COUNT(*) WHERE (o:offer)-[:offerProduct]->"
             "(p:product)-[:producer]->(pr:producer)"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "planner: policy=cost" in out
        assert "est. cost=" in out
        assert "rejected:" in out
        assert "scores:" in out
        assert "Stage 0" in out

    def test_plan_selectivity_explain(self, capsys):
        code = main(
            ["query", "--random", "60x240", "--plan", "selectivity",
             "--explain", "SELECT a, b WHERE (a)-[]->(b WITH type = 1)"]
        )
        assert code == 0
        assert "planner: policy=selectivity" in capsys.readouterr().out

    def test_plan_cost_runs_query(self, capsys):
        code = main(
            ["query", "--bsbm", "100", "--plan", "cost",
             "SELECT COUNT(*) WHERE (o:offer)-[:offerProduct]->"
             "(p:product)"]
        )
        assert code == 0
        assert "rows" in capsys.readouterr().out

    def test_unknown_plan_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["query", "--random", "60x240", "--plan", "psychic",
                 "SELECT a WHERE (a)"]
            )
