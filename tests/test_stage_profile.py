"""Tests for the per-stage runtime profile (EXPLAIN ANALYZE)."""

from repro import ClusterConfig, run_query, uniform_random_graph


class TestStageProfile:
    def query(self, machines=3):
        graph = uniform_random_graph(100, 500, seed=2, num_types=4)
        return graph, run_query(
            graph,
            "SELECT a, b WHERE (a WITH type = 1)-[]->(b WITH value > 5000)",
            ClusterConfig(num_machines=machines),
        )

    def test_profile_shape(self):
        _graph, result = self.query()
        assert len(result.stage_profile) == result.plan.num_stages
        for entry in result.stage_profile:
            assert set(entry) == {"visits", "passes", "remote_in",
                                  "scanned", "emitted"}

    def test_root_visits_every_vertex(self):
        graph, result = self.query()
        root = result.stage_profile[0]
        assert root["visits"] == graph.num_vertices
        assert root["remote_in"] == 0  # bootstrap is machine-local

    def test_passes_bounded_by_visits(self):
        _graph, result = self.query()
        for entry in result.stage_profile:
            assert 0 <= entry["passes"] <= entry["visits"]

    def test_final_passes_equal_results(self):
        _graph, result = self.query()
        assert result.stage_profile[-1]["passes"] == len(result.rows)

    def test_single_machine_ships_nothing(self):
        _graph, result = self.query(machines=1)
        assert all(
            entry["remote_in"] == 0 for entry in result.stage_profile
        )

    def test_explain_analyze_text(self):
        _graph, result = self.query()
        text = result.explain_analyze()
        assert text.count("Stage") == result.plan.num_stages
        assert "visits=" in text and "remote_in=" in text

    def test_filter_selectivity_visible(self):
        graph, result = self.query()
        root = result.stage_profile[0]
        expected = sum(
            1 for v in range(graph.num_vertices)
            if graph.vertex_prop("type", v) == 1
        )
        assert root["passes"] == expected
