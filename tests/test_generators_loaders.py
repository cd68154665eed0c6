"""Unit tests for graph generators and I/O."""

import pytest

from repro.graph import (
    chain_graph,
    complete_graph,
    graph_from_dict,
    graph_to_dict,
    load_edge_list,
    load_json,
    power_law_graph,
    save_edge_list,
    save_json,
    star_graph,
    uniform_random_graph,
)
from repro.errors import GraphError


class TestGenerators:
    def test_uniform_shape(self):
        graph = uniform_random_graph(50, 200, seed=9)
        assert graph.num_vertices == 50
        assert graph.num_edges == 200

    def test_uniform_deterministic(self):
        first = uniform_random_graph(30, 90, seed=4)
        second = uniform_random_graph(30, 90, seed=4)
        assert [tuple(first.out_neighbors(v)) for v in first.vertices()] == \
            [tuple(second.out_neighbors(v)) for v in second.vertices()]

    def test_uniform_properties(self):
        graph = uniform_random_graph(20, 40, seed=2, num_types=3)
        for vertex in graph.vertices():
            assert 0 <= graph.vertex_prop("type", vertex) < 3
        for edge in range(graph.num_edges):
            assert 0.0 <= graph.edge_prop("weight", edge) < 1.0
            assert graph.edge_label_name(edge) == "linked"

    def test_chain(self):
        graph = chain_graph(5)
        assert graph.num_edges == 4
        for index in range(4):
            assert graph.has_edge(index, index + 1)
        assert not graph.has_edge(4, 0)

    def test_chain_with_props(self):
        graph = chain_graph(3, age=[10, 20, 30])
        assert graph.vertex_prop("age", 1) == 20

    def test_star_out(self):
        graph = star_graph(6, direction="out")
        assert graph.out_degree(0) == 6
        assert graph.in_degree(0) == 0

    def test_star_in(self):
        graph = star_graph(6, direction="in")
        assert graph.in_degree(0) == 6

    def test_complete(self):
        graph = complete_graph(4)
        assert graph.num_edges == 12
        assert not graph.has_edge(2, 2)

    def test_power_law_skew(self):
        graph = power_law_graph(100, 500, seed=1)
        assert graph.num_edges == 500
        degrees = sorted(
            (graph.out_degree(v) for v in graph.vertices()), reverse=True
        )
        # The hottest vertex should carry far more than the mean degree.
        assert degrees[0] > 5 * (500 / 100)


class TestEdgeListIO:
    def test_roundtrip(self, tmp_path, random_graph):
        path = tmp_path / "graph.el"
        save_edge_list(random_graph, path)
        loaded = load_edge_list(path)
        assert loaded.num_vertices == random_graph.num_vertices
        assert loaded.num_edges == random_graph.num_edges
        for vertex in random_graph.vertices():
            assert list(loaded.out_neighbors(vertex)) == \
                list(random_graph.out_neighbors(vertex))

    def test_labels_roundtrip(self, tmp_path, social_graph):
        path = tmp_path / "graph.el"
        save_edge_list(social_graph, path)
        loaded = load_edge_list(path)
        for edge in range(social_graph.num_edges):
            src, dst = social_graph.edge_endpoints(edge)
            kept = [
                loaded.edge_label_name(e) for e in loaded.edges_between(src, dst)
            ]
            assert social_graph.edge_label_name(edge) in kept

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "g.el"
        path.write_text("# header\n\n0 1 friend\n1 2\n")
        graph = load_edge_list(path)
        assert graph.num_edges == 2
        assert graph.num_vertices == 3

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.el"
        path.write_text("0 1 x y z\n")
        with pytest.raises(GraphError):
            load_edge_list(path)


class TestJsonIO:
    def test_roundtrip_with_properties(self, tmp_path, social_graph):
        path = tmp_path / "graph.json"
        save_json(social_graph, path)
        loaded = load_json(path)
        assert loaded.num_vertices == social_graph.num_vertices
        assert loaded.num_edges == social_graph.num_edges
        for vertex in social_graph.vertices():
            assert loaded.vertex_prop("age", vertex) == \
                social_graph.vertex_prop("age", vertex)
            assert loaded.vertex_label_name(vertex) == \
                social_graph.vertex_label_name(vertex)

    def test_dict_conversion(self, social_graph):
        data = graph_to_dict(social_graph)
        assert len(data["vertices"]) == social_graph.num_vertices
        rebuilt = graph_from_dict(data)
        assert rebuilt.num_edges == social_graph.num_edges


class TestHostileJson:
    """Malformed graph documents fail typed, naming the bad field."""

    @pytest.mark.parametrize("document, field", [
        ([], "list"),
        ({"vertices": 3}, "'vertices'"),
        ({"vertices": [{}], "edges": {"src": 0}}, "'edges'"),
        ({"vertices": ["v0"]}, "'vertices'"),
        ({"vertices": [{}, {}], "edges": [{"dst": 1}]}, "'src'"),
        ({"vertices": [{}, {}], "edges": [{"src": 0, "dst": "1"}]},
         "'dst'"),
        ({"num_vertices": "x"}, "'num_vertices'"),
        ({"stats": 3}, "'stats'"),
        ({"stats": {}}, "'stats'"),
    ])
    def test_graph_from_dict_rejects(self, document, field):
        with pytest.raises(GraphError) as info:
            graph_from_dict(document)
        assert field in str(info.value)

    def test_load_json_names_path_and_field(self, tmp_path):
        path = tmp_path / "graph.json"
        path.write_text('{"vertices": [{}], "edges": [{"dst": 0}]}')
        with pytest.raises(GraphError) as info:
            load_json(path)
        assert str(path) in str(info.value)
        assert "edges[0]" in str(info.value)

    def test_load_json_truncated(self, tmp_path):
        path = tmp_path / "graph.json"
        path.write_text('{"vertices": [')
        with pytest.raises(GraphError) as info:
            load_json(path)
        assert str(path) in str(info.value)

    def test_empty_document_is_empty_graph(self):
        assert graph_from_dict({}).num_vertices == 0
