import json
import math

import pytest

from ella.hetgraph import (
    EdgeType,
    GraphFormatError,
    HeteroGraph,
    SchemaDef,
    SynthConfig,
    load_graph,
    load_graph_dir,
    load_labels,
    save_graph,
    save_labels,
    synth_generate,
    typed_neighbors,
)

from fixtures import academic_schema, small_academic_graph


def write_graph_files(tmp_path, nodes, edges, schema):
    nodes_path = tmp_path / "nodes.jsonl"
    edges_path = tmp_path / "edges.jsonl"
    schema_path = tmp_path / "schema.json"
    nodes_path.write_text("\n".join(json.dumps(n) for n in nodes) + "\n")
    edges_path.write_text("\n".join(json.dumps(e) for e in edges) + "\n")
    schema_path.write_text(json.dumps(schema))
    return nodes_path, edges_path, schema_path


IMDB_SCHEMA = {
    "node_types": ["movie", "actor", "director"],
    "edge_types": [
        {"name": "acts_in", "src": "actor", "dst": "movie"},
        {"name": "directs", "src": "director", "dst": "movie"},
    ],
    "domain_blurb": "a movie network",
    "class_labels": {"movie": ["action", "drama", "comedy"]},
}


def test_load_three_node_graph(tmp_path):
    nodes = [
        {"id": "m1", "type": "movie", "text": "an action movie"},
        {"id": "a1", "type": "actor"},
        {"id": "d1", "type": "director"},
    ]
    edges = [
        {"src": "a1", "dst": "m1", "etype": "acts_in"},
        {"src": "d1", "dst": "m1", "etype": "directs"},
    ]
    g = load_graph(*write_graph_files(tmp_path, nodes, edges, IMDB_SCHEMA))
    assert g.num_nodes() == 3
    assert g.num_edges() == 2
    assert g.node_text == {"m1": "an action movie"}


def test_load_reports_declared_counts(tmp_path):
    # IMDB-sized node file: the loader must echo the exact per-type counts
    counts = {"movie": 4278, "actor": 5257, "director": 2081}
    nodes = [
        {"id": f"{t}{i}", "type": t} for t, n in counts.items() for i in range(n)
    ]
    g = load_graph(*write_graph_files(tmp_path, nodes, [], IMDB_SCHEMA))
    assert g.type_counts() == counts


def test_load_error_names_line(tmp_path):
    nodes = [{"id": "m1", "type": "movie"}, {"id": "a1", "type": "actor"}]
    edges = [
        {"src": "a1", "dst": "m1", "etype": "acts_in"},
        {"src": "ghost", "dst": "m1", "etype": "acts_in"},
    ]
    paths = write_graph_files(tmp_path, nodes, edges, IMDB_SCHEMA)
    with pytest.raises(GraphFormatError, match=r"edges\.jsonl line 2: unknown node id 'ghost'$"):
        load_graph(*paths)
    # the first bad record is the one named, whatever is wrong with it
    edges[0] = {"src": "m1", "dst": "m1", "etype": "acts_in"}
    paths = write_graph_files(tmp_path, nodes, edges, IMDB_SCHEMA)
    with pytest.raises(GraphFormatError, match=r"edges\.jsonl line 1: edge \('m1', 'm1'\) of type 'acts_in' joins"):
        load_graph(*paths)


@pytest.mark.parametrize(
    "nodes,edges,message",
    [
        ([{"id": "m1", "type": "movie"}, {"id": "x1", "type": "spaceship"}], [],
         r"nodes\.jsonl line 2: node 'x1' has undeclared type 'spaceship'$"),
        ([{"id": "m1", "type": "movie"}, {"id": "a1", "type": "actor"}, {"id": "m1", "type": "movie"}], [],
         r"nodes\.jsonl line 3: duplicate node id 'm1'$"),
        ([{"id": "m1", "type": "movie"}], [{"src": "m1", "dst": "nobody", "etype": "acts_in"}],
         r"edges\.jsonl line 1: unknown node id 'nobody'$"),
        ([{"id": "m1", "type": "movie"}, {"id": "a1", "type": "actor"}],
         [{"src": "a1", "dst": "m1", "etype": "acts_in"}, {"src": "a1", "dst": "m1", "etype": "sings"}],
         r"edges\.jsonl line 2: undeclared edge type 'sings'$"),
        ([{"id": "m1", "type": "movie"}, {"id": "a1", "type": "actor"}, {"id": "d1", "type": "director"}],
         [{"src": "a1", "dst": "m1", "etype": "acts_in"}, {"src": "d1", "dst": "a1", "etype": "directs"}],
         r"edges\.jsonl line 2: edge \('d1', 'a1'\) of type 'directs' joins director/actor, "
         r"schema declares director/movie$"),
    ],
    ids=["undeclared_node_type", "duplicate_node", "unknown_endpoint", "undeclared_edge_type", "against_its_type"],
)
def test_every_bad_record_names_its_file_and_line(tmp_path, nodes, edges, message):
    with pytest.raises(GraphFormatError, match=message):
        load_graph(*write_graph_files(tmp_path, nodes, edges, IMDB_SCHEMA))


@pytest.mark.parametrize(
    "kind,line,field,value",
    [("nodes", 2, "id", None), ("nodes", 2, "id", [1]), ("nodes", 3, "type", 5), ("nodes", 1, "text", 5),
     ("nodes", 1, "text", 0), ("nodes", 1, "text", None), ("edges", 1, "src", 1), ("edges", 2, "dst", None),
     ("edges", 2, "etype", True)],
)
def test_a_field_that_is_not_a_string_is_refused_naming_its_file_line_and_field(tmp_path, kind, line, field, value):
    nodes = [{"id": "m1", "type": "movie", "text": "a movie"}, {"id": "a1", "type": "actor"},
             {"id": "d1", "type": "director"}]
    edges = [{"src": "a1", "dst": "m1", "etype": "acts_in"}, {"src": "d1", "dst": "m1", "etype": "directs"}]
    (nodes if kind == "nodes" else edges)[line - 1][field] = value
    with pytest.raises(GraphFormatError, match=rf"{kind}\.jsonl line {line}: field '{field}' must be a string, not "):
        load_graph(*write_graph_files(tmp_path, nodes, edges, IMDB_SCHEMA))


@pytest.mark.parametrize(
    "change,message",
    [
        ({"node_types": "movie"}, r"node_types must be a JSON array, not str"),
        ({"edge_types": IMDB_SCHEMA["edge_types"][0]}, r"edge_types must be a JSON array, not dict"),
        ({"class_labels": {"movie": "AB"}}, r"class_labels for 'movie' must be a JSON array, not str"),
        ({"class_labels": ["action"]}, r"malformed schema document: 'list' object has no attribute 'items'"),
        ({"node_types": ["movie", "actor", "director", "actor"]}, r"repeated node type: 'actor'"),
        ({"edge_types": IMDB_SCHEMA["edge_types"] + [{"name": "acts_in", "src": "director", "dst": "movie"}]},
         r"repeated edge type: 'acts_in'"),
        ({"class_labels": {"movie": ["action", "drama", "action"]}}, r"repeated class label of 'movie': 'action'"),
        ({"node_types": ["movie", "actor", "director", 1]}, r"node type must be a string, not 1"),
        ({"edge_types": IMDB_SCHEMA["edge_types"] + [{"name": 3, "src": "director", "dst": "movie"}]},
         r"edge type must be a string, not 3"),
        ({"domain_blurb": ["x"]}, r"domain_blurb must be a string, not \['x'\]"),
        ({"class_labels": {"movie": [1, 2]}}, r"class label of 'movie' must be a string, not 1"),
    ],
    ids=["node_types_string", "edge_types_object", "label_vocabulary_string", "class_labels_array",
         "repeated_node_type", "repeated_edge_type", "repeated_label", "node_type_not_a_string",
         "edge_type_name_not_a_string", "domain_blurb_not_a_string", "class_label_not_a_string"],
)
def test_a_bad_schema_is_refused_naming_its_file(tmp_path, change, message):
    paths = write_graph_files(tmp_path, [], [], {**IMDB_SCHEMA, **change})
    with pytest.raises(GraphFormatError, match=rf"schema\.json: {message}$"):
        load_graph(*paths)


def test_a_repeated_label_id_is_refused_naming_its_line(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("id,label\na1,Database\np1,Vision\na1,Data Mining\n")
    with pytest.raises(GraphFormatError, match=r"labels\.csv line 4: repeated node id 'a1'$"):
        load_labels(path)


def test_load_malformed_line(tmp_path):
    paths = write_graph_files(tmp_path, [{"id": "m1", "type": "movie"}], [], IMDB_SCHEMA)
    paths[0].write_text('{"id": "m1", "type": "movie"}\nnot json\n')
    with pytest.raises(GraphFormatError, match="line 2"):
        load_graph(*paths)


def test_undecodable_bytes_name_the_file_and_line(tmp_path):
    paths = write_graph_files(tmp_path, [{"id": "m1", "type": "movie"}], [], IMDB_SCHEMA)
    paths[0].write_bytes(b'{"id": "m1", "type": "movie"}\r\n{"id": "m\xff2", "type": "movie"}\n')
    with pytest.raises(GraphFormatError, match=r"nodes\.jsonl line 2: not UTF-8"):
        load_graph(*paths)
    labels = tmp_path / "labels.csv"
    labels.write_bytes(b"id,label\nm1,action\nm2,\xfe\n")
    with pytest.raises(GraphFormatError, match=r"labels\.csv line 3: not UTF-8"):
        load_labels(labels)


def test_load_reads_every_line_ending(tmp_path):
    paths = write_graph_files(tmp_path, [], [], IMDB_SCHEMA)
    paths[0].write_bytes(
        b'{"id": "m1", "type": "movie"}\r{"id": "a1", "type": "actor"}\r\n{"id": "d1", "type": "director"}'
    )
    assert load_graph(*paths).node_ids() == ["a1", "d1", "m1"]


def test_unknown_type_names_offender(tmp_path):
    nodes = [{"id": "x1", "type": "spaceship"}]
    paths = write_graph_files(tmp_path, nodes, [], IMDB_SCHEMA)
    with pytest.raises(GraphFormatError, match="spaceship"):
        load_graph(*paths)


def test_duplicate_edges_collapse(tmp_path):
    nodes = [{"id": "m1", "type": "movie"}, {"id": "a1", "type": "actor"}]
    edges = [
        {"src": "a1", "dst": "m1", "etype": "acts_in"},
        {"src": "a1", "dst": "m1", "etype": "acts_in"},
        {"src": "m1", "dst": "a1", "etype": "acts_in"},  # reversed record, same edge
    ]
    g = load_graph(*write_graph_files(tmp_path, nodes, edges, IMDB_SCHEMA))
    assert g.num_edges() == 1
    assert g.duplicates_collapsed == 2


def test_edge_direction_normalized_to_schema():
    g = small_academic_graph()
    # "a1 writes p1" was given in declared orientation; reversed records normalize
    schema = academic_schema()
    g2 = HeteroGraph(schema, [("a1", "author"), ("p1", "paper")], [("p1", "a1", "writes")])
    assert g2.edges == [("a1", "p1", "writes")]


def test_typed_neighbors_path_graph():
    schema = SchemaDef(
        node_types=["author", "paper"],
        edge_types=[EdgeType("writes", "author", "paper"), EdgeType("cites", "paper", "paper")],
    )
    g = HeteroGraph(
        schema,
        [("a", "author"), ("b", "paper"), ("c", "paper")],
        [("a", "b", "writes"), ("b", "c", "cites")],
    )
    assert typed_neighbors(g, "b") == ["a", "c"]


def test_typed_neighbors_star_sorted():
    schema = SchemaDef(node_types=["hub", "leaf"], edge_types=[EdgeType("spoke", "hub", "leaf")])
    nodes = [("center", "hub")] + [(f"l{i}", "leaf") for i in range(5)]
    edges = [("center", f"l{i}", "spoke") for i in (3, 1, 4, 0, 2)]
    g = HeteroGraph(schema, nodes, edges)
    assert typed_neighbors(g, "center") == ["l0", "l1", "l2", "l3", "l4"]


def test_typed_neighbors_unknown_node():
    g = small_academic_graph()
    with pytest.raises(KeyError):
        typed_neighbors(g, "nope")


def test_neighbor_symmetry():
    g = small_academic_graph()
    for u in g.node_ids():
        for v in typed_neighbors(g, u):
            assert u in typed_neighbors(g, v)


def test_save_load_roundtrip(tmp_path):
    g = small_academic_graph()
    save_graph(g, tmp_path / "gdir")
    g2 = load_graph_dir(tmp_path / "gdir")
    assert sorted(g2.nodes) == sorted(g.nodes)
    assert sorted(g2.edges) == sorted(g.edges)
    assert g2.node_text == g.node_text


def test_labels_roundtrip(tmp_path):
    labels = {"a1": "C0", "p1": "C2"}
    save_labels(labels, tmp_path / "labels.csv")
    assert load_labels(tmp_path / "labels.csv") == labels


def test_heterogeneity_warning(caplog):
    schema = SchemaDef(node_types=["thing"], edge_types=[EdgeType("link", "thing", "thing")])
    with caplog.at_level("WARNING"):
        HeteroGraph(schema, [("x", "thing"), ("y", "thing")], [("x", "y", "link")])
    assert any("homogeneous" in r.message for r in caplog.records)


# -- synthetic generation -----------------------------------------------------


def synth_cfg(p_intra=0.05, p_inter=0.005):
    schema = SchemaDef(
        node_types=["paper", "author"],
        edge_types=[EdgeType("writes", "author", "paper")],
        class_labels={"paper": ["C0", "C1", "C2"], "author": ["C0", "C1", "C2"]},
    )
    return SynthConfig(
        schema=schema,
        type_sizes={"paper": 300, "author": 300},
        classes=3,
        edge_probs={"writes": (p_intra, p_inter)},
    )


def test_synth_zero_inter_only_intra_edges():
    g, labels = synth_generate(synth_cfg(p_intra=0.05, p_inter=0.0), seed=3)
    for s, t, _ in g.edges:
        assert labels[s] == labels[t]


def test_synth_deterministic():
    g1, l1 = synth_generate(synth_cfg(), seed=7)
    g2, l2 = synth_generate(synth_cfg(), seed=7)
    assert g1.edges == g2.edges
    assert l1 == l2
    g3, _ = synth_generate(synth_cfg(), seed=8)
    assert g3.edges != g1.edges


def test_synth_edge_count_matches_binomial():
    # 3 classes, 300 papers x 300 authors, round-robin classes:
    # 30000 intra pairs at 0.05, 60000 inter pairs at 0.005
    mean = 30000 * 0.05 + 60000 * 0.005
    var = 30000 * 0.05 * 0.95 + 60000 * 0.005 * 0.995
    g, _ = synth_generate(synth_cfg(), seed=7)
    assert abs(g.num_edges() - mean) <= 3 * math.sqrt(var)


def test_synth_rejects_bad_probability():
    with pytest.raises(ValueError):
        synth_cfg(p_intra=1.5)


def test_synth_text_carries_class_marker():
    g, labels = synth_generate(synth_cfg(), seed=1)
    for nid, text in g.node_text.items():
        cls = labels[nid][-1]
        assert f"class:{cls}" in text
