import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ella.encoder import VectorCache
from ella.evalkit import (
    Task,
    ap,
    auc,
    build_splits,
    export_attention,
    macro_f1,
    micro_f1,
    profile_run,
    write_metadata,
)

from fixtures import complete_typed_tree, planted_link_fixture, planted_node_fixture


# -- classification metrics -----------------------------------------------------


def test_perfect_predictions():
    golds = ["a", "b", "c", "a"]
    assert micro_f1(golds, golds) == 1.0
    assert macro_f1(golds, golds) == 1.0


def test_all_wrong_micro_zero():
    assert micro_f1(["b", "c", "a"], ["a", "b", "c"]) == 0.0


def test_three_class_confusion_frozen_values():
    # A: 2/3 correct, B: 1/2, C: 0/1 (confusion-matrix oracle, frozen):
    # micro = accuracy = 0.5; per-class F1 = (2/3, 1/2, 0) -> macro = 7/18
    golds = ["A", "A", "A", "B", "B", "C"]
    preds = ["A", "A", "B", "B", "C", "A"]
    assert micro_f1(preds, golds) == pytest.approx(0.5)
    assert macro_f1(preds, golds) == pytest.approx(7 / 18)


def test_macro_counts_absent_vocabulary_classes():
    golds = ["A", "A"]
    preds = ["A", "A"]
    assert macro_f1(preds, golds) == 1.0
    assert macro_f1(preds, golds, labels=["A", "B"]) == pytest.approx(0.5)


def test_metrics_reject_empty_and_unknown():
    with pytest.raises(ValueError):
        micro_f1([], [])
    with pytest.raises(ValueError):
        micro_f1(["x"], ["A"], labels=["A"])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=60))
def test_micro_equals_accuracy(golds):
    rng = np.random.default_rng(len(golds))
    preds = [int(rng.integers(0, 4)) for _ in golds]
    accuracy = np.mean([p == g for p, g in zip(preds, golds)])
    assert micro_f1(preds, golds) == pytest.approx(accuracy)


def test_f1_matches_sklearn_reference():
    sklearn = pytest.importorskip("sklearn.metrics")
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(5, 50))
        golds = rng.integers(0, 4, size=n).tolist()
        preds = rng.integers(0, 4, size=n).tolist()
        labels = [0, 1, 2, 3]
        assert micro_f1(preds, golds, labels) == pytest.approx(
            sklearn.f1_score(golds, preds, labels=labels, average="micro", zero_division=0)
        )
        assert macro_f1(preds, golds, labels) == pytest.approx(
            sklearn.f1_score(golds, preds, labels=labels, average="macro", zero_division=0)
        )


# -- ranking metrics ---------------------------------------------------------------


def test_perfect_separation():
    scores = [0.9, 0.8, 0.2, 0.1]
    labels = [1, 1, 0, 0]
    assert auc(scores, labels) == 1.0
    assert ap(scores, labels) == 1.0


def test_all_equal_scores_auc_half():
    assert auc([0.5] * 6, [1, 0, 1, 0, 1, 0]) == pytest.approx(0.5)


def test_ranking_frozen_values():
    # desc order: 0.9(+), 0.7(-), 0.6(+), 0.2(-)
    scores = [0.9, 0.7, 0.6, 0.2]
    labels = [1, 0, 1, 0]
    assert auc(scores, labels) == pytest.approx(0.75)
    assert ap(scores, labels) == pytest.approx(0.5 * (1.0 + 2.0 / 3.0))


def test_single_class_rejected():
    with pytest.raises(ValueError):
        auc([0.1, 0.2], [1, 1])
    with pytest.raises(ValueError):
        ap([0.1, 0.2], [0, 0])


def test_auc_label_flip_complement():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(4, 40))
        scores = rng.random(n).round(2).tolist()  # rounded to force ties
        labels = rng.integers(0, 2, size=n).tolist()
        if len(set(labels)) < 2:
            continue
        flipped = [1 - y for y in labels]
        assert auc(scores, labels) == pytest.approx(1.0 - auc(scores, flipped), abs=1e-12)


def test_ranking_matches_sklearn_reference():
    sklearn = pytest.importorskip("sklearn.metrics")
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(4, 60))
        scores = rng.random(n).tolist()  # distinct scores: conventions agree
        labels = rng.integers(0, 2, size=n).tolist()
        if len(set(labels)) < 2:
            continue
        assert auc(scores, labels) == pytest.approx(sklearn.roc_auc_score(labels, scores))
        assert ap(scores, labels) == pytest.approx(
            sklearn.average_precision_score(labels, scores)
        )


# -- split protocol ------------------------------------------------------------------


def test_node_splits_100_100_rest():
    g, labels = planted_node_fixture(seed=0, papers=1200, authors=30)
    paper_labels = {n: l for n, l in labels.items() if g.node_type(n) == "paper"}
    spec = build_splits(g, paper_labels, Task.NodeClassification, seed=0, target_type="paper")
    for cls, (train, val, test) in spec.node_splits.items():
        assert len(train) == 100
        assert len(val) == 100
        assert len(test) == 200
        assert not (set(train) & set(val) or set(train) & set(test) or set(val) & set(test))
    all_ids = [n for parts in spec.node_splits.values() for part in parts for n in part]
    assert sorted(all_ids) == sorted(paper_labels)


def test_node_splits_small_class_fallback(caplog):
    g, labels = planted_node_fixture(seed=0, papers=300, authors=30)
    paper_labels = {n: l for n, l in labels.items() if g.node_type(n) == "paper"}
    with caplog.at_level("WARNING"):
        spec = build_splits(g, paper_labels, Task.NodeClassification, seed=0, target_type="paper")
    assert any("labeled nodes" in r.message for r in caplog.records)
    for train, val, test in spec.node_splits.values():
        assert len(train) == len(val) == 33
        assert len(test) == 34


def test_node_splits_deterministic():
    g, labels = planted_node_fixture(seed=0, papers=300, authors=30)
    s1 = build_splits(g, labels, Task.NodeClassification, seed=4, target_type="paper")
    s2 = build_splits(g, labels, Task.NodeClassification, seed=4, target_type="paper")
    assert s1.node_splits == s2.node_splits
    s3 = build_splits(g, labels, Task.NodeClassification, seed=5, target_type="paper")
    assert s3.node_splits != s1.node_splits


def test_node_splits_zero_class_errors():
    g, labels = planted_node_fixture(seed=0, papers=30, authors=30)
    with pytest.raises(ValueError, match="zero labeled"):
        build_splits(
            g, {n: "C0" for n in list(labels)[:10]}, Task.NodeClassification,
            expected_classes=["C0", "C9"],
        )


def link_fixture_with_edges(n_edges=1000, seed=0):
    from fixtures import bipartite_with_edges

    return bipartite_with_edges(n_edges=n_edges, seed=seed)


def test_link_splits_exact_counts():
    g = link_fixture_with_edges(1000)
    spec = build_splits(g, {}, Task.LinkPrediction, seed=0)
    assert len(spec.edge_splits["train"].positives) == 640
    assert len(spec.edge_splits["val"].positives) == 80
    assert len(spec.edge_splits["test"].positives) == 80
    assert len(spec.edge_splits["train"].negatives) == 1280
    assert len(spec.edge_splits["val"].negatives) == 160
    assert len(spec.edge_splits["test"].negatives) == 160


def test_link_splits_disjoint_and_negative():
    g = link_fixture_with_edges(600)
    spec = build_splits(g, {}, Task.LinkPrediction, seed=1)
    all_pos = [tuple(e) for part in spec.edge_splits.values() for e in part.positives]
    assert len(all_pos) == len(set(all_pos))
    all_neg = [tuple(e) for part in spec.edge_splits.values() for e in part.negatives]
    assert len(all_neg) == len(set(all_neg))
    for s, t, ename in all_neg:
        assert not g.has_edge(s, t, ename)


def test_link_splits_deterministic():
    g = link_fixture_with_edges(600)
    s1 = build_splits(g, {}, Task.LinkPrediction, seed=2)
    s2 = build_splits(g, {}, Task.LinkPrediction, seed=2)
    for part in ("train", "val", "test"):
        assert s1.edge_splits[part].positives == s2.edge_splits[part].positives
        assert s1.edge_splits[part].negatives == s2.edge_splits[part].negatives


def test_link_splits_empty_graph_errors():
    from ella.hetgraph import EdgeType, HeteroGraph, SchemaDef

    schema = SchemaDef(node_types=["user", "item"], edge_types=[EdgeType("buys", "user", "item")])
    g = HeteroGraph(schema, [("u0", "user"), ("i0", "item")], [])
    with pytest.raises(ValueError, match="nonempty"):
        build_splits(g, {}, Task.LinkPrediction)


# -- profiling ---------------------------------------------------------------------


def test_profile_tree_naive_vs_pooled():
    g = complete_typed_tree(b=5, depth=3)
    report = profile_run(g, K=3, targets=["n0"], dim=8)
    naive = [r.naive_path_calls for r in report.rows]
    assert naive == [5, 30, 155]  # cumulative simple paths: 5, 5+25, 5+25+125
    n_types = len(g.schema.node_types)
    for r in report.rows:
        assert r.relation_calls <= n_types * r.hops
        assert r.naive_path_calls >= r.relation_calls


def test_profile_naive_grows_with_branching():
    naives = []
    for b in (3, 5, 8):
        g = complete_typed_tree(b=b, depth=3)
        report = profile_run(g, K=3, targets=["n0"], dim=8)
        naives.append(report.rows[-1].naive_path_calls)
        assert report.rows[-1].naive_path_calls == b + b**2 + b**3
    assert naives == sorted(naives)


def test_profile_warm_cache_flags_complete(tmp_path):
    g = complete_typed_tree(b=3, depth=2)
    cache = VectorCache(tmp_path / "cache.bin")
    first = profile_run(g, K=2, targets=["n0"], cache=cache, dim=8)
    assert not first.rows[0].cache_complete
    second = profile_run(g, K=2, targets=["n0"], cache=cache, dim=8)
    assert all(r.cache_complete for r in second.rows)
    assert all(r.relation_calls == 0 and r.text_calls == 0 for r in second.rows)


def test_profile_csv(tmp_path):
    g = complete_typed_tree(b=3, depth=2)
    report = profile_run(g, K=2, targets=["n0"], dim=8)
    out = tmp_path / "profile.csv"
    report.to_csv(out)
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("hops,relation_calls")
    assert len(lines) == 3


# -- attention export ----------------------------------------------------------------


def capture_for_fixture():
    from ella.ellanet import AttentionCapture, ModelConfig, forward, init_params
    from ella.encoder import MockBackend, tokenize_graph

    g, _ = planted_link_fixture(seed=0, users=8, items=8)
    cfg = ModelConfig(d=8, heads=2, type_layers=1, hop_layers=1, hops=2, d_llm=8)
    table = tokenize_graph(MockBackend(dim=8), g, K=2)
    params = init_params(cfg, g.schema.node_types, {}, seed=0)
    cap = AttentionCapture()
    for nid in g.node_ids():
        forward(nid, table, params, cfg, cap)
    return g, cap


def test_export_attention_files(tmp_path):
    g, cap = capture_for_fixture()
    written = export_attention(cap, g, tmp_path)
    type_rows = (tmp_path / "type_attention.csv").read_text().strip().splitlines()
    assert type_rows[0] == "target_type,hop,relation_type,mean_alpha,std_alpha,n"
    assert len(type_rows) > 1
    hop_rows = (tmp_path / "hop_attention.csv").read_text().strip().splitlines()
    assert hop_rows[0] == "target_type,hop,mean_gamma,std_gamma,n"


def test_export_single_type_hop_alpha_is_one(tmp_path):
    g, cap = capture_for_fixture()
    export_attention(cap, g, tmp_path)
    import csv

    with open(tmp_path / "type_attention.csv") as fh:
        rows = list(csv.DictReader(fh))
    # bipartite graph: exactly one type present at each hop -> alpha == 1
    for row in rows:
        assert float(row["mean_alpha"]) == pytest.approx(1.0)
        assert float(row["std_alpha"]) == pytest.approx(0.0)


def test_export_requires_capture(tmp_path):
    g, _ = capture_for_fixture()
    with pytest.raises(ValueError, match="capture"):
        export_attention(None, g, tmp_path)


def test_write_metadata(tmp_path):
    out = tmp_path / "results.csv"
    out.write_text("metric,value\n")
    meta = write_metadata(out, {"command": "test", "seed": 3})
    import json

    doc = json.loads(meta.read_text())
    assert doc["command"] == "test"
    assert "generated_at" in doc
