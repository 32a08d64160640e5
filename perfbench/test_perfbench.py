"""Tests of the benchmark itself: small runs of every workload, and each
check rejecting a deliberately wrong input.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import checks
import tracing
import workloads
from ella import encoder
from ella.encoder import TokenTable
from ella.pathstats import MetaPathProfile, PatternStat, meta_path_profile

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

SMALL = {
    "link": dict(
        sizes={"paper": 48, "author": 48, "organization": 6},
        edge_probs={"writes": (0.25, 0.01), "cites": (0.2, 0.005), "belongs": (0.8, 0.05)},
        pretrain_epochs=6,
    ),
    "node": dict(
        sizes={"paper": 60, "author": 60},
        edge_probs={"writes": (0.12, 0.01)},
        pretrain_epochs=4,
    ),
    "tokenize": dict(
        sizes={"paper": 40, "author": 40, "organization": 10},
        edge_probs={"writes": (0.08, 0.008), "cites": (0.05, 0.005), "belongs": (0.3, 0.03)},
        pretrain_epochs=3,
    ),
}


def small_spec(name: str) -> workloads.Spec:
    return dataclasses.replace(
        workloads.SPECS[name], **SMALL[name], ranking_authors=10,
        f1_floor=0.0, auc_floor=0.0,
    )


# -- whole runs ---------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.SPECS))
def test_small_run_passes_its_checks(name, tmp_path):
    result = workloads.run(name, seed=3, seconds=0, trace=False, out_dir=tmp_path, spec=small_spec(name))
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 7
    want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert list(tmp_path.iterdir()) == []  # the work directory is removed


def test_times_are_scaled_to_the_reference_speed(tmp_path, monkeypatch):
    # a clock that ticks one second per reading, and a machine that takes
    # twice the reference time: an interval of one tick reads half a second
    ticks = iter(range(10**6))
    monkeypatch.setattr(workloads, "clock", lambda: float(next(ticks)))
    monkeypatch.setattr(workloads, "reference_s", lambda: workloads.REFERENCE_S * 2)
    result = workloads.run("link", seed=3, seconds=0, trace=False, out_dir=tmp_path, spec=small_spec("link"))
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["setup_s"] == metrics["finetune_s"] == metrics["token_io_s"] == 0.5
    assert metrics["classify_nodes_per_s"] == 2 * len(workloads.setup(small_spec("link"), 3).labels)


def test_a_failed_check_fails_its_stage(tmp_path, capsys):
    spec = dataclasses.replace(small_spec("link"), f1_floor=1.01)  # unreachable
    result = workloads.run("link", seed=3, seconds=0, trace=False, out_dir=tmp_path, spec=spec)
    assert not result["correct"]
    assert result["failed"] == 1 and result["attempted"] == 7
    assert "classify: check failed: Micro-F1" in capsys.readouterr().err


@pytest.mark.parametrize("name", sorted(workloads.SPECS))
def test_small_traced_run_reports_every_layer(name, tmp_path):
    before = encoder.relation_token
    result = workloads.run(name, seed=3, seconds=0, trace=True, out_dir=tmp_path, spec=small_spec(name))
    assert encoder.relation_token is before  # every wrapper is undone
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    want = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in metrics.items()} == want
    for key, metric in metrics.items():
        if key.endswith((".calls", ".s")) or key == "tensorcore.ops_per_epoch":
            assert metric["value"] > 0, key
    assert metrics["encoder.cache_hits"]["value"] < metrics["encoder.cache_lookups"]["value"]
    trace = json.loads((tmp_path / f"trace-{name}-seed3.json").read_text())
    assert "encoder.cache_key" in trace["names"] and trace["spans"]


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.SPECS)
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == workloads.PER_LAYER


# -- tracing -----------------------------------------------------------------------------


class _Layer:
    @staticmethod
    def inner(x):
        return x + 1

    @staticmethod
    def outer(x):
        return _Layer.inner(x) * 2


def test_self_time_is_duration_minus_children():
    tracer = tracing.Tracer(workloads.CountingBackend)
    patches = tracing.Patches()
    # named as a self-timed layer and one of its children
    patches.wrap(_Layer, "inner", lambda fn: tracer._span_wrapper("tensorcore.backward", fn))
    patches.wrap(_Layer, "outer", lambda fn: tracer._span_wrapper("trainer.pretrain", fn))
    try:
        tracer.on = True
        assert _Layer.outer(1) == 4
        tracer.on = False
        unit = tracer._aggregate()
    finally:
        patches.undo()
    assert unit["trainer.pretrain.calls"] == unit["tensorcore.backward.calls"] == 1
    assert unit["trainer.pretrain.self_s"] == pytest.approx(
        unit["trainer.pretrain.s"] - unit["tensorcore.backward.s"]
    )
    assert list(tracer.span_parent) == [-1, 0]
    assert _Layer.outer(1) == 4 and "wrapper" not in _Layer.outer.__qualname__


def test_a_wrapper_that_never_fires_fails_the_traced_run():
    tracer = tracing.Tracer(workloads.CountingBackend)
    with tracer.unit(on=True):
        pass  # nothing called: every wrapper stays silent
    with pytest.raises(RuntimeError, match="never fired"):
        workloads._per_layer(tracer, [])


# -- each check rejects a wrong input ------------------------------------------------------


def test_auc_check_rejects_swapped_labels():
    rng = np.random.default_rng(0)
    labels = [1] * 20 + [0] * 40
    scores = np.array(labels) + rng.normal(0, 0.3, len(labels))
    assert checks.check_auc(scores, labels, floor=0.75) > 0.75
    swapped = [1 - y for y in labels]
    with pytest.raises(checks.CheckFailed, match="below the floor"):
        checks.check_auc(scores, swapped, floor=0.75)


def test_brute_force_auc_counts_ties_as_half():
    assert checks.brute_force_auc([0.5, 0.5, 0.2], [1, 0, 0]) == pytest.approx(0.75)


def test_micro_f1_check_rejects_shifted_predictions():
    golds = ["C0", "C1", "C2"] * 10
    checks.check_micro_f1(list(golds), golds, ["C0", "C1", "C2"], floor=0.9)
    shifted = golds[1:] + golds[:1]
    with pytest.raises(checks.CheckFailed, match="below the floor"):
        checks.check_micro_f1(shifted, golds, ["C0", "C1", "C2"], floor=0.9)


@pytest.fixture(scope="module")
def small_graph():
    return workloads.setup(small_spec("tokenize"), seed=5).g


def test_walk_count_check_rejects_a_corrupted_profile(small_graph):
    g = small_graph
    ids = g.node_ids()
    types = [g.node_type(n) for n in ids]
    A = checks.adjacency(ids, g.edges)
    s = max(range(len(ids)), key=lambda i: len(g.incident(ids[i])))
    expected = checks.walk_counts(A, types, s, 3)
    profile = meta_path_profile(g, ids[s], 3)
    checks.check_walk_counts(profile, expected)
    pattern, stat = next(iter(profile.patterns.items()))
    corrupted = MetaPathProfile(
        profile.target, profile.hop,
        {**profile.patterns, pattern: PatternStat(stat.count + 1, stat.proportion)},
    )
    with pytest.raises(checks.CheckFailed, match="counts"):
        checks.check_walk_counts(corrupted, expected)


def test_stored_vector_check_rejects_a_missing_relation_token(small_graph):
    g = small_graph
    ids = g.node_ids()
    A = checks.adjacency(ids, g.edges)
    expected = checks.expected_stored_vectors(A, [g.node_type(n) for n in ids], 2)
    table = encoder.tokenize_graph(workloads.CountingBackend(8), g, K=2)
    checks.check_stored_vectors(table, ids, expected)
    del table.relation_tokens[next(iter(table.relation_tokens))]
    with pytest.raises(checks.CheckFailed, match="stores"):
        checks.check_stored_vectors(table, ids, expected)


def test_relation_call_check_rejects_calls_over_the_bound():
    checks.check_relation_calls({"a": 6, "b": 2}, n_types=3, K=2)
    with pytest.raises(checks.CheckFailed, match="relation calls"):
        checks.check_relation_calls({"a": 7, "b": 2}, n_types=3, K=2)


def _table() -> TokenTable:
    t = TokenTable(dim=2)
    t.node_tokens["a"] = np.array([0.5, 0.25])
    t.relation_tokens[("a", 1, "paper")] = np.array([1.0, -1.0])
    return t


def test_warm_pass_check_rejects_calls_and_changed_bits():
    checks.check_warm_pass(_table(), _table(), backend_calls=0)
    with pytest.raises(checks.CheckFailed, match="backend calls"):
        checks.check_warm_pass(_table(), _table(), backend_calls=1)
    flipped = _table()
    flipped.node_tokens["a"] = np.nextafter(flipped.node_tokens["a"], 1.0)
    with pytest.raises(checks.CheckFailed, match="differ"):
        checks.check_warm_pass(_table(), flipped, backend_calls=0)


def test_round_trip_check_rejects_a_lost_entry():
    checks.check_round_trip(_table(), _table())
    lost = _table()
    lost.relation_tokens.clear()
    with pytest.raises(checks.CheckFailed, match="differs"):
        checks.check_round_trip(_table(), lost)


def test_loss_check_rejects_a_rising_curve():
    checks.check_loss_decreased([3.0, 2.5, 2.0])
    with pytest.raises(checks.CheckFailed, match="not below"):
        checks.check_loss_decreased([2.0, 2.5, 2.1])


def test_negative_check_rejects_an_edge_in_either_direction():
    edges = {("a1", "p1", "writes")}
    checks.check_negatives([("a1", "p2", "writes")], edges)
    with pytest.raises(checks.CheckFailed, match="are edges"):
        checks.check_negatives([("p1", "a1", "writes")], edges)


def test_backbone_check_rejects_a_changed_hash():
    checks.check_backbone_unchanged("abc", "abc")
    with pytest.raises(checks.CheckFailed, match="changed the backbone"):
        checks.check_backbone_unchanged("abc", "abd")


def test_score_check_rejects_out_of_range_scores():
    checks.check_scores(np.array([0.1, 0.9]), 2)
    with pytest.raises(checks.CheckFailed, match="outside"):
        checks.check_scores(np.array([0.1, 1.5]), 2)
