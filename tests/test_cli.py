import builtins
import hashlib
import io
import json
import re
import shutil
import struct
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner

from ella import cli, encoder, evalkit, pathstats, trainer
from ella.cli import main
from ella.ellanet import ModelConfig, init_params
from ella.hetgraph import EdgeType, HeteroGraph, SchemaDef, load_graph_dir, load_labels, save_graph, save_labels
from ella.tensorcore import Tensor, load_arrays, save_arrays, save_checkpoint

from fixtures import EncoderStub, complete_typed_tree, http_server, planted_node_fixture


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Ingested planted graph plus labels, shared across CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    g, labels = planted_node_fixture(seed=0, papers=36, authors=36)
    raw = root / "raw"
    save_graph(g, raw)
    save_labels(labels, root / "labels.csv")
    runner = CliRunner()
    result = runner.invoke(
        main,
        [
            "ingest",
            "--nodes", str(raw / "nodes.jsonl"),
            "--edges", str(raw / "edges.jsonl"),
            "--schema", str(raw / "schema.json"),
            "--out", str(root / "graph"),
        ],
    )
    assert result.exit_code == 0, result.output
    return root


def run_cli(args):
    runner = CliRunner()
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    return result


def test_ingest_reports_counts(workdir):
    # re-run ingest to inspect its report
    raw = workdir / "raw"
    result = run_cli(
        [
            "ingest",
            "--nodes", str(raw / "nodes.jsonl"),
            "--edges", str(raw / "edges.jsonl"),
            "--schema", str(raw / "schema.json"),
            "--out", str(workdir / "graph2"),
        ]
    )
    assert "paper : 36" in result.output
    assert "author : 36" in result.output
    assert (workdir / "graph2" / "graph.meta.json").exists()


def test_tokenize_pretrain_finetune_evaluate(workdir):
    graph_dir = str(workdir / "graph")
    tokens = str(workdir / "tokens.bin")
    run_cli(
        [
            "tokenize", "--graph", graph_dir, "--hops", "2",
            "--template", "pretrain", "--cache", str(workdir / "cache.bin"),
            "--out", tokens, "--dim", "12",
        ]
    )
    assert Path(tokens).exists()
    meta = json.loads(Path(tokens + ".meta.json").read_text())
    assert meta["backend"] == "mock"
    assert meta["pooling"] == "mean"

    config = workdir / "config.json"
    config.write_text(
        json.dumps(
            {
                "model": {"d": 8, "heads": 2, "type_layers": 1, "hop_layers": 1},
                "train": {"max_epochs": 3, "patience": 30},
            }
        )
    )
    ckpt = str(workdir / "model.ckpt")
    run_cli(
        [
            "pretrain", "--graph", graph_dir, "--tokens", tokens,
            "--config", str(config), "--seed", "0", "--out", ckpt,
        ]
    )
    ckpt_meta = json.loads(Path(ckpt + ".meta.json").read_text())
    assert ckpt_meta["command"] == "pretrain"
    assert "checkpoint_sha256" in ckpt_meta

    ft_tokens = str(workdir / "tokens_ft.bin")
    run_cli(
        [
            "tokenize", "--graph", graph_dir, "--hops", "2", "--template", "finetune",
            "--cache", str(workdir / "cache.bin"), "--out", ft_tokens, "--dim", "12",
        ]
    )
    head_ckpt = str(workdir / "head.ckpt")
    run_cli(
        [
            "finetune", "--graph", graph_dir, "--tokens", ft_tokens, "--ckpt", ckpt,
            "--labels", str(workdir / "labels.csv"), "--target-type", "paper",
            "--seed", "0", "--out", head_ckpt,
        ]
    )
    head_meta = json.loads(Path(head_ckpt + ".meta.json").read_text())
    assert head_meta["target_type"] == "paper"
    grid = head_meta["grid"]
    defaults = trainer.TrainConfig()
    assert [lane["lr"] for lane in grid] == list(trainer.LR_GRID)
    for lane in grid:
        assert set(lane) == {"lr", "best_epoch", "val_micro_f1"}
        assert 0 <= lane["best_epoch"] < defaults.max_epochs
        assert 0.0 <= lane["val_micro_f1"] <= 1.0
    chosen = [lane for lane in grid if lane["lr"] == head_meta["lr"]]
    assert chosen == [
        {"lr": head_meta["lr"], "best_epoch": head_meta["best_epoch"],
         "val_micro_f1": head_meta["val_micro_f1"]}
    ]
    assert head_meta["val_micro_f1"] == max(lane["val_micro_f1"] for lane in grid)

    out_csv = workdir / "node_eval.csv"
    result = run_cli(
        [
            "evaluate", "--ckpt", head_ckpt,
            "--out", str(out_csv), "--graph", graph_dir, "--tokens", ft_tokens,
            "--labels", str(workdir / "labels.csv"),
        ]
    )
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "metric,split,value"
    assert any(line.startswith("micro_f1") for line in lines)
    assert (workdir / "node_eval.csv.meta.json").exists()

    link_csv = workdir / "link_eval.csv"
    run_cli(
        [
            "evaluate", "--ckpt", ckpt,
            "--out", str(link_csv), "--graph", graph_dir, "--tokens", tokens,
        ]
    )
    rows = link_csv.read_text().strip().splitlines()
    assert any(r.startswith("auc") for r in rows)
    assert any(r.startswith("ap") for r in rows)

    out_dir = workdir / "attn"
    run_cli(
        [
            "export-attention", "--ckpt", ckpt, "--out", str(out_dir),
            "--graph", graph_dir, "--tokens", tokens,
        ]
    )
    assert (out_dir / "type_attention.csv").exists()
    assert (out_dir / "hop_attention.csv").exists()


def test_profile_command(tmp_path):
    g = complete_typed_tree(b=3, depth=3)
    save_graph(g, tmp_path / "tree")
    out = tmp_path / "profile.csv"
    result = run_cli(
        ["profile", "--graph", str(tmp_path / "tree"), "--hops", "3", "--out", str(out)]
    )
    assert "naive" in result.output
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 4  # header + K rows




@pytest.mark.parametrize("command", ["tokenize", "profile"])
def test_cache_building_commands_close_their_cache(workdir, tmp_path, monkeypatch, command):
    closed = []
    close = encoder.VectorCache.close
    monkeypatch.setattr(encoder.VectorCache, "close", lambda c: closed.append(c.path) or close(c))
    cache = tmp_path / "cache.bin"
    run_cli([command, "--graph", str(workdir / "graph"), "--hops", "1", "--dim", "12",
             "--cache", str(cache), "--out", str(tmp_path / "out")])
    assert closed == [cache]
    assert len(encoder.VectorCache(cache)) > 0


def test_profile_reads_the_cache_tokenize_wrote_with_default_dims(workdir, tmp_path):
    cache = tmp_path / "cache.bin"
    args = ["--graph", str(workdir / "graph"), "--hops", "2", "--cache", str(cache)]
    run_cli(["tokenize", *args, "--out", str(tmp_path / "t.bin")])
    size = cache.stat().st_size
    result = run_cli(["profile", *args, "--out", str(tmp_path / "p.csv")])
    rows = [line for line in result.output.splitlines() if line.startswith("K=")]
    assert len(rows) == 2 and all(row.endswith(" cache-complete") for row in rows), result.output
    assert cache.stat().st_size == size


def _untrained_checkpoint(graph_dir, out, recorded=None):
    """An initialised 1-hop checkpoint whose metadata records ``recorded``, by
    default what a pretrain run with seed 0 records."""
    g = load_graph_dir(graph_dir)
    cfg = ModelConfig(d=8, heads=2, type_layers=1, hop_layers=1, hops=1, d_llm=12)
    class_counts = {t: len(v) for t, v in g.schema.class_labels.items()}
    recorded = {"command": "pretrain", "seed": 0} if recorded is None else recorded
    cli._save_params(init_params(cfg, g.schema.node_types, class_counts), cfg, out, recorded)
    return out


def test_load_params_refuses_a_model_config_key_that_is_now_a_constant(workdir):
    ckpt = _untrained_checkpoint(workdir / "graph", str(workdir / "ffn.ckpt"))
    meta_path = Path(ckpt + ".meta.json")
    meta = json.loads(meta_path.read_text())
    meta["model_config"]["ffn_mult"] = 2  # what checkpoints recorded while it was a setting
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(click.ClickException, match="ffn.ckpt.meta.json: unknown model keys: ffn_mult"):
        cli._load_params(ckpt)


def test_load_params_checks_checkpoint_hash(workdir):
    ckpt = _untrained_checkpoint(workdir / "graph", str(workdir / "hashed.ckpt"))
    params, _, meta = cli._load_params(ckpt)
    assert "proj/W" in params.tensors
    assert meta == json.loads(Path(ckpt + ".meta.json").read_text())

    data = bytearray(Path(ckpt).read_bytes())
    data[-1] ^= 0x01
    Path(ckpt).write_bytes(bytes(data))
    with pytest.raises(click.ClickException, match="hashed.ckpt does not match"):
        cli._load_params(ckpt)

    meta_path = Path(ckpt + ".meta.json")
    meta = json.loads(meta_path.read_text())
    del meta["checkpoint_sha256"]
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(click.ClickException, match="records no checkpoint_sha256"):
        cli._load_params(ckpt)


@pytest.mark.parametrize(
    "doc,unknown",
    [
        ({"train": {"capture_attention": True, "max_epochs": 2}}, "unknown train keys: capture_attention"),
        ({"model": {"d": 8, "depth": 2, "width": 3}}, "unknown model keys: depth, width"),
        ({"model": {"hops": 5}}, "model.hops is not a pretrain setting: it comes from the tokens' .meta.json"),
        ({"model": {"d_llm": 7}}, "model.d_llm is not a pretrain setting: it comes from the token file's vector dim"),
        ({"train": {"lr_grid": [0.5]}}, "unknown train keys: lr_grid"),
        ({"train": {"val_fraction": 0.2}}, "unknown train keys: val_fraction"),
        ({"model": {"ffn_mult": 2}}, "config.json: unknown model keys: ffn_mult"),
        ({"train": {"neg_ratio": 1}}, "config.json: unknown train keys: neg_ratio"),
    ],
)
def test_train_config_unknown_keys(tmp_path, doc, unknown):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(click.ClickException, match=unknown):
        cli._load_train_config(str(path))


@pytest.mark.parametrize(
    "doc,message",
    [
        ({"model": {"d": 7, "heads": 2}}, "invalid model config: hidden dim 7 not divisible by 2"),
        ({"model": {"hops": 0}}, "model.hops is not a pretrain setting: it comes from the tokens' .meta.json"),
        ({"model": {"d": "8"}}, "invalid model config: "),
        ([1, 2], "expected a JSON object, got list"),
        ("x", "expected a JSON object, got str"),
        ({"model": [1, 2]}, "model section: expected a JSON object, got list"),
        ({"train": 5}, "train section: expected a JSON object, got int"),
        ({"model": []}, "model section: expected a JSON object, got list"),
        ({"model": ""}, "model section: expected a JSON object, got str"),
        ({"model": None}, "model section: expected a JSON object, got NoneType"),
        ({"train": 0}, "train section: expected a JSON object, got int"),
        ({"train": {"patience": "30"}}, "invalid train config: patience must be an integer, not '30'"),
        ({"train": {"lr": "abc"}}, "invalid train config: lr must be a finite number >= 0, not 'abc'"),
        ({"train": {"lr": "1e-3"}}, "invalid train config: lr must be a finite number >= 0, not '1e-3'"),
        ({"train": {"lr": True}}, "invalid train config: lr must be a finite number >= 0, not True"),
        ({"train": {"lr": -1.0}}, "invalid train config: lr must be a finite number >= 0, not -1.0"),
        # neg_ratio and ffn_mult are constants now: any value of theirs is refused as an unknown key
        ({"train": {"neg_ratio": 0}}, "unknown train keys: neg_ratio"),
        ({"train": {"neg_ratio": 1.5}}, "unknown train keys: neg_ratio"),
        ({"train": {"max_epochs": -2}}, "invalid train config: max_epochs must be >= 0, got -2"),
        ({"train": {"dump_path": 5}}, "invalid train config: dump_path must be a string, not 5"),
        ({"model": {"d": 8.0}}, "invalid model config: d must be an integer, not 8.0"),
        ({"model": {"d": 0}}, "invalid model config: d must be >= 1, got 0"),
        ({"model": {"heads": 0}}, "invalid model config: heads must be >= 1, got 0"),
        ({"model": {"heads": True}}, "invalid model config: heads must be an integer, not True"),
        ({"model": {"type_layers": True}}, "invalid model config: type_layers must be an integer, not True"),
        ({"model": {"ffn_mult": 0}}, "unknown model keys: ffn_mult"),
        ({"model": {"ffn_mult": 1.5}}, "unknown model keys: ffn_mult"),
    ],
    ids=["indivisible_heads", "zero_hops", "string_dim", "list_document", "string_document",
         "list_model", "int_train", "empty_list_model", "empty_string_model", "null_model", "zero_train",
         "string_patience", "word_lr", "string_lr", "bool_lr", "negative_lr", "zero_neg_ratio",
         "fractional_neg_ratio", "negative_max_epochs", "int_dump_path", "float_d", "zero_d", "zero_heads",
         "bool_heads", "bool_type_layers", "zero_ffn_mult", "fractional_ffn_mult"],
)
def test_train_config_invalid_values(tmp_path, doc, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(click.ClickException, match=f"config.json: {message}"):
        cli._load_train_config(str(path))


def _cut_three_bytes(path):
    path.write_bytes(path.read_bytes()[:-3])


def _write_parent_format_tokens(path):
    save_arrays({"node\x1fa": np.ones(12)}, path)


def _rewrite(data_for):
    """Replace an array file by ``data_for(path)``; a checkpoint's metadata
    gets the new bytes' sha256, so only the file's layout is wrong."""

    def damage(path):
        path.write_bytes(data_for(path))
        meta_path = Path(f"{path}.meta.json")
        meta = json.loads(meta_path.read_text())
        if "checkpoint_sha256" in meta:
            meta["checkpoint_sha256"] = hashlib.sha256(path.read_bytes()).hexdigest()
            meta_path.write_text(json.dumps(meta))

    return damage


_NO_ZIP = r"not a zip of \.npy arrays \(no end record at the end of the file\)"
_OLD_LAYOUT = r"not a zip of \.npy arrays \(it has the older ELLACKPT v1 layout\)"
_OLD_SHAPES = r"model\.ckpt: its tensors do not fit the model_config in \S*model\.ckpt\.meta\.json; re-run 'ella pretrain'$"


def _garbage(path):
    return b"not an array file\n"


def _ellackpt_v1(path):
    """The arrays at ``path`` in the layout array files had before they were
    zips: magic line, count, then per array its name, dtype code, shape and
    little-endian values."""
    arrays = load_arrays(path)
    parts = [b"ELLACKPT v1\n", struct.pack("<I", len(arrays))]
    for name in sorted(arrays):
        arr, raw = arrays[name], name.encode("utf-8")
        code = {"float64": 0, "float32": 1, "uint8": 2}[arr.dtype.name]
        parts += [struct.pack(f"<H{len(raw)}sBB{arr.ndim}I", len(raw), raw, code, arr.ndim, *arr.shape), arr.tobytes()]
    return b"".join(parts)


def _old_hop_readout(path):
    """The checkpoint at ``path`` as the hop readout that scored the pairs
    (h0 || h_j) stored it: ``readout/w`` a (2d, 1) column."""
    arrays = load_arrays(path)
    arrays["readout/w"] = np.zeros((2 * arrays["readout/w"].size, 1))
    save_checkpoint({n: Tensor(a) for n, a in arrays.items()}, path)
    return path.read_bytes()


def _write_invalid_json(path):
    path.write_text("{not json")


def _drop(key):
    def damage(path):
        meta = json.loads(path.read_text())
        del meta[key]
        path.write_text(json.dumps(meta))

    return damage


def _set(key, value):
    def damage(path):
        meta = json.loads(path.read_text())
        meta[key] = value
        path.write_text(json.dumps(meta))

    return damage


def _set_model_config(value):
    def damage(path):
        meta = json.loads(path.read_text())
        meta["model_config"] = value(meta["model_config"])
        path.write_text(json.dumps(meta))

    return damage


def _append(line):
    def damage(path):
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")

    return damage


def _relabel(nid, label):
    def damage(path):
        rows = [f"{nid},{label}" if row.split(",")[0] == nid else row for row in path.read_text().splitlines()]
        path.write_text("\n".join(rows) + "\n")

    return damage


def _keep_labels(prefix, count):
    """Keep the first ``count`` labels of nodes whose id starts with ``prefix``."""

    def damage(path):
        header, *rows = path.read_text().splitlines()
        path.write_text("\n".join([header, *[r for r in rows if r.startswith(prefix)][:count]]) + "\n")

    return damage


def _append_bytes(raw):
    def damage(path):
        with open(path, "ab") as fh:
            fh.write(raw)

    return damage


def _label_unknown_type(path):
    schema = json.loads(path.read_text())
    schema["class_labels"]["venue"] = ["C0"]
    path.write_text(json.dumps(schema))


def _delete(path):
    path.unlink()


@pytest.mark.parametrize(
    "command,broken,damage,message",
    [
        ("ingest", "graph/nodes.jsonl", _append("{not json"), r"nodes\.jsonl line \d+: invalid JSON"),
        ("tokenize", "graph/nodes.jsonl", _append_bytes(b"\xff\xfe"), r"nodes\.jsonl line \d+: not UTF-8"),
        ("pretrain", "graph/schema.json", _append_bytes(b"\xff\xfe"), r"schema\.json line \d+: not UTF-8"),
        ("tokenize", "graph/edges.jsonl", _append('{"src": "ghost", "dst": "ghost", "etype": "writes"}'),
         r"edges\.jsonl line \d+: unknown node id 'ghost'"),
        ("tokenize", "graph/edges.jsonl", _append('{"src": "paper0000", "dst": "paper0001", "etype": "writes"}'),
         r"edges\.jsonl line \d+: edge \('paper0000', 'paper0001'\) of type 'writes' joins paper/paper"),
        ("pretrain", "graph/schema.json", _label_unknown_type,
         r"schema\.json: class_labels for unknown node type 'venue'"),
        ("evaluate", "graph/edges.jsonl", _delete, r"No such file or directory: .*edges\.jsonl"),
        ("finetune", "labels.csv", _append("ghost,C0"), r"labels\.csv: unknown node 'ghost'"),
        ("evaluate_node", "labels.csv", _append("ghost,C0"), r"labels\.csv: unknown node 'ghost'"),
        ("finetune", "labels.csv", _relabel("paper0000", "C9"), r"labels\.csv: node 'paper0000' has label 'C9'"),
        ("finetune", "labels.csv", _append("paper0000,C9"), r"labels\.csv line \d+: repeated node id 'paper0000'"),
        ("finetune", "labels.csv", _write_invalid_json, r"labels\.csv: expected 'id,label' header"),
        ("finetune", "labels.csv", _append_bytes(b"\xff\xfe"), r"labels\.csv line \d+: not UTF-8"),
        ("finetune", "labels.csv", _keep_labels("", 0), r"labels\.csv: no node of type 'paper' is labelled$"),
        ("evaluate_node", "labels.csv", _keep_labels("", 0), r"labels\.csv: no node of type 'paper' is labelled$"),
        ("evaluate_node", "labels.csv", _keep_labels("author", 5), r"labels\.csv: no node of type 'paper' is labelled$"),
        ("pretrain", "config.json", _write_invalid_json, r"config\.json: not valid JSON"),
        ("pretrain", "config.json", _set("model", {"d_llm": 12}),
         r"config\.json: model\.d_llm is not a pretrain setting: it comes from the token file's vector dim$"),
        ("pretrain", "config.json", _set("train", {"lr_grid": [0.5]}), r"config\.json: unknown train keys: lr_grid$"),
        ("pretrain", "tokens.bin", _cut_three_bytes, rf"tokens\.bin: {_NO_ZIP}; re-run `ella tokenize` to rebuild it$"),
        ("pretrain", "tokens.bin", _write_parent_format_tokens, r"tokens\.bin: not a token file of format 2"),
        ("pretrain", "tokens.bin", _rewrite(_ellackpt_v1), rf"tokens\.bin: {_OLD_LAYOUT}; re-run `ella tokenize` to rebuild it$"),
        ("evaluate", "model.ckpt", _rewrite(_garbage), rf"model\.ckpt: {_NO_ZIP}; re-run 'ella pretrain'$"),
        ("finetune", "model.ckpt", _rewrite(_garbage), rf"model\.ckpt: {_NO_ZIP}; re-run 'ella pretrain'$"),
        ("export-attention", "model.ckpt", _rewrite(_garbage), rf"model\.ckpt: {_NO_ZIP}; re-run 'ella pretrain'$"),
        ("evaluate", "model.ckpt", _rewrite(_ellackpt_v1), rf"model\.ckpt: {_OLD_LAYOUT}; re-run 'ella pretrain'$"),
        ("evaluate_node", "model.ckpt", _rewrite(_ellackpt_v1), rf"model\.ckpt: {_OLD_LAYOUT}; re-run 'ella finetune'$"),
        ("finetune", "model.ckpt", _rewrite(_ellackpt_v1), rf"model\.ckpt: {_OLD_LAYOUT}; re-run 'ella pretrain'$"),
        ("export-attention", "model.ckpt", _rewrite(_ellackpt_v1), rf"model\.ckpt: {_OLD_LAYOUT}; re-run 'ella pretrain'$"),
        ("evaluate", "model.ckpt", _rewrite(_old_hop_readout), _OLD_SHAPES),
        ("finetune", "model.ckpt", _rewrite(_old_hop_readout), _OLD_SHAPES),
        ("export-attention", "model.ckpt", _rewrite(_old_hop_readout), _OLD_SHAPES),
        ("evaluate", "model.ckpt.meta.json", _write_invalid_json, r"model\.ckpt\.meta\.json: not valid JSON"),
        ("evaluate", "model.ckpt.meta.json", _drop("model_config"),
         r"model\.ckpt\.meta\.json records no model_config; re-run 'ella pretrain'"),
        ("evaluate", "model.ckpt.meta.json", _set_model_config(lambda cfg: {**cfg, "depth": 2}),
         r"model\.ckpt\.meta\.json: unknown model keys: depth"),
        ("evaluate", "model.ckpt.meta.json", _set_model_config(lambda cfg: list(cfg.values())),
         r"model\.ckpt\.meta\.json: model section: expected a JSON object, got list"),
        ("evaluate", "model.ckpt.meta.json", _set_model_config(lambda cfg: {**cfg, "d": 7, "heads": 2}),
         r"model\.ckpt\.meta\.json: invalid model config: hidden dim 7 not divisible by 2 heads"),
        ("evaluate", "model.ckpt.meta.json", _set_model_config(lambda cfg: {**cfg, "d": 8.0}),
         r"model\.ckpt\.meta\.json: invalid model config: d must be an integer, not 8\.0$"),
        ("evaluate", "model.ckpt.meta.json", _delete,
         r"missing .*model\.ckpt\.meta\.json; re-run 'ella finetune' or 'ella pretrain'$"),
        ("evaluate", "model.ckpt.meta.json", _drop("seed"), r"model\.ckpt\.meta\.json records no seed; re-run 'ella pretrain'"),
        ("pretrain", "tokens.bin.meta.json", _delete, r"missing .*tokens\.bin\.meta\.json; re-run 'ella tokenize'$"),
        ("pretrain", "tokens.bin.meta.json", _drop("hops"), r"tokens\.bin\.meta\.json records no hops; re-run 'ella tokenize'"),
        ("pretrain", "tokens.bin.meta.json", _set("hops", "1"),
         r"tokens\.bin\.meta\.json: hops must be an integer, not \"1\"; re-run 'ella tokenize'"),
        ("pretrain", "tokens.bin.meta.json", _set("hops", True), r"tokens\.bin\.meta\.json: hops must be an integer, not true"),
        ("pretrain", "tokens.bin.meta.json", _set("backend", 5), r"tokens\.bin\.meta\.json: backend must be a string, not 5"),
        ("pretrain", "tokens.bin.meta.json", _set("pooling", None), r"tokens\.bin\.meta\.json: pooling must be a string, not null"),
        ("evaluate", "model.ckpt.meta.json", _set("seed", "0"),
         r"model\.ckpt\.meta\.json: seed must be an integer, not \"0\"; re-run 'ella pretrain'"),
        ("evaluate", "model.ckpt.meta.json", _set("seed", False), r"model\.ckpt\.meta\.json: seed must be an integer, not false"),
        ("evaluate", "model.ckpt.meta.json", _set("checkpoint_sha256", 7),
         r"model\.ckpt\.meta\.json: checkpoint_sha256 must be a string, not 7"),
        ("evaluate_node", "model.ckpt.meta.json", _set("target_type", ["paper"]),
         r"model\.ckpt\.meta\.json: target_type must be a string, not \[\"paper\"\]; re-run 'ella finetune'"),
    ],
    ids=["nodes_not_json", "nodes_not_utf8", "schema_not_utf8", "edge_to_unknown_node",
         "edge_against_its_type", "schema_labels_unknown_type",
         "graph_missing_edges_file", "finetune_label_for_unknown_node", "evaluate_label_for_unknown_node",
         "label_outside_vocabulary", "repeated_label_id", "labels_without_header", "labels_not_utf8",
         "finetune_labels_header_only", "evaluate_labels_header_only", "evaluate_labels_of_authors_only",
         "config_not_json",
         "config_sets_d_llm", "config_sets_lr_grid",
         "truncated_tokens", "parent_format_tokens", "ellackpt_v1_tokens", "garbage_ckpt_evaluate",
         "garbage_ckpt_finetune", "garbage_ckpt_export_attention", "ellackpt_v1_ckpt_evaluate",
         "ellackpt_v1_head_evaluate", "ellackpt_v1_ckpt_finetune", "ellackpt_v1_ckpt_export_attention",
         "old_hop_readout_ckpt_evaluate", "old_hop_readout_ckpt_finetune", "old_hop_readout_ckpt_export_attention",
         "ckpt_meta_not_json",
         "ckpt_meta_without_model_config", "ckpt_meta_unknown_model_key", "ckpt_meta_model_config_list",
         "ckpt_meta_indivisible_heads", "ckpt_meta_float_d", "ckpt_meta_missing", "ckpt_meta_without_seed",
         "tokens_meta_missing",
         "tokens_meta_without_hops", "tokens_meta_hops_string", "tokens_meta_hops_bool", "tokens_meta_backend_number",
         "tokens_meta_pooling_null", "ckpt_meta_seed_string", "ckpt_meta_seed_bool", "ckpt_meta_sha256_number",
         "ckpt_meta_target_type_list"],
)
def test_bad_input_file_ends_in_an_error_naming_it(workdir, tmp_path, command, broken, damage, message):
    graph_dir = str(shutil.copytree(workdir / "graph", tmp_path / "graph"))
    labels = str(shutil.copy(workdir / "labels.csv", tmp_path / "labels.csv"))
    tokens = str(tmp_path / "tokens.bin")
    run_cli(["tokenize", "--graph", graph_dir, "--hops", "1", "--out", tokens, "--dim", "12"])
    (tmp_path / "config.json").write_text("{}")
    head = {"command": "finetune", "seed": 0, "target_type": "paper"}
    ckpt = _untrained_checkpoint(graph_dir, str(tmp_path / "model.ckpt"), head if command == "evaluate_node" else None)
    damage(tmp_path / broken)
    inputs = ["--graph", graph_dir, "--tokens", tokens]
    node_task = ["--labels", labels, "--ckpt", ckpt, "--out", str(tmp_path / "out")]
    args = {
        "ingest": ["ingest", "--nodes", f"{graph_dir}/nodes.jsonl", "--edges", f"{graph_dir}/edges.jsonl",
                   "--schema", f"{graph_dir}/schema.json", "--out", str(tmp_path / "ingested")],
        "tokenize": ["tokenize", "--graph", graph_dir, "--out", tokens],
        "pretrain": ["pretrain", "--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "out.ckpt")]
        + inputs,
        "finetune": ["finetune", *inputs, *node_task, "--target-type", "paper"],
        "evaluate": ["evaluate", "--ckpt", ckpt, "--out", str(tmp_path / "eval.csv"), *inputs],
        "evaluate_node": ["evaluate", *inputs, *node_task],
        "export-attention": ["export-attention", "--ckpt", ckpt, "--out", str(tmp_path / "attn"), *inputs],
    }[command]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit), result.exception
    assert re.search(f"Error: .*{message}", result.output), result.output


@pytest.mark.parametrize("command", ["finetune", "evaluate"])
def test_target_type_without_labels_lists_the_labelled_types(workdir, tmp_path, command):
    graph_dir = str(workdir / "graph")
    tokens = str(tmp_path / "tokens.bin")
    run_cli(["tokenize", "--graph", graph_dir, "--hops", "1", "--out", tokens, "--dim", "12"])
    head = {"command": "finetune", "seed": 0, "target_type": "bogus"}
    ckpt = _untrained_checkpoint(graph_dir, str(tmp_path / "model.ckpt"), head)
    args = [] if command == "evaluate" else ["--target-type", "bogus"]
    result = CliRunner().invoke(
        main,
        [
            command, *args, "--graph", graph_dir, "--tokens", tokens, "--ckpt", ckpt,
            "--labels", str(workdir / "labels.csv"), "--out", str(tmp_path / "out"),
        ],
    )
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit), result.exception
    source = f"{ckpt}.meta.json: target_type" if command == "evaluate" else "--target-type"
    assert f"Error: {source} 'bogus' has no class labels (labelled types: author, paper)" in result.output


def _evaluate_recorded(workdir, tmp_path, recorded, labels):
    """``ella evaluate`` of an untrained checkpoint whose metadata records
    ``recorded``, given ``--labels`` if ``labels``: the result and the output path."""
    graph_dir = str(workdir / "graph")
    tokens = str(tmp_path / "tokens.bin")
    run_cli(["tokenize", "--graph", graph_dir, "--hops", "1", "--out", tokens, "--dim", "12"])
    ckpt = _untrained_checkpoint(graph_dir, str(tmp_path / "model.ckpt"), recorded)
    out = tmp_path / "eval.csv"
    args = ["evaluate", "--graph", graph_dir, "--tokens", tokens, "--ckpt", ckpt]
    args += ["--labels", str(workdir / "labels.csv")] if labels else []
    return CliRunner().invoke(main, [*args, "--out", str(out)]), out


def _assert_refused(result, out, message):
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit), result.exception
    assert f"Error: {message}" in result.output
    assert not out.exists()


@pytest.mark.parametrize(
    "recorded,labels,message",
    [
        ({}, True, "records command None, not 'finetune' or 'pretrain'; re-run 'ella finetune' or 'ella pretrain'"),
        ({"command": ["finetune"]}, True, "records command ['finetune'], not 'finetune' or 'pretrain'; re-run"),
        ({"command": "finetune", "target_type": "paper"}, True, "records no seed; re-run 'ella finetune'"),
        ({"command": "finetune", "seed": 0}, True, "records no target_type; re-run 'ella finetune'"),
        ({"command": "finetune", "seed": 0, "target_type": "paper"}, False,
         "records command 'finetune': the node task needs --labels"),
    ],
    ids=["untrained", "command_list", "finetuned_without_seed", "finetuned_without_target_type",
         "finetuned_without_labels"],
)
def test_evaluate_node_refuses_a_head_not_fine_tuned_for_the_target(workdir, tmp_path, recorded, labels, message):
    result, out = _evaluate_recorded(workdir, tmp_path, recorded, labels)
    _assert_refused(result, out, f"{tmp_path / 'model.ckpt'}.meta.json {message}")


@pytest.mark.parametrize(
    "recorded,labels,message",
    [
        ({"command": "pretrain"}, False, "records no seed; re-run 'ella pretrain'"),
        ({"command": "pretrain", "seed": 0}, True,
         "records command 'pretrain': the link task reads no labels; drop --labels"),
    ],
    ids=["pretrained_without_seed", "pretrained_with_labels"],
)
def test_evaluate_link_refuses_a_checkpoint_not_pretrained(workdir, tmp_path, recorded, labels, message):
    result, out = _evaluate_recorded(workdir, tmp_path, recorded, labels)
    _assert_refused(result, out, f"{tmp_path / 'model.ckpt'}.meta.json {message}")


@pytest.mark.parametrize(
    "command,labels,task,metrics",
    [("pretrain", False, "link", ["auc", "ap"]), ("finetune", True, "node", ["micro_f1", "macro_f1"])],
    ids=["pretrained", "finetuned"],
)
def test_evaluate_scores_the_task_of_the_command_that_wrote_the_checkpoint(
    workdir, tmp_path, command, labels, task, metrics
):
    recorded = {"command": command, "seed": 0, "target_type": "paper"}
    result, out = _evaluate_recorded(workdir, tmp_path, recorded, labels)
    assert result.exit_code == 0, result.output
    assert [row.split(",")[0] for row in out.read_text().splitlines()] == ["metric", *metrics]
    assert json.loads(Path(f"{out}.meta.json").read_text())["task"] == task


@pytest.mark.parametrize("target_type,seed", [("paper", 1), ("author", 2)])
def test_evaluate_node_scores_the_head_and_split_the_checkpoint_records(
    workdir, tmp_path, monkeypatch, target_type, seed
):
    graph_dir = str(workdir / "graph")
    labels = str(workdir / "labels.csv")
    tokens = str(tmp_path / "tokens.bin")
    run_cli(["tokenize", "--graph", graph_dir, "--hops", "1", "--template", "finetune", "--out", tokens,
             "--dim", "12"])
    backbone = _untrained_checkpoint(graph_dir, str(tmp_path / "model.ckpt"))
    head = str(tmp_path / "head.ckpt")
    inputs = ["--graph", graph_dir, "--tokens", tokens, "--labels", labels]
    run_cli(["finetune", *inputs, "--ckpt", backbone, "--target-type", target_type, "--seed", str(seed),
             "--out", head])
    scored = []
    classify = trainer.classify
    monkeypatch.setattr(trainer, "classify", lambda ids, *a: scored.append((ids, a[3])) or classify(ids, *a))
    out = tmp_path / "eval.csv"
    run_cli(["evaluate", *inputs, "--ckpt", head, "--out", str(out)])
    g = load_graph_dir(graph_dir)
    splits = evalkit.build_splits(
        g, load_labels(labels), evalkit.Task.NodeClassification, seed=seed, target_type=target_type
    )
    assert scored == [(splits.node_part("test"), target_type)]
    assert not set(scored[0][0]) & set(splits.node_part("train") + splits.node_part("val"))
    assert json.loads(Path(f"{out}.meta.json").read_text())["splits_seed"] == seed


@pytest.mark.parametrize("seed", [1, 2])
def test_evaluate_link_scores_the_test_pairs_of_the_checkpoint_seed(workdir, tmp_path, monkeypatch, seed):
    scored = []
    score_pairs = trainer.score_pairs
    monkeypatch.setattr(trainer, "score_pairs", lambda pairs, *a: scored.append(pairs) or score_pairs(pairs, *a))
    result, out = _evaluate_recorded(workdir, tmp_path, {"command": "pretrain", "seed": seed}, labels=False)
    assert result.exit_code == 0, result.output
    assert scored == [evalkit.link_protocol(load_graph_dir(workdir / "graph"), seed).test_pairs]
    assert json.loads(Path(f"{out}.meta.json").read_text())["splits_seed"] == seed


def test_export_attention_records_no_tape(workdir, tmp_path, monkeypatch):
    graph_dir = str(workdir / "graph")
    tokens = str(tmp_path / "tokens.bin")
    run_cli(["tokenize", "--graph", graph_dir, "--hops", "1", "--out", tokens, "--dim", "12"])
    ckpt = _untrained_checkpoint(graph_dir, str(tmp_path / "model.ckpt"))
    outputs = []
    forward_batch = cli.forward_batch
    monkeypatch.setattr(cli, "forward_batch", lambda *args: outputs.append(forward_batch(*args)) or outputs[-1])
    run_cli(["export-attention", "--ckpt", ckpt, "--out", str(tmp_path / "attn"), "--graph", graph_dir,
             "--tokens", tokens])
    assert len(outputs) == 1 and not (outputs[0].requires_grad or outputs[0]._parents)
    assert (tmp_path / "attn" / "type_attention.csv").exists()


@pytest.mark.parametrize("command", ["evaluate_link", "evaluate_node", "export-attention"])
def test_a_checkpoint_is_hashed_and_its_metadata_read_once(workdir, tmp_path, monkeypatch, command):
    graph_dir = str(workdir / "graph")
    tokens = str(tmp_path / "tokens.bin")
    run_cli(["tokenize", "--graph", graph_dir, "--hops", "1", "--out", tokens, "--dim", "12"])
    head = {"command": "finetune", "seed": 0, "target_type": "paper"}
    ckpt = _untrained_checkpoint(graph_dir, str(tmp_path / "model.ckpt"), head if command == "evaluate_node" else None)
    meta = json.loads(Path(ckpt + ".meta.json").read_text())
    opened = []  # every open goes through io.open (pathlib, numpy) or builtins.open
    for owner in (io, builtins):
        real = owner.open
        monkeypatch.setattr(owner, "open", lambda file, *a, real=real, **k: opened.append(str(file)) or real(file, *a, **k))
    inputs = ["--graph", graph_dir, "--tokens", tokens, "--ckpt", ckpt]
    out = tmp_path / "out"
    run_cli({
        "evaluate_link": ["evaluate", *inputs, "--out", str(out)],
        "evaluate_node": ["evaluate", *inputs, "--out", str(out),
                          "--labels", str(workdir / "labels.csv")],
        "export-attention": ["export-attention", *inputs, "--out", str(out)],
    }[command])
    assert (opened.count(ckpt), opened.count(ckpt + ".meta.json")) == (1, 1)
    written = out / "attention.meta.json" if command == "export-attention" else Path(f"{out}.meta.json")
    assert json.loads(written.read_text())["checkpoint_sha256"] == meta["checkpoint_sha256"]


def test_pretrain_refuses_token_metadata_that_is_not_an_object_before_training(workdir, tmp_path, monkeypatch):
    graph_dir = str(workdir / "graph")
    tokens = str(tmp_path / "tokens.bin")
    run_cli(["tokenize", "--graph", graph_dir, "--hops", "1", "--out", tokens, "--dim", "12"])
    Path(tokens + ".meta.json").write_text("[]")
    monkeypatch.setattr(trainer, "pretrain", lambda *a, **k: pytest.fail("pretrain ran before its inputs were read"))
    result = CliRunner().invoke(main, ["pretrain", "--graph", graph_dir, "--tokens", tokens,
                                       "--out", str(tmp_path / "out.ckpt")])
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit), result.output
    assert f"Error: {tokens}.meta.json: expected a JSON object, got list" in result.output


def test_pretrain_refuses_classification_template_tokens_before_training(workdir, tmp_path, monkeypatch):
    graph_dir = str(workdir / "graph")
    tokens = str(tmp_path / "tokens.bin")
    run_cli(["tokenize", "--graph", graph_dir, "--hops", "1", "--template", "finetune", "--out", tokens, "--dim", "12"])
    monkeypatch.setattr(trainer, "pretrain", lambda *a, **k: pytest.fail("pretrain ran on classification tokens"))
    out = tmp_path / "out.ckpt"
    result = CliRunner().invoke(main, ["pretrain", "--graph", graph_dir, "--tokens", tokens, "--out", str(out)])
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit), result.output
    message = f"Error: {tokens}.meta.json records template 'finetune_classify', not 'pretrain_link'; re-run 'ella tokenize'"
    assert message in result.output
    assert not out.exists()


def _run_on_tokens(workdir, tmp_path, command, hops, dim):
    """``ella <command>`` with an untrained 1-hop, d_llm 12 checkpoint on
    tokens of ``hops`` and ``dim``: the result, the tokens and the checkpoint."""
    graph_dir = str(workdir / "graph")
    tokens = str(tmp_path / "tokens.bin")
    run_cli(["tokenize", "--graph", graph_dir, "--hops", str(hops), "--out", tokens, "--dim", str(dim)])
    ckpt = _untrained_checkpoint(graph_dir, str(tmp_path / "model.ckpt"))
    out = str(tmp_path / "out")
    inputs = ["--graph", graph_dir, "--tokens", tokens, "--ckpt", ckpt, "--out", out]
    args = {
        "finetune": ["finetune", *inputs, "--labels", str(workdir / "labels.csv"), "--target-type", "paper"],
        "evaluate": ["evaluate", *inputs],
        "export-attention": ["export-attention", *inputs],
    }[command]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit), result.exception
    assert not Path(out).exists()
    return result, tokens, ckpt


@pytest.mark.parametrize("command", ["finetune", "evaluate", "export-attention"])
def test_a_checkpoint_refuses_tokens_of_other_hops(workdir, tmp_path, command):
    result, tokens, ckpt = _run_on_tokens(workdir, tmp_path, command, hops=2, dim=12)
    assert f"Error: {tokens} has hops 2, but {ckpt} has hops 1; re-run 'ella tokenize'" in result.output


@pytest.mark.parametrize("command", ["finetune", "evaluate", "export-attention"])
def test_a_checkpoint_refuses_tokens_of_another_dim(workdir, tmp_path, command):
    result, tokens, ckpt = _run_on_tokens(workdir, tmp_path, command, hops=1, dim=16)
    assert f"Error: {tokens} has dim 16, but {ckpt} has d_llm 12; re-run 'ella tokenize'" in result.output


@pytest.mark.parametrize("config_hops", [None, 3])
def test_pretrain_takes_hops_from_the_tokens(workdir, tmp_path, config_hops):
    """The checkpoint records the tokens' hops; a config that sets hops too is refused."""
    graph_dir = str(workdir / "graph")
    tokens = str(tmp_path / "tokens.bin")
    run_cli(["tokenize", "--graph", graph_dir, "--hops", "1", "--out", tokens, "--dim", "12"])
    model = {"d": 8, "heads": 2, "type_layers": 1, "hop_layers": 1}
    if config_hops is not None:
        model["hops"] = config_hops
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"model": model, "train": {"max_epochs": 1}}))
    ckpt = tmp_path / "model.ckpt"
    result = CliRunner().invoke(
        main, ["pretrain", "--graph", graph_dir, "--tokens", tokens, "--config", str(config), "--out", str(ckpt)]
    )
    if config_hops is None:
        assert result.exit_code == 0, result.output
        assert json.loads(Path(f"{ckpt}.meta.json").read_text())["model_config"]["hops"] == 1
    else:
        _assert_refused(result, ckpt, f"{config}: model.hops is not a pretrain setting: it comes from the tokens' .meta.json")


def test_tokenize_with_an_endpoint_uses_the_http_encoder(workdir, tmp_path, http_server):
    before = len(EncoderStub.poolings)
    tokens = str(tmp_path / "tokens.bin")
    run_cli(["tokenize", "--graph", str(workdir / "graph"), "--hops", "1", "--endpoint", http_server,
             "--pooling", "last", "--out", tokens])
    meta = json.loads(Path(tokens + ".meta.json").read_text())
    assert meta["call_count"] > 0
    assert EncoderStub.poolings[before:] == ["last"] * meta["call_count"]
    assert (meta["backend"], meta["dim"], meta["pooling"]) == ("remote-mock", EncoderStub.inner.dim, "last")
    assert encoder.load_tokens(tokens).dim == EncoderStub.inner.dim


@pytest.mark.parametrize(
    "option,endpoint,message",
    [
        (["--pooling", "last"], False, "--pooling is read only with --endpoint; the mock backend does not pool"),
        (["--pooling", "mean"], False, "--pooling is read only with --endpoint; the mock backend does not pool"),
        (["--dim", "12"], True, "--dim sets the mock backend's dim; {endpoint} reports its dim in /v1/info"),
    ],
    ids=["pooling_last_without_endpoint", "pooling_mean_without_endpoint", "dim_with_endpoint"],
)
def test_tokenize_refuses_an_option_its_backend_does_not_read(workdir, tmp_path, http_server, option, endpoint, message):
    tokens = tmp_path / "tokens.bin"
    args = ["tokenize", "--graph", str(workdir / "graph"), "--hops", "1", *option, "--out", str(tokens)]
    result = CliRunner().invoke(main, args + (["--endpoint", http_server] if endpoint else []))
    _assert_refused(result, tokens, message.format(endpoint=http_server))


@pytest.mark.parametrize("command", ["tokenize", "profile"])
def test_a_cache_file_of_another_format_ends_in_an_error_naming_it(workdir, tmp_path, command):
    cache = tmp_path / "cache.bin"
    cache.write_bytes(b"ELLACACHE v1\n")
    result = CliRunner().invoke(main, [command, "--graph", str(workdir / "graph"), "--cache", str(cache),
                                       "--out", str(tmp_path / "out")])
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit), result.exception
    assert f"Error: {cache}: cache file has an older key format (v1); delete it" in result.output


def test_tokenize_with_an_unreachable_endpoint_ends_in_an_error_naming_it(workdir, tmp_path):
    endpoint = "http://127.0.0.1:1"  # nothing listens there
    result = CliRunner().invoke(main, ["tokenize", "--graph", str(workdir / "graph"), "--endpoint", endpoint,
                                       "--out", str(tmp_path / "tokens.bin")])
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit), result.exception
    assert re.search(f"Error: GET {endpoint}/v1/info failed", result.output), result.output
    assert not (tmp_path / "tokens.bin").exists()


def test_tokenize_ends_in_an_error_naming_an_encoder_that_fails_partway(workdir, tmp_path, http_server, monkeypatch):
    served, serve = [], EncoderStub.do_POST

    def fail_after_five(handler):
        served.append(handler.path)
        if len(served) > 5:
            handler._send({"error": "overloaded"}, status=503)
        else:
            serve(handler)

    monkeypatch.setattr(EncoderStub, "do_POST", fail_after_five)
    cache = tmp_path / "cache.bin"
    result = CliRunner().invoke(main, ["tokenize", "--graph", str(workdir / "graph"), "--endpoint", http_server,
                                       "--cache", str(cache), "--out", str(tmp_path / "tokens.bin")])
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit), result.exception
    assert re.search(f"Error: POST {http_server}/v1/encode failed: .*503", result.output), result.output
    assert len(served) == 6 and not (tmp_path / "tokens.bin").exists()
    assert len(encoder.VectorCache(cache)) == 5  # the calls served before the failure stay cached


def test_tokenize_ends_in_an_error_naming_a_target_with_too_many_walks_to_count(workdir, tmp_path, monkeypatch):
    monkeypatch.setattr(pathstats, "_COUNT_LIMIT", 1)
    result = CliRunner().invoke(main, ["tokenize", "--graph", str(workdir / "graph"), "--out", str(tmp_path / "t.bin")])
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit), result.exception
    assert re.search(r"Error: more than 1 hop-1 walks from '\w+': too many to count", result.output), result.output
    assert not (tmp_path / "t.bin").exists()


def test_tokenize_with_an_endpoint_without_a_scheme_ends_in_an_error_naming_it(workdir, tmp_path, monkeypatch):
    monkeypatch.setattr(encoder.urllib.request, "urlopen", lambda *a, **k: pytest.fail("a host was contacted"))
    result = CliRunner().invoke(main, ["tokenize", "--graph", str(workdir / "graph"), "--endpoint", "nohost",
                                       "--out", str(tmp_path / "tokens.bin")])
    _assert_refused(result, tmp_path / "tokens.bin", "GET nohost/v1/info failed: unknown url type: 'nohost/v1/info'")


def _writes_graph(tmp_path, authors, papers, edges):
    """A graph directory of ``authors`` and ``papers`` joined by the ``(author, paper)`` ``writes`` ``edges``."""
    schema = SchemaDef(node_types=["paper", "author"], edge_types=[EdgeType("writes", "author", "paper")])
    nodes = [(a, "author") for a in authors] + [(p, "paper") for p in papers]
    g = HeteroGraph(schema, nodes, [(a, p, "writes") for a, p in edges], {n: f"text of {n}" for n, _ in nodes})
    return str(save_graph(g, tmp_path / "graph"))


def _pretrain_small(tmp_path, graph_dir, train=None):
    """``ella pretrain`` of a small model with the ``train`` config section on
    1-hop tokens of ``graph_dir``: the result and the checkpoint path."""
    tokens = str(tmp_path / "tokens.bin")
    run_cli(["tokenize", "--graph", graph_dir, "--hops", "1", "--out", tokens, "--dim", "8"])
    config = tmp_path / "config.json"
    model = {"d": 8, "heads": 2, "type_layers": 1, "hop_layers": 1}
    config.write_text(json.dumps({"model": model, "train": {"max_epochs": 3, **(train or {})}}))
    ckpt = tmp_path / "model.ckpt"
    args = ["pretrain", "--graph", graph_dir, "--tokens", tokens, "--config", str(config), "--out", str(ckpt)]
    return CliRunner().invoke(main, args), ckpt


def test_pretrain_on_a_complete_relation_ends_in_an_error_naming_the_graph(tmp_path):
    graph_dir = _writes_graph(tmp_path, ["a1"], ["p1", "p2"], [("a1", "p1"), ("a1", "p2")])
    result, ckpt = _pretrain_small(tmp_path, graph_dir)
    message = f"{graph_dir}: cannot draw pretraining negatives: relation 'writes' is complete; no negatives exist"
    _assert_refused(result, ckpt, message)


def test_pretrain_on_a_graph_without_edges_ends_in_an_error_naming_the_graph(tmp_path):
    graph_dir = _writes_graph(tmp_path, ["a1"], ["p1", "p2"], [])
    result, ckpt = _pretrain_small(tmp_path, graph_dir)
    _assert_refused(result, ckpt, f"{graph_dir}: cannot draw pretraining negatives: no relation has a training positive")


@pytest.mark.parametrize(
    "edges,reason",
    [
        ([], "link task needs a nonempty edge set"),
        ([("a1", "p1")], "link task needs at least 2 edges to hold out a test positive, got 1"),
    ],
    ids=["no_edge", "one_edge"],
)
def test_evaluate_link_on_a_graph_too_sparse_for_its_split_ends_in_an_error_naming_the_graph(tmp_path, edges, reason):
    graph_dir = _writes_graph(tmp_path, ["a1", "a2"], ["p1", "p2"], edges)
    tokens = str(tmp_path / "tokens.bin")
    run_cli(["tokenize", "--graph", graph_dir, "--hops", "1", "--out", tokens, "--dim", "12"])
    ckpt = _untrained_checkpoint(graph_dir, str(tmp_path / "model.ckpt"))
    out = tmp_path / "link.csv"
    result = CliRunner().invoke(main, ["evaluate", "--graph", graph_dir, "--tokens", tokens, "--ckpt", ckpt,
                                       "--out", str(out)])
    _assert_refused(result, out, f"{graph_dir}: cannot split the link task: {reason}")


@pytest.mark.parametrize("dump", [None, "diverged.ckpt", "missing/diverged.ckpt"], ids=["no_dump", "dump", "unwritable_dump"])
def test_pretrain_divergence_ends_in_an_error_naming_the_epoch(tmp_path, dump):
    authors, papers = ["a1", "a2", "a3"], ["p1", "p2", "p3"]
    graph_dir = _writes_graph(tmp_path, authors, papers, [("a1", "p1"), ("a2", "p2"), ("a3", "p3"), ("a1", "p2")])
    dump_path = tmp_path / (dump or "unused")
    train = {"lr": 1e308, **({"dump_path": str(dump_path)} if dump else {})}
    result, ckpt = _pretrain_small(tmp_path, graph_dir, train)
    message = {
        None: "pretraining diverged: non-finite loss nan at epoch 1\n",
        "diverged.ckpt": f"pretraining diverged: non-finite loss nan at epoch 1; state dumped to {dump_path}",
        "missing/diverged.ckpt": f"pretraining diverged, and the dump failed: [Errno 2] No such file or directory: '{dump_path}'",
    }[dump]
    _assert_refused(result, ckpt, message)
    assert (tmp_path / "diverged.ckpt").exists() == (dump == "diverged.ckpt")


def test_evaluate_link_on_a_graph_too_dense_for_its_split_ends_in_an_error_naming_the_graph(tmp_path):
    authors, papers = [f"a{i}" for i in range(5)], [f"p{i}" for i in range(5)]
    edges = [(f"a{i}", f"p{j}") for i in range(5) for j in range(5) if (i + j) % 5 < 2]  # 10 of the 25 pairs
    graph_dir = _writes_graph(tmp_path, authors, papers, edges)
    pretrained, ckpt = _pretrain_small(tmp_path, graph_dir)
    assert pretrained.exit_code == 0, pretrained.output
    out = tmp_path / "link.csv"
    result = CliRunner().invoke(main, ["evaluate", "--graph", graph_dir, "--tokens", str(tmp_path / "tokens.bin"),
                                       "--ckpt", str(ckpt), "--out", str(out)])
    _assert_refused(result, out, f"{graph_dir}: cannot split the link task: relation 'writes' admits only 3 negatives, need 4")


def test_the_readme_walkthrough_names_only_real_commands_and_options():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI walkthrough", 1)[1].split("```sh\n", 1)[1].split("\n```", 1)[0]
    calls = [line.split() for line in block.replace("\\\n", " ").splitlines() if line.startswith("ella ")]
    assert {name for _, name, *_ in calls} == set(main.commands)
    for _, name, *words in calls:
        options = {opt for param in main.commands[name].params for opt in param.opts}
        unknown = {w for w in words if w.startswith("--")} - options
        assert not unknown, f"ella {name}: {sorted(unknown)}"


def test_the_readme_pretrain_config_is_accepted(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("Config file shape for `pretrain`", 1)[1].split("```json\n", 1)[1].split("\n```", 1)[0]
    config = tmp_path / "config.json"
    config.write_text(block, encoding="utf-8")
    cli._load_train_config(str(config))


def test_finetune_with_too_few_labels_names_the_labels_file(workdir, tmp_path):
    graph_dir = str(workdir / "graph")
    tokens = str(tmp_path / "tokens.bin")
    run_cli(["tokenize", "--graph", graph_dir, "--hops", "1", "--out", tokens, "--dim", "12"])
    ckpt = _untrained_checkpoint(graph_dir, str(tmp_path / "model.ckpt"))
    g = load_graph_dir(graph_dir)
    by_class = {}
    for n, label in sorted(load_labels(workdir / "labels.csv").items()):
        if g.node_type(n) == "paper":
            by_class.setdefault(label, []).append(n)
    labels = tmp_path / "two_per_class.csv"
    save_labels({n: label for label, ids in by_class.items() for n in ids[:2]}, labels)
    out = tmp_path / "head.ckpt"
    result = CliRunner().invoke(
        main,
        [
            "finetune", "--graph", graph_dir, "--tokens", tokens, "--ckpt", ckpt,
            "--labels", str(labels), "--target-type", "paper", "--out", str(out),
        ],
    )
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit), result.exception
    assert (
        f"Error: {labels}: node type 'paper' needs labelled train and val nodes to fine-tune,"
        " got 0 train and 0 val" in result.output
    )
    assert not out.exists()


@pytest.mark.parametrize("command", ["tokenize", "profile"])
@pytest.mark.parametrize("option", ["--hops", "--dim"])
def test_hops_and_dim_must_be_positive(workdir, tmp_path, command, option):
    out = tmp_path / "out"
    args = [command, "--graph", str(workdir / "graph"), "--out", str(out), option, "0"]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 2
    assert f"Invalid value for '{option}': 0 is not in the range x>=1" in result.output
    assert not out.exists()


def test_pretrain_with_zero_epochs(workdir):
    graph_dir = str(workdir / "graph")
    tokens = str(workdir / "tokens_zero.bin")
    run_cli(["tokenize", "--graph", graph_dir, "--hops", "1", "--out", tokens, "--dim", "12"])
    config = workdir / "zero_epochs.json"
    model = {"d": 8, "heads": 2, "type_layers": 1, "hop_layers": 1}
    config.write_text(json.dumps({"model": model, "train": {"max_epochs": 0}}))
    ckpt = str(workdir / "zero.ckpt")
    result = run_cli(
        ["pretrain", "--graph", graph_dir, "--tokens", tokens, "--config", str(config), "--out", ckpt]
    )
    assert "best epoch -1, last epoch -1, best val loss n/a" in result.output
    meta = json.loads(Path(ckpt + ".meta.json").read_text())
    assert meta["epochs_run"] == 0 and meta["best_val_loss"] is None and meta["last_epoch"] == -1


def test_finetune_refuses_a_changed_backbone(workdir, monkeypatch):
    graph_dir = str(workdir / "graph")
    tokens = str(workdir / "tokens_k1.bin")
    run_cli(
        [
            "tokenize", "--graph", graph_dir, "--hops", "1", "--template", "finetune",
            "--out", tokens, "--dim", "12",
        ]
    )
    ckpt = _untrained_checkpoint(graph_dir, str(workdir / "frozen.ckpt"))
    finetune = trainer.finetune

    def finetune_moving_the_backbone(*args, **kwargs):
        result = finetune(*args, **kwargs)
        result.params["proj/b"].data += 1.0
        return result

    monkeypatch.setattr(trainer, "finetune", finetune_moving_the_backbone)
    result = CliRunner().invoke(
        main,
        [
            "finetune", "--graph", graph_dir, "--tokens", tokens, "--ckpt", ckpt,
            "--labels", str(workdir / "labels.csv"), "--target-type", "paper",
            "--out", str(workdir / "moved.ckpt"),
        ],
    )
    assert result.exit_code == 1
    assert "fine-tuning changed the frozen backbone" in result.output
    assert not (workdir / "moved.ckpt").exists()


def test_write_metadata(tmp_path):
    out = tmp_path / "results.csv"
    out.write_text("metric,value\n")
    meta = cli._write_meta(out, {"command": "test", "seed": 3})
    import json

    doc = json.loads(meta.read_text())
    assert doc["command"] == "test"
    assert "generated_at" in doc
