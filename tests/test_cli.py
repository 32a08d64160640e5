import json
from pathlib import Path

import click
import pytest
from click.testing import CliRunner

from ella import cli, trainer
from ella.cli import main
from ella.ellanet import ModelConfig, init_params
from ella.hetgraph import load_graph_dir, save_graph, save_labels

from fixtures import complete_typed_tree, planted_node_fixture


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
            "tokenize", "--graph", graph_dir, "--backend", "mock", "--hops", "2",
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
                "model": {
                    "d": 8, "heads": 2, "type_layers": 1, "hop_layers": 1,
                    "hops": 2, "d_llm": 12,
                },
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

    out_csv = workdir / "node_eval.csv"
    result = run_cli(
        [
            "evaluate", "--task", "node", "--ckpt", head_ckpt, "--splits-seed", "0",
            "--out", str(out_csv), "--graph", graph_dir, "--tokens", ft_tokens,
            "--labels", str(workdir / "labels.csv"), "--target-type", "paper",
        ]
    )
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "metric,split,value"
    assert any(line.startswith("micro_f1") for line in lines)
    assert (workdir / "node_eval.csv.meta.json").exists()

    link_csv = workdir / "link_eval.csv"
    run_cli(
        [
            "evaluate", "--task", "link", "--ckpt", ckpt, "--splits-seed", "0",
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




def _untrained_checkpoint(graph_dir, out, hops=1, d_llm=12):
    g = load_graph_dir(graph_dir)
    cfg = ModelConfig(d=8, heads=2, type_layers=1, hop_layers=1, hops=hops, d_llm=d_llm)
    class_counts = {t: len(v) for t, v in g.schema.class_labels.items()}
    cli._save_params(init_params(cfg, g.schema.node_types, class_counts), cfg, out, {})
    return out


def test_load_params_checks_checkpoint_hash(workdir):
    ckpt = _untrained_checkpoint(workdir / "graph", str(workdir / "hashed.ckpt"))
    params, _ = cli._load_params(ckpt)
    assert "proj/W" in params.tensors

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
    ],
)
def test_train_config_unknown_keys(tmp_path, doc, unknown):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(click.ClickException, match=unknown):
        cli._load_train_config(str(path))


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
