"""Command-line interface: ingest, tokenize, pretrain, finetune, evaluate,
profile, and export-attention subcommands. Every output CSV gets a one-line
header and a run-metadata JSON alongside."""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import logging
from pathlib import Path

import click

from . import encoder, evalkit, trainer
from .ellanet import AttentionCapture, ModelConfig, ModelParams, forward_batch
from .hetgraph import load_graph, load_graph_dir, load_labels, save_graph
from .promptkit import TemplateId
from .tensorcore import load_checkpoint, save_checkpoint

log = logging.getLogger(__name__)

TEMPLATES = {"pretrain": TemplateId.PretrainLink, "finetune": TemplateId.FinetuneClassify}


def _file_sha256(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _load_params(ckpt: str) -> tuple[ModelParams, ModelConfig]:
    meta_path = Path(ckpt + ".meta.json")
    if not meta_path.exists():
        raise click.ClickException(f"missing checkpoint metadata {meta_path}")
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    if "checkpoint_sha256" not in meta:
        raise click.ClickException(f"{meta_path} records no checkpoint_sha256")
    if _file_sha256(ckpt) != meta["checkpoint_sha256"]:
        raise click.ClickException(f"{ckpt} does not match the checkpoint_sha256 in {meta_path}")
    cfg = ModelConfig.from_dict(meta["model_config"])
    return ModelParams(load_checkpoint(ckpt)), cfg


def _save_params(params: ModelParams, cfg: ModelConfig, out: str, extra: dict) -> None:
    save_checkpoint(params.tensors, out)
    payload = {"model_config": cfg.to_dict(), "checkpoint_sha256": _file_sha256(out), **extra}
    Path(out + ".meta.json").write_text(json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8")


@click.group()
def main() -> None:
    """Heterogeneous graph learning with pooled relation tokens."""
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")


@main.command()
@click.option("--nodes", "nodes_path", required=True, type=click.Path(exists=True))
@click.option("--edges", "edges_path", required=True, type=click.Path(exists=True))
@click.option("--schema", "schema_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_dir", required=True, type=click.Path())
def ingest(nodes_path: str, edges_path: str, schema_path: str, out_dir: str) -> None:
    """Validate raw node/edge/schema files and write a normalized graph dir."""
    g = load_graph(nodes_path, edges_path, schema_path)
    save_graph(g, out_dir)
    counts = g.type_counts()
    for ntype in g.schema.node_types:
        click.echo(f"{ntype} : {counts[ntype]}")
    click.echo(f"nodes : {g.num_nodes()}")
    click.echo(f"edges : {g.num_edges()}")
    if g.duplicates_collapsed:
        click.echo(f"duplicate edges collapsed : {g.duplicates_collapsed}")
    evalkit.write_metadata(
        Path(out_dir) / "graph",
        {
            "command": "ingest",
            "node_counts": counts,
            "edges": g.num_edges(),
            "duplicates_collapsed": g.duplicates_collapsed,
        },
    )


@main.command()
@click.option("--graph", "graph_dir", required=True, type=click.Path(exists=True))
@click.option("--backend", "backend_name", type=click.Choice(["mock", "http"]), default="mock")
@click.option("--endpoint", default=None, help="HTTP backend base URL")
@click.option("--hops", type=int, default=3)
@click.option("--template", type=click.Choice(sorted(TEMPLATES)), default="pretrain")
@click.option("--cache", "cache_path", type=click.Path(), default=None)
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--dim", type=int, default=64, help="mock backend dimension")
@click.option("--pooling", type=click.Choice(["last", "mean"]), default="mean")
def tokenize(graph_dir, backend_name, endpoint, hops, template, cache_path, out_path, dim, pooling):
    """Build node and relation tokens for every node of a graph."""
    g = load_graph_dir(graph_dir)
    if backend_name == "http":
        if not endpoint:
            raise click.ClickException("--endpoint is required for the http backend")
        backend = encoder.HttpBackend(endpoint, pooling=pooling)
    else:
        backend = encoder.MockBackend(dim=dim)
    cache = encoder.VectorCache(cache_path) if cache_path else None
    targets = None
    if TEMPLATES[template] is TemplateId.FinetuneClassify:
        # classification prompts need a label vocabulary for the source type
        targets = [n for n in g.node_ids() if g.node_type(n) in g.schema.class_labels]
        click.echo(f"finetune template: tokenizing {len(targets)} labeled-type nodes")
    table = encoder.tokenize_graph(
        backend, g, targets=targets, K=hops, template=TEMPLATES[template], cache=cache
    )
    encoder.save_tokens(table, out_path)
    click.echo(
        f"tokens written: {len(table.node_tokens)} node, "
        f"{len(table.relation_tokens)} relation; backend calls {table.call_count}, "
        f"cache hits {table.cache_hits}"
    )
    evalkit.write_metadata(
        out_path,
        {
            "command": "tokenize",
            "backend": backend.name,
            "dim": backend.dim,
            "pooling": pooling,
            "hops": hops,
            "template": TEMPLATES[template].value,
            "call_count": table.call_count,
            "cache_hits": table.cache_hits,
        },
    )


def _load_train_config(config_path: str | None) -> tuple[ModelConfig, trainer.TrainConfig]:
    doc = json.loads(Path(config_path).read_text(encoding="utf-8")) if config_path else {}
    configs = []
    for section, cls in (("model", ModelConfig), ("train", trainer.TrainConfig)):
        values = doc.get(section) or {}
        unknown = sorted(set(values) - {f.name for f in dataclasses.fields(cls)})
        if unknown:
            raise click.ClickException(f"{config_path}: unknown {section} keys: {', '.join(unknown)}")
        configs.append(cls(**values))
    return configs[0], configs[1]


@main.command()
@click.option("--graph", "graph_dir", required=True, type=click.Path(exists=True))
@click.option("--tokens", "tokens_path", required=True, type=click.Path(exists=True))
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--seed", type=int, default=0)
@click.option("--out", "out_path", required=True, type=click.Path())
def pretrain(graph_dir, tokens_path, config_path, seed, out_path):
    """Contrastive pre-training over per-relation-type edge samples."""
    g = load_graph_dir(graph_dir)
    table = encoder.load_tokens(tokens_path)
    model_cfg, train_cfg = _load_train_config(config_path)
    if model_cfg.d_llm != table.dim:
        model_cfg = ModelConfig.from_dict({**model_cfg.to_dict(), "d_llm": table.dim})
    result = trainer.pretrain(g, table, model_cfg, train_cfg, seed=seed)
    backend_info = {}
    tokens_meta = Path(tokens_path + ".meta.json")
    if tokens_meta.exists():
        doc = json.loads(tokens_meta.read_text(encoding="utf-8"))
        backend_info = {"backend": doc.get("backend"), "pooling": doc.get("pooling")}
    _save_params(
        result.params,
        model_cfg,
        out_path,
        {
            "command": "pretrain",
            "seed": seed,
            "lr": train_cfg.lr,
            "patience": train_cfg.patience,
            **backend_info,
            **result.metadata(),
        },
    )
    click.echo(
        f"pretrained: best epoch {result.best_epoch}, last epoch {result.last_epoch}, "
        f"best val loss {min(result.val_curve):.6f}"
    )


@main.command()
@click.option("--graph", "graph_dir", required=True, type=click.Path(exists=True))
@click.option("--tokens", "tokens_path", required=True, type=click.Path(exists=True))
@click.option("--ckpt", "ckpt_path", required=True, type=click.Path(exists=True))
@click.option("--labels", "labels_path", required=True, type=click.Path(exists=True))
@click.option("--target-type", required=True)
@click.option("--seed", type=int, default=0)
@click.option("--out", "out_path", required=True, type=click.Path())
def finetune(graph_dir, tokens_path, ckpt_path, labels_path, target_type, seed, out_path):
    """Train the classification head on a frozen pre-trained backbone."""
    g = load_graph_dir(graph_dir)
    table = encoder.load_tokens(tokens_path)
    labels = load_labels(labels_path)
    params, model_cfg = _load_params(ckpt_path)
    splits = evalkit.build_splits(
        g, labels, evalkit.Task.NodeClassification, seed=seed, target_type=target_type
    )
    backbone_before = params.content_hash(sorted(params.backbone()))
    result = trainer.finetune(
        g,
        labels,
        model_cfg,
        trainer.TrainConfig(),
        params,
        table,
        target_type,
        splits.node_part("train"),
        splits.node_part("val"),
    )
    if params.content_hash(sorted(params.backbone())) != backbone_before:
        raise click.ClickException("fine-tuning changed the frozen backbone")
    _save_params(
        params,
        model_cfg,
        out_path,
        {
            "command": "finetune",
            "seed": seed,
            "target_type": target_type,
            "lr": result.lr,
            "best_epoch": result.best_epoch,
            "val_micro_f1": result.val_micro_f1,
            "backbone_sha256": backbone_before,
        },
    )
    click.echo(f"finetuned head for {target_type}: lr {result.lr}, val Micro-F1 {result.val_micro_f1:.4f}")


@main.command()
@click.option("--task", type=click.Choice(["node", "link"]), required=True)
@click.option("--ckpt", "ckpt_path", required=True, type=click.Path(exists=True))
@click.option("--splits-seed", type=int, default=0)
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--graph", "graph_dir", required=True, type=click.Path(exists=True))
@click.option("--tokens", "tokens_path", required=True, type=click.Path(exists=True))
@click.option("--labels", "labels_path", type=click.Path(exists=True), default=None)
@click.option("--target-type", default=None)
def evaluate(task, ckpt_path, splits_seed, out_path, graph_dir, tokens_path, labels_path, target_type):
    """Score the held-out test split of the chosen task."""
    g = load_graph_dir(graph_dir)
    table = encoder.load_tokens(tokens_path)
    params, model_cfg = _load_params(ckpt_path)
    rows: list[tuple[str, str, float]] = []
    if task == "node":
        if not labels_path or not target_type:
            raise click.ClickException("node task needs --labels and --target-type")
        labels = load_labels(labels_path)
        splits = evalkit.build_splits(
            g, labels, evalkit.Task.NodeClassification, seed=splits_seed, target_type=target_type
        )
        test_ids = splits.node_part("test")
        vocab = g.schema.class_labels[target_type]
        preds = trainer.classify(test_ids, params, table, model_cfg, target_type, vocab)
        golds = [labels[n] for n in test_ids]
        rows.append(("micro_f1", "test", evalkit.micro_f1(preds, golds, labels=vocab)))
        rows.append(("macro_f1", "test", evalkit.macro_f1(preds, golds, labels=vocab)))
    else:
        splits = evalkit.build_splits(g, {}, evalkit.Task.LinkPrediction, seed=splits_seed)
        part = splits.edge_splits["test"]
        pairs = [(s, t) for s, t, _ in part.positives] + [(s, t) for s, t, _ in part.negatives]
        y = [1] * len(part.positives) + [0] * len(part.negatives)
        scores = trainer.score_pairs(pairs, params, table, model_cfg, g.node_type)
        rows.append(("auc", "test", evalkit.auc(scores.tolist(), y)))
        rows.append(("ap", "test", evalkit.ap(scores.tolist(), y)))
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric", "split", "value"])
        for metric, split, value in rows:
            writer.writerow([metric, split, f"{value:.6f}"])
    evalkit.write_metadata(
        out_path,
        {
            "command": "evaluate",
            "task": task,
            "splits_seed": splits_seed,
            "checkpoint_sha256": _file_sha256(ckpt_path),
        },
    )
    for metric, split, value in rows:
        click.echo(f"{metric} ({split}): {value:.4f}")


@main.command()
@click.option("--graph", "graph_dir", required=True, type=click.Path(exists=True))
@click.option("--hops", type=int, default=3)
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--cache", "cache_path", type=click.Path(), default=None)
@click.option("--dim", type=int, default=16)
def profile(graph_dir, hops, out_path, cache_path, dim):
    """Backend-call and stored-vector accounting versus the naive per-path cost."""
    g = load_graph_dir(graph_dir)
    cache = encoder.VectorCache(cache_path) if cache_path else None
    report = evalkit.profile_run(g, K=hops, cache=cache, dim=dim)
    report.to_csv(out_path)
    evalkit.write_metadata(
        out_path,
        {"command": "profile", "hops": hops, "targets": report.n_targets},
    )
    for row in report.rows:
        flag = " cache-complete" if row.cache_complete else ""
        click.echo(
            f"K={row.hops}: relation calls {row.relation_calls}, naive {row.naive_path_calls},"
            f" mean stored/target {row.mean_stored_per_target:.2f}{flag}"
        )


@main.command("export-attention")
@click.option("--ckpt", "ckpt_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--graph", "graph_dir", required=True, type=click.Path(exists=True))
@click.option("--tokens", "tokens_path", required=True, type=click.Path(exists=True))
def export_attention(ckpt_path, out_dir, graph_dir, tokens_path):
    """Dump type-level and hop-level attention distributions as CSV."""
    g = load_graph_dir(graph_dir)
    table = encoder.load_tokens(tokens_path)
    params, model_cfg = _load_params(ckpt_path)
    capture = AttentionCapture()
    forward_batch(g.node_ids(), table, params, model_cfg, capture)
    written = evalkit.export_attention(capture, g, out_dir)
    evalkit.write_metadata(
        Path(out_dir) / "attention",
        {"command": "export-attention", "checkpoint_sha256": _file_sha256(ckpt_path)},
    )
    for name, path in written.items():
        click.echo(f"{name}: {path}")


if __name__ == "__main__":
    main()
