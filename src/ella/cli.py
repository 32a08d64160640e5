"""Command-line interface: ingest, tokenize, pretrain, finetune, evaluate,
profile, and export-attention subcommands. Every output CSV gets a one-line
header and a run-metadata JSON alongside."""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import logging
from contextlib import nullcontext
from datetime import datetime, timezone
from pathlib import Path

import click

from . import encoder, evalkit, trainer
from .ellanet import AttentionCapture, ModelConfig, ModelParams, forward_batch, pad_tokens
from .hetgraph import HeteroGraph, load_graph, load_graph_dir, load_labels, save_graph
from .promptkit import TemplateId
from .tensorcore import load_checkpoint, save_checkpoint

TEMPLATES = {"pretrain": TemplateId.PretrainLink, "finetune": TemplateId.FinetuneClassify}

# the config keys ``ella pretrain`` refuses, by section, and where their values come from
NOT_PRETRAIN_SETTINGS = {
    "model": {"hops": "it comes from the tokens' .meta.json", "d_llm": "it comes from the token file's vector dim"},
}

# the JSON type of each metadata key a command reads; a bool is not an integer
META_TYPES = {
    "hops": int, "seed": int, "checkpoint_sha256": str, "backend": str, "pooling": str, "target_type": str,
    "template": str,
}


def _load_params(ckpt: str, *keys: str, command: str | dict | None = None) -> tuple[ModelParams, ModelConfig, dict]:
    """The checkpoint's parameters, model config and metadata, which
    ``_read_meta`` reads with ``keys`` and ``command``. The checkpoint is read
    once: the bytes hashed against its ``checkpoint_sha256`` are the bytes parsed."""
    meta = _read_meta(ckpt, "checkpoint_sha256", "model_config", *keys, command=command)
    meta_path = f"{ckpt}.meta.json"
    data = Path(ckpt).read_bytes()
    if hashlib.sha256(data).hexdigest() != meta["checkpoint_sha256"]:
        raise click.ClickException(f"{ckpt} does not match the checkpoint_sha256 in {meta_path}")
    cfg = _config_section(ModelConfig, meta["model_config"], meta_path, "model", {})
    return ModelParams(load_checkpoint(ckpt, data)), cfg, meta


def _read_tokens(tokens_path: str, *keys: str) -> tuple[encoder.TokenTable, dict]:
    """The token table at ``tokens_path`` and its ``.meta.json``, read with ``hops`` and ``keys``."""
    return _load(encoder.load_tokens, tokens_path), _read_meta(tokens_path, "hops", *keys, command="tokenize")


def _tokens_for(tokens_path: str, ckpt_path: str, cfg: ModelConfig) -> encoder.TokenTable:
    """The token table at ``tokens_path``, refused with an error naming both
    files unless the hops its ``.meta.json`` records and its vector dim are the
    checkpoint's ``hops`` and ``d_llm``."""
    table, meta = _read_tokens(tokens_path)
    for name, have, key, want in (("hops", meta["hops"], "hops", cfg.hops), ("dim", table.dim, "d_llm", cfg.d_llm)):
        if have != want:
            raise click.ClickException(
                f"{tokens_path} has {name} {have}, but {ckpt_path} has {key} {want}; re-run 'ella tokenize'"
            )
    return table


def _save_params(params: ModelParams, cfg: ModelConfig, out: str, extra: dict) -> None:
    save_checkpoint(params.tensors, out)
    sha256 = hashlib.sha256(Path(out).read_bytes()).hexdigest()
    _write_meta(out, {"model_config": cfg.to_dict(), "checkpoint_sha256": sha256, **extra})


def _read_json(path: str | Path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise click.ClickException(f"{path}: not valid JSON ({exc})") from None


def _write_meta(artifact: str | Path, payload: dict) -> Path:
    """Run metadata JSON written alongside an output file."""
    meta = {"generated_at": datetime.now(timezone.utc).isoformat(), **payload}
    path = Path(f"{artifact}.meta.json")
    path.write_text(json.dumps(meta, indent=2, sort_keys=True), encoding="utf-8")
    return path


def _read_meta(artifact: str | Path, *keys: str, command: str | dict | None = None) -> dict:
    """The metadata ``<artifact>.meta.json``: a JSON object that records each
    of ``keys`` and, if ``command`` is given, was written by ``ella <command>``;
    a dict ``command`` maps each command it accepts to the further keys that
    command records. Anything else is refused with an error naming the file."""
    path = Path(f"{artifact}.meta.json")
    commands = {command: ()} if isinstance(command, str) else command or {}
    redo = "; re-run " + " or ".join(f"'ella {c}'" for c in commands) if commands else ""
    if not path.exists():
        raise click.ClickException(f"missing {path}{redo}")
    meta = _read_json(path)
    if not isinstance(meta, dict):
        raise click.ClickException(f"{path}: expected a JSON object, got {type(meta).__name__}")
    if commands:
        if not any(meta.get("command") == c for c in commands):  # the value may be any JSON, hashable or not
            wanted = " or ".join(map(repr, commands))
            raise click.ClickException(f"{path} records command {meta.get('command')!r}, not {wanted}{redo}")
        redo, keys = f"; re-run 'ella {meta['command']}'", (*keys, *commands[meta["command"]])
    for key in keys:
        if key not in meta:
            raise click.ClickException(f"{path} records no {key}{redo}")
        kind = META_TYPES.get(key)
        if kind is not None and type(meta[key]) is not kind:
            noun = "an integer" if kind is int else "a string"
            raise click.ClickException(f"{path}: {key} must be {noun}, not {json.dumps(meta[key])}{redo}")
    return meta


def _open_cache(cache_path: str | None):
    """A ``with`` block's vector cache at ``cache_path``, or None without a path."""
    return _load(encoder.VectorCache, cache_path) if cache_path else nullcontext()


def _load(loader, *paths):
    """``loader(*paths)``; a missing or malformed input file ends in a
    ``ClickException`` whose message names it, instead of a traceback."""
    try:
        return loader(*paths)
    except (encoder.EncoderError, OSError, ValueError) as exc:
        raise click.ClickException(str(exc)) from None


def _node_labels(g: HeteroGraph, labels_path: str, target_type: str, source: str) -> dict[str, str]:
    """The labels in ``labels_path``, checked against ``g`` and ``target_type``,
    which was read from ``source``."""
    vocab = g.schema.class_labels.get(target_type)
    if not vocab:
        labelled = ", ".join(sorted(g.schema.class_labels)) or "none"
        raise click.ClickException(
            f"{source} {target_type!r} has no class labels (labelled types: {labelled})"
        )
    labels = _load(load_labels, labels_path)
    for nid, label in labels.items():
        if nid not in g:
            raise click.ClickException(f"{labels_path}: unknown node {nid!r}")
        if g.node_type(nid) == target_type and label not in vocab:
            raise click.ClickException(f"{labels_path}: node {nid!r} has label {label!r}, not one of {vocab}")
    return labels


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
    g = _load(load_graph, nodes_path, edges_path, schema_path)
    save_graph(g, out_dir)
    counts = g.type_counts()
    for ntype in g.schema.node_types:
        click.echo(f"{ntype} : {counts[ntype]}")
    click.echo(f"nodes : {g.num_nodes()}")
    click.echo(f"edges : {g.num_edges()}")
    if g.duplicates_collapsed:
        click.echo(f"duplicate edges collapsed : {g.duplicates_collapsed}")
    _write_meta(
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
@click.option("--endpoint", default=None, help="encoder service base URL (without it: the mock backend)")
@click.option("--hops", type=click.IntRange(min=1), default=3)
@click.option("--template", type=click.Choice(sorted(TEMPLATES)), default="pretrain")
@click.option("--cache", "cache_path", type=click.Path(), default=None)
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--dim", type=click.IntRange(min=1), help=f"mock backend dimension [default: {encoder.MOCK_DIM}]")
@click.option("--pooling", type=click.Choice(["last", "mean"]), default=None, help="with --endpoint [default: mean]")
def tokenize(graph_dir, endpoint, hops, template, cache_path, out_path, dim, pooling):
    """Build node and relation tokens for every node of a graph."""
    if endpoint and dim is not None:
        raise click.ClickException(f"--dim sets the mock backend's dim; {endpoint} reports its dim in /v1/info")
    if not endpoint and pooling is not None:
        raise click.ClickException("--pooling is read only with --endpoint; the mock backend does not pool")
    pooling, dim = pooling or "mean", dim or encoder.MOCK_DIM
    g = _load(load_graph_dir, graph_dir)
    with _open_cache(cache_path) as cache:
        targets = None
        if TEMPLATES[template] is TemplateId.FinetuneClassify:
            # classification prompts need a label vocabulary for the source type
            targets = [n for n in g.node_ids() if g.node_type(n) in g.schema.class_labels]
            click.echo(f"finetune template: tokenizing {len(targets)} labeled-type nodes")
        try:
            backend = encoder.HttpBackend(endpoint, pooling=pooling) if endpoint else encoder.MockBackend(dim)
            table = encoder.tokenize_graph(
                backend, g, targets=targets, K=hops, template=TEMPLATES[template], cache=cache
            )
        except (encoder.EncoderError, OverflowError) as exc:  # the message names the encoder URL or the target
            raise click.ClickException(str(exc)) from None
    encoder.save_tokens(table, out_path)
    click.echo(
        f"tokens written: {len(table.node_tokens)} node, "
        f"{len(table.relation_tokens)} relation; backend calls {table.call_count}, "
        f"cache hits {table.cache_hits}"
    )
    _write_meta(
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


def _config_section(cls, values, path: str | Path, section: str, refused: dict[str, str]):
    """Build the dataclass ``cls`` from the ``section`` values read from ``path``;
    a non-object, an unknown key, a key of ``refused`` (which maps it to the
    reason) or an invalid value ends in an error naming the file."""
    if not isinstance(values, dict):
        raise click.ClickException(
            f"{path}: {section} section: expected a JSON object, got {type(values).__name__}"
        )
    unknown = sorted(set(values) - {f.name for f in dataclasses.fields(cls)})
    if unknown:
        raise click.ClickException(f"{path}: unknown {section} keys: {', '.join(unknown)}")
    taken = sorted(set(values) & set(refused))
    if taken:
        raise click.ClickException(f"{path}: {section}.{taken[0]} is not a pretrain setting: {refused[taken[0]]}")
    try:
        return cls(**values)
    except (TypeError, ValueError) as exc:
        raise click.ClickException(f"{path}: invalid {section} config: {exc}") from None


def _load_train_config(config_path: str | None) -> tuple[ModelConfig, trainer.TrainConfig]:
    doc = _read_json(config_path) if config_path else {}
    if not isinstance(doc, dict):
        raise click.ClickException(f"{config_path}: expected a JSON object, got {type(doc).__name__}")
    return tuple(
        _config_section(cls, doc.get(section, {}), config_path, section, NOT_PRETRAIN_SETTINGS.get(section, {}))
        for cls, section in ((ModelConfig, "model"), (trainer.TrainConfig, "train"))
    )


@main.command()
@click.option("--graph", "graph_dir", required=True, type=click.Path(exists=True))
@click.option("--tokens", "tokens_path", required=True, type=click.Path(exists=True))
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--seed", type=int, default=0)
@click.option("--out", "out_path", required=True, type=click.Path())
def pretrain(graph_dir, tokens_path, config_path, seed, out_path):
    """Contrastive pre-training over per-relation-type edge samples."""
    g = _load(load_graph_dir, graph_dir)
    model_cfg, train_cfg = _load_train_config(config_path)
    table, tokens_meta = _read_tokens(tokens_path, "backend", "pooling", "template")
    if tokens_meta["template"] != TemplateId.PretrainLink.value:
        raise click.ClickException(
            f"{tokens_path}.meta.json records template {tokens_meta['template']!r}, "
            f"not {TemplateId.PretrainLink.value!r}; re-run 'ella tokenize'"
        )
    model_cfg = dataclasses.replace(model_cfg, d_llm=table.dim, hops=tokens_meta["hops"])
    try:
        result = trainer.pretrain(g, table, model_cfg, train_cfg, seed=seed)
    except trainer.SamplingError as exc:  # such as a relation with no non-edge to draw
        raise click.ClickException(f"{graph_dir}: cannot draw pretraining negatives: {exc}") from None
    except trainer.TrainingDiverged as exc:
        dumped = f"; state dumped to {train_cfg.dump_path}" if train_cfg.dump_path else ""
        raise click.ClickException(f"pretraining diverged: {exc}{dumped}") from None
    except OSError as exc:  # pretraining writes no file but the divergence dump
        raise click.ClickException(f"pretraining diverged, and the dump failed: {exc}") from None
    run_meta = result.metadata()
    _save_params(
        result.params,
        model_cfg,
        out_path,
        {
            "command": "pretrain",
            "seed": seed,
            "lr": train_cfg.lr,
            "patience": train_cfg.patience,
            "backend": tokens_meta["backend"],
            "pooling": tokens_meta["pooling"],
            **run_meta,
        },
    )
    best_val = run_meta["best_val_loss"]
    best_val_text = "n/a" if best_val is None else f"{best_val:.6f}"
    click.echo(
        f"pretrained: best epoch {result.best_epoch}, last epoch {result.last_epoch}, "
        f"best val loss {best_val_text}"
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
    g = _load(load_graph_dir, graph_dir)
    labels = _node_labels(g, labels_path, target_type, "--target-type")
    params, model_cfg, _ = _load_params(ckpt_path)
    table = _tokens_for(tokens_path, ckpt_path, model_cfg)
    splits = evalkit.build_splits(
        g, labels, evalkit.Task.NodeClassification, seed=seed, target_type=target_type
    )
    backbone_before = params.content_hash(sorted(params.backbone()))
    try:
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
    except ValueError as exc:  # such as labels that leave no train or val node
        raise click.ClickException(f"{labels_path}: {exc}") from None
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
            "grid": result.grid,
            "backbone_sha256": backbone_before,
        },
    )
    click.echo(f"finetuned head for {target_type}: lr {result.lr}, val Micro-F1 {result.val_micro_f1:.4f}")


@main.command()
@click.option("--ckpt", "ckpt_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--graph", "graph_dir", required=True, type=click.Path(exists=True))
@click.option("--tokens", "tokens_path", required=True, type=click.Path(exists=True))
@click.option("--labels", "labels_path", type=click.Path(exists=True), default=None)
def evaluate(ckpt_path, out_path, graph_dir, tokens_path, labels_path):
    """Score the held-out test split drawn with the checkpoint's seed: a
    fine-tuned head on its node type, a pretrained backbone on the link task."""
    g = _load(load_graph_dir, graph_dir)
    params, model_cfg, meta = _load_params(ckpt_path, "seed", command={"finetune": ("target_type",), "pretrain": ()})
    task, meta_path = ("node" if meta["command"] == "finetune" else "link"), f"{ckpt_path}.meta.json"
    if (task == "node") != bool(labels_path):
        needs = "needs --labels" if task == "node" else "reads no labels; drop --labels"
        raise click.ClickException(f"{meta_path} records command {meta['command']!r}: the {task} task {needs}")
    table = _tokens_for(tokens_path, ckpt_path, model_cfg)
    rows: list[tuple[str, str, float]] = []
    if task == "node":
        target_type = meta["target_type"]
        labels = _node_labels(g, labels_path, target_type, f"{meta_path}: target_type")
        splits = evalkit.build_splits(
            g, labels, evalkit.Task.NodeClassification, seed=meta["seed"], target_type=target_type
        )
        test_ids = splits.node_part("test")
        vocab = g.schema.class_labels[target_type]
        preds = trainer.classify(test_ids, params, table, model_cfg, target_type, vocab)
        golds = [labels[n] for n in test_ids]
        rows.append(("micro_f1", "test", evalkit.micro_f1(preds, golds, labels=vocab)))
        rows.append(("macro_f1", "test", evalkit.macro_f1(preds, golds, labels=vocab)))
    else:
        try:
            proto = evalkit.link_protocol(g, meta["seed"])
        except trainer.SamplingError as exc:  # a graph too dense for the split's negatives
            raise click.ClickException(f"{graph_dir}: cannot split the link task: {exc}") from None
        scores = trainer.score_pairs(proto.test_pairs, params, table, model_cfg, g.node_type).tolist()
        rows.append(("auc", "test", evalkit.auc(scores, proto.test_labels)))
        rows.append(("ap", "test", evalkit.ap(scores, proto.test_labels)))
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric", "split", "value"])
        for metric, split, value in rows:
            writer.writerow([metric, split, f"{value:.6f}"])
    _write_meta(
        out_path,
        {
            "command": "evaluate",
            "task": task,
            "splits_seed": meta["seed"],
            "checkpoint_sha256": meta["checkpoint_sha256"],
        },
    )
    for metric, split, value in rows:
        click.echo(f"{metric} ({split}): {value:.4f}")


@main.command()
@click.option("--graph", "graph_dir", required=True, type=click.Path(exists=True))
@click.option("--hops", type=click.IntRange(min=1), default=3)
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--cache", "cache_path", type=click.Path(), default=None)
@click.option("--dim", type=click.IntRange(min=1), default=encoder.MOCK_DIM, show_default=True)
def profile(graph_dir, hops, out_path, cache_path, dim):
    """Backend-call and stored-vector accounting versus the naive per-path cost."""
    g = _load(load_graph_dir, graph_dir)
    with _open_cache(cache_path) as cache:
        report = evalkit.profile_run(g, K=hops, cache=cache, dim=dim)
    report.to_csv(out_path)
    _write_meta(
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
    g = _load(load_graph_dir, graph_dir)
    params, model_cfg, meta = _load_params(ckpt_path)
    table = _tokens_for(tokens_path, ckpt_path, model_cfg)
    capture = AttentionCapture()
    forward_batch(pad_tokens(g.node_ids(), table, model_cfg.hops), params.constants(), model_cfg, capture)
    written = evalkit.export_attention(capture, g, out_dir)
    _write_meta(
        Path(out_dir) / "attention",
        {"command": "export-attention", "checkpoint_sha256": meta["checkpoint_sha256"]},
    )
    for name, path in written.items():
        click.echo(f"{name}: {path}")


if __name__ == "__main__":
    main()
