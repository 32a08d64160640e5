"""End-to-end protocol runs used by the acceptance suite: tokenize, pre-train,
fine-tune, and evaluate on the planted fixtures."""

from __future__ import annotations

from dataclasses import dataclass

from ella.ellanet import ModelConfig
from ella.encoder import PrototypeBackend, tokenize_graph
from ella.evalkit import Task, ap, auc, build_splits, link_protocol, macro_f1, micro_f1
from ella.promptkit import TemplateId
from ella.trainer import TrainConfig, classify, finetune, pretrain, score_pairs

from fixtures import planted_link_fixture, planted_node_fixture

DESK_MODEL = dict(d=16, heads=2, type_layers=1, hop_layers=1, hops=2, d_llm=16)


@dataclass
class NodeRunResult:
    micro: float
    macro: float
    pretrained_backbone_hash: str
    finetuned_backbone_hash: str


def run_node_task(
    seed: int,
    papers: int = 300,
    authors: int = 300,
    target: str = "paper",
    pretrain_epochs: int = 20,
) -> NodeRunResult:
    g, labels = planted_node_fixture(seed=seed, papers=papers, authors=authors)
    cfg = ModelConfig(**DESK_MODEL)
    backend = PrototypeBackend(dim=cfg.d_llm, noise=0.5)

    table_pre = tokenize_graph(backend, g, K=cfg.hops, template=TemplateId.PretrainLink)
    pre = pretrain(
        g, table_pre, cfg, TrainConfig(max_epochs=pretrain_epochs, patience=30), seed=seed
    )
    backbone_names = sorted(pre.params.backbone())
    pretrained_hash = pre.params.content_hash(backbone_names)

    table_ft = tokenize_graph(backend, g, K=cfg.hops, template=TemplateId.FinetuneClassify)
    scoped = {n: lab for n, lab in labels.items() if g.node_type(n) == target}
    splits = build_splits(g, scoped, Task.NodeClassification, seed=seed, target_type=target)
    result = finetune(
        g, scoped, cfg, TrainConfig(), pre.params, table_ft, target,
        splits.node_part("train"), splits.node_part("val"),
    )
    finetuned_hash = pre.params.content_hash(backbone_names)

    test_ids = splits.node_part("test")
    preds = classify(test_ids, pre.params, table_ft, cfg, target, result.label_vocab)
    golds = [scoped[n] for n in test_ids]
    return NodeRunResult(
        micro=micro_f1(preds, golds, labels=result.label_vocab),
        macro=macro_f1(preds, golds, labels=result.label_vocab),
        pretrained_backbone_hash=pretrained_hash,
        finetuned_backbone_hash=finetuned_hash,
    )


def run_link_task(
    seed: int, users: int = 64, items: int = 64, pretrain_epochs: int = 300
) -> tuple[float, float]:
    g, _ = planted_link_fixture(seed=seed, users=users, items=items)
    proto = link_protocol(g, seed)
    cfg = ModelConfig(**DESK_MODEL)
    backend = PrototypeBackend(dim=cfg.d_llm, noise=0.5)
    table = tokenize_graph(backend, proto.g_train, K=cfg.hops, template=TemplateId.PretrainLink)
    pre = pretrain(
        proto.g_train, table, cfg,
        TrainConfig(max_epochs=pretrain_epochs, patience=30),
        seed=seed,
        train_positives=proto.train_pos,
        val_samples=proto.val_samples,
        forbidden=proto.full_edges,
    )
    scores = score_pairs(proto.test_pairs, pre.params, table, cfg, g.node_type).tolist()
    return auc(scores, proto.test_labels), ap(scores, proto.test_labels)
