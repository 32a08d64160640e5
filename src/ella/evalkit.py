"""Split construction, classification/link metrics, efficiency profiling, and
attention export."""

from __future__ import annotations

import csv
import logging
import time
from collections import Counter
from dataclasses import astuple, dataclass, field, fields
from enum import Enum
from pathlib import Path

import numpy as np

from .ellanet import AttentionCapture
from .encoder import MOCK_DIM, MockBackend, VectorCache, tokenize_graph
from .hetgraph import HeteroGraph
from .pathstats import count_simple_paths
from .promptkit import TemplateId
from .trainer import EdgeSample, EdgeSampleSet, by_relation, sample_negatives

log = logging.getLogger(__name__)

TRAIN_PER_CLASS = 100
VAL_PER_CLASS = 100
LINK_POSITIVE_FRACTION = 0.8
LINK_NEGATIVE_RATIO = 2


class Task(str, Enum):
    NodeClassification = "node"
    LinkPrediction = "link"


# -- metrics --------------------------------------------------------------------


def _confusion(preds: list, golds: list, labels: list | None) -> tuple[list, Counter, Counter]:
    """The sorted vocabulary; per class, its right predictions, and the wrong
    ones that predicted it or should have (its false positives plus negatives)."""
    if len(preds) != len(golds):
        raise ValueError(f"length mismatch: {len(preds)} preds vs {len(golds)} golds")
    if not preds:
        raise ValueError("empty input")
    vocab = sorted(set(labels)) if labels is not None else sorted(set(preds) | set(golds))
    vocab_set = set(vocab)
    for value in preds + golds:
        if value not in vocab_set:
            raise ValueError(f"label {value!r} outside vocabulary")
    right = Counter(p for p, gold in zip(preds, golds) if p == gold)
    wrong = Counter(c for p, gold in zip(preds, golds) if p != gold for c in (p, gold))
    return vocab, right, wrong


def micro_f1(preds: list, golds: list, labels: list | None = None) -> float:
    """Global-count F1, which equals accuracy for single-label multiclass."""
    _, right, _ = _confusion(preds, golds, labels)
    return sum(right.values()) / len(preds)


def macro_f1(preds: list, golds: list, labels: list | None = None) -> float:
    """Unweighted mean of per-class F1; classes absent from the data but
    present in ``labels`` contribute 0."""
    vocab, right, wrong = _confusion(preds, golds, labels)
    scores = [2 * right[c] / (2 * right[c] + wrong[c]) if right[c] + wrong[c] else 0.0 for c in vocab]
    return float(np.mean(scores))


def _check_binary(labels: list[int]) -> tuple[int, int]:
    n_pos = sum(1 for y in labels if y == 1)
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("need at least one positive and one negative label")
    return n_pos, n_neg


def auc(scores: list[float], labels: list[int]) -> float:
    """Rank-based AUC (Mann-Whitney); tied scores receive half credit."""
    if len(scores) != len(labels):
        raise ValueError("scores and labels differ in length")
    n_pos, n_neg = _check_binary(labels)
    values = np.asarray(scores, dtype=float)
    ordered = np.sort(values)
    # each score's 1-based rank, averaged over the scores equal to it
    ranks = (np.searchsorted(ordered, values, "left") + np.searchsorted(ordered, values, "right") + 1) / 2.0
    pos_rank_sum = sum(ranks[np.asarray(labels) == 1].tolist())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def ap(scores: list[float], labels: list[int]) -> float:
    """Average precision: precision-weighted recall increments over the
    score-sorted list, no interpolation; ties keep input order."""
    if len(scores) != len(labels):
        raise ValueError("scores and labels differ in length")
    n_pos, _ = _check_binary(labels)
    hits = np.asarray(labels)[np.argsort(-np.asarray(scores, dtype=float), kind="stable")] == 1
    precision = np.cumsum(hits) / np.arange(1, len(hits) + 1)
    return sum(precision[hits].tolist()) / n_pos


# -- split protocol ----------------------------------------------------------------


@dataclass
class LinkPart:
    positives: list[tuple[str, str, str]]
    negatives: list[tuple[str, str, str]]


@dataclass
class SplitSpec:
    node_splits: dict[str, tuple[list[str], list[str], list[str]]] = field(default_factory=dict)
    edge_splits: dict[str, LinkPart] = field(default_factory=dict)

    def node_part(self, part: str) -> list[str]:
        idx = {"train": 0, "val": 1, "test": 2}[part]
        out: list[str] = []
        for cls in sorted(self.node_splits):
            out.extend(self.node_splits[cls][idx])
        return out


def build_splits(
    g: HeteroGraph,
    labels: dict[str, str],
    task: Task,
    seed: int = 0,
    target_type: str | None = None,
) -> SplitSpec:
    """Deterministic split construction.

    Node task: per class, 100 train + 100 val, rest test; classes with fewer
    than 200 labeled nodes fall back to train = val = n//3 with a warning.
    Link task: 80% of edges become positives split 8:1:1, with exactly 2x
    negatives per part sampled from non-edges of the same relation type.
    """
    rng = np.random.default_rng(seed)
    spec = SplitSpec()

    if task is Task.NodeClassification:
        if not labels:
            raise ValueError("node task needs labels")
        scoped = {
            nid: lab
            for nid, lab in labels.items()
            if target_type is None or g.node_type(nid) == target_type
        }
        by_class: dict[str, list[str]] = {}
        for nid, lab in sorted(scoped.items()):
            by_class.setdefault(lab, []).append(nid)
        for cls in sorted(by_class):
            ids = by_class[cls]
            perm = rng.permutation(len(ids))
            ids = [ids[i] for i in perm]
            n = len(ids)
            if n >= TRAIN_PER_CLASS + VAL_PER_CLASS:
                n_train, n_val = TRAIN_PER_CLASS, VAL_PER_CLASS
            else:
                n_train = n_val = n // 3
                log.warning(
                    "class %r has only %d labeled nodes (< %d); using %d train / %d val",
                    cls, n, TRAIN_PER_CLASS + VAL_PER_CLASS, n_train, n_val,
                )
            spec.node_splits[cls] = (
                ids[:n_train],
                ids[n_train : n_train + n_val],
                ids[n_train + n_val :],
            )
        return spec

    if not g.edges:
        raise ValueError("link task needs a nonempty edge set")
    edges = sorted(g.edges)
    perm = rng.permutation(len(edges))
    n_pos = int(LINK_POSITIVE_FRACTION * len(edges))
    positives = [edges[i] for i in perm[:n_pos]]
    n_train = int(0.8 * n_pos)
    n_val = int(0.1 * n_pos)
    parts = {
        "train": positives[:n_train],
        "val": positives[n_train : n_train + n_val],
        "test": positives[n_train + n_val :],
    }
    used: set[tuple[str, str, str]] = set()  # negatives drawn so far; edges are rejected anyway
    for part_name, part_pos in parts.items():
        negatives: list[tuple[str, str, str]] = []
        for ename, pos in by_relation(part_pos).items():
            for s, t in sample_negatives(g, ename, pos, LINK_NEGATIVE_RATIO * len(pos), rng, forbidden=used):
                negatives.append((s, t, ename))
                used.add((s, t, ename))
        spec.edge_splits[part_name] = LinkPart(positives=part_pos, negatives=negatives)
    return spec


@dataclass
class LinkProtocol:
    g_train: HeteroGraph  # the graph without the val and test positives
    train_pos: dict[str, list[tuple[str, str]]]  # per relation, in split order
    val_samples: EdgeSampleSet
    test_pairs: list[tuple[str, str]]  # positives, then negatives
    test_labels: list[int]
    full_edges: set[tuple[str, str, str]]  # every edge of the graph: pretraining's forbidden negatives


def link_protocol(g: HeteroGraph, seed: int) -> LinkProtocol:
    """The held-out link protocol of one splits seed: the link split of
    ``build_splits``, with its val and test positives removed from the graph
    that is tokenized and pretrained on."""
    splits = build_splits(g, {}, Task.LinkPrediction, seed=seed)
    train, val, test = (splits.edge_splits[part] for part in ("train", "val", "test"))
    held_out = set(val.positives + test.positives)
    val_pos, val_neg = by_relation(val.positives), by_relation(val.negatives)
    val_samples = EdgeSampleSet(
        {e: EdgeSample(val_pos.get(e, []), val_neg.get(e, [])) for e in sorted(val_pos.keys() | val_neg.keys())}
    )
    return LinkProtocol(
        g_train=HeteroGraph(g.schema, g.nodes, [e for e in g.edges if e not in held_out], g.node_text),
        train_pos=by_relation(train.positives),
        val_samples=val_samples,
        test_pairs=[(s, t) for s, t, _ in test.positives + test.negatives],
        test_labels=[1] * len(test.positives) + [0] * len(test.negatives),
        full_edges=set(g.edges),
    )


# -- efficiency profiling --------------------------------------------------------


@dataclass
class ProfileRow:
    hops: int
    relation_calls: int
    text_calls: int
    cache_hits: int
    mean_stored_per_target: float
    max_stored_per_target: int
    naive_path_calls: int
    wall_seconds: float
    cache_complete: bool


@dataclass
class EfficiencyReport:
    rows: list[ProfileRow]
    n_targets: int

    def to_csv(self, path: str | Path) -> None:
        """One column per ``ProfileRow`` field, in field order; floats to 4 decimals."""
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow([f.name for f in fields(ProfileRow)])
            for r in self.rows:
                writer.writerow([f"{v:.4f}" if isinstance(v, float) else v for v in astuple(r)])


def profile_run(
    g: HeteroGraph,
    K: int,
    targets: list[str] | None = None,
    cache: VectorCache | None = None,
    dim: int = MOCK_DIM,
) -> EfficiencyReport:
    """Tokenize at each hop budget k <= K and report call counts, stored-vector
    counts, and the naive per-path-instance call count a pooling-free
    tokenizer would pay (computed without making calls)."""
    if targets is None:
        targets = g.node_ids()
    rows = []
    for k in range(1, K + 1):
        start = time.perf_counter()
        table = tokenize_graph(MockBackend(dim=dim), g, targets=targets, K=k, cache=cache)
        elapsed = time.perf_counter() - start
        naive = sum(
            count_simple_paths(g, s, i) for s in targets for i in range(1, k + 1)
        )
        stored = table.stored_counts(targets)
        rows.append(
            ProfileRow(
                hops=k,
                relation_calls=table.calls_by_template.get(TemplateId.PretrainLink.value, 0),
                text_calls=table.calls_by_template.get("node_text", 0),
                cache_hits=table.cache_hits,
                mean_stored_per_target=float(np.mean(stored)),
                max_stored_per_target=int(max(stored)),
                naive_path_calls=naive,
                wall_seconds=elapsed,
                cache_complete=table.call_count == 0,
            )
        )
    return EfficiencyReport(rows=rows, n_targets=len(targets))


# -- attention export --------------------------------------------------------------


def export_attention(capture: AttentionCapture, g: HeteroGraph, out_dir: str | Path) -> dict[str, Path]:
    """Write per-(target-type, hop, relation-type) alpha statistics and
    per-(target-type, hop) gamma statistics as CSV."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: dict[str, Path] = {}
    alpha_groups: dict[tuple[str, int, str], list[float]] = {}
    for (target, hop), (types, vec) in capture.alpha.items():
        for t, a in zip(types, vec):
            alpha_groups.setdefault((g.node_type(target), hop, t), []).append(float(a))
    gamma_groups: dict[tuple[str, int], list[float]] = {}
    for target, (hops, vec) in capture.gamma.items():
        for h, v in zip(hops, vec):
            gamma_groups.setdefault((g.node_type(target), h), []).append(float(v))

    tables = (
        ("type_attention", ["target_type", "hop", "relation_type"], "alpha", alpha_groups),
        ("hop_attention", ["target_type", "hop"], "gamma", gamma_groups),
    )
    for name, key_columns, symbol, groups in tables:
        written[name] = path = out / f"{name}.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow([*key_columns, f"mean_{symbol}", f"std_{symbol}", "n"])
            for key, vals in sorted(groups.items()):
                writer.writerow([*key, f"{np.mean(vals):.6f}", f"{np.std(vals):.6f}", len(vals)])
    return written
