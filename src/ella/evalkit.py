"""Split construction, classification/link metrics, efficiency profiling, and
attention export."""

from __future__ import annotations

import csv
import json
import logging
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path

import numpy as np

from .ellanet import AttentionCapture
from .encoder import MockBackend, VectorCache, tokenize_graph
from .hetgraph import HeteroGraph
from .pathstats import count_simple_paths
from .promptkit import TemplateId
from .trainer import sample_negatives

log = logging.getLogger(__name__)

TRAIN_PER_CLASS = 100
VAL_PER_CLASS = 100
LINK_POSITIVE_FRACTION = 0.8
LINK_NEGATIVE_RATIO = 2


class Task(str, Enum):
    NodeClassification = "node"
    LinkPrediction = "link"


# -- metrics --------------------------------------------------------------------


def _confusion(preds: list, golds: list, labels: list | None) -> dict:
    if len(preds) != len(golds):
        raise ValueError(f"length mismatch: {len(preds)} preds vs {len(golds)} golds")
    if not preds:
        raise ValueError("empty input")
    vocab = sorted(set(labels)) if labels is not None else sorted(set(preds) | set(golds))
    vocab_set = set(vocab)
    for value in preds + golds:
        if value not in vocab_set:
            raise ValueError(f"label {value!r} outside vocabulary")
    tp = {c: 0 for c in vocab}
    fp = {c: 0 for c in vocab}
    fn = {c: 0 for c in vocab}
    for p, gold in zip(preds, golds):
        if p == gold:
            tp[p] += 1
        else:
            fp[p] += 1
            fn[gold] += 1
    return {"vocab": vocab, "tp": tp, "fp": fp, "fn": fn}


def micro_f1(preds: list, golds: list, labels: list | None = None) -> float:
    """Global-count F1 (equals accuracy for single-label multiclass)."""
    c = _confusion(preds, golds, labels)
    tp = sum(c["tp"].values())
    fp = sum(c["fp"].values())
    fn = sum(c["fn"].values())
    denom = 2 * tp + fp + fn
    return 2 * tp / denom if denom else 0.0


def macro_f1(preds: list, golds: list, labels: list | None = None) -> float:
    """Unweighted mean of per-class F1; classes absent from the data but
    present in ``labels`` contribute 0."""
    c = _confusion(preds, golds, labels)
    scores = []
    for cls in c["vocab"]:
        denom = 2 * c["tp"][cls] + c["fp"][cls] + c["fn"][cls]
        scores.append(2 * c["tp"][cls] / denom if denom else 0.0)
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
    order = np.argsort(scores, kind="stable")
    sorted_scores = np.asarray(scores, dtype=float)[order]
    ranks = np.empty(len(scores))
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[i : j + 1] = (i + j) / 2.0 + 1.0  # average rank, 1-based
        i = j + 1
    rank_by_index = np.empty(len(scores))
    rank_by_index[order] = ranks
    pos_rank_sum = sum(r for r, y in zip(rank_by_index, labels) if y == 1)
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def ap(scores: list[float], labels: list[int]) -> float:
    """Average precision: precision-weighted recall increments over the
    score-sorted list, no interpolation; ties keep input order."""
    if len(scores) != len(labels):
        raise ValueError("scores and labels differ in length")
    n_pos, _ = _check_binary(labels)
    order = sorted(range(len(scores)), key=lambda i: -scores[i])
    tp = 0
    total = 0.0
    for k, i in enumerate(order, start=1):
        if labels[i] == 1:
            tp += 1
            total += tp / k
    return total / n_pos


# -- split protocol ----------------------------------------------------------------


@dataclass
class LinkPart:
    positives: list[tuple[str, str, str]]
    negatives: list[tuple[str, str, str]]


@dataclass
class SplitSpec:
    task: Task
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
    expected_classes: list[str] | None = None,
) -> SplitSpec:
    """Deterministic split construction.

    Node task: per class, 100 train + 100 val, rest test; classes with fewer
    than 200 labeled nodes fall back to train = val = n//3 with a warning.
    Link task: 80% of edges become positives split 8:1:1, with exactly 2x
    negatives per part sampled from non-edges of the same relation type.
    """
    rng = np.random.default_rng(seed)
    spec = SplitSpec(task=task)

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
        for cls in expected_classes or []:
            if not by_class.get(cls):
                raise ValueError(f"class {cls!r} has zero labeled nodes")
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
    used: set[tuple[str, str, str]] = set(g.edges)
    for part_name in ("train", "val", "test"):
        part_pos = parts[part_name]
        by_type: dict[str, list[tuple[str, str]]] = {}
        for s, t, ename in part_pos:
            by_type.setdefault(ename, []).append((s, t))
        negatives: list[tuple[str, str, str]] = []
        for ename in sorted(by_type):
            negs = sample_negatives(
                g,
                ename,
                by_type[ename],
                LINK_NEGATIVE_RATIO * len(by_type[ename]),
                rng,
                forbidden=used,
            )
            for s, t in negs:
                negatives.append((s, t, ename))
                used.add((s, t, ename))
        spec.edge_splits[part_name] = LinkPart(positives=part_pos, negatives=negatives)
    return spec


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
    n_types: int

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                [
                    "hops", "relation_calls", "text_calls", "cache_hits",
                    "mean_stored_per_target", "max_stored_per_target",
                    "naive_path_calls", "wall_seconds", "cache_complete",
                ]
            )
            for r in self.rows:
                writer.writerow(
                    [
                        r.hops, r.relation_calls, r.text_calls, r.cache_hits,
                        f"{r.mean_stored_per_target:.4f}", r.max_stored_per_target,
                        r.naive_path_calls, f"{r.wall_seconds:.4f}", r.cache_complete,
                    ]
                )


def profile_run(
    g: HeteroGraph,
    K: int,
    targets: list[str] | None = None,
    backend=None,
    cache: VectorCache | None = None,
    dim: int = 16,
) -> EfficiencyReport:
    """Tokenize at each hop budget k <= K and report call counts, stored-vector
    counts, and the naive per-path-instance call count a pooling-free
    tokenizer would pay (computed without making calls)."""
    if targets is None:
        targets = g.node_ids()
    rows = []
    for k in range(1, K + 1):
        b = backend or MockBackend(dim=dim)
        start = time.perf_counter()
        table = tokenize_graph(b, g, targets=targets, K=k, cache=cache)
        elapsed = time.perf_counter() - start
        naive = sum(
            count_simple_paths(g, s, i) for s in targets for i in range(1, k + 1)
        )
        stored = [table.stored_per_target(s) for s in targets]
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
    return EfficiencyReport(rows=rows, n_targets=len(targets), n_types=len(g.schema.node_types))


# -- attention export --------------------------------------------------------------


def export_attention(
    capture: AttentionCapture | None, g: HeteroGraph, out_dir: str | Path
) -> dict[str, Path]:
    """Write per-(target-type, hop, relation-type) alpha statistics and
    per-(target-type, hop) gamma statistics as CSV."""
    if capture is None:
        raise ValueError("attention capture disabled; run forward with a capture")
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

    path = out / "type_attention.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["target_type", "hop", "relation_type", "mean_alpha", "std_alpha", "n"])
        for (ttype, hop, t), vals in sorted(alpha_groups.items()):
            writer.writerow(
                [ttype, hop, t, f"{np.mean(vals):.6f}", f"{np.std(vals):.6f}", len(vals)]
            )
    written["type_attention"] = path

    path = out / "hop_attention.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["target_type", "hop", "mean_gamma", "std_gamma", "n"])
        for (ttype, hop), vals in sorted(gamma_groups.items()):
            writer.writerow([ttype, hop, f"{np.mean(vals):.6f}", f"{np.std(vals):.6f}", len(vals)])
    written["hop_attention"] = path
    return written


def write_metadata(out_path: str | Path, payload: dict) -> Path:
    """Run metadata JSON written alongside an output file."""
    meta = {"generated_at": datetime.now(timezone.utc).isoformat(), **payload}
    path = Path(str(out_path) + ".meta.json")
    path.write_text(json.dumps(meta, indent=2, sort_keys=True), encoding="utf-8")
    return path
