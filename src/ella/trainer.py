"""Contrastive pre-training over per-relation-type edge samples and
frozen-backbone fine-tuning of a per-type classification head."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import tensorcore as tc
from .ellanet import HEAD_PREFIX, ModelConfig, ModelParams, forward_batch, init_params
from .encoder import TokenTable
from .hetgraph import HeteroGraph
from .tensorcore import AdamState, Tensor, adam_step, backward, zero_grads

log = logging.getLogger(__name__)

SIM_CLAMP = 1e-12


class SamplingError(RuntimeError):
    pass


class TrainingDiverged(RuntimeError):
    def __init__(self, epoch: int, loss: float):
        super().__init__(f"non-finite loss {loss!r} at epoch {epoch}")
        self.epoch = epoch
        self.loss = loss


@dataclass
class TrainConfig:
    lr: float = 1e-4
    patience: int = 30
    max_epochs: int = 200
    neg_ratio: int = 1
    val_fraction: float = 0.1
    lr_grid: tuple[float, ...] = (1e-2, 1e-3, 1e-4)
    dump_path: str | None = None


@dataclass
class EdgeSample:
    positives: list[tuple[str, str]]
    negatives: list[tuple[str, str]]


@dataclass
class EdgeSampleSet:
    by_type: dict[str, EdgeSample] = field(default_factory=dict)

    def endpoints(self) -> set[str]:
        nodes: set[str] = set()
        for sample in self.by_type.values():
            for s, t in sample.positives + sample.negatives:
                nodes.add(s)
                nodes.add(t)
        return nodes


def sample_negatives(
    g: HeteroGraph,
    etype_name: str,
    positives: list[tuple[str, str]],
    count: int,
    rng: np.random.Generator,
    forbidden: set[tuple[str, str, str]] | None = None,
) -> list[tuple[str, str]]:
    """Corrupt one endpoint of a uniformly chosen positive until ``count``
    distinct non-edges are found; falls back to exact complement enumeration
    when rejection stalls. A pair is an edge if the graph holds it or
    ``forbidden`` names it, in either orientation."""
    et = g.schema.edge_type(etype_name)
    src_pool = g.nodes_of_type(et.src)
    dst_pool = g.nodes_of_type(et.dst)
    forbidden = forbidden or set()

    def is_edge(s: str, t: str) -> bool:
        return (
            g.has_edge(s, t, etype_name)
            or (s, t, etype_name) in forbidden
            or (t, s, etype_name) in forbidden
        )

    out: list[tuple[str, str]] = []
    chosen: set[tuple[str, str]] = set()
    attempts = 0
    max_attempts = max(1000, 200 * count)
    while len(out) < count and attempts < max_attempts:
        attempts += 1
        s, t = positives[int(rng.integers(len(positives)))]
        if rng.random() < 0.5:
            s = src_pool[int(rng.integers(len(src_pool)))]
        else:
            t = dst_pool[int(rng.integers(len(dst_pool)))]
        if s == t or is_edge(s, t):
            continue
        key = (s, t) if (et.src != et.dst or s <= t) else (t, s)
        if key in chosen:
            continue
        chosen.add(key)
        out.append((s, t))
    if len(out) < count:
        # exact fallback: enumerate the complement (desk-scale graphs only)
        complement = []
        for s in src_pool:
            for t in dst_pool:
                if s == t or is_edge(s, t):
                    continue
                key = (s, t) if (et.src != et.dst or s <= t) else (t, s)
                if key in chosen or (et.src == et.dst and key != (s, t)):
                    continue
                complement.append(key)
        need = count - len(out)
        if not out and not complement:
            raise SamplingError(f"relation {etype_name!r} is complete; no negatives exist")
        if len(complement) < need:
            raise SamplingError(
                f"relation {etype_name!r} admits only {len(out) + len(complement)} negatives,"
                f" need {count}"
            )
        idx = rng.choice(len(complement), size=need, replace=False)
        out.extend(complement[i] for i in sorted(idx))
    return out


def sample_edges(
    g: HeteroGraph,
    ratio: int,
    seed: int,
    forbidden: set[tuple[str, str, str]] | None = None,
    positives_by_type: dict[str, list[tuple[str, str]]] | None = None,
) -> EdgeSampleSet:
    """Per relation type: positives (all edges by default) plus ``ratio``
    uniformly corrupted negatives per positive, rejecting existing edges."""
    if ratio < 1:
        raise ValueError("negative ratio must be >= 1")
    rng = np.random.default_rng(seed)
    sampleset = EdgeSampleSet()
    if positives_by_type is None:
        positives_by_type = {}
        for s, t, ename in g.edges:
            positives_by_type.setdefault(ename, []).append((s, t))
    for ename in sorted(positives_by_type):
        positives = sorted(positives_by_type[ename])
        if not positives:
            continue
        negatives = sample_negatives(g, ename, positives, ratio * len(positives), rng, forbidden)
        sampleset.by_type[ename] = EdgeSample(positives=positives, negatives=negatives)
    return sampleset


# -- losses -------------------------------------------------------------------


def similarity(z_s: Tensor, z_t: Tensor, type_s: str, type_t: str, params: ModelParams) -> Tensor:
    """sigmoid((z_s W_{type_s}) . (z_t W_{type_t})), a (1,1) tensor in (0,1)."""
    a = tc.matmul(z_s, params[f"sim/{type_s}"])
    b = tc.matmul(z_t, params[f"sim/{type_t}"])
    return tc.sigmoid(tc.matmul(a, tc.transpose(b)))


def _batched_sims(
    pairs: list[tuple[str, str]],
    Z: Tensor,
    index: dict[str, int],
    type_of,
    params: ModelParams,
) -> Tensor:
    """Sigmoid dot-product similarities for pairs sharing endpoint types."""
    src_type = type_of(pairs[0][0])
    dst_type = type_of(pairs[0][1])
    for ntype in (src_type, dst_type):
        if f"sim/{ntype}" not in params.tensors:
            raise KeyError(f"no similarity projection for node type {ntype!r}")
    S = tc.select_rows(Z, [index[s] for s, _ in pairs])
    T = tc.select_rows(Z, [index[t] for _, t in pairs])
    A = tc.matmul(S, params[f"sim/{src_type}"])
    B = tc.matmul(T, params[f"sim/{dst_type}"])
    return tc.sigmoid(tc.tsum(tc.mul(A, B), axis=1))


def pretrain_loss(
    samples: EdgeSampleSet,
    embeddings: dict[str, Tensor],
    type_of,
    params: ModelParams,
) -> Tensor:
    """Contrastive loss over all relation types:
    -sum_pos log sim - sum_neg log(1 - sim), sims clamped away from {0, 1}."""
    nodes = sorted(samples.endpoints())
    missing = [n for n in nodes if n not in embeddings]
    if missing:
        raise KeyError(f"embeddings missing for sampled endpoints: {missing[:5]}")
    index = {n: i for i, n in enumerate(nodes)}
    Z = tc.concat([embeddings[n] for n in nodes], axis=0)
    return _contrastive_loss(samples, Z, index, type_of, params)


def _contrastive_loss(
    samples: EdgeSampleSet,
    Z: Tensor,
    index: dict[str, int],
    type_of,
    params: ModelParams,
) -> Tensor:
    """:func:`pretrain_loss` over the rows of ``Z`` named by ``index``."""
    total: Tensor | None = None
    one = Tensor(1.0)
    for ename in sorted(samples.by_type):
        sample = samples.by_type[ename]
        terms = []
        if sample.positives:
            sims = _batched_sims(sample.positives, Z, index, type_of, params)
            terms.append(tc.scale(tc.tsum(tc.tlog(tc.clip(sims, SIM_CLAMP, 1 - SIM_CLAMP))), -1.0))
        if sample.negatives:
            sims = _batched_sims(sample.negatives, Z, index, type_of, params)
            comp = tc.clip(tc.sub(one, sims), SIM_CLAMP, 1 - SIM_CLAMP)
            terms.append(tc.scale(tc.tsum(tc.tlog(comp)), -1.0))
        for t in terms:
            total = t if total is None else tc.add(total, t)
    if total is None:
        raise ValueError("empty sample set")
    return total


def cross_entropy(logits: Tensor, onehot: Tensor) -> Tensor:
    """Mean - sum_c y_c log p_c with softmax probabilities, clamped for logs."""
    p = tc.clip(tc.softmax(logits), SIM_CLAMP, 1.0)
    per_row = tc.tsum(tc.mul(onehot, tc.tlog(p)), axis=1)
    return tc.scale(tc.mean(per_row), -1.0)


# -- pre-training ---------------------------------------------------------------


@dataclass
class PretrainResult:
    params: ModelParams
    best_epoch: int
    last_epoch: int
    val_curve: list[float]
    train_curve: list[float]

    def metadata(self) -> dict:
        return {
            "best_epoch": self.best_epoch,
            "last_epoch": self.last_epoch,
            "best_val_loss": min(self.val_curve) if self.val_curve else None,
            "epochs_run": len(self.val_curve),
        }


def _holdout_split(
    samples: EdgeSampleSet, val_fraction: float, seed: int
) -> tuple[dict[str, list[tuple[str, str]]], EdgeSampleSet]:
    """Hold out a fraction of positives (with matched negatives) per type."""
    rng = np.random.default_rng([seed, 0xE11A])
    train_pos: dict[str, list[tuple[str, str]]] = {}
    val = EdgeSampleSet()
    for ename in sorted(samples.by_type):
        sample = samples.by_type[ename]
        n = len(sample.positives)
        n_val = max(1, int(round(val_fraction * n))) if n > 1 else 0
        order = rng.permutation(n)
        val_idx = set(order[:n_val].tolist())
        vp = [sample.positives[i] for i in sorted(val_idx)]
        tp = [sample.positives[i] for i in range(n) if i not in val_idx]
        ratio = len(sample.negatives) // max(1, n)
        n_val_neg = ratio * len(vp)
        vn = sample.negatives[:n_val_neg]
        train_pos[ename] = tp
        if vp:
            val.by_type[ename] = EdgeSample(positives=vp, negatives=vn)
    return train_pos, val


def _check_finite(value: float, epoch: int, params: ModelParams, dump_path: str | None) -> None:
    if np.isfinite(value):
        return
    if dump_path:
        tc.save_checkpoint(params.tensors, dump_path)
        log.error("diverged at epoch %d; state dumped to %s", epoch, dump_path)
    raise TrainingDiverged(epoch, value)


def pretrain(
    g: HeteroGraph,
    table: TokenTable,
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    seed: int,
    params: ModelParams | None = None,
    train_positives: dict[str, list[tuple[str, str]]] | None = None,
    val_samples: EdgeSampleSet | None = None,
    forbidden: set[tuple[str, str, str]] | None = None,
) -> PretrainResult:
    """Full-parameter contrastive training with early stopping.

    Positives default to all edges with a 10% held-out validation slice;
    negatives are resampled every epoch from an epoch-derived seed, always
    rejecting ``forbidden`` (the graph's own edges by default; pass the full
    edge set when training on a held-out-edge subgraph). Deterministic given
    (inputs, seed).
    """
    if params is None:
        class_counts = {t: len(v) for t, v in g.schema.class_labels.items()}
        params = init_params(model_cfg, g.schema.node_types, class_counts, seed=seed)
    if (train_positives is None) != (val_samples is None):
        raise ValueError("provide both train_positives and val_samples, or neither")
    if train_positives is None:
        base = sample_edges(g, train_cfg.neg_ratio, seed)
        train_positives, val_samples = _holdout_split(base, train_cfg.val_fraction, seed)

    trainable = params.backbone()
    opt = AdamState()
    best_val, best_epoch, epoch = float("inf"), -1, 0
    best_values: dict[str, np.ndarray] | None = None
    val_curve: list[float] = []
    train_curve: list[float] = []
    if forbidden is None:
        forbidden = {(s, t, e) for s, t, e in g.edges}

    # Every endpoint an epoch can draw: the node pools of the trained
    # relations plus the validation endpoints. Embedding this fixed set each
    # epoch makes the validation loss a function of the parameters alone,
    # not of which negatives happened to be drawn.
    needed = set(val_samples.endpoints())
    for ename, pos in train_positives.items():
        if pos:
            et = g.schema.edge_type(ename)
            needed |= set(g.nodes_of_type(et.src)) | set(g.nodes_of_type(et.dst))
    needed = sorted(needed)
    index = {n: i for i, n in enumerate(needed)}

    for epoch in range(train_cfg.max_epochs):
        epoch_samples = EdgeSampleSet()
        rng = np.random.default_rng([seed, epoch])
        for ename in sorted(train_positives):
            pos = train_positives[ename]
            if not pos:
                continue
            neg = sample_negatives(
                g, ename, pos, train_cfg.neg_ratio * len(pos), rng, forbidden
            )
            for s, t in neg:  # exhaustive per-epoch invariant check (desk scale)
                if (s, t, ename) in forbidden or (t, s, ename) in forbidden:
                    raise SamplingError(f"negative ({s}, {t}, {ename}) collides with an edge")
            epoch_samples.by_type[ename] = EdgeSample(positives=pos, negatives=neg)

        Z = forward_batch(needed, table, params, model_cfg)
        train_loss = _contrastive_loss(epoch_samples, Z, index, g.node_type, params)
        val_loss = (
            _contrastive_loss(val_samples, Z, index, g.node_type, params).item()
            if val_samples.by_type
            else train_loss.item()
        )
        _check_finite(train_loss.item(), epoch, params, train_cfg.dump_path)
        _check_finite(val_loss, epoch, params, train_cfg.dump_path)
        train_curve.append(train_loss.item())
        val_curve.append(val_loss)

        if val_loss < best_val:
            best_val, best_epoch = val_loss, epoch
            best_values = params.copy_values()
        if epoch - best_epoch >= train_cfg.patience:
            break

        zero_grads(params.tensors)
        backward(train_loss)
        adam_step(trainable, opt, train_cfg.lr)

    if best_values is not None:
        params.restore_values(best_values)
    return PretrainResult(
        params=params,
        best_epoch=best_epoch,
        last_epoch=epoch,
        val_curve=val_curve,
        train_curve=train_curve,
    )


# -- fine-tuning ----------------------------------------------------------------


@dataclass
class FinetuneResult:
    params: ModelParams
    target_type: str
    lr: float
    best_epoch: int
    val_micro_f1: float
    label_vocab: list[str]
    metadata_extra: dict = field(default_factory=dict)


def _head_training_run(
    Z: np.ndarray,
    onehot: np.ndarray,
    val_Z: np.ndarray,
    val_gold: np.ndarray,
    n_classes: int,
    lr: float,
    train_cfg: TrainConfig,
) -> tuple[np.ndarray, float, float, int]:
    """Train one zero-initialized head; returns (weights, val micro-F1 at the
    best validation loss, best val loss, best epoch)."""
    from .evalkit import micro_f1

    head = Tensor(np.zeros((Z.shape[1], n_classes)), requires_grad=True)
    Zt = Tensor(Z)
    Y = Tensor(onehot)
    opt = AdamState()
    best = (float("inf"), -1, head.data.copy(), 0.0)  # (val loss, epoch, weights, val f1)
    since_best = 0
    for epoch in range(train_cfg.max_epochs):
        loss = cross_entropy(tc.matmul(Zt, head), Y)
        _check_finite(loss.item(), epoch, ModelParams({"head": head}), train_cfg.dump_path)

        val_logits = val_Z @ head.data
        val_loss = -np.mean(
            np.log(
                np.clip(_np_softmax(val_logits)[np.arange(len(val_gold)), val_gold], SIM_CLAMP, 1)
            )
        )
        if val_loss < best[0]:
            preds = val_logits.argmax(axis=1)
            best = (val_loss, epoch, head.data.copy(), micro_f1(preds.tolist(), val_gold.tolist()))
            since_best = 0
        else:
            since_best = epoch - best[1]
        if since_best >= train_cfg.patience:
            break
        zero_grads({"head": head})
        backward(loss)
        adam_step({"head": head}, opt, lr)
    return best[2], best[3], best[0], best[1]


def _np_softmax(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def finetune(
    g: HeteroGraph,
    labels: dict[str, str],
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    params: ModelParams,
    table: TokenTable,
    target_type: str,
    train_ids: list[str],
    val_ids: list[str],
) -> FinetuneResult:
    """Train only the ``head/<target_type>`` tensor on frozen-backbone
    embeddings, grid-searching the learning rate; the backbone is untouched."""
    vocab = g.schema.class_labels.get(target_type)
    if not vocab:
        raise ValueError(f"node type {target_type!r} has no class labels declared")
    for nid in train_ids + val_ids:
        if nid not in labels:
            raise ValueError(f"node {nid!r} has no label")
        if g.node_type(nid) != target_type:
            raise ValueError(f"node {nid!r} is not of type {target_type!r}")
    label_index = {lab: i for i, lab in enumerate(vocab)}

    def embed(ids: list[str]) -> np.ndarray:
        return forward_batch(ids, table, params, model_cfg).data

    Z_train, Z_val = embed(train_ids), embed(val_ids)
    gold_train = np.array([label_index[labels[n]] for n in train_ids])
    gold_val = np.array([label_index[labels[n]] for n in val_ids])
    onehot = np.zeros((len(train_ids), len(vocab)))
    onehot[np.arange(len(train_ids)), gold_train] = 1.0

    results = []
    for lr in train_cfg.lr_grid:
        weights, val_f1, val_loss, best_epoch = _head_training_run(
            Z_train, onehot, Z_val, gold_val, len(vocab), lr, train_cfg
        )
        results.append((val_f1, -val_loss, lr, weights, best_epoch))
    results.sort(key=lambda r: (-r[0], -r[1]))
    val_f1, neg_loss, lr, weights, best_epoch = results[0]

    head_name = f"{HEAD_PREFIX}{target_type}"
    if head_name in params.tensors:
        params.tensors[head_name].data[...] = weights
    else:
        params.tensors[head_name] = Tensor(weights, requires_grad=True)
    return FinetuneResult(
        params=params,
        target_type=target_type,
        lr=lr,
        best_epoch=best_epoch,
        val_micro_f1=val_f1,
        label_vocab=list(vocab),
    )


def classify(
    ids: list[str],
    params: ModelParams,
    table: TokenTable,
    model_cfg: ModelConfig,
    target_type: str,
    vocab: list[str],
) -> list[str]:
    """Predict labels for ``ids`` with the fine-tuned head."""
    head = params[f"{HEAD_PREFIX}{target_type}"].data
    Z = forward_batch(ids, table, params, model_cfg).data
    return [vocab[i] for i in (Z @ head).argmax(axis=1)]


def score_pairs(
    pairs: list[tuple[str, str]],
    params: ModelParams,
    table: TokenTable,
    model_cfg: ModelConfig,
    type_of,
) -> np.ndarray:
    """Similarity scores for arbitrary node pairs (evaluation path)."""
    scores = np.zeros(len(pairs))
    if not pairs:
        return scores
    nodes = sorted({n for pair in pairs for n in pair})
    index = {n: i for i, n in enumerate(nodes)}
    Z = forward_batch(nodes, table, params, model_cfg)
    by_types: dict[tuple[str, str], list[int]] = {}
    for i, (s, t) in enumerate(pairs):
        by_types.setdefault((type_of(s), type_of(t)), []).append(i)
    for rows in by_types.values():
        scores[rows] = _batched_sims([pairs[i] for i in rows], Z, index, type_of, params).data
    return scores
