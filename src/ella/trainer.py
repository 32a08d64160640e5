"""Contrastive pre-training over per-relation-type edge samples and
frozen-backbone fine-tuning of a per-type classification head."""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple

import numpy as np

from . import tensorcore as tc
from .ellanet import HEAD_PREFIX, ModelConfig, ModelParams, check_int, forward_batch, init_params, pad_tokens
from .encoder import TokenTable
from .hetgraph import HeteroGraph
from .tensorcore import AdamState, Tensor, adam_step, backward, zero_grads

SIM_CLAMP = 1e-12
SCORE_BLOCK = 2048  # the most pairs score_pairs scores in one batch of rows


class SamplingError(RuntimeError):
    pass


class TrainingDiverged(RuntimeError):
    def __init__(self, epoch: int, loss: float):
        super().__init__(f"non-finite loss {loss!r} at epoch {epoch}")
        self.epoch = epoch
        self.loss = loss


LR_GRID = (1e-2, 1e-3, 1e-4)  # the learning rates fine-tuning tries
VAL_FRACTION = 0.1  # the share of each relation's positives pretraining holds out
NEG_RATIO = 1  # the negatives pretraining draws per positive


@dataclass
class TrainConfig:
    lr: float = 1e-4
    patience: int = 30
    max_epochs: int = 200
    dump_path: str | None = None

    def __post_init__(self) -> None:
        if isinstance(self.lr, bool) or not isinstance(self.lr, numbers.Real) or not 0 <= self.lr < np.inf:
            raise ValueError(f"lr must be a finite number >= 0, not {self.lr!r}")
        for name in ("patience", "max_epochs"):
            check_int(name, getattr(self, name), 0)
        if self.dump_path is not None and not isinstance(self.dump_path, str):
            raise ValueError(f"dump_path must be a string, not {self.dump_path!r}")


@dataclass
class EdgeSample:
    positives: list[tuple[str, str]]
    negatives: list[tuple[str, str]]


@dataclass
class EdgeSampleSet:
    by_type: dict[str, EdgeSample] = field(default_factory=dict)

    def endpoints(self) -> set[str]:
        return {n for sample in self.by_type.values() for pair in sample.positives + sample.negatives for n in pair}


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
    ``forbidden`` names it, in either orientation. Each block of ``count + 16``
    attempts draws its sides, positives and pool indices in three ``rng``
    calls. Raises :class:`SamplingError` if ``count`` negatives cannot be
    found or no positive is given."""
    et = g.schema.edge_type(etype_name)
    if count <= 0:
        return []
    if not positives:
        raise SamplingError(f"relation {etype_name!r} has no positives to corrupt")
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
    attempts, max_attempts = 0, max(1000, 200 * count)
    while len(out) < count and attempts < max_attempts:
        n = min(count + 16, max_attempts - attempts)
        attempts += n
        src_side = rng.random(n) < 0.5
        pos_idx = rng.integers(len(positives), size=n)
        pool_idx = rng.integers(np.where(src_side, len(src_pool), len(dst_pool)))
        for i, corrupt_src, j in zip(pos_idx.tolist(), src_side.tolist(), pool_idx.tolist()):
            s, t = positives[i]
            if corrupt_src:
                s = src_pool[j]
            else:
                t = dst_pool[j]
            if s == t or is_edge(s, t):
                continue
            key = (s, t) if (et.src != et.dst or s <= t) else (t, s)
            if key in chosen:
                continue
            chosen.add(key)
            out.append((s, t))
            if len(out) == count:
                break
    if len(out) < count:
        # exact fallback: enumerate the complement (desk-scale graphs only)
        complement = [
            (s, t) for s in src_pool for t in dst_pool  # a same-type pair once, in its sorted order
            if s != t and (et.src != et.dst or s < t) and not is_edge(s, t) and (s, t) not in chosen
        ]
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


def by_relation(edges) -> dict[str, list[tuple[str, str]]]:
    """The ``(source, target)`` pairs of ``(source, target, relation)`` triples
    per relation, in input order; the relations in name order."""
    pairs: dict[str, list[tuple[str, str]]] = {}
    for s, t, ename in edges:
        pairs.setdefault(ename, []).append((s, t))
    return {ename: pairs[ename] for ename in sorted(pairs)}


def sample_edges(g: HeteroGraph, ratio: int, seed: int) -> EdgeSampleSet:
    """Per relation type: all edges as positives plus ``ratio`` uniformly
    corrupted negatives per positive, rejecting existing edges."""
    if ratio < 1:
        raise ValueError("negative ratio must be >= 1")
    rng = np.random.default_rng(seed)
    sampleset = EdgeSampleSet()
    for ename, pairs in by_relation(g.edges).items():
        positives = sorted(pairs)
        negatives = sample_negatives(g, ename, positives, ratio * len(positives), rng)
        sampleset.by_type[ename] = EdgeSample(positives=positives, negatives=negatives)
    return sampleset


# -- losses -------------------------------------------------------------------


def similarity(z_s: Tensor, z_t: Tensor, type_s: str, type_t: str, params: ModelParams) -> Tensor:
    """sigmoid((z_s W_{type_s}) . (z_t W_{type_t})), a (1,1) tensor in (0,1)."""
    a = tc.matmul(z_s, params[f"sim/{type_s}"])
    b = tc.matmul(z_t, params[f"sim/{type_t}"])
    return tc.sigmoid(tc.matmul(a, tc.transpose(b)))


class PairRows(NamedTuple):
    """Node pairs as rows of an embedding matrix ``Z``, all with the same
    source and target types."""

    src: np.ndarray  # (P,) rows of the source nodes
    dst: np.ndarray  # (P,) rows of the target nodes
    src_type: str
    dst_type: str


def _pair_rows(pairs: list[tuple[str, str]], index: dict[str, int], type_of) -> PairRows | None:
    """``pairs`` as rows named by ``index``, typed by the first pair; None if empty."""
    if not pairs:
        return None
    rows = np.fromiter(map(index.__getitem__, chain.from_iterable(pairs)), np.intp, 2 * len(pairs))
    return PairRows(rows[0::2], rows[1::2], type_of(pairs[0][0]), type_of(pairs[0][1]))


def _batched_sims(
    src_rows: np.ndarray,
    dst_rows: np.ndarray,
    src_type: str,
    dst_type: str,
    Z: Tensor,
    params: ModelParams,
) -> Tensor:
    """Sigmoid dot-product similarities of the rows ``src_rows`` and
    ``dst_rows`` of ``Z``, whose nodes have types ``src_type`` and ``dst_type``."""
    for ntype in (src_type, dst_type):
        if f"sim/{ntype}" not in params.tensors:
            raise KeyError(f"no similarity projection for node type {ntype!r}")
    A = tc.matmul(tc.select_rows(Z, src_rows), params[f"sim/{src_type}"])
    B = tc.matmul(tc.select_rows(Z, dst_rows), params[f"sim/{dst_type}"])
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
    return _contrastive_loss(_sample_rows(samples, index, type_of), Z, params)


def _sample_rows(
    samples: EdgeSampleSet, index: dict[str, int], type_of
) -> list[tuple[PairRows | None, PairRows | None]]:
    """The positives and negatives of each relation type of ``samples``, in
    name order, as rows named by ``index``."""
    return [
        (_pair_rows(s.positives, index, type_of), _pair_rows(s.negatives, index, type_of))
        for _, s in sorted(samples.by_type.items())
    ]


def _contrastive_loss(
    samples: list[tuple[PairRows | None, PairRows | None]], Z: Tensor, params: ModelParams
) -> Tensor:
    """:func:`pretrain_loss` over (positives, negatives) per relation type,
    given as rows of ``Z``."""
    total: Tensor | None = None
    one = Tensor(1.0)
    for positives, negatives in samples:
        terms = []
        if positives is not None:
            sims = _batched_sims(*positives, Z, params)
            terms.append(tc.scale(tc.tsum(tc.tlog(tc.clip(sims, SIM_CLAMP, 1 - SIM_CLAMP))), -1.0))
        if negatives is not None:
            sims = _batched_sims(*negatives, Z, params)
            comp = tc.clip(tc.sub(one, sims), SIM_CLAMP, 1 - SIM_CLAMP)
            terms.append(tc.scale(tc.tsum(tc.tlog(comp)), -1.0))
        for t in terms:
            total = t if total is None else tc.add(total, t)
    if total is None:
        raise ValueError("empty sample set")
    return total


def cross_entropy(logits: Tensor, onehot: Tensor) -> Tensor:
    """Mean over rows of - sum_c y_c log p_c with softmax probabilities,
    clamped for logs. ``(n, C)`` logits give a scalar; ``(L, n, C)`` logits,
    one lane per stacked head, give ``L`` losses.

    One tape op on finite logits; ``onehot`` is a constant. Its backward takes
    the floating-point steps of the composed softmax, clip, log, mul, sum,
    mean and scale backwards, so the logits gradient is the same to the bit.
    """
    x, y = logits.data, onehot.data
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    clipped = np.maximum(p, SIM_CLAMP)  # a softmax never exceeds 1
    n = x.shape[-2]
    loss = -(np.add.reduce(np.add.reduce(y * np.log(clipped), axis=-1), axis=-1) / n)

    def backward(out):
        dp = (-1.0 * out.grad)[..., None, None] / n * y / clipped * ((p > SIM_CLAMP) & (p < 1.0))
        logits.accumulate(p * (dp - (dp * p).sum(axis=-1, keepdims=True)))

    return tc._result(loss, (logits,), backward)


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
    samples: EdgeSampleSet, seed: int
) -> tuple[dict[str, list[tuple[str, str]]], EdgeSampleSet]:
    """Hold out ``VAL_FRACTION`` of the positives (with matched negatives) per type."""
    rng = np.random.default_rng([seed, 0xE11A])
    train_pos: dict[str, list[tuple[str, str]]] = {}
    val = EdgeSampleSet()
    for ename in sorted(samples.by_type):
        sample = samples.by_type[ename]
        n = len(sample.positives)
        n_val = max(1, int(round(VAL_FRACTION * n))) if n > 1 else 0
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


def _check_finite(
    value: float, epoch: int, tensors: dict[str, Tensor], dump_path: str | None
) -> None:
    if np.isfinite(value):
        return
    if dump_path:
        tc.save_checkpoint(tensors, dump_path)
    raise TrainingDiverged(epoch, value)


def _fit(
    step, trainable: dict[str, Tensor], lr: float | np.ndarray, train_cfg: TrainConfig
) -> tuple[dict[str, np.ndarray], np.ndarray, np.ndarray, int, list[float], list]:
    """The training policy of both stages: Adam on ``trainable``, stopping
    once the validation loss has not improved for ``patience`` epochs, and
    raising :class:`TrainingDiverged` on a non-finite loss.

    ``lr`` is a float, or an array of per-lane rates that broadcasts against
    every trainable tensor (``(L, 1, 1)`` for ``L`` stacked heads); each lane
    stops on its own patience. ``step(epoch)`` builds one epoch's training
    loss tensor and the validation loss in the shape of ``lr``. A stopped lane
    steps at rate 0, so its values stay as they were, and the loop ends when
    every lane has stopped. Returns the values of ``trainable`` at each lane's
    lowest validation loss, that loss and its epoch per lane, the last epoch
    run, and the training and validation curves.
    """
    opt = AdamState()
    lr = np.asarray(lr, dtype=float)
    best_values = {n: t.data.copy() for n, t in trainable.items()}
    best_val, best_epoch = np.full(lr.shape, np.inf), np.full(lr.shape, -1)
    live = np.ones(lr.shape, dtype=bool)
    epoch = -1  # the last epoch run, if any
    train_curve: list[float] = []
    val_curve: list = []
    # an overflowing epoch is caught by its non-finite loss, not by numpy's warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(train_cfg.max_epochs):
            train_loss, val_loss = step(epoch)
            _check_finite(train_loss.item(), epoch, trainable, train_cfg.dump_path)
            _check_finite(float(np.sum(val_loss, where=live)), epoch, trainable, train_cfg.dump_path)
            train_curve.append(train_loss.item())
            val_curve.append(val_loss)
            improved = val_loss < best_val
            best_val = np.where(improved, val_loss, best_val)
            best_epoch = np.where(improved, epoch, best_epoch)
            best_values = {n: np.where(improved, t.data, best_values[n]) for n, t in trainable.items()}
            live &= epoch - best_epoch < train_cfg.patience
            if not live.any():
                break
            zero_grads(trainable)
            backward(train_loss)
            adam_step(trainable, opt, np.where(live, lr, 0.0))
    return best_values, best_val, best_epoch, epoch, train_curve, val_curve


def pretrain(
    g: HeteroGraph,
    table: TokenTable,
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    seed: int,
    train_positives: dict[str, list[tuple[str, str]]] | None = None,
    val_samples: EdgeSampleSet | None = None,
    forbidden: set[tuple[str, str, str]] | None = None,
) -> PretrainResult:
    """Full-parameter contrastive training with early stopping, from the
    parameters ``init_params`` draws from ``seed``.

    Positives default to all edges less a held-out ``VAL_FRACTION`` slice;
    negatives are resampled every epoch from an epoch-derived seed, always
    rejecting the graph's own edges and any ``forbidden`` one (pass the full
    edge set when training on a held-out-edge subgraph). Deterministic given
    (inputs, seed).
    """
    class_counts = {t: len(v) for t, v in g.schema.class_labels.items()}
    params = init_params(model_cfg, g.schema.node_types, class_counts, seed=seed)
    if (train_positives is None) != (val_samples is None):
        raise ValueError("provide both train_positives and val_samples, or neither")
    if train_positives is None:
        base = sample_edges(g, NEG_RATIO, seed)
        train_positives, val_samples = _holdout_split(base, seed)
    if not any(train_positives.values()):
        raise SamplingError("no relation has a training positive")

    # Every endpoint an epoch can draw: the node pools of the trained
    # relations plus the validation endpoints. Embedding this fixed set each
    # epoch makes the validation loss a function of the parameters alone,
    # not of which negatives happened to be drawn, and pads its tokens once.
    needed = set(val_samples.endpoints())
    for ename, pos in train_positives.items():
        if pos:
            et = g.schema.edge_type(ename)
            needed |= set(g.nodes_of_type(et.src)) | set(g.nodes_of_type(et.dst))
    needed = sorted(needed)
    index = {n: i for i, n in enumerate(needed)}
    batch = pad_tokens(needed, table, model_cfg.hops)
    # only the negatives change between epochs; the rest is mapped to rows once
    train_names = sorted(e for e, pos in train_positives.items() if pos)
    train_rows = [_pair_rows(train_positives[e], index, g.node_type) for e in train_names]
    val_rows = _sample_rows(val_samples, index, g.node_type)
    frozen = params.constants()  # the validation loss reads no gradient

    def step(epoch: int) -> tuple[Tensor, float]:
        rng = np.random.default_rng([seed, epoch])
        epoch_rows = []
        for ename, pos_rows in zip(train_names, train_rows):
            pos = train_positives[ename]
            neg = sample_negatives(g, ename, pos, NEG_RATIO * len(pos), rng, forbidden)
            epoch_rows.append((pos_rows, _pair_rows(neg, index, g.node_type)))

        Z = forward_batch(batch, params, model_cfg)
        train_loss = _contrastive_loss(epoch_rows, Z, params)
        if not val_rows:
            return train_loss, train_loss.item()
        return train_loss, _contrastive_loss(val_rows, Tensor(Z.data), frozen).item()

    best, _, best_epoch, last_epoch, train_curve, val_curve = _fit(
        step, params.backbone(), train_cfg.lr, train_cfg
    )
    params.restore_values(best)
    return PretrainResult(
        params=params,
        best_epoch=int(best_epoch),
        last_epoch=last_epoch,
        val_curve=val_curve,
        train_curve=train_curve,
    )


# -- fine-tuning ----------------------------------------------------------------


@dataclass
class FinetuneResult:
    params: ModelParams
    lr: float
    best_epoch: int
    val_micro_f1: float
    label_vocab: list[str]
    grid: list[dict]  # one {lr, best_epoch, val_micro_f1} per learning rate, in grid order


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
    embeddings, grid-searching the learning rate over ``LR_GRID``; the
    backbone is untouched. Each learning rate trains a zero-initialized head
    with its own early stopping; the heads train side by side as lanes of one
    ``(L, d, C)`` tensor, one forward and one backward per epoch for the whole grid."""
    from .evalkit import micro_f1

    vocab = g.schema.class_labels.get(target_type)
    if not vocab:
        raise ValueError(f"node type {target_type!r} has no class labels declared")
    if not train_ids or not val_ids:
        raise ValueError(
            f"node type {target_type!r} needs labelled train and val nodes to fine-tune,"
            f" got {len(train_ids)} train and {len(val_ids)} val"
        )
    for nid in train_ids + val_ids:
        if nid not in labels:
            raise ValueError(f"node {nid!r} has no label")
        if g.node_type(nid) != target_type:
            raise ValueError(f"node {nid!r} is not of type {target_type!r}")
    label_index = {lab: i for i, lab in enumerate(vocab)}

    def embed(ids: list[str]) -> np.ndarray:
        return forward_batch(pad_tokens(ids, table, model_cfg.hops), params.constants(), model_cfg).data

    Z_train, Z_val = embed(train_ids), embed(val_ids)
    gold_train = np.array([label_index[labels[n]] for n in train_ids])
    gold_val = np.array([label_index[labels[n]] for n in val_ids])
    Zt, Y = Tensor(Z_train), Tensor(np.eye(len(vocab))[gold_train])
    val_Zt, val_Y = Tensor(Z_val), Tensor(np.eye(len(vocab))[gold_val])

    rates = np.array(LR_GRID, dtype=float).reshape(-1, 1, 1)
    head = Tensor(np.zeros((len(LR_GRID), Z_train.shape[1], len(vocab))), requires_grad=True)

    def step(epoch: int) -> tuple[Tensor, np.ndarray]:
        # lanes are independent, so the summed loss gives each its own gradient
        loss = tc.tsum(cross_entropy(tc.matmul(Zt, head), Y))
        val = cross_entropy(tc.matmul(val_Zt, Tensor(head.data)), val_Y)
        return loss, val.data.reshape(rates.shape)

    best, best_val, best_epochs, *_ = _fit(step, {"head": head}, rates, train_cfg)
    preds = (Z_val @ best["head"]).argmax(axis=-1).tolist()
    lanes = [
        {"lr": lr, "best_epoch": int(epoch), "val_micro_f1": micro_f1(pred, gold_val.tolist())}
        for lr, epoch, pred in zip(LR_GRID, best_epochs.flat, preds)
    ]
    # best val Micro-F1, then the lowest val loss, then the earlier grid entry
    i = min(range(len(LR_GRID)), key=lambda i: (-lanes[i]["val_micro_f1"], best_val.flat[i]))
    weights = best["head"][i]

    head_name = f"{HEAD_PREFIX}{target_type}"
    if head_name in params.tensors:
        params.tensors[head_name].data[...] = weights
    else:
        params.tensors[head_name] = Tensor(weights, requires_grad=True)
    return FinetuneResult(
        params=params,
        lr=lanes[i]["lr"],
        best_epoch=lanes[i]["best_epoch"],
        val_micro_f1=lanes[i]["val_micro_f1"],
        label_vocab=list(vocab),
        grid=lanes,
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
    Z = forward_batch(pad_tokens(ids, table, model_cfg.hops), params.constants(), model_cfg).data
    return [vocab[i] for i in (Z @ head).argmax(axis=1)]


def score_pairs(
    pairs: list[tuple[str, str]],
    params: ModelParams,
    table: TokenTable,
    model_cfg: ModelConfig,
    type_of,
) -> np.ndarray:
    """Similarity scores for arbitrary node pairs (evaluation path).

    The pair endpoints are embedded in one pass and each pair is mapped to
    its two rows of ``Z`` once. Pairs are grouped by (source type, target
    type), with one type lookup per node, and each group is scored in pair
    order in batches of up to ``SCORE_BLOCK`` rows, so the temporaries of a
    batch stay the same size whatever the group's; groups share nothing, so
    the scores do not depend on the order the groups are taken in.
    """
    scores = np.zeros(len(pairs))
    if not pairs:
        return scores
    # no gradient is read here: constants record no tape, so each batch's
    # temporaries are freed as soon as they are used
    params = params.constants()
    nodes = sorted(set(chain.from_iterable(pairs)))
    index = {n: i for i, n in enumerate(nodes)}
    src, dst, *_ = _pair_rows(pairs, index, type_of)
    types, type_code = np.unique([type_of(n) for n in nodes], return_inverse=True)
    pair_code = type_code[src] * len(types) + type_code[dst]
    Z = forward_batch(pad_tokens(nodes, table, model_cfg.hops), params, model_cfg)
    for code in np.unique(pair_code).tolist():
        sel = np.flatnonzero(pair_code == code)
        src_type, dst_type = (str(types[c]) for c in divmod(code, len(types)))
        # a one-row product can round differently: a one-pair remainder starts a row early
        for start in range(0, len(sel), SCORE_BLOCK):
            block = sel[max(0, min(start, len(sel) - 2)) : start + SCORE_BLOCK]
            scores[block] = _batched_sims(src[block], dst[block], src_type, dst_type, Z, params).data
    return scores
