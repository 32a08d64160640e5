"""Hop-level relation graph transformer.

Per target node: project the LLM-space tokens into model space, mix the
relation tokens of each hop with a shared pre-LN transformer (type block),
read each hop out against the target token, run the resulting K+1 hop tokens
through a second transformer (hop block), and combine them through a gated
readout into the final embedding.

Targets are embedded together: their relation tokens are padded into one
(B, K, T) batch of token sets with a mask, so a training epoch is a single
forward and backward pass rather than one small tape per node.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from . import tensorcore as tc
from .encoder import TokenTable
from .tensorcore import Tensor

HEAD_PREFIX = "head/"


@dataclass
class ModelConfig:
    d: int = 128
    heads: int = 4
    type_layers: int = 2
    hop_layers: int = 3
    hops: int = 3
    d_llm: int = 64
    ffn_mult: int = 2

    def __post_init__(self) -> None:
        if self.d % self.heads != 0:
            raise ValueError(f"hidden dim {self.d} not divisible by {self.heads} heads")
        if self.type_layers < 1 or self.hop_layers < 1:
            raise ValueError("layer counts must be >= 1")
        if self.hops < 1:
            raise ValueError("hops must be >= 1")

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "heads": self.heads,
            "type_layers": self.type_layers,
            "hop_layers": self.hop_layers,
            "hops": self.hops,
            "d_llm": self.d_llm,
            "ffn_mult": self.ffn_mult,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(**d)


class ModelParams:
    """Named parameter tensors; heads live under the ``head/`` prefix."""

    def __init__(self, tensors: dict[str, Tensor]):
        self.tensors = tensors

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def backbone(self) -> dict[str, Tensor]:
        return {n: t for n, t in self.tensors.items() if not n.startswith(HEAD_PREFIX)}

    def content_hash(self, names: list[str] | None = None) -> str:
        """SHA-256 over (name, shape, raw bytes) of the selected tensors."""
        h = hashlib.sha256()
        for name in sorted(names if names is not None else self.tensors):
            t = self.tensors[name]
            h.update(name.encode("utf-8"))
            h.update(str(t.shape).encode("utf-8"))
            h.update(np.ascontiguousarray(t.data).tobytes())
        return h.hexdigest()

    def copy_values(self) -> dict[str, np.ndarray]:
        return {n: t.data.copy() for n, t in self.tensors.items()}

    def restore_values(self, values: dict[str, np.ndarray]) -> None:
        for n, arr in values.items():
            self.tensors[n].data[...] = arr


def _layer_names(prefix: str, cfg: ModelConfig) -> list[tuple[str, tuple[int, ...], int]]:
    d, f = cfg.d, cfg.d * cfg.ffn_mult
    dk = cfg.d // cfg.heads
    names: list[tuple[str, tuple[int, ...], int]] = []
    names.append((f"{prefix}/ln1/g", (d,), 0))
    names.append((f"{prefix}/ln1/b", (d,), 0))
    for j in range(cfg.heads):
        names.append((f"{prefix}/attn/q{j}", (d, dk), d))
        names.append((f"{prefix}/attn/k{j}", (d, dk), d))
        names.append((f"{prefix}/attn/v{j}", (d, dk), d))
    names.append((f"{prefix}/attn/o", (d, d), d))
    names.append((f"{prefix}/ln2/g", (d,), 0))
    names.append((f"{prefix}/ln2/b", (d,), 0))
    names.append((f"{prefix}/ffn/w1", (d, f), d))
    names.append((f"{prefix}/ffn/b1", (f,), 0))
    names.append((f"{prefix}/ffn/w2", (f, d), f))
    names.append((f"{prefix}/ffn/b2", (d,), 0))
    return names


def init_params(
    cfg: ModelConfig,
    node_types: list[str],
    class_counts: dict[str, int] | None = None,
    seed: int = 0,
) -> ModelParams:
    """Seeded uniform(+-1/sqrt(fan_in)) init; LayerNorm affine at identity;
    classification heads start at zero (uniform class probabilities)."""
    rng = np.random.default_rng(seed)
    spec: list[tuple[str, tuple[int, ...], int]] = [
        ("proj/W", (cfg.d_llm, cfg.d), cfg.d_llm),
        ("proj/b", (cfg.d,), 0),
    ]
    for l in range(cfg.type_layers):
        spec.extend(_layer_names(f"type/{l}", cfg))
    for l in range(cfg.hop_layers):
        spec.extend(_layer_names(f"hop/{l}", cfg))
    spec.append(("readout/w", (2 * cfg.d, 1), 2 * cfg.d))
    for ntype in sorted(node_types):
        spec.append((f"sim/{ntype}", (cfg.d, cfg.d), cfg.d))

    tensors: dict[str, Tensor] = {}
    for name, shape, fan_in in spec:
        if name.endswith("/g"):
            data = np.ones(shape)
        elif fan_in == 0:
            data = np.zeros(shape)
        else:
            data = tc.uniform_init(rng, shape, fan_in)
        tensors[name] = Tensor(data, requires_grad=True)
    for ntype, n_classes in sorted((class_counts or {}).items()):
        tensors[f"{HEAD_PREFIX}{ntype}"] = Tensor(
            np.zeros((cfg.d, n_classes)), requires_grad=True
        )
    return ModelParams(tensors)


@dataclass
class AttentionCapture:
    """Softmax rows recorded during forward passes, for export and invariants."""

    softmax_rows: list[np.ndarray] = field(default_factory=list)
    alpha: dict[tuple[str, int], tuple[list[str], np.ndarray]] = field(default_factory=dict)
    gamma: dict[str, tuple[list[int], np.ndarray]] = field(default_factory=dict)


# -- blocks -------------------------------------------------------------------
#
# Every block takes token sets as (..., n, d) tensors: one set is (n, d), a
# batch of sets carries leading axes. An optional boolean ``keep`` of shape
# (..., n) marks the real tokens; padded ones are masked out as attention keys
# and readout entries, so they change no real output and receive no gradient.


def _all_real(x: Tensor) -> np.ndarray:
    """A ``keep`` marking every token of the (..., n, d) sets in ``x`` real."""
    return np.ones(x.shape[:-1], dtype=bool)


def _record_rows(capture: AttentionCapture, probs: np.ndarray, keep: np.ndarray) -> None:
    """Store each softmax row of real queries, restricted to real keys."""
    for lead in np.ndindex(keep.shape[:-1]):
        sel = keep[lead]
        if sel.any():
            capture.softmax_rows.extend(probs[lead][np.ix_(sel, sel)])


def project(params: ModelParams, x: Tensor) -> Tensor:
    """Affine map from encoder space (..., d_llm) into model space (..., d)."""
    W = params["proj/W"]
    if x.shape[-1] != W.shape[0]:
        raise tc.ShapeError(f"project: input dim {x.shape[-1]} != d_llm {W.shape[0]}")
    return tc.add(tc.matmul(x, W), params["proj/b"])


def _mha(
    params: ModelParams,
    prefix: str,
    x: Tensor,
    heads: int,
    capture: AttentionCapture | None,
    keep: np.ndarray | None = None,
) -> Tensor:
    dk = params[f"{prefix}/attn/q0"].shape[1]
    inv_sqrt = 1.0 / np.sqrt(dk)
    keep = _all_real(x) if keep is None else keep
    key_mask = keep[..., None, :]
    outs = []
    for j in range(heads):
        q = tc.matmul(x, params[f"{prefix}/attn/q{j}"])
        k = tc.matmul(x, params[f"{prefix}/attn/k{j}"])
        v = tc.matmul(x, params[f"{prefix}/attn/v{j}"])
        attn = tc.softmax(tc.scale(tc.matmul(q, tc.transpose(k)), inv_sqrt), key_mask)
        if capture is not None:
            _record_rows(capture, attn.data, keep)
        outs.append(tc.matmul(attn, v))
    return tc.matmul(tc.concat(outs, axis=-1), params[f"{prefix}/attn/o"])


def _ffn(params: ModelParams, prefix: str, x: Tensor) -> Tensor:
    h = tc.relu(tc.add(tc.matmul(x, params[f"{prefix}/ffn/w1"]), params[f"{prefix}/ffn/b1"]))
    return tc.add(tc.matmul(h, params[f"{prefix}/ffn/w2"]), params[f"{prefix}/ffn/b2"])


def _encoder_layer(
    params: ModelParams,
    prefix: str,
    x: Tensor,
    heads: int,
    capture: AttentionCapture | None,
    keep: np.ndarray | None,
) -> Tensor:
    # pre-LN residual form: x + MHA(LN(x)), then x + FFN(LN(x))
    normed = tc.layer_norm(x, params[f"{prefix}/ln1/g"], params[f"{prefix}/ln1/b"])
    x = tc.add(x, _mha(params, prefix, normed, heads, capture, keep))
    normed = tc.layer_norm(x, params[f"{prefix}/ln2/g"], params[f"{prefix}/ln2/b"])
    return tc.add(x, _ffn(params, prefix, normed))


def type_block(
    params: ModelParams,
    U: Tensor,
    cfg: ModelConfig,
    capture: AttentionCapture | None = None,
    keep: np.ndarray | None = None,
) -> Tensor:
    """Mix the per-type relation tokens of one hop (shared weights across hops)."""
    if U.shape[-2] < 1:
        raise tc.ShapeError("type_block needs at least one token")
    x = U
    for l in range(cfg.type_layers):
        x = _encoder_layer(params, f"type/{l}", x, cfg.heads, capture, keep)
    return x


def type_readout(
    u_proj: Tensor,
    U_hat: Tensor,
    capture: AttentionCapture | None = None,
    capture_key: tuple[str, int] | None = None,
    type_names: list[str] | None = None,
    keep: np.ndarray | None = None,
) -> Tensor:
    """Attention of the target token (..., 1, d) over the mixed type tokens
    (..., m, d); returns the hop feature token as a (..., 1, d) row.

    For a batch, ``capture_key`` and ``type_names`` hold one entry per
    leading index of ``U_hat`` (in C order); sets with no real token are not
    recorded.
    """
    if U_hat.shape[-2] < 1:
        raise tc.ShapeError("type_readout needs at least one token")
    keep = _all_real(U_hat) if keep is None else keep
    scores = tc.matmul(u_proj, tc.transpose(U_hat))  # (..., 1, m)
    alpha = tc.softmax(scores, keep[..., None, :])
    if capture is not None:
        lead_shape = U_hat.shape[:-2]
        keys = [capture_key] if not lead_shape else capture_key
        names = [type_names] if not lead_shape else type_names
        for i, lead in enumerate(np.ndindex(lead_shape)):
            if not keep[lead].any():
                continue
            row = alpha.data[lead][0][keep[lead]]
            capture.softmax_rows.append(row.copy())
            if keys is not None and keys[i] is not None:
                capture.alpha[keys[i]] = (list(names[i] or []), row.copy())
    return tc.matmul(alpha, U_hat)


def hop_block(
    params: ModelParams,
    H: Tensor,
    cfg: ModelConfig,
    capture: AttentionCapture | None = None,
    keep: np.ndarray | None = None,
) -> Tensor:
    """Mix the K+1 hop tokens; position 0 is the target node itself."""
    x = H
    for l in range(cfg.hop_layers):
        x = _encoder_layer(params, f"hop/{l}", x, cfg.heads, capture, keep)
    return x


def hop_readout(
    params: ModelParams,
    H_hat: Tensor,
    capture: AttentionCapture | None = None,
    target: str | list[str] | None = None,
    keep: np.ndarray | None = None,
) -> Tensor:
    """Gated combination: z = h0 + sum_j gamma_j * h_j with gamma a softmax of
    per-hop scores of the concatenated (h0 || h_j) pairs. Empty sum for K=0.

    ``H_hat`` is (..., K+1, d) and the result (..., 1, d). ``keep`` (..., K)
    marks the hops that are present, all by default. ``target`` names the
    node of each set in C order (one id for a single set); gamma is recorded
    under it over the present hops only, with their hop ids.
    """
    k_eff = H_hat.shape[-2] - 1
    lead_shape = H_hat.shape[:-2]
    keep = np.ones(lead_shape + (k_eff,), dtype=bool) if keep is None else keep
    h0 = tc.gather(H_hat, [0], axis=-2)
    if k_eff == 0:
        z, gamma = h0, np.zeros(lead_shape + (1, 0))
    else:
        rest = tc.gather(H_hat, list(range(1, k_eff + 1)), axis=-2)
        pairs = tc.concat([tc.mul(Tensor(np.ones((k_eff, 1))), h0), rest], axis=-1)  # (..., k, 2d)
        scores = tc.transpose(tc.matmul(pairs, params["readout/w"]))  # (..., 1, k)
        weights = tc.softmax(scores, keep[..., None, :])
        z, gamma = tc.add(h0, tc.matmul(weights, rest)), weights.data
    if capture is not None:
        targets = [target] if not lead_shape else target
        for i, lead in enumerate(np.ndindex(lead_shape)):
            row = gamma[lead][0][keep[lead]]
            if len(row):
                capture.softmax_rows.append(row.copy())
            if targets is not None and targets[i] is not None:
                hops = [int(j) + 1 for j in np.flatnonzero(keep[lead])]
                capture.gamma[targets[i]] = (hops, row.copy())
    return z


def _padded_tokens(
    ids: list[str], table: TokenTable, K: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[list[list[str]]]]:
    """Node tokens (B, d_llm), relation tokens (B, K, T, d_llm) with the
    present types of each (node, hop) in sorted order from slot 0, their mask
    (B, K, T), and the type names per (node, hop). T is the largest type
    count at any hop in the batch, and at least 1."""
    for s in ids:
        if s not in table.node_tokens:
            raise KeyError(f"no node token for {s!r}")
    # one pass over the table's relation tokens for the whole batch
    by_node: dict[str, list[list[str]]] = {s: [[] for _ in range(K)] for s in ids}
    for s, hop, t in table.relation_tokens:
        if s in by_node and 1 <= hop <= K:
            by_node[s][hop - 1].append(t)
    for per_node in by_node.values():
        for types in per_node:
            types.sort()
    names = [by_node[s] for s in ids]
    T = max([1] + [len(types) for per_node in by_node.values() for types in per_node])
    B, d_llm = len(ids), table.dim
    rel = np.zeros((B, K, T, d_llm))
    keep = np.zeros((B, K, T), dtype=bool)
    for b, s in enumerate(ids):
        for k, types in enumerate(names[b]):
            for i, t in enumerate(types):
                rel[b, k, i] = table.relation_tokens[(s, k + 1, t)]
            keep[b, k, : len(types)] = True
    node = np.stack([table.node_tokens[s] for s in ids])
    return node, rel, keep, names


def forward_batch(
    ids: list[str],
    table: TokenTable,
    params: ModelParams,
    cfg: ModelConfig,
    capture: AttentionCapture | None = None,
) -> Tensor:
    """Embed the target nodes ``ids`` in one pass; returns Z as a (B, d) tensor.

    Relation tokens are padded to (B, K, T) sets; padded type slots and
    absent hops are masked out, so each row equals the node's embedding on
    its own up to floating-point rounding that depends on the batch size,
    and an isolated node collapses to the projected node token passing
    through the hop block alone.
    """
    if not ids:
        raise ValueError("forward_batch needs at least one node id")
    node, rel, keep, names = _padded_tokens(ids, table, cfg.hops)
    B, K, d = len(ids), cfg.hops, cfg.d
    u_proj = tc.reshape(project(params, Tensor(node)), (B, 1, d))
    U_hat = type_block(params, project(params, Tensor(rel)), cfg, capture, keep)
    keys = [(s, hop) for s in ids for hop in range(1, K + 1)]
    h = type_readout(
        tc.reshape(u_proj, (B, 1, 1, d)), U_hat, capture, keys,
        [types for per_node in names for types in per_node], keep,
    )  # (B, K, 1, d)
    present = keep.any(axis=-1)  # (B, K)
    H = tc.concat([u_proj, tc.reshape(h, (B, K, d))], axis=1)
    hop_keep = np.concatenate([np.ones((B, 1), dtype=bool), present], axis=1)
    H_hat = hop_block(params, H, cfg, capture, hop_keep)
    z = hop_readout(params, H_hat, capture, target=ids, keep=present)
    return tc.reshape(z, (B, d))


def forward(
    s: str,
    table: TokenTable,
    params: ModelParams,
    cfg: ModelConfig,
    capture: AttentionCapture | None = None,
) -> Tensor:
    """Embed one target node; returns z as a (1, d) tensor (row 0 of
    :func:`forward_batch` over ``[s]``)."""
    return forward_batch([s], table, params, cfg, capture)
