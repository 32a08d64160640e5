"""Checks on the program's outputs, each computed apart from the program.

Every check either returns or raises :class:`CheckFailed`. None compares
against a stored copy of an earlier output: each recounts the figure its own
way (brute-force pair counting, adjacency-matrix products, level-by-level
reachability) or tests a property the method must have.
"""

from __future__ import annotations

import numpy as np

from ella.evalkit import auc, micro_f1


class CheckFailed(AssertionError):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# -- graph oracles -------------------------------------------------------------


def adjacency(node_ids: list[str], edges) -> np.ndarray:
    """Undirected edge-count matrix over ``node_ids``: entry (u, v) is the
    number of edges of any type joining u and v."""
    pos = {nid: i for i, nid in enumerate(node_ids)}
    A = np.zeros((len(node_ids), len(node_ids)))
    for s, t, _ in edges:
        A[pos[s], pos[t]] += 1.0
        A[pos[t], pos[s]] += 1.0
    return A


def expected_stored_vectors(A: np.ndarray, types: list[str], K: int) -> np.ndarray:
    """Per node: 1 node token plus one relation token per (hop, type) such
    that some walk of exactly ``hop`` steps ends at a node of that type other
    than the node itself. Reachability is expanded level by level from ``A``."""
    n = len(types)
    masks = {t: np.array([x == t for x in types]) for t in sorted(set(types))}
    reach = np.eye(n)
    stored = np.ones(n, dtype=np.int64)
    for _ in range(K):
        reach = (reach @ A > 0).astype(float)
        ends = reach.astype(bool)
        np.fill_diagonal(ends, False)
        for mask in masks.values():
            stored += ends[:, mask].any(axis=1)
    return stored


def walk_counts(A: np.ndarray, types: list[str], s: int, hop: int) -> dict[tuple[str, ...], int]:
    """Hop-``hop`` walk counts from node index ``s`` per node-type sequence,
    by multiplying a start vector through ``A`` once per step and splitting
    it by endpoint type; walks ending at ``s`` are left out."""
    type_arr = np.array(types)
    start = np.zeros(len(types))
    start[s] = 1.0
    frontier = {(types[s],): start}
    for _ in range(hop):
        nxt = {}
        for prefix, vec in frontier.items():
            reached = vec @ A
            for t in sorted(set(types)):
                part = np.where(type_arr == t, reached, 0.0)
                if part.any():
                    nxt[prefix + (t,)] = part
        frontier = nxt
    out = {}
    for pattern, vec in frontier.items():
        count = int(round(vec.sum() - vec[s]))
        if count:
            out[pattern] = count
    return out


# -- tokenization ----------------------------------------------------------------


def check_relation_calls(calls_per_target: dict[str, int], n_types: int, K: int) -> None:
    """The paper's bound: at most |node types| * K relation calls per target."""
    bound = n_types * K
    worst = max(calls_per_target.items(), key=lambda kv: kv[1], default=(None, 0))
    _require(worst[1] <= bound, f"{worst[0]} made {worst[1]} relation calls > {bound}")


def check_stored_vectors(table, node_ids: list[str], expected: np.ndarray) -> None:
    stored = dict.fromkeys(node_ids, 0)
    for nid in table.node_tokens:
        stored[nid] += 1
    for s, _, _ in table.relation_tokens:
        stored[s] += 1
    for nid, want in zip(node_ids, expected):
        _require(stored[nid] == want, f"{nid} stores {stored[nid]} vectors, expected {want}")


def check_walk_counts(profile, expected: dict[tuple[str, ...], int]) -> None:
    got = {p: stat.count for p, stat in profile.patterns.items()}
    _require(
        got == expected,
        f"meta_path_profile({profile.target}, hop {profile.hop}) counts {got} != {expected}",
    )


def tables_identical(a, b) -> bool:
    """Same keys and bit-identical vectors in both token tables."""
    if a.node_tokens.keys() != b.node_tokens.keys():
        return False
    if a.relation_tokens.keys() != b.relation_tokens.keys():
        return False
    for mine, theirs in ((a.node_tokens, b.node_tokens), (a.relation_tokens, b.relation_tokens)):
        for key, vec in mine.items():
            other = theirs[key]
            if vec.shape != other.shape or vec.tobytes() != other.tobytes():
                return False
    return True


def check_warm_pass(cold, warm, backend_calls: int) -> None:
    _require(backend_calls == 0, f"warm pass made {backend_calls} backend calls")
    _require(tables_identical(cold, warm), "warm pass tokens differ from the cold pass")


def check_round_trip(table, loaded) -> None:
    _require(tables_identical(table, loaded), "load_tokens(save_tokens(t)) differs from t")


# -- training and evaluation -----------------------------------------------------


def check_loss_decreased(train_curve: list[float]) -> None:
    _require(
        train_curve[-1] < train_curve[0],
        f"final training loss {train_curve[-1]:.4f} not below the first {train_curve[0]:.4f}",
    )


def check_negatives(negatives: list[tuple[str, str, str]], edges) -> None:
    """No sampled negative is an edge of the full graph, in either direction."""
    edge_set = {(s, t, e) for s, t, e in edges} | {(t, s, e) for s, t, e in edges}
    bad = [n for n in negatives if n in edge_set]
    _require(not bad, f"{len(bad)} sampled negatives are edges, e.g. {bad[:3]}")


def brute_force_auc(scores, labels) -> float:
    """Share of (positive, negative) pairs ranked correctly, ties counting 1/2."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos, neg = scores[labels == 1], scores[labels == 0]
    wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
    return float(wins) / (len(pos) * len(neg))


def check_auc(scores, labels, floor: float) -> float:
    value = auc(list(scores), list(labels))
    recount = brute_force_auc(scores, labels)
    _require(abs(value - recount) <= 1e-12, f"evalkit.auc {value!r} != pair count {recount!r}")
    _require(value >= floor, f"AUC {value:.4f} below the floor {floor}")
    return value


def check_micro_f1(preds: list[str], golds: list[str], vocab: list[str], floor: float) -> float:
    value = micro_f1(preds, golds, labels=vocab)
    recount = sum(p == g for p, g in zip(preds, golds)) / len(golds)
    _require(abs(value - recount) <= 1e-12, f"evalkit.micro_f1 {value!r} != recount {recount!r}")
    _require(value >= floor, f"Micro-F1 {value:.4f} below the floor {floor}")
    return value


def check_backbone_unchanged(before: str, after: str) -> None:
    _require(before == after, "finetune changed the backbone")


def check_scores(scores: np.ndarray, n_pairs: int) -> None:
    _require(scores.shape == (n_pairs,), f"{scores.shape} scores for {n_pairs} pairs")
    _require(
        bool(np.all((scores >= 0.0) & (scores <= 1.0))), "a similarity score lies outside [0, 1]"
    )
