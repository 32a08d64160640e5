"""Multi-hop walk statistics over a heterogeneous graph.

A walk of hop ``i`` is a sequence of ``i`` edges starting at the target node.
Node revisits and immediate backtracking are allowed; only walks that
*terminate* at the target are excluded. Patterns are node-type sequences.

``meta_path_profile``, ``hop_types_present`` and ``hop_type_neighbors`` are
views on the last walk made, since tokenizing a target asks for all three at
every hop. ``walk_chunk`` walks many targets at once: numpy counts each hop
for all of them over a CSR copy of the graph (``Adjacency``), when a view
first asks for it. A view asked about another target walks it alone the same
way. The memo is sound: a ``HeteroGraph`` is immutable, and the memo's strong
reference keeps its id from being reused. Every view returns fresh objects,
so a caller may mutate them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hetgraph import HeteroGraph

DEFAULT_MAX_WALKS = 10**6


class WalkExplosionError(RuntimeError):
    """``enumerate_walks`` would build more walks than its cap allows."""


@dataclass(frozen=True)
class PatternStat:
    count: int
    proportion: float


@dataclass
class MetaPathProfile:
    """Per (target, hop) walk counts grouped by node-type sequence.

    Proportions are normalized within each endpoint type: for every pattern,
    proportion = count / (all hop-i walks ending at a node of that type).
    """

    target: str
    hop: int
    patterns: dict[tuple[str, ...], PatternStat]

    def restricted_to(self, endpoint_type: str) -> dict[tuple[str, ...], PatternStat]:
        return {p: s for p, s in self.patterns.items() if p[-1] == endpoint_type}


def _check_node(g: HeteroGraph, s: str) -> None:
    if s not in g:
        raise KeyError(f"unknown node {s!r}")


def enumerate_walks(
    g: HeteroGraph, s: str, i: int, max_walks: int = DEFAULT_MAX_WALKS
) -> list[tuple[str, ...]]:
    """All hop-``i`` walks from ``s`` as node-id tuples (length i+1), in DFS order.

    Parallel edges of different types contribute distinct walks, so the result
    is a multiset of node sequences.
    """
    _check_node(g, s)
    if i < 1:
        raise ValueError("hop must be >= 1")
    walks: list[tuple[str, ...]] = []

    def extend(path: list[str], depth: int) -> None:
        if depth == i:
            if path[-1] != s:
                if len(walks) >= max_walks:
                    raise WalkExplosionError(
                        f"more than {max_walks} walks at hop {i} from {s!r}"
                    )
                walks.append(tuple(path))
            return
        for nbr, _et in g.incident(path[-1]):
            path.append(nbr)
            extend(path, depth + 1)
            path.pop()

    extend([s], 0)
    return walks


def meta_path_profile(g: HeteroGraph, s: str, i: int) -> MetaPathProfile:
    """Count hop-``i`` walks from ``s`` per node-type sequence.

    Counting composes adjacency level by level (no explicit enumeration), so
    its cost follows (prefix, node) pairs, not walks. Counts are exact up to
    2**63 - 1 walks per hop; past that an ``OverflowError`` names the target.
    """
    _check_node(g, s)
    if i < 1:
        raise ValueError("hop must be >= 1")
    patterns, _members = _walk(g, s).level(s, i)
    return MetaPathProfile(target=s, hop=i, patterns=dict(patterns))


def hop_type_neighbors(g: HeteroGraph, s: str, i: int, t: str) -> set[str]:
    """Endpoints of hop-``i`` walks from ``s`` having type ``t`` (``s`` excluded)."""
    _check_node(g, s)
    if t not in g.schema.node_types:
        raise KeyError(f"unknown node type {t!r}")
    if i < 1:
        raise ValueError("hop must be >= 1")
    return set(_walk(g, s).level(s, i)[1].get(t, ()))


def hop_types_present(g: HeteroGraph, s: str, i: int) -> list[str]:
    """Node types that occur as hop-``i`` walk endpoints of ``s``, sorted."""
    _check_node(g, s)
    return list(_walk(g, s).level(s, i)[1]) if i >= 1 else []


class Adjacency:
    """A CSR copy of ``g.incident``: row ``r`` of ``indptr``/``indices`` lists
    the neighbor rows of ``ids[r]`` (sorted ids), one per incident edge."""

    def __init__(self, g: HeteroGraph) -> None:
        self.g, self.ids = g, np.array(g.node_ids(), dtype=object)
        self.row = {v: r for r, v in enumerate(self.ids.tolist())}
        nbrs = [g.incident(v) for v in self.row]
        self.indptr = np.cumsum([0] + [len(n) for n in nbrs], dtype=np.int64)
        self.indices = np.fromiter((self.row[v] for n in nbrs for v, _ in n), np.int64, int(self.indptr[-1]))
        self.types = sorted(g.schema.node_types)
        self.type_of = np.array([self.types.index(g.node_type(v)) for v in self.row], dtype=np.int64)


class _Walk:
    """All walks from a chunk of targets, counted one level (hop) at a time, on demand.

    The frontier holds one entry per (target, type-sequence prefix, node at
    its end) with its walk count, sorted in that order; prefix ids follow the
    sorted order of ``prefixes``. ``levels[i - 1][k]`` keeps what hop ``i``
    yields for the ``k``-th target: its pattern stats, and its endpoints by
    type (sorted by type, the target excluded).
    """

    def __init__(self, adj: Adjacency, targets: list[str]) -> None:
        self.adj, self.pos = adj, {s: k for k, s in enumerate(dict.fromkeys(targets))}
        self.rows = np.array([adj.row[s] for s in self.pos], dtype=np.int64)
        self.tgt, self.node = np.arange(len(self.rows)), self.rows
        self.pid, self.count = adj.type_of[self.rows], np.ones(len(self.rows), dtype=np.int64)
        self.prefixes = [(t,) for t in adj.types]
        self.levels: list[list[tuple[dict, dict[str, set[str]]]]] = []

    def level(self, s: str, i: int) -> tuple[dict[tuple[str, ...], PatternStat], dict[str, set[str]]]:
        while len(self.levels) < i:
            self._extend()
        return self.levels[i - 1][self.pos[s]]

    def _extend(self) -> None:
        a, T, N = self.adj, len(self.adj.types), len(self.adj.ids)
        lo = a.indptr[self.node]
        deg = a.indptr[self.node + 1] - lo
        # no count of a target's next hop, nor a partial sum, passes its walk total;
        # float totals are exact below 2**53, so larger ones are summed again as ints
        total = np.bincount(self.tgt, self.count * deg.astype(np.float64), len(self.rows))
        for k in np.flatnonzero(total > min(_COUNT_LIMIT, 2**52)).tolist():
            on = self.tgt == k
            if sum(c * d for c, d in zip(self.count[on].tolist(), deg[on].tolist())) > _COUNT_LIMIT:
                s, i = list(self.pos)[k], len(self.levels) + 1
                raise OverflowError(f"more than {_COUNT_LIMIT} hop-{i} walks from {s!r}: too many to count")
        # ragged gather: entry e yields one entry per incident edge of its node
        e = np.repeat(np.arange(len(deg)), deg)
        nbr = a.indices[np.repeat(lo - (np.cumsum(deg) - deg), deg) + np.arange(len(e))]
        raw, inv = np.unique(self.pid[e] * T + a.type_of[nbr], return_inverse=True)
        self.prefixes = [self.prefixes[r // T] + (a.types[r % T],) for r in raw.tolist()]
        key = (self.tgt[e] * len(raw) + inv) * N + nbr
        order = np.argsort(key, kind="stable")
        key, count = key[order], self.count[e][order]
        starts = np.flatnonzero(np.diff(key, prepend=-1))
        self.count = np.add.reduceat(count, starts)
        key, self.node = np.divmod(key[starts], N)
        self.tgt, self.pid = np.divmod(key, len(raw))
        self.levels.append(self._views())

    def _views(self) -> list[tuple[dict, dict[str, set[str]]]]:
        a, T = self.adj, len(self.adj.types)
        keep = self.node != self.rows[self.tgt]
        starts = np.flatnonzero(np.diff(self.tgt * len(self.prefixes) + self.pid, prepend=-1))
        counts = np.add.reduceat(np.where(keep, self.count, 0), starts)
        nz = counts > 0
        tgt, pid, counts = self.tgt[starts][nz], self.pid[starts][nz], counts[nz]
        # each pattern's walks over all of its target's walks ending at its endpoint type
        ends = tgt * T + a.type_of[self.node[starts][nz]]
        inv = np.unique(ends, return_inverse=True)[1]
        by_end = np.zeros(len(counts), dtype=np.int64)
        np.add.at(by_end, inv, counts)
        out = [({}, {}) for _ in self.pos]
        for k, p, c, d in zip(tgt.tolist(), pid.tolist(), counts.tolist(), by_end[inv].tolist()):
            out[k][0][self.prefixes[p]] = PatternStat(c, c / d)
        # members: distinct kept nodes per (target, type), sorted by type
        mk = np.unique((self.tgt[keep] * T + a.type_of[self.node[keep]]) * len(a.ids) + self.node[keep])
        group, node = np.divmod(mk, len(a.ids))
        cut = np.flatnonzero(np.diff(group, prepend=-1))
        names = a.ids[node].tolist()
        for g, lo, hi in zip(group[cut].tolist(), cut.tolist(), [*cut[1:].tolist(), len(names)]):
            out[g // T][1][a.types[g % T]] = set(names[lo:hi])
        return out


_COUNT_LIMIT = 2**63 - 1  # walk counts are int64
_last: _Walk | None = None


def walk_chunk(adj: Adjacency, targets: list[str]) -> None:
    """Walk ``targets`` together; the views answer for them from this walk
    until another one is made."""
    global _last
    _last = _Walk(adj, targets)


def _walk(g: HeteroGraph, s: str) -> _Walk:
    """The last walk if it covers (``g``, ``s``), else a walk of ``s`` alone."""
    w = _last
    if w is None or w.adj.g is not g or s not in w.pos:
        walk_chunk(w.adj if w is not None and w.adj.g is g else Adjacency(g), [s])
    return _last


def count_simple_paths(g: HeteroGraph, s: str, i: int) -> int:
    """Number of length-``i`` simple paths (no node revisits) from ``s``.

    This is the per-path-instance unit of work a tokenizer without pooling
    would pay one encoder call for; used for the naive-cost comparison.
    """
    _check_node(g, s)

    def walk(u: str, depth: int, visited: set[str]) -> int:
        if depth == i:
            return 1
        total = 0
        for v, _et in g.incident(u):
            if v in visited:
                continue
            visited.add(v)
            total += walk(v, depth + 1, visited)
            visited.remove(v)
        return total

    return walk(s, 0, {s})
