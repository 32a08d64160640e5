"""Multi-hop walk statistics over a heterogeneous graph.

A walk of hop ``i`` is a sequence of ``i`` edges starting at the target node.
Node revisits and immediate backtracking are allowed; only walks that
*terminate* at the target are excluded. Patterns are node-type sequences.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass
class HopTypeNeighborhood:
    target: str
    hop: int
    type: str
    members: set[str]


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
    its cost follows (prefix, node) pairs, not walks: counts are exact, uncapped.
    """
    _check_node(g, s)
    if i < 1:
        raise ValueError("hop must be >= 1")

    # frontier: type-sequence prefix -> {node at frontier: walk count}
    frontier: dict[tuple[str, ...], dict[str, int]] = {(g.node_type(s),): {s: 1}}
    for _ in range(i):
        nxt: dict[tuple[str, ...], dict[str, int]] = {}
        for prefix, counts in frontier.items():
            for u, c in counts.items():
                for v, _et in g.incident(u):
                    key = prefix + (g.node_type(v),)
                    bucket = nxt.setdefault(key, {})
                    bucket[v] = bucket.get(v, 0) + c
        frontier = nxt

    patterns_count: dict[tuple[str, ...], int] = {}
    for pattern, counts in frontier.items():
        c = sum(cnt for node, cnt in counts.items() if node != s)
        if c > 0:
            patterns_count[pattern] = c

    by_endpoint: dict[str, int] = {}
    for pattern, c in patterns_count.items():
        by_endpoint[pattern[-1]] = by_endpoint.get(pattern[-1], 0) + c
    patterns = {
        pattern: PatternStat(c, c / by_endpoint[pattern[-1]])
        for pattern, c in sorted(patterns_count.items())
    }
    return MetaPathProfile(target=s, hop=i, patterns=patterns)


def hop_type_neighbors(g: HeteroGraph, s: str, i: int, t: str) -> HopTypeNeighborhood:
    """Endpoints of hop-``i`` walks from ``s`` having type ``t`` (``s`` excluded)."""
    _check_node(g, s)
    if t not in g.schema.node_types:
        raise KeyError(f"unknown node type {t!r}")
    if i < 1:
        raise ValueError("hop must be >= 1")
    members = {v for v in _hop_endpoints(g, s, i) if g.node_type(v) == t}
    return HopTypeNeighborhood(target=s, hop=i, type=t, members=members)


def hop_types_present(g: HeteroGraph, s: str, i: int) -> list[str]:
    """Node types that occur as hop-``i`` walk endpoints of ``s``, sorted."""
    _check_node(g, s)
    return sorted({g.node_type(v) for v in _hop_endpoints(g, s, i)})


def _hop_endpoints(g: HeteroGraph, s: str, i: int) -> set[str]:
    """Nodes that end some hop-``i`` walk from ``s``, ``s`` excluded."""
    frontier = {s}
    for _ in range(i):
        frontier = {v for u in frontier for v, _et in g.incident(u)}
    frontier.discard(s)
    return frontier


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
