"""Multi-hop walk statistics over a heterogeneous graph.

A walk of hop ``i`` is a sequence of ``i`` edges starting at the target node.
Node revisits and immediate backtracking are allowed; only walks that
*terminate* at the target are excluded. Patterns are node-type sequences.

``meta_path_profile``, ``hop_types_present`` and ``hop_type_neighbors`` are
views on one level-by-level walk per target, memoized for the last (graph,
target) asked about, since tokenizing a target asks for all three at every
hop. The memo is sound: a ``HeteroGraph`` is immutable and hashes by
identity, and the memo's strong reference keeps its id from being reused.
Every view returns fresh objects, so a caller may mutate them.
"""

from __future__ import annotations

import functools
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
    patterns, _members = _walk(g, s).level(i)
    return MetaPathProfile(target=s, hop=i, patterns=dict(patterns))


def hop_type_neighbors(g: HeteroGraph, s: str, i: int, t: str) -> set[str]:
    """Endpoints of hop-``i`` walks from ``s`` having type ``t`` (``s`` excluded)."""
    _check_node(g, s)
    if t not in g.schema.node_types:
        raise KeyError(f"unknown node type {t!r}")
    if i < 1:
        raise ValueError("hop must be >= 1")
    return set(_walk(g, s).level(i)[1].get(t, ()))


def hop_types_present(g: HeteroGraph, s: str, i: int) -> list[str]:
    """Node types that occur as hop-``i`` walk endpoints of ``s``, sorted."""
    _check_node(g, s)
    return list(_walk(g, s).level(i)[1]) if i >= 1 else []


class _Walk:
    """All walks from one target, counted one level (hop) at a time, on demand.

    ``frontier`` maps each type-sequence prefix to {node at its end: walk
    count}; ``levels[i - 1]`` keeps what hop ``i`` yields: its pattern stats,
    and its endpoints by type (sorted by type, the target excluded).
    """

    def __init__(self, g: HeteroGraph, s: str) -> None:
        self.g, self.s = g, s
        self.frontier: dict[tuple[str, ...], dict[str, int]] = {(g.node_type(s),): {s: 1}}
        self.levels: list[tuple[dict[tuple[str, ...], PatternStat], dict[str, set[str]]]] = []

    def level(self, i: int) -> tuple[dict[tuple[str, ...], PatternStat], dict[str, set[str]]]:
        while len(self.levels) < i:
            self._extend()
        return self.levels[i - 1]

    def _extend(self) -> None:
        g, s = self.g, self.s
        nxt: dict[tuple[str, ...], dict[str, int]] = {}
        for prefix, counts in self.frontier.items():
            reach: dict[str, int] = {}
            for u, c in counts.items():
                for v, _et in g.incident(u):
                    reach[v] = reach.get(v, 0) + c
            for v, c in reach.items():
                nxt.setdefault(prefix + (g.node_type(v),), {})[v] = c
        self.frontier = nxt
        pattern_counts: dict[tuple[str, ...], int] = {}
        by_endpoint: dict[str, int] = {}
        members: dict[str, set[str]] = {}
        for pattern, counts in sorted(nxt.items()):
            c = sum(counts.values()) - counts.get(s, 0)
            if c > 0:
                pattern_counts[pattern] = c
                by_endpoint[pattern[-1]] = by_endpoint.get(pattern[-1], 0) + c
                members.setdefault(pattern[-1], set()).update(counts.keys() - {s})
        patterns = {p: PatternStat(c, c / by_endpoint[p[-1]]) for p, c in pattern_counts.items()}
        self.levels.append((patterns, dict(sorted(members.items()))))


@functools.lru_cache(maxsize=1)
def _walk(g: HeteroGraph, s: str) -> _Walk:
    return _Walk(g, s)


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
