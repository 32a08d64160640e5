"""Shared graph fixtures, a loopback encoder service and the independent
walk-enumeration oracle.

The oracle builds its own adjacency straight from the edge list and counts by
explicit recursion, so it shares no code path with the package's counting.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest

from ella.encoder import MockBackend
from ella.hetgraph import EdgeType, HeteroGraph, SchemaDef, SynthConfig, synth_generate

ACM_LABELS = ["Database", "Wireless Communication", "Data Mining"]


def academic_schema() -> SchemaDef:
    return SchemaDef(
        node_types=["paper", "author", "organization"],
        edge_types=[
            EdgeType("writes", "author", "paper"),
            EdgeType("cites", "paper", "paper"),
            EdgeType("belongs", "author", "organization"),
        ],
        domain_blurb="an academic network",
        class_labels={"paper": list(ACM_LABELS), "author": list(ACM_LABELS)},
    )


def seeded_academic_graph() -> HeteroGraph:
    """A planted 66-node academic graph (seed 13) with all three relations,
    ``cites`` between papers among them."""
    cfg = SynthConfig(
        schema=academic_schema(),
        type_sizes={"paper": 30, "author": 30, "organization": 6},
        classes=3,
        edge_probs={"writes": (0.12, 0.01), "cites": (0.08, 0.01), "belongs": (0.4, 0.05)},
    )
    return synth_generate(cfg, seed=13)[0]


def small_academic_graph() -> HeteroGraph:
    """Two authors, three papers, one organization; text on papers only."""
    schema = academic_schema()
    nodes = [
        ("a1", "author"), ("a2", "author"),
        ("p1", "paper"), ("p2", "paper"), ("p3", "paper"),
        ("o1", "organization"),
    ]
    edges = [
        ("a1", "p1", "writes"), ("a1", "p2", "writes"),
        ("a2", "p2", "writes"), ("a2", "p3", "writes"),
        ("p1", "p2", "cites"), ("p2", "p3", "cites"),
        ("a1", "o1", "belongs"),
    ]
    text = {p: f"study of topic {p}" for p in ("p1", "p2", "p3")}
    text["o1"] = "research institute o1"
    return HeteroGraph(schema, nodes, edges, text)


def complete_typed_tree(b: int, depth: int = 3) -> HeteroGraph:
    """Complete b-ary tree with one node type per level (lvl0..lvl<depth>)."""
    types = [f"lvl{i}" for i in range(depth + 1)]
    schema = SchemaDef(
        node_types=types,
        edge_types=[EdgeType(f"child{i}", f"lvl{i}", f"lvl{i+1}") for i in range(depth)],
        domain_blurb="a layered hierarchy",
    )
    nodes = [("n0", "lvl0")]
    edges = []
    text = {"n0": "root node n0"}
    frontier = ["n0"]
    counter = 1
    for level in range(1, depth + 1):
        nxt = []
        for parent in frontier:
            for _ in range(b):
                nid = f"n{counter}"
                counter += 1
                nodes.append((nid, f"lvl{level}"))
                edges.append((parent, nid, f"child{level-1}"))
                text[nid] = f"node {nid} at level {level}"
                nxt.append(nid)
        frontier = nxt
    return HeteroGraph(schema, nodes, edges, text)


def random_hetero_graph(rng: np.random.Generator, max_nodes: int = 40, max_types: int = 4) -> HeteroGraph:
    """Random typed graph for oracle-equivalence checks."""
    n_types = int(rng.integers(2, max_types + 1))
    types = [f"t{i}" for i in range(n_types)]
    etypes = []
    for i in range(n_types):
        for j in range(i, n_types):
            if rng.random() < 0.7:
                etypes.append(EdgeType(f"e{i}_{j}", types[i], types[j]))
    if not etypes:
        etypes.append(EdgeType("e0_0", types[0], types[0]))
    schema = SchemaDef(node_types=types, edge_types=etypes, domain_blurb="a random graph")

    n = int(rng.integers(4, max_nodes + 1))
    nodes = [(f"v{i}", types[int(rng.integers(n_types))]) for i in range(n)]
    type_of = dict(nodes)
    ids_by_type: dict[str, list[str]] = {}
    for nid, t in nodes:
        ids_by_type.setdefault(t, []).append(nid)
    edges = []
    p = float(rng.uniform(0.05, 0.25))
    for et in etypes:
        for s in ids_by_type.get(et.src, []):
            for t in ids_by_type.get(et.dst, []):
                if s == t or (et.src == et.dst and s > t):
                    continue
                if rng.random() < p:
                    edges.append((s, t, et.name))
    text = {nid: f"{type_of[nid]} node {nid}" for nid, _ in nodes}
    return HeteroGraph(schema, nodes, edges, text)


def planted_node_fixture(seed: int = 0, papers: int = 300, authors: int = 300):
    """3-class bipartite planted graph with class markers in the node text."""
    schema = SchemaDef(
        node_types=["paper", "author"],
        edge_types=[EdgeType("writes", "author", "paper")],
        domain_blurb="an academic network",
        class_labels={"paper": ["C0", "C1", "C2"], "author": ["C0", "C1", "C2"]},
    )
    cfg = SynthConfig(
        schema=schema,
        type_sizes={"paper": papers, "author": authors},
        classes=3,
        edge_probs={"writes": (0.03, 0.002)},
    )
    return synth_generate(cfg, seed)


def planted_link_fixture(
    seed: int = 0,
    users: int = 64,
    items: int = 64,
    classes: int = 8,
    p_intra: float = 0.5,
    p_inter: float = 0.001,
):
    """Bipartite planted graph for the link-prediction protocol.

    Many small classes keep corruption negatives mostly inter-class, so the
    planted signal supports a high ranking ceiling.
    """
    labels = [f"C{c}" for c in range(classes)]
    schema = SchemaDef(
        node_types=["user", "item"],
        edge_types=[EdgeType("reviews", "user", "item")],
        domain_blurb="a product review network",
        class_labels={"user": labels, "item": labels},
    )
    cfg = SynthConfig(
        schema=schema,
        type_sizes={"user": users, "item": items},
        classes=classes,
        edge_probs={"reviews": (p_intra, p_inter)},
    )
    return synth_generate(cfg, seed)


def bipartite_with_edges(n_edges: int = 1000, seed: int = 0, users: int = 120, items: int = 120):
    """Bipartite graph with exactly ``n_edges`` distinct user-item edges."""
    schema = SchemaDef(
        node_types=["user", "item"], edge_types=[EdgeType("reviews", "user", "item")]
    )
    nodes = [(f"user{i:04d}", "user") for i in range(users)] + [
        (f"item{j:04d}", "item") for j in range(items)
    ]
    rng = np.random.default_rng(seed)
    pair_ids = rng.choice(users * items, size=n_edges, replace=False)
    edges = [
        (f"user{p // items:04d}", f"item{p % items:04d}", "reviews") for p in sorted(pair_ids)
    ]
    text = {nid: f"{ntype} node {nid}" for nid, ntype in nodes}
    return HeteroGraph(schema, nodes, edges, text)


def complete_bipartite(n: int) -> HeteroGraph:
    """Users u000.. and items i000.., every user reviewing every item."""
    schema = SchemaDef(node_types=["user", "item"], edge_types=[EdgeType("reviews", "user", "item")])
    users, items = [f"u{i:03d}" for i in range(n)], [f"i{i:03d}" for i in range(n)]
    nodes = [(u, "user") for u in users] + [(i, "item") for i in items]
    edges = [(u, i, "reviews") for u in users for i in items]
    return HeteroGraph(schema, nodes, edges, {nid: f"{ntype} {nid}" for nid, ntype in nodes})


def star(leaves: int) -> HeteroGraph:
    """Hub ``h`` linked to ``leaves`` leaf nodes l0000..; text on every node."""
    schema = SchemaDef(node_types=["hub", "leaf"], edge_types=[EdgeType("spoke", "hub", "leaf")])
    nodes = [("h", "hub")] + [(f"l{i:04d}", "leaf") for i in range(leaves)]
    edges = [("h", nid, "spoke") for nid, _ in nodes[1:]]
    return HeteroGraph(schema, nodes, edges, {nid: f"{ntype} {nid}" for nid, ntype in nodes})


# -- oracle -----------------------------------------------------------------


def oracle_adjacency(g: HeteroGraph) -> dict[str, list[str]]:
    adj: dict[str, list[str]] = {nid: [] for nid, _ in g.nodes}
    for s, t, _ in g.edges:
        adj[s].append(t)
        adj[t].append(s)
    for lst in adj.values():
        lst.sort()
    return adj


def oracle_walks(g: HeteroGraph, s: str, i: int) -> list[tuple[str, ...]]:
    """Exhaustive recursive enumeration of hop-i walks (endpoint != s)."""
    adj = oracle_adjacency(g)
    out: list[tuple[str, ...]] = []

    def rec(path: list[str]) -> None:
        if len(path) == i + 1:
            if path[-1] != s:
                out.append(tuple(path))
            return
        for v in adj[path[-1]]:
            rec(path + [v])

    rec([s])
    return out


def oracle_pattern_counts(g: HeteroGraph, s: str, i: int) -> dict[tuple[str, ...], int]:
    counts: dict[tuple[str, ...], int] = {}
    for walk in oracle_walks(g, s, i):
        pattern = tuple(g.node_type(v) for v in walk)
        counts[pattern] = counts.get(pattern, 0) + 1
    return counts


def oracle_hop_type_members(g: HeteroGraph, s: str, i: int, t: str) -> set[str]:
    return {w[-1] for w in oracle_walks(g, s, i) if g.node_type(w[-1]) == t}


def oracle_simple_paths(g: HeteroGraph, s: str, i: int) -> int:
    adj = oracle_adjacency(g)
    count = 0

    def rec(path: list[str]) -> None:
        nonlocal count
        if len(path) == i + 1:
            count += 1
            return
        for v in adj[path[-1]]:
            if v not in path:
                rec(path + [v])

    rec([s])
    return count


class EncoderStub(BaseHTTPRequestHandler):
    """A loopback encoder service: the two HTTP routes, served by a mock backend."""

    inner = MockBackend(dim=12)
    poolings: list[str] = []  # the pooling of every encode request served

    def log_message(self, *args):
        pass

    def _send(self, payload, status=200):
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):
        if self.path == "/v1/info":
            self._send({"name": "remote-mock", "dim": self.inner.dim})
        else:
            self._send({"error": "not found"}, status=404)

    def do_POST(self):
        if self.path != "/v1/encode":
            self._send({"error": "not found"}, status=404)
            return
        length = int(self.headers["Content-Length"])
        req = json.loads(self.rfile.read(length))
        self.poolings.append(req["pooling"])
        vec = self.inner.encode(
            req["template_id"],
            req["text"],
            [np.asarray(p) for p in req.get("placeholders", [])] or None,
            req.get("pooling", "mean"),
        )
        self._send({"embedding": vec.tolist(), "dim": len(vec)})


@pytest.fixture()
def http_server():
    server = HTTPServer(("127.0.0.1", 0), EncoderStub)
    # shutdown() waits for serve_forever's next poll; the default 0.5 s poll is all teardown time
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    server.server_close()
