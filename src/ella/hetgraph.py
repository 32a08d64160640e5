"""Heterogeneous graph data model: schema, validation, file ingestion, and
planted-partition synthesis.

Nodes and edges are typed. Edges keep their declared direction (used when
rendering relation sentences) but are traversable in both directions.
"""

from __future__ import annotations

import io
import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

log = logging.getLogger(__name__)


class GraphFormatError(ValueError):
    """Raised for malformed or inconsistent graph input files."""

    # ("nodes" or "edges", index) of the HeteroGraph input record at fault
    _record: tuple[str, int] | None = None


def _record_error(kind: str, index: int, message: str) -> GraphFormatError:
    exc = GraphFormatError(message)
    exc._record = (kind, index)
    return exc


@dataclass(frozen=True)
class EdgeType:
    name: str
    src: str
    dst: str


def _array(value, what: str) -> list:
    if not isinstance(value, list):
        raise GraphFormatError(f"{what} must be a JSON array, not {type(value).__name__}")
    return value


@dataclass
class SchemaDef:
    """Graph schema: declared node/edge types plus prompt-facing metadata.

    ``domain_blurb`` is the phrase used in prompt preambles (e.g. "an academic
    network"); ``class_labels`` maps a node type to its label vocabulary when
    that type is a classification target.
    """

    node_types: list[str]
    edge_types: list[EdgeType]
    domain_blurb: str = "a network"
    class_labels: dict[str, list[str]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        declared = set(self.node_types)
        named = [("node type", self.node_types), ("edge type", [et.name for et in self.edge_types]),
                 ("domain_blurb", [self.domain_blurb])]
        for what, names in named + [(f"class label of {t!r}", v) for t, v in self.class_labels.items()]:
            for i, name in enumerate(names):
                if not isinstance(name, str):
                    raise GraphFormatError(f"{what} must be a string, not {name!r}")
                if name in names[:i]:
                    raise GraphFormatError(f"repeated {what}: {name!r}")
        for et in self.edge_types:
            if et.src not in declared or et.dst not in declared:
                raise GraphFormatError(
                    f"edge type {et.name!r} references undeclared node type "
                    f"({et.src!r} or {et.dst!r})"
                )
        for ntype, labels in self.class_labels.items():
            if ntype not in declared:
                raise GraphFormatError(f"class_labels for unknown node type {ntype!r}")
            if not labels:
                raise GraphFormatError(f"class_labels for {ntype!r} must be nonempty")

    def edge_type(self, name: str) -> EdgeType:
        for et in self.edge_types:
            if et.name == name:
                return et
        raise KeyError(f"unknown edge type {name!r}")

    def type_adjacency(self) -> dict[str, set[str]]:
        """Undirected node-type adjacency induced by the declared edge types."""
        adj: dict[str, set[str]] = {t: set() for t in self.node_types}
        for et in self.edge_types:
            adj[et.src].add(et.dst)
            adj[et.dst].add(et.src)
        return adj

    def to_dict(self) -> dict:
        return {
            "node_types": list(self.node_types),
            "edge_types": [{"name": e.name, "src": e.src, "dst": e.dst} for e in self.edge_types],
            "domain_blurb": self.domain_blurb,
            "class_labels": {k: list(v) for k, v in self.class_labels.items()},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SchemaDef":
        try:
            edge_types = _array(d["edge_types"], "edge_types")
            labels = d.get("class_labels", {})
            return cls(
                node_types=_array(d["node_types"], "node_types"),
                edge_types=[EdgeType(e["name"], e["src"], e["dst"]) for e in edge_types],
                domain_blurb=d.get("domain_blurb", "a network"),
                class_labels={k: _array(v, f"class_labels for {k!r}") for k, v in labels.items()},
            )
        except (AttributeError, KeyError, TypeError) as exc:
            raise GraphFormatError(f"malformed schema document: {exc}") from exc


class HeteroGraph:
    """Immutable typed graph.

    ``nodes`` is a list of (node-id, node-type); ``edges`` a list of
    (src, dst, edge-type) in the schema's declared orientation; ``node_text``
    a partial mapping of node-id to text. Adjacency is undirected.
    """

    def __init__(
        self,
        schema: SchemaDef,
        nodes: list[tuple[str, str]],
        edges: list[tuple[str, str, str]],
        node_text: dict[str, str] | None = None,
    ) -> None:
        self.schema = schema
        self.nodes = list(nodes)
        self.node_text = dict(node_text or {})

        self._type_of: dict[str, str] = {}
        declared_nt = set(schema.node_types)
        for i, (nid, ntype) in enumerate(self.nodes):
            if ntype not in declared_nt:
                raise _record_error("nodes", i, f"node {nid!r} has undeclared type {ntype!r}")
            if nid in self._type_of:
                raise _record_error("nodes", i, f"duplicate node id {nid!r}")
            self._type_of[nid] = ntype
        for nid in self.node_text:
            if nid not in self._type_of:
                raise GraphFormatError(f"node_text for unknown node {nid!r}")
        self._of_type = {t: sorted(n for n, nt in self.nodes if nt == t) for t in schema.node_types}

        etypes = {et.name: et for et in schema.edge_types}
        seen: set[tuple[str, str, str]] = set()
        self.edges: list[tuple[str, str, str]] = []
        self.duplicates_collapsed = 0
        for i, (src, dst, ename) in enumerate(edges):
            for nid in (src, dst):
                if nid not in self._type_of:
                    raise _record_error("edges", i, f"unknown node id {nid!r}")
            et = etypes.get(ename)
            if et is None:
                raise _record_error("edges", i, f"undeclared edge type {ename!r}")
            st, dt = self._type_of[src], self._type_of[dst]
            if (st, dt) == (et.src, et.dst):
                canon = (src, dst, ename)
            elif (dt, st) == (et.src, et.dst):
                # the record is written against the declared direction
                canon = (dst, src, ename)
            else:
                raise _record_error(
                    "edges", i,
                    f"edge ({src!r}, {dst!r}) of type {ename!r} joins {st}/{dt}, "
                    f"schema declares {et.src}/{et.dst}",
                )
            if canon in seen:
                self.duplicates_collapsed += 1
                continue
            seen.add(canon)
            self.edges.append(canon)
        if self.duplicates_collapsed:
            log.warning("collapsed %d duplicate edges", self.duplicates_collapsed)

        if len(schema.node_types) + len(schema.edge_types) <= 2:
            log.warning(
                "schema has |node types| + |edge types| <= 2; graph is effectively homogeneous"
            )

        self._adj: dict[str, list[tuple[str, str]]] = {nid: [] for nid, _ in self.nodes}
        for src, dst, ename in self.edges:
            self._adj[src].append((dst, ename))
            self._adj[dst].append((src, ename))
        for lst in self._adj.values():
            lst.sort()
        self._edge_set = seen

    # -- lookups ---------------------------------------------------------

    def __contains__(self, nid: str) -> bool:
        return nid in self._type_of

    def num_nodes(self) -> int:
        return len(self.nodes)

    def num_edges(self) -> int:
        return len(self.edges)

    def node_type(self, nid: str) -> str:
        try:
            return self._type_of[nid]
        except KeyError:
            raise KeyError(f"unknown node {nid!r}") from None

    def node_ids(self) -> list[str]:
        return sorted(self._type_of)

    def nodes_of_type(self, ntype: str) -> list[str]:
        if ntype not in self._of_type:
            raise KeyError(f"unknown node type {ntype!r}")
        return list(self._of_type[ntype])

    def has_edge(self, src: str, dst: str, etype: str) -> bool:
        """Membership irrespective of record orientation."""
        return (src, dst, etype) in self._edge_set or (dst, src, etype) in self._edge_set

    def incident(self, nid: str) -> list[tuple[str, str]]:
        """All (neighbor, edge-type) pairs of ``nid``, both directions, sorted."""
        try:
            return self._adj[nid]
        except KeyError:
            raise KeyError(f"unknown node {nid!r}") from None

    def type_counts(self) -> dict[str, int]:
        return {t: len(ids) for t, ids in self._of_type.items()}


def typed_neighbors(g: HeteroGraph, v: str) -> list[str]:
    """Sorted ids adjacent to ``v`` over any edge type."""
    return sorted({nbr for nbr, _ in g.incident(v)})


# -- file I/O -------------------------------------------------------------


def _read_text(path: str | Path) -> io.StringIO:
    """The UTF-8 text of ``path``, read as lines the way ``open`` reads them;
    bytes that are not UTF-8 raise a GraphFormatError naming the file and line."""
    data = Path(path).read_bytes()
    try:
        return io.StringIO(data.decode("utf-8"), newline=None)
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise GraphFormatError(f"{path} line {line}: not UTF-8 text ({exc.reason})") from None


def _read_jsonl(path: str | Path, required: tuple[str, ...], optional: tuple[str, ...] = ()) -> list[dict]:
    """The records of a JSONL file; every listed field holds a string."""
    records = []
    for lineno, line in enumerate(_read_text(path), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise GraphFormatError(f"{path} line {lineno}: invalid JSON ({exc.msg})") from exc
        if not isinstance(rec, dict):
            raise GraphFormatError(f"{path} line {lineno}: record is not an object")
        for key in (*required, *optional):
            if key not in rec and key in required:
                raise GraphFormatError(f"{path} line {lineno}: missing field {key!r}")
            if not isinstance(rec.get(key, ""), str):
                raise GraphFormatError(f"{path} line {lineno}: field {key!r} must be a string, not {rec[key]!r}")
        rec["_line"] = lineno
        records.append(rec)
    return records


def load_schema(schema_path: str | Path) -> SchemaDef:
    text = _read_text(schema_path)
    try:
        return SchemaDef.from_dict(json.load(text))
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"{schema_path}: invalid JSON ({exc.msg})") from exc
    except GraphFormatError as exc:
        raise GraphFormatError(f"{schema_path}: {exc}") from exc


def load_graph(
    nodes_path: str | Path, edges_path: str | Path, schema_path: str | Path
) -> HeteroGraph:
    """Load and validate a graph from JSONL node/edge files plus a schema."""
    schema = load_schema(schema_path)
    node_recs = _read_jsonl(nodes_path, required=("id", "type"), optional=("text",))
    edge_recs = _read_jsonl(edges_path, required=("src", "dst", "etype"))

    nodes = [(rec["id"], rec["type"]) for rec in node_recs]
    node_text = {rec["id"]: rec["text"] for rec in node_recs if rec.get("text")}
    edges = [(rec["src"], rec["dst"], rec["etype"]) for rec in edge_recs]
    try:
        return HeteroGraph(schema, nodes, edges, node_text)
    except GraphFormatError as exc:  # every error these records can cause names one of them
        kind, i = exc._record
        path, recs = (nodes_path, node_recs) if kind == "nodes" else (edges_path, edge_recs)
        raise GraphFormatError(f"{path} line {recs[i]['_line']}: {exc}") from exc


def save_graph(g: HeteroGraph, out_dir: str | Path) -> Path:
    """Write the graph as nodes.jsonl / edges.jsonl / schema.json under a directory."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "nodes.jsonl", "w", encoding="utf-8") as fh:
        for nid, ntype in sorted(g.nodes):
            rec: dict = {"id": nid, "type": ntype}
            if nid in g.node_text:
                rec["text"] = g.node_text[nid]
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    with open(out / "edges.jsonl", "w", encoding="utf-8") as fh:
        for src, dst, ename in sorted(g.edges):
            fh.write(json.dumps({"src": src, "dst": dst, "etype": ename}, sort_keys=True) + "\n")
    with open(out / "schema.json", "w", encoding="utf-8") as fh:
        json.dump(g.schema.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return out


def load_graph_dir(graph_dir: str | Path) -> HeteroGraph:
    d = Path(graph_dir)
    return load_graph(d / "nodes.jsonl", d / "edges.jsonl", d / "schema.json")


def load_labels(path: str | Path) -> dict[str, str]:
    """Read a two-column CSV (id,label) with a one-line header."""
    labels: dict[str, str] = {}
    fh = _read_text(path)
    if not fh.readline().lower().startswith("id,"):
        raise GraphFormatError(f"{path}: expected 'id,label' header")
    for lineno, line in enumerate(fh, start=2):
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split(",", 1)
        if len(parts) != 2:
            raise GraphFormatError(f"{path} line {lineno}: expected 'id,label'")
        if parts[0] in labels:
            raise GraphFormatError(f"{path} line {lineno}: repeated node id {parts[0]!r}")
        labels[parts[0]] = parts[1]
    return labels


def save_labels(labels: dict[str, str], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id,label\n")
        for nid in sorted(labels):
            fh.write(f"{nid},{labels[nid]}\n")


# -- synthetic generation --------------------------------------------------

# node text of a synthetic node; PrototypeBackend reads its ``class:<c>`` marker
_SYNTH_TEXT = "{ntype} {nid} class:{cls}"


@dataclass
class SynthConfig:
    """Planted-partition generator configuration.

    ``type_sizes`` gives node counts per node type; every node is assigned one
    of ``classes`` classes round-robin. For each schema edge type, an edge is
    drawn independently per candidate pair with probability ``p_intra`` for
    same-class pairs and ``p_inter`` otherwise.
    """

    schema: SchemaDef
    type_sizes: dict[str, int]
    classes: int
    edge_probs: dict[str, tuple[float, float]]  # edge-type name -> (p_intra, p_inter)

    def __post_init__(self) -> None:
        for ntype in self.type_sizes:
            if ntype not in self.schema.node_types:
                raise GraphFormatError(f"type_sizes for unknown node type {ntype!r}")
        for ename, (p_in, p_out) in self.edge_probs.items():
            self.schema.edge_type(ename)
            if not (0.0 <= p_in <= 1.0 and 0.0 <= p_out <= 1.0):
                raise ValueError(f"edge probabilities for {ename!r} outside [0, 1]")
        if self.classes < 1:
            raise ValueError("classes must be >= 1")


def synth_generate(cfg: SynthConfig, seed: int) -> tuple[HeteroGraph, dict[str, str]]:
    """Generate a planted-partition heterogeneous graph.

    Pure function of (cfg, seed): the same inputs yield a bit-identical graph.
    Returns the graph and a node-id -> class-label mapping covering every node.
    """
    rng = np.random.default_rng(seed)

    nodes: list[tuple[str, str]] = []
    node_text: dict[str, str] = {}
    labels: dict[str, str] = {}
    ids_by_type: dict[str, list[str]] = {}
    for ntype in cfg.schema.node_types:
        n = cfg.type_sizes.get(ntype, 0)
        ids = [f"{ntype}{i:04d}" for i in range(n)]
        ids_by_type[ntype] = ids
        for i, nid in enumerate(ids):
            cls = i % cfg.classes
            nodes.append((nid, ntype))
            labels[nid] = f"C{cls}"
            node_text[nid] = _SYNTH_TEXT.format(ntype=ntype, nid=nid, cls=cls)

    edges: list[tuple[str, str, str]] = []
    for et in cfg.schema.edge_types:
        if et.name not in cfg.edge_probs:
            continue
        p_intra, p_inter = cfg.edge_probs[et.name]
        src_ids = ids_by_type.get(et.src, [])
        dst_ids = ids_by_type.get(et.dst, [])
        if not src_ids or not dst_ids:
            continue
        # candidate pairs by index, one draw each: a < b within one type,
        # row-major across two; a node's class is its index mod ``classes``
        if et.src == et.dst:
            a, b = np.triu_indices(len(src_ids), k=1)
        else:
            a, b = (x.ravel() for x in np.indices((len(src_ids), len(dst_ids))))
        draws = rng.random(len(a))
        hit = draws < np.where(a % cfg.classes == b % cfg.classes, p_intra, p_inter)
        edges.extend((src_ids[i], dst_ids[j], et.name) for i, j in zip(a[hit], b[hit]))

    return HeteroGraph(cfg.schema, nodes, edges, node_text), labels
