"""Pluggable embedding backends, the persistent vector cache, and graph
tokenization into node tokens and per-(node, hop, type) relation tokens.

The pooling trick keeps backend calls linear in the hop count: each
(target, hop, type) triple costs one call against the mean of the member
node tokens, however large the neighborhood is.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import re
import struct
import urllib.error
import urllib.request
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .hetgraph import HeteroGraph, typed_neighbors
from .pathstats import Adjacency, hop_type_neighbors, hop_types_present, meta_path_profile, walk_chunk
from .promptkit import TemplateId, build_relation_prompt
from .tensorcore import load_arrays, save_arrays

NODE_TEXT_TEMPLATE_ID = "node_text"

CACHE_MAGIC = b"ELLACACHE v2\n"

WALK_CHUNK = 256  # targets whose walks tokenize_graph counts together

MOCK_DIM = 64  # the mock backends' vector width unless one is given

HTTP_TIMEOUT = 30.0  # seconds HttpBackend waits for each reply


class EncoderError(RuntimeError):
    pass


class EncoderTransportError(EncoderError):
    """Remote backend unreachable or returned garbage; safe to retry."""


def stable_hash64(*parts: str | bytes) -> int:
    """64-bit stable hash of the given strings or bytes (order-sensitive)."""
    # blake2b streams: one update over the joined parts equals one update per part
    data = b"\x1f".join([p.encode("utf-8") if isinstance(p, str) else p for p in parts]) + b"\x1f"
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "little")


def placeholder_bytes(v: np.ndarray) -> bytes:
    """A placeholder as cache keys hold it: equal rounded values have equal
    bytes, so near-equal placeholders share a key."""
    return np.asarray(v, dtype="<f8").round(6).tobytes()


def _unit(v: np.ndarray) -> np.ndarray:
    n = float(np.linalg.norm(v))
    if n == 0.0:
        raise EncoderError("cannot normalize a zero vector")
    return v / n


class MockBackend:
    """Deterministic stand-in encoder.

    Seeds a counter-based PRNG (Philox) with a stable 64-bit hash of
    (template_id, text), draws a base vector uniform in [-1, 1]^dim, and mixes
    in the mean of any placeholder vectors at equal weight. Outputs are unit
    norm. Pure function of its inputs.
    """

    def __init__(self, dim: int = MOCK_DIM) -> None:
        if dim < 1:
            raise ValueError("dim must be positive")
        self.name = "mock"
        self.dim = dim

    def _base(self, template_id: str, text: str) -> np.ndarray:
        key = stable_hash64(template_id, text)
        rng = np.random.Generator(np.random.Philox(key=key))
        return rng.uniform(-1.0, 1.0, size=self.dim)

    def encode(
        self,
        template_id: str,
        text: str,
        placeholders: list[np.ndarray] | None = None,
        pooling: str = "mean",
    ) -> np.ndarray:
        if not text:
            raise EncoderError("cannot encode empty text")
        h = self._base(template_id, text)
        if placeholders:
            for p in placeholders:
                if np.asarray(p).shape != (self.dim,):
                    raise EncoderError(
                        f"placeholder dimension {np.asarray(p).shape} != ({self.dim},)"
                    )
            mix = 0.5 * h + 0.5 * np.mean(np.asarray(placeholders, dtype=np.float64), axis=0)
            if np.linalg.norm(mix) == 0.0:
                mix = h
            return _unit(mix)
        return _unit(h)


class PrototypeBackend(MockBackend):
    """Mock variant that plants class structure for synthetic fixtures.

    Texts carrying a ``class:<c>`` marker embed near a class prototype
    direction with hash-noise at weight ``noise``; all other inputs behave
    exactly like MockBackend. Deterministic.
    """

    _MARKER = re.compile(r"class:(\w+)")

    def __init__(self, dim: int = MOCK_DIM, noise: float = 0.5) -> None:
        super().__init__(dim)
        self.name = "prototype"
        self.noise = noise

    def _prototype(self, cls: str) -> np.ndarray:
        key = stable_hash64("prototype", cls)
        rng = np.random.Generator(np.random.Philox(key=key))
        return _unit(rng.uniform(-1.0, 1.0, size=self.dim))

    def encode(self, template_id, text, placeholders=None, pooling="mean"):
        m = self._MARKER.search(text or "")
        if m is None or placeholders:
            return super().encode(template_id, text, placeholders, pooling)
        h = _unit(self._base(template_id, text))
        return _unit(self._prototype(m.group(1)) + self.noise * h)


def _json_dim(doc: dict) -> int:
    """``doc["dim"]``, which must be a positive JSON integer (not a float or a boolean)."""
    if type(doc["dim"]) is not int or doc["dim"] < 1:
        raise ValueError(f"dim {doc['dim']!r} is not a positive integer")
    return doc["dim"]


class HttpBackend:
    """Client for the remote encoder wire format.

    Handshake: GET <endpoint>/v1/info -> {"name", "dim"}.
    Encode: POST <endpoint>/v1/encode with {"template_id", "text",
    "placeholders", "pooling"} -> {"embedding", "dim"}.
    """

    def __init__(self, endpoint: str, pooling: str = "mean") -> None:
        self.endpoint = endpoint.rstrip("/")
        self.pooling = pooling
        info = self._json(f"{self.endpoint}/v1/info")
        try:
            self.name, self.dim = str(info["name"]), _json_dim(info)
        except (KeyError, TypeError, ValueError) as exc:
            raise EncoderTransportError(f"bad handshake response from {self.endpoint}/v1/info: {info!r}") from exc

    def _json(self, url: str, body: bytes | None = None):
        """The JSON reply to a GET of ``url``, or to a POST of the JSON ``body``;
        a malformed URL, a transport failure or an undecodable reply names the
        method and the URL."""
        method, headers = ("GET", {}) if body is None else ("POST", {"Content-Type": "application/json"})
        try:
            req = urllib.request.Request(url, body, headers)  # a POST when it has a body
            with urllib.request.urlopen(req, timeout=HTTP_TIMEOUT) as resp:
                return json.loads(resp.read().decode("utf-8"))
        except (urllib.error.URLError, OSError, ValueError) as exc:  # a JSONDecodeError is a ValueError
            raise EncoderTransportError(f"{method} {url} failed: {exc}") from exc

    def encode(self, template_id, text, placeholders=None):
        if not text:
            raise EncoderError("cannot encode empty text")
        body = json.dumps(
            {
                "template_id": template_id,
                "text": text,
                "placeholders": [np.asarray(p, dtype=float).tolist() for p in (placeholders or [])],
                "pooling": self.pooling,
            }
        ).encode("utf-8")
        url = f"{self.endpoint}/v1/encode"
        payload = self._json(url, body)
        try:
            vec = np.asarray(payload["embedding"], dtype=np.float64)
            dim = _json_dim(payload)
        except (KeyError, TypeError, ValueError) as exc:
            raise EncoderTransportError(f"bad encode response from {url}: {payload!r}") from exc
        if vec.shape != (dim,) or dim != self.dim:
            raise EncoderTransportError(
                f"{url}: response dim {vec.shape}/{dim} disagrees with handshake dim {self.dim}"
            )
        return vec


class VectorCache:
    """Persistent, append-only embedding cache keyed by a stable 64-bit hash.

    The cache appends to its file through one handle, opened on the first miss
    and released by :meth:`close`, at the end of a ``with`` block, or when
    the cache is collected.
    """

    _fh: BinaryIO | None = None

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._store: dict[int, np.ndarray] = {}
        self._torn_tail: int | None = None
        if self.path.exists():
            self._load()

    def _load(self) -> None:
        data = self.path.read_bytes()
        if data.startswith(b"ELLACACHE v1\n"):
            raise EncoderError(f"{self.path}: cache file has an older key format (v1); delete it")
        if CACHE_MAGIC.startswith(data):
            off = 0  # empty, or a header cut off by an interrupted first append
        elif not data.startswith(CACHE_MAGIC):
            raise EncoderError(f"{self.path}: not a cache file (bad header)")
        else:
            off = len(CACHE_MAGIC)
            while off + 12 <= len(data):  # one structured view per run of records of one dim
                dim = int.from_bytes(data[off + 8 : off + 12], "little")
                if off + 12 + 8 * dim > len(data):
                    break
                rec = np.dtype([("key", "<u8"), ("dim", "<u4"), ("vec", "<f8", (dim,))])
                recs = np.frombuffer(data, rec, count=(len(data) - off) // rec.itemsize, offset=off)
                same = recs["dim"] == dim
                n = len(recs) if same.all() else int(same.argmin())
                self._store.update(zip(recs["key"][:n].tolist(), recs["vec"][:n].copy()))
                off += n * rec.itemsize
        if off < len(data):
            self._torn_tail = off  # an interrupted append; the next put cuts it off

    @staticmethod
    def key_for(
        backend_name: str, template_id: str, text: str, placeholders: list[np.ndarray | bytes]
    ) -> int:
        """The key of one request; a placeholder may come as its ``placeholder_bytes``."""
        head = f"{backend_name}\x1f{template_id}\x1f{text}".encode("utf-8")
        phs = [p if isinstance(p, bytes) else placeholder_bytes(p) for p in placeholders]
        return stable_hash64(b"\x1f".join([head, *phs]))

    def get(self, key: int) -> np.ndarray | None:
        vec = self._store.get(key)
        return None if vec is None else vec.copy()

    def put(self, key: int, vec: np.ndarray) -> np.ndarray:
        """Insert unless present; returns the stored vector. A new record is
        in the file before this returns."""
        arr = np.asarray(vec, dtype=np.float64)
        if key in self._store:
            return self._store[key].copy()
        self._store[key] = arr.copy()
        self._append(struct.pack("<QI", key, arr.size) + arr.astype("<f8").tobytes())
        return arr.copy()

    def _append(self, record: bytes) -> None:
        if self._fh is None:
            self._fh = open(self.path, "ab")
            if self._torn_tail is not None:
                # records appended after a torn one would be misaligned
                self._fh.truncate(self._torn_tail)
                self._torn_tail = None
            if self._fh.seek(0, os.SEEK_END) == 0:
                record = CACHE_MAGIC + record
        self._fh.write(record)
        self._fh.flush()

    def close(self) -> None:
        """Release the append handle; a later put opens it again."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> VectorCache:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    __del__ = close

    def __len__(self) -> int:
        return len(self._store)


@dataclass
class TokenTable:
    """Embedding store for one tokenization run.

    Holds exactly one node token per node and at most one relation token per
    (node, hop, type); only pooled vectors are kept, never per-walk outputs.
    """

    dim: int
    node_tokens: dict[str, np.ndarray] = field(default_factory=dict)
    relation_tokens: dict[tuple[str, int, str], np.ndarray] = field(default_factory=dict)
    cache_hits: int = 0
    calls_by_template: dict[str, int] = field(default_factory=dict)

    @property
    def call_count(self) -> int:
        """Backend calls made, over every template."""
        return sum(self.calls_by_template.values())

    def stored_per_target(self, target: str) -> int:
        return self.stored_counts([target])[0]

    def stored_counts(self, targets: list[str]) -> list[int]:
        """Stored vectors of each target, from one pass over the relation keys."""
        rel = Counter(s for s, _, _ in self.relation_tokens)
        return [rel[s] + (s in self.node_tokens) for s in targets]


class TokenizeRun:
    """What the requests of one tokenization share: the backend that encodes
    them, the table and cache they fill, the backend's cache owner, and, once
    every node has its token, the node tokens as a matrix whose rows follow
    sorted node ids."""

    def __init__(self, backend, table: TokenTable, cache: VectorCache | None = None) -> None:
        self.backend, self.table, self.cache = backend, table, cache
        self.owner = f"{backend.name}:{backend.dim}"
        if isinstance(backend, HttpBackend):  # its vectors follow the pooling it asks for
            self.owner += f":{backend.pooling}"

    @functools.cached_property
    def rows(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(sorted(self.table.node_tokens))}

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        return np.array([self.table.node_tokens[v] for v in self.rows]).reshape(-1, self.table.dim)

    def placeholder(self, s: str) -> tuple[np.ndarray, bytes]:
        """``s``'s node token and its ``placeholder_bytes``."""
        if s not in self.table.node_tokens:
            raise EncoderError(f"node token for {s!r} missing")
        return self.table.node_tokens[s], placeholder_bytes(self.table.node_tokens[s])

    def call(self, template_id: str, text: str, placeholders: list[np.ndarray], keys: list):
        """One call of the run's backend on the placeholders, unless the cache
        holds the request; ``keys`` are the placeholders as ``VectorCache.key_for``
        takes them."""
        if not text:
            raise EncoderError("cannot encode empty text")
        table, cache = self.table, self.cache
        if cache is not None:
            key = VectorCache.key_for(self.owner, template_id, text, keys)
            hit = cache.get(key)
            if hit is not None:
                table.cache_hits += 1
                return hit
        table.calls_by_template[template_id] = table.calls_by_template.get(template_id, 0) + 1
        vec = self.backend.encode(template_id, text, placeholders)
        return vec if cache is None else cache.put(key, vec)


def pooled_node_token(g: HeteroGraph, t: str, table: TokenTable) -> np.ndarray:
    """Mean of the already-encoded tokens of ``t``'s text-bearing neighbors.

    No backend call: textless nodes inherit averaged neighbor semantics.
    """
    nbrs = [v for v in typed_neighbors(g, t) if v in g.node_text]
    if not nbrs:
        raise EncoderError(f"node {t!r} has no text-bearing neighbor to pool from")
    missing = [v for v in nbrs if v not in table.node_tokens]
    if missing:
        raise EncoderError(f"neighbors of {t!r} lack node tokens: {missing[:5]}")
    return np.mean([table.node_tokens[v] for v in nbrs], axis=0)


def relation_token(
    backend,
    s: str,
    hop: int,
    t: str,
    run: TokenizeRun,
    s_placeholder: tuple[np.ndarray, bytes],
    members: set[str],
    template: TemplateId,
    prompt: str,
) -> np.ndarray:
    """Encode the hop-``hop`` type-``t`` relation of ``s``: exactly one call
    of ``run.backend``, on the ``template`` prompt text ``prompt``. ``backend``
    is ``run.backend``; it stays the first argument because perfbench's probe
    counts each target's calls on it.

    The placeholders are ``s_placeholder``, which is ``run.placeholder(s)``,
    and the mean of the ``members``' node tokens (zero vector when there are
    none, paired with a 0.00-proportion prompt).
    """
    try:
        rows = sorted([run.rows[v] for v in members])  # the order of sorted ids
    except KeyError:
        missing = sorted(v for v in members if v not in run.rows)
        raise EncoderError(f"members of ({s!r}, hop {hop}, {t!r}) lack node tokens: {missing[:5]}") from None
    if rows:
        # the two steps np.mean takes (sum along the axis, divide by the count): same bits
        pooled = np.add.reduce(run.matrix.take(rows, axis=0), axis=0) / len(rows)
    else:
        pooled = np.zeros(run.table.dim)
    token, key = s_placeholder
    vec = run.call(template.value, prompt, [token, pooled], [key, pooled])
    run.table.relation_tokens[(s, hop, t)] = vec
    return vec


def tokenize_graph(
    backend,
    g: HeteroGraph,
    targets: list[str] | None = None,
    K: int = 3,
    template: TemplateId = TemplateId.PretrainLink,
    cache: VectorCache | None = None,
    workers: int = 1,
) -> TokenTable:
    """Produce node tokens for every node and relation tokens for all targets.

    Targets run one after another in the given order, so a run inserts (and
    ``save_tokens`` writes) its rows in the same order every time. The walks
    of each ``WALK_CHUNK`` targets are counted together, on a CSR copy of the
    graph made once per call. Per target the relation-token call count is
    bounded by |node types| * K regardless of neighborhood sizes. ``workers``
    must be 1.
    """
    if workers != 1:
        raise ValueError(f"workers must be 1 (tokenization is serial), got {workers!r}")
    if K < 1:
        raise ValueError("K must be >= 1")
    if targets is None:
        targets = g.node_ids()
    else:
        for s in targets:
            if s not in g:
                raise KeyError(f"unknown target {s!r}")
    table = TokenTable(dim=backend.dim)
    run = TokenizeRun(backend, table, cache)

    for nid in g.node_ids():
        if nid in g.node_text:
            table.node_tokens[nid] = run.call(NODE_TEXT_TEMPLATE_ID, g.node_text[nid], [], [])
    for nid in g.node_ids():
        if nid not in g.node_text:
            table.node_tokens[nid] = pooled_node_token(g, nid, table)

    adjacency = Adjacency(g)
    for start in range(0, len(targets), WALK_CHUNK):
        walk_chunk(adjacency, targets[start : start + WALK_CHUNK])
        for s in targets[start : start + WALK_CHUNK]:
            src_type, s_placeholder = g.node_type(s), run.placeholder(s)
            for hop in range(1, K + 1):
                profile = meta_path_profile(g, s, hop)
                for t in hop_types_present(g, s, hop):
                    members = hop_type_neighbors(g, s, hop, t)
                    prompt = build_relation_prompt(g.schema, src_type, t, hop, profile, template)
                    relation_token(backend, s, hop, t, run, s_placeholder, members, template, prompt)
    return table


# -- token table persistence ------------------------------------------------

_TOKEN_FORMAT = 2


def save_tokens(table: TokenTable, path: str | Path) -> None:
    """Write the table as ``node`` (N, dim) and ``rel`` (M, dim) float64
    matrices plus ``index``, a UTF-8 JSON document naming their rows in order.
    A vector whose shape is not ``(dim,)`` raises ``EncoderError`` naming it."""
    for key, vec in (*table.node_tokens.items(), *table.relation_tokens.items()):
        if np.shape(vec) != (table.dim,):
            raise EncoderError(f"cannot store token {key!r}: shape {np.shape(vec)}, not ({table.dim},)")
    index = {
        "format": _TOKEN_FORMAT,
        "node_ids": list(table.node_tokens),
        "relation_keys": list(table.relation_tokens),
    }
    save_arrays(
        {
            "node": np.array(list(table.node_tokens.values()), dtype=np.float64).reshape(-1, table.dim),
            "rel": np.array(list(table.relation_tokens.values()), dtype=np.float64).reshape(-1, table.dim),
            "index": np.frombuffer(json.dumps(index).encode("utf-8"), dtype=np.uint8),
        },
        path,
    )


def load_tokens(path: str | Path) -> TokenTable:
    """Read a :func:`save_tokens` file. Any other layout, an older format
    included, raises ``EncoderError`` naming the file; a truncated or padded
    container raises ``ValueError`` naming it."""
    arrays = load_arrays(path)
    try:
        node, rel, index = arrays["node"], arrays["rel"], json.loads(arrays["index"].tobytes())
        nodes = dict(zip(index["node_ids"], node, strict=True))
        rels = {(s, hop, t): vec for (s, hop, t), vec in zip(index["relation_keys"], rel, strict=True)}
        if not (
            len(arrays) == 3
            and index["format"] == _TOKEN_FORMAT
            and node.ndim == rel.ndim == 2 and node.shape[1] == rel.shape[1]
            and (len(nodes), len(rels)) == (len(node), len(rel))
            and all(type(s) is str and type(t) is str and type(hop) is int and hop >= 1 for s, hop, t in rels)
            and all(type(n) is str for n in nodes)
        ):
            raise ValueError("its index does not name each row of its matrices once")
    except (KeyError, TypeError, ValueError) as exc:
        reason = f"not a token file of format {_TOKEN_FORMAT} ({type(exc).__name__}: {exc})"
        raise EncoderError(f"{path}: {reason}; re-run `ella tokenize` to rebuild it") from None
    return TokenTable(node.shape[1], nodes, rels)
