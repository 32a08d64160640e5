"""Pluggable embedding backends, the persistent vector cache, and graph
tokenization into node tokens and per-(node, hop, type) relation tokens.

The pooling trick keeps backend calls linear in the hop count: each
(target, hop, type) triple costs one call against the mean of the member
node tokens, however large the neighborhood is.
"""

from __future__ import annotations

import hashlib
import json
import re
import struct
import threading
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .hetgraph import HeteroGraph, typed_neighbors
from .pathstats import HopTypeNeighborhood, hop_type_neighbors, hop_types_present, meta_path_profile
from .promptkit import PromptInstance, TemplateId, bind_placeholders, build_relation_prompt

NODE_TEXT_TEMPLATE_ID = "node_text"

CACHE_MAGIC = b"ELLACACHE v1\n"


class EncoderError(RuntimeError):
    pass


class EncoderTransportError(EncoderError):
    """Remote backend unreachable or returned garbage; safe to retry."""


def stable_hash64(*parts: str) -> int:
    """64-bit stable hash of the given strings (order-sensitive)."""
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        h.update(part.encode("utf-8"))
        h.update(b"\x1f")
    return int.from_bytes(h.digest(), "little")


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

    def __init__(self, dim: int = 64) -> None:
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

    def __init__(self, dim: int = 64, noise: float = 0.5) -> None:
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
        if not text:
            raise EncoderError("cannot encode empty text")
        h = _unit(self._base(template_id, text))
        return _unit(self._prototype(m.group(1)) + self.noise * h)


class HttpBackend:
    """Client for the remote encoder wire format.

    Handshake: GET <endpoint>/v1/info -> {"name", "dim"}.
    Encode: POST <endpoint>/v1/encode with {"template_id", "text",
    "placeholders", "pooling"} -> {"embedding", "dim"}.
    """

    def __init__(self, endpoint: str, pooling: str = "mean", timeout: float = 30.0) -> None:
        self.endpoint = endpoint.rstrip("/")
        self.pooling = pooling
        self.timeout = timeout
        info = self._get_json(f"{self.endpoint}/v1/info")
        try:
            self.name = str(info["name"])
            self.dim = int(info["dim"])
        except (KeyError, TypeError, ValueError) as exc:
            raise EncoderTransportError(f"bad handshake response: {info!r}") from exc

    def _get_json(self, url: str) -> dict:
        try:
            with urllib.request.urlopen(url, timeout=self.timeout) as resp:
                return json.loads(resp.read().decode("utf-8"))
        except (urllib.error.URLError, OSError, json.JSONDecodeError) as exc:
            raise EncoderTransportError(f"GET {url} failed: {exc}") from exc

    def encode(self, template_id, text, placeholders=None, pooling=None):
        if not text:
            raise EncoderError("cannot encode empty text")
        body = json.dumps(
            {
                "template_id": template_id,
                "text": text,
                "placeholders": [np.asarray(p, dtype=float).tolist() for p in (placeholders or [])],
                "pooling": pooling or self.pooling,
            }
        ).encode("utf-8")
        req = urllib.request.Request(
            f"{self.endpoint}/v1/encode",
            data=body,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                payload = json.loads(resp.read().decode("utf-8"))
        except (urllib.error.URLError, OSError, json.JSONDecodeError) as exc:
            raise EncoderTransportError(f"POST /v1/encode failed: {exc}") from exc
        try:
            vec = np.asarray(payload["embedding"], dtype=np.float64)
            dim = int(payload["dim"])
        except (KeyError, TypeError, ValueError) as exc:
            raise EncoderTransportError(f"bad encode response: {payload!r}") from exc
        if vec.shape != (dim,) or dim != self.dim:
            raise EncoderTransportError(
                f"response dim {vec.shape}/{dim} disagrees with handshake dim {self.dim}"
            )
        return vec


class VectorCache:
    """Persistent, append-only embedding cache keyed by a stable 64-bit hash.

    Thread-safe: concurrent inserts of the same key keep the first value.
    """

    def __init__(self, path: str | Path | None = None) -> None:
        self.path = Path(path) if path is not None else None
        self._lock = threading.Lock()
        self._store: dict[int, np.ndarray] = {}
        if self.path is not None and self.path.exists():
            self._load()

    def _load(self) -> None:
        data = self.path.read_bytes()
        if not data.startswith(CACHE_MAGIC):
            raise EncoderError(f"{self.path}: not a cache file (bad header)")
        off = len(CACHE_MAGIC)
        while off < len(data):
            if off + 12 > len(data):
                break  # truncated tail from an interrupted append
            key, dim = struct.unpack_from("<QI", data, off)
            off += 12
            if off + 8 * dim > len(data):
                break
            vec = np.frombuffer(data, dtype="<f8", count=dim, offset=off).copy()
            off += 8 * dim
            self._store[key] = vec

    @staticmethod
    def key_for(
        backend_name: str, template_id: str, text: str, placeholders: list[np.ndarray]
    ) -> int:
        parts = [backend_name, template_id, text]
        for p in placeholders:
            rounded = np.round(np.asarray(p, dtype=np.float64), 6)
            parts.append(",".join(f"{x:.6f}" for x in rounded))
        return stable_hash64(*parts)

    def get(self, key: int) -> np.ndarray | None:
        with self._lock:
            vec = self._store.get(key)
            return None if vec is None else vec.copy()

    def put(self, key: int, vec: np.ndarray) -> np.ndarray:
        """Insert unless present; returns the stored (winning) vector."""
        arr = np.asarray(vec, dtype=np.float64)
        with self._lock:
            if key in self._store:
                return self._store[key].copy()
            self._store[key] = arr.copy()
            if self.path is not None:
                header_needed = not self.path.exists() or self.path.stat().st_size == 0
                with open(self.path, "ab") as fh:
                    if header_needed:
                        fh.write(CACHE_MAGIC)
                    fh.write(struct.pack("<QI", key, arr.size))
                    fh.write(arr.astype("<f8").tobytes())
            return arr.copy()

    def __len__(self) -> int:
        with self._lock:
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
    call_count: int = 0
    cache_hits: int = 0
    calls_by_template: dict[str, int] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def count_call(self, template_id: str) -> None:
        with self._lock:
            self.call_count += 1
            self.calls_by_template[template_id] = self.calls_by_template.get(template_id, 0) + 1

    def count_hit(self) -> None:
        with self._lock:
            self.cache_hits += 1

    def stored_per_target(self, target: str) -> int:
        n = 1 if target in self.node_tokens else 0
        return n + sum(1 for (s, _, _) in self.relation_tokens if s == target)


def _call_backend(
    backend,
    template_id: str,
    text: str,
    placeholders: list[np.ndarray],
    table: TokenTable,
    cache: VectorCache | None,
) -> np.ndarray:
    if cache is None:
        table.count_call(template_id)
        return backend.encode(template_id, text, placeholders)
    key = VectorCache.key_for(backend.name, template_id, text, placeholders)
    hit = cache.get(key)
    if hit is not None:
        table.count_hit()
        return hit
    table.count_call(template_id)
    vec = backend.encode(template_id, text, placeholders)
    return cache.put(key, vec)


def encode_text(
    backend, text: str, table: TokenTable, cache: VectorCache | None = None
) -> np.ndarray:
    """Encode raw node text; one backend call unless served from the cache."""
    if not text:
        raise EncoderError("cannot encode empty text")
    return _call_backend(backend, NODE_TEXT_TEMPLATE_ID, text, [], table, cache)


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
    table: TokenTable,
    nb: HopTypeNeighborhood,
    prompt: PromptInstance,
    cache: VectorCache | None = None,
) -> np.ndarray:
    """Encode the hop-``hop`` type-``t`` relation of ``s``: exactly one call.

    The second placeholder is the mean of the member node tokens (zero vector
    when the neighborhood is empty, paired with a 0.00-proportion prompt).
    """
    if s not in table.node_tokens:
        raise EncoderError(f"node token for {s!r} missing")
    members = sorted(nb.members)
    missing = [v for v in members if v not in table.node_tokens]
    if missing:
        raise EncoderError(f"members of ({s!r}, hop {hop}, {t!r}) lack node tokens: {missing[:5]}")
    if members:
        pooled = np.mean([table.node_tokens[v] for v in members], axis=0)
    else:
        pooled = np.zeros(table.dim)
    bound = bind_placeholders(prompt, [table.node_tokens[s], pooled])
    vec = _call_backend(
        backend,
        prompt.template_id.value,
        prompt.rendered_text,
        list(bound.placeholder_vectors),
        table,
        cache,
    )
    table.relation_tokens[(s, hop, t)] = vec
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

    Per target the relation-token call count is bounded by |node types| * K
    regardless of neighborhood sizes. Results are independent of ``workers``.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    if targets is None:
        targets = g.node_ids()
    else:
        for s in targets:
            if s not in g:
                raise KeyError(f"unknown target {s!r}")
    table = TokenTable(dim=backend.dim)

    for nid in g.node_ids():
        if nid in g.node_text:
            table.node_tokens[nid] = encode_text(backend, g.node_text[nid], table, cache)
    for nid in g.node_ids():
        if nid not in g.node_text:
            table.node_tokens[nid] = pooled_node_token(g, nid, table)

    def tokenize_target(s: str) -> None:
        src_type = g.node_type(s)
        for hop in range(1, K + 1):
            profile = meta_path_profile(g, s, hop)
            for t in hop_types_present(g, s, hop):
                nb = hop_type_neighbors(g, s, hop, t)
                prompt = build_relation_prompt(g.schema, src_type, t, hop, profile, template)
                relation_token(backend, s, hop, t, table, nb, prompt, cache)

    if workers <= 1:
        for s in targets:
            tokenize_target(s)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(tokenize_target, targets))
    return table


# -- token table persistence ------------------------------------------------

_SEP = "\x1f"


def save_tokens(table: TokenTable, path: str | Path) -> None:
    """Write the table as named arrays; a node id or type name containing the
    field separator ``\\x1f`` cannot be stored and raises ``EncoderError``."""
    from .tensorcore import save_arrays

    arrays: dict[str, np.ndarray] = {}
    for nid, vec in table.node_tokens.items():
        arrays[_entry_name("node", nid)] = vec
    for (s, hop, t), vec in table.relation_tokens.items():
        arrays[_entry_name("rel", s, str(hop), t)] = vec
    save_arrays(arrays, path)
    meta = {"dim": table.dim, "call_count": table.call_count, "cache_hits": table.cache_hits}
    Path(str(path) + ".meta.json").write_text(json.dumps(meta, indent=2), encoding="utf-8")


def _entry_name(kind: str, *fields: str) -> str:
    for f in fields:
        if _SEP in f:
            raise EncoderError(f"cannot store {kind} token {fields!r}: {f!r} contains \\x1f")
    return _SEP.join((kind, *fields))


def load_tokens(path: str | Path) -> TokenTable:
    from .tensorcore import load_arrays

    arrays = load_arrays(path)
    meta_path = Path(str(path) + ".meta.json")
    dim = None
    if meta_path.exists():
        dim = json.loads(meta_path.read_text(encoding="utf-8")).get("dim")
    table = TokenTable(dim=dim or next(iter(arrays.values())).size)
    for name, vec in arrays.items():
        parts = name.split(_SEP)
        if parts[0] == "node" and len(parts) == 2:
            table.node_tokens[parts[1]] = vec
        elif parts[0] == "rel" and len(parts) == 4 and parts[2].isascii() and parts[2].isdigit():
            table.relation_tokens[(parts[1], int(parts[2]), parts[3])] = vec
        else:
            raise EncoderError(f"{path}: unrecognized token entry {name!r}")
    return table
