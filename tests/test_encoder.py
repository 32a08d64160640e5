import json
import threading
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest

from ella.encoder import (
    EncoderError,
    EncoderTransportError,
    HttpBackend,
    MockBackend,
    NODE_TEXT_TEMPLATE_ID,
    PrototypeBackend,
    TokenTable,
    VectorCache,
    encode_text,
    load_tokens,
    pooled_node_token,
    relation_token,
    save_tokens,
    stable_hash64,
    tokenize_graph,
)
from ella.hetgraph import EdgeType, HeteroGraph, SchemaDef
from ella.pathstats import hop_type_neighbors
from ella.promptkit import TemplateId, build_relation_prompt
from ella.pathstats import MetaPathProfile

from fixtures import complete_typed_tree, small_academic_graph


def table(dim=16):
    return TokenTable(dim=dim)


# -- mock backend ------------------------------------------------------------


def test_mock_deterministic_and_cached(tmp_path):
    b = MockBackend(dim=16)
    t = table()
    cache = VectorCache(tmp_path / "cache.bin")
    v1 = encode_text(b, "hello world", t, cache)
    v2 = encode_text(b, "hello world", t, cache)
    assert np.array_equal(v1, v2)
    assert t.call_count == 1
    assert t.cache_hits == 1


def test_mock_output_dimension():
    b = MockBackend(dim=16)
    assert encode_text(b, "anything", table()).shape == (16,)


def test_mock_distinct_strings_differ():
    b = MockBackend(dim=16)
    t = table()
    v1 = encode_text(b, "movie about boats", t)
    v2 = encode_text(b, "movie about trains", t)
    assert not np.array_equal(v1, v2)


def test_mock_unit_norm():
    b = MockBackend(dim=32)
    rng = np.random.default_rng(0)
    for i in range(20):
        vec = b.encode("node_text", f"text {i}")
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-9
        ph = [rng.standard_normal(32), rng.standard_normal(32)]
        vec = b.encode("tpl", f"text {i}", ph)
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-9


def test_mock_sensitive_to_placeholders():
    b = MockBackend(dim=16)
    ph1 = [np.ones(16), np.zeros(16)]
    ph2 = [np.ones(16), np.ones(16)]
    assert not np.array_equal(b.encode("t", "x", ph1), b.encode("t", "x", ph2))


def test_mock_rejects_empty_text():
    with pytest.raises(EncoderError):
        MockBackend(dim=4).encode("t", "")
    with pytest.raises(EncoderError):
        encode_text(MockBackend(dim=4), "", table())


def test_stable_hash_is_order_sensitive():
    assert stable_hash64("a", "b") != stable_hash64("b", "a")
    assert stable_hash64("ab", "") != stable_hash64("a", "b")


def test_prototype_backend_class_structure():
    b = PrototypeBackend(dim=32, noise=0.5)
    same = [b.encode(NODE_TEXT_TEMPLATE_ID, f"paper p{i} class:1") for i in range(8)]
    other = [b.encode(NODE_TEXT_TEMPLATE_ID, f"paper q{i} class:2") for i in range(8)]
    intra = np.mean([a @ b2 for i, a in enumerate(same) for b2 in same[i + 1 :]])
    inter = np.mean([a @ b2 for a in same for b2 in other])
    assert intra > 0.5
    assert intra > inter + 0.3
    # no marker -> plain mock behavior
    assert np.array_equal(
        b.encode("t", "no marker here"), MockBackend(dim=32).encode("t", "no marker here")
    )


# -- cache --------------------------------------------------------------------


def test_cache_persists_across_instances(tmp_path):
    path = tmp_path / "cache.bin"
    c1 = VectorCache(path)
    key = VectorCache.key_for("mock", "t", "text", [])
    vec = np.arange(4.0)
    c1.put(key, vec)
    c2 = VectorCache(path)
    assert np.array_equal(c2.get(key), vec)


def test_cache_get_after_put_bit_exact():
    c = VectorCache()
    key = 42
    vec = np.random.default_rng(1).standard_normal(8)
    stored = c.put(key, vec)
    assert np.array_equal(stored, vec)
    assert np.array_equal(c.get(key), vec)


def test_cache_concurrent_single_winner(tmp_path):
    c = VectorCache(tmp_path / "c.bin")
    key = 7

    def insert(i):
        return c.put(key, np.full(4, float(i)))

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(insert, range(64)))
    winner = c.get(key)
    for r in results:
        assert np.array_equal(r, winner)
    assert len(c) == 1


def test_cache_tolerates_truncated_tail(tmp_path):
    path = tmp_path / "cache.bin"
    c = VectorCache(path)
    c.put(1, np.ones(4))
    raw = path.read_bytes()
    path.write_bytes(raw[:-5])
    c2 = VectorCache(path)
    assert len(c2) == 0 or c2.get(1) is None


def test_cache_key_rounds_placeholders():
    a = VectorCache.key_for("m", "t", "x", [np.array([0.123456749])])
    b = VectorCache.key_for("m", "t", "x", [np.array([0.123456751])])
    assert a == b


# -- pooled node tokens ----------------------------------------------------------


def star_graph(n_leaves=3):
    schema = SchemaDef(
        node_types=["hub", "leaf"], edge_types=[EdgeType("spoke", "hub", "leaf")]
    )
    nodes = [("h", "hub")] + [(f"l{i}", "leaf") for i in range(n_leaves)]
    edges = [("h", f"l{i}", "spoke") for i in range(n_leaves)]
    text = {f"l{i}": f"leaf number {i}" for i in range(n_leaves)}
    return HeteroGraph(schema, nodes, edges, text)


def test_pooled_token_single_neighbor():
    g = star_graph(1)
    t = table(4)
    t.node_tokens["l0"] = np.array([1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(pooled_node_token(g, "h", t), t.node_tokens["l0"])


def test_pooled_token_symmetric_cancellation():
    g = star_graph(2)
    t = table(4)
    t.node_tokens["l0"] = np.ones(4)
    t.node_tokens["l1"] = -np.ones(4)
    assert np.allclose(pooled_node_token(g, "h", t), 0.0)


def test_pooled_token_unit_basis_mean():
    g = star_graph(3)
    t = table(3)
    for i in range(3):
        t.node_tokens[f"l{i}"] = np.eye(3)[i]
    assert np.allclose(pooled_node_token(g, "h", t), [1 / 3, 1 / 3, 1 / 3])


def test_pooled_token_no_text_neighbor_errors():
    schema = SchemaDef(node_types=["hub", "leaf"], edge_types=[EdgeType("spoke", "hub", "leaf")])
    g = HeteroGraph(schema, [("h", "hub"), ("l0", "leaf")], [("h", "l0", "spoke")], {})
    with pytest.raises(EncoderError, match="text-bearing"):
        pooled_node_token(g, "h", table())


# -- relation tokens ----------------------------------------------------------------


def relation_ingredients(g, s, hop, ntype, template=TemplateId.PretrainLink):
    from ella.pathstats import meta_path_profile

    nb = hop_type_neighbors(g, s, hop, ntype)
    try:
        profile = meta_path_profile(g, s, hop)
    except KeyError:
        profile = MetaPathProfile(target=s, hop=hop, patterns={})
    prompt = build_relation_prompt(g.schema, g.node_type(s), ntype, hop, profile, template)
    return nb, prompt


def test_relation_token_single_member_one_call():
    g = small_academic_graph()
    b = MockBackend(dim=8)
    t = table(8)
    for nid in g.node_ids():
        if nid in g.node_text:
            t.node_tokens[nid] = encode_text(b, g.node_text[nid], t)
    for nid in g.node_ids():
        if nid not in g.node_text:
            t.node_tokens[nid] = pooled_node_token(g, nid, t)
    before = t.call_count
    nb, prompt = relation_ingredients(g, "p1", 1, "author")
    assert nb.members == {"a1"}
    vec = relation_token(b, "p1", 1, "author", t, nb, prompt)
    assert t.call_count == before + 1
    assert t.relation_tokens[("p1", 1, "author")] is vec


def test_relation_token_thousand_members_one_call():
    schema = SchemaDef(node_types=["hub", "leaf"], edge_types=[EdgeType("spoke", "hub", "leaf")])
    n = 1000
    nodes = [("h", "hub")] + [(f"l{i:04d}", "leaf") for i in range(n)]
    edges = [("h", f"l{i:04d}", "spoke") for i in range(n)]
    text = {nid: f"node {nid}" for nid, _ in nodes}
    g = HeteroGraph(schema, nodes, edges, text)
    b = MockBackend(dim=8)
    t = table(8)
    for nid in g.node_ids():
        t.node_tokens[nid] = encode_text(b, g.node_text[nid], t)
    before = t.call_count
    nb, prompt = relation_ingredients(g, "h", 1, "leaf")
    assert len(nb.members) == n
    relation_token(b, "h", 1, "leaf", t, nb, prompt)
    assert t.call_count == before + 1


def test_relation_token_empty_neighborhood_zero_prompt():
    # single author-paper pair: no hop-3 walk from a1 ends at an author,
    # yet the schema admits author-paper-paper-author
    from fixtures import academic_schema

    schema = academic_schema()
    g = HeteroGraph(
        schema,
        [("a1", "author"), ("p1", "paper")],
        [("a1", "p1", "writes")],
        {"p1": "paper about graphs"},
    )
    b = MockBackend(dim=8)
    t = table(8)
    t.node_tokens["p1"] = encode_text(b, g.node_text["p1"], t)
    t.node_tokens["a1"] = pooled_node_token(g, "a1", t)
    nb = hop_type_neighbors(g, "a1", 3, "author")
    assert nb.members == set()
    profile = MetaPathProfile(target="a1", hop=3, patterns={})
    prompt = build_relation_prompt(schema, "author", "author", 3, profile, TemplateId.PretrainLink)
    assert "author-paper-paper-author (Proportion of paths: 0.00)" in prompt.rendered_text
    vec = relation_token(b, "a1", 3, "author", t, nb, prompt)
    assert vec.shape == (8,)
    # zero pooled vector: output equals mixing u_s with an all-zero second slot
    expected = b.encode(
        prompt.template_id.value,
        prompt.rendered_text,
        [t.node_tokens["a1"], np.zeros(8)],
    )
    assert np.array_equal(vec, expected)


# -- tokenize_graph ---------------------------------------------------------------


def test_tokenize_star_two_types_two_calls():
    schema = SchemaDef(
        node_types=["hub", "leaf", "gadget"],
        edge_types=[EdgeType("spoke", "hub", "leaf"), EdgeType("tool", "hub", "gadget")],
    )
    nodes = [("h", "hub"), ("l0", "leaf"), ("l1", "leaf"), ("g0", "gadget")]
    edges = [("h", "l0", "spoke"), ("h", "l1", "spoke"), ("h", "g0", "tool")]
    text = {nid: f"node {nid}" for nid, _ in nodes}
    g = HeteroGraph(schema, nodes, edges, text)
    t = tokenize_graph(MockBackend(dim=8), g, targets=["h"], K=1)
    assert t.stored_per_target("h") == 1 + 2
    assert t.calls_by_template[TemplateId.PretrainLink.value] == 2


def test_tokenize_tree_linear_calls():
    g = complete_typed_tree(b=5, depth=3)
    t = tokenize_graph(MockBackend(dim=8), g, targets=["n0"], K=3)
    n_types = len(g.schema.node_types)
    assert t.stored_per_target("n0") <= 1 + n_types * 3
    # walk endpoints by hop: {lvl1}, {lvl2}, {lvl1, lvl3}
    assert t.stored_per_target("n0") == 1 + 4


def test_tokenize_warm_cache_zero_calls(tmp_path):
    g = small_academic_graph()
    cache = VectorCache(tmp_path / "cache.bin")
    t1 = tokenize_graph(MockBackend(dim=8), g, K=2, cache=cache)
    assert t1.call_count > 0
    t2 = tokenize_graph(MockBackend(dim=8), g, K=2, cache=cache)
    assert t2.call_count == 0
    assert t2.cache_hits > 0
    for key in t1.relation_tokens:
        assert np.array_equal(t1.relation_tokens[key], t2.relation_tokens[key])


def test_tokenize_worker_count_invariant():
    g = small_academic_graph()
    t1 = tokenize_graph(MockBackend(dim=8), g, K=2, workers=1)
    t4 = tokenize_graph(MockBackend(dim=8), g, K=2, workers=4)
    assert set(t1.relation_tokens) == set(t4.relation_tokens)
    for key in t1.relation_tokens:
        assert np.array_equal(t1.relation_tokens[key], t4.relation_tokens[key])
    for nid in t1.node_tokens:
        assert np.array_equal(t1.node_tokens[nid], t4.node_tokens[nid])


def test_tokenize_stage_templates_coexist_in_cache(tmp_path):
    g = small_academic_graph()
    cache = VectorCache(tmp_path / "cache.bin")
    labeled = [n for n in g.node_ids() if g.node_type(n) in g.schema.class_labels]
    t1 = tokenize_graph(
        MockBackend(dim=8), g, targets=labeled, K=1, template=TemplateId.PretrainLink, cache=cache
    )
    t2 = tokenize_graph(
        MockBackend(dim=8), g, targets=labeled, K=1, template=TemplateId.FinetuneClassify,
        cache=cache,
    )
    key = ("p1", 1, "author")
    assert not np.array_equal(t1.relation_tokens[key], t2.relation_tokens[key])
    # rerunning either stage is fully cached
    t3 = tokenize_graph(
        MockBackend(dim=8), g, targets=labeled, K=1, template=TemplateId.PretrainLink, cache=cache
    )
    assert t3.call_count == 0


def test_tokens_save_load_roundtrip(tmp_path):
    g = small_academic_graph()
    t = tokenize_graph(MockBackend(dim=8), g, K=2)
    path = tmp_path / "tokens.bin"
    save_tokens(t, path)
    t2 = load_tokens(path)
    assert t2.dim == 8
    assert set(t2.node_tokens) == set(t.node_tokens)
    assert set(t2.relation_tokens) == set(t.relation_tokens)
    for k in t.relation_tokens:
        assert np.array_equal(t.relation_tokens[k], t2.relation_tokens[k])


@pytest.mark.parametrize(
    "node_id,rel_key",
    [("a\x1fb", None), ("a", ("a", 1, "pa\x1fper")), ("a", ("a\x1fb", 1, "paper"))],
)
def test_save_tokens_rejects_separator_in_names(tmp_path, node_id, rel_key):
    t = TokenTable(dim=2, node_tokens={node_id: np.ones(2)})
    if rel_key is not None:
        t.relation_tokens[rel_key] = np.ones(2)
    with pytest.raises(EncoderError, match=r"x1f"):
        save_tokens(t, tmp_path / "tokens.bin")


@pytest.mark.parametrize(
    "entry", ["node\x1fa\x1fb", "node", "rel\x1fa\x1f1\x1fpaper\x1fx", "rel\x1fa\x1fone\x1fpaper"]
)
def test_load_tokens_rejects_malformed_entry(tmp_path, entry):
    from ella.tensorcore import save_arrays

    path = tmp_path / "tokens.bin"
    save_arrays({"node\x1fa": np.ones(2), entry: np.ones(2)}, path)
    with pytest.raises(EncoderError, match="tokens.bin.*unrecognized token entry"):
        load_tokens(path)


def test_load_tokens_truncated_file_names_it(tmp_path):
    t = TokenTable(dim=2, node_tokens={"a": np.ones(2)})
    t.relation_tokens[("a", 1, "paper")] = np.ones(2)
    path = tmp_path / "tokens.bin"
    save_tokens(t, path)
    path.write_bytes(path.read_bytes()[:-3])
    with pytest.raises(ValueError, match="tokens.bin.*truncated"):
        load_tokens(path)


# -- http backend -----------------------------------------------------------------


class _MockHandler(BaseHTTPRequestHandler):
    inner = MockBackend(dim=12)

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
        vec = self.inner.encode(
            req["template_id"],
            req["text"],
            [np.asarray(p) for p in req.get("placeholders", [])] or None,
            req.get("pooling", "mean"),
        )
        self._send({"embedding": vec.tolist(), "dim": len(vec)})


@pytest.fixture()
def http_server():
    server = HTTPServer(("127.0.0.1", 0), _MockHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()


def test_http_backend_handshake_and_encode(http_server):
    b = HttpBackend(http_server)
    assert b.name == "remote-mock"
    assert b.dim == 12
    vec = b.encode("node_text", "remote encoding test")
    assert vec.shape == (12,)
    assert np.array_equal(vec, _MockHandler.inner.encode("node_text", "remote encoding test"))
    ph = [np.ones(12), np.zeros(12)]
    vec2 = b.encode("tpl", "with placeholders", ph)
    assert np.allclose(vec2, _MockHandler.inner.encode("tpl", "with placeholders", ph))


def test_http_backend_tokenizes_graph(http_server):
    g = small_academic_graph()
    t = tokenize_graph(HttpBackend(http_server), g, targets=["a1"], K=1)
    assert t.stored_per_target("a1") >= 1 + 1


def test_http_backend_unreachable_is_transport_error():
    with pytest.raises(EncoderTransportError):
        HttpBackend("http://127.0.0.1:1")  # nothing listens there
