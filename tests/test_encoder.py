import hashlib
import json
import re
import struct

import numpy as np
import pytest

from ella.encoder import (
    CACHE_MAGIC,
    EncoderError,
    EncoderTransportError,
    HttpBackend,
    MockBackend,
    NODE_TEXT_TEMPLATE_ID,
    PrototypeBackend,
    TokenTable,
    TokenizeRun,
    VectorCache,
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
from ella.tensorcore import save_arrays

from fixtures import (
    EncoderStub,
    complete_bipartite,
    complete_typed_tree,
    http_server,
    seeded_academic_graph,
    small_academic_graph,
    star,
)


def table(dim=16):
    return TokenTable(dim=dim)


# -- mock backend ------------------------------------------------------------


def test_mock_deterministic_and_cached(tmp_path):
    b = MockBackend(dim=16)
    t = table()
    run = TokenizeRun(b, t, VectorCache(tmp_path / "cache.bin"))
    v1 = run.call(NODE_TEXT_TEMPLATE_ID, "hello world", [], [])
    v2 = run.call(NODE_TEXT_TEMPLATE_ID, "hello world", [], [])
    assert np.array_equal(v1, v2)
    assert t.call_count == 1
    assert t.cache_hits == 1


def test_mock_output_dimension():
    b = MockBackend(dim=16)
    assert TokenizeRun(b, table()).call(NODE_TEXT_TEMPLATE_ID, "anything", [], []).shape == (16,)


def test_mock_distinct_strings_differ():
    b = MockBackend(dim=16)
    run = TokenizeRun(b, table())
    v1 = run.call(NODE_TEXT_TEMPLATE_ID, "movie about boats", [], [])
    v2 = run.call(NODE_TEXT_TEMPLATE_ID, "movie about trains", [], [])
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
        TokenizeRun(MockBackend(dim=4), table()).call(NODE_TEXT_TEMPLATE_ID, "", [], [])


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


def test_cache_get_after_put_bit_exact(tmp_path):
    c = VectorCache(tmp_path / "cache.bin")
    key = 42
    vec = np.random.default_rng(1).standard_normal(8)
    stored = c.put(key, vec)
    assert np.array_equal(stored, vec)
    assert np.array_equal(c.get(key), vec)


def test_cache_tolerates_truncated_tail(tmp_path):
    path = tmp_path / "cache.bin"
    c = VectorCache(path)
    c.put(1, np.ones(4))
    raw = path.read_bytes()
    path.write_bytes(raw[:-5])
    c2 = VectorCache(path)
    assert len(c2) == 0 or c2.get(1) is None


def test_cache_put_after_truncated_tail_keeps_records_aligned(tmp_path):
    path = tmp_path / "cache.bin"
    c = VectorCache(path)
    c.put(1, np.full(4, 1.0))
    c.put(2, np.full(4, 2.0))
    path.write_bytes(path.read_bytes()[:-5])
    VectorCache(path).put(3, np.full(4, 3.0))
    c2 = VectorCache(path)
    assert len(c2) == 2 and c2.get(2) is None
    assert np.array_equal(c2.get(1), np.full(4, 1.0))
    assert np.array_equal(c2.get(3), np.full(4, 3.0))


@pytest.mark.parametrize("content", [b"", CACHE_MAGIC[:5]], ids=["zero_bytes", "cut_header"])
def test_cache_file_without_a_whole_header_is_empty(tmp_path, content):
    path = tmp_path / "cache.bin"
    path.write_bytes(content)
    c = VectorCache(path)
    assert len(c) == 0
    c.put(1, np.ones(4))
    assert path.read_bytes().startswith(CACHE_MAGIC)
    assert np.array_equal(VectorCache(path).get(1), np.ones(4))


def test_cache_record_is_in_the_file_before_put_returns_and_close_reopens(tmp_path):
    path = tmp_path / "cache.bin"
    with VectorCache(path) as c:
        c.put(1, np.full(4, 1.0))
        assert np.array_equal(VectorCache(path).get(1), np.full(4, 1.0))
        c.put(1, np.full(4, 9.0))  # present: nothing is appended
    c.put(2, np.full(4, 2.0))  # a put after close opens the file again
    c.close()
    c.close()
    records = [struct.pack("<QI", k, 4) + np.full(4, float(k)).astype("<f8").tobytes() for k in (1, 2)]
    assert path.read_bytes() == CACHE_MAGIC + b"".join(records)


def cache_record(key, vec):
    return struct.pack("<QI", key, len(vec)) + np.asarray(vec, dtype="<f8").tobytes()


def records_by_loop(data):
    """The reference parse of a cache file: one record at a time, a later key
    replacing an earlier one, up to the first record that is not whole."""
    store, off = {}, len(CACHE_MAGIC)
    while off + 12 <= len(data):
        key, dim = struct.unpack_from("<QI", data, off)
        if off + 12 + 8 * dim > len(data):
            break
        store[key] = np.frombuffer(data, dtype="<f8", count=dim, offset=off + 12)
        off += 12 + 8 * dim
    return store, off


@pytest.mark.parametrize("tail", [b"\x07" * 5, cache_record(9, np.ones(3))[:-4]], ids=["cut_head", "cut_vector"])
def test_cache_file_loads_what_the_record_loop_loads(tmp_path, tail):
    rng = np.random.default_rng(3)
    whole = [(1, rng.standard_normal(4)), (2, rng.standard_normal(2)), (1, rng.standard_normal(4)),
             (3, rng.standard_normal(2)), (4, rng.standard_normal(4)), (2, rng.standard_normal(2))]
    data = CACHE_MAGIC + b"".join(cache_record(k, v) for k, v in whole) + tail
    path = tmp_path / "cache.bin"
    path.write_bytes(data)
    want, end = records_by_loop(data)
    assert end == len(data) - len(tail) and sorted(want) == [1, 2, 3, 4]
    cache = VectorCache(path)
    assert len(cache) == len(want)
    for key, vec in want.items():
        got = cache.get(key)
        assert got.dtype == np.float64 and got.tobytes() == vec.tobytes()
    assert cache.get(1).tobytes() == whole[2][1].tobytes()  # the later record wins
    assert {cache.get(k).size for k in want} == {2, 4}
    cache.put(5, np.full(3, 5.0))  # cuts the torn tail before it appends
    cache.close()
    assert path.read_bytes() == data[:end] + cache_record(5, np.full(3, 5.0))
    assert len(VectorCache(path)) == 5


def test_cache_refuses_older_key_format(tmp_path):
    path = tmp_path / "cache.bin"
    path.write_bytes(b"ELLACACHE v1\n")
    with pytest.raises(EncoderError, match="cache.bin: .*older key format"):
        VectorCache(path)


def test_cache_key_rounds_placeholders():
    a = VectorCache.key_for("m", "t", "x", [np.array([0.123456749])])
    b = VectorCache.key_for("m", "t", "x", [np.array([0.123456751])])
    assert a == b


def test_cache_keys_are_pinned():
    # existing cache files hold these keys; a key that moves orphans every record
    ph = [np.array([0.1, -2.0, 3.5]), np.array([1 / 3, 0.0, -0.0])]
    assert VectorCache.key_for("mock:8", "node_text", "paper p1", []) == 13876955396902487640
    assert VectorCache.key_for("mock:3", "pretrain_link", "a prompt [PH] [PH]", ph) == 93799397423031782
    f32 = [np.arange(3, dtype=np.float32)]
    assert VectorCache.key_for("prototype:64", "finetune_classify", "héllo", f32) == 14737503092216256510


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
    run = TokenizeRun(b, t)
    for nid in g.node_ids():
        if nid in g.node_text:
            t.node_tokens[nid] = run.call(NODE_TEXT_TEMPLATE_ID, g.node_text[nid], [], [])
    for nid in g.node_ids():
        if nid not in g.node_text:
            t.node_tokens[nid] = pooled_node_token(g, nid, t)
    before = t.call_count
    nb, prompt = relation_ingredients(g, "p1", 1, "author")
    assert nb == {"a1"}
    vec = relation_token(b, "p1", 1, "author", run, run.placeholder("p1"), nb, TemplateId.PretrainLink, prompt)
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
    run = TokenizeRun(b, t)
    for nid in g.node_ids():
        t.node_tokens[nid] = run.call(NODE_TEXT_TEMPLATE_ID, g.node_text[nid], [], [])
    before = t.call_count
    nb, prompt = relation_ingredients(g, "h", 1, "leaf")
    assert len(nb) == n
    relation_token(b, "h", 1, "leaf", run, run.placeholder("h"), nb, TemplateId.PretrainLink, prompt)
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
    run = TokenizeRun(b, t)
    t.node_tokens["p1"] = run.call(NODE_TEXT_TEMPLATE_ID, g.node_text["p1"], [], [])
    t.node_tokens["a1"] = pooled_node_token(g, "a1", t)
    nb = hop_type_neighbors(g, "a1", 3, "author")
    assert nb == set()
    profile = MetaPathProfile(target="a1", hop=3, patterns={})
    prompt = build_relation_prompt(schema, "author", "author", 3, profile, TemplateId.PretrainLink)
    assert "author-paper-paper-author (Proportion of paths: 0.00)" in prompt
    vec = relation_token(b, "a1", 3, "author", run, run.placeholder("a1"), nb, TemplateId.PretrainLink, prompt)
    assert vec.shape == (8,)
    # zero pooled vector: output equals mixing u_s with an all-zero second slot
    expected = b.encode(
        TemplateId.PretrainLink.value,
        prompt,
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


def test_tokenize_dense_bipartite_past_a_million_walks():
    # u000 has 101^3 hop-3 walks; one relation call per (hop, endpoint type)
    g = complete_bipartite(101)
    t = tokenize_graph(MockBackend(dim=8), g, targets=["u000"], K=3)
    assert t.calls_by_template[TemplateId.PretrainLink.value] == 3 <= len(g.schema.node_types) * 3
    assert set(t.relation_tokens) == {("u000", 1, "item"), ("u000", 2, "user"), ("u000", 3, "item")}


def test_tokenize_star_hub_past_a_million_walks():
    # the hub has 1001^2 hop-3 walks (hub-leaf-hub-leaf)
    g = star(1001)
    t = tokenize_graph(MockBackend(dim=8), g, targets=["h"], K=3)
    assert set(t.relation_tokens) == {("h", 1, "leaf"), ("h", 3, "leaf")}


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


def test_cache_keys_separate_encoder_dimensions(tmp_path):
    g = small_academic_graph()
    path = tmp_path / "cache.bin"
    for dim in (8, 16, 8):
        t = tokenize_graph(MockBackend(dim=dim), g, K=2, cache=VectorCache(path))
        expected = tokenize_graph(MockBackend(dim=dim), g, K=2)
        assert t.dim == dim
        pairs = [(t.node_tokens, expected.node_tokens), (t.relation_tokens, expected.relation_tokens)]
        for tokens, want in pairs:
            assert set(tokens) == set(want)
            for key, vec in want.items():
                assert np.array_equal(tokens[key], vec)
    assert t.call_count == 0  # the second dim-8 pass reads the first one's entries


# sha256 over the node tokens, relation tokens (in insertion order) and counts
# below; any change to walks, prompts, pooling, hashing or cache keys moves it
PINNED_TOKEN_DIGEST = "625cf0f3800673feba2e346d196b988cefa2e3ae554fb4b6b3b4cb0f36809ff3"


def seeded_graph():
    """A planted 66-node academic graph and its labelled-type targets."""
    g = seeded_academic_graph()
    return g, [n for n in g.node_ids() if g.node_type(n) in g.schema.class_labels]


def test_tokens_of_a_seeded_graph_are_pinned_to_the_bit(tmp_path):
    g, targets = seeded_graph()
    h = hashlib.sha256()
    cache = VectorCache(tmp_path / "cache.bin")
    for template in (TemplateId.PretrainLink, TemplateId.FinetuneClassify):
        t = tokenize_graph(MockBackend(dim=8), g, targets=targets, K=3, template=template, cache=cache)
        for nid, vec in t.node_tokens.items():
            h.update(nid.encode() + b"\x00" + vec.astype("<f8").tobytes())
        for key, vec in t.relation_tokens.items():
            h.update(repr(key).encode() + b"\x00" + vec.astype("<f8").tobytes())
        h.update(f"{t.call_count} {t.cache_hits} {len(t.relation_tokens)}".encode())
    assert h.hexdigest() == PINNED_TOKEN_DIGEST


# sha256 of the cache file a cold run of the seeded graph writes; any change to
# keys, vectors or the record layout moves it
PINNED_CACHE_FILE_DIGEST = "4db6ac8bdc39993dd59099337eeceac9737e571a1dc50f51602b24a9aec55c54"


def test_cache_file_of_a_seeded_graph_is_pinned_to_the_bit(tmp_path):
    g, targets = seeded_graph()
    path = tmp_path / "cache.bin"
    with VectorCache(path) as cache:
        cold = tokenize_graph(MockBackend(dim=8), g, targets=targets, K=3, cache=cache)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_CACHE_FILE_DIGEST
    warm = tokenize_graph(MockBackend(dim=8), g, targets=targets, K=3, cache=VectorCache(path))
    assert warm.call_count == 0 and warm.cache_hits == cold.call_count
    for mine, theirs in ((warm.node_tokens, cold.node_tokens), (warm.relation_tokens, cold.relation_tokens)):
        assert list(mine) == list(theirs)
        assert all(np.array_equal(mine[k], theirs[k]) for k in theirs)


def test_stored_counts_count_each_target_once_per_vector():
    g = small_academic_graph()
    t = tokenize_graph(MockBackend(dim=8), g, targets=["a1", "p2"], K=2)
    targets = ["a1", "p2", "o1"]
    expected = [
        (s in t.node_tokens) + sum(1 for key in t.relation_tokens if key[0] == s) for s in targets
    ]
    assert t.stored_counts(targets) == expected
    assert expected[2] == 1  # a node token, no relation tokens


def test_tokenize_accepts_only_one_worker():
    with pytest.raises(ValueError, match="workers must be 1"):
        tokenize_graph(MockBackend(dim=8), small_academic_graph(), K=2, workers=4)


def test_cold_and_warm_runs_write_identical_token_files(tmp_path):
    g = small_academic_graph()
    tables = []
    for run in ("cold", "warm"):
        table = tokenize_graph(MockBackend(dim=8), g, K=2, cache=VectorCache(tmp_path / "cache.bin"))
        save_tokens(table, tmp_path / f"{run}.bin")
        tables.append(table)
    cold, warm = tables
    assert cold.call_count > 0 and warm.call_count == 0
    assert warm.cache_hits == cold.call_count
    assert (tmp_path / "cold.bin").read_bytes() == (tmp_path / "warm.bin").read_bytes()
    loaded = load_tokens(tmp_path / "warm.bin")
    assert list(loaded.node_tokens) == list(cold.node_tokens)
    assert list(loaded.relation_tokens) == list(cold.relation_tokens)


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
    assert list(t2.node_tokens) == list(t.node_tokens)
    assert list(t2.relation_tokens) == list(t.relation_tokens)
    for k in t.relation_tokens:
        assert t.relation_tokens[k].tobytes() == t2.relation_tokens[k].tobytes()
    for k in t.node_tokens:
        assert t.node_tokens[k].tobytes() == t2.node_tokens[k].tobytes()


@pytest.mark.parametrize(
    "node_id,rel_key",
    [
        ("a\x1fb", ("a\x1fb", 1, "paper")),
        ("caf\u00e9", ("caf\u00e9", 1, "pa\x1fper")),
        ("\u8bba\u6587", ("a\x1fb", 2, "\u4f5c\u8005")),
    ],
    ids=["separator_in_node_id", "separator_in_type_name", "separator_in_relation_source"],
)
def test_tokens_round_trip_any_id(tmp_path, node_id, rel_key):
    t = TokenTable(dim=2, node_tokens={node_id: np.zeros(2), "plain": np.ones(2)})
    t.relation_tokens[rel_key] = np.array([1.0, -1.0])
    t.relation_tokens[("plain", 2, "\u4f5c\u8005")] = np.array([0.5, 0.25])
    path = tmp_path / "tokens.bin"
    save_tokens(t, path)
    t2 = load_tokens(path)
    assert list(t2.node_tokens) == list(t.node_tokens)
    assert list(t2.relation_tokens) == list(t.relation_tokens)
    for mine, theirs in ((t.node_tokens, t2.node_tokens), (t.relation_tokens, t2.relation_tokens)):
        assert all(np.array_equal(vec, theirs[key]) for key, vec in mine.items())


def test_empty_table_round_trips_its_dim(tmp_path):
    path = tmp_path / "tokens.bin"
    save_tokens(TokenTable(dim=4), path)
    assert [p.name for p in tmp_path.iterdir()] == ["tokens.bin"]
    t = load_tokens(path)
    assert t.dim == 4 and not t.node_tokens and not t.relation_tokens


def _token_arrays(doc=None, **arrays):
    """The three arrays of a valid two-node, one-relation token file, with
    ``doc`` entries merged into its index and ``arrays`` replacing arrays."""
    index = {"format": 2, "node_ids": ["a", "b"], "relation_keys": [["a", 1, "paper"]], **(doc or {})}
    raw = np.frombuffer(json.dumps(index).encode("utf-8"), dtype=np.uint8)
    return {"node": np.ones((2, 2)), "rel": np.ones((1, 2)), "index": raw, **arrays}


@pytest.mark.parametrize(
    "arrays",
    [
        _token_arrays(index=np.frombuffer(b"{not json", dtype=np.uint8)),
        _token_arrays({"format": 1}),
        _token_arrays({"node_ids": ["a"]}),
        _token_arrays({"relation_keys": []}),
        _token_arrays({"node_ids": ["a", "a"]}),
        _token_arrays({"relation_keys": [["a", 1, "paper"]] * 2}, rel=np.ones((2, 2))),
        _token_arrays({"relation_keys": [["a", "1", "paper"]]}),
        _token_arrays({"relation_keys": [["a", 1.0, "paper"]]}),
        _token_arrays({"relation_keys": [["a", 1]]}),
        _token_arrays(rel=np.ones((1, 3))),
        _token_arrays(extra=np.ones(2)),
        _token_arrays({"relation_keys": [[12345, 1, "paper"]]}),
        _token_arrays({"relation_keys": [["a", 1, None]]}),
        _token_arrays({"relation_keys": [["a", 0, "paper"]]}),
        _token_arrays({"relation_keys": [["a", -1, "paper"]]}),
        _token_arrays({"node_ids": [7, "b"]}),
        _token_arrays({"node_ids": ["a", None]}),
    ],
    ids=[
        "not_json", "wrong_format", "node_count", "relation_count", "duplicate_node",
        "duplicate_relation", "string_hop", "float_hop", "short_key", "mismatched_widths",
        "extra_array", "int_source", "null_type", "zero_hop", "negative_hop", "int_node", "null_node",
    ],
)
def test_load_tokens_rejects_malformed_index(tmp_path, arrays):
    path = tmp_path / "tokens.bin"
    save_arrays(_token_arrays(), path)
    assert load_tokens(path).dim == 2
    save_arrays(arrays, path)
    with pytest.raises(EncoderError, match="tokens.bin: not a token file of format 2.*re-run `ella tokenize`"):
        load_tokens(path)


@pytest.mark.parametrize(
    "entry", ["node\x1fa\x1fb", "node", "rel\x1fa\x1f1\x1fpaper\x1fx", "rel\x1fa\x1fone\x1fpaper"]
)
def test_load_tokens_rejects_malformed_entry(tmp_path, entry):
    # one named array per token is the old layout, refused whatever the names hold
    path = tmp_path / "tokens.bin"
    save_arrays({"node\x1fa": np.ones(2), entry: np.ones(2)}, path)
    with pytest.raises(EncoderError, match="tokens.bin: not a token file of format 2.*re-run `ella tokenize`"):
        load_tokens(path)


@pytest.mark.parametrize(
    "bad",
    [np.ones(5), np.ones((2, 4)), np.ones((8, 1)), np.float64(1.0), (np.ones((8, 1)), np.ones(3))],
    ids=["bad0", "bad1", "column", "scalar", "ragged_mix"],
)
def test_save_tokens_rejects_vector_of_wrong_shape(tmp_path, bad):
    # a tuple is a ragged mix: token 'b' and, after it, 'c' of another wrong shape
    vectors = dict(zip("bc", bad if isinstance(bad, tuple) else (bad,)))
    t = TokenTable(dim=8, node_tokens={"a": np.ones(8), **vectors})
    with pytest.raises(EncoderError, match=re.escape(f"cannot store token 'b': shape {np.shape(vectors['b'])}, not (8,)")):
        save_tokens(t, tmp_path / "tokens.bin")
    t = TokenTable(dim=8, node_tokens={"a": np.ones(8)}, relation_tokens={("a", 1, "paper"): vectors["b"]})
    with pytest.raises(EncoderError, match=r"cannot store token \('a', 1, 'paper'\): shape"):
        save_tokens(t, tmp_path / "tokens.bin")
    assert not (tmp_path / "tokens.bin").exists()


def test_load_tokens_truncated_file_names_it(tmp_path):
    t = TokenTable(dim=2, node_tokens={"a": np.ones(2)})
    t.relation_tokens[("a", 1, "paper")] = np.ones(2)
    path = tmp_path / "tokens.bin"
    save_tokens(t, path)
    raw = path.read_bytes()
    refused = r"tokens.bin: not a zip of \.npy arrays \(no end record at the end of the file\); re-run `ella tokenize`"
    path.write_bytes(raw[:-3])
    with pytest.raises(ValueError, match=refused):
        load_tokens(path)
    path.write_bytes(raw + b"\0")
    with pytest.raises(ValueError, match=refused):
        load_tokens(path)
    path.write_bytes(b"ELLACKPT v1\n" + raw)  # the layout token files had before they were zips
    with pytest.raises(ValueError, match=r"tokens.bin: .*older ELLACKPT v1 layout\); re-run `ella tokenize`"):
        load_tokens(path)


# -- http backend -----------------------------------------------------------------


def test_http_backend_handshake_and_encode(http_server):
    b = HttpBackend(http_server)
    assert b.name == "remote-mock"
    assert b.dim == 12
    vec = b.encode("node_text", "remote encoding test")
    assert vec.shape == (12,)
    assert np.array_equal(vec, EncoderStub.inner.encode("node_text", "remote encoding test"))
    ph = [np.ones(12), np.zeros(12)]
    vec2 = b.encode("tpl", "with placeholders", ph)
    assert np.allclose(vec2, EncoderStub.inner.encode("tpl", "with placeholders", ph))


def test_http_backend_tokenizes_graph(http_server):
    g = small_academic_graph()
    t = tokenize_graph(HttpBackend(http_server), g, targets=["a1"], K=1)
    assert t.stored_per_target("a1") >= 1 + 1


def test_http_cache_serves_only_the_pooling_it_was_filled_with(http_server, tmp_path):
    g = small_academic_graph()
    served = EncoderStub.poolings
    tables = []
    for pooling in ("mean", "last", "mean", "last"):
        before = len(served)
        with VectorCache(tmp_path / "cache.bin") as cache:
            backend = HttpBackend(http_server, pooling=pooling)
            tables.append(tokenize_graph(backend, g, targets=["a1"], K=1, cache=cache))
        assert served[before:] == [pooling] * tables[-1].call_count
    cold_mean, cold_last, warm_mean, warm_last = tables
    assert cold_last.call_count == cold_mean.call_count > 0
    assert cold_last.cache_hits == 0
    assert warm_mean.call_count == warm_last.call_count == 0


def test_http_backend_unreachable_is_transport_error():
    with pytest.raises(EncoderTransportError):
        HttpBackend("http://127.0.0.1:1")  # nothing listens there


def test_http_backend_url_without_a_scheme_is_a_transport_error_naming_it():
    with pytest.raises(EncoderTransportError, match="GET nohost/v1/info failed: unknown url type"):
        HttpBackend("nohost")  # refused before any connection is tried


def test_http_backend_transport_errors_name_the_service(http_server, monkeypatch):
    url = f"{http_server}/v1/encode"
    replies = [
        ({"error": "overloaded"}, 503, rf"POST {url} failed: .*503"),
        ({"vector": [0.0] * 12}, 200, rf"bad encode response from {url}: "),
        ({"embedding": [0.0] * 3, "dim": 3}, 200, rf"{url}: response dim \(3,\)/3 disagrees"),
    ]
    backend = HttpBackend(http_server)
    for payload, status, message in replies:
        monkeypatch.setattr(EncoderStub, "do_POST", lambda h, p=payload, s=status: h._send(p, s))
        with pytest.raises(EncoderTransportError, match=message):
            backend.encode("node_text", "a text")
    monkeypatch.setattr(EncoderStub, "do_GET", lambda h: h._send({"dim": 12}))
    with pytest.raises(EncoderTransportError, match=f"bad handshake response from {http_server}/v1/info: "):
        HttpBackend(http_server)


def test_http_backend_refuses_a_dim_that_is_not_a_positive_json_integer(http_server, monkeypatch):
    vec = EncoderStub.inner.encode("node_text", "a text").tolist()
    for dim in (3.9, 12.0, True, 0, -12, "12", None):
        with monkeypatch.context() as m:
            m.setattr(EncoderStub, "do_GET", lambda h: h._send({"name": "remote-mock", "dim": dim}))
            with pytest.raises(EncoderTransportError, match=f"bad handshake response from {http_server}/v1/info"):
                HttpBackend(http_server)
        backend = HttpBackend(http_server)
        with monkeypatch.context() as m:
            m.setattr(EncoderStub, "do_POST", lambda h: h._send({"embedding": vec, "dim": dim}))
            with pytest.raises(EncoderTransportError, match=f"bad encode response from {http_server}/v1/encode"):
                backend.encode("node_text", "a text")
