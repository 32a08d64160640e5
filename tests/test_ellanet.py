import numpy as np
import pytest

import ella.tensorcore as tc
from ella.ellanet import (
    AttentionCapture,
    ModelConfig,
    forward,
    forward_batch,
    hop_block,
    hop_readout,
    init_params,
    pad_tokens,
    project,
    type_block,
    type_readout,
)
from ella.encoder import MockBackend, TokenTable, tokenize_graph
from ella.tensorcore import Tensor, grad_check

from fixtures import planted_node_fixture, small_academic_graph


def small_cfg(**kw):
    defaults = dict(d=4, heads=2, type_layers=2, hop_layers=3, hops=2, d_llm=6)
    defaults.update(kw)
    return ModelConfig(**defaults)


def params_for(cfg, seed=0, types=("paper", "author", "organization"), classes=None):
    return init_params(cfg, list(types), classes or {}, seed=seed)


def all_real(x):
    """A ``keep`` marking every token of the (..., n, d) sets in ``x`` real."""
    return np.ones(x.shape[:-1], dtype=bool)


def all_hops(H):
    """A ``hop_readout`` ``keep`` marking every hop after the target token of ``H`` present."""
    return all_real(H)[..., 1:]


# -- independent single-purpose reference forward (oracle) ----------------------


def ref_layer_norm(x, g, b, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * g + b


def ref_softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def ref_mha(x, p, prefix, heads):
    outs = []
    for j in range(heads):
        q = x @ p[f"{prefix}/attn/q{j}"].data
        k = x @ p[f"{prefix}/attn/k{j}"].data
        v = x @ p[f"{prefix}/attn/v{j}"].data
        a = ref_softmax(q @ k.T / np.sqrt(q.shape[1]))
        outs.append(a @ v)
    return np.concatenate(outs, axis=1) @ p[f"{prefix}/attn/o"].data


def ref_encoder_layer(x, p, prefix, heads):
    h = ref_layer_norm(x, p[f"{prefix}/ln1/g"].data, p[f"{prefix}/ln1/b"].data)
    x = x + ref_mha(h, p, prefix, heads)
    h = ref_layer_norm(x, p[f"{prefix}/ln2/g"].data, p[f"{prefix}/ln2/b"].data)
    ffn = np.maximum(h @ p[f"{prefix}/ffn/w1"].data + p[f"{prefix}/ffn/b1"].data, 0.0)
    return x + ffn @ p[f"{prefix}/ffn/w2"].data + p[f"{prefix}/ffn/b2"].data


def ref_block(x, p, kind, layers, heads):
    for l in range(layers):
        x = ref_encoder_layer(x, p, f"{kind}/{l}", heads)
    return x


def ref_forward(s, table, p, cfg):
    """One node, one hop at a time, absent hops skipped: (z, alphas, gamma).

    The hop readout is the paper's: it scores the pairs (h0 || h_j) against
    (a; readout/w.T), with a fixed random h0 share ``a`` that the model does
    not have, since the softmax over a node's hops cancels it."""
    def proj(x):
        return x @ p["proj/W"].data + p["proj/b"].data

    u = proj(table.node_tokens[s].reshape(1, -1))
    hop_rows, alphas = [u], {}
    for hop in range(1, cfg.hops + 1):
        types = sorted(t for (sid, h, t) in table.relation_tokens if sid == s and h == hop)
        if not types:
            continue
        U = proj(np.stack([table.relation_tokens[(s, hop, t)] for t in types]))
        U = ref_block(U, p, "type", cfg.type_layers, cfg.heads)
        alpha = ref_softmax(u @ U.T)
        alphas[(s, hop)] = (types, alpha[0])
        hop_rows.append(alpha @ U)
    H = ref_block(np.concatenate(hop_rows), p, "hop", cfg.hop_layers, cfg.heads)
    h0, rest = H[:1], H[1:]
    if not len(rest):
        return h0[0], alphas, np.zeros(0)
    pairs = np.concatenate([np.repeat(h0, len(rest), axis=0), rest], axis=1)
    a = 3.0 * np.random.default_rng(80).standard_normal((cfg.d, 1))
    gamma = ref_softmax((pairs @ np.concatenate([a, p["readout/w"].data.T])).T)
    return (h0 + gamma @ rest)[0], alphas, gamma[0]


def test_model_config_refuses_zero_hops():
    with pytest.raises(ValueError, match="hops must be >= 1"):
        ModelConfig(hops=0)


# -- projection -----------------------------------------------------------------


def test_project_zero_input_zero_bias():
    cfg = small_cfg()
    p = params_for(cfg)
    p["proj/b"].data[...] = 0.0
    out = project(p, Tensor(np.zeros((1, cfg.d_llm))))
    assert np.allclose(out.data, 0.0)


def test_project_identity_square():
    cfg = small_cfg(d_llm=4)
    p = params_for(cfg)
    p["proj/W"].data[...] = np.eye(4)
    p["proj/b"].data[...] = 0.0
    x = np.arange(4.0).reshape(1, 4)
    assert np.allclose(project(p, Tensor(x)).data, x)


def test_project_matches_direct_product():
    rng = np.random.default_rng(1)
    cfg = small_cfg(d_llm=8, d=4)
    p = params_for(cfg, seed=2)
    x = rng.standard_normal((3, 8))
    expected = x @ p["proj/W"].data + p["proj/b"].data
    assert np.allclose(project(p, Tensor(x)).data, expected, atol=1e-12)


def test_project_dim_mismatch():
    cfg = small_cfg()
    p = params_for(cfg)
    with pytest.raises(tc.ShapeError):
        project(p, Tensor(np.zeros((1, cfg.d_llm + 1))))


# -- type block ------------------------------------------------------------------


def test_type_block_single_token_attention_identity():
    cfg = small_cfg(type_layers=1)
    p = params_for(cfg)
    cap = AttentionCapture()
    x = Tensor(np.random.default_rng(0).standard_normal((1, 4)))
    type_block(p, x, cfg, all_real(x), cap)
    for row in cap.softmax_rows:
        assert np.allclose(row, [1.0])


def test_type_block_identical_tokens_identical_outputs():
    cfg = small_cfg()
    p = params_for(cfg, seed=3)
    row = np.random.default_rng(4).standard_normal(4)
    U = Tensor(np.tile(row, (3, 1)))
    out = type_block(p, U, cfg, all_real(U)).data
    assert np.allclose(out[0], out[1]) and np.allclose(out[1], out[2])


def test_type_block_matches_reference():
    cfg = small_cfg(d=4, heads=2, type_layers=2)
    p = params_for(cfg, seed=5)
    x = np.random.default_rng(6).standard_normal((3, 4))
    ours = type_block(p, Tensor(x), cfg, all_real(x)).data
    ref = ref_block(x, p, "type", cfg.type_layers, cfg.heads)
    assert np.max(np.abs(ours - ref)) < 1e-10


def test_type_block_empty_errors():
    cfg = small_cfg()
    p = params_for(cfg)
    with pytest.raises(tc.ShapeError):
        type_block(p, Tensor(np.zeros((0, 4))), cfg, np.ones(0, dtype=bool))


# -- type readout -----------------------------------------------------------------


def test_type_readout_single_type():
    u = Tensor(np.array([[1.0, 0.0]]))
    U = Tensor(np.array([[3.0, 4.0]]))
    h, alpha = type_readout(u, U, all_real(U))
    assert np.allclose(h.data, [[3.0, 4.0]])
    assert np.allclose(alpha, [[1.0]])


def test_type_readout_identical_tokens_uniform():
    u = Tensor(np.array([[0.3, -0.2]]))
    U = Tensor(np.tile([1.0, 2.0], (4, 1)))
    _, alpha = type_readout(u, U, all_real(U))
    assert alpha.shape == (1, 4)
    assert np.allclose(alpha, 0.25)


def test_type_readout_dot_products_one_two():
    # u.u1 = 1, u.u2 = 2 -> alpha = softmax([1, 2])
    u = Tensor(np.array([[1.0, 0.0]]))
    U = Tensor(np.array([[1.0, 5.0], [2.0, -3.0]]))
    h, alpha = type_readout(u, U, all_real(U))
    expected_alpha = np.exp([1.0, 2.0]) / np.exp([1.0, 2.0]).sum()
    assert np.allclose(alpha[0], expected_alpha, atol=1e-12)
    assert np.allclose(h.data[0], expected_alpha @ U.data, atol=1e-12)


def test_type_readout_argmax_invariant_under_scaling():
    rng = np.random.default_rng(7)
    u = rng.standard_normal((1, 4))
    U = Tensor(rng.standard_normal((3, 4)))
    base = None
    for c in (0.5, 1.0, 3.0, 10.0):
        _, alpha = type_readout(Tensor(c * u), U, all_real(U))
        arg = int(np.argmax(alpha[0]))
        base = arg if base is None else base
        assert arg == base


# -- hop block / readout -------------------------------------------------------------


def test_hop_block_matches_reference():
    cfg = small_cfg(d=4, heads=2, hop_layers=3, hops=2)
    p = params_for(cfg, seed=8)
    x = np.random.default_rng(9).standard_normal((3, 4))
    ours = hop_block(p, Tensor(x), cfg, all_real(x)).data
    ref = ref_block(x, p, "hop", cfg.hop_layers, cfg.heads)
    assert np.max(np.abs(ours - ref)) < 1e-10


def test_hop_block_permutation_equivariant():
    # no positional encoding: permuting rows permutes outputs identically
    cfg = small_cfg(hop_layers=2)
    p = params_for(cfg, seed=10)
    x = np.random.default_rng(11).standard_normal((4, 4))
    perm = [0, 3, 1, 2]  # keep position 0 (the target token) fixed
    out = hop_block(p, Tensor(x), cfg, all_real(x)).data
    out_perm = hop_block(p, Tensor(x[perm]), cfg, all_real(x)).data
    assert np.allclose(out[perm], out_perm, atol=1e-12)


def test_hop_readout_k1():
    p = params_for(small_cfg())
    H = Tensor(np.array([[1.0, 2.0, 0.0, 0.0], [0.5, -1.0, 0.0, 0.0]]))
    z, gamma = hop_readout(p, H, all_hops(H))
    assert np.allclose(gamma, [[1.0]])
    assert np.allclose(z.data, H.data[0] + H.data[1])


def test_hop_readout_k0():
    p = params_for(small_cfg())
    with pytest.raises(tc.ShapeError):
        hop_readout(p, Tensor(np.array([[1.0, 2.0, 3.0, 4.0]])), np.ones(0, dtype=bool))


def test_hop_readout_scores_03_07():
    cfg = ModelConfig(d=1, heads=1, type_layers=1, hop_layers=1, hops=2, d_llm=1)
    p = init_params(cfg, ["t"], {}, seed=0)
    p["readout/w"].data[...] = np.array([[1.0]])  # score_j = h_j
    H = Tensor(np.array([[0.0], [0.3], [0.7]]))
    z, weights = hop_readout(p, H, all_hops(H))
    gamma = np.exp([0.3, 0.7]) / np.exp([0.3, 0.7]).sum()
    assert np.allclose(weights[0], gamma, atol=1e-12)
    assert np.allclose(z.data, [[gamma[0] * 0.3 + gamma[1] * 0.7]], atol=1e-12)


def test_readouts_return_masked_weights_on_a_padded_batch():
    # set 0 has two of three entries real, set 1 all three, set 2 none
    keep = np.array([[True, True, False], [True, True, True], [False, False, False]])
    rng = np.random.default_rng(40)
    _, alpha = type_readout(
        Tensor(rng.standard_normal((3, 1, 4))), Tensor(rng.standard_normal((3, 3, 4))), keep
    )
    H = rng.standard_normal((3, 4, 4))
    z, gamma = hop_readout(params_for(small_cfg(), seed=41), Tensor(H), keep)
    for weights in (alpha, gamma):
        assert weights.shape == (3, 1, 3)
        assert not np.isnan(weights).any()
        assert np.all(weights[:, 0][~keep] == 0.0)
        assert np.allclose(weights[:2].sum(axis=-1), 1.0, atol=1e-12)
        assert np.all(weights[2] == 0.0)
    assert np.array_equal(z.data[2], H[2, :1])


# -- composed forward ------------------------------------------------------------------


def tokenized(cfg, seed=0):
    g = small_academic_graph()
    table = tokenize_graph(MockBackend(dim=cfg.d_llm), g, K=cfg.hops)
    return g, table


def test_forward_isolated_node_collapses_to_h0():
    cfg = small_cfg(d_llm=8)
    p = params_for(cfg, seed=12)
    table = TokenTable(dim=8)
    table.node_tokens["lonely"] = np.random.default_rng(13).standard_normal(8)
    z = forward("lonely", table, p, cfg)
    u_proj = project(p, Tensor(table.node_tokens["lonely"].reshape(1, -1)))
    assert np.allclose(z.data, hop_block(p, u_proj, cfg, all_real(u_proj)).data, atol=1e-12)


def test_forward_matches_manual_composition():
    # 2-node, 1-edge graph with K=1: compose the four blocks by hand
    from ella.hetgraph import EdgeType, HeteroGraph, SchemaDef

    schema = SchemaDef(
        node_types=["author", "paper"], edge_types=[EdgeType("writes", "author", "paper")]
    )
    g = HeteroGraph(
        schema,
        [("a", "author"), ("p", "paper")],
        [("a", "p", "writes")],
        {"a": "author alice", "p": "paper on graphs"},
    )
    cfg = small_cfg(d_llm=8, hops=1)
    p = init_params(cfg, ["author", "paper"], {}, seed=14)
    table = tokenize_graph(MockBackend(dim=8), g, K=1)

    z = forward("a", table, p, cfg)

    u_proj = project(p, Tensor(table.node_tokens["a"].reshape(1, -1)))
    U = project(p, Tensor(table.relation_tokens[("a", 1, "paper")].reshape(1, -1)))
    h1, _ = type_readout(u_proj, type_block(p, U, cfg, all_real(U)), all_real(U))
    H = tc.concat([u_proj, h1], axis=0)
    expected, _ = hop_readout(p, hop_block(p, H, cfg, all_real(H)), all_hops(H))
    assert np.allclose(z.data, expected.data, atol=1e-12)


def test_forward_deterministic():
    cfg = small_cfg(d_llm=8)
    g, table = tokenized(cfg)
    p = params_for(cfg, seed=15)
    z1 = forward("p2", table, p, cfg).data
    z2 = forward("p2", table, p, cfg).data
    assert np.array_equal(z1, z2)


def test_forward_missing_node_token():
    cfg = small_cfg(d_llm=8)
    p = params_for(cfg)
    with pytest.raises(KeyError):
        forward("missing", TokenTable(dim=8), p, cfg)


def test_attention_rows_sum_to_one():
    cfg = small_cfg(d_llm=8)
    g, table = tokenized(cfg)
    p = params_for(cfg, seed=16)
    cap = AttentionCapture()
    for nid in g.node_ids():
        forward(nid, table, p, cfg, cap)
    assert cap.softmax_rows
    for row in cap.softmax_rows:
        assert np.all(row >= 0)
        assert abs(row.sum() - 1.0) < 1e-9
    for _, vec in cap.alpha.values():
        assert abs(vec.sum() - 1.0) < 1e-9
    for _, vec in cap.gamma.values():
        if len(vec):
            assert abs(vec.sum() - 1.0) < 1e-9


def test_single_mha_block_gradient():
    # 1-layer attention block, d=8, two heads, 100 sampled coordinates
    from ella.ellanet import _mha

    cfg = small_cfg(d=8, heads=2, type_layers=1, d_llm=8)
    p = params_for(cfg, seed=21)
    x = Tensor(np.random.default_rng(22).standard_normal((3, 8)), requires_grad=True)
    mix = Tensor(np.random.default_rng(23).standard_normal((3, 8)))
    tensors = {n: t for n, t in p.tensors.items() if n.startswith("type/0/attn")}
    tensors["x"] = x

    def f():
        return tc.tsum(tc.mul(_mha(p, "type/0", x, cfg.heads, all_real(x), None), mix))

    err = grad_check(f, tensors, eps=1e-5, n_samples=100, seed=24)
    assert err < 1e-4


def mixed_table(d_llm=6, seed=30):
    """Hand-made tokens over 3 hops: an isolated node, a node whose hop 2 is
    empty, and nodes with different type counts per hop."""
    rng = np.random.default_rng(seed)
    layout = {
        "iso": {},
        "gap": {1: ["a"], 3: ["a", "b"]},
        "one": {1: ["a"], 2: ["b"], 3: ["c"]},
        "many": {1: ["a", "b", "c"], 2: ["c", "a"], 3: ["b"]},
    }
    table = TokenTable(dim=d_llm)
    for s, by_hop in layout.items():
        table.node_tokens[s] = rng.standard_normal(d_llm)
        for hop, types in by_hop.items():
            for t in types:
                table.relation_tokens[(s, hop, t)] = rng.standard_normal(d_llm)
    return table, list(layout)


def test_forward_batch_matches_reference_on_mixed_batch():
    cfg = small_cfg(hops=3)
    p = params_for(cfg, seed=31)
    table, ids = mixed_table()
    cap = AttentionCapture()
    Z = forward_batch(pad_tokens(ids, table, cfg.hops), p, cfg, cap).data
    assert Z.shape == (len(ids), cfg.d)
    for i, s in enumerate(ids):
        z, alphas, gamma = ref_forward(s, table, p, cfg)
        assert np.max(np.abs(Z[i] - z)) < 1e-12, s
        for key, (types, alpha) in alphas.items():
            assert cap.alpha[key][0] == types
            assert np.max(np.abs(cap.alpha[key][1] - alpha)) < 1e-12
        assert np.max(np.abs(cap.gamma[s][1] - gamma), initial=0.0) < 1e-12
    assert set(cap.alpha) == {(s, h) for (s, h, _) in table.relation_tokens}
    assert cap.gamma["iso"][0] == [] and len(cap.gamma["iso"][1]) == 0
    assert cap.gamma["gap"][0] == [1, 3]
    # an isolated node collapses to its h0, whatever shares its batch
    u_proj = project(p, Tensor(table.node_tokens["iso"].reshape(1, -1)))
    assert np.max(np.abs(Z[0] - hop_block(p, u_proj, cfg, all_real(u_proj)).data[0])) < 1e-12


def tape_ops(out):
    """The number of tape ops ``out`` was computed by: the tensors it reaches
    through their parents that carry a backward closure."""
    seen, stack = {}, [out]
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen[id(t)] = t
            stack.extend(t._parents)
    return sum(t._backward is not None for t in seen.values())


@pytest.mark.parametrize("K", [1, 2, 3, 4])
def test_the_forward_at_the_bench_config_is_44_tape_ops(K):
    # d 16, two heads, 1 + 1 layers: 4 ops to project, 15 per transformer layer,
    # 1 type readout, 5 reshapes and concats around it and 4 for the hop readout;
    # a change that adds ops to the forward fails here
    g, _ = planted_node_fixture(seed=0, papers=40, authors=40)
    cfg = ModelConfig(d=16, heads=2, type_layers=1, hop_layers=1, hops=K, d_llm=16)
    table = tokenize_graph(MockBackend(dim=16), g, K=K)
    Z = forward_batch(pad_tokens(g.node_ids(), table, K), params_for(cfg, types=g.schema.node_types), cfg)
    assert tape_ops(Z) == 44


def test_forward_batch_repeated_id_gets_its_own_tokens():
    cfg = small_cfg(hops=3)
    p = params_for(cfg, seed=35)
    table, ids = mixed_table(seed=36)
    Z = forward_batch(pad_tokens(ids + ids[::-1], table, cfg.hops), p, cfg).data
    assert np.max(np.abs(Z[len(ids):] - Z[len(ids) - 1::-1])) < 1e-12


def naive_pad(ids, table, K):
    """pad_tokens written slot by slot, straight from its definition."""
    names = [
        [sorted(t for (n, h, t) in table.relation_tokens if n == s and h == hop) for hop in range(1, K + 1)]
        for s in ids
    ]
    T = max([1] + [len(types) for per_node in names for types in per_node])
    rel = np.zeros((len(ids), K, T, table.dim))
    keep = np.zeros((len(ids), K, T), dtype=bool)
    for b, s in enumerate(ids):
        for k in range(K):
            for i, t in enumerate(names[b][k]):
                rel[b, k, i] = table.relation_tokens[(s, k + 1, t)]
                keep[b, k, i] = True
    return rel, keep, names


@pytest.mark.parametrize("K", [1, 2, 3, 4])
@pytest.mark.parametrize("pick", [None, ["iso"], ["many", "iso", "gap", "many"]], ids=["all", "iso", "repeats"])
def test_pad_tokens_matches_a_per_slot_loop(K, pick):
    # absent hops ("gap" at 2, every hop of "iso"), uneven type counts per hop
    table, ids = mixed_table(seed=37)
    ids = pick or ids
    batch = pad_tokens(ids, table, K)
    rel, keep, names = naive_pad(ids, table, K)
    assert batch.rel.shape == rel.shape and batch.rel.tobytes() == rel.tobytes()
    assert batch.keep.shape == keep.shape and batch.keep.tobytes() == keep.tobytes()
    assert batch.names == names and batch.ids == ids
    assert batch.node.tobytes() == np.stack([table.node_tokens[s] for s in ids]).tobytes()


def test_forward_batch_padding_carries_no_gradient():
    # the batch gradient equals the sum of per-node gradients: padded type
    # slots and absent hops contribute nothing, and nothing is NaN
    cfg = small_cfg(hops=3)
    p = params_for(cfg, seed=32)
    table, ids = mixed_table(seed=33)
    mix = np.random.default_rng(34).standard_normal((len(ids), cfg.d))

    def grads(rows):
        tc.zero_grads(p.tensors)
        Z = forward_batch(pad_tokens(rows, table, cfg.hops), p, cfg)
        tc.backward(tc.tsum(tc.mul(Z, Tensor(mix[[ids.index(s) for s in rows]]))))
        return {n: t.grad.copy() for n, t in p.tensors.items() if t.grad is not None}

    batch = grads(ids)
    summed: dict[str, np.ndarray] = {}
    for s in ids:
        for n, g in grads([s]).items():
            summed[n] = summed.get(n, 0.0) + g
    assert set(batch) == set(summed)
    for n in batch:
        assert np.all(np.isfinite(batch[n])), n
        assert np.max(np.abs(batch[n] - summed[n])) < 1e-10, n


def test_forward_gradient_sum_of_squares():
    cfg = small_cfg(d_llm=6, d=4, heads=2, type_layers=1, hop_layers=1)
    g, table = tokenized(cfg)
    p = params_for(cfg, seed=17)

    def loss():
        total = None
        for nid in ("a1", "p2"):
            z = forward(nid, table, p, cfg)
            sq = tc.tsum(tc.mul(z, z))
            total = sq if total is None else tc.add(total, sq)
        return total

    err = grad_check(loss, p.tensors, eps=1e-5, n_samples=60, seed=18)
    assert err < 1e-4


# -- fused tape ops against the chains they replace ------------------------------


def composed_attend(q, k, v, key_mask, c):
    """The chain of tape ops that ``_attend`` fuses, kept as its oracle: the
    attention core scaled its scores, the type readout (c = 1) did not."""
    scores = tc.matmul(q, tc.transpose(k))
    probs = tc.softmax(scores if c == 1.0 else tc.scale(scores, c), key_mask)
    return tc.matmul(probs, v), probs.data


def composed_ffn(params, prefix, x):
    """The chain of tape ops that ``_ffn`` fuses, kept as its oracle."""
    h = tc.relu(tc.add(tc.matmul(x, params[f"{prefix}/ffn/w1"]), params[f"{prefix}/ffn/b1"]))
    return tc.add(tc.matmul(h, params[f"{prefix}/ffn/w2"]), params[f"{prefix}/ffn/b2"])


def assert_same_bits(got, want, name):
    assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
    assert got.strides == want.strides, name  # a gradient's layout decides later summation orders


def run_attend(attend, arrays, share_kv, key_mask, c, weights):
    """The output, probabilities and leaf gradients of ``sum(weights * attend(...))``."""
    leaves = {n: Tensor(a.copy(), requires_grad=True) for n, a in arrays.items()}
    q, k = leaves["q"], leaves["k"]
    out, probs = attend(q, k, k if share_kv else leaves["v"], key_mask, c)
    tc.backward(tc.tsum(tc.mul(out, Tensor(weights))))
    return out.data, probs, {n: t.grad for n, t in leaves.items()}


# (B, K, T) keeps: set (0, 1) keeps one of three slots, set (2, 1) none
TYPE_KEEP = np.array([[[1, 1, 0], [1, 0, 0]], [[1, 1, 1], [0, 1, 1]], [[1, 0, 1], [0, 0, 0]]], dtype=bool)


@pytest.mark.parametrize("case", ["type_block", "one_slot", "type_readout", "hop_readout"])
def test_attend_matches_the_composed_ops_bit_for_bit(case):
    from ella.ellanet import _attend

    rng = np.random.default_rng(50)
    # the hop readout's (B, K) keep: node 0 has its first hop only, node 2 none
    keep = {"one_slot": TYPE_KEEP[..., :1], "hop_readout": TYPE_KEEP[:, 1]}.get(case, TYPE_KEEP)
    B = keep.shape[0]

    def draw(*shape):
        # magnitudes far apart, so a different summation order would show in the last bits
        return rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, size=shape)

    if case == "hop_readout":  # one learned (1, d) query for every node over its hop tokens, keys and values
        arrays, share_kv, c, out_shape = {"q": draw(1, 4), "k": draw(*keep.shape, 4)}, True, 1.0, (B, 1, 4)
    elif case == "type_readout":  # one query per node, broadcast over its hops; keys and values one tensor
        arrays, share_kv, c = {"q": draw(B, 1, 1, 4), "k": draw(*keep.shape, 4)}, True, 1.0
        out_shape = (*keep.shape[:2], 1, 4)
    else:  # one head's q, k and v at d = 4 with two heads
        arrays = {name: draw(*keep.shape, 2) for name in "qkv"}
        share_kv, c, out_shape = False, 1 / np.sqrt(2), (*keep.shape, 2)
    key_mask = keep[..., None, :]
    weights = draw(*out_shape)
    got = run_attend(_attend, arrays, share_kv, key_mask, c, weights)
    want = run_attend(composed_attend, arrays, share_kv, key_mask, c, weights)
    assert_same_bits(got[0], want[0], "out")
    assert_same_bits(got[1], want[1], "probs")
    assert set(got[2]) == set(arrays)
    for name in arrays:
        assert_same_bits(got[2][name], want[2][name], name)
    assert not got[1][~keep.any(axis=-1)].any()  # a set with no real slot attends to nothing


def test_ffn_matches_the_composed_ops_bit_for_bit():
    from ella.ellanet import _ffn

    cfg = small_cfg(d=4, heads=2, type_layers=1)
    x_data = np.random.default_rng(51).standard_normal((3, 2, 3, 4))  # relu zeroes about half the hidden units
    weights = np.random.default_rng(52).standard_normal(x_data.shape)
    results = []
    for ffn in (_ffn, composed_ffn):
        p = params_for(cfg, seed=53)
        x = Tensor(x_data.copy(), requires_grad=True)
        out = ffn(p, "type/0", x)
        tc.backward(tc.tsum(tc.mul(out, Tensor(weights))))
        grads = {n: p[f"type/0/ffn/{n}"].grad for n in ("w1", "b1", "w2", "b2")}
        results.append((out.data, x.grad, grads))
    (out, x_grad, grads), (want_out, want_x_grad, want_grads) = results
    assert_same_bits(out, want_out, "out")
    assert_same_bits(x_grad, want_x_grad, "x")
    for n in grads:
        assert_same_bits(grads[n], want_grads[n], n)


def test_forward_batch_matches_the_composed_ops_bit_for_bit(monkeypatch):
    # two heads and stacked layers: each layer norm feeds six q/k/v products,
    # so the order in which gradients add up shows
    import ella.ellanet as ellanet

    cfg = small_cfg(heads=2, type_layers=2, hop_layers=2, hops=3)
    table, ids = mixed_table(seed=54)
    batch = pad_tokens(ids + ids[:2], table, cfg.hops)
    mix = np.random.default_rng(55).standard_normal((len(batch.ids), cfg.d))

    def run():
        p = params_for(cfg, seed=56)
        Z = forward_batch(batch, p, cfg)
        tc.backward(tc.tsum(tc.mul(Z, Tensor(mix))))
        return Z.data, {n: t.grad for n, t in p.tensors.items() if t.grad is not None}

    Z, grads = run()
    monkeypatch.setattr(ellanet, "_attend", composed_attend)
    monkeypatch.setattr(ellanet, "_ffn", composed_ffn)
    want_Z, want_grads = run()
    assert_same_bits(Z, want_Z, "Z")
    assert set(grads) == set(want_grads)
    for n in grads:
        assert_same_bits(grads[n], want_grads[n], n)
