import dataclasses
import hashlib
import math
import weakref

import numpy as np
import pytest

import ella.tensorcore as tc
from ella import trainer
from ella.ellanet import ModelConfig, forward, forward_batch, init_params, pad_tokens
from ella.encoder import MockBackend, PrototypeBackend, tokenize_graph
from ella.evalkit import Task, build_splits, link_protocol
from ella.hetgraph import EdgeType, HeteroGraph, SchemaDef
from ella.tensorcore import Tensor, backward, zero_grads
from ella.trainer import (
    EdgeSample,
    EdgeSampleSet,
    SamplingError,
    TrainConfig,
    TrainingDiverged,
    cross_entropy,
    finetune,
    pretrain,
    pretrain_loss,
    sample_edges,
    sample_negatives,
    similarity,
)

from fixtures import planted_link_fixture, planted_node_fixture, seeded_academic_graph


def bipartite_graph(n_users=3, n_items=3, edges=None):
    schema = SchemaDef(
        node_types=["user", "item"], edge_types=[EdgeType("buys", "user", "item")]
    )
    nodes = [(f"u{i}", "user") for i in range(n_users)] + [
        (f"i{j}", "item") for j in range(n_items)
    ]
    if edges is None:
        edges = [(f"u{i}", f"i{j}", "buys") for i in range(n_users) for j in range(n_items)]
    text = {nid: f"node {nid}" for nid, _ in nodes}
    return HeteroGraph(schema, nodes, edges, text)


# -- edge sampling ---------------------------------------------------------------


def test_complete_relation_has_no_negatives():
    g = bipartite_graph()  # complete bipartite
    with pytest.raises(SamplingError, match="complete"):
        sample_edges(g, ratio=1, seed=0)


def test_ratio_two_yields_two_absent_negatives():
    g = bipartite_graph(edges=[("u0", "i0", "buys")])
    samples = sample_edges(g, ratio=2, seed=0)
    sample = samples.by_type["buys"]
    assert len(sample.positives) == 1
    assert len(sample.negatives) == 2
    for s, t in sample.negatives:
        assert not g.has_edge(s, t, "buys")


def test_sampling_deterministic():
    g, _ = planted_link_fixture(seed=1, users=30, items=30)
    s1 = sample_edges(g, ratio=1, seed=5)
    s2 = sample_edges(g, ratio=1, seed=5)
    assert s1.by_type["reviews"].negatives == s2.by_type["reviews"].negatives
    s3 = sample_edges(g, ratio=1, seed=6)
    assert s3.by_type["reviews"].negatives != s1.by_type["reviews"].negatives


def test_negatives_never_intersect_edges():
    g, _ = planted_link_fixture(seed=2, users=30, items=30)
    for seed in range(5):
        samples = sample_edges(g, ratio=2, seed=seed)
        for sample in samples.by_type.values():
            for s, t in sample.negatives:
                assert not g.has_edge(s, t, "reviews")


def sampler_case(name, seed):
    """(graph, relation, positives, count, forbidden) of one sampling case."""
    if name in ("planted", "forbidden"):
        g, _ = planted_link_fixture(seed=seed, users=30, items=30)
        forbidden = None
        if name == "forbidden":  # train on a subgraph, rejecting every edge of the full graph
            held = set(g.edges[seed::4])
            forbidden = set(g.edges)
            g = HeteroGraph(g.schema, g.nodes, [e for e in g.edges if e not in held], g.node_text)
        positives = sorted((s, t) for s, t, _ in g.edges)
        return g, "reviews", positives, 2 * len(positives), forbidden
    if name == "same-type":  # cites: paper -> paper, negatives keyed canonically
        g = seeded_academic_graph()
        positives = sorted((s, t) for s, t, e in g.edges if e == "cites")
        return g, "cites", positives, len(positives), None
    if name == "single-positive":
        return bipartite_graph(4, 5, edges=[("u1", "i2", "buys")]), "buys", [("u1", "i2")], 3, None
    if name == "one-node-pool":  # a source pool of one: its side draws nothing
        g = bipartite_graph(1, 8, edges=[("u0", "i0", "buys"), ("u0", "i3", "buys")])
        return g, "buys", [("u0", "i0"), ("u0", "i3")], 4, None
    # corrupting u0-i0 reaches two non-edges, so the third comes from the complement
    assert name == "fallback"
    return bipartite_graph(2, 2, edges=[("u0", "i0", "buys")]), "buys", [("u0", "i0")], 3, None


@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.Philox], ids=["PCG64", "Philox"])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize(
    "name", ["planted", "forbidden", "same-type", "single-positive", "one-node-pool", "fallback"]
)
def test_sample_negatives_draws_distinct_non_edges_reproducibly(name, seed, bit_generator):
    g, ename, positives, count, forbidden = sampler_case(name, seed)
    et = g.schema.edge_type(ename)
    rejected = set(forbidden or ())
    first, second = (np.random.Generator(bit_generator([seed, 7])) for _ in range(2))
    for _ in range(3):  # later calls start from the state the earlier ones left
        got = sample_negatives(g, ename, positives, count, first, forbidden)
        assert got == sample_negatives(g, ename, positives, count, second, forbidden)
        assert len(got) == count
        assert len({(s, t) if et.src != et.dst or s <= t else (t, s) for s, t in got}) == count
        for s, t in got:
            assert s != t
            for pair in ((s, t), (t, s)):
                assert not g.has_edge(*pair, ename) and (*pair, ename) not in rejected
    assert repr(first.bit_generator.state) == repr(second.bit_generator.state)  # Philox's holds arrays


def test_sample_negatives_without_positives_names_the_relation():
    g = bipartite_graph(edges=[("u0", "i0", "buys")])
    with pytest.raises(SamplingError, match="'buys' has no positives"):
        sample_negatives(g, "buys", [], 2, np.random.default_rng(0))
    assert sample_negatives(g, "buys", [], 0, np.random.default_rng(0)) == []


# -- similarity ------------------------------------------------------------------


def one_d_params():
    cfg = ModelConfig(d=1, heads=1, type_layers=1, hop_layers=1, hops=1, d_llm=1)
    p = init_params(cfg, ["user", "item"], {}, seed=0)
    p["sim/user"].data[...] = np.array([[1.0]])
    p["sim/item"].data[...] = np.array([[1.0]])
    return p


def test_similarity_zero_projection_is_half():
    p = one_d_params()
    p["sim/user"].data[...] = 0.0
    sim = similarity(Tensor([[3.0]]), Tensor([[2.0]]), "user", "item", p)
    assert sim.item() == pytest.approx(0.5)


def test_similarity_sigmoid_of_one():
    p = one_d_params()
    sim = similarity(Tensor([[1.0]]), Tensor([[1.0]]), "user", "item", p)
    assert sim.item() == pytest.approx(0.7310585786300049, abs=1e-9)


def test_similarity_symmetric():
    rng = np.random.default_rng(0)
    cfg = ModelConfig(d=8, heads=2, type_layers=1, hop_layers=1, hops=1, d_llm=8)
    p = init_params(cfg, ["user", "item"], {}, seed=1)
    for _ in range(200):
        zs = Tensor(rng.standard_normal((1, 8)))
        zt = Tensor(rng.standard_normal((1, 8)))
        a = similarity(zs, zt, "user", "item", p).item()
        b = similarity(zt, zs, "item", "user", p).item()
        assert abs(a - b) < 1e-12


def test_similarity_missing_projection():
    p = one_d_params()
    with pytest.raises(KeyError, match="ghost"):
        similarity(Tensor([[1.0]]), Tensor([[1.0]]), "ghost", "item", p)


# -- pretrain loss -----------------------------------------------------------------


def loss_for(pos_logits, neg_logits):
    """Build a 1-d fixture whose similarities are sigmoid(logit)."""
    p = one_d_params()
    samples = EdgeSampleSet()
    emb = {}
    pos, neg = [], []
    for i, logit in enumerate(pos_logits):
        s, t = f"u{i}", f"i{i}"
        emb[s] = Tensor([[1.0]])
        emb[t] = Tensor([[float(logit)]])
        pos.append((s, t))
    for i, logit in enumerate(neg_logits):
        s, t = f"nu{i}", f"ni{i}"
        emb[s] = Tensor([[1.0]])
        emb[t] = Tensor([[float(logit)]])
        neg.append((s, t))
    samples.by_type["buys"] = EdgeSample(positives=pos, negatives=neg)
    type_of = lambda n: "user" if n.startswith(("u", "nu")) else "item"
    return pretrain_loss(samples, emb, type_of, p)


def test_pretrain_loss_half_half():
    # 1 positive and 1 negative both at sim 0.5 -> 2 ln 2
    loss = loss_for([0.0], [0.0])
    assert loss.item() == pytest.approx(2 * math.log(2), abs=1e-12)


def test_pretrain_loss_perfect_limit():
    loss = loss_for([30.0], [-30.0])
    assert loss.item() == pytest.approx(0.0, abs=1e-9)


def test_pretrain_loss_frozen_value():
    # sims 0.9, 0.8 positive and 0.3 negative -> -ln.9 - ln.8 - ln.7
    logits = [math.log(0.9 / 0.1), math.log(0.8 / 0.2)]
    neg = [math.log(0.3 / 0.7)]
    expected = -(math.log(0.9) + math.log(0.8) + math.log(0.7))
    assert loss_for(logits, neg).item() == pytest.approx(expected, abs=1e-9)
    assert expected == pytest.approx(0.685179, abs=1e-6)


def test_pretrain_loss_descends_under_small_sgd_step():
    g, _ = planted_link_fixture(seed=3, users=20, items=20)
    cfg = ModelConfig(d=8, heads=2, type_layers=1, hop_layers=1, hops=2, d_llm=8)
    table = tokenize_graph(MockBackend(dim=8), g, K=2)
    params = init_params(cfg, g.schema.node_types, {}, seed=4)
    samples = sample_edges(g, ratio=1, seed=7)

    from ella.ellanet import forward

    def compute_loss():
        emb = {n: forward(n, table, params, cfg) for n in sorted(samples.endpoints())}
        return pretrain_loss(samples, emb, g.node_type, params)

    loss0 = compute_loss()
    zero_grads(params.tensors)
    backward(loss0)
    for t in params.tensors.values():
        if t.grad is not None:
            t.data -= 1e-6 * t.grad
    loss1 = compute_loss()
    assert loss1.item() <= loss0.item() + 1e-12


# -- cross entropy ------------------------------------------------------------------


def test_uniform_head_gives_log_c():
    onehot = np.zeros((5, 3))
    onehot[np.arange(5), [0, 1, 2, 0, 1]] = 1.0
    loss = cross_entropy(Tensor(np.zeros((5, 3))), Tensor(onehot))
    assert loss.item() == pytest.approx(math.log(3), abs=1e-12)


def test_cross_entropy_on_stacked_lanes():
    # (L, n, C) logits give one loss per lane, each equal to the 2-d loss
    rng = np.random.default_rng(6)
    logits = Tensor(rng.standard_normal((3, 5, 4)), requires_grad=True)
    onehot = Tensor(np.eye(4)[rng.integers(4, size=5)])
    losses = cross_entropy(logits, onehot)
    assert losses.shape == (3,)
    for i in range(3):
        assert losses.data[i] == cross_entropy(Tensor(logits.data[i]), onehot).item()
    err = tc.grad_check(
        lambda: tc.tsum(tc.mul(cross_entropy(logits, onehot), Tensor([1.0, -2.0, 0.5]))),
        {"logits": logits},
        eps=1e-5,
        n_samples=60,
    )
    assert err < 1e-4


def composed_cross_entropy(logits, onehot):
    """The chain of seven tape ops that ``cross_entropy`` fuses, kept as its oracle."""
    p = tc.clip(tc.softmax(logits, np.ones(logits.shape, dtype=bool)), trainer.SIM_CLAMP, 1.0)
    per_row = tc.tsum(tc.mul(onehot, tc.tlog(p)), axis=-1)
    return tc.scale(tc.mean(per_row, axis=-1), -1.0)


def loss_and_logits_grad(loss_fn, logits, onehot, weights):
    """The loss bytes and the logits gradient of ``sum(weights * loss)``."""
    x = Tensor(logits.copy(), requires_grad=True)
    loss = loss_fn(x, Tensor(onehot))
    backward(tc.tsum(tc.mul(loss, Tensor(weights))))
    return loss.data.tobytes(), x.grad


@pytest.mark.parametrize("lanes", [None, 3], ids=["2d", "stacked_lanes"])
def test_cross_entropy_matches_the_composed_ops_bit_for_bit(lanes):
    rng = np.random.default_rng(12)
    shape = (6, 4) if lanes is None else (lanes, 6, 4)
    logits = rng.standard_normal(shape) * 3.0
    # the gold class of row 0 falls below the clamp and that of row 2 underflows
    # to 0; the top (gold) class of row 1 rounds to exactly 1.0
    logits[..., 0, :] = [0.0, -40.0, 1.0, 0.5]
    logits[..., 1, :] = [40.0, 0.0, 0.0, -1.0]
    logits[..., 2, :] = [0.0, 0.0, -800.0, 0.0]
    gold = np.array([1, 0, 2, 3, 1, 2])
    onehot = np.eye(4)[gold]
    p = np.exp(logits) / np.exp(logits).sum(axis=-1, keepdims=True)
    assert (0 < p[..., 0, 1]).all() and (p[..., 0, 1] < trainer.SIM_CLAMP).all()
    assert (p[..., 1, 0] == 1.0).all() and (p[..., 2, 2] == 0.0).all()
    weights = np.array(1.5) if lanes is None else np.array([1.0, -2.0, 0.5])

    loss, grad = loss_and_logits_grad(cross_entropy, logits, onehot, weights)
    want_loss, want_grad = loss_and_logits_grad(composed_cross_entropy, logits, onehot, weights)
    assert loss == want_loss
    assert grad.shape == shape and grad.tobytes() == want_grad.tobytes()
    # the clip mask zeroes these rows: the gold probability is clamped or exactly 1
    assert not grad[..., :3, :].any() and grad[..., 3:, :].all()


def test_cross_entropy_is_one_tape_op_on_the_logits():
    logits = Tensor(np.zeros((2, 5, 3)), requires_grad=True)
    loss = cross_entropy(logits, Tensor(np.eye(3)[[0, 1, 2, 0, 1]]))
    assert loss.requires_grad and loss._parents == (logits,)
    assert not cross_entropy(Tensor(logits.data), Tensor(np.eye(3)[[0, 1, 2, 0, 1]])).requires_grad


# -- pretrain loop ------------------------------------------------------------------


def small_link_setup(seed=0, users=24, items=24):
    g, labels = planted_link_fixture(seed=seed, users=users, items=items)
    cfg = ModelConfig(d=8, heads=2, type_layers=1, hop_layers=1, hops=2, d_llm=8)
    table = tokenize_graph(MockBackend(dim=8), g, K=2)
    return g, cfg, table


def test_pretrain_improves_validation_loss():
    # dense enough that neighborhood structure generalizes to held-out edges
    g, cfg, table = small_link_setup(users=64, items=64)
    result = pretrain(g, table, cfg, TrainConfig(max_epochs=50, patience=50), seed=0)
    assert min(result.val_curve[1:]) < result.val_curve[0]


def test_pretrain_frozen_val_stops_at_patience():
    g, cfg, table = small_link_setup()
    result = pretrain(g, table, cfg, TrainConfig(lr=0.0, max_epochs=100, patience=30), seed=0)
    assert result.best_epoch == 0
    assert result.last_epoch == 30
    assert len(result.val_curve) == 31


def test_pretrain_with_zero_epochs_reports_no_epoch_run():
    g, cfg, table = small_link_setup()
    result = pretrain(g, table, cfg, TrainConfig(max_epochs=0), seed=0)
    assert (result.best_epoch, result.last_epoch, result.val_curve) == (-1, -1, [])
    assert result.metadata() == {"best_epoch": -1, "last_epoch": -1, "best_val_loss": None, "epochs_run": 0}


def test_pretrain_never_exceeds_best_plus_patience():
    g, cfg, table = small_link_setup()
    patience = 5
    result = pretrain(g, table, cfg, TrainConfig(max_epochs=200, patience=patience), seed=1)
    assert result.last_epoch <= result.best_epoch + patience


def test_pretrain_deterministic_checkpoints():
    g, cfg, table = small_link_setup()
    r1 = pretrain(g, table, cfg, TrainConfig(max_epochs=4, patience=30), seed=9)
    r2 = pretrain(g, table, cfg, TrainConfig(max_epochs=4, patience=30), seed=9)
    assert r1.params.content_hash() == r2.params.content_hash()
    r3 = pretrain(g, table, cfg, TrainConfig(max_epochs=4, patience=30), seed=10)
    assert r3.params.content_hash() != r1.params.content_hash()


# sha256 of link_protocol's splits of the seeded academic graph (splits seed
# 3): the training graph's edges, the train positives, the validation samples
# and the test pairs with their labels; any change to the split or its
# negative draws moves it
PINNED_LINK_PROTOCOL_DIGEST = "a7abba2f4e484b3f2922190329247402684177347f6b700e84bc0c3c4834c13e"

# content_hash of the backbone that four epochs of pretraining (seed 5) leave
# on the seeded academic graph: on the default hold-out of all edges, and on
# link_protocol's train positives with every edge forbidden as a negative; any
# change to the negatives drawn, the model or the training step moves them
PINNED_PRETRAIN_DIGEST = {
    "hold-out": "fedde6051b152c6e6c461d178f72d43288ba7592c8723ac54b5ea4fc209d7486",
    "held-out-edges": "6abef51792469d1f88a90f38a3082c5d97c1d8fceb6494d9f54b0fa1d7bed61a",
}


def test_link_protocol_splits_are_pinned_to_the_bit():
    p = link_protocol(seeded_academic_graph(), seed=3)
    h = hashlib.sha256()
    for s, t, e in p.g_train.edges:
        h.update(f"{s} {t} {e}\n".encode())
    for e in sorted(p.train_pos):
        h.update(f"{e} {p.train_pos[e]}\n".encode())
    for e, sample in sorted(p.val_samples.by_type.items()):
        h.update(f"{e} {sample.positives} {sample.negatives}\n".encode())
    h.update(f"{p.test_pairs} {p.test_labels}".encode())
    assert h.hexdigest() == PINNED_LINK_PROTOCOL_DIGEST


@pytest.mark.parametrize("path", sorted(PINNED_PRETRAIN_DIGEST))
def test_pretrained_backbone_is_pinned_to_the_bit(path):
    g = seeded_academic_graph()
    cfg = ModelConfig(d=8, heads=2, type_layers=1, hop_layers=1, hops=2, d_llm=8)
    if path == "hold-out":
        table = tokenize_graph(MockBackend(dim=8), g, K=2)
        result = pretrain(g, table, cfg, TrainConfig(max_epochs=4), seed=5)
    else:
        p = link_protocol(g, seed=3)
        table = tokenize_graph(MockBackend(dim=8), p.g_train, K=2)
        result = pretrain(p.g_train, table, cfg, TrainConfig(max_epochs=4), seed=5,
                          train_positives=p.train_pos, val_samples=p.val_samples, forbidden=p.full_edges)
    assert result.params.content_hash() == PINNED_PRETRAIN_DIGEST[path]


def test_pretrain_divergence_aborts_with_dump(tmp_path):
    g, cfg, table = small_link_setup()
    dump = tmp_path / "diverged.ckpt"
    with pytest.raises(TrainingDiverged) as diverged:
        pretrain(g, table, cfg, TrainConfig(lr=1e308, max_epochs=3, dump_path=str(dump)), seed=0)
    assert diverged.value.epoch == 1  # the first Adam step overflows the parameters
    assert not np.isfinite(tc.load_checkpoint(dump)["proj/W"].data).all()


def test_pretrain_heads_untouched(monkeypatch):
    g, _ = planted_node_fixture(seed=0, papers=24, authors=24)
    cfg = ModelConfig(d=8, heads=2, type_layers=1, hop_layers=1, hops=2, d_llm=8)
    table = tokenize_graph(MockBackend(dim=8), g, K=2)
    stepped = []

    def recording_adam_step(tensors, *args):
        stepped.append(sorted(tensors))
        return tc.adam_step(tensors, *args)

    monkeypatch.setattr(trainer, "adam_step", recording_adam_step)
    result = pretrain(g, table, cfg, TrainConfig(max_epochs=3), seed=2)
    initial = init_params(cfg, g.schema.node_types, {t: len(v) for t, v in g.schema.class_labels.items()}, seed=2)
    heads = sorted(n for n in result.params.tensors if n.startswith("head/"))
    assert heads == ["head/author", "head/paper"]
    for name in heads:
        assert np.array_equal(result.params[name].data, initial[name].data)
    assert stepped == [sorted(initial.backbone())] * 3  # each epoch stepped the whole backbone and no head


def test_held_out_pretrain_draws_no_forbidden_negative(monkeypatch):
    g, cfg, _ = small_link_setup()
    held = set(g.edges[::5])
    g_train = HeteroGraph(g.schema, g.nodes, [e for e in g.edges if e not in held], g.node_text)
    table = tokenize_graph(MockBackend(dim=8), g_train, K=2)
    train_pos, val = trainer._holdout_split(sample_edges(g_train, 1, seed=0), seed=0)
    forbidden = set(g.edges)
    drawn = []

    def recording_sample_negatives(*args, **kwargs):
        negatives = sample_negatives(*args, **kwargs)
        drawn.extend((s, t, args[1]) for s, t in negatives)
        return negatives

    monkeypatch.setattr(trainer, "sample_negatives", recording_sample_negatives)
    train_cfg = TrainConfig(max_epochs=5)
    result = pretrain(g_train, table, cfg, train_cfg, seed=0,
                      train_positives=train_pos, val_samples=val, forbidden=forbidden)
    epochs = result.last_epoch + 1
    assert len(drawn) == epochs * trainer.NEG_RATIO * sum(len(pos) for pos in train_pos.values())
    assert not any((s, t, e) in forbidden or (t, s, e) in forbidden for s, t, e in drawn)


def test_held_out_pretrain_pads_once_and_embeds_once_per_epoch(monkeypatch):
    g, cfg, table = small_link_setup()
    train_pos, val = trainer._holdout_split(sample_edges(g, 1, seed=0), seed=0)
    calls = {"pad_tokens": 0, "forward_batch": 0}
    for name in calls:
        def counting(*args, fn=getattr(trainer, name), name=name, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(trainer, name, counting)
    result = pretrain(g, table, cfg, TrainConfig(max_epochs=5), seed=0,
                      train_positives=train_pos, val_samples=val)
    assert len(result.train_curve) == 5
    assert calls == {"pad_tokens": 1, "forward_batch": 5}


def tape_of(out):
    """Every tensor ``out`` was computed from, ``out`` included."""
    seen, stack = {}, [out]
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen[id(t)] = t
            stack.extend(t._parents)
    return list(seen.values())


def offered_gradients(monkeypatch):
    """``(tensor, gradient shape)`` of every ``Tensor.accumulate`` call from now on."""
    offered = []
    accumulate = Tensor.accumulate

    def recording(t, g):
        offered.append((t, g.shape))
        accumulate(t, g)

    monkeypatch.setattr(Tensor, "accumulate", recording)
    return offered


def test_contrastive_backward_fills_each_gradient_in_its_shape(monkeypatch):
    g, cfg, table = small_link_setup()
    params = init_params(cfg, g.schema.node_types, {}, seed=0)
    samples = sample_edges(g, 1, seed=0)
    nodes = sorted(samples.endpoints())
    batch = pad_tokens(nodes, table, cfg.hops)
    Z = forward_batch(batch, params, cfg)
    rows = trainer._sample_rows(samples, {n: i for i, n in enumerate(nodes)}, g.node_type)
    loss = trainer._contrastive_loss(rows, Z, params)
    tape = tape_of(loss)
    offered = offered_gradients(monkeypatch)
    backward(loss)
    # backward frees interior gradients, so each is checked as it is offered
    shapes = {}
    for t, shape in offered:
        shapes.setdefault(id(t), set()).add(shape)
    for t in tape:
        if t is loss:
            continue
        if t.requires_grad:
            assert shapes.get(id(t)) == {t.shape}, t
        else:
            assert t.grad is None, t
    assert all(params[n].grad.shape == params[n].shape for n in params.backbone())
    # the raw tokens are constants: no product is formed for them
    rel = [t for t in tape if t.data is batch.rel]
    assert len(rel) == 1 and not any(t is rel[0] for t, _ in offered)


def test_backward_releases_the_tape():
    g, cfg, table = small_link_setup()
    params = init_params(cfg, g.schema.node_types, {}, seed=0)
    samples = sample_edges(g, 1, seed=0)
    nodes = sorted(samples.endpoints())
    batch = pad_tokens(nodes, table, cfg.hops)
    rows = trainer._sample_rows(samples, {n: i for i, n in enumerate(nodes)}, g.node_type)
    Z = forward_batch(batch, params, cfg)
    loss = trainer._contrastive_loss(rows, Z, params)
    interior = [t for t in tape_of(loss) if t._parents]
    backbone = params.backbone()
    backward(loss)
    assert any(t is Z for t in interior)
    assert all(t.grad is None and t._backward is None and t._parents == () for t in interior)
    assert all(p.grad is not None and p.grad.shape == p.shape for p in backbone.values())
    z_values = weakref.ref(Z.data)  # a forward value: it lives as long as Z
    del interior, Z
    assert z_values() is None
    err = tc.grad_check(
        lambda: trainer._contrastive_loss(rows, forward_batch(batch, params, cfg), params),
        backbone,
        eps=1e-5,
        n_samples=40,
    )
    assert err < 1e-4


# -- finetune -----------------------------------------------------------------------


def node_task_setup(seed=0, papers=60, authors=60):
    g, labels = planted_node_fixture(seed=seed, papers=papers, authors=authors)
    cfg = ModelConfig(d=8, heads=2, type_layers=1, hop_layers=1, hops=2, d_llm=16)
    table = tokenize_graph(PrototypeBackend(dim=16, noise=0.5), g, K=2)
    params = init_params(cfg, g.schema.node_types, {"paper": 3, "author": 3}, seed=seed)
    return g, labels, cfg, table, params


def mixed_pairs(g):
    a, p = g.nodes_of_type("author"), g.nodes_of_type("paper")
    return [
        (a[0], p[0]), (p[1], a[2]), (p[3], p[4]), (a[5], p[6]), (p[1], a[2]),  # a repeated pair
        (p[7], p[7]), (a[8], a[8]), (p[9], a[0]), (a[3], p[0]),  # nodes paired with themselves
    ]


def test_score_pairs_matches_per_pair_similarity_and_each_group_alone():
    g, _, cfg, table, params = node_task_setup(papers=12, authors=12)
    pairs = mixed_pairs(g)
    scores = trainer.score_pairs(pairs, params, table, cfg, g.node_type)
    assert scores.shape == (len(pairs),)
    for (s, t), score in zip(pairs, scores):
        z_s, z_t = forward(s, table, params, cfg), forward(t, table, params, cfg)
        assert abs(score - similarity(z_s, z_t, g.node_type(s), g.node_type(t), params).item()) < 1e-12
    assert scores[1] == scores[4]
    # each type group scored alone, from the same embeddings, gives the same bits
    nodes = sorted({n for pair in pairs for n in pair})
    Z = forward_batch(pad_tokens(nodes, table, cfg.hops), params, cfg)
    groups = {}
    for i, (s, t) in enumerate(pairs):
        groups.setdefault((g.node_type(s), g.node_type(t)), []).append(i)
    assert len(groups) == 4
    for (src_type, dst_type), rows in groups.items():
        src = [nodes.index(pairs[i][0]) for i in rows]
        dst = [nodes.index(pairs[i][1]) for i in rows]
        alone = trainer._batched_sims(src, dst, src_type, dst_type, Z, params).data
        assert scores[rows].tobytes() == alone.tobytes()


def test_score_pairs_records_no_tape(monkeypatch):
    g, _, cfg, table, params = node_task_setup(papers=12, authors=12)
    sims = []
    batched_sims = trainer._batched_sims
    monkeypatch.setattr(trainer, "_batched_sims", lambda *args: sims.append(batched_sims(*args)) or sims[-1])
    trainer.score_pairs(mixed_pairs(g), params, table, cfg, g.node_type)
    assert len(sims) == 4
    assert not any(s.requires_grad or s._parents for s in sims)
    assert all(t.requires_grad and t.grad is None for t in params.tensors.values())


def test_score_pairs_scores_a_group_in_blocks_to_the_same_bits(monkeypatch):
    g, _, cfg, table, params = node_task_setup(papers=12, authors=12)
    a, p = g.nodes_of_type("author"), g.nodes_of_type("paper")
    pairs = [(a[i], p[(5 * i) % 12]) for i in range(9)]  # one type group: blocks of 4, 4 and 1 pair
    nodes = sorted({n for pair in pairs for n in pair})
    Z = forward_batch(pad_tokens(nodes, table, cfg.hops), params, cfg)
    src, dst = ([nodes.index(pair[k]) for pair in pairs] for k in (0, 1))
    whole = trainer._batched_sims(src, dst, "author", "paper", Z, params).data
    rows = []
    batched_sims = trainer._batched_sims
    monkeypatch.setattr(trainer, "_batched_sims", lambda *args: rows.append(len(args[0])) or batched_sims(*args))
    monkeypatch.setattr(trainer, "SCORE_BLOCK", 4)
    scores = trainer.score_pairs(pairs, params, table, cfg, g.node_type)
    assert scores.tobytes() == whole.tobytes()
    assert rows == [4, 4, 2]  # the one-pair remainder starts a row early


def test_score_pairs_of_no_pairs_is_empty():
    g, _, cfg, table, params = node_task_setup(papers=12, authors=12)
    scores = trainer.score_pairs([], params, table, cfg, g.node_type)
    assert isinstance(scores, np.ndarray) and scores.shape == (0,)


def test_score_pairs_type_without_projection_names_it():
    g, _, cfg, table, params = node_task_setup(papers=12, authors=12)
    del params.tensors["sim/author"]
    with pytest.raises(KeyError, match="no similarity projection for node type 'author'"):
        trainer.score_pairs(mixed_pairs(g), params, table, cfg, g.node_type)


def test_finetune_touches_only_head():
    g, labels, cfg, table, params = node_task_setup()
    paper_labels = {n: l for n, l in labels.items() if g.node_type(n) == "paper"}
    ids = sorted(paper_labels)
    train_ids, val_ids = ids[:30], ids[30:45]
    backbone_before = params.content_hash(sorted(params.backbone()))
    other_head_before = params["head/author"].data.copy()
    result = finetune(
        g, paper_labels, cfg, TrainConfig(max_epochs=60), params, table, "paper",
        train_ids, val_ids,
    )
    assert params.content_hash(sorted(params.backbone())) == backbone_before
    assert np.array_equal(params["head/author"].data, other_head_before)
    assert not np.allclose(params["head/paper"].data, 0.0)
    assert result.lr in trainer.LR_GRID


def test_finetune_learns_planted_classes():
    g, labels, cfg, table, params = node_task_setup()
    paper_labels = {n: l for n, l in labels.items() if g.node_type(n) == "paper"}
    by_class = {}
    for n, l in sorted(paper_labels.items()):
        by_class.setdefault(l, []).append(n)
    train_ids = [n for ids in by_class.values() for n in ids[:10]]
    val_ids = [n for ids in by_class.values() for n in ids[10:16]]
    test_ids = [n for ids in by_class.values() for n in ids[16:]]
    result = finetune(
        g, paper_labels, cfg, TrainConfig(max_epochs=80), params, table, "paper",
        train_ids, val_ids,
    )
    from ella.trainer import classify
    from ella.evalkit import micro_f1

    preds = classify(test_ids, params, table, cfg, "paper", result.label_vocab)
    golds = [paper_labels[n] for n in test_ids]
    assert micro_f1(preds, golds) >= 0.8


def test_finetune_stops_at_patience_zero():
    g, labels, cfg, table, params = node_task_setup()
    paper_labels = {n: l for n, l in labels.items() if g.node_type(n) == "paper"}
    ids = sorted(paper_labels)
    result = finetune(
        g, paper_labels, cfg, TrainConfig(patience=0), params, table, "paper", ids[:30], ids[30:45]
    )
    assert result.best_epoch == 0
    assert np.array_equal(params["head/paper"].data, np.zeros_like(params["head/paper"].data))


def test_finetune_divergence_aborts_with_dump(tmp_path):
    g, labels, cfg, table, params = node_task_setup()
    paper_labels = {n: l for n, l in labels.items() if g.node_type(n) == "paper"}
    ids = sorted(paper_labels)
    train_ids, val_ids = ids[:30], ids[30:45]
    table.node_tokens[val_ids[0]] = np.full(table.dim, np.nan)
    dump = tmp_path / "diverged.ckpt"
    with pytest.raises(TrainingDiverged, match="at epoch 0"):
        finetune(
            g, paper_labels, cfg, TrainConfig(max_epochs=5, dump_path=str(dump)), params, table,
            "paper", train_ids, val_ids,
        )
    assert set(tc.load_checkpoint(dump)) == {"head"}


def paper_split():
    g, labels, cfg, table, params = node_task_setup()
    paper_labels = {n: l for n, l in labels.items() if g.node_type(n) == "paper"}
    ids = sorted(paper_labels)
    return g, paper_labels, cfg, table, params, ids[:30], ids[30:45]


@pytest.mark.parametrize(
    "grid,train_cfg",
    [(trainer.LR_GRID, TrainConfig()), ((1.0, 1e-2, 1e-4), TrainConfig(patience=2))],
    ids=["default", "lanes-stop-apart"],
)
def test_finetune_lanes_match_one_rate_runs(monkeypatch, grid, train_cfg):
    # each lane of the batched grid trains exactly as its learning rate alone:
    # a lane out of patience stays frozen and no lane leaks into another
    best, last = [], []
    fit = trainer._fit

    def recording_fit(step, trainable, lr, train_cfg):
        out = fit(step, trainable, lr, train_cfg)
        best.append(out[0]["head"])
        last.append(trainable["head"].data)
        return out

    monkeypatch.setattr(trainer, "_fit", recording_fit)
    g, paper_labels, cfg, table, params, train_ids, val_ids = paper_split()

    def run(rates):
        monkeypatch.setattr(trainer, "LR_GRID", rates)
        return finetune(g, paper_labels, cfg, train_cfg, params, table, "paper", train_ids, val_ids)

    full = run(grid)
    if train_cfg.patience == 2:  # the 1.0 lane stops early, the others run to the cap
        epochs = [lane["best_epoch"] for lane in full.grid]
        assert epochs[0] + train_cfg.patience < epochs[1] == epochs[2] == train_cfg.max_epochs - 1
    for i, lr in enumerate(grid):
        alone = run((lr,))
        assert alone.grid == [full.grid[i]]
        assert best[-1][0].tobytes() == best[0][i].tobytes()
        assert last[-1][0].tobytes() == last[0][i].tobytes()


def test_finetune_embeddings_are_offered_no_gradient(monkeypatch):
    g, paper_labels, cfg, table, params, train_ids, val_ids = paper_split()
    heads_applied_to = []
    matmul = tc.matmul

    def recording_matmul(a, b):
        if b.requires_grad and not b._parents and b.data.ndim == 3:  # the stacked head lanes
            heads_applied_to.append(a)
        return matmul(a, b)

    monkeypatch.setattr(tc, "matmul", recording_matmul)
    offered = offered_gradients(monkeypatch)
    finetune(g, paper_labels, cfg, TrainConfig(max_epochs=3), params, table, "paper", train_ids, val_ids)
    Zt = heads_applied_to[0]
    assert len(heads_applied_to) == 3 and all(a is Zt for a in heads_applied_to)
    assert Zt.shape == (len(train_ids), cfg.d) and Zt.grad is None
    assert not any(t is Zt for t, _ in offered)


def test_finetune_matches_the_composed_loss(monkeypatch):
    def run():
        g, paper_labels, cfg, table, params, train_ids, val_ids = paper_split()
        result = finetune(g, paper_labels, cfg, TrainConfig(), params, table, "paper", train_ids, val_ids)
        return dataclasses.replace(result, params=None), params["head/paper"].data.tobytes()

    fused = run()
    monkeypatch.setattr(trainer, "cross_entropy", composed_cross_entropy)
    assert run() == fused


def recorded_forward_batches(monkeypatch):
    """The outputs of every ``trainer.forward_batch`` call from now on."""
    outputs = []
    forward = trainer.forward_batch
    monkeypatch.setattr(trainer, "forward_batch", lambda *args: outputs.append(forward(*args)) or outputs[-1])
    return outputs


def test_classify_records_no_tape(monkeypatch):
    g, paper_labels, cfg, table, params, train_ids, val_ids = paper_split()
    outputs = recorded_forward_batches(monkeypatch)
    trainer.classify(val_ids, params, table, cfg, "paper", g.schema.class_labels["paper"])
    assert len(outputs) == 1
    assert not any(Z.requires_grad or Z._parents for Z in outputs)
    assert all(t.requires_grad and t.grad is None for t in params.tensors.values())


def test_finetune_embeds_without_a_tape(monkeypatch):
    g, paper_labels, cfg, table, params, train_ids, val_ids = paper_split()
    outputs = recorded_forward_batches(monkeypatch)
    finetune(g, paper_labels, cfg, TrainConfig(max_epochs=3), params, table, "paper", train_ids, val_ids)
    assert len(outputs) == 2
    assert not any(Z.requires_grad or Z._parents for Z in outputs)
    assert all(t.requires_grad and t.grad is None for t in params.tensors.values())


def test_constants_share_the_arrays():
    params = node_task_setup(papers=6, authors=6)[-1]
    frozen = params.constants()
    assert frozen.tensors.keys() == params.tensors.keys()
    for name, t in frozen.tensors.items():
        assert t.data is params[name].data and not t.requires_grad


@pytest.mark.parametrize("per_class", [1, 2])
def test_finetune_needs_train_and_val_nodes(monkeypatch, per_class):
    g, labels, cfg, table, params = node_task_setup()
    by_class = {}
    for n, l in sorted(labels.items()):
        if g.node_type(n) == "paper":
            by_class.setdefault(l, []).append(n)
    few = {n: l for l, ids in by_class.items() for n in ids[:per_class]}
    splits = build_splits(g, few, Task.NodeClassification, seed=0, target_type="paper")
    train_ids, val_ids = splits.node_part("train"), splits.node_part("val")
    assert train_ids == val_ids == []

    def no_forward(*args, **kwargs):
        raise AssertionError("embedded before checking the splits")

    monkeypatch.setattr(trainer, "forward_batch", no_forward)
    with pytest.raises(ValueError, match="node type 'paper' needs labelled train and val nodes to "
                       "fine-tune, got 0 train and 0 val"):
        finetune(g, few, cfg, TrainConfig(), params, table, "paper", train_ids, val_ids)


def test_finetune_unlabeled_type_errors():
    g, labels, cfg, table, params = node_task_setup()
    g.schema.class_labels.pop("author")
    with pytest.raises(ValueError, match="class labels"):
        finetune(g, labels, cfg, TrainConfig(), params, table, "author", [], [])
