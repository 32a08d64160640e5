"""Acceptance suite: one test per exit criterion, each at its stated
tolerance, printing one PASS/FAIL line per criterion (visible with -s)."""

import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import ella.tensorcore as tc
from ella.ellanet import AttentionCapture, ModelConfig, forward, init_params
from ella.encoder import MockBackend, VectorCache, tokenize_graph
from ella.evalkit import Task, build_splits, profile_run
from ella.hetgraph import HeteroGraph
from ella.pathstats import (
    MetaPathProfile,
    hop_type_neighbors,
    hop_types_present,
    meta_path_profile,
)
from ella.promptkit import PLACEHOLDER, SIMILARITY_STEPS, TemplateId, build_relation_prompt
from ella.tensorcore import Tensor, grad_check, save_checkpoint
from ella.trainer import (
    TrainConfig,
    cross_entropy,
    pretrain,
    pretrain_loss,
    sample_edges,
    similarity,
)

from e2e import run_link_task, run_node_task
from fixtures import (
    academic_schema,
    bipartite_with_edges,
    complete_typed_tree,
    oracle_hop_type_members,
    oracle_pattern_counts,
    planted_link_fixture,
    random_hetero_graph,
    small_academic_graph,
)

GOLDEN = Path(__file__).parent / "golden"


@contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {num:02d} {name}: PASS")


def test_01_gradient_correctness():
    # full pipeline (project -> type_block x2 -> type_readout -> hop_block x3
    # -> hop_readout -> each loss), d=8, B=2, K=2, 3 node types, 6-node graph
    with criterion(1, "gradient-correctness"):
        start = time.monotonic()
        # sparse enough that every relation type admits ratio-1 negatives
        g = HeteroGraph(
            academic_schema(),
            [
                ("a1", "author"), ("a2", "author"),
                ("p1", "paper"), ("p2", "paper"), ("p3", "paper"),
                ("o1", "organization"),
            ],
            [
                ("a1", "p1", "writes"), ("a2", "p3", "writes"),
                ("p1", "p2", "cites"), ("a2", "o1", "belongs"),
            ],
            {
                "p1": "paper on graphs", "p2": "paper on attention",
                "p3": "paper on retrieval", "o1": "research institute",
            },
        )
        assert g.num_nodes() == 6 and len(g.schema.node_types) == 3
        cfg = ModelConfig(d=8, heads=2, type_layers=2, hop_layers=3, hops=2, d_llm=8)
        table = tokenize_graph(MockBackend(dim=8), g, K=2)
        params = init_params(cfg, g.schema.node_types, {"paper": 3}, seed=0)

        samples = sample_edges(g, ratio=1, seed=0)

        def link_loss():
            emb = {n: forward(n, table, params, cfg) for n in sorted(samples.endpoints())}
            return pretrain_loss(samples, emb, g.node_type, params)

        backbone = params.backbone()
        err_link = grad_check(link_loss, backbone, eps=1e-5, n_samples=100, seed=1)
        assert err_link < 1e-4, f"link-loss pipeline gradient rel err {err_link}"

        papers = g.nodes_of_type("paper")
        onehot = np.eye(3)[: len(papers)]

        def classify_loss():
            Z = tc.concat([forward(n, table, params, cfg) for n in papers], axis=0)
            logits = tc.matmul(Z, params["head/paper"])
            return cross_entropy(logits, Tensor(onehot))

        # the head starts at zero; give it a nonzero point to differentiate at
        params["head/paper"].data[...] = np.random.default_rng(2).uniform(
            -0.3, 0.3, size=params["head/paper"].shape
        )
        err_cls = grad_check(classify_loss, params.tensors, eps=1e-5, n_samples=100, seed=3)
        assert err_cls < 1e-4, f"classify-loss pipeline gradient rel err {err_cls}"

        elapsed = time.monotonic() - start
        assert elapsed < 60, f"gradient check took {elapsed:.1f}s"


def test_02_normalization_invariants():
    # 1,000 randomized forward passes: every softmax row, alpha, gamma sums to 1
    with criterion(2, "normalization-invariants"):
        cfg = ModelConfig(d=8, heads=2, type_layers=1, hop_layers=1, hops=2, d_llm=8)
        capture = AttentionCapture()
        forwards = 0
        graph_seed = 0
        while forwards < 1000:
            rng = np.random.default_rng(graph_seed)
            g = random_hetero_graph(rng, max_nodes=10, max_types=3)
            table = tokenize_graph(MockBackend(dim=8), g, K=2)
            for param_seed in range(3):
                params = init_params(
                    cfg, g.schema.node_types, {}, seed=1000 * graph_seed + param_seed
                )
                for nid in g.node_ids():
                    forward(nid, table, params, cfg, capture)
                    forwards += 1
            graph_seed += 1
        assert forwards >= 1000
        assert capture.softmax_rows
        for row in capture.softmax_rows:
            assert np.all(row >= 0)
            assert abs(float(row.sum()) - 1.0) < 1e-9
        for _, vec in capture.alpha.values():
            assert abs(float(vec.sum()) - 1.0) < 1e-9
        for _, vec in capture.gamma.values():
            if len(vec):
                assert abs(float(vec.sum()) - 1.0) < 1e-9


def test_03_pathstats_oracle_equivalence():
    # 50 random graphs (<= 40 nodes, <= 4 types, K <= 3): exact agreement with
    # the independent exhaustive enumeration oracle
    with criterion(3, "pathstats-oracle-equivalence"):
        for graph_seed in range(50):
            rng = np.random.default_rng(10_000 + graph_seed)
            g = random_hetero_graph(rng, max_nodes=40, max_types=4)
            nodes = g.node_ids()
            picks = [nodes[int(rng.integers(len(nodes)))] for _ in range(2)]
            for s in picks:
                for hop in (1, 2, 3):
                    prof = meta_path_profile(g, s, hop)
                    assert {
                        p: st.count for p, st in prof.patterns.items()
                    } == oracle_pattern_counts(g, s, hop)
                    for t in g.schema.node_types:
                        got = hop_type_neighbors(g, s, hop, t)
                        assert got == oracle_hop_type_members(g, s, hop, t)


def test_04_linear_call_claim(tmp_path):
    # complete typed trees, depth 3: relation calls <= |types| * K, constant in
    # b; the naive per-path count is sum(b^i), 155 for b=5, K=3
    with criterion(4, "linear-call-claim"):
        calls_by_k: dict[int, set[int]] = {1: set(), 2: set(), 3: set()}
        for b in (3, 5, 8):
            g = complete_typed_tree(b=b, depth=3)
            n_types = len(g.schema.node_types)
            report = profile_run(g, K=3, targets=["n0"], dim=8)
            report.to_csv(tmp_path / f"profile_b{b}.csv")
            for row in report.rows:
                assert row.relation_calls <= n_types * row.hops
                assert row.naive_path_calls == sum(b**i for i in range(1, row.hops + 1))
                calls_by_k[row.hops].add(row.relation_calls)
            if b == 5:
                assert report.rows[-1].naive_path_calls == 155
        for k, values in calls_by_k.items():
            assert len(values) == 1, f"relation calls at K={k} vary with b: {values}"
        emitted = (tmp_path / "profile_b5.csv").read_text().strip().splitlines()
        assert any(line.startswith("3,") and ",155," in line for line in emitted[1:])


def test_05_memory_claim():
    # stored vectors per target = 1 + sum over hops of |types present|,
    # bounded by 1 + |types| * K, and linear in K (residual < 1% of mean)
    with criterion(5, "memory-claim"):
        g = bipartite_with_edges(n_edges=400, seed=3, users=48, items=48)
        degrees = {nid: len(g.incident(nid)) for nid in g.node_ids()}
        assert min(degrees.values()) >= 1  # fixture precondition: no isolates
        targets = g.node_ids()
        n_types = len(g.schema.node_types)
        means = []
        for k in (1, 2, 3):
            table = tokenize_graph(MockBackend(dim=8), g, targets=targets, K=k)
            stored = []
            for s in targets:
                expected = 1 + sum(
                    len(hop_types_present(g, s, i)) for i in range(1, k + 1)
                )
                got = table.stored_per_target(s)
                assert got == expected
                assert got <= 1 + n_types * k
                stored.append(got)
            means.append(np.mean(stored))
        ks = np.array([1.0, 2.0, 3.0])
        coeffs = np.polyfit(ks, means, deg=1)
        residuals = np.array(means) - np.polyval(coeffs, ks)
        rms = float(np.sqrt(np.mean(residuals**2)))
        assert rms < 0.01 * float(np.mean(means)), f"fit residual {rms}"


def test_06_end_to_end_node_task():
    # planted 3-class fixture, class-correlated embeddings (noise 0.5),
    # split protocol, 3 seeds: mean Micro-F1 and Macro-F1 >= 0.90 in < 5 min
    with criterion(6, "end-to-end-node-task"):
        start = time.monotonic()
        micros, macros = [], []
        for seed in (0, 1, 2):
            result = run_node_task(seed=seed)
            micros.append(result.micro)
            macros.append(result.macro)
        mean_micro = float(np.mean(micros))
        mean_macro = float(np.mean(macros))
        elapsed = time.monotonic() - start
        print(
            f"  node task: micro {mean_micro:.4f}, macro {mean_macro:.4f} "
            f"(seeds {[f'{m:.3f}' for m in micros]}), {elapsed:.0f}s"
        )
        assert mean_micro >= 0.90, f"mean Micro-F1 {mean_micro:.4f}"
        assert mean_macro >= 0.90, f"mean Macro-F1 {mean_macro:.4f}"
        assert elapsed < 300, f"node task took {elapsed:.0f}s"


def test_07_end_to_end_link_task():
    # planted bipartite fixture, 8:1:1 split with 2x negatives, 3 seeds:
    # held-out AUC >= 0.85 and AP >= 0.75 in < 5 min
    with criterion(7, "end-to-end-link-task"):
        start = time.monotonic()
        aucs, aps = [], []
        for seed in (0, 1, 2):
            a, p = run_link_task(seed=seed)
            aucs.append(a)
            aps.append(p)
        mean_auc = float(np.mean(aucs))
        mean_ap = float(np.mean(aps))
        elapsed = time.monotonic() - start
        print(
            f"  link task: AUC {mean_auc:.4f}, AP {mean_ap:.4f} "
            f"(seeds {[f'{a:.3f}' for a in aucs]}), {elapsed:.0f}s"
        )
        assert mean_auc >= 0.85, f"mean AUC {mean_auc:.4f}"
        assert mean_ap >= 0.75, f"mean AP {mean_ap:.4f}"
        assert elapsed < 300, f"link task took {elapsed:.0f}s"


def test_08_protocol_conformance():
    # exact split counts: 100/100/rest per class; 80% positives split 8:1:1;
    # negatives exactly 2x per part on a 1,000-edge fixture
    with criterion(8, "protocol-conformance"):
        schema = academic_schema()
        papers = [(f"p{i:04d}", "paper") for i in range(1200)]
        g = HeteroGraph(schema, papers, [])
        labels = {nid: f"C{i % 3}" for i, (nid, _) in enumerate(papers)}
        spec = build_splits(g, labels, Task.NodeClassification, seed=0, target_type="paper")
        assert set(spec.node_splits) == {"C0", "C1", "C2"}
        for train, val, test in spec.node_splits.values():
            assert (len(train), len(val), len(test)) == (100, 100, 200)

        g_link = bipartite_with_edges(n_edges=1000, seed=0)
        spec = build_splits(g_link, {}, Task.LinkPrediction, seed=0)
        pos_counts = {p: len(spec.edge_splits[p].positives) for p in ("train", "val", "test")}
        neg_counts = {p: len(spec.edge_splits[p].negatives) for p in ("train", "val", "test")}
        assert pos_counts == {"train": 640, "val": 80, "test": 80}
        assert neg_counts == {"train": 1280, "val": 160, "test": 160}


def test_09_similarity_symmetry():
    # |sim(s,t) - sim(t,s)| < 1e-12 over 10,000 random embedding pairs
    with criterion(9, "similarity-symmetry"):
        cfg = ModelConfig(d=8, heads=2, type_layers=1, hop_layers=1, hops=1, d_llm=8)
        params = init_params(cfg, ["user", "item"], {}, seed=0)
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(10_000):
            zs = Tensor(rng.standard_normal((1, 8)))
            zt = Tensor(rng.standard_normal((1, 8)))
            a = similarity(zs, zt, "user", "item", params).item()
            b = similarity(zt, zs, "item", "user", params).item()
            worst = max(worst, abs(a - b))
        assert worst < 1e-12, f"max asymmetry {worst}"


def test_10_frozen_backbone():
    # after finetune, the hash over all non-head tensors matches the
    # pre-trained checkpoint's hash
    with criterion(10, "frozen-backbone"):
        result = run_node_task(seed=5, papers=45, authors=45, pretrain_epochs=4)
        assert result.pretrained_backbone_hash == result.finetuned_backbone_hash


def test_11_determinism(tmp_path):
    # identical (config, seed) -> bit-identical checkpoints; a warm-cache
    # tokenize rerun performs exactly 0 backend calls (library and CLI paths)
    with criterion(11, "determinism"):
        g, _ = planted_link_fixture(seed=4, users=24, items=24)
        cfg = ModelConfig(d=8, heads=2, type_layers=1, hop_layers=1, hops=2, d_llm=8)
        table = tokenize_graph(MockBackend(dim=8), g, K=2)
        paths = []
        for run in (0, 1):
            result = pretrain(
                g, table, cfg, TrainConfig(max_epochs=5, patience=30), seed=123
            )
            path = tmp_path / f"run{run}.ckpt"
            save_checkpoint(result.params.tensors, path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

        cache = VectorCache(tmp_path / "cache.bin")
        cold = tokenize_graph(MockBackend(dim=8), g, K=2, cache=cache)
        assert cold.call_count > 0
        warm = tokenize_graph(MockBackend(dim=8), g, K=2, cache=cache)
        assert warm.call_count == 0, f"warm rerun made {warm.call_count} calls"

        # the same contracts through the CLI subcommands
        import json

        from click.testing import CliRunner

        from ella.cli import main as cli_main
        from ella.hetgraph import save_graph

        save_graph(g, tmp_path / "graph")
        runner = CliRunner()
        config = tmp_path / "config.json"
        config.write_text(
            # hops and d_llm come from the tokens, so the config leaves them out
            json.dumps({"model": {"d": 8, "heads": 2, "type_layers": 1, "hop_layers": 1}, "train": {"max_epochs": 5}})
        )
        for run in (0, 1):
            res = runner.invoke(
                cli_main,
                [
                    "tokenize", "--graph", str(tmp_path / "graph"), "--hops", "2",
                    "--cache", str(tmp_path / "cli_cache.bin"),
                    "--out", str(tmp_path / f"cli_tokens{run}.bin"), "--dim", "8",
                ],
            )
            assert res.exit_code == 0, res.output
            res = runner.invoke(
                cli_main,
                [
                    "pretrain", "--graph", str(tmp_path / "graph"),
                    "--tokens", str(tmp_path / f"cli_tokens{run}.bin"),
                    "--config", str(config), "--seed", "7",
                    "--out", str(tmp_path / f"cli_run{run}.ckpt"),
                ],
            )
            assert res.exit_code == 0, res.output
        assert (tmp_path / "cli_run0.ckpt").read_bytes() == (
            tmp_path / "cli_run1.ckpt"
        ).read_bytes()
        warm_meta = json.loads((tmp_path / "cli_tokens1.bin.meta.json").read_text())
        assert warm_meta["call_count"] == 0


def test_12_prompt_fidelity():
    # golden-file matches for the hop-1/hop-2 paper<->author prompts and the
    # hop-3 author-author zero-proportion prompt
    with criterion(12, "prompt-fidelity"):
        schema = academic_schema()
        g = small_academic_graph()
        cases = [
            ("table1_hop1_paper_author.txt", "paper", "author", 1, "p1",
             "paper-author (proportion of paths: 1.00)"),
            ("table1_hop1_author_paper.txt", "author", "paper", 1, "a1",
             "author-paper (proportion of paths: 1.00)"),
            ("table1_hop2_paper_author.txt", "paper", "author", 2, "p1",
             "paper-paper-author (proportion of paths: 1.00)"),
            ("table1_hop2_author_paper.txt", "author", "paper", 2, "a1",
             "author-paper-paper (proportion of paths: 1.00)"),
            ("table6_hop3_author_author.txt", "author", "author", 3, None,
             "author-paper-paper-author (Proportion of paths: 0.00)"),
        ]
        for golden, src, dst, hop, target, path_line in cases:
            profile = (
                meta_path_profile(g, target, hop)
                if target
                else MetaPathProfile(target="x", hop=hop, patterns={})
            )
            p = build_relation_prompt(schema, src, dst, hop, profile, TemplateId.PretrainLink)
            assert SIMILARITY_STEPS in p
            assert path_line in p
            assert p.count(PLACEHOLDER) == 2
            assert p == (GOLDEN / golden).read_text(encoding="utf-8")
