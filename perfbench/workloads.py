"""The benchmark's workloads and the loop that runs one of them.

Every workload runs the same stages in every round: a cold tokenize through
an empty file-backed cache, a warm rerun that reads that cache back, token
save and load, pretraining, a frozen-backbone finetune, classification and
pair scoring. Each run reports every end-to-end metric, and none may read 0,
so no workload skips a stage; the workloads differ in their graph, hop count
and stage sizes, which decide the layer that dominates (see README.md). Each
stage is one operation; its outputs are checked after it, outside its timing.
"""

from __future__ import annotations

import logging
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
from ella import encoder, evalkit, hetgraph, trainer
from ella.ellanet import ModelConfig
from ella.encoder import PrototypeBackend, VectorCache
from ella.evalkit import Task
from ella.hetgraph import EdgeType, HeteroGraph, SchemaDef, SynthConfig
from ella.pathstats import meta_path_profile
from ella.promptkit import TemplateId
from ella.trainer import EdgeSample, EdgeSampleSet, TrainConfig
from tracing import Patches, Tracer

clock = time.perf_counter

REPEATS = 3  # repeats of token I/O, classify and score within a round
WALK_TARGETS = 2  # targets per node type in the walk-count check

# Machine-speed reference. The shared host's CPUs switch between a fast and a
# slow speed (about 1.5x apart) for seconds to minutes at a time, moving every
# stage together. So a fixed piece of work like the program's (Python dict and
# string work, small matrix products, no program code) is timed right before
# each stage and before each set-up, and that stage's times are scaled by
# REFERENCE_S over the reference's time: each end-to-end time is the time at
# the reference speed. REFERENCE_S is about the reference's median time on
# the machine described in README.md, so scaled times stay near wall times.
REFERENCE_S = 0.025
_REFERENCE_M = np.random.default_rng(0).standard_normal((64, 64)) / 8

EDGE_TYPES = {
    "writes": ("author", "paper"),
    "cites": ("paper", "paper"),
    "belongs": ("author", "organization"),
}


@dataclass(frozen=True)
class Spec:
    """Inputs and stage sizes of one workload."""

    sizes: dict[str, int]  # nodes per node type
    classes: int
    edge_probs: dict[str, tuple[float, float]]  # edge type -> (p_intra, p_inter)
    K: int
    d_llm: int
    pretrain_epochs: int
    lr: float
    held_out_links: bool  # link protocol split; else pretrain's default held-out path
    finetune_template: bool  # tokenize the classification template for finetune
    ranking_authors: int  # the ranking query scores these authors against every paper
    # Quality floors hold on every seed, not on most: far above chance, and far
    # below the lowest value seen over 100-200 seeds, because the figures have a
    # long lower tail (seed 472812220 scores 0.68 on `tokenize`, whose median
    # is 0.93; see README.md). They catch a broken model, not a weaker one.
    f1_floor: float
    auc_floor: float = 0.0


SPECS = {
    "link": Spec(
        sizes={"paper": 160, "author": 160, "organization": 16},
        classes=6,
        edge_probs={"writes": (0.08, 0.002), "cites": (0.06, 0.001), "belongs": (0.5, 0.01)},
        K=2,
        d_llm=16,
        pretrain_epochs=30,
        lr=1e-2,
        held_out_links=True,
        finetune_template=False,
        ranking_authors=160,
        f1_floor=0.7,
        auc_floor=0.65,
    ),
    "node": Spec(
        sizes={"paper": 300, "author": 300},
        classes=3,
        edge_probs={"writes": (0.03, 0.002)},
        K=2,
        d_llm=16,
        pretrain_epochs=10,
        lr=1e-3,
        held_out_links=False,
        finetune_template=True,
        ranking_authors=100,
        f1_floor=0.8,
    ),
    "tokenize": Spec(
        sizes={"paper": 200, "author": 200, "organization": 50},
        classes=3,
        edge_probs={"writes": (0.016, 0.0015), "cites": (0.01, 0.001), "belongs": (0.06, 0.006)},
        K=3,
        d_llm=64,
        pretrain_epochs=4,
        lr=1e-3,
        held_out_links=False,
        finetune_template=False,
        ranking_authors=40,
        f1_floor=0.5,
    ),
}

# name -> (unit, better); BENCHMARK.json lists the same.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "total_s": ("s", "lower"),
    "pretrain_epoch_ms": ("ms", "lower"),
    "score_pairs_per_s": ("pairs/s", "higher"),
    "finetune_s": ("s", "lower"),
    "classify_nodes_per_s": ("nodes/s", "higher"),
    "tokenize_cold_tokens_per_s": ("tokens/s", "higher"),
    "tokenize_warm_tokens_per_s": ("tokens/s", "higher"),
    "encoder_calls": ("calls", "lower"),
    "token_io_s": ("s", "lower"),
    "token_file_mb": ("MB", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# name -> unit; spans give ".s", ".calls" and ".self_s", the rest is derived.
PER_LAYER = {
    "hetgraph.synth_generate.s": "s",
    "hetgraph.incident.calls": "calls",
    "pathstats.meta_path_profile.s": "s",
    "pathstats.meta_path_profile.calls": "calls",
    "pathstats.hop_types_present.s": "s",
    "pathstats.hop_types_present.calls": "calls",
    "pathstats.hop_type_neighbors.s": "s",
    "pathstats.hop_type_neighbors.calls": "calls",
    "promptkit.build_relation_prompt.s": "s",
    "encoder.tokenize_graph.s": "s",
    "encoder.relation_token.self_s": "s",
    "encoder.backend_encode.s": "s",
    "encoder.backend_encode.calls": "calls",
    "encoder.cache_key.s": "s",
    "encoder.cache_get.s": "s",
    "encoder.cache_put.s": "s",
    "encoder.cache_hits": "count",
    "encoder.cache_lookups": "count",
    "encoder.cache_hit_ratio": "ratio",
    "encoder.save_tokens.s": "s",
    "encoder.load_tokens.s": "s",
    "ellanet.forward_batch.s": "s",
    "ellanet.forward_batch.calls": "calls",
    "ellanet.forward_batch.self_s": "s",
    "ellanet.project.s": "s",
    "ellanet.type_block.s": "s",
    "ellanet.type_readout.s": "s",
    "ellanet.hop_block.s": "s",
    "ellanet.hop_readout.s": "s",
    "tensorcore.backward.s": "s",
    "tensorcore.backward.calls": "calls",
    "tensorcore.adam_step.s": "s",
    "tensorcore.ops_per_epoch": "ops",
    "trainer.pretrain.s": "s",
    "trainer.pretrain.self_s": "s",
    "trainer.sample_negatives.s": "s",
    "trainer.sample_negatives.calls": "calls",
    "trainer.finetune.s": "s",
    "trainer.score_pairs.s": "s",
    "trainer.classify.s": "s",
    "trainer.epochs_run": "epochs",
    "trainer.best_epoch": "epoch",
    "evalkit.build_splits.s": "s",
    "trace.overhead_ratio": "ratio",
    "bench.reference_ms": "ms",
}


class CountingBackend(PrototypeBackend):
    """The planted-class mock encoder, counting its own calls per template."""

    def __init__(self, dim: int) -> None:
        super().__init__(dim=dim, noise=0.5)
        self.calls = 0
        self.calls_by_template: dict[str, int] = {}

    def encode(self, template_id, text, placeholders=None, pooling="mean"):
        self.calls += 1
        self.calls_by_template[template_id] = self.calls_by_template.get(template_id, 0) + 1
        return super().encode(template_id, text, placeholders, pooling)


def reference_s() -> float:
    """Time of the fixed reference work."""
    t0 = clock()
    keys = {}
    for i in range(12000):
        keys[f"{i}:{i * 0.5:.6f}"] = i
    v = np.ones((16, 64))
    for _ in range(1200):
        v = np.tanh(v @ _REFERENCE_M)
    return clock() - t0


# -- set-up ------------------------------------------------------------------------


@dataclass
class Inputs:
    g: HeteroGraph  # the full graph
    g_train: HeteroGraph  # the graph that is tokenized and trained on
    labels: dict[str, str]  # paper labels
    node_split: tuple[list[str], list[str], list[str]]  # papers: train, val, test
    full_edges: set[tuple[str, str, str]]
    ranking: list[tuple[str, str]]
    train_pos: dict[str, list[tuple[str, str]]] | None = None
    val_samples: EdgeSampleSet | None = None
    test_pairs: list[tuple[str, str]] = field(default_factory=list)
    test_labels: list[int] = field(default_factory=list)


def schema_for(spec: Spec) -> SchemaDef:
    vocab = [f"C{c}" for c in range(spec.classes)]
    return SchemaDef(
        node_types=list(spec.sizes),
        edge_types=[EdgeType(e, *EDGE_TYPES[e]) for e in spec.edge_probs],
        domain_blurb="an academic network",
        class_labels={"paper": vocab, "author": list(vocab)},
    )


def setup(spec: Spec, seed: int) -> Inputs:
    """Input generation: the planted graph, the splits and, for the link
    protocol, the held-out training subgraph."""
    cfg = SynthConfig(schema_for(spec), dict(spec.sizes), spec.classes, dict(spec.edge_probs))
    g, labels = hetgraph.synth_generate(cfg, seed)
    papers = {n: labels[n] for n in g.nodes_of_type("paper")}
    split = evalkit.build_splits(g, papers, Task.NodeClassification, seed=seed, target_type="paper")
    authors = g.nodes_of_type("author")[: spec.ranking_authors]
    inp = Inputs(
        g=g,
        g_train=g,
        labels=papers,
        node_split=tuple(split.node_part(p) for p in ("train", "val", "test")),
        full_edges=set(g.edges),
        ranking=[(a, p) for a in authors for p in papers],
    )
    if not spec.held_out_links:
        return inp
    links = evalkit.build_splits(g, {}, Task.LinkPrediction, seed=seed)
    held = {e for part in ("val", "test") for e in links.edge_splits[part].positives}
    inp.g_train = HeteroGraph(g.schema, g.nodes, [e for e in g.edges if e not in held], g.node_text)
    inp.train_pos = {}
    for s, t, e in links.edge_splits["train"].positives:
        inp.train_pos.setdefault(e, []).append((s, t))
    val = links.edge_splits["val"]
    inp.val_samples = EdgeSampleSet()
    for e in sorted({x for _, _, x in val.positives + val.negatives}):
        inp.val_samples.by_type[e] = EdgeSample(
            positives=[(s, t) for s, t, x in val.positives if x == e],
            negatives=[(s, t) for s, t, x in val.negatives if x == e],
        )
    test = links.edge_splits["test"]
    inp.test_pairs = [(s, t) for s, t, _ in test.positives + test.negatives]
    inp.test_labels = [1] * len(test.positives) + [0] * len(test.negatives)
    return inp


@dataclass
class Oracle:
    """Expected tokenization figures, computed once per run from the edge list."""

    node_ids: list[str]
    stored: np.ndarray
    walks: list[tuple[str, int, dict[tuple[str, ...], int]]]


def build_oracle(spec: Spec, g: HeteroGraph, seed: int) -> Oracle:
    ids = g.node_ids()
    types = [g.node_type(n) for n in ids]
    A = checks.adjacency(ids, g.edges)
    rng = np.random.default_rng(seed)
    walks = []
    for ntype in g.schema.node_types:
        of_type = [i for i, t in enumerate(types) if t == ntype]
        for i in sorted(rng.choice(of_type, size=min(WALK_TARGETS, len(of_type)), replace=False)):
            for hop in range(1, spec.K + 1):
                walks.append((ids[i], hop, checks.walk_counts(A, types, int(i), hop)))
    return Oracle(ids, checks.expected_stored_vectors(A, types, spec.K), walks)


# -- hooks the checks need ----------------------------------------------------------


class Probe:
    """Hooks on in every run: relation calls per target during the cold pass,
    and the negatives drawn and epoch boundaries during pretraining. Each adds
    one call per relation token, per relation per epoch, or per epoch."""

    def __init__(self, op_count) -> None:
        self.op_count = op_count
        self.calls_per_target: dict[str, int] | None = None
        self.negatives: list[tuple[str, str, str]] | None = None
        self.epochs: list[tuple[float, int]] | None = None

    def install(self, patches: Patches) -> None:
        patches.wrap(encoder, "relation_token", self._relation_token)
        patches.wrap(trainer, "sample_negatives", self._sample_negatives)
        patches.wrap(trainer, "forward_batch", self._forward_batch)

    def _relation_token(self, fn):
        def wrapper(backend, s, *args, **kwargs):
            if self.calls_per_target is None:
                return fn(backend, s, *args, **kwargs)
            before = backend.calls
            try:
                return fn(backend, s, *args, **kwargs)
            finally:
                made = backend.calls - before
                self.calls_per_target[s] = self.calls_per_target.get(s, 0) + made

        return wrapper

    def _sample_negatives(self, fn):
        def wrapper(g, etype_name, *args, **kwargs):
            out = fn(g, etype_name, *args, **kwargs)
            if self.negatives is not None:
                self.negatives.extend((s, t, etype_name) for s, t in out)
            return out

        return wrapper

    def _forward_batch(self, fn):
        # pretrain embeds once per epoch, so consecutive calls bound one epoch
        def wrapper(*args, **kwargs):
            if self.epochs is not None:
                self.epochs.append((clock(), self.op_count()))
            return fn(*args, **kwargs)

        return wrapper


# -- one round -----------------------------------------------------------------------


class Runner:
    def __init__(self, spec: Spec, inp: Inputs, oracle: Oracle, seed: int,
                 workdir: Path, tracer: Tracer, probe: Probe, backend: CountingBackend) -> None:
        self.spec, self.inp, self.oracle, self.seed = spec, inp, oracle, seed
        self.workdir, self.tracer, self.probe, self.backend = workdir, tracer, probe, backend
        self.model = ModelConfig(d=16, heads=2, type_layers=1, hop_layers=1, hops=spec.K, d_llm=spec.d_llm)
        self.papers = inp.g.nodes_of_type("paper")
        self.scale = 1.0  # REFERENCE_S over the reference time before the current stage
        self.stages = [
            ("tokenize_cold", self._tokenize_cold),
            ("tokenize_warm", self._tokenize_warm),
            ("token_io", self._token_io),
            ("pretrain", self._pretrain),
            ("finetune", self._finetune),
            ("classify", self._classify),
            ("score", self._score),
        ]
        if spec.finetune_template:
            self.stages.insert(2, ("tokenize_finetune", self._tokenize_finetune))

    def round(self) -> dict:
        """Run every stage once; returns the round's figures, with its
        failure messages under "failures" and "checks_failed" counting the
        failed checks among them."""
        fig: dict = {"stage_s": {}, "failures": [], "checks_failed": 0, "reference_s": []}
        st: dict = {}
        failures = fig["failures"]
        broken = None
        for name, stage in self.stages:
            if broken is not None:
                failures.append(f"{name}: not run after {broken} failed")
                continue
            fig["reference_s"].append(reference_s())
            self.scale = REFERENCE_S / fig["reference_s"][-1]
            try:
                stage(fig, st)
            except checks.CheckFailed as exc:
                failures.append(f"{name}: check failed: {exc}")
                fig["checks_failed"] += 1
            except Exception as exc:  # a stage that raises fails; the round goes on counting
                failures.append(f"{name}: {type(exc).__name__}: {exc}")
                broken = name
        fig["total_s"] = sum(fig["stage_s"].values())
        return fig

    def _timed(self, fig: dict, stage: str, seconds: float) -> float:
        """Add a wall time of ``stage`` to the round, scaled to the reference
        speed, and return the scaled time."""
        seconds *= self.scale
        fig["stage_s"][stage] = fig["stage_s"].get(stage, 0.0) + seconds
        return seconds

    def _tokenize(self, cache_path: Path, targets=None, template=TemplateId.PretrainLink):
        t0 = clock()
        table = encoder.tokenize_graph(
            self.backend, self.inp.g_train, targets=targets, K=self.spec.K, template=template,
            cache=VectorCache(cache_path), workers=1,
        )
        return table, clock() - t0

    def _tokenize_cold(self, fig, st):
        st["cache_path"] = self.workdir / "cache.bin"
        st["cache_path"].unlink(missing_ok=True)
        before = self.backend.calls
        self.probe.calls_per_target = {}
        try:
            st["table"], dt = self._tokenize(st["cache_path"])
        finally:
            per_target, self.probe.calls_per_target = self.probe.calls_per_target, None
        table = st["table"]
        dt = self._timed(fig, "tokenize_cold", dt)
        fig["tokenize_cold_rate"] = (len(table.node_tokens) + len(table.relation_tokens)) / dt
        fig["encoder_calls"] = self.backend.calls - before
        with self.tracer.paused():
            g = self.inp.g_train
            checks.check_relation_calls(per_target, len(g.schema.node_types), self.spec.K)
            checks.check_stored_vectors(table, self.oracle.node_ids, self.oracle.stored)
            for s, hop, expected in self.oracle.walks:
                checks.check_walk_counts(meta_path_profile(g, s, hop), expected)

    def _tokenize_warm(self, fig, st):
        before = self.backend.calls
        warm, dt = self._tokenize(st["cache_path"])
        dt = self._timed(fig, "tokenize_warm", dt)
        fig["tokenize_warm_rate"] = (len(warm.node_tokens) + len(warm.relation_tokens)) / dt
        with self.tracer.paused():
            checks.check_warm_pass(st["table"], warm, self.backend.calls - before)

    def _tokenize_finetune(self, fig, st):
        text_id = encoder.NODE_TEXT_TEMPLATE_ID
        before = self.backend.calls_by_template.get(text_id, 0)
        st["ft_table"], dt = self._tokenize(st["cache_path"], self.papers, TemplateId.FinetuneClassify)
        self._timed(fig, "tokenize_finetune", dt)
        text_calls = self.backend.calls_by_template.get(text_id, 0) - before
        if text_calls:
            raise checks.CheckFailed(f"{text_calls} node texts missed the shared cache")

    def _token_io(self, fig, st):
        path = self.workdir / "tokens.bin"
        fig["token_io_s"] = []
        for _ in range(REPEATS):
            t0 = clock()
            encoder.save_tokens(st["table"], path)
            loaded = encoder.load_tokens(path)
            fig["token_io_s"].append(self._timed(fig, "token_io", clock() - t0))
            with self.tracer.paused():
                checks.check_round_trip(st["table"], loaded)
        fig["token_file_mb"] = path.stat().st_size / 1e6

    def _pretrain(self, fig, st):
        spec, inp = self.spec, self.inp
        cfg = TrainConfig(lr=spec.lr, max_epochs=spec.pretrain_epochs, patience=spec.pretrain_epochs + 1)
        self.probe.negatives, self.probe.epochs = [], []
        try:
            t0 = clock()
            if spec.held_out_links:
                result = trainer.pretrain(
                    inp.g_train, st["table"], self.model, cfg, seed=self.seed,
                    train_positives=inp.train_pos, val_samples=inp.val_samples,
                    forbidden=inp.full_edges,
                )
            else:
                result = trainer.pretrain(inp.g, st["table"], self.model, cfg, seed=self.seed)
            dt = clock() - t0
        finally:
            negatives, self.probe.negatives = self.probe.negatives, None
            epochs, self.probe.epochs = self.probe.epochs, None
        st["params"] = result.params
        self._timed(fig, "pretrain", dt)
        fig["epoch_s"] = [(b[0] - a[0]) * self.scale for a, b in zip(epochs, epochs[1:])]
        fig["ops_per_epoch"] = [b[1] - a[1] for a, b in zip(epochs, epochs[1:])]
        fig["epochs_run"] = len(result.train_curve)
        fig["best_epoch"] = result.best_epoch
        with self.tracer.paused():
            if len(result.train_curve) != spec.pretrain_epochs:
                raise checks.CheckFailed(f"pretrain stopped after {len(result.train_curve)} epochs")
            checks.check_loss_decreased(result.train_curve)
            checks.check_negatives(negatives, inp.full_edges)

    def _finetune(self, fig, st):
        params, inp = st["params"], self.inp
        st["ft_table"] = st.get("ft_table", st["table"])
        backbone = sorted(params.backbone())
        before = params.content_hash(backbone)
        t0 = clock()
        st["ft"] = trainer.finetune(
            inp.g_train, inp.labels, self.model, TrainConfig(), params, st["ft_table"],
            "paper", inp.node_split[0], inp.node_split[1],
        )
        fig["finetune_s"] = self._timed(fig, "finetune", clock() - t0)
        with self.tracer.paused():
            checks.check_backbone_unchanged(before, params.content_hash(backbone))

    def _classify(self, fig, st):
        vocab = st["ft"].label_vocab
        fig["classify_rate"] = []
        runs = []
        for _ in range(REPEATS):
            t0 = clock()
            preds = trainer.classify(self.papers, st["params"], st["ft_table"], self.model, "paper", vocab)
            dt = self._timed(fig, "classify", clock() - t0)
            fig["classify_rate"].append(len(self.papers) / dt)
            runs.append(preds)
        with self.tracer.paused():
            if any(r != runs[0] for r in runs):
                raise checks.CheckFailed("classify gave different labels on a repeat")
            predicted = dict(zip(self.papers, runs[0]))
            test = self.inp.node_split[2]
            checks.check_micro_f1(
                [predicted[n] for n in test], [self.inp.labels[n] for n in test], vocab,
                self.spec.f1_floor,
            )

    def _score(self, fig, st):
        inp, params = self.inp, st["params"]
        fig["score_rate"] = []
        runs = []
        for _ in range(REPEATS):
            t0 = clock()
            test = trainer.score_pairs(inp.test_pairs, params, st["table"], self.model, inp.g.node_type)
            ranking = trainer.score_pairs(inp.ranking, params, st["table"], self.model, inp.g.node_type)
            dt = self._timed(fig, "score", clock() - t0)
            fig["score_rate"].append((len(inp.test_pairs) + len(inp.ranking)) / dt)
            runs.append(np.concatenate([test, ranking]))
        with self.tracer.paused():
            checks.check_scores(runs[0], len(inp.test_pairs) + len(inp.ranking))
            if any(r.tobytes() != runs[0].tobytes() for r in runs):
                raise checks.CheckFailed("score_pairs gave different scores on a repeat")
            if inp.test_pairs:
                checks.check_auc(runs[0][: len(inp.test_pairs)], inp.test_labels, self.spec.auc_floor)


# -- a run ------------------------------------------------------------------------------


def _median(values) -> float:
    values = list(values)
    if not values:
        raise RuntimeError("no round produced this figure")
    return float(statistics.median(values))


def run(workload: str, seed: int, seconds: float, trace: bool, out_dir: Path,
        spec: Spec | None = None) -> dict:
    """Run one workload for ``seconds`` of whole rounds and return the result
    object: end-to-end metrics, or per-layer metrics when ``trace``."""
    spec = spec or SPECS[workload]
    logging.getLogger("ella").setLevel(logging.ERROR)
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer(CountingBackend)
    patches = Patches()
    try:
        probe = Probe(tracer.op_count)
        probe.install(patches)
        reference = reference_s()
        t0 = clock()
        inp = setup(spec, seed)
        setup_s = [(clock() - t0) * REFERENCE_S / reference]
        oracle = build_oracle(spec, inp.g_train, seed)
        runner = Runner(spec, inp, oracle, seed, workdir, tracer, probe, CountingBackend(spec.d_llm))

        rounds: list[dict] = []
        walls: list[float] = []
        deadline = clock() + seconds
        while True:
            traced = trace and len(rounds) % 2 == 1
            t0 = clock()
            reference = reference_s()
            with tracer.unit(on=traced):
                # set-up is timed once per round too, spreading its samples
                # over the run; the inputs made here are not used
                t1 = clock()
                setup(spec, seed)
                setup_s.append((clock() - t1) * REFERENCE_S / reference)
                fig = runner.round()
            walls.append(clock() - t0)
            fig["traced"] = traced
            fig["reference_s"].append(reference)
            rounds.append(fig)
            # a traced run needs an untraced and a traced round; otherwise stop
            # when a further round would overrun the deadline by over half a round
            if (not trace or len(rounds) >= 2) and deadline - clock() < _median(walls) / 2:
                break
    finally:
        patches.undo()
        shutil.rmtree(workdir, ignore_errors=True)

    for fig in rounds:
        for message in fig["failures"]:
            print(f"perfbench {workload}: {message}", file=sys.stderr)
    result = {
        "correct": not any(fig["checks_failed"] for fig in rounds),
        "attempted": len(rounds) * len(runner.stages),
        "failed": sum(len(fig["failures"]) for fig in rounds),
    }
    if trace:
        values = _per_layer(tracer, rounds)
        units = PER_LAYER
        tracer.write(out_dir / f"trace-{workload}-seed{seed}.json")
    else:
        values = _end_to_end(setup_s, rounds)
        units = {name: unit for name, (unit, _) in END_TO_END.items()}
    result["metrics"] = {name: {"value": values[name], "unit": units[name]} for name in units}
    return result


def _flat(figs: list[dict], key: str) -> list[float]:
    out = []
    for f in figs:
        value = f.get(key)
        if value is None:
            continue
        out.extend(value if isinstance(value, list) else [value])
    return out


def _end_to_end(setup_s: list[float], figs: list[dict]) -> dict[str, float]:
    return {
        "setup_s": _median(setup_s),
        "total_s": _median(f["total_s"] for f in figs),
        "pretrain_epoch_ms": 1000.0 * _median(_flat(figs, "epoch_s")),
        "score_pairs_per_s": _median(_flat(figs, "score_rate")),
        "finetune_s": _median(_flat(figs, "finetune_s")),
        "classify_nodes_per_s": _median(_flat(figs, "classify_rate")),
        "tokenize_cold_tokens_per_s": _median(_flat(figs, "tokenize_cold_rate")),
        "tokenize_warm_tokens_per_s": _median(_flat(figs, "tokenize_warm_rate")),
        "encoder_calls": _median(_flat(figs, "encoder_calls")),
        "token_io_s": _median(_flat(figs, "token_io_s")),
        "token_file_mb": _median(_flat(figs, "token_file_mb")),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _per_layer(tracer: Tracer, rounds) -> dict[str, float]:
    silent = [name for name, n in tracer.fired().items() if n == 0]
    if silent:
        raise RuntimeError(f"trace wrappers never fired: {silent}")
    traced = [fig for fig in rounds if fig["traced"]]
    plain = [fig for fig in rounds if not fig["traced"]]
    values: dict[str, float] = {}
    for name in PER_LAYER:
        if name in tracer.units[0]:
            values[name] = _median(u[name] for u in tracer.units)
    values["encoder.cache_hit_ratio"] = _median(
        u["encoder.cache_hits"] / u["encoder.cache_lookups"] for u in tracer.units
    )
    values["tensorcore.ops_per_epoch"] = _median(_flat(traced, "ops_per_epoch"))
    values["trainer.epochs_run"] = _median(_flat(traced, "epochs_run"))
    values["trainer.best_epoch"] = _median(_flat(traced, "best_epoch"))
    values["trace.overhead_ratio"] = _median(f["total_s"] for f in traced) / _median(
        f["total_s"] for f in plain
    )
    values["bench.reference_ms"] = 1000.0 * _median(_flat(rounds, "reference_s"))
    return values
