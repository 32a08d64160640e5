"""Heterogeneous graph learning with LLM-derived relation tokens, a hop-level
relation graph transformer, contrastive pre-training, and frozen-backbone
fine-tuning."""

from .hetgraph import (
    EdgeType,
    HeteroGraph,
    SchemaDef,
    SynthConfig,
    load_graph,
    save_graph,
    synth_generate,
    typed_neighbors,
)
from .pathstats import (
    MetaPathProfile,
    enumerate_walks,
    hop_type_neighbors,
    meta_path_profile,
)
from .promptkit import (
    TemplateId,
    build_relation_prompt,
)
from .encoder import (
    HttpBackend,
    MockBackend,
    PrototypeBackend,
    TokenTable,
    VectorCache,
    pooled_node_token,
    relation_token,
    tokenize_graph,
)
from .ellanet import (
    AttentionCapture,
    ModelConfig,
    ModelParams,
    TokenBatch,
    forward,
    forward_batch,
    init_params,
    pad_tokens,
)
from .trainer import (
    EdgeSampleSet,
    TrainConfig,
    finetune,
    pretrain,
    pretrain_loss,
    sample_edges,
    similarity,
)
from .evalkit import SplitSpec, Task, ap, auc, build_splits, macro_f1, micro_f1, profile_run

__version__ = "0.1.0"

__all__ = [
    "AttentionCapture", "EdgeSampleSet", "EdgeType", "HeteroGraph", "HttpBackend",
    "MetaPathProfile", "MockBackend", "ModelConfig", "ModelParams", "PrototypeBackend",
    "SchemaDef", "SplitSpec", "SynthConfig", "Task", "TemplateId", "TokenBatch", "TokenTable",
    "TrainConfig", "VectorCache", "ap", "auc", "build_relation_prompt", "build_splits",
    "enumerate_walks", "finetune", "forward", "forward_batch",
    "hop_type_neighbors", "init_params", "load_graph", "macro_f1", "meta_path_profile",
    "micro_f1", "pad_tokens", "pooled_node_token", "pretrain", "pretrain_loss", "profile_run",
    "relation_token", "sample_edges", "save_graph", "similarity", "synth_generate",
    "tokenize_graph", "typed_neighbors",
]
