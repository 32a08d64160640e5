"""Spans and counters recorded around calls into the package's modules.

Every wrapper is installed from here by replacing a name where the caller
looks it up (``trainer.forward_batch``, not ``ellanet.forward_batch``, since
the trainer imports it by name). The package itself is not edited.

A span is (name, start, end, parent): ``parent`` is the index of the span
that was open when this one began, or -1. Spans stay in memory for the whole
run and are written out once, at the end. A layer's self time is its span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

from ella import ellanet, encoder, evalkit, hetgraph, tensorcore, trainer
from ella.encoder import VectorCache
from ella.hetgraph import HeteroGraph

# (owner, attribute, span name): timed spans.
SPANS = [
    (hetgraph, "synth_generate", "hetgraph.synth_generate"),
    (evalkit, "build_splits", "evalkit.build_splits"),
    (encoder, "meta_path_profile", "pathstats.meta_path_profile"),
    (encoder, "hop_types_present", "pathstats.hop_types_present"),
    (encoder, "hop_type_neighbors", "pathstats.hop_type_neighbors"),
    (encoder, "build_relation_prompt", "promptkit.build_relation_prompt"),
    (encoder, "tokenize_graph", "encoder.tokenize_graph"),
    (encoder, "relation_token", "encoder.relation_token"),
    (VectorCache, "key_for", "encoder.cache_key"),
    (VectorCache, "get", "encoder.cache_get"),
    (VectorCache, "put", "encoder.cache_put"),
    (encoder, "save_tokens", "encoder.save_tokens"),
    (encoder, "load_tokens", "encoder.load_tokens"),
    (trainer, "forward_batch", "ellanet.forward_batch"),
    (ellanet, "project", "ellanet.project"),
    (ellanet, "type_block", "ellanet.type_block"),
    (ellanet, "type_readout", "ellanet.type_readout"),
    (ellanet, "hop_block", "ellanet.hop_block"),
    (ellanet, "hop_readout", "ellanet.hop_readout"),
    (trainer, "backward", "tensorcore.backward"),
    (trainer, "adam_step", "tensorcore.adam_step"),
    (trainer, "pretrain", "trainer.pretrain"),
    (trainer, "sample_negatives", "trainer.sample_negatives"),
    (trainer, "finetune", "trainer.finetune"),
    (trainer, "score_pairs", "trainer.score_pairs"),
    (trainer, "classify", "trainer.classify"),
]

# Public autodiff ops, counted (not timed): an epoch calls a few hundred.
OPS = [
    "add", "sub", "mul", "scale", "matmul", "transpose", "reshape", "concat",
    "gather", "select_rows", "mean", "tsum", "relu", "sigmoid", "tlog", "clip",
    "softmax", "layer_norm",
]

# Spans whose self time is reported.
SELF_TIMED = ["encoder.relation_token", "ellanet.forward_batch", "trainer.pretrain"]


class Patches:
    """Attribute replacements undone in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, owner, name: str, make) -> None:
        """Replace ``owner.name`` by ``make(original function)``."""
        raw = vars(owner)[name]
        self._saved.append((owner, name, raw))
        if isinstance(raw, staticmethod):
            setattr(owner, name, staticmethod(make(raw.__func__)))
        else:
            setattr(owner, name, make(raw))

    def undo(self) -> None:
        while self._saved:
            owner, name, raw = self._saved.pop()
            setattr(owner, name, raw)


class Tracer:
    """Records spans and counts while ``on``; per-layer figures are
    aggregated per traced round."""

    def __init__(self, backend_cls) -> None:
        self.backend_cls = backend_cls
        self.on = False
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}
        self._unit_start = 0
        self._unit_counts: dict[str, int] = {}
        self.units: list[dict[str, float]] = []

    # -- recording ---------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        nid = self._name_id.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            idx = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(self._stack[-1] if self._stack else -1)
            self.span_end.append(0.0)
            self._stack.append(idx)
            self.span_start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.span_end[idx] = clock()
                self._stack.pop()

        return wrapper

    def _count_wrapper(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            if self.on:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _cache_get_wrapper(self, fn):
        counts = self.counts
        counts.setdefault("encoder.cache_lookups", 0)
        counts.setdefault("encoder.cache_hits", 0)

        def wrapper(cache, key):
            vec = fn(cache, key)
            if self.on:
                counts["encoder.cache_lookups"] += 1
                counts["encoder.cache_hits"] += vec is not None
            return vec

        return wrapper

    def _install(self, patches: Patches) -> None:
        """Wrap every traced name; ``backend_cls.encode`` is the backend call."""
        patches.wrap(VectorCache, "get", self._cache_get_wrapper)
        for owner, attr, name in SPANS:
            patches.wrap(owner, attr, lambda fn, name=name: self._span_wrapper(name, fn))
        patches.wrap(
            self.backend_cls, "encode",
            lambda fn: self._span_wrapper("encoder.backend_encode", fn),
        )
        patches.wrap(
            HeteroGraph, "incident", lambda fn: self._count_wrapper("hetgraph.incident.calls", fn)
        )
        for op in OPS:
            patches.wrap(tensorcore, op, lambda fn: self._count_wrapper("tensorcore.ops", fn))

    @contextmanager
    def unit(self, on: bool):
        """Run one round, traced when ``on``. The wrappers are installed for a
        traced round only, so other rounds run unwrapped."""
        if not on:
            yield
            return
        patches = Patches()
        self._install(patches)
        self._unit_start = len(self.span_start)
        self._unit_counts = dict(self.counts)
        self.on = True
        try:
            yield
        finally:
            self.on = False
            patches.undo()
        self.units.append(self._aggregate())

    @contextmanager
    def paused(self):
        """Leave the benchmark's own checks out of the trace."""
        was, self.on = self.on, False
        try:
            yield
        finally:
            self.on = was

    def op_count(self) -> int:
        return self.counts.get("tensorcore.ops", 0)

    # -- aggregation -------------------------------------------------------

    def _aggregate(self) -> dict[str, float]:
        lo, hi = self._unit_start, len(self.span_start)
        total: dict[str, float] = {}
        calls: dict[str, int] = {}
        child_time = [0.0] * (hi - lo)
        for i in range(lo, hi):
            dur = self.span_end[i] - self.span_start[i]
            name = self.names[self.span_name[i]]
            total[name] = total.get(name, 0.0) + dur
            calls[name] = calls.get(name, 0) + 1
            parent = self.span_parent[i]
            if parent >= lo:
                child_time[parent - lo] += dur
        out: dict[str, float] = {}
        for name in self.names:
            out[f"{name}.s"] = total.get(name, 0.0)
            out[f"{name}.calls"] = calls.get(name, 0)
        for name in SELF_TIMED:
            out[f"{name}.self_s"] = 0.0
        for i in range(lo, hi):
            name = self.names[self.span_name[i]]
            if name in SELF_TIMED:
                dur = self.span_end[i] - self.span_start[i]
                out[f"{name}.self_s"] += dur - child_time[i - lo]
        for name, value in self.counts.items():
            out[name] = value - self._unit_counts.get(name, 0)
        return out

    def fired(self) -> dict[str, int]:
        """Total spans or counts per wrapped name over the whole run."""
        out = {name: 0 for name in self.names}
        for nid in self.span_name:
            out[self.names[nid]] += 1
        out.update(self.counts)
        return out

    def write(self, path: Path) -> None:
        """All spans as [name, start_s, end_s, parent] rows, plus the counts."""
        path.parent.mkdir(parents=True, exist_ok=True)
        spans = [
            [self.span_name[i], self.span_start[i], self.span_end[i], self.span_parent[i]]
            for i in range(len(self.span_start))
        ]
        doc = {"names": self.names, "counts": self.counts, "spans": spans}
        path.write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")
