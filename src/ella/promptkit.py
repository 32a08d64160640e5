"""Templated relation prompts with chain-of-thought task steps.

Every prompt carries a schema preamble, an entity sentence with exactly two
``[PH]`` embedding placeholders, one line per meta-path pattern with its
proportion, and a two-step task instruction that differs between the
link-similarity (pre-training) and classification (fine-tuning) stages.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .hetgraph import SchemaDef
from .pathstats import MetaPathProfile

PLACEHOLDER = "[PH]"

SIMILARITY_STEPS = (
    "Steps: 1. Analyze relations based on path proportions and connection types. "
    "2. Calculate the similarity (0-1) with justification."
)
CLASSIFY_STEPS_TEMPLATE = (
    "Steps: 1. Analyze relations based on path proportions and connection types. "
    "2. Classify the first {src}'s primary class ({labels}) with justification."
)

_NUMBER_WORDS = {
    1: "one", 2: "two", 3: "three", 4: "four", 5: "five",
    6: "six", 7: "seven", 8: "eight", 9: "nine", 10: "ten",
}

_PATH_LINE_RE = re.compile(r"^(?P<pattern>.+) \((?:p|P)roportion of paths: (?P<prop>\d+\.\d{2})\)$")


class TemplateId(str, Enum):
    PretrainLink = "pretrain_link"
    FinetuneClassify = "finetune_classify"


@dataclass(frozen=True)
class PromptInstance:
    template_id: TemplateId
    rendered_text: str
    placeholder_roles: tuple[str, str]
    path_lines: tuple[tuple[str, float], ...]


@dataclass(frozen=True)
class BoundPrompt:
    prompt: PromptInstance
    placeholder_vectors: tuple[np.ndarray, np.ndarray]


def _article(noun: str) -> str:
    return "an" if noun[:1].lower() in "aeiou" else "a"


def _number_word(n: int) -> str:
    return _NUMBER_WORDS.get(n, str(n))


def _oxford_join(items: list[str], conj: str) -> str:
    if len(items) == 1:
        return items[0]
    if len(items) == 2:
        return f"{items[0]} {conj} {items[1]}"
    return ", ".join(items[:-1]) + f", {conj} {items[-1]}"


def schema_preamble(schema: SchemaDef) -> str:
    """The shared prompt opening describing the domain, node types, and relations."""
    types = _oxford_join(list(schema.node_types), "and")
    rels = ", ".join(f"[{et.src} {et.name} {et.dst}]" for et in schema.edge_types)
    return (
        f"Given a heterogeneous graph about {schema.domain_blurb}, there are "
        f"{_number_word(len(schema.node_types))} types of nodes: {types}. "
        f"The relationships between different nodes include: {rels}."
    )


def fallback_pattern(schema: SchemaDef, src_type: str, dst_type: str, hop: int) -> tuple[str, ...]:
    """Lexicographically first schema-consistent type sequence of length ``hop``
    from ``src_type`` to ``dst_type``; used when the node has no such walks."""
    adj = schema.type_adjacency()

    def search(seq: list[str]) -> tuple[str, ...] | None:
        if len(seq) == hop + 1:
            return tuple(seq) if seq[-1] == dst_type else None
        for nxt in sorted(adj[seq[-1]]):
            found = search(seq + [nxt])
            if found is not None:
                return found
        return None

    found = search([src_type])
    if found is None:
        raise ValueError(
            f"schema admits no {hop}-hop type sequence from {src_type!r} to {dst_type!r}"
        )
    return found


def render_path_line(pattern: tuple[str, ...], proportion: float) -> str:
    return f"{'-'.join(pattern)} (proportion of paths: {proportion:.2f})"


def render_zero_path_line(pattern: tuple[str, ...]) -> str:
    # capitalized variant reserved for the no-walk fallback line
    return f"{'-'.join(pattern)} (Proportion of paths: 0.00)"


def parse_path_line(line: str) -> tuple[str, float]:
    """Recover (pattern, proportion) from a rendered path line."""
    m = _PATH_LINE_RE.match(line)
    if m is None:
        raise ValueError(f"not a path line: {line!r}")
    return m.group("pattern"), float(m.group("prop"))


def build_relation_prompt(
    schema: SchemaDef,
    src_type: str,
    dst_type: str,
    hop: int,
    profile: MetaPathProfile,
    task: TemplateId,
) -> PromptInstance:
    """Render the deterministic relation prompt for one (hop, endpoint type).

    Only profile patterns ending at ``dst_type`` are listed. When no such walk
    exists a single schema-derived pattern is rendered with proportion 0.00.
    """
    if src_type not in schema.node_types:
        raise KeyError(f"unknown node type {src_type!r}")
    if dst_type not in schema.node_types:
        raise KeyError(f"unknown node type {dst_type!r}")
    if profile.hop != hop:
        raise ValueError(f"profile is for hop {profile.hop}, prompt requested hop {hop}")

    restricted = profile.restricted_to(dst_type)
    if restricted:
        path_lines = tuple(
            (("-".join(p)), round(stat.proportion, 2)) for p, stat in sorted(restricted.items())
        )
        rendered_lines = [
            render_path_line(p, stat.proportion) for p, stat in sorted(restricted.items())
        ]
    else:
        pattern = fallback_pattern(schema, src_type, dst_type, hop)
        path_lines = (("-".join(pattern), 0.0),)
        rendered_lines = [render_zero_path_line(pattern)]

    if task is TemplateId.PretrainLink:
        task_clause = "calculate the similarity"
        steps = SIMILARITY_STEPS
    elif task is TemplateId.FinetuneClassify:
        labels = schema.class_labels.get(src_type)
        if not labels:
            raise ValueError(f"no class labels declared for node type {src_type!r}")
        label_phrase = _oxford_join(list(labels), "or")
        task_clause = f"classify the first {src_type}'s primary class ({label_phrase})"
        steps = CLASSIFY_STEPS_TEMPLATE.format(src=src_type, labels=label_phrase)
    else:  # pragma: no cover - enum is closed
        raise ValueError(f"unknown template {task!r}")

    entity = (
        f"Given {_article(src_type)} {src_type} {PLACEHOLDER} and "
        f"{_article(dst_type)} {dst_type} {PLACEHOLDER}, {task_clause} "
        f"based on these paths: {', '.join(rendered_lines)}."
    )
    text = f"{schema_preamble(schema)} {entity} {steps}"
    return PromptInstance(
        template_id=task,
        rendered_text=text,
        placeholder_roles=(src_type, dst_type),
        path_lines=path_lines,
    )


def bind_placeholders(p: PromptInstance, vecs: list[np.ndarray]) -> BoundPrompt:
    """Pair a prompt with its two placeholder vectors, in marker order."""
    marker_count = p.rendered_text.count(PLACEHOLDER)
    if len(vecs) != marker_count:
        raise ValueError(f"expected {marker_count} placeholder vectors, got {len(vecs)}")
    arrs = [np.asarray(v, dtype=np.float64) for v in vecs]
    dims = {a.shape for a in arrs}
    if len(dims) > 1 or any(a.ndim != 1 for a in arrs):
        raise ValueError(f"placeholder vectors disagree in dimension: {[a.shape for a in arrs]}")
    return BoundPrompt(prompt=p, placeholder_vectors=(arrs[0], arrs[1]))
