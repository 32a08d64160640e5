"""Templated relation prompts with chain-of-thought task steps.

Every prompt carries a schema preamble, an entity sentence with exactly two
``[PH]`` embedding placeholders, one line per meta-path pattern with its
proportion, and a two-step task instruction that differs between the
link-similarity (pre-training) and classification (fine-tuning) stages.
"""

from __future__ import annotations

import functools
import re
from enum import Enum

from .hetgraph import EdgeType, SchemaDef
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
    return _preamble(tuple(schema.node_types), tuple(schema.edge_types), schema.domain_blurb)


@functools.lru_cache(maxsize=8)
def _preamble(node_types: tuple[str, ...], edge_types: tuple[EdgeType, ...], domain_blurb: str) -> str:
    # keyed on the schema's content, not its identity: a schema changed in place
    # gets a new preamble
    types = _oxford_join(list(node_types), "and")
    rels = ", ".join(f"[{et.src} {et.name} {et.dst}]" for et in edge_types)
    return (
        f"Given a heterogeneous graph about {domain_blurb}, there are "
        f"{_number_word(len(node_types))} types of nodes: {types}. "
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
) -> str:
    """Render the deterministic relation prompt for one (hop, endpoint type).

    Only profile patterns ending at ``dst_type`` are listed. When no such walk
    exists a single schema-derived pattern is rendered with proportion 0.00.
    """
    for ntype in (src_type, dst_type):
        if ntype not in schema.node_types:
            raise KeyError(f"unknown node type {ntype!r}")
    if profile.hop != hop:
        raise ValueError(f"profile is for hop {profile.hop}, prompt requested hop {hop}")

    restricted = sorted(profile.restricted_to(dst_type).items())
    if restricted:
        rendered_lines = [render_path_line(p, stat.proportion) for p, stat in restricted]
    else:
        rendered_lines = [render_zero_path_line(fallback_pattern(schema, src_type, dst_type, hop))]

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
    if text.count(PLACEHOLDER) != 2:
        raise ValueError(f"prompt holds {text.count(PLACEHOLDER)} {PLACEHOLDER} markers, not 2;"
                         " a schema string contains the marker")
    return text
