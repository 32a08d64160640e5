from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ella.pathstats import MetaPathProfile, PatternStat, meta_path_profile
from ella.promptkit import (
    PLACEHOLDER,
    SIMILARITY_STEPS,
    TemplateId,
    bind_placeholders,
    build_relation_prompt,
    fallback_pattern,
    parse_path_line,
    render_path_line,
    schema_preamble,
)

from fixtures import ACM_LABELS, academic_schema, small_academic_graph

GOLDEN = Path(__file__).parent / "golden"


def empty_profile(hop):
    return MetaPathProfile(target="x", hop=hop, patterns={})


def profile_of(patterns, hop):
    total_by_type = {}
    for p, c in patterns.items():
        total_by_type[p[-1]] = total_by_type.get(p[-1], 0) + c
    stats = {p: PatternStat(c, c / total_by_type[p[-1]]) for p, c in patterns.items()}
    return MetaPathProfile(target="x", hop=hop, patterns=stats)


def test_preamble_matches_schema():
    text = schema_preamble(academic_schema())
    assert text.startswith("Given a heterogeneous graph about an academic network")
    assert "there are three types of nodes: paper, author, and organization." in text
    assert "[author writes paper]" in text


def test_zero_proportion_prompt_table6_case():
    p = build_relation_prompt(
        academic_schema(), "author", "author", 3, empty_profile(3), TemplateId.PretrainLink
    )
    assert "author-paper-paper-author (Proportion of paths: 0.00)" in p.rendered_text
    assert SIMILARITY_STEPS in p.rendered_text
    assert p.rendered_text.count(PLACEHOLDER) == 2
    assert p.path_lines == (("author-paper-paper-author", 0.0),)


def test_hop1_prompt_table1_case():
    prof = profile_of({("paper", "author"): 4}, hop=1)
    p = build_relation_prompt(
        academic_schema(), "paper", "author", 1, prof, TemplateId.PretrainLink
    )
    assert "Given a paper [PH] and an author [PH]" in p.rendered_text
    assert "calculate the similarity based on these paths: "
    assert "paper-author (proportion of paths: 1.00)" in p.rendered_text
    assert SIMILARITY_STEPS in p.rendered_text
    assert len(p.path_lines) == 1


def test_finetune_prompt_lists_labels():
    p = build_relation_prompt(
        academic_schema(), "author", "author", 3, empty_profile(3), TemplateId.FinetuneClassify
    )
    assert "classify the first" in p.rendered_text
    for label in ACM_LABELS:
        assert label in p.rendered_text
    assert "with justification." in p.rendered_text


def test_finetune_prompt_requires_labels():
    schema = academic_schema()
    schema.class_labels.pop("organization", None)
    prof = profile_of({("organization", "author"): 1}, hop=1)
    with pytest.raises(ValueError, match="class labels"):
        build_relation_prompt(schema, "organization", "author", 1, prof, TemplateId.FinetuneClassify)


def test_prompt_restricts_to_endpoint_type():
    prof = profile_of({("paper", "author"): 1, ("paper", "paper"): 3}, hop=1)
    p = build_relation_prompt(
        academic_schema(), "paper", "author", 1, prof, TemplateId.PretrainLink
    )
    assert "paper-author" in p.rendered_text
    assert "paper-paper (" not in p.rendered_text


def test_unknown_dst_type_errors():
    with pytest.raises(KeyError):
        build_relation_prompt(
            academic_schema(), "paper", "spaceship", 1, empty_profile(1), TemplateId.PretrainLink
        )


def test_hop_mismatch_errors():
    with pytest.raises(ValueError, match="hop"):
        build_relation_prompt(
            academic_schema(), "paper", "author", 2, empty_profile(1), TemplateId.PretrainLink
        )


def test_rendering_is_pure():
    prof = profile_of({("paper", "author"): 2, ("paper", "paper", "author"): 1}, hop=1)
    args = (academic_schema(), "paper", "author", 1, prof, TemplateId.PretrainLink)
    assert build_relation_prompt(*args).rendered_text == build_relation_prompt(*args).rendered_text


def test_marker_count_always_two():
    schema = academic_schema()
    for task in TemplateId:
        for src, dst in (("paper", "author"), ("author", "author"), ("author", "paper")):
            p = build_relation_prompt(schema, src, dst, 3, empty_profile(3), task)
            assert p.rendered_text.count(PLACEHOLDER) == 2


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=0, max_value=1), st.integers(min_value=1, max_value=3))
def test_path_line_roundtrip(prop, hop):
    pattern = ("paper",) + ("author",) * hop
    line = render_path_line(pattern, prop)
    parsed_pattern, parsed_prop = parse_path_line(line)
    assert parsed_pattern == "-".join(pattern)
    assert parsed_prop == float(f"{prop:.2f}")


def test_rendered_lines_parse_back():
    g = small_academic_graph()
    prof = meta_path_profile(g, "p1", 2)
    p = build_relation_prompt(
        academic_schema(), "paper", "author", 2, prof, TemplateId.PretrainLink
    )
    segment = p.rendered_text.split("based on these paths: ")[1]
    listed = segment.split(". Steps:")[0]
    for line, (pattern, prop) in zip(listed.split(", "), p.path_lines):
        assert parse_path_line(line) == (pattern, prop)


def test_fallback_pattern_lexicographic():
    assert fallback_pattern(academic_schema(), "author", "author", 3) == (
        "author", "paper", "paper", "author",
    )
    with pytest.raises(ValueError):
        fallback_pattern(academic_schema(), "organization", "organization", 1)


def test_bind_placeholders():
    p = build_relation_prompt(
        academic_schema(), "paper", "author", 1, empty_profile(1), TemplateId.PretrainLink
    )
    v = np.zeros(8)
    bound = bind_placeholders(p, [v, v])
    assert len(bound.placeholder_vectors) == 2
    assert all(vec.shape == (8,) for vec in bound.placeholder_vectors)
    with pytest.raises(ValueError):
        bind_placeholders(p, [v])
    with pytest.raises(ValueError):
        bind_placeholders(p, [np.zeros(8), np.zeros(16)])


@pytest.mark.parametrize(
    "golden,src,dst,hop,target",
    [
        ("table1_hop1_paper_author.txt", "paper", "author", 1, "p1"),
        ("table1_hop1_author_paper.txt", "author", "paper", 1, "a1"),
        ("table1_hop2_paper_author.txt", "paper", "author", 2, "p1"),
        ("table1_hop2_author_paper.txt", "author", "paper", 2, "a1"),
        ("table6_hop3_author_author.txt", "author", "author", 3, None),
    ],
)
def test_golden_prompts(golden, src, dst, hop, target):
    g = small_academic_graph()
    prof = meta_path_profile(g, target, hop) if target else empty_profile(hop)
    p = build_relation_prompt(academic_schema(), src, dst, hop, prof, TemplateId.PretrainLink)
    assert p.rendered_text == (GOLDEN / golden).read_text(encoding="utf-8")
