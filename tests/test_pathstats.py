import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ella.hetgraph import EdgeType, HeteroGraph, SchemaDef
from ella.pathstats import (
    WalkExplosionError,
    count_simple_paths,
    enumerate_walks,
    hop_type_neighbors,
    hop_types_present,
    meta_path_profile,
)

from fixtures import (
    complete_typed_tree,
    oracle_hop_type_members,
    oracle_pattern_counts,
    oracle_simple_paths,
    oracle_walks,
    random_hetero_graph,
    small_academic_graph,
)


def paper_author_schema():
    return SchemaDef(
        node_types=["author", "paper"],
        edge_types=[EdgeType("writes", "author", "paper"), EdgeType("cites", "paper", "paper")],
    )


def test_single_walk_on_path_graph():
    g = HeteroGraph(
        paper_author_schema(),
        [("a", "author"), ("p1", "paper"), ("p2", "paper")],
        [("a", "p1", "writes"), ("p1", "p2", "cites")],
    )
    walks = enumerate_walks(g, "a", 2)
    assert walks == [("a", "p1", "p2")]


def test_triangle_excludes_returning_walks():
    g = HeteroGraph(
        paper_author_schema(),
        [("p1", "paper"), ("p2", "paper"), ("p3", "paper")],
        [("p1", "p2", "cites"), ("p2", "p3", "cites"), ("p1", "p3", "cites")],
    )
    walks = enumerate_walks(g, "p1", 2)
    assert sorted(walks) == sorted(oracle_walks(g, "p1", 2))
    assert set(walks) == {("p1", "p2", "p3"), ("p1", "p3", "p2")}


def test_isolated_node_has_no_walks():
    schema = paper_author_schema()
    g = HeteroGraph(schema, [("p1", "paper")], [])
    assert enumerate_walks(g, "p1", 1) == []
    assert enumerate_walks(g, "p1", 3) == []


def test_backtracking_walks_counted():
    # a - p: hop 3 walks a->p->a->p (immediate backtracking allowed)
    g = HeteroGraph(
        paper_author_schema(),
        [("a", "author"), ("p", "paper")],
        [("a", "p", "writes")],
    )
    assert enumerate_walks(g, "a", 3) == [("a", "p", "a", "p")]
    assert enumerate_walks(g, "a", 2) == []  # a->p->a terminates at the target


def test_parallel_edge_types_give_distinct_walks():
    schema = SchemaDef(
        node_types=["author", "paper"],
        edge_types=[
            EdgeType("writes", "author", "paper"),
            EdgeType("reviews", "author", "paper"),
        ],
    )
    g = HeteroGraph(
        schema,
        [("a", "author"), ("p", "paper")],
        [("a", "p", "writes"), ("a", "p", "reviews")],
    )
    assert enumerate_walks(g, "a", 1) == [("a", "p"), ("a", "p")]
    prof = meta_path_profile(g, "a", 1)
    assert prof.patterns[("author", "paper")].count == 2
    assert prof.patterns[("author", "paper")].proportion == 1.0


def test_unknown_node_raises():
    g = small_academic_graph()
    with pytest.raises(KeyError):
        enumerate_walks(g, "ghost", 1)
    with pytest.raises(KeyError):
        hop_type_neighbors(g, "a1", 1, "spaceship")


def test_profile_single_edge():
    g = HeteroGraph(
        paper_author_schema(),
        [("a", "author"), ("p", "paper")],
        [("a", "p", "writes")],
    )
    prof = meta_path_profile(g, "a", 1)
    assert prof.patterns[("author", "paper")].count == 1
    assert prof.patterns[("author", "paper")].proportion == 1.0


def test_profile_proportions_075_025():
    # paper target with two hop-2 families ending at papers:
    # paper-paper-paper 6 walks, paper-author-paper 2 walks -> 0.75 / 0.25
    schema = paper_author_schema()
    nodes = [("s", "paper")] + [(f"q{i}", "paper") for i in range(1, 6)] + [
        ("a1", "author"), ("a2", "author")
    ]
    edges = [
        # s cites q1, q2; each of q1, q2 cites q3, q4, q5 -> 6 ppp walks
        ("s", "q1", "cites"), ("s", "q2", "cites"),
        ("q1", "q3", "cites"), ("q1", "q4", "cites"), ("q1", "q5", "cites"),
        ("q2", "q3", "cites"), ("q2", "q4", "cites"), ("q2", "q5", "cites"),
        # two authors of s each wrote one other paper -> 2 pap walks
        ("a1", "s", "writes"), ("a1", "q3", "writes"),
        ("a2", "s", "writes"), ("a2", "q5", "writes"),
    ]
    g = HeteroGraph(schema, nodes, edges)
    oracle = oracle_pattern_counts(g, "s", 2)
    ppp = oracle[("paper", "paper", "paper")]
    pap = oracle[("paper", "author", "paper")]
    assert (ppp, pap) == (6, 2)

    prof = meta_path_profile(g, "s", 2)
    assert prof.patterns[("paper", "paper", "paper")].count == 6
    assert prof.patterns[("paper", "author", "paper")].count == 2
    assert prof.patterns[("paper", "paper", "paper")].proportion == pytest.approx(0.75)
    assert prof.patterns[("paper", "author", "paper")].proportion == pytest.approx(0.25)


def test_hop_type_neighbors_basics():
    g = HeteroGraph(
        paper_author_schema(),
        [("a", "author"), ("p1", "paper"), ("p2", "paper")],
        [("a", "p1", "writes"), ("p1", "p2", "cites")],
    )
    assert hop_type_neighbors(g, "a", 2, "paper").members == {"p2"}
    assert hop_type_neighbors(g, "a", 2, "author").members == set()


def test_hop_type_neighbors_bipartite_clique():
    # 2 authors + 3 papers fully connected across: authors reach each other at hop 2
    schema = paper_author_schema()
    nodes = [("a1", "author"), ("a2", "author"), ("p1", "paper"), ("p2", "paper"), ("p3", "paper")]
    edges = [(a, p, "writes") for a in ("a1", "a2") for p in ("p1", "p2", "p3")]
    g = HeteroGraph(schema, nodes, edges)
    nb = hop_type_neighbors(g, "a1", 2, "author")
    assert nb.members == oracle_hop_type_members(g, "a1", 2, "author") == {"a2"}


def test_typed_tree_counts():
    g = complete_typed_tree(b=5, depth=3)
    # simple paths from the root are the strictly downward ones: b^i
    assert [count_simple_paths(g, "n0", i) for i in (1, 2, 3)] == [5, 25, 125]
    assert sum(count_simple_paths(g, "n0", i) for i in (1, 2, 3)) == 155
    assert [oracle_simple_paths(g, "n0", i) for i in (1, 2, 3)] == [5, 25, 125]
    # walk semantics include revisits at hop 3: down-down-down, down-down-up,
    # and down-through-root variants
    walk_counts = [
        sum(s.count for s in meta_path_profile(g, "n0", i).patterns.values()) for i in (1, 2, 3)
    ]
    assert walk_counts == [5, 25, 175]
    assert [len(oracle_walks(g, "n0", i)) for i in (1, 2, 3)] == [5, 25, 175]


def test_walk_cap_aborts():
    g = complete_typed_tree(b=5, depth=3)
    with pytest.raises(WalkExplosionError):
        enumerate_walks(g, "n0", 3, max_walks=10)
    with pytest.raises(WalkExplosionError):
        meta_path_profile(g, "n0", 3, max_walks=10)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_oracle_equivalence_random_graphs(seed):
    rng = np.random.default_rng(seed)
    g = random_hetero_graph(rng, max_nodes=16, max_types=4)
    node = g.node_ids()[int(rng.integers(g.num_nodes()))]
    hop = int(rng.integers(1, 4))

    oracle = oracle_pattern_counts(g, node, hop)
    prof = meta_path_profile(g, node, hop)
    assert {p: s.count for p, s in prof.patterns.items()} == oracle

    walks = enumerate_walks(g, node, hop)
    assert sorted(walks) == sorted(oracle_walks(g, node, hop))

    for t in g.schema.node_types:
        nb = hop_type_neighbors(g, node, hop, t)
        assert nb.members == oracle_hop_type_members(g, node, hop, t)

    # proportions: in [0, 1], per-endpoint-type sums equal 1 where walks exist
    for t in {p[-1] for p in prof.patterns}:
        total = sum(s.proportion for p, s in prof.patterns.items() if p[-1] == t)
        assert total == pytest.approx(1.0, abs=1e-12)
    for s_ in prof.patterns.values():
        assert 0.0 <= s_.proportion <= 1.0


def test_hop_types_present_matches_oracle():
    g = small_academic_graph()
    for node in g.node_ids():
        for hop in (1, 2, 3):
            expected = sorted(
                {g.node_type(w[-1]) for w in oracle_walks(g, node, hop)}
            )
            assert hop_types_present(g, node, hop) == expected
