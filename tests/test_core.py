import random

import pytest
from hypothesis import given, settings, strategies as st

from qktree.core import (
    Graph,
    VertexCut,
    adhesion,
    components_masks,
    connected_components,
    format_edge_list,
    induced_subgraph,
    is_balanced,
    mask_to_set,
    neighborhood,
    parse_edge_list,
    torso,
)

from conftest import cycle_graph, gnp, grid_graph, path_graph, star_graph


def brute_components(g, removed):
    """Independent BFS oracle."""
    removed = set(removed)
    out = []
    seen = set(removed)
    for s in range(g.n):
        if s in seen:
            continue
        comp = {s}
        queue = [s]
        while queue:
            v = queue.pop(0)
            for u in g.adj[v]:
                if u not in seen and u not in comp:
                    comp.add(u)
                    queue.append(u)
        seen |= comp
        out.append(frozenset(comp))
    return out


def test_components_path_cut_vertex():
    g = path_graph(3)
    assert connected_components(g, {1}) == [frozenset({0}), frozenset({2})]


def test_components_all_removed():
    g = path_graph(4)
    assert connected_components(g, set(range(4))) == []


def test_components_grid_middle_column():
    g = grid_graph(3, 3)
    middle = {1, 4, 7}
    comps = connected_components(g, middle)
    assert sorted(len(c) for c in comps) == [3, 3]
    assert comps == brute_components(g, middle)


@given(st.integers(0, 999))
@settings(max_examples=60, deadline=None)
def test_components_match_oracle_and_partition(seed):
    rng = random.Random(seed)
    g = gnp(rng.randint(1, 12), rng.random(), seed)
    removed = {v for v in range(g.n) if rng.random() < 0.3}
    comps = connected_components(g, removed)
    assert comps == brute_components(g, removed)
    union = set()
    for c in comps:
        assert c and not (c & union) and not (c & removed)
        union |= c
    assert union == set(range(g.n)) - removed
    masks = components_masks(g, sum(1 << v for v in removed))
    assert [mask_to_set(m) for m in masks] == comps


def test_adhesion_path_middle():
    assert adhesion(path_graph(5), {2}) == 1


def test_adhesion_cycle_antipodal():
    assert adhesion(cycle_graph(6), {0, 3}) == 2


def test_adhesion_full_set_is_zero():
    g = gnp(6, 0.5, 1)
    assert adhesion(g, set(range(6))) == 0


@given(st.integers(0, 999))
@settings(max_examples=60, deadline=None)
def test_adhesion_matches_brute(seed):
    rng = random.Random(seed)
    g = gnp(rng.randint(1, 11), rng.random(), seed)
    x = {v for v in range(g.n) if rng.random() < 0.4}
    expected = 0
    for comp in brute_components(g, x):
        expected = max(expected, len(neighborhood(g, comp)))
    assert adhesion(g, x) == expected


def test_is_balanced_examples():
    assert is_balanced(path_graph(7), {3}, 0.5)
    assert not is_balanced(star_graph(9), set(), 0.5)
    assert not is_balanced(path_graph(7), {1}, 0.5)


def test_torso_path_bridges_removed_vertex():
    g = path_graph(3)
    h, ids = torso(g, {0, 2})
    assert ids == [0, 2]
    assert h.edges() == [(0, 1)]


def test_torso_star_leaves_form_clique():
    g = star_graph(5)
    h, ids = torso(g, set(range(1, 6)))
    assert h.m == 10  # K_5


def test_torso_identity_on_full_set():
    g = gnp(8, 0.3, 3)
    h, ids = torso(g, set(range(8)))
    assert ids == list(range(8))
    assert h == g


@given(st.integers(0, 499))
@settings(max_examples=40, deadline=None)
def test_torso_edge_bound(seed):
    rng = random.Random(seed)
    g = gnp(rng.randint(2, 10), 0.4, seed)
    t = {v for v in range(g.n) if rng.random() < 0.6}
    if not t:
        t = {0}
    h, _ = torso(g, t)
    sigma = adhesion(g, t)
    assert h.m <= max(g.m * sigma * sigma, g.m)


def test_edge_list_roundtrip():
    g = gnp(9, 0.35, 7)
    assert parse_edge_list(format_edge_list(g)) == g


def test_edge_list_comments_and_errors():
    g = parse_edge_list("# comment\n3 2\n0 1\n\n1 2\n")
    assert g.n == 3 and g.m == 2
    with pytest.raises(ValueError):
        parse_edge_list("3 2\n0 1\n")
    with pytest.raises(ValueError):
        parse_edge_list("")


def test_vertex_cut_validity():
    g = path_graph(4)
    cut = VertexCut(frozenset({0, 1}), frozenset({1, 2, 3}))
    assert cut.is_valid(g)
    assert cut.separator == {1}
    assert not VertexCut(frozenset({0, 1}), frozenset({2, 3})).is_valid(g)


def test_induced_subgraph_with_drop_within():
    g = cycle_graph(5)
    h, ids = induced_subgraph(g, {0, 1, 2}, drop_within={1, 2})
    assert ids == [0, 1, 2]
    assert h.edges() == [(0, 1)]
    # only edges with both ends in the set go: (3, 4) stays
    h, ids = induced_subgraph(g, {0, 1, 3, 4}, drop_within={0, 1, 2, 4})
    assert ids == [0, 1, 3, 4]
    assert h.edges() == [(2, 3)]
