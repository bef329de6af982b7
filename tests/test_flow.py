import random
from itertools import combinations

import pytest

from qktree.core import Graph, connected_components, induced_subgraph
from qktree.flow import (
    EXCEEDS_BOUND,
    INF,
    CapacitatedGraph,
    PreconditionError,
    bounded_vertex_maxflow,
    minimal_side_mincut,
    unit_capacities,
    with_new_vertices,
)

from conftest import complete_graph, gnp, path_graph


def _candidates(g, sources, sinks, caps, cut_sources, cut_sinks):
    """Vertices a separator may use: not an uncuttable endpoint, finite."""
    sources, sinks = set(sources), set(sinks)
    return [
        v
        for v in range(g.n)
        if (cut_sources or v not in sources)
        and (cut_sinks or v not in sinks)
        and (caps is None or caps[v] != INF)
    ]


def _reach(g, sources, sinks, sep):
    """Vertices the uncut sources reach in g minus sep, or None when an
    uncut sink is among them."""
    reach = set()
    for c in connected_components(g, sep):
        if c & (set(sources) - set(sep)):
            reach |= c
    if reach & (set(sinks) - set(sep)):
        return None
    return reach


def brute_min_separator(
    g, sources, sinks, caps=None, cut_sources=False, cut_sinks=False
):
    """Minimum-capacity vertex set whose removal disconnects sources from
    sinks; endpoints only where their flag allows, INF vertices never.
    Exhaustive over all subsets."""
    middle = _candidates(g, sources, sinks, caps, cut_sources, cut_sinks)
    best = None
    best_set = None
    for size in range(len(middle) + 1):
        for sep in combinations(middle, size):
            weight = size if caps is None else sum(caps[v] for v in sep)
            if best is not None and weight >= best:
                continue
            if _reach(g, sources, sinks, sep) is not None:
                best = weight
                best_set = set(sep)
    return best, best_set


def enumerate_mincuts(
    g, sources, sinks, value, caps=None, cut_sources=False, cut_sinks=False
):
    """All source-sink mincut separators of the given value (finite
    capacities 1), each with the vertices the uncut sources reach."""
    middle = _candidates(g, sources, sinks, caps, cut_sources, cut_sinks)
    out = []
    for sep in combinations(middle, value):
        reach = _reach(g, sources, sinks, sep)
        if reach is not None:
            out.append((set(sep), reach))
    return out


def test_path_unit_flow():
    g = path_graph(4)
    res = bounded_vertex_maxflow(unit_capacities(g), {0}, {3}, 3)
    assert res.value == 1
    assert res.mincut.separator in ({1}, {2})


def test_near_complete_pair():
    g = Graph(4, [(0, 1), (0, 2), (1, 3), (2, 3), (1, 2)])  # K4 minus 0-3
    res = bounded_vertex_maxflow(unit_capacities(g), {0}, {3}, 3)
    assert res.value == 2
    assert res.mincut.separator == {1, 2}


def test_source_sink_edge_rejected():
    g = path_graph(2)
    with pytest.raises(PreconditionError):
        bounded_vertex_maxflow(unit_capacities(g), {0}, {1}, 2)


def test_exceeds_bound():
    # four internally disjoint paths between nonadjacent endpoints
    g = Graph(6, [(0, i) for i in range(1, 5)] + [(i, 5) for i in range(1, 5)])
    res = bounded_vertex_maxflow(unit_capacities(g), {0}, {5}, 2)
    assert res.value == EXCEEDS_BOUND
    assert res.mincut is None


def test_minimal_side_path_and_diamond():
    g = path_graph(4)
    res = minimal_side_mincut(unit_capacities(g), {0}, {3}, 3)
    assert res.mincut.left_only == {0}
    assert res.mincut.separator == {1}
    diamond = Graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    res = minimal_side_mincut(unit_capacities(diamond), {0}, {3}, 3)
    assert res.mincut.left_only == {0}
    assert res.mincut.separator == {1, 2}


def random_instance(seed):
    rng = random.Random(seed)
    n = rng.randint(4, 9)
    g = gnp(n, rng.uniform(0.25, 0.7), seed)
    verts = list(range(n))
    rng.shuffle(verts)
    a = {verts[0]} if rng.random() < 0.6 else set(verts[:2])
    rest = [v for v in verts if v not in a]
    b = {rest[0]} if rng.random() < 0.6 else set(rest[:2])
    if any(u in b for v in a for u in g.adj[v]):
        return None
    return g, frozenset(a), frozenset(b)


def check_against_enumeration(g, a, b, caps, cut_sources, cut_sinks):
    """Value, cut placement and source-minimality of one flow query
    against exhaustive separator enumeration."""
    expected, _ = brute_min_separator(g, a, b, caps, cut_sources, cut_sinks)
    cg = unit_capacities(g) if caps is None else CapacitatedGraph(g, caps)
    flags = dict(cut_sources=cut_sources, cut_sinks=cut_sinks)
    res = bounded_vertex_maxflow(cg, a, b, g.n, **flags)
    if expected is None:
        # every separator needs an INF vertex: the flow passes any bound
        assert res.value == EXCEEDS_BOUND
        return
    assert res.value == expected
    assert len(res.mincut.separator) == expected
    cut = res.mincut
    assert cut.L | cut.R == set(range(g.n))
    assert all(v not in cut.right_only for u in cut.left_only for v in g.adj[u])
    if not (cut_sources or cut_sinks):
        # with a cuttable endpoint the separator may swallow a whole side
        assert cut.is_valid(g)
    sep = cut.separator
    assert a <= (cut.left_only | sep if cut_sources else cut.left_only)
    assert b <= (cut.right_only | sep if cut_sinks else cut.right_only)
    assert caps is None or all(caps[v] != INF for v in sep)
    # minimal side is contained in every enumerated mincut's source side
    mres = minimal_side_mincut(cg, a, b, g.n, **flags)
    assert mres.value == expected
    for _, reach in enumerate_mincuts(g, a, b, expected, caps, **flags):
        assert mres.mincut.left_only <= reach


FLAG_MODES = [(False, False), (True, False), (False, True), (True, True)]


@pytest.mark.parametrize("block", range(5))
def test_flow_matches_separator_enumeration(block):
    """The flow-oracle equivalence property on random instances: unit
    capacities with the default flags, and the cut_sources / cut_sinks
    modes and INF-capacity vertices the pipeline also uses."""
    checked = 0
    seed = block * 100000
    while checked < 60:
        seed += 1
        inst = random_instance(seed)
        if inst is None:
            continue
        g, a, b = inst
        checked += 1
        rng = random.Random(seed)
        with_inf = tuple(INF if rng.random() < 0.25 else 1 for _ in range(g.n))
        for caps in (None, with_inf):
            for cut_sources, cut_sinks in FLAG_MODES:
                check_against_enumeration(g, a, b, caps, cut_sources, cut_sinks)


def test_removed_vertices_match_the_induced_subgraph():
    """A flow that removes vertices has the value, and within the bound the
    L\\R and separator, of the same flow on the subgraph the other
    vertices induce; removed vertices may not be endpoints."""
    compared = 0
    for seed in range(1500):
        rng = random.Random(900000 + seed)
        n = rng.randint(3, 18)
        g = gnp(n, rng.uniform(0.15, 0.5), seed)
        caps = tuple(INF if rng.random() < 0.1 else 1 for _ in range(n))
        verts = rng.sample(range(n), n)
        a = set(verts[:rng.randint(1, 2)])
        b = set(verts[len(a):len(a) + rng.randint(1, 2)])
        removed = frozenset(
            v for v in verts[len(a) + len(b):] if rng.random() < 0.35
        )
        flags = dict(zip(("cut_sources", "cut_sinks"), FLAG_MODES[seed % 4]))
        bound = rng.randint(0, 5)
        sub, ids = induced_subgraph(g, set(range(n)) - removed)
        pos = {v: i for i, v in enumerate(ids)}
        sub_cg = CapacitatedGraph(sub, tuple(caps[v] for v in ids))
        try:
            expected = bounded_vertex_maxflow(
                sub_cg, {pos[v] for v in a}, {pos[v] for v in b}, bound, **flags
            )
        except PreconditionError:
            with pytest.raises(PreconditionError):
                bounded_vertex_maxflow(
                    CapacitatedGraph(g, caps), a, b, bound, removed=removed,
                    **flags,
                )
            continue
        res = bounded_vertex_maxflow(
            CapacitatedGraph(g, caps), a, b, bound, removed=removed, **flags
        )
        assert res.value == expected.value, seed
        compared += 1
        if res.value == EXCEEDS_BOUND:
            continue
        assert res.mincut.left_only == {ids[i] for i in expected.mincut.left_only}
        assert res.mincut.separator == {ids[i] for i in expected.mincut.separator}
        assert removed <= res.mincut.right_only
        if removed:
            v = min(removed)
            for ends in ((a | {v}, b), (a, b | {v})):
                with pytest.raises(PreconditionError, match="REMOVED"):
                    bounded_vertex_maxflow(
                        CapacitatedGraph(g, caps), *ends, bound,
                        removed=removed, **flags,
                    )
    assert compared >= 1000, compared


@pytest.mark.parametrize("seed", range(10))
def test_with_new_vertices_matches_a_fresh_graph(seed):
    """Flows on a graph extended by new vertices, whose split network
    extends the base graph's cached one, equal flows on the same graph
    built from its edge list."""
    rng = random.Random(seed)
    g = gnp(rng.randint(4, 10), 0.35, seed + 500)
    attach = [rng.sample(range(g.n), rng.randint(1, g.n)) for _ in range(3)]
    caps = tuple(INF if rng.random() < 0.3 else 1 for _ in range(g.n + 3))
    ext = with_new_vertices(g, attach, caps)
    extra = [(g.n + j, v) for j, vs in enumerate(attach) for v in vs]
    fresh = CapacitatedGraph(Graph(g.n + 3, g.edges() + extra), caps)
    assert ext.base == fresh.base and ext.base.m == fresh.base.m
    for s in range(g.n, g.n + 3):
        for t in range(g.n + 3):
            if t == s or fresh.base.has_edge(s, t):
                continue
            for bound in (1, 3):
                assert bounded_vertex_maxflow(ext, {t}, {s}, bound) == (
                    bounded_vertex_maxflow(fresh, {t}, {s}, bound)
                )


def test_inf_capacity_avoided_in_separator():
    g = path_graph(5)
    caps = (1, INF, 1, 1, 1)
    res = bounded_vertex_maxflow(CapacitatedGraph(g, caps), {0}, {4}, 3)
    assert res.value == 1
    assert 1 not in res.mincut.separator


def test_capacity_respected():
    # two parallel length-2 paths, middle vertices capacity 2 total
    g = Graph(4, [(0, 1), (1, 3), (0, 2), (2, 3)])
    caps = (INF, 2, 1, INF)
    res = bounded_vertex_maxflow(CapacitatedGraph(g, caps), {0}, {3}, 5)
    assert res.value == 3


def test_determinism():
    seed = 12345
    inst = None
    while inst is None:
        inst = random_instance(seed)
        seed += 1
    g, a, b = inst
    r1 = bounded_vertex_maxflow(unit_capacities(g), a, b, g.n)
    r2 = bounded_vertex_maxflow(unit_capacities(g), a, b, g.n)
    assert r1.mincut == r2.mincut and r1.value == r2.value


def max_disjoint_paths(g, a, b):
    """Largest number of pairwise vertex-disjoint paths from a to b (an
    endpoint counts as a vertex of its path), by exhaustive search over
    the simple paths: the other side of Menger's theorem."""
    paths = []

    def extend(path):
        if path[-1] in b:
            paths.append(frozenset(path))
            return
        for u in g.adj[path[-1]]:
            if u not in path and u not in a:
                extend(path + [u])

    for v in a:
        extend([v])

    def pack(start, used):
        best = 0
        for i in range(start, len(paths)):
            if not paths[i] & used:
                best = max(best, 1 + pack(i + 1, used | paths[i]))
        return best

    return pack(0, frozenset())


def cuttable_endpoint_flow(g, a, b):
    return bounded_vertex_maxflow(
        unit_capacities(g), a, b, g.n, cut_sources=True, cut_sinks=True
    ).value


def test_disjoint_paths_two_disjoint_edges():
    g = Graph(4, [(0, 1), (2, 3)])
    assert cuttable_endpoint_flow(g, {0, 2}, {1, 3}) == 2
    assert max_disjoint_paths(g, {0, 2}, {1, 3}) == 2


def test_disjoint_paths_blocked_by_cut_vertex():
    g = Graph(5, [(0, 2), (1, 2), (2, 3), (2, 4)])
    assert cuttable_endpoint_flow(g, {0, 1}, {3, 4}) == 1
    assert max_disjoint_paths(g, {0, 1}, {3, 4}) == 1


@pytest.mark.parametrize("seed", range(40))
def test_disjoint_paths_match_flow_value(seed):
    """With both endpoint sets cuttable and unit capacities, the flow value
    is the largest number of fully vertex-disjoint paths (Menger)."""
    inst = random_instance(seed + 777000)
    if inst is None:
        return
    g, a, b = inst
    assert cuttable_endpoint_flow(g, a, b) == max_disjoint_paths(g, a, b)
