import random

import pytest

from qktree.core import Graph
from qktree.flow import (
    EXCEEDS_BOUND,
    INF,
    CapacitatedGraph,
    PreconditionError,
    bounded_vertex_maxflow,
)
from qktree.isolating import (
    isolating_vertex_cuts,
    ordered_disjoint,
    pairwise_disjoint,
)
from qktree.verify import naive_isolating_cuts

from conftest import gnp, star_graph


def caps_with_inf(g, terminals):
    return CapacitatedGraph(
        g.__class__(g.n, g.edges()) if False else g,
        tuple(INF if v in set(terminals) else 1 for v in range(g.n)),
    )


def test_two_terminals_on_path():
    g = Graph(3, [(0, 1), (1, 2)])
    cuts = isolating_vertex_cuts(caps_with_inf(g, {0, 2}), {0, 2})
    assert len(cuts) == 2
    for cut, term in zip(cuts, [0, 2]):
        assert term in cut.left_only
        assert cut.separator == {1}
    assert pairwise_disjoint(cuts)


def test_star_leaves():
    g = star_graph(3)
    terms = {1, 2, 3}
    cuts = isolating_vertex_cuts(caps_with_inf(g, terms), terms)
    for cut, term in zip(cuts, sorted(terms)):
        assert cut.left_only == {term}
        assert cut.separator == {0}
    assert pairwise_disjoint(cuts)


def test_adjacent_terminals_rejected():
    g = Graph(2, [(0, 1)])
    with pytest.raises(PreconditionError):
        isolating_vertex_cuts(caps_with_inf(g, {0, 1}), {0, 1})


def random_terminal_instance(seed, max_n=12, max_t=5):
    rng = random.Random(seed)
    g = gnp(rng.randint(4, max_n), rng.uniform(0.2, 0.5), seed)
    verts = list(range(g.n))
    rng.shuffle(verts)
    terms = []
    for v in verts:
        if all(not g.has_edge(v, t) for t in terms):
            terms.append(v)
        if len(terms) == max_t:
            break
    if len(terms) < 2:
        return None
    return g, sorted(terms)


@pytest.mark.parametrize("block", range(4))
def test_cuts_are_genuine_mincuts_and_disjoint(block):
    checked = 0
    seed = block * 70000
    while checked < 40:
        seed += 1
        inst = random_terminal_instance(seed)
        if inst is None:
            continue
        g, terms = inst
        checked += 1
        cg = caps_with_inf(g, terms)
        fast = isolating_vertex_cuts(cg, terms)
        naive = naive_isolating_cuts(cg, terms)
        covered = set()
        for cut, term in zip(fast, terms):
            others = frozenset(terms) - {term}
            direct = bounded_vertex_maxflow(cg, {term}, others, g.n)
            assert cut.size == direct.value, (seed, term)
            assert cut.is_valid(g)
            assert term in cut.left_only
            assert not (others & cut.L)
            covered |= cut.left_only
        assert set(terms) <= covered
        assert pairwise_disjoint(fast)
        # fast and naive agree on every cut size
        assert [c.size for c in fast] == [c.size for c in naive]


def test_ordered_disjoint_predicate():
    from qktree.core import VertexCut

    a = VertexCut(frozenset({0, 1}), frozenset({1, 2, 3}))
    b = VertexCut(frozenset({2, 1}), frozenset({1, 0, 3}))
    assert ordered_disjoint(a, b) and ordered_disjoint(b, a)
    c = VertexCut(frozenset({0, 1, 2}), frozenset({2, 3}))
    assert not ordered_disjoint(c, b)


def test_minimal_terminal_cuts_are_pairwise_disjoint():
    """Each terminal's minimal cut against the others, bounded like the
    ones single_source_mincut_cover keeps, is ordered-disjoint from every
    other terminal's, with no repair needed: with INF terminals and mixed
    finite capacities (some INF non-terminals too), and with unit-capacity
    terminals as `qktree ssmc` passes them."""
    checked = 0
    for seed in range(1500):
        rng = random.Random(seed)
        inst = random_terminal_instance(seed, max_n=10, max_t=5)
        if inst is None:
            continue
        g, terms = inst
        mixed = tuple(
            INF if v in terms or rng.random() < 0.1 else rng.randint(1, 3)
            for v in range(g.n)
        )
        for caps in (mixed, (1,) * g.n):
            cg = CapacitatedGraph(g, caps)
            bound = rng.randint(1, 4)
            cuts = []
            for t in terms:
                res = bounded_vertex_maxflow(
                    cg, {t}, set(terms) - {t}, bound
                )
                if res.value != EXCEEDS_BOUND:
                    cuts.append(res.mincut)
            assert pairwise_disjoint(cuts), (seed, caps, g.edges(), terms)
            checked += len(cuts) > 1
    assert checked > 1000
