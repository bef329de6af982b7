import math
import random

import pytest

from qktree.core import Graph
from qktree.flow import (
    EXCEEDS_BOUND,
    INF,
    CapacitatedGraph,
    bounded_vertex_maxflow,
)
from qktree.ssmc import single_source_mincut_cover
from qktree.verify import check_cover_properties, width_budget

from conftest import gnp


def caps_with_inf(g, specials):
    return CapacitatedGraph(
        g, tuple(INF if v in set(specials) else 1 for v in range(g.n))
    )


def lam(cg, t, s):
    res = bounded_vertex_maxflow(cg, {t}, {s}, cg.base.n)
    return res.value


def test_path_single_sink():
    g = Graph(3, [(0, 1), (1, 2)])  # s=0, x=1, t=2
    cg = caps_with_inf(g, {0, 2})
    cover, captured = single_source_mincut_cover(cg, 0, {2}, 1, random.Random(1))
    assert captured == {2}
    cuts = cover.all_cuts()
    assert cuts and all(c.separator == {1} for c in cuts)


def test_high_connectivity_sink_not_captured():
    # sink joined to s by k+1 = 3 internally disjoint paths
    g = Graph(8, [(0, i) for i in (2, 3, 4)] + [(i, 1) for i in (2, 3, 4)]
              + [(1, 5), (5, 6), (6, 7), (7, 0)])
    cg = caps_with_inf(g, {0, 1})
    cover, captured = single_source_mincut_cover(cg, 0, {1}, 2, random.Random(3))
    assert 1 not in captured
    assert not cover.all_cuts()


def random_ssmc_instance(seed, max_n=14, max_sinks=5, require=2):
    rng = random.Random(seed)
    g = gnp(rng.randint(5, max_n), rng.uniform(0.2, 0.45), seed)
    verts = list(range(g.n))
    rng.shuffle(verts)
    chosen = []
    for v in verts:
        if all(not g.has_edge(v, u) for u in chosen):
            chosen.append(v)
        if len(chosen) == max_sinks + 1:
            break
    if len(chosen) < require + 1:
        return None
    return g, chosen[0], sorted(chosen[1:])


@pytest.mark.parametrize("block", range(3))
def test_cover_properties_on_random_instances(block):
    checked = 0
    seed = block * 30000
    while checked < 25:
        seed += 1
        inst = random_ssmc_instance(seed)
        if inst is None:
            continue
        g, s, sinks = inst
        checked += 1
        k = random.Random(seed ^ 99).randint(1, 3)
        cg = caps_with_inf(g, {s} | set(sinks))
        cover, captured = single_source_mincut_cover(
            cg, s, sinks, k, random.Random(seed)
        )
        expected = {t for t in sinks if lam(cg, t, s) <= k}
        assert captured == expected, (seed, g.edges(), s, sinks, k)
        problems = check_cover_properties(
            g, s, captured, cover, lambda t: lam(cg, t, s)
        )
        assert not problems, (seed, problems)
        assert cover.width <= width_budget(k, g.n)


def test_determinism():
    inst = None
    seed = 424242
    while inst is None:
        inst = random_ssmc_instance(seed)
        seed += 1
    g, s, sinks = inst
    cg = caps_with_inf(g, {s} | set(sinks))
    a = single_source_mincut_cover(cg, s, sinks, 2, random.Random(7))
    b = single_source_mincut_cover(cg, s, sinks, 2, random.Random(7))
    assert a[1] == b[1]
    assert a[0].collections == b[0].collections


def test_sinks_cut_off_from_the_source():
    # source 0 with sink 2 behind vertex 1; sinks 8 and 9 in component
    # {3, 4, 8, 9}, sink 5 in component {5, 6}; vertex 7 holds no sink.
    # By smallest member {3, 4, 8, 9} comes first, by smallest sink {5, 6}.
    g = Graph(10, [(0, 1), (1, 2), (3, 4), (3, 8), (4, 9), (5, 6)])
    sinks = {2, 5, 8, 9}
    cg = caps_with_inf(g, {0} | sinks)
    everything = frozenset(range(g.n))
    for k in (0, 1, 2):
        cover, captured = single_source_mincut_cover(
            cg, 0, sinks, k, random.Random(k)
        )
        component_cuts = [
            (comp, everything - comp)
            for comp in (frozenset({3, 4, 8, 9}), frozenset({5, 6}))
        ]
        assert [(c.L, c.R) for c in cover.collections[0]] == component_cuts
        if k == 0:
            assert captured == {5, 8, 9} and cover.width == 1
            continue
        assert captured == sinks
        later = [cut for coll in cover.collections[1:] for cut in coll]
        assert later and all(
            cut.separator == {1} and cut.left_only == {2} for cut in later
        )
        problems = check_cover_properties(
            g, 0, captured, cover, lambda t: lam(cg, t, 0)
        )
        assert not problems


def test_negative_k_is_refused():
    # no sink has lambda(t, s) <= k < 0, not even one cut off from s
    g = Graph(4, [(0, 1)])
    with pytest.raises(ValueError):
        single_source_mincut_cover(
            caps_with_inf(g, {0, 2, 3}), 0, {2, 3}, -1, random.Random(0)
        )


def test_cover_collections_are_distinct():
    # sampled sets that give the same cuts add their collection only once
    from test_acceptance import ssmc_corpus

    for seed, g, s, sinks, k in ssmc_corpus():
        cg = caps_with_inf(g, {s} | set(sinks))
        cover, _captured = single_source_mincut_cover(
            cg, s, sinks, k, random.Random(seed)
        )
        keys = [frozenset(coll) for coll in cover.collections]
        assert len(keys) == len(set(keys)), seed


class CountingRandom(random.Random):
    def __init__(self, seed):
        super().__init__(seed)
        self.draws = 0

    def random(self):
        self.draws += 1
        return super().random()


@pytest.mark.parametrize("k", [2, 3])
def test_skipped_levels_draw_nothing(k):
    # each of three sinks reaches the source over k disjoint paths of
    # length 2, so lambda(t, s) = k for every sink and the levels below k
    # can keep no cut; the first round of level k captures every sink
    edges = []
    sinks = []
    for i in range(3):
        t = 1 + i * (k + 1)
        sinks.append(t)
        for mid in range(t + 1, t + 1 + k):
            edges += [(0, mid), (mid, t)]
    g = Graph(1 + 3 * (k + 1), edges)
    cg = caps_with_inf(g, {0} | set(sinks))
    rng = CountingRandom(5)
    cover, captured = single_source_mincut_cover(cg, 0, sinks, k, rng)
    assert captured == set(sinks)
    assert all(cut.size == k for cut in cover.all_cuts())
    scales = int(math.log2(g.n)) + 1
    assert rng.draws == scales * len(sinks)


def test_heavy_sinks_change_nothing():
    """Naming exactly the sinks with lambda(t, s) > k as heavy skips their
    pre-filter flows and changes no cut, no captured sink and no draw."""
    named = checked = 0
    seed = 70000
    while checked < 60:
        seed += 1
        inst = random_ssmc_instance(seed, max_n=16, max_sinks=6)
        if inst is None:
            continue
        g, s, sinks = inst
        checked += 1
        k = random.Random(seed ^ 7).randint(1, 3)
        cg = caps_with_inf(g, {s} | set(sinks))
        heavy = {
            t for t in sinks
            if bounded_vertex_maxflow(cg, {t}, {s}, k).value == EXCEEDS_BOUND
        }
        named += len(heavy)
        plain, hinted = random.Random(seed), random.Random(seed)
        cover, captured = single_source_mincut_cover(cg, s, sinks, k, plain)
        cover_h, captured_h = single_source_mincut_cover(
            cg, s, sinks, k, hinted, heavy=heavy
        )
        assert cover_h.collections == cover.collections, seed
        assert captured_h == captured, seed
        assert hinted.getstate() == plain.getstate(), seed
    assert named >= 30, named
