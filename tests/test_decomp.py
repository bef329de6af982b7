import gc
import json
import math
import random
from fractions import Fraction

import pytest

from qktree import adhesion as adhesion_module
from qktree.core import Graph
from qktree.decomp import (
    VARIANT_DEPTH_REDUCED,
    VARIANT_STANDARD,
    decompose,
    decomposition_from_json,
    decomposition_to_json,
    variant_parameters,
)
from qktree.verify import (
    validate_decomposition,
    verify_subtree_unbreakability,
)

from conftest import complete_graph, connected_gnp, path_graph


def assert_all_valid(g, deco, adhesion_bound):
    results = validate_decomposition(g, deco, adhesion_bound=adhesion_bound)
    bad = [r for r in results if not r.passed]
    assert not bad, bad


def test_complete_graph_single_bag():
    g = complete_graph(5)
    deco, rep = decompose(g, 1, 1, rng=random.Random(0))
    assert rep.node_count == 1
    assert deco.bag(0) == frozenset(range(5))
    assert_all_valid(g, deco, adhesion_bound=4)


def test_two_cliques_sharing_a_vertex():
    edges = []
    for i in range(8):
        for j in range(i + 1, 8):
            edges.append((i, j))
            if i > 0:  # vertex 0 is shared; second clique is {0, 8..14}
                edges.append((i + 7, j + 7))
    g = Graph(15, edges)
    deco, rep = decompose(g, 1, 1, rng=random.Random(3))
    assert_all_valid(g, deco, adhesion_bound=4)
    unb = verify_subtree_unbreakability(g, deco, 5, 1)
    assert unb.ok and not unb.skipped


def test_path_100_counts_and_depth():
    g = path_graph(100)
    deco, rep = decompose(g, 1, 1, rng=random.Random(1))
    assert rep.node_count <= 100
    assert_all_valid(g, deco, adhesion_bound=4)
    deco, rep = decompose(
        g, 1, 1, VARIANT_DEPTH_REDUCED, rng=random.Random(1)
    )
    assert rep.depth <= 8 * math.ceil(math.log2(100))
    assert_all_valid(g, deco, adhesion_bound=2 * 5)


def test_sparse_graph_at_k3_with_110_vertices():
    # a connected graph with m = 1.35 (n - 1), n = 110, at k = 3: the nets'
    # checks reach the separator sweep, which reads its 221,926 candidate
    # sets of size <= 3 off 6,106 DFS passes, within the sweep's limit
    rng = random.Random(4)
    n = 110
    edges = {(rng.randrange(i), i) for i in range(1, n)}
    while len(edges) < round(1.35 * (n - 1)):
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    g = Graph(n, sorted(edges))
    deco, rep = decompose(g, 3, 1, rng=random.Random(0))
    params = variant_parameters(3, 1)[VARIANT_STANDARD]
    assert_all_valid(g, deco, params["adhesion_bound"])
    unb = verify_subtree_unbreakability(g, deco, params["q_bound"], 3)
    assert unb.ok and not unb.skipped and unb.checked


def test_verifier_checks_small_bags_over_the_sweep_limit(monkeypatch):
    # with the sweep's limit at 0 every subtree graph is over it, yet a bag
    # within the small-set limit is still checked, by the sweep; only when
    # that limit is lowered too are bags skipped
    from qktree import config

    g = connected_gnp(16, 0.25, 3)
    deco, _ = decompose(g, 1, 1, rng=random.Random(2))
    reference = verify_subtree_unbreakability(g, deco, 1, 1)
    assert reference.checked and not reference.skipped
    monkeypatch.setattr(config, "SEPARATOR_SWEEP_LIMIT", 0)
    unb = verify_subtree_unbreakability(g, deco, 1, 1)
    assert unb.checked == reference.checked and not unb.skipped
    assert unb.failures == reference.failures
    monkeypatch.setattr(config, "UNBREAKABLE_ENUM_LIMIT", 0)
    unb = verify_subtree_unbreakability(g, deco, 1, 1)
    assert unb.skipped


@pytest.mark.parametrize("seed", range(6))
def test_random_graphs_standard(seed):
    rng = random.Random(seed)
    n = rng.randint(10, 30)
    g = connected_gnp(n, 0.15, seed)
    k = rng.randint(1, 2)
    deco, rep = decompose(g, k, 1, rng=random.Random(seed), seed=seed)
    assert rep.node_count <= n
    assert_all_valid(g, deco, adhesion_bound=4 * k)
    unb = verify_subtree_unbreakability(g, deco, 5 * k, k)
    assert unb.ok, unb.failures


@pytest.mark.parametrize("seed", range(3))
def test_random_graphs_depth_reduced(seed):
    rng = random.Random(seed)
    n = rng.randint(12, 30)
    g = connected_gnp(n, 0.15, seed + 50)
    k = rng.randint(1, 2)
    params = variant_parameters(k, 1)[VARIANT_DEPTH_REDUCED]
    deco, rep = decompose(
        g, k, 1, VARIANT_DEPTH_REDUCED, rng=random.Random(seed), seed=seed
    )
    assert rep.depth <= 8 * math.ceil(math.log2(n))
    assert rep.max_adhesion == deco.max_adhesion() <= params["adhesion_bound"]
    assert_all_valid(g, deco, adhesion_bound=params["adhesion_bound"])
    unb = verify_subtree_unbreakability(g, deco, params["q_bound"], k)
    assert unb.ok, unb.failures


def test_standard_below_epsilon_one(monkeypatch):
    # at epsilon = 1/2 and 1/3 reduce_adhesion runs two and three levels;
    # record the level of every witness cover (q = k in STANDARD, so level
    # l works at budget k' = (1 + l) k) and of every carve that follows one
    covers, carves = [], []
    witness_cover = adhesion_module.witness_cover
    carve_many = adhesion_module.carve_many

    def cover(ctx, rng):
        covers.append(ctx.k_prime // k - 1)
        return witness_cover(ctx, rng)

    def carve(t, coll):
        carves.append(covers[-1])
        return carve_many(t, coll)

    monkeypatch.setattr(adhesion_module, "witness_cover", cover)
    monkeypatch.setattr(adhesion_module, "carve_many", carve)
    pairs = [(u, v) for u in range(40) for v in range(u + 1, 40)]
    checked = 0
    for i in range(5):
        g = Graph(40, random.Random(2000 + i).sample(pairs, 62))
        for eps in (Fraction(1, 2), Fraction(1, 3)):
            for k in (1, 2):
                params = variant_parameters(k, eps)[VARIANT_STANDARD]
                lev = math.ceil(1 / eps)
                assert params["adhesion_bound"] == 2 * (lev * k + k)
                assert params["q_bound"] == 2 * lev * k + 3 * k
                deco, rep = decompose(g, k, eps, rng=random.Random(i), seed=i)
                assert rep.node_count <= g.n
                assert rep.max_adhesion == deco.max_adhesion() <= params["adhesion_bound"]
                assert_all_valid(g, deco, params["adhesion_bound"])
                unb = verify_subtree_unbreakability(g, deco, params["q_bound"], k)
                assert unb.ok and not unb.skipped, (i, eps, k, unb.failures, unb.skipped)
                checked += len(unb.checked)
    assert checked, "the verifier checked no bag"
    assert max(covers) == 3
    assert 2 in carves, "no carve ran at level 2"


def test_decompose_leaves_no_reference_cycles():
    # objects freed by reference counting alone leave nothing for the
    # cyclic collector: a cycle through a graph would keep its split
    # network and capacity lists alive until the next collection
    from qktree.origin import _check_by_core

    pairs = [(u, v) for u in range(60) for v in range(u + 1, 60)]
    g = Graph(60, random.Random(1).sample(pairs, 142))
    gc.collect()
    gc.disable()
    try:
        decompose(g, 3, 1, rng=random.Random(1), seed=1)
        assert _check_by_core(connected_gnp(20, 0.5, 5), range(20), 3, 3)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_disconnected_input_components_share_one_root():
    g = Graph(7, [(0, 1), (2, 3), (3, 4), (5, 6)])
    deco, rep = decompose(g, 1, 1, rng=random.Random(0))
    # the first component hosts the root; the others hang below it with
    # empty adhesion, keeping the node count at most n
    assert deco.bag(deco.root) == frozenset({0, 1})
    assert rep.node_count <= 7
    later = [t for t in range(1, rep.node_count) if deco.nodes[t].parent == 0]
    assert any(not (deco.bag(t) & deco.bag(0)) for t in later)
    assert_all_valid(g, deco, adhesion_bound=4)


def test_json_roundtrip_and_determinism():
    g = connected_gnp(20, 0.2, 7)
    deco1, rep1 = decompose(g, 1, 1, rng=random.Random(7), seed=7)
    deco2, rep2 = decompose(g, 1, 1, rng=random.Random(7), seed=7)
    js1 = decomposition_to_json(deco1, rep1.variant, rep1.seed)
    js2 = decomposition_to_json(deco2, rep2.variant, rep2.seed)
    assert js1 == js2
    back, variant, seed = decomposition_from_json(js1)
    assert variant == VARIANT_STANDARD and seed == 7
    assert [n.bag for n in back.nodes] == [n.bag for n in deco1.nodes]
    assert [n.parent for n in back.nodes] == [n.parent for n in deco1.nodes]


def test_verifier_checks_bags_by_the_sweep_alone(monkeypatch):
    # the root bag's subtree graph is the whole graph, where
    # check_unbreakable takes the core strategy for that bag (its
    # estimate, 4 * (C(17, 2) + 17) = 612 searches, is under the sweep's
    # 1,831 DFS passes); the verifier must not
    from qktree import origin
    from qktree.decomp import RootedTreeDecomposition

    pairs = [(u, v) for u in range(60) for v in range(u + 1, 60)]
    rng = random.Random(0)
    g = Graph(60, rng.sample(pairs, 142))
    w = frozenset(rng.sample(range(60), 17))
    core, calls = origin._check_by_core, []
    monkeypatch.setattr(
        origin, "_check_by_core", lambda *args: calls.append(1) or core(*args)
    )
    assert origin.check_unbreakable(g, w, 3, 3) != origin.UNBREAKABLE
    assert calls

    def refuse(*args):
        raise AssertionError("the verifier ran the core strategy")

    monkeypatch.setattr(origin, "_check_by_core", refuse)
    deco = RootedTreeDecomposition(60)
    deco.add_node(None, w)
    deco.add_node(0, frozenset(range(60)))
    unb = verify_subtree_unbreakability(g, deco, 3, 3)
    assert unb.checked == [0, 1] and not unb.skipped
    assert [t for t, _cut in unb.failures] == [0, 1]
    assert all(cut.size <= 3 for _t, cut in unb.failures)


def test_validator_flags_broken_decompositions():
    g = path_graph(6)
    deco, rep = decompose(g, 1, 1, rng=random.Random(0))
    # remove a vertex from every bag: edge coverage must fail
    victim = next(iter(deco.bag(deco.root)))
    for node in deco.nodes:
        node.bag = node.bag - {victim}
    results = validate_decomposition(g, deco)
    failed = {r.name for r in results if not r.passed}
    assert "vertex-subtree-connectivity" in failed or "edge-coverage" in failed


def test_subtree_unbreakability_flags_planted_breakable_bag():
    # one long path as a single bag is highly breakable
    g = path_graph(12)
    from qktree.decomp import RootedTreeDecomposition

    deco = RootedTreeDecomposition(12)
    deco.add_node(None, frozenset(range(12)))
    unb = verify_subtree_unbreakability(g, deco, 2, 1)
    assert not unb.ok
    t, cut = unb.failures[0]
    assert t == 0 and cut.size <= 1


def test_default_rng_is_seeded_by_seed():
    g = connected_gnp(20, 0.2, 7)
    runs = [decompose(g, 1, 1, seed=5) for _ in range(2)]
    runs.append(decompose(g, 1, 1, rng=random.Random(5), seed=5))
    js = {decomposition_to_json(deco, rep.variant, rep.seed) for deco, rep in runs}
    assert len(js) == 1


def test_from_json_rejects_missing_keys_and_out_of_range_vertices():
    deco, rep = decompose(path_graph(4), 1, 1, seed=0)
    good = json.loads(decomposition_to_json(deco, rep.variant, rep.seed))
    for edit in (
        lambda d: d.pop("n"),
        lambda d: d.pop("nodes"),
        lambda d: d["nodes"][0].pop("bag"),
        lambda d: d["nodes"][0]["bag"].append(4),
        lambda d: d["nodes"][0]["bag"].append(-1),
        lambda d: d.update(variant="BOGUS"),
    ):
        bad = json.loads(json.dumps(good))
        edit(bad)
        with pytest.raises(ValueError):
            decomposition_from_json(json.dumps(bad))


def test_flow_count_is_pinned_on_a_seeded_decomposition(monkeypatch):
    """The flows of one decomposition are deterministic for its seeds, so a
    change that loses work-saving (the witness covers' heavy-vertex memo,
    say) fails here as a count, not as a timing. A G(60, 142 edges) graph
    at k = 3, like the decomp_gnp benchmark's: without the memo it ran
    510 flows."""
    from qktree import carving, flow, isolating, origin, ssmc

    original = flow.bounded_vertex_maxflow
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in (carving, flow, isolating, origin, ssmc):
        monkeypatch.setattr(module, "bounded_vertex_maxflow", counting)
    rng = random.Random(1)
    pairs = [(u, v) for u in range(60) for v in range(u + 1, 60)]
    g = Graph(60, rng.sample(pairs, 142))
    _deco, report = decompose(g, 3, 1, rng=random.Random(0), seed=0)
    assert report.node_count == 20
    assert len(calls) <= 414
