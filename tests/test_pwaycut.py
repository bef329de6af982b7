import random
import sys
from itertools import combinations
from math import comb

import pytest

from qktree import config, pwaycut
from qktree.core import (
    Graph,
    SizeGuardError,
    connected_components,
    induced_subgraph,
)
from qktree.decomp import decompose
from qktree.pwaycut import PwayCutSolver, min_pway_cut
from qktree.verify import brute_pway_cut
from qktree.verify import INFEASIBLE as BRUTE_INFEASIBLE

from conftest import (
    complete_graph,
    cycle_graph,
    gnp,
    grid_graph,
    path_graph,
    petersen_graph,
    star_graph,
)


def check_against_oracle(g, p, k, seed):
    res = min_pway_cut(g, p, k, 1, rng=random.Random(seed))
    oracle = brute_pway_cut(g, p, k)
    if oracle == BRUTE_INFEASIBLE:
        assert not res.feasible and res.cost is None, (g, p, k, res)
    else:
        assert res.feasible and res.cost == oracle, (g, p, k, res, oracle)
    return res


def test_cycle_six_two_way():
    res = min_pway_cut(cycle_graph(6), 2, 2, 1, rng=random.Random(0))
    assert res.feasible and res.cost == 2


def test_tree_needs_p_minus_one_edges():
    for p in (2, 3, 4):
        res = min_pway_cut(star_graph(6), p, p - 1, 1, rng=random.Random(0))
        assert res.feasible and res.cost == p - 1


def test_petersen_two_way_is_three():
    res = min_pway_cut(petersen_graph(), 2, 3, 1, rng=random.Random(0))
    assert res.feasible and res.cost == 3
    res = min_pway_cut(petersen_graph(), 2, 2, 1, rng=random.Random(0))
    assert not res.feasible


def test_k4_edge_connectivity_three():
    res = min_pway_cut(complete_graph(4), 2, 2, 1, rng=random.Random(0))
    assert not res.feasible and res.cost is None


def test_already_split_graph_costs_zero():
    g = Graph(6, [(0, 1), (2, 3), (4, 5)])
    for p in (2, 3):
        res = min_pway_cut(g, p, 0, 1, rng=random.Random(0))
        assert res.feasible and res.cost == 0


def test_component_budget_infeasible_shortcut():
    # one edge deletion adds at most one component
    res = min_pway_cut(path_graph(8), 4, 2, 1, rng=random.Random(0))
    assert not res.feasible


def test_input_validation():
    with pytest.raises(ValueError):
        min_pway_cut(path_graph(3), 1, 2)
    with pytest.raises(ValueError):
        min_pway_cut(path_graph(3), 2, -1)
    # rejected up front, before the shortcut that would call it infeasible
    with pytest.raises(ValueError, match="p must be at most 10"):
        min_pway_cut(path_graph(3), 11, 2)
    # epsilon too, before the shortcuts for disconnected graphs
    for g in (Graph(4, [(0, 1), (2, 3)]), path_graph(4)):
        for eps in (0, -1, 1.5):
            with pytest.raises(ValueError, match="epsilon must be in"):
                min_pway_cut(g, 2, 1, epsilon=eps)


def test_recursion_limit_is_restored():
    # from the default limit, which every call raises while its DP runs
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        min_pway_cut(gnp(10, 0.4, 3), 3, 3, 1, rng=random.Random(0))
        after = sys.getrecursionlimit()
    finally:
        sys.setrecursionlimit(limit)
    assert after == 1000


@pytest.mark.parametrize("seed", range(12))
def test_random_agreement_with_brute_force(seed):
    rng = random.Random(seed)
    n = rng.randint(4, 10)
    g = gnp(n, rng.uniform(0.2, 0.5), seed + 300)
    if g.m > 20:
        g = gnp(n, 0.25, seed + 900)
    for p in (2, 3, 4):
        for k in range(0, 5):
            check_against_oracle(g, p, k, seed * 31 + p * 5 + k)


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_merge_is_a_saturating_subset_convolution(p):
    rng = random.Random(p)
    g = path_graph(3)
    deco, _ = decompose(g, 1, 1, seed=0)
    for k in range(5):
        solver = PwayCutSolver(g, deco, p, k, 1, rng)
        inf = k + 1
        for _ in range(20):
            a = [rng.randint(0, inf) for _ in range(1 << p)]
            b = [rng.randint(0, inf) for _ in range(1 << p)]
            merged = solver._merge(a, b)
            expect = [
                min([inf] + [
                    a[s] + b[m ^ s]
                    for s in range(m + 1) if s & m == s and a[s] < inf
                ])
                for m in range(1 << p)
            ]
            assert merged == expect, (p, k, a, b)
            assert max(merged) <= inf


def test_brute_force_refuses_too_many_edge_subsets():
    # m = 60 at k = 4 is 523,686 edge subsets
    with pytest.raises(SizeGuardError):
        brute_pway_cut(grid_graph(6, 6), 2, 4)
    # the benchmark's largest graphs (m = 26, k = 4: 17,902 subsets) and
    # the criterion 3 corpus (m <= 20, k <= 4) stay under the limit
    assert brute_pway_cut(path_graph(27), 27, 4) == BRUTE_INFEASIBLE
    assert brute_pway_cut(path_graph(21), 21, 4) == BRUTE_INFEASIBLE


def most_components_per_cost(g, k, p_max):
    """most[c]: the most components left by deleting c <= k edges, built
    as one Graph per edge subset; a count stops growing at p_max, and the
    list ends at the first cost that reaches it."""
    edges = g.edges()
    most = []
    for cost in range(min(k, g.m) + 1):
        most.append(0)
        for subset in combinations(range(g.m), cost):
            kept = [e for j, e in enumerate(edges) if j not in subset]
            comps = len(connected_components(Graph(g.n, kept)))
            most[-1] = max(most[-1], min(comps, p_max))
            if most[-1] == p_max:
                return most
    return most


def test_brute_pway_cut_matches_a_graph_per_subset():
    from test_acceptance import pway_corpus

    graphs = [g for _seed, g in pway_corpus()]
    rng = random.Random(11)
    for seed in range(60):
        graphs.append(gnp(rng.randint(0, 9), rng.uniform(0.1, 0.7), seed))
    for g in graphs:
        most = most_components_per_cost(g, 4, 4)
        for p in (2, 3, 4):
            for k in range(5):
                costs = [c for c, m in enumerate(most[:k + 1]) if m >= p]
                want = costs[0] if costs else BRUTE_INFEASIBLE
                assert brute_pway_cut(g, p, k) == want, (g.edges(), p, k)


def brute_vector(g, deco, t, f, p, k):
    """M[t, f, .] by exhaustion: per mask, the minimum cost over all
    p-colorings of G_t respecting f and realizing every color of the mask,
    saturated at k+1. Vertices are colored one at a time, adhesion first,
    and a partial coloring that already costs more than k is dropped."""
    gamma = sorted(deco.cone(t))
    sigma = sorted(deco.adhesion_set(t))
    sub, ids = induced_subgraph(g, gamma, drop_within=sigma)
    pos = {v: i for i, v in enumerate(ids)}
    fixed = {pos[v]: c for v, c in zip(sigma, f)}
    order = sorted(range(sub.n), key=lambda v: v not in fixed)
    rank = {v: i for i, v in enumerate(order)}
    col = {}
    best = {}  # realized color mask -> minimum cost

    def extend(i, cost, realized):
        if i == len(order):
            if cost < best.get(realized, k + 1):
                best[realized] = cost
            return
        v = order[i]
        for c in [fixed[v]] if v in fixed else range(1, p + 1):
            cost_c = cost + sum(
                1 for u in sub.adj[v] if rank[u] < i and col[u] != c
            )
            if cost_c <= k:
                col[v] = c
                extend(i + 1, cost_c, realized | 1 << (c - 1))

    extend(0, 0, 0)
    return tuple(
        min((c for r, c in best.items() if not imask & ~r), default=k + 1)
        for imask in range(1 << p)
    )


def solved(g, p, k, seed):
    deco, _ = decompose(g, k, 1, rng=random.Random(seed), seed=seed)
    solver = PwayCutSolver(g, deco, p, k, 1, random.Random(seed))
    solver.entry(deco.root, (), solver.full)
    return deco, solver


def is_canonical(f):
    """Colors numbered by first occurrence: each new color is the next."""
    top = 0
    for col in f:
        if col > top + 1:
            return False
        top = max(top, col)
    return True


def has_cycle(nb, edges):
    parent = list(range(nb))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra == rb:
            return True
        parent[ra] = rb
    return False


@pytest.mark.parametrize("seed", [0, 2, 5])
def test_table_entries_match_exhaustive_coloring(seed):
    rng = random.Random(seed)
    g3 = gnp(rng.randint(5, 8), 0.35, seed + 40)
    # at p = k = 4 the graph is larger, so the decomposition has bags with
    # cycles (crossing sets that separate nothing, skipped by the DP) and
    # child adhesions of two or more vertices (crossing adhesion units)
    g4 = gnp(11, 0.35, seed + 40)
    for g, p, k in ((g3, 3, 3), (g4, 4, 4)):
        deco, solver = solved(g, p, k, seed)
        # demand every stored coloring with its colors reversed as well, so
        # that relabeled copies of computed vectors are checked too
        for t, f in list(solver.vectors):
            solver.vector(t, tuple(p + 1 - col for col in f))
        if p == 4:
            assert any(
                has_cycle(len(info.bag), info.cost_edges) for info in solver.info
            )
            assert any(
                len(adh_l) >= 2
                for info in solver.info for _, adh_l in info.children
            )
            # some child was asked for an adhesion coloring that crosses it
            assert any(len(set(f)) > 1 for _t, f in solver.vectors)
            assert any(not is_canonical(f) for _t, f in solver.vectors)
        for (t, f), vec in solver.vectors.items():
            expect = brute_vector(g, deco, t, f, p, k)
            assert vec == expect, (p, k, t, f, vec, expect)


def test_only_canonical_colorings_are_computed(monkeypatch):
    computed = []
    compute_vector = PwayCutSolver._compute_vector

    def recording(self, t, f):
        computed.append((t, f))
        return compute_vector(self, t, f)

    monkeypatch.setattr(PwayCutSolver, "_compute_vector", recording)
    _deco, solver = solved(gnp(11, 0.35, 0), 4, 4, 2)
    assert computed and all(is_canonical(f) for _t, f in computed)
    assert len(set(computed)) == len(computed)
    # every other demanded coloring was read through a relabeling
    relabeled = [f for _t, f in solver.vectors if not is_canonical(f)]
    assert relabeled
    assert len(solver.vectors) == len(computed) + len(relabeled)


def every_crossing_set(nb, units, k):
    """The kept crossing sets by exhaustion: every set of at most k units in
    `combinations` order by size, one union-find over all units per set,
    dropping a set in which some crossing unit keeps its vertices in one
    component; components are named by their smallest vertex."""
    out = []
    for r in range(min(k, len(units)) + 1):
        for subset in combinations(range(len(units)), r):
            parent = list(range(nb))

            def find(x):
                while parent[x] != x:
                    x = parent[x]
                return x

            for ui, verts in enumerate(units):
                if ui not in subset:
                    for v in verts[1:]:
                        parent[find(v)] = find(verts[0])
            smallest = {}
            for v in range(nb):
                smallest.setdefault(find(v), v)
            label = tuple(smallest[find(v)] for v in range(nb))
            if any(len({label[v] for v in units[ui]}) == 1 for ui in subset):
                continue
            out.append((subset, label))
    return out


def test_node_shapes_match_every_crossing_set():
    rng = random.Random(19)
    dropped = 0
    for _ in range(400):
        nb = rng.randint(1, 9)
        edges = [(a, b) for a, b in combinations(range(nb), 2)
                 if rng.random() < 0.4]
        # child adhesions of 2-3 vertices, after the edges as in _Node.units
        adhesions = [
            tuple(sorted(rng.sample(range(nb), rng.randint(2, min(3, nb)))))
            for _ in range(rng.randint(0, 2) if nb >= 2 else 0)
        ]
        units = edges + adhesions
        k = rng.randint(0, 5)
        want = every_crossing_set(nb, units, k)
        assert pwaycut._crossing_sets(nb, units, k) == want, (nb, units, k)
        dropped += sum(
            comb(len(units), r) for r in range(min(k, len(units)) + 1)
        ) - len(want)
    assert dropped, "no crossing set separated nothing"
    # the shapes of a solved decomposition, one per kept set
    _deco, solver = solved(gnp(11, 0.35, 40), 4, 4, 0)
    built = [(info, shapes) for info, shapes in zip(solver.info, solver.shapes)
             if shapes is not None]
    assert any(len(adh_l) >= 2 for info, _ in built for _, adh_l in info.children)
    for info, shapes in built:
        assert len(shapes) == len(every_crossing_set(len(info.bag), info.units, 4))


def test_entry_monotone_in_required_colors():
    _deco, solver = solved(gnp(8, 0.3, 17), 3, 3, 1)
    for (t, f), vec in solver.vectors.items():
        for imask in range(solver.full + 1):
            for sub in range(imask + 1):
                if sub & ~imask:
                    continue
                assert vec[sub] <= vec[imask]


def test_entry_saturates_when_infeasible():
    k = 2
    deco, solver = solved(complete_graph(4), 2, k, 0)
    assert solver.entry(deco.root, (), solver.full) > k
    assert solver.entry(deco.root, (), 0b01) == 0


@pytest.mark.parametrize("seed", range(6))
def test_coded_regime_matches_exact(seed, monkeypatch):
    monkeypatch.setattr(config, "PWAY_EXACT_BAG_LIMIT", -1)
    rng = random.Random(seed)
    n = rng.randint(4, 9)
    g = gnp(n, 0.35, seed + 70)
    for p in (2, 3):
        for k in range(0, 4):
            check_against_oracle(g, p, k, seed * 29 + p + k)


def test_coded_regime_errs_only_upward(monkeypatch):
    # one coloring per family makes the coded regime miss often; a miss may
    # raise a cost or make a feasible instance infeasible, never lower a cost
    monkeypatch.setattr(config, "PWAY_EXACT_BAG_LIMIT", -1)
    family = pwaycut.color_family_general
    monkeypatch.setattr(
        pwaycut, "color_family_general", lambda *args: family(*args)[:1]
    )
    too_high = 0
    for seed in range(60):
        rng = random.Random(seed)
        g = gnp(rng.randint(5, 10), 0.35, seed + 500)
        for p in (2, 3):
            for k in (1, 2, 3):
                res = min_pway_cut(g, p, k, 1, rng=random.Random(seed))
                oracle = brute_pway_cut(g, p, k)
                got = res.cost if res.feasible else k + 1
                want = k + 1 if oracle == BRUTE_INFEASIBLE else oracle
                assert got >= want, (g.edges(), p, k, res, oracle)
                too_high += got > want
    assert too_high


def gnm(n, m, seed):
    rng = random.Random(seed)
    return Graph(n, rng.sample(
        [(u, v) for u in range(n) for v in range(u + 1, n)], m
    ))


def test_coded_regime_unforced_matches_brute_force(monkeypatch):
    # most decompositions of these graphs have a bag over the exact
    # regime's limits, so the coded regime runs without being forced
    coded = []
    coded_vector = PwayCutSolver._coded_vector

    def recording(self, t, f):
        coded.append((t, f))
        return coded_vector(self, t, f)

    monkeypatch.setattr(PwayCutSolver, "_coded_vector", recording)
    used = 0
    for i, n in enumerate((30, 40) * 6):
        g = gnm(n, 63, 100 + i)
        for p in (2, 3):
            before = len(coded)
            check_against_oracle(g, p, 3, i * 10 + p)
            used += len(coded) > before
    assert used >= 12, used


def test_flip_dp_forced_components_stay_infeasible_unflipped(monkeypatch):
    # force the coded regime and inspect every flip-DP vector: a component
    # that meets the adhesion must keep its colors, so the colors (other
    # than the heavy one) that f gives the adhesion are always realized and
    # requiring them changes no entry
    monkeypatch.setattr(config, "PWAY_EXACT_BAG_LIMIT", -1)
    g = gnp(8, 0.35, 5)
    p, k = 3, 3
    calls = []
    flip_vector = PwayCutSolver._flip_vector

    def recording(self, t, gp):
        vec = flip_vector(self, t, gp)
        calls.append((self.info[t], list(gp), vec))
        return vec

    monkeypatch.setattr(PwayCutSolver, "_flip_vector", recording)
    _deco, solver = solved(g, p, k, 3)
    forced_calls = 0
    for info, gp, vec in calls:
        forced = 0
        for local in info.adh_local:
            if gp[local] != p:
                forced |= 1 << (gp[local] - 1)
        forced_calls += forced != 0
        assert all(cost <= solver.inf for cost in vec)
        assert all(vec[m] == vec[m | forced] for m in range(solver.full + 1))
    assert forced_calls, "no flip DP had a component meeting the adhesion"
