import logging
import random
from fractions import Fraction

import pytest

from qktree.adhesion import reduce_adhesion, unbreakable_balanced_set
from qktree.core import Graph, adhesion, connected_components, is_balanced
from qktree.decomp import VARIANT_DEPTH_REDUCED, VARIANT_STANDARD, decompose
from qktree.origin import UNBREAKABLE, check_unbreakable

from conftest import complete_graph, connected_gnp, path_graph


def bridged_cliques():
    edges = []
    for i in range(6):
        for j in range(i + 1, 6):
            edges.append((i, j))
            edges.append((7 + i, 7 + j))
    edges += [(5, 6), (6, 7)]
    return Graph(13, edges)


def test_full_vertex_set_is_fixed_point():
    g = connected_gnp(10, 0.4, 3)
    x = reduce_adhesion(g, range(10), 1, 2, 1, random.Random(0))
    assert x == frozenset(range(10))
    assert adhesion(g, x) == 0


def test_single_vertex_seed_tiny_instances():
    for seed in range(15):
        rng = random.Random(seed)
        g = connected_gnp(rng.randint(4, 10), 0.35, seed)
        q = rng.randint(1, 2)
        k = rng.randint(1, q)
        x = reduce_adhesion(g, {0}, k, q, 1, random.Random(seed))
        assert 0 in x
        assert adhesion(g, x) <= q + k
        assert check_unbreakable(g, x, q + k, k) == UNBREAKABLE


def test_bridged_cliques_adhesion():
    g = bridged_cliques()
    x = reduce_adhesion(g, set(range(6)), 1, 6, 1, random.Random(1))
    assert set(range(6)) <= x
    assert adhesion(g, x) <= 7


def test_unbreakable_balanced_set_complete_graph():
    g = complete_graph(9)
    x = unbreakable_balanced_set(g, 1, 1, random.Random(2))
    assert is_balanced(g, x, 0.5)


def test_unbreakable_balanced_set_long_path():
    g = path_graph(64)
    x = unbreakable_balanced_set(g, 1, 1, random.Random(4))
    assert is_balanced(g, x, 0.5)
    assert adhesion(g, x) <= 2
    assert all(len(c) <= 32 for c in connected_components(g, x))


@pytest.mark.parametrize("seed", range(8))
def test_unbreakable_balanced_set_random(seed):
    rng = random.Random(seed)
    n = rng.randint(8, 26)
    g = connected_gnp(n, 0.25, seed)
    k = rng.randint(1, 2)
    x = unbreakable_balanced_set(g, k, 1, random.Random(seed))
    sigma = 2 * k
    assert is_balanced(g, x, 0.5)
    assert adhesion(g, x) <= sigma
    if n <= 10:
        assert check_unbreakable(g, x, sigma, k) == UNBREAKABLE


def test_reduce_adhesion_deterministic():
    g = connected_gnp(12, 0.3, 9)
    a = reduce_adhesion(g, {0}, 1, 1, 1, random.Random(3))
    b = reduce_adhesion(g, {0}, 1, 1, 1, random.Random(3))
    assert a == b


def test_small_decompositions_pass_the_debug_checks():
    """At n <= 10, reduce_adhesion asserts that every X it returns is
    unbreakable; seeded decompositions never trip it."""
    for seed in range(300):
        rng = random.Random(seed)
        g = connected_gnp(rng.randint(4, 10), rng.uniform(0.2, 0.7), seed)
        k = rng.randint(1, 3)
        for variant in (VARIANT_STANDARD, VARIANT_DEPTH_REDUCED):
            decompose(g, k, 1, variant, seed=seed)


@pytest.mark.parametrize("epsilon", [Fraction(1, 2), Fraction(2, 3)])
def test_empty_graph_decomposes_without_warnings(epsilon, caplog):
    """On n = 0 the carve threshold n^(1 - ℓε) stays at least 1, so an
    empty cover ends the carve loop without a warning, and an exponent
    below 0 (ε = 2/3 at level 2) raises nothing."""
    with caplog.at_level(logging.WARNING, logger="qktree.adhesion"):
        deco, _report = decompose(Graph(0, []), 1, epsilon)
    assert [node.bag for node in deco.nodes] == [frozenset()]
    assert not caplog.records
