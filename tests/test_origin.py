import math
import random
from itertools import combinations

import pytest

from qktree.core import Graph, SizeGuardError, components_masks, set_to_mask
from qktree.flow import unit_capacities
from qktree.origin import (
    UNBREAKABLE,
    _check_by_core,
    _important_separators,
    balanced_origin,
    check_by_separators,
    check_unbreakable,
    net_size,
    sample_net,
)
from qktree.verify import brute_net_check, brute_origin_check, brute_unbreakability

from conftest import complete_graph, connected_gnp, gnp, path_graph


def assert_witness(g, w, q, k, cut):
    wset = set(w)
    assert cut.is_valid(g)
    assert len(cut.separator) <= k
    assert len(cut.L & wset) > q
    assert len(cut.R & wset) > q


def test_complete_graph_unbreakable():
    g = complete_graph(6)
    for q in range(1, 5):
        for k in range(1, 5):
            assert check_unbreakable(g, range(6), q, k) == UNBREAKABLE


def test_path_witness():
    g = path_graph(7)
    w = set(range(7)) - {3}
    cut = check_unbreakable(g, w, 2, 1)
    assert cut != UNBREAKABLE
    assert_witness(g, w, 2, 1, cut)
    assert len(cut.separator) == 1


def test_size_guard():
    # |w| = 60 is over the small-set limit, no vertex has degree above k
    # for the core strategy, and the sweep would make 523,687 DFS passes
    g = path_graph(60)
    with pytest.raises(SizeGuardError):
        check_unbreakable(g, range(60), 5, 5)


def test_overlapping_sides_witness_found():
    # a path a-b-c-d with w = everything, q = k = 2: both sides of the
    # witness must count the separator vertices, so no plain partition of w
    # into two sides of size > 2 exists, yet a witness does
    g = path_graph(4)
    cut = check_unbreakable(g, range(4), 2, 2)
    assert cut != UNBREAKABLE
    assert_witness(g, range(4), 2, 2, cut)


@pytest.mark.parametrize("block", range(4))
def test_matches_brute_oracle(block):
    checked = 0
    seed = block * 50000
    while checked < 50:
        seed += 1
        rng = random.Random(seed)
        g = gnp(rng.randint(2, 10), rng.uniform(0.15, 0.7), seed)
        wlen = rng.randint(0, g.n)
        w = set(rng.sample(range(g.n), wlen))
        q = rng.randint(0, 2)
        k = rng.randint(0, 2)
        checked += 1
        fast = check_unbreakable(g, w, q, k)
        brute = brute_unbreakability(g, w, q, k)
        if brute == UNBREAKABLE:
            assert fast == UNBREAKABLE, (seed, g.edges(), sorted(w), q, k)
        else:
            assert fast != UNBREAKABLE, (seed, g.edges(), sorted(w), q, k)
            assert_witness(g, w, q, k, fast)


def test_pruned_sweep_yields_the_filtered_sweep():
    # the sweep given w and need yields exactly the full sweep's separators
    # with at least need w-vertices, in the same order; k reaches 4 and 5,
    # so prefixes of size 3 and 4 are profiled too, and need <= 0 prunes
    # nothing
    from qktree.origin import _disconnecting_separators

    pruned = 0
    for seed in range(300):
        rng = random.Random(300000 + seed)
        g = gnp(rng.randint(0, 13), rng.uniform(0.05, 0.6), 300000 + seed)
        k = rng.randint(0, 5)
        wmask = set_to_mask(rng.sample(range(g.n), rng.randint(0, g.n)))
        need = rng.randint(-2, k + 1)
        full = list(_disconnecting_separators(g, k, 0, 0))
        expected = [
            (smask, comps) for smask, comps in full
            if bin(smask & wmask).count("1") >= need
        ]
        pruned += len(full) - len(expected)
        assert list(_disconnecting_separators(g, k, wmask, need)) == expected, (
            seed, g.edges(), k, wmask, need
        )
    assert pruned > 0


def test_removal_profile_matches_components_masks():
    # the components of g minus the mask, and how many removing one more
    # live vertex leaves, with a few vertices masked or none
    from qktree.origin import _removal_profile

    for seed in range(400):
        rng = random.Random(500000 + seed)
        g = gnp(rng.randint(1, 16), rng.uniform(0.05, 0.5), 500000 + seed)
        smask = set_to_mask(rng.sample(range(g.n), rng.randint(0, min(3, g.n))))
        comps, _comp_of, _pieces, count = _removal_profile(g, smask)
        assert comps == components_masks(g, smask), (seed, smask)
        for w in range(g.n):
            if not (smask >> w) & 1:
                assert count[w] == len(components_masks(g, smask | 1 << w)), (
                    seed, smask, w
                )


def test_pruned_passes_bound_the_sweep(monkeypatch):
    # _pruned_passes is at least the DFS passes (removal profiles plus
    # component searches) of a sweep read to the end, for every need; with
    # need <= 0 it is the unpruned count, one search for the empty set and
    # one profile per prefix of size < k, and pruning lowers it
    import qktree.origin as origin

    calls = []
    for name in ("_removal_profile", "components_masks"):
        fn = getattr(origin, name)
        monkeypatch.setattr(
            origin, name, lambda *args, fn=fn: calls.append(1) or fn(*args)
        )
    pruned = 0
    for seed in range(200):
        rng = random.Random(600000 + seed)
        g = gnp(rng.randint(0, 11), rng.uniform(0.05, 0.6), 600000 + seed)
        k = rng.randint(0, 5)
        wlen = rng.randint(0, g.n)
        wmask = set_to_mask(rng.sample(range(g.n), wlen))
        need = rng.randint(-1, k + 1)
        calls.clear()
        for _ in origin._disconnecting_separators(g, k, wmask, need):
            pass
        bound = origin._pruned_passes(g.n, k, wlen, need)
        assert len(calls) <= bound, (seed, g.n, k, wlen, need)
        unpruned = 1 + sum(math.comb(g.n, s) for s in range(min(k, g.n)))
        if need <= 0:
            assert bound == unpruned
        pruned += bound < unpruned
    assert pruned > 0


def test_check_by_separators_matches_brute_oracle():
    # the pruned sweep stays exact, q < k included
    below = breakable = 0
    for seed in range(240):
        rng = random.Random(400000 + seed)
        g = gnp(rng.randint(2, 9), rng.uniform(0.15, 0.7), 400000 + seed)
        w = set(rng.sample(range(g.n), rng.randint(0, g.n)))
        q = rng.randint(0, 3)
        k = rng.randint(0, 4)
        fast = check_by_separators(g, w, q, k)
        brute = brute_unbreakability(g, w, q, k)
        case = (seed, g.edges(), sorted(w), q, k)
        assert (fast == UNBREAKABLE) == (brute == UNBREAKABLE), case
        if fast != UNBREAKABLE:
            breakable += 1
            assert_witness(g, w, q, k, fast)
        below += q < k
    assert below >= 60 and breakable >= 40, (below, breakable)


def test_disconnecting_separators_match_brute_force():
    # every vertex set of size <= k whose removal leaves >= 2 components,
    # with those components, in (size, lexicographic) order; sparse draws
    # give disconnected graphs, where the empty set and cut vertices of
    # each component count too; separators of sizes 4 and 5 are among
    # those compared
    from qktree.origin import _disconnecting_separators

    sizes = set()
    for seed in range(600):
        rng = random.Random(seed)
        g = gnp(rng.randint(0, 14), rng.uniform(0.05, 0.6), seed)
        k = rng.randint(-1, 5)
        expected = []
        for size in range(k + 1):
            for sep in combinations(range(g.n), size):
                comps = components_masks(g, set_to_mask(sep))
                if len(comps) >= 2:
                    expected.append((set_to_mask(sep), comps))
                    sizes.add(size)
        assert list(_disconnecting_separators(g, k, 0, 0)) == expected, (
            seed, g.edges(), k
        )
    assert {4, 5} <= sizes, sizes


def test_sweep_stops_at_the_first_split(monkeypatch):
    # on a path the 6th vertex already cuts off 6 of w = everything, more
    # than q = 5, so one DFS forest (the size-1 profile) answers the check;
    # the whole sweep makes 1 + 60 + C(60, 2) = 1,831
    import qktree.origin as origin

    calls = []
    profile = origin._removal_profile
    monkeypatch.setattr(
        origin, "_removal_profile", lambda *args: calls.append(1) or profile(*args)
    )
    g = path_graph(60)
    cut = check_by_separators(g, range(60), 5, 3)
    assert cut != UNBREAKABLE
    assert_witness(g, range(60), 5, 3, cut)
    assert len(calls) == 1


def test_check_unbreakable_does_not_depend_on_earlier_checks():
    # the strategy, and so the witness, does not depend on which checks
    # ran before on the same graph object: the sweep's cost, which picks
    # between the core strategy and the sweep here, is that of a full sweep
    pairs = [(u, v) for u in range(60) for v in range(u + 1, 60)]
    for seed in range(10):
        rng = random.Random(seed)
        edges = rng.sample(pairs, 142)
        w = rng.sample(range(60), 27)
        fresh = check_unbreakable(Graph(60, edges), w, 3, 3)
        g = Graph(60, edges)
        check_by_separators(g, range(60), 3, 3)
        assert check_unbreakable(g, w, 3, 3) == fresh, seed


def test_core_strategy_matches_sweep():
    # 3,200 instances: 800 graphs (n 6-22, k 1-4), four (w, q) draws each
    # with q from k to k + 2
    answered = breakable = 0
    for seed in range(800):
        rng = random.Random(700000 + seed)
        g = gnp(rng.randint(6, 22), rng.uniform(0.1, 0.6), 700000 + seed)
        k = rng.randint(1, 4)
        for _ in range(4):
            w = sorted(rng.sample(range(g.n), rng.randint(1, g.n)))
            q = k + rng.randint(0, 2)
            by_core = _check_by_core(g, w, q, k)
            if by_core is None:
                continue  # the strategy does not apply
            answered += 1
            by_sep = check_by_separators(g, w, q, k)
            case = (seed, g.edges(), w, q, k)
            assert (by_core == UNBREAKABLE) == (by_sep == UNBREAKABLE), case
            if by_core != UNBREAKABLE:
                breakable += 1
                assert_witness(g, w, q, k, by_core)
    assert answered >= 1000 and breakable >= 150, (answered, breakable)


def linked_core_plus(extra_edges, n):
    """K6 on 0..5 plus the given edges among n vertices."""
    return Graph(n, [(u, v) for u in range(6) for v in range(u + 1, 6)]
                 + extra_edges)


def test_core_strategy_two_pocket_witness():
    # pockets 9 and 10 have degree 2 and neighbourhoods {6, 7} and {7, 8};
    # only S = {6, 7, 8} cuts both off, leaving 5 of w on the left at q = 4.
    # From either pocket alone the best padded cut holds 4.
    x, y, z, a1, a2 = 6, 7, 8, 9, 10
    g = linked_core_plus(
        [(x, c) for c in (0, 1, 2, 3)] + [(y, c) for c in (1, 2, 3, 4)]
        + [(z, c) for c in (2, 3, 4, 5)]
        + [(a1, x), (a1, y), (a2, y), (a2, z)],
        11,
    )
    w = range(11)
    assert check_by_separators(g, w, 4, 3) != UNBREAKABLE
    cut = _check_by_core(g, w, 4, 3)
    assert cut not in (None, UNBREAKABLE)
    assert_witness(g, w, 4, 3, cut)
    assert cut.left_only == {a1, a2} and cut.separator == {x, y, z}
    assert check_unbreakable(g, w, 5, 3) == UNBREAKABLE
    assert _check_by_core(g, w, 5, 3) == UNBREAKABLE


def test_core_strategy_padded_witness():
    # the pocket 8 is cut off by {6, 7}, which holds 3 of w with it; the
    # witness at q = 3 adds a w-vertex that touches no pocket to S
    x, y, a = 6, 7, 8
    g = linked_core_plus(
        [(x, c) for c in (0, 1, 2, 3)] + [(y, c) for c in (2, 3, 4, 5)]
        + [(a, x), (a, y)],
        9,
    )
    w = range(9)
    cut = _check_by_core(g, w, 3, 3)
    assert cut not in (None, UNBREAKABLE)
    assert_witness(g, w, 3, 3, cut)
    assert cut.left_only == {a} and len(cut.separator) == 3
    assert {x, y} < cut.separator
    assert _check_by_core(g, w, 4, 3) == UNBREAKABLE
    assert check_by_separators(g, w, 4, 3) == UNBREAKABLE


def test_core_strategy_runs_where_the_sweep_refuses(monkeypatch):
    from qktree import config

    g = gnp(20, 0.5, 5)
    expected = check_by_separators(g, range(20), 3, 3)
    monkeypatch.setattr(config, "SEPARATOR_SWEEP_LIMIT", 0)
    monkeypatch.setattr(config, "UNBREAKABLE_ENUM_LIMIT", 0)
    with pytest.raises(SizeGuardError):
        check_by_separators(gnp(20, 0.5, 5), range(20), 3, 3)
    verdict = check_unbreakable(gnp(20, 0.5, 5), range(20), 3, 3)
    assert (verdict == UNBREAKABLE) == (expected == UNBREAKABLE)
    if verdict != UNBREAKABLE:
        assert_witness(g, range(20), 3, 3, verdict)


def test_check_unbreakable_takes_the_core_path_on_large_graphs(monkeypatch):
    import qktree.origin as origin

    calls = []
    core = origin._check_by_core
    monkeypatch.setattr(
        origin, "_check_by_core", lambda *args: calls.append(1) or core(*args)
    )
    pairs = [(u, v) for u in range(60) for v in range(u + 1, 60)]
    for seed in range(3):
        rng = random.Random(seed)
        g = Graph(60, rng.sample(pairs, 142))
        w = rng.sample(range(60), 17)
        verdict = check_unbreakable(g, w, 3, 3)
        assert (verdict == UNBREAKABLE) == (
            check_by_separators(g, w, 3, 3) == UNBREAKABLE
        )
        if verdict != UNBREAKABLE:
            assert_witness(g, w, 3, 3, verdict)
    assert len(calls) == 3


def brute_important_separators(g, xmask, cmask, k):
    """Important x-c separators of size <= k (c cuttable), by enumeration:
    inclusion-minimal separators whose x side no other separator of at
    most their size strictly extends."""

    def side(smask):
        """x's side of g - s, or None when it meets c."""
        out = 0
        for comp in components_masks(g, smask):
            if comp & xmask:
                out |= comp
        return None if out & cmask else out

    seps = {}
    rest = [v for v in range(g.n) if not (xmask >> v) & 1]
    for size in range(k + 1):
        for s in combinations(rest, size):
            smask = set_to_mask(s)
            r = side(smask)
            if r is not None:
                seps[smask] = r
    minimal = {
        s: r for s, r in seps.items()
        if all(s & ~(1 << v) not in seps for v in range(g.n) if (s >> v) & 1)
    }
    return {
        s for s, r in minimal.items()
        if not any(
            bin(t).count("1") <= bin(s).count("1") and r2 & r == r and r2 != r
            for t, r2 in minimal.items()
        )
    }


def test_important_separators_match_brute_force():
    # sparse graphs, a random tree plus a few edges, where separators of
    # different sizes compete
    several = 0  # cases with two important separators or more
    for seed in range(600):
        rng = random.Random(800000 + seed)
        n = rng.randint(5, 10)
        tree = [(rng.randrange(i), i) for i in range(1, n)]
        more = [tuple(sorted(rng.sample(range(n), 2))) for _ in range(n // 3)]
        g = Graph(n, tree + more)
        verts = rng.sample(range(n), rng.randint(3, min(n, 7)))
        cut_at = rng.randint(1, 2)
        xmask = set_to_mask(verts[:cut_at])
        cmask = set_to_mask(verts[cut_at:])
        k = rng.randint(1, 4)
        found = list(_important_separators(unit_capacities(g), xmask, cmask, k))
        assert len(found) == len(set(found)) <= 4 ** k
        expected = brute_important_separators(g, xmask, cmask, k)
        assert expected <= set(found), (seed, g.edges(), xmask, cmask, k)
        for smask in found:
            assert bin(smask).count("1") <= k and not smask & xmask
            for comp in components_masks(g, smask):
                assert not (comp & xmask and comp & cmask)
        several += len(expected) >= 2
    assert several >= 30, several


def test_sample_net_deterministic_and_full():
    g = path_graph(12)
    a = sample_net(g, 2, 0.5, random.Random(5))
    b = sample_net(g, 2, 0.5, random.Random(5))
    assert a == b
    assert len(a) == min(net_size(2, 0.5), 12)
    tiny = path_graph(3)
    assert sample_net(tiny, 5, 0.5, random.Random(1)) == frozenset(range(3))


def test_sample_net_success_rate():
    """On tiny graphs a healthy fraction of samples are verified nets."""
    hits = 0
    total = 0
    for seed in range(100):
        g = connected_gnp(9, 0.35, seed)
        for s in range(4):
            w = sample_net(g, 2, 0.5, random.Random(seed * 10 + s))
            total += 1
            if brute_net_check(g, w, 2, 0.5):
                hits += 1
    assert hits / total >= 0.25


def test_balanced_origin_complete_graph_keeps_net():
    g = complete_graph(8)
    rng = random.Random(3)
    x = balanced_origin(g, 1, 2, rng)
    expected = sample_net(g, 2, 0.5, random.Random(3))
    assert x == expected


@pytest.mark.parametrize("seed", range(25))
def test_balanced_origin_always_unbreakable(seed):
    rng = random.Random(seed)
    g = connected_gnp(rng.randint(4, 12), 0.35, seed)
    k = rng.randint(1, 2)
    sigma = k + rng.randint(0, 2)
    x = balanced_origin(g, k, sigma, random.Random(seed))
    assert check_unbreakable(g, x, k, k) == UNBREAKABLE


def test_balanced_origin_success_rate():
    """A constant fraction of outputs are verified balanced origins."""
    hits = 0
    total = 0
    for seed in range(200):
        g = connected_gnp(8, 0.4, seed)
        x = balanced_origin(g, 1, 2, random.Random(seed))
        total += 1
        if brute_origin_check(g, x, 2, 0.5):
            hits += 1
    assert hits / total >= 0.25


def sparse_graph(n, seed):
    """A random recursive tree plus uniform random edges up to
    m = round(1.35(n - 1))."""
    rng = random.Random(seed)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < round(1.35 * (n - 1)):
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
    return Graph(n, sorted(edges))


def origin_without_cursor(g, k, sigma, rng, resets):
    """balanced_origin's loop with every check from scratch; appends to
    resets each update that adds a vertex outside x."""
    import qktree.origin as origin

    x = set(sample_net(g, sigma, 0.5, rng))
    while True:
        verdict = check_unbreakable(g, x, k, k)
        if verdict == UNBREAKABLE:
            return frozenset(x)
        cut = origin._smaller_side(verdict)
        new_x = (x - cut.L) | (cut.L & cut.R)
        if not new_x <= x:
            resets.append(new_x - x)
        x = new_x


def test_cursor_matches_checks_from_scratch(monkeypatch):
    # 300 graphs, sparse (n 8-24, m = 1.35(n - 1)) and G(n, p), k 2-4:
    # balanced_origin, whose checks resume one sweep, returns what checks
    # from scratch give and draws as much randomness; the corpus holds
    # updates that reset the cursor and passes the core strategy answers
    import qktree.origin as origin

    core = origin._check_by_core
    core_verdicts = []

    def check_by_core(*args):
        core_verdicts.append(core(*args))
        return core_verdicts[-1]

    monkeypatch.setattr(origin, "_check_by_core", check_by_core)
    resets = []
    answered_by_core = 0
    for seed in range(300):
        rng = random.Random(800000 + seed)
        k = rng.randint(2, 4)
        n = rng.randint(8, 24)
        if seed % 2:
            g = connected_gnp(n, rng.uniform(0.15, 0.5), 800000 + seed)
        else:
            g = sparse_graph(n, 800000 + seed)
        with_cursor = random.Random(seed)
        core_verdicts.clear()
        x = balanced_origin(g, k, 2 * k, with_cursor)
        answered_by_core += sum(v not in (None, UNBREAKABLE) for v in core_verdicts)
        from_scratch = random.Random(seed)
        assert x == origin_without_cursor(g, k, 2 * k, from_scratch, resets), (
            seed, g.edges(), k
        )
        assert with_cursor.getstate() == from_scratch.getstate(), seed
    assert len(resets) >= 20 and answered_by_core >= 20, (
        len(resets), answered_by_core
    )


def test_cursor_saves_removal_profiles(monkeypatch):
    # one seeded balanced_origin call (sparse n = 20, k = 4, the pwaycut
    # workload's shape) makes 44 removal profiles with its cursor and 169
    # with every check from scratch, for the same origin
    import qktree.origin as origin

    calls = []
    profile = origin._removal_profile
    monkeypatch.setattr(
        origin, "_removal_profile", lambda *args: calls.append(1) or profile(*args)
    )
    g = sparse_graph(20, 8)
    x = balanced_origin(g, 4, 8, random.Random(8))
    assert len(calls) == 44
    calls.clear()
    resets = []
    assert origin_without_cursor(g, 4, 8, random.Random(8), resets) == x
    assert len(calls) == 169 and not resets


def sweep_with_component_lists(g, w, q, k):
    """The separator sweep with every component list built: each
    separator's components from _disconnecting_separators, split by
    _split_counts. Returns the cut and whether it came from the q2 < 0
    branch."""
    from qktree.core import VertexCut, mask_to_set
    from qktree.origin import _disconnecting_separators, _split_counts

    need = 2 * q + 2 - len(w)
    if need > min(k, len(w)):
        return UNBREAKABLE, False
    wmask = set_to_mask(w)
    full = (1 << g.n) - 1
    for smask, comps in _disconnecting_separators(g, k, wmask, need):
        q2 = q - bin(smask & wmask).count("1")
        if q2 < 0:
            left = comps[0]
            cut = VertexCut(mask_to_set(left | smask), mask_to_set(full & ~left))
            return cut, True
        counts = [bin(c & wmask).count("1") for c in comps]
        chosen = _split_counts(counts, q2 + 1, sum(counts) - q2 - 1)
        if chosen is not None:
            left = smask
            for i in chosen:
                left |= comps[i]
            cut = VertexCut(mask_to_set(left), mask_to_set((full & ~left) | smask))
            return cut, False
    return UNBREAKABLE, False


def test_count_first_sweep_returns_the_reference_cut():
    # the sweep that tests each separator on its w-counts first answers
    # with the very cut of the sweep that builds every component list;
    # q < k, the q2 < 0 branch and both verdicts are all among the cases
    seen = {"below": 0, "q2_negative": 0, "breakable": 0, "unbreakable": 0}
    for seed in range(500):
        rng = random.Random(900000 + seed)
        n = rng.randint(2, 14)
        if seed % 2:
            g = gnp(n, rng.uniform(0.1, 0.6), 900000 + seed)
        else:
            g = sparse_graph(n, 900000 + seed)
        w = set(rng.sample(range(g.n), rng.randint(0, g.n)))
        q = rng.randint(0, 3)
        k = rng.randint(0, 4)
        expected, q2_negative = sweep_with_component_lists(g, w, q, k)
        assert check_by_separators(g, w, q, k) == expected, (
            seed, g.edges(), sorted(w), q, k
        )
        seen["below"] += q < k
        seen["q2_negative"] += q2_negative
        seen["breakable" if expected != UNBREAKABLE else "unbreakable"] += 1
    assert min(seen.values()) >= 20, seen
