import gc
import math
import random
from itertools import combinations, product

import pytest

from qktree import carving, config
from qktree.carving import (
    WitnessContext,
    carve_many,
    color_family,
    color_family_general,
    is_witness,
    make_lean,
    witness_cover,
)
from qktree.core import (
    Graph,
    SizeGuardError,
    VertexCut,
    adhesion,
    connected_components,
    neighborhood,
)
from qktree.flow import (
    EXCEEDS_BOUND,
    INF,
    bounded_vertex_maxflow,
    unit_capacities,
    with_new_vertices,
)
from qktree.isolating import ordered_disjoint
from qktree.origin import UNBREAKABLE, balanced_origin, check_unbreakable
from qktree.ssmc import single_source_mincut_cover
from qktree.verify import carvable_oracle, is_connected_witness, width_budget

from conftest import connected_gnp, gnp, path_graph, star_graph


def all_witnesses(ctx, connected_only=False):
    """Every (X,T,k')-witness of a tiny graph by direct enumeration."""
    g = ctx.g
    found = []
    for assign in product((0, 1, 2), repeat=g.n):
        left_only = frozenset(v for v in range(g.n) if assign[v] == 0)
        sep = frozenset(v for v in range(g.n) if assign[v] == 1)
        if not left_only:
            continue
        cut = VertexCut(left_only | sep, frozenset(range(g.n)) - left_only)
        if not cut.is_valid(g):
            continue
        if connected_only:
            if is_connected_witness(ctx, cut):
                found.append(cut)
        elif is_witness(ctx, cut):
            found.append(cut)
    return found


def test_is_witness_path_example():
    # path a(0) - b(1) - s(2); T = V, X = {s}
    g = path_graph(3)
    ctx = WitnessContext(g, range(3), {2}, 1)
    cut = VertexCut(frozenset({0, 1}), frozenset({1, 2}))
    assert is_witness(ctx, cut)
    # any cut putting an X vertex in L\R is rejected
    bad = VertexCut(frozenset({2, 1}), frozenset({1, 0}))
    assert not is_witness(ctx, bad)
    assert not is_witness(WitnessContext(g, range(3), {0}, 1), cut)


def test_is_witness_separator_budget():
    g = path_graph(5)
    ctx0 = WitnessContext(g, range(5), {4}, 0)
    cut = VertexCut(frozenset({0, 1}), frozenset({1, 2, 3, 4}))
    assert not is_witness(ctx0, cut)  # separator {1} exceeds k'=0
    assert is_witness(WitnessContext(g, range(5), {4}, 1), cut)


def test_connected_witness_on_torso():
    # two arms 2-1-0-5 and 2-3-4-6 with terminals {2,0,5,4,6}: the torso
    # keeps the two arms apart, so a witness freeing both arms at once has a
    # disconnected terminal set
    g = Graph(7, [(2, 1), (1, 0), (2, 3), (3, 4), (0, 5), (4, 6)])
    ctx = WitnessContext(g, {2, 0, 5, 4, 6}, {2}, 2)
    cut = VertexCut(frozenset({0, 5, 4, 6, 1, 3}), frozenset({1, 2, 3}))
    assert is_witness(ctx, cut)
    assert not is_connected_witness(ctx, cut)


def test_connected_witness_single_vertex():
    g = path_graph(4)
    ctx = WitnessContext(g, range(4), {3}, 1)
    cut = VertexCut(frozenset({0, 1}), frozenset({1, 2, 3}))
    assert is_witness(ctx, cut) and is_connected_witness(ctx, cut)


def test_carvable_oracle_x_equals_t():
    g = connected_gnp(6, 0.5, 1)
    ctx = WitnessContext(g, range(6), range(6), 2)
    assert carvable_oracle(ctx) == frozenset()


def test_carvable_oracle_k_zero():
    g = path_graph(5)
    ctx = WitnessContext(g, range(5), {4}, 0)
    assert carvable_oracle(ctx) == frozenset()


def test_carvable_oracle_path():
    # path a(0) - b(1) - s(2), T = V, X = {s}, k' = 1: cutting at b frees a
    g = path_graph(3)
    ctx = WitnessContext(g, range(3), {2}, 1)
    assert carvable_oracle(ctx) == frozenset({0})


def test_carvable_oracle_size_guard():
    n = config.CUT_ENUM_LIMIT + 1
    g = path_graph(n)
    with pytest.raises(SizeGuardError):
        carvable_oracle(WitnessContext(g, range(n), {n - 1}, 1))


def test_carvable_matches_connected_witness_enumeration():
    checked = 0
    seed = 0
    while checked < 25:
        seed += 1
        rng = random.Random(seed)
        g = gnp(rng.randint(3, 7), rng.uniform(0.2, 0.6), seed)
        t = frozenset(rng.sample(range(g.n), rng.randint(1, g.n)))
        x = frozenset(rng.sample(sorted(t), rng.randint(0, len(t))))
        ctx = WitnessContext(g, t, x, rng.randint(0, 2))
        checked += 1
        expected = set()
        for cut in all_witnesses(ctx, connected_only=True):
            expected |= cut.left_only & t
        assert carvable_oracle(ctx) == expected, (seed, g.edges(), sorted(t))


def carve_one(t_set, cut):
    """Carving along a single cut: (T \\ L) ∪ (L ∩ R)."""
    return (frozenset(t_set) - cut.L) | cut.separator


def test_carve_many_matches_carve_one_for_single_cut():
    rng = random.Random(5)
    for seed in range(20):
        g = gnp(7, 0.4, seed)
        cuts = []
        for cut in all_witnesses(WitnessContext(g, range(7), set(), 2)):
            cuts = [cut]
            break
        if not cuts:
            continue
        t = frozenset(rng.sample(range(7), rng.randint(1, 7)))
        assert carve_many(t, cuts) == carve_one(t, cuts[0])


def lean_certificate_ok(g, t_set, cut):
    """Menger's condition for leanness, checked exhaustively: in G[L], no
    vertex set smaller than L∩R separates L∩R from L∩T (a set may contain
    endpoints, which then no longer count)."""
    sep = cut.separator
    ends = cut.L & t_set
    for size in range(len(sep)):
        for z in combinations(sorted(cut.L), size):
            alive = cut.L - set(z)
            seen = set(sep & alive)
            stack = list(seen)
            while stack:
                v = stack.pop()
                for u in g.adj[v]:
                    if u in alive and u not in seen:
                        seen.add(u)
                        stack.append(u)
            if not seen & ends:
                return False
    return True


def test_make_lean_star_example():
    # star center 0 with leaves 1..3, plus an outside vertex 4 on the center
    g = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    t = frozenset({1, 2, 3})
    ctx = WitnessContext(g, t, frozenset(), 1)
    cut = VertexCut(frozenset({0, 1, 2, 3}), frozenset({0, 4}))
    assert is_witness(ctx, cut)
    (lean,) = make_lean(ctx, [cut])
    assert is_witness(ctx, lean)
    assert lean.left_only <= cut.left_only
    assert len(lean.left_only & t) * (ctx.k_prime + 1) >= len(cut.left_only & t)
    assert lean_certificate_ok(g, t, lean)


def test_make_lean_properties_random():
    checked = 0
    seed = 0
    while checked < 30:
        seed += 1
        rng = random.Random(seed)
        g = gnp(rng.randint(4, 8), rng.uniform(0.25, 0.6), seed)
        t = frozenset(rng.sample(range(g.n), rng.randint(2, g.n)))
        x = frozenset(rng.sample(sorted(t), rng.randint(0, min(2, len(t)))))
        k_prime = rng.randint(1, 3)
        ctx = WitnessContext(g, t, x, k_prime)
        wits = all_witnesses(ctx)
        if not wits:
            continue
        checked += 1
        cut = wits[rng.randrange(len(wits))]
        (lean,) = make_lean(ctx, [cut])
        assert lean.is_valid(g), (seed, cut)
        assert is_witness(ctx, lean), (seed, cut, lean)
        assert lean.left_only <= cut.left_only
        assert len(lean.left_only & t) * (k_prime + 1) >= len(cut.left_only & t)
        assert lean_certificate_ok(g, t, lean), (seed, cut, lean)


def test_make_lean_preserves_disjointness():
    from qktree.isolating import pairwise_disjoint

    checked = 0
    seed = 100
    while checked < 10:
        seed += 1
        rng = random.Random(seed)
        g = gnp(rng.randint(5, 8), rng.uniform(0.2, 0.4), seed)
        t = frozenset(range(g.n))
        ctx = WitnessContext(g, t, frozenset(), 2)
        wits = all_witnesses(ctx)
        pair = None
        for i, a in enumerate(wits):
            for b in wits[i + 1:]:
                if pairwise_disjoint([a, b]):
                    pair = [a, b]
                    break
            if pair:
                break
        if pair is None:
            continue
        checked += 1
        leans = make_lean(ctx, pair)
        assert pairwise_disjoint(leans), (seed, pair, leans)
        for lean in leans:
            assert is_witness(ctx, lean)
            assert lean_certificate_ok(g, t, lean)


def test_carve_adhesion_bounds():
    checked = 0
    seed = 300
    while checked < 20:
        seed += 1
        rng = random.Random(seed)
        g = connected_gnp(rng.randint(5, 9), 0.35, seed)
        t = frozenset(range(g.n))
        ctx = WitnessContext(g, t, frozenset(), 2)
        wits = all_witnesses(ctx)
        if not wits:
            continue
        checked += 1
        cut = make_lean(ctx, [wits[rng.randrange(len(wits))]])[0]
        t_new = carve_one(t, cut)
        assert adhesion(g, t_new) <= max(cut.size, adhesion(g, t))


def test_color_family_degenerate_cases():
    rng = random.Random(0)
    fam = color_family(5, 0, 0, 4, 9, rng)
    assert len(fam) == 1 and set(fam[0]) == {3}
    fam = color_family(4, 1, 0, 0, 9, random.Random(1))
    for u in range(4):
        assert any(f[u] == 1 for f in fam)


def test_color_family_deterministic():
    a = color_family(6, 2, 1, 3, 9, random.Random(42))
    b = color_family(6, 2, 1, 3, 9, random.Random(42))
    assert a == b


def test_color_family_general_hits_small_tuples():
    fam = color_family_general(6, (2, 2), 9, random.Random(7))
    for a1 in range(6):
        for a2 in range(6):
            if a1 == a2:
                continue
            assert any(f[a1] == 1 and f[a2] == 2 for f in fam), (a1, a2)


def scan_color_family(universe_size, sizes, n_ambient, rng, pack):
    """The family drawn by a per-vertex scan of the cumulative table, each
    budget capped at the universe or, with pack, at the room the earlier
    budgets leave."""
    room, trimmed = universe_size, []
    for a in sizes:
        trimmed.append(min(a, room))
        if pack:
            room -= trimmed[-1]
    total = sum(trimmed)
    if total == 0:
        return [tuple(len(trimmed) for _ in range(universe_size))]
    probs = [a / total for a in trimmed]
    p_succ = math.prod(p ** a for p, a in zip(probs, trimmed) if a > 0)
    count = max(1, math.ceil(config.C_FAM * math.log(max(n_ambient, 2)) / p_succ))
    count = min(count, config.FAMILY_SIZE_LIMIT)
    cumulative, acc = [], 0.0
    for p in probs:
        acc += p
        cumulative.append(acc)
    family = []
    for _ in range(count):
        f = []
        for _ in range(universe_size):
            x = rng.random()
            f.append(1 + next(
                i for i, edge in enumerate(cumulative)
                if x < edge or i == len(cumulative) - 1
            ))
        if tuple(f) not in family:
            family.append(tuple(f))
    return family


@pytest.mark.parametrize("budgets", ["pack", "each"])
def test_color_family_matches_a_cumulative_scan(budgets):
    # "each": color_family_general caps each budget at the universe;
    # "pack": the witness covers' color_family packs its three budgets
    sizes_list = [
        (2, 1, 16), (0, 3, 2), (3, 0, 0), (0, 0, 4), (1, 0, 2, 0, 3),
        (4, 4), (1,), (5, 2, 54), (0, 0), (2, 2, 2, 2),
    ]
    if budgets == "pack":
        sizes_list = [sizes for sizes in sizes_list if len(sizes) == 3]
    for seed in range(40):
        for sizes in sizes_list:
            universe = seed % 9
            ours, ref = random.Random(seed), random.Random(seed)
            if budgets == "pack":
                fam = color_family(universe, *sizes, 30, ours)
            else:
                fam = color_family_general(universe, sizes, 30, ours)
            assert fam == scan_color_family(
                universe, sizes, 30, ref, pack=budgets == "pack"
            ), (seed, sizes)
            assert ours.getstate() == ref.getstate()


def test_witness_cover_x_equals_t():
    g = connected_gnp(8, 0.4, 2)
    ctx = WitnessContext(g, range(8), range(8), 2)
    assert witness_cover(ctx, random.Random(0)) == (frozenset(), [])


def witness_cover_instance(seed, max_n=9):
    rng = random.Random(seed)
    g = connected_gnp(rng.randint(5, max_n), 0.35, seed)
    x = balanced_origin(g, 1, 2, random.Random(seed))
    return g, x


def test_witness_cover_coverage_vs_oracle():
    """q_set covers the carvable-vertex oracle on almost every seeded run."""
    misses = 0
    for seed in range(40):
        g, x = witness_cover_instance(seed)
        ctx = WitnessContext(g, range(g.n), x, 2)
        q_set, best = witness_cover(ctx, random.Random(seed + 1))
        oracle = carvable_oracle(ctx)
        assert q_set <= frozenset(range(g.n)) - x
        for cut in best:
            assert cut.left_only & ctx.t_set <= q_set
            assert is_witness(ctx, cut)
        if not oracle <= q_set:
            misses += 1
    assert misses <= 1, misses


def test_witness_cover_residual_unbreakable():
    """T minus the covered set is (q1+k, k)-unbreakable at runtime."""
    misses = 0
    for seed in range(40):
        g, x = witness_cover_instance(seed, max_n=10)
        # x is (1,1)-unbreakable by construction; q1 = k = 1, k' = 2
        ctx = WitnessContext(g, range(g.n), x, 2)
        q_set, _ = witness_cover(ctx, random.Random(seed + 7))
        y = frozenset(range(g.n)) - q_set
        if check_unbreakable(g, y, 2, 1) != UNBREAKABLE:
            misses += 1
    assert misses <= 1, misses


def test_witness_cover_best_fraction():
    for seed in range(15):
        g, x = witness_cover_instance(seed)
        ctx = WitnessContext(g, range(g.n), x, 2)
        q_set, best = witness_cover(ctx, random.Random(seed + 3))
        if not q_set:
            assert best == []
            continue
        fam = color_family(g.n, 3, 2, 16, g.n, random.Random(0))
        score = sum(len(c.left_only & ctx.t_set) for c in best)
        bound = len(q_set) / (len(fam) * width_budget(2, g.n) * 3)
        assert score >= bound


def test_witness_cover_deterministic():
    g, x = witness_cover_instance(11)
    ctx = WitnessContext(g, range(g.n), x, 2)
    a = witness_cover(ctx, random.Random(9))
    b = witness_cover(ctx, random.Random(9))
    assert a == b


def test_witness_cover_q_set_within_the_flow_bound():
    """Every covered terminal has a t–X flow of at most k', X cuttable: the
    premise of the cover's stop."""
    for seed in range(40):
        g, x = witness_cover_instance(seed)
        cg = unit_capacities(g)
        for k_prime in (1, 2, 3):
            ctx = WitnessContext(g, range(g.n), x, k_prime)
            q_set, _ = witness_cover(ctx, random.Random(seed + k_prime))
            for t in q_set:
                flow = bounded_vertex_maxflow(cg, {t}, x, k_prime, cut_sinks=True)
                assert flow.value != EXCEEDS_BOUND, (seed, k_prime, t)


def within_cut_bound(cg, t, ctx):
    """Whether at most k' vertices of g, X ones allowed, cut t off from X,
    by one plain flow per call."""
    if len(ctx.x_set) <= ctx.k_prime or len(cg.base.adj[t]) <= ctx.k_prime:
        return True  # X, or N(t), is such a cut
    flow = bounded_vertex_maxflow(cg, (t,), ctx.x_set, ctx.k_prime, cut_sinks=True)
    return flow.value != EXCEEDS_BOUND


def one_shot_cover(ctx, rng, stop=True):
    """witness_cover with each color function's graph extended from g in
    one shot, the super sinks first and the super source after them, and
    no heavy-vertex memo: the stop rule runs its own flows, and ssmc gets
    no heavy sinks. With stop=False every color function of the family
    runs."""
    g, k_prime = ctx.g, ctx.k_prime
    if ctx.x_set == ctx.t_set:
        return frozenset(), []
    h, ids = ctx.torso_graph()
    pos = {v: i for i, v in enumerate(ids)}
    family = color_family(len(ids), k_prime + 1, k_prime, 2 * k_prime ** 3, g.n, rng)
    cg = unit_capacities(g)
    untested = iter(sorted(ctx.t_set - ctx.x_set))
    pending = None
    kept = []
    q_set = set()
    for f in family:
        if stop and ctx.x_set and (pending is None or pending in q_set):
            pending = next((t for t in untested if t not in q_set
                            and within_cut_bound(cg, t, ctx)), None)
            if pending is None:
                break
        color1 = [local for local in range(len(ids)) if f[local] == 1]
        if not color1:
            continue
        comps = connected_components(h, set(range(len(ids))) - set(color1))
        attach = [
            [ids[u] for u in comp]
            + [ids[u] for u in neighborhood(h, comp) if f[u] == 2]
            for comp in comps
        ] + [ctx.x_set]
        caps = tuple(
            INF
            if v in ctx.t_set and v not in ctx.x_set and f[pos[v]] == 1
            else 1
            for v in range(g.n)
        ) + (INF,) * len(attach)
        sinks = list(range(g.n, g.n + len(comps)))
        cover, _ = single_source_mincut_cover(
            with_new_vertices(g, attach, caps), g.n + len(comps), sinks, k_prime, rng
        )
        for coll in cover.collections:
            cuts = (VertexCut(c.L & frozenset(range(g.n)), c.R & frozenset(range(g.n)))
                    for c in coll)
            mapped = [c for c in cuts if c.is_valid(g) and is_witness(ctx, c)]
            if mapped:
                kept.append(mapped)
                q_set.update(t for cut in mapped for t in cut.left_only & ctx.t_set)
    best_raw = max(
        kept, key=lambda coll: sum(len(c.left_only & ctx.t_set) for c in coll), default=[]
    )
    merged = list(best_raw)
    for coll in kept:
        if coll is not best_raw:
            merged += [c for c in coll if all(
                ordered_disjoint(c, o) and ordered_disjoint(o, c)
                for o in merged
            )]
    return frozenset(q_set), make_lean(ctx, merged) if merged else []


def test_witness_cover_matches_the_whole_family():
    for seed in range(40):
        g, x = witness_cover_instance(seed)
        for k_prime in (1, 2, 3):
            ctx = WitnessContext(g, range(g.n), x, k_prime)
            q_set, _ = witness_cover(ctx, random.Random(seed))
            whole, _ = one_shot_cover(ctx, random.Random(seed), stop=False)
            assert q_set == whole, (seed, k_prime)


def test_witness_cover_matches_a_one_shot_extension():
    """Building the super source once per cover, at id g.n, and reading
    the stop rule and the heavy super sinks off the memo change no output
    and no rng draw: the super vertices never reach the output, and a
    dropped sink is one the pre-filter's flow drops. The second cover of
    each context reads a memo the first one filled."""
    for seed in range(40):
        g, x = witness_cover_instance(seed)
        for k_prime in (1, 2, 3):
            ctx = WitnessContext(g, range(g.n), x, k_prime)
            ref = random.Random(seed)
            expected = one_shot_cover(ctx, ref)
            for memo in ("fresh", "filled"):
                ours = random.Random(seed)
                assert witness_cover(ctx, ours) == expected, (seed, k_prime, memo)
                assert ours.getstate() == ref.getstate(), (seed, k_prime, memo)


def test_witness_cover_stops_when_no_terminal_can_be_cut_off(monkeypatch):
    """On K_8 with |X| = 4 and k' = 2, every terminal outside X has 4
    disjoint paths to X, so no terminal can be covered."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return single_source_mincut_cover(*args, **kwargs)

    monkeypatch.setattr(carving, "single_source_mincut_cover", counting)
    g = Graph(8, combinations(range(8), 2))
    ctx = WitnessContext(g, range(8), range(4), 2)
    assert witness_cover(ctx, random.Random(0)) == (frozenset(), [])
    assert len(calls) <= 1


def test_heavy_memo_and_dropped_sinks_are_sound(monkeypatch):
    """Every vertex the memo marks heavy has a v–X flow above k', and every
    super sink a cover names heavy has lambda(t, s) > k' by a direct flow."""
    dropped = []

    def checking(cg, s, sinks, k, rng, heavy=frozenset()):
        for t in heavy:
            assert bounded_vertex_maxflow(cg, {t}, {s}, k).value == EXCEEDS_BOUND
            dropped.append(t)
        return single_source_mincut_cover(cg, s, sinks, k, rng, heavy=heavy)

    monkeypatch.setattr(carving, "single_source_mincut_cover", checking)
    marked = 0
    for seed in range(30):
        rng = random.Random(seed)
        g = connected_gnp(rng.randint(10, 16), rng.uniform(0.25, 0.45), seed)
        x = frozenset(rng.sample(range(g.n), rng.randint(2, 5)))
        cg = unit_capacities(g)
        for k_prime in (1, 2):
            witness_cover(WitnessContext(g, range(g.n), x, k_prime), rng)
            memo = g._caches[("heavy", x, k_prime)]
            for v in range(g.n):
                if memo[v] == 2:
                    marked += 1
                    flow = bounded_vertex_maxflow(cg, (v,), x, k_prime, cut_sinks=True)
                    assert flow.value == EXCEEDS_BOUND, (seed, k_prime, v)
    assert marked >= 200 and len(dropped) >= 50, (marked, len(dropped))


def test_heavy_memo_is_per_graph():
    """Two graphs with equal X and k' keep apart memos: on K_8 every vertex
    outside X = {0..3} is heavy at k' = 2, while on the second graph the
    same vertices hang off X by one edge, so its cover must still find
    them, as the memo-free reference does."""
    x = frozenset(range(4))
    first = Graph(8, combinations(range(8), 2))
    assert witness_cover(WitnessContext(first, range(8), x, 2), random.Random(0)) == (
        frozenset(), [])
    assert set(first._caches[("heavy", x, 2)][4:]) == {2}
    del first
    gc.collect()  # the next graph may reuse the freed object's id
    second_edges = list(combinations(range(4), 2)) + list(
        combinations(range(4, 8), 2)) + [(0, 4)]
    second = Graph(8, second_edges)
    ctx = WitnessContext(second, range(8), x, 2)
    q_set, best = witness_cover(ctx, random.Random(1))
    assert q_set == {4, 5, 6, 7}
    assert (q_set, best) == one_shot_cover(
        WitnessContext(Graph(8, second_edges), range(8), x, 2), random.Random(1))
    assert 2 not in second._caches[("heavy", x, 2)]
