"""Witness predicates, carve operations, color-coded disjoint-witness
covers, and lean enforcement."""

from __future__ import annotations

import math
from itertools import accumulate
from typing import FrozenSet, Iterable, List, Optional, Sequence, Tuple

from . import config
from .core import (
    Graph,
    VertexCut,
    components_masks,
    mask_to_set,
    set_to_mask,
    torso,
)
from .flow import EXCEEDS_BOUND, INF, bounded_vertex_maxflow, unit_capacities, with_new_vertices
from .ssmc import CutCollection, single_source_mincut_cover

ColorFunction = Tuple[int, ...]


class WitnessContext:
    """Terminals T, a protected subset X of T, and a cut-size budget k'.

    The torso of the graph on T is computed lazily and cached; witnesses are
    cuts (L, R) of the full graph with |L∩R| <= k', |L∩T| > |L∩R|, X ⊆ R.
    """

    __slots__ = ("g", "t_set", "x_set", "k_prime", "_torso")

    def __init__(
        self, g: Graph, t_set: Iterable[int], x_set: Iterable[int], k_prime: int
    ):
        self.g = g
        self.t_set = frozenset(t_set)
        self.x_set = frozenset(x_set)
        if not self.x_set <= self.t_set:
            raise ValueError("x_set must be a subset of t_set")
        if not all(0 <= v < g.n for v in self.t_set):
            raise ValueError("t_set must consist of vertices of g")
        self.k_prime = k_prime
        self._torso: Optional[Tuple[Graph, List[int]]] = None

    def torso_graph(self) -> Tuple[Graph, List[int]]:
        """(H, ids) where H is the torso on t_set and ids[local] = original."""
        if self._torso is None:
            self._torso = torso(self.g, self.t_set)
        return self._torso


def is_witness(ctx: WitnessContext, cut: VertexCut) -> bool:
    """|L∩R| <= k', |L∩T| > |L∩R|, and X ⊆ R."""
    sep = len(cut.L & cut.R)
    return (
        sep <= ctx.k_prime
        and len(cut.L & ctx.t_set) > sep
        and ctx.x_set <= cut.R
    )


def carve_many(t_set: Iterable[int], cuts: CutCollection) -> FrozenSet[int]:
    """New terminal set T ∪ (∪ L_i∩R_i) \\ (∪ (L_i\\R_i)∩T) for pairwise
    ordered-disjoint cuts."""
    t = frozenset(t_set)
    seps: set = set()
    removed: set = set()
    for cut in cuts:
        seps |= cut.separator
        removed |= cut.left_only & t
    return (t | seps) - removed


def make_lean(ctx: WitnessContext, cuts: CutCollection) -> CutCollection:
    """Replace each witness (L,R) by a lean witness (L',R') with
    L'\\R' ⊆ L\\R and |(L'\\R')∩T| >= |(L\\R)∩T| / (k'+1).

    For each cut, a unit-capacity mincut is taken in G[L] minus L∩R∩T
    (the flow removes every other vertex), between the rest of L∩T
    (sources) and of L∩R (sinks); the source side becomes L' and
    everything else R'. An edge inside L∩R joins two sinks, and no
    augmenting path passes through it. Outputs stay pairwise disjoint.
    """
    cg = unit_capacities(ctx.g)
    out: CutCollection = []
    for cut in cuts:
        overlap = cut.separator & ctx.t_set  # forced into the new separator
        sources = (cut.L & ctx.t_set) - overlap
        sinks = cut.separator - overlap
        if not sinks:
            # the whole separator lies in T; the cut is already lean via
            # single-vertex paths
            out.append(cut)
            continue
        res = bounded_vertex_maxflow(
            cg,
            sources,
            sinks,
            bound=len(cut.separator),
            cut_sources=True,
            cut_sinks=True,
            removed=cut.right_only | overlap,
        )
        assert res.mincut is not None
        out.append(VertexCut(res.mincut.L | overlap, res.mincut.R))
    return out


def color_family_general(
    universe_size: int, sizes: Sequence[int], n_ambient: int, rng
) -> List[ColorFunction]:
    """Seeded random family of colorings f: [universe_size] -> 1..len(sizes).

    Colors are drawn per vertex, with probabilities p_i proportional to the
    target sizes, each capped at the universe, so one f hits a fixed tuple
    of disjoint sets with |A_i| <= sizes[i] (A_i entirely colored i) with
    probability at least p_succ = prod p_i^sizes[i]. The family draws
    count = min(ceil(C_FAM ln(n_ambient) / p_succ), FAMILY_SIZE_LIMIT)
    colorings and drops repeats, so it misses the tuple with probability at
    most (1 - p_succ)^count: n_ambient^(-C_FAM) below the cap, but near 1
    when the cap binds and p_succ is small (see config.FAMILY_SIZE_LIMIT).
    """
    sizes = [min(a, universe_size) for a in sizes]
    total = sum(sizes)
    if total == 0:
        return [tuple(len(sizes) for _ in range(universe_size))]
    probs = [a / total for a in sizes]
    p_succ = math.prod(p ** a for p, a in zip(probs, sizes) if a > 0)
    count = max(1, math.ceil(config.C_FAM * math.log(max(n_ambient, 2)) / p_succ))
    count = min(count, config.FAMILY_SIZE_LIMIT)
    cumulative = list(accumulate(probs))
    cumulative[-1] = 1.0  # then choices() bisects rng.random() itself
    colors = range(1, len(sizes) + 1)
    draws = (
        tuple(rng.choices(colors, cum_weights=cumulative, k=universe_size))
        for _ in range(count)
    )
    return list(dict.fromkeys(draws))  # duplicates add nothing downstream


def color_family(
    universe_size: int, a1: int, a2: int, a3: int, n_ambient: int, rng
) -> List[ColorFunction]:
    """Three-color random family hitting disjoint triples of sizes at most
    a1, a2, a3. Disjoint sets cannot exceed the universe jointly, so each
    budget first shrinks to the room the earlier ones leave."""
    sizes = (a1, a2, a3)
    packed = [
        min(a, max(0, universe_size - before))
        for a, before in zip(sizes, accumulate(sizes, initial=0))
    ]
    return color_family_general(universe_size, packed, n_ambient, rng)


def heavy_memo(ctx: WitnessContext) -> bytearray:
    """Per vertex v of g, whether more than k' vertex-disjoint paths join v
    to X, with v uncuttable and X cuttable, so that no k' vertices cut v off
    from X: 0 untested, 1 light, 2 heavy. A vertex of X, or of degree at
    most k', and every vertex when |X| <= k', is light from the start (X,
    or N(v), is such a cut); witness_cover tests the rest lazily, one
    k'-bounded flow each.

    The answer depends on g, X and k' alone, so the memo lives in g's
    caches under ("heavy", X, k'): every cover at the same level shares
    it, whatever its terminal set, and it dies with g.
    """
    g, x_set, k_prime = ctx.g, ctx.x_set, ctx.k_prime
    key = ("heavy", x_set, k_prime)
    memo = g._caches.get(key)
    if memo is None:
        free = len(x_set) <= k_prime
        memo = g._caches[key] = bytearray(
            1 if free or v in x_set or len(g.adj[v]) <= k_prime else 0
            for v in range(g.n)
        )
    return memo


def witness_cover(
    ctx: WitnessContext, rng
) -> Tuple[FrozenSet[int], CutCollection]:
    """(q_set, best): q_set is the terminals in L\\R of the witnesses
    found; best is a pairwise-disjoint collection of lean witnesses whose
    sets (L\\R)∩T lie inside q_set: the collection that cuts off the most
    terminals, plus every other witness found that stays disjoint from it.

    The super source s, attached to X, is built once per cover at id g.n.
    Per color function f from a random family, terminals colored 1 become
    infinite-capacity and a super sink (ids g.n + 1, ...) is added per
    torso component of the color-1 terminals; a single-source mincut cover
    then yields candidate cuts, which are projected onto g's vertices, so
    no super-vertex id reaches the output, and filtered down to genuine
    witnesses.

    The error is one-sided: a carvable terminal is missed when no color
    function hits its witness. The capped family hits it with probability
    1 - (1 - p_succ)^count (see color_family_general), and a miss only
    loses coverage.

    The loop stops once q_set holds U, the terminals t ∉ X that at most k'
    vertices, X ones allowed, cut off from X: those heavy_memo calls
    light. A witness has t in L\\R and X ⊆ R, so its L∩R is such a
    cut: q_set ⊆ U always, and q_set is what the whole family gives, while
    best comes from the collections found before the stop. With X empty
    every color function runs.

    The same memo spares ssmc's per-sink pre-filter the flows of heavy
    super sinks. A t-s cut of at most k' vertices avoids the infinite
    color-1 terminals, so it cuts each of them off from X in g (the other
    super vertices only add paths). A super sink whose component holds a
    heavy terminal thus has lambda(t, s) > k' and is passed as heavy.
    """
    g = ctx.g
    k_prime = ctx.k_prime
    if ctx.x_set == ctx.t_set:
        return frozenset(), []
    h, ids = ctx.torso_graph()
    a3 = 2 * k_prime ** 3
    family = color_family(len(ids), k_prime + 1, k_prime, a3, g.n, rng)

    g_vertices = frozenset(range(g.n))
    kept: List[CutCollection] = []
    q_set: set = set()
    untested = iter(sorted(ctx.t_set - ctx.x_set))
    pending = None  # a terminal of U not yet in q_set
    memo = heavy_memo(ctx)
    cg = unit_capacities(g)

    def heavy(v: int) -> bool:
        if not memo[v]:
            flow = bounded_vertex_maxflow(cg, (v,), ctx.x_set, k_prime, cut_sinks=True)
            memo[v] = 1 + (flow.value == EXCEEDS_BOUND)
        return memo[v] == 2

    # g plus the super source, for every color function to extend
    with_s = with_new_vertices(g, [ctx.x_set], (1,) * g.n + (INF,))
    h_adj = h.adj_masks()
    for f in family:
        if ctx.x_set and (pending is None or pending in q_set):
            pending = next((t for t in untested if t not in q_set
                            and not heavy(t)), None)
            if pending is None:
                break
        color1 = [local for local in range(len(ids)) if f[local] == 1]
        if not color1:
            continue
        # one super sink per torso component of the color-1 terminals,
        # joined to the component and its color-2 torso neighborhood
        color2 = set_to_mask(local for local in range(len(ids)) if f[local] == 2)
        comps = components_masks(h, ((1 << len(ids)) - 1) & ~set_to_mask(color1))
        attach, heavy_sinks = [], set()
        for sink, comp in enumerate(comps, start=g.n + 1):
            reach = comp
            for u in mask_to_set(comp):
                reach |= h_adj[u] & color2
            attach.append([ids[u] for u in mask_to_set(reach)])
            if any(heavy(ids[u]) for u in mask_to_set(comp)):
                heavy_sinks.add(sink)
        sink_ids = list(range(g.n + 1, g.n + 1 + len(comps)))
        # X vertices stay at capacity 1 even when colored 1: they may appear
        # in separators (the cut still keeps X inside R), and an infinite X
        # vertex next to the super source would make mincuts unbounded
        caps = list(with_s.capacity)
        for local in color1:
            if ids[local] not in ctx.x_set:
                caps[ids[local]] = INF
        cover, _captured = single_source_mincut_cover(
            with_new_vertices(with_s.base, attach, caps + [INF] * len(comps)),
            g.n, sink_ids, k_prime, rng, heavy=heavy_sinks,
        )
        for coll in cover.collections:
            projs = (VertexCut(c.L & g_vertices, c.R & g_vertices) for c in coll)
            mapped = [c for c in projs if c.is_valid(g) and is_witness(ctx, c)]
            if mapped:
                kept.append(mapped)
                q_set.update(t for cut in mapped for t in cut.left_only & ctx.t_set)

    # every witness cuts off a terminal: max() keeps the first best collection
    best_raw = max(
        kept,
        key=lambda coll: sum(len(cut.left_only & ctx.t_set) for cut in coll),
        default=[],
    )
    # greedily absorb cuts from the other collections while the merged
    # family stays pairwise disjoint; every member is still a witness, so
    # carving along the merged family removes more terminals per round. A
    # cut is disjoint from every merged one, both ways, iff its L\R misses
    # the union of their L and its L misses the union of their L\R
    merged = list(best_raw)
    union_l = set().union(*(cut.L for cut in merged))
    union_left_only = set().union(*(cut.left_only for cut in merged))
    for coll in kept:
        if coll is best_raw:
            continue
        for cut in coll:
            left_only = cut.left_only
            if left_only.isdisjoint(union_l) and cut.L.isdisjoint(union_left_only):
                merged.append(cut)
                union_l |= cut.L
                union_left_only |= left_only
    best = make_lean(ctx, merged) if merged else []
    return frozenset(q_set), best
