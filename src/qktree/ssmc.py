"""Single-source vertex mincut covers of bounded width."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import AbstractSet, FrozenSet, Iterable, List, Tuple

from .core import VertexCut
from .flow import (
    EXCEEDS_BOUND,
    INF,
    CapacitatedGraph,
    PreconditionError,
    bounded_vertex_maxflow,
)
from .isolating import pairwise_disjoint

CutCollection = List[VertexCut]


@dataclass
class MincutCover:
    """Cut collections, each a family of pairwise-disjoint t-s mincuts."""

    collections: List[CutCollection] = field(default_factory=list)

    @property
    def width(self) -> int:
        return len(self.collections)

    def all_cuts(self) -> List[VertexCut]:
        return [cut for coll in self.collections for cut in coll]


def _cuts_by_size(
    cg: CapacitatedGraph, s: int, sampled: List[int], k: int, light_cut: dict
) -> dict:
    """The isolating cuts of capacity <= k for the sampled sinks against
    each other and the source, grouped by size, in the order of `sampled`.

    Each is the source-minimal mincut of its sink t against the other
    terminals. These coincide with the localized isolating construction
    (each minimal side lies inside its terminal's residual component), and
    bounding the flow at k is free since only cuts of size <= k are used.
    When t's minimal t-s mincut already leaves every other terminal outside
    L, no flow is run: adding sinks cannot lower the flow value, so that cut
    is a mincut against all terminals, and every such mincut is a t-s
    mincut whose source side contains it, so it is also the minimal one.
    """
    term_set = frozenset(sampled) | {s}
    iso = {}
    for t in sampled:
        others = term_set - {t}
        cut = light_cut[t]
        if not cut.L.isdisjoint(others):
            res = bounded_vertex_maxflow(cg, {t}, others, bound=k)
            if res.value == EXCEEDS_BOUND:
                continue
            cut = res.mincut
        iso[t] = cut
    # These minimal cuts are pairwise ordered-disjoint, because the terminals
    # are independent and never cut. For terminals a != b, let A be the
    # minimal side L\R of a's cut and C the side R\L of b's. By
    # submodularity of X -> c(N(X)), c(N(A & C)) + c(N(A | C)) is at most
    # lambda_a + lambda_b. A | C holds every terminal but b and its
    # neighborhood avoids b, so c(N(A | C)) >= lambda_b and
    # c(N(A & C)) <= lambda_a: A & C is a minimum a-isolating set as well.
    # A is the least one, so A lies in C and misses L_b.
    assert pairwise_disjoint(iso.values())
    by_size: dict = {}
    for cut in iso.values():  # in the order of `sampled`
        by_size.setdefault(cut.size, []).append(cut)
    return by_size


def single_source_mincut_cover(
    cg: CapacitatedGraph,
    s: int,
    sinks: Iterable[int],
    k: int,
    rng,
    heavy: AbstractSet[int] = frozenset(),
) -> Tuple[MincutCover, FrozenSet[int]]:
    """Mincut cover for all sinks within vertex connectivity k of the source.

    Returns (cover, captured) where captured collects the sinks t with
    lambda(t, s) <= k. The error is one-sided: captured is a subset of
    those sinks, since each captured sink lies in L\\R of a t-s cut of
    capacity at most k, and such a sink is missed only when no sampled sink
    set (drawn by the seeded rng) isolates it. Every stored cut is a t-s
    mincut for some captured sink t with t in L\\R; each collection holds
    pairwise disjoint cuts and appears once. A level k' below the size of
    every remaining sink's cuts draws no random number.

    `heavy` names sinks known to have lambda(t, s) > k: the pre-filter
    drops them without a flow, as its flow would. The caller vouches for
    it; a sink named wrongly is never captured. With it empty every sink
    gets its flow, and the output and the random draws are the same
    either way.
    """
    g = cg.base
    sink_set = frozenset(sinks)
    sink_list = sorted(sink_set)
    if k < 0:
        raise ValueError("k must be nonnegative")
    if s in sink_list:
        raise PreconditionError("PRECONDITION_OVERLAP", "source cannot be a sink")
    for t in sink_list:
        if g.has_edge(s, t):
            raise PreconditionError(
                "PRECONDITION_INDEPENDENCE", f"sink {t} is adjacent to the source"
            )
    for a_i, a in enumerate(sink_list):
        for b in sink_list[a_i + 1:]:
            if g.has_edge(a, b):
                raise PreconditionError(
                    "PRECONDITION_INDEPENDENCE", f"sinks {a} and {b} are adjacent"
                )
    log = max(1, math.ceil(math.log2(max(g.n, 2))))
    # more middle-loop rounds captured nothing more on any tested instance
    mid_reps = log * log
    scales = max(1, math.floor(math.log2(max(g.n, 2)))) + 1

    gamma: set = set()
    cover = MincutCover()
    # the isolating cuts are deterministic in the sampled set, and small
    # sampled sets recur constantly across repetitions; memoize per call
    iso_cache: dict = {}
    seen: set = set()  # collections in the cover; a repeat adds nothing

    # a cut of size k' <= k isolating a sink certifies lambda(t, s) <= k, so
    # sinks above that connectivity can never be captured; drop them from
    # the sampling pool up front (one k-bounded flow each, none for a sink
    # named heavy), keeping each remaining sink's source-minimal t-s mincut
    light: List[int] = []
    light_cut: dict = {}
    # a sink cut off from the source has flow value 0, and its minimal cut
    # is its component; those cuts form one collection, by smallest member
    zero: dict = {}
    # a cut kept for t separates it from s and has capacity <= k, so its
    # capacity is at least lambda(t, s); with finite capacities at most
    # `top`, it has at least least[t] = ceil(lambda(t, s) / top) vertices
    top = max((c for c in cg.capacity if c != INF), default=1)
    least: dict = {}
    for t in sink_list:
        if t in gamma or t in heavy:
            continue  # cut off with an earlier sink's component, or heavy
        res = bounded_vertex_maxflow(cg, {t}, {s}, k)
        if res.value == 0:
            comp = res.mincut.L
            zero[min(comp)] = res.mincut
            gamma |= comp & sink_set
        elif res.value != EXCEEDS_BOUND:
            light.append(t)
            light_cut[t] = res.mincut
            least[t] = -(-res.value // top)
    if zero:
        cover.collections.append([zero[v] for v in sorted(zero)])

    for k_prime in range(1, k + 1):
        for _ in range(mid_reps):
            pool = [t for t in light if t not in gamma]  # fixed within a round
            if not pool:
                break  # gamma only grows: no later round draws or keeps anything
            if k_prime < min(least[t] for t in pool):
                # no sampled set yields a cut of size k_prime, so this round
                # and the rest of the level keep nothing and draw nothing
                break
            round_cuts: List[VertexCut] = []
            for i in range(scales):
                r = 1 << i
                sampled = [t for t in pool if rng.random() * r < 1.0]
                if not sampled:
                    continue
                key = tuple(sampled)  # ascending, like the pool
                by_size = iso_cache.get(key)
                if by_size is None:
                    by_size = iso_cache[key] = _cuts_by_size(
                        cg, s, sampled, k, light_cut
                    )
                coll = by_size.get(k_prime)
                if coll and frozenset(coll) not in seen:
                    seen.add(frozenset(coll))
                    cover.collections.append(list(coll))
                    round_cuts.extend(coll)
            for cut in round_cuts:
                gamma |= cut.left_only & (sink_set - gamma)
    return cover, frozenset(gamma)
