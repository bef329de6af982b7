"""Minimum p-Way Cut by DP over an unbreakable tree decomposition: exact on
small bags, one-sided color coding plus a component-flip DP on large ones."""

from __future__ import annotations

import dataclasses
import random
import sys
from itertools import accumulate, combinations
from math import comb
from typing import Dict, List, Optional, Sequence, Tuple

from . import config
from .carving import color_family_general
from .core import Graph, connected_components
from .decomp import (
    RootedTreeDecomposition,
    VARIANT_STANDARD,
    decompose,
    variant_parameters,
)


@dataclasses.dataclass(frozen=True)
class PwayResult:
    """Decision and valuation for one Minimum p-Way Cut query."""

    p: int
    k: int
    feasible: bool
    cost: Optional[int]
    seed: Optional[int] = None

    def to_json_dict(self) -> dict:
        return dataclasses.asdict(self)


def _submasks(m: int) -> List[int]:
    """All submasks of m, descending, ending with 0."""
    out = []
    s = m
    while True:
        out.append(s)
        if s == 0:
            return out
        s = (s - 1) & m


class _Node:
    """Precomputed per-node bag structure used by both entry regimes, and
    the exact regime's search plans, which do not depend on f."""

    __slots__ = ("bag", "adh_local", "children", "cost_edges", "units",
                 "spans", "plan", "loose")

    def __init__(self, g: Graph, deco: RootedTreeDecomposition, t: int):
        self.bag: Tuple[int, ...] = tuple(sorted(deco.bag(t)))
        pos = {v: i for i, v in enumerate(self.bag)}
        adh = sorted(deco.adhesion_set(t))
        self.adh_local: Tuple[int, ...] = tuple(pos[v] for v in adh)
        adh_set = set(adh)
        self.cost_edges: List[Tuple[int, int]] = [
            (pos[u], pos[v])
            for u in self.bag
            for v in g.adj[u]
            if u < v and v in pos
            and not (u in adh_set and v in adh_set)
        ]
        # children as (child id, local indices inside this bag of the
        # child's adhesion, in sorted order)
        self.children: List[Tuple[int, Tuple[int, ...]]] = [
            (c, tuple(pos[v] for v in sorted(deco.adhesion_set(c))))
            for c in deco.nodes[t].children]
        # breakable units: the bag edges and the multi-vertex child
        # adhesions; a coloring of cost <= k crosses at most k of them
        splittable = [adh_l for _, adh_l in self.children if len(adh_l) >= 2]
        self.units = len(self.cost_edges) + len(splittable)
        # the child adhesions in one row, and each child's slice of it
        flat = tuple(l for _, adh_l in self.children for l in adh_l)
        ends = list(accumulate([len(adh_l) for _, adh_l in self.children],
                               initial=0))
        self.spans = list(zip(ends, ends[1:]))
        # the bag in parts: breadth-first from the adhesion over the cost
        # edges, then breadth-first from each unreached vertex in turn, so
        # that most vertices have a neighbour before them
        nbrs: List[List[int]] = [[] for _ in self.bag]
        for a, b in self.cost_edges:
            nbrs[a].append(b)
            nbrs[b].append(a)
        placed, parts = set(), []
        for roots in [self.adh_local] + [(v,) for v in range(len(self.bag))]:
            part = [v for v in roots if v not in placed]
            placed.update(part)
            for v in part:  # the loop reaches the vertices it appends
                for u in nbrs[v]:
                    if u not in placed:
                        placed.add(u)
                        part.append(u)
            parts.append(part)
        rank = {v: i for i, v in enumerate(v for part in parts for v in part)}

        def plan(order, closing, flat):
            # the vertices to color in order, the neighbours before each,
            # per step the multi-vertex child adhesions it completes (step
            # 0 colors the adhesion, step i + 1 order[i]), and `flat`
            return (order, [tuple([u for u in nbrs[v] if rank[u] < rank[v]])
                            for v in order], closing, flat)

        # a later part that meets no child adhesion is a whole component of
        # G, with a plan of its own
        order = parts[0][len(self.adh_local):]
        self.loose = []
        for part in filter(None, parts[1:]):
            if set(flat).isdisjoint(part):
                self.loose.append(plan(part, [()] * (len(part) + 1), ()))
            else:
                order += part
        step = dict.fromkeys(self.adh_local, 0)
        step.update((v, i + 1) for i, v in enumerate(order))
        closing: List[List[Tuple[int, ...]]] = [[] for _ in range(len(order) + 1)]
        for adh_l in splittable:
            closing[max(step[l] for l in adh_l)].append(adh_l)
        self.plan = plan(order, closing, flat)


class PwayCutSolver:
    """Demand-driven evaluation of the table M over one decomposition.

    M[t, f, I] is the minimum cost (number of bichromatic edges) of a
    p-coloring of the subtree graph G_t that respects the adhesion coloring
    f, uses every color of I somewhere in G_t, and costs at most k; values
    saturate at k+1 (infeasible). f is a tuple of colors (1..p) aligned with
    the sorted adhesion set of t; I is a bitmask with bit c-1 for color c.
    `vectors` holds the full vector over all 2^p masks per demanded (t, f)
    and per canonical (t, f) computed for one.

    The table is symmetric in the colors: for every permutation pi of 1..p,
    M[t, pi(f), pi(I)] = M[t, f, I], since the bag cost depends only on
    which endpoints differ in color, and the children are symmetric by
    induction. So only the canonical coloring of each class is computed,
    the one whose colors are numbered by first occurrence in f ((3, 1, 3)
    becomes (1, 2, 1)); any other f is its canonical vector with the masks
    permuted, stored under f's own key. The exact regime's search
    (`_search`) uses the same symmetry, restricted to the colors f does not
    use, to color the bag up to a permutation of those colors."""

    def __init__(
        self, g: Graph, deco: RootedTreeDecomposition, p: int, k: int,
        epsilon, rng,
    ):
        self.g = g
        self.p = p
        self.k = k
        self.rng = rng
        self.inf = k + 1
        self.full = (1 << p) - 1
        # the coded regime's color budgets, from the bounds of STANDARD:
        # q per non-heavy class, q k sigma for the heavy vertices next to
        # crossing edges and adhesions
        params = variant_parameters(k, epsilon)[VARIANT_STANDARD]
        q = params["q_bound"]
        self.budgets = [q] * (p - 1) + [q * k * params["adhesion_bound"]]
        self.vectors: Dict[Tuple[int, Tuple[int, ...]], Tuple[int, ...]] = {}
        self.info = [_Node(g, deco, t) for t in range(len(deco.nodes))]
        self.submasks = [_submasks(m) for m in range(self.full + 1)]
        self.popcount = [bin(m).count("1") for m in range(self.full + 1)]
        # the unit of `_merge`: nothing required costs 0
        self.unit = (0,) + (self.inf,) * self.full
        # per node, profile prefix -> `_chain` vector, once it goes exact
        self.chains: List[Optional[Dict[Tuple, Tuple[int, ...]]]] = [
            None] * len(self.info)
        # per node, the flip DP's auxiliary graph, built on first use
        self.aux: Dict[int, Graph] = {}

    # ---- public entry -------------------------------------------------

    def entry(self, t: int, f: Tuple[int, ...], imask: int) -> int:
        """M[t, f, imask], saturating at k+1."""
        return self.vector(t, f)[imask]

    def vector(self, t: int, f: Tuple[int, ...]) -> Tuple[int, ...]:
        """M[t, f, .] over all masks, computed on first demand: the
        canonical coloring's vector, read through the relabeling."""
        vec = self.vectors.get((t, f))
        if vec is None:
            canon, image = self._canonical(f)
            if canon == f:
                vec = self._compute_vector(t, f)
            else:
                base = self.vector(t, canon)
                vec = tuple([base[m] for m in image])
            self.vectors[(t, f)] = vec
        return vec

    def _canonical(self, f: Tuple[int, ...]) -> Tuple[Tuple[int, ...], List[int]]:
        """f with its colors numbered by first occurrence, and the image of
        every mask under that relabeling (the colors f does not use keep
        their order after the ones it does)."""
        relabel: Dict[int, int] = {}
        for col in f + tuple(range(1, self.p + 1)):
            relabel.setdefault(col, len(relabel) + 1)
        return tuple(relabel[col] for col in f), self._mask_image(relabel)

    def _mask_image(self, relabel) -> List[int]:
        """The image of every mask when each color c becomes relabel[c]."""
        image = [0]
        for col in range(1, self.p + 1):
            bit = 1 << (relabel[col] - 1)
            image += [m | bit for m in image]
        return image

    # ---- regime dispatch ----------------------------------------------

    def _compute_vector(self, t: int, f: Tuple[int, ...]) -> Tuple[int, ...]:
        info = self.info[t]
        subsets = sum(comb(info.units, i) for i in range(min(self.k, info.units) + 1))
        if (len(info.bag) <= config.PWAY_EXACT_BAG_LIMIT
                and subsets <= config.PWAY_EXACT_SUBSET_LIMIT):
            return self._exact_vector(t, f)
        return self._coded_vector(t, f)

    # ---- child merges (shared) -----------------------------------------

    def _merge(self, a: Sequence[int], b: Sequence[int]) -> List[int]:
        """Saturating min-plus subset convolution: per mask m, the minimum
        of a[s] + b[m ^ s] over the submasks s of m, so the colors of m are
        split between the two parts; infeasible entries of `a` are skipped
        and every value saturates at k+1."""
        inf = self.inf
        out = []
        for m, subs in enumerate(self.submasks):
            best = inf
            for s in subs:
                cost = a[s]
                if cost < inf:
                    cand = cost + b[m ^ s]
                    if cand < best:
                        best = cand
            out.append(best)
        return out

    def _chain(self, t: int, profile: tuple) -> Tuple[int, ...]:
        """Minimum total cost of node t's first len(profile) children per
        required-color mask, child i with adhesion coloring profile[i]; the
        fold starts from the longest memoized prefix and memoizes each
        longer one, so a node with many children needs no deep recursion."""
        chains = self.chains[t]
        d = chains.get(profile)
        if d is None:
            done = len(profile) - 1
            while profile[:done] not in chains:
                done -= 1
            d = chains[profile[:done]]
            for i in range(done, len(profile)):
                c = self.info[t].children[i][0]
                d = self._merge(self.vector(c, profile[i]), d)
                d = chains[profile[:i + 1]] = tuple(d)
        return d

    # ---- exact regime ---------------------------------------------------

    def _exact_vector(self, t: int, f: Tuple[int, ...]) -> Tuple[int, ...]:
        """Exact M[t, f, .]: the adhesion colored by f, the rest of the bag
        by `_search`, then per group of colorings the children's chain
        (`_chain`, built after the search) folded in, and per mask the
        minimum over its orbit (the masks with the same colors of f and as
        many other colors), as the search keeps one coloring per orbit."""
        info, inf = self.info[t], self.inf
        color = [0] * len(info.bag)
        fmask = 0
        for l, col in zip(info.adh_local, f):
            color[l] = col
            fmask |= 1 << (col - 1)
        if self.chains[t] is None:
            # the bag's whole components of G realize as many colors as they
            # have color classes: most[j] is their cheapest coloring with j
            # classes (p or more at p), and the node's chains start from it
            p, count = self.p, self.popcount
            most = [0] + [inf] * p
            for plan in info.loose:
                found = self._search(plan, color, 0).items()
                most = [min([inf] + [
                    most[j] + c for j in range(p + 1) for (_, got), c in found
                    if min(j + count[got], p) == x]) for x in range(p + 1)]
            self.chains[t] = {(): tuple([min(most[n:]) for n in count])}
        vec = [inf] * (self.full + 1)
        for (row, got), cost in self._search(info.plan, color, fmask).items():
            d = self._chain(t, tuple([row[a:b] for a, b in info.spans]))
            for imask in range(self.full + 1):
                cand = cost + d[imask & ~got]
                if cand < vec[imask]:
                    vec[imask] = cand
        for orbit in self._orbits(fmask):
            best = min([vec[m] for m in orbit])
            for m in orbit:
                vec[m] = best
        return tuple(vec)

    def _search(self, plan, color: List[int], fmask: int) -> Dict[Tuple, int]:
        """Per (colors of the child adhesions, realized mask), the minimum
        cost of a coloring of the plan's vertices that extends `color` (the
        adhesion, colored fmask), by one pruned depth-first search.

        `cost` counts the bichromatic cost edges; `cross` adds the split
        multi-vertex child adhesions, and a branch ends once `cross` tops
        k. That loses nothing: decompose builds each child from a connected
        component and its neighbourhood, so a split child costs 1 or more.
        Permuting the colors outside fmask (the free colors) keeps the cost,
        so a vertex takes a color of fmask, a free color in use, or the next
        unused one: one coloring per orbit."""
        order, earlier, closing, flat = plan
        k, inf = self.k, self.inf
        colors = range(1, self.p + 1)
        shared = [c for c in colors if fmask >> (c - 1) & 1]
        free = [c for c in colors if not fmask >> (c - 1) & 1]
        # with `used` free colors in use: each color to take, and the count
        choices = [[(c, used) for c in shared + free[:used]]
                   + [(c, used + 1) for c in free[used:used + 1]]
                   for used in range(len(free) + 1)]
        last = len(order)
        # (child adhesion colors, free colors used) -> minimum cost
        groups: Dict[Tuple, int] = {}

        def search(i: int, cost: int, cross: int, used: int) -> None:
            if i == last:
                key = (tuple([color[l] for l in flat]), used)
                if cost < groups.get(key, inf):
                    groups[key] = cost
                return
            v, before, shut = order[i], earlier[i], closing[i + 1]
            for col, now in choices[used]:
                split = 0
                for u in before:
                    if color[u] != col:
                        split += 1
                x = cross + split
                if x > k:
                    continue
                color[v] = col
                for adh_l in shut:
                    x += len({color[l] for l in adh_l}) > 1
                if x <= k:
                    search(i + 1, cost + split, x, now)

        cross = sum(len({color[l] for l in adh_l}) > 1 for adh_l in closing[0])
        if cross <= k:
            search(0, 0, cross, 0)
        realized = [fmask | sum(1 << (c - 1) for c in free[:used])
                    for used in range(len(free) + 1)]
        return {(row, realized[used]): cost
                for (row, used), cost in groups.items()}

    def _orbits(self, fmask: int) -> List[List[int]]:
        """The masks grouped by their colors in fmask and their number of
        other colors, keeping only the groups of two or more."""
        classes: Dict[Tuple[int, int], List[int]] = {}
        for m in range(self.full + 1):
            classes.setdefault((m & fmask, self.popcount[m & ~fmask]), []).append(m)
        return [o for o in classes.values() if len(o) > 1]

    # ---- color-coding regime ---------------------------------------------

    def _coded_vector(self, t: int, f: Tuple[int, ...]) -> Tuple[int, ...]:
        """M[t, f, .] by color coding: guess the heavy color, draw a random
        hitting family of bag colorings, and for each one run the
        component-flip DP. No entry comes out too low, but a family (at most
        config.FAMILY_SIZE_LIMIT colorings) that misses every optimal
        coloring leaves its entry too high, or infeasible."""
        p, inf = self.p, self.inf
        vec = [inf] * (self.full + 1)
        for c in range(1, p + 1):
            # relabel so the guessed heavy color becomes p
            perm = list(range(p + 1))
            perm[c], perm[p] = p, c
            f_rel = tuple(perm[x] for x in f)
            sub = self._coded_guess_vector(t, f_rel)
            vec = [min(old, sub[rel])
                   for old, rel in zip(vec, self._mask_image(perm))]
        return tuple(vec)

    def _coded_guess_vector(self, t: int, f_rel: Tuple[int, ...]) -> List[int]:
        info = self.info[t]
        p, inf = self.p, self.inf
        universe = len(info.bag)
        if universe == 0:
            return list(self._exact_vector(t, f_rel))
        # color_family_general caps each budget at the bag's size
        family = color_family_general(
            universe, self.budgets, max(self.g.n, 2), self.rng
        )
        vec = [inf] * (self.full + 1)
        pbit = 1 << (p - 1)
        for base in family:
            gp = list(base)
            for local, col in zip(info.adh_local, f_rel):
                gp[local] = col
            if p not in gp:
                continue  # the heavy color must appear in the bag
            flip_vec = self._flip_vector(t, gp)
            for imask in range(self.full + 1):
                # the heavy color is realized by the bag itself
                cand = flip_vec[imask & ~pbit]
                if cand < vec[imask]:
                    vec[imask] = cand
        return vec

    def _flip_vector(self, t: int, gp: List[int]) -> List[int]:
        """Given a candidate bag coloring gp (heavy color = p), decide which
        connected components of the non-heavy part to flip back to p, by DP;
        returns the minimum cost per required-color mask over colors < p."""
        info = self.info[t]
        p, inf = self.p, self.inf
        nb = len(info.bag)
        aux = self.aux.get(t)
        if aux is None:
            # bag cost edges plus a clique per child adhesion
            aux = self.aux[t] = Graph(nb, info.cost_edges + [
                pair for _, adh_l in info.children
                for pair in combinations(adh_l, 2)
            ])
        comps = connected_components(aux, [l for l in range(nb) if gp[l] == p])
        comp_of = {l: i for i, comp in enumerate(comps) for l in comp}

        attached: List[List[int]] = [[] for _ in comps]
        group0: List[int] = []
        for ci, (_, adh_l) in enumerate(info.children):
            hits = {comp_of[l] for l in adh_l if l in comp_of}
            # each child adhesion is a clique here, so it meets at most one
            # component of the non-heavy part
            assert len(hits) <= 1, "child adhesion meets several components"
            if hits:
                attached[hits.pop()].append(ci)
            else:
                group0.append(ci)

        # keeping a component's colors pays its bichromatic edges: those
        # inside it and all that leave it (their other end is heavy)
        keep_cost = [0] * len(comps)
        for a, b in info.cost_edges:
            if gp[a] != gp[b]:
                keep_cost[comp_of[a] if a in comp_of else comp_of[b]] += 1

        row = self.unit
        for ci in group0:
            cid, adh_l = info.children[ci]
            row = self._merge(self.vector(cid, (p,) * len(adh_l)), row)
        # per mask, the minimum cost so far with the last component flipped
        # to the heavy color, and with it keeping its colors
        flipped = stayed = row
        for i, comp in enumerate(comps):
            colors = 0
            for l in comp:
                colors |= 1 << (gp[l] - 1)
            best = [min(x, y) for x, y in zip(flipped, stayed)]
            # a component that meets the adhesion keeps the colors f gave it
            forced = not comp.isdisjoint(info.adh_local)
            flipped = [inf] * (self.full + 1) if forced else best
            stayed = [min(best[m & ~colors] + keep_cost[i], inf)
                      for m in range(self.full + 1)]
            for ci in attached[i]:
                cid, adh_l = info.children[ci]
                if not forced:
                    flipped = self._merge(
                        self.vector(cid, (p,) * len(adh_l)), flipped
                    )
                stayed = self._merge(
                    self.vector(cid, tuple(gp[l] for l in adh_l)), stayed
                )
        return [min(x, y) for x, y in zip(flipped, stayed)]


def min_pway_cut(
    g: Graph,
    p: int,
    k: int,
    epsilon=1,
    rng=None,
    seed: Optional[int] = None,
) -> PwayResult:
    """Decide whether deleting at most k edges can split g into at least p
    connected components, and if so return the minimum number of deletions.

    Runs the tree-decomposition DP; the minimum p-way cut size equals the
    minimum cost of a p-coloring of V(g) that uses all p colors. p must be
    in 2..config.PWAY_P_LIMIT (10). Only bags within config.PWAY_EXACT_* are
    exact; larger ones go through color coding, whose error is one-sided: a
    cost can come out too high, or a feasible instance infeasible, but a
    cost never comes out too low."""
    if p < 2:
        raise ValueError("p must be at least 2")
    if p > config.PWAY_P_LIMIT:
        raise ValueError(f"p must be at most {config.PWAY_P_LIMIT}")
    if k < 0:
        raise ValueError("k must be nonnegative")
    if not 0 < epsilon <= 1:
        raise ValueError("epsilon must be in (0, 1]")
    ncomp = len(connected_components(g))
    if ncomp >= p:
        return PwayResult(p, k, True, 0, seed)
    if p > k + ncomp:
        # deleting one edge adds at most one component
        return PwayResult(p, k, False, None, seed)
    if rng is None:
        rng = random.Random(seed)
    deco, _report = decompose(g, k, epsilon, VARIANT_STANDARD, rng=rng, seed=seed)
    solver = PwayCutSolver(g, deco, p, k, epsilon, rng)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 6 * len(deco.nodes) + 1000))
    try:
        cost = solver.entry(deco.root, (), solver.full)
    finally:
        sys.setrecursionlimit(limit)
    if cost <= k:
        return PwayResult(p, k, True, cost, seed)
    return PwayResult(p, k, False, None, seed)
