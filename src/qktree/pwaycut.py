"""Minimum p-Way Cut by DP over an unbreakable tree decomposition: exact on
small bags, one-sided color coding plus a component-flip DP on large ones."""

from __future__ import annotations

import dataclasses
import random
import sys
from itertools import combinations
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
    """Precomputed per-node bag structure used by both entry regimes."""

    __slots__ = ("bag", "adh_local", "children", "cost_edges", "units")

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
        self.children: List[Tuple[int, Tuple[int, ...]]] = []
        for c in deco.nodes[t].children:
            c_adh = tuple(sorted(deco.adhesion_set(c)))
            self.children.append((c, tuple(pos[v] for v in c_adh)))
        # breakable units as vertex tuples, bag edges first, then the
        # multi-vertex child adhesions; a coloring of cost <= k crosses at
        # most k of them in total
        self.units: List[Tuple[int, ...]] = list(self.cost_edges) + [
            adh_l for _, adh_l in self.children if len(adh_l) >= 2
        ]


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
    permuted, stored under f's own key. Inside `_exact_vector` the same
    symmetry, restricted to the colors f does not use, cuts the colorings
    to enumerate."""

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
        # absorb[free][m] is 0 when `free` unconstrained components can take
        # the colors of m, else k+1; absorb[0] is the unit of `_merge`
        self.absorb = [
            tuple(0 if c <= free else self.inf for c in self.popcount)
            for free in range(p + 1)
        ]
        # per node, built on first use by the exact regime
        self.shapes: List[Optional[List[tuple]]] = [None] * len(self.info)
        # per node, (profile prefix, free) -> `_chain` vector
        self.chains: List[Dict[Tuple, Tuple[int, ...]]] = [
            {((), 0): self.absorb[0]} for _ in self.info]
        # (components, colors of f as a mask) -> colorings up to free colors
        self.colorings: Dict[Tuple[int, int], List[Tuple[int, ...]]] = {}
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
        units = len(info.units)
        subsets = sum(comb(units, i) for i in range(min(self.k, units) + 1))
        if (
            len(info.bag) <= config.PWAY_EXACT_BAG_LIMIT
            and subsets <= config.PWAY_EXACT_SUBSET_LIMIT
        ):
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

    def _chain(self, t: int, profile: tuple, free: int) -> Tuple[int, ...]:
        """Minimum total cost of node t's first len(profile) children per
        required-color mask, child i with adhesion coloring profile[i] and
        `free` unconstrained bag components each realizing one color; the
        fold starts from the longest memoized prefix and memoizes each
        longer one, so a node with many children needs no deep recursion."""
        chains = self.chains[t]
        d = chains.get((profile, free))
        if d is None and free:
            d = self._merge(self.absorb[free], self._chain(t, profile, 0))
            d = chains[(profile, free)] = tuple(d)
        elif d is None:
            done = len(profile) - 1
            while (profile[:done], 0) not in chains:
                done -= 1
            d = chains[(profile[:done], 0)]
            for i in range(done, len(profile)):
                c = self.info[t].children[i][0]
                d = self._merge(self.vector(c, profile[i]), d)
                d = chains[(profile[:i + 1], 0)] = tuple(d)
        return d

    # ---- exact regime ---------------------------------------------------

    def _node_shapes(self, t: int) -> List[tuple]:
        """The crossing shapes of node t, built on first use: one per set of
        at most k crossing units in which every crossing unit separates its
        own vertices. A shape is (component of each adhesion vertex,
        component count, sorted components whose color matters: ends of
        crossing edges and child-adhesion components, crossing edges as
        component pairs, components of each child adhesion); components are
        numbered by their smallest bag vertex."""
        shapes = self.shapes[t]
        if shapes is not None:
            return shapes
        info = self.info[t]
        nb = len(info.bag)
        units = info.units
        n_edges = len(info.cost_edges)
        child_adh = [adh_l for _, adh_l in info.children]
        shapes = []
        parent: List[int] = []

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for r in range(min(self.k, len(units)) + 1):
            for subset in combinations(range(len(units)), r):
                parent = list(range(nb))
                broken = set(subset)
                for ui, verts in enumerate(units):
                    if ui not in broken:
                        a = find(verts[0])
                        for b in verts[1:]:
                            parent[find(b)] = a
                comp_of = [0] * nb
                comp_ids: Dict[int, int] = {}
                for v in range(nb):
                    comp_of[v] = comp_ids.setdefault(find(v), len(comp_ids))
                # a crossing unit left inside one component separates nothing
                if any(
                    all(comp_of[x] == comp_of[units[ui][0]] for x in units[ui])
                    for ui in subset
                ):
                    continue
                broken_edges = tuple(
                    (comp_of[units[ui][0]], comp_of[units[ui][1]])
                    for ui in subset if ui < n_edges
                )
                coupled = {c for pair in broken_edges for c in pair}
                child_comps = tuple(
                    tuple(comp_of[l] for l in adh_l) for adh_l in child_adh
                )
                for comps in child_comps:
                    coupled.update(comps)
                shapes.append((
                    tuple(comp_of[l] for l in info.adh_local),
                    len(comp_ids),
                    sorted(coupled),
                    broken_edges,
                    child_comps,
                ))
        self.shapes[t] = shapes
        return shapes

    def _exact_vector(self, t: int, f: Tuple[int, ...]) -> Tuple[int, ...]:
        """Exact M[t, f, .] by enumerating every possible set of crossing
        bag edges and crossing child adhesions (at most k of them), the
        components they leave, and all colorings constant on those
        components.

        The crossing sets and the components they leave do not depend on f,
        so they are built once per node (`_node_shapes`), as are the child
        chains per restriction profile and count of free components
        (`_chain`, which also gives the colors the bag leaves unrealized to
        those components); per f only the adhesion conflict check and the
        colorings remain. A set in which some crossing unit keeps all its
        vertices in one component is skipped: the same set without that unit
        leaves the same components, and each of its groups has the same bag
        cost and profile and at least as many free components, so it matches
        or beats the skipped group for every mask and the vector is
        unchanged.

        Every component meeting the adhesion takes a color of f, so a
        permutation of the colors f does not use (the free colors) maps the
        colorings of one crossing set onto each other, with equal bag cost
        and permuted profile, realized mask and chain. Only the colorings
        that use the free colors in increasing order of first use are
        enumerated, and each mask then takes the minimum over its orbit:
        the masks with the same colors of f and as many free colors."""
        info = self.info[t]
        p, inf = self.p, self.inf
        fmask = 0
        for col in f:
            fmask |= 1 << (col - 1)

        # (child restriction profile, realized mask, free slots) -> min cost
        groups: Dict[Tuple, int] = {}

        for adh_comp, ncomp, coupled, broken_edges, child_comps in (
            self._node_shapes(t)
        ):
            forced_comp: Dict[int, int] = {}
            conflict = False
            for c, col in zip(adh_comp, f):
                if forced_comp.setdefault(c, col) != col:
                    conflict = True
                    break
            if conflict:
                continue

            enum_comps = [c for c in coupled if c not in forced_comp]
            free = min(ncomp - len(forced_comp) - len(enum_comps), p)
            color = [0] * ncomp
            base_realized = 0
            for c, col in forced_comp.items():
                color[c] = col
                base_realized |= 1 << (col - 1)

            # at most k crossing edges, so every coloring costs at most k
            for phi in self._colorings(len(enum_comps), fmask):
                realized = base_realized
                for c, col in zip(enum_comps, phi):
                    color[c] = col
                    realized |= 1 << (col - 1)
                bagcost = 0
                for ca, cb in broken_edges:
                    if color[ca] != color[cb]:
                        bagcost += 1
                profile = tuple(
                    tuple(color[c] for c in comps) for comps in child_comps
                )
                key = (profile, realized, free)
                old = groups.get(key)
                if old is None or bagcost < old:
                    groups[key] = bagcost

        vec = [inf] * (self.full + 1)
        for (profile, realized, free), bagcost in groups.items():
            d = self._chain(t, profile, free)
            for imask in range(self.full + 1):
                cand = bagcost + d[imask & ~realized]
                if cand < vec[imask]:
                    vec[imask] = cand
        for orbit in self._orbits(fmask):
            best = min([vec[m] for m in orbit])
            for m in orbit:
                vec[m] = best
        return tuple(vec)

    def _colorings(self, n: int, fmask: int) -> List[Tuple[int, ...]]:
        """Colorings of n components up to a permutation of the free colors
        (those not in fmask): every color of fmask, and the free colors as
        restricted-growth strings, each new one the smallest unused."""
        out = self.colorings.get((n, fmask))
        if out is None:
            colors = range(1, self.p + 1)
            forced = [c for c in colors if fmask >> (c - 1) & 1]
            free = [c for c in colors if not fmask >> (c - 1) & 1]
            rows: List[Tuple[Tuple[int, ...], int]] = [((), 0)]
            for _ in range(n):
                nxt = []
                for phi, used in rows:
                    for col in forced + free[:used]:
                        nxt.append((phi + (col,), used))
                    if used < len(free):
                        nxt.append((phi + (free[used],), used + 1))
                rows = nxt
            out = self.colorings[(n, fmask)] = [phi for phi, _ in rows]
        return out

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

        row = self.absorb[0]
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
    sys.setrecursionlimit(
        max(sys.getrecursionlimit(), 6 * len(deco.nodes) + 1000)
    )
    cost = solver.entry(deco.root, (), solver.full)
    if cost <= k:
        return PwayResult(p, k, True, cost, seed)
    return PwayResult(p, k, False, None, seed)
