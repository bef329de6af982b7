"""Net sampling, exact unbreakability checking, and balanced unbreakable origins."""

from __future__ import annotations

import math
from itertools import combinations
from typing import FrozenSet, Iterable, List, Optional

from . import config
from .core import (
    Graph,
    SizeGuardError,
    VertexCut,
    components_masks,
    connected_components,
    is_connected,
    mask_to_set,
    set_to_mask,
)
from .flow import CapacitatedGraph, bounded_vertex_maxflow, unit_capacities, EXCEEDS_BOUND

UNBREAKABLE = "UNBREAKABLE"


def _split_counts(counts: List[int], lo: int, hi: int) -> Optional[List[int]]:
    """Indices of a subset of counts whose sum lies in [lo, hi], or None.

    lo >= 1 is assumed, so the chosen subset is nonempty and (because the
    complement's count is also positive) proper.
    """
    if hi < lo:
        return None
    # suffix_achieve[i] = bitset of sums formable from counts[i:]
    suffix = [1] * (len(counts) + 1)
    for i in range(len(counts) - 1, -1, -1):
        suffix[i] = suffix[i + 1] | (suffix[i + 1] << counts[i])
    window = ((1 << (hi - lo + 1)) - 1) << lo
    if not suffix[0] & window:
        return None
    # walk forward: keep target reachable from the remaining counts
    target = (suffix[0] & window).bit_length() - 1  # largest achievable in window
    chosen = []
    for i, c in enumerate(counts):
        if c <= target and (suffix[i + 1] >> (target - c)) & 1:
            chosen.append(i)
            target -= c
        if target == 0:
            break
    return chosen


def _lowest_bit(mask: int) -> int:
    return mask & -mask


def _removal_profile(g: Graph, smask: int):
    """What removing one more vertex does to g minus the masked vertices.

    One DFS forest over the remaining vertices, each tree rooted at its
    smallest vertex. Returns (comps, comp_of, pieces, count): the
    components as bitmasks ordered by smallest member, the index of each
    remaining vertex's component, for each remaining vertex w the subtrees
    of its DFS children that removing w cuts off (low >= disc[w]), and the
    number of components that removing w leaves.
    """
    adj = g.adj
    n = g.n
    alive = ((1 << n) - 1) & ~smask
    disc = [0] * n  # 0: not visited yet
    low = [0] * n
    sub = [0] * n
    pieces: List[List[int]] = [[] for _ in range(n)]
    comp_of = [-1] * n
    comps: List[int] = []
    roots = 0
    timer = 1
    rest = alive
    while rest:
        root = _lowest_bit(rest).bit_length() - 1
        roots |= 1 << root
        disc[root] = low[root] = timer
        timer += 1
        sub[root] = 1 << root
        comp_of[root] = len(comps)
        stack = [(root, -1, iter(adj[root]))]
        while stack:
            v, parent, it = stack[-1]
            for u in it:
                if not (alive >> u) & 1:
                    continue
                if not disc[u]:
                    disc[u] = low[u] = timer
                    timer += 1
                    sub[u] = 1 << u
                    comp_of[u] = len(comps)
                    stack.append((u, v, iter(adj[u])))
                    break
                if u != parent and disc[u] < low[v]:
                    low[v] = disc[u]
            else:
                stack.pop()
                if parent != -1:
                    sub[parent] |= sub[v]
                    if low[v] >= disc[parent]:
                        pieces[parent].append(sub[v])
                    if low[v] < low[parent]:
                        low[parent] = low[v]
        rest &= ~sub[root]
        comps.append(sub[root])
    # a non-root vertex also leaves the part of its tree that holds the
    # root; a root leaves only its child subtrees
    others = len(comps) - 1
    count = [
        others + len(cut_off) + (not (roots >> w) & 1)
        for w, cut_off in enumerate(pieces)
    ]
    return comps, comp_of, pieces, count


def _components_without(profile, w: int) -> List[int]:
    """Components of the profiled graph minus vertex w, as bitmasks
    ordered by smallest member (the order of components_masks)."""
    comps, comp_of, pieces, _count = profile
    i = comp_of[w]
    out = comps[:i] + comps[i + 1:] + pieces[w]
    rest = comps[i] & ~(1 << w)
    for piece in pieces[w]:
        rest &= ~piece
    if rest:
        out.append(rest)
    out.sort(key=_lowest_bit)
    return out


# Separator sizes that _disconnecting_separators reads off removal
# profiles; every larger candidate costs a component search of its own.
_PROFILED_SIZES = 3


def _disconnecting_separators(g: Graph, k: int):
    """Yields lazily every vertex set of size <= k whose removal leaves >= 2
    components, as (mask, components), ascending by (size, lexicographic
    members); a caller that stops early pays only for what it read.

    Sizes 1.._PROFILED_SIZES are read off one DFS forest of the graph minus
    each smaller prefix (its cut vertices, and the components they leave)
    rather than a component computation per candidate subset. Larger sizes
    use the plain sweep: reading size 4 off profiles of the size-3 prefixes
    made the enumeration about 30% slower on the p-way benchmark's graphs
    at k = 4 (1.04 s against 0.81 s per 30 instances, median of 3 runs on
    a 2-core host).
    """
    if k < 0:
        return
    n = g.n
    base = components_masks(g, 0)
    if len(base) >= 2:
        yield 0, base
    for size in range(1, min(k, _PROFILED_SIZES) + 1):
        for prefix in combinations(range(n), size - 1):
            pmask = set_to_mask(prefix)
            profile = _removal_profile(g, pmask)
            count = profile[3]
            for w in range(pmask.bit_length(), n):
                if count[w] >= 2:
                    yield pmask | 1 << w, _components_without(profile, w)
    for size in range(_PROFILED_SIZES + 1, min(k, n) + 1):
        for sep in combinations(range(n), size):
            smask = set_to_mask(sep)
            comps = components_masks(g, smask)
            if len(comps) >= 2:
                yield smask, comps


def _sweep_passes(n: int, k: int) -> int:
    """DFS passes that _disconnecting_separators makes when read to the
    end, on n vertices: one removal profile per prefix of a profiled size,
    one component search per candidate of a larger size."""
    return sum(
        math.comb(n, s) for s in range(min(k, _PROFILED_SIZES))
    ) + sum(
        math.comb(n, s) for s in range(_PROFILED_SIZES + 1, min(k, n) + 1)
    )


def _sweep_allowed(g: Graph, wlen: int, k: int) -> bool:
    """The sweep's guard: at most config.SEPARATOR_SWEEP_LIMIT DFS passes,
    or a set w within the partition strategy's limit, which is always
    checked: by the cheaper of partitions and the sweep in
    check_unbreakable, by the sweep in the verifier."""
    return (
        wlen <= config.UNBREAKABLE_ENUM_LIMIT
        or _sweep_passes(g.n, k) <= config.SEPARATOR_SWEEP_LIMIT
    )


def _too_few(wlen: int, q: int, k: int) -> bool:
    """True when no witness exists: it needs |L∩w| + |R∩w| >= 2q+2, but
    that sum is at most |w| + |separator ∩ w| <= |w| + min(k, |w|)."""
    return wlen + min(k, wlen) < 2 * q + 2


def check_by_separators(g: Graph, w: Iterable[int], q: int, k: int):
    """check_unbreakable by the separator sweep alone, exact: every vertex
    set of size <= k that disconnects g, unless w is too small for any
    witness. Raises SizeGuardError when _sweep_allowed refuses."""
    wset = set(w)
    if _too_few(len(wset), q, k):
        return UNBREAKABLE
    if not _sweep_allowed(g, len(wset), k):
        raise SizeGuardError(
            f"n={g.n}, k={k} needs {_sweep_passes(g.n, k)} separator-sweep "
            f"passes, over the limit {config.SEPARATOR_SWEEP_LIMIT}, and "
            f"|w| = {len(wset)} exceeds the partition limit "
            f"{config.UNBREAKABLE_ENUM_LIMIT}"
        )
    wmask = set_to_mask(wset)
    full = (1 << g.n) - 1
    for smask, comps in _disconnecting_separators(g, k):
        q2 = q - bin(smask & wmask).count("1")
        if q2 < 0:
            left = comps[0]
            return VertexCut(
                mask_to_set(left | smask), mask_to_set(full & ~left)
            )
        counts = [bin(c & wmask).count("1") for c in comps]
        total = sum(counts)
        chosen = _split_counts(counts, q2 + 1, total - q2 - 1)
        if chosen is None:
            continue
        left = smask
        for i in chosen:
            left |= comps[i]
        return VertexCut(
            mask_to_set(left), mask_to_set((full & ~left) | smask)
        )
    return UNBREAKABLE


def _partitions_cheaper(g: Graph, wlen: int, q: int, k: int) -> bool:
    """Whether the partition strategy applies (q >= k, |w| at most
    config.UNBREAKABLE_ENUM_LIMIT) and its flows, one per forced subset
    and partition, number under an eighth of the sweep's candidates."""
    if q < k or wlen > config.UNBREAKABLE_ENUM_LIMIT:
        return False
    flows = sum(
        math.comb(wlen, s) * (1 << max(wlen - s - 1, 0))
        for s in range(0, min(k, wlen) + 1)
    )
    return flows * 8 < sum(math.comb(g.n, s) for s in range(min(k, g.n) + 1))


def _check_by_partitions(g: Graph, w: List[int], q: int, k: int):
    """Enumerate forced-separator subsets of w plus partitions of the rest,
    one bounded flow each; exact (requires q >= k)."""
    full = (1 << g.n) - 1
    cg = unit_capacities(g)
    for s_size in range(0, min(k, len(w)) + 1):
        for forced in combinations(w, s_size):
            q2 = q - s_size  # >= 0 since s_size <= k <= q
            fmask = set_to_mask(forced)
            rest = [v for v in w if not (fmask >> v) & 1]
            if len(rest) < 2 * (q2 + 1):
                continue
            rmask = set_to_mask(rest)
            anchor, others = rest[0], rest[1:]
            for bitsel in range(1 << len(others)):
                if not q2 < 1 + bin(bitsel).count("1") < len(rest) - q2:
                    continue
                side_a = 1 << anchor | set_to_mask(
                    v for i, v in enumerate(others) if (bitsel >> i) & 1
                )
                sep = _cut(
                    cg, fmask, side_a, rmask & ~side_a, k - s_size,
                    cut_sources=True, cut_sinks=True,
                )
                if sep is not None:
                    reach = _reach(g, side_a, fmask | sep)
                    return VertexCut(
                        mask_to_set(reach | sep | fmask),
                        mask_to_set(full & ~reach),
                    )
    return UNBREAKABLE


def _cut(
    cg: CapacitatedGraph, deleted: int, sources: int, sinks: int, bound: int,
    **flags,
):
    """The separator mask of the sources-sinks mincut in cg minus the
    deleted vertices (bounded_vertex_maxflow's, nearest the sources), or
    None when the flow exceeds the bound. Sets are vertex masks."""
    res = bounded_vertex_maxflow(
        cg, mask_to_set(sources), mask_to_set(sinks), bound,
        removed=mask_to_set(deleted), **flags,
    )
    if res.value == EXCEEDS_BOUND:
        return None
    return set_to_mask(res.mincut.separator)


def _reach(g: Graph, xmask: int, removed: int) -> int:
    """The vertices that x reaches in g minus the removed vertices."""
    out = 0
    for comp in components_masks(g, removed):
        if comp & xmask:
            out |= comp
    return out


def _furthest_cut(
    cg: CapacitatedGraph, xmask: int, cmask: int, k: int, deleted: int
):
    """The x-c mincut furthest from x in g minus `deleted` (from the flow
    run from c's side, c cuttable) and the vertices x reaches in front of
    it, or None when the mincut exceeds k - |deleted|."""
    sep = _cut(
        cg, deleted, cmask, xmask, k - bin(deleted).count("1"), cut_sources=True
    )
    if sep is None:
        return None
    return sep, _reach(cg.base, xmask, deleted | sep)


def _important_separators(
    cg: CapacitatedGraph, xmask: int, cmask: int, k: int, deleted: int = 0,
    cut=None,
):
    """Every important (x, c)-separator of size <= k in g minus `deleted`,
    united with `deleted`, possibly among other x-c separators; nothing
    when the x-c mincut exceeds k - |deleted|. `cut` is the furthest cut
    when already known.

    x is uncuttable and c cuttable. Branches on a vertex v of the mincut
    furthest from x: v joins the separator, or x grows to v and everything
    it reaches in front of that cut, which every important separator keeps
    on x's side (Marx, TCS 2006; at most 4^k leaves, since each branch
    raises 2k - mincut).
    """
    if not cmask:  # every vertex of c is deleted
        yield deleted
        return
    if cut is None:
        cut = _furthest_cut(cg, xmask, cmask, k, deleted)
    if cut is None:
        return
    sep, front = cut
    if not sep:
        yield deleted
        return
    v = sep & -sep
    yield from _important_separators(cg, xmask, cmask & ~v, k, deleted | v)
    if not cmask & v:
        yield from _important_separators(cg, front | v, cmask, k, deleted)


def _padded_witness(g: Graph, amask: int, smask: int, wmask: int, q: int, k: int):
    """The cut with a's side of g - s on the left, s plus as few of the
    right side's w-vertices as bring the left to q + 1 (at most k - |s|)
    in the separator, or None when no padding reaches q + 1."""
    side = _reach(g, amask, smask)
    need = q + 1 - bin((side | smask) & wmask).count("1")
    pad = 0
    if need > 0:
        spare = wmask & ~side & ~smask
        if need > min(k - bin(smask).count("1"), bin(spare).count("1")):
            return None
        for _ in range(need):
            bit = spare & -spare
            pad |= bit
            spare ^= bit
    full = (1 << g.n) - 1
    return VertexCut(mask_to_set(side | smask | pad), mask_to_set(full & ~side))


def _check_by_core(g: Graph, w: Iterable[int], q: int, k: int):
    """Exact check through a linked core and important separators; see
    check_unbreakable. None when the strategy does not apply (q < k, a
    core of at most k vertices, or at most q w-vertices that k vertices
    cannot cut off from it)."""
    if q < k:
        return None
    wset = sorted(set(w))
    cg = unit_capacities(g)
    adj = g.adj
    adjm = g.adj_masks()

    def linked(u: int, v: int) -> bool:
        """No k vertices other than u and v separate them."""
        return (
            (adjm[u] >> v) & 1
            or bin(adjm[u] & adjm[v]).count("1") > k
            or _cut(cg, 0, 1 << u, 1 << v, k) is None
        )

    members = []  # the first k + 1 are the hubs
    for v in sorted((v for v in wset if len(adj[v]) > k),
                    key=lambda v: (-len(adj[v]), v)):
        if all(linked(v, h) for h in members[:k + 1]):
            members.append(v)
    if len(members) <= k:
        return None
    core = set_to_mask(members)
    pockets = [
        v for v in wset
        if not (core >> v) & 1 and (
            len(adj[v]) <= k
            or _cut(cg, 0, 1 << v, core, k, cut_sinks=True) is not None
        )
    ]
    if len(wset) - len(pockets) <= q:
        return None
    if len(pockets) + k <= q:
        return UNBREAKABLE
    wmask = set_to_mask(wset)
    # depth-first over pocket sets, each grown by pockets of higher
    # index; entries are (set, index of the next pocket, its front)
    stack = [(0, 0, 0)]
    while stack:
        amask, i, front = stack.pop()
        if i == len(pockets):
            continue
        stack.append((amask, i + 1, front))
        if (front >> pockets[i]) & 1:
            continue  # in front of amask's furthest mincut: dominated
        a = amask | 1 << pockets[i]
        furthest = _furthest_cut(cg, a, core, k, 0)
        if furthest is None:
            continue  # the a-core mincut exceeds k, as for every superset
        for smask in _important_separators(cg, a, core, k, cut=furthest):
            cut = _padded_witness(g, a, smask, wmask, q, k)
            if cut is not None:
                return cut
        stack.append((a, i + 1, furthest[1]))
    return UNBREAKABLE


def check_unbreakable(g: Graph, w: Iterable[int], q: int, k: int):
    """Certify that w is (q,k)-unbreakable in g, or return a breakable
    witness: a cut (L,R) with |L∩R| <= k, |L∩w| > q, and |R∩w| > q.

    Exact. Three strategies, each guarded by its own cost:

    - partitions (q >= k, |w| <= config.UNBREAKABLE_ENUM_LIMIT): force
      each subset of w of size <= k into the separator and run one
      bounded flow per 2-partition of the rest;
    - the separator sweep (at most config.SEPARATOR_SWEEP_LIMIT DFS
      passes, or any w within the partition limit): go through the vertex
      sets of size <= k that disconnect g, smallest first, and stop at the
      first whose components split w;
    - the core strategy (q >= k, more than q vertices of w of degree
      > k): bounded flows and important separators, below.

    A set w too small for any witness is unbreakable at once. Otherwise
    partitions run when their flows number under an eighth of the sweep's
    candidates, the core strategy when its estimate, (k+1)(C(|w|,2) + |w|)
    searches, is under the sweep's DFS passes or the sweep's guard
    refuses, and else the sweep; the sweep also answers where the core
    strategy does not apply. The verifier runs the sweep alone.

    The core strategy picks, greedily by degree, a core C of w-vertices of
    degree > k: k + 1 hubs that are pairwise linked (adjacent, or not
    separated by any k other vertices), and more vertices each linked to
    every hub. A separator S of size <= k misses a hub, which holds every
    vertex of C - S in its component of g - S; and C - S is not empty. So
    every witness can be drawn with C - S on its right, and the w-vertices
    A on its left outside S, which S cuts off from C, lie in D, the
    w-vertices outside C with a fan of at most k paths to C. When more
    than q of w lie outside D, every cut with its left side's w-vertices
    in D has more than q of w on the right, and a witness is a separator
    S of size <= k with more than q w-vertices in A's side of g - S plus
    S (A is not empty, since q >= k >= |S|).

    Fix a witness, with every component of its left side holding a vertex
    of A (any other component can move right), and A one such vertex per
    component. An important (A, C)-separator S* with |S*| <= |S| has an A
    side R* that holds A's side of g - S (Marx, TCS 2006). The boundary of
    A's side lies in R* ∪ S*, so the w-vertices of S outside R* ∪ S* are
    at most |S| - |S*| <= k - |S*|: padding S* with that many w-vertices
    of the right gives a witness with as many w-vertices on the left. So
    the strategy enumerates each pocket set A ⊆ D whose A-C mincut is at
    most k, grown depth-first (supersets of a set over k only cost more),
    and each important (A, C)-separator S*, and answers with the first
    padded cut (R* ∪ S* ∪ P, V - R*) that holds q + 1 w-vertices on the
    left. A set A + d with d in front of A's furthest mincut (the one
    nearest C) is skipped with all its supersets: by submodularity its
    witnesses' left sides, joined with that front, have a boundary no
    larger, whose padded cut A already reaches.
    """
    wset = sorted(set(w))
    if _too_few(len(wset), q, k):
        return UNBREAKABLE
    if _partitions_cheaper(g, len(wset), q, k):
        return _check_by_partitions(g, wset, q, k)
    if (
        q >= k
        and sum(len(g.adj[v]) > k for v in wset) > q
        and (
            (k + 1) * (math.comb(len(wset), 2) + len(wset))
            < _sweep_passes(g.n, k)
            or not _sweep_allowed(g, len(wset), k)
        )
    ):
        verdict = _check_by_core(g, wset, q, k)
        if verdict is not None:
            return verdict
    return check_by_separators(g, wset, q, k)


def net_size(sigma: int, alpha: float) -> int:
    return math.ceil(config.C_NET * (sigma / alpha) * math.log(1 / alpha))


def sample_net(g: Graph, sigma: int, alpha: float, rng) -> FrozenSet[int]:
    """Uniform random set of the prescribed net size (whole vertex set when
    the budget reaches n). Correctness holds only with constant probability;
    callers absorb failures through retries."""
    size = net_size(sigma, alpha)
    if size >= g.n:
        return frozenset(range(g.n))
    return frozenset(rng.sample(range(g.n), size))


def _smaller_side(cut: VertexCut) -> VertexCut:
    """Orient a witness so L is the smaller side (lexicographic tie-break)."""
    if len(cut.L) < len(cut.R):
        return cut
    if len(cut.R) < len(cut.L):
        return cut.reversed()
    return cut if sorted(cut.L) <= sorted(cut.R) else cut.reversed()


def balanced_origin(g: Graph, k: int, sigma: int, rng) -> FrozenSet[int]:
    """A set that is always (k,k)-unbreakable in g and, with constant
    probability, a 1/2-balanced sigma-origin (every superset with adhesion
    at most sigma is 1/2-balanced).

    Starts from a sampled net and repeatedly applies the smaller-side update
    X <- (X \\ L) ∪ (L ∩ R) until the unbreakability check certifies.
    """
    if k > sigma:
        raise ValueError("k must be at most sigma")
    if not is_connected(g):
        raise ValueError("balanced_origin requires a connected graph")
    w = sample_net(g, sigma, 0.5, rng)
    x = set(w)
    while True:
        verdict = check_unbreakable(g, x, k, k)
        if verdict == UNBREAKABLE:
            return frozenset(x)
        cut = _smaller_side(verdict)
        new_x = (x - cut.L) | (cut.L & cut.R)
        assert len(new_x) < len(x), "witness update must shrink the set"
        x = new_x
        if __debug__:
            half = g.n / 2
            comps = connected_components(g, x)
            for v in w - x:
                for comp in comps:
                    if v in comp:
                        assert len(comp) <= half, (
                            "net vertex outside the set fell in a large component"
                        )
                        break
