"""Net sampling, exact unbreakability checking, and balanced unbreakable origins."""

from __future__ import annotations

import math
from itertools import chain, combinations
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
    # masked vertices read as visited, discovered after every other vertex
    disc = [0] * n  # 0: not visited yet
    for v in mask_to_set(smask):
        disc[v] = n + 1
    low = [0] * n
    sub = [0] * n
    pieces: List[List[int]] = [[] for _ in range(n)]
    comp_of = [-1] * n
    comps: List[int] = []
    roots = 0
    timer = 1
    rest = ((1 << n) - 1) & ~smask
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
            low_v = low[v]
            for u in it:
                disc_u = disc[u]
                if not disc_u:
                    low[v] = low_v
                    disc[u] = low[u] = timer
                    timer += 1
                    sub[u] = 1 << u
                    comp_of[u] = len(comps)
                    stack.append((u, v, iter(adj[u])))
                    break
                if disc_u < low_v and u != parent:
                    low_v = disc_u
            else:
                stack.pop()
                if parent != -1:
                    sub[parent] |= sub[v]
                    if low_v >= disc[parent]:
                        pieces[parent].append(sub[v])
                    if low_v < low[parent]:
                        low[parent] = low_v
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


def _components_without(profile, v: Optional[int]) -> List[int]:
    """Components of the profiled graph minus vertex v (minus nothing when
    v is None), as bitmasks ordered by smallest member (the order of
    components_masks)."""
    comps, comp_of, pieces, _count = profile
    if v is None:
        return comps
    i = comp_of[v]
    out = comps[:i] + comps[i + 1:] + pieces[v]
    rest = comps[i] & ~(1 << v)
    for piece in pieces[v]:
        rest &= ~piece
    if rest:
        out.append(rest)
    out.sort(key=_lowest_bit)
    return out


def _w_counts(profile, v: Optional[int], wmask: int) -> List[int]:
    """How many wmask vertices each component of the profiled graph minus
    vertex v holds, in no fixed order (a component of v's without any may
    read as an extra 0), without building the components."""
    comps, comp_of, pieces, _count = profile
    if v is None:
        return [bin(c & wmask).count("1") for c in comps]
    counts = [bin(c & wmask).count("1") for c in comps + pieces[v]]
    # v's component leaves its pieces and the rest (none when v is a root)
    counts[comp_of[v]] -= sum(counts[len(comps):]) + ((wmask >> v) & 1)
    return counts


class _SweepCursor:
    """A separator sweep of one graph and k that the next check resumes:
    its stream, the item the last check answered with (None before the
    first answer), and the current check's wmask and need."""

    __slots__ = ("wmask", "need", "stream", "stopped")

    def __init__(self, g: Graph, k: int):
        self.wmask = 0
        self.need = 0
        self.stream = _separator_stream(g, k, self)
        self.stopped = None


def _separator_stream(g: Graph, k: int, cursor: _SweepCursor):
    """Yields lazily (mask, profile, v) for every vertex set of size <= k
    that holds at least cursor.need vertices of cursor.wmask and whose
    removal leaves >= 2 components, ascending by (size, lexicographic
    members); v is the set's last vertex (None for the empty set), and
    _components_without(profile, v) its components. A caller that stops
    early pays only for what it read.

    Each size is read off one DFS forest of the graph minus each prefix
    one vertex smaller (its cut vertices, and the components they leave);
    a prefix short of need - 1 w-vertices gets none, and one at need - 1
    takes only last vertices in w. wmask and need are read at each prefix,
    so raising need between items prunes the later prefixes."""
    if k < 0:
        return
    n = g.n
    full = (1 << n) - 1
    if cursor.need <= 0:
        base = components_masks(g, 0)
        if len(base) >= 2:
            yield 0, (base, None, None, None), None
    for size in range(1, min(k, n) + 1):
        if size < cursor.need:
            continue
        for prefix in combinations(range(n), size - 1):
            pmask = set_to_mask(prefix)
            start = pmask.bit_length()
            wmask = cursor.wmask
            short = cursor.need - bin(pmask & wmask).count("1")
            lasts = wmask if short == 1 else full
            if short > 1 or not lasts >> start:
                continue
            profile = _removal_profile(g, pmask)
            count = profile[3]
            for v in range(start, n):
                if count[v] >= 2 and (lasts >> v) & 1:
                    yield pmask | 1 << v, profile, v


def _disconnecting_separators(g: Graph, k: int, wmask: int, need: int):
    """Yields lazily every vertex set of size <= k that holds at least
    `need` vertices of wmask and whose removal leaves >= 2 components, as
    (mask, components), ascending by (size, lexicographic members); see
    _separator_stream."""
    cursor = _SweepCursor(g, k)
    cursor.wmask, cursor.need = wmask, need
    for smask, profile, v in cursor.stream:
        yield smask, _components_without(profile, v)


def _pruned_passes(n: int, k: int, wlen: int, need: int) -> int:
    """At most the DFS passes that _disconnecting_separators(g, k, w,
    need) makes when read to the end, on n vertices with |w| = wlen: one
    component search for the empty separator when need <= 0, and one
    removal profile per prefix of size < k with at least need - 1
    w-vertices."""
    return (need <= 0 <= k) + sum(
        math.comb(wlen, j) * math.comb(n - wlen, s - 1 - j)
        for s in range(max(need, 1), min(k, n) + 1)
        for j in range(max(need - 1, 0), s)
    )


def _sweep_allowed(g: Graph, wlen: int, k: int, need: int) -> bool:
    """The sweep's guard: at most config.SEPARATOR_SWEEP_LIMIT DFS passes
    for the sweep that skips separators with fewer than `need` w-vertices
    (_pruned_passes), or a set w of at most config.UNBREAKABLE_ENUM_LIMIT
    vertices, which the sweep always checks, whatever its passes."""
    return (
        wlen <= config.UNBREAKABLE_ENUM_LIMIT
        or _pruned_passes(g.n, k, wlen, need) <= config.SEPARATOR_SWEEP_LIMIT
    )


def _need(wlen: int, q: int, k: int) -> Optional[int]:
    """The fewest w-vertices in the separator S = L∩R of any witness, as
    |L∩w| + |R∩w| = |w| + |S∩w| must reach 2q + 2; None when that is over
    min(k, |w|), so that no witness exists."""
    need = 2 * q + 2 - wlen
    return None if need > min(k, wlen) else need


def check_by_separators(
    g: Graph, w: Iterable[int], q: int, k: int, *,
    _cursor: Optional[_SweepCursor] = None,
):
    """check_unbreakable by the separator sweep alone, exact: every vertex
    set of size <= k that disconnects g and holds enough w-vertices for a
    witness (_need), unless w is too small for any. Raises
    SizeGuardError when _sweep_allowed refuses.

    Each separator is first tested on how many w-vertices each component
    it leaves holds; only one whose counts split w gets its components
    built, and yields the cut.

    `_cursor` (internal, for balanced_origin) resumes the sweep of the last
    check made with it, on the same g, q and k: the separator it answered
    with is tested again, then the stream goes on. Invariant: no separator
    before the cursor is a witness for w. Each was rejected by a check of
    a superset of w, and a witness for w is also one for every superset.
    The caller must drop the cursor once w gains a vertex."""
    wset = set(w)
    need = _need(len(wset), q, k)
    if need is None:
        return UNBREAKABLE
    if not _sweep_allowed(g, len(wset), k, need):
        raise SizeGuardError(
            f"n={g.n}, k={k} needs {_pruned_passes(g.n, k, len(wset), need)} "
            f"separator-sweep passes, over the limit "
            f"{config.SEPARATOR_SWEEP_LIMIT}, and "
            f"|w| = {len(wset)} exceeds the small-set limit "
            f"{config.UNBREAKABLE_ENUM_LIMIT}"
        )
    wmask = set_to_mask(wset)
    cursor = _SweepCursor(g, k) if _cursor is None else _cursor
    cursor.wmask, cursor.need = wmask, need
    items = cursor.stream
    if cursor.stopped is not None:
        items = chain((cursor.stopped,), items)
    for item in items:
        smask, profile, v = item
        in_w = bin(smask & wmask).count("1")
        if in_w < need:
            continue  # from a prefix profiled for an earlier, larger w
        q2 = q - in_w
        if q2 >= 0:
            counts = _w_counts(profile, v, wmask)
            if _split_counts(counts, q2 + 1, sum(counts) - q2 - 1) is None:
                continue
        cursor.stopped = item
        comps = _components_without(profile, v)
        full = (1 << g.n) - 1
        if q2 < 0:
            left = comps[0]
            return VertexCut(mask_to_set(left | smask), mask_to_set(full & ~left))
        counts = [bin(c & wmask).count("1") for c in comps]
        left = smask
        for i in _split_counts(counts, q2 + 1, sum(counts) - q2 - 1):
            left |= comps[i]
        return VertexCut(mask_to_set(left), mask_to_set((full & ~left) | smask))
    cursor.stopped = None
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


def check_unbreakable(
    g: Graph, w: Iterable[int], q: int, k: int, *,
    _cursor: Optional[_SweepCursor] = None,
):
    """Certify that w is (q,k)-unbreakable in g, or return a breakable
    witness: a cut (L,R) with |L∩R| <= k, |L∩w| > q, and |R∩w| > q.

    Exact. Two strategies, each guarded by its own cost:

    - the separator sweep (at most config.SEPARATOR_SWEEP_LIMIT DFS
      passes, or any w of at most config.UNBREAKABLE_ENUM_LIMIT vertices):
      go through the vertex sets of size <= k that disconnect g and hold
      at least 2q + 2 - |w| vertices of w, smallest first, and stop at the
      first whose components split w;
    - the core strategy (q >= k, more than q vertices of w of degree
      > k): bounded flows and important separators, below.

    A set w too small for any witness is unbreakable at once. Otherwise
    the core strategy runs when its estimate, (k+1)(C(|w|,2) + |w|)
    searches, is under the sweep's DFS passes (_pruned_passes) or the
    sweep's guard refuses, and else the sweep; the sweep also answers
    where the core strategy does not apply. The verifier runs the sweep
    alone. `_cursor` is internal: balanced_origin's resumable sweep, handed
    to check_by_separators; the strategy choice never reads it.

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
    need = _need(len(wset), q, k)
    if need is None:
        return UNBREAKABLE
    if (
        q >= k
        and sum(len(g.adj[v]) > k for v in wset) > q
        and (
            (k + 1) * (math.comb(len(wset), 2) + len(wset))
            < _pruned_passes(g.n, k, len(wset), need)
            or not _sweep_allowed(g, len(wset), k, need)
        )
    ):
        verdict = _check_by_core(g, wset, q, k)
        if verdict is not None:
            return verdict
    return check_by_separators(g, wset, q, k, _cursor=_cursor)


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

    The checks share one resumable separator sweep (a _SweepCursor; see
    check_by_separators): every separator before the cursor is no witness
    for the current X, since each was rejected for an earlier X, a superset
    of it. An update whose separator L ∩ R brings in a vertex outside X breaks
    that (a set with more vertices may have a witness among them), so the
    cursor starts over then. A check the core strategy answers leaves the
    cursor as it was, still valid for the smaller X.
    """
    if k > sigma:
        raise ValueError("k must be at most sigma")
    if not is_connected(g):
        raise ValueError("balanced_origin requires a connected graph")
    w = sample_net(g, sigma, 0.5, rng)
    x = set(w)
    cursor = _SweepCursor(g, k)
    while True:
        verdict = check_unbreakable(g, x, k, k, _cursor=cursor)
        if verdict == UNBREAKABLE:
            return frozenset(x)
        cut = _smaller_side(verdict)
        new_x = (x - cut.L) | (cut.L & cut.R)
        assert len(new_x) < len(x), "witness update must shrink the set"
        if not new_x <= x:
            cursor = _SweepCursor(g, k)
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
