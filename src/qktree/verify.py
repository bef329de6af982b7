"""The reference layer: brute-force oracles, property checkers and
structural validators, independent of the fast paths. No pipeline module
imports it; the pipeline's randomized parts are tested against it."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import FrozenSet, Iterable, List, Optional, Tuple

from . import config
from .carving import WitnessContext, is_witness
from .core import (
    Graph,
    SizeGuardError,
    VertexCut,
    adhesion,
    connected_components,
    induced_subgraph,
    is_balanced,
    is_connected,
    neighborhood,
)
from .flow import CapacitatedGraph, bounded_vertex_maxflow
from .isolating import pairwise_disjoint
from .origin import UNBREAKABLE, check_by_separators
from .ssmc import MincutCover

INFEASIBLE = "INFEASIBLE"


def _check_enum_size(g: Graph) -> None:
    """The size guard of every 3^n and 2^n oracle here."""
    if g.n > config.CUT_ENUM_LIMIT:
        raise SizeGuardError(
            f"n={g.n} exceeds the cut enumeration limit {config.CUT_ENUM_LIMIT}"
        )


def enumerate_vertex_cuts(g: Graph, max_size: Optional[int] = None):
    """All valid vertex cuts (L,R) of g by 3^n assignment enumeration."""
    _check_enum_size(g)
    n = g.n
    for code in range(3 ** n):
        left_only, sep, right_only = [], [], []
        c = code
        for v in range(n):
            c, r = divmod(c, 3)
            (left_only, sep, right_only)[r].append(v)
        if not left_only or not right_only:
            continue
        if max_size is not None and len(sep) > max_size:
            continue
        ro = set(right_only)
        if any(u in ro for v in left_only for u in g.adj[v]):
            continue
        yield VertexCut(
            frozenset(left_only) | frozenset(sep),
            frozenset(right_only) | frozenset(sep),
        )


def brute_unbreakability(g: Graph, w: Iterable[int], q: int, k: int):
    """Exhaustive (q,k)-unbreakability check over all 3^n cut assignments.

    Returns "UNBREAKABLE" or a breakable witness cut.
    """
    wset = set(w)
    for cut in enumerate_vertex_cuts(g, max_size=k):
        if len(cut.L & wset) > q and len(cut.R & wset) > q:
            return cut
    return "UNBREAKABLE"


def brute_net_check(g: Graph, w: Iterable[int], sigma: int, alpha) -> bool:
    """True iff w hits every component of size > alpha*n left by deleting
    any vertex set of size <= sigma (net property 1); exhaustive."""
    _check_enum_size(g)
    wset = set(w)
    limit = alpha * g.n
    for size in range(0, sigma + 1):
        for s in combinations(range(g.n), size):
            for comp in connected_components(g, s):
                if len(comp) > limit and not (comp & wset):
                    return False
    return True


def brute_origin_check(g: Graph, x: Iterable[int], sigma: int, alpha) -> bool:
    """True iff x is an alpha-balanced sigma-origin: every superset of x
    with adhesion <= sigma is alpha-balanced; exhaustive over the 2^(n-|x|)
    supersets."""
    _check_enum_size(g)
    xset = frozenset(x)
    rest = sorted(set(range(g.n)) - xset)
    for code in range(1 << len(rest)):
        sup = set(xset)
        for i, v in enumerate(rest):
            if (code >> i) & 1:
                sup.add(v)
        if adhesion(g, sup) <= sigma and not is_balanced(g, sup, alpha):
            return False
    return True


def is_connected_witness(ctx: WitnessContext, cut: VertexCut) -> bool:
    """A witness whose set (L\\R)∩T induces a connected torso subgraph."""
    if not is_witness(ctx, cut):
        return False
    h, ids = ctx.torso_graph()
    pos = {v: i for i, v in enumerate(ids)}
    local = [pos[v] for v in cut.left_only & ctx.t_set]
    return is_connected(h, local)


def carvable_oracle(ctx: WitnessContext) -> FrozenSet[int]:
    """Exact set of terminals lying in L\\R of some connected witness: the
    cuts of at most k' separator vertices whose L\\R avoids X, holds a
    terminal not yet found and is a connected witness."""
    carvable: set = set()
    for cut in enumerate_vertex_cuts(ctx.g, ctx.k_prime):
        found = cut.left_only & ctx.t_set
        if (
            found - carvable
            and ctx.x_set.isdisjoint(cut.left_only)
            and is_connected_witness(ctx, cut)
        ):
            carvable |= found
    return frozenset(carvable)


def naive_isolating_cuts(cg: CapacitatedGraph, w: Iterable[int]) -> List[VertexCut]:
    """For each terminal of sorted(w), its source-minimal mincut against
    the other terminals, one flow each: the reference for
    isolating.isolating_vertex_cuts. The terminals must be independent,
    with infinite capacities."""
    terms = frozenset(w)
    cuts = []
    for t in sorted(terms):
        res = bounded_vertex_maxflow(cg, {t}, terms - {t}, bound=cg.base.n)
        assert res.mincut is not None
        cuts.append(res.mincut)
    return cuts


def width_budget(k: int, n: int) -> int:
    """The width bound 8k⌈log₂ n⌉³ of a single-source mincut cover."""
    log = max(1, math.ceil(math.log2(max(n, 2))))
    return 8 * k * log ** 3


def check_cover_properties(
    g: Graph,
    s: int,
    captured: FrozenSet[int],
    cover: MincutCover,
    mincut_value,
) -> List[str]:
    """Literal check of the three mincut-cover properties; returns a list of
    violation descriptions (empty means all hold).

    mincut_value(t) must return lambda(t, s) computed independently.
    """
    problems = []
    for ci, coll in enumerate(cover.collections):
        if not pairwise_disjoint(coll):
            problems.append(f"collection {ci} is not pairwise disjoint")
        for cut in coll:
            if not cut.is_valid(g):
                problems.append(f"collection {ci} holds an invalid cut")
                continue
            if s not in cut.right_only:
                problems.append(f"collection {ci} holds a cut not avoiding s")
                continue
            owners = [t for t in captured if t in cut.left_only]
            if not owners:
                problems.append(
                    f"collection {ci} holds a cut isolating no captured sink"
                )
                continue
            if all(cut.size != mincut_value(t) for t in owners):
                problems.append(
                    f"collection {ci} holds a non-mincut of size {cut.size}"
                )
    for t in captured:
        if not any(
            t in cut.left_only for coll in cover.collections for cut in coll
        ):
            problems.append(f"captured sink {t} is covered by no cut")
    return problems


@dataclass
class CheckResult:
    """One named structural check with an optional counterexample detail."""

    name: str
    passed: bool
    detail: str = ""


def validate_decomposition(
    g: Graph, deco, adhesion_bound: Optional[int] = None
) -> List[CheckResult]:
    """Structural validation of a rooted tree decomposition of g.

    Checks, each recomputed from raw graph data: per-vertex subtree
    connectivity (every vertex's bags form one connected subtree), per-edge
    bag coverage, the adhesion bound (when given), compactness (each
    non-root cone complement is connected with neighborhood exactly the
    adhesion set), and strictness (every bag strictly contains its adhesion
    set; a synthetic empty root bag joining components is exempt).
    """
    results: List[CheckResult] = []
    nodes = deco.nodes

    # per-vertex subtree connectivity (also implies vertex coverage)
    bad_vertex = None
    for v in range(g.n):
        holders = {t for t in range(len(nodes)) if v in nodes[t].bag}
        if not holders:
            bad_vertex = (v, "appears in no bag")
            break
        roots = sum(
            1 for t in holders
            if nodes[t].parent is None or nodes[t].parent not in holders
        )
        if roots != 1:
            bad_vertex = (v, f"bags form {roots} disjoint subtrees")
            break
    results.append(
        CheckResult(
            "vertex-subtree-connectivity",
            bad_vertex is None,
            "" if bad_vertex is None else f"vertex {bad_vertex[0]}: {bad_vertex[1]}",
        )
    )

    bad_edge = None
    for u, v in g.edges():
        if not any(u in node.bag and v in node.bag for node in nodes):
            bad_edge = (u, v)
            break
    results.append(
        CheckResult(
            "edge-coverage",
            bad_edge is None,
            "" if bad_edge is None else f"edge {bad_edge} covered by no bag",
        )
    )

    if adhesion_bound is not None:
        worst = max(
            (len(deco.adhesion_set(t)) for t in range(len(nodes))), default=0
        )
        results.append(
            CheckResult(
                "adhesion-bound",
                worst <= adhesion_bound,
                f"max adhesion {worst}, bound {adhesion_bound}",
            )
        )

    bad_compact = None
    for t in range(len(nodes)):
        sigma = deco.adhesion_set(t)
        if not sigma:
            continue
        alpha = deco.cone(t) - sigma
        if not is_connected(g, alpha):
            bad_compact = (t, "cone complement disconnected")
            break
        if neighborhood(g, alpha) != sigma:
            bad_compact = (t, "cone neighborhood differs from adhesion set")
            break
    results.append(
        CheckResult(
            "compactness",
            bad_compact is None,
            "" if bad_compact is None else f"node {bad_compact[0]}: {bad_compact[1]}",
        )
    )

    bad_strict = None
    for t in range(len(nodes)):
        if nodes[t].bag > deco.adhesion_set(t):
            continue
        if t == deco.root and not nodes[t].bag and nodes[t].children:
            continue  # synthetic root joining components
        if t == deco.root and g.n == 0:
            continue
        bad_strict = t
        break
    results.append(
        CheckResult(
            "bag-strictly-contains-adhesion",
            bad_strict is None,
            "" if bad_strict is None else f"node {bad_strict}",
        )
    )
    return results


@dataclass
class UnbreakabilityReport:
    """Per-bag subtree unbreakability outcome; bags over the separator
    sweep's limits (SEPARATOR_SWEEP_LIMIT and UNBREAKABLE_ENUM_LIMIT in
    config) are skipped (reported, not fatal)."""

    q: int
    k: int
    checked: List[int] = field(default_factory=list)
    skipped: List[int] = field(default_factory=list)
    failures: List[Tuple[int, VertexCut]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_subtree_unbreakability(g: Graph, deco, q: int, k: int) -> UnbreakabilityReport:
    """Check every bag's (q,k)-unbreakability inside its own subtree graph
    G_t = G[gamma(t)] minus the edges within the adhesion set.

    Each check is the separator sweep (check_by_separators), never the
    core strategy that check_unbreakable also runs while decompositions
    are built, so the verifier is an independent oracle for it."""
    report = UnbreakabilityReport(q=q, k=k)
    for t in range(len(deco.nodes)):
        bag = deco.bag(t)
        if not bag:
            continue
        sub, ids = induced_subgraph(
            g, deco.cone(t), drop_within=deco.adhesion_set(t)
        )
        pos = {v: i for i, v in enumerate(ids)}
        local_bag = [pos[v] for v in bag]
        try:
            verdict = check_by_separators(sub, local_bag, q, k)
        except SizeGuardError:
            report.skipped.append(t)
            continue
        report.checked.append(t)
        if verdict != UNBREAKABLE:
            lifted = VertexCut(
                frozenset(ids[i] for i in verdict.L),
                frozenset(ids[i] for i in verdict.R),
            )
            report.failures.append((t, lifted))
    return report


def brute_pway_cut(g: Graph, p: int, k: int):
    """Exact minimum p-way cut by enumerating all edge subsets of size <= k.

    Returns the minimum cost (int) if some subset of <= k edge deletions
    yields >= p components, else "INFEASIBLE".
    """
    subsets = sum(math.comb(g.m, i) for i in range(min(k, g.m) + 1))
    if subsets > config.BRUTE_PWAY_SUBSET_LIMIT:
        raise SizeGuardError(
            f"m={g.m}, k={k} gives {subsets} edge subsets, over the "
            f"brute-force limit {config.BRUTE_PWAY_SUBSET_LIMIT}"
        )
    edges = g.edges()
    for cost in range(0, min(k, g.m) + 1):
        for subset in combinations(range(len(edges)), cost):
            parent = list(range(g.n))  # union-find over the kept edges
            count = g.n
            for j, (u, v) in enumerate(edges):
                if j not in subset:
                    while parent[u] != u:
                        parent[u] = u = parent[parent[u]]
                    while parent[v] != v:
                        parent[v] = v = parent[parent[v]]
                    if u != v:
                        parent[u] = v
                        count -= 1
            if count >= p:
                return cost
    return INFEASIBLE
