"""Vertex-capacitated maximum flow bounded by k, with mincut extraction."""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .core import Graph, VertexCut

INF = math.inf

EXCEEDS_BOUND = "EXCEEDS_BOUND"


class PreconditionError(ValueError):
    """Raised when an operation's stated precondition is violated."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code


@dataclass(frozen=True)
class CapacitatedGraph:
    """Graph plus per-vertex positive integer (or infinite) capacities."""

    base: Graph
    capacity: Tuple[float, ...]

    def __post_init__(self):
        if len(self.capacity) != self.base.n:
            raise ValueError("capacity vector length must equal vertex count")
        if any(c != INF and (c <= 0 or int(c) != c) for c in set(self.capacity)):
            raise ValueError("capacities must be positive integers or INF")


def unit_capacities(g: Graph) -> CapacitatedGraph:
    """Capacity 1 everywhere."""
    return CapacitatedGraph(g, (1,) * g.n)


@dataclass(frozen=True)
class FlowResult:
    value: object  # int or EXCEEDS_BOUND
    mincut: Optional[VertexCut] = None


class _SplitNetwork:
    """In/out vertex-splitting reduction of a graph, without endpoint arcs.

    Vertex v maps to nodes 2v (in) and 2v+1 (out). The forward arcs are
    the vertex arcs 2v -> 2v+1 (arc vertex_arc[v]) and, per edge uv,
    2u+1 -> 2v and 2v+1 -> 2u. A forward arc has an even id i; i + 1 is its
    residual reverse arc, which starts at capacity 0. out[node] lists the
    forward arcs leaving node as (arc, head) pairs in ascending head order;
    a reverse arc only gains capacity once flow runs on its forward arc, so
    each query lists those itself. Capacities live outside, one list per
    (capacitated graph, bound), so a network serves every query.
    """

    __slots__ = ("n", "out", "head", "vertex_arc")

    def __init__(self, g: Graph, base: Optional["_SplitNetwork"] = None):
        """The network of g. With `base`, the network of the graph that g's
        first base.n vertices induce, whose arcs are reused and extended by
        those of the other vertices."""
        n0 = base.n if base is not None else 0
        head = list(base.head) if base is not None else []
        vertex_arc = list(base.vertex_arc) if base is not None else []
        out = list(base.out) if base is not None else []
        added: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
        for v in range(n0, g.n):
            vertex_arc.append(len(head))
            out += [((len(head), 2 * v + 1),), ()]  # in-node, out-node
            head += (2 * v + 1, 2 * v)
        # adjacency lists ascend, and every new vertex exceeds the base
        # ones, so each node's arcs come in ascending head order
        for v in range(n0, g.n):
            arcs = []
            for u in g.adj[v]:
                arcs.append((len(head), 2 * u))
                head += (2 * u, 2 * v + 1)
                if u < n0:  # edges between two new vertices come up twice
                    added[2 * u + 1].append((len(head), 2 * v))
                    head += (2 * v, 2 * u + 1)
            out[2 * v + 1] = tuple(arcs)
        for x, arcs in added.items():
            out[x] += tuple(arcs)
        self.n = g.n
        self.out = out
        self.head = head
        self.vertex_arc = vertex_arc


def _split_network(g: Graph) -> _SplitNetwork:
    """The split network of g, cached on the graph."""
    net = g._caches.get("split")
    if net is None:
        net = g._caches["split"] = _SplitNetwork(g)
    return net


def _capacities(cg: CapacitatedGraph, bound: int) -> List[int]:
    """Arc capacities of cg's split network, cached per graph and bound.
    Capacities above the bound are clipped to bound + 1: that still lets
    any flow exceed the bound, and keeps the numbers integral."""
    cache = getattr(cg, "_cap_cache", None)
    if cache is None:
        cache = {}
        object.__setattr__(cg, "_cap_cache", cache)
    cap = cache.get(bound)
    if cap is None:
        net = _split_network(cg.base)
        big = bound + 1
        cap = [big, 0] * (len(net.head) // 2)
        for i, c in zip(net.vertex_arc, cg.capacity):
            if c < big:
                cap[i] = int(c)
        cache[bound] = cap
    return cap


def with_new_vertices(
    g: Graph, attach: Sequence[Iterable[int]], capacity: Sequence[float]
) -> CapacitatedGraph:
    """g plus one new vertex per entry of `attach` (ids n, n+1, ...), each
    joined to the listed vertices of g, with the given capacities for all
    vertices. The split network of the result extends the cached one of g,
    so only the new vertices' arcs are built."""
    ext = g.with_new_vertices(attach)
    ext._caches["split"] = _SplitNetwork(ext, base=_split_network(g))
    return CapacitatedGraph(ext, tuple(capacity))


# node labels of the augmenting-path search; arc ids label reached nodes
_FREE, _ROOT, _SINK, _REMOVED = -2, -1, -3, -4


def _max_flow(
    net: _SplitNetwork,
    cap: List[int],
    src_nodes: List[int],
    snk_nodes: Iterable[int],
    bound: int,
    removed: Iterable[int],
) -> Tuple[int, List[int]]:
    """Shortest augmenting paths from the source nodes to the sink nodes
    until none is left or the flow exceeds `bound`, never entering the
    split nodes of a removed vertex; updates cap in place.

    Endpoint arcs are modelled, not built: each search starts from all
    source nodes (in ascending order) and ends at the first sink node it
    reaches. Returns (value, the nodes the last search reached, in search
    order); when the value is at most the bound, that search failed and
    reached exactly the nodes the sources reach in the residual network.
    Every maximum flow leaves the same residual reach, so the cut read from
    it does not depend on the order arcs are searched in.
    """
    head = net.head
    arcs = list(net.out)  # plus the reverse arcs that flow opens, below
    opened = set()
    start = [_FREE] * len(arcs)
    for x in src_nodes:
        start[x] = _ROOT
    for x in snk_nodes:
        start[x] = _SINK
    for v in removed:
        start[2 * v] = start[2 * v + 1] = _REMOVED
    value = 0
    while True:
        label = start[:]
        queue = list(src_nodes)
        hit = -1
        for v in queue:
            for i, u in arcs[v]:
                if cap[i] > 0:
                    lu = label[u]
                    if lu == _FREE:
                        label[u] = i
                        queue.append(u)
                    elif lu == _SINK:
                        label[u] = i
                        hit = u
                        break
            if hit >= 0:
                break
        if hit < 0:
            return value, queue
        path = []
        node = hit
        while label[node] != _ROOT:
            i = label[node]
            path.append(i)
            node = head[i ^ 1]
        push = min(cap[i] for i in path)
        for i in path:
            cap[i] -= push
            j = i ^ 1
            cap[j] += push
            if j & 1 and j not in opened:
                opened.add(j)
                arcs[head[i]] += ((j, head[j]),)
        value += push
        if value > bound:
            return value, queue


def _cut_from_reach(reached: List[int], n: int) -> VertexCut:
    """The mincut read off the nodes a failed search reached: vertices
    whose out-node is reached lie in L\\R, and L holds every vertex with a
    reached node, so those with only the in-node reached form the
    separator. This is the unique source-minimal mincut."""
    left_only = frozenset([x >> 1 for x in reached if x & 1])
    left = frozenset([x >> 1 for x in reached])
    return VertexCut(left, frozenset(range(n)) - left_only)


def bounded_vertex_maxflow(
    cg: CapacitatedGraph,
    sources: Iterable[int],
    sinks: Iterable[int],
    bound: int,
    cut_sources: bool = False,
    cut_sinks: bool = False,
    removed: Iterable[int] = (),
) -> FlowResult:
    """Max flow between vertex sets with value capped at `bound`, in the
    graph minus the `removed` vertices.

    Returns the exact value and a sources-sinks mincut when the value is at
    most `bound`, else EXCEEDS_BOUND. With the default flags the endpoint
    vertices themselves are not cuttable (sources end in L\\R, sinks in
    R\\L); with cut_sources / cut_sinks their own capacities apply and they
    may appear in the separator. The cut may then have an empty L\\R (or
    R\\L), since every source (or sink) may sit in the separator: such a cut
    breaks VertexCut's nonempty-sides invariant and fails `is_valid`.

    No flow passes a removed vertex, and the cut places every removed
    vertex in R\\L: its L\\R and separator are those of the flow in the
    induced subgraph on the other vertices. Removed vertices must avoid
    the sources and the sinks.
    """
    src = frozenset(sources)
    snk = frozenset(sinks)
    if not src or not snk:
        raise PreconditionError("PRECONDITION_EMPTY", "sources and sinks must be nonempty")
    if src & snk:
        raise PreconditionError("PRECONDITION_OVERLAP", "sources and sinks must be disjoint")
    if removed:
        removed = frozenset(removed)
        if removed & (src | snk):
            raise PreconditionError("PRECONDITION_REMOVED", "removed vertices meet the endpoints")
    g = cg.base
    if not cut_sources and not cut_sinks:
        for u in src:
            for v in g.adj[u]:
                if v in snk:
                    raise PreconditionError(
                        "PRECONDITION_EDGE", f"edge ({u},{v}) joins a source to a sink"
                    )
    net = _split_network(g)
    cap = _capacities(cg, bound)[:]
    src_nodes = sorted(2 * v + (not cut_sources) for v in src)
    snk_nodes = frozenset(2 * v + cut_sinks for v in snk)
    value, reached = _max_flow(net, cap, src_nodes, snk_nodes, bound, removed)
    if value > bound:
        return FlowResult(EXCEEDS_BOUND)
    return FlowResult(value, _cut_from_reach(reached, g.n))


# the name the per-layer tracer of perfbench/ hooks
minimal_side_mincut = bounded_vertex_maxflow
