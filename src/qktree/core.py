"""Graph representation, set utilities, components, and torso construction."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple


class SizeGuardError(ValueError):
    """Raised when an exhaustive operation exceeds its enumeration limit."""

    def __init__(self, message: str):
        super().__init__(f"SIZE_GUARD: {message}")


class RetriesExhaustedError(RuntimeError):
    """Raised when a retry loop never hits its constant-probability event."""

    def __init__(self, message: str):
        super().__init__(f"RETRIES_EXHAUSTED: {message}")


class Graph:
    """Immutable undirected simple graph with vertex ids 0..n-1."""

    __slots__ = ("n", "m", "adj", "_masks", "_caches")

    def __init__(self, n: int, edges: Iterable[Tuple[int, int]]):
        adj: List[set] = [set() for _ in range(n)]
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            adj[u].add(v)
            adj[v].add(u)
        self.n = n
        self.adj: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(sorted(s)) for s in adj
        )
        self.m = sum(len(s) for s in self.adj) // 2
        self._masks = None
        self._caches = {}  # derived-data memos keyed by consumers

    def adj_masks(self) -> Tuple[int, ...]:
        """Adjacency as bitmasks (bit u set in entry v iff edge uv); cached."""
        if self._masks is None:
            self._masks = tuple([set_to_mask(nbrs) for nbrs in self.adj])
        return self._masks

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def edges(self) -> List[Tuple[int, int]]:
        """All edges as sorted (u, v) pairs with u < v, ascending."""
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]

    def with_new_vertices(self, attach: Iterable[Iterable[int]]) -> "Graph":
        """This graph plus one new vertex per entry of `attach` (ids n,
        n+1, ...), each joined to the listed vertices of this graph."""
        adj = list(self.adj)
        for x, nbrs in enumerate(attach, start=self.n):
            nbrs = tuple(sorted(set(nbrs)))
            for v in nbrs:
                if not 0 <= v < self.n:
                    raise ValueError(f"edge ({x},{v}) out of range for n={self.n}")
                adj[v] += (x,)
            adj.append(nbrs)
        g = Graph(0, ())
        g.n = len(adj)
        g.adj = tuple(adj)
        g.m = self.m + sum(len(nbrs) for nbrs in adj[self.n:])
        return g

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class VertexCut:
    """Ordered vertex cut (L, R): L and R cover V, both L\\R and R\\L are
    nonempty, and no edge joins L\\R to R\\L."""

    L: FrozenSet[int]
    R: FrozenSet[int]

    @property
    def separator(self) -> FrozenSet[int]:
        return self.L & self.R

    @property
    def left_only(self) -> FrozenSet[int]:
        return self.L - self.R

    @property
    def right_only(self) -> FrozenSet[int]:
        return self.R - self.L

    @property
    def size(self) -> int:
        return len(self.L & self.R)

    def reversed(self) -> "VertexCut":
        return VertexCut(self.R, self.L)

    def is_valid(self, g: Graph) -> bool:
        if self.L | self.R != frozenset(range(g.n)):
            return False
        lo = self.L - self.R
        ro = self.R - self.L
        if not lo or not ro:
            return False
        return all(v not in ro for u in lo for v in g.adj[u])


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list text format: first line "n m", then m lines "u v".

    Lines starting with '#' are comments; blank lines are skipped.
    """
    lines = [
        ln.strip()
        for ln in text.splitlines()
        if ln.strip() and not ln.strip().startswith("#")
    ]
    if not lines:
        raise ValueError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"bad header line: {lines[0]!r}")
    n, m = int(head[0]), int(head[1])
    if n < 0:
        raise ValueError(f"negative vertex count {n}")
    if len(lines) - 1 != m:
        raise ValueError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge line: {ln!r}")
        edges.append((int(parts[0]), int(parts[1])))
    return Graph(n, edges)


def format_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def neighborhood(g: Graph, s: Iterable[int]) -> FrozenSet[int]:
    """Open neighborhood N_G(S): vertices outside S adjacent to S."""
    sset = set(s)
    out = set()
    for v in sset:
        out.update(g.adj[v])
    return frozenset(out - sset)


def components_masks(g: Graph, removed_mask: int) -> List[int]:
    """Components of g minus the masked vertices, as bitmasks, ordered by
    smallest member."""
    adjm = g.adj_masks()
    alive = ((1 << g.n) - 1) & ~removed_mask
    comps = []
    while alive:
        seed = alive & -alive
        comp = seed
        frontier = seed
        while frontier:
            nxt = 0
            f = frontier
            while f:
                bit = f & -f
                f ^= bit
                nxt |= adjm[bit.bit_length() - 1]
            frontier = nxt & alive & ~comp
            comp |= frontier
        comps.append(comp)
        alive &= ~comp
    return comps


def connected_components(
    g: Graph, removed: Iterable[int] = ()
) -> List[FrozenSet[int]]:
    """Components of g minus `removed`, ordered by smallest member."""
    return [mask_to_set(c) for c in components_masks(g, set_to_mask(removed))]


def mask_to_set(mask: int) -> FrozenSet[int]:
    out = []
    while mask:
        bit = mask & -mask
        mask ^= bit
        out.append(bit.bit_length() - 1)
    return frozenset(out)


def set_to_mask(vs: Iterable[int]) -> int:
    mask = 0
    for v in vs:
        mask |= 1 << v
    return mask


def is_connected(g: Graph, within: Optional[Iterable[int]] = None) -> bool:
    """True iff g (or g induced on `within`) is connected; empty counts as connected."""
    if within is None:
        return len(components_masks(g, 0)) <= 1
    wmask = set_to_mask(within)
    return not wmask or len(components_masks(g, ((1 << g.n) - 1) & ~wmask)) == 1


def adhesion(g: Graph, x: Iterable[int]) -> int:
    """Max boundary size |N_G(C)| over components C of g minus x."""
    xs = set(x)
    best = 0
    for comp in connected_components(g, xs):
        best = max(best, len(neighborhood(g, comp)))
    return best


def is_balanced(g: Graph, x: Iterable[int], alpha) -> bool:
    """True iff every component of g minus x has at most alpha*n vertices."""
    limit = alpha * g.n
    return all(
        bin(c).count("1") <= limit for c in components_masks(g, set_to_mask(x))
    )


def induced_subgraph(
    g: Graph, vs: Iterable[int], drop_within: Iterable[int] = ()
) -> Tuple[Graph, List[int]]:
    """Subgraph induced on vs, minus the edges with both ends in
    drop_within, relabeled 0..|vs|-1.

    Returns (subgraph, id_map) where id_map[new_id] = original vertex.
    """
    ids = sorted(set(vs))
    pos: Dict[int, int] = {v: i for i, v in enumerate(ids)}
    drop = set(drop_within)
    edges = []
    for v in ids:
        for u in g.adj[v]:
            if u in pos and v < u and not (v in drop and u in drop):
                edges.append((pos[v], pos[u]))
    return Graph(len(ids), edges), ids


def torso(g: Graph, t: Iterable[int]) -> Tuple[Graph, List[int]]:
    """Torso of g on t: edges of g inside t plus a clique on N(D) ∩ t for
    each component D of g minus t. Relabeled 0..|t|-1 with an id map."""
    tset = set(t)
    if not tset:
        raise ValueError("torso requires a nonempty vertex set")
    ids = sorted(tset)
    pos = {v: i for i, v in enumerate(ids)}
    edge_set = set()
    for v in ids:
        for u in g.adj[v]:
            if u in pos and v < u:
                edge_set.add((pos[v], pos[u]))
    for comp in connected_components(g, tset):
        boundary = sorted(pos[v] for v in neighborhood(g, comp) if v in pos)
        for i, a in enumerate(boundary):
            for b in boundary[i + 1:]:
                edge_set.add((a, b))
    return Graph(len(ids), sorted(edge_set)), ids
