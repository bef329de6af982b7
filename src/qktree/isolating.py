"""Isolating vertex cuts: per-terminal mincuts that are pairwise disjoint."""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List

from .core import Graph, VertexCut, connected_components, neighborhood
from .flow import CapacitatedGraph, PreconditionError, bounded_vertex_maxflow


def _check_independent(g: Graph, terms: List[int]) -> None:
    tset = set(terms)
    for v in terms:
        for u in g.adj[v]:
            if u in tset:
                raise PreconditionError(
                    "PRECONDITION_INDEPENDENCE", f"terminals {v} and {u} are adjacent"
                )


def ordered_disjoint(a: VertexCut, b: VertexCut) -> bool:
    """Disjointness for an ordered pair of cuts: L_a\\R_a avoids all of L_b."""
    return not (a.left_only & b.L)


def pairwise_disjoint(cuts: Iterable[VertexCut]) -> bool:
    cuts = list(cuts)
    for i, a in enumerate(cuts):
        for j, b in enumerate(cuts):
            if i != j and not ordered_disjoint(a, b):
                return False
    return True


def isolating_vertex_cuts(cg: CapacitatedGraph, w: Iterable[int]) -> List[VertexCut]:
    """For each terminal, a mincut separating it from the other terminals.

    Terminals must form an independent set of size >= 2 (capacities INF).
    The returned cuts are aligned with sorted(w) and pairwise disjoint
    (ordered sense), computed with ~log|w| set-to-set flows plus one
    localized flow per terminal.
    """
    g = cg.base
    terms = sorted(set(w))
    if len(terms) < 2:
        raise PreconditionError("PRECONDITION_SIZE", "need at least two terminals")
    _check_independent(g, terms)

    # phase 1: log|W| set-to-set mincuts along the bit code classes
    bits = max(1, (len(terms) - 1).bit_length())
    removed: set = set()
    for b in range(bits):
        zeros = frozenset(t for i, t in enumerate(terms) if not (i >> b) & 1)
        ones = frozenset(t for i, t in enumerate(terms) if (i >> b) & 1)
        if not zeros or not ones:
            continue
        res = bounded_vertex_maxflow(cg, zeros, ones, bound=g.n)
        if res.mincut is None:
            raise PreconditionError(
                "PRECONDITION_INFINITE_CUT",
                "no finite cut separates two terminal groups",
            )
        removed |= res.mincut.separator

    # phase 2: localize each terminal's cut inside its residual component
    comp_of: Dict[int, FrozenSet[int]] = {}
    for comp in connected_components(g, removed):
        for t in terms:
            if t in comp:
                comp_of[t] = comp
    cuts: List[VertexCut] = []
    all_vertices = frozenset(range(g.n))
    for t in terms:
        u_w = comp_of[t]
        boundary = neighborhood(g, u_w)
        if not boundary:
            # the terminal's component is already detached from everything else
            cuts.append(VertexCut(u_w, all_vertices - u_w))
            continue
        # a flow from t to the vertices beyond U_w and its boundary,
        # which are uncuttable, so the cut lies in U_w ∪ N(U_w)
        beyond = neighborhood(g, u_w | boundary)
        res = bounded_vertex_maxflow(cg, frozenset([t]), beyond, bound=g.n)
        if res.mincut is None:
            raise PreconditionError(
                "PRECONDITION_INFINITE_CUT",
                f"no finite cut isolates terminal {t}",
            )
        cuts.append(res.mincut)

    # These cuts are pairwise ordered-disjoint. The residual components U_t
    # are disjoint, and each N(U_t) lies in the removed separators. A cut's
    # L\R lies in U_t ∪ N(U_t), and a vertex of N(U_t) with a neighbour
    # outside U_t ∪ N(U_t) is next to an uncuttable sink, so it cannot be
    # in L\R. Every other cut's L lies in U_t' ∪ N(U_t'): it misses U_t, and
    # its vertices in N(U_t) have a neighbour in U_t', outside U_t ∪ N(U_t).
    assert pairwise_disjoint(cuts)
    return cuts
