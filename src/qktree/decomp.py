"""Recursive construction of unbreakable tree decompositions."""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from .adhesion import reduce_adhesion, unbreakable_balanced_set
from .core import (
    Graph,
    adhesion,
    connected_components,
    induced_subgraph,
    neighborhood,
)
from .origin import UNBREAKABLE, check_unbreakable

VARIANT_STANDARD = "STANDARD"
VARIANT_DEPTH_REDUCED = "DEPTH_REDUCED"


@dataclass
class DecompNode:
    id: int
    parent: Optional[int]
    bag: FrozenSet[int]
    children: List[int] = field(default_factory=list)


class RootedTreeDecomposition:
    """Rooted tree of bags over the vertices of one graph.

    Node ids are 0..len(nodes)-1 in depth-first creation order; the root is
    node 0. Adhesion sets, cones, and depths are derived on demand rather
    than stored.
    """

    def __init__(self, n: int):
        self.n = n
        self.nodes: List[DecompNode] = []

    @property
    def root(self) -> int:
        return 0

    def add_node(self, parent: Optional[int], bag: FrozenSet[int]) -> int:
        node = DecompNode(len(self.nodes), parent, frozenset(bag))
        self.nodes.append(node)
        if parent is not None:
            self.nodes[parent].children.append(node.id)
        return node.id

    def bag(self, t: int) -> FrozenSet[int]:
        return self.nodes[t].bag

    def adhesion_set(self, t: int) -> FrozenSet[int]:
        """sigma(t): the bag's intersection with the parent bag (empty at the root)."""
        node = self.nodes[t]
        if node.parent is None:
            return frozenset()
        return node.bag & self.nodes[node.parent].bag

    def cone(self, t: int) -> FrozenSet[int]:
        """gamma(t): the union of all bags in the subtree rooted at t."""
        out: set = set()
        stack = [t]
        while stack:
            node = self.nodes[stack.pop()]
            out |= node.bag
            stack.extend(node.children)
        return frozenset(out)

    def depth(self) -> int:
        """Number of nodes on the longest root-to-leaf path."""
        if not self.nodes:
            return 0
        depths = [0] * len(self.nodes)
        best = 0
        for node in self.nodes:  # parents precede children in id order
            depths[node.id] = 1 if node.parent is None else depths[node.parent] + 1
            best = max(best, depths[node.id])
        return best

    def total_bag_size(self) -> int:
        return sum(len(node.bag) for node in self.nodes)

    def max_adhesion(self) -> int:
        return max(
            (len(self.adhesion_set(t)) for t in range(len(self.nodes))), default=0
        )


@dataclass(frozen=True)
class DecompositionReport:
    """Summary quantities recomputed from a finished decomposition."""

    q_bound: int
    max_adhesion: int
    depth: int
    node_count: int
    total_bag_size: int
    variant: str
    seed: Optional[int]


def variant_parameters(k: int, epsilon) -> Dict[str, Dict[str, int]]:
    """Separator budget sigma, boundary-check threshold q_chk, guaranteed
    unbreakability q_bound, and adhesion guarantee per variant."""
    lev = math.ceil(1 / epsilon)
    return {
        VARIANT_STANDARD: {
            "sigma": lev * k + k,
            "q_chk": k,
            "q_bound": 2 * lev * k + 3 * k,
            "adhesion_bound": 2 * (lev * k + k),
            "terminate_below": 0,
        },
        VARIANT_DEPTH_REDUCED: {
            "sigma": 5 * lev * k,
            "q_chk": lev * k + k,
            "q_bound": k + 10 * lev * k,
            "adhesion_bound": 10 * lev * k,
            "terminate_below": 10 * lev * k,
        },
    }


def _separator_set(
    h: Graph, b: FrozenSet[int], k: int, epsilon, params: dict, rng
) -> FrozenSet[int]:
    """The bag X of the current recursion step (B < X means recursion
    continues; X == B signals the single-bag corner case)."""
    sigma = params["sigma"]
    q_chk = params["q_chk"]
    lev = math.ceil(1 / epsilon)
    if sigma + 1 <= len(b) <= 2 * sigma:
        # shrink the boundary: either a small breakable witness of B joins
        # the bag, or B is already unbreakable and grows to low adhesion
        verdict = check_unbreakable(h, b, q_chk, k)
        if verdict != UNBREAKABLE:
            x = b | verdict.separator
        else:
            x = frozenset(reduce_adhesion(h, b, k, q_chk, epsilon, rng))
        assert adhesion(h, x) <= len(b) - (1 if q_chk == k else lev * k)
    else:
        assert len(b) <= sigma
        x = b | unbreakable_balanced_set(h, k, epsilon, rng)
        assert adhesion(h, x) <= 2 * sigma
    return x


def _check_variant(variant) -> None:
    if variant not in (VARIANT_STANDARD, VARIANT_DEPTH_REDUCED):
        raise ValueError(f"unknown variant {variant!r}")


def decompose(
    g: Graph,
    k: int,
    epsilon,
    variant: str = VARIANT_STANDARD,
    rng=None,
    seed: Optional[int] = None,
) -> Tuple[RootedTreeDecomposition, DecompositionReport]:
    """Tree decomposition of g whose bags are unbreakable within their own
    subtree graphs and whose adhesion is bounded, built recursively from
    balanced unbreakable separators.

    STANDARD targets (2⌈1/ε⌉k+3k, k)-unbreakable bags with adhesion
    ≤ 2⌈1/ε⌉k+2k; DEPTH_REDUCED trades constant factors for logarithmic
    depth. Disconnected inputs yield per-component subtrees, all but the
    first hanging below the first component's root with empty adhesion.
    Without an rng, a `random.Random(seed)` is used.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if not 0 < epsilon <= 1:
        raise ValueError("epsilon must be in (0, 1]")
    _check_variant(variant)
    if rng is None:
        rng = random.Random(seed)
    params = variant_parameters(k, epsilon)[variant]
    sigma = params["sigma"]

    deco = RootedTreeDecomposition(g.n)
    comps = connected_components(g)
    # work items: (local graph, local->global id map, local boundary, parent)
    stack: List[Tuple[Graph, List[int], FrozenSet[int], Optional[int]]] = []
    if len(comps) <= 1:
        stack.append((g, list(range(g.n)), frozenset(), None))
    else:
        # every component after the first hangs below the first component's
        # root (node 0, created on the first pop) with an empty adhesion;
        # this keeps the node count at most n
        for comp in reversed(comps[1:]):
            sub, ids = induced_subgraph(g, comp)
            stack.append((sub, ids, frozenset(), 0))
        sub, ids = induced_subgraph(g, comps[0])
        stack.append((sub, ids, frozenset(), None))

    while stack:
        h, ids, b, parent = stack.pop()
        assert len(b) <= 2 * sigma
        assert len(connected_components(h, b)) == (1 if h.n > len(b) else 0)
        assert neighborhood(h, set(range(h.n)) - b) == b

        if variant == VARIANT_DEPTH_REDUCED and h.n <= params["terminate_below"]:
            deco.add_node(parent, frozenset(ids))
            continue
        x = _separator_set(h, b, k, epsilon, params, rng)
        if x == b:
            # the remainder is one small balanced component; close it out
            assert h.n <= 2 * sigma
            deco.add_node(parent, frozenset(ids))
            continue
        node = deco.add_node(parent, frozenset(ids[v] for v in x))
        for d in reversed(connected_components(h, x)):
            boundary = neighborhood(h, d)
            sub, sub_ids = induced_subgraph(h, d | boundary, drop_within=boundary)
            pos = {v: i for i, v in enumerate(sub_ids)}
            local_b = frozenset(pos[v] for v in boundary)
            stack.append((sub, [ids[v] for v in sub_ids], local_b, node))

    if not deco.nodes:  # empty graph
        deco.add_node(None, frozenset())
    if __debug__:
        for t in range(len(deco.nodes)):
            assert deco.bag(t) > deco.adhesion_set(t) or (
                t == deco.root and not deco.bag(t)
            )
    report = DecompositionReport(
        q_bound=params["q_bound"],
        max_adhesion=deco.max_adhesion(),
        depth=deco.depth(),
        node_count=len(deco.nodes),
        total_bag_size=deco.total_bag_size(),
        variant=variant,
        seed=seed,
    )
    return deco, report


def decomposition_to_json(
    deco: RootedTreeDecomposition, variant: str, seed: Optional[int]
) -> str:
    """Canonical JSON serialization; byte-identical for equal inputs."""
    payload = {
        "n": deco.n,
        "variant": variant,
        "seed": seed,
        "nodes": [
            {
                "id": node.id,
                "parent": node.parent,
                "bag": sorted(node.bag),
            }
            for node in deco.nodes
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=False) + "\n"


def decomposition_from_json(text: str) -> Tuple[RootedTreeDecomposition, str, Optional[int]]:
    """Inverse of `decomposition_to_json`; raises ValueError on a missing
    key, a bad node id or parent, a bag vertex outside 0..n-1, or an
    unknown variant."""
    payload = json.loads(text)
    try:
        deco = RootedTreeDecomposition(int(payload["n"]))
        nodes = sorted(payload["nodes"], key=lambda d: d["id"])
        for i, nd in enumerate(nodes):
            if nd["id"] != i:
                raise ValueError("node ids must be 0..count-1")
            parent = nd["parent"]
            if parent is not None and not 0 <= parent < i:
                raise ValueError(f"node {i} has invalid parent {parent}")
            bag = frozenset(int(v) for v in nd["bag"])
            for v in bag:
                if not 0 <= v < deco.n:
                    raise ValueError(f"node {i} has vertex {v} outside 0..{deco.n - 1}")
            deco.add_node(parent, bag)
    except KeyError as exc:
        raise ValueError(f"decomposition JSON lacks the key {exc}") from None
    except TypeError as exc:
        raise ValueError(f"malformed decomposition JSON: {exc}") from None
    variant = payload.get("variant", VARIANT_STANDARD)
    _check_variant(variant)
    return deco, variant, payload.get("seed")
