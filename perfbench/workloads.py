"""Seeded instances, library calls and correctness checks for the benchmark
workloads.

Every instance comes from ``random.Random`` draws made from the workload
seed, never from the built-in ``hash()``, so equal seeds give equal inputs
under any ``PYTHONHASHSEED``. Instances follow a fixed cycle of strata
(graph family, size, variant or p); the seed draws the graph inside
each stratum and the rng seed of each library call. A run measures whole
cycles, so every run sees the same mix of strata and its latency
percentiles compare across seeds.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

EPSILON = 1


@dataclass(frozen=True)
class Instance:
    index: int
    family: str
    n: int
    edges: Tuple[Tuple[int, int], ...]
    k: int
    variant: Optional[str]  # decomposition variant (decomp_* workloads)
    p: Optional[int]  # number of parts (pwaycut workload)
    seed: int  # seed of the random.Random handed to the library call

    def key(self) -> str:
        """Canonical text of the instance's inputs."""
        return json.dumps(
            [self.family, self.n, self.edges, self.k, self.variant, self.p, self.seed]
        )


@dataclass(frozen=True)
class Workload:
    name: str
    # one cycle of instances drawn from a per-cycle rng
    make_cycle: Callable[[random.Random, int], List[Instance]]
    cycle_len: int
    pool_cycles: int  # cycles generated at set-up; runs that need more wrap around
    trace_cycles: int  # cycles measured by a traced run
    call: Callable  # (lib, instance, rng) -> output
    check: Callable  # (lib, instance, output) -> (failures, checked, skipped)
    digest: Callable  # (lib, instance, output) -> canonical output text
    bag_ratio: Callable  # (lib, instance, output) -> total bag size / n, or None


# --------------------------------------------------------------------------
# graph generators


def _relabel(n: int, edges, rng: random.Random) -> Tuple[Tuple[int, int], ...]:
    perm = list(range(n))
    rng.shuffle(perm)
    return tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges))


def gnm_edges(n: int, m: int, rng: random.Random) -> Tuple[Tuple[int, int], ...]:
    """Uniform random graph with exactly m edges."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return tuple(sorted(rng.sample(pairs, m)))


def is_connected(n: int, edges) -> bool:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def path_edges(n: int, rng: random.Random):
    return _relabel(n, [(i, i + 1) for i in range(n - 1)], rng)


def tree_edges(n: int, rng: random.Random):
    """Random recursive tree (vertex i hangs below a uniform earlier vertex)."""
    return _relabel(n, [(rng.randrange(i), i) for i in range(1, n)], rng)


def grid_edges(rows: int, cols: int, rng: random.Random):
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return _relabel(rows * cols, edges, rng)


# --------------------------------------------------------------------------
# decomposition workloads


def _call_decompose(lib, inst: Instance, rng):
    g = lib.core.Graph(inst.n, inst.edges)
    return lib.decomp.decompose(g, inst.k, EPSILON, inst.variant, rng=rng, seed=inst.seed)


def _check_decompose(lib, inst: Instance, out):
    """Structure at the variant's adhesion bound, node count <= n, the
    DEPTH_REDUCED depth bound, and per-bag unbreakability at q_bound.
    Bags too large for the exhaustive check are counted as skipped."""
    deco, report = out
    g = lib.core.Graph(inst.n, inst.edges)
    params = lib.decomp.variant_parameters(inst.k, EPSILON)[inst.variant]
    failures = [
        f"{r.name}: {r.detail}"
        for r in lib.verify.validate_decomposition(
            g, deco, adhesion_bound=params["adhesion_bound"]
        )
        if not r.passed
    ]
    if report.node_count > inst.n:
        failures.append(f"node count {report.node_count} > n = {inst.n}")
    if inst.variant == lib.decomp.VARIANT_DEPTH_REDUCED:
        limit = 8 * math.ceil(math.log2(inst.n))
        if report.depth > limit:
            failures.append(f"depth {report.depth} > {limit}")
    unb = lib.verify.verify_subtree_unbreakability(g, deco, params["q_bound"], inst.k)
    failures += [f"bag {t} breakable" for t, _cut in unb.failures]
    return failures, len(unb.checked), len(unb.skipped)


def _digest_decompose(lib, inst: Instance, out) -> str:
    deco, _report = out
    return lib.decomp.decomposition_to_json(deco, inst.variant, inst.seed)


def _bag_ratio_decompose(lib, inst: Instance, out) -> float:
    return out[1].total_bag_size / inst.n


def _gnp_cycle(rng: random.Random, index: int) -> List[Instance]:
    """One G(60, 0.08) graph, decomposed at k = 3 with both variants.

    The graph has exactly round(0.08 * C(60, 2)) = 142 edges, the expected
    edge count of G(60, 0.08): decomposition cost grows with the edge
    count, and fixing it keeps the spread between seeds down."""
    n = 60
    edges = gnm_edges(n, round(0.08 * n * (n - 1) / 2), rng)
    seed = rng.getrandbits(32)
    return [
        Instance(index + i, "gnm", n, edges, 3, variant, None, seed)
        for i, variant in enumerate(("STANDARD", "DEPTH_REDUCED"))
    ]


_SPARSE_SIZES = (40, 50, 60)
_GRID_SHAPES = {40: (5, 8), 50: (5, 10), 60: (6, 10)}


def _sparse_cycle(rng: random.Random, index: int) -> List[Instance]:
    """A path, a random tree and a grid (k = 1, the grid also k = 2) at each
    of n = 40, 50 and 60; STANDARD throughout. Sizes are fixed per stratum
    because cost grows with n, and random sizes would make the mix differ
    from seed to seed. Larger sizes (a path of 100 takes seconds, with a
    wide spread from the algorithm's own randomness) would leave too few
    instances per run for a steady 90th percentile."""
    out = []
    for n in _SPARSE_SIZES:
        for family, k in (("path", 1), ("tree", 1), ("grid", 1), ("grid", 2)):
            if family == "path":
                edges = path_edges(n, rng)
            elif family == "tree":
                edges = tree_edges(n, rng)
            else:
                edges = grid_edges(*_GRID_SHAPES[n], rng)
            out.append(
                Instance(index + len(out), family, n, edges, k, "STANDARD", None,
                         rng.getrandbits(32))
            )
    return out


# --------------------------------------------------------------------------
# p-way cut workload

_PWAY_SIZES = (16, 17, 18, 19, 20)
_PWAY_K = 4


def _pway_cycle(rng: random.Random, index: int) -> List[Instance]:
    """Connected sparse graphs at n = 16 to 20, each with p = 3 and p = 4,
    k = 4. Each graph has exactly round(1.35 (n - 1)) edges, the expected
    edge count of G(n, 2.7/n), and is resampled until connected: DP cost
    grows steeply with n and the edge count, and its spread between graphs
    of one size is wide, so the sizes stay small enough for about a hundred
    instances per run and the edge count is fixed."""
    out = []
    for n in _PWAY_SIZES:
        for p in (3, 4):
            while True:
                edges = gnm_edges(n, round(1.35 * (n - 1)), rng)
                if is_connected(n, edges):
                    break
            out.append(
                Instance(index + len(out), "gnm-connected", n, edges, _PWAY_K, None, p,
                         rng.getrandbits(32))
            )
    return out


def _call_pway(lib, inst: Instance, rng):
    g = lib.core.Graph(inst.n, inst.edges)
    return lib.pwaycut.min_pway_cut(g, inst.p, inst.k, EPSILON, rng=rng, seed=inst.seed)


def _check_pway(lib, inst: Instance, result):
    """Exact agreement with the brute-force oracle."""
    g = lib.core.Graph(inst.n, inst.edges)
    oracle = lib.verify.brute_pway_cut(g, inst.p, inst.k)
    if oracle == lib.verify.INFEASIBLE:
        ok = not result.feasible
    else:
        ok = result.feasible and result.cost == oracle
    failures = [] if ok else [f"cost {result.cost}, brute force {oracle}"]
    return failures, 0, 0


def _digest_pway(lib, inst: Instance, out) -> str:
    return json.dumps(out.to_json_dict(), sort_keys=True)


# instances whose bag ratio is taken: the first three cycles, every stratum
# three times (rebuilding every instance's tree would add a third to the run)
_PWAY_RATIO_INSTANCES = 3 * 2 * len(_PWAY_SIZES)


def _bag_ratio_pway(lib, inst: Instance, out) -> Optional[float]:
    """Bag ratio of the decomposition min_pway_cut builds, rebuilt here,
    outside the timed region, for the first _PWAY_RATIO_INSTANCES instances.
    On these instances (connected, p <= k + 1) min_pway_cut always
    decomposes, with STANDARD and the fresh Random(seed) it is handed, so
    the rebuild gives the same tree."""
    if inst.index >= _PWAY_RATIO_INSTANCES:
        return None
    g = lib.core.Graph(inst.n, inst.edges)
    _deco, report = lib.decomp.decompose(
        g, inst.k, EPSILON, lib.decomp.VARIANT_STANDARD,
        rng=random.Random(inst.seed), seed=inst.seed,
    )
    return report.total_bag_size / inst.n


WORKLOADS = {
    w.name: w
    for w in (
        Workload("decomp_gnp", _gnp_cycle, 2, 64, 8,
                 _call_decompose, _check_decompose, _digest_decompose,
                 _bag_ratio_decompose),
        Workload("decomp_sparse", _sparse_cycle, 12, 24, 3,
                 _call_decompose, _check_decompose, _digest_decompose,
                 _bag_ratio_decompose),
        Workload("pwaycut", _pway_cycle, 10, 32, 4,
                 _call_pway, _check_pway, _digest_pway, _bag_ratio_pway),
    )
}


def make_pool(workload: Workload, seed: int, cycles: int) -> List[Instance]:
    """The first `cycles` cycles of the workload's instance sequence."""
    master = random.Random(seed)
    pool: List[Instance] = []
    for _ in range(cycles):
        pool += workload.make_cycle(random.Random(master.getrandbits(64)), len(pool))
    return pool


def sha256_lines(lines: Sequence[str]) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()
