"""Output-identity digests for the p-way DP, to compare two checkouts.

usage (from the repository root): python3 tools/pway_digest.py MODE [SRC]

  vectors  the seed-1 `pwaycut` perfbench pool (320 instances): each
           decomposition is built first as min_pway_cut builds it, then
           the DP runs from the rng state that leaves. Prints a sha256 over
           (index, root entry) and every (t, f) vector in solver.vectors
           order; an order-free sha256 over (index, root entry) and the
           canonical vectors (colors numbered by first occurrence) sorted
           by key; the DP's seconds; and how many canonical colorings each
           node computed by the exact regime serves. A second, untimed pass
           counts the colorings the exact regime's search completes (a
           machine-independent count of its work).
  coded    the coded regime forced (config.PWAY_EXACT_BAG_LIMIT = -1) on 48
           connected G(n, p') graphs, n 5-10, p' in [0.25, 0.5], times
           p 2-4 and k 1-3. Prints a sha256 over each answer, every (t, f)
           vector of the solver and the rng state after each call.
  mem      tracemalloc peak per DP on the `vectors` pool, in MB.

SRC is the source directory to import qktree from (default: src).
"""

import hashlib
import json
import os
import random
import sys
import time
from collections import Counter, defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
mode = sys.argv[1]
sys.path[:0] = [sys.argv[2] if len(sys.argv) > 2 else os.path.join(ROOT, "src"),
                os.path.join(ROOT, "perfbench")]
sys.setrecursionlimit(10000)

from qktree import config, pwaycut  # noqa: E402
from qktree.core import Graph, connected_components  # noqa: E402
from qktree.decomp import VARIANT_STANDARD, decompose  # noqa: E402
import workloads  # noqa: E402


def pool_solvers():
    """(instance, decomposition, fresh solver) per pool instance."""
    for inst in workloads.make_pool(workloads.WORKLOADS["pwaycut"], 1, 32):
        g = Graph(inst.n, inst.edges)
        rng = random.Random(inst.seed)
        deco, _ = decompose(g, inst.k, 1, VARIANT_STANDARD, rng=rng,
                            seed=inst.seed)
        yield inst, deco, lambda g=g, deco=deco, inst=inst, rng=rng: (
            pwaycut.PwayCutSolver(g, deco, inst.p, inst.k, 1, rng))


if mode == "vectors":
    runs = list(pool_solvers())
    t0 = time.perf_counter()
    solvers = [make() for _, _, make in runs]
    roots = [s.entry(deco.root, (), s.full)
             for s, (_, deco, _) in zip(solvers, runs)]
    dp_s = time.perf_counter() - t0
    h = hashlib.sha256()
    unordered = hashlib.sha256()
    for s, root, (inst, _, _) in zip(solvers, roots, runs):
        h.update(repr((inst.index, root)).encode())
        for key, vec in s.vectors.items():
            h.update(repr((key, vec)).encode())
        unordered.update(repr((inst.index, root)).encode())
        canonical = [key for key in s.vectors if s._canonical(key[1])[0] == key[1]]
        for key in sorted(canonical):
            unordered.update(repr((key, s.vectors[key])).encode())
    exact_fs = defaultdict(set)
    exact = pwaycut.PwayCutSolver._exact_vector
    # the search is the one function nested in PwayCutSolver._search (None
    # in a checkout without it); a call with every vertex of its plan
    # colored is a completed coloring
    outer = getattr(pwaycut.PwayCutSolver, "_search", None)
    search = outer and next(c for c in outer.__code__.co_consts
                            if getattr(c, "co_name", None) == "search")
    completed = [0 if search else None]

    def count_completed(frame, event, _arg):
        if event == "call" and frame.f_code is search:
            scope = frame.f_locals
            completed[0] += scope["i"] == scope["last"]

    for inst, deco, make in runs:
        s = make()
        s._exact_vector = lambda t, f, i=inst.index, s=s: (
            exact_fs[(i, t)].add(f) or exact(s, t, f))
        sys.setprofile(count_completed)
        try:
            s.entry(deco.root, (), s.full)
        finally:
            sys.setprofile(None)
    hist = Counter(len(v) for v in exact_fs.values())
    print(json.dumps({
        "instances": len(runs), "digest": h.hexdigest(),
        "unordered_digest": unordered.hexdigest(), "dp_s": round(dp_s, 3),
        "exact_nodes": len(exact_fs),
        "exact_vectors": sum(len(v) for v in exact_fs.values()),
        "canonical_f_per_node_histogram": dict(sorted(hist.items())),
        "completed_colorings": completed[0],
    }))

elif mode == "mem":
    import tracemalloc
    peaks = []
    for inst, deco, make in pool_solvers():
        tracemalloc.start()
        s = make()
        s.entry(deco.root, (), s.full)
        peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
        tracemalloc.stop()
    print(json.dumps({"max_mb": round(max(peaks), 3),
                      "mean_mb": round(sum(peaks) / len(peaks), 3)}))

elif mode == "coded":
    config.PWAY_EXACT_BAG_LIMIT = -1
    solvers = []
    entry = pwaycut.PwayCutSolver.entry

    def recording_entry(self, t, f, imask):
        solvers.append(self)
        return entry(self, t, f, imask)

    pwaycut.PwayCutSolver.entry = recording_entry
    h = hashlib.sha256()
    calls, made, seed = 0, 0, 0
    t0 = time.perf_counter()
    while made < 48:
        grng = random.Random(seed)
        n = grng.randint(5, 10)
        prob = grng.uniform(0.25, 0.5)
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                      if grng.random() < prob])
        seed += 1
        if len(connected_components(g)) != 1:
            continue
        made += 1
        for p in (2, 3, 4):
            for k in (1, 2, 3):
                rng = random.Random(seed * 100 + p * 10 + k)
                solvers.clear()
                res = pwaycut.min_pway_cut(g, p, k, 1, rng=rng)
                calls += 1
                h.update(repr((seed, p, k, res.feasible, res.cost)).encode())
                for s in solvers:
                    for key, vec in s.vectors.items():
                        h.update(repr((key, vec)).encode())
                h.update(repr(rng.getstate()).encode())
    print(json.dumps({"calls": calls, "digest": h.hexdigest(),
                      "seconds": round(time.perf_counter() - t0, 2)}))

else:
    sys.exit(__doc__)
