"""Scaling rows of `decompose` on sparse graphs of growing size, to compare
two checkouts and to track the running time's growth in n.

usage (from the repository root):
    python3 -O tools/scaling.py [SRC]

For each k in K_VALUES and n = 100, 200, 400, ... up to MAX_N, it decomposes one
graph per n: a random recursive tree on n vertices plus uniform random
edges up to m = round(1.35 (n - 1)), drawn with Random(1), by
decompose(g, k, 1, seed=0) (STANDARD, epsilon = 1). One JSON line per row
gives k, n, m, the CPU seconds of the call, its flows
(flow.bounded_vertex_maxflow) split by caller into ssmc's per-sink
pre-filter, the witness covers' heavy-vertex memo (the stop rule's flows
where no memo exists) and the rest, its removal profiles
(origin._removal_profile, one DFS pass of the separator sweep each), its
node count and a sha256 prefix of its decomposition_to_json. Equal
prefixes at two checkouts mean equal decompositions.

A row that takes more than CAP_S CPU seconds is k's last: the
next n would take several times longer, so one run stays under about five
minutes. After each k, one line gives the least-squares slope of
log(seconds) on log(n) over its last three rows. No test or bound reads
these numbers.

Run it under -O: otherwise the library's asserts (an adhesion check per
witness-cover level in adhesion.py) are part of the times. SRC is the
source directory to import qktree from (default: src).
"""

import hashlib
import json
import math
import os
import random
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
K_VALUES = (1, 2, 3)
CAP_S = 15.0
MAX_N = 3200
sys.path.insert(0, sys.argv[1] if len(sys.argv) > 1 else os.path.join(ROOT, "src"))

from qktree import flow, origin  # noqa: E402
from qktree.core import Graph  # noqa: E402
from qktree.decomp import VARIANT_STANDARD, decompose, decomposition_to_json  # noqa: E402

# the function each kind of flow is called from
CALLERS = {"single_source_mincut_cover": "prefilter",
           "heavy": "memo", "_within_cut_bound": "memo"}
counts = {"prefilter": 0, "memo": 0, "rest": 0, "removal_profiles": 0}


def rebind(module, name, count):
    """Rebind module.name, in every qktree module that holds it, to a
    wrapper that first calls count with its caller's frame."""
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        count(sys._getframe(1))
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("qktree.") and getattr(mod, name, None) is original:
            setattr(mod, name, wrapper)


def count_flow(frame):
    counts[CALLERS.get(frame.f_code.co_name, "rest")] += 1


def count_profile(_frame):
    counts["removal_profiles"] += 1


rebind(flow, "bounded_vertex_maxflow", count_flow)
rebind(origin, "_removal_profile", count_profile)


def sparse_graph(n: int) -> Graph:
    """A random recursive tree plus uniform random edges, m = round(1.35 (n - 1))."""
    rng = random.Random(1)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    m = round(1.35 * (n - 1))
    while len(edges) < m:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return Graph(n, sorted(edges))


def slope(rows) -> float:
    xs = [math.log(r["n"]) for r in rows]
    ys = [math.log(max(r["cpu_s"], 1e-3)) for r in rows]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum(
        (x - mx) ** 2 for x in xs)


print(json.dumps({"src": os.path.dirname(flow.__file__),
                  "optimize": sys.flags.optimize, "cap_s": CAP_S}), flush=True)
for k in K_VALUES:
    rows = []
    n = 100
    while n <= MAX_N:
        g = sparse_graph(n)
        counts.update(dict.fromkeys(counts, 0))
        t0 = time.process_time()
        deco, report = decompose(g, k, 1, seed=0)
        cpu = time.process_time() - t0
        out = decomposition_to_json(deco, VARIANT_STANDARD, k)
        row = {"k": k, "n": n, "m": g.m, "cpu_s": round(cpu, 2),
               "flows": counts["prefilter"] + counts["memo"] + counts["rest"],
               **counts, "nodes": report.node_count,
               "digest": hashlib.sha256(out.encode()).hexdigest()[:16]}
        rows.append(row)
        print(json.dumps(row), flush=True)
        if cpu > CAP_S:
            break
        n *= 2
    if len(rows) >= 2:
        top = rows[-3:]
        print(json.dumps({"k": k, "slope": round(slope(top), 2),
                          "over_n": [r["n"] for r in top]}), flush=True)
