"""Output-identity digests of the perfbench pools, to compare two checkouts.

usage (from the repository root): python3 tools/pool_digest.py [SRC]

For each workload of perfbench/workloads.py, runs the library call on
every instance of the seed-1 pool (128 decomp_gnp, 288 decomp_sparse and
320 pwaycut instances), each with a fresh Random(inst.seed) as the
benchmark hands it, and prints one JSON line: the workload, the instance
count, a sha256 over the outputs in pool order (each as the workload's own
`digest` renders it) and the seconds the calls took. Equal digests at two
checkouts mean equal outputs on every pool instance.

SRC is the source directory to import qktree from (default: src). Only
perfbench/ is read from this checkout, and nothing is written.
"""

import json
import os
import random
import sys
import time
from types import SimpleNamespace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [sys.argv[1] if len(sys.argv) > 1 else os.path.join(ROOT, "src"),
                os.path.join(ROOT, "perfbench")]

import importlib  # noqa: E402

import workloads  # noqa: E402

lib = SimpleNamespace(**{
    name: importlib.import_module(f"qktree.{name}")
    for name in ("core", "decomp", "pwaycut", "verify")
})

for name, workload in workloads.WORKLOADS.items():
    pool = workloads.make_pool(workload, 1, workload.pool_cycles)
    lines = []
    t0 = time.perf_counter()
    for inst in pool:
        out = workload.call(lib, inst, random.Random(inst.seed))
        lines.append(workload.digest(lib, inst, out))
    seconds = time.perf_counter() - t0
    print(json.dumps({"workload": name, "instances": len(pool),
                      "digest": workloads.sha256_lines(lines),
                      "seconds": round(seconds, 2)}), flush=True)
