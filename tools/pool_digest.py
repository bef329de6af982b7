"""Output-identity digests of the perfbench pools and the criteria 1-2
corpus, to compare two checkouts.

usage (from the repository root): python3 tools/pool_digest.py [SRC]

For each workload of perfbench/workloads.py, runs the library call on
every instance of the seed-1 pool (128 decomp_gnp, 288 decomp_sparse and
320 pwaycut instances), each with a fresh Random(inst.seed) as the
benchmark hands it, and prints one JSON line: the workload, the instance
count, a sha256 over the outputs in pool order (each as the workload's own
`digest` renders it), the seconds the calls took, and two
machine-independent counts of the calls' work, taken by wrappers this tool
installs: the removal profiles (origin._removal_profile, one DFS pass of
the separator sweep each) and the flows (flow.bounded_vertex_maxflow). A
last line, workload "corpus", does the same for the 720 decompositions of
acceptance criteria 1-2 (tests/test_acceptance.py: 120 graphs, k = 1, 2,
3, STANDARD then DEPTH_REDUCED, each with Random(k) and seed k), one line
each: its decomposition_to_json. Equal digests at two checkouts mean equal outputs
on every instance.

SRC is the source directory to import qktree from (default: src). Only
perfbench/ and tests/ are read from this checkout, and nothing is written.
"""

import json
import os
import random
import sys
import time
from types import SimpleNamespace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [sys.argv[1] if len(sys.argv) > 1 else os.path.join(ROOT, "src"),
                os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "tests")]

import importlib  # noqa: E402

import workloads  # noqa: E402
from test_acceptance import decomposition_corpus  # noqa: E402

lib = SimpleNamespace(**{
    name: importlib.import_module(f"qktree.{name}")
    for name in ("core", "decomp", "flow", "origin", "pwaycut", "verify")
})
counts = {"removal_profiles": 0, "flows": 0}


def count_calls(module, name, key):
    """Rebind module.name, in every qktree module that holds it, to a
    wrapper that counts its calls under counts[key]."""
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        counts[key] += 1
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("qktree.") and getattr(mod, name, None) is original:
            setattr(mod, name, wrapper)


count_calls(lib.origin, "_removal_profile", "removal_profiles")
count_calls(lib.flow, "bounded_vertex_maxflow", "flows")


def report(name, lines, seconds):
    print(json.dumps({"workload": name, "instances": len(lines),
                      "digest": workloads.sha256_lines(lines),
                      "seconds": round(seconds, 2), **counts}), flush=True)
    counts.update(dict.fromkeys(counts, 0))


for name, workload in workloads.WORKLOADS.items():
    pool = workloads.make_pool(workload, 1, workload.pool_cycles)
    lines = []
    t0 = time.perf_counter()
    for inst in pool:
        out = workload.call(lib, inst, random.Random(inst.seed))
        lines.append(workload.digest(lib, inst, out))
    report(name, lines, time.perf_counter() - t0)

decomp = lib.decomp
lines = []
t0 = time.perf_counter()
for variant in (decomp.VARIANT_STANDARD, decomp.VARIANT_DEPTH_REDUCED):
    for _name, g in decomposition_corpus():
        for k in (1, 2, 3):
            deco, _report = decomp.decompose(
                g, k, 1, variant, rng=random.Random(k), seed=k
            )
            lines.append(
                decomp.decomposition_to_json(deco, variant, k).rstrip("\n")
            )
report("corpus", lines, time.perf_counter() - t0)
