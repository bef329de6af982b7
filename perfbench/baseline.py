"""Measure a baseline: for each workload, one set of untraced runs per seed
range, summarised as medians, quartiles and spreads (quartile distance over
median), how far each later set's medians lie from the first set's, and
one traced run (seed 1) with per-layer self-time shares.

    python3 perfbench/baseline.py --seeds 1-10 11-20 --out perfbench/baseline.json

Runs are sequential, one process each, from the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TRACE_SEED = 1


def run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    *_, summary, result = proc.stdout.strip().splitlines()
    print(summary, file=sys.stderr, flush=True)
    return json.loads(result)


def summarise(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def seed_range(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def worse_by(metric: dict, first: float, later: float) -> float:
    """How much worse `later` is than `first`, as a share of `first`."""
    change = (later - first) / first if first else 0.0
    return change if metric["better"] == "lower" else -change


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, nargs="+", default=[seed_range("1-10")],
                        help="one seed range (such as 1-10) per set of untraced runs")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    out = {
        "environment": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "machine": platform.machine(),
            "run_seconds": SPEC["run_seconds"],
        },
        "seed_sets": args.seeds,
        "trace_seed": TRACE_SEED,
        "workloads": {},
    }
    for workload in (w["name"] for w in SPEC["workloads"]):
        sets = []
        for seeds in args.seeds:
            results = [run(workload, seed, 0) for seed in seeds]
            sets.append({
                "seeds": seeds,
                "attempted": [r["attempted"] for r in results],
                "failed": [r["failed"] for r in results],
                "end_to_end": {
                    m["name"]: summarise([r["metrics"][m["name"]]["value"] for r in results])
                    for m in SPEC["end_to_end"]
                },
            })
        # each later set against the first: spread and median shift within the bound
        agreement = {
            m["name"]: {
                "bound": m["bound"],
                "spreads": [s["end_to_end"][m["name"]]["spread"] for s in sets],
                "worse_by": [
                    worse_by(m, sets[0]["end_to_end"][m["name"]]["median"],
                             s["end_to_end"][m["name"]]["median"])
                    for s in sets[1:]
                ],
            }
            for m in SPEC["end_to_end"]
        }
        for name, a in agreement.items():
            spreads = a["spreads"] if name != "setup_s" else []
            a["within_bound"] = max(spreads + a["worse_by"], default=0.0) <= a["bound"]

        traced = run(workload, TRACE_SEED, 1)
        layer_ms = {
            name.split(".")[0]: m["value"]
            for name, m in traced["metrics"].items() if name.endswith(".self_ms")
        }
        pipeline_ms = sum(v for layer, v in layer_ms.items() if layer != "verify")
        out["workloads"][workload] = {
            "sets": sets,
            "agreement": agreement,
            "traced": {name: m["value"] for name, m in traced["metrics"].items()},
            "traced_failed": traced["failed"],
            "self_time_share": {
                layer: ms / pipeline_ms
                for layer, ms in layer_ms.items() if layer != "verify"
            },
        }
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
