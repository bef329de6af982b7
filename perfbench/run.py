"""qktree benchmark: a closed-loop batch runner.

One process, one thread, one instance at a time. Each instance is a call
of ``decompose`` or ``min_pway_cut`` on a graph made from the workload
seed; its output is checked after the timed region.

    python3 perfbench/run.py --workload decomp_gnp --seed 1 --seconds 35 --trace 0

With ``--trace 0`` the run measures whole cycles of instances for about
``--seconds`` seconds and prints the end-to-end metrics. With ``--trace 1``
it runs a fixed number of instances (``--instances``, default one
workload-specific batch), each once untraced and once traced, and prints
the per-layer metrics; spans go to ``perfbench/out/``. The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import random
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

from speed import Clock  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, make_pool, sha256_lines  # noqa: E402

LIB_MODULES = (
    "core", "flow", "isolating", "ssmc", "origin", "carving",
    "adhesion", "decomp", "pwaycut", "verify",
)
SETUP_REPEATS = 5


class SetupError(Exception):
    pass


def load_library() -> SimpleNamespace:
    """Import qktree from this checkout's src/, afresh each time."""
    for name in [m for m in sys.modules if m == "qktree" or m.startswith("qktree.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        mods = {name: importlib.import_module(f"qktree.{name}") for name in LIB_MODULES}
    except ImportError as exc:
        raise SetupError(f"cannot import qktree from {SRC}: {exc}") from exc
    for mod in mods.values():
        if not Path(mod.__file__).resolve().is_relative_to(SRC):
            raise SetupError(f"{mod.__name__} was imported from {mod.__file__}, not {SRC}")
    return SimpleNamespace(**mods)


def timed_call(workload, lib, inst):
    """(output or the exception raised, seconds)."""
    rng = random.Random(inst.seed)
    start = perf_counter()
    try:
        out = workload.call(lib, inst, rng)
    except Exception as exc:  # a failed instance is counted, never fatal
        out = exc
    return out, perf_counter() - start


def check_all(workload, lib, runs):
    """Per-instance failure lists, plus checked and skipped bag totals."""
    failures, checked, skipped = [], 0, 0
    for inst, out in runs:
        if isinstance(out, Exception):
            lines = traceback.format_exception(out)
            failures.append((inst, [lines[-1].strip()], "".join(lines)))
            continue
        try:
            bad, c, s = workload.check(lib, inst, out)
        except Exception as exc:
            lines = traceback.format_exception(exc)
            failures.append((inst, [f"check raised {lines[-1].strip()}"], "".join(lines)))
            continue
        checked += c
        skipped += s
        if bad:
            failures.append((inst, bad, ""))
    return failures, checked, skipped


def report_failures(failures) -> None:
    for inst, reasons, tb in failures[:5]:
        print(f"FAILED instance {inst.index} ({inst.family}, n={inst.n}, k={inst.k}, "
              f"variant={inst.variant}, p={inst.p}): {'; '.join(reasons)}", file=sys.stderr)
        if tb:
            print(tb, file=sys.stderr)


def digests(workload, lib, runs):
    """sha256 of the instances' inputs and of their outputs."""
    inputs = sha256_lines([inst.key() for inst, _ in runs])
    outputs = sha256_lines([
        repr(out) if isinstance(out, Exception) else workload.digest(lib, inst, out)
        for inst, out in runs
    ])
    return inputs, outputs


def run_untraced(workload, args):
    clock = Clock()
    setups = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        lib = load_library()
        pool = make_pool(workload, args.seed, workload.pool_cycles)
        setups.append((perf_counter() - start) * clock.factor())

    runs, raw_s, scaled_s = [], [], []
    cycles = 0
    start = perf_counter()
    while True:
        for _ in range(workload.cycle_len):
            inst = pool[len(runs) % len(pool)]
            out, seconds = timed_call(workload, lib, inst)
            runs.append((inst, out))
            raw_s.append(seconds)
            scaled_s.append(seconds * clock.factor())
        cycles += 1
        elapsed = perf_counter() - start
        # start another cycle only while it is expected to end before
        # --seconds plus half a cycle
        if elapsed + 0.5 * elapsed / cycles >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failures, checked, skipped = check_all(workload, lib, runs)
    report_failures(failures)
    ratios = [
        r for r in (workload.bag_ratio(lib, inst, out) for inst, out in runs
                    if not isinstance(out, Exception))
        if r is not None
    ]

    def p50_p90_ms(seconds):
        ms = [s * 1e3 for s in seconds]
        return statistics.median(ms), statistics.quantiles(ms, n=10, method="inclusive")[8]

    p50, p90 = p50_p90_ms(scaled_s)
    raw_p50, raw_p90 = p50_p90_ms(raw_s)
    metrics = {
        "latency_p50_ms": (p50, "ms"),
        "latency_p90_ms": (p90, "ms"),
        "instances_per_s": (len(runs) / sum(scaled_s), "1/s"),
        "pass_ratio": ((len(runs) - len(failures)) / len(runs), "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "bag_size_ratio": (statistics.fmean(ratios) if ratios else 0.0, "ratio"),
        "setup_s": (statistics.median(setups), "s"),
    }
    inputs, outputs = digests(workload, lib, runs)
    print(f"workload={workload.name} seed={args.seed} trace=0 instances={len(runs)} "
          f"cycles={cycles} seconds={elapsed:.3f} wall_p50_ms={raw_p50:.1f} "
          f"wall_p90_ms={raw_p90:.1f} wall_instances_per_s={len(runs) / sum(raw_s):.4f} "
          f"checked_bags={checked} skipped_bags={skipped} inputs={inputs} outputs={outputs}")
    return len(runs), len(failures), metrics


def run_traced(workload, args):
    count = args.instances or workload.trace_cycles * workload.cycle_len
    lib = load_library()
    pool = make_pool(workload, args.seed, math.ceil(count / workload.cycle_len))[:count]
    tracer = Tracer(lib)
    clock = Clock()

    runs, failures = [], []
    untraced_s = traced_s = 0.0
    for i, inst in enumerate(pool):
        # alternate which call goes first, so warm-up favours neither side
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                tracer.instance = inst.index
                with tracer.installed():
                    out, seconds = timed_call(workload, lib, inst)
                factor = clock.factor()
                tracer.fold(factor)
                traced_s += seconds * factor
            else:
                plain, seconds = timed_call(workload, lib, inst)
                untraced_s += seconds * clock.factor()
        runs.append((inst, out))
        same = [
            repr(o) if isinstance(o, Exception) else workload.digest(lib, inst, o)
            for o in (plain, out)
        ]
        if same[0] != same[1]:
            failures.append((inst, ["traced output differs from untraced output"], ""))

    tracer.instance = None
    with tracer.installed():
        check_failures, checked, skipped = check_all(workload, lib, runs)
    tracer.fold(clock.factor())
    failed_ids = {inst.index for inst, _, _ in failures}
    failures += [f for f in check_failures if f[0].index not in failed_ids]
    report_failures(failures)

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{workload.name}-seed{args.seed}.jsonl"
    tracer.write_spans(spans_path)
    inputs, outputs = digests(workload, lib, runs)
    print(f"workload={workload.name} seed={args.seed} trace=1 instances={len(runs)} "
          f"spans={len(tracer.spans)} checked_bags={checked} skipped_bags={skipped} "
          f"inputs={inputs} outputs={outputs} spans_file={spans_path.relative_to(ROOT)}")
    return len(runs), len(failures), tracer.metrics(traced_s / untraced_s)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--instances", type=int, default=None,
                        help="instances in a traced run (default: the workload's batch)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.instances is not None and args.instances < 1:
        parser.error("--instances must be at least 1")
    if sys.flags.optimize:
        # the asserts in decomp.py and adhesion.py are part of the program
        print("error: run without -O; the library's asserts must stay on", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    try:
        if args.trace:
            attempted, failed, metrics = run_traced(workload, args)
        else:
            attempted, failed, metrics = run_untraced(workload, args)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
