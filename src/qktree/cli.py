"""Command-line front end: decomposition, p-way cut, mincut covers,
verification, graph generators, and a per-stage benchmark."""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
import time
from fractions import Fraction
from typing import List, Optional

from .adhesion import reduce_adhesion
from .core import (
    Graph,
    RetriesExhaustedError,
    connected_components,
    format_edge_list,
    induced_subgraph,
    parse_edge_list,
)
from .decomp import (
    VARIANT_DEPTH_REDUCED,
    VARIANT_STANDARD,
    decompose,
    decomposition_from_json,
    decomposition_to_json,
    variant_parameters,
)
from .flow import unit_capacities
from .origin import balanced_origin
from .pwaycut import PwayCutSolver, min_pway_cut
from .ssmc import single_source_mincut_cover
from .verify import (
    INFEASIBLE,
    brute_pway_cut,
    validate_decomposition,
    verify_subtree_unbreakability,
)

EXIT_OK = 0
EXIT_IO = 1
EXIT_VERIFY = 2
EXIT_RETRIES = 3

_VARIANTS = {
    "standard": VARIANT_STANDARD,
    "depth-reduced": VARIANT_DEPTH_REDUCED,
}


def _read(path: str) -> str:
    """The text of a file, or of stdin for "-"."""
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _write_out(text: str, out: Optional[str]):
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _json_line(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _epsilon(value: str) -> Fraction:
    try:
        eps = Fraction(value)
    except ZeroDivisionError:  # "1/0"; argparse reports a ValueError itself
        eps = None
    if eps is None or not 0 < eps <= 1:
        raise argparse.ArgumentTypeError("epsilon must be in (0, 1]")
    return eps


def generate_graph(model: str, n: int, seed: int, prob: float = 0.1) -> Graph:
    """Seeded deterministic graph generators shared by gen and bench."""
    if n < 1:
        raise ValueError("n must be positive")
    rng = random.Random(seed)
    if model == "gnp":
        if not 0 <= prob <= 1:
            raise ValueError("prob must be in [0, 1]")
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < prob
        ]
        return Graph(n, edges)
    if model == "path":
        return Graph(n, [(i, i + 1) for i in range(n - 1)])
    if model == "grid":
        # row width isqrt(n); the last row may be partial
        w = max(1, math.isqrt(n))
        edges = []
        for i in range(n):
            if (i + 1) % w != 0 and i + 1 < n:
                edges.append((i, i + 1))
            if i + w < n:
                edges.append((i, i + w))
        return Graph(n, edges)
    if model == "barbell":
        a = (n + 1) // 2
        edges = [(u, v) for u in range(a) for v in range(u + 1, a)]
        edges += [(u, v) for u in range(a, n) for v in range(u + 1, n)]
        if a < n:
            edges.append((a - 1, a))
        return Graph(n, edges)
    if model == "tree":
        return Graph(n, [(rng.randrange(i), i) for i in range(1, n)])
    raise ValueError(f"unknown model {model!r}")


def _verify_decomposition(g, deco, k, epsilon, variant) -> List[str]:
    """All verification failures (empty list means the decomposition passes
    the structural checks and per-bag unbreakability at the variant's q)."""
    params = variant_parameters(k, epsilon)[variant]
    problems = []
    for res in validate_decomposition(
        g, deco, adhesion_bound=params["adhesion_bound"]
    ):
        if not res.passed:
            problems.append(f"{res.name}: {res.detail}")
    report = verify_subtree_unbreakability(g, deco, params["q_bound"], k)
    if report.skipped:
        total = len(report.checked) + len(report.skipped)
        print(
            f"warning: {len(report.skipped)} of {total} bags not checked "
            f"(over the separator sweep's limit): "
            f"{', '.join(map(str, report.skipped))}",
            file=sys.stderr,
        )
    for t, cut in report.failures:
        problems.append(
            f"unbreakability: bag {t} splits along a cut of size {cut.size}"
        )
    return problems


def cmd_decompose(args) -> int:
    g = parse_edge_list(_read(args.graph))
    variant = _VARIANTS[args.variant]
    deco, _report = decompose(
        g, args.k, args.epsilon, variant,
        rng=random.Random(args.seed), seed=args.seed,
    )
    _write_out(decomposition_to_json(deco, variant, args.seed), args.out)
    if args.verify:
        problems = _verify_decomposition(g, deco, args.k, args.epsilon, variant)
        if problems:
            for line in problems:
                print(f"verify failed: {line}", file=sys.stderr)
            return EXIT_VERIFY
    return EXIT_OK


def cmd_pwaycut(args) -> int:
    g = parse_edge_list(_read(args.graph))
    # the oracle runs first, so a refused oracle prints no result
    oracle = brute_pway_cut(g, args.p, args.k) if args.oracle else None
    res = min_pway_cut(
        g, args.p, args.k, args.epsilon,
        rng=random.Random(args.seed), seed=args.seed,
    )
    sys.stdout.write(_json_line(res.to_json_dict()))
    if args.oracle:
        agrees = (
            (oracle == INFEASIBLE and not res.feasible)
            or (oracle != INFEASIBLE and res.feasible and res.cost == oracle)
        )
        if not agrees:
            print(
                f"oracle mismatch: dp={res.cost if res.feasible else None} "
                f"oracle={None if oracle == INFEASIBLE else oracle}",
                file=sys.stderr,
            )
            return EXIT_VERIFY
    return EXIT_OK


def cmd_ssmc(args) -> int:
    g = parse_edge_list(_read(args.graph))
    sinks = sorted({int(s) for s in args.sinks.split(",") if s.strip()})
    for v in [args.source] + sinks:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} outside 0..{g.n - 1}")
    cover, captured = single_source_mincut_cover(
        unit_capacities(g), args.source, sinks, args.k, random.Random(args.seed)
    )
    payload = {
        "source": args.source,
        "k": args.k,
        "seed": args.seed,
        "captured": sorted(captured),
        "width": cover.width,
        "collections": [
            [{"L": sorted(cut.L), "R": sorted(cut.R)} for cut in coll]
            for coll in cover.collections
        ],
    }
    sys.stdout.write(_json_line(payload))
    return EXIT_OK


def cmd_verify(args) -> int:
    g = parse_edge_list(_read(args.graph))
    deco, variant, _seed = decomposition_from_json(_read(args.decomposition))
    if deco.n != g.n:
        raise ValueError(f"decomposition has n={deco.n}, the graph has n={g.n}")
    problems = _verify_decomposition(g, deco, args.k, args.epsilon, variant)
    if problems:
        for line in problems:
            print(f"FAIL {line}")
        return EXIT_VERIFY
    print("OK")
    return EXIT_OK


def cmd_gen(args) -> int:
    g = generate_graph(args.model, args.n, args.seed, args.prob)
    _write_out(format_edge_list(g), args.out)
    return EXIT_OK


def cmd_bench(args) -> int:
    sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    if not sizes:
        raise ValueError("empty size list")
    k, eps = args.k, args.epsilon
    if k < 1:
        raise ValueError("k must be at least 1")
    sigma = variant_parameters(k, eps)[VARIANT_STANDARD]["sigma"]
    lines = ["size,stage,millis"]
    for n in sizes:
        try:
            g = generate_graph(args.model, n, args.seed, args.prob)
            # the origin and adhesion stages need a connected graph: time
            # them on the largest component
            comps = connected_components(g)
            h = g
            if len(comps) > 1:
                h, _ids = induced_subgraph(g, max(comps, key=len))
            rng = random.Random(args.seed)
            t0 = time.perf_counter()
            x0 = balanced_origin(h, k, sigma, rng)
            t1 = time.perf_counter()
            reduce_adhesion(h, x0, k, k, eps, rng)
            t2 = time.perf_counter()
            deco, _report = decompose(
                g, k, eps, VARIANT_STANDARD,
                rng=random.Random(args.seed), seed=args.seed,
            )
            t3 = time.perf_counter()
            solver = PwayCutSolver(g, deco, 2, k, eps, random.Random(args.seed))
            solver.entry(deco.root, (), solver.full)
            t4 = time.perf_counter()
        except (ValueError, RetriesExhaustedError) as exc:
            exc.args = (f"size {n}: {exc}",)  # name the size; main() reports it
            raise
        for stage, ms in (
            ("origin", t1 - t0),
            ("adhesion", t2 - t1),
            ("decomp", t3 - t2),
            ("dp", t4 - t3),
        ):
            lines.append(f"{n},{stage},{round(ms * 1000)}")
    _write_out("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qktree",
        description=(
            "Unbreakable tree decompositions and minimum p-way cuts"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    d = sub.add_parser("decompose", help="build an unbreakable tree decomposition")
    d.add_argument("graph", help="edge-list file, or - for stdin")
    d.add_argument("--k", type=int, required=True)
    d.add_argument("--epsilon", type=_epsilon, default=Fraction(1))
    d.add_argument("--variant", choices=sorted(_VARIANTS), default="standard")
    d.add_argument("--seed", type=int, default=0)
    d.add_argument("--out", default=None)
    d.add_argument("--verify", action="store_true")
    d.set_defaults(func=cmd_decompose)

    w = sub.add_parser("pwaycut", help="minimum p-way cut decision/valuation")
    w.add_argument("graph")
    w.add_argument("--p", type=int, required=True)
    w.add_argument("--k", type=int, required=True)
    w.add_argument("--epsilon", type=_epsilon, default=Fraction(1))
    w.add_argument("--seed", type=int, default=0)
    w.add_argument("--oracle", action="store_true",
                   help="cross-check against the brute-force oracle")
    w.set_defaults(func=cmd_pwaycut)

    s = sub.add_parser("ssmc", help="single-source mincut cover")
    s.add_argument("graph")
    s.add_argument("--source", type=int, required=True)
    s.add_argument("--sinks", required=True, help="comma-separated sink ids")
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(func=cmd_ssmc)

    v = sub.add_parser("verify", help="validate a decomposition JSON file")
    v.add_argument("graph")
    v.add_argument("decomposition")
    v.add_argument("--k", type=int, required=True)
    v.add_argument("--epsilon", type=_epsilon, default=Fraction(1))
    v.set_defaults(func=cmd_verify)

    gn = sub.add_parser("gen", help="emit a seeded generator graph")
    gn.add_argument("--model", required=True,
                    choices=["gnp", "grid", "barbell", "path", "tree"])
    gn.add_argument("--n", type=int, required=True)
    gn.add_argument("--seed", type=int, default=0)
    gn.add_argument("--prob", type=float, default=0.1,
                    help="edge probability (gnp only)")
    gn.add_argument("--out", default=None)
    gn.set_defaults(func=cmd_gen)

    b = sub.add_parser("bench", help="per-stage wall-time CSV")
    b.add_argument("--model", default="gnp",
                   choices=["gnp", "grid", "barbell", "path", "tree"])
    b.add_argument("--sizes", required=True, help="comma-separated sizes")
    b.add_argument("--k", type=int, default=1)
    b.add_argument("--epsilon", type=_epsilon, default=Fraction(1))
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--prob", type=float, default=0.1)
    b.add_argument("--out", default=None)
    b.set_defaults(func=cmd_bench)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Run one verb. Bad input and I/O failures exit EXIT_IO and retry
    loops that never succeed exit EXIT_RETRIES, each with one error line."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except RetriesExhaustedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RETRIES
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
