"""End-to-end acceptance suite.

Each test exercises one acceptance criterion over a fixed seeded corpus and
prints exactly one PASS/FAIL line (visible with ``pytest -s`` or on failure).
Wall-clock budgets are asserted where the criterion states one.
"""

import contextlib
import io
import math
import random
import time
import zlib
from functools import lru_cache
from itertools import combinations

from qktree.carving import WitnessContext, witness_cover
from qktree.cli import main as cli_main
from qktree.core import Graph, connected_components, format_edge_list
from qktree.decomp import (
    VARIANT_DEPTH_REDUCED,
    VARIANT_STANDARD,
    decompose,
)
from qktree.flow import (
    INF,
    CapacitatedGraph,
    bounded_vertex_maxflow,
    minimal_side_mincut,
    unit_capacities,
)
from qktree.isolating import isolating_vertex_cuts, pairwise_disjoint
from qktree.origin import UNBREAKABLE, balanced_origin, check_unbreakable
from qktree.pwaycut import min_pway_cut
from qktree.ssmc import single_source_mincut_cover
from qktree.verify import (
    INFEASIBLE,
    brute_pway_cut,
    carvable_oracle,
    check_cover_properties,
    naive_isolating_cuts,
    validate_decomposition,
    verify_subtree_unbreakability,
    width_budget,
)

from conftest import (
    connected_gnp,
    cycle_graph,
    gnp,
    grid_graph,
    path_graph,
    petersen_graph,
    star_graph,
)


def report(name, failures, elapsed, budget=None):
    """One printed PASS/FAIL line per criterion, then the assertions."""
    ok = not failures
    limit = f" / budget {budget}s" if budget is not None else ""
    detail = "" if ok else f" first failure: {failures[0]!r}"
    print(
        f"[{'PASS' if ok and (budget is None or elapsed < budget) else 'FAIL'}]"
        f" {name}: {len(failures)} failure(s), {elapsed:.1f}s{limit}{detail}",
        flush=True,
    )
    assert not failures, failures[:5]
    if budget is not None:
        assert elapsed < budget, f"{elapsed:.1f}s over the {budget}s budget"


# --------------------------------------------------------------------------
# corpora


def bridged_cliques(m: int) -> Graph:
    """Two disjoint K_m joined through one extra bridge vertex."""
    edges = [(u, v) for u in range(m) for v in range(u + 1, m)]
    edges += [(m + u, m + v) for u in range(m) for v in range(u + 1, m)]
    b = 2 * m
    edges += [(0, b), (b, m)]
    return Graph(2 * m + 1, edges)


def barbell(n: int) -> Graph:
    """Two cliques of sizes ceil(n/2) and floor(n/2) joined by one edge."""
    a = (n + 1) // 2
    edges = [(u, v) for u in range(a) for v in range(u + 1, a)]
    edges += [(u, v) for u in range(a, n) for v in range(u + 1, n)]
    edges.append((a - 1, a))
    return Graph(n, edges)


@lru_cache(maxsize=None)
def decomposition_corpus():
    """100 seeded G(60, 0.08) graphs plus 20 structured graphs."""
    graphs = [(f"gnp60-{i}", gnp(60, 0.08, 1000 + i)) for i in range(100)]
    for n in (40, 48, 56, 64, 72):
        graphs.append((f"path{n}", path_graph(n)))
    for rows, cols in ((5, 5), (5, 6), (6, 6), (6, 7), (7, 7)):
        graphs.append((f"grid{rows}x{cols}", grid_graph(rows, cols)))
    for n in (24, 26, 28, 30, 32):
        graphs.append((f"barbell{n}", barbell(n)))
    for m in (12, 13, 14, 15, 16):
        graphs.append((f"bridged{m}", bridged_cliques(m)))
    return tuple(graphs)


@lru_cache(maxsize=None)
def pway_corpus():
    """200 seeded graphs with n <= 10 and m <= 20."""
    out = []
    seed = 0
    while len(out) < 200:
        seed += 1
        rng = random.Random(seed)
        g = gnp(rng.randint(4, 10), rng.uniform(0.2, 0.5), seed + 5000)
        if g.m <= 20:
            out.append((seed, g))
    return tuple(out)


@lru_cache(maxsize=None)
def ssmc_corpus():
    """100 seeded instances with n <= 40 and at most 8 independent sinks."""
    out = []
    seed = 0
    while len(out) < 100:
        seed += 1
        rng = random.Random(seed)
        g = gnp(rng.randint(8, 40), rng.uniform(0.08, 0.3), seed + 7000)
        verts = list(range(g.n))
        rng.shuffle(verts)
        chosen = []
        for v in verts:
            if all(not g.has_edge(v, u) for u in chosen):
                chosen.append(v)
            if len(chosen) == 9:
                break
        if len(chosen) < 3:
            continue
        k = rng.randint(1, 3)
        out.append((seed, g, chosen[0], tuple(sorted(chosen[1:])), k))
    return tuple(out)


def caps_with_inf(g, specials):
    return CapacitatedGraph(
        g, tuple(INF if v in set(specials) else 1 for v in range(g.n))
    )


def lam(cg, t, s):
    return bounded_vertex_maxflow(cg, {t}, {s}, cg.base.n).value


# --------------------------------------------------------------------------
# criteria 1-2: decomposition soundness on the 120-graph corpus


def soundness_failures(variant):
    failures = []
    for name, g in decomposition_corpus():
        for k in (1, 2, 3):
            adh_bound = 4 * k if variant == VARIANT_STANDARD else 10 * k
            q = 5 * k if variant == VARIANT_STANDARD else 11 * k
            deco, rep = decompose(
                g, k, 1, variant, rng=random.Random(k), seed=k
            )
            bad = [
                r.name
                for r in validate_decomposition(g, deco, adhesion_bound=adh_bound)
                if not r.passed
            ]
            if bad:
                failures.append((name, k, bad))
                continue
            if deco.max_adhesion() > adh_bound:
                failures.append((name, k, "adhesion", deco.max_adhesion()))
            if rep.node_count > g.n:
                failures.append((name, k, "node-count", rep.node_count))
            unb = verify_subtree_unbreakability(g, deco, q, k)
            if not unb.ok:
                failures.append((name, k, "unbreakability", unb.failures[:1]))
            if unb.skipped:
                failures.append((name, k, "unchecked bags", unb.skipped))
            if variant == VARIANT_DEPTH_REDUCED:
                limit = 8 * math.ceil(math.log2(g.n))
                if rep.depth > limit:
                    failures.append((name, k, "depth", rep.depth, limit))
    return failures


def test_criterion_1_standard_decomposition_soundness():
    t0 = time.perf_counter()
    failures = soundness_failures(VARIANT_STANDARD)
    report(
        "criterion-1 standard decomposition soundness",
        failures, time.perf_counter() - t0, budget=120,
    )


def test_criterion_2_depth_reduced_decomposition_soundness():
    t0 = time.perf_counter()
    failures = soundness_failures(VARIANT_DEPTH_REDUCED)
    report(
        "criterion-2 depth-reduced decomposition soundness",
        failures, time.perf_counter() - t0, budget=120,
    )


# --------------------------------------------------------------------------
# criterion 3: minimum p-way cut agrees with brute force


def test_criterion_3_pway_cut_exactness():
    t0 = time.perf_counter()
    failures = []

    def check(tag, g, p, k, want=None):
        # crc32, unlike hash(), does not change with PYTHONHASHSEED for str tags
        seed = zlib.crc32(repr((tag, p, k)).encode()) & 0xFFFF
        res = min_pway_cut(g, p, k, 1, rng=random.Random(seed))
        oracle = brute_pway_cut(g, p, k) if want is None else want
        if oracle == INFEASIBLE:
            if res.feasible:
                failures.append((tag, p, k, "expected infeasible", res.cost))
        elif not res.feasible or res.cost != oracle:
            failures.append((tag, p, k, "cost mismatch", res.cost, oracle))

    # named fixtures
    check("cycle6", cycle_graph(6), 2, 2, want=2)
    check("cycle6-tight", cycle_graph(6), 2, 1, want=INFEASIBLE)
    for p in (2, 3, 4):
        check("star", star_graph(6), p, p - 1, want=p - 1)
        check("path-tree", path_graph(8), p, p - 1, want=p - 1)
    check("petersen", petersen_graph(), 2, 3, want=3)
    check("petersen-tight", petersen_graph(), 2, 2, want=INFEASIBLE)

    for seed, g in pway_corpus():
        for p in (2, 3, 4):
            for k in range(0, 5):
                check(seed, g, p, k)
    report(
        "criterion-3 minimum p-way cut matches brute force",
        failures, time.perf_counter() - t0, budget=300,
    )


# --------------------------------------------------------------------------
# criterion 4: single-source mincut cover


def test_criterion_4_single_source_mincut_cover():
    t0 = time.perf_counter()
    failures = []
    for seed, g, s, sinks, k in ssmc_corpus():
        cg = caps_with_inf(g, {s} | set(sinks))
        cover, captured = single_source_mincut_cover(
            cg, s, sinks, k, random.Random(seed)
        )
        expected = {t for t in sinks if lam(cg, t, s) <= k}
        if captured != expected:
            failures.append((seed, "captured", captured, expected))
            continue
        problems = check_cover_properties(
            g, s, captured, cover, lambda t: lam(cg, t, s)
        )
        if problems:
            failures.append((seed, "properties", problems))
        if cover.width > width_budget(k, g.n):
            failures.append((seed, "width", cover.width))
    report(
        "criterion-4 single-source mincut cover",
        failures, time.perf_counter() - t0, budget=60,
    )


# --------------------------------------------------------------------------
# criterion 5: isolating vertex cuts


def isolating_corpus():
    out = []
    seed = 0
    while len(out) < 100:
        seed += 1
        rng = random.Random(seed)
        g = gnp(rng.randint(4, 12), rng.uniform(0.2, 0.5), seed + 9000)
        verts = list(range(g.n))
        rng.shuffle(verts)
        terms = []
        for v in verts:
            if all(not g.has_edge(v, t) for t in terms):
                terms.append(v)
            if len(terms) == 5:
                break
        if len(terms) >= 2:
            out.append((seed, g, sorted(terms)))
    return out


def test_criterion_5_isolating_cuts():
    t0 = time.perf_counter()
    failures = []
    for seed, g, terms in isolating_corpus():
        cg = caps_with_inf(g, terms)
        fast = isolating_vertex_cuts(cg, terms)
        naive = naive_isolating_cuts(cg, terms)
        if [c.size for c in fast] != [c.size for c in naive]:
            failures.append((seed, "fast/naive size mismatch"))
            continue
        if not pairwise_disjoint(fast):
            failures.append((seed, "not ordered-disjoint"))
        for cut, term in zip(fast, terms):
            others = frozenset(terms) - {term}
            direct = bounded_vertex_maxflow(cg, {term}, others, g.n)
            if cut.size != direct.value:
                failures.append((seed, term, "flow mismatch", cut.size))
            if not cut.is_valid(g) or term not in cut.left_only or (others & cut.L):
                failures.append((seed, term, "invalid cut"))
    report(
        "criterion-5 isolating vertex cuts",
        failures, time.perf_counter() - t0, budget=30,
    )


# --------------------------------------------------------------------------
# criteria 6-7: witness cover residual unbreakability and carvable coverage


def witness_instance(seed, max_n):
    rng = random.Random(seed)
    g = connected_gnp(rng.randint(5, max_n), 0.35, seed)
    x = balanced_origin(g, 1, 2, random.Random(seed))
    return g, x


def test_criterion_6_residual_set_unbreakable():
    t0 = time.perf_counter()
    misses = []
    for seed in range(100):
        g, x = witness_instance(seed, max_n=10)
        # x is (1, 1)-unbreakable by construction; the leftover vertex set
        # must then be (q1 + k, k) = (2, 1)-unbreakable
        ctx = WitnessContext(g, range(g.n), x, 2)
        q_set, _ = witness_cover(ctx, random.Random(seed + 7))
        y = frozenset(range(g.n)) - q_set
        if check_unbreakable(g, y, 2, 1) != UNBREAKABLE:
            misses.append(seed)
    elapsed = time.perf_counter() - t0
    failures = misses if len(misses) > 1 else []
    print(
        f"[{'PASS' if not failures and elapsed < 60 else 'FAIL'}]"
        f" criterion-6 residual set unbreakable:"
        f" {len(misses)}/100 misses (<=1 allowed), {elapsed:.1f}s / budget 60s",
        flush=True,
    )
    assert len(misses) <= 1, misses
    assert elapsed < 60


def test_criterion_7_carvable_vertex_coverage():
    t0 = time.perf_counter()
    misses = []
    for seed in range(100):
        g, x = witness_instance(seed + 500, max_n=9)
        ctx = WitnessContext(g, range(g.n), x, 2)
        q_set, _ = witness_cover(ctx, random.Random(seed + 13))
        if not carvable_oracle(ctx) <= q_set:
            misses.append(seed)
    elapsed = time.perf_counter() - t0
    failures = misses if len(misses) > 1 else []
    print(
        f"[{'PASS' if not failures and elapsed < 60 else 'FAIL'}]"
        f" criterion-7 carvable vertex coverage:"
        f" {len(misses)}/100 misses (<=1 allowed), {elapsed:.1f}s / budget 60s",
        flush=True,
    )
    assert len(misses) <= 1, misses
    assert elapsed < 60


# --------------------------------------------------------------------------
# criterion 8: flow oracle vs exhaustive separator enumeration


def brute_min_separator(g, sources, sinks):
    sources, sinks = set(sources), set(sinks)
    middle = sorted(set(range(g.n)) - sources - sinks)
    best = None
    for size in range(len(middle) + 1):
        if best is not None and size >= best:
            break
        for sep in combinations(middle, size):
            comps = connected_components(g, sep)
            reach = set()
            for c in comps:
                if c & sources:
                    reach |= c
            if not (reach & sinks):
                best = size
                break
    return best


def flow_corpus():
    out = []
    seed = 0
    while len(out) < 500:
        seed += 1
        rng = random.Random(seed)
        n = rng.randint(4, 9)
        g = gnp(n, rng.uniform(0.25, 0.7), seed + 11000)
        verts = list(range(n))
        rng.shuffle(verts)
        a = set(verts[: 1 if rng.random() < 0.6 else 2])
        rest = [v for v in verts if v not in a]
        b = set(rest[: 1 if rng.random() < 0.6 else 2])
        if any(u in b for v in a for u in g.adj[v]):
            continue
        out.append((seed, g, frozenset(a), frozenset(b)))
    return out


def test_criterion_8_flow_oracle_equivalence():
    t0 = time.perf_counter()
    failures = []
    for seed, g, a, b in flow_corpus():
        expected = brute_min_separator(g, a, b)
        res = bounded_vertex_maxflow(unit_capacities(g), a, b, g.n)
        if expected is None:
            if res.value <= 0:
                failures.append((seed, "missing flow on inseparable pair"))
            continue
        if res.value != expected or len(res.mincut.separator) != expected:
            failures.append((seed, "maxflow", res.value, expected))
            continue
        if not (res.mincut.is_valid(g) and a <= res.mincut.left_only
                and b <= res.mincut.right_only):
            failures.append((seed, "cut placement"))
        mres = minimal_side_mincut(unit_capacities(g), a, b, g.n)
        if mres.value != expected or len(mres.mincut.separator) != expected:
            failures.append((seed, "minimal-side", mres.value, expected))
    report(
        "criterion-8 flow oracle vs separator enumeration",
        failures, time.perf_counter() - t0, budget=30,
    )


# --------------------------------------------------------------------------
# criterion 9: CLI determinism across the corpus


def run_cli(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(list(argv))
    return code, buf.getvalue()


def test_criterion_9_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    failures = []

    def twice(tag, *argv, transform=None):
        c1, o1 = run_cli(*argv)
        c2, o2 = run_cli(*argv)
        if transform is not None:
            o1, o2 = transform(o1), transform(o2)
        if c1 != c2 or o1 != o2:
            failures.append((tag, argv[0], c1, c2))
        return c1, o1

    # gen: every generator model at corpus-representative sizes
    for model, n in (("gnp", 60), ("path", 72), ("grid", 49),
                     ("barbell", 32), ("tree", 40)):
        for seed in range(5):
            twice(("gen", model, seed), "gen", "--model", model, "--n",
                  str(n), "--seed", str(seed), "--prob", "0.08")

    # decompose + verify: the full 120-graph corpus at k = 1
    for name, g in decomposition_corpus():
        path = tmp_path / f"{name}.txt"
        path.write_text(format_edge_list(g))
        code, out = twice(
            ("decompose", name), "decompose", str(path), "--k", "1",
            "--seed", "11",
        )
        if code != 0:
            failures.append((name, "decompose exit", code))
            continue
        deco_path = tmp_path / f"{name}.json"
        deco_path.write_text(out)
        code, out = twice(
            ("verify", name), "verify", str(path), str(deco_path), "--k", "1"
        )
        if code != 0 or out.strip() != "OK":
            failures.append((name, "verify", code, out.strip()))

    # pwaycut: the full 200-instance corpus
    for seed, g in pway_corpus():
        path = tmp_path / f"pway{seed}.txt"
        path.write_text(format_edge_list(g))
        twice(("pwaycut", seed), "pwaycut", str(path), "--p", "3", "--k", "3",
              "--seed", str(seed))

    # ssmc: the full 100-instance corpus
    for seed, g, s, sinks, k in ssmc_corpus():
        path = tmp_path / f"ssmc{seed}.txt"
        path.write_text(format_edge_list(g))
        code, _ = twice(
            ("ssmc", seed), "ssmc", str(path), "--source", str(s),
            "--sinks", ",".join(map(str, sinks)), "--k", str(k),
            "--seed", str(seed),
        )
        if code != 0:
            failures.append((seed, "ssmc exit", code))

    # bench: wall-clock column varies between runs; everything else must not
    strip = lambda text: "\n".join(
        ln.rsplit(",", 1)[0] for ln in text.splitlines()
    )
    twice("bench", "bench", "--model", "path", "--sizes", "16,24", "--k", "1",
          "--seed", "3", transform=strip)

    report(
        "criterion-9 CLI determinism across the corpus",
        failures, time.perf_counter() - t0,
    )
