"""Per-layer tracing from outside the library.

While installed, a Tracer rebinds each layer's public functions in every
qktree module that holds them (the defining module included, so calls
inside one module are seen too) to wrappers that record spans: layer,
function, start, end, parent span and instance. A layer's self time is the
time of its spans minus the time of their child spans. A call made
directly inside a span of its own layer opens no span of its own, so it is
counted once. Inside a verify span nothing else is recorded: the
verifier's own flows and checks are its work, not the pipeline's.
Helpers in ``core.py`` are not wrapped (``is_balanced`` is, where
``adhesion.py`` calls it); their time lands in their callers.
"""

from __future__ import annotations

import inspect
import json
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional, Tuple

OPAQUE_LAYER = "verify"


@dataclass(frozen=True)
class Hook:
    layer: str
    module: str  # defining module, relative to the qktree package
    name: str
    observe: Optional[Callable] = None  # (counts, lib, bound_args, result)
    modules: Optional[Tuple[str, ...]] = None  # rebind only here (default: everywhere)
    observe_nested: bool = True  # also observe calls made inside the same layer
    needs_args: bool = False


def _flow(counts, lib, args, res):
    counts["flow.within_bound"] += res.value != lib.flow.EXCEEDS_BOUND


def _ssmc(counts, lib, args, res):
    counts["ssmc.sinks"] += len(set(args["sinks"]))
    counts["ssmc.captured"] += len(res[1])


def _witness_cover(counts, lib, args, res):
    counts["carving.witness_covers"] += 1
    counts["carving.empty_covers"] += not res[1]


def _color_family(counts, lib, args, res):
    counts["carving.color_functions"] += len(res)


def _check(counts, lib, args, res):
    counts["origin.checks"] += 1
    counts["origin.breakable"] += res != lib.origin.UNBREAKABLE


def _balanced_origin(counts, lib, args, res):
    counts["origin.balanced_origin_calls"] += 1


def _reduce(counts, lib, args, res):
    counts["adhesion.reduce_calls"] += 1


def _is_balanced(counts, lib, args, res):
    counts["adhesion.balance_checks"] += 1
    counts["adhesion.unbalanced"] += not res


def _decompose(counts, lib, args, res):
    counts["decomp.nodes"] += res[1].node_count


def _pway_family(counts, lib, args, res):
    counts["pwaycut.color_families"] += 1


def _verify_bags(counts, lib, args, res):
    counts["verify.checked_bags"] += len(res.checked)
    counts["verify.skipped_bags"] += len(res.skipped)


HOOKS = (
    Hook("flow", "flow", "bounded_vertex_maxflow", _flow, observe_nested=False),
    Hook("flow", "flow", "minimal_side_mincut", _flow, observe_nested=False),
    Hook("isolating", "isolating", "isolating_vertex_cuts"),
    Hook("ssmc", "ssmc", "single_source_mincut_cover", _ssmc, needs_args=True),
    Hook("carving", "carving", "witness_cover", _witness_cover),
    Hook("carving", "carving", "carve_many"),
    Hook("carving", "carving", "color_family", _color_family),
    Hook("origin", "origin", "check_unbreakable", _check),
    Hook("origin", "origin", "balanced_origin", _balanced_origin),
    Hook("adhesion", "adhesion", "reduce_adhesion", _reduce),
    Hook("adhesion", "adhesion", "unbreakable_balanced_set"),
    Hook("adhesion", "core", "is_balanced", _is_balanced, modules=("adhesion",)),
    Hook("decomp", "decomp", "decompose", _decompose),
    Hook("pwaycut", "pwaycut", "min_pway_cut"),
    Hook("pwaycut", "carving", "color_family_general", _pway_family,
         modules=("pwaycut",)),
    Hook("verify", "verify", "validate_decomposition"),
    Hook("verify", "verify", "verify_subtree_unbreakability", _verify_bags),
)


class Tracer:
    """Spans and counts of the calls into each layer, kept in memory."""

    def __init__(self, lib):
        self.lib = lib
        self.spans = []  # (id, parent, instance, layer, function, start_s, end_s)
        self.calls = Counter()  # spans per layer
        self.self_s = defaultdict(float)  # since the last fold, as measured
        self.scaled_self_s = defaultdict(float)
        self.counts = Counter()
        self.instance = None
        self._stack = []  # open spans: [id, layer, child seconds]
        self._opaque = 0
        self._t0 = perf_counter()
        self._bindings = []
        for hook in HOOKS:
            original = getattr(getattr(lib, hook.module), hook.name)
            wrapper = self._wrap(hook, original)
            for mod_name, mod in sorted(sys.modules.items()):
                if not mod_name.startswith("qktree."):
                    continue
                if hook.modules and mod_name[len("qktree."):] not in hook.modules:
                    continue
                if getattr(mod, hook.name, None) is original:
                    self._bindings.append((mod, hook.name, original, wrapper))

    def _wrap(self, hook: Hook, fn):
        layer = hook.layer
        observe = hook.observe
        signature = inspect.signature(fn) if hook.needs_args else None
        lib = self.lib

        def observed(args, kwargs, result):
            bound = signature.bind(*args, **kwargs).arguments if signature else None
            observe(self.counts, lib, bound, result)

        def wrapper(*args, **kwargs):
            if self._opaque:
                return fn(*args, **kwargs)
            stack = self._stack
            if stack and stack[-1][1] == layer:
                result = fn(*args, **kwargs)
                if observe and hook.observe_nested:
                    observed(args, kwargs, result)
                return result
            span_id = len(self.spans) + len(stack)
            parent = stack[-1][0] if stack else None
            record = [span_id, layer, 0.0]
            stack.append(record)
            opaque = layer == OPAQUE_LAYER
            self._opaque += opaque
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._opaque -= opaque
                stack.pop()
                duration = end - start
                self.self_s[layer] += duration - record[2]
                self.calls[layer] += 1
                if stack:
                    stack[-1][2] += duration
                self.spans.append(
                    (span_id, parent, self.instance, layer, fn.__name__, start, end)
                )
            if observe:
                observed(args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Route the library's layer calls through this tracer."""
        for mod, name, _original, wrapper in self._bindings:
            setattr(mod, name, wrapper)
        try:
            yield self
        finally:
            for mod, name, original, _wrapper in self._bindings:
                setattr(mod, name, original)

    def fold(self, factor: float) -> None:
        """Add the self times since the last fold, scaled by `factor`."""
        for layer, seconds in self.self_s.items():
            self.scaled_self_s[layer] += seconds * factor
        self.self_s.clear()

    def metrics(self, overhead_ratio: float) -> dict:
        c, calls = self.counts, self.calls

        def ms(layer):
            return self.scaled_self_s[layer] * 1e3

        def ratio(num, den):
            return num / den if den else 0.0

        return {
            "flow.calls": (calls["flow"], "count"),
            "flow.self_ms": (ms("flow"), "ms"),
            "flow.within_bound_ratio": (ratio(c["flow.within_bound"], calls["flow"]), "ratio"),
            "isolating.calls": (calls["isolating"], "count"),
            "isolating.self_ms": (ms("isolating"), "ms"),
            "ssmc.calls": (calls["ssmc"], "count"),
            "ssmc.self_ms": (ms("ssmc"), "ms"),
            "ssmc.captured_ratio": (ratio(c["ssmc.captured"], c["ssmc.sinks"]), "ratio"),
            "carving.witness_covers": (c["carving.witness_covers"], "count"),
            "carving.color_functions": (c["carving.color_functions"], "count"),
            "carving.self_ms": (ms("carving"), "ms"),
            "carving.empty_cover_ratio": (
                ratio(c["carving.empty_covers"], c["carving.witness_covers"]), "ratio"),
            "origin.checks": (c["origin.checks"], "count"),
            "origin.balanced_origin_calls": (c["origin.balanced_origin_calls"], "count"),
            "origin.self_ms": (ms("origin"), "ms"),
            "origin.breakable_ratio": (ratio(c["origin.breakable"], c["origin.checks"]), "ratio"),
            "adhesion.reduce_calls": (c["adhesion.reduce_calls"], "count"),
            "adhesion.self_ms": (ms("adhesion"), "ms"),
            "adhesion.balance_retry_ratio": (
                ratio(c["adhesion.unbalanced"], c["adhesion.balance_checks"]), "ratio"),
            "decomp.nodes": (c["decomp.nodes"], "count"),
            "decomp.self_ms": (ms("decomp"), "ms"),
            "pwaycut.self_ms": (ms("pwaycut"), "ms"),
            "pwaycut.color_families": (c["pwaycut.color_families"], "count"),
            "verify.self_ms": (ms("verify"), "ms"),
            "verify.checked_bags": (c["verify.checked_bags"], "count"),
            "verify.skipped_bags": (c["verify.skipped_bags"], "count"),
            "trace.overhead_ratio": (overhead_ratio, "ratio"),
        }

    def write_spans(self, path) -> None:
        """All spans as JSON lines, times in microseconds from tracer start."""
        with open(path, "w") as out:
            for span_id, parent, inst, layer, name, start, end in sorted(self.spans):
                out.write(json.dumps({
                    "id": span_id,
                    "parent": parent,
                    "instance": inst,
                    "layer": layer,
                    "function": name,
                    "start_us": (start - self._t0) * 1e6,
                    "end_us": (end - self._t0) * 1e6,
                }) + "\n")
