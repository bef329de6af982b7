"""Growing an unbreakable seed into an unbreakable low-adhesion balanced set."""

from __future__ import annotations

import logging
import math
from typing import FrozenSet, Iterable

from . import config
from .core import Graph, RetriesExhaustedError, adhesion, is_balanced
from .carving import WitnessContext, carve_many, witness_cover
from .origin import UNBREAKABLE, balanced_origin, check_unbreakable

logger = logging.getLogger(__name__)

_DEBUG_CHECK_LIMIT = 10


def reduce_adhesion(
    g: Graph, x0: Iterable[int], k: int, q: int, epsilon, rng
) -> FrozenSet[int]:
    """Grow a (q,k)-unbreakable set x0 into X ⊇ x0 that is (q + k⌈1/ε⌉,
    k)-unbreakable with adhesion ≤ q + k⌈1/ε⌉, up to the one-sided error of
    the witness covers' capped color family (see color_family_general).

    Level ℓ works at separator budget k' = q + ℓk: terminals T are carved
    along disjoint lean witnesses while the covered set Q stays above
    n^(1-ℓε), then X grows to T\\Q.
    """
    if q < k:
        raise ValueError("q must be at least k")
    n = g.n
    x = frozenset(x0)
    t = frozenset(range(n))
    if __debug__ and n <= _DEBUG_CHECK_LIMIT:
        assert check_unbreakable(g, x, q, k) == UNBREAKABLE
    levels = math.ceil(1 / epsilon)
    for level in range(1, levels + 1):
        k_prime = q + level * k
        if __debug__:
            assert x <= t
            assert adhesion(g, t) <= q + (level - 1) * k
            assert len(t - x) <= n ** (1 - (level - 1) * epsilon) + 1e-9
        ctx = WitnessContext(g, t, x, k_prime)
        q_set, coll = witness_cover(ctx, rng)
        # at least 1, so that an empty cover ends the loop at n = 0 too; the
        # exponent stops at 0, which changes nothing for n >= 1 but keeps
        # 0 ** (negative) from raising when ℓε > 1
        threshold = max(1, math.ceil(n ** max(0, 1 - level * epsilon)))
        while len(q_set) >= threshold:
            if not coll:
                logger.warning(
                    "witness cover returned no collection with %d covered "
                    "vertices; leaving the carve loop early",
                    len(q_set),
                )
                break
            new_t = carve_many(t, coll)
            if len(new_t) >= len(t):
                logger.warning("carving did not shrink the terminal set")
                break
            t = new_t
            ctx = WitnessContext(g, t, x, k_prime)
            q_set, coll = witness_cover(ctx, rng)
        x = t - q_set
        if __debug__ and n <= _DEBUG_CHECK_LIMIT:
            assert check_unbreakable(g, x, q + level * k, k) == UNBREAKABLE
    return x


def unbreakable_balanced_set(g: Graph, k: int, epsilon, rng) -> FrozenSet[int]:
    """A ½-balanced set that is (⌈1/ε⌉k + k, k)-unbreakable with adhesion
    ≤ ⌈1/ε⌉k + k, up to reduce_adhesion's one-sided error.

    Retries the random seed set until the balance event fires; raises
    RetriesExhaustedError after C_RETRY·⌈log₂ n⌉ failures.
    """
    sigma = math.ceil(1 / epsilon) * k + k
    r_max = config.C_RETRY * max(1, math.ceil(math.log2(max(g.n, 2))))
    for _ in range(r_max):
        x0 = balanced_origin(g, k, sigma, rng)
        x = reduce_adhesion(g, x0, k, k, epsilon, rng)
        if is_balanced(g, x, 0.5):
            return x
    raise RetriesExhaustedError(
        f"no ½-balanced unbreakable set found in {r_max} attempts"
    )
