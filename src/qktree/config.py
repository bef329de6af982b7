"""Tunable constants and enumeration limits, collected in one place."""

# Largest set w that the separator sweep of the unbreakability check (and
# the verifier) always checks, whatever its DFS passes below: the sweep
# skips every separator with fewer than 2q + 2 - |w| vertices of w.
# Sparse decompositions at n = 60, k = 4 rely on it, since every full
# sweep there is over the pass limit.
UNBREAKABLE_ENUM_LIMIT = 24

# Largest number of DFS passes that the separator sweep of the
# unbreakability check (and the verifier) makes for a larger set w. The
# sweep reads each separator size s off one DFS per prefix of size s - 1
# and skips separators with fewer than need = 2q + 2 - |w| w-vertices; its
# passes are counted with those skipped (origin._pruned_passes): one per
# vertex set of size < k with at least need - 1 w-vertices, plus one when
# need <= 0. With need <= 0 nothing is skipped, and at the limit k = 3
# reaches n = 446, k = 4 n = 84, k = 5 n = 39 and k = 6 n = 26. On a 2-core
# host a full sweep took 9.9-10.0 s at k = 4 with 95,369 passes (n = 84,
# m = 112), and 60 s at k = 3 with 80,202 passes (n = 400, m = 1.35 n).
# Over the limit the core strategy runs where it applies; a check that no
# strategy takes raises SizeGuardError.
SEPARATOR_SWEEP_LIMIT = 100_000

# Largest graph accepted by the 3^n brute-force oracles (cut enumeration).
CUT_ENUM_LIMIT = 12

# Largest graph accepted by the carvable-vertex oracle.
CARVABLE_ENUM_LIMIT = 10

# Largest p that min_pway_cut accepts (an input range, not a tuning knob):
# the DP's subset convolution has 3^p terms. Untraced on a 2-core host, a
# path on p vertices at k = p - 1 took 0.81 s and 48 MB maxrss at p = 10,
# and 5.1 s and 194 MB at p = 11.
PWAY_P_LIMIT = 10

# Largest number of edge subsets, sum of C(m, i) for i <= k, that the
# brute-force p-way cut oracle enumerates: 46-60 µs each on a 2-core host,
# so a few seconds at the limit.
BRUTE_PWAY_SUBSET_LIMIT = 100_000

# Exponent constant for color-coding family sizes: below the cap that
# follows, the family hits a fixed tuple with probability >= 1 - n^(-C_FAM).
C_FAM = 2

# Hard cap on random color-family sizes. ceil(C_FAM * ln(n) / p_succ)
# explodes for moderate budgets, so a capped family hits a fixed tuple with
# probability 1 - (1 - p_succ)^32 only: 0.15 at k' = 1 and 6e-7 at k' = 3 in
# a witness cover on 20 terminals (every budget filled). A miss only loses
# coverage; later covers draw afresh and the verifier catches bad bags.
FAMILY_SIZE_LIMIT = 32

# p-way cut regime choice: a bag of at most PWAY_EXACT_BAG_LIMIT vertices
# whose sets of at most k units (bag edges and multi-vertex child
# adhesions) number at most PWAY_EXACT_SUBSET_LIMIT goes exact (a pruned
# search over its colorings); any other bag goes to color coding plus the
# component-flip DP. The subset count only selects the regime.
PWAY_EXACT_BAG_LIMIT = 16
PWAY_EXACT_SUBSET_LIMIT = 200_000

# Net sampling size constant: nets have size C_NET * (sigma/alpha) * log(1/alpha).
C_NET = 2

# Retry multiplier for the balanced unbreakable set loop: R_max = C_RETRY * ceil(log2 n).
C_RETRY = 20
