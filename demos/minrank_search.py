"""
Exhaustive min-rank search, Monte Carlo sampling, permutation scans
===================================================================

The central computational question: how small can the rank get over all
2^(n(n-1)/2) orientations?  Small n is exhausted outright; larger n is
sampled reproducibly, with every draw keyed by (seed, index) so reports are
byte-identical across reruns and worker counts.
"""

from tourmat import GF, QQ, WeightSeq, paley
from tourmat.experiments import (
    counting_weights,
    cycling_weights,
    minrank_exhaustive,
    montecarlo_rank,
    perm_scan,
)


def main():
    # n = 3 with distinct weights: every orientation gives determinant
    # 2 * a1 * a2 * a3 != 0, so the whole family sits at full rank.
    rep = minrank_exhaustive(WeightSeq.of(QQ, [1, 2, 3]))
    print("n=3, weights (1,2,3) over Q:")
    print("  min rank:", rep.summary["min_rank"],
          " histogram:", rep.summary["rank_histogram"])

    # n = 5 over GF(3): the proven floor is n/(p-1) - 1 = 3/2, i.e. rank >= 2.
    rep = minrank_exhaustive(cycling_weights(GF(3), 5), workers=2,
                             conjecture_c="1/2")
    print("n=5, alternating weights over GF(3):")
    print("  min rank:", rep.summary["min_rank"],
          " histogram:", rep.summary["rank_histogram"])
    print("  floor asserted:", rep.summary["ff_bound"],
          " violations:", rep.summary["violations"])
    print("  min_rank >= n/2 (conjectural, informational):",
          rep.summary["min_rank_ge_cn"])
    print("  flattest tournaments:", rep.summary["argmin_tournaments"][:4])

    # Monte Carlo at n = 30: the probabilistic tail bound is vacuous at desk
    # scale (the report says so), but the rank distribution itself is the point.
    rep = montecarlo_rank(cycling_weights(GF(3), 30), 200, seed=11)
    print("\nmontecarlo n=30 over GF(3), 200 samples:")
    print("  min:", rep.summary["min_rank"], " median:", rep.summary["median_rank"],
          " histogram:", rep.summary["rank_histogram"])
    print("  tail bound floor:", rep.summary["bound_floor"],
          " vacuous:", rep.summary["bound_vacuous"])

    # Re-running with the same seed reproduces the report byte for byte.
    again = montecarlo_rank(cycling_weights(GF(3), 30), 200, seed=11)
    print("  byte-identical on rerun:", rep.to_json() == again.to_json())

    # Does permuting the weights ever change the rank for a fixed tournament?
    # Open question.  Self-dual examples like quadratic-residue tournaments are
    # the interesting case; the scan reports findings without judging them.
    rep = perm_scan(paley(7), counting_weights(QQ, 7), mode="all")
    print("\nperm scan of paley(7), weights 1..7 over Q:")
    print("  distinct ranks over all 5040 permutations:", rep.summary["distinct_ranks"])


# workers=2 starts spawned processes, which import this file again
if __name__ == "__main__":
    main()
