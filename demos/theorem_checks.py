"""
Running the bound verifiers
===========================

Each verifier turns one rank inequality into a machine-checked run: exact
arithmetic, exhaustive where feasible, seeded sampling where not.  A report
passes exactly when it contains zero violation records.
"""

from tourmat import GF, QQ
from tourmat.experiments import (
    counting_weights,
    cycling_weights,
    verify_certifiability,
    verify_constant_seq,
    verify_f_ensemble,
    verify_finite_field_bound,
    verify_lipschitz,
    verify_reversal,
    verify_transitive,
)


def show(report):
    mark = "PASS" if report.passed else "FAIL"
    print(f"  {mark}  {report.experiment_id:24s} checks={report.summary.get('checks')}"
          f" violations={report.summary['violations']} ({report.wall_time_s:.2f}s)")


print("transitive tournaments: rank >= floor(2n/3) - 1, any field, any weights")
for field in (QQ, GF(3), GF(2)):
    show(verify_transitive(range(3, 13), field, trials=10, seed=7))

print("\nreversal: M + M_reversed is the pair-sum matrix; rank bounds follow")
show(verify_reversal(counting_weights(QQ, 5)))
show(verify_reversal(counting_weights(GF(3), 5)))
# in characteristic 2 the identity still holds but rank checks are refused
rep = verify_reversal(cycling_weights(GF(2), 4))
print(f"  GF(2): identity checked, rank checks {rep.parameters['rank_checks']!r}")

print("\nsingle-edge flips and single-weight swaps move the rank by at most 2")
show(verify_lipschitz(cycling_weights(GF(5), 8), flips=2000, seed=7))

print("\nwith s+1 equal leading weights, a leading s or s+1 minor is nonzero")
show(verify_certifiability(5, [GF(3), GF(5), QQ]))

print("\nconstant weights force rank n or n-1, over every field")
show(verify_constant_seq(range(2, 21), [QQ, GF(2), GF(3)]))

print("\nover GF(p) every weight sequence obeys rank >= n/(p-1) - 1")
show(verify_finite_field_bound(5, 3))

print("\nlinear mixes f(x, y) = ax + by keep the reversal rank-sum bound when a + b != 0")
show(verify_f_ensemble(counting_weights(QQ, 4), 2, 3))
