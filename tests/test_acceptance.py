"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.  Every comparison here is
exact (integer or rational); "pass" always means zero violation records.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from oracles import enumerate_all, minor_scan_rank
from tourmat import experiments as ex
from tourmat.families import (
    NotBisectingError,
    SetFamily,
    check_bisecting,
    family_to_matrix,
    gram_check,
    incidence_pm1,
)
from tourmat.fields import GF, QQ
from tourmat.matrices import DenseMatrix, WeightSeq, in_matrix_family, tournament_matrix
from tourmat.rank import rank
from tourmat.rng import ByteStream
from tourmat.tournaments import Tournament

SEED = 20240

FIELDS_ALL = (QQ, GF(3), GF(5), GF(7), GF(2))


@contextmanager
def criterion(num, text):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\n[criterion {num:2d}] FAIL {text} ({time.perf_counter() - t0:.1f}s)")
        raise
    print(f"\n[criterion {num:2d}] PASS {text} ({time.perf_counter() - t0:.1f}s)")


def test_criterion_01_transitive_floor_desk_scale():
    with criterion(1, "transitive floor rank >= floor(2n/3)-1, n=3..30, 5 fields"):
        for field in FIELDS_ALL:
            rep = ex.verify_transitive(range(3, 31), field, trials=50, seed=SEED)
            assert rep.summary["violations"] == 0, f"violations over {field}"


def test_criterion_02_reversal_identity_and_bounds():
    with criterion(2, "reversal identity + rank bounds, n=4..5 exhaustive, Q and GF(3)"):
        for n in (4, 5):
            low = n - 2
            half = -(-low // 2)
            for field in (QQ, GF(3)):
                weights = ex.counting_weights(field, n)
                rep = ex.verify_reversal(weights)
                assert rep.summary["checks"] == 2 ** (n * (n - 1) // 2)
                assert rep.summary["violations"] == 0
                assert rep.summary["rank_sum_matrix"] >= low
                for rec in rep.records:
                    assert rec["identity_ok"]
                    assert rec["rank_t"] + rec["rank_rev"] >= low
                    assert max(rec["rank_t"], rec["rank_rev"]) >= half


def test_criterion_03_lipschitz_trials():
    with criterion(3, "|rank change| <= 2 per flip and per weight swap, 10k GF(5) + 1k Q"):
        rep5 = ex.verify_lipschitz(ex.cycling_weights(GF(5), 8),
                                   flips=10000, seed=SEED)
        assert rep5.summary["violations"] == 0
        repq = ex.verify_lipschitz(ex.cycling_weights(QQ, 8),
                                   flips=1000, seed=SEED)
        assert repq.summary["violations"] == 0
        for rep in (rep5, repq):
            for rec in rep.records:
                assert abs(rec["rank_flipped"] - rec["rank"]) <= 2
                assert abs(rec["rank_replaced"] - rec["rank"]) <= 2


def test_criterion_04_certifiability_exhaustive():
    with criterion(4, "leading s or s+1 minor nonzero, n<=6 exhaustive, z=1, 3 fields"):
        rep = ex.verify_certifiability(6, [GF(3), GF(5), QQ], z_values=(1,))
        assert rep.summary["violations"] == 0
        per_field = sum((n - 1) * 2 ** (n * (n - 1) // 2) for n in range(2, 7))
        assert rep.summary["checks"] == 3 * per_field


def test_criterion_05_constant_weights_rank():
    with criterion(5, "constant weights: rank >= n-1, = n-1 iff char | n-1, n=2..40"):
        rep = ex.verify_constant_seq(range(2, 41), [QQ, GF(2), GF(3)])
        assert rep.summary["violations"] == 0
        for rec in rep.records:
            n, r = rec["n"], rec["rank"]
            assert r >= n - 1
            assert (r == n - 1) == rec["char_divides_n_minus_1"]


def test_criterion_06_finite_field_floor():
    with criterion(6, "rank >= n/2 - 1 over GF(3), n<=6 exhaustive, alternating weights"):
        rep = ex.verify_finite_field_bound(6, 3)
        assert rep.summary["violations"] == 0
        for rec in rep.records:
            n = rec["n"]
            assert rec["min_rank"] >= -(-n // 2) - 1  # ceil(n/2) - 1


def test_criterion_07_linear_mix_reversal():
    with criterion(7, "linear-mix entry law + rank sum >= n-2, n=4 exhaustive over Q"):
        for alpha, beta in ((2, 3), (1, 1), (5, -4)):
            weights = ex.counting_weights(QQ, 4)
            rep = ex.verify_f_ensemble(weights, alpha, beta)
            assert rep.summary["checks"] == 64
            assert rep.summary["violations"] == 0, f"mix ({alpha},{beta})"
            for rec in rep.records:
                assert rec["identity_ok"]
                assert rec["rank_t"] + rec["rank_rev"] >= 2
        with pytest.raises(ex.DegenerateMixError):
            ex.verify_f_ensemble(ex.counting_weights(QQ, 4), 1, -1)


def test_criterion_08_bisect_chain():
    with criterion(8, "star family on [5]: gram, reduction, rank 4; control rejected"):
        star = SetFamily.of(5, [{1, 2}, {1, 3}, {1, 4}, {1, 5}])
        assert check_bisecting(star).ok
        x = incidence_pm1(star)
        gram = x @ x.transpose()
        expected = [[5 if r == c else 1 for c in range(4)] for r in range(4)]
        assert [[v.value for v in gram.row(r)] for r in range(4)] == expected
        assert gram_check(star).ok
        matrix, weights = family_to_matrix(star)
        assert [v.value for v in weights.values] == [2, 2, 2, 2]
        target = [[0 if r == c else 2 for c in range(4)] for r in range(4)]
        assert [[v.value for v in matrix.row(r)] for r in range(4)] == target
        assert rank(matrix).rank == 4
        assert in_matrix_family(matrix, weights)

        control = SetFamily.of(4, [{1, 2}, {3, 4}])
        verdict = check_bisecting(control)
        assert not verdict.ok and verdict.witness == (0, 1)
        with pytest.raises(NotBisectingError):
            family_to_matrix(control)


def test_criterion_09_rank_engine_vs_minor_scan_oracle():
    with criterion(9, "elimination rank = minor-scan oracle, 500 GF(3) + 100 Q matrices"):
        stream = ByteStream(SEED, "oracle-equivalence")
        for _ in range(500):
            nr, nc = 1 + stream.randrange(6), 1 + stream.randrange(6)
            rows = [[stream.randrange(3) for _ in range(nc)] for _ in range(nr)]
            m = DenseMatrix.from_rows(GF(3), rows)
            assert rank(m).rank == minor_scan_rank(rows, p=3)
        for k in range(100):
            nr, nc = 1 + stream.randrange(6), 1 + stream.randrange(6)
            if k % 3 == 0:  # a third with fractional entries
                rows = [[Fraction(stream.randrange(9) - 4, 1 + stream.randrange(4))
                         for _ in range(nc)] for _ in range(nr)]
            else:
                rows = [[stream.randrange(9) - 4 for _ in range(nc)] for _ in range(nr)]
            m = DenseMatrix.from_rows(QQ, rows)
            assert rank(m).rank == minor_scan_rank(rows)


def test_criterion_10_montecarlo_determinism_and_bound():
    with criterion(10, "montecarlo n=50 x500, GF(3) and Q: bound, vacuity flag, bytes"):
        for field in (GF(3), QQ):
            weights = ex.cycling_weights(field, 50)
            base = ex.montecarlo_rank(weights, 500, seed=SEED)
            assert base.summary["violations"] == 0
            assert base.summary["bound_vacuous"] is True  # flagged, not silent
            assert base.summary["bound_floor"] <= 0
            repeat = ex.montecarlo_rank(weights, 500, seed=SEED)
            assert base.to_json(full_records=True) == repeat.to_json(full_records=True)
            wide = ex.montecarlo_rank(weights, 500, seed=SEED, workers=8)
            assert base.to_json(full_records=True) == wide.to_json(full_records=True)


def test_criterion_11_minrank_regression_vs_oracle():
    with criterion(11, "min rank over all n=3 tournaments, a=(1,2,3) over Q, equals 3"):
        weights = WeightSeq.of(QQ, [1, 2, 3])
        rep = ex.minrank_exhaustive(weights)
        oracle_min = min(
            minor_scan_rank(tournament_matrix(Tournament(3, code), weights).raw_rows())
            for code in enumerate_all(3)
        )
        assert rep.summary["min_rank"] == oracle_min == 3  # pinned after oracle run
