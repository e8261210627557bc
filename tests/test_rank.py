import importlib
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from oracles import det_cofactor, leading_block, minor_scan_rank
from tourmat.experiments import cycling_weights
from tourmat.fields import GF, QQ, Scalar
from tourmat.matrices import DenseMatrix, WeightSeq, tournament_matrix, transitive_matrix
from tourmat.rank import NotSquareError, determinant, rank
from tourmat.rng import ByteStream
from tourmat.tournaments import random_tournament

# the package re-exports the function `rank`, which shadows the module attribute
rank_mod = importlib.import_module("tourmat.rank")
P = rank_mod._prime(0)


def qmat(rows):
    return DenseMatrix.from_rows(QQ, rows)


def pmat(p, rows):
    return DenseMatrix.from_rows(GF(p), rows)


def all_ones_off_diag(field, c, s):
    return DenseMatrix.from_rows(field, [[0 if r == q else c for q in range(s)]
                                         for r in range(s)])


def test_rank_simple():
    assert rank(qmat([[0, 1], [1, 0]])).rank == 2
    assert rank(qmat([[0, 0], [0, 0]])).rank == 0
    assert rank(DenseMatrix(QQ, np.zeros((0, 0), np.int64))).rank == 0


def test_rank_d3_ones_both_fields():
    d = transitive_matrix(WeightSeq.of(QQ, [1, 1, 1]))
    assert determinant(d).value == 2  # oracle: cofactor expansion
    assert det_cofactor(d.raw_rows()) == 2
    assert rank(d).rank == 3
    d2 = transitive_matrix(WeightSeq.of(GF(2), [1, 1, 1]))
    # rows 1 + 2 = 3 mod 2, so rank drops to 2
    assert rank(d2).rank == 2


def test_det_examples():
    assert determinant(qmat([[0, 1], [1, 0]])).value == -1
    with pytest.raises(NotSquareError):
        determinant(qmat([[1, 2, 3], [4, 5, 6]]))


def test_det_all_ones_off_diag_formula():
    # eigenvalues of J - I are s-1 (once) and -1 (s-1 times)
    for s in range(1, 7):
        for c in (1, 2, 5):
            m = all_ones_off_diag(QQ, c, s)
            expected = Fraction(c) ** s * (-1) ** (s - 1) * (s - 1)
            assert determinant(m).value == expected
            assert det_cofactor(m.raw_rows()) == expected


def test_principal_minor_conventions():
    m = qmat([[1, 2], [3, 4]])
    assert rank(leading_block(m, 2)).rank == rank(m).rank
    assert determinant(m) == determinant(leading_block(m, 2))
    assert rank(leading_block(m, 0)).rank == 0
    assert determinant(leading_block(m, 0)) == QQ.one
    assert determinant(leading_block(m, 1)).value == 1


def test_principal_block_det_vanishes_iff_char_divides():
    # det of the all-z principal block of size s is z^s (-1)^(s-1) (s-1)
    z = 2
    for p in (3, 5):
        for s in range(1, 7):
            m = all_ones_off_diag(GF(p), z, s)
            d = determinant(m)
            assert d.is_zero() == ((s - 1) % p == 0)


def test_rank_equals_transpose_rank():
    stream = ByteStream(17, "transpose")
    for _ in range(30):
        nr, nc = 1 + stream.randrange(5), 1 + stream.randrange(5)
        rows = [[stream.randrange(3) for _ in range(nc)] for _ in range(nr)]
        m = pmat(3, rows)
        assert rank(m).rank == rank(DenseMatrix(GF(3), m.ints.T)).rank


def test_principal_rank_monotone():
    stream = ByteStream(23, "principal")
    for _ in range(20):
        rows = [[stream.randrange(5) for _ in range(5)] for _ in range(5)]
        m = pmat(5, rows)
        full = rank(m).rank
        for s in range(6):
            assert rank(leading_block(m, s)).rank <= full


def test_rank_mod_p_at_most_rational_rank():
    stream = ByteStream(29, "drop")
    for _ in range(40):
        rows = [[stream.randrange(19) - 9 for _ in range(4)] for _ in range(4)]
        rq = rank(qmat(rows)).rank
        for p in (2, 3, 5):
            assert rank(pmat(p, rows)).rank <= rq


def test_oracle_equivalence_samples():
    stream = ByteStream(31, "oracle")
    for _ in range(60):
        nr, nc = 1 + stream.randrange(5), 1 + stream.randrange(5)
        rows = [[stream.randrange(3) for _ in range(nc)] for _ in range(nr)]
        assert rank(pmat(3, rows)).rank == minor_scan_rank(rows, p=3)
        rows_q = [[stream.randrange(7) - 3 for _ in range(nc)] for _ in range(nr)]
        assert rank(qmat(rows_q)).rank == minor_scan_rank(rows_q)


def test_oracle_equivalence_fractional_entries():
    stream = ByteStream(37, "fracs")
    for _ in range(25):
        rows = [[Fraction(stream.randrange(9) - 4, 1 + stream.randrange(4))
                 for _ in range(4)] for _ in range(4)]
        m = qmat(rows)
        assert rank(m).rank == minor_scan_rank(rows)
        assert determinant(m).value == det_cofactor(rows)


def test_low_rank_structured():
    # outer-product matrices have rank 1; summing two gives rank <= 2
    u = [1, 2, 3, 4]
    v = [2, 1, 2, 1]
    outer = [[a * b for b in v] for a in u]
    assert rank(qmat(outer)).rank == 1
    two = [[outer[r][c] + u[c] * v[r] for c in range(4)] for r in range(4)]
    assert rank(qmat(two)).rank == minor_scan_rank(two) == 2


def test_pivot_columns_deterministic():
    m = qmat([[0, 1, 2], [0, 2, 4], [1, 1, 1]])
    prof = rank(m)
    assert prof.rank == len(prof.pivot_columns) == 2
    assert prof.pivot_columns == (0, 1)
    mg = pmat(5, [[0, 1, 2], [0, 2, 4], [1, 1, 1]])
    assert rank(mg).pivot_columns == (0, 1)


def test_kernel_paths_agree_across_cutoff():
    # same matrix padded to force the numpy path must give the same profile
    stream = ByteStream(41, "paths")
    for _ in range(10):
        rows = [[stream.randrange(7) for _ in range(6)] for _ in range(6)]
        small = rank(pmat(7, rows))
        big_rows = [row + [0] * 14 for row in rows] + [[0] * 20 for _ in range(4)]
        big = rank(pmat(7, big_rows))
        assert big.rank == small.rank
        assert big.pivot_columns == small.pivot_columns


def test_scalar_entries_preserved():
    m = qmat([[Fraction(1, 2), 1], [1, 2]])
    assert determinant(m) == Scalar(QQ, 0)
    assert rank(m).rank == 1


def elimination_spy():
    return mock.patch.object(rank_mod, "_eliminate_mod_p", wraps=rank_mod._eliminate_mod_p)


# Eliminations a rational rank takes: one when the first prime gives a full
# rank with pivots 0..r-1, else as many primes as it takes for their product
# to pass Hadamard's bound H, the product of the m = min(rows, cols) largest
# 2-norms of the cleared rows, a zero row counted as 1.
@pytest.mark.parametrize("rows, expected, eliminations", [
    # full rank over Q, singular mod P; H = P needs P * P1: the large row
    # does not raise the bound of the small one
    ([[P, 0], [0, 1]], (2, (0, 1)), 2),
    # the mod-P pivot column is 1; H = sqrt(P**2 + 1) needs P * P1
    ([[P, 1]], (1, (0,)), 2),
    # rank-deficient over Q; H = sqrt(14 * 56 * 2) is below P
    ([[1, 2, 3], [2, 4, 6], [1, 0, 1]], (2, (0, 1)), 1),
    # both rows clear to [1, P]; H = P**2 + 1 needs P * P1
    ([[Fraction(1, P), 1], [1, P]], (1, (0,)), 2),
    # clears to [1, P], [0, 1]: full with pivots 0, 1 mod P
    ([[Fraction(1, P), 1], [0, 1]], (2, (0, 1)), 1),
    # rank 0 mod P, 1 over Q: the zero row counts as 1, so H = P needs P * P1
    ([[P, 0], [0, 0]], (1, (0,)), 2),
])
def test_rank_eliminations_follow_the_bound(rows, expected, eliminations):
    with elimination_spy() as spy:
        prof = rank(qmat(rows))
    assert (prof.rank, prof.pivot_columns) == expected
    assert [call.args[1] for call in spy.call_args_list] == [
        rank_mod._prime(i) for i in range(eliminations)]


# A determinant has no early exit and takes primes until their product passes 2H.
@pytest.mark.parametrize("rows, expected, eliminations", [
    ([[1, 2], [3, 4]], -2, 1),  # 2H = 2 * sqrt(5 * 25)
    ([[P, 0], [0, 1]], P, 2),  # 2H = 2 * P
    ([[2**30]], 2**30, 2),  # 2H = 2**31 is past P
    ([[-(2**30)]], -(2**30), 2),
    # clears to [1, P], [0, 1]; 2H = 2 * sqrt(P**2 + 1)
    ([[Fraction(1, P), 1], [0, 1]], Fraction(1, P), 2),
    # 2H = P + 1 passes P, though H does not: one prime would read the
    # symmetric residue (P + 1) / 2 - P
    ([[(P + 1) // 2]], (P + 1) // 2, 2),
    ([[-((P + 1) // 2)]], -((P + 1) // 2), 2),
])
def test_determinant_eliminations_pass_twice_the_bound(rows, expected, eliminations):
    with elimination_spy() as spy:
        assert determinant(qmat(rows)).value == expected
    assert spy.call_count == eliminations


def test_random_tournament_ranks_are_certified():
    weights = cycling_weights(QQ, 50)
    with elimination_spy() as spy:
        for index in range(10):
            assert rank(tournament_matrix(random_tournament(50, 1, index), weights)).rank == 50
    assert spy.call_count == 10  # the first prime certifies every one
