from fractions import Fraction
from unittest import mock

import pytest

from tourmat.fields import GF, QQ, Scalar
from tourmat.matrices import (
    DenseMatrix,
    LengthMismatchError,
    LinearMix,
    MatrixParseError,
    WeightSeq,
    ZeroWeightError,
    in_matrix_family,
    linear_mix_matrix,
    matrix_from_csv,
    matrix_to_csv,
    ratio_matrix,
    reversal_sum_matrix,
    tournament_matrix,
    transitive_matrix,
)
from tourmat.rank import rank
from tourmat.tournaments import enumerate_all, parse_tournament, random_tournament, transitive


def grid(m):
    return [[v.value for v in m.row(r)] for r in range(m.n_rows)]


def test_weight_seq_rejects_zero():
    with pytest.raises(ZeroWeightError):
        WeightSeq.of(QQ, [1, 0, 2])
    with pytest.raises(ZeroWeightError):
        WeightSeq.of(GF(3), [1, 3, 2])


def test_transitive_matrix_is_base_case_display():
    w = WeightSeq.of(QQ, [5, 7, 11])
    assert grid(transitive_matrix(w)) == [[0, 7, 11], [7, 0, 11], [11, 11, 0]]


def test_transitive_matrix_equals_reverse_ranked_tournament():
    for n in (2, 3, 4, 6):
        w = WeightSeq.of(QQ, range(2, n + 2))
        t = transitive(n, range(n, 0, -1))
        assert tournament_matrix(t, w) == transitive_matrix(w)


def test_transitive_matrix_block_rows():
    # rows 1..3 of the 5x5 reverse-ranked matrix agree on columns 4, 5
    w = WeightSeq.of(QQ, [1, 2, 3, 4, 5])
    m = transitive_matrix(w)
    for r in range(3):
        assert [m.at(r, 3).value, m.at(r, 4).value] == [4, 5]


def test_tournament_matrix_explicit():
    t = parse_tournament("n=3:111")
    w = WeightSeq.of(QQ, [1, 2, 3])
    assert grid(tournament_matrix(t, w)) == [[0, 1, 1], [1, 0, 2], [1, 2, 0]]


def test_constant_weights_collapse():
    w = WeightSeq.of(QQ, [4, 4, 4, 4])
    expected = [[0 if r == c else 4 for c in range(4)] for r in range(4)]
    for t in enumerate_all(4):
        assert grid(tournament_matrix(t, w)) == expected


def test_matrix_family_membership():
    w = WeightSeq.of(GF(7), [1, 2, 3, 4, 5])
    for i in range(20):
        t = random_tournament(5, 31, i)
        m = tournament_matrix(t, w)
        assert m.is_symmetric()
        assert m.has_zero_diagonal()
        assert in_matrix_family(m, w)


def test_length_mismatch():
    with pytest.raises(LengthMismatchError):
        tournament_matrix(transitive(3), WeightSeq.of(QQ, [1, 2]))


def test_reversal_identity_exhaustive_n4():
    w = WeightSeq.of(QQ, [1, 2, 3, 4])
    target = reversal_sum_matrix(w)
    for t in enumerate_all(4):
        m, r = tournament_matrix(t, w), tournament_matrix(t.reverse(), w)
        assert [a + b for a, b in zip(m.entries, r.entries)] == list(target.entries)


def test_reversal_sum_entries():
    w = WeightSeq.of(QQ, [1, 2, 3])
    assert grid(reversal_sum_matrix(w)) == [[0, 3, 4], [3, 0, 5], [4, 5, 0]]


def test_reversal_sum_char2_constant_vanishes():
    w = WeightSeq.of(GF(2), [1, 1, 1])
    assert all(v == 0 for v in reversal_sum_matrix(w).entries)


def test_single_weight_change_touches_one_row_col():
    w = WeightSeq.of(QQ, [1, 2, 3, 4, 5])
    t = random_tournament(5, 8, 3)
    base = tournament_matrix(t, w)
    changed = tournament_matrix(t, w.replace(2, 9))
    for r in range(5):
        for c in range(5):
            if base.at(r, c) != changed.at(r, c):
                assert r == 2 or c == 2


def test_linear_mix_reduces_to_base():
    w = WeightSeq.of(QQ, [1, 2, 3, 4])
    mix = LinearMix(QQ.one, QQ.zero)
    for t in enumerate_all(4, 0, 16):
        assert linear_mix_matrix(t, w, mix) == tournament_matrix(t, w)


def test_linear_mix_symmetric_coeffs_ignore_orientation():
    w = WeightSeq.of(QQ, [1, 2, 3])
    mix = LinearMix(QQ.one, QQ.one)
    ms = {grid(linear_mix_matrix(t, w, mix)) == grid(reversal_sum_matrix(w))
          for t in enumerate_all(3)}
    assert ms == {True}


def test_linear_mix_explicit_value():
    t = parse_tournament("n=2:1")
    w = WeightSeq.of(QQ, [1, 2])
    mix = LinearMix(QQ.scalar(2), QQ.scalar(3))
    assert grid(linear_mix_matrix(t, w, mix)) == [[0, 8], [8, 0]]


def test_linear_mix_degenerate_flag():
    assert LinearMix(QQ.one, -QQ.one).degenerate()
    assert not LinearMix(QQ.one, QQ.one).degenerate()


def test_ratio_matrix():
    w = WeightSeq.of(QQ, [1, 2])
    fwd = ratio_matrix(parse_tournament("n=2:1"), w)
    rev = ratio_matrix(parse_tournament("n=2:0"), w)
    assert fwd.at(0, 1).value == Fraction(1, 2)
    assert rev.at(0, 1).value == Fraction(2)
    const = ratio_matrix(random_tournament(4, 2, 0), WeightSeq.of(QQ, [3, 3, 3, 3]))
    assert grid(const) == [[0 if r == c else 1 for c in range(4)] for r in range(4)]


def test_ratio_matrix_over_word_size_prime():
    p, n = 2**31 - 1, 30
    t = random_tournament(n, 4, 0)
    values = [(k * 7919) % 97 + 1 if k % 3 else p - 1 - k for k in range(n)]  # repeats, large
    m = ratio_matrix(t, WeightSeq.of(GF(p), values))
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            win, lose = (i, j) if t.has_edge(i, j) else (j, i)
            assert m.entries[(i - 1) * n + j - 1] * values[lose - 1] % p == values[win - 1]


def test_csv_round_trip():
    w = WeightSeq.of(QQ, [Fraction(1, 2), 2, 3])
    m = tournament_matrix(transitive(3), w)
    text = matrix_to_csv(m)
    assert text.splitlines()[0] == "field=Q,rows=3,cols=3"
    assert matrix_from_csv(text) == m
    mg = tournament_matrix(transitive(3), WeightSeq.of(GF(5), [1, 2, 3]))
    assert matrix_from_csv(matrix_to_csv(mg)) == mg


def test_csv_field_override():
    m = transitive_matrix(WeightSeq.of(QQ, [1, 1, 1]))
    re_read = matrix_from_csv(matrix_to_csv(m), field=GF(2))
    assert re_read.field == GF(2)
    assert re_read.at(0, 1) == Scalar(GF(2), 1)


def test_csv_rejects_garbage():
    with pytest.raises(MatrixParseError):
        matrix_from_csv("rows=2,cols=2\n0,1\n1,0")
    with pytest.raises(MatrixParseError):
        matrix_from_csv("field=Q,rows=2,cols=2\n0,1\n1,0,0")


def test_matmul_and_transpose():
    x = DenseMatrix.from_rows(QQ, [[1, -1, 1], [1, 1, -1]])
    g = x @ x.transpose()
    assert grid(g) == [[3, -1], [-1, 3]]


def _built_matrices(field):
    w = WeightSeq.of(field, [1, 2, 3, 4, 6])
    t = random_tournament(5, 4, 0)
    mix = LinearMix(field.scalar(2), field.scalar(3))
    return [tournament_matrix(t, w), transitive_matrix(w), linear_mix_matrix(t, w, mix),
            ratio_matrix(t, w), reversal_sum_matrix(w)]


@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_entries_are_raw_canonical_values(field):
    for m in _built_matrices(field):
        for v in m.entries:
            assert field.reduce(v) == v
            assert type(field.reduce(v)) is type(v) is (int if field.char else Fraction)
        for r in range(m.n_rows):
            for c in range(m.n_cols):
                assert m.at(r, c) == Scalar(m.field, m.entries[r * m.n_cols + c])


def test_constructor_refuses_unreduced_residues():
    for bad in ((5,), (-1,)):
        with pytest.raises(ValueError):
            DenseMatrix(GF(5), 1, 1, bad)
    assert DenseMatrix.from_rows(GF(5), [[5]]).entries == (0,)


@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_from_rows_stores_the_same_entries_for_any_input_kind(field):
    ints = [[0, 1, -2], [7, 3, 0]]
    fractions = [[Fraction(v) for v in row] for row in ints]
    scalars = [[Scalar(field, v) for v in row] for row in ints]
    stored = {DenseMatrix.from_rows(field, rows).entries for rows in (ints, fractions, scalars)}
    assert len(stored) == 1


@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_build_and_rank_construct_no_scalar_per_entry(field):
    n = 30
    t = random_tournament(n, 3, 0)
    w = WeightSeq.of(field, [1 + k % 4 for k in range(n)])
    made = []
    real = Scalar.__post_init__

    def counting(self):
        made.append(1)
        real(self)

    with mock.patch.object(Scalar, "__post_init__", counting):
        rank(tournament_matrix(t, w))
    assert len(made) <= 2
