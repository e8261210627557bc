import ast
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import (enumerate_all, has_edge, leading_block, linear_mix_rows, pair_law_rows,
                     pair_sum_rows)
from tourmat import experiments as ex
from tourmat.fields import GF, QQ, Scalar, ScalarParseError, parse_scalar
from tourmat.matrices import (
    DenseMatrix,
    LengthMismatchError,
    MatrixParseError,
    WeightSeq,
    ZeroWeightError,
    in_matrix_family,
    matrix_from_csv,
    matrix_to_csv,
    ratio_matrix,
    tournament_matrix,
    transitive_matrix,
)
from tourmat.rank import rank
from tourmat.tournaments import Tournament, parse_tournament, random_tournament, transitive


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
    for code in enumerate_all(4):
        assert grid(tournament_matrix(Tournament(4, code), w)) == expected


def test_matrix_family_membership():
    w = WeightSeq.of(GF(7), [1, 2, 3, 4, 5])
    for i in range(20):
        t = random_tournament(5, 31, i)
        m = tournament_matrix(t, w)
        assert (m.ints == m.ints.T).all()
        assert not m.ints.diagonal().any()
        assert in_matrix_family(m, w)
    x = tournament_matrix(random_tournament(5, 31, 0), w).ints
    asymmetric, diagonal, foreign = x.copy(), x.copy(), x.copy()
    asymmetric[0, 1] = 3 - x[0, 1]  # a_1 and a_2 swapped: in {a_1, a_2}, not symmetric
    diagonal[3, 3] = 4
    foreign[2, 4] = foreign[4, 2] = 1  # neither a_3 = 3 nor a_5 = 5
    for bad in (asymmetric, diagonal, foreign, x[:4, :4]):
        assert not in_matrix_family(DenseMatrix(GF(7), bad), w)
    assert not in_matrix_family(DenseMatrix(GF(11), x), w)


def test_length_mismatch():
    with pytest.raises(LengthMismatchError):
        tournament_matrix(transitive(3), WeightSeq.of(QQ, [1, 2]))


def test_reversal_identity_exhaustive_n4():
    w = WeightSeq.of(QQ, [1, 2, 3, 4])
    target = DenseMatrix.from_rows(QQ, pair_sum_rows([1, 2, 3, 4]))
    for code in enumerate_all(4):
        t = Tournament(4, code)
        m, r = tournament_matrix(t, w), tournament_matrix(t.reverse(), w)
        assert [a + b for a, b in zip(m.entries, r.entries)] == list(target.entries)


def test_reversal_sum_entries():
    w = WeightSeq.of(QQ, [1, 2, 3])
    t = parse_tournament("n=3:101")
    total = tournament_matrix(t, w).ints + tournament_matrix(t.reverse(), w).ints
    assert total.tolist() == [[0, 3, 4], [3, 0, 5], [4, 5, 0]] == pair_sum_rows([1, 2, 3])


def test_reversal_sum_char2_constant_vanishes():
    w = WeightSeq.of(GF(2), [1, 1, 1])
    t = parse_tournament("n=3:110")
    total = tournament_matrix(t, w).ints + tournament_matrix(t.reverse(), w).ints
    assert not (total % 2).any()


def test_single_weight_change_touches_one_row_col():
    w = WeightSeq.of(QQ, [1, 2, 3, 4, 5])
    t = random_tournament(5, 8, 3)
    base = tournament_matrix(t, w)
    changed = tournament_matrix(t, WeightSeq.of(QQ, [1, 2, 9, 4, 5]))
    for r in range(5):
        for c in range(5):
            if base.at(r, c) != changed.at(r, c):
                assert r == 2 or c == 2


def test_linear_mix_reduces_to_base():
    w = WeightSeq.of(QQ, [1, 2, 3, 4])
    for code in enumerate_all(4, 0, 16):
        t = Tournament(4, code)
        mix = DenseMatrix.from_rows(QQ, linear_mix_rows(t.bits(), [1, 2, 3, 4], 1, 0))
        assert mix == tournament_matrix(t, w)


def test_linear_mix_symmetric_coeffs_ignore_orientation():
    w = WeightSeq.of(QQ, [1, 2, 3])
    sums = {str((tournament_matrix(t, w).ints + tournament_matrix(t.reverse(), w).ints).tolist())
            for t in map(Tournament, [3] * 8, enumerate_all(3))}
    assert sums == {str(linear_mix_rows("000", [1, 2, 3], 1, 1))}


def test_linear_mix_explicit_value():
    t = parse_tournament("n=2:1")
    w = WeightSeq.of(QQ, [1, 2])
    mix = 2 * tournament_matrix(t, w).ints + 3 * tournament_matrix(t.reverse(), w).ints
    assert mix.tolist() == [[0, 8], [8, 0]] == linear_mix_rows("1", [1, 2], 2, 3)


def test_linear_mix_degenerate_flag():
    w = WeightSeq.of(QQ, [1, 2, 3])
    with pytest.raises(ex.DegenerateMixError):
        ex.verify_f_ensemble(w, 1, -1)
    assert ex.verify_f_ensemble(w, 1, 1).passed


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
            win, lose = (i, j) if has_edge(n, t.code, i, j) else (j, i)
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


def test_csv_parses_each_distinct_rational_cell_once():
    """Every row, integer rows included, parses each distinct cell text once
    per call; a bad cell still raises ScalarParseError and a zero denominator
    ZeroDivisionError, on every call."""
    rows = [[Fraction(1, 2), 0, Fraction(-3, 4)],
            [Fraction(-3, 4), Fraction(1, 2), 5],
            [0, Fraction(1, 2), Fraction(1, 2)]]
    text = "field=Q,rows=4,cols=3\n" + "\n".join(",".join(map(str, row)) for row in rows)
    text += "\n-5, 7 ,0"  # an all-integer row with a signed and a space-padded cell
    with mock.patch("tourmat.matrices.parse_scalar", wraps=parse_scalar) as spy:
        assert matrix_from_csv(text) == DenseMatrix.from_rows(QQ, rows + [[-5, 7, 0]])
        assert sorted(c.args[1] for c in spy.call_args_list) == [
            " 7 ", "-3/4", "-5", "0", "1/2", "5"]
    with mock.patch("tourmat.matrices.parse_scalar", wraps=parse_scalar) as spy:
        # GF(7) reads an entry >= p and a negative entry as their residues
        assert (matrix_from_csv("field=GF(7),rows=2,cols=2\n0,9\n-1,0")
                == DenseMatrix.from_rows(GF(7), [[0, 2], [6, 0]]))
        assert sorted(c.args[1] for c in spy.call_args_list) == ["-1", "0", "9"]
    for _ in range(2):
        with pytest.raises(ScalarParseError):
            matrix_from_csv("field=Q,rows=2,cols=2\n1/2,x\n1/2,x")
        with pytest.raises(ZeroDivisionError):
            matrix_from_csv("field=Q,rows=2,cols=2\n1/2,1/0\n1/0,1/2")


def _built_matrices(field):
    w = WeightSeq.of(field, [1, 2, 3, 4, 6])
    t = random_tournament(5, 4, 0)
    vals = [v.value for v in w.values]
    return [tournament_matrix(t, w), transitive_matrix(w),
            DenseMatrix.from_rows(field, linear_mix_rows(t.bits(), vals, 2, 3)),
            ratio_matrix(t, w), DenseMatrix.from_rows(field, pair_sum_rows(vals))]


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
            DenseMatrix(GF(5), np.array([bad]))
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


def _ratio_law(field):
    p = field.char
    return (lambda x, y: x * pow(y, -1, p)) if p else (lambda x, y: x / y)


@pytest.mark.parametrize("field, values, wide", [
    (GF(2), [1] * 7, False),
    (GF(5), [1, 2, 3, 4, 4, 2, 1], False),
    (GF(2**31 - 1), [2**31 - 2, 5, 2**30, 7, 1, 2**31 - 3, 3], False),
    (QQ, [Fraction(1, 2), Fraction(-2, 3), 5, Fraction(7, 4), -1, 3, Fraction(1, 6)], False),
    (QQ, [-3, -1, 2, -7, 4, 4, -5], False),
    (QQ, [2**70, Fraction(2**64 + 1, 3), -5, Fraction(1, 7), 2**63, 9, -(2**65)], True),
], ids=["GF2", "GF5", "word-prime", "Q-rational", "Q-negative", "Q-past-int64"])
def test_array_builders_match_the_pair_law_oracle(field, values, wide):
    """Every builder equals the oracle's pair-by-pair walk of the bit text,
    stored by `from_rows`; past 2**63 the arrays hold Python ints."""
    w = WeightSeq.of(field, values)
    vals = [v.value for v in w.values]
    n = len(vals)
    laws = ((tournament_matrix, lambda x, y: x), (ratio_matrix, _ratio_law(field)))
    for t in [random_tournament(n, 6, i) for i in range(6)] + [Tournament(n, 0)]:
        for build, law in laws:
            m = build(t, w)
            oracle = DenseMatrix.from_rows(field, pair_law_rows(t.bits(), vals, law))
            assert m == oracle and m.raw_rows() == oracle.raw_rows()
            assert m.ints.dtype == (object if wide else np.int64)
    assert transitive_matrix(w) == tournament_matrix(Tournament(n, 0), w)


def test_ints_are_read_only_and_not_shared():
    source = np.array([[0, 1], [1, 0]])
    m = DenseMatrix(GF(5), source)
    source[0, 1] = 2
    assert m.at(0, 1) == Scalar(GF(5), 1)
    for built in (m, transitive_matrix(WeightSeq.of(QQ, [1, 2, 3])), leading_block(m, 1)):
        with pytest.raises(ValueError):
            built.ints[0, 0] = 1


def test_oracles_import_nothing_from_the_package():
    tree = ast.parse(Path(oracles.__file__).read_text(encoding="utf-8"))
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert imported and not any(name.split(".")[0] == "tourmat" for name in imported)


LEMMA_FIELDS = [GF(2), GF(3), GF(5), GF(7), QQ]


@st.composite
def _lemma_case(draw):
    field = draw(st.sampled_from(LEMMA_FIELDS))
    n = draw(st.integers(2, 14))
    p = field.char
    value = (st.integers(1, p - 1) if p else
             st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 6)))
    weights = WeightSeq.of(field, draw(st.lists(value, min_size=n, max_size=n)))
    return weights, draw(st.permutations(range(1, n + 1)))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_lemma_case())
def test_transitive_rows_differ_in_echelon_form(case):
    """The transitive lemma: row i + 1 minus row i of `transitive_matrix(w)` is
    w_{i+1} - w_i left of column i, w_{i+1} at i, -w_{i+1} at i + 1 and zero
    after it, so the n - 1 differences are independent and every vertex order
    of the transitive tournament has rank >= n - 1."""
    w, order = case
    n, p = len(w), w.field.char
    diffs = np.diff(transitive_matrix(w).ints, axis=0)
    for i, d in enumerate(diffs % p if p else diffs):
        assert np.flatnonzero(d)[-1] == i + 1
    assert rank(transitive_matrix(w)).rank >= n - 1
    assert rank(tournament_matrix(transitive(n, order), w)).rank >= n - 1
