"""Property tests of the batched prime-field sweep path.

`stack_ranks` is checked against `_eliminate_mod_p` run on each matrix of
the stack alone, and `tournament_stack(pair_bits(...))` against
`tournament_matrix` of the same codes, entry for entry: exhaustively for
n <= 5 and on random codes at n = 11.
"""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tourmat.fields import GF, QQ, FieldMismatchError
from tourmat.matrices import LengthMismatchError, WeightSeq, tournament_matrix, tournament_stack
from tourmat.tournaments import TooLargeError, Tournament, n_pairs, pair_bits

# the package re-exports the function `rank`, which shadows the module attribute
rank_mod = importlib.import_module("tourmat.rank")

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)
PRIMES = (2, 3, 5, 16_777_259, 2**31 - 1)


@st.composite
def residue_stacks(draw):
    """(stack, p): up to 6 matrices of 1..9 rows and columns, entries either
    small or within 4 of p, some rows zeroed or repeating an earlier row."""
    p = draw(st.sampled_from(PRIMES))
    n_mat = draw(st.integers(1, 6))
    nr = draw(st.integers(1, 9))
    nc = draw(st.integers(1, 9))
    near_p = draw(st.booleans())
    offsets = st.integers(0, min(4, p - 1))
    stack = []
    for _ in range(n_mat):
        rows = [[(p - 1 - k if near_p else k) for k in draw(st.lists(offsets, min_size=nc,
                                                                        max_size=nc))]
                for _ in range(nr)]
        for r in range(1, nr):
            kind = draw(st.sampled_from(("keep", "keep", "zero", "repeat")))
            if kind == "zero":
                rows[r] = [0] * nc
            elif kind == "repeat":
                rows[r] = list(rows[draw(st.integers(0, r - 1))])
        stack.append(rows)
    return stack, p


@SETTINGS
@given(residue_stacks())
def test_stack_ranks_match_per_matrix_elimination(case):
    stack, p = case
    arr = np.array(stack, dtype=np.int64)
    ranks = rank_mod.stack_ranks(arr, p)
    assert ranks.tolist() == [rank_mod._eliminate_mod_p(rows, p)[0] for rows in stack]
    assert (arr == np.array(stack, dtype=np.int64)).all()  # the input is not touched


def test_stack_ranks_of_an_empty_stack():
    assert rank_mod.stack_ranks(np.zeros((0, 3, 3), dtype=np.int64), 3).shape == (0,)


def _weights(field, n, seed):
    p = field.char
    return WeightSeq.of(field, [1 + (seed * 7 + 5 * k) % (p - 1) for k in range(n)])


@pytest.mark.parametrize("p", (2, 3, 2**31 - 1))
@pytest.mark.parametrize("n", range(1, 6))
def test_stack_matches_tournament_matrix_for_every_code(n, p):
    field = GF(p)
    weights = _weights(field, n, n + p)
    total = 1 << n_pairs(n)
    stack = tournament_stack(pair_bits(n, 0, total), weights)
    assert stack.shape == (total, n, n) and stack.dtype == np.int64
    for code in range(total):
        m = tournament_matrix(Tournament(n, code), weights)
        assert stack[code].ravel().tolist() == list(m.entries)


@SETTINGS
@given(st.lists(st.integers(0, (1 << n_pairs(11)) - 1), min_size=1, max_size=8),
       st.sampled_from((3, 5, 2**31 - 1)), st.integers(0, 50))
def test_stack_matches_tournament_matrix_at_n11(codes, p, seed):
    field = GF(p)
    weights = _weights(field, 11, seed)
    bits = np.concatenate([pair_bits(11, code, code + 1) for code in codes])
    stack = tournament_stack(bits, weights)
    for code, built in zip(codes, stack):
        assert built.ravel().tolist() == list(tournament_matrix(Tournament(11, code), weights).entries)


def test_pair_bits_follow_bits_text():
    bits = pair_bits(4, 5, 40)
    assert bits.shape == (35, 6) and bits.dtype == np.uint8
    for b, row in enumerate(bits):
        assert "".join(map(str, row)) == Tournament(4, 5 + b).bits()


def test_pair_bits_refuse_what_enumerate_all_refuses():
    with pytest.raises(TooLargeError):
        pair_bits(12, 0, 1)
    with pytest.raises(ValueError, match="bad shard"):
        pair_bits(3, 0, 9)


def test_tournament_stack_refuses_q_and_wrong_lengths():
    with pytest.raises(FieldMismatchError):
        tournament_stack(pair_bits(3, 0, 8), WeightSeq.of(QQ, [1, 2, 3]))
    with pytest.raises(LengthMismatchError):
        tournament_stack(pair_bits(3, 0, 8), WeightSeq.of(GF(3), [1, 2, 1, 2]))
