"""Property tests of the batched sweep path.

`stack_ranks` is checked against `_eliminate_mod_p` run on each matrix of
the stack alone over GF(p), and against `rank()` of each matrix over Q, and
`tournament_stack(pair_bits(...))` against `tournament_matrix` of the same
codes, entry for entry: exhaustively for n <= 5 and on random codes at
n = 11, and with one weight row per matrix.  Stacks wider than two panels
are ranked one matrix at a time.  Over Q a `mock` count pins how many
primes the stacks that skip the certificate are ranked mod: `_prime(0)` for
every matrix, the rest only for those short of full rank there, and stacks
that mix both kinds are checked against `rank()` and the Bareiss oracle.
The float64 certificate of full rank over Q, `_certified_full`, never
passes a matrix short of full rank, even when handed the exact inverse of a
neighbouring matrix; on stacks that mix full-rank, short, zero and
float-singular matrices each verdict is the one the matrix gets alone, and
a singular matrix leaves its chunk mates certified.  Ranks with it equal
ranks with it patched to certify nothing, and only the stacks its depth
and width rule (`_CERT_FIRST`) names ask it.  `class_pivot_ranks`, Monte
Carlo's block pivot on an equal-weight class, gives the ranks of
`stack_ranks` over every field, on stacks whose rank falls short and at the
int64 bounds of its one complement, and pivots on the class its rule
names, over Q at any width.
`bordered_ranks` is checked against `stack_ranks` of the
bordered matrices it ranks, on symmetric blocks of any rank, and the
bordered sweep `_code_ranks`, which ranks each distinct matrix once, against
`stack_ranks` of the same codes, in one process, in two workers, and in
slices of 3 runs, where most runs copy a first run of an earlier slice.
`_gauss_jordan`, which `bordered_ranks` is built on, is checked against its
contract: T B in reduced row echelon form for an invertible T.
"""

import importlib
import math
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from oracles import bareiss, eliminate_mod_p, leading_block

from tourmat import experiments as ex
from tourmat.fields import GF, QQ
from tourmat.matrices import (
    DenseMatrix,
    LengthMismatchError,
    WeightSeq,
    tournament_matrix,
    tournament_stack,
)
from tourmat.tournaments import (
    TooLargeError,
    Tournament,
    code_bits,
    n_pairs,
    pair_bits,
    random_pair_bits,
    random_tournament,
)

# the package re-exports the function `rank`, which shadows the module attribute
rank_mod = importlib.import_module("tourmat.rank")

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)
PRIMES = (2, 3, 5, 16_777_259, 2**31 - 1)


def certifying_none():
    """`_certified_full` patched to certify no matrix of any stack."""
    return mock.patch.object(rank_mod, "_certified_full",
                             side_effect=lambda stack: np.zeros(len(stack), dtype=bool))


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
@given(residue_stacks(), st.integers(1, 4))
def test_stack_ranks_match_per_matrix_elimination(case, rows_per_step):
    """Also with the row update cut into steps of 1..4 rows."""
    stack, p = case
    arr = np.array(stack, dtype=np.int64)
    ranks = rank_mod.stack_ranks(arr, p)
    assert ranks.tolist() == [rank_mod._eliminate_mod_p(rows, p)[0] for rows in stack]
    with mock.patch.object(rank_mod, "_ROWS", rows_per_step):
        assert rank_mod.stack_ranks(arr, p).tolist() == ranks.tolist()
    assert (arr == np.array(stack, dtype=np.int64)).all()  # the input is not touched


def test_stack_ranks_of_an_empty_stack():
    assert rank_mod.stack_ranks(np.zeros((0, 3, 3), dtype=np.int64), 3).shape == (0,)


def test_wide_stacks_are_ranked_one_matrix_at_a_time():
    """Past 2 * _PANEL columns `stack_ranks` runs `_eliminate_mod_p` once per
    matrix mod p.  Over Q the certificate settles the three full-rank
    matrices with no elimination, and the one matrix short of full rank is
    eliminated mod each of its Hadamard primes; with the certificate patched
    to certify nothing, every matrix is eliminated mod _prime(0) and the
    short one mod the further primes.  The ranks are those the batch kernel
    gives when `_PANEL` is raised to let it run; at 2 * _PANEL it runs none."""
    n = 2 * rank_mod._PANEL + 2
    weights = WeightSeq.of(GF(3), [1 + k % 2 for k in range(n)])
    stack = tournament_stack(code_bits(n, [random_tournament(n, 4, i).code for i in range(3)]),
                             weights.int_row())
    stack = np.concatenate([stack, stack[:1]])
    stack[3, n // 2:] = stack[3, : n - n // 2]  # a repeated half: rank at most n // 2 + 1
    primes = rank_mod._hadamard_primes(stack[3:], n)
    with mock.patch.object(rank_mod, "_eliminate_mod_p", wraps=rank_mod._eliminate_mod_p) as spy:
        ranks = rank_mod.stack_ranks(stack, 3).tolist()
        assert spy.call_count == len(stack)
        q_ranks = rank_mod.stack_ranks(stack, 0).tolist()
        assert [c.args[1] for c in spy.call_args_list[len(stack):]] == primes
        assert all((c.args[0] == stack[3]).all() for c in spy.call_args_list[len(stack):])
        spy.reset_mock()
        with certifying_none():
            assert rank_mod.stack_ranks(stack, 0).tolist() == q_ranks
        assert [c.args[1] for c in spy.call_args_list] == [primes[0]] * len(stack) + primes[1:]
        assert all((c.args[0] == stack[3]).all() for c in spy.call_args_list[len(stack):])
        spy.reset_mock()
        rank_mod.stack_ranks(stack[:, :-2, :-2], 3)
        assert spy.call_count == 0
    with mock.patch.object(rank_mod, "_PANEL", n):
        assert rank_mod.stack_ranks(stack, 3).tolist() == ranks
        assert rank_mod.stack_ranks(stack, 0).tolist() == q_ranks
    assert ranks[3] <= n // 2 + 1 < ranks[0]
    assert q_ranks[:3] == [n] * 3 and q_ranks[3] <= n // 2 + 1


def _weights(field, n, seed):
    p = field.char
    return WeightSeq.of(field, [1 + (seed * 7 + 5 * k) % (p - 1) for k in range(n)])


@pytest.mark.parametrize("p", (2, 3, 2**31 - 1))
@pytest.mark.parametrize("n", range(1, 6))
def test_stack_matches_tournament_matrix_for_every_code(n, p):
    field = GF(p)
    weights = _weights(field, n, n + p)
    total = 1 << n_pairs(n)
    stack = tournament_stack(pair_bits(n, 0, total), weights.int_row())
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
    stack = tournament_stack(bits, weights.int_row())
    for code, built in zip(codes, stack):
        assert built.ravel().tolist() == list(tournament_matrix(Tournament(11, code), weights).entries)


def test_pair_bits_follow_bits_text():
    bits = pair_bits(4, 5, 40)
    assert bits.shape == (35, 6) and bits.dtype == np.uint8
    for b, row in enumerate(bits):
        assert "".join(map(str, row)) == Tournament(4, 5 + b).bits()
    rows = code_bits(4, range(5, 40))
    assert rows.dtype == np.uint8 and (rows == bits).all()
    assert code_bits(1, [0, 0]).shape == (2, 0)


@pytest.mark.parametrize("field, values", [
    (GF(5), lambda b, k: 1 + (b + 2 * k) % 4),
    (GF(2**31 - 1), lambda b, k: 2**31 - 2 - b * k),
    (QQ, lambda b, k: Fraction((-1) ** k * (k + 1), b + 2)),
], ids=["GF5", "word-prime", "Q-fractions"])
def test_per_row_weights_match_tournament_matrix(field, values):
    """One weight row per matrix: each matrix is `tournament_matrix` of its own
    tournament and weights, times its own row's denominator lcm over Q; one
    bit row against every weight row is the first tournament under each."""
    n, count = 6, 7
    tournaments = [random_tournament(n, 5, b) for b in range(count)]
    weights = [WeightSeq.of(field, [values(b, k) for k in range(n)]) for b in range(count)]
    dens = [math.lcm(*(v.value.denominator for v in w.values)) for w in weights]
    assert dens == ([1] * count if field.char else list(range(2, 9)))
    rows = np.concatenate([w.int_row() for w in weights])
    stack = tournament_stack(code_bits(n, [t.code for t in tournaments]), rows)
    assert stack.shape == (count, n, n) and stack.dtype == np.int64
    for t, w, den, built in zip(tournaments, weights, dens, stack):
        assert built.ravel().tolist() == [v * den for v in tournament_matrix(t, w).entries]
    broadcast = tournament_stack(code_bits(n, [tournaments[0].code]), rows)
    assert broadcast.shape == (count, n, n) and broadcast.dtype == np.int64
    for w, den, built in zip(weights, dens, broadcast):
        assert built.ravel().tolist() == [v * den for v in
                                          tournament_matrix(tournaments[0], w).entries]


def test_pair_bits_refuse_what_enumerate_all_refuses():
    with pytest.raises(TooLargeError):
        pair_bits(12, 0, 1)
    with pytest.raises(ValueError, match="bad shard"):
        pair_bits(3, 0, 9)


def test_tournament_stack_refuses_wrong_lengths():
    for field in (GF(3), QQ):
        with pytest.raises(LengthMismatchError):
            tournament_stack(pair_bits(3, 0, 8), WeightSeq.of(field, [1, 2, 1, 2]).int_row())
        three = WeightSeq.of(field, [1, 2, 1]).int_row()
        with pytest.raises(LengthMismatchError):
            tournament_stack(pair_bits(3, 0, 8), np.repeat(three, 7, axis=0))
        with pytest.raises(LengthMismatchError):  # two bit rows, three weight rows
            tournament_stack(pair_bits(3, 0, 2), np.repeat(three, 3, axis=0))
        with pytest.raises(LengthMismatchError):  # a flat row, not a (1, n) array
            tournament_stack(pair_bits(3, 0, 2), three[0])


# ---------------------------------------------------------------------------
# Integer stacks over Q
# ---------------------------------------------------------------------------

# the Mersenne prime 2**13 - 1, then the largest primes below 2**31, found
# independently by Miller-Rabin
FIRST_PRIMES = (8191, 2147483647, 2147483629, 2147483587, 2147483579,
                2147483563, 2147483549, 2147483543, 2147483497)
P0, P1, P2 = FIRST_PRIMES[:3]
BIG = 2**63


def test_primes_count_down_from_the_largest_below_2_31():
    assert tuple(rank_mod._prime(i) for i in range(len(FIRST_PRIMES))) == FIRST_PRIMES


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(arrays(np.int64, st.sampled_from(((3, 3), (2, 5), (4, 2, 3)))),
       st.integers(1, 3), st.sampled_from((1, 2)))
def test_hadamard_primes_read_int64_and_object_arrays_alike(a, m, factor):
    """The bound's E and c come from the array, a matrix or a stack, whatever its
    dtype: the int64 array and its entries as Python ints get the same primes."""
    assert (rank_mod._hadamard_primes(a, m, factor)
            == rank_mod._hadamard_primes(a.astype(object), m, factor))


def _object_if_big(rows):
    """The stack as int64 where every entry fits, else as Python ints."""
    big = any(abs(v) >= BIG for mat in rows for row in mat for v in row)
    return np.array(rows, dtype=object if big else np.int64)


def _q_rank(rows):
    return rank_mod.rank(DenseMatrix.from_rows(QQ, rows)).rank


# a nonzero integer of each kind the prime count has to respect
LARGE_INTS = st.one_of(
    st.integers(1, 3).map(lambda k: k * P0),
    st.integers(1, 3).map(lambda k: k * P1),
    st.sampled_from((P0 * P1, P0 * P1 * P2)),
    st.integers(BIG, 2**70),
)
SIGNED_LARGE = st.tuples(LARGE_INTS, st.sampled_from((1, -1))).map(lambda t: t[0] * t[1])


@st.composite
def integer_stacks(draw):
    """Up to 4 matrices of 1..8 rows and columns: small signed entries, some
    rows zeroed or repeating an earlier row; the whole stack then times 1 or
    a large integer (a multiple of the first or second prime, a product of
    the first primes, or past 2**63), and a few entries large on their own."""
    n_mat = draw(st.integers(1, 4))
    nr, nc = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    factor = draw(st.one_of(st.just(1), SIGNED_LARGE))
    stack = []
    for _ in range(n_mat):
        rows = [[factor * v for v in draw(st.lists(st.integers(-3, 3), min_size=nc, max_size=nc))]
                for _ in range(nr)]
        for r in range(nr):
            kind = draw(st.sampled_from(("keep", "keep", "zero", "repeat", "large")))
            if kind == "zero":
                rows[r] = [0] * nc
            elif kind == "repeat" and r:
                rows[r] = list(rows[draw(st.integers(0, r - 1))])
            elif kind == "large":
                rows[r][draw(st.integers(0, nc - 1))] = draw(SIGNED_LARGE)
        stack.append(rows)
    return stack


@SETTINGS
@given(integer_stacks())
def test_q_stack_ranks_match_rank_per_matrix(stack):
    ranks = rank_mod.stack_ranks(_object_if_big(stack), 0)
    assert ranks.tolist() == [_q_rank(rows) for rows in stack]
    if not any(abs(v) >= BIG for mat in stack for row in mat for v in row):
        as_objects = np.array(stack, dtype=object)
        assert rank_mod.stack_ranks(as_objects, 0).tolist() == ranks.tolist()


@st.composite
def mixed_q_stacks(draw):
    """2..5 k x k integer matrices (k in 1..7) in shuffled order, at least one
    of full rank and one deficient over Q.  Full rank: small off-diagonal
    entries under a strictly dominant diagonal, whose entries may be
    multiples of the first primes (short of full rank mod them) or past
    2**63.  Deficient: a zero row, or a row that is a combination of two
    others with large or small coefficients."""
    k = draw(st.integers(1, 7))
    small = st.lists(st.integers(-3, 3), min_size=k, max_size=k)
    dominant = st.one_of(st.integers(3 * k, 3 * k + 5), LARGE_INTS)
    coefficient = st.one_of(st.integers(-3, 3), SIGNED_LARGE)
    stack, kinds = [], [True, False] + draw(st.lists(st.booleans(), max_size=3))
    for full in kinds:
        rows = [draw(small) for _ in range(k)]
        if full:
            for i in range(k):
                rows[i][i] = draw(dominant) * draw(st.sampled_from((1, -1)))
        else:
            i, j, l = (draw(st.integers(0, k - 1)) for _ in range(3))
            a, b = draw(coefficient), draw(coefficient)
            rows[i] = [0] * k if j == i or l == i else [
                a * x + b * y for x, y in zip(rows[j], rows[l])]
        stack.append(rows)
    return draw(st.permutations(stack))


@SETTINGS
@given(mixed_q_stacks())
def test_q_stacks_of_full_and_deficient_matrices_match_rank_and_bareiss(stack):
    k = len(stack[0])
    ranks = rank_mod.stack_ranks(_object_if_big(stack), 0).tolist()
    assert ranks == [_q_rank(rows) for rows in stack]
    assert ranks == [bareiss([list(row) for row in rows])[0] for rows in stack]
    assert min(ranks) < k == max(ranks)


# a nonzero weight: small and signed, fractional, a multiple of the first
# or second prime, a product of the first primes, or past 2**63
WEIGHTS = st.one_of(
    st.integers(-4, 4).filter(bool),
    st.fractions(-5, 5, max_denominator=6).filter(lambda f: f and f.denominator > 1),
    SIGNED_LARGE,
)


@SETTINGS
@given(st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.lists(WEIGHTS, min_size=n, max_size=n),
    st.lists(st.integers(0, (1 << n_pairs(n)) - 1), min_size=1, max_size=4),
    st.integers(1, n))))
def test_q_tournament_stack_block_ranks_match_rank(case):
    """Leading k x k blocks of Q tournament stacks, as the sweeps rank them."""
    values, codes, k = case
    n = len(values)
    weights = WeightSeq.of(QQ, values)
    bits = np.concatenate([pair_bits(n, c, c + 1) for c in codes])
    stack = tournament_stack(bits, weights.int_row())
    blocks = [leading_block(tournament_matrix(Tournament(n, c), weights), k) for c in codes]
    expected = [rank_mod.rank(m).rank for m in blocks]
    assert rank_mod.stack_ranks(stack[:, :k, :k], 0).tolist() == expected


@pytest.mark.parametrize("values", [
    [1, 2, 3, 4, 5],
    [Fraction(1, 2), Fraction(1, 3), 2**31 - 1, 2**32 - 2, 5],
    [123456789012345678901, -3, Fraction(7, 5), 2, 1],
])
def test_q_stack_is_the_matrix_times_the_common_denominator(values):
    weights = WeightSeq.of(QQ, values)
    den = math.lcm(*(Fraction(v).denominator for v in values))
    stack = tournament_stack(pair_bits(5, 0, 1 << 10), weights.int_row())
    assert stack.dtype == (object if max(abs(v) * den for v in values) >= BIG else np.int64)
    for code in range(1 << 10):
        m = tournament_matrix(Tournament(5, code), weights)
        assert stack[code].ravel().tolist() == [v * den for v in m.entries]


def _fewest_primes(stack):
    """How many of the Q primes a stack of k x k blocks needs: the fewest whose
    product exceeds the product of the k largest row 2-norms, a zero norm
    counted as 1, with the i-th largest norm taken at its largest over the
    stack; and at least one."""
    norms_sq = [sorted((max(sum(int(v) ** 2 for v in row), 1) for row in m), reverse=True)
                for m in stack]
    bound_sq = math.prod(max(col) for col in zip(*norms_sq))
    count, prod = 1, P0
    while prod * prod <= bound_sq:
        prod *= rank_mod._prime(count)
        count += 1
    return count


def _bordered_children(blocks, borders):
    """The matrices [[0, u^T], [u, B]] of `bordered_ranks(blocks, borders, p)`,
    in the order of its flattened result."""
    n_mat, m, _ = blocks.shape
    kids = np.zeros((n_mat, len(borders), m + 1, m + 1), dtype=np.result_type(blocks, borders))
    kids[:, :, 1:, 1:] = blocks[:, None]
    kids[:, :, 0, 1:] = kids[:, :, 1:, 0] = borders
    return kids.reshape(-1, m + 1, m + 1)


def _primes_per_sweep_call(run):
    """The primes each `stack_ranks` or `bordered_ranks` call of the sweeps
    ranked mod, with the stack it ranked (a bordered call's children) and the
    stack it ranked mod each prime."""
    calls = []
    ranks, bordered = rank_mod.stack_ranks, rank_mod.bordered_ranks

    def ranked(stack, p):
        calls.append((stack, [], []))
        return ranks(stack, p)

    def ranked_mod(stack, p):  # the calls mod each prime that stack_ranks makes of itself
        calls[-1][1].append(p)
        calls[-1][2].append(stack)
        return ranks(stack, p)

    def bordered_ranked(blocks, borders, p):
        calls.append((_bordered_children(blocks, borders), [], []))
        return bordered(blocks, borders, p)

    def bordered_mod(blocks, borders, p):  # the call mod the first prime it makes of itself
        calls[-1][1].append(p)
        calls[-1][2].append(calls[-1][0])
        return bordered(blocks, borders, p)

    with mock.patch.object(ex, "stack_ranks", side_effect=ranked), \
            mock.patch.object(rank_mod, "stack_ranks", side_effect=ranked_mod), \
            mock.patch.object(ex, "bordered_ranks", side_effect=bordered_ranked), \
            mock.patch.object(rank_mod, "bordered_ranks", side_effect=bordered_mod):
        run()
    return calls


def test_q_certify_ranks_one_prime_for_the_benchmark_weights():
    """No minor (k - 1) * z**k of z(J - I) with z <= 9 and k <= 5 is divisible
    by the first prime, so only the 1 x 1 zero blocks fall short there, and
    it alone passes their bound: one prime each."""
    assert all((k - 1) * z**k % P0 for z in range(1, 10) for k in range(2, 6))
    calls = _primes_per_sweep_call(
        lambda: ex.verify_certifiability(5, [QQ], z_values=range(1, 10)))
    assert len(calls) > 9 * sum(n - 1 for n in range(2, 6))
    assert all(primes == [P0] for _, primes, _ in calls)


@pytest.mark.parametrize("run, settles, goes_on", [
    # every block of z(J - I) is singular mod z = P0, so every matrix goes on
    (lambda: ex.verify_certifiability(5, [QQ], z_values=(P0,)), False, True),
    (lambda: ex.minrank_exhaustive(
        WeightSeq.of(QQ, [123456789012345678901, -3, Fraction(7, 5), 2, 1])), True, False),
    (lambda: ex.minrank_exhaustive(
        WeightSeq.of(QQ, [k * (2**40 + 1) for k in range(1, 6)])), True, True),
], ids=["certify-z-word-prime", "minrank-past-63-bits", "minrank-scaled-mixed"])
def test_q_prime_count_is_the_fewest_past_the_hadamard_bound(run, settles, goes_on):
    """Every matrix is ranked mod _prime(0) once, and only the matrices short
    of full rank there go on, mod the fewest primes past their own bound.
    `settles`: some matrix whose stack's bound asks for 2+ primes ends at
    the first; `goes_on`: some matrix goes on.  The scaled weights do both in
    one stack: multiples of 2**40 + 1 keep the ranks of weights 1..5 (nine
    codes rank 4) and raise the bound past one prime."""
    calls = _primes_per_sweep_call(run)
    settled = went_on = mixed = False
    for stack, primes, stacks in calls:
        assert primes[0] == P0 and stacks[0] is stack
        full = min(stack.shape[1:])
        short = [i for i, m in enumerate(stack) if rank_mod._eliminate_mod_p(m, P0)[0] < full]
        if short:
            rest = stack[short]
            assert primes == [rank_mod._prime(i) for i in range(_fewest_primes(rest))]
            assert all(np.array_equal(s, rest) for s in stacks[1:])
        else:
            assert primes == [P0]
        settled_here = len(short) < len(stack) and _fewest_primes(stack) >= 2
        settled |= settled_here
        went_on |= len(primes) >= 2
        mixed |= settled_here and len(primes) >= 2
    assert (settled, went_on) == (settles, goes_on)
    assert mixed == (settles and goes_on)


def _exact_size(n):
    """The largest entry size at which `_certified_full` of an n x n matrix
    still forms its product exactly: n * size < 2**52."""
    return (2**52 - 1) // n


@st.composite
def short_rank_matrices(draw):
    """An n x n int64 matrix (n in 1..40) of rank below n over Q: X D X^T for
    an n x r X with entries up to 2**2 or 2**20 in size and a nonzero
    diagonal D, r = n - 1..n - 3 (entries reach past `_exact_size` at the
    larger n); or a matrix with small entries whose row j is c times row i
    (c = 1 or 3), row i holding one entry at, just past or far past
    `_exact_size`, where c * row i rounds in float64."""
    n = draw(st.integers(1, 40))
    if draw(st.booleans()):
        r = max(0, n - draw(st.integers(1, 3)))
        size = 2 ** draw(st.sampled_from((2, 20)))
        x = np.array(draw(st.lists(st.integers(-size, size), min_size=n * r, max_size=n * r)),
                     dtype=np.int64).reshape(n, r)
        d = draw(st.lists(st.sampled_from((-3, -1, 1, 2)), min_size=r, max_size=r))
        return x * np.array(d, dtype=np.int64) @ x.T
    n = max(n, 2)
    m = np.array(draw(st.lists(st.integers(-3, 3), min_size=n * n, max_size=n * n)),
                 dtype=np.int64).reshape(n, n)
    i, j = draw(st.permutations(range(n)))[:2]
    big = draw(st.sampled_from((_exact_size(n), _exact_size(n) + 1, 2**53 + 1, 2**61 + 1)))
    m[i, draw(st.integers(0, n - 1))] = big * draw(st.sampled_from((1, -1)))
    m[j] = draw(st.sampled_from((1, 3))) * m[i]
    return m


@SETTINGS
@given(short_rank_matrices(), st.data())
def test_certificate_never_passes_a_matrix_short_of_full_rank(m, data):
    """Neither from float64's own inverse of m nor from the exact inverse X
    of a neighbour m + e_i e_j^T, for which I - X m = X e_i e_j^T is
    singular, so ||I - X m||_inf >= 1 holds exactly: only rounding could
    pass it."""
    n = len(m)
    assert _q_rank(m.tolist()) < n
    assert not rank_mod._certified_full(m[None]).any()
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    neighbour = m.astype(np.float64)
    neighbour[i, j] += 1
    try:
        x = np.linalg.inv(neighbour)
    except np.linalg.LinAlgError:
        return
    with mock.patch.object(np.linalg, "inv", return_value=x[None]):
        assert not rank_mod._certified_full(m[None]).any()


def test_certificate_fails_a_row_sum_of_exactly_one():
    """X, the exact inverse of the neighbour [[2, 1], [1, 1]] of the singular
    m, leaves ||I - X m||_inf = 1 with no rounding at all."""
    m = np.ones((1, 2, 2), dtype=np.int64)
    with mock.patch.object(np.linalg, "inv",
                           return_value=np.array([[[1.0, -1.0], [-1.0, 2.0]]])):
        assert not rank_mod._certified_full(m).any()


CERT_KINDS = ("dominant", "dominant", "short", "zero", "float-singular")


@st.composite
def certificate_stacks(draw):
    """(stack, kinds, chunk): 1..9 int64 matrices n wide (n in 2..12) of the
    drawn kinds, and a chunk size in entries of one, two or all of them at
    once.  "dominant": entries in -3..3 off a diagonal of 4n, full rank;
    "short": row j = c row i; "zero"; "float-singular": full rank over Q
    (determinant 1) with rows (2**53 + 1, 2**53) and (1, 1) over columns i
    and j, which float64 rounds to a singular matrix.  Any kind but "zero"
    may hold one entry of size `_exact_size(n)` or one past it."""
    n = draw(st.integers(2, 12))
    kinds = draw(st.lists(st.sampled_from(CERT_KINDS), min_size=1, max_size=9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = rng.integers(-3, 4, size=(len(kinds), n, n))
    for m, kind in zip(stack, kinds):
        i, j = rng.choice(n, size=2, replace=False)
        m += 4 * n * np.eye(n, dtype=np.int64)
        if kind != "zero" and draw(st.booleans()):
            m[i, j] = (_exact_size(n) + draw(st.integers(0, 1))) * draw(st.sampled_from((1, -1)))
        if kind == "short":
            m[j] = draw(st.sampled_from((1, -2))) * m[i]
        elif kind == "zero":
            m[:] = 0
        elif kind == "float-singular":
            m[[i, j]], m[:, [i, j]] = 0, 0
            m[i, i], m[i, j], m[j, i], m[j, j] = 2**53 + 1, 2**53, 1, 1
    chunk = draw(st.sampled_from((1, 2, len(kinds)))) * n * n
    return stack, kinds, chunk


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(certificate_stacks())
# a zero and a float-singular matrix between dominant ones, in one chunk
@example((np.stack([np.eye(3, dtype=np.int64) * 12, np.zeros((3, 3), dtype=np.int64),
                    np.array([[2**53 + 1, 2**53, 0], [1, 1, 0], [0, 0, 1]]),
                    np.eye(3, dtype=np.int64) * 12 + 1]),
          ["dominant", "zero", "float-singular", "dominant"], 36))
def test_certificate_verdicts_hold_alone_and_in_a_stack(case):
    """Every certified matrix is of full rank by the oracle, none with an
    entry past `_exact_size(n)`; each verdict is the one the matrix gets
    alone; every dominant matrix is certified, so a singular matrix leaves
    its chunk mates certified; and each chunk takes one stacked inverse, or
    two when a singular matrix makes the first raise."""
    stack, kinds, chunk = case
    n = stack.shape[-1]
    with mock.patch.object(rank_mod, "_CERT_ENTRIES", chunk), \
            mock.patch.object(np.linalg, "inv", wraps=np.linalg.inv) as inverses:
        verdicts = rank_mod._certified_full(stack).tolist()
    chunks = -(-len(stack) // max(1, chunk // n**2))
    assert chunks <= inverses.call_count <= 2 * chunks
    for m, kind, certified in zip(stack, kinds, verdicts):
        assert rank_mod._certified_full(m[None]).tolist() == [certified]
        if certified:
            assert _q_rank(m.tolist()) == n
            assert np.abs(m).max() <= _exact_size(n)
        if kind == "dominant" and np.abs(m).max() <= 4 * n + 3:
            assert certified


@st.composite
def q_stacks_around_the_certificate_rule(draw):
    """1..4 integer matrices, or as many as one of `_CERT_FIRST`'s finite
    depths or one more, whose sides are each one of its widths, one less,
    or 2 * _PANEL + 1: entries in -3..3 from a drawn numpy seed, some
    matrices short of full rank (a repeated, zero or combined row); as
    int64, or as Python ints with or without one entry past 2**63."""
    widths = sorted({w - d for w, _ in rank_mod._CERT_FIRST for d in (0, 1)}
                    | {2 * rank_mod._PANEL + 1})
    depths = sorted({d + e for _, d in rank_mod._CERT_FIRST[1:] for e in (0, 1)})
    nr = draw(st.sampled_from(widths))
    nc = draw(st.one_of(st.just(nr), st.sampled_from(widths)))
    n_mat = draw(st.one_of(st.integers(1, 4), st.sampled_from(depths)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = rng.integers(-3, 4, size=(n_mat, nr, nc)).astype(object)
    for m in stack:
        i, j, k = rng.choice(nr, size=3, replace=False)
        kind = draw(st.sampled_from(("full", "repeat", "zero", "combine")))
        if kind == "repeat":
            m[i] = m[j]
        elif kind == "zero":
            m[i] = 0
        elif kind == "combine":
            m[i] = 2 * m[j] - 3 * m[k]
    kind = draw(st.sampled_from(("int64", "objects", "past 63 bits")))
    if kind == "past 63 bits":
        stack[0, 0, 0] = BIG + 1
    return stack.astype(np.int64) if kind == "int64" else stack


def _small_q_stack(depth, n):
    """depth int64 n x n matrices with entries in -3..3."""
    return np.random.default_rng(depth * n).integers(-3, 4, size=(depth, n, n))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(q_stacks_around_the_certificate_rule())
# both sides of each width and each depth in `_CERT_FIRST`
@example(_small_q_stack(129, 32))
@example(_small_q_stack(129, 31))
@example(_small_q_stack(128, 24))
@example(_small_q_stack(129, 24))
@example(_small_q_stack(128, 23))
def test_q_stack_ranks_do_not_depend_on_the_certificate(stack):
    """Ranks with the certificate equal those with it patched to certify
    nothing, and only square int64 stacks that `_CERT_FIRST` names ask it,
    once for the whole stack."""
    with mock.patch.object(rank_mod, "_certified_full",
                           wraps=rank_mod._certified_full) as certified:
        ranks = rank_mod.stack_ranks(stack, 0).tolist()
    with certifying_none():
        assert rank_mod.stack_ranks(stack, 0).tolist() == ranks
    depth, nr, nc = stack.shape
    asks = stack.dtype == np.int64 and nr == nc and (nc >= 32 or nc >= 24 and depth <= 128)
    assert [c.args[0].shape for c in certified.call_args_list] == [stack.shape] * asks


def test_one_singular_matrix_leaves_the_others_certified():
    """A singular matrix in a stack of tournament matrices alone goes on to
    the ranks mod the Q primes, as a stack of one."""
    n = 40
    weights = WeightSeq.of(QQ, [1 + k % 2 for k in range(n)])
    stack = tournament_stack(code_bits(n, [random_tournament(n, 5, i).code for i in range(6)]),
                             weights.int_row())
    stack[2, :, 1] = stack[2, :, 0]
    with mock.patch.object(rank_mod, "_over_q", wraps=rank_mod._over_q) as over_q:
        ranks = rank_mod.stack_ranks(stack, 0).tolist()
    assert ranks == [_q_rank(m.tolist()) for m in stack]
    assert ranks[2] == n - 1 and ranks.count(n) == 5
    (rest, _), = [c.args for c in over_q.call_args_list]
    assert np.array_equal(rest, stack[2:3])


# Monte Carlo's class pivot: Q weights small and signed or fractional, and
# sometimes one of them a multiple of the first Q prime or past 2**63
PIVOT_Q_VALUES = st.one_of(
    st.integers(-9, 9).filter(bool),
    st.fractions(-5, 5, max_denominator=6).filter(lambda f: f and f.denominator > 1),
)
PIVOT_Q_SPECIAL = (None, None, None, P0, -2 * P0, BIG + 1)
PIVOT_WIDTHS = (1, 2, 4, 7, 12, 31, 32, 33, 40, 63, 64, 65, 66, 80, 130)


@st.composite
def class_pivot_cases(draw):
    """(field, weights, bits): n weights, n on both sides of 32 (the widest
    row of `_CERT_FIRST`) and of 2 * _PANEL, each one of up to 4 drawn
    values (placed from a drawn numpy seed), or all one value, or n
    consecutive nonzero residues (distinct while n < p) or integers, with
    the pair bits of 1..3 random tournaments.  Values mod p are small or
    near p; over Q one drawn value may be a PIVOT_Q_SPECIAL."""
    field = draw(st.sampled_from((GF(2), GF(3), GF(5), GF(8191), GF(2**31 - 1), QQ)))
    n, p = draw(st.sampled_from(PIVOT_WIDTHS)), field.char
    values = (st.one_of(st.integers(1, min(p - 1, 9)), st.integers(max(1, p - 4), p - 1)) if p
              else PIVOT_Q_VALUES)
    kind = draw(st.sampled_from(("classes", "classes", "one value", "consecutive")))
    if kind == "consecutive":
        start = draw(st.integers(0, 2**20))
        weights = [1 + (start + i) % (p - 1) if p else start + i + 1 for i in range(n)]
    else:
        pool = draw(st.lists(values, min_size=1, max_size=1 if kind == "one value" else 4))
        pool[0] = (not p and draw(st.sampled_from(PIVOT_Q_SPECIAL))) or pool[0]
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        weights = [pool[i] for i in rng.integers(0, len(pool), size=n).tolist()]
    bits = random_pair_bits(n, draw(st.integers(0, 2**16)), 0, draw(st.integers(1, 3)))
    return field, weights, bits


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(class_pivot_cases())
# p | k - 1: GF(3) classes of 4 and 3 both give 3; GF(5) 6 + 2 vertices give 5
@example((GF(3), [1] * 4 + [2] * 3, code_bits(7, [0, 1000, 2**20])))
@example((GF(5), [1] * 6 + [3] * 2, code_bits(8, [0, 77, 2**27])))
# one weight: a 1 x 1 complement (over GF(2) 2 | 7 - 1, so 6 of the 7 pivot) or none
@example((GF(2), [1] * 7, code_bits(7, [0, 5, 2**20])))
@example((GF(2), [1] * 6, code_bits(6, [0, 5, 2**14])))
@example((QQ, [-3] * 5, code_bits(5, [0, 9])))
# no class: every weight distinct, or Python ints past 2**63
@example((GF(8191), list(range(1, 11)), code_bits(10, [3, 2**40])))
@example((QQ, list(range(-5, 0)) + list(range(1, 6)), code_bits(10, [3, 2**40])))
@example((QQ, [BIG, 1, 1, 2, 2], code_bits(5, [0, 700])))
# Q matrices of rank n - 1, with signed and with cleared fractional weights
@example((QQ, [1, 2, 2, 1, 1, 1], code_bits(6, [897, 901, 0])))
@example((QQ, [1, 1, -1, -1, 2, 2], code_bits(6, [1196, 1226, 5])))
@example((QQ, [Fraction(1, 2), 1] * 3 + [Fraction(1, 2)], code_bits(7, [1040, 1048, 3])))
# over Q a class with k max|a| >= 2**31 keeps the whole stack, and one at
# k max|a| = 2**31 - 2 pivots at the int64 edge, (2 k**2 - 1) a**2 > 2**62
@example((QQ, [2**30] * 3 + [1, 2], code_bits(5, [0, 700])))
@example((QQ, [(2**31 - 2) // 3] * 3 + [-((2**31 - 2) // 3)] * 2 + [1],
          code_bits(6, [0, 2**14 - 1, 901])))
# word-size p: a class of 5 vertices of weight p - 1 beside 2 of weight p - 2,
# with two matrices short of full rank, whose ranks come out wrong if u or w
# is left unreduced and the complement overflows int64
@example((GF(2**31 - 1), [2**31 - 2] * 5 + [2**31 - 3] * 2, code_bits(7, [74784, 222768, 0])))
# complements past 2 * _PANEL; over Q at n = 40, 20 + 20 classes leave
# complements shallow and wide enough for the certificate, 30 + 10 ones not
@example((GF(3), [1 + i % 2 for i in range(131)], random_pair_bits(131, 1, 0, 2)))
@example((QQ, [1 + i % 2 for i in range(40)], random_pair_bits(40, 1, 0, 2)))
@example((QQ, [1 + (i % 4 == 3) for i in range(40)], random_pair_bits(40, 2, 0, 3)))
def test_class_pivot_ranks_equal_stack_ranks(case):
    """`class_pivot_ranks` gives `stack_ranks` of the same stack, leaves the
    stack as it was, and pivots exactly when a class has k >= 2 usable
    vertices (all of it, or all but one when p | size - 1) and, over Q,
    k max|a| < 2**31: then the first stack it ranks is the (n - k)-wide
    complement."""
    field, weights, bits = case
    p, n = field.char, len(weights)
    row = WeightSeq.of(field, weights).int_row()
    stack = tournament_stack(bits, row)
    before = stack.copy()
    with mock.patch.object(rank_mod, "stack_ranks", wraps=rank_mod.stack_ranks) as ranked:
        ranks = rank_mod.class_pivot_ranks(stack, row, p)
    assert np.array_equal(stack, before)
    assert ranks.tolist() == rank_mod.stack_ranks(stack, p).tolist()
    sizes = Counter(row[0].tolist()).values()
    k = max(c - 1 if p and (c - 1) % p == 0 else c for c in sizes)
    size = max(abs(v) for v in row[0].tolist())
    pivots = k >= 2 and (p or k * size < 2**31)
    width = n - k if pivots else n
    assert ranked.call_args_list[0].args[0].shape == (len(bits), width, width)


@st.composite
def bordered_cases(draw):
    """(blocks, borders, p): 1..4 symmetric m x m blocks (m in 0..7), each
    X D X^T for an m x k factor X and a diagonal D, so of rank at most k; and
    1..6 borders, some of them B y for the first block B, where the form
    u^T x decides the rank.  Mod a prime, entries are small or within 4 of p;
    over Q (p = 0) they are signed, and the whole case may be scaled past
    2**63 or by a multiple of the first primes."""
    p = draw(st.sampled_from((2, 3, 2**31 - 1, 0)))
    m = draw(st.integers(0, 7))
    entry = (st.integers(-3, 3) if not p
             else st.one_of(st.integers(0, 3), st.integers(p - 4, p - 1)).map(lambda v: v % p))

    def matrix(rows, cols):
        return np.array(draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols)),
                        dtype=object).reshape(rows, cols)

    blocks = []
    for _ in range(draw(st.integers(1, 4))):
        x = matrix(m, draw(st.integers(0, m)))
        blocks.append(x @ np.diag(matrix(1, x.shape[1])[0]) @ x.T if x.size else
                      np.zeros((m, m), dtype=object))
    borders = [blocks[0] @ matrix(m, 1)[:, 0] if draw(st.booleans()) else matrix(1, m)[0]
               for _ in range(draw(st.integers(1, 6)))]
    blocks, borders = np.array(blocks, dtype=object), np.array(borders, dtype=object)
    if p:
        return blocks % p, borders % p, p
    factor = draw(st.one_of(st.just(1), SIGNED_LARGE))
    blocks, borders = blocks * factor, borders * factor
    big = any(abs(v) >= BIG for v in [*blocks.ravel(), *borders.ravel()])
    return (blocks, borders, 0) if big else (blocks.astype(np.int64), borders.astype(np.int64), 0)


@SETTINGS
@given(bordered_cases())
def test_bordered_ranks_match_stack_ranks_of_the_bordered_matrices(case):
    blocks, borders, p = case
    ranks = rank_mod.bordered_ranks(blocks, borders, p)
    assert ranks.shape == (len(blocks), len(borders))
    expected = rank_mod.stack_ranks(_bordered_children(blocks, borders), p)
    assert ranks.ravel().tolist() == expected.tolist()


@st.composite
def gauss_jordan_cases(draw):
    """(blocks, p): 1..4 m x m blocks (m in 0..9) mod p, each zero, of full
    random entries, or X Y for m x k and k x m factors, so of rank at most k;
    entries small or within 4 of p."""
    p = draw(st.sampled_from((2, 3, 7, 2**31 - 1)))
    m = draw(st.integers(0, 9))
    entry = st.one_of(st.integers(0, 3), st.integers(p - 4, p - 1)).map(lambda v: v % p)

    def matrix(rows, cols):
        return np.array(draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols)),
                        dtype=object).reshape(rows, cols)

    blocks = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("zero", "full", "deficient")))
        if kind == "zero":
            blocks.append(np.zeros((m, m), dtype=object))
        elif kind == "full":
            blocks.append(matrix(m, m))
        else:
            k = draw(st.integers(0, max(m - 1, 0)))
            blocks.append(matrix(m, k) @ matrix(k, m) % p if k else np.zeros((m, m), dtype=object))
    return np.array(blocks, dtype=object).astype(np.int64), p


@SETTINGS
@given(gauss_jordan_cases())
def test_gauss_jordan_gives_an_invertible_t_and_the_reduced_echelon_form(case):
    """T[k] @ B[k] mod p is in reduced row echelon form with pivots 1 at
    P[k][:r[k]] and zero rows past r[k], P is padded with m, and T[k] is
    invertible mod p; the same with the row update cut into steps of 1 or 2
    rows, which runs the chunked update above the pivot rows too."""
    blocks, p = case
    m = blocks.shape[1]
    T, r, P = rank_mod._gauss_jordan(blocks, p)
    assert T.shape == blocks.shape and r.shape == (len(blocks),) and P.shape == r.shape + (m,)
    assert ((0 <= T) & (T < p)).all()
    for t, b, rk, piv in zip(T, blocks, r.tolist(), P.tolist()):
        e = t.astype(object) @ b.astype(object) % p  # exact past 2**63
        cols = piv[:rk]
        assert cols == sorted(set(cols)) and piv[rk:] == [m] * (m - rk)
        for i, c in enumerate(cols):
            assert e[i, c] == 1 and not e[i, :c].any()
            assert not np.delete(e[:, c], i).any()
        assert not e[rk:].any()
        assert m == 0 or eliminate_mod_p(t.tolist(), p)[0] == m
    for rows_per_step in (1, 2):
        with mock.patch.object(rank_mod, "_ROWS", rows_per_step):
            again = rank_mod._gauss_jordan(blocks, p)
        assert all(np.array_equal(a, b) for a, b in zip(again, (T, r, P)))


_SIGNED = (1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-2, 3))


def _sweep_weights(field, n):
    """Weights on n vertices, all equal, all distinct (as far as the field has
    nonzero values, then cycled), equal but for vertex 1, or drawn with
    repeats: residues over GF(p), signed and fractional values over Q."""
    p = field.char
    one = st.integers(1, p - 1) if p else st.sampled_from(_SIGNED)
    few = min(n, p - 1 if p else len(_SIGNED))
    return st.one_of(
        one.map(lambda v: [v] * n),
        st.lists(one, min_size=few, max_size=few, unique=True).map(
            lambda vs: [vs[i % len(vs)] for i in range(n)]),
        st.tuples(one, one).map(lambda ab: [ab[0]] + [ab[1]] * (n - 1)),
        st.lists(one, min_size=n, max_size=n),
    )


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.sampled_from((GF(2), GF(3), GF(5), GF(2**31 - 1), QQ)), st.integers(1, 6), st.data())
def test_bordered_sweeps_match_stack_ranks(field, n, data):
    """`_code_ranks`, which ranks each distinct matrix once, over GF(2),
    GF(3), GF(5), GF(2**31 - 1) and Q (signed and fractional weights) for
    n = 1..6, with weights all equal, all distinct, equal but for vertex 1 or
    with random repeats, on shards of whole runs of 2**(n-1) codes, shards
    that start or end inside a run, and single codes: the ranks of each
    code's own matrix in `tournament_stack` batches, as int8."""
    weights = WeightSeq.of(field, data.draw(_sweep_weights(field, n)))
    total, run = 1 << n_pairs(n), 1 << (n - 1)
    kind = data.draw(st.sampled_from(("aligned", "unaligned", "single")))
    if kind == "aligned":
        k = data.draw(st.integers(0, total // run - 1))
        lo, hi = k * run, data.draw(st.integers(k + 1, min(total // run, k + 8))) * run
    else:
        lo = data.draw(st.integers(0, total - 1))
        hi = lo + 1 if kind == "single" else data.draw(st.integers(lo + 1, min(total, lo + 8 * run)))
    ranks = ex._code_ranks((weights.int_row(), field.char, lo, hi))
    expected = rank_mod.stack_ranks(tournament_stack(pair_bits(n, lo, hi), weights.int_row()),
                                    field.char)
    assert ranks.dtype == np.int8 and ranks.tolist() == expected.tolist()


@SETTINGS
@given(st.integers(0, 2**12 - 1), st.integers(0, 2**12 - 1), st.integers(1, 300))
def test_first_with_key_is_the_first_code_with_the_key(mask, k0, length):
    """For each k in [k0, k1), the least x >= k0 with x & mask == k & mask."""
    ks = np.arange(k0, k0 + length)
    expected = [next(x for x in range(k0, k + 1) if x & mask == k & mask) for k in ks.tolist()]
    assert ex._first_with_key(ks, mask, k0).tolist() == expected


@pytest.mark.parametrize("field, values", [
    (GF(3), [1, 2]), (QQ, [Fraction(1, 2), -3]),
], ids=["gf3-cycling", "q-signed-fractional-cycling"])
@pytest.mark.parametrize("n, shard", [(5, None), (6, None), (7, (1000, 1000 + 2**14))])
def test_code_ranks_copy_runs_across_slices(monkeypatch, field, values, n, shard):
    """With slices of 3 runs of 2**(n-1) codes, `_code_ranks` spans many
    slices and most runs take their ranks from a first run with their block
    key in an earlier slice: every code still gets its own matrix's rank."""
    weights = WeightSeq.of(field, [values[i % 2] for i in range(n)])
    row, run = weights.int_row(), 1 << (n - 1)
    lo, hi = shard or (0, 1 << n_pairs(n))
    monkeypatch.setattr(ex, "_SWEEP_CODES", 3 * run)
    ks = np.arange(lo // run, -(-hi // run))
    rows, cols = np.triu_indices(n, 1)
    free = sum(1 << int(k) for k in np.flatnonzero(row[0, rows] != row[0, cols]))
    first = ex._first_with_key(ks, free >> (n - 1), ks[0])
    assert ((first - ks[0]) // 3 < (ks - ks[0]) // 3).mean() > 0.5
    expected = rank_mod.stack_ranks(tournament_stack(pair_bits(n, lo, hi), row), field.char)
    assert ex._code_ranks((row, field.char, lo, hi)).tolist() == expected.tolist()


@pytest.mark.parametrize("field, values, shard", [
    (GF(5), [3, 1, 1, 1, 1, 1], (37, 20011)),
    (QQ, [Fraction(1, 2), 3, Fraction(1, 2), 3, 3, -1], (1000, 32768)),
], ids=["gf5-equal-but-vertex-1", "q-fractional-repeats"])
def test_two_workers_rank_each_code_as_its_own_matrix(field, values, shard):
    """Two spawned workers, each ranking its own chunk's distinct matrices,
    give every code of an unaligned shard the rank of its own matrix."""
    weights = WeightSeq.of(field, values)
    rep = ex.minrank_exhaustive(weights, shard=shard, workers=2)
    expected = rank_mod.stack_ranks(tournament_stack(pair_bits(6, *shard), weights.int_row()),
                                    field.char)
    assert rep.records.ranks.tolist() == expected.tolist()


@pytest.mark.parametrize("argv", [
    ["--field", "GF(3)", "--seq", "1,2,1,2,1,2", "--shard", "1000:20011", "--format", "csv"],
    ["--field", "Q", "--seq", "1,1,-1,-1,2,2", "--format", "csv"],
], ids=["gf3-shard-off-blocks", "q-signed"])
def test_minrank_bytes_do_not_depend_on_workers(argv, tmp_path):
    """One worker and two spawned workers, whose chunks are cut at run
    boundaries, write the same report bytes."""
    from tourmat.cli import main

    outputs = []
    for workers in ("1", "2"):
        out = tmp_path / f"report-{workers}"
        assert main(["minrank", "--n", "6", "--seed", "0", "--workers", workers,
                     "--out", str(out)] + argv) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] and outputs[0].count(b"\n") > 1000
