"""Property tests of the elimination kernels against independent oracles.

Small matrices are compared with cofactor determinants and minor-scan ranks
(tests/oracles.py); the modular routine run in narrow panels is compared
with its one-panel run (the plain elimination, with no trailing update) and,
on the leading block of up to 6 x 6, with the oracles' rank, pivot columns
and determinant mod p; at the real panel width, on both sides of the bound
below which it delays its reductions, it is compared with textbook
elimination that reduces after every step; large modular determinants are
compared with the exact rational determinant reduced mod p;
and the rational rank, pivot columns and determinant are compared with
fraction-free (Bareiss) elimination.  The batched stack kernel, through
`stack_ranks` and `_gauss_jordan`, is compared with `_eliminate_mod_p` of
each matrix on both sides of the prime below which it delays its
reductions, and with Bareiss over Q, at widths up to 64.
"""

import importlib
import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import bareiss, det_cofactor, eliminate_mod_p, minor_scan_rank
from tourmat.fields import GF, QQ
from tourmat.matrices import DenseMatrix
from tourmat.rank import determinant, rank

# the package re-exports the function `rank`, which shadows the module attribute
rank_mod = importlib.import_module("tourmat.rank")

SETTINGS = settings(max_examples=120, deadline=None, derandomize=True, database=None)
PRIMES = (2, 3, 2**31 - 1)


def int_matrices(n_rows, n_cols, lo=-4, hi=4):
    return st.lists(st.lists(st.integers(lo, hi), min_size=n_cols, max_size=n_cols),
                    min_size=n_rows, max_size=n_rows)


@st.composite
def small_matrices(draw, square=False):
    """Integer rows up to 5 x 5, sometimes with a row repeated to force a rank drop."""
    nr = draw(st.integers(1, 5))
    nc = nr if square else draw(st.integers(1, 5))
    rows = draw(int_matrices(nr, nc))
    if nr > 1 and draw(st.booleans()):
        rows[-1] = list(rows[0])
    return rows


small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=5)


@SETTINGS
@given(small_matrices(), st.sampled_from(PRIMES))
def test_rank_matches_minor_scan(rows, p):
    assert rank(DenseMatrix.from_rows(GF(p), rows)).rank == minor_scan_rank(rows, p=p)
    assert rank(DenseMatrix.from_rows(QQ, rows)).rank == minor_scan_rank(rows)


@SETTINGS
@given(small_matrices(square=True), st.sampled_from(PRIMES))
def test_determinant_matches_cofactor(rows, p):
    assert determinant(DenseMatrix.from_rows(GF(p), rows)).value == det_cofactor(rows) % p
    assert determinant(DenseMatrix.from_rows(QQ, rows)).value == det_cofactor(rows)


@SETTINGS
@given(st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(small_fractions, min_size=n, max_size=n), min_size=n, max_size=n)))
def test_rational_entries_match_oracles(rows):
    m = DenseMatrix.from_rows(QQ, rows)
    assert rank(m).rank == minor_scan_rank(rows)
    assert determinant(m).value == Fraction(det_cofactor(rows))


def _panelled_and_one_panel(rows, p, panel):
    """`_eliminate_mod_p` in panels of `panel` columns, and in one panel: with
    `_PANEL` at the width, which is at least half of it."""
    with mock.patch.object(rank_mod, "_PANEL", panel):
        panelled = rank_mod._eliminate_mod_p(rows, p)
    with mock.patch.object(rank_mod, "_PANEL", len(rows[0])):
        one_panel = rank_mod._eliminate_mod_p(rows, p)
    return panelled, one_panel


def _oracle_elimination(rows, p):
    """Rank, pivot columns and determinant mod p (0 unless square of full
    rank) from tests/oracles.py: a pivot column is where the minor-scan rank
    of the leading columns grows."""
    prefix = [minor_scan_rank([row[:c] for row in rows], p=p) for c in range(len(rows[0]) + 1)]
    pivots = tuple(c for c in range(len(rows[0])) if prefix[c + 1] > prefix[c])
    full = len(rows) == len(rows[0]) == prefix[-1]
    return prefix[-1], pivots, det_cofactor(rows) % p if full else 0


ORACLE_SIDE = 6  # the largest side the oracles scan within the tests' time


def _check_panels(rows, p, panel):
    """Panels of `panel` columns against one panel on the whole matrix, and
    against the oracles on its leading block of at most ORACLE_SIDE x ORACLE_SIDE."""
    panelled, one_panel = _panelled_and_one_panel(rows, p, panel)
    assert panelled == one_panel
    block = [row[:ORACLE_SIDE] for row in rows[:ORACLE_SIDE]]
    panelled, one_panel = _panelled_and_one_panel(block, p, panel)
    assert panelled == one_panel == _oracle_elimination(block, p)


@st.composite
def cutoff_cases(draw):
    """Shapes up to 14 x 14, entries mod p, some rows duplicated."""
    nr = draw(st.integers(1, 14))
    nc = draw(st.integers(1, 14))
    p = draw(st.sampled_from((2, 3, 7, 2**31 - 1)))
    rows = draw(int_matrices(nr, nc, 0, min(p - 1, 50)))
    for r in range(1, nr):
        if draw(st.integers(0, 4)) == 0:
            rows[r] = list(rows[draw(st.integers(0, r - 1))])
    return rows, p


@SETTINGS
@given(cutoff_cases())
def test_modular_bodies_agree(case):
    """Two-column panels against one panel, and against the oracles."""
    rows, p = case
    _check_panels(rows, p, 2)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(11, 16).flatmap(lambda n: int_matrices(n, n, -3, 3)),
       st.sampled_from((2, 3, 5, 2**31 - 1)))
def test_large_modular_determinant_matches_rational(rows, p):
    exact = determinant(DenseMatrix.from_rows(QQ, rows)).value
    assert exact.denominator == 1
    assert determinant(DenseMatrix.from_rows(GF(p), rows)).value == exact.numerator % p


P, P1, P2 = (rank_mod._prime(i) for i in range(3))
ROOT = math.isqrt(P * P2) + 1
# multiples of P and near-multiples vanish or shrink mod P, so the certificate fails
cert_entries = st.one_of(small_fractions, st.integers(-4, 4),
                         st.sampled_from((P, -P, 2 * P, P + 1)))


@st.composite
def certificate_cases(draw):
    """Rational rows up to 6 x 6, sometimes with a row repeated to force a rank drop."""
    nr = draw(st.integers(1, 6))
    nc = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(cert_entries, min_size=nc, max_size=nc),
                         min_size=nr, max_size=nr))
    if nr > 1 and draw(st.booleans()):
        rows[-1] = list(rows[draw(st.integers(0, nr - 2))])
    return rows


def _cleared(rows):
    """Integer rows, each row times the lcm of its denominators, and the
    product of those multipliers."""
    mults = [math.lcm(*(Fraction(v).denominator for v in row)) for row in rows]
    return [[int(v * k) for v in row] for row, k in zip(rows, mults)], math.prod(mults)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(certificate_cases())
def test_certified_rank_matches_bareiss(rows):
    exact = bareiss(_cleared(rows)[0])
    prof = rank(DenseMatrix.from_rows(QQ, rows))
    assert (prof.rank, prof.pivot_columns) == exact[:2]


def all_but_last_prime(m, k):
    """An m x m integer matrix (2 <= m) with determinant P * P1 * ... * P_(k-2)
    whose Hadamard bound (E * sqrt(c))**m needs exactly k primes.

    Rows [d_(m-1), ..., d_0], [-1, B, 0, ...], [0, -1, B, ...], ... have
    determinant sum d_i * B**i, so the digits of the target in a base B just
    above its m-th root give it with entries at most B.  The bound is then
    at least B**m, past the target, and below it times m**(m/2) * (B**m /
    target), far short of the target times the next prime.
    """
    target = math.prod(rank_mod._prime(i) for i in range(k - 1))
    base = int(target ** (1 / m)) + 2
    digits = []
    for _ in range(m):
        target, d = divmod(target, base)
        digits.append(d)
    assert target == 0
    return [digits[::-1]] + [[-1 if c == r - 1 else base if c == r else 0 for c in range(m)]
                             for r in range(1, m)]


@pytest.mark.parametrize("m", range(2, 9))
@pytest.mark.parametrize("k", (2, 3, 4))
def test_all_but_last_prime_is_seen_by_the_last_prime_only(m, k):
    rows = all_but_last_prime(m, k)
    target = math.prod(rank_mod._prime(i) for i in range(k - 1))
    assert det_cofactor(rows) == target
    size, width = max(abs(v) for row in rows for v in row), max(sum(map(bool, r)) for r in rows)
    bound_sq = (size**2 * width) ** m
    assert target**2 <= bound_sq < (target * rank_mod._prime(k - 1)) ** 2 // 4
    for i in range(k):
        p = rank_mod._prime(i)
        assert rank(DenseMatrix.from_rows(GF(p), rows)).rank == (m if i == k - 1 else m - 1)
    m_q = DenseMatrix.from_rows(QQ, rows)
    with mock.patch.object(rank_mod, "_eliminate_mod_p", wraps=rank_mod._eliminate_mod_p) as spy:
        assert rank(m_q).rank == m
        assert spy.call_count == k
        assert determinant(m_q).value == target
        assert spy.call_count == 2 * k


# a nonzero multiple of the first or second prime, a product of both, or a
# near-multiple; small integers and fractions otherwise
oracle_entries = st.one_of(
    st.integers(-4, 4), small_fractions,
    st.integers(-3, 3).map(lambda k: k * P), st.integers(-3, 3).map(lambda k: k * P1),
    st.sampled_from((P * P1, -P * P1, P + 1, P1 - 1)),
)


@st.composite
def oracle_cases(draw):
    """Rational rows up to 8 x 8, square or not.  Either entries drawn from
    `oracle_entries`, sometimes with a row repeated; or `all_but_last_prime`,
    maybe with two rows swapped (negating the determinant), transposed, a
    row divided by an integer, or a zero column inserted."""
    if draw(st.integers(0, 3)):
        nr, nc = draw(st.integers(1, 8)), draw(st.integers(1, 8))
        rows = draw(st.lists(st.lists(oracle_entries, min_size=nc, max_size=nc),
                             min_size=nr, max_size=nr))
        if nr > 1 and draw(st.booleans()):
            rows[-1] = list(rows[draw(st.integers(0, nr - 2))])
        return rows
    m = draw(st.integers(2, 8))
    rows = all_but_last_prime(m, draw(st.integers(2, 4)))
    if draw(st.booleans()):
        rows[0], rows[1] = rows[1], rows[0]
    if draw(st.booleans()):
        rows = [list(col) for col in zip(*rows)]
    if draw(st.booleans()):
        r = draw(st.integers(0, m - 1))
        rows[r] = [Fraction(v, draw(st.integers(2, 7))) for v in rows[r]]
    if draw(st.booleans()):
        c = draw(st.integers(0, m))
        rows = [row[:c] + [0] + row[c:] for row in rows]
    return rows


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(oracle_cases())
@example([[P, 1]])  # pivot column 1 mod P, 0 over Q
@example([[P1, 1]])  # likewise mod P1, the last of the two primes the bound needs
@example([[P, 0], [0, P1]])  # singular mod P and mod P1, regular mod the third prime
# the leading 2 x 2 block has determinant P * P2, the first and the last of the
# three primes the bound needs: mod both the pivots are 0 and 2, over Q 0 and 1
@example([[ROOT, 1, 1], [ROOT**2 - P * P2, ROOT, 0]])
# rows that clear past 2**63 go in as Python ints: full and deficient, square or not
@example([[Fraction(1, 2**64 + 1), 1]])
@example([[Fraction(1, 2**64 + 1), 1], [0, 1]])
@example([[Fraction(1, 2**64 + 1), 1], [1, 2**64 + 1]])
@example([[2**64, 2**65, 3 * 2**64], [1, 2, 3]])
def test_q_rank_pivots_and_determinant_match_bareiss(rows):
    int_rows, scale = _cleared(rows)
    exact_rank, exact_pivots, exact_det = bareiss(int_rows)
    m = DenseMatrix.from_rows(QQ, rows)
    prof = rank(m)
    assert (prof.rank, prof.pivot_columns) == (exact_rank, exact_pivots)
    if m.n_rows == m.n_cols:
        assert determinant(m).value == Fraction(exact_det, scale)


# Primes on both sides of the float64 exactness threshold of the blocked body:
# 32 * (p - 1)**2 < 2**53 holds up to 16,777,213 and fails from 16,777,259 on.
BLOCK_PRIMES = (2, 3, 16_777_213, 16_777_259, 2**31 - 1)


@st.composite
def panel_cases(draw):
    """Tall, wide and square shapes up to 14 x 14, a panel width of 1..4, and
    residues small, near p or anywhere, with some zero columns and repeated rows."""
    p = draw(st.sampled_from(BLOCK_PRIMES))
    nr = draw(st.integers(1, 14))
    nc = draw(st.integers(1, 14))
    entries = st.one_of(st.integers(0, min(p - 1, 3)), st.integers(max(0, p - 4), p - 1),
                        st.integers(0, p - 1))
    rows = draw(st.lists(st.lists(entries, min_size=nc, max_size=nc), min_size=nr, max_size=nr))
    for c in range(nc):
        if draw(st.integers(0, 5)) == 0:
            for row in rows:
                row[c] = 0
    for r in range(1, nr):
        if draw(st.integers(0, 4)) == 0:
            rows[r] = list(rows[draw(st.integers(0, r - 1))])
    return rows, p, draw(st.integers(1, 4))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(panel_cases())
def test_blocked_body_matches_plain_body(case):
    """Panels of 1..4 columns against one panel, and against the oracles."""
    rows, p, panel = case
    _check_panels(rows, p, panel)


def _near_top(n_rows, n_cols, p, seed):
    """Residues in [p - 1000, p - 1]: multipliers and pivot rows are then
    large, so the panel products come near the float64 and int64 limits."""
    rnd = random.Random(seed)
    return [[p - 1 - rnd.randrange(1000) for _ in range(n_cols)] for _ in range(n_rows)]


@pytest.mark.parametrize("rows, p", [
    ([[P1 - 1] * 100 for _ in range(100)], P1),
    (_near_top(100, 100, P1, 1), P1),
    (_near_top(100, 100, 16_777_259, 2), 16_777_259),
    (_near_top(100, 100, 16_777_213, 3), 16_777_213),
    (_near_top(70, 130, P1, 4), P1),
], ids=["all-p-1", "word-p", "above-threshold", "below-threshold", "wide"])
def test_full_size_panels_match_plain_body(rows, p):
    """At the real panel width, matrices of three or more panels against one
    panel; too large for the oracles."""
    panelled, one_panel = _panelled_and_one_panel(rows, p, rank_mod._PANEL)
    assert panelled == one_panel
    assert len(rows[0]) > 2 * rank_mod._PANEL


def _lazy(n_rows, n_cols, p):
    """Whether `_eliminate_mod_p` delays its reductions at this shape and prime:
    every entry then stays below 2**53 without them."""
    return max(min(n_rows, n_cols), rank_mod._PANEL) * (p - 1) ** 2 + p < 2**53


def _random_residues(n_rows, n_cols, p, seed, repeat=0):
    """Random residues mod p, with `repeat` rows replaced by copies of earlier rows."""
    rnd = random.Random(seed)
    rows = [[rnd.randrange(p) for _ in range(n_cols)] for _ in range(n_rows)]
    for r in rnd.sample(range(1, n_rows), repeat):
        rows[r] = list(rows[rnd.randrange(r)])
    return rows


def _steepest(n, p):
    """The n x n matrix L U mod p for L unit lower and U unit upper triangular
    with p - 1 off the diagonal: its pivots are 1 and its multipliers and
    pivot rows p - 1, so every pivot subtracts (p - 1)**2 from every entry
    below and right of it, the most the delayed-reduction bound allows."""
    return [[(min(i, j) - 1 + 2 * (i == j)) % p for j in range(n)] for i in range(n)]


LAZY_TOP = 9_490_601  # the largest prime that delays reduction at 100 x 100
EAGER_LOW = 9_490_631  # the next prime, which reduces after every step there


@pytest.mark.parametrize("rows, p, lazy, repeat", [
    (_random_residues(100, 100, 2, 1), 2, True, 0),
    (_random_residues(100, 100, 3, 2), 3, True, 0),
    (_random_residues(70, 130, 7, 3), 7, True, 0),
    (_random_residues(130, 70, 3, 4), 3, True, 0),
    (_random_residues(100, 100, 3, 5, repeat=8), 3, True, 8),
    (_near_top(100, 100, LAZY_TOP, 6), LAZY_TOP, True, 0),
    (_random_residues(100, 100, LAZY_TOP, 7, repeat=8), LAZY_TOP, True, 8),
    (_near_top(100, 100, EAGER_LOW, 8), EAGER_LOW, False, 0),
    (_near_top(20, 130, 16_777_213, 9), 16_777_213, True, 0),
    (_near_top(20, 130, 16_777_259, 10), 16_777_259, False, 0),
    (_steepest(100, LAZY_TOP), LAZY_TOP, True, 0),
    (_steepest(100, 16_777_213), 16_777_213, False, 0),
    (_near_top(100, 100, P1, 11), P1, False, 0),
], ids=["gf2", "gf3", "gf7-wide", "gf3-tall", "gf3-repeated", "lazy-top", "lazy-top-repeated",
        "eager-low", "short-unsplit", "short-split", "steepest-lazy", "steepest-eager", "word-p"])
def test_full_width_elimination_matches_eager_oracle(rows, p, lazy, repeat):
    """At the real panel width, matrices of three or more panels against
    textbook elimination that reduces every entry after every step, on both
    sides of the delayed-reduction bound; `repeat` copied rows cut the rank."""
    n_rows, n_cols = len(rows), len(rows[0])
    assert n_cols > 2 * rank_mod._PANEL
    assert _lazy(n_rows, n_cols, p) == lazy
    got = rank_mod._eliminate_mod_p(rows, p)
    assert got == eliminate_mod_p(rows, p)
    assert got[0] <= min(n_rows, n_cols) - repeat


@pytest.mark.parametrize("n, seed", [(100, 1), (130, 2)])
def test_full_width_modular_determinant_matches_rational(n, seed):
    """The determinants over GF(3) and GF(7) of an n x n integer matrix, which
    delay their reductions, against its determinant over Q reduced mod p,
    whose primes after the first (the lazy table prime) are near 2**31 and
    reduce after every step."""
    rnd = random.Random(seed)
    rows = [[rnd.randint(-2, 2) for _ in range(n)] for _ in range(n)]
    primes = rank_mod._hadamard_primes(np.array(rows), n, 2)
    assert _lazy(n, n, 7) and primes[0] == rank_mod._TABLE_P and _lazy(n, n, primes[0])
    assert len(primes) > 2 and not any(_lazy(n, n, q) for q in primes[1:])
    exact = determinant(DenseMatrix.from_rows(QQ, rows)).value
    assert exact.denominator == 1
    for p in (3, 7):
        assert determinant(DenseMatrix.from_rows(GF(p), rows)).value == exact.numerator % p


def test_one_panel_runs_no_product():
    rows = _near_top(64, 64, P, 5)
    with mock.patch.object(rank_mod, "_dot_mod", wraps=rank_mod._dot_mod) as dot:
        rank_mod._eliminate_mod_p(rows, P)
        assert dot.call_count == 0
        rank_mod._eliminate_mod_p([row + [1] for row in rows], P)
        assert dot.call_count > 0


@pytest.mark.parametrize("p", BLOCK_PRIMES)
@pytest.mark.parametrize("dtype", (np.int64, np.float64))
def test_panel_product_is_exact_at_the_largest_residues(p, dtype):
    """A full-panel inner dimension of p - 1 entries with one odd product:
    above the threshold the unsplit float64 sum is odd and past 2**53, so it
    cannot be represented."""
    k = rank_mod._PANEL
    a = np.full((2, k), p - 1, dtype=np.int64)
    b = np.full((k, 3), p - 1, dtype=np.int64)
    a[:, -1] = b[-1] = max(p - 2, 1)
    exact = [[sum(int(x) * int(y) for x, y in zip(row, col)) % p for col in b.T] for row in a]
    got = rank_mod._dot_mod(a.astype(dtype), b, p)
    assert [[int(v) % p for v in row] for row in got.tolist()] == exact


# ---------------------------------------------------------------------------
# The batched stack kernel, `_stack_echelon`, behind `stack_ranks` and
# `_gauss_jordan`
# ---------------------------------------------------------------------------

# 2, 3, the largest prime whose stack eliminations delay reduction, the
# smallest prime above it (which reduces after every step), 2**31 - 1, and Q
STACK_PRIMES = (2, 3, 8191, 8209, 2**31 - 1, 0)
STACK_KINDS = ("random", "top", "steepest", "repeated", "zero-columns", "zero")


def test_stack_kernel_constants_keep_int64_exact():
    """Lazy stack eliminations run up to _TABLE_P; 8209 is the next prime.  At
    most 2 * _PANEL pivots of at most (_TABLE_P - 1)**2 each stay in int64."""
    assert rank_mod._TABLE_P == 8191
    assert [q for q in range(8191, 8210) if all(q % d for d in range(2, 91))] == [8191, 8209]
    assert 2 * rank_mod._PANEL * (rank_mod._TABLE_P - 1) ** 2 + rank_mod._TABLE_P < 2**63


def _stack_matrix(kind, n_rows, n_cols, p, rnd):
    """One n_rows x n_cols matrix of a kernel test stack: residues mod p, or
    over Q (p = 0) integers in -3..3.  `random`; `top`, every entry p - 1 (the
    largest pivot rows and multipliers), over Q a random matrix whose first
    row is times P, singular mod P more often than not; `steepest`, a block of
    `_steepest`, whose every pivot subtracts (p - 1)**2 from the entries below
    it; `repeated`, rows copying earlier rows; `zero-columns`, columns zeroed,
    the first among them half the time, so a stack mixes matrices with and
    without a pivot in one column; `zero`."""
    rows = [[rnd.randrange(p) if p else rnd.randint(-3, 3) for _ in range(n_cols)]
            for _ in range(n_rows)]
    if kind == "top":
        rows = [[p - 1] * n_cols for _ in range(n_rows)] if p else [
            [v * P for v in rows[0]]] + rows[1:]
    elif kind == "steepest":
        side = max(n_rows, n_cols)
        rows = [row[:n_cols] for row in _steepest(side, p or P)[:n_rows]]
    elif kind == "repeated":
        for r in range(1, n_rows):
            if rnd.randrange(2):
                rows[r] = list(rows[rnd.randrange(r)])
    elif kind == "zero-columns":
        zeroed = {0} if rnd.randrange(2) else set()
        zeroed |= {rnd.randrange(n_cols) for _ in range(rnd.randint(1, n_cols))}
        rows = [[0 if c in zeroed else v for c, v in enumerate(row)] for row in rows]
    elif kind == "zero":
        rows = [[0] * n_cols for _ in range(n_rows)]
    return rows


@st.composite
def kernel_stacks(draw, square=False, primes=STACK_PRIMES):
    """(stack, p): 1..4 matrices of 1..64 rows and columns (square with
    `square`), small sides as often as any, each of a kind in STACK_KINDS."""
    p = draw(st.sampled_from(primes))
    side = st.one_of(st.integers(1, 8), st.integers(1, 64))
    n_rows = draw(side)
    n_cols = n_rows if square else draw(side)
    kinds = draw(st.lists(st.sampled_from(STACK_KINDS), min_size=1, max_size=4))
    rnd = random.Random(draw(st.integers(0, 2**32)))
    return np.array([_stack_matrix(k, n_rows, n_cols, p, rnd) for k in kinds], dtype=np.int64), p


# in one column, a matrix without a pivot beside one with it
MIXED = np.array([[[0, 1], [0, 2]], [[1, 0], [0, 1]]], dtype=np.int64)


@SETTINGS
@given(kernel_stacks())
@example((MIXED, 8191))
@example((MIXED, 8209))
def test_stack_ranks_match_per_matrix_elimination_and_bareiss(case):
    """Mod p against `_eliminate_mod_p` of each matrix, over Q against Bareiss."""
    stack, p = case
    ranks = rank_mod.stack_ranks(stack, p).tolist()
    if p:
        assert ranks == [rank_mod._eliminate_mod_p(m, p)[0] for m in stack]
    else:
        assert ranks == [bareiss(m.tolist())[0] for m in stack]


@SETTINGS
@given(kernel_stacks(square=True, primes=STACK_PRIMES[:-1]))
@example((MIXED, 8191))
@example((MIXED, 8209))
def test_gauss_jordan_matches_per_matrix_elimination(case):
    """The ranks and pivot columns of `_eliminate_mod_p`, and T B in reduced
    row echelon form mod p: the pivot columns are the first unit vectors, no
    row has a nonzero left of its pivot, the rows past the rank are zero, and
    T is invertible.  A matrix without a pivot in a column that another has
    one in keeps its rows unscaled there."""
    blocks, p = case
    m = blocks.shape[1]
    T, r, P_cols = rank_mod._gauss_jordan(blocks, p)
    exact = object if m * (p - 1) ** 2 >= 2**63 else np.int64
    for t, b, rk, piv in zip(T, blocks, r.tolist(), P_cols.tolist()):
        rank_p, pivots, _ = rank_mod._eliminate_mod_p(b, p)
        assert (rk, tuple(piv[:rk])) == (rank_p, pivots) and piv[rk:] == [m] * (m - rk)
        e = t.astype(exact) @ b.astype(exact) % p
        assert (e[:, piv[:rk]] == np.eye(m, rk, dtype=np.int64)).all()
        assert not any(e[i, :c].any() for i, c in enumerate(piv[:rk])) and not e[rk:].any()
        assert ((0 <= t) & (t < p)).all() and rank_mod._eliminate_mod_p(t, p)[0] == m


@pytest.mark.parametrize("p", (8191, 8209))
@pytest.mark.parametrize("reduced", (False, True), ids=("echelon", "gauss-jordan"))
def test_lazy_stack_entries_stay_within_the_bound(reduced, p):
    """At the widest stack the kernel serves, `_steepest` mod p, whose every
    pivot subtracts (p - 1)**2, beside an all-(p - 1) matrix.  Mod _TABLE_P
    a column is reduced only when its turn comes, so the last, left out
    here, keeps the sum of n - 1 pivots' updates, far below 0 and within the
    bound; mod the next prime every update is reduced."""
    n = 2 * rank_mod._PANEL
    A = np.stack([np.array(_steepest(n, p)), np.full((n, n), p - 1)], axis=-1)
    ranks, _ = rank_mod._stack_echelon(A, p, n - 1, reduced)
    assert ranks.tolist() == [n - 1, 1]
    if p <= rank_mod._TABLE_P:
        assert A.max() < p and -(n - 1) * (p - 1) ** 2 <= A.min() < -(n // 2) * (p - 1) ** 2
    else:
        assert A.max() < p and A.min() >= 0
