"""Exact rank and determinant by elimination.

Every elimination takes an integer array, int64 or past 2**63 Python ints
(as `matrices.int_array` decides), and reduces it mod p into its one int64
copy (`_residues`).  Pivots are the leftmost nonzero column, lowest row, so
pivot columns are deterministic.  The map:

- `rank()` and `determinant()` eliminate one `DenseMatrix` by the panel
  kernel `_eliminate_mod_p` (with `_update_trailing` and `_dot_mod`), and
  over Q by `_eliminate_q` on the `_row_cleared` integers;
- `stack_ranks` ranks a (B, n, n) stack, up to 2 * _PANEL columns wide all
  at once by the batched loop `_stack_echelon`;
- `bordered_ranks` ranks the borderings of symmetric blocks on `_gauss_jordan`;
- `class_pivot_ranks` ranks one weight row's stacks as k plus `stack_ranks` of
  one integer complement, by an equal-weight class pivot of k vertices;
- over Q `stack_ranks` first certifies full ranks from a float64 inverse
  (`_certified_full`) on square int64 stacks at least _CERT_N wide;
- over Q every other path ranks mod `_prime(0)` = 8191 first, and what falls
  short there mod the rest of `_hadamard_primes` (`_over_q`, `_eliminate_q`).

Each bound a kernel relies on is stated once, where it is enforced.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from math import frexp, gcd, prod

import numpy as np

from .fields import Field, Scalar, is_prime
from .matrices import DenseMatrix, int_array

_PANEL = 32  # columns per panel; at most 32 keeps `_dot_mod` exact
_ROWS = 16  # rows per step of a stack's row update, which bounds its scratch buffer
_TABLE_P = 8191  # the largest prime whose stack eliminations delay reduction, by table inverses
# the narrowest square Q stack whose matrices `_certified_full` tries first: below
# about 31 columns the batched elimination mod 8191 costs less per matrix
_CERT_N = 32
# the Q primes: the table prime, then descending primes below 2**31 (int64-safe
# products), extended by _prime
_PRIMES = [_TABLE_P, 2**31 - 1]


class NotSquareError(ValueError):
    """Determinant of a non-square matrix requested."""


@dataclass(frozen=True, slots=True)
class RankProfile:
    """Exact rank plus the ordered pivot columns of the elimination."""

    rank: int
    pivot_columns: tuple
    field: Field


def _eliminate_mod_p(rows, p):
    """Rank, pivot columns and determinant mod p of a matrix of integers, reduced
    mod p into its one int64 copy.

    The determinant is meaningful for square input only, and is 0 when the
    rank falls short.  Past 2 * _PANEL columns it runs in _PANEL-column
    panels: each is eliminated over its own columns only, keeping the
    multipliers below the pivots, and `_update_trailing` applies it to the
    columns right of it.  A matrix at most 2 * _PANEL wide is one panel.

    Delayed reduction (as in FFLAS-FFPACK): entries start in [0, p), and each
    pivot subtracts at most (p - 1)**2 from an entry, in the panel or as one
    term of the trailing product, so every entry stays below 2**53 in size
    while max(min(rows, cols), _PANEL) * (p - 1)**2 + p < 2**53.  Then no
    `% p` runs on the updated blocks: only a column before its pivot search
    and the pivot row's panel segment before its use are reduced.
    Word-size primes such as 2**31 - 1 fail the bound at every shape, so
    they reduce after every step.
    """
    R = _residues(rows, p)
    nr, nc = R.shape
    lazy = max(min(nr, nc), _PANEL) * (p - 1) ** 2 + p < 2**53
    pr = 0
    det = 1
    pivots = []
    width = nc if nc <= 2 * _PANEL else _PANEL
    for c0 in range(0, nc, width):
        c1 = min(c0 + width, nc)
        pr0 = pr
        for c in range(c0, c1):
            if lazy:
                R[pr:, c] %= p
            nz = np.nonzero(R[pr:, c])[0]
            if nz.size == 0:
                continue
            r0 = pr + int(nz[0])
            if r0 != pr:
                R[[pr, r0]] = R[[r0, pr]]
                det = -det
            piv = int(R[pr, c])
            det = det * piv % p
            inv = pow(piv, -1, p)
            # a panel with a trailing block keeps multipliers left of c;
            # the last panel is zero there, so it updates whole panel rows
            # (whole matrix rows when one panel spans the matrix)
            c_lo = c0 if c1 == nc else c
            below = R[pr + 1 :, c_lo:c1]
            if lazy:
                R[pr, c_lo:c1] %= p
            factors = R[pr + 1 :, c] * inv % p
            # factors and the pivot row are < p < 2**31, products fit int64
            step = below - factors[:, None] * R[pr, c_lo:c1]
            below[...] = step if lazy else step % p
            if c1 < nc:
                R[pr + 1 :, c] = factors  # multipliers for the trailing update
            pivots.append(c)
            pr += 1
            if pr == nr:
                break
        if pr == nr:
            break
        if pr > pr0 and c1 < nc:
            _update_trailing(R, pr0, pr, pivots[pr0:], c1, p, lazy)
    return pr, tuple(pivots), det if pr == nr == nc else 0


def _residues(a, p):
    """a mod p as a new int64 array in [0, p): the one copy an elimination makes
    of its integer array, int64 or Python ints of any size in an object array."""
    return np.remainder(a, p, out=np.empty(np.shape(a), np.int64), casting="unsafe")


def _prime(i):
    """The i-th Q prime, found once: _TABLE_P, then for i >= 1 the (i-1)-th
    prime below 2**31 from 2**31 - 1 down."""
    while len(_PRIMES) <= i:
        _PRIMES.append(next(q for q in range(_PRIMES[-1] - 2, 2, -2) if is_prime(q)))
    return _PRIMES[i]


def _hadamard_primes(a, m, factor=1):
    """The fewest primes from _prime(0) on, at least one, whose product exceeds
    factor times Hadamard's bound on every minor of at most m rows of the
    integer matrix `a`, or of every matrix of the stack `a`: the product of
    the m largest row 2-norms, each taken as at least 1, and over a stack the
    i-th largest at its largest over the matrices.  It is computed exactly,
    as squares.  A nonzero minor is then nonzero mod one of the primes."""
    size = max(int(a.max()), -int(a.min()))
    a = a if size**2 * a.shape[-1] < 2**63 else a.astype(object)  # exact sums of squares
    norms_sq = np.sort(np.maximum((a * a).sum(axis=-1), 1), axis=-1).reshape(-1, a.shape[-2])
    bound_sq = factor**2 * prod(norms_sq.max(axis=0)[::-1][:m].tolist())
    primes = [_prime(0)]
    while prod(primes) ** 2 <= bound_sq:
        primes.append(_prime(len(primes)))
    return primes


def stack_ranks(stack, p) -> np.ndarray:
    """Ranks of every matrix in a (B, n_rows, n_cols) stack of integers (int64,
    or Python ints in an object array), as an int64 array of B ranks: mod p,
    or with p = 0 over Q.

    Over Q a square int64 stack at least _CERT_N wide has each matrix that
    `_certified_full` certifies set to full rank; the ranks mod `_prime(0)`
    of the rest, or of every other stack, go to `_over_q`.  Mod p, matrices
    past 2 * _PANEL columns go one at a time to the faster `_eliminate_mod_p`;
    narrower ones are eliminated together by `_stack_echelon`.
    """
    if not p:
        n_rows, n_cols = np.shape(stack)[1:]
        if stack.dtype != np.int64 or not n_rows == n_cols >= _CERT_N:
            return _over_q(stack, stack_ranks(stack, _prime(0)))
        ranks = np.full(len(stack), n_cols, dtype=np.int64)
        rest = np.flatnonzero([not _certified_full(m) for m in stack])
        if rest.size:
            ranks[rest] = _over_q(stack[rest], stack_ranks(stack[rest], _prime(0)))
        return ranks
    n_cols = np.shape(stack)[2]
    if n_cols > 2 * _PANEL:
        return np.array([_eliminate_mod_p(m, p)[0] for m in stack], dtype=np.int64)
    return _stack_echelon(_residues(np.moveaxis(stack, 0, -1), p), p, n_cols)[0]


def class_pivot_ranks(stack, row, p) -> np.ndarray:
    """The ranks `stack_ranks(stack, p)` gives, for a (B, n, n) stack of
    tournament matrices under one integer weight row `row` of shape (1, n),
    cleared as `WeightSeq.int_row` clears it (residues mod p), found by one
    block pivot on an equal-weight class.

    Entry (i, j) is a_i or a_j, so on k vertices of one weight v every
    tournament's block is A = v (J - I), with A^-1 = v^-1 (J / (k - 1) - I).
    With C the (class x rest) and N the (rest x rest) blocks and w = C^T 1,
    Guttman's rank additivity for the Schur complement gives, for every field,

        rank M = k + rank S',  S' = v (k - 1) N + (k - 1) C^T C - w w^T,

    as S' = v (k - 1) (N - C^T A^-1 C) and v (k - 1) is a unit wherever A is
    invertible: over Q for k >= 2, and mod p when p divides neither v nor
    k - 1.  When p | k - 1, the first k - 1 of those vertices are the class
    instead (then p does not divide k - 2).  The class of most such
    vertices, at least 2, is the pivot.

    S' is formed in int64, in place.  Mod p, C^T C is `_product_mod` of C^T
    and C (exact for every p < 2**31 and n <= MAX_N) and w and
    u = v (k - 1) are reduced, so u N < 2**62, (k - 1) C^T C < 2**43 and
    w w^T < 2**62, and every partial sum is below 2**63.  Over Q, for
    a = max |row|, every term and partial sum is below (2 k**2 - 1) a**2 in
    size, below 2**63 while k a < 2**31.

    The stack goes whole to `stack_ranks` where the pivot is impossible, with
    no class of at least 2 usable vertices, and over Q where it is inexact,
    with k a >= 2**31 (as for every row of Python ints, which hold a weight
    past 2**63).
    """
    sizes = Counter(row[0].tolist())
    k, v = max(((c - 1 if p and (c - 1) % p == 0 else c, x) for x, c in sizes.items() if x),
               default=(0, 0))
    if k < 2 or not p and k * max(map(abs, sizes)) >= 2**31:
        return stack_ranks(stack, p)
    at = np.flatnonzero(row[0] == v)[:k]
    rest = np.delete(np.arange(stack.shape[-1]), at)
    C = stack[:, at[:, None], rest]
    S = stack[:, rest[:, None], rest]
    CT, w, u = C.transpose(0, 2, 1), C.sum(axis=1), v * (k - 1)
    G, w, u = (_product_mod(CT, C, p), w % p, u % p) if p else (CT @ C, w, u)
    G *= k - 1
    G -= w[:, :, None] * w[:, None, :]
    S *= u
    S += G
    return k + stack_ranks(S, p)


def _certified_full(m) -> bool:
    """Whether the float64 inverse X of the square int64 matrix m certifies,
    in exact integer arithmetic, that m is invertible over Q.

    With max|X| < 2**e and 2**j the largest power of two with n * max|m| *
    2**j < 2**52, X' = rint(2**k X) for k = min(j - e, 52) has |X'| <= 2**j.
    So every product and partial sum of X' m is an integer below 2**52 in
    size, which float64 forms exactly under any summation order or FMA, and
    E = X' m - 2**k I is exact too.  When every row of |E| sums to less than
    2**k, ||I - (X' / 2**k) m||_inf < 1, so (X' / 2**k) m is invertible and so
    is m (Rump, "Verification methods", Acta Numerica 19, 2010).  A row sum
    of nonnegative integers rounds monotonically and 2**k and every integer
    below it are exact, so a rounded sum below 2**k means an exact one below
    it: rounding can fail a row, never pass one.  A zero matrix, a matrix
    that float64 finds singular, one whose X is not finite, and one whose
    entries or X leave no such j, k >= 0 are not certified.
    """
    n = len(m)
    size = max(int(m.max()), -int(m.min()))
    if not 0 < n * size < 2**52:
        return False
    a = m.astype(np.float64)
    try:
        x = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        return False
    top = np.abs(x).max()
    if not np.isfinite(top):
        return False
    j = ((2**52 - 1) // (n * size)).bit_length() - 1
    k = min(j - frexp(top)[1], 52)
    if k < 0:
        return False
    err = np.rint(np.ldexp(x, k)) @ a
    err.flat[::n + 1] -= 2.0**k
    return bool((np.abs(err).sum(axis=1) < 2.0**k).all())


def _stack_echelon(A, p, n_piv, reduced=False):
    """Eliminate columns 0..n_piv-1 of the (n_rows, n_cols, B) residue stack A
    mod p in place, all B matrices at once (the batch axis last, so every
    array operation runs along it), and return the B ranks and the (n_rows, B)
    pivot columns, padded past each rank with n_piv.

    Column by column, a mask picks each matrix's first nonzero row at or below
    its pivot row, and fancy indexing swaps it into place (from column c on:
    those rows are zero left of c).  Every row below the pivot row, or with
    `reduced` (Gauss-Jordan) every other row, is updated from column c on, or
    with `reduced` whole rows, as the rows above are not zero left of c.

    For p <= _TABLE_P the update is lazy (delayed reduction): column c is
    reduced before the nonzero test (from the highest pivot row down, or
    whole with `reduced`), a copy of the pivot row is reduced and scaled to
    pivot 1 by the `_inverses` table, and each row becomes
    row - row[c] * pivot_row, the multiplier row[c] / piv, with no `% p`.
    Entries start in [0, p) and each pivot subtracts at most (p - 1)**2, so
    while pivots * (p - 1)**2 + p < 2**63, as for the at most 2 * _PANEL
    pivots of `stack_ranks` (any p below 2**28 would do; the table caps p),
    int64 holds them exactly.  Above _TABLE_P the update is
    (piv * row - row[c] * pivot_row) mod p, with no inverse; both products
    are below 2**62 as p < 2**31.  Either way the ranks and pivot columns
    are those of any elimination mod p, and the pivots left in A are
    residues, though the pivot rows are not scaled and, when lazy, the other
    entries not reduced.  The update runs _ROWS rows at a time through one
    scratch buffer of _ROWS rows.
    """
    n_rows, n_cols, n_mat = A.shape
    lazy = p <= _TABLE_P
    scratch = np.empty((min(n_rows, _ROWS), n_cols, n_mat), dtype=np.int64)
    ranks = np.zeros(n_mat, dtype=np.int64)  # also each matrix's pivot row
    pivots = np.full((n_rows, n_mat), n_piv)
    mats, row_ids = np.arange(n_mat), np.arange(n_rows)[:, None]
    for c in range(n_piv):
        if lazy and c:  # column 0 comes in reduced; only `reduced` reads rows above every pivot row
            A[0 if reduced else ranks.min(initial=n_rows):, c] %= p
        cand = (A[:, c] != 0) & (row_ids >= ranks)
        found = cand.any(axis=0)
        if not found.any():
            continue
        # a matrix without a pivot here swaps a row with itself and keeps its rows
        pr = np.minimum(ranks, n_rows - 1)
        r0 = np.where(found, cand.argmax(axis=0), pr)
        c_lo = 0 if reduced else c
        prow = A[r0, c_lo:, mats].T  # the new pivot row; 0 mod p left of c, as is row pr
        A[r0, c:, mats] = A[pr, c:, mats]
        A[pr, c:, mats] = prow[c - c_lo:].T
        lo = 0 if reduced else int(pr[found].min()) + 1  # no row above lo updates
        update = found & ((row_ids != pr) if reduced else (row_ids[lo:] > pr))
        factor = np.where(update, A[lo:, c], 0)
        if not lazy:
            scale = np.where(update, prow[c - c_lo], 1)
        elif lo < n_rows:  # the pivot row reduced and scaled to pivot 1
            prow = prow * _inverses(p)[prow[c - c_lo]] % p
        for r in range(0, n_rows - lo, _ROWS):
            tail = A[lo + r:lo + r + _ROWS, c_lo:]
            if not lazy:
                tail *= scale[r:r + _ROWS, None]
            tail -= np.multiply(factor[r:r + _ROWS, None], prow,
                                out=scratch[:len(tail), :n_cols - c_lo])
            if not lazy:
                np.remainder(tail, p, out=tail)
        pivots[pr[found], mats[found]] = c
        ranks += found
    return ranks, pivots


@cache
def _inverses(p):
    """The read-only table of 1 / x mod p for x in [0, p) (0 for x = 0), built
    once per prime; only primes up to _TABLE_P ask for one."""
    table = _inverse(np.arange(p, dtype=np.int64), p)
    table.flags.writeable = False
    return table


def _inverse(x, p):
    """x**(p - 2) mod p elementwise, the inverse of every nonzero residue of x."""
    inv, e = np.ones_like(x), p - 2
    while e:
        if e & 1:
            inv = inv * x % p
        x, e = x * x % p, e >> 1
    return inv


def _over_q(stack, ranks):
    """The ranks over Q of an integer stack, from `ranks`, its ranks mod
    `_prime(0)`.  Rank mod p never exceeds rank over Q, so a matrix of rank
    min(n_rows, n_cols) there is done; each other matrix gets the max of its
    ranks mod the rest of `_hadamard_primes` of the short matrices' entries
    (none when 8191 alone passes their bound)."""
    full = min(stack.shape[1:])
    short = np.flatnonzero(ranks < full)
    if short.size:
        rest = stack[short]
        runs = [stack_ranks(rest, q) for q in _hadamard_primes(rest, full)[1:]]
        ranks[short] = np.max([ranks[short]] + runs, axis=0)
    return ranks


def _gauss_jordan(blocks, p):
    """(T, r, P) for the (K, m, m) integer stack `blocks` mod p: T (K, m, m)
    with T[k] @ blocks[k] in reduced row echelon form mod p, pivots 1; r (K,)
    the ranks; P (K, m) the pivot columns, padded past r[k] with m.

    [B | I] is eliminated by `_stack_echelon` in `reduced` mode over B's
    columns, and each row of the I side is then scaled by its pivot's
    inverse and reduced (a lazy run leaves that side unreduced, below
    m * p**2 in size, so the product stays in int64).  A row past the rank
    has no pivot and is not scaled.
    """
    n_mat, m, _ = np.shape(blocks)
    A = np.zeros((m, 2 * m, n_mat), dtype=np.int64)  # the layout of _stack_echelon
    A[:, :m] = _residues(np.moveaxis(blocks, 0, -1), p)
    A[:, m:] = np.eye(m, dtype=np.int64)[:, :, None]
    ranks, pivots = _stack_echelon(A, p, m, reduced=True)
    piv = np.where(np.arange(m)[:, None] < ranks,
                   np.take_along_axis(A, pivots[:, None], axis=1)[:, 0], 1)
    T = np.moveaxis(A[:, m:] * _inverse(piv, p)[:, None] % p, -1, 0)
    return T, ranks, pivots.T


def bordered_ranks(blocks, borders, p) -> np.ndarray:
    """Ranks of the matrices [[0, u^T], [u, B]] for every symmetric block B of
    the (K, m, m) integer stack `blocks` and every border u of the (L, m)
    integer array `borders`, as a (K, L) int64 array: mod p, or with p = 0
    over Q.  Integers are taken as `stack_ranks` takes them.

    This is the bordering method (Faddeev and Faddeeva, 1963).  With T, r
    and P from `_gauss_jordan(B)`
    and v = T u, u lies in col(B) exactly when v is zero past row r, and
    then u = B x for the x with x[P_i] = v_i and zeros elsewhere.  For
    symmetric B the rank is r + 2 when u is outside col(B), and otherwise
    r + [u^T x != 0], where u^T x = sum_{i<r} u[P_i] v_i is the same for
    every such x.  One exact product of the borders with every block's T
    gives all K * L vectors v, and one of the products u_j u_j' with every
    block's quadratic form all K * L values u^T x.  Over Q each matrix is
    ranked mod `_prime(0)` this way first, and only those short of full rank
    there are built and raised to their ranks over Q by `_over_q`.
    """
    n_mat, m, _ = np.shape(blocks)
    n_bord = len(borders)
    if not p:
        ranks = bordered_ranks(blocks, borders, _prime(0))
        short = np.flatnonzero(ranks < m + 1)
        if short.size:
            k, b = np.divmod(short, n_bord)
            kids = np.zeros((short.size, m + 1, m + 1), dtype=np.result_type(blocks, borders))
            kids[:, 1:, 1:] = blocks[k]
            kids[:, 0, 1:] = kids[:, 1:, 0] = borders[b]
            ranks.flat[short] = _over_q(kids, ranks.flat[short])
        return ranks
    T, r, P = _gauss_jordan(blocks, p)
    U = _residues(borders, p)
    # rows r.. of every T u: column k * m + i of U @ left is (T[k] u)[i]
    left = np.where(np.arange(m)[:, None] >= r[:, None, None], T, 0)
    past = _product_mod(U, left.transpose(2, 0, 1).reshape(m, n_mat * m), p)
    past = past.reshape(n_bord, n_mat, m).any(axis=2)
    # u^T x = u^T Q u, where Q[P_i] = T[i] for i < r: the products u_j u_j'
    # against the entries of every Q
    Q = np.zeros((n_mat, m + 1, m), dtype=np.int64)
    Q[np.arange(n_mat)[:, None], P] = T  # the rows past r land in row m
    UU = (U[:, :, None] * U[:, None, :] % p).reshape(n_bord, m * m)
    form = _product_mod(UU, Q[:, :m].reshape(n_mat, m * m).T, p)
    return r[:, None] + np.where(past, 2, form != 0).T


def _product_mod(a, b, p):
    """a @ b mod p as int64, for int64 residue matrices (or stacks of them) a
    and b with an inner dimension below 2**15: the sum of exact `_dot_mod`
    products over _PANEL-term slices, each below 2**53, so the sum stays
    below 2**63."""
    a = a.astype(np.float64)
    out = _dot_mod(a[..., :_PANEL], b[..., :_PANEL, :], p).astype(np.int64)
    for i in range(_PANEL, a.shape[-1], _PANEL):
        out += _dot_mod(a[..., i:i + _PANEL], b[..., i:i + _PANEL, :], p).astype(np.int64)
    return out % p


def _dot_mod(a, b, p):
    """An array congruent to a @ b mod p, computed in a's dtype (int64 or
    float64), with every entry and partial sum below 2**53.

    a and b hold residues in [0, p), b is int64, and the inner dimension is
    at most _PANEL.  While _PANEL * (p - 1)**2 < 2**53 the plain product
    qualifies; above that b is split into 16-bit halves, and the high half's
    product is reduced mod p before it is shifted back: with p < 2**31 both
    products then stay below 2**52.
    """
    if _PANEL * (p - 1) ** 2 < 2**53:
        return a @ b.astype(a.dtype, copy=False)
    prod = a @ (b >> 16).astype(a.dtype, copy=False)
    prod %= p
    prod *= 1 << 16
    prod += a @ (b & 0xFFFF).astype(a.dtype, copy=False)
    return prod


def _update_trailing(R, pr0, pr, cols, c1, p, lazy):
    """Apply one panel's pivots (rows pr0..pr-1 in columns `cols`, with their
    multipliers stored below each pivot) to the columns from c1 on, in place.

    The pivot rows are forward-substituted one at a time in int64; the rows
    below get one float64 (BLAS) product of their multipliers with the pivot
    rows.  `_dot_mod` keeps both exact.  With `lazy`, set by the delayed
    reduction bound of `_eliminate_mod_p`, the first pivot row is reduced
    before it is used and the rows below are left unreduced: every entry
    stays below 2**53, so the float64 subtract is still exact.  Without it,
    as for word-size primes, the rows below are reduced here.
    """
    U = R[pr0:pr, c1:]
    if lazy:
        U[0] %= p
    for j in range(1, pr - pr0):
        U[j] = (U[j] - _dot_mod(R[pr0 + j, cols[:j]], U[:j], p)) % p
    tail = R[pr:, c1:]
    prod = _dot_mod(R[pr:, cols].astype(np.float64), U, p)
    np.subtract(tail, prod, out=tail, casting="unsafe")  # exact: |tail - prod| < 2**53
    if not lazy:
        np.remainder(tail, p, out=tail)


def _eliminate_q(a, det=False):
    """Rank, pivot columns and, with `det`, the determinant over Q of a nonempty
    integer matrix, from its eliminations mod _prime(0), _prime(1), ...

    A rank ends at the first prime when it is full with pivots 0..r-1, as
    rank mod p never exceeds rank over Q.  Else the primes are
    `_hadamard_primes`, and each column prefix's rank is the max of its ranks
    mod them, so the pivot columns are where that max grows.  The
    determinant, below half their product in size (factor 2), is the
    symmetric residue of the Chinese remainder of its residues.
    """
    first = _eliminate_mod_p(a, _prime(0))
    if not det and first[0] == min(a.shape) and first[1] == tuple(range(first[0])):
        return first
    primes = _hadamard_primes(a, min(a.shape), 2 if det else 1)
    runs = [first] + [_eliminate_mod_p(a, q) for q in primes[1:]]
    pivots = []
    for c in range(a.shape[1]):
        if max(bisect_right(run[1], c) for run in runs) > len(pivots):
            pivots.append(c)
    modulus = prod(primes)
    value = sum(d * (modulus // q) * pow(modulus // q, -1, q)
                for (_, _, d), q in zip(runs, primes)) % modulus
    return len(pivots), tuple(pivots), value - modulus if 2 * value > modulus else value


def _row_cleared(m: DenseMatrix):
    """The integer array an elimination of m takes, and its determinant over
    m's (the product of the row multipliers): m.ints, or over Q with den > 1
    each row divided by gcd(den, row), the row times its denominators' lcm."""
    if m.den == 1:
        return m.ints, 1
    rows = m.ints.tolist()
    gcds = [gcd(m.den, *row) for row in rows]
    return (int_array([[v // g for v in row] for row, g in zip(rows, gcds)]),
            prod(m.den // g for g in gcds))


def rank(m: DenseMatrix) -> RankProfile:
    """Exact rank over the matrix's field, with deterministic pivot columns."""
    if m.n_rows == 0 or m.n_cols == 0:
        r, pivots = 0, ()
    elif m.field.is_prime_field:
        r, pivots, _ = _eliminate_mod_p(m.ints, m.field.char)
    else:
        r, pivots, _ = _eliminate_q(_row_cleared(m)[0])
    return RankProfile(r, pivots, m.field)


def determinant(m: DenseMatrix) -> Scalar:
    """Exact determinant; the empty 0x0 matrix has determinant one."""
    if m.n_rows != m.n_cols:
        raise NotSquareError(f"determinant of {m.n_rows}x{m.n_cols} matrix")
    if m.n_rows == 0:
        return Scalar(m.field, 1)
    if m.field.is_prime_field:
        return Scalar(m.field, _eliminate_mod_p(m.ints, m.field.char)[2])
    a, scale = _row_cleared(m)
    return Scalar(m.field, Fraction(_eliminate_q(a, det=True)[2], scale))
