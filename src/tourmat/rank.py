"""Exact rank and determinant by elimination.

Every elimination takes an integer array, int64 or past 2**63 Python ints
(as `matrices.int_array` decides), and reduces it mod p into its one int64
copy.  `rank()` and `determinant()` eliminate a `DenseMatrix`'s `ints`
directly: the residues over GF(p), and over Q the entries times `den`, each
row divided by gcd(den, row) when den > 1, which clears the row by the lcm
of its own denominators.  Pivot selection is always leftmost nonzero
column, lowest row index, which makes the pivot columns deterministic.

One routine, `_eliminate_mod_p`, yields the rank, the pivot columns and the
determinant mod a prime at once.  It eliminates `_PANEL` = 32 columns at a
time in int64, each panel over its own columns only, keeping the
multipliers below the pivots.  The panel's pivot rows are then
forward-substituted in int64 and the rows below get one float64 (BLAS)
product of the multipliers with the pivot rows, reduced mod p.  That product
is exact because every partial sum stays below 2**53: directly while 32 *
(p - 1)**2 < 2**53 (p <= 16,777,213), and above that by splitting the right
factor into 16-bit halves.  A matrix at most 64 columns wide is one panel
and runs no product, so blocking reorders exact updates only.  For small p
the reductions wait (delayed reduction, as in FFLAS-FFPACK): entries start
in [0, p), and each pivot subtracts at most (p - 1)**2 from an entry, in the
panel or as one term of the unsplit product, so every entry stays below
2**53 in size while max(min(rows, cols), _PANEL) * (p - 1)**2 + p < 2**53.
Then no `% p` runs on the updated blocks, and only what must be a residue is
reduced in place: a column before its pivot search, the pivot row's panel
segment before it is used, and the first pivot row before forward
substitution.  Word-size primes such as 2**31 - 1 fail the bound at every
shape, so they reduce after every step.  `stack_ranks` ranks whole
(B, n, n) stacks: all B matrices at once up to 64 columns, one at a time by
`_eliminate_mod_p` above that.

Over Q the matrix, or each matrix of a stack, is eliminated mod `_prime(0)`
= 2**31 - 1 first.  Rank mod p never exceeds rank over Q, column prefix by
column prefix, so a rank of min(rows, cols) there, with pivot columns
0..r-1 for `rank()`, is the rank over Q.  Otherwise, and always for a
determinant, `_prime(1)`, ... run until their product passes Hadamard's
bound H = (E * sqrt(c))**m on every minor, or 2H for a determinant:
`_hadamard_primes` reads E (the largest entry in size) and c (the most
nonzeros in a row) from the array, and m = min(rows, cols).  A nonzero
integer minor below that product is nonzero mod one of the primes, so the
max of the ranks mod them is the rank over Q, and the determinant is the
symmetric residue of the Chinese remainder of its residues.

`bordered_ranks` ranks the matrices [[0, u^T], [u, B]] of symmetric blocks
B and borders u by the bordering method (Faddeev and Faddeeva, 1963): one
batched Gauss-Jordan elimination per block, `_gauss_jordan`, with the pivot
rule and row update of `stack_ranks`, gives T with T B in reduced echelon
form, r = rank B and the pivot columns P; a border then costs two exact
products (`_dot_mod`) shared by all borders and blocks: rows r.. of T u,
which are zero exactly when u is in col(B) (else the rank is r + 2), and
the form u^T x of a solution of B x = u, which adds 1 to r when nonzero.
Over Q only the bordered matrices short of full rank mod `_prime(0)` are
built and ranked mod the further Hadamard primes, as `stack_ranks` does.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, prod

import numpy as np

from .fields import Field, Scalar, is_prime
from .matrices import DenseMatrix, int_array

_PANEL = 32  # columns per panel; at most 32 keeps `_dot_mod` exact
_ROWS = 16  # rows per step of a stack's row update, which bounds its scratch buffer
_PRIMES = [2**31 - 1]  # descending primes below 2**31 (int64-safe products), extended by _prime


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
    rank falls short.  Past 2 * _PANEL columns it runs in _PANEL-column panels.
    """
    R = _residues(rows, p)
    nr, nc = R.shape
    lazy = max(min(nr, nc), _PANEL) * (p - 1) ** 2 + p < 2**53  # see the module docstring
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
    """The i-th prime below 2**31 from 2**31 - 1 down, found once."""
    while len(_PRIMES) <= i:
        _PRIMES.append(next(q for q in range(_PRIMES[-1] - 2, 2, -2) if is_prime(q)))
    return _PRIMES[i]


def _hadamard_primes(a, m, factor=1):
    """The fewest primes from _prime(0) down, at least one, whose product
    exceeds factor * (E * sqrt(c))**m: factor times Hadamard's bound on every
    minor of at most m rows of the integer matrix `a`, or of every matrix of
    the stack `a`, whose entries are at most E in absolute value with at most
    c of them nonzero per row."""
    size = max(int(a.max()), -int(a.min()))
    width = int(np.count_nonzero(a, axis=-1).max())
    bound_sq = factor**2 * (size**2 * width) ** m  # exact, as is the test below
    primes = [_prime(0)]
    while prod(primes) ** 2 <= bound_sq:
        primes.append(_prime(len(primes)))
    return primes


def stack_ranks(stack, p) -> np.ndarray:
    """Ranks of every matrix in a (B, n_rows, n_cols) stack of integers (int64,
    or Python ints in an object array), as an int64 array of B ranks: mod p,
    or with p = 0 over Q.

    Over Q a matrix is done when its rank mod `_prime(0)` is min(n_rows,
    n_cols), since rank mod p <= rank over Q <= min(n_rows, n_cols).  The
    matrices that fall short get the max of their ranks mod
    `_hadamard_primes` of their own entries.  Mod p, matrices past 2 * _PANEL
    columns go one at a time to the faster `_eliminate_mod_p`; narrower ones
    are eliminated together, column by column, each with its own pivot row,
    on one copy reduced mod p and laid out (n_rows, n_cols, B) so that every
    array operation runs along the batch.  A mask picks each matrix's first
    nonzero row at or below its pivot row, fancy indexing swaps it into
    place, and every row below becomes (piv * row - row[c] * pivot_row) mod p
    in place, _ROWS rows at a time through one scratch buffer of _ROWS rows,
    with no inverse.  Both products are below 2**62 because p < 2**31, so
    int64 holds them exactly.  Scaling a row by a nonzero pivot keeps the row
    space, so the ranks are `_eliminate_mod_p`'s although the eliminated
    entries are not.
    """
    if not p:
        return _over_q(stack, stack_ranks(stack, _prime(0)))
    n_mat, nr, nc = np.shape(stack)
    if nc > 2 * _PANEL:
        return np.array([_eliminate_mod_p(m, p)[0] for m in stack], dtype=np.int64)
    R = _residues(np.moveaxis(stack, 0, -1), p)
    scratch = np.empty((min(nr, _ROWS), nc, n_mat), dtype=np.int64)
    ranks = np.zeros(n_mat, dtype=np.int64)  # also each matrix's pivot row
    mats, row_ids = np.arange(n_mat), np.arange(nr)[:, None]
    for c in range(nc):
        cand = (R[:, c] != 0) & (row_ids >= ranks)
        found = cand.any(axis=0)
        if not found.any():
            continue
        # a matrix without a pivot here swaps a row with itself and keeps its rows
        pr = np.minimum(ranks, nr - 1)
        r0 = np.where(found, cand.argmax(axis=0), pr)
        # rows at or below a pivot row are zero left of c, so only columns c on move
        R[pr, c:, mats], R[r0, c:, mats] = R[r0, c:, mats], R[pr, c:, mats]
        prow = R[pr, c:, mats].T
        lo = int(pr[found].min()) + 1  # no matrix updates a row above lo
        below = found & (row_ids[lo:] > pr)
        scale, factor = np.where(below, prow[0], 1), np.where(below, R[lo:, c], 0)
        for r in range(0, nr - lo, _ROWS):
            tail = R[lo + r:lo + r + _ROWS, c:]
            tail *= scale[r:r + _ROWS, None]
            tail -= np.multiply(factor[r:r + _ROWS, None], prow,
                                out=scratch[:len(tail), :nc - c])
            np.remainder(tail, p, out=tail)
        ranks += found
    return ranks


def _over_q(stack, ranks):
    """The ranks over Q of an integer stack, from `ranks`, its ranks mod
    `_prime(0)`: each matrix short of min(n_rows, n_cols) there gets the max
    of its ranks mod `_hadamard_primes` of the short matrices' entries."""
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

    [B | I] is eliminated column by column with `stack_ranks`' pivot rule and
    its row update without inverses, applied above the pivot row as well as
    below it; each pivot row is scaled by its pivot's inverse at the end.
    """
    n_mat, m, _ = np.shape(blocks)
    A = np.zeros((m, 2 * m, n_mat), dtype=np.int64)  # laid out as in stack_ranks
    A[:, :m] = _residues(np.moveaxis(blocks, 0, -1), p)
    A[:, m:] = np.eye(m, dtype=np.int64)[:, :, None]
    ranks = np.zeros(n_mat, dtype=np.int64)
    pivots = np.full((m, n_mat), m)
    mats, row_ids = np.arange(n_mat), np.arange(m)[:, None]
    for c in range(m):
        cand = (A[:, c] != 0) & (row_ids >= ranks)
        found = cand.any(axis=0)
        if not found.any():
            continue
        pr = np.minimum(ranks, m - 1)
        r0 = np.where(found, cand.argmax(axis=0), pr)
        A[pr, :, mats], A[r0, :, mats] = A[r0, :, mats], A[pr, :, mats]
        prow = A[pr, :, mats].T
        other = found & (row_ids != pr)
        factor = np.where(other, A[:, c], 0)[:, None]
        A *= np.where(other, prow[c], 1)[:, None]
        A -= factor * prow  # products below 2**62
        A %= p
        pivots[pr[found], mats[found]] = c
        ranks += found
    piv = np.where(row_ids < ranks, np.take_along_axis(A, pivots[:, None], axis=1)[:, 0], 1)
    inv, base, e = np.ones_like(piv), piv, p - 2  # piv**(p - 2) = 1 / piv mod p
    while e:
        if e & 1:
            inv = inv * base % p
        base, e = base * base % p, e >> 1
    T = np.moveaxis(A[:, m:] * inv[:, None] % p, -1, 0)
    return T, ranks, pivots.T


def bordered_ranks(blocks, borders, p) -> np.ndarray:
    """Ranks of the matrices [[0, u^T], [u, B]] for every symmetric block B of
    the (K, m, m) integer stack `blocks` and every border u of the (L, m)
    integer array `borders`, as a (K, L) int64 array: mod p, or with p = 0
    over Q.  Integers are taken as `stack_ranks` takes them.

    This is the bordering method.  With T, r and P from `_gauss_jordan(B)`
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
    """a @ b mod p as int64, for int64 residue matrices a and b with an inner
    dimension below 2**15: the sum of exact `_dot_mod` products over
    _PANEL-term slices, each below 2**53, so the sum stays below 2**63."""
    a = a.astype(np.float64)
    out = _dot_mod(a[:, :_PANEL], b[:_PANEL], p).astype(np.int64)
    for i in range(_PANEL, a.shape[1], _PANEL):
        out += _dot_mod(a[:, i:i + _PANEL], b[i:i + _PANEL], p).astype(np.int64)
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
    rows.  `_dot_mod` keeps both exact.  With `lazy` (the bound of the module
    docstring holds) the first pivot row is reduced before it is used and the
    rows below are left unreduced: every entry stays below 2**53, so the
    float64 subtract is still exact.  Without it, as for word-size primes,
    whose (p - 1)**2 alone is past 2**53, the rows below are reduced here.
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

    A rank ends at the first prime when it is full with pivots 0..r-1.  Else
    the primes are `_hadamard_primes` (with factor 2 for a determinant); each
    column prefix's rank is the max of its ranks mod them, so the pivot
    columns are where that max grows.  The determinant is the symmetric
    residue of the Chinese remainder of its residues.
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
