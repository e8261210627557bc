"""Independent brute-force oracles for cross-checking the package.

Determinants here come from Laplace cofactor expansion and rank from scanning
all k x k minors for the largest k with a nonzero one.  `bareiss` is
fraction-free (Bareiss one-step) elimination of integer rows, the reference
for rank, pivot columns and determinant over Q at sizes where the scans are
too slow.  `eliminate_mod_p` is textbook Gaussian elimination mod p that
reduces every entry after every step, the reference for the modular kernel
at sizes past the scans.  `pair_law_rows` walks a tournament's pair-bit text
pair by pair, the reference for the array builders, and `linear_mix_rows`
and `pair_sum_rows` are its laws that only tests need.  `has_edge`,
`flip_edge` and `enumerate_all` read, change and count tournament codes by
shifting bits.  `bisecting_witness` and `gram_witness` restate the family
checks pair by pair on Python sets, and `leading_block` takes a matrix's
top-left block for the leading-minor tests.  Nothing in this file imports
the package, so agreement is meaningful.
"""

from fractions import Fraction
from itertools import combinations


def det_cofactor(rows):
    """Determinant by first-row cofactor expansion.  Exponential; keep small."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    sign = 1
    for c in range(n):
        if rows[0][c] != 0:
            minor = [[row[cc] for cc in range(n) if cc != c] for row in rows[1:]]
            total += sign * rows[0][c] * det_cofactor(minor)
        sign = -sign
    return total


def minor_scan_rank(rows, p=None):
    """Largest k such that some k x k minor is nonzero (mod p when given)."""
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    for k in range(min(nr, nc), 0, -1):
        for rsel in combinations(range(nr), k):
            for csel in combinations(range(nc), k):
                sub = [[rows[r][c] for c in csel] for r in rsel]
                d = det_cofactor(sub)
                if p is not None:
                    d %= p
                if d != 0:
                    return k
    return 0


def _exact_div(a, b):
    q, rem = divmod(a, b)
    if rem:
        raise ArithmeticError("fraction-free elimination produced a non-exact division")
    return q


def bareiss(m):
    """Rank, pivot columns and determinant of an integer matrix, fraction-free.

    Eliminates the list-of-lists `m` in place.  The determinant is meaningful
    for square input only, and is 0 when the rank falls short.
    """
    nr, nc = len(m), len(m[0])
    prev = 1
    sign = 1
    pr = 0
    pivots = []
    for c in range(nc):
        r0 = None
        for r in range(pr, nr):
            if m[r][c]:
                r0 = r
                break
        if r0 is None:
            continue
        if r0 != pr:
            m[pr], m[r0] = m[r0], m[pr]
            sign = -sign
        prow = m[pr]
        piv = prow[c]
        for r in range(pr + 1, nr):
            row = m[r]
            f = row[c]
            for cc in range(c + 1, nc):
                row[cc] = _exact_div(piv * row[cc] - f * prow[cc], prev)
            row[c] = 0
        prev = piv
        pivots.append(c)
        pr += 1
        if pr == nr:
            break
    return pr, tuple(pivots), sign * prev if pr == nr == nc else 0


def eliminate_mod_p(rows, p):
    """Rank, pivot columns and determinant mod p of an integer matrix by
    Gaussian elimination with every entry reduced mod p after every step.

    The pivot is the leftmost column with a nonzero entry at or below the
    pivot row, in the lowest such row.  The determinant is meaningful for
    square input only, and is 0 when the rank falls short.
    """
    m = [[v % p for v in row] for row in rows]
    nr, nc = len(m), len(m[0])
    det = 1
    pr = 0
    pivots = []
    for c in range(nc):
        r0 = next((r for r in range(pr, nr) if m[r][c]), None)
        if r0 is None:
            continue
        if r0 != pr:
            m[pr], m[r0] = m[r0], m[pr]
            det = -det
        prow = m[pr]
        det = det * prow[c] % p
        inv = pow(prow[c], -1, p)
        for r in range(pr + 1, nr):
            f = m[r][c] * inv % p
            if f:
                m[r][c:] = [(x - f * y) % p for x, y in zip(m[r][c:], prow[c:])]
        pivots.append(c)
        pr += 1
        if pr == nr:
            break
    return pr, tuple(pivots), det if pr == nr == nc else 0


def pair_law_rows(bits, values, entry):
    """Rows of the symmetric zero-diagonal matrix with entry (i, j) =
    entry(winner's value, loser's value).

    Character k of the text `bits` orders the k-th pair i < j in row-major
    order: "1" means i beats j, so the entry is entry(values[i], values[j]);
    "0" means entry(values[j], values[i]).
    """
    n = len(values)
    grid = [[0] * n for _ in range(n)]
    bit = iter(bits)
    for i in range(n - 1):
        for j in range(i + 1, n):
            e = entry(values[i], values[j]) if next(bit) == "1" else entry(values[j], values[i])
            grid[i][j] = grid[j][i] = e
    return grid


def linear_mix_rows(bits, values, alpha, beta):
    """Entry (i, j) = alpha * winner's value + beta * loser's value."""
    return pair_law_rows(bits, values, lambda x, y: alpha * x + beta * y)


def pair_sum_rows(values):
    """Entry (i, j) = a_i + a_j off the diagonal: any tournament's matrix plus
    its reversal's."""
    n = len(values)
    return pair_law_rows("0" * (n * (n - 1) // 2), values, lambda x, y: x + y)


def _pair_shift(n, i, j):
    """Bit position of the pair {i, j} of vertices in 1..n: lexicographic order."""
    if i == j or not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"no edge between {i} and {j} on {n} vertices")
    i, j = min(i, j), max(i, j)
    return sum(n - k for k in range(1, i)) + j - i - 1


def has_edge(n, code, i, j):
    """True iff the edge between i and j of the tournament `code` on n vertices
    is directed i -> j."""
    return (code >> _pair_shift(n, i, j)) & 1 == (i < j)


def flip_edge(n, code, i, j):
    """The code with the single edge between i and j flipped."""
    return code ^ 1 << _pair_shift(n, i, j)


def enumerate_all(n, start=0, end=None):
    """The codes start..end-1 of tournaments on n vertices, default every code."""
    return range(start, 1 << n * (n - 1) // 2 if end is None else end)


def bisecting_witness(sets):
    """The first pair (a, b), a < b in index order, of sets with 2|A n B|
    equal to neither |A| nor |B|, or None when the family is self-bisecting."""
    for a, b in combinations(range(len(sets)), 2):
        inter = len(sets[a] & sets[b])
        if 2 * inter != len(sets[a]) and 2 * inter != len(sets[b]):
            return a, b
    return None


def gram_witness(sets, n, gram):
    """The first entry (row, col, expected, actual), in row-major order, where
    the rows `gram` (ints or Fractions) break the Gram identities of the +-1
    incidence matrix of a self-bisecting family of sets on {1, ..., n}, or None.

    The diagonal must be n.  Entry (A, B) off it must be
    n - 2(|A| + |B|) + 4|A n B|, which is checked first to equal n - 2|tau|,
    tau = A if 2|A n B| = |B| and B otherwise.
    """
    for r, a in enumerate(sets):
        for c, b in enumerate(sets):
            if r == c:
                expected = n
            else:
                expected = n - 2 * (len(a) + len(b)) + 4 * len(a & b)
                tau = a if 2 * len(a & b) == len(b) else b
                if expected != n - 2 * len(tau):
                    return r, c, str(expected), "tau-size mismatch"
            if gram[r][c] != expected:
                return r, c, str(expected), str(Fraction(gram[r][c]))
    return None


def leading_block(m, s):
    """The top-left s x s block of a matrix with `field`, `ints` and `den`, as
    a matrix of its type."""
    return type(m)(m.field, m.ints[:s, :s], m.den)
