"""Independent brute-force oracles for cross-checking the elimination engine.

Determinants here come from Laplace cofactor expansion and rank from scanning
all k x k minors for the largest k with a nonzero one.  `bareiss` is
fraction-free (Bareiss one-step) elimination of integer rows, the reference
for rank, pivot columns and determinant over Q at sizes where the scans are
too slow.  `eliminate_mod_p` is textbook Gaussian elimination mod p that
reduces every entry after every step, the reference for the modular kernel
at sizes past the scans.  Nothing in this file touches the package's
elimination code, so agreement is meaningful.
"""

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
