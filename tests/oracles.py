"""Independent brute-force oracles for cross-checking the elimination engine.

Determinants here come from Laplace cofactor expansion and rank from scanning
all k x k minors for the largest k with a nonzero one.  Nothing in this file
touches the package's elimination code, so agreement is meaningful.
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
