"""Self-bisecting set families and their reduction to tournament-style matrices.

A family of distinct nonempty subsets of {1, ..., n} is self-bisecting when
every pair A != B satisfies |A n B| = |A|/2 or |A n B| = |B|/2.  The +-1
incidence matrix X of such a family has a Gram matrix X X^T with diagonal n
and off-diagonal n - 2|tau(A, B)|, where tau picks the member whose size is
twice the intersection (A wins ties).  So (nJ - X X^T)/2 is an m x m matrix
of the tournament-matrix family for the weights (|A_1|, ..., |A_m|), which
ties family size bounds to matrix rank bounds.  The checks read every |A n B|
and |A| at once from the 0/1 incidence product Y Y^T (X = 2Y - 1).  All of
it is over the rationals; X X^T and Y Y^T are exact in int64.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .matrices import DenseMatrix, MatrixShapeError, WeightSeq, in_matrix_family
from .fields import QQ
from .rank import rank


class FamilyError(ValueError):
    """Malformed family: empty set, out-of-range element, or duplicate."""


class NotBisectingError(ValueError):
    """Operation requires a family that passes check_bisecting."""


class FamilyParseError(ValueError):
    """Family file text malformed."""


@dataclass(frozen=True, slots=True)
class SetFamily:
    """Distinct nonempty subsets of the ground set {1, ..., ground_n}."""

    ground_n: int
    sets: tuple

    def __post_init__(self):
        seen = set()
        for k, s in enumerate(self.sets):
            if not isinstance(s, frozenset):
                raise FamilyError(f"set {k} must be a frozenset")
            if not s:
                raise FamilyError(f"set {k} is empty")
            if not all(isinstance(x, int) and 1 <= x <= self.ground_n for x in s):
                raise FamilyError(f"set {k} leaves the ground set 1..{self.ground_n}")
            if s in seen:
                raise FamilyError(f"duplicate set {sorted(s)}")
            seen.add(s)

    @classmethod
    def of(cls, ground_n: int, sets) -> "SetFamily":
        return cls(ground_n, tuple(frozenset(s) for s in sets))

    def __len__(self):
        return len(self.sets)


@dataclass(frozen=True, slots=True)
class Verdict:
    """A check's outcome: ok, or the witness of its first failure."""

    ok: bool
    witness: tuple | None

    def __bool__(self):
        return self.ok


def check_bisecting(family: SetFamily) -> Verdict:
    """Check every pair; on failure the witness is the first violating pair
    (index_a, index_b) in index order."""
    inter, size = _overlaps(family)
    bad = np.argwhere(np.triu((2 * inter != size[:, None]) & (2 * inter != size), 1))
    return Verdict(not len(bad), tuple(bad[0].tolist()) if len(bad) else None)


def tau(a: frozenset, b: frozenset) -> frozenset:
    """The member whose size is twice the intersection: a if |a n b| = |b|/2, else b."""
    if 2 * len(a & b) == len(b):
        return a
    return b


def incidence_pm1(family: SetFamily) -> DenseMatrix:
    """m x n matrix over Q: +1 where the element belongs to the set, -1 otherwise."""
    inside = [[x in s for x in range(1, family.ground_n + 1)] for s in family.sets]
    return DenseMatrix(QQ, 2 * np.array(inside, np.int64).reshape(len(inside), family.ground_n) - 1)


def _overlaps(family: SetFamily):
    """Y Y^T for the 0/1 incidence array Y = (X + 1)/2 (|A n B| at (A, B)), and its diagonal."""
    y = (incidence_pm1(family).ints + 1) // 2
    inter = y @ y.T
    return inter, np.diag(inter)


def _bisecting_gram(family: SetFamily) -> np.ndarray:
    """X X^T for the +-1 incidence array X of a bisecting family (int64, exact)."""
    verdict = check_bisecting(family)
    if not verdict.ok:
        raise NotBisectingError(f"family is not self-bisecting, witness pair {verdict.witness}")
    x = incidence_pm1(family).ints
    return x @ x.T


def gram_check(family: SetFamily, gram: DenseMatrix | None = None) -> Verdict:
    """Verify the Gram identities of the +-1 incidence matrix, entry by entry.

    Entry (A, B) must equal n - 2(|A| + |B|) + 4|A n B| (n on the diagonal)
    and, off the diagonal of a bisecting family, n - 2|tau(A, B)|.  On failure
    the witness is (row, col, expected, actual) of the first bad entry, the
    tau identity checked before the value.  Passing an explicit m x m `gram`
    matrix checks that matrix instead of the computed one (negative-control hook).
    """
    computed = _bisecting_gram(family)
    g, den = (computed, 1) if gram is None else (gram.ints, gram.den)
    if g.shape != computed.shape:
        raise MatrixShapeError(f"gram of shape {g.shape} for {len(family)} sets")
    inter, size = _overlaps(family)
    n = family.ground_n
    expected = n - 2 * (size[:, None] + size) + 4 * inter
    tau_size = np.where(2 * inter == size, size[:, None], size)  # |A| where 2|A n B| = |B|
    tau_bad = (expected != n - 2 * tau_size) & ~np.eye(len(size), dtype=bool)
    # den * expected in Python ints, past what int64 holds
    bad = np.argwhere(tau_bad | (g != expected.astype(object) * den))
    if not len(bad):
        return Verdict(True, None)
    r, c = bad[0].tolist()
    shown = "tau-size mismatch" if tau_bad[r, c] else str(Fraction(int(g[r, c]), den))
    return Verdict(False, (r, c, str(expected[r, c]), shown))


def family_to_matrix(family: SetFamily):
    """Reduce a bisecting family to ((nJ - X X^T)/2, weights = set sizes).

    The result is verified to be a symmetric zero-diagonal m x m matrix whose
    (i, j) entry lies in {|A_i|, |A_j|} - membership in the tournament-matrix
    family for the size weights.
    """
    matrix = DenseMatrix(QQ, family.ground_n - _bisecting_gram(family), 2)
    weights = WeightSeq.of(QQ, [len(s) for s in family.sets])
    if not in_matrix_family(matrix, weights):
        raise NotBisectingError("reduced matrix fails the family membership check")
    return matrix, weights


def size_bound_report(family: SetFamily, c: Fraction) -> dict:
    """Diagnostic for the conditional bound m <= (n + 1)/c under rank >= c*m.

    Reports both ranks and whether this instance satisfies rank >= c*m and
    m <= (n + 1)/c.  Informational only; the rank constant is conjectural.
    """
    matrix, _ = family_to_matrix(family)  # raises NotBisectingError if needed
    m = len(family.sets)
    n = family.ground_n
    # family_to_matrix verified matrix = (nJ - G)/2, so G = nJ - 2 matrix
    gram = DenseMatrix(QQ, n * matrix.den - 2 * matrix.ints, matrix.den)
    rank_gram = rank(gram).rank
    rank_matrix = rank(matrix).rank
    c = Fraction(c)
    return {
        "m": m,
        "n": n,
        "c": str(c),
        "rank_gram": rank_gram,
        "rank_matrix": rank_matrix,
        "rank_ge_cm": rank_matrix >= c * m,
        "size_le_bound": m <= Fraction(n + 1) / c,
    }


def parse_family(text: str) -> SetFamily:
    """Parse a family file: "n=<n>" then one set per line, strictly increasing ints.
    A file with no set line is refused: it would pass every check vacuously."""
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if len(lines) < 2 or not lines[0].startswith("n="):
        raise FamilyParseError('family text must be "n=<n>" followed by at least one set line')
    try:
        ground_n = int(lines[0][2:])
    except ValueError as exc:
        raise FamilyParseError(f"bad ground size line {lines[0]!r}") from exc
    sets = []
    for ln in lines[1:]:
        try:
            elems = [int(tok) for tok in ln.split()]
        except ValueError as exc:
            raise FamilyParseError(f"bad set line {ln!r}") from exc
        if elems != sorted(set(elems)):
            raise FamilyParseError(f"set line {ln!r} must be strictly increasing")
        sets.append(frozenset(elems))
    try:
        return SetFamily(ground_n, tuple(sets))
    except FamilyError as exc:
        raise FamilyParseError(str(exc)) from exc


def format_family(family: SetFamily) -> str:
    lines = [f"n={family.ground_n}"]
    for s in family.sets:
        lines.append(" ".join(str(x) for x in sorted(s)))
    return "\n".join(lines) + "\n"
