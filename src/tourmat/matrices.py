"""Builders for the symmetric matrices attached to tournaments.

Given nonzero vertex weights (a_1, ..., a_n) and a tournament, the base
matrix is symmetric with zero diagonal and, for i < j, entry (i, j) equal to
the winner's weight: a_i if i -> j, else a_j.  Every builder here fills the
same grid from one pair law, entry(winner's weight, loser's weight): the
base matrix (the winner's weight), the reverse-ranked transitive matrix (the
base matrix of code 0, entry a_max(i,j)), the linear-mix matrix
(alpha*winner + beta*loser), the ratio matrix (winner's weight over loser's),
and the pair-sum matrix (a_i + a_j off the diagonal), which equals any base
matrix plus its reversal's.  The builder walks the tournament's pair-bit text
(`Tournament.bits()`), so the bit layout lives in one place.  Sweeps build
(B, n, n) stacks with `tournament_stack`: B pair-bit rows (`pair_bits`)
under one integer weight row or B of them, or one bit row under B.
`cleared` turns rational rows into such integer rows, each times the lcm of
its denominators, in the dtype `int_array` picks (int64, or Python ints past
2**63); `WeightSeq.int_row` applies it to the weights.

A `DenseMatrix` stores raw canonical values (`Field.reduce`): int residues for
GF(p), Fractions for Q.  Elimination, comparison and CSV output work on those
values directly; `Scalar` appears only at the API edge (`at`, `row`, weights).

Matrix rows/columns are 0-indexed; row r corresponds to vertex r + 1.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import lcm

import numpy as np

from .fields import Field, FieldMismatchError, Scalar, format_field, format_scalar, parse_field, parse_scalar
from .tournaments import Tournament, n_pairs


class LengthMismatchError(ValueError):
    """Weight sequence length differs from the tournament's vertex count."""


class ZeroWeightError(ValueError):
    """Weight sequences must consist of nonzero field elements."""


class MatrixShapeError(ValueError):
    """Dimensions inconsistent with the entry count, or unexpected shape."""


class MatrixParseError(ValueError):
    """Matrix CSV text malformed."""


@dataclass(frozen=True, slots=True)
class WeightSeq:
    """An ordered sequence of nonzero scalars from one field.

    values[k] is the weight of vertex k + 1.
    """

    field: Field
    values: tuple

    def __post_init__(self):
        for k, v in enumerate(self.values):
            if not isinstance(v, Scalar) or v.field != self.field:
                raise FieldMismatchError(f"weight {k} is not a {self.field} scalar")
            if v.is_zero():
                raise ZeroWeightError(f"weight {k + 1} is zero")

    @classmethod
    def of(cls, field: Field, values) -> "WeightSeq":
        """Coerce ints / Fractions / Scalars into a validated sequence."""
        return cls(field, tuple(field.scalar(v) for v in values))

    def __len__(self):
        return len(self.values)

    def __getitem__(self, k):
        return self.values[k]

    def replace(self, k: int, value) -> "WeightSeq":
        """A copy with values[k] swapped for `value` (still nonzero)."""
        vals = list(self.values)
        vals[k] = self.field.scalar(value)
        return WeightSeq(self.field, tuple(vals))

    def int_row(self) -> np.ndarray:
        """The weights as a (1, n) integer row, by `cleared`: the residues over
        GF(p), over Q the values times the lcm of their denominators."""
        return cleared([[v.value for v in self.values]])[0]

    def __str__(self):
        return ",".join(format_scalar(v) for v in self.values)


@dataclass(frozen=True, slots=True)
class DenseMatrix:
    """Dense matrix over one field, row-major, immutable, of raw canonical values
    (`Field.reduce`); `from_rows` canonicalizes, the constructor only checks them."""

    field: Field
    n_rows: int
    n_cols: int
    entries: tuple

    def __post_init__(self):
        if len(self.entries) != self.n_rows * self.n_cols:
            raise MatrixShapeError(
                f"{self.n_rows}x{self.n_cols} needs {self.n_rows * self.n_cols} entries,"
                f" got {len(self.entries)}"
            )
        p = self.field.char  # the eliminations trust residues; a stray 5 in GF(5) would pivot
        if p and self.entries and not 0 <= min(self.entries) <= max(self.entries) < p:
            raise ValueError(f"GF({p}) entries must be residues in [0, {p}); from_rows reduces")

    @classmethod
    def from_rows(cls, field: Field, rows) -> "DenseMatrix":
        """Rows of ints, Fractions or Scalars of `field`, canonicalized."""
        rows = [tuple(map(field.reduce, row)) for row in rows]
        n_rows = len(rows)
        n_cols = len(rows[0]) if rows else 0
        if any(len(r) != n_cols for r in rows):
            raise MatrixShapeError("ragged rows")
        return cls(field, n_rows, n_cols, tuple(v for row in rows for v in row))

    def at(self, r: int, c: int) -> Scalar:
        return Scalar(self.field, self.entries[r * self.n_cols + c])

    def row(self, r: int) -> tuple:
        return tuple(self.at(r, c) for c in range(self.n_cols))

    def raw_rows(self) -> list:
        """Rows of raw values (ints for GF(p), Fractions for Q), as tuples."""
        ent, nc = self.entries, self.n_cols
        return [ent[r * nc : (r + 1) * nc] for r in range(self.n_rows)]

    def transpose(self) -> "DenseMatrix":
        ent, nc = self.entries, self.n_cols
        return DenseMatrix(self.field, nc, self.n_rows,
                           tuple(v for c in range(nc) for v in ent[c::nc]))

    def principal_submatrix(self, s: int) -> "DenseMatrix":
        """Top-left s x s block."""
        if not 0 <= s <= min(self.n_rows, self.n_cols):
            raise MatrixShapeError(f"principal size {s} out of range")
        ent = tuple(v for row in self.raw_rows()[:s] for v in row[:s])
        return DenseMatrix(self.field, s, s, ent)

    def __matmul__(self, other: "DenseMatrix") -> "DenseMatrix":
        if self.field != other.field:
            raise FieldMismatchError(f"{self.field} vs {other.field}")
        if self.n_cols != other.n_rows:
            raise MatrixShapeError("shape mismatch in matmul")
        reduce = self.field.reduce
        cols = other.transpose().raw_rows()
        out = tuple(reduce(sum(a * b for a, b in zip(row, col)))
                    for row in self.raw_rows() for col in cols)
        return DenseMatrix(self.field, self.n_rows, other.n_cols, out)

    def is_symmetric(self) -> bool:
        return self.n_rows == self.n_cols and self == self.transpose()

    def has_zero_diagonal(self) -> bool:
        return not any(row[r] for r, row in enumerate(self.raw_rows()[:self.n_cols]))


@dataclass(frozen=True, slots=True)
class LinearMix:
    """The two-coefficient mix f(x, y) = alpha*x + beta*y applied to weights."""

    alpha: Scalar
    beta: Scalar

    def __post_init__(self):
        if self.alpha.field != self.beta.field:
            raise FieldMismatchError("alpha and beta from different fields")

    @property
    def field(self) -> Field:
        return self.alpha.field

    def degenerate(self) -> bool:
        """True when alpha + beta = 0, which kills the pair-sum rank bound."""
        return (self.alpha + self.beta).is_zero()


def _check_weights(t: Tournament, weights: WeightSeq):
    if len(weights) != t.n:
        raise LengthMismatchError(f"{len(weights)} weights for n={t.n}")


def _pair_matrix(bits: str, weights: WeightSeq, entry) -> DenseMatrix:
    """Symmetric zero-diagonal matrix with entry (i, j) = entry(winner, loser).

    Character k of `bits` orders the k-th pair i < j (in row-major order, as
    `Tournament.bits()` lays it out): "1" means i beats j, so the entry is
    entry(a_i, a_j); "0" means entry(a_j, a_i).  `entry` maps raw weight
    values to a raw canonical value.
    """
    n = len(weights)
    vals = [v.value for v in weights.values]
    zero = weights.field.reduce(0)
    grid = [[zero] * n for _ in range(n)]
    bit = iter(bits)
    for i in range(n - 1):
        for j in range(i + 1, n):
            e = entry(vals[i], vals[j]) if next(bit) == "1" else entry(vals[j], vals[i])
            grid[i][j] = grid[j][i] = e
    return DenseMatrix(weights.field, n, n, tuple(v for row in grid for v in row))


def _winner(x, y):
    return x


def tournament_matrix(t: Tournament, weights: WeightSeq) -> DenseMatrix:
    """Symmetric zero-diagonal matrix with entry (i, j) = the winner's weight."""
    _check_weights(t, weights)
    return _pair_matrix(t.bits(), weights, _winner)


def int_array(rows) -> np.ndarray:
    """Rows of ints as an int64 array, or past 2**63 an object array of ints."""
    big = any(abs(v) >= 2**63 for row in rows for v in row)
    return np.array(rows, dtype=object if big else np.int64)


def cleared(rows):
    """The `int_array` of rows of ints or Fractions, each row scaled by the
    lcm of its denominators, and the product of those multipliers."""
    int_rows, scale = [], 1
    for row in rows:
        ratios = [v.as_integer_ratio() for v in row]
        mult = lcm(*(d for _, d in ratios))
        int_rows.append([a * (mult // d) for a, d in ratios])
        scale *= mult
    return int_array(int_rows), scale


def tournament_stack(bits: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """The tournament matrices of pair-bit rows under integer weight rows (as
    `WeightSeq.int_row` gives them), as a (B, n, n) array in the dtype of
    `vals`: (B, m) bits under (1, n) or (B, n) weights, or (1, m) under (B, n).

    `bits` is laid out as `pair_bits` lays it out: entry [b, k] is pair k's
    bit in matrix b, pair k the k-th pair (i, j) of np.triu_indices(n, 1).
    Entries (i, j) and (j, i) get a_i where the bit is 1 (i beats j) and a_j
    where it is 0; the diagonal is zero.
    """
    n = vals.shape[-1]
    if (bits.ndim != 2 or vals.ndim != 2 or bits.shape[1] != n_pairs(n)
            or 1 not in (len(bits), len(vals)) and len(bits) != len(vals)):
        raise LengthMismatchError(f"weights of shape {vals.shape} for pair bits of {bits.shape}")
    rows, cols = np.triu_indices(n, 1)
    winners = np.where(bits != 0, vals[:, rows], vals[:, cols])
    stack = np.zeros((len(winners), n, n), dtype=vals.dtype)
    stack[:, rows, cols] = winners
    stack[:, cols, rows] = winners
    return stack


def transitive_matrix(weights: WeightSeq) -> DenseMatrix:
    """The reverse-ranked transitive tournament's matrix: entry (i, j) = a_max(i,j)."""
    return _pair_matrix("0" * n_pairs(len(weights)), weights, _winner)


def linear_mix_matrix(t: Tournament, weights: WeightSeq, mix: LinearMix) -> DenseMatrix:
    """Entry (i, j) = alpha*winner + beta*loser weights; zero diagonal, symmetric."""
    _check_weights(t, weights)
    if mix.field != weights.field:
        raise FieldMismatchError("mix coefficients from a different field")
    alpha, beta, reduce = mix.alpha.value, mix.beta.value, weights.field.reduce
    return _pair_matrix(t.bits(), weights, lambda x, y: reduce(alpha * x + beta * y))


def ratio_matrix(t: Tournament, weights: WeightSeq) -> DenseMatrix:
    """Entry (i, j) = winner's weight divided by loser's; zero diagonal, symmetric."""
    _check_weights(t, weights)
    p = weights.field.char
    if not p:
        return _pair_matrix(t.bits(), weights, operator.truediv)
    inverse = {v.value: pow(v.value, -1, p) for v in weights.values}  # one per weight
    return _pair_matrix(t.bits(), weights, lambda x, y: x * inverse[y] % p)


def reversal_sum_matrix(weights: WeightSeq) -> DenseMatrix:
    """Entry (i, j) = a_i + a_j off the diagonal, zero on it.

    Equals tournament_matrix(t, w) + tournament_matrix(t.reverse(), w) for
    every tournament t, and also diag(a)J + Jdiag(a) - 2diag(a).
    """
    reduce = weights.field.reduce
    return _pair_matrix("0" * n_pairs(len(weights)), weights, lambda x, y: reduce(x + y))


def in_matrix_family(m: DenseMatrix, weights: WeightSeq) -> bool:
    """True iff m is symmetric, zero-diagonal, with entry (i,j) in {a_i, a_j}."""
    n = len(weights)
    if m.n_rows != n or m.n_cols != n:
        return False
    if not m.has_zero_diagonal() or not m.is_symmetric():
        return False
    vals = [v.value for v in weights.values]
    return all(
        row[c] in (vals[r], vals[c])
        for r, row in enumerate(m.raw_rows())
        for c in range(r + 1, n)
    )


def matrix_to_csv(m: DenseMatrix) -> str:
    """Serialize: header "field=<spec>,rows=<r>,cols=<c>", then entry rows."""
    lines = [f"field={format_field(m.field)},rows={m.n_rows},cols={m.n_cols}"]
    lines += [",".join(map(str, row)) for row in m.raw_rows()]
    return "\n".join(lines) + "\n"


def matrix_from_csv(text: str, field: Field | None = None) -> DenseMatrix:
    """Parse the CSV form; `field` overrides the header field if given."""
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise MatrixParseError("empty matrix text")
    header = lines[0].split(",")
    try:
        kv = dict(item.split("=", 1) for item in header)
        hdr_field = parse_field(kv["field"])
        n_rows, n_cols = int(kv["rows"]), int(kv["cols"])
    except (KeyError, ValueError) as exc:
        raise MatrixParseError(f"bad matrix header {lines[0]!r}") from exc
    if field is None:
        field = hdr_field
    if len(lines) - 1 != n_rows:
        raise MatrixParseError(f"expected {n_rows} rows, got {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != n_cols:
            raise MatrixParseError(f"expected {n_cols} cols in {ln!r}")
        rows.append([parse_scalar(field, c) for c in cells])
    if n_rows == 0:
        return DenseMatrix(field, 0, n_cols, ())
    return DenseMatrix.from_rows(field, rows)
