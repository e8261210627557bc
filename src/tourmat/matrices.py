"""Builders for the symmetric matrices attached to tournaments.

Given nonzero vertex weights (a_1, ..., a_n) and a tournament, the base
matrix is symmetric with zero diagonal and, for i < j, entry (i, j) equal to
the winner's weight: a_i if i -> j, else a_j.  `tournament_stack` builds
such matrices from pair bits (`pair_bits`) as one (B, n, n) integer array:
B bit rows under one integer weight row or B of them, or one bit row under
B.  Sweeps rank those stacks, and each per-matrix builder takes one matrix
of a stack: `tournament_matrix`, `transitive_matrix` (code 0, the
reverse-ranked transitive tournament, entry a_max(i,j)) and `ratio_matrix`
(the winners' stack times the losers' stack of the inverse weights).

A `DenseMatrix` is a field plus one read-only 2-D integer array `ints`, in
the dtype `int_array` picks (int64, or Python ints past 2**63): the residues
over GF(p), and over Q the entries times one positive `den`, the lcm of
their denominators.  `DenseMatrix.from_rows` is the one clearing rule for
rows of ints, Fractions or Scalars; `WeightSeq.int_row` applies it to the
weights.  Canonical values (`Field.reduce`) and `Scalar`s appear only at the
API edge: `entries`, `at`, `row`, `raw_rows` and CSV.  There is no matrix
arithmetic: products, transposes and tests of shape run on `ints`.

Matrix rows/columns are 0-indexed; row r corresponds to vertex r + 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import gcd, lcm

import numpy as np

from .fields import Field, FieldMismatchError, Scalar, format_field, format_scalar, parse_field, parse_scalar
from .tournaments import Tournament, code_bits, n_pairs


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

    def int_row(self) -> np.ndarray:
        """The weights as a (1, n) integer row, by `DenseMatrix.from_rows`: the
        residues over GF(p), over Q the values times the lcm of their denominators."""
        return DenseMatrix.from_rows(self.field, [[v.value for v in self.values]]).ints

    def __str__(self):
        return ",".join(format_scalar(v) for v in self.values)


def int_array(rows) -> np.ndarray:
    """Integers as an int64 array, or, once one is 2**63 or more in size, as an
    object array of Python ints."""
    a = rows if isinstance(rows, np.ndarray) else np.array(rows, dtype=object)
    big = a.dtype == object and a.size and np.abs(a).max() >= 2**63
    return a if big else a.astype(np.int64, copy=False)


@dataclass(frozen=True, slots=True, eq=False)
class DenseMatrix:
    """Dense matrix over one field: a read-only 2-D `int_array` `ints`, which
    holds the residues over GF(p) and the entries times `den` over Q, `den`
    the least positive such multiplier.  The constructor canonicalizes `den`
    and refuses residues outside [0, p); `from_rows` clears any rows."""

    field: Field
    ints: np.ndarray
    den: int = 1

    def __post_init__(self):
        a, den, p = int_array(self.ints), int(self.den), self.field.char
        if a.ndim != 2:
            raise MatrixShapeError(f"a matrix needs a 2-D array, got shape {a.shape}")
        if p and den != 1 or den < 1:
            raise ValueError(f"a {self.field} matrix cannot have denominator {den}")
        # the eliminations trust residues; a stray 5 in GF(5) would pivot
        if p and a.size and not 0 <= a.min() <= a.max() < p:
            raise ValueError(f"GF({p}) entries must be residues in [0, {p}); from_rows reduces")
        if den > 1 and (g := gcd(den, int(np.gcd.reduce(a, axis=None)))) > 1:
            # g is den when every entry is 0, and else at most the largest entry
            a, den = int_array(a // g) if a.any() else a, den // g
        a = a.copy() if a.flags.writeable else a  # the caller may still hold it
        a.flags.writeable = False
        object.__setattr__(self, "ints", a)
        object.__setattr__(self, "den", den)

    @classmethod
    def from_rows(cls, field: Field, rows) -> "DenseMatrix":
        """Rows of ints, Fractions or Scalars of `field`; over Q each entry times
        the lcm of all their denominators."""
        rows = [[v if not field.char and type(v) in (int, Fraction) else field.reduce(v)
                 for v in row] for row in rows]  # over Q ints clear as they are
        n_cols = len(rows[0]) if rows else 0
        if any(len(r) != n_cols for r in rows):
            raise MatrixShapeError("ragged rows")
        den = 1
        if not field.char:
            den = lcm(*(v.denominator for row in rows for v in row))
            rows = [[v.numerator * (den // v.denominator) for v in row] for row in rows]
        ints = np.array(rows, dtype=np.int64 if field.char else object)
        return cls(field, ints.reshape(len(rows), n_cols), den)

    @property
    def n_rows(self) -> int:
        return self.ints.shape[0]

    @property
    def n_cols(self) -> int:
        return self.ints.shape[1]

    def __eq__(self, other):
        return (isinstance(other, type(self)) and self.field == other.field
                and self.den == other.den and bool(np.array_equal(self.ints, other.ints)))

    def at(self, r: int, c: int) -> Scalar:
        return Scalar(self.field, Fraction(int(self.ints[r, c]), self.den))

    def row(self, r: int) -> tuple:
        return tuple(self.at(r, c) for c in range(self.n_cols))

    def raw_rows(self) -> list:
        """Rows of raw values (ints for GF(p), Fractions for Q), as tuples."""
        rows, den = self.ints.tolist(), self.den
        if self.field.char:
            return list(map(tuple, rows))
        return [tuple(Fraction(v, den) for v in row) for row in rows]

    @property
    def entries(self) -> tuple:
        """The raw values, row-major."""
        return tuple(v for row in self.raw_rows() for v in row)

    def principal_submatrix(self, s: int) -> "DenseMatrix":
        """Top-left s x s block."""
        if not 0 <= s <= min(self.n_rows, self.n_cols):
            raise MatrixShapeError(f"principal size {s} out of range")
        return DenseMatrix(self.field, self.ints[:s, :s], self.den)


def _check_weights(t: Tournament, weights: WeightSeq):
    if len(weights) != t.n:
        raise LengthMismatchError(f"{len(weights)} weights for n={t.n}")


def tournament_matrix(t: Tournament, weights: WeightSeq) -> DenseMatrix:
    """Symmetric zero-diagonal matrix with entry (i, j) = the winner's weight."""
    _check_weights(t, weights)
    w = DenseMatrix.from_rows(weights.field, [weights.values])
    return DenseMatrix(weights.field, tournament_stack(code_bits(t.n, [t.code]), w.ints)[0], w.den)


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
    return tournament_matrix(Tournament(len(weights), 0), weights)


def ratio_matrix(t: Tournament, weights: WeightSeq) -> DenseMatrix:
    """Entry (i, j) = winner's weight divided by loser's; zero diagonal, symmetric.

    The winners' stack of the cleared weights a times the losers' stack (the
    reversal's winners) of their inverses: the inverse residues over GF(p),
    over Q lcm(a) / a_j over the denominator lcm(a).
    """
    _check_weights(t, weights)
    p, bits = weights.field.char, code_bits(t.n, [t.code])
    a = weights.int_row()[0].tolist()
    den = 1 if p else lcm(*a)
    inv = [pow(v, -1, p) for v in a] if p else [den // v for v in a]
    big = max(map(abs, a)) * max(map(abs, inv)) >= 2**63  # then multiply Python ints
    rows = np.array([a, inv], dtype=object if big else np.int64)
    out = tournament_stack(bits, rows[:1])[0] * tournament_stack(1 - bits, rows[1:])[0]
    return DenseMatrix(weights.field, out % p if p else out, den)


def in_matrix_family(m: DenseMatrix, weights: WeightSeq) -> bool:
    """True iff m is symmetric, zero-diagonal, with entry (i,j) in {a_i, a_j}."""
    n, x = len(weights), m.ints
    if m.field != weights.field or x.shape != (n, n) or (x != x.T).any() or x.diagonal().any():
        return False
    w = DenseMatrix.from_rows(weights.field, [weights.values])
    x, a = x.astype(object) * w.den, w.ints.astype(object) * m.den  # on one scale
    return bool(((x == a) | (x == a.T) | np.eye(n, dtype=bool)).all())


def matrix_to_csv(m: DenseMatrix) -> str:
    """Serialize: header "field=<spec>,rows=<r>,cols=<c>", then entry rows."""
    lines = [f"field={format_field(m.field)},rows={m.n_rows},cols={m.n_cols}"]
    rows, den = m.ints.tolist(), m.den
    if den == 1:  # a row of ints prints as its list's str less the brackets and spaces
        lines += [str(row)[1:-1].replace(" ", "") for row in rows]
    else:  # each distinct entry's Fraction is made and printed once
        text = {v: str(Fraction(v, den)) for v in np.unique(m.ints).tolist()}
        lines += [",".join(map(text.__getitem__, row)) for row in rows]
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
    value = cache(lambda c: parse_scalar(field, c).value)  # each distinct cell text once
    for ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != n_cols:
            raise MatrixParseError(f"expected {n_cols} cols in {ln!r}")
        rows.append(list(map(value, cells)))
    if n_rows == 0:
        return DenseMatrix(field, np.zeros((0, n_cols), np.int64))
    return DenseMatrix.from_rows(field, rows)
