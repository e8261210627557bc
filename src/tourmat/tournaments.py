"""Bit-packed tournaments on the vertex set {1, ..., n}.

Every unordered pair {i, j} with i < j gets one bit: bit value 1 means the
edge is directed i -> j, 0 means j -> i.  Pair bits are laid out in
lexicographic pair order (1,2), (1,3), ..., (1,n), (2,3), ..., so a
tournament is just n plus an integer code in [0, 2**(n(n-1)/2)).  The code
doubles as the enumeration counter, which makes exhaustive-search sharding a
plain range split.  `Tournament.bits()` and `from_bits` own that layout: the
bit text's character k is pair k's bit, and every per-pair walk (edges, the
constructions, the text grammar, the matrix builders) reads or writes that
text instead of shifting the code once per pair.  Sweeps take the same bits
as one array, one row per tournament: `pair_bits` for a code range and
`random_pair_bits` for a range of sample indices, both without per-code
objects.  `bit_rows` converts only named tournaments, such as the one a
permutation scan ranks against every batch of permuted weights.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .fields import NotPrimeError, is_prime
from .rng import ByteStream

MAX_N = 4096
MAX_ENUM_BITS = 63


class VertexCountError(ValueError):
    """Vertex count n outside 1..MAX_N."""


class InvalidPermutationError(ValueError):
    """Order argument is not a permutation of 1..n."""


class SelfLoopError(ValueError):
    """Edge endpoints coincide."""


class VertexRangeError(ValueError):
    """Vertex label outside 1..n."""


class TooLargeError(ValueError):
    """Exhaustive enumeration requested beyond the 63-bit code space."""


class ShardRangeError(ValueError):
    """Code range [start, end) not inside the code space of n vertices."""


class CodeRangeError(ValueError):
    """Tournament code outside 0..2**(n(n-1)/2) - 1."""


class TournamentParseError(ValueError):
    """Tournament text does not match "n=<n>:<bits>"."""


class BadCongruenceError(ValueError):
    """Quadratic-residue construction needs q = 3 (mod 4)."""


def n_pairs(n: int) -> int:
    return n * (n - 1) // 2


def pair_index(n: int, i: int, j: int) -> int:
    """Bit position of the pair {i, j}, 1 <= i < j <= n, lexicographic order."""
    return (i - 1) * n - i * (i + 1) // 2 + j - 1


@dataclass(frozen=True, slots=True)
class Tournament:
    """An orientation of all pairs on {1, ..., n}, packed into one integer."""

    n: int
    code: int

    def __post_init__(self):
        _check_n(self.n)
        if not 0 <= self.code < (1 << n_pairs(self.n)):
            raise CodeRangeError(f"code {self.code} out of range for n={self.n}")

    def _check_vertex(self, v: int):
        if not 1 <= v <= self.n:
            raise VertexRangeError(f"vertex {v} outside 1..{self.n}")

    def _pair_bit(self, i: int, j: int) -> int:
        """Bit position of the pair {i, j}, after checking both vertices."""
        if i == j:
            raise SelfLoopError(f"no edge from {i} to itself")
        self._check_vertex(i)
        self._check_vertex(j)
        return pair_index(self.n, min(i, j), max(i, j))

    def has_edge(self, i: int, j: int) -> bool:
        """True iff the edge between i and j is directed i -> j."""
        return (self.code >> self._pair_bit(i, j)) & 1 == (i < j)

    def reverse(self) -> "Tournament":
        """Flip every edge; an involution."""
        mask = (1 << n_pairs(self.n)) - 1
        return Tournament(self.n, self.code ^ mask)

    def flip_edge(self, i: int, j: int) -> "Tournament":
        """Flip the single edge between i and j; an involution."""
        return Tournament(self.n, self.code ^ 1 << self._pair_bit(i, j))

    def out_degree(self, v: int) -> int:
        """Number of vertices v beats, counted in one pass over bits()."""
        self._check_vertex(v)
        n, bits = self.n, self.bits()
        start = pair_index(n, v, v + 1)  # v's own row: pairs (v, j), j > v; "1" is a win
        return (bits.count("1", start, start + n - v)
                + sum(bits[pair_index(n, i, v)] == "0" for i in range(1, v)))

    def bits(self) -> str:
        """The pair bits as text: character k is "1" iff pair k's edge is i -> j."""
        return bin(self.code | 1 << n_pairs(self.n))[:2:-1]

    def edges(self):
        """Yield every directed edge as (winner, loser) in pair order."""
        bit = iter(self.bits())
        for i in range(1, self.n):
            for j in range(i + 1, self.n + 1):
                yield (i, j) if next(bit) == "1" else (j, i)


def from_bits(n: int, bits: str) -> Tournament:
    """The tournament on n vertices whose pair k has bit bits[k]; inverts bits()."""
    if len(bits) != n_pairs(n) or bits.strip("01"):
        raise TournamentParseError(
            f"need {n_pairs(n)} bits of 0/1 for n={n}, got {len(bits)} characters")
    return Tournament(n, int(bits[::-1] or "0", 2))


def _from_law(n: int, beats) -> Tournament:
    """The tournament where i -> j, for i < j, exactly when beats(i, j)."""
    return from_bits(n, "".join("1" if beats(i, j) else "0"
                                for i in range(1, n) for j in range(i + 1, n + 1)))


def transitive(n: int, order=None) -> Tournament:
    """The transitive tournament where earlier entries of `order` beat later ones.

    `order` is a permutation of 1..n (default natural order).  i -> j iff i
    appears before j in `order`.
    """
    if order is None:
        order = range(1, n + 1)
    order = tuple(order)
    if sorted(order) != list(range(1, n + 1)):
        raise InvalidPermutationError(f"{order!r} is not a permutation of 1..{n}")
    pos = {v: r for r, v in enumerate(order)}
    return _from_law(n, lambda i, j: pos[i] < pos[j])


def random_tournament(n: int, seed: int, index: int) -> Tournament:
    """A uniform tournament, fully determined by (seed, index, n).

    Each orientation bit is an independent fair coin from the SHA-256
    counter stream keyed by (seed, "tournament", index); repeat calls with
    the same triple are bit-identical regardless of worker scheduling.
    """
    _check_n(n)
    stream = ByteStream(seed, "tournament", index)
    return Tournament(n, stream.bits(n_pairs(n)))


def _check_n(n: int):
    if not 1 <= n <= MAX_N:
        raise VertexCountError(f"n must be in 1..{MAX_N}, got {n}")


def paley(q: int) -> Tournament:
    """Quadratic-residue tournament on q vertices, q prime, q = 3 (mod 4).

    Vertex v is identified with the residue v - 1; i -> j iff (j - i) mod q
    is a nonzero square.  q = 3 (mod 4) makes -1 a non-square, so exactly
    one direction wins each pair.
    """
    if not is_prime(q):
        raise NotPrimeError(f"{q} is not prime")
    if q % 4 != 3:
        raise BadCongruenceError(f"need q = 3 (mod 4), got q = {q}")
    squares = {pow(x, 2, q) for x in range(1, q)}
    return _from_law(q, lambda i, j: (j - i) % q in squares)


def code_range(n: int, start: int | None = None, end: int | None = None) -> tuple:
    """[start, end) defaulted to every code on n vertices, after checking that codes
    fit one machine word (every sweep's cap) and lie inside the code space."""
    m = n_pairs(n)
    if m > MAX_ENUM_BITS:
        raise TooLargeError(f"n={n} has {m} pair bits; enumeration capped at {MAX_ENUM_BITS}")
    total = 1 << m
    if start is None:
        start = 0
    if end is None:
        end = total
    if not 0 <= start <= end <= total:
        raise ShardRangeError(f"bad shard [{start}, {end}) for {total} codes")
    return start, end


def enumerate_all(n: int, start: int | None = None, end: int | None = None):
    """Yield all tournaments with code in [start, end), in increasing code order.

    The full range covers every tournament on n vertices exactly once.
    Requires n(n-1)/2 <= 63 so codes fit one machine word.
    """
    start, end = code_range(n, start, end)
    for code in range(start, end):
        yield Tournament(n, code)


def pair_bits(n: int, start: int, end: int) -> np.ndarray:
    """The pair bits of codes start..end-1 as a uint8 array of shape
    (end - start, n(n-1)/2).

    Entry [b, k] is (code >> k) & 1 for code start + b, the k-th character of
    bits(); pair k is the k-th pair of np.triu_indices(n, 1), vertices
    counted from 0.  Requires n(n-1)/2 <= 63, as enumerate_all does.
    """
    start, end = code_range(n, start, end)
    codes = np.arange(start, end, dtype=np.uint64)
    shifts = np.arange(n_pairs(n), dtype=np.uint64)
    return ((codes[:, None] >> shifts) & np.uint64(1)).astype(np.uint8)


def random_pair_bits(n: int, seed: int, start: int, end: int) -> np.ndarray:
    """The pair bits of random_tournament(n, seed, i) for i in [start, end), laid
    out as `pair_bits` lays out codes, read from the same stream bytes.

    A code is its stream's first n(n-1)/2 bits read big-endian, so pair k is
    unpacked bit n(n-1)/2 - 1 - k.
    """
    _check_n(n)
    m = n_pairs(n)
    size = -(-m // 8)
    indices = range(start, end)
    raw = b"".join(ByteStream(seed, "tournament", i).take_bytes(size) for i in indices)
    bits = np.unpackbits(np.frombuffer(raw, np.uint8).reshape(len(indices), size), axis=1, count=m)
    return bits[:, ::-1]


def bit_rows(tournaments) -> np.ndarray:
    """The pair bits of tournaments on one vertex count, laid out as `pair_bits`
    lays out codes: entry [b, k] is the k-th character of tournament b's bits()."""
    ts = list(tournaments)
    if len({t.n for t in ts}) != 1:
        raise ValueError("bit rows need a nonempty list of tournaments on one vertex count")
    text = "".join(t.bits() for t in ts).encode("ascii")
    return (np.frombuffer(text, dtype=np.uint8) - ord("0")).reshape(len(ts), n_pairs(ts[0].n))


_TOUR_RE = re.compile(r"n=(\d+):([01]*)")


def parse_tournament(text: str) -> Tournament:
    """Parse "n=<n>:<bitstring>"; bit k of the string is pair k's orientation."""
    m = _TOUR_RE.fullmatch(text.strip())
    if m is None:
        raise TournamentParseError(f"bad tournament text {text!r}")
    return from_bits(int(m.group(1)), m.group(2))


def format_tournament(t: Tournament) -> str:
    return f"n={t.n}:{t.bits()}"
