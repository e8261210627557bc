"""Bit-packed tournaments on the vertex set {1, ..., n}.

Every unordered pair {i, j} with i < j gets one bit: bit value 1 means the
edge is directed i -> j, 0 means j -> i.  Pair k is the k-th pair in
lexicographic order (1,2), (1,3), ..., (1,n), (2,3), ..., and a tournament is
n plus the integer code in [0, 2**(n(n-1)/2)) whose bit k is pair k's bit.
The code doubles as the enumeration counter, so exhaustive-search sharding is
a plain range split of `code_range`.  The codec `code_bits` / `bit_codes` owns
the layout: it turns codes of any size into pair-bit arrays, one uint8 row per
tournament, and back, for the builders, the sweeps, the constructions and
`random_pair_bits`; `pair_bits` is its vectorized twin for a code range.
`Tournament.bits()` and `from_bits` are the text grammar only.
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

    def reverse(self) -> "Tournament":
        """Flip every edge; an involution."""
        mask = (1 << n_pairs(self.n)) - 1
        return Tournament(self.n, self.code ^ mask)

    def out_degree(self, v: int) -> int:
        """Number of vertices v beats, counted in one pass over bits()."""
        if not 1 <= v <= self.n:
            raise VertexRangeError(f"vertex {v} outside 1..{self.n}")
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


def transitive(n: int, order=None) -> Tournament:
    """The transitive tournament where earlier entries of `order` beat later ones.

    `order` is a permutation of 1..n (default natural order).  i -> j iff i
    appears before j in `order`.
    """
    _check_n(n)
    if order is None:
        order = range(1, n + 1)
    order = tuple(order)
    if sorted(order) != list(range(1, n + 1)):
        raise InvalidPermutationError(f"{order!r} is not a permutation of 1..{n}")
    place = np.argsort(order)  # place[v - 1] is vertex v's index in order
    rows, cols = np.triu_indices(n, 1)
    return Tournament(n, bit_codes(place[None, rows] < place[None, cols])[0])


def random_tournament(n: int, seed: int, index: int) -> Tournament:
    """A uniform tournament, fully determined by (seed, index, n).

    Each orientation bit is an independent fair coin from the SHA-256
    counter stream keyed by (seed, "tournament", index); repeat calls with
    the same triple are bit-identical regardless of worker scheduling.
    """
    _check_n(n)
    return Tournament(n, _sample_code(n, seed, index))


def _sample_code(n: int, seed: int, index: int) -> int:
    """The code of random_tournament(n, seed, index), read from its stream."""
    return ByteStream(seed, "tournament", index).bits(n_pairs(n))


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
    _check_n(q)
    rows, cols = np.triu_indices(q, 1)
    # i -> j iff j - i, which is cols - rows in 1..q-1, is a square mod q
    return Tournament(q, bit_codes(np.isin(cols - rows, np.arange(1, q) ** 2 % q)[None])[0])


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


def pair_bits(n: int, start: int, end: int) -> np.ndarray:
    """The pair bits of codes start..end-1 as a uint8 array of shape
    (end - start, n(n-1)/2).

    Entry [b, k] is (code >> k) & 1 for code start + b, the k-th character of
    bits(); pair k is the k-th pair of np.triu_indices(n, 1), vertices
    counted from 0.  Requires n(n-1)/2 <= 63, as `code_range` checks.
    """
    start, end = code_range(n, start, end)
    codes = np.arange(start, end, dtype=np.uint64)
    shifts = np.arange(n_pairs(n), dtype=np.uint64)
    return ((codes[:, None] >> shifts) & np.uint64(1)).astype(np.uint8)


def random_pair_bits(n: int, seed: int, start: int, end: int) -> np.ndarray:
    """The pair bits of random_tournament(n, seed, i) for i in [start, end),
    laid out as `pair_bits` lays out codes."""
    _check_n(n)
    return code_bits(n, [_sample_code(n, seed, i) for i in range(start, end)])


def code_bits(n: int, codes) -> np.ndarray:
    """The pair bits of a list of codes of any size on n vertices: entry [b, k]
    of the (len(codes), n(n-1)/2) uint8 array is bit k of codes[b]."""
    size = -(-n_pairs(n) // 8)
    raw = b"".join(code.to_bytes(size, "little") for code in codes)
    return np.unpackbits(np.frombuffer(raw, np.uint8).reshape(len(codes), size), axis=1,
                         count=n_pairs(n), bitorder="little")


def bit_codes(bits) -> list:
    """The code of each pair-bit row as a Python int; inverts `code_bits`."""
    return [int.from_bytes(row.tobytes(), "little")
            for row in np.packbits(bits, axis=1, bitorder="little")]


_TOUR_RE = re.compile(r"n=(\d+):([01]*)")


def parse_tournament(text: str) -> Tournament:
    """Parse "n=<n>:<bitstring>"; bit k of the string is pair k's orientation."""
    m = _TOUR_RE.fullmatch(text.strip())
    if m is None:
        raise TournamentParseError(f"bad tournament text {text!r}")
    return from_bits(int(m.group(1)), m.group(2))


def format_tournament(t: Tournament) -> str:
    return f"n={t.n}:{t.bits()}"
