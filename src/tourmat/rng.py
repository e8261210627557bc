"""Deterministic counter-based randomness.

Every random draw in this package comes from a :class:`ByteStream`: SHA-256
in counter mode, keyed by a 64-bit seed plus a tuple of labels (strings or
integers).  The stream for a given (seed, labels) is fixed forever, does not
depend on draw order elsewhere, and is identical on every platform and
worker schedule.  This is the package's PRNG contract: per-sample streams
are keyed by (seed, sample index), so sharding work across processes cannot
change any result.
"""

from __future__ import annotations

import hashlib


class ByteStream:
    """SHA-256 counter-mode stream keyed by (seed, *labels)."""

    def __init__(self, seed: int, *labels):
        key = "|".join([str(int(seed))] + [str(l) for l in labels])
        self._key = key.encode("ascii")
        self._counter = 0
        self._buf = b""  # fewer than 32 unread bytes between calls

    def take_bytes(self, k: int) -> bytes:
        short = k - len(self._buf)
        if short > 0:
            # join every missing digest at once, so a draw costs time linear in k
            start = self._counter
            self._counter += -(-short // 32)
            self._buf += b"".join(
                hashlib.sha256(self._key + b"#" + str(c).encode("ascii")).digest()
                for c in range(start, self._counter))
        out, self._buf = self._buf[:k], self._buf[k:]
        return out

    def bits(self, k: int) -> int:
        """An integer with k uniform bits (0 <= result < 2**k)."""
        if k == 0:
            return 0
        nbytes = (k + 7) // 8
        raw = int.from_bytes(self.take_bytes(nbytes), "big")
        return raw >> (8 * nbytes - k)

    def randrange(self, bound: int) -> int:
        """Uniform integer in [0, bound), by rejection on 64-bit draws."""
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        limit = (2**64 // bound) * bound
        while True:
            r = self.bits(64)
            if r < limit:
                return r % bound

    def shuffled(self, items) -> list:
        """A Fisher-Yates shuffle of items, consuming the stream."""
        out = list(items)
        for i in range(len(out) - 1, 0, -1):
            j = self.randrange(i + 1)
            out[i], out[j] = out[j], out[i]
        return out
