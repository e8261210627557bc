"""Structured experiment reports with byte-reproducible serialization.

A report is (experiment_id, parameters, records, summary).  JSON output is
sorted-key and contains nothing volatile, so a run is bit-for-bit
reproducible from its parameters and seed; wall time is kept on the object
for display but never serialized.  Records are elided from JSON above a
size threshold unless explicitly forced; CSV always carries the full
per-record table.

Records are a list of dicts, or for an exhaustive min-rank sweep a
`RecordTable`: a read-only sequence of the same dicts kept as columns (the
code range and an int8 rank array), which builds a dict only when one is
read, so an elided report never builds them.  `csv_chunks` yields the CSV
`CSV_CHUNK_ROWS` rows at a time and `to_csv` joins the chunks.  A table
builds each chunk in one bytearray (`RecordTable.csv_rows`): exact-width rows
of uint32 words from cached four-digit groups and per-rank ",rank,pass"
suffixes; a list of dicts is formatted cell by cell.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cache

import numpy as np

RECORD_ELIDE_THRESHOLD = 4096
CSV_CHUNK_ROWS = 2**16


class RecordTable(Sequence):
    """The records {"code", "rank", "pass"} of the codes lo, lo + 1, ... with
    the given ranks, where pass means rank >= need."""

    def __init__(self, lo: int, ranks, need: int):
        self.lo, self.ranks, self.need = lo, ranks.view(), need
        self.ranks.flags.writeable = False

    def __len__(self) -> int:
        return len(self.ranks)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        i = range(len(self))[i]
        r = int(self.ranks[i])
        return {"code": self.lo + i, "rank": r, "pass": r >= self.need}

    def csv_rows(self, a: int, b: int) -> str:
        """The CSV lines "code,rank,pass" of rows a..b-1, at least one, in one bytearray:
        per run of d-digit codes, rows d + (longest suffix) wide, whose uint32
        words take per 10,000 codes the shared high digits, the cached
        "0000".."9999" word of the low four, and the rank's NUL-padded
        ",rank,pass\\n".  Only a run whose suffixes differ in length has NULs."""
        ranks = self.ranks[a:b].astype(np.intp)
        first, last = self.lo + a, self.lo + a + len(ranks)
        (suffixes, lengths), digits = _suffixes(self.need), _digit_words()
        cuts = [first, *(10**d for d in range(len(str(first)), len(str(last - 1)))), last]
        runs, size = [], 0
        for d, (start, stop) in enumerate(zip(cuts, cuts[1:]), len(str(first))):
            lens = lengths[ranks[start - first:stop - first]]
            top = int(lens.max())
            runs.append((d, start, stop, top, lens.min() < top, size))
            size += (stop - start) * (d + top)
        text = bytearray(size)
        for d, start, stop, top, mixed, base in reversed(runs):  # a NUL drop moves only later runs
            r, width = ranks[start - first:stop - first], d + top
            for block in range(start // 10**4, (stop - 1) // 10**4 + 1):
                lo, hi = max(start, block * 10**4), min(stop, block * 10**4 + 10**4)
                row, n, code = base + (lo - start) * width, hi - lo, str(lo).encode()
                for k in range(0, d - 4, 4):  # high digits; the low word overwrites any past d - 4
                    _words(text, row + k, width, n)[:] = np.frombuffer(code, "<u4", 1, k).repeat(n)
                skip = max(4 - d, 0)  # below 1000 the word runs into the suffix, written next
                _words(text, row + d - 4 + skip, width, n)[:] = _words(
                    digits, 4 * (lo % 10**4) + skip, 4, n)
            for k in {0, 4, top - 4}:  # top is 8..11, so the last word overlaps the middle one
                _words(text, base + d + k, width, len(r))[:] = _words(suffixes, k, 12, 128)[r]
            if mixed:
                run = slice(base, base + len(r) * width)
                text[run] = text[run].translate(None, b"\0")
        return text.decode("ascii")


def _words(buffer, offset: int, stride: int, count: int):
    """count little-endian uint32 words of buffer, stride bytes apart from offset."""
    return np.ndarray(count, "<u4", buffer, offset, (stride,))


@cache
def _digit_words() -> bytes:
    """"0000".."9999": the four low digits of every code, one word each."""
    return "".join(f"{i:04}" for i in range(10**4)).encode()


@cache
def _suffixes(need: int):
    """Each int8 rank's ",rank,pass\\n" suffix NUL-padded to 12 bytes, and its length."""
    text = [f",{r},{'true' if r >= need else 'false'}\n" for r in range(128)]
    return "".join(t.ljust(12, "\0") for t in text).encode(), np.int8([len(t) for t in text])


@dataclass
class Report:
    experiment_id: str
    parameters: dict
    records: Sequence = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    wall_time_s: float = 0.0

    @property
    def passed(self) -> bool:
        return self.summary.get("violations", 0) == 0

    def to_json(self, full_records: bool = False) -> str:
        doc = {
            "experiment_id": self.experiment_id,
            "parameters": self.parameters,
            "summary": self.summary,
        }
        if full_records or len(self.records) <= RECORD_ELIDE_THRESHOLD:
            doc["records"] = list(self.records)
        else:
            doc["records_elided"] = len(self.records)
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def csv_chunks(self):
        """The CSV text in pieces: the header line, then the rows in chunks of
        CSV_CHUNK_ROWS."""
        if not self.records:
            yield "# no records\n"
            return
        header = list(self.records[0])
        yield ",".join(header) + "\n"
        for a in range(0, len(self.records), CSV_CHUNK_ROWS):
            b = a + CSV_CHUNK_ROWS
            if isinstance(self.records, RecordTable):
                yield self.records.csv_rows(a, b)
            else:
                columns = [[_cell(rec.get(k)) for rec in self.records[a:b]] for k in header]
                yield "\n".join(map(",".join, zip(*columns))) + "\n"

    def to_csv(self) -> str:
        return "".join(self.csv_chunks())


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (list, tuple)):
        return ";".join(str(x) for x in v)
    return str(v)
