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
builds each chunk as bytes in numpy (`RecordTable.csv_rows`): the digits of
the consecutive codes beside a per-rank ",rank,pass" suffix; a list of
dicts is formatted cell by cell.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass, field

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
        """The CSV lines "code,rank,pass" of rows a..b-1, built as one (rows,
        bytes) uint8 array: the codes' decimal digits, with leading zeros NUL,
        beside each rank's NUL-padded ",rank,pass\\n" suffix; dropping the NULs
        leaves the text.  Digit j of a code is q_j - 10 q_(j-1) for the floor
        quotients q_j of the code by powers of ten (numpy's floor division runs
        far faster than its remainder)."""
        ranks = self.ranks[a:b]
        first = self.lo + a
        width = len(str(first + len(ranks) - 1))  # codes < 2**63, so int64 holds them
        text = bytearray(len(ranks) * (width + 11))
        rows = np.frombuffer(text, dtype=np.uint8).reshape(len(ranks), width + 11)
        digit, high = np.empty(len(ranks), dtype=np.uint8), 0
        for j in range(width):
            q = np.arange(first, first + len(ranks), dtype=np.int64) // 10 ** (width - 1 - j)
            rows[:, j] = np.subtract(q, 10 * high - ord("0"), out=digit, casting="unsafe")
            high = q
        for j in range(width - 1):  # the codes are ascending, so a leading zero is a prefix
            rows[:max(0, 10 ** (width - 1 - j) - first), j] = 0
        suffixes = np.array([f",{r},{'true' if r >= self.need else 'false'}\n"
                             for r in range(128)], dtype="S11")  # every int8 rank
        rows[:, width:].view("S11")[:, 0] = suffixes[ranks]
        return text.translate(None, b"\0").decode("ascii")


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
