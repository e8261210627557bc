"""Structured experiment reports with byte-reproducible serialization.

A report is (experiment_id, parameters, records, summary).  JSON output is
sorted-key and contains nothing volatile, so a run is bit-for-bit
reproducible from its parameters and seed; wall time is kept on the object
for display but never serialized.  Records are elided from JSON above a
size threshold unless explicitly forced; CSV always carries the full
per-record table.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

RECORD_ELIDE_THRESHOLD = 4096


@dataclass
class Report:
    experiment_id: str
    parameters: dict
    records: list = field(default_factory=list)
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
            doc["records"] = self.records
        else:
            doc["records_elided"] = len(self.records)
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def to_csv(self) -> str:
        if not self.records:
            return "# no records\n"
        header = list(self.records[0].keys())
        lines = [",".join(header)]
        for rec in self.records:
            lines.append(",".join(_cell(rec.get(k)) for k in header))
        return "\n".join(lines) + "\n"


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (list, tuple)):
        return ";".join(str(x) for x in v)
    return str(v)
