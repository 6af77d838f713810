"""Tabular result records and their CSV serialization.

One row per atomic result, keyed by (run_id, xi label, t, realization,
kind).  The header carries a schema version; wall_time_s and timestamp
are the only volatile columns, and ``canonical_csv_bytes`` strips them
so reruns can be compared byte for byte.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, fields

CSV_SCHEMA_VERSION = 1
VOLATILE_COLUMNS = ("wall_time_s", "timestamp")


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        return repr(x)  # shortest round-trip form
    return str(x)


@dataclass
class ResultRecord:
    run_id: str
    command: str
    xi_label: str
    t: float = None
    realization: int = None
    kind: str = "value"
    value: float = None
    std: float = None
    ci_half: float = None
    gap: float = None
    iterations: int = None
    flags: str = ""
    wall_time_s: float = None
    timestamp: str = ""

    def row(self) -> list:
        return [_fmt(CSV_SCHEMA_VERSION)] + [_fmt(getattr(self, c)) for c in CSV_COLUMNS[1:]]


# the CSV columns: the schema version, then the record's fields in order
CSV_COLUMNS = ("schema_version",) + tuple(f.name for f in fields(ResultRecord))


def write_csv(path, records) -> None:
    """Write records sorted by their natural key; single-writer only."""
    recs = sorted(records, key=lambda r: (r.xi_label, r.t if r.t is not None
                                          else -1.0, r.realization if
                                          r.realization is not None else -1,
                                          r.kind))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_COLUMNS)
        for r in recs:
            w.writerow(r.row())


def canonical_csv_bytes(path) -> bytes:
    """CSV content with volatile columns blanked, for byte comparison."""
    drop = [CSV_COLUMNS.index(c) for c in VOLATILE_COLUMNS]
    out = io.StringIO()
    w = csv.writer(out)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for row in csv.reader(fh):
            for i in drop:
                if i < len(row):
                    row[i] = ""
            w.writerow(row)
    return out.getvalue().encode("utf-8")


def run_id_for(canonical_cfg: dict, seed: int) -> str:
    """Stable 16-hex id from the canonical config and master seed."""
    blob = json.dumps({"cfg": canonical_cfg, "seed": seed}, sort_keys=True,
                      separators=(",", ":"), default=str)
    return hashlib.blake2s(blob.encode("utf-8"), digest_size=8).hexdigest()
