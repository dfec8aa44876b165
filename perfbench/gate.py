"""Correctness gate for one rep's ``records.csv`` and ``aggregates.csv``.

Checked on every rep: one record per (gap, imputer), every success record
finite in all four metrics, and aggregate counts that add up to the success
records of each imputer.  The caller also requires every rep of a run to be
byte-identical to the first, and at full size and the seed recorded in
``reference.json`` the digests must equal the ones recorded there.  Reads
the CSVs with the standard library only, so the check does not rest on the
code it checks.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"


@dataclass
class RepCheck:
    digests: tuple[str, str]
    ok_jobs: int
    failed_jobs: int
    problems: list[str]


def _finite(cell: str) -> bool:
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return False


def check_rep(records_path: Path, aggregates_path: Path,
              n_gaps: int, n_imputers: int) -> RepCheck:
    problems = []
    records_bytes = records_path.read_bytes()
    aggregates_bytes = aggregates_path.read_bytes()
    digests = (hashlib.sha256(records_bytes).hexdigest(),
               hashlib.sha256(aggregates_bytes).hexdigest())

    rows = list(csv.DictReader(records_bytes.decode("utf-8").splitlines()))
    if len(rows) != n_gaps * n_imputers:
        problems.append(f"{len(rows)} records, expected {n_gaps} gaps x {n_imputers} imputers")
    if len({r["gap_id"] for r in rows}) != n_gaps:
        problems.append("records do not cover every gap")
    ok = Counter()
    failed = 0
    for row in rows:
        if row["error"]:
            failed += 1
        elif all(_finite(row[m]) for m in ("wd", "jsd", "rmse", "mae")):
            ok[row["imputer_id"]] += 1
        else:
            problems.append(f"non-finite success record {row['gap_id']}/{row['imputer_id']}")
    if len({r["imputer_id"] for r in rows}) != n_imputers:
        problems.append("records do not cover every imputer")

    aggregated = Counter()
    for row in csv.DictReader(aggregates_bytes.decode("utf-8").splitlines()):
        aggregated[row["imputer_id"]] += int(row["n"])
    if aggregated != ok:
        problems.append("aggregate counts disagree with the success records")
    return RepCheck(digests, sum(ok.values()), failed, problems)


def reference_digests(workload: str) -> dict:
    """Digests of the full-size workload at the seed recorded with them."""
    return json.loads(REFERENCE.read_text(encoding="utf-8"))[workload]
