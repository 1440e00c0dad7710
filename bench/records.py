"""Per-group correctness check against the golden records in ``bench/golden/``."""

from __future__ import annotations

import json
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def load_golden(workload: str) -> dict[str, dict]:
    """group_id -> expected record (``--no-timings`` form)."""
    golden = {}
    for line in (GOLDEN_DIR / f"{workload}.jsonl").read_text().splitlines():
        record = json.loads(line)
        golden[record["group_id"]] = record
    return golden


def parse_records(text: str) -> dict[str, dict]:
    """group_id -> record for every JSON object line; other lines are skipped."""
    records = {}
    for line in text.splitlines():
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(record, dict) and "group_id" in record:
            records[record["group_id"]] = record
    return records


def failed_groups(records: dict[str, dict], group_ids: list[str],
                  golden: dict[str, dict]) -> list[str]:
    """The expected groups whose record is missing, carries an ``error``, has
    ``equal`` false, or differs from the golden record once ``millis`` is
    removed."""
    failed = []
    for gid in group_ids:
        record = records.get(gid)
        if record is None or "error" in record or record.get("equal") is not True:
            failed.append(gid)
            continue
        stripped = {k: v for k, v in record.items() if k != "millis"}
        if stripped != golden.get(gid):
            failed.append(gid)
    return failed
