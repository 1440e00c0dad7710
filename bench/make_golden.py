"""Regenerate the golden records the benchmark checks its outputs against.

Runs each workload's suite through the CLI on every group of its pool
(every ``standard`` group for the ``std-*`` suites, every ext pool group for
``ext-baer``), one fresh process per group, as the benchmark runs them.
Writes to ``bench/golden/`` one JSONL file per workload with the records in
``--no-timings`` form.  It leaves ``bench/ext_costs.json``, the ext-baer
sampler's fixed input, alone.  From the repository root:

    python3 bench/make_golden.py

Only run it at a commit whose outputs are trusted; the benchmark treats any
difference from these files as a failed group.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from inputs import WORKLOADS, pool, write_corpus  # noqa: E402
from records import GOLDEN_DIR  # noqa: E402
from run import WORK, run_cli  # noqa: E402


def run_one(suite: str, group) -> dict:
    """The record of one CLI process on one group."""
    work = WORK / "make_golden"
    spec = write_corpus([group], work)
    result = run_cli(suite, spec, work)
    if result["status"] != 0:
        stderr = (work / "cli.stderr").read_text()
        raise SystemExit(f"{suite} {group.name}: exit {result['status']}\n{stderr}")
    (record,) = [json.loads(line) for line in result["stdout"].splitlines()]
    return record


def main() -> int:
    for workload, (suite, pool_name) in WORKLOADS.items():
        records = [run_one(suite, G) for G in sorted(pool(pool_name), key=lambda G: G.name)]
        for record in records:
            del record["millis"]
        lines = [json.dumps(r, sort_keys=True) for r in records]
        (GOLDEN_DIR / f"{workload}.jsonl").write_text("\n".join(lines) + "\n")
        print(f"{workload}: {len(records)} records")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
