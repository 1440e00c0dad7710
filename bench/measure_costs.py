"""Re-measure ``bench/ext_costs.json``, the ext-baer sampler's fixed input.

Runs ``verify-baer`` through the CLI on every ext pool group, one fresh
process per group, and writes each group's wall time in reference seconds
(``reference.py``).  New costs redraw every ext-baer sample, so runs made
before and after can no longer be compared: re-measure them only in a change
of the benchmark of its own, and measure its baseline again.  From the
repository root:

    python3 bench/measure_costs.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from inputs import EXT_COSTS, WORKLOADS, ext_pool, write_corpus  # noqa: E402
from run import WORK, pin_to_one_cpu, run_cli  # noqa: E402


def main() -> int:
    suite, _ = WORKLOADS["ext-baer"]
    work = WORK / "measure_costs"
    pin_to_one_cpu()
    costs = {}
    for group in sorted(ext_pool(), key=lambda G: G.name):
        result = run_cli(suite, write_corpus([group], work), work)
        if result["status"] != 0:
            stderr = (work / "cli.stderr").read_text()
            raise SystemExit(f"{suite} {group.name}: exit {result['status']}\n{stderr}")
        costs[group.name] = round(result["wall_s"], 4)
    EXT_COSTS.write_text(json.dumps(costs, indent=1, sort_keys=True) + "\n")
    print(f"{len(costs)} groups, {sum(costs.values()):.1f} reference seconds")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
