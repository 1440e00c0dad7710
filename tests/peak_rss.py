"""Run a command and write its peak resident set size to a file.

    python tests/peak_rss.py PEAK_FILE COMMAND [ARG ...]

The command inherits standard input, output and error.  PEAK_FILE gets the
largest peak RSS of the command's process tree in MB (``ru_maxrss`` of the
waited-for children, which Linux reports in KiB), and this script exits with
the command's status (128 + N when signal N ended it, as a shell reports).
"""

from __future__ import annotations

import resource
import subprocess
import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    peak_file, *command = argv
    status = subprocess.run(command).returncode
    kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    Path(peak_file).write_text(f"{kib / 1024:.1f}\n")
    return status if status >= 0 else 128 - status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
