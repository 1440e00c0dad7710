"""Digest guard for subgroup lattice builds.

    PYTHONPATH=src python tests/lattice_digests.py            # check
    PYTHONPATH=src python tests/lattice_digests.py --write    # regenerate

For every ``extended`` corpus group of order at most 600, one sha256 over
the lattice's node masks, generator index tuples (``_gen_idxs``, printed as
``int_generators``) and conjugation orbits.  A change to the build may
reorder nothing: the check compares every digest with
``tests/golden/lattice-digests.json``, prints the groups that differ and
exits 1 on any difference, 0 otherwise.  The file name keeps pytest from
collecting it; it takes tens of seconds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import permgroups as pg

GOLDEN = Path(__file__).resolve().parent / "golden" / "lattice-digests.json"
MAX_ORDER = 600


def lattice_digest(G: pg.PermGroup) -> str:
    lattice = pg.SubgroupLattice(G)
    state = (lattice._masks, lattice._gen_idxs, lattice.conjugation_orbits)
    return hashlib.sha256(repr(state).encode()).hexdigest()


def digests() -> dict[str, str]:
    return {G.name: lattice_digest(G) for G in pg.extended_corpus() if G.order <= MAX_ORDER}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help=f"rewrite {GOLDEN.name}")
    args = parser.parse_args(argv)
    start = time.perf_counter()
    found = digests()
    elapsed = time.perf_counter() - start
    if args.write:
        GOLDEN.write_text(json.dumps(found, indent=1) + "\n")
        print(f"wrote {len(found)} digests in {elapsed:.1f} s")
        return 0
    expected = json.loads(GOLDEN.read_text())
    differ = sorted(set(found) ^ set(expected) | {k for k in found if found[k] != expected.get(k)})
    for name in differ:
        print(f"differs: {name}")
    print(f"{len(found)} lattices, {len(differ)} differ, {elapsed:.1f} s")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
