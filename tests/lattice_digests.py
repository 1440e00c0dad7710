"""Digest guard for subgroup lattice builds.

    PYTHONPATH=src python tests/lattice_digests.py            # check
    PYTHONPATH=src python tests/lattice_digests.py --write    # regenerate

For every ``extended`` corpus group of order at most 600, one sha256 over
the lattice's node masks, generator index tuples (``_gen_idxs``, printed as
``int_generators``) and conjugation orbits, for the full lattice
(``all_subgroups``, in ``tests/golden/lattice-digests.json``) and for the
nilpotent build behind ``verify-baer`` (``nilpotent_subgroups``, in
``tests/golden/nilpotent-digests.json``).  A change to either build may
reorder nothing: the check compares every digest with its golden file,
prints the builds that differ and exits 1 on any difference, 0 otherwise.
The file name keeps pytest from collecting it; it takes tens of seconds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import permgroups as pg

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
BUILDS = {  # golden file -> lattice build
    GOLDEN_DIR / "lattice-digests.json": pg.all_subgroups,
    GOLDEN_DIR / "nilpotent-digests.json": pg.nilpotent_subgroups,
}
MAX_ORDER = 600


def lattice_digest(lattice: pg.SubgroupLattice) -> str:
    state = (lattice._masks, lattice._gen_idxs, lattice.conjugation_orbits)
    return hashlib.sha256(repr(state).encode()).hexdigest()


def digests() -> dict[Path, dict[str, str]]:
    found: dict[Path, dict[str, str]] = {golden: {} for golden in BUILDS}
    for G in pg.extended_corpus():
        if G.order <= MAX_ORDER:
            for golden, build in BUILDS.items():
                found[golden][G.name] = lattice_digest(build(G))
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help="rewrite the golden files")
    args = parser.parse_args(argv)
    start = time.perf_counter()
    found = digests()
    elapsed = time.perf_counter() - start
    if args.write:
        for golden, builds in found.items():
            golden.write_text(json.dumps(builds, indent=1) + "\n")
            print(f"wrote {len(builds)} digests to {golden.name}")
        print(f"{elapsed:.1f} s")
        return 0
    total = differ = 0
    for golden, builds in found.items():
        expected = json.loads(golden.read_text())
        names = sorted(set(builds) ^ set(expected)
                       | {k for k in builds if builds[k] != expected.get(k)})
        for name in names:
            print(f"differs: {name} ({golden.name})")
        total, differ = total + len(builds), differ + len(names)
    print(f"{total} lattices, {differ} differ, {elapsed:.1f} s")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
