"""Seeded inputs for the suite benchmark.

A workload names one CLI suite and one group pool.  The seed picks the
groups and their order; the program under test sees only the files written
here: one ``.grp`` file per group (``permgroups.cli.format_group``) and a
JSON corpus spec whose ids are the group names.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from permgroups.cli import format_group
from permgroups.corpus import extended_corpus, standard_corpus
from permgroups.groups import PermGroup

# Seconds per ext pool group of verify-baer, measured once at the seed commit.
# A fixed input of the sampler: changing it redraws every ext-baer sample.
EXT_COSTS = Path(__file__).resolve().parent / "ext_costs.json"

# workload -> (CLI suite, pool name)
WORKLOADS = {
    "std-corollary": ("verify-corollary", "standard"),
    "std-remark4": ("verify-remark4", "standard"),
    "ext-baer": ("verify-baer", "ext"),
}

# An ext-baer sample takes one group from each of EXT_SAMPLE order strata
# of the pool (sorted by order, cut into near-equal parts).  Per-group cost
# is heavy-tailed (0.12 s to 14 s), so the draw is repeated until the groups'
# reference costs (bench/ext_costs.json, reference seconds of a one-group CLI
# run) sum to within EXT_TOLERANCE of EXT_TARGET_S: every seed then asks for
# about the same work.  Groups too heavy to fit the target next to nine
# others never appear: 6 of the 201, of 5.7 s to 13.8 s each.
EXT_SAMPLE = 10
EXT_TARGET_S = 6.0
EXT_TOLERANCE = 0.02
EXT_MIN_ORDER = 100  # exclusive
EXT_MAX_ORDER = 600  # inclusive


def ext_pool() -> list[PermGroup]:
    """Direct products of ``extended`` outside ``standard``, 100 < order <= 600."""
    std_names = {G.name for G in standard_corpus()}
    return [
        G for G in extended_corpus()
        if G.name not in std_names and EXT_MIN_ORDER < G.order <= EXT_MAX_ORDER
    ]


def pool(name: str) -> list[PermGroup]:
    return standard_corpus() if name == "standard" else ext_pool()


def ext_costs() -> dict[str, float]:
    """Reference seconds per ext pool group (``ext_costs.json``)."""
    return json.loads(EXT_COSTS.read_text())


def balanced_sample(groups: list[PermGroup], k: int, cost: dict[str, float],
                    target: float, tolerance: float, rng: random.Random,
                    max_draws: int = 100_000) -> list[PermGroup]:
    """One group from each of k order strata whose costs sum to within
    ``tolerance * target`` of ``target``, returned in a seeded order."""
    ranked = sorted(groups, key=lambda G: (G.order, G.name))
    bounds = [len(ranked) * i // k for i in range(k + 1)]
    strata = [ranked[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    for _ in range(max_draws):
        picked = [rng.choice(stratum) for stratum in strata]
        if abs(sum(cost[G.name] for G in picked) - target) <= tolerance * target:
            rng.shuffle(picked)
            return picked
    raise RuntimeError(f"no sample of {k} groups costs {target} s within {tolerance:.0%}")


def choose(workload: str, seed: int) -> list[PermGroup]:
    """The groups a workload runs for a seed, in the order the suite sees them."""
    _, pool_name = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    groups = pool(pool_name)
    if pool_name == "ext":
        return balanced_sample(groups, EXT_SAMPLE, ext_costs(),
                               EXT_TARGET_S, EXT_TOLERANCE, rng)
    rng.shuffle(groups)
    return groups


def write_corpus(groups: list[PermGroup], directory: Path) -> Path:
    """Write one .grp file per group and a corpus spec; return the spec path."""
    directory.mkdir(parents=True, exist_ok=True)
    entries = []
    for k, G in enumerate(groups):
        filename = f"g{k:03d}.grp"
        (directory / filename).write_text(format_group(G))
        entries.append({"id": G.name, "path": filename})
    spec = directory / "corpus.json"
    spec.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")
    return spec
