"""The seeded input generator."""

import json

import pytest

import inputs
from permgroups.corpus import standard_corpus


def _written(workload, seed, directory):
    spec = inputs.write_corpus(inputs.choose(workload, seed), directory)
    return {p.name: p.read_bytes() for p in sorted(spec.parent.iterdir())}, spec


@pytest.mark.parametrize("workload", sorted(inputs.WORKLOADS))
def test_same_seed_gives_identical_files(workload, tmp_path):
    first, _ = _written(workload, 7, tmp_path / "a")
    second, _ = _written(workload, 7, tmp_path / "b")
    assert first == second


@pytest.mark.parametrize("workload", sorted(inputs.WORKLOADS))
def test_different_seeds_give_different_inputs(workload):
    picks = {tuple(G.name for G in inputs.choose(workload, seed)) for seed in range(5)}
    assert len(picks) == 5


def test_std_workloads_shuffle_the_whole_standard_corpus():
    names = sorted(G.name for G in standard_corpus())
    for workload in ("std-corollary", "std-remark4"):
        assert sorted(G.name for G in inputs.choose(workload, 3)) == names


def test_ext_pool_and_sample():
    std_names = {G.name for G in standard_corpus()}
    pool = inputs.ext_pool()
    assert len(pool) == 201
    assert all(100 < G.order <= 600 and G.name not in std_names for G in pool)
    samples = [inputs.choose("ext-baer", seed) for seed in range(5)]
    assert len({tuple(G.name for G in s) for s in samples}) == 5
    cost = inputs.ext_costs()
    for sample in samples:
        assert len({G.name for G in sample}) == inputs.EXT_SAMPLE
        total = sum(cost[G.name] for G in sample)
        assert abs(total - inputs.EXT_TARGET_S) <= inputs.EXT_TOLERANCE * inputs.EXT_TARGET_S


def test_spec_ids_are_group_names_and_files_round_trip(tmp_path):
    from permgroups.cli import parse_group_file

    groups = inputs.choose("ext-baer", 1)
    spec = inputs.write_corpus(groups, tmp_path)
    entries = json.loads(spec.read_text())
    assert [e["id"] for e in entries] == [G.name for G in groups]
    for entry, G in zip(entries, groups):
        again = parse_group_file((tmp_path / entry["path"]).read_text())
        assert again.generators == G.generators
