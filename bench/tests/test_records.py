"""The golden records and the per-group check behind ``failed``."""

import json

import pytest

import inputs
from records import failed_groups, load_golden, parse_records


@pytest.mark.parametrize("workload", sorted(inputs.WORKLOADS))
def test_golden_covers_the_whole_pool(workload):
    _, pool_name = inputs.WORKLOADS[workload]
    names = {G.name for G in inputs.pool(pool_name)}
    golden = load_golden(workload)
    assert set(golden) == names
    assert all(r["equal"] is True and "millis" not in r for r in golden.values())


@pytest.fixture
def case():
    golden = load_golden("std-corollary")
    ids = ["S4", "A5xS3", "SL(2,5)"]
    records = {gid: dict(golden[gid], millis=12.5) for gid in ids}
    return golden, ids, records


def _text(records):
    return "\n".join(json.dumps(r) for r in records.values()) + "\n"


def test_untouched_records_pass(case):
    golden, ids, records = case
    assert failed_groups(parse_records(_text(records)), ids, golden) == []


@pytest.mark.parametrize("tamper", [
    lambda r: r.update(z_order=r["z_order"] * 2),
    lambda r: r.update(int_generators=r["int_generators"][1:]),
    lambda r: r.update(equal=False),
    lambda r: r.update(error="resource bound exceeded"),
    lambda r: r.update(extra=1),
])
def test_tampered_record_is_flagged(case, tamper):
    golden, ids, records = case
    tamper(records["A5xS3"])
    assert failed_groups(parse_records(_text(records)), ids, golden) == ["A5xS3"]


def test_missing_and_garbled_records_are_flagged(case):
    golden, ids, records = case
    del records["S4"]
    text = _text(records).replace('"group_id": "SL(2,5)"', '"group_id": "SL(2,5)",,')
    assert failed_groups(parse_records(text), ids, golden) == ["S4", "SL(2,5)"]
