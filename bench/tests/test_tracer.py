"""Span arithmetic and the traced in-process run."""

import importlib

import pytest

import inputs
import run
from permgroups.corpus import smoke_corpus
from permgroups.perms import Permutation
from tracer import LAYER_METRICS, Tracer, covered_time, install, layer_metrics, self_times

# A[0,10] holds B[1,4] (which holds C[2,3]) and B[5,6]; a second root A[12,13].
SPANS = [
    ["A", 0.0, 10.0, -1],
    ["B", 1.0, 4.0, 0],
    ["C", 2.0, 3.0, 1],
    ["B", 5.0, 6.0, 0],
    ["A", 12.0, 13.0, -1],
]


def test_self_time_arithmetic():
    assert self_times(SPANS) == {"A": 7.0, "B": 3.0, "C": 1.0}
    assert covered_time(SPANS) == 11.0


def test_layer_metrics_add_up_on_synthetic_tree():
    tracer = Tracer()
    tracer.spans.extend(["classes.central", *span[1:]] for span in SPANS[:1])
    tracer.spans.extend(["groups.elements", *span[1:]] for span in SPANS[1:])
    values = layer_metrics(tracer, traced_wall=15.0, untraced_wall=10.0)
    assert values["classes.central_s"] == 6.0
    assert values["groups.elements_s"] == 5.0
    assert values["trace.untraced_s"] == 4.0
    assert values["trace.overhead_ratio"] == 1.5
    assert set(values) == {name for name, _ in LAYER_METRICS}


def test_traced_metrics_come_from_the_median_pair():
    assert run.median_sample([3.0, 1.0, 2.0]) == 2
    assert run.median_sample([4.0, 1.0, 3.0, 2.0]) == 3
    assert run.median_sample([5.0]) == 0


@pytest.mark.parametrize("suite", ["verify-corollary", "verify-remark4", "verify-baer"])
def test_traced_run_adds_up_and_restores(suite, tmp_path):
    groups = [G for G in smoke_corpus() if G.name in ("S4", "D8", "C6")]
    spec = inputs.write_corpus(groups, tmp_path / "inputs")
    hypercenter = importlib.import_module("permgroups.hypercenter")
    mul, climb = Permutation.__mul__, hypercenter._climb
    untraced_wall, status, text = run.run_in_process(suite, spec, tmp_path / "plain.jsonl")
    tracer = Tracer()
    install(tracer)
    try:
        traced_wall, traced_status, _ = run.run_in_process(suite, spec, tmp_path / "traced.jsonl")
    finally:
        tracer.restore()
    assert Permutation.__mul__ is mul and hypercenter._climb is climb
    assert status == traced_status == 0
    assert text.count("\n") == 3

    stems = {name[:-2] for name, unit in LAYER_METRICS if unit == "s"}
    assert {span[0] for span in tracer.spans} <= stems
    values = layer_metrics(tracer, traced_wall, untraced_wall)
    self_sum = sum(v for name, v in values.items() if name.endswith("_s"))
    assert self_sum == pytest.approx(traced_wall, rel=1e-9)
    assert values["perms.mul_count"] > 0 and values["chain.build_count"] > 0
    if suite == "verify-remark4":
        assert values["lattice.build_count"] == 0
    if suite == "verify-baer":
        assert values["chiefs.factor_semidirect_count"] == 0
        assert values["groups.upper_central_series_s"] > 0
