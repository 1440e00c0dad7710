"""BENCHMARK.json names exactly what the benchmark measures and prints."""

import json
import re
from pathlib import Path

import inputs
import run
from tracer import LAYER_METRICS

DOC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_workloads_match_the_runner():
    assert [w["name"] for w in DOC["workloads"]] == list(inputs.WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in DOC["workloads"])


def test_metrics_match_what_the_runner_prints():
    assert [(m["name"], m["unit"]) for m in DOC["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in DOC["per_layer"]] == LAYER_METRICS


def test_names_units_and_bounds_are_well_formed():
    metrics = DOC["end_to_end"] + DOC["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in DOC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(UNIT.fullmatch(m["unit"]) and m["better"] in ("higher", "lower")
               for m in metrics)
    bounds = {m["name"]: m["bound"] for m in DOC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
