"""Times in reference seconds and the CLI run that is paused for the samples."""

import subprocess
import sys
from pathlib import Path

import inputs
import run
from permgroups.corpus import standard_corpus
from records import failed_groups, load_golden, parse_records
from reference import REFERENCE_S

BENCH = Path(__file__).resolve().parent.parent


def test_reference_seconds_arithmetic():
    assert run.speed(REFERENCE_S, REFERENCE_S) == 1.0
    assert run.speed(REFERENCE_S, 3 * REFERENCE_S) == 0.5
    # 2 s at full speed, a pause, then 4 s at half speed
    segments = [(10.0, 12.0, 1.0), (13.0, 17.0, 0.5)]
    assert run.reference_seconds(segments, 17.0) == 4.0
    assert run.reference_seconds(segments, 11.0) == 1.0
    assert run.reference_seconds(segments, 15.0) == 3.0


def test_reference_task_imports_nothing_from_the_package():
    code = ("import sys, reference; reference.reference_s(); "
            "print(any(m.split('.')[0] == 'permgroups' for m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], cwd=BENCH, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_paused_cli_run_keeps_its_records(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SAMPLE_EVERY_S", 0.02)
    groups = [G for G in standard_corpus() if G.name in ("S4", "A5", "D24")]
    spec = inputs.write_corpus(groups, tmp_path)
    result = run.run_cli("verify-corollary", spec, tmp_path)
    assert result["status"] == 0
    ids = [G.name for G in groups]
    golden = load_golden("std-corollary")
    assert failed_groups(parse_records(result["stdout"]), ids, golden) == []
    assert 0 < result["paused_s"] < result["measured_s"]
    assert 0 < result["first_record_s"] <= result["wall_s"]
