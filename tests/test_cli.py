"""CLI frontend: group files, corpus resolution, commands, exit codes."""

import json
import subprocess
import sys

import pytest

import permgroups as pg
from permgroups.cli import CliConfig, format_group, main, parse_group_file, run
from permgroups.errors import InputError


S5_TEXT = "degree 5\n(0 1 2 3 4)\n(0 1)\n"


def _run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "permgroups.cli", *args],
        capture_output=True, text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_parse_group_file_examples():
    S3 = parse_group_file("degree 3\n(0 1 2)\n(0 1)\n")
    assert S3.order == 6
    assert parse_group_file("degree 4\n").order == 1
    with pytest.raises(InputError) as err:
        parse_group_file("degree 3\n(0 3)\n")
    assert "line 2" in str(err.value)


def test_parse_group_file_comments_and_blanks():
    text = "# a comment\n\ndegree 4  # degree\n(0 1)(2 3)\n\n# done\n"
    G = parse_group_file(text)
    assert G.degree == 4 and G.order == 2


def test_parse_group_file_missing_degree():
    with pytest.raises(InputError):
        parse_group_file("(0 1)\n")
    with pytest.raises(InputError):
        parse_group_file("")


def test_group_file_roundtrip():
    G = parse_group_file(S5_TEXT, name="s5")
    again = parse_group_file(format_group(G))
    assert again == G
    assert again.element_set() == G.element_set()


def test_run_info(tmp_path, capsys):
    path = tmp_path / "q8.grp"
    Q8 = pg.quaternion8()
    path.write_text(format_group(Q8).replace("degree 8", "degree 8"))
    code = run(CliConfig(command="info", group_path=str(path), emit_generators=True))
    out = capsys.readouterr().out
    assert code == 0
    assert "order 8" in out
    assert "nilpotent: true" in out
    assert "quasinilpotent: true" in out
    assert "degree 8" in out


def test_cli_hypercenter_s5(tmp_path):
    path = tmp_path / "s5.grp"
    path.write_text(S5_TEXT)
    code, out, err = _run_cli(
        ["hypercenter", "--class", "N*", "--group", str(path), "--no-timings"]
    )
    assert code == 0, err
    record = json.loads(out.strip())
    assert record["z_order"] == 1
    assert record["group_id"] == "s5"
    assert "millis" not in record


def test_cli_verify_corollary_smoke():
    code, out, err = _run_cli(["verify-corollary", "--corpus", "smoke", "--no-timings"])
    assert code == 0, err
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert len(records) == 12
    assert all(r["equal"] for r in records)


def test_cli_deterministic_output():
    args = ["verify-baer", "--corpus", "smoke", "--no-timings"]
    runs = [_run_cli(args) for _ in range(2)]
    assert runs[0][0] == runs[1][0] == 0
    assert runs[0][1] == runs[1][1]  # byte-identical


def test_cli_exit_code_input_error(tmp_path):
    bad = tmp_path / "bad.grp"
    bad.write_text("degree 3\n(0 9)\n")
    code, out, err = _run_cli(["info", "--group", str(bad)])
    assert code == 2
    assert "line 2" in err

    code, _, err = _run_cli(["info", "--corpus", "nonesuch"])
    assert code == 2


def test_cli_exit_code_resource_bound():
    code, out, err = _run_cli(
        ["intersection", "--class", "N", "--corpus", "smoke", "--lattice-bound", "5"]
    )
    assert code == 3
    assert "5" in err


def test_cli_unknown_class():
    code, _, err = _run_cli(["hypercenter", "--class", "wat", "--corpus", "smoke"])
    assert code == 2


def test_cli_s_critical():
    code, out, err = _run_cli(
        ["s-critical", "--class", "N", "--corpus", "smoke", "--max-order", "24",
         "--no-timings"]
    )
    assert code == 0, err
    ids = [json.loads(line)["group_id"] for line in out.strip().splitlines()]
    assert "S3" in ids


def test_cli_compare_nca_never_fails_on_inequality():
    code, out, err = _run_cli(["compare-nca", "--corpus", "smoke", "--no-timings"])
    assert code == 0, err


def test_cli_corpus_spec_file(tmp_path):
    grp = tmp_path / "sym4.grp"
    grp.write_text("degree 4\n(0 1 2 3)\n(0 1)\n")
    spec = tmp_path / "corpus.json"
    spec.write_text(json.dumps([
        {"id": "C6", "constructor": "cyclic", "args": [6]},
        {"id": "mysym", "path": "sym4.grp"},
    ]))
    code, out, err = _run_cli(
        ["verify-corollary", "--corpus", str(spec), "--no-timings"]
    )
    assert code == 0, err
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert [r["group_id"] for r in records] == ["C6", "mysym"]
    assert records[1]["order"] == 24


def test_cli_corpus_spec_rejects_duplicate_ids(tmp_path):
    spec = tmp_path / "corpus.json"
    spec.write_text(json.dumps([
        {"id": "X", "constructor": "cyclic", "args": [2]},
        {"id": "X", "constructor": "cyclic", "args": [3]},
    ]))
    code, _, err = _run_cli(["info", "--corpus", str(spec)])
    assert code == 2


@pytest.mark.parametrize("entry", [
    {"constructor": "cyclic", "args": ["x"]},
    {"constructor": "cyclic", "args": 5},
    {"constructor": "cyclic", "args": [1, 2, 3]},
    {"constructor": "elementary_abelian", "args": [4, 2]},
    {"path": 5},
    {"constructor": ["cyclic"], "args": [2]},
    {"id": ["X"], "constructor": "cyclic", "args": [2]},
])
def test_cli_corpus_spec_rejects_malformed_entries(tmp_path, entry):
    spec = tmp_path / "corpus.json"
    spec.write_text(json.dumps([{"id": "X", **entry}]))
    code, _, err = _run_cli(["info", "--corpus", str(spec)])
    assert code == 2, err
    assert "input error" in err and "Traceback" not in err


def test_report_suite_failure_exit_code(capsys):
    # the exit-1 path is unreachable through honest computation (the checked
    # identities are theorems), so feed a fabricated failing report
    from permgroups.cli import _report_suite
    from permgroups.hypercenter import VerificationReport

    bad = VerificationReport(
        group_id="X", order=6, class_name="N*", z_order=1, int_order=2,
        equal=False, witness=("(0 1)",), z_generators=(), int_generators=("(0 1)",),
        millis=None,
    )
    config = CliConfig(command="verify-corollary", timings=False)
    assert _report_suite([bad], config, sys.stdout, assert_equal=True) == 1
    err = capsys.readouterr().err
    assert "verification failed for X" in err
    assert _report_suite([bad], config, sys.stdout, assert_equal=False) == 0


def test_cli_output_file(tmp_path):
    out_path = tmp_path / "report.jsonl"
    code, out, err = _run_cli(
        ["verify-remark4", "--corpus", "smoke", "--no-timings",
         "--output", str(out_path)]
    )
    assert code == 0, err
    assert out == ""
    lines = out_path.read_text().strip().splitlines()
    assert len(lines) == 12
    assert all(json.loads(line)["equal"] for line in lines)
