"""CLI frontend: group files, corpus resolution, commands, exit codes."""

import gc
import io
import json
import os
import subprocess
import sys
import weakref
from dataclasses import replace
from pathlib import Path

import pytest

import permgroups as pg
from permgroups import cli
from permgroups.cli import CliConfig, format_group, main, parse_group_file, run
from permgroups.errors import InputError
from permgroups.limits import current


S5_TEXT = "degree 5\n(0 1 2 3 4)\n(0 1)\n"


def _run_cli(args, timeout=None):
    proc = subprocess.run(
        [sys.executable, "-m", "permgroups.cli", *args],
        capture_output=True, text=True, timeout=timeout,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_parse_group_file_examples():
    S3 = parse_group_file("degree 3\n(0 1 2)\n(0 1)\n")
    assert S3.order == 6
    assert parse_group_file("degree 4\n").order == 1
    with pytest.raises(InputError) as err:
        parse_group_file("degree 3\n(0 3)\n")
    assert "line 2" in str(err.value)


def test_cli_lattice_beyond_its_index_range_exits_3(tmp_path):
    # S8xC2, order 80640, within both bounds given
    path = tmp_path / "s8c2.txt"
    path.write_text("degree 10\n(0 1)\n(0 1 2 3 4 5 6 7)\n(8 9)\n")
    code, out, err = _run_cli(["intersection", "--class", "N", "--group", str(path),
                               "--enumeration-bound", "100000", "--lattice-bound", "100000"])
    assert code == 3 and out == ""
    assert "65536" in err and "Traceback" not in err


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


@pytest.mark.parametrize("target", ["missing/report.jsonl", "."])
def test_cli_unwritable_output_is_an_input_error(tmp_path, target):
    # a missing directory, or a directory in place of the file
    code, out, err = _run_cli(
        ["info", "--corpus", "smoke", "--output", str(tmp_path / target)]
    )
    assert code == 2, err
    assert err.startswith("input error: cannot write output file")
    assert "Traceback" not in err and out == ""


@pytest.mark.parametrize("text", ["degree 3\n(0 \u00b2)\n", "degree 3\n(" + "1" * 5000 + ")\n"],
                         ids=["superscript-digit", "beyond-int-digits"])
def test_cli_unreadable_point_is_an_input_error(tmp_path, text):
    # points int() cannot read: a digit that is not decimal, too many digits
    bad = tmp_path / "bad.grp"
    bad.write_text(text, encoding="utf-8")
    code, out, err = _run_cli(["info", "--group", str(bad)])
    assert code == 2, err
    assert err.startswith("input error: line 2:")
    assert "Traceback" not in err and out == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
@pytest.mark.parametrize("to_stdout", [False, True], ids=["output-file", "stdout"])
def test_cli_failed_output_write_is_an_input_error(to_stdout):
    # every write to /dev/full fails with ENOSPC
    args = [sys.executable, "-m", "permgroups.cli", "info", "--corpus", "smoke"]
    if to_stdout:
        with open("/dev/full", "w") as full:
            proc = subprocess.run(args, stdout=full, stderr=subprocess.PIPE, text=True)
    else:
        proc = subprocess.run(args + ["--output", "/dev/full"], capture_output=True, text=True)
    assert proc.returncode == 2, proc.stderr
    where = "to stdout" if to_stdout else "file '/dev/full'"
    assert proc.stderr.startswith(f"input error: cannot write output {where}: ")
    # one line: neither a traceback nor a failed flush at exit
    assert proc.stderr.count("\n") == 1, proc.stderr


@pytest.mark.parametrize("option, content", [
    ("--group", b"degree 2\n(0 1)\xff\n"),  # not UTF-8
    ("--corpus", b"degree 2\n(0 1)\xff\n"),
    ("--corpus", b"[" * 100000 + b"]" * 100000),  # nested beyond the recursion limit
], ids=["group-not-utf8", "corpus-not-utf8", "corpus-too-deep"])
def test_cli_unreadable_input_is_an_input_error(tmp_path, option, content):
    bad = tmp_path / "bad.in"
    bad.write_bytes(content)
    code, out, err = _run_cli(["info", option, str(bad)])
    assert code == 2, err
    assert err.startswith("input error: cannot read")
    assert "Traceback" not in err and out == ""


@pytest.mark.parametrize(
    "suite", ["verify-corollary", "verify-remark4", "verify-baer", "compare-nca"]
)
@pytest.mark.parametrize("text, order", [("degree 1\n", 1), ("degree 2\n(0 1)\n", 2)])
def test_cli_suites_on_degree_one_and_two(tmp_path, suite, text, order):
    # C2's quotients by itself have degree 1
    grp = tmp_path / "tiny.grp"
    grp.write_text(text)
    code, out, err = _run_cli([suite, "--group", str(grp), "--no-timings"])
    assert code == 0, err
    (record,) = [json.loads(line) for line in out.splitlines()]
    assert record["order"] == order and record["equal"]


def test_cli_exit_code_resource_bound():
    code, out, err = _run_cli(
        ["intersection", "--class", "N", "--corpus", "smoke", "--lattice-bound", "5"]
    )
    assert code == 3
    assert "5" in err


def test_cli_compare_nca_on_psl27_names_the_enumeration_bound(tmp_path):
    # PSL(2,7) is simple, so its one chief factor's semidirect product has
    # order 168^2 = 28224, above the default enumeration bound
    grp = tmp_path / "psl27.txt"
    grp.write_text("degree 8\n(0 1 2 3 4 5 6)\n(0 7)(1 6)(2 3)(4 5)\n")
    code, out, err = _run_cli(["compare-nca", "--group", str(grp), "--no-timings"])
    assert code == 3 and "Traceback" not in err
    (record,) = [json.loads(line) for line in out.splitlines()]
    assert record["order"] == 168
    assert record["error"] == ("factor semidirect product of order 28224 on 168 points "
                               "exceeds enumeration bound 10000")


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
    {"path": "a\u0000b"},
])
def test_cli_corpus_spec_rejects_malformed_entries(tmp_path, entry):
    spec = tmp_path / "corpus.json"
    spec.write_text(json.dumps([{"id": "X", **entry}]))
    code, _, err = _run_cli(["info", "--corpus", str(spec)])
    assert code == 2, err
    assert "input error" in err and "Traceback" not in err


def test_cli_group_file_degree_beyond_point_bound(tmp_path):
    big = tmp_path / "big.grp"
    big.write_text("degree 99999999999\n(0 1)\n")
    code, _, err = _run_cli(["info", "--group", str(big)], timeout=30)
    assert code == 2, err
    assert "point bound 10000" in err and "Traceback" not in err
    code, _, err = _run_cli(["info", "--group", str(big), "--semidirect-bound", "50"],
                            timeout=30)
    assert code == 2 and "point bound 50" in err


def test_cli_class_prime_beyond_point_bound(tmp_path):
    grp = tmp_path / "c3.grp"
    grp.write_text("degree 3\n(0 1 2)\n")
    # a trial-division primality test of this selector would hang
    code, _, err = _run_cli(["hypercenter", "--class", "Np:1000000000000000003",
                             "--group", str(grp)], timeout=30)
    assert code == 2, err
    assert "point bound 10000" in err and "Traceback" not in err
    for args, z_order in ([["--class", "Np:3"], 3],
                          [["--class", "Np:10007", "--semidirect-bound", "20000"], 1]):
        code, out, err = _run_cli(["hypercenter", "--group", str(grp), *args], timeout=30)
        assert code == 0, err
        assert json.loads(out)["z_order"] == z_order


@pytest.mark.parametrize("ctor, args", [
    ("cyclic", [100000000]),
    ("symmetric", [10001]),
    ("alternating", [10001]),
    ("dihedral", [20004]),
    ("special_linear2", [101]),
    ("elementary_abelian", [2, 5001]),
])
def test_cli_corpus_constructor_beyond_point_bound(tmp_path, ctor, args):
    spec = tmp_path / "corpus.json"
    spec.write_text(json.dumps([{"id": "a", "constructor": ctor, "args": args}]))
    # a constructor that allocated first would hang here instead of failing
    code, _, err = _run_cli(["info", "--corpus", str(spec)], timeout=30)
    assert code == 2, err
    assert "point bound 10000" in err and "Traceback" not in err


def test_constructor_degrees_match_constructors():
    from permgroups.named import CONSTRUCTOR_DEGREES, CONSTRUCTORS

    assert CONSTRUCTOR_DEGREES.keys() == CONSTRUCTORS.keys()
    for name, args in [("cyclic", [6]), ("symmetric", [4]), ("alternating", [5]),
                       ("dihedral", [10]), ("quaternion8", []),
                       ("special_linear2", [3]), ("elementary_abelian", [3, 2])]:
        assert CONSTRUCTOR_DEGREES[name](*args) == CONSTRUCTORS[name](*args).degree


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
    # a resource-bound record later in the run still wins over the earlier failure
    hit = replace(bad, group_id="Y", z_order=None, int_order=None, witness=(),
                  int_generators=(), error="lattice bound 5")
    capsys.readouterr()
    assert _report_suite([bad, hit], config, sys.stdout, assert_equal=True) == 3
    assert capsys.readouterr().err == "resource bound hit for Y: lattice bound 5\n"


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


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "suite", ["verify-corollary", "verify-remark4", "verify-baer", "compare-nca"]
)
def test_suite_output_matches_golden(tmp_path, suite):
    out_path = tmp_path / "report.jsonl"
    code = run(CliConfig(command=suite, corpus="standard", timings=False,
                         output=str(out_path)))
    assert code == 0
    assert out_path.read_bytes() == (GOLDEN / f"{suite}-standard.jsonl").read_bytes()


@pytest.mark.parametrize("selector", ["abelian", "Np:2"])
def test_hypercenter_output_matches_golden(tmp_path, selector):
    # both classes decide centrality on the factor semidirect path
    out_path = tmp_path / "report.jsonl"
    code = run(CliConfig(command="hypercenter", class_selector=selector,
                         corpus="standard", timings=False, output=str(out_path)))
    assert code == 0
    golden = GOLDEN / f"hypercenter-{selector.replace(':', '')}-standard.jsonl"
    assert out_path.read_bytes() == golden.read_bytes()


@pytest.mark.parametrize("command", ["hypercenter", "intersection"])
def test_n_output_matches_golden(tmp_path, command):
    # Z_N climbs over central candidates only, Int_N reads the nilpotent lattice
    out_path = tmp_path / "report.jsonl"
    code = run(CliConfig(command=command, class_selector="N", corpus="standard",
                         timings=False, output=str(out_path)))
    assert code == 0
    assert out_path.read_bytes() == (GOLDEN / f"{command}-N-standard.jsonl").read_bytes()


@pytest.mark.parametrize("command, selector, golden", [
    ("info", "N*", "info-generators-standard.txt"),
    ("s-critical", "N", "s-critical-N-standard.jsonl"),
    ("s-critical", "N*", "s-critical-Nstar-standard.jsonl"),
    ("hypercenter", "N*", "hypercenter-Nstar-standard.jsonl"),
    ("hypercenter", "Nca", "hypercenter-Nca-standard.jsonl"),
    ("intersection", "N*", "intersection-Nstar-standard.jsonl"),
    ("intersection", "Nca", "intersection-Nca-standard.jsonl"),
    ("intersection", "Np:2", "intersection-Np2-standard.jsonl"),
    ("intersection", "abelian", "intersection-abelian-standard.jsonl"),
])
def test_per_group_output_matches_golden(tmp_path, command, selector, golden):
    # class verdicts, hypercenters and lattices, each got once per group
    out_path = tmp_path / "report.txt"
    code = run(CliConfig(command=command, class_selector=selector, corpus="standard",
                         timings=False, output=str(out_path),
                         emit_generators=command == "info"))
    assert code == 0
    assert out_path.read_bytes() == (GOLDEN / golden).read_bytes()


def test_suites_never_build_a_factor_centralizer(monkeypatch):
    # every verdict reads the chief factor's action image, never C_G(H/K)
    def refuse(cf):
        raise AssertionError("C_G(H/K) was built")

    monkeypatch.setattr(pg.ChiefFactor, "_compute_centralizer", refuse)
    corpus = pg.standard_corpus()  # fresh groups: no factor is cached
    suites = {
        "verify-corollary": lambda: pg.verify_theorem1(corpus, pg.NILPOTENT),
        "verify-baer": lambda: pg.verify_baer(corpus),
        "verify-remark4": lambda: pg.verify_remark4(corpus),
        "compare-nca": lambda: pg.compare_nca(corpus),
    }
    for suite, reports in suites.items():
        lines = "".join(r.to_json(include_timing=False) + "\n" for r in reports())
        assert lines == (GOLDEN / f"{suite}-standard.jsonl").read_text(), suite


def test_report_suite_writes_each_record_before_the_next():
    from permgroups.cli import _report_suite
    from permgroups.errors import VerificationError
    from permgroups.hypercenter import VerificationReport

    class CountingSink(io.StringIO):
        flushes = 0

        def flush(self):
            self.flushes += 1
            super().flush()

    first = VerificationReport(
        group_id="A", order=2, class_name="N*", z_order=2, int_order=2, equal=True,
        witness=(), z_generators=("(0 1)",), int_generators=("(0 1)",), millis=None,
    )
    sink, seen = CountingSink(), []

    def reports():
        yield first
        seen.append((sink.getvalue(), sink.flushes))
        raise VerificationError("second group")

    config = CliConfig(command="verify-corollary", timings=False)
    with pytest.raises(VerificationError):
        _report_suite(reports(), config, sink, assert_equal=True)
    assert seen == [(first.to_json(include_timing=False) + "\n", 1)]


def test_cli_closed_stdout_exits_quietly():
    proc = subprocess.Popen(
        [sys.executable, "-m", "permgroups.cli", "verify-corollary",
         "--corpus", "standard", "--no-timings"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    assert json.loads(proc.stdout.readline())["equal"]
    proc.stdout.close()  # as `| head -1` does; the next record hits a closed pipe
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert "Traceback" not in err


def test_run_restores_default_limits(tmp_path):
    before = replace(pg.DEFAULT_LIMITS)
    config = CliConfig(command="info", corpus="smoke", lattice_bound=5,
                       enumeration_bound=777, output=str(tmp_path / "info.txt"))
    assert run(config) == 0
    assert pg.DEFAULT_LIMITS == before
    assert current() is pg.DEFAULT_LIMITS
    with pytest.raises(InputError):
        run(replace(config, corpus="nonesuch"))
    assert pg.DEFAULT_LIMITS == before
    assert current() is pg.DEFAULT_LIMITS


@pytest.fixture
def collection_off():
    """Automatic collection off for the test, so only reference counting frees."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


SUBGROUP_COMMANDS = ["hypercenter", "intersection", "s-critical"]
COMMANDS = sorted(cli.SUITES) + ["info"] + SUBGROUP_COMMANDS


@pytest.mark.parametrize("command", COMMANDS)
def test_command_leaves_nothing_for_the_collector(tmp_path, collection_off, command):
    # nothing a group holds refers back to it: no collection during the run
    # frees anything, and none is needed after it
    collected = []

    def record(phase, info):
        if phase == "stop":
            collected.append(info["collected"])

    gc.callbacks.append(record)
    try:
        classes = ("N", "N*", "Nca") if command in SUBGROUP_COMMANDS else ("N*",)
        for selector in classes:
            assert run(CliConfig(command=command, class_selector=selector, corpus="standard",
                                 timings=False, output=str(tmp_path / "out.txt"),
                                 emit_generators=command == "info")) == 0
        assert gc.collect() == 0
    finally:
        gc.callbacks.remove(record)
    assert not any(collected)


@pytest.mark.parametrize("suite", COMMANDS)
def test_suite_frees_each_group_once_its_record_is_out(monkeypatch, collection_off, suite):
    # also the per-group commands; an info record is the lines from its "group"
    # line on, and s-critical writes a record for the critical groups only;
    # with automatic collection off, reference counting frees each group
    refs, names = [], []
    load = cli._load_groups

    def recording(config):
        groups = load(config)
        refs.extend(weakref.ref(G) for G in groups)
        names.extend(G.name for G in groups)
        return groups

    class Sink(io.StringIO):
        records = 0

        def write(self, text):
            if suite != "info" or text.startswith("group "):
                # every group ahead of this record's group is freed already
                ahead = (names.index(json.loads(text)["group_id"]) if suite == "s-critical"
                         else self.records)
                assert [ref() for ref in refs[:ahead]] == [None] * ahead
                self.records += 1
            return super().write(text)

    sink = Sink()
    monkeypatch.setattr(cli, "_load_groups", recording)
    monkeypatch.setattr(sys, "stdout", sink)
    assert run(CliConfig(command=suite, corpus="smoke", timings=False,
                         emit_generators=suite == "info")) == 0
    assert len(refs) == 12
    assert sink.records == (1 if suite == "s-critical" else 12)  # S3 is N*-critical
    assert [ref() for ref in refs] == [None] * 12


@pytest.mark.parametrize("config, code", [
    (CliConfig(command="verify-corollary", corpus="smoke"), 0),
    (CliConfig(command="verify-corollary", corpus="smoke", lattice_bound=5), 3),
    (CliConfig(command="verify-corollary", corpus="nonesuch"), InputError),
])
def test_run_restores_the_callers_bounds(tmp_path, config, code):
    # run puts the config's bounds in effect for its body only: afterwards the
    # caller's are current again, on every exit path
    config = replace(config, output=str(tmp_path / "report.jsonl"))
    with pg.limits_scope(pg.Limits(enumeration=777)) as caller_bounds:
        if code is InputError:
            with pytest.raises(InputError):
                run(config)
        else:
            assert run(config) == code
        assert current() is caller_bounds


@pytest.mark.parametrize("config, code", [
    (CliConfig(command="verify-corollary", corpus="smoke"), 0),
    (CliConfig(command="verify-corollary", corpus="smoke", lattice_bound=5), 3),
    (CliConfig(command="verify-corollary", corpus="nonesuch"), InputError),
])
@pytest.mark.parametrize("caller_froze", [False, True])
def test_run_leaves_the_collector_as_it_found_it(tmp_path, config, code, caller_froze):
    # run frees groups by reference counting alone: it neither freezes nor
    # disables the collector, on any exit path
    config = replace(config, output=str(tmp_path / "report.jsonl"))
    if caller_froze:
        gc.freeze()
    try:
        before = gc.get_freeze_count()
        if code is InputError:
            with pytest.raises(InputError):
                run(config)
        else:
            assert run(config) == code
        # frozen objects that die leave the frozen set, so it can only shrink
        after = gc.get_freeze_count()
        assert (0 < after <= before) if caller_froze else after == 0
        assert gc.isenabled()
    finally:
        gc.unfreeze()


@pytest.mark.parametrize("command", [
    "info", "verify-corollary", "verify-baer", "verify-remark4", "compare-nca",
])
def test_cli_class_only_where_it_is_read(command):
    code, out, err = _run_cli([command, "--class", "Nca", "--corpus", "smoke"])
    assert code == 2 and out == ""
    assert "--class" in err
