"""Fuzzing the CLI: any group file or corpus spec gives an exit code, never a traceback."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from permgroups import cli
from permgroups.named import CONSTRUCTORS
from permgroups.perms import Permutation, format_permutation

# small bounds keep every example at desk scale; a run that hits one exits 3
BOUNDS = ["--no-timings", "--enumeration-bound", "200", "--lattice-bound", "200",
          "--semidirect-bound", "64"]
COMMANDS = st.sampled_from(["info", "hypercenter", "intersection", "verify-baer"])

_fragment = st.lists(
    st.sampled_from(["degree", "(", ")", " ", "#", "-", "0", "1", "3", "7", "9",
                     "99999999999", "x", ",", "\t", "é", "²"]),
    max_size=10,
).map("".join)
_cycles = st.lists(
    st.lists(st.one_of(st.integers(0, 5), st.integers(-1, 8)), min_size=1, max_size=5)
    .map(lambda c: "(" + " ".join(map(str, c)) + ")"),
    max_size=3,
).map("".join)
_degree = st.one_of(st.integers(-2, 8).map(lambda n: f"degree {n}"), _fragment)
_valid = st.integers(1, 7).flatmap(lambda n: st.lists(
    st.permutations(range(n)).map(lambda images: format_permutation(Permutation(images))),
    max_size=3,
).map(lambda gens: "\n".join([f"degree {n}", *gens]) + "\n"))
GROUP_TEXT = st.one_of(
    _valid,
    st.builds(lambda d, lines: "\n".join([d, *lines]) + "\n",
              _degree, st.lists(st.one_of(_cycles, _fragment), max_size=4)),
    st.text(max_size=30),
)

_json = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 9) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
_ids = st.one_of(st.text("abc", max_size=3), _json)
_constructed = st.fixed_dictionaries({
    "id": _ids,
    "constructor": st.one_of(st.sampled_from([*CONSTRUCTORS, "nope"]), _json),
    "args": st.one_of(st.lists(st.integers(-2, 9), max_size=2), _json),
})
_entry = st.one_of(
    _constructed,
    st.fixed_dictionaries({
        "id": _ids,
        "path": st.one_of(st.sampled_from(["g.grp", "missing.grp", ".", ""]), _json),
    }),
    _json,
)
SPEC_TEXT = st.one_of(
    st.lists(_entry, max_size=3).map(json.dumps),
    _json.map(json.dumps),
    st.text(max_size=20),
)


def _run(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


@settings(max_examples=150)
@given(COMMANDS, GROUP_TEXT)
def test_cli_group_file_fuzz(command, text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "g.grp")
        path.write_text(text)
        code, err = _run([command, "--group", str(path), *BOUNDS])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err


@settings(max_examples=150)
@given(COMMANDS, SPEC_TEXT, GROUP_TEXT)
def test_cli_corpus_spec_fuzz(command, spec, group_text):
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "g.grp").write_text(group_text)
        path = Path(tmp, "spec.json")
        path.write_text(spec)
        code, err = _run([command, "--corpus", str(path), *BOUNDS])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
