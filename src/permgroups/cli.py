"""Command-line frontend: parse group files, build corpora, run suites.

Exit codes: 0 all checks pass, 1 verification failure, 2 input error or
output that cannot be written, 3 resource bound exceeded (3 wins over 1 in a
suite), 141 stdout closed by its reader (128 + SIGPIPE, as a shell reports a
process the signal ended).
Output is flushed as it is written, so a long run shows each group's
record as soon as that group is done.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from itertools import count
from pathlib import Path
from typing import Callable, Iterator, Sequence, TextIO

from .classes import (
    NCA,
    NILPOTENT,
    QUASINILPOTENT,
    class_by_name,
    is_s_critical,
)
from .chiefs import chief_series
from .corpus import builtin_corpus
from .errors import InputError, ResourceLimitError, VerificationError
from .groups import PermGroup, center
from .hypercenter import (
    baer_sides,
    corollary_sides,
    hypercenter,
    intersection_of_class_maximal,
    nca_sides,
    remark4_sides,
    run_suite,
)
from .limits import DEFAULT, Limits, check_degree, scope
from .named import CONSTRUCTOR_DEGREES, CONSTRUCTORS
from .perms import format_permutation, parse_permutation


@dataclass
class CliConfig:
    command: str
    class_selector: str = "N*"
    corpus: str | None = None
    group_path: str | None = None
    enumeration_bound: int = DEFAULT.enumeration
    lattice_bound: int = DEFAULT.lattice
    semidirect_bound: int = DEFAULT.semidirect_degree
    output: str | None = None
    timings: bool = True
    emit_generators: bool = False
    max_order: int | None = None


# -- group definition files -----------------------------------------------------


def parse_group_file(text: str, name: str | None = None) -> PermGroup:
    """Parse the group definition format.

    First meaningful line is ``degree N``; each following line is one
    generator in disjoint-cycle notation.  Blank lines and ``#`` comments
    are ignored.  Errors carry 1-based line numbers.
    """
    degree = None
    gens = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if degree is None:
            parts = line.split()
            if len(parts) != 2 or parts[0] != "degree":
                raise InputError(f"line {lineno}: expected 'degree N', got {line!r}")
            try:
                degree = int(parts[1])
            except ValueError:
                raise InputError(f"line {lineno}: bad degree {parts[1]!r}") from None
            if degree < 1:
                raise InputError(f"line {lineno}: degree must be at least 1")
            check_degree(degree, f"line {lineno}: the group")
            continue
        try:
            gens.append(parse_permutation(line, degree))
        except InputError as exc:
            raise InputError(f"line {lineno}: {exc}") from None
    if degree is None:
        raise InputError("degree line missing")
    return PermGroup(degree, gens, name=name)


def format_group(G: PermGroup) -> str:
    lines = [f"degree {G.degree}"]
    lines.extend(format_permutation(g) for g in G.generators)
    return "\n".join(lines) + "\n"


def _load_group(path: str) -> PermGroup:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a NUL in the path
        raise InputError(f"cannot read group file {path!r}: {exc}") from None
    return parse_group_file(text, name=p.stem)


def _load_corpus_file(path: Path) -> list[PermGroup]:
    try:
        entries = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:  # not UTF-8, not JSON, too deep
        raise InputError(f"cannot read corpus spec {path}: {exc}") from None
    if not isinstance(entries, list):
        raise InputError("corpus spec must be a JSON list of entries")
    groups = []
    seen_ids = set()
    for entry in entries:
        gid = entry.get("id") if isinstance(entry, dict) else None
        if not isinstance(gid, str) or not gid or gid in seen_ids:
            raise InputError(f"corpus entries need unique 'id' fields, got {entry!r}")
        seen_ids.add(gid)
        if "path" in entry:
            if not isinstance(entry["path"], str):
                raise InputError(f"corpus entry {gid!r}: 'path' must be a string")
            g = _load_group(str(Path(path.parent, entry["path"])))
        elif "constructor" in entry:
            ctor_name = entry["constructor"]
            ctor = CONSTRUCTORS.get(ctor_name) if isinstance(ctor_name, str) else None
            if ctor is None:
                raise InputError(f"unknown constructor {ctor_name!r}")
            args = entry.get("args", [])
            arity = len(inspect.signature(ctor).parameters)
            if (not isinstance(args, list) or len(args) != arity
                    or any(type(a) is not int for a in args)):
                raise InputError(
                    f"corpus entry {gid!r}: constructor {ctor_name!r} "
                    f"takes 'args' as a list of {arity} integers, got {args!r}"
                )
            check_degree(CONSTRUCTOR_DEGREES[ctor_name](*args), f"corpus entry {gid!r}")
            g = ctor(*args)
        else:
            raise InputError(f"corpus entry {gid!r} needs 'constructor' or 'path'")
        g.name = gid
        groups.append(g)
    return groups


def _load_groups(config: CliConfig) -> list[PermGroup]:
    if config.group_path:
        return [_load_group(config.group_path)]
    name = config.corpus or "smoke"
    if name in ("smoke", "standard", "extended"):
        return builtin_corpus(name)
    path = Path(name)
    if path.exists():
        return _load_corpus_file(path)
    raise InputError(f"unknown corpus {name!r} (not a builtin name or readable file)")


def _release(groups: list[PermGroup]) -> Iterator[PermGroup]:
    """The groups in order, each dropped from the list as it is handed out."""
    groups.reverse()
    while groups:
        yield groups.pop()


# -- commands ---------------------------------------------------------------------


def _emit(out: TextIO, line: str) -> None:
    out.write(line + "\n")
    out.flush()


def _per_group(lines: Callable[..., Iterator[str]], groups: list[PermGroup], out: TextIO) -> int:
    """Write each group's lines as they come, and free the group after its last."""
    for block in map(lines, count(), _release(groups)):
        for line in block:
            _emit(out, line)
    return 0


def _info(config: CliConfig, i: int, G: PermGroup) -> Iterator[str]:
    yield f"group {G.name or '?'}: order {G.order}"
    yield f"  center order: {center(G).order}"
    orders = ", ".join(str(n) for n in chief_series(G).factor_orders()) or "-"
    yield f"  chief factor orders: {orders}"
    yield f"  abelian: {str(G.is_abelian()).lower()}"
    yield f"  nilpotent: {str(NILPOTENT.member(G)).lower()}"
    yield f"  quasinilpotent: {str(QUASINILPOTENT.member(G)).lower()}"
    yield f"  nca: {str(NCA.member(G)).lower()}"
    if config.emit_generators:
        yield from format_group(G).splitlines()


# per-group subgroup commands: (record field prefix, the subgroup of G for X)
SUBGROUP_COMMANDS = {
    "hypercenter": ("z", lambda G, X: hypercenter(G, X).subgroup),
    "intersection": ("int", intersection_of_class_maximal),
}


def _subgroup_lines(config: CliConfig) -> Callable[[int, PermGroup], Iterator[str]]:
    side, compute = SUBGROUP_COMMANDS[config.command]
    X = class_by_name(config.class_selector)

    def lines(i: int, G: PermGroup) -> Iterator[str]:
        started = time.perf_counter()
        sub = compute(G, X)
        record = {
            "group_id": G.name or f"G{i}",
            "order": G.order,
            "class": X.name,
            f"{side}_order": sub.order,
            f"{side}_generators": [format_permutation(g) for g in sub.generators],
        }
        if config.timings:
            record["millis"] = (time.perf_counter() - started) * 1000.0
        yield json.dumps(record, sort_keys=True)

    return lines


# suite commands: (class name, sides, whether unequal sides fail the run)
SUITES = {
    "verify-baer": (NILPOTENT.name, baer_sides, True),
    "verify-corollary": (QUASINILPOTENT.name, corollary_sides(NILPOTENT), True),
    "verify-remark4": (QUASINILPOTENT.name, remark4_sides, True),
    "compare-nca": (NCA.name, nca_sides, False),
}


def _report_suite(reports, config: CliConfig, out: TextIO, assert_equal: bool) -> int:
    """Write each report as it arrives, then free its group; at the end name
    the first resource error (exit 3) or, when equality is asserted, the
    first unequal group (exit 1)."""
    first_error = first_unequal = None
    for report in reports:
        _emit(out, report.to_json(include_timing=config.timings))
        if report.error is not None:
            first_error = first_error or report
        if not report.equal:
            first_unequal = first_unequal or report
    if first_error is not None:
        print(f"resource bound hit for {first_error.group_id}: {first_error.error}",
              file=sys.stderr)
        return 3
    if assert_equal and first_unequal is not None:
        witness = ", ".join(first_unequal.witness) or "(orders differ)"
        print(
            f"verification failed for {first_unequal.group_id}: "
            f"z_order={first_unequal.z_order} int_order={first_unequal.int_order} "
            f"witness: {witness}",
            file=sys.stderr,
        )
        return 1
    return 0


def _s_critical_lines(config: CliConfig) -> Callable[[int, PermGroup], Iterator[str]]:
    X = class_by_name(config.class_selector)

    def lines(i: int, G: PermGroup) -> Iterator[str]:
        if (config.max_order is None or G.order <= config.max_order) and is_s_critical(G, X):
            yield json.dumps({"group_id": G.name or f"G{i}", "order": G.order, "class": X.name},
                             sort_keys=True)

    return lines


# per-group commands: config -> the function giving each group's output lines
PER_GROUP = {
    "hypercenter": _subgroup_lines,
    "intersection": _subgroup_lines,
    "info": lambda config: partial(_info, config),
    "s-critical": _s_critical_lines,
}


def run(config: CliConfig) -> int:
    """Run one command with the config's bounds in effect; the bounds in
    effect before are back when it returns or raises.  Each group is freed by
    reference counting once its output is written, as nothing a group holds
    refers back to it."""
    with scope(Limits(config.enumeration_bound, config.lattice_bound,
                      config.semidirect_bound)):
        groups = _load_groups(config)
        where = f"file {config.output!r}" if config.output else "to stdout"
        try:
            out = open(config.output, "w") if config.output else nullcontext(sys.stdout)
        except OSError as exc:
            raise InputError(f"cannot write output {where}: {exc}") from None
        try:
            with out as sink:
                if config.command in SUITES:
                    class_name, sides, assert_equal = SUITES[config.command]
                    return _report_suite(run_suite(_release(groups), class_name, sides),
                                         config, sink, assert_equal)
                if config.command in PER_GROUP:
                    return _per_group(PER_GROUP[config.command](config), groups, sink)
                raise InputError(f"unknown command {config.command!r}")
        except BrokenPipeError:
            raise
        except OSError as exc:  # from a write, or from the flush that closes the file
            if not config.output:  # what stdout still holds is not flushed again at exit
                _discard_stdout()
            raise InputError(f"cannot write output {where}: {exc}") from None


def _discard_stdout() -> None:
    """Point stdout at the null device, so the exit-time flush cannot fail."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permgroups",
        description="Exact computations on finite permutation groups: "
                    "hypercenters, maximal-subgroup intersections, and the "
                    "verification suites tying them together.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "info": "order, center, chief factor orders, class memberships",
        "hypercenter": "compute Z_X(G) for the selected class",
        "intersection": "compute Int_X(G) for the selected class",
        "verify-baer": "check Int_N = Z_N = top of the upper central series",
        "verify-corollary": "check Int_{N*} = Z_{N*} over the corpus",
        "verify-remark4": "check the inner-induction hypercenter equals Z_{N*}",
        "compare-nca": "report Z_{Nca} against Int_{Nca} (no assertion)",
        "s-critical": "list groups outside X whose maximal subgroups all lie in X",
    }
    for name, help_text in commands.items():
        p = sub.add_parser(name, help=help_text)
        if name in ("hypercenter", "intersection", "s-critical"):
            p.add_argument("--class", dest="class_selector", default="N*",
                           help="class selector: N, Np:<prime>, N*, Nca, abelian, all")
        p.add_argument("--corpus", default=None,
                       help="builtin corpus name (smoke, standard, extended) "
                            "or path to a JSON corpus spec")
        p.add_argument("--group", dest="group_path", default=None,
                       help="path to a single group definition file")
        p.add_argument("--enumeration-bound", type=int, default=DEFAULT.enumeration)
        p.add_argument("--lattice-bound", type=int, default=DEFAULT.lattice)
        p.add_argument("--semidirect-bound", type=int, default=DEFAULT.semidirect_degree)
        p.add_argument("--output", default=None, help="write reports to this file")
        p.add_argument("--no-timings", dest="timings", action="store_false",
                       help="omit timing fields for byte-identical reruns")
        if name == "info":
            p.add_argument("--emit-generators", action="store_true",
                           help="print each group back in the definition format")
        if name == "s-critical":
            p.add_argument("--max-order", type=int, default=None,
                           help="restrict the corpus to groups of at most this order")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    config = CliConfig(**vars(parser.parse_args(argv)))
    for bound in (config.enumeration_bound, config.lattice_bound, config.semidirect_bound):
        if bound < 1:
            print("bounds must be positive", file=sys.stderr)
            return 2
    try:
        return run(config)
    except BrokenPipeError:  # the reader went away (``| head``)
        _discard_stdout()
        return 141
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource bound exceeded: {exc}", file=sys.stderr)
        return 3
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
