"""Command-line frontend: parse group files, build corpora, run suites.

Exit codes: 0 all checks pass, 1 verification failure, 2 input error,
3 resource bound exceeded.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence, TextIO

from . import limits as limits_mod
from .classes import (
    NCA,
    NILPOTENT,
    QUASINILPOTENT,
    class_by_name,
    s_critical_groups,
)
from .chiefs import chief_series
from .corpus import builtin_corpus
from .errors import InputError, ResourceLimitError, VerificationError
from .groups import PermGroup, center
from .hypercenter import (
    compare_nca,
    hypercenter,
    intersection_of_class_maximal,
    verify_baer,
    verify_remark4,
    verify_theorem1,
)
from .limits import check_degree
from .named import CONSTRUCTOR_DEGREES, CONSTRUCTORS
from .perms import format_permutation, parse_permutation


@dataclass
class CliConfig:
    command: str
    class_selector: str = "N*"
    corpus: str | None = None
    group_path: str | None = None
    enumeration_bound: int = 10_000
    lattice_bound: int = 2_000
    semidirect_bound: int = 10_000
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
        text = p.read_text()
    except OSError as exc:
        raise InputError(f"cannot read group file {path!r}: {exc}") from None
    return parse_group_file(text, name=p.stem)


def _load_corpus_file(path: Path) -> list[PermGroup]:
    try:
        entries = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
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


def _resolve_groups(config: CliConfig) -> list[PermGroup]:
    if config.group_path:
        return [_load_group(config.group_path)]
    name = config.corpus or "smoke"
    if name in ("smoke", "standard", "extended"):
        return builtin_corpus(name)
    path = Path(name)
    if path.exists():
        return _load_corpus_file(path)
    raise InputError(f"unknown corpus {name!r} (not a builtin name or readable file)")


# -- commands ---------------------------------------------------------------------


def _emit(out: TextIO, line: str) -> None:
    out.write(line + "\n")


def _info(config: CliConfig, groups: Sequence[PermGroup], out: TextIO) -> int:
    for G in groups:
        _emit(out, f"group {G.name or '?'}: order {G.order}")
        _emit(out, f"  center order: {center(G).order}")
        series = chief_series(G)
        orders = ", ".join(str(n) for n in series.factor_orders()) or "-"
        _emit(out, f"  chief factor orders: {orders}")
        _emit(out, f"  abelian: {str(G.is_abelian()).lower()}")
        _emit(out, f"  nilpotent: {str(NILPOTENT.member(G)).lower()}")
        _emit(out, f"  quasinilpotent: {str(QUASINILPOTENT.member(G)).lower()}")
        _emit(out, f"  nca: {str(NCA.member(G)).lower()}")
        if config.emit_generators:
            out.write(format_group(G))
    return 0


def _hypercenter_cmd(config: CliConfig, groups: Sequence[PermGroup], out: TextIO) -> int:
    X = class_by_name(config.class_selector)
    for i, G in enumerate(groups):
        started = time.perf_counter()
        result = hypercenter(G, X)
        record = {
            "group_id": G.name or f"G{i}",
            "order": G.order,
            "class": X.name,
            "z_order": result.subgroup.order,
            "z_generators": [format_permutation(g) for g in result.subgroup.generators],
        }
        if config.timings:
            record["millis"] = (time.perf_counter() - started) * 1000.0
        _emit(out, json.dumps(record, sort_keys=True))
    return 0


def _intersection_cmd(config: CliConfig, groups: Sequence[PermGroup], out: TextIO) -> int:
    X = class_by_name(config.class_selector)
    for i, G in enumerate(groups):
        started = time.perf_counter()
        Int = intersection_of_class_maximal(G, X)
        record = {
            "group_id": G.name or f"G{i}",
            "order": G.order,
            "class": X.name,
            "int_order": Int.order,
            "int_generators": [format_permutation(g) for g in Int.generators],
        }
        if config.timings:
            record["millis"] = (time.perf_counter() - started) * 1000.0
        _emit(out, json.dumps(record, sort_keys=True))
    return 0


def _report_suite(reports, config: CliConfig, out: TextIO, assert_equal: bool) -> int:
    status = 0
    for report in reports:
        _emit(out, report.to_json(include_timing=config.timings))
    for report in reports:
        if report.error is not None:
            print(f"resource bound hit for {report.group_id}: {report.error}",
                  file=sys.stderr)
            return 3
    if assert_equal:
        for report in reports:
            if not report.equal:
                witness = ", ".join(report.witness) or "(orders differ)"
                print(
                    f"verification failed for {report.group_id}: "
                    f"z_order={report.z_order} int_order={report.int_order} "
                    f"witness: {witness}",
                    file=sys.stderr,
                )
                return 1
    return status


def _s_critical_cmd(config: CliConfig, groups: Sequence[PermGroup], out: TextIO) -> int:
    X = class_by_name(config.class_selector)
    pool = [G for G in groups if config.max_order is None or G.order <= config.max_order]
    critical = s_critical_groups(pool, X)
    names = {id(G): G.name or f"G{i}" for i, G in enumerate(pool)}
    for G in critical:
        _emit(out, json.dumps(
            {"group_id": names[id(G)], "order": G.order, "class": X.name},
            sort_keys=True,
        ))
    return 0


def run(config: CliConfig) -> int:
    limits_mod.DEFAULT.enumeration = config.enumeration_bound
    limits_mod.DEFAULT.lattice = config.lattice_bound
    limits_mod.DEFAULT.semidirect_degree = config.semidirect_bound
    groups = _resolve_groups(config)
    sink = open(config.output, "w") if config.output else sys.stdout
    try:
        if config.command == "info":
            return _info(config, groups, sink)
        if config.command == "hypercenter":
            return _hypercenter_cmd(config, groups, sink)
        if config.command == "intersection":
            return _intersection_cmd(config, groups, sink)
        if config.command == "verify-baer":
            return _report_suite(
                verify_baer(groups, collect_timing=config.timings),
                config, sink, assert_equal=True,
            )
        if config.command == "verify-corollary":
            return _report_suite(
                verify_theorem1(groups, NILPOTENT, collect_timing=config.timings),
                config, sink, assert_equal=True,
            )
        if config.command == "verify-remark4":
            return _report_suite(
                verify_remark4(groups, collect_timing=config.timings),
                config, sink, assert_equal=True,
            )
        if config.command == "compare-nca":
            return _report_suite(
                compare_nca(groups, collect_timing=config.timings),
                config, sink, assert_equal=False,
            )
        if config.command == "s-critical":
            return _s_critical_cmd(config, groups, sink)
        raise InputError(f"unknown command {config.command!r}")
    finally:
        if config.output:
            sink.close()


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
        p.add_argument("--class", dest="class_selector", default="N*",
                       help="class selector: N, Np:<prime>, N*, Nca, abelian, all")
        p.add_argument("--corpus", default=None,
                       help="builtin corpus name (smoke, standard, extended) "
                            "or path to a JSON corpus spec")
        p.add_argument("--group", dest="group_path", default=None,
                       help="path to a single group definition file")
        p.add_argument("--enumeration-bound", type=int, default=10_000)
        p.add_argument("--lattice-bound", type=int, default=2_000)
        p.add_argument("--semidirect-bound", type=int, default=10_000)
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
    ns = parser.parse_args(argv)
    config = CliConfig(
        command=ns.command,
        class_selector=ns.class_selector,
        corpus=ns.corpus,
        group_path=ns.group_path,
        enumeration_bound=ns.enumeration_bound,
        lattice_bound=ns.lattice_bound,
        semidirect_bound=ns.semidirect_bound,
        output=ns.output,
        timings=ns.timings,
        emit_generators=getattr(ns, "emit_generators", False),
        max_order=getattr(ns, "max_order", None),
    )
    for bound in (config.enumeration_bound, config.lattice_bound, config.semidirect_bound):
        if bound < 1:
            print("bounds must be positive", file=sys.stderr)
            return 2
    try:
        return run(config)
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
