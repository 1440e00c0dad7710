"""Span tracer for the benchmark's traced run.

Instrumentation lives here, outside the package: a module-level function is
replaced in every ``permgroups`` module that bound it (the modules use
``from .x import f``), and a method is replaced on its class.  Each wrapped
call records a span ``[name, start, end, parent]`` in memory.  Calls made
millions of times (permutation products, inverses, chain membership) are
counted without spans.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        # [name, start, end, index of the parent span or -1]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def spanned(self, name: str, fn, before=None, after=None):
        """``fn`` wrapped in a span; ``before(*args)`` runs ahead of the span
        and ``after(result, *args)`` once it has ended."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before(*args)
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if after is not None:
                after(result, *args)
            return result

        return traced

    def patch_attr(self, owner: object, attr: str, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def patch_function(self, fn, replacement) -> None:
        """Replace ``fn`` at every binding site in the loaded permgroups modules."""
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "permgroups" and not mod_name.startswith("permgroups."):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.patch_attr(module, attr, replacement)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write_spans(self, path: Path) -> None:
        with path.open("w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def self_times(spans: list[list]) -> Counter:
    """Per span name: total duration minus the time its child spans cover."""
    child_time = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: Counter = Counter()
    for i, (name, start, end, _) in enumerate(spans):
        out[name] += (end - start) - child_time[i]
    return out


def covered_time(spans: list[list]) -> float:
    """Time covered by root spans (nothing runs concurrently)."""
    return sum(end - start for _, start, end, parent in spans if parent < 0)


# Per-layer metrics: (name, unit).  Every ``*_s`` name is the self time of
# the span of the same stem, so these plus trace.untraced_s add up to the
# traced wall time.
LAYER_METRICS = [
    ("perms.mul_count", "count"),
    ("perms.mul_points", "count"),
    ("perms.inverse_count", "count"),
    ("chain.build_count", "count"),
    ("chain.build_s", "s"),
    ("chain.contains_count", "count"),
    ("groups.elements_s", "s"),
    ("groups.conjugacy_classes_s", "s"),
    ("groups.centralizer_s", "s"),
    ("groups.subgroup_from_elements_s", "s"),
    ("groups.subgroup_from_elements_count", "count"),
    ("groups.normal_closure_s", "s"),
    ("groups.quotient_s", "s"),
    ("groups.quotient_count", "count"),
    ("groups.upper_central_series_s", "s"),
    ("lattice.build_s", "s"),
    ("lattice.build_count", "count"),
    ("lattice.nodes", "count"),
    ("lattice.class_membership_s", "s"),
    ("lattice.member_tests", "count"),
    ("chiefs.chief_factor_s", "s"),
    ("chiefs.chief_factor_count", "count"),
    ("chiefs.factor_centralizer_s", "s"),
    ("chiefs.minimal_normal_s", "s"),
    ("chiefs.minimal_normal_count", "count"),
    ("chiefs.chief_series_s", "s"),
    ("chiefs.chief_series_count", "count"),
    ("chiefs.factor_semidirect_s", "s"),
    ("chiefs.factor_semidirect_count", "count"),
    ("chiefs.semidirect_order_sum", "count"),
    ("chiefs.inner_induction_s", "s"),
    ("classes.central_s", "s"),
    ("classes.central_semidirect_count", "count"),
    ("classes.central_local_count", "count"),
    ("classes.member_s", "s"),
    ("classes.member_calls", "count"),
    ("classes.member_cache_hit_ratio", "ratio"),
    ("hypercenter.climb_s", "s"),
    ("hypercenter.climb_steps", "count"),
    ("hypercenter.intersection_s", "s"),
    ("hypercenter.inner_induction_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.untraced_s", "s"),
]


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of the loaded permgroups package."""
    # by module path: the package re-exports the function ``hypercenter``
    chain, chiefs, classes, groups, hypercenter, lattice, perms = (
        importlib.import_module(f"permgroups.{name}")
        for name in ("chain", "chiefs", "classes", "groups", "hypercenter", "lattice", "perms")
    )
    counts = tracer.counts

    def counted(name: str, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def span_method(cls, attr: str, name: str, **hooks) -> None:
        tracer.patch_attr(cls, attr, tracer.spanned(name, getattr(cls, attr), **hooks))

    def span_function(fn, name: str, **hooks) -> None:
        tracer.patch_function(fn, tracer.spanned(name, fn, **hooks))

    def count_call(metric: str):
        def hook(*_):
            counts[metric] += 1
        return hook

    # perms: counted only, millions of calls
    mul = perms.Permutation.__mul__

    def counted_mul(self, other):
        counts["perms.mul_count"] += 1
        counts["perms.mul_points"] += len(self.images)
        return mul(self, other)

    tracer.patch_attr(perms.Permutation, "__mul__", counted_mul)
    tracer.patch_attr(perms.Permutation, "inverse",
                      counted("perms.inverse_count", perms.Permutation.inverse))

    # chain
    span_method(chain.StabilizerChain, "__init__", "chain.build",
                before=count_call("chain.build_count"))
    tracer.patch_attr(chain.StabilizerChain, "contains",
                      counted("chain.contains_count", chain.StabilizerChain.contains))

    # groups
    span_method(groups.PermGroup, "elements", "groups.elements")
    span_method(groups.PermGroup, "conjugacy_classes", "groups.conjugacy_classes")
    span_function(groups.centralizer, "groups.centralizer")
    span_function(groups.subgroup_from_elements, "groups.subgroup_from_elements",
                  before=count_call("groups.subgroup_from_elements_count"))
    span_function(groups.normal_closure, "groups.normal_closure")
    span_function(groups.quotient_group, "groups.quotient",
                  before=count_call("groups.quotient_count"))
    span_function(groups.upper_central_series, "groups.upper_central_series")

    # lattice
    def lattice_built(_, lat, *__):
        counts["lattice.build_count"] += 1
        counts["lattice.nodes"] += lat.node_count()

    def membership_done(_, lat, *__):
        counts["lattice.member_tests"] += len(lat.conjugation_orbits)

    span_method(lattice.SubgroupLattice, "__init__", "lattice.build", after=lattice_built)
    span_method(lattice.SubgroupLattice, "class_membership", "lattice.class_membership",
                after=membership_done)

    # chiefs
    def semidirect_built(product, *_):
        counts["chiefs.semidirect_order_sum"] += product.order

    span_method(chiefs.ChiefFactor, "__init__", "chiefs.chief_factor",
                before=count_call("chiefs.chief_factor_count"))
    span_method(chiefs.ChiefFactor, "_compute_centralizer", "chiefs.factor_centralizer")
    span_function(chiefs.minimal_normal_subgroups, "chiefs.minimal_normal",
                  before=count_call("chiefs.minimal_normal_count"))
    span_function(chiefs.chief_series, "chiefs.chief_series",
                  before=count_call("chiefs.chief_series_count"))
    span_function(chiefs.factor_semidirect, "chiefs.factor_semidirect",
                  before=count_call("chiefs.factor_semidirect_count"),
                  after=semidirect_built)
    span_function(chiefs.inner_induction_subgroup, "chiefs.inner_induction")

    # classes
    def member_called(X, G, *_):
        counts["classes.member_calls"] += 1
        # GroupClass.member keeps its verdict in G._cache under this key
        if ("class_member", X.name) in G._cache:
            counts["classes.member_cache_hits"] += 1

    span_function(classes.is_class_central, "classes.central")
    tracer.patch_function(classes.is_class_central_semidirect, counted(
        "classes.central_semidirect_count", classes.is_class_central_semidirect))
    tracer.patch_function(classes.is_class_central_local, counted(
        "classes.central_local_count", classes.is_class_central_local))
    span_method(classes.GroupClass, "member", "classes.member", before=member_called)

    # hypercenter
    def climbed(result, *_):
        counts["hypercenter.climb_steps"] += len(result[1])

    span_function(hypercenter._climb, "hypercenter.climb", after=climbed)
    span_function(hypercenter.intersection_of_class_maximal, "hypercenter.intersection")
    span_function(hypercenter.inner_induction_hypercenter, "hypercenter.inner_induction")


def layer_metrics(tracer: Tracer, traced_wall: float, untraced_wall: float) -> dict[str, float]:
    """Every LAYER_METRICS value from one traced run and its untraced twin."""
    values: dict[str, float] = dict(tracer.counts)
    for name, seconds in self_times(tracer.spans).items():
        values[name + "_s"] = seconds
    calls = values.get("classes.member_calls", 0)
    values["classes.member_cache_hit_ratio"] = (
        values.get("classes.member_cache_hits", 0) / calls if calls else 0.0
    )
    values["trace.overhead_ratio"] = traced_wall / untraced_wall
    values["trace.untraced_s"] = traced_wall - covered_time(tracer.spans)
    return {name: values.get(name, 0) for name, _ in LAYER_METRICS}
