"""X-hypercenter computation (greedy climb, each step decided by the class's
own test or on the definitional semidirect path), intersections of X-maximal
subgroups, and the verification suites.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from itertools import count
from typing import Callable, Iterable, Iterator, Sequence

from .chiefs import ChiefFactor, all_generators_induce_inner, ascend
from .chiefs import central_minimal_normal_subgroups
from .classes import (
    GroupClass,
    NCA,
    NILPOTENT,
    QUASINILPOTENT,
    is_class_central,
    is_class_central_semidirect,
    quasi_class,
)
from .errors import ResourceLimitError, VerificationError
from .groups import PermGroup, Subgroup, upper_central_series
from .lattice import all_subgroups, nilpotent_subgroups
from .perms import format_permutation


@dataclass
class HypercenterResult:
    group: PermGroup
    class_name: str
    subgroup: Subgroup
    climb_trace: tuple[tuple[Subgroup, int], ...]


@dataclass
class VerificationReport:
    group_id: str
    order: int
    class_name: str
    z_order: int | None
    int_order: int | None
    equal: bool
    witness: tuple[str, ...]
    z_generators: tuple[str, ...]
    int_generators: tuple[str, ...]
    millis: float | None
    error: str | None = None

    def to_record(self, include_timing: bool = True) -> dict:
        record = {
            "group_id": self.group_id,
            "order": self.order,
            "class": self.class_name,
            "z_order": self.z_order,
            "int_order": self.int_order,
            "equal": self.equal,
            "witness": list(self.witness),
            "z_generators": list(self.z_generators),
            "int_generators": list(self.int_generators),
        }
        if include_timing:
            record["millis"] = self.millis
        if self.error is not None:
            record["error"] = self.error
        return record

    def to_json(self, include_timing: bool = True) -> str:
        return json.dumps(self.to_record(include_timing), sort_keys=True)


def _climb(
    G: PermGroup,
    step_ok: Callable[[ChiefFactor], bool],
    candidates: Callable[[PermGroup], Iterable[Subgroup]] | None = None,
    keep: bool = False,
) -> tuple[Subgroup, tuple[tuple[Subgroup, int], ...]]:
    """Greedy ascent (``chiefs.ascend``): lift one admissible minimal normal
    subgroup per step, until none of ``candidates(G/Z)`` passes ``step_ok``.
    Returns the top Z and the (term, factor order) of each step.  With
    ``keep``, G keeps the quotients G/Z for a later climb of G to share."""
    trace = tuple((cf.upper, cf.factor.order) for cf in ascend(G, step_ok, candidates, keep))
    return (trace[-1][0] if trace else G.trivial_subgroup()), trace


def hypercenter(G: PermGroup, X: GroupClass) -> HypercenterResult:
    """Z_X(G) via the greedy climb over X-central minimal normal subgroups; an
    N-central chief factor is central, so the N climb is offered those in Z(G/Z)."""
    central_only = central_minimal_normal_subgroups if X is NILPOTENT else None
    Z, trace = _climb(G, lambda cf: is_class_central(cf, X), central_only)
    return HypercenterResult(G, X.name, Z, trace)


def semidirect_hypercenter(G: PermGroup, X: GroupClass) -> Subgroup:
    """Z_X(G) by the same climb, every step decided on the definitional
    semidirect path; the independent side against which class shortcuts
    (such as the N* inner-automorphism test) are checked.  G keeps the
    quotients it climbs through, which ``inner_induction_hypercenter`` shares
    in ``verify_remark4``."""
    Z, _ = _climb(G, lambda cf: is_class_central_semidirect(cf, X), keep=True)
    return Z


def intersection_of_class_maximal(G: PermGroup, X: GroupClass) -> Subgroup:
    """Int_X(G): elementwise intersection of all X-maximal subgroups of G."""
    lattice = nilpotent_subgroups(G) if X is NILPOTENT else all_subgroups(G)
    masks = lattice.class_maximal_masks(X)
    mask = (1 << G.order) - 1
    for m in masks:
        mask &= m
    return lattice.subgroup_from_mask(mask)


def inner_induction_hypercenter(G: PermGroup) -> Subgroup:
    """Greatest normal subgroup below which every element of G induces inner
    automorphisms on every chief factor (greedy climb form); G keeps the
    quotients it climbs through, as ``semidirect_hypercenter`` does."""
    Z, _ = _climb(G, all_generators_induce_inner, keep=True)
    return Z


# -- verification suites -------------------------------------------------------


def _gen_strings(sub: PermGroup) -> tuple[str, ...]:
    return tuple(format_permutation(g) for g in sub.generators)


def _symmetric_difference(A: Subgroup, B: Subgroup) -> tuple[str, ...]:
    diff = A.element_set() ^ B.element_set()
    return tuple(format_permutation(p) for p in sorted(diff))


def _group_id(G: PermGroup, index: int) -> str:
    return G.name if G.name else f"G{index}"


def _contains_subgroup(big: PermGroup, small: PermGroup) -> bool:
    return all(big.contains(g) for g in small.generators)


Sides = Callable[[PermGroup, str], tuple[Subgroup, Subgroup, bool]]


def run_suite(
    corpus: Iterable[PermGroup], class_name: str, sides: Sides
) -> Iterator[VerificationReport]:
    """Run one verification suite lazily, one report per corpus group.

    ``sides(G, group_id)`` returns (Z, other side, equal); each report is
    yielded as soon as its group is done.  A group is computed under the
    bounds in effect while the suite is iterated, not where it was created.
    A resource error is recorded in the group's report and the run goes on;
    any other error propagates after the earlier groups' reports have been
    yielded.

    Once a group's report is out the suite holds nothing of it, and nothing
    a group holds refers back to it, so reference counting frees it.  Over a
    generator that holds no group it has handed out, a run needs the memory
    of its largest group, as in the CLI; ``verify_*`` return lists.
    """

    def report(index: int, G: PermGroup) -> VerificationReport:
        gid = _group_id(G, index)
        started = time.perf_counter()
        try:
            Z, other, equal = sides(G, gid)
        except ResourceLimitError as exc:
            return VerificationReport(
                group_id=gid, order=G.order, class_name=class_name,
                z_order=None, int_order=None, equal=False, witness=(),
                z_generators=(), int_generators=(), millis=None, error=str(exc),
            )
        millis = (time.perf_counter() - started) * 1000.0
        return VerificationReport(
            group_id=gid, order=G.order, class_name=class_name,
            z_order=Z.order, int_order=other.order, equal=equal,
            witness=() if equal else _symmetric_difference(Z, other),
            z_generators=_gen_strings(Z), int_generators=_gen_strings(other),
            millis=millis,
        )

    # map holds no group between reports; a generator's loop variable, or
    # the tuple enumerate reuses, would hold the last one while suspended
    return map(report, count(), corpus)


def corollary_sides(F: GroupClass) -> Sides:
    """Z_{F*}(G) and Int_{F*}(G); Z <= Int is a proved inclusion, so its
    failure raises VerificationError."""
    Fstar = quasi_class(F)

    def sides(G: PermGroup, gid: str):
        Z = hypercenter(G, Fstar).subgroup
        Int = intersection_of_class_maximal(G, Fstar)
        if not _contains_subgroup(Int, Z):
            raise VerificationError(
                f"Z_{{{Fstar.name}}} not contained in Int_{{{Fstar.name}}} for {gid}; "
                f"witness generators {_gen_strings(Z)}"
            )
        return Z, Int, Z == Int

    return sides


def baer_sides(G: PermGroup, gid: str):
    """Z_N(G) and Int_N(G), equal when both are the top of the upper central series."""
    Z = hypercenter(G, NILPOTENT).subgroup
    Int = intersection_of_class_maximal(G, NILPOTENT)
    ucs_top = upper_central_series(G)[-1]
    return Z, Int, Z == Int and Z == ucs_top


def remark4_sides(G: PermGroup, gid: str):
    """Z_{N*}(G) climbed on the semidirect path and the inner-induction hypercenter."""
    Z = semidirect_hypercenter(G, QUASINILPOTENT)
    inner = inner_induction_hypercenter(G)
    return Z, inner, Z == inner


def nca_sides(G: PermGroup, gid: str):
    """Z_{Nca}(G) and Int_{Nca}(G)."""
    Z = hypercenter(G, NCA).subgroup
    Int = intersection_of_class_maximal(G, NCA)
    return Z, Int, Z == Int


def verify_theorem1(corpus: Sequence[PermGroup], F: GroupClass) -> list[VerificationReport]:
    """Per corpus group: Z_{F*}(G) and Int_{F*}(G), with the equality verdict.

    The containment Z <= Int is asserted unconditionally; its failure would
    contradict a proved inclusion and raises VerificationError.  Per-group
    resource errors are recorded in the report rather than aborting the run.
    """
    return list(run_suite(corpus, quasi_class(F).name, corollary_sides(F)))


def verify_baer(corpus: Sequence[PermGroup]) -> list[VerificationReport]:
    """Int_N(G) = Z_N(G) = top of the upper central series, per corpus group."""
    return list(run_suite(corpus, NILPOTENT.name, baer_sides))


def verify_remark4(corpus: Sequence[PermGroup]) -> list[VerificationReport]:
    """inner_induction_hypercenter(G) = Z_{N*}(G), per corpus group.

    Z_{N*} is climbed on the definitional semidirect path, not through N*'s
    central test, which is this very criterion: each step tests membership
    of P = (H/K) x| G/C_G(H/K) in N*, on P's first chief factor X in P and
    then the chief series of the action image G/C_G(H/K) = P/X
    (``chiefs.chief_factors``).  The int_* report fields carry the
    inner-induction side of the comparison.
    """
    return list(run_suite(corpus, QUASINILPOTENT.name, remark4_sides))


def compare_nca(corpus: Sequence[PermGroup]) -> list[VerificationReport]:
    """Observe Z_{Nca}(G) against Int_{Nca}(G); nothing is asserted.

    The two sides can differ (the known separating group is far beyond desk
    scale), so the report records whatever the corpus shows.
    """
    return list(run_suite(corpus, NCA.name, nca_sides))
