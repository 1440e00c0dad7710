"""Classes of groups as first-class values, and the membership predicates
built on chief series: nilpotency, quasi-F membership, N_ca membership, and
s-critical group detection.

Built-in classes: N (nilpotent), Np:<p> (p-groups), N* (quasinilpotent),
Nca, abelian, and all.  X-centrality of a chief factor H/K is by definition
membership of (H/K) x| G/C_G(H/K) in X; two production paths avoid building
that product:

* N* carries a central test from the paper's Remark 4: H/K is N*-central
  iff every element of G acts on it as an inner automorphism, i.e.
  G = H * C_G(H/K).
* A class with a canonical local definition p -> F(p) reduces F-centrality
  to G/C_G(H/K) lying in F(p) for every prime p dividing the factor order.

The definitional semidirect path stays available, and both shortcuts are
asserted equal to it on every corpus chief factor in the tests.

Classes compare and hash by identity, so caches keyed by a class never
serve one class's verdicts to another class that shares its name.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cache
from typing import Callable, Sequence

from .chiefs import (
    ChiefFactor,
    _chief_series,
    all_generators_induce_inner,
    factor_semidirect,
    minimal_normal_subgroups,
)
from .errors import InputError, ResourceLimitError
from .groups import PermGroup, commutator_subgroup, quotient_group
from .lattice import MASK_RULES, all_subgroups
from .limits import cache_key
from .primes import is_prime, prime_divisors


@dataclass(frozen=True, eq=False)
class GroupClass:
    """A named, isomorphism-invariant membership predicate.

    ``local_definition`` (when present) maps each prime p to the class F(p)
    of a canonical local definition; ``central_test`` (when present) decides
    X-centrality of a chief factor without building the semidirect product;
    ``hereditary`` asserts closure under subgroups, and ``contains_nilpotent``
    that every nilpotent group belongs.  For user-supplied local definitions
    both fullness and integration are taken on faith (they quantify over all
    groups), and a warning is issued.
    """

    name: str
    membership: Callable[[PermGroup], bool]
    local_definition: Callable[[int], "GroupClass"] | None = None
    central_test: Callable[[ChiefFactor], bool] | None = None
    hereditary: bool = False
    contains_nilpotent: bool = False
    user_asserted: bool = False

    def member(self, G: PermGroup) -> bool:
        key = cache_key("class_member", self)
        cached = G._cache.get(key)
        if cached is None:
            cached = G._cache[key] = bool(self.membership(G))
        return cached


# -- elementary predicates ---------------------------------------------------


def is_nilpotent(G: PermGroup) -> bool:
    """Lower central series test: iterated [G, L] must reach the trivial group."""
    cached = G._cache.get("nilpotent")
    if cached is not None:
        return cached
    whole = G.self_subgroup()
    L = whole
    while True:
        nxt = commutator_subgroup(G, whole, L)
        if nxt.order == 1:
            verdict = True
            break
        if nxt.order == L.order:
            verdict = False
            break
        L = nxt
    G._cache["nilpotent"] = verdict
    return verdict


def is_p_group(G: PermGroup, p: int) -> bool:
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    n = G.order
    while n % p == 0:
        n //= p
    return n == 1


def is_abelian_group(G: PermGroup) -> bool:
    return G.is_abelian()


# -- X-centrality of chief factors -------------------------------------------


def is_class_central_semidirect(cf: ChiefFactor, X: GroupClass) -> bool:
    """Definitional path: X.member((H/K) x| G/C_G(H/K))."""
    return X.member(factor_semidirect(cf))


def is_class_central_local(cf: ChiefFactor, X: GroupClass) -> bool:
    """Lemma-style path: G/C_G(H/K) in F(p) for every p dividing |H/K|."""
    if X.local_definition is None:
        raise InputError(f"class {X.name} has no local definition")
    if X.user_asserted:
        warnings.warn(
            f"local definition of {X.name} is user-asserted full and integrated",
            stacklevel=2,
        )
    Q = _centralizer_quotient(cf)
    return all(X.local_definition(p).member(Q) for p in prime_divisors(cf.factor.order))


def _centralizer_quotient(cf: ChiefFactor) -> PermGroup:
    key = cache_key("centralizer_quotient")
    cached = cf._cache.get(key)
    if cached is None:
        cached = cf._cache[key] = quotient_group(cf.ambient, cf.centralizer).group
    return cached


def is_class_central(cf: ChiefFactor, X: GroupClass) -> bool:
    """Is the chief factor X-central, i.e. (H/K) x| G/C_G(H/K) in X?

    A class's own central test answers first (for N*, the inner-automorphism
    criterion of Remark 4).  Otherwise classes with a hereditary canonical
    local definition use the local path, and the rest build and test the
    semidirect product.  When the product exceeds the bounds, the local path
    is the fallback; without one the resource error propagates.
    """
    key = cache_key("central", X)
    cached = cf._cache.get(key)
    if cached is not None:
        return cached
    if X.central_test is not None:
        verdict = X.central_test(cf)
    elif X.local_definition is not None and X.hereditary:
        verdict = is_class_central_local(cf, X)
    else:
        try:
            verdict = is_class_central_semidirect(cf, X)
        except ResourceLimitError:
            if X.local_definition is not None:
                verdict = is_class_central_local(cf, X)
            else:
                raise
    cf._cache[key] = verdict
    return verdict


# -- quasi-F membership --------------------------------------------------------


def is_quasi_F(G: PermGroup, F: GroupClass) -> bool:
    """Every chief factor is F-central or has all of G inducing inner
    automorphisms on it.

    Only one chief series is walked, up to the first failing factor; the
    verdict is tie-break independent by Jordan-Hoelder (asserted in tests).
    """
    if not F.contains_nilpotent:
        raise InputError(
            f"quasi-{F.name} membership requires a class containing all nilpotent groups"
        )
    for cf in _chief_series(G):
        if all_generators_induce_inner(cf):
            continue
        if is_class_central(cf, F):
            continue
        return False
    return True


def is_quasinilpotent(G: PermGroup) -> bool:
    return is_quasi_F(G, NILPOTENT)


def is_nca_member(G: PermGroup) -> bool:
    """Abelian chief factors central, non-abelian chief factors simple."""
    for cf in _chief_series(G):
        if cf.factor_is_abelian():
            if not cf.is_central():
                return False
        else:
            mns = minimal_normal_subgroups(cf.factor)
            if len(mns) != 1 or mns[0].order != cf.factor.order:
                return False
    return True


# -- built-in classes ---------------------------------------------------------


@cache
def p_groups(p: int) -> GroupClass:
    """The class of p-groups; one object per prime, so class-keyed caches hit."""
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    X = GroupClass(
        name=f"Np:{p}",
        membership=lambda G: is_p_group(G, p),
        hereditary=True,
    )
    MASK_RULES[X] = lambda order, nilpotent: prime_divisors(order) in ([], [p])
    return X


NILPOTENT = GroupClass(
    name="N",
    membership=is_nilpotent,
    local_definition=p_groups,
    hereditary=True,
    contains_nilpotent=True,
)

QUASINILPOTENT = GroupClass(
    name="N*",
    membership=is_quasinilpotent,
    central_test=all_generators_induce_inner,
    contains_nilpotent=True,
)

NCA = GroupClass(
    name="Nca",
    membership=is_nca_member,
    contains_nilpotent=True,
)

ABELIAN = GroupClass(
    name="abelian",
    membership=is_abelian_group,
    hereditary=True,
)

ALL_GROUPS = GroupClass(
    name="all",
    membership=lambda G: True,
    local_definition=lambda p: ALL_GROUPS,
    hereditary=True,
    contains_nilpotent=True,
)


def _accept_nilpotent(order: int, nilpotent: bool) -> bool | None:
    # only central chief factors, so in Nca and in every quasi-F class
    return True if nilpotent else None


def _nilpotent_or_simple_section(order: int, nilpotent: bool) -> bool | None:
    # a non-nilpotent N*- or Nca-group has a non-abelian simple section, whose
    # order 4 and at least three primes divide (see the lattice docstring)
    if nilpotent:
        return True
    return None if order % 4 == 0 and len(prime_divisors(order)) >= 3 else False


# verdicts on lattice nodes' masks (lattice.MASK_RULES); user classes get none
MASK_RULES[NILPOTENT] = lambda order, nilpotent: nilpotent
MASK_RULES[QUASINILPOTENT] = MASK_RULES[NCA] = _nilpotent_or_simple_section
MASK_RULES[ALL_GROUPS] = lambda order, nilpotent: True


@cache
def quasi_class(F: GroupClass) -> GroupClass:
    """The class F* of quasi-F groups (N* when F is the nilpotent class);
    one object per F, so class-keyed caches hit across calls."""
    if F is NILPOTENT:
        return QUASINILPOTENT
    Fstar = GroupClass(
        name=f"({F.name})*",
        membership=lambda G: is_quasi_F(G, F),
        contains_nilpotent=True,
    )
    if F.contains_nilpotent:  # otherwise membership raises InputError
        MASK_RULES[Fstar] = _accept_nilpotent
    return Fstar


def builtin_classes() -> tuple[GroupClass, ...]:
    return (NILPOTENT, QUASINILPOTENT, NCA, ABELIAN, ALL_GROUPS)


def class_by_name(selector: str) -> GroupClass:
    """Resolve a CLI class selector: N, Np:<prime>, N*, Nca, abelian, all."""
    table = {"N": NILPOTENT, "N*": QUASINILPOTENT, "Nca": NCA,
             "abelian": ABELIAN, "all": ALL_GROUPS}
    if selector in table:
        return table[selector]
    if selector.startswith("Np:"):
        try:
            p = int(selector[3:])
        except ValueError:
            raise InputError(f"bad prime in class selector {selector!r}") from None
        return p_groups(p)
    raise InputError(
        f"unknown class selector {selector!r} (expected N, Np:<prime>, N*, Nca, abelian, all)"
    )


# -- s-critical groups ----------------------------------------------------------


def s_critical_groups(corpus: Sequence[PermGroup], X: GroupClass) -> list[PermGroup]:
    """Groups outside X all of whose maximal subgroups lie in X."""
    out = []
    for G in corpus:
        if X.member(G):
            continue
        lattice = all_subgroups(G)
        member = dict(zip(lattice.masks, lattice.class_membership(X)))
        if all(member[m] for m in lattice.maximal_masks()):
            out.append(G)
    return out
