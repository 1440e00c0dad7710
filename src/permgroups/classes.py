"""Classes of groups as first-class values, and the membership predicates
built on chief series: nilpotency, quasi-F membership, N_ca membership, and
s-critical group detection.

Built-in classes: N (nilpotent), Np:<p> (p-groups), N* (quasinilpotent),
Nca, abelian, and all.  X-centrality of a chief factor H/K is by definition
membership of (H/K) x| G/C_G(H/K) in X; two production paths avoid building
that product:

* N* carries a central test from the paper's Remark 4: H/K is N*-central
  iff every element of G acts on it as an inner automorphism, i.e. the
  factor's action image G/C_G(H/K) is Inn(H/K).
* A class with a canonical local definition p -> F(p) reduces F-centrality
  to G/C_G(H/K) lying in F(p) for every prime p dividing the factor order.

Every path reads G/C_G(H/K) as the chief factor's ``image``; none builds the
kernel C_G(H/K).

The definitional semidirect path stays available, and both shortcuts are
asserted equal to it on every corpus chief factor in the tests.  Quasi-F and
Nca membership walk ``chiefs.chief_factors``: on the semidirect product P it
walks P's action on its first chief factor X, then the chief series of the
action image G/C_G(H/K) = P/X, so no quotient of P is built.

Classes compare and hash by identity.  Only ``lattice.MASK_RULES`` is keyed
by class, so it never serves one class's rule to another class that shares
its name; no verdict is cached.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable

from .chiefs import (
    ChiefFactor,
    all_generators_induce_inner,
    chief_factors,
    factor_semidirect,
    minimal_normal_subgroups,
)
from .errors import InputError
from .groups import PermGroup, commutator_subgroup
from .lattice import MASK_RULES, all_subgroups
from .limits import check_degree
from .primes import is_prime, prime_divisors


@dataclass(frozen=True, eq=False)
class GroupClass:
    """A named, isomorphism-invariant membership predicate.

    ``local_definition`` (when present) maps each prime p to the class F(p)
    of a canonical local definition; ``central_test`` (when present) decides
    X-centrality of a chief factor without building the semidirect product;
    ``contains_nilpotent`` asserts that every nilpotent group belongs.  A local
    definition is taken to be full and integrated, so that it decides
    F-centrality; that quantifies over all groups and is not checked.
    """

    name: str
    membership: Callable[[PermGroup], bool]
    local_definition: Callable[[int], "GroupClass"] | None = None
    central_test: Callable[[ChiefFactor], bool] | None = None
    contains_nilpotent: bool = False

    def member(self, G: PermGroup) -> bool:
        return bool(self.membership(G))


# -- elementary predicates ---------------------------------------------------


def is_nilpotent(G: PermGroup) -> bool:
    """Lower central series test: iterated [G, L] must reach the trivial group."""
    whole = G.self_subgroup()
    L = whole
    while True:
        nxt = commutator_subgroup(G, whole, L)
        if nxt.order == 1:
            return True
        if nxt.order == L.order:
            return False
        L = nxt


def is_abelian_group(G: PermGroup) -> bool:
    return G.is_abelian()


# -- X-centrality of chief factors -------------------------------------------


def is_class_central_semidirect(cf: ChiefFactor, X: GroupClass) -> bool:
    """Definitional path: X.member((H/K) x| G/C_G(H/K))."""
    return X.member(factor_semidirect(cf))


def is_class_central_local(cf: ChiefFactor, X: GroupClass) -> bool:
    """Lemma-style path: G/C_G(H/K) in F(p) for every p dividing |H/K|,
    with G/C_G(H/K) the group G induces on the factor (``cf.image``)."""
    if X.local_definition is None:
        raise InputError(f"class {X.name} has no local definition")
    return all(X.local_definition(p).member(cf.image) for p in prime_divisors(cf.factor.order))


def is_class_central(cf: ChiefFactor, X: GroupClass) -> bool:
    """Is the chief factor X-central, i.e. (H/K) x| G/C_G(H/K) in X?

    A class's own central test answers first (for N*, the inner-automorphism
    criterion of Remark 4); otherwise a class with a local definition takes
    the local path, and the rest build and test the semidirect product, whose
    resource errors propagate.
    """
    if X.central_test is not None:
        return X.central_test(cf)
    if X.local_definition is not None:
        return is_class_central_local(cf, X)
    return is_class_central_semidirect(cf, X)


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
    for cf in chief_factors(G):
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
    for cf in chief_factors(G):
        if cf.factor.is_abelian():
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
    """The class of p-groups; one object per prime, so ``MASK_RULES`` holds one
    rule per prime.
    p is checked when its class is first built, and not again by membership."""
    # a nontrivial p-group moves at least p points: bound p before trial division
    check_degree(p, f"the p-groups for p = {p}")
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    X = GroupClass(
        name=f"Np:{p}",
        membership=lambda G: prime_divisors(G.order) in ([], [p]),
    )
    MASK_RULES[X] = lambda order, nilpotent: prime_divisors(order) in ([], [p])
    return X


NILPOTENT = GroupClass(
    name="N",
    membership=is_nilpotent,
    local_definition=p_groups,
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
)

ALL_GROUPS = GroupClass(
    name="all",
    membership=lambda G: True,
    local_definition=lambda p: ALL_GROUPS,
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
    one object per F, so ``MASK_RULES`` holds one rule per F."""
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


def is_s_critical(G: PermGroup, X: GroupClass) -> bool:
    """Is G outside X with all of its maximal subgroups in X?"""
    if X.member(G):
        return False
    lattice = all_subgroups(G)
    member = dict(zip(lattice.masks, lattice.class_membership(X)))
    return all(member[m] for m in lattice.maximal_masks())
