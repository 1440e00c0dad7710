"""Normal structure: minimal normal subgroups, chief series, chief factors
with their conjugation action, and the factor semidirect product.

A chief factor H/K of G is realized on the cosets of K inside H (on H's own
elements when K is trivial).  The conjugation action of G permutes those
cosets by automorphisms; its kernel is the centralizer C_G(H/K), and the
preimage of the inner automorphisms is exactly H * C_G(H/K).  The kernel is
found by point stabilizers of G's generators glued to that action, never by
testing every element of G.
"""

from __future__ import annotations

from dataclasses import astuple
from typing import Iterable

from .chain import StabilizerChain
from .errors import InputError, PreconditionError, ResourceLimitError
from .groups import (
    PermGroup,
    Quotient,
    Subgroup,
    join_subgroups,
    quotient_group,
    subgroup_from_elements,
    walk_classes,
)
from .limits import Limits, resolve
from .perms import Permutation
from .primes import is_prime


class ChiefFactor:
    """A chief factor H/K of G together with the induced G-action."""

    def __init__(self, ambient: PermGroup, lower: Subgroup, upper: Subgroup,
                 limits: Limits | None = None):
        lim = resolve(limits)
        self.ambient = ambient
        self.lower = lower
        self.upper = upper
        self._cache: dict = {}

        if lower.is_trivial():
            # Cosets of 1 are the elements of H; use H itself as the factor.
            self.cosets: tuple[Permutation, ...] = upper.elements(lim.enumeration)
            self._coset_of = {e.images: i for i, e in enumerate(self.cosets)}
            self.factor: PermGroup = upper
            self._regular = False
        else:
            Q = Quotient(upper, lower, lim)
            self.cosets, self._coset_of, self.factor = Q.reps, Q._coset_of, Q.group
            self._regular = True

        # action of G's generators on the cosets, by conjugation
        self.action: dict[Permutation, Permutation] = {
            g: self.action_of(g) for g in ambient.generators
        }
        self.centralizer = self._compute_centralizer(lim)

    def factor_coset_of_element(self, h: Permutation) -> int:
        idx = self._coset_of.get(h.images)
        if idx is None:
            raise InputError("element does not belong to the upper term")
        return idx

    def action_of(self, g: Permutation) -> Permutation:
        """The permutation of the coset set induced by conjugation with g."""
        g_inv = g.inverse()
        coset_of = self._coset_of
        return Permutation._unchecked(
            tuple(coset_of[(g_inv * rep * g).images] for rep in self.cosets)
        )

    def _compute_centralizer(self, lim: Limits) -> Subgroup:
        """C_G(H/K), the kernel of G's conjugation action on the cosets.

        Each generator g of G is glued to its coset action as one permutation
        on degree + m points; the first degree points carry g, so the glued
        group is G.  The kernel fixes the cosets of H's generators (they
        generate H/K), so these points are stabilized in turn by the Schreier
        generators u * s * u'^-1 of their orbits that the kept ones' chain
        misses.  subgroup_from_elements reads only the kernel's element set,
        so the generators are those of testing every g in G (the test oracle).
        """
        G = self.ambient
        n = G.degree
        ident = Permutation.identity(n + len(self.cosets))
        gens = [
            Permutation._unchecked(g.images + tuple(n + c for c in self.action[g].images))
            for g in G.generators
        ]
        chain = None  # until a coset point moves, the kernel is G itself
        for h in self.upper.generators:
            point = n + self.factor_coset_of_element(h)
            if all(s.images[point] == point for s in gens):
                continue
            # orbit of the coset point, with transversal pairs (u, u^-1)
            trans = {point: (ident, ident)}
            queue = [point]
            for beta in queue:
                u = trans[beta][0]
                for s in gens:
                    gamma = s.images[beta]
                    if gamma not in trans:
                        v = u * s
                        trans[gamma] = (v, v.inverse())
                        queue.append(gamma)
            # its stabilizer, by the Schreier generators the kept ones miss
            chain = StabilizerChain(n, ())
            kept = []
            for beta in queue:
                u = trans[beta][0]
                for s in gens:
                    schreier = u * s * trans[s.images[beta]][1]
                    head = Permutation._unchecked(schreier.images[:n])
                    if head.is_identity() or chain.contains(head):
                        continue
                    kept.append(schreier)
                    chain._add(head)
            gens = kept
        heads = [Permutation._unchecked(s.images[:n]) for s in gens]
        kernel = G if chain is None else PermGroup(n, heads)
        return subgroup_from_elements(G, kernel.elements(lim.enumeration))

    def is_central(self) -> bool:
        return self.centralizer.order == self.ambient.order

    def factor_is_abelian(self) -> bool:
        return self.factor.is_abelian()

    def __repr__(self) -> str:
        return (
            f"<ChiefFactor |H/K|={self.factor.order} of order-{self.ambient.order} group>"
        )


class ChiefSeries:
    """An ascending chief series of G from the trivial subgroup to G."""

    def __init__(self, ambient: PermGroup, terms: Iterable[Subgroup],
                 factors: Iterable[ChiefFactor]):
        self.ambient = ambient
        self.terms = tuple(terms)
        self.factors = tuple(factors)

    def factor_orders(self) -> tuple[int, ...]:
        return tuple(cf.factor.order for cf in self.factors)


def minimal_normal_subgroups(G: PermGroup, limits: Limits | None = None) -> list[Subgroup]:
    """All minimal normal subgroups, sorted by their element-set encoding.

    Every minimal normal subgroup is the normal closure of any of its
    nontrivial elements, and contains one of prime order, so the minimal
    members of {<<x>> : x of prime order} are exactly the minimal normal
    subgroups.  One normal closure per conjugacy class suffices, and only the
    classes of prime-order elements are walked.  A class meeting a candidate
    of prime order is skipped: that candidate is generated by any of its
    nontrivial elements, so it is the class's normal closure.
    """
    lim = resolve(limits)
    key = ("min_normals", astuple(lim))
    cached = G._cache.get(key)
    if cached is not None:
        return list(cached)
    if G.order == 1:
        G._cache[key] = ()
        return []
    candidates: list[Subgroup] = []
    seen: set[Permutation] = set()
    elems = G.elements(lim.enumeration)
    for cls in walk_classes(G, elems, lambda x: is_prime(x.order()), seen):
        rep = cls[0]
        N = subgroup_from_elements(G, cls)  # <class of rep> = normal closure
        if is_prime(N.order):
            seen.update(N.elements(lim.enumeration))
        # N repeats a candidate iff one of its order holds rep (both are normal)
        if not any(c.order == N.order and c.contains(rep) for c in candidates):
            candidates.append(N)
    candidates.sort(key=lambda s: s.order)
    minimal: list[Subgroup] = []
    for cand in candidates:
        if not any(all(cand.contains(g) for g in kept.generators) for kept in minimal):
            minimal.append(cand)
    minimal.sort(key=_encoding)
    G._cache[key] = tuple(minimal)
    return minimal


def _encoding(sub: PermGroup) -> tuple:
    """Sorted element-set encoding used for deterministic tie-breaking."""
    return tuple(p.images for p in sub.elements())


def chief_series(G: PermGroup, limits: Limits | None = None,
                 reverse_tiebreak: bool = False) -> ChiefSeries:
    """A chief series built by lifting minimal normal subgroups of quotients.

    Tie-breaking among the minimal normal subgroups of the current quotient
    is by least sorted element-set encoding (greatest when reverse_tiebreak),
    so the construction is deterministic.
    """
    lim = resolve(limits)
    key = ("chief_series_rev" if reverse_tiebreak else "chief_series", astuple(lim))
    cached = G._cache.get(key)
    if cached is not None:
        return cached
    terms = [G.trivial_subgroup()]
    factors: list[ChiefFactor] = []
    while terms[-1].order < G.order:
        K = terms[-1]
        Q = quotient_group(G, K, lim)
        mns = minimal_normal_subgroups(Q.group, lim)
        chosen = mns[-1] if reverse_tiebreak else mns[0]
        H = Q.lift_subgroup(chosen)
        factors.append(ChiefFactor(G, K, H, lim))
        terms.append(H)
    series = ChiefSeries(G, terms, factors)
    G._cache[key] = series
    return series


def chief_factor(G: PermGroup, K: Subgroup, H: Subgroup,
                 limits: Limits | None = None) -> ChiefFactor:
    """The chief factor H/K, validating normality and minimality.

    Raises PreconditionError naming a witness when a normal subgroup of G
    lies strictly between K and H.
    """
    lim = resolve(limits)
    conj = [(g.inverse(), g) for g in G.generators]
    for sub, label in ((K, "K"), (H, "H")):
        for n in sub.generators:
            if not G.contains(n):
                raise InputError(f"{label} is not a subgroup of G")
            for g_inv, g in conj:
                if not sub.contains(g_inv * n * g):
                    raise PreconditionError(f"{label} is not normal in G")
    if not all(H.contains(k) for k in K.generators) or K.order >= H.order:
        raise PreconditionError("need K < H with K contained in H")
    Q = quotient_group(G, K, lim)
    Hbar = Subgroup(Q.group, [Q.project(h) for h in H.generators])
    for mn in minimal_normal_subgroups(Q.group, lim):
        if mn.order < Hbar.order and all(Hbar.contains(g) for g in mn.generators):
            witness = Q.lift_subgroup(mn)
            raise PreconditionError(
                f"H/K is not a chief factor: normal subgroup of order {witness.order} "
                f"lies strictly between (generators {witness.generators})"
            )
    if not any(mn == Hbar for mn in minimal_normal_subgroups(Q.group, lim)):
        raise PreconditionError("H/K is not a minimal normal subgroup of G/K")
    return ChiefFactor(G, K, H, lim)


def induces_inner_automorphism(
    cf: ChiefFactor, g: Permutation, limits: Limits | None = None
) -> tuple[bool, Permutation | None]:
    """Brute-force test: does g act on H/K as conjugation by some coset?

    Returns (verdict, witness representative).  This scans the factor's
    elements one by one; the subgroup shortcut is inner_induction_subgroup.
    """
    if not cf.ambient.contains(g):
        raise InputError("element lies outside the ambient group")
    sigma = cf.action_of(g)
    coset_of = cf._coset_of
    for c in cf.cosets:
        c_inv = c.inverse()
        if all(
            coset_of[(c_inv * rep * c).images] == sigma.images[i]
            for i, rep in enumerate(cf.cosets)
        ):
            return True, c
    return False, None


def inner_induction_subgroup(cf: ChiefFactor) -> Subgroup:
    """All g in G acting on H/K as an inner automorphism.

    The action homomorphism sends H onto Inn(H/K), so the full preimage of
    the inner automorphisms is H * C_G(H/K); in particular it is a subgroup.
    """
    cached = cf._cache.get("inner_subgroup")
    if cached is None:
        cached = cf._cache["inner_subgroup"] = join_subgroups(
            cf.ambient, cf.upper, cf.centralizer
        )
    return cached


def all_generators_induce_inner(cf: ChiefFactor) -> bool:
    """Does all of G act on H/K by inner automorphisms, i.e. G = H * C_G(H/K)?

    Inner-inducing elements form a subgroup (the preimage of Inn(H/K)), so
    G's generators suffice; the brute-force per-element oracle is
    induces_inner_automorphism.
    """
    iis = inner_induction_subgroup(cf)
    return all(iis.contains(g) for g in cf.ambient.generators)


def factor_semidirect(cf: ChiefFactor, limits: Limits | None = None) -> PermGroup:
    """(H/K) x| G/C_G(H/K), realized faithfully on the factor's element set.

    The acting group is the conjugation image of G, which is faithful on the
    factor by construction, so the translations of H/K together with the
    action images generate a group of order |H/K| * |G : C_G(H/K)|.
    """
    lim = resolve(limits)
    n = cf.factor.order
    quot = cf.ambient.order // cf.centralizer.order
    # every call checks the bounds, also when the product is cached
    if n > lim.semidirect_degree or n * quot > lim.enumeration:
        raise ResourceLimitError(
            f"factor semidirect product of order {n * quot} on {n} points "
            f"exceeds the configured bounds"
        )
    cached = cf._cache.get("factor_semidirect")
    if cached is not None:
        return cached
    elems = cf.factor.elements(lim.enumeration)
    index = {e: i for i, e in enumerate(elems)}
    # element <-> coset identification (regular action from the identity coset)
    if cf._regular:
        elem_to_coset = [e.images[0] for e in elems]
    else:
        elem_to_coset = [cf.factor_coset_of_element(e) for e in elems]
    coset_to_elem = [0] * n
    for e_idx, c_idx in enumerate(elem_to_coset):
        coset_to_elem[c_idx] = e_idx

    gens: list[Permutation] = []
    for fgen in cf.factor.generators:
        gens.append(Permutation._unchecked(tuple(index[e * fgen] for e in elems)))
    for sigma in cf.action.values():
        images = tuple(
            coset_to_elem[sigma.images[elem_to_coset[x]]] for x in range(n)
        )
        gens.append(Permutation._unchecked(images))
    product = PermGroup(n, gens)
    cf._cache["factor_semidirect"] = product
    return product


def normal_subgroups(G: PermGroup, limits: Limits | None = None) -> list[Subgroup]:
    """Every normal subgroup of G (join closure of class normal closures)."""
    lim = resolve(limits)
    cache_key = ("normal_subgroups", astuple(lim))
    cached = G._cache.get(cache_key)
    if cached is not None:
        return list(cached)
    seeds: list[Subgroup] = []
    seen: set[frozenset] = set()
    for cls in G.conjugacy_classes(lim.enumeration):
        if cls[0].is_identity():
            continue
        N = subgroup_from_elements(G, cls)
        key = N.element_set(lim.enumeration)
        if key not in seen:
            seen.add(key)
            seeds.append(N)
    normals: dict[frozenset, Subgroup] = {
        G.trivial_subgroup().element_set(): G.trivial_subgroup()
    }
    worklist = list(seeds)
    for s in seeds:
        normals.setdefault(s.element_set(), s)
    while worklist:
        cur = worklist.pop()
        for s in seeds:
            if s.element_set() <= cur.element_set():
                continue
            J = join_subgroups(G, cur, s)
            key = J.element_set(lim.enumeration)
            if key not in normals:
                normals[key] = J
                worklist.append(J)
    out = sorted(normals.values(), key=lambda N: (N.order, _encoding(N)))
    G._cache[cache_key] = tuple(out)
    return list(out)


def semisimple_decomposition(
    G: PermGroup, N: Subgroup, limits: Limits | None = None
) -> list[Subgroup]:
    """Express a semisimple non-abelian normal subgroup N as an internal
    direct product of minimal normal subgroups of G."""
    lim = resolve(limits)
    conj = [(g.inverse(), g) for g in G.generators]
    for n in N.generators:
        for g_inv, g in conj:
            if not N.contains(g_inv * n * g):
                raise PreconditionError("N is not normal in G")
    _require_semisimple(N, lim)
    chosen: list[Subgroup] = []
    current = G.trivial_subgroup()
    for M in minimal_normal_subgroups(G, lim):
        if current.order == N.order:
            break
        if not all(N.contains(g) for g in M.generators):
            continue
        joined = join_subgroups(G, current, M)
        if joined.order == current.order * M.order:
            chosen.append(M)
            current = joined
    if current.order != N.order or not all(N.contains(g) for g in current.generators):
        raise PreconditionError(
            "N is not the direct product of minimal normal subgroups of G"
        )
    return chosen


def _require_semisimple(N: Subgroup, lim: Limits) -> None:
    if N.is_abelian():
        raise PreconditionError("N is abelian, not a product of non-abelian simples")
    parts = minimal_normal_subgroups(N, lim)
    total = 1
    orders = set()
    for part in parts:
        if part.is_abelian():
            raise PreconditionError("N has an abelian minimal normal subgroup")
        sub_mns = minimal_normal_subgroups(part, lim)
        if len(sub_mns) != 1 or sub_mns[0].order != part.order:
            raise PreconditionError("a minimal normal subgroup of N is not simple")
        orders.add(part.order)
        total *= part.order
    if len(orders) != 1 or total != N.order:
        raise PreconditionError(
            "N is not a direct product of isomorphic non-abelian simple groups"
        )
    joined = join_subgroups(N, *parts)
    if joined.order != N.order:
        raise PreconditionError("the simple factors of N do not generate it")
