"""Normal structure: minimal normal subgroups, chief series, chief factors
with their conjugation action, and the factor semidirect product.

A chief factor H/K of G is realized as a minimal normal subgroup of the
quotient G/K it was found in, so the cosets of K inside H are the elements
of that subgroup.  The conjugation action of G permutes them by
automorphisms; its kernel is the centralizer C_G(H/K), its image is
G/C_G(H/K), and the preimage of the inner automorphisms is exactly
H * C_G(H/K).  The kernel is found by point stabilizers of G's generators
glued to that action, never by testing every element of G.

Chief series are built on demand, one factor at a time, and cached as far as
they got, so N* and Nca membership stop at the first failing factor.

The factor semidirect product P = (H/K) x| G/C_G(H/K) is built knowing its
minimal normal subgroups: the right translations M by H/K (minimal, as H/K is
minimal normal in G/K) and, for non-abelian H/K, the left ones, C_P(M), where
any other would lie.  So P's chief series enumerates no element of P.
"""

from __future__ import annotations

from itertools import count
from operator import itemgetter
from typing import Iterator

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
from .limits import cache_key, current
from .perms import Permutation
from .primes import is_prime


class ChiefFactor:
    """A chief factor H/K of G, realized as the minimal normal subgroup
    ``factor`` = H/K of ``quotient`` = G/K, together with the induced G-action."""

    def __init__(self, quotient: Quotient, factor: Subgroup):
        self.quotient, self.factor = quotient, factor
        self.ambient: PermGroup = quotient.ambient
        self.lower: Subgroup = quotient.kernel
        self.upper: Subgroup = quotient.lift_subgroup(factor)
        self._cache: dict = {}
        # the cosets of K in H are the elements of H/K
        self.cosets: tuple[Permutation, ...] = factor.elements()
        self._coset_of = {e.images: i for i, e in enumerate(self.cosets)}
        # action of G's generators on the cosets, by conjugation
        self.action: dict[Permutation, Permutation] = {
            g: self.action_of(g) for g in self.ambient.generators
        }
        self.centralizer = self._compute_centralizer()

    def factor_coset_of_element(self, h: Permutation) -> int:
        if not self.upper.contains(h):
            raise InputError("element does not belong to the upper term")
        return self._coset_of[self.quotient.project(h).images]

    def action_of(self, g: Permutation) -> Permutation:
        """The permutation of the coset set induced by conjugation with g."""
        g = self.quotient.project(g)
        pre, g_images = itemgetter(*g.inverse().images), g.images  # pre(x) = g^-1 * x
        coset_of = self._coset_of
        return Permutation._unchecked(
            tuple(coset_of[itemgetter(*pre(rep.images))(g_images)] for rep in self.cosets)
        )

    def _compute_centralizer(self) -> Subgroup:
        """C_G(H/K), the kernel of G's conjugation action on the cosets.

        Each generator g of G is glued to its coset action as one permutation
        on degree + m points; the first degree points carry g, so the glued
        group is G.  The kernel fixes the factor's generators (they
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
        for h in self.factor.generators:
            point = n + self._coset_of[h.images]
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
        kernel = G if chain is None else PermGroup(n, heads, _chain=chain)  # grown from heads
        return subgroup_from_elements(G, kernel.elements(), _bound=kernel.order)

    def is_central(self) -> bool:
        return self.centralizer.order == self.ambient.order

    def factor_is_abelian(self) -> bool:
        return self.factor.is_abelian()

    def __repr__(self) -> str:
        return (
            f"<ChiefFactor |H/K|={self.factor.order} of order-{self.ambient.order} group>"
        )


class ChiefSeries:
    """An ascending chief series of G from the trivial subgroup to G.  Iterating
    yields the factors, building each when first reached (one that raises is
    not recorded); ``terms`` and ``factors`` finish the series."""

    def __init__(self, ambient: PermGroup, reverse_tiebreak: bool = False):
        self.ambient, self._reverse = ambient, reverse_tiebreak
        self._terms, self._factors = [ambient.trivial_subgroup()], []

    def __iter__(self) -> Iterator[ChiefFactor]:
        G, terms, factors = self.ambient, self._terms, self._factors
        for i in count():
            if i == len(factors):
                if terms[-1].order == G.order:
                    return
                Q = quotient_group(G, terms[-1])
                mns = minimal_normal_subgroups(Q.group)
                factors.append(ChiefFactor(Q, mns[-1] if self._reverse else mns[0]))
                terms.append(factors[-1].upper)
            yield factors[i]

    @property
    def terms(self) -> tuple[Subgroup, ...]:
        return tuple(self._terms[: len(self.factors) + 1])  # factors finishes the series

    @property
    def factors(self) -> tuple[ChiefFactor, ...]:
        return tuple(self)

    def factor_orders(self) -> tuple[int, ...]:
        return tuple(cf.factor.order for cf in self.factors)


def minimal_normal_subgroups(G: PermGroup) -> list[Subgroup]:
    """All minimal normal subgroups, sorted by their element-set encoding.

    Every minimal normal subgroup is the normal closure of any of its
    nontrivial elements, and contains one of prime order, so the minimal
    members of {<<x>> : x of prime order} are exactly the minimal normal
    subgroups.  One normal closure per conjugacy class suffices, and only the
    classes of prime-order elements are walked.  A class meeting a candidate
    of prime order is skipped: that candidate is generated by any of its
    nontrivial elements, so it is the class's normal closure.
    """
    key = cache_key("min_normals")
    cached = G._cache.get(key)
    if cached is not None:
        return list(cached)
    candidates: list[Subgroup] = []
    seen: set[tuple] = set()
    for cls in walk_classes(G, G.elements(), _has_prime_order, seen):
        rep = cls[0]
        holding = [c.order for c in candidates if c.contains(rep)]  # each holds <<rep>>
        N = subgroup_from_elements(G, cls, _bound=min(holding, default=G.order))  # <cls> = <<rep>>
        if is_prime(N.order):
            seen.update(e.images for e in N.elements())
        # N repeats a candidate iff one of its order holds rep (both are normal)
        if N.order not in holding:
            candidates.append(N)
    candidates.sort(key=lambda s: s.order)
    minimal: list[Subgroup] = []
    for cand in candidates:
        if not any(all(cand.contains(g) for g in kept.generators) for kept in minimal):
            minimal.append(cand)
    minimal.sort(key=_encoding)
    G._cache[key] = tuple(minimal)
    return minimal


def _has_prime_order(x: Permutation) -> bool:
    """``is_prime(x.order())`` without building x's cycles: every nontrivial
    cycle of an element of prime order p has length p, so x has prime order
    iff its first nontrivial cycle has prime length p and x^p = 1."""
    images = x.images
    start = next((i for i, j in enumerate(images) if i != j), None)
    if start is None:  # the identity
        return False
    p, point = 1, images[start]
    while point != start:
        p, point = p + 1, images[point]
    if not is_prime(p):
        return False
    power = images  # of x^k, composed as x^k * x by C-level indexing
    for _ in range(p - 1):
        power = itemgetter(*power)(images)
    return power == tuple(range(len(images)))


def _encoding(sub: PermGroup) -> tuple:
    """Sorted element-set encoding used for deterministic tie-breaking."""
    return tuple(p.images for p in sub.elements())


def chief_series(G: PermGroup, reverse_tiebreak: bool = False) -> ChiefSeries:
    """A chief series built by lifting minimal normal subgroups of quotients.

    Tie-breaking among the minimal normal subgroups of the current quotient
    is by least sorted element-set encoding (greatest when reverse_tiebreak),
    so the construction is deterministic.
    """
    series = _chief_series(G, reverse_tiebreak)
    for _ in series:  # build the factors not built yet
        pass
    return series


def _chief_series(G: PermGroup, reverse_tiebreak: bool = False) -> ChiefSeries:
    """G's chief series as far as it is built (cached under the bounds in effect)."""
    key = cache_key("chief_series_rev" if reverse_tiebreak else "chief_series")
    series = G._cache.get(key)
    if series is None:
        series = G._cache[key] = ChiefSeries(G, reverse_tiebreak)
    return series


def chief_factor(G: PermGroup, K: Subgroup, H: Subgroup) -> ChiefFactor:
    """The chief factor H/K, validating normality and minimality.

    Raises PreconditionError naming a witness when a normal subgroup of G
    lies strictly between K and H.  The factor is realized in G/K as the
    image of H, and its ``upper`` is the full preimage of that image, H.
    """
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
    Q = quotient_group(G, K)
    Hbar = Subgroup(Q.group, [Q.project(h) for h in H.generators])
    for mn in minimal_normal_subgroups(Q.group):
        if mn.order < Hbar.order and all(Hbar.contains(g) for g in mn.generators):
            witness = Q.lift_subgroup(mn)
            raise PreconditionError(
                f"H/K is not a chief factor: normal subgroup of order {witness.order} "
                f"lies strictly between (generators {witness.generators})"
            )
    if not any(mn == Hbar for mn in minimal_normal_subgroups(Q.group)):
        raise PreconditionError("H/K is not a minimal normal subgroup of G/K")
    return ChiefFactor(Q, Hbar)


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
    G's generators suffice; the tests keep a brute-force per-element oracle.
    """
    iis = inner_induction_subgroup(cf)
    return all(iis.contains(g) for g in cf.ambient.generators)


def factor_semidirect(cf: ChiefFactor) -> PermGroup:
    """(H/K) x| G/C_G(H/K), realized faithfully on the cosets of K in H.

    H/K acts by right translation of its elements (the cosets), and G by
    its conjugation action, whose kernel is C_G(H/K).  The two generate a
    group P of order |H/K| * |G : C_G(H/K)|.

    P records its minimal normal subgroups, so ``minimal_normal_subgroups(P)``
    walks no class of P.  The right translations M are minimal normal: a
    P-invariant subgroup of M is a normal subgroup of G/K inside H/K.  Any
    other minimal normal N meets M trivially, so N <= C_P(M).  M is regular and
    A = G/C_G(H/K), the stabilizer of the identity coset, is faithful on M, so
    C_P(M) = M when H/K is abelian.  Else C_P(M) is the left translations L
    (Robinson 1996), in P as conjugation by h is a left times a right
    translation, and minimal as M is.  Each is built from the P-class of its
    least prime-order element as the class walk builds it: same generators.
    """
    lim = current()
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
    coset_of = cf._coset_of
    right, left = (  # the translations by H/K's generators
        [Permutation._unchecked(tuple(coset_of[times(c, h).images] for c in cf.cosets))
         for h in cf.factor.generators]
        for times in (lambda c, h: c * h, lambda c, h: h * c)
    )
    product = PermGroup(n, right + list(cf.action.values()))
    normals = []
    for gens in (right,) if cf.factor_is_abelian() else (right, left):
        elems = PermGroup(n, gens, _bound=n).elements()
        cls = next(walk_classes(product, elems, _has_prime_order, set()))
        normals.append(subgroup_from_elements(product, cls, _bound=product.order))
    product._cache[cache_key("min_normals")] = tuple(sorted(normals, key=_encoding))
    cf._cache["factor_semidirect"] = product
    return product
