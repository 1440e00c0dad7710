"""Normal structure: minimal normal subgroups, chief series, chief factors
with their conjugation action, and the factor semidirect product.

A chief factor H/K of G is realized as a minimal normal subgroup of the
quotient G/K it was found in, so the cosets of K inside H are the elements
of that subgroup.  The conjugation action of G permutes them by
automorphisms; its image, generated by the actions of G's generators, is
G/C_G(H/K), and every centrality verdict reads that image.  Its kernel, the
centralizer C_G(H/K), is built only when read, and the preimage of the inner
automorphisms is exactly H * C_G(H/K).

Chief series are walked, not kept: ``ascend`` lifts one minimal normal
subgroup of G/Z per step and stores nothing, so N* and Nca membership stop at
the first failing factor, and the hypercenter climbs are the same walk with a
step test.

The factor semidirect product P = (H/K) x| G/C_G(H/K) is built knowing its
minimal normal subgroups: the right translations M by H/K (minimal, as H/K is
minimal normal in G/K) and, for non-abelian H/K, the left ones, C_P(M), where
any other would lie.  It also records the action image A = G/C_G(H/K) inside
it, a complement to each of them, so ``chief_factors(P)`` takes P's first
chief factor X in P and the rest from A = P/X: no quotient of P is built.
"""

from __future__ import annotations

from functools import cached_property
from operator import itemgetter
from typing import Callable, Iterable, Iterator

from .errors import ResourceLimitError
from .groups import (
    PermGroup,
    Quotient,
    Subgroup,
    _closure,
    centralizer,
    commutes_with,
    join_subgroups,
    quotient_group,
    subgroup_from_elements,
    walk_classes,
)
from .limits import check_enumeration, current
from .perms import Permutation
from .primes import is_prime


class ChiefFactor:
    """A chief factor H/K of G, realized as the minimal normal subgroup
    ``factor`` = H/K of ``quotient`` = G/K, together with the induced G-action
    and its ``image`` G/C_G(H/K) on the cosets."""

    def __init__(self, quotient: Quotient, factor: Subgroup):
        self.quotient, self.factor = quotient, factor
        self.ambient: PermGroup = quotient.ambient
        # the cosets of K in H are the elements of H/K
        self.cosets: tuple[Permutation, ...] = factor.elements()
        self._coset_of = {e.images: i for i, e in enumerate(self.cosets)}
        # G/C_G(H/K), generated by the conjugation action of G's generators on the cosets
        self.image = PermGroup(len(self.cosets), map(self.action_of, self.ambient.generators))

    def action_of(self, g: Permutation) -> Permutation:
        """The permutation of the coset set induced by conjugation with g."""
        g = self.quotient.project(g)
        pre, g_images = itemgetter(*g.inverse().images), g.images  # pre(x) = g^-1 * x
        coset_of = self._coset_of
        return Permutation._unchecked(
            tuple(coset_of[itemgetter(*pre(rep.images))(g_images)] for rep in self.cosets)
        )

    @cached_property
    def upper(self) -> Subgroup:
        """H, the full preimage of the factor, built on first read."""
        return self.quotient.lift_subgroup(self.factor)

    @cached_property
    def centralizer(self) -> Subgroup:
        """C_G(H/K), the kernel of G's action on the factor, built on first read."""
        return self._compute_centralizer()

    def _compute_centralizer(self) -> Subgroup:
        """The full preimage of C_{G/K}(H/K), which is C_G(H/K).  Its elements
        are regenerated in G, so the generators are those of testing every g
        in G (the test oracle)."""
        Q = self.quotient
        C = Q.lift_subgroup(centralizer(Q.group, self.factor))
        return subgroup_from_elements(self.ambient, C.elements())

    def is_central(self) -> bool:
        return self.image.is_trivial()

    def __repr__(self) -> str:
        return (
            f"<ChiefFactor |H/K|={self.factor.order} of order-{self.ambient.order} group>"
        )


def ascend(
    G: PermGroup,
    step_ok: Callable[[ChiefFactor], bool] = lambda cf: True,
    candidates: Callable[[PermGroup], Iterable[Subgroup]] | None = None,
    keep: bool = False,
) -> Iterator[ChiefFactor]:
    """Greedy ascent from Z = 1: each step yields the factor of the first of
    ``candidates(G/Z)`` (by default the minimal normal subgroups of G/Z, in
    their encoding order) that passes ``step_ok``, and lifts Z to its upper
    term.  The walk stops when no candidate passes or Z = G; it keeps nothing
    but, with ``keep``, its quotients G/Z (``groups.Quotient``), which later
    walks of G read."""
    Z = G.trivial_subgroup()
    while Z.order < G.order:
        Q = quotient_group(G, Z, keep)
        # looked up per step, so an instrumented minimal_normal_subgroups is seen
        factors = (ChiefFactor(Q, mn) for mn in (candidates or minimal_normal_subgroups)(Q.group))
        cf = next(filter(step_ok, factors), None)
        if cf is None:
            return
        yield cf
        Z = cf.upper


def chief_factors(G: PermGroup) -> Iterator[ChiefFactor]:
    """The factors of one chief series of G, from the bottom: ``ascend(G)``'s,
    unless G is a factor semidirect product P = X x| A (``factor_semidirect``).
    Then the first is ``ascend(P)``'s, P's own action on X, and the rest are
    ``ascend(A)``'s, as A = P/X.  Their verdicts in class membership are those
    of P's factors above X, which are A's under the isomorphism; by
    Jordan-Hoelder no verdict depends on the series walked."""
    A = G._cached("action_image", lambda G: None)  # recorded by factor_semidirect only
    if A is None:
        yield from ascend(G)
        return
    yield next(ascend(G))
    yield from ascend(A)


class ChiefSeries:
    """An ascending chief series of G from the trivial subgroup to G: the
    ascent that accepts every factor, walked once on construction."""

    def __init__(self, ambient: PermGroup):
        self.factors: tuple[ChiefFactor, ...] = tuple(ascend(ambient))

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
    check_enumeration(G.order)  # also when kept, as computing them enumerates G
    return list(G._cached("min_normals", _minimal_normals))


def _minimal_normals(G: PermGroup) -> tuple[Subgroup, ...]:
    """Candidates are decided on the element sets of image tuples ``_closure``
    gives; only the minimal ones become subgroups, with the generators it kept,
    those ``subgroup_from_elements(G, cls)`` keeps."""
    candidates: list[tuple[list[Permutation], set[tuple]]] = []
    seen: set[tuple] = set()
    for cls in walk_classes(G, G.elements(), _has_prime_order, seen):
        rep = cls[0].images
        holding = [len(c) for _, c in candidates if rep in c]  # each holds <<rep>>
        gens, N = _closure(G.degree, cls)  # <cls> = <<rep>>
        if is_prime(len(N)):
            seen.update(N)
        # N repeats a candidate iff one of its order holds rep (both are normal)
        if len(N) not in holding:
            candidates.append((gens, N))
    candidates.sort(key=lambda c: len(c[1]))
    minimal: list[tuple[list[Permutation], set[tuple]]] = []
    for gens, N in candidates:
        if not any(kept <= N for _, kept in minimal):
            minimal.append((gens, N))
    return _by_encoding(G, minimal)


def _by_encoding(G: PermGroup, closures: list) -> tuple[Subgroup, ...]:
    """The subgroups ``_closure``'s results generate, by sorted element set."""
    closures = sorted(closures, key=lambda c: sorted(c[1]))  # the element-set encoding
    return tuple(Subgroup(G, gens, _bound=len(N)) for gens, N in closures)


def central_minimal_normal_subgroups(G: PermGroup) -> Iterator[Subgroup]:
    """The central members of ``minimal_normal_subgroups(G)``: the <x> with x
    central of prime order, each generated by its least nontrivial element and
    yielded by it, which is their encoding order, as two of them meet
    trivially.  Each is built when the walk reaches it."""
    found: list[Subgroup] = []
    for x in filter(commutes_with(G), G.elements()):
        if _has_prime_order(x) and not any(c.contains(x) for c in found):
            found.append(subgroup_from_elements(G, [x]))
            yield found[-1]


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


def chief_series(G: PermGroup) -> ChiefSeries:
    """A chief series built by lifting minimal normal subgroups of quotients.

    Tie-breaking among the minimal normal subgroups of the current quotient
    is by least sorted element-set encoding, so the construction is
    deterministic.
    """
    return ChiefSeries(G)


def inner_induction_subgroup(cf: ChiefFactor) -> Subgroup:
    """All g in G acting on H/K as an inner automorphism.

    The action homomorphism sends H onto Inn(H/K), so the full preimage of
    the inner automorphisms is H * C_G(H/K); in particular it is a subgroup.
    """
    return join_subgroups(cf.ambient, cf.upper, cf.centralizer)


def all_generators_induce_inner(cf: ChiefFactor) -> bool:
    """Does all of G act on H/K by inner automorphisms, i.e. G = H * C_G(H/K)?

    H's image Inn(H/K) lies in G's image G/C_G(H/K), so they are equal iff
    their orders are.  Inn(H/K) is trivial for an abelian factor, and
    isomorphic to H/K otherwise, as a non-abelian chief factor is a product
    of non-abelian simple groups and so centreless (Robinson 1996).  The
    tests keep a brute-force per-generator oracle.
    """
    return cf.image.order == (1 if cf.factor.is_abelian() else cf.factor.order)


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
    translation, and minimal as M is.  Each is the closure of the P-class of
    its least prime-order element, and they are sorted by their element sets,
    as in the class walk: same generators, same order.  P's chain is built
    knowing |P| = n * |A|, for n = |H/K|.

    P also records A itself, for ``chief_factors``.  A fixes the identity
    coset and M and L are regular, so each X of them meets A trivially; as
    |X| * |A| = |P| and X is normal, P = X x| A and P/X is A.
    """
    lim = current()
    n = cf.factor.order
    order = n * cf.image.order
    what = f"factor semidirect product of order {order} on {n} points"
    if n > lim.semidirect_degree:
        raise ResourceLimitError(f"{what} exceeds the point bound {lim.semidirect_degree}")
    if order > lim.enumeration:
        raise ResourceLimitError(f"{what} exceeds enumeration bound {lim.enumeration}")
    coset_of = cf._coset_of
    right, left = (  # the translations by H/K's generators
        [Permutation._unchecked(tuple(coset_of[times(c, h).images] for c in cf.cosets))
         for h in cf.factor.generators]
        for times in (lambda c, h: c * h, lambda c, h: h * c)
    )
    product = PermGroup(n, right + list(cf.image.generators), _bound=order)
    normals = []
    for gens in (right,) if cf.factor.is_abelian() else (right, left):
        elems = PermGroup(n, gens, _bound=n).elements()
        normals.append(_closure(n, next(walk_classes(product, elems, _has_prime_order, set()))))
    product._cached("min_normals", lambda P: _by_encoding(P, normals))
    product._cached("action_image", lambda P: cf.image)
    return product
