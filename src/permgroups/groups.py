"""Finite permutation groups: construction, membership, standard subgroups,
quotients, and products.

Everything here is exact.  Groups are immutable once constructed (the
stabilizer chain is built eagerly), so any value can be shared freely.
"""

from __future__ import annotations

from operator import attrgetter, itemgetter
from typing import Callable, Iterable, Iterator

from .chain import StabilizerChain
from .errors import InputError, PreconditionError, ResourceLimitError
from .limits import check_enumeration, current
from .perms import Permutation

# sort key giving the same order as Permutation.__lt__, without its calls
_IMAGES = attrgetter("images")


class PermGroup:
    """A finite group given by permutation generators on a fixed point set."""

    def __init__(
        self,
        degree: int,
        generators: Iterable[Permutation] = (),
        name: str | None = None,
        *,
        _bound: int = 0,
    ):
        # _bound: see StabilizerChain
        if degree < 1:
            raise InputError("group degree must be at least 1")
        gens: list[Permutation] = []
        seen: set[Permutation] = set()
        for g in generators:
            if not isinstance(g, Permutation):
                raise InputError(f"generator {g!r} is not a Permutation")
            if g.degree != degree:
                raise InputError(
                    f"generator degree {g.degree} does not match group degree {degree}"
                )
            if g.is_identity() or g in seen:
                continue
            seen.add(g)
            gens.append(g)
        self.degree = degree
        self.generators: tuple[Permutation, ...] = tuple(gens)
        self.name = name
        self.chain = StabilizerChain(degree, self.generators, _bound)
        self.chain.forget_sifted()  # the group never grows its chain
        self._cache: dict = {}

    def _cached(self, key: str | tuple, compute: Callable[["PermGroup"], object]):
        """``compute(self)``, kept under ``key`` from the first read on."""
        val = self._cache.get(key)
        if val is None:
            val = self._cache[key] = compute(self)
        return val

    # -- basic queries ---------------------------------------------------

    @property
    def order(self) -> int:
        return self._cached("order", lambda G: G.chain.order())

    def contains(self, p: Permutation) -> bool:
        if not isinstance(p, Permutation) or p.degree != self.degree:
            raise InputError("membership test requires a permutation of equal degree")
        return self.chain.contains(p)

    def is_trivial(self) -> bool:
        return self.order == 1

    def is_abelian(self) -> bool:
        return self._cached("abelian", lambda G: all(map(commutes_with(G), G.generators)))

    def elements(self) -> tuple[Permutation, ...]:
        """All elements, sorted by image tuple; every call checks the enumeration
        bound in effect."""
        check_enumeration(self.order)
        return self._cached("elements", lambda G: tuple(sorted(G.chain.elements(), key=_IMAGES)))

    def element_set(self) -> frozenset[Permutation]:
        return frozenset(self.elements())

    def conjugacy_classes(self) -> tuple[tuple[Permutation, ...], ...]:
        """Conjugacy classes as sorted tuples, ordered by least member."""
        return tuple(walk_classes(self, self.elements(), lambda x: True, set()))

    def self_subgroup(self) -> "Subgroup":
        return Subgroup(self, self.generators, name=self.name)

    def trivial_subgroup(self) -> "Subgroup":
        return self._cached("trivial_subgroup", lambda G: Subgroup(G, ()))

    def subgroup(self, generators: Iterable[Permutation], name: str | None = None) -> "Subgroup":
        return Subgroup(self, generators, name=name)

    # Equality is mutual generator membership, never generator-list identity.
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PermGroup):
            return NotImplemented
        if self is other:
            return True
        if self.degree != other.degree or self.order != other.order:
            return False
        return all(other.contains(g) for g in self.generators) and all(
            self.contains(g) for g in other.generators
        )

    def __hash__(self) -> int:
        return hash((self.degree, self.order))

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"<PermGroup{label} degree={self.degree} order={self.order}>"


class Subgroup(PermGroup):
    """A subgroup of an ambient group, which its generators are checked
    against; it carries its own stabilizer chain and keeps no reference to
    the ambient group, so a group's cache never refers back to the group."""

    def __init__(
        self,
        ambient: PermGroup,
        generators: Iterable[Permutation] = (),
        name: str | None = None,
        *,
        _bound: int = 0,
    ):
        generators = tuple(generators)
        for g in generators:
            if not ambient.contains(g):
                raise InputError(f"generator {g!r} is not a member of the ambient group")
        super().__init__(ambient.degree, generators, name=name, _bound=_bound)


def walk_classes(
    G: PermGroup,
    elems: Iterable[Permutation],
    keep: Callable[[Permutation], bool],
    seen: set[tuple],
) -> Iterator[tuple[Permutation, ...]]:
    """The conjugacy classes of G met walking ``elems`` (G's sorted elements),
    each as a sorted tuple when its least member is reached.

    Only the classes of elements passing ``keep`` are built.  Elements whose
    image tuples are in ``seen`` start no class; the caller may add to it
    between classes.  Orbits are walked on image tuples: y^g is
    ``itemgetter(*pre(y))(g.images)`` with ``pre = itemgetter(*g^-1.images)``.
    """
    conj = [(itemgetter(*g.inverse().images), g.images) for g in G.generators]
    by_images = {x.images: x for x in elems}
    for x, elem in by_images.items():
        if x in seen or not keep(elem):
            continue
        orbit = {x}
        queue = [x]
        while queue:
            y = queue.pop()
            for pre, g in conj:
                z = itemgetter(*pre(y))(g)
                if z not in orbit:
                    orbit.add(z)
                    queue.append(z)
        seen |= orbit
        yield tuple(by_images[z] for z in sorted(orbit))


# -- subgroup helpers ------------------------------------------------------


def subgroup_from_elements(
    G: PermGroup, elements: Iterable[Permutation], name: str | None = None
) -> Subgroup:
    """Subgroup generated by the given elements, with the generators
    ``_closure`` keeps from them in image-tuple order, so the list stays
    logarithmic in the subgroup order.  It enumerates the subgroup, under the
    enumeration bound."""
    gens, closed = _closure(G.degree, sorted(set(elements), key=_IMAGES))
    return Subgroup(G, gens, name=name, _bound=len(closed))


def _closure(degree: int, elements: Iterable[Permutation]) -> tuple[list[Permutation], set[tuple]]:
    """The generators kept from ``elements`` and the image tuples of the group
    H they generate: an element is kept iff the group generated so far misses
    it.  A kept e grows H to <H, e> by Dimino's closure on left cosets
    (Butler, *Fundamental Algorithms for Permutation Groups*, §6):
    s * xH = (s * x)H lies inside the union found so far or misses it, so one
    element decides.  Raises ResourceLimitError before a coset would take the
    closure past the enumeration bound.
    """
    bound = current().enumeration
    identity = tuple(range(degree))
    inside = {identity}
    kept: list[Permutation] = []
    lefts: list[Callable[[tuple], tuple]] = []  # s * x for each kept s
    for e in elements:
        if e.images in inside:
            continue
        kept.append(e)
        lefts.append(itemgetter(*e.images))
        H, reps = list(inside), [identity]  # <H, e>: the union of the cosets xH
        for x in reps:  # grows while walked
            for left in lefts:
                y = left(x)
                if y not in inside:
                    if len(inside) + len(H) > bound:
                        raise ResourceLimitError("subgroup generated by the given elements "
                                                 f"exceeds enumeration bound {bound}")
                    inside.update(map(itemgetter(*y), H))  # y * h for each h in H
                    reps.append(y)
    return kept, inside


def join_subgroups(G: PermGroup, *subs: PermGroup, name: str | None = None) -> Subgroup:
    gens: list[Permutation] = []
    for s in subs:
        gens.extend(s.generators)
    return Subgroup(G, gens, name=name)


def centralizer(G: PermGroup, S: PermGroup) -> Subgroup:
    """{g in G : gs = sg for every s in S}, by enumeration of G.

    S must be a subgroup of G (generator membership is checked).  It suffices
    to commute with S's generators.
    """
    if S.degree != G.degree:
        raise InputError("centralizer requires matching degrees")
    for s in S.generators:
        if not G.contains(s):
            raise InputError("S is not a subgroup of G")
    return subgroup_from_elements(G, filter(commutes_with(S), G.elements()))


def commutes_with(S: PermGroup) -> Callable[[Permutation], bool]:
    """The test whether g commutes with every generator of S, on image tuples."""
    sgens = [(itemgetter(*s.images), s.images) for s in S.generators]

    def commutes(g: Permutation) -> bool:
        times = itemgetter(*g.images)  # g * s for an image tuple s
        return all(times(s) == s_times(g.images) for s_times, s in sgens)

    return commutes


def center(G: PermGroup) -> Subgroup:
    return centralizer(G, G)


def normal_closure(G: PermGroup, S: PermGroup) -> Subgroup:
    """Smallest normal subgroup of G containing S (conjugation-closure fixpoint).
    Its chain grows in place and is not kept: the subgroup builds the same one
    from the same generators, knowing its order."""
    for s in S.generators:
        if not G.contains(s):
            raise InputError("S is not a subgroup of G")
    gens = list(S.generators)
    chain = StabilizerChain(G.degree, gens)
    conj = [(g.inverse(), g) for g in G.generators]
    changed = True
    while changed:
        changed = False
        for t in list(gens):
            for g_inv, g in conj:
                c = g_inv * t * g
                if not chain.contains(c):
                    gens.append(c)
                    # grown in place, as StabilizerChain(degree, gens) would
                    chain._add(c)
                    changed = True
    return Subgroup(G, gens, _bound=chain.order())


def commutator_subgroup(G: PermGroup, A: PermGroup, B: PermGroup) -> Subgroup:
    """[A, B]: normal closure in <A, B> of the generator commutators, a
    subgroup of G too (a subgroup keeps no ambient).  Nothing is enumerated,
    so it serves groups above the enumeration bound."""
    J = join_subgroups(G, A, B)
    comms = [a.commutator_with(b) for a in A.generators for b in B.generators]
    return normal_closure(J, J.subgroup(comms))


# -- quotients -------------------------------------------------------------


class Quotient:
    """Right-coset action of G on the cosets of a normal subgroup N.

    ``group`` is the quotient as a permutation group, ``project`` the natural
    homomorphism (kernel N).  When N is trivial the quotient is realized as G
    itself with the identity projection.

    The coset part (``group``, ``reps``, the coset table) depends on N's
    element set only.  With ``keep``, G keeps it under N's sorted element
    images, so kept quotients by N share ``group`` and what it keeps, such as
    its minimal normal subgroups; ``kernel`` stays the caller's own, and the
    enumeration bound is checked on every call.  Nothing kept refers to G,
    but it holds about 3|G/N|^2 tuple entries in ``group``'s chain and
    elements for as long as G lives, so only walks that repeat keep.
    """

    def __init__(self, ambient: PermGroup, kernel: Subgroup, keep: bool = False):
        self.ambient = ambient
        self.kernel = kernel
        if kernel.is_trivial():
            self.group = ambient
            self.reps: tuple[Permutation, ...] = ()
            self._coset_of: dict[tuple, int] | None = None
            return
        check_enumeration(ambient.order)  # before coset work; G is not enumerated
        if keep:
            key = ("quotient", tuple(map(_IMAGES, kernel.elements())))
            coset_part = ambient._cached(key, lambda G: _coset_action(G, kernel))
        else:
            coset_part = _coset_action(ambient, kernel)
        self.group, self.reps, self._coset_of = coset_part

    def project(self, g: Permutation) -> Permutation:
        if self._coset_of is None:
            return g
        # ``group`` is regular, so g's image is its one element taking coset 0
        # (base point 0) to the coset of g: level 0's transversal holds it
        levels = self.group.chain.levels
        if not levels:  # N = G: one coset
            return Permutation._unchecked((0,))
        return Permutation._unchecked(levels[0].transversal[self._coset_of[g.images]][0])

    def lift(self, q: Permutation) -> Permutation:
        """A coset representative mapping to q (regular action on cosets)."""
        if self._coset_of is None:
            return q
        return self.reps[q.images[0]]

    def lift_subgroup(self, qsub: PermGroup, name: str | None = None) -> Subgroup:
        """Full preimage in the ambient group of a subgroup of the quotient."""
        gens = list(self.kernel.generators)
        gens.extend(self.lift(q) for q in qsub.generators)
        return Subgroup(self.ambient, gens, name=name, _bound=self.kernel.order * qsub.order)


def _coset_action(G: PermGroup, N: Subgroup) -> tuple[PermGroup, tuple[Permutation, ...], dict]:
    """G's right-coset action on the cosets of N: the quotient group, the coset
    representatives and the coset index of every element's image tuple."""
    # n * rep for each kernel element n, on image tuples
    kernel_gets = [itemgetter(*n.images) for n in N.elements()]
    coset_of: dict[tuple, int] = {}
    reps: list[tuple] = []

    def register(rep: tuple) -> int:
        idx = len(reps)
        reps.append(rep)
        for get in kernel_gets:
            coset_of[get(rep)] = idx
        return idx

    register(tuple(range(G.degree)))
    columns: list[list[int]] = [[] for _ in G.generators]
    for rep in reps:  # breadth first: register appends to reps
        times = itemgetter(*rep)  # g's images -> rep * g's images
        for g, column in zip(G.generators, columns):
            t = times(g.images)
            idx = coset_of.get(t)
            column.append(register(t) if idx is None else idx)
    gens = [Permutation._unchecked(tuple(column)) for column in columns]
    # regular on the cosets: level 0's orbit alone completes the chain
    group = PermGroup(len(reps), gens, _bound=len(reps))
    return group, tuple(map(Permutation._unchecked, reps)), coset_of


def quotient_group(G: PermGroup, N: Subgroup, keep: bool = False) -> Quotient:
    """Quotient of G by a normal subgroup N, with the projection map; with
    ``keep``, later kept quotients by N share its coset action (``Quotient``).

    Raises PreconditionError when N is not normal in G.
    """
    if N.degree != G.degree:
        raise InputError("quotient requires matching degrees")
    conj = [(g.inverse(), g) for g in G.generators]
    for n in N.generators:
        if not G.contains(n):
            raise InputError("N is not a subgroup of G")
        for g_inv, g in conj:
            if not N.contains(g_inv * n * g):
                raise PreconditionError(
                    f"subgroup is not normal: conjugate of {n!r} by {g!r} falls outside"
                )
    return Quotient(G, N, keep)


# -- products ----------------------------------------------------------------


def _embed_left(p: Permutation, extra: int) -> Permutation:
    return Permutation._unchecked(p.images + tuple(range(p.degree, p.degree + extra)))


def _embed_right(p: Permutation, offset: int) -> Permutation:
    return Permutation._unchecked(
        tuple(range(offset)) + tuple(offset + v for v in p.images)
    )


def direct_product(A: PermGroup, B: PermGroup, name: str | None = None) -> PermGroup:
    """External direct product on the disjoint union of the point sets."""
    gens = [_embed_left(a, B.degree) for a in A.generators]
    gens += [_embed_right(b, A.degree) for b in B.generators]
    if name is None and A.name and B.name:
        name = f"{A.name}x{B.name}"
    return PermGroup(A.degree + B.degree, gens, name=name)


# -- series -------------------------------------------------------------------


def upper_central_series(G: PermGroup) -> list[Subgroup]:
    """Ascending central series 1 <= Z1 <= Z2 <= ..., ending at the hypercenter."""
    terms = [G.trivial_subgroup()]
    while True:
        Q = quotient_group(G, terms[-1])
        zbar = center(Q.group)
        if zbar.is_trivial():
            return terms
        terms.append(Q.lift_subgroup(zbar))
