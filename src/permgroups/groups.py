"""Finite permutation groups: construction, membership, standard subgroups,
quotients, and products.

Everything here is exact.  Groups are immutable once constructed (the
stabilizer chain is built eagerly), so any value can be shared freely.
"""

from __future__ import annotations

from operator import attrgetter, itemgetter
from typing import Callable, Iterable, Iterator

from .chain import StabilizerChain
from .errors import InputError, PreconditionError
from .limits import check_enumeration
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
        _chain: StabilizerChain | None = None,
        _bound: int = 0,
    ):
        # _chain: a chain grown from exactly these generators; _bound: see StabilizerChain
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
        self.chain = StabilizerChain(degree, self.generators, _bound) if _chain is None else _chain
        self.chain.forget_sifted()  # the group never grows its chain
        self._cache: dict = {}

    def _cached(self, key: str, compute: Callable[["PermGroup"], object]):
        """``compute(self)``, kept under ``key`` from the first read on."""
        val = self._cache.get(key)
        if val is None:
            val = self._cache[key] = compute(self)
        return val

    # -- basic queries ---------------------------------------------------

    @property
    def order(self) -> int:
        return self._cached("order", _chain_order)

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


def _chain_order(G: PermGroup) -> int:
    return G.chain.order()


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
        _chain: StabilizerChain | None = None,
        _bound: int = 0,
    ):
        generators = tuple(generators)
        for g in generators:
            if not ambient.contains(g):
                raise InputError(f"generator {g!r} is not a member of the ambient group")
        super().__init__(ambient.degree, generators, name=name, _chain=_chain, _bound=_bound)


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
    G: PermGroup, elements: Iterable[Permutation], name: str | None = None, *, _bound: int = 0
) -> Subgroup:
    """Subgroup generated by the given elements, with a reduced generating set.

    Elements already generated by previously kept ones are skipped, so the
    resulting generator list stays logarithmic in the subgroup order.
    """
    gens: list[Permutation] = []
    # grown in place: the same _add sequence StabilizerChain(degree, gens) runs
    chain = StabilizerChain(G.degree, (), _bound)
    for e in sorted(set(elements), key=_IMAGES):
        if e.is_identity() or chain.contains(e):
            continue
        gens.append(e)
        chain._add(e)
        if chain.order() == _bound:  # all of <elements>: every later one is contained
            break
    return Subgroup(G, gens, name=name, _chain=chain)


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
    """Smallest normal subgroup of G containing S (conjugation-closure fixpoint)."""
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
    return Subgroup(G, gens, _chain=chain)


def commutator_subgroup(G: PermGroup, A: PermGroup, B: PermGroup) -> Subgroup:
    """[A, B]: normal closure in <A, B> of the generator commutators."""
    J = join_subgroups(G, A, B)
    comms = [a.commutator_with(b) for a in A.generators for b in B.generators]
    closed = normal_closure(J, subgroup_from_elements(J, comms))
    return Subgroup(G, closed.generators)


# -- quotients -------------------------------------------------------------


class Quotient:
    """Right-coset action of G on the cosets of a normal subgroup N.

    ``group`` is the quotient as a permutation group, ``project`` the natural
    homomorphism (kernel N).  When N is trivial the quotient is realized as G
    itself with the identity projection.
    """

    def __init__(self, ambient: PermGroup, kernel: Subgroup):
        self.ambient = ambient
        self.kernel = kernel
        if kernel.is_trivial():
            self.group = ambient
            self.reps: tuple[Permutation, ...] = ()
            self._coset_of: dict[tuple, int] | None = None
            return
        check_enumeration(ambient.order)  # before coset work; G is not enumerated
        # n * rep for each kernel element n, on image tuples
        kernel_gets = [itemgetter(*n.images) for n in kernel.elements()]
        coset_of: dict[tuple, int] = {}
        reps: list[tuple] = []

        def register(rep: tuple) -> int:
            idx = len(reps)
            reps.append(rep)
            for get in kernel_gets:
                coset_of[get(rep)] = idx
            return idx

        register(tuple(range(ambient.degree)))
        columns: list[list[int]] = [[] for _ in ambient.generators]
        for rep in reps:  # breadth first: register appends to reps
            times = itemgetter(*rep)  # g's images -> rep * g's images
            for g, column in zip(ambient.generators, columns):
                t = times(g.images)
                idx = coset_of.get(t)
                column.append(register(t) if idx is None else idx)
        self.reps = tuple(map(Permutation._unchecked, reps))
        self._coset_of = coset_of
        gens = [Permutation._unchecked(tuple(column)) for column in columns]
        # regular on the cosets: level 0's orbit alone completes the chain
        self.group = PermGroup(len(reps), gens, _bound=len(reps))

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


def quotient_group(G: PermGroup, N: Subgroup) -> Quotient:
    """Quotient of G by a normal subgroup N, with the projection map.

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
    return Quotient(G, N)


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
