"""Exhaustive subgroup lattices of small groups.

The lattice is seeded with the cyclic subgroups of prime-power order and
closed under joins (the cyclic extension method of Holt, Eick & O'Brien,
*Handbook of Computational Group Theory*, ch. 4).  Joins are computed for one
representative H per conjugacy orbit and the orbits are then closed
explicitly; since the seed family is conjugation-closed, every join chain
from cyclic seeds survives conjugation and the full lattice is reached (the
tests cross-check this against an independent add-one-element closure
oracle).  Three kinds of join cannot find a new subgroup and are not
computed: for h in H, <H, s^h> = <H, s>^h = <H, s>, so only the first seed of
each class under conjugation by H is joined; when no order strictly between
|H| and |G| is a multiple of |H| dividing |G| and at most |G|/p, p the least
prime dividing |G|, Lagrange leaves G as the only join; and a seed inside a
join J = <H, s> of prime index over H found before gives J again, as no
subgroup lies strictly between H and J.  A join <H, s> grows by whole right
cosets of the orbit representative H (Dimino's algorithm; Butler,
*Fundamental Algorithms for Permutation Groups*, §6): each coset times a
generator is inside the union found so far or disjoint from it, so one
element decides.  All joins over H share one table of its right cosets: the
coset id of each element met, each coset's elements and its mask.  A join
walks coset ids and ORs the masks of the cosets it finds; only a coset no
earlier join over H met costs work per element, once.

An element central in G fixes every mask and every seed under conjugation
and, when it lies in H, every right coset of H (Hyh = Hhy = Hy).  So G's
central generators are left out of the orbit closure, and H's out of the
seed-class search and the coset closure; over an abelian G no mask is
conjugated and no class is searched.  A seed inside a prime-index join over H
is skipped before its class is searched, as the class lies in that join too.
The centre is read off the conjugation arrays of G's generators, which, like
their right multiplication arrays, come from image tuples; the arrays of any
other element a join uses are composed from them along its word.  Each
cyclic seed <x> is read off the powers of x's image tuple.

The nilpotent subgroups alone (``nilpotent_subgroups``) come from the same
build admitting only nilpotent joins: subgroups of a nilpotent group are
nilpotent, so it meets the same nilpotent representatives in the same order
and keeps their masks and generators.  A nilpotent group's p-elements form its
Sylow p-subgroup, which commutes with the others (Robinson 5.2.4).  So a p-seed
s is not joined when it fails to commute with a generator of H of another
prime, or s * g is no p-element for a p-generator g of H.  Seeds in the join
J of such an s, if |J : H| is prime, then join to J, not nilpotent, as in the
full build, where J covers them.

Subgroups are identified by their element set, encoded as a bitmask over the
sorted element list of the ambient group; generator lists are never compared.

Class membership of a node is read off its mask where the class allows.  H is
nilpotent iff its Sylow subgroups are normal (Robinson 5.2.4), iff it has
exactly |H|_p p-elements for each prime p; it has at least that many, so the
test is that the popcounts of H's mask with one p-element mask per prime
multiply to |H|.  N is decided so, Np:p by |H| alone, all always; every
quasi-F class accepts nilpotent nodes.

N* and Nca also reject, by |H| alone, a non-nilpotent node unless 4 and at
least three primes divide |H|.  In both classes an abelian chief factor is
central (for N*: an N-central chief factor is central, and the inner
automorphisms of an abelian one are trivial).  So a soluble member is
nilpotent, and a non-nilpotent member has a non-abelian simple composition
factor S, |S| dividing |H|.  Three primes divide |S| by Burnside's p^a q^b
theorem (Robinson 8.5.3).  |S| is even by Feit-Thompson's odd order theorem,
and 4 divides it, since a group with cyclic Sylow 2-subgroups has a normal
2-complement (Robinson 10.1.9).  The rule does not hold for a general
quasi-F class, whose soluble members are the soluble F-groups.  Other
verdicts, and all of a user-built class's, come from ``X.member`` on the
orbit representative.
"""

from __future__ import annotations

from array import array
from collections import deque
from functools import partial
from itertools import compress
from math import prod
from operator import itemgetter
from typing import TYPE_CHECKING, Callable

from .errors import ResourceLimitError
from .groups import PermGroup, Subgroup
from .limits import current
from .primes import is_prime, is_prime_power, prime_divisors, smallest_prime_factor

if TYPE_CHECKING:
    from .classes import GroupClass

#: built-in class -> rule(order, nilpotent): a node's verdict, or None to ask X
MASK_RULES: dict[GroupClass, Callable[[int, bool], bool | None]] = {}

# binary digits -> membership bytes, for masks (bit x is element x)
_BYTES = bytes.maketrans(b"01", b"\0\1")


class _CosetTable:
    """The right cosets Hy of one orbit representative H, shared by its joins."""

    __slots__ = ("bits", "cols", "label", "cosets", "masks")

    def __init__(self, cols: list[array], bits: list[int], mask: int):
        n = len(bits)
        member = bytes(format(mask, f"0{n}b")[::-1], "ascii").translate(_BYTES)
        elems = list(compress(range(n), member))
        self.bits = bits  # element x -> 1 << x
        self.cols = cols  # right multiplication by H's non-central generators
        self.label = [-1] * n  # element x -> id of the coset Hx, -1 until met
        self.cosets = [elems]  # id -> elements, the first y with coset Hy
        self.masks = [mask]  # id -> mask
        for x in elems:
            self.label[x] = 0

    def add(self, coset: list[int]) -> int:
        d = len(self.cosets)
        label = self.label
        for x in coset:
            label[x] = d
        self.cosets.append(coset)
        self.masks.append(sum(map(self.bits.__getitem__, coset)))
        return d


def _compose(word: dict[int, tuple[int, int]], cache: dict[int, array],
             gen_arrays: list[array], x: int) -> array:
    """Array of element x for an action given on G's generators, composed along
    x's word (x is ``word[x][0]`` times generator ``word[x][1]``)."""
    path = []
    while x not in cache:
        path.append(x)
        x = word[x][0]
    arr = cache[x]
    for y in reversed(path):
        step = gen_arrays[word[y][1]]
        arr = cache[y] = array("H", map(step.__getitem__, arr))
    return arr


class SubgroupLattice:
    """All subgroups (``_nilpotent``: the nilpotent ones) of a small group, with orbits."""

    def __init__(self, ambient: PermGroup, *, _nilpotent: bool = False):
        n = ambient.order
        bound = current().lattice
        if n > bound:
            raise ResourceLimitError(f"subgroup lattice bound {bound} exceeded by group order {n}")
        if n > 1 << 16:  # element indexes are array("H") entries
            raise ResourceLimitError(f"lattice index range 65536 exceeded by order {n}")
        self.ambient = ambient
        elems = self._elems = ambient.elements()
        index = {e.images: i for i, e in enumerate(elems)}
        self._n = n
        identity_idx = self._identity_idx = index[tuple(range(ambient.degree))]
        # right multiplication and conjugation by each generator of G
        gens = [(g.images, itemgetter(*g.inverse().images)) for g in ambient.generators]
        gen_columns = [array("H") for _ in gens]
        conj_arrays = [array("H") for _ in gens]
        for e in elems:
            times = itemgetter(*e.images)  # e * q for an image tuple q
            for (g, inv_times), col, conj_arr in zip(gens, gen_columns, conj_arrays):
                eg = times(g)
                col.append(index[eg])
                conj_arr.append(index[inv_times(eg)])
        # breadth-first word tree: element x is word[x][0] times generator word[x][1]
        word: dict[int, tuple[int, int]] = {identity_idx: (identity_idx, 0)}
        queue = [identity_idx]
        for y in queue:
            for j, col in enumerate(gen_columns):
                if col[y] not in word:
                    word[col[y]] = (y, j)
                    queue.append(col[y])
        self._full_mask = (1 << n) - 1
        self._max_proper = n // smallest_prime_factor(n) if n > 1 else 0

        # column(x)[e] is the index of e*x, conj(x)[e] that of x^-1*e*x; their
        # caches, up to n arrays of n entries, go with the build
        identity = array("H", range(n))
        column = partial(_compose, word, {identity_idx: identity}, gen_columns)
        conj = partial(_compose, word, {identity_idx: identity}, conj_arrays)
        gen_info, orbits = self._build(index, _nilpotent, conj_arrays, column, conj)
        # node order: by (subgroup order, mask); deterministic
        masks = sorted(gen_info, key=lambda m: (m.bit_count(), m))
        self._masks = masks
        pos = self._mask_pos = {m: i for i, m in enumerate(masks)}
        self._gen_idxs = [gen_info[m] for m in masks]
        self._nodes: list[Subgroup | None] = [None] * len(masks)
        self.conjugation_orbits = tuple(
            sorted(tuple(sorted(pos[m] for m in orbit)) for orbit in orbits)
        )

    # -- construction ------------------------------------------------------

    def _closure_mask(self, table: _CosetTable, seed_col: array) -> int:
        """Mask of <H, s>, given the right coset table of H and the column of
        s; returns the full mask early once |<H, s>| > n/p_min.

        Dimino's closure on coset ids: a right coset Hy times a generator g
        is the right coset H(yg), the coset labelled at yg, so it lies inside
        the union found so far or misses it.  In a finite group the submonoid
        generated by a set already is the generated subgroup, so right
        multiplication by the generators alone suffices, and H's central
        generators, which fix every right coset of H, are left out.
        """
        label, cosets, masks = table.label, table.cosets, table.masks
        cols = table.cols + [seed_col]
        most = self._max_proper // len(cosets[0])  # cosets in a proper subgroup
        found, inside = [0], {0}
        for d in found:
            y = cosets[d][0]
            for col in cols:
                e = label[col[y]]
                if e in inside:
                    continue
                if len(found) == most:
                    return self._full_mask
                if e < 0:
                    e = table.add(list(map(col.__getitem__, cosets[d])))
                inside.add(e)
                found.append(e)
        return sum(map(masks.__getitem__, found))

    def _conjugate_mask(self, mask: int, conj: array) -> int:
        new = 0
        m = mask
        while m:
            low = m & -m
            new |= 1 << conj[low.bit_length() - 1]
            m ^= low
        return new

    def _cyclic_masks(self, index: dict[tuple, int]) -> dict[int, int]:
        """The mask of <x> for each element x of prime-power order > 1, from
        the powers of x's image tuple; sets the p-element masks."""
        trivial_mask = 1 << self._identity_idx
        cyclic: dict[int, int] = {}
        pmasks = self._pmasks = dict.fromkeys(prime_divisors(self._n), trivial_mask)
        for x, e in enumerate(self._elems):
            order = e.order()
            if not is_prime_power(order):
                continue
            pmasks[smallest_prime_factor(order)] |= 1 << x
            times = itemgetter(*e.images)  # x * q for an image tuple q
            mask, power = trivial_mask | 1 << x, e.images
            for _ in range(order - 2):
                power = times(power)
                mask |= 1 << index[power]
            cyclic[x] = mask
        return cyclic

    def _build(self, index: dict[tuple, int], nilpotent: bool, conj_arrays: list[array],
               column: Callable[[int], array], conj: Callable[[int], array]) -> tuple[dict, list]:
        trivial_mask = 1 << self._identity_idx
        full_mask = self._full_mask
        # the centre, and conjugation by the non-central generators of G
        central = sum(1 << x for x in range(self._n)
                      if all(arr[x] == x for arr in conj_arrays))
        identity = array("H", range(self._n))
        moving = [arr for arr in conj_arrays if arr != identity]

        # cyclic prime-power seeds, one per distinct subgroup
        cyclic = self._cyclic_masks(index)
        seeds: dict[int, int] = {}
        for x, mask in cyclic.items():
            seeds.setdefault(mask, x)
        seed_list = sorted(seeds.items(), key=lambda kv: (kv[0].bit_count(), kv[0]))
        seed_pos = {mask: i for i, (mask, _) in enumerate(seed_list)}
        seed_of = {x: seed_pos[mask] for x, mask in cyclic.items()}
        bits = [1 << x for x in range(self._n)]
        seed_bits = [bits[x] for _, x in seed_list]
        admits = self._is_nilpotent if nilpotent else lambda mask: True

        gen_info: dict[int, tuple[int, ...]] = {trivial_mask: ()}
        orbits: list = [(trivial_mask,)]
        worklist: deque[int] = deque()

        def admit_orbit(mask: int, gen_idxs: tuple[int, ...]) -> None:
            # register every conjugate; queue the orbit representative
            orbit = {mask: gen_idxs}
            queue = [mask]
            while queue:
                cur = queue.pop()
                cur_gens = orbit[cur]
                for arr in moving:
                    img = self._conjugate_mask(cur, arr)
                    if img not in orbit:
                        orbit[img] = tuple(arr[g] for g in cur_gens)
                        queue.append(img)
            gen_info.update(orbit)
            orbits.append(orbit)
            worklist.append(min(orbit))

        for mask, gen in seed_list:
            if mask not in gen_info:
                admit_orbit(mask, (gen,))
        divisors = [d for d in range(2, self._max_proper + 1) if self._n % d == 0]
        while worklist:
            rep = worklist.popleft()
            if rep == full_mask:
                continue
            rep_gens = gen_info[rep]
            order = rep.bit_count()
            only_full = not any(d % order == 0 and d > order for d in divisors)
            if only_full and (full_mask in gen_info or not admits(full_mask)):
                continue
            # a central generator h of rep fixes every seed and every coset: Hyh = Hy
            moving_gens = [g for g in rep_gens if not central >> g & 1]
            if not only_full:
                table = _CosetTable([column(g) for g in moving_gens], bits, rep)
            # the first seed outside rep of each class of seeds under conjugation
            # by rep, skipping seeds inside a join of prime index over rep found
            # before; a seed's class lies in that join too
            conjs = [conj(g) for g in moving_gens]
            seen = bytearray(len(seed_list))
            covered = rep  # rep and the joins found of prime index over it
            for i, seed_bit in enumerate(seed_bits):
                if covered & seed_bit or seen[i]:
                    continue
                seed_gen = seed_list[i][1]
                if conjs:
                    seen[i] = 1
                    stack = [seed_gen]
                    while stack:
                        y = stack.pop()
                        for arr in conjs:
                            j = seed_of[arr[y]]
                            if not seen[j]:
                                seen[j] = 1
                                stack.append(seed_list[j][1])
                if nilpotent and not only_full:  # the filters of the module docstring
                    pmask = next(m for m in self._pmasks.values() if m >> seed_gen & 1)
                    if any(not pmask >> col[seed_gen] & 1 if pmask >> g & 1
                           else arr[seed_gen] != seed_gen
                           for g, arr, col in zip(moving_gens, conjs, table.cols)):
                        continue
                gens = rep_gens + (seed_gen,)
                joined = full_mask if only_full else self._closure_mask(table, column(seed_gen))
                if is_prime(joined.bit_count() // order):
                    covered |= joined
                if joined not in gen_info and admits(joined):
                    admit_orbit(joined, gens)
        # G is generated by its prime-power elements, so some join chain reaches it
        assert full_mask in gen_info or not admits(full_mask)
        return gen_info, orbits

    # -- queries -----------------------------------------------------------

    @property
    def masks(self) -> list[int]:
        return list(self._masks)

    def node_count(self) -> int:
        return len(self._masks)

    def node(self, i: int) -> Subgroup:
        sub = self._nodes[i]
        if sub is None:
            gens = [self._elems[g] for g in self._gen_idxs[i]]
            sub = Subgroup(self.ambient, gens)
            # conjugated generators generate the conjugate, joins their closure
            assert sub.order == self._masks[i].bit_count()
            self._nodes[i] = sub
        return sub

    def subgroup_from_mask(self, mask: int) -> Subgroup:
        """The node with this mask; an intersection of node masks is one."""
        return self.node(self._mask_pos[mask])

    @staticmethod
    def _maximal(masks: list[int]) -> list[int]:
        """The masks contained in no other one, for masks in node order.

        Only a later, larger mask can contain a mask, and one that does lies
        in a maximal one; so a descending sweep tests each mask against the
        maximal masks found so far.
        """
        found: list[int] = []
        for m in reversed(masks):
            if all(m & ~other for other in found):
                found.append(m)
        return found[::-1]

    def maximal_masks(self) -> list[int]:
        return self._maximal([m for m in self._masks if m != self._full_mask])

    def _is_nilpotent(self, mask: int) -> bool:
        """H has at least |H|_p p-elements for each p; nilpotent iff exactly."""
        counts = ((mask & pmask).bit_count() for pmask in self._pmasks.values())
        return prod(counts) == mask.bit_count()

    def class_membership(self, X: "GroupClass") -> list[bool]:
        """Per-node membership verdicts, evaluated once per conjugacy orbit."""
        rule = MASK_RULES.get(X)
        verdicts = [False] * len(self._masks)
        for orbit in self.conjugation_orbits:
            mask = self._masks[orbit[0]]
            verdict = None if rule is None else rule(mask.bit_count(), self._is_nilpotent(mask))
            if verdict is None:
                verdict = X.member(self.node(orbit[0]))
            for i in orbit:
                verdicts[i] = verdict
        return verdicts

    def class_maximal_masks(self, X: "GroupClass") -> list[int]:
        member = self.class_membership(X)
        return self._maximal([m for m, inside in zip(self._masks, member) if inside])


def all_subgroups(G: PermGroup) -> SubgroupLattice:
    """Enumerate every subgroup of G (|G| capped by the lattice bound)."""
    return SubgroupLattice(G)


def nilpotent_subgroups(G: PermGroup) -> SubgroupLattice:
    """The nilpotent nodes of ``all_subgroups(G)``, with their masks and generators."""
    return SubgroupLattice(G, _nilpotent=True)
