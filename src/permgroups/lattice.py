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
element decides.  An element's right multiplication and conjugation arrays
are composed from those of G's generators along its word, never from
permutation products.

Subgroups are identified by their element set, encoded as a bitmask over the
sorted element list of the ambient group; generator lists are never compared.

Class membership of a node is read off its mask where the class allows.  H is
nilpotent iff its Sylow subgroups are normal (Robinson 5.2.4), iff it has
exactly |H|_p p-elements for each prime p; it has at least that many, so the
test is that the popcounts of H's mask with one p-element mask per prime
multiply to |H|.  N is decided so, Np:p by |H| alone, all always; N*, Nca and
every quasi-F class accept nilpotent nodes.  Other verdicts, and all of a
user-built class's, come from ``X.member`` on the orbit representative.
"""

from __future__ import annotations

from array import array
from collections import deque
from functools import partial
from math import prod
from typing import TYPE_CHECKING, Callable

from .errors import ResourceLimitError
from .groups import PermGroup, Subgroup, subgroup_from_elements
from .limits import Limits, resolve
from .perms import Permutation
from .primes import is_prime, is_prime_power, prime_divisors, smallest_prime_factor

if TYPE_CHECKING:
    from .classes import GroupClass

#: built-in class -> rule(order, nilpotent): a node's verdict, or None to ask X
MASK_RULES: dict[GroupClass, Callable[[int, bool], bool | None]] = {}

# membership bytes <-> binary digits, for masks (bit x is element x)
_BITS, _BYTES = bytes.maketrans(b"\0\1", b"01"), bytes.maketrans(b"01", b"\0\1")


class SubgroupLattice:
    """All subgroups of a small ambient group, with conjugation orbits."""

    def __init__(self, ambient: PermGroup, limits: Limits | None = None):
        lim = resolve(limits)
        n = ambient.order
        if n > lim.lattice:
            raise ResourceLimitError(
                f"subgroup lattice bound {lim.lattice} exceeded by group order {n}"
            )
        self.ambient = ambient
        elems = self._elems = ambient.elements(lim.enumeration)
        index = {e: i for i, e in enumerate(elems)}
        self._n = n
        identity_idx = self._identity_idx = index[Permutation.identity(ambient.degree)]
        # right multiplication and conjugation by each generator of G
        self._gen_columns, self._conj_arrays = [], []
        for g in ambient.generators:
            g_inv = g.inverse()
            self._gen_columns.append(array("H", (index[e * g] for e in elems)))
            self._conj_arrays.append(array("H", (index[g_inv * e * g] for e in elems)))
        # breadth-first word tree: element x is word[x][0] times generator word[x][1]
        word: dict[int, tuple[int, int]] = {identity_idx: (identity_idx, 0)}
        queue = [identity_idx]
        for y in queue:
            for j, col in enumerate(self._gen_columns):
                if col[y] not in word:
                    word[col[y]] = (y, j)
                    queue.append(col[y])
        self._word = word
        self._full_mask = (1 << n) - 1
        self._max_proper = n // smallest_prime_factor(n) if n > 1 else 0

        self._reset_caches()
        gen_info, orbits = self._build()
        # the caches hold up to n arrays of n entries, and the lattice outlives them
        self._reset_caches()
        # node order: by (subgroup order, mask); deterministic
        masks = sorted(gen_info, key=lambda m: (m.bit_count(), m))
        self._masks = masks
        pos = self._mask_pos = {m: i for i, m in enumerate(masks)}
        self._gen_idxs = [gen_info[m] for m in masks]
        self._nodes: list[Subgroup | None] = [None] * len(masks)
        self.conjugation_orbits = tuple(
            sorted(tuple(sorted(pos[m] for m in orbit)) for orbit in orbits)
        )
        k_of = {i: k for k, members in enumerate(self.conjugation_orbits) for i in members}
        self.orbit_of = tuple(k_of[i] for i in range(len(masks)))

    # -- construction ------------------------------------------------------

    def _reset_caches(self) -> None:
        # _column(x)[e] is the index of e*x, _conj(x)[e] that of x^-1*e*x
        identity = array("H", range(self._n))
        self._column = partial(self._compose, {self._identity_idx: identity}, self._gen_columns)
        self._conj = partial(self._compose, {self._identity_idx: identity}, self._conj_arrays)

    def _compose(self, cache: dict[int, array], gen_arrays: list[array], x: int) -> array:
        """Array of element x for an action given on G's generators, composed along x's word."""
        path = []
        while x not in cache:
            path.append(x)
            x = self._word[x][0]
        arr = cache[x]
        for y in reversed(path):
            step = gen_arrays[self._word[y][1]]
            arr = cache[y] = array("H", map(step.__getitem__, arr))
        return arr

    def _closure_mask(self, gen_idxs: tuple[int, ...], base: tuple[list[int], bytearray]) -> int:
        """Mask of <gens>, given H = <gens[:-1]> as ``base`` (its elements and
        membership bytes); returns the full mask early once |<gens>| > n/p_min.

        Dimino's closure: a right coset C of H times a generator is again a
        right coset of H, so it lies inside the union found so far or misses
        it, and its first element decides which.  In a finite group the
        submonoid generated by a set already is the generated subgroup, so
        right multiplication by the generators alone suffices.
        """
        cols = [self._column(g) for g in gen_idxs]
        cosets, member = [base[0]], bytearray(base[1])
        count = len(base[0])
        for C in cosets:
            for col in cols:
                if not member[col[C[0]]]:
                    count += len(C)
                    if count > self._max_proper:
                        return self._full_mask
                    new = list(map(col.__getitem__, C))
                    for x in new:
                        member[x] = 1
                    cosets.append(new)
        return int(member[::-1].translate(_BITS), 2)

    def _conjugate_mask(self, mask: int, conj: array) -> int:
        new = 0
        m = mask
        while m:
            low = m & -m
            new |= 1 << conj[low.bit_length() - 1]
            m ^= low
        return new

    def _outside_seed_leaders(self, rep: int, gens: tuple[int, ...], seed_list, seed_of):
        """First seed outside ``rep`` of each class of seeds under conjugation by <gens>."""
        conjs = [self._conj(g) for g in gens]
        seen = bytearray(len(seed_list))
        for i, (mask, x) in enumerate(seed_list):
            if seen[i] or mask & ~rep == 0:
                continue
            yield mask, x
            seen[i] = 1
            stack = [x]
            while stack:
                y = stack.pop()
                for conj in conjs:
                    j = seed_of[conj[y]]
                    if not seen[j]:
                        seen[j] = 1
                        stack.append(seed_list[j][1])

    def _build(self) -> tuple[dict[int, tuple[int, ...]], list]:
        identity_idx = self._identity_idx
        trivial_mask = 1 << identity_idx
        full_mask = self._full_mask

        # cyclic prime-power seeds, one per distinct subgroup, and p-element masks
        cyclic: dict[int, int] = {}
        seeds: dict[int, int] = {}
        pmasks = self._pmasks = dict.fromkeys(prime_divisors(self._n), trivial_mask)
        for x, e in enumerate(self._elems):
            order = e.order()
            if x == identity_idx or not is_prime_power(order):
                continue
            pmasks[smallest_prime_factor(order)] |= 1 << x
            mask = trivial_mask
            col = self._column(x)
            cur = x
            while cur != identity_idx:
                mask |= 1 << cur
                cur = col[cur]
            cyclic[x] = mask
            seeds.setdefault(mask, x)
        seed_list = sorted(seeds.items(), key=lambda kv: (kv[0].bit_count(), kv[0]))
        seed_pos = {mask: i for i, (mask, _) in enumerate(seed_list)}
        seed_of = {x: seed_pos[mask] for x, mask in cyclic.items()}

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
                for arr in self._conj_arrays:
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
            if only_full and full_mask in gen_info:
                continue
            member = bytearray(format(rep, f"0{self._n}b")[::-1], "ascii").translate(_BYTES)
            base = ([x for x, b in enumerate(member) if b], member)
            leaders = self._outside_seed_leaders(rep, rep_gens, seed_list, seed_of)
            covered = 0  # the joins found of prime index over rep
            for _, seed_gen in leaders:
                if covered >> seed_gen & 1:
                    continue
                gens = rep_gens + (seed_gen,)
                joined = full_mask if only_full else self._closure_mask(gens, base)
                if is_prime(joined.bit_count() // order):
                    covered |= joined
                if joined not in gen_info:
                    admit_orbit(joined, gens)
        # G is generated by its prime-power elements, so some join chain reaches it
        assert full_mask in gen_info
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

    @property
    def nodes(self) -> list[Subgroup]:
        return [self.node(i) for i in range(len(self._masks))]

    def includes(self, i: int, j: int) -> bool:
        """True when node i contains node j."""
        return self._masks[j] & ~self._masks[i] == 0

    def node_order(self, i: int) -> int:
        return self._masks[i].bit_count()

    def subgroup_from_mask(self, mask: int) -> Subgroup:
        pos = self._mask_pos.get(mask)
        if pos is not None:
            return self.node(pos)
        elems = []
        m = mask
        while m:
            low = m & -m
            elems.append(self._elems[low.bit_length() - 1])
            m ^= low
        return subgroup_from_elements(self.ambient, elems)

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

    def maximal_subgroups(self) -> list[Subgroup]:
        """Proper subgroups maximal under inclusion."""
        return [self.node(self._mask_pos[m]) for m in self.maximal_masks()]

    def frattini_subgroup(self) -> Subgroup:
        """Intersection of all maximal subgroups (the whole group when none exist)."""
        mask = self._full_mask
        for m in self.maximal_masks():
            mask &= m
        return self.subgroup_from_mask(mask)

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

    def class_maximal_subgroups(self, X: "GroupClass") -> list[Subgroup]:
        """Subgroups in X contained in no strictly larger X-subgroup."""
        return [self.node(self._mask_pos[m]) for m in self.class_maximal_masks(X)]


def all_subgroups(G: PermGroup, limits: Limits | None = None) -> SubgroupLattice:
    """Enumerate every subgroup of G (|G| capped by the lattice bound)."""
    cached = G._cache.get("lattice")
    # over the bound, a cached lattice is not returned: building one raises
    if cached is None or G.order > resolve(limits).lattice:
        cached = G._cache["lattice"] = SubgroupLattice(G, limits)
    return cached

