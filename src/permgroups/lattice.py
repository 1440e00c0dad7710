"""Exhaustive subgroup lattices of small groups.

The lattice is seeded with the cyclic subgroups of prime-power order and
closed under joins.  Joins are computed for one representative per conjugacy
orbit and the orbits are then closed explicitly; since the seed family is
conjugation-closed, every join chain from cyclic seeds survives conjugation
and the full lattice is reached (the tests cross-check this against an
independent add-one-element closure oracle).

Subgroups are identified by their element set, encoded as a bitmask over the
sorted element list of the ambient group; generator lists are never compared.
"""

from __future__ import annotations

from array import array
from collections import deque
from typing import TYPE_CHECKING

from .errors import ResourceLimitError
from .groups import PermGroup, Subgroup, subgroup_from_elements
from .limits import Limits, resolve
from .primes import is_prime_power, smallest_prime_factor

if TYPE_CHECKING:
    from .classes import GroupClass


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
        elems = ambient.elements(lim.enumeration)
        self._elems = elems
        index = {e: i for i, e in enumerate(elems)}
        self._index = index
        self._n = n
        from .perms import Permutation

        self._identity_idx = index[Permutation.identity(ambient.degree)]
        self._columns: dict[int, array] = {}
        self._conj_arrays = []
        for g in ambient.generators:
            g_inv = g.inverse()
            self._conj_arrays.append(array("H", (index[g_inv * e * g] for e in elems)))
        self._full_mask = (1 << n) - 1
        self._max_proper = n // smallest_prime_factor(n) if n > 1 else 0

        gen_info = self._build()
        # node order: by (subgroup order, mask); deterministic
        masks = sorted(gen_info, key=lambda m: (m.bit_count(), m))
        self._masks = masks
        self._mask_pos = {m: i for i, m in enumerate(masks)}
        self._gen_idxs = [gen_info[m] for m in masks]
        self._nodes: list[Subgroup | None] = [None] * len(masks)

        orbit_of = [-1] * len(masks)
        orbits: list[tuple[int, ...]] = []
        for i, mask in enumerate(masks):
            if orbit_of[i] >= 0:
                continue
            orbit = self._conjugation_orbit(mask)
            members = tuple(sorted(self._mask_pos[m] for m in orbit))
            for j in members:
                orbit_of[j] = len(orbits)
            orbits.append(members)
        self.orbit_of = tuple(orbit_of)
        self.conjugation_orbits = tuple(orbits)

    # -- construction ------------------------------------------------------

    def _column(self, g_idx: int) -> array:
        col = self._columns.get(g_idx)
        if col is None:
            g = self._elems[g_idx]
            index = self._index
            col = array("H", (index[e * g] for e in self._elems))
            self._columns[g_idx] = col
        return col

    def _closure_mask(self, gen_idxs: tuple[int, ...]) -> int:
        """Mask of <gens>; returns the full mask early once |H| > n/p_min.

        In a finite group the submonoid generated by a set already is the
        generated subgroup, so breadth-first right multiplication by the
        generators alone suffices.
        """
        cols = [self._column(g) for g in gen_idxs]
        member = bytearray(self._n)
        start = self._identity_idx
        member[start] = 1
        out = [start]
        frontier = [start]
        count = 1
        while frontier:
            new = []
            for x in frontier:
                for col in cols:
                    y = col[x]
                    if not member[y]:
                        member[y] = 1
                        new.append(y)
            count += len(new)
            if count > self._max_proper:
                return self._full_mask
            out.extend(new)
            frontier = new
        mask = 0
        for x in out:
            mask |= 1 << x
        return mask

    def _conjugate_mask(self, mask: int, conj: array) -> int:
        new = 0
        m = mask
        while m:
            low = m & -m
            new |= 1 << conj[low.bit_length() - 1]
            m ^= low
        return new

    def _conjugation_orbit(self, mask: int) -> list[int]:
        orbit = {mask}
        queue = [mask]
        while queue:
            cur = queue.pop()
            for conj in self._conj_arrays:
                img = self._conjugate_mask(cur, conj)
                if img not in orbit:
                    orbit.add(img)
                    queue.append(img)
        return list(orbit)

    def _build(self) -> dict[int, tuple[int, ...]]:
        identity_idx = self._identity_idx
        trivial_mask = 1 << identity_idx

        # cyclic prime-power seeds, one per distinct subgroup
        seeds: dict[int, int] = {}
        for x, e in enumerate(self._elems):
            if x == identity_idx or not is_prime_power(e.order()):
                continue
            mask = trivial_mask
            col = self._column(x)
            cur = x
            while cur != identity_idx:
                mask |= 1 << cur
                cur = col[cur]
            if mask not in seeds:
                seeds[mask] = x
        seed_list = sorted(seeds.items(), key=lambda kv: (kv[0].bit_count(), kv[0]))

        gen_info: dict[int, tuple[int, ...]] = {trivial_mask: ()}
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
            for m, gi in orbit.items():
                gen_info[m] = gi
            worklist.append(min(orbit))

        for mask, gen in seed_list:
            if mask not in gen_info:
                admit_orbit(mask, (gen,))
        while worklist:
            rep = worklist.popleft()
            rep_gens = gen_info[rep]
            if rep == self._full_mask:
                continue
            for seed_mask, seed_gen in seed_list:
                if seed_mask & ~rep == 0:
                    continue
                joined = self._closure_mask(rep_gens + (seed_gen,))
                if joined not in gen_info:
                    admit_orbit(joined, rep_gens + (seed_gen,))
        if self._full_mask not in gen_info:
            # cyclic prime-power groups and the trivial group land here
            gen_info[self._full_mask] = tuple(
                self._index[g] for g in self.ambient.generators
            )
        return gen_info

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
            # guard against a generating set that undershoots the node
            if sub.order != self._masks[i].bit_count():
                sub = subgroup_from_elements(self.ambient, self._mask_elements(i))
            self._nodes[i] = sub
        return sub

    @property
    def nodes(self) -> list[Subgroup]:
        return [self.node(i) for i in range(len(self._masks))]

    def _mask_elements(self, i: int):
        mask = self._masks[i]
        out = []
        while mask:
            low = mask & -mask
            out.append(self._elems[low.bit_length() - 1])
            mask ^= low
        return out

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

    def maximal_masks(self) -> list[int]:
        full = self._full_mask
        proper = [m for m in self._masks if m != full]
        return [
            m
            for m in proper
            if not any(other != m and m & ~other == 0 for other in proper)
        ]

    def maximal_subgroups(self) -> list[Subgroup]:
        """Proper subgroups maximal under inclusion."""
        return [self.node(self._mask_pos[m]) for m in self.maximal_masks()]

    def frattini_subgroup(self) -> Subgroup:
        """Intersection of all maximal subgroups (the whole group when none exist)."""
        mask = self._full_mask
        for m in self.maximal_masks():
            mask &= m
        return self.subgroup_from_mask(mask)

    def class_membership(self, X: "GroupClass") -> list[bool]:
        """Per-node membership verdicts, evaluated once per conjugacy orbit."""
        verdicts: list[bool | None] = [None] * len(self._masks)
        for orbit in self.conjugation_orbits:
            rep = orbit[0]
            verdict = X.member(self.node(rep))
            for i in orbit:
                verdicts[i] = verdict
        return [bool(v) for v in verdicts]

    def class_maximal_masks(self, X: "GroupClass") -> list[int]:
        member = self.class_membership(X)
        member_masks = [self._masks[i] for i in range(len(self._masks)) if member[i]]
        return [
            m
            for m in member_masks
            if not any(other != m and m & ~other == 0 for other in member_masks)
        ]

    def class_maximal_subgroups(self, X: "GroupClass") -> list[Subgroup]:
        """Subgroups in X contained in no strictly larger X-subgroup."""
        return [self.node(self._mask_pos[m]) for m in self.class_maximal_masks(X)]


def all_subgroups(G: PermGroup, limits: Limits | None = None) -> SubgroupLattice:
    """Enumerate every subgroup of G (|G| capped by the lattice bound)."""
    cached = G._cache.get("lattice")
    if cached is None:
        cached = G._cache["lattice"] = SubgroupLattice(G, limits)
    return cached

