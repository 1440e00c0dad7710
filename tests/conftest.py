"""Shared fixtures and brute-force oracles.

The oracles here deliberately avoid the stabilizer chain and the lattice
join machinery: closure is plain breadth-first multiplication, subgroup
enumeration is add-one-element closure, nilpotency is the normal-Sylow
criterion, ``naive_lattice`` is the lattice join loop rebuilt without
its shortcuts, ``elementwise_closure_mask`` is a lattice join grown one
element at a time, ``naive_factor_centralizer`` tests every element of G and
``naive_minimal_normal_subgroups`` compares full element sets.  Expected values asserted in the tests were computed with these
oracles and then frozen.
"""

from __future__ import annotations

from collections import deque

import pytest
from hypothesis import settings

import permgroups as pg
from permgroups.perms import Permutation
from permgroups.primes import is_prime

# the same examples on every run, and no per-example deadline on a slow machine
settings.register_profile("reproducible", derandomize=True, deadline=None)
settings.load_profile("reproducible")


def closure_elements(degree: int, gens) -> frozenset[Permutation]:
    """<gens> by breadth-first multiplication; independent of the chain."""
    identity = Permutation.identity(degree)
    known = {identity}
    frontier = [identity]
    gens = list(gens)
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = x * g
                if y not in known:
                    known.add(y)
                    new.append(y)
        frontier = new
    return frozenset(known)


def brute_subgroups(G: pg.PermGroup) -> set[frozenset[Permutation]]:
    """All subgroups by add-one-element closure, seeded at the trivial group.

    Every subgroup arises by adjoining generators one element at a time, so
    iterating "extend each known subgroup by each outside element" reaches
    everything.  Exponential-ish, fine for tiny groups.
    """
    elems = G.elements()
    trivial = frozenset(closure_elements(G.degree, []))
    known = {trivial}
    frontier = [trivial]
    while frontier:
        new = []
        for H in frontier:
            for x in elems:
                if x in H:
                    continue
                J = frozenset(closure_elements(G.degree, list(H) + [x]))
                if J not in known:
                    known.add(J)
                    new.append(J)
        frontier = new
    return known


def elementwise_closure_mask(lattice: pg.SubgroupLattice, gen_idxs) -> int:
    """Mask of <gens> grown one element at a time from the identity.

    Breadth-first right multiplication by the generators over the lattice's
    columns, returning the full mask early once more than n/p_min elements
    are found: the slow reference for ``SubgroupLattice._closure_mask``,
    which grows by whole cosets.
    """
    cols = [lattice._column(g) for g in gen_idxs]
    member = bytearray(lattice._n)
    start = lattice._identity_idx
    member[start] = 1
    out = [start]
    frontier = [start]
    while frontier:
        new = []
        for x in frontier:
            for col in cols:
                y = col[x]
                if not member[y]:
                    member[y] = 1
                    new.append(y)
        if len(out) + len(new) > lattice._max_proper:
            return lattice._full_mask
        out.extend(new)
        frontier = new
    return sum(1 << x for x in out)


def naive_lattice(G: pg.PermGroup):
    """The lattice join loop without shortcuts, as a slow oracle.

    Every orbit representative is joined with every cyclic prime-power seed
    it does not contain, columns are permutation products, closures run to
    the end and conjugation orbits are found afresh.  Returns the masks, the
    generator index tuples and the orbits in ``SubgroupLattice`` node order,
    plus the number of joins computed.
    """
    elems = G.elements()
    index = {e: i for i, e in enumerate(elems)}
    n = len(elems)
    identity = index[Permutation.identity(G.degree)]
    full = (1 << n) - 1
    columns: dict[int, list[int]] = {}

    def column(x):
        if x not in columns:
            columns[x] = [index[e * elems[x]] for e in elems]
        return columns[x]

    def closure(gens):
        cols = [column(g) for g in gens]
        known = {identity}
        frontier = [identity]
        while frontier:
            frontier = list(dict.fromkeys(
                c[x] for x in frontier for c in cols if c[x] not in known
            ))
            known.update(frontier)
        return sum(1 << x for x in known)

    conj = [[index[g.inverse() * e * g] for e in elems] for g in G.generators]

    def conjugate(mask, arr):
        return sum(1 << arr[x] for x in range(n) if mask >> x & 1)

    seeds: dict[int, int] = {}
    for x, e in enumerate(elems):
        o = e.order()
        if o > 1 and _is_power_of(o, min(p for p in range(2, o + 1) if o % p == 0)):
            seeds.setdefault(closure((x,)), x)
    seed_list = sorted(seeds.items(), key=lambda kv: (kv[0].bit_count(), kv[0]))

    gen_info = {1 << identity: ()}
    worklist: deque[int] = deque()

    def admit(mask, gens):
        orbit = {mask: gens}
        stack = [mask]
        while stack:
            cur = stack.pop()
            for arr in conj:
                img = conjugate(cur, arr)
                if img not in orbit:
                    orbit[img] = tuple(arr[g] for g in orbit[cur])
                    stack.append(img)
        gen_info.update(orbit)
        worklist.append(min(orbit))

    for mask, gen in seed_list:
        if mask not in gen_info:
            admit(mask, (gen,))
    joins = 0
    while worklist:
        rep = worklist.popleft()
        if rep == full:
            continue
        for seed_mask, seed_gen in seed_list:
            if seed_mask & ~rep:
                joins += 1
                joined = closure(gen_info[rep] + (seed_gen,))
                if joined not in gen_info:
                    admit(joined, gen_info[rep] + (seed_gen,))
    if full not in gen_info:
        gen_info[full] = tuple(index[g] for g in G.generators)

    masks = sorted(gen_info, key=lambda m: (m.bit_count(), m))
    pos = {m: i for i, m in enumerate(masks)}
    orbits = []
    seen: set[int] = set()
    for mask in masks:
        if mask in seen:
            continue
        orbit = {mask}
        stack = [mask]
        while stack:
            cur = stack.pop()
            for arr in conj:
                img = conjugate(cur, arr)
                if img not in orbit:
                    orbit.add(img)
                    stack.append(img)
        seen |= orbit
        orbits.append(tuple(sorted(pos[m] for m in orbit)))
    return masks, [gen_info[m] for m in masks], tuple(orbits), joins


def naive_factor_centralizer(cf: pg.ChiefFactor) -> tuple[pg.Subgroup, frozenset]:
    """C_G(H/K) by testing every g in G, with the passing element set.

    g centralizes H/K iff conjugation by g fixes the coset of every generator
    of H (generator cosets generate the factor).
    """
    gen_cosets = [(h, cf.factor_coset_of_element(h)) for h in cf.upper.generators]
    coset_of = cf._coset_of
    passing = []
    for g in cf.ambient.elements():
        g_inv = g.inverse()
        if all(coset_of[(g_inv * h * g).images] == c for h, c in gen_cosets):
            passing.append(g)
    return pg.subgroup_from_elements(cf.ambient, passing), frozenset(passing)


def naive_minimal_normal_subgroups(G: pg.PermGroup) -> list[pg.Subgroup]:
    """Minimal normal subgroups compared by their full element sets.

    Normal closures of prime-order classes, deduplicated by element set, the
    minimal ones by set inclusion, sorted by sorted-element encoding.  Reads
    and writes no cache of G.
    """
    if G.order == 1:
        return []
    candidates: list[pg.Subgroup] = []
    seen: set[frozenset] = set()
    for cls in G.conjugacy_classes():
        rep = cls[0]
        if rep.is_identity() or not is_prime(rep.order()):
            continue
        N = pg.subgroup_from_elements(G, cls)
        key = frozenset(closure_elements(G.degree, N.generators))
        if key not in seen:
            seen.add(key)
            candidates.append((key, N))
    candidates.sort(key=lambda kn: len(kn[0]))
    minimal = []
    for key, N in candidates:
        if not any(kept <= key for kept, _ in minimal):
            minimal.append((key, N))
    minimal.sort(key=lambda kn: sorted(p.images for p in kn[0]))
    return [N for _, N in minimal]


def nilpotent_oracle(G: pg.PermGroup) -> bool:
    """Normal-Sylow criterion: the p-elements form a subgroup for every p."""
    elems = G.elements()
    primes = set()
    for e in elems:
        o = e.order()
        d = 2
        while d * d <= o:
            if o % d == 0:
                primes.add(d)
                while o % d == 0:
                    o //= d
            d += 1
        if o > 1:
            primes.add(o)
    for p in primes:
        p_elems = [e for e in elems if _is_power_of(e.order(), p)]
        pset = set(p_elems)
        for a in p_elems:
            for b in p_elems:
                if a * b not in pset:
                    return False
    return True


def _is_power_of(n: int, p: int) -> bool:
    while n % p == 0:
        n //= p
    return n == 1


def element_orders(G: pg.PermGroup) -> tuple[int, ...]:
    return tuple(sorted(e.order() for e in G.elements()))


@pytest.fixture(scope="session")
def smoke():
    return pg.smoke_corpus()


@pytest.fixture(scope="session")
def standard():
    # session-scoped so chief series / lattice caches stay warm across tests
    return pg.standard_corpus()
