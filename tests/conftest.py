"""Shared fixtures and brute-force oracles.

The oracles here deliberately avoid the stabilizer chain and the lattice
join machinery: closure is plain breadth-first multiplication, subgroup
enumeration is add-one-element closure, nilpotency is the normal-Sylow
criterion, ``naive_lattice`` is the lattice join loop rebuilt without
its shortcuts, ``elementwise_closure_mask`` is a lattice join grown one
element at a time, ``naive_factor_centralizer`` tests every element of G,
``induces_inner_automorphism`` tries every coset as the inner automorphism,
``naive_project`` maps g into G/K coset by coset,
``element_semidirect`` builds the chief factor's semidirect product on
the factor's elements, ``naive_minimal_normal_subgroups`` compares full
element sets, ``hypercenter_oracle`` is the product of every
X-hypercentral normal subgroup that ``normal_subgroups`` finds and
``member_by_ascent`` walks every chief series of a membership test on
``chiefs.ascend``, a factor semidirect product's too.  ``WalkedSeries``
walks a chief series under either tie-break and keeps its terms.  Expected
values asserted in the tests were computed with these oracles and then
frozen.
"""

from __future__ import annotations

from collections import deque

import pytest
from hypothesis import settings

import permgroups as pg
from permgroups.chiefs import ascend
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

    Breadth-first right multiplication by the generators, over columns
    computed from permutation products, returning the full mask early once
    more than n/p_min elements are found: the slow reference for
    ``SubgroupLattice._closure_mask``, which grows by whole cosets.
    """
    elems = lattice._elems
    index = {e: i for i, e in enumerate(elems)}
    cols = [[index[e * elems[g]] for e in elems] for g in gen_idxs]
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
    of H/K (generator cosets generate the factor); each is lifted to an
    element of H, and each conjugate's coset is looked up afresh.
    """
    lifts = map(cf.quotient.lift, cf.factor.generators)

    def coset_of(h: Permutation) -> int:  # the index in cf.cosets of h's coset
        assert cf.upper.contains(h)
        return cf._coset_of[cf.quotient.project(h).images]

    gen_cosets = [(h, coset_of(h)) for h in lifts]
    passing = []
    for g in cf.ambient.elements():
        g_inv = g.inverse()
        if all(coset_of(g_inv * h * g) == c for h, c in gen_cosets):
            passing.append(g)
    return pg.subgroup_from_elements(cf.ambient, passing), frozenset(passing)


def naive_project(Q: pg.Quotient, g: Permutation) -> Permutation:
    """g's image in G/K by its definition: coset i goes to the coset of reps[i] * g."""
    if Q._coset_of is None:
        return g
    return Permutation([Q._coset_of[(rep * g).images] for rep in Q.reps])


def is_normal(G: pg.PermGroup, S: pg.PermGroup) -> bool:
    """Is S a normal subgroup of G: does G hold S's generators, and S every
    conjugate of them by G's generators?"""
    return all(G.contains(s) for s in S.generators) and all(
        S.contains(g.inverse() * s * g) for s in S.generators for g in G.generators
    )


def induces_inner_automorphism(
    cf: pg.ChiefFactor, g: Permutation
) -> tuple[bool, Permutation | None]:
    """Does g act on H/K as conjugation by some coset?  Brute force.

    Returns (verdict, witness representative), scanning the factor's cosets
    one by one; the production test is ``inner_induction_subgroup``.
    """
    if not cf.ambient.contains(g):
        raise pg.InputError("element lies outside the ambient group")
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


def factor_element_cosets(cf: pg.ChiefFactor) -> list[int]:
    """The coset of K in H that each element of the factor H/K stands for,
    in the factor's sorted element order.

    The factor is H/K inside G/K, so its elements are the cosets themselves.
    """
    return [cf._coset_of[e.images] for e in cf.factor.elements()]


def element_semidirect(cf: pg.ChiefFactor) -> pg.PermGroup:
    """(H/K) x| G/C_G(H/K) realized on the factor's sorted element list.

    H/K acts by right multiplication of its elements, and G's coset action
    is carried over to the elements by ``factor_element_cosets``: the
    element-labelled construction, the reference for ``factor_semidirect``,
    which builds the same group on the cosets.
    """
    elems = cf.factor.elements()
    index = {e: i for i, e in enumerate(elems)}
    to_coset = factor_element_cosets(cf)
    to_elem = [0] * len(elems)
    for i, c in enumerate(to_coset):
        to_elem[c] = i
    gens = [Permutation([index[e * f] for e in elems]) for f in cf.factor.generators]
    gens += [
        Permutation([to_elem[sigma.images[c]] for c in to_coset])
        for sigma in map(cf.action_of, cf.ambient.generators)
    ]
    return pg.PermGroup(len(elems), gens)


class WalkedSeries:
    """A chief series of G walked on ``chiefs.ascend``, with its terms
    1 = K_0 < K_1 < ... < G.  The forward tie-break is ``chief_series(G)``'s;
    ``reverse`` lifts the last minimal normal subgroup of each quotient in
    encoding order instead of the first."""

    def __init__(self, G: pg.PermGroup, reverse: bool = False):
        last_first = (lambda Q: pg.minimal_normal_subgroups(Q)[::-1]) if reverse else None
        self.factors: tuple[pg.ChiefFactor, ...] = tuple(ascend(G, candidates=last_first))
        self.terms = (G.trivial_subgroup(),) + tuple(cf.upper for cf in self.factors)

    def factor_orders(self) -> tuple[int, ...]:
        return tuple(cf.factor.order for cf in self.factors)


def member_by_ascent(X: pg.GroupClass, G: pg.PermGroup) -> bool:
    """``X.member(G)`` with every chief series it walks, nested ones included,
    walked on ``chiefs.ascend``: the generic walk, which builds the quotients
    of a factor semidirect product P where ``chiefs.chief_factors`` walks
    P's action image instead."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pg.classes, "chief_factors", ascend)
        return X.member(G)


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


def normal_subgroups(G: pg.PermGroup) -> list[pg.Subgroup]:
    """Every normal subgroup of G (join closure of class normal closures),
    sorted by order and sorted-element encoding; cached on G."""
    cached = G._cache.get("normal_subgroups_oracle")
    if cached is not None:
        return list(cached)
    seeds: list[pg.Subgroup] = []
    seen: set[frozenset] = set()
    for cls in G.conjugacy_classes():
        if cls[0].is_identity():
            continue
        N = pg.subgroup_from_elements(G, cls)
        key = N.element_set()
        if key not in seen:
            seen.add(key)
            seeds.append(N)
    normals: dict[frozenset, pg.Subgroup] = {
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
            J = pg.join_subgroups(G, cur, s)
            key = J.element_set()
            if key not in normals:
                normals[key] = J
                worklist.append(J)
    out = sorted(normals.values(), key=lambda N: (N.order, tuple(p.images for p in N.elements())))
    G._cache["normal_subgroups_oracle"] = tuple(out)
    return out


def hypercenter_oracle(G: pg.PermGroup, X: pg.GroupClass) -> pg.Subgroup:
    """Direct definition: the product of all X-hypercentral normal subgroups.

    A normal subgroup is X-hypercentral when one (hence, by Jordan-Hoelder,
    any) chief series of G below it has only X-central factors.  No greedy
    shortcut: every normal subgroup is enumerated and walked.
    """
    gens = []
    for N in normal_subgroups(G):
        if _is_hypercentral_below(G, N, X):
            gens.extend(N.generators)
    return pg.Subgroup(G, gens)


def _is_hypercentral_below(G: pg.PermGroup, N: pg.Subgroup, X: pg.GroupClass) -> bool:
    K = G.trivial_subgroup()
    while K.order < N.order:
        Q = pg.quotient_group(G, K)
        Nbar = Q.group.subgroup([Q.project(g) for g in N.generators])
        step = None
        for mn in pg.minimal_normal_subgroups(Q.group):
            if all(Nbar.contains(g) for g in mn.generators):
                step = mn
                break
        if step is None:  # cannot happen for a normal N; defensive
            return False
        cf = pg.ChiefFactor(Q, step)
        if not pg.is_class_central(cf, X):
            return False
        K = cf.upper
    return True


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
