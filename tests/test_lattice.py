"""Subgroup lattice enumeration, maximal subgroups, X-maximal subgroups."""

from array import array

import pytest

import permgroups as pg
from permgroups.errors import ResourceLimitError
from permgroups.lattice import MASK_RULES
from permgroups.primes import is_prime, is_prime_power

from conftest import (
    brute_subgroups,
    closure_elements,
    elementwise_closure_mask,
    is_normal,
    naive_lattice,
)


def test_all_subgroups_counts():
    assert pg.all_subgroups(pg.cyclic(6)).node_count() == 4
    assert pg.all_subgroups(pg.symmetric(4)).node_count() == 30
    assert pg.all_subgroups(pg.quaternion8()).node_count() == 6


@pytest.mark.parametrize(
    "G",
    [pg.cyclic(6), pg.cyclic(8), pg.quaternion8(), pg.dihedral(8),
     pg.symmetric(3), pg.alternating(4), pg.symmetric(4), pg.dihedral(12)],
    ids=lambda g: g.name,
)
def test_lattice_matches_brute_oracle(G):
    # independent oracle: add-one-element closure from the trivial subgroup
    oracle = brute_subgroups(G)
    lattice = pg.all_subgroups(G)
    found = {sub.element_set() for sub in lattice.nodes}
    assert found == oracle
    assert len(found) == lattice.node_count()


def test_lattice_contains_trivial_and_ambient():
    for G in [pg.cyclic(1), pg.symmetric(4), pg.quaternion8()]:
        lattice = pg.all_subgroups(G)
        orders = [lattice.node_order(i) for i in range(lattice.node_count())]
        assert 1 in orders and G.order in orders


def test_lattice_bound_error():
    G = pg.symmetric(5)
    with pg.limits_scope(pg.Limits(lattice=100)), pytest.raises(ResourceLimitError) as err:
        pg.SubgroupLattice(G)
    assert "100" in str(err.value)


def test_lattice_cache_honours_limits():
    G = pg.symmetric(4)
    assert pg.all_subgroups(G).node_count() == 30
    with pg.limits_scope(pg.Limits(lattice=10)), pytest.raises(ResourceLimitError) as err:
        pg.all_subgroups(G)
    assert "10" in str(err.value)


def test_element_caches_honour_limits():
    G = pg.symmetric(5)
    assert len(G.elements()) == 120
    assert len(G.element_set()) == 120
    assert len(G.conjugacy_classes()) == 7
    for cached in (G.elements, G.element_set, G.conjugacy_classes):
        with pg.limits_scope(pg.Limits(enumeration=10)), pytest.raises(ResourceLimitError) as err:
            cached()
        assert "10" in str(err.value)


_DP = pg.direct_product


@pytest.mark.parametrize(
    "G",
    [pg.symmetric(4), pg.dihedral(12), _DP(pg.symmetric(3), pg.symmetric(3)),
     _DP(pg.symmetric(4), pg.cyclic(2)), _DP(pg.dihedral(8), pg.symmetric(3)),
     pg.symmetric(5), _DP(pg.dihedral(8), pg.dihedral(8)),
     # centre of order 2: a central generator next to non-central ones
     pg.special_linear2(3),
     # abelian: every generator central, no class search and no conjugate
     _DP(pg.cyclic(8), pg.elementary_abelian(2, 2))],
    ids=lambda g: g.name,
)
def test_lattice_build_matches_naive_join_loop(G, monkeypatch):
    # the generator tuples are printed as int_generators, so they must match too
    masks, gen_idxs, orbits, naive_joins = naive_lattice(G)
    joins = []
    closure = pg.SubgroupLattice._closure_mask
    monkeypatch.setattr(pg.SubgroupLattice, "_closure_mask",
                        lambda self, gens, table: joins.append(gens) or closure(self, gens, table))
    lattice = pg.SubgroupLattice(G)
    assert lattice._masks == masks
    assert lattice._gen_idxs == gen_idxs
    assert lattice.conjugation_orbits == orbits
    assert all(i in orbits[k] for i, k in enumerate(lattice.orbit_of))
    assert len(joins) < naive_joins


@pytest.mark.parametrize(
    "G",
    [pg.symmetric(4), _DP(pg.dihedral(8), pg.symmetric(3)), _DP(pg.dihedral(8), pg.dihedral(8)),
     # abelian, 38 subgroups; E(2,2)xE(3,2) would skip every join that gives G
     _DP(pg.cyclic(8), pg.elementary_abelian(2, 2))],
    ids=lambda g: g.name,
)
def test_coset_closure_matches_elementwise_closure(G, monkeypatch):
    # every join of the build, checked against growing it one element at a time
    results = []
    prime_index_joins: dict[tuple, list[int]] = {}  # H's generators -> <H, s> of prime index
    closure = pg.SubgroupLattice._closure_mask

    def checked(self, gens, table):
        # the table is H = <gens[:-1]>'s: coset 0 is H, cols are the columns of
        # H's generators that are not central in G (a central one fixes every Hy)
        H = table.cosets[0]
        assert table.masks[0] == elementwise_closure_mask(self, gens[:-1])
        assert sorted(H) == H and sum(1 << x for x in H) == table.masks[0]
        identity = array("H", range(self._n))
        assert table.cols == [self._column(g) for g in gens[:-1] if self._conj(g) != identity]
        # a seed inside a join of prime index over H found before is not joined
        found = prime_index_joins.setdefault(gens[:-1], [])
        assert not any(J >> gens[-1] & 1 for J in found)
        mask = closure(self, gens, table)
        assert mask == elementwise_closure_mask(self, gens)
        # the table, shared by H's later joins, holds right cosets H.y only
        labels = {}
        for d, coset in enumerate(table.cosets):
            times_y = self._column(coset[0])  # h -> h.y
            assert sorted(coset) == sorted(times_y[h] for h in H)
            assert table.masks[d] == sum(1 << x for x in coset)
            labels.update(dict.fromkeys(coset, d))
        assert len(labels) == len(H) * len(table.cosets)
        assert table.label == [labels.get(x, -1) for x in range(self._n)]
        if is_prime(mask.bit_count() // len(H)):
            found.append(mask)
        results.append(mask)
        return mask

    monkeypatch.setattr(pg.SubgroupLattice, "_closure_mask", checked)
    lattice = pg.SubgroupLattice(G)
    # both the early exit (G itself) and complete proper closures were taken
    assert lattice._full_mask in results
    assert any(mask != lattice._full_mask for mask in results)


def test_word_arrays_match_products():
    # arrays built from image tuples and composed along words, and the
    # cyclic seeds from powers, against Permutation products and closures
    for G in (pg.alternating(5), _DP(pg.dihedral(8), pg.symmetric(3))):
        lattice = pg.SubgroupLattice(G)
        elems = G.elements()
        index = {e: i for i, e in enumerate(elems)}
        for g, col, conj in zip(G.generators, lattice._gen_columns, lattice._conj_arrays):
            assert col == array("H", (index[e * g] for e in elems))
            assert conj == array("H", (index[g.inverse() * e * g] for e in elems))
        for x, g in enumerate(elems):
            assert lattice._column(x) == array("H", (index[e * g] for e in elems))
            g_inv = g.inverse()
            assert lattice._conj(x) == array("H", (index[g_inv * e * g] for e in elems))
        cyclic = lattice._cyclic_masks({e.images: i for i, e in enumerate(elems)})
        prime_power = [x for x, e in enumerate(elems) if is_prime_power(e.order())]
        assert sorted(cyclic) == prime_power
        for x in prime_power:
            expected = closure_elements(G.degree, [elems[x]])
            assert cyclic[x] == sum(1 << index[e] for e in expected)


@pytest.mark.parametrize(
    "G",
    [pg.cyclic(12), pg.elementary_abelian(2, 3), _DP(pg.cyclic(8), pg.elementary_abelian(2, 2))],
    ids=lambda g: g.name,
)
def test_abelian_build_conjugates_no_mask(G, monkeypatch):
    # every generator of an abelian group is central and fixes every mask
    calls = []
    conjugate = pg.SubgroupLattice._conjugate_mask
    monkeypatch.setattr(pg.SubgroupLattice, "_conjugate_mask",
                        lambda self, mask, conj: calls.append(mask) or conjugate(self, mask, conj))
    assert pg.SubgroupLattice(G).node_count() == len(brute_subgroups(G))
    assert calls == []
    # the counter sees the calls of a group with a non-central generator
    pg.SubgroupLattice(pg.dihedral(8))
    assert calls


def test_maximal_subgroups_s4():
    lattice = pg.all_subgroups(pg.symmetric(4))
    maxs = lattice.maximal_subgroups()
    assert sorted(m.order for m in maxs) == [6, 6, 6, 6, 8, 8, 8, 12]


def test_maximal_subgroups_small():
    assert [m.order for m in pg.all_subgroups(pg.cyclic(7)).maximal_subgroups()] == [1]
    assert sorted(
        m.order for m in pg.all_subgroups(pg.cyclic(6)).maximal_subgroups()
    ) == [2, 3]


def test_frattini_subgroups():
    assert pg.all_subgroups(pg.symmetric(4)).frattini_subgroup().is_trivial()
    assert pg.all_subgroups(pg.cyclic(4)).frattini_subgroup().order == 2
    q8_frat = pg.all_subgroups(pg.quaternion8()).frattini_subgroup()
    assert q8_frat.order == 2
    assert q8_frat == pg.center(pg.quaternion8())


def test_frattini_is_normal():
    for G in [pg.symmetric(4), pg.dihedral(16), pg.special_linear2(3)]:
        frat = pg.all_subgroups(G).frattini_subgroup()
        assert is_normal(frat)


def test_class_maximal_nilpotent_s4():
    lattice = pg.all_subgroups(pg.symmetric(4))
    maxs = lattice.class_maximal_subgroups(pg.NILPOTENT)
    assert sorted(m.order for m in maxs) == [3, 3, 3, 3, 8, 8, 8]


def test_class_maximal_of_member_is_whole_group():
    for G in [pg.quaternion8(), pg.cyclic(12), pg.dihedral(16)]:
        maxs = pg.all_subgroups(G).class_maximal_subgroups(pg.NILPOTENT)
        assert len(maxs) == 1 and maxs[0].order == G.order


def test_class_maximal_quasinilpotent_s5_includes_a5():
    lattice = pg.all_subgroups(pg.symmetric(5))
    maxs = lattice.class_maximal_subgroups(pg.QUASINILPOTENT)
    a5 = pg.symmetric(5).subgroup(pg.alternating(5).generators)
    assert any(m == a5 for m in maxs)


@pytest.mark.parametrize(
    "G", [pg.symmetric(4), pg.special_linear2(3), pg.dihedral(24)],
    ids=lambda g: g.name,
)
@pytest.mark.parametrize("X", [pg.NILPOTENT, pg.QUASINILPOTENT, pg.ABELIAN],
                         ids=lambda x: x.name)
def test_class_maximal_cover_property(G, X):
    # every X-subgroup is contained in some X-maximal subgroup
    lattice = pg.all_subgroups(G)
    member = lattice.class_membership(X)
    max_masks = lattice.class_maximal_masks(X)
    for i, mask in enumerate(lattice.masks):
        if member[i]:
            assert any(mask & ~mm == 0 for mm in max_masks)


def test_x_maximal_family_is_conjugation_closed():
    G = pg.symmetric(4)
    lattice = pg.all_subgroups(G)
    max_masks = set(lattice.class_maximal_masks(pg.NILPOTENT))
    mask_set = set(lattice.masks)
    pos = {m: i for i, m in enumerate(lattice.masks)}
    # conjugates of X-maximal subgroups are X-maximal: the mask family is a
    # union of conjugation orbits
    for orbit in lattice.conjugation_orbits:
        masks = {lattice.masks[i] for i in orbit}
        assert masks <= max_masks or not (masks & max_masks)
    assert max_masks <= mask_set


def test_conjugation_orbits_partition_nodes():
    lattice = pg.all_subgroups(pg.symmetric(4))
    seen = [i for orbit in lattice.conjugation_orbits for i in orbit]
    assert sorted(seen) == list(range(lattice.node_count()))


def test_inclusion_consistent_with_order():
    lattice = pg.all_subgroups(pg.dihedral(12))
    n = lattice.node_count()
    for i in range(n):
        for j in range(n):
            if lattice.includes(i, j):
                assert lattice.node_order(i) % lattice.node_order(j) == 0


_MASK_CLASSES = [pg.NILPOTENT, pg.QUASINILPOTENT, pg.NCA, pg.ABELIAN, pg.ALL_GROUPS,
                 pg.p_groups(2), pg.p_groups(3)]


def test_class_membership_matches_member_on_standard(standard):
    # independent side: is_nilpotent (lower central series) and the other
    # class predicates, asked of every node's Subgroup
    for G in standard:
        lattice = pg.all_subgroups(G)
        for X in _MASK_CLASSES:
            fast = lattice.class_membership(X)
            slow = [X.member(lattice.node(i)) for i in range(lattice.node_count())]
            assert fast == slow, (G.name, X.name)


def test_order_rule_matches_member_on_ext_pool():
    # every non-nilpotent orbit the N*/Nca rule decides by its order alone,
    # checked against X.member (nilpotent nodes: the standard oracle above),
    # on the extended direct products outside standard of order 101..150
    standard = {G.name for G in pg.standard_corpus()}
    pool = [G for G in pg.extended_corpus()
            if G.name not in standard and 100 < G.order <= 150]
    decided = 0
    for G in pool:
        lattice = pg.SubgroupLattice(G)
        masks = lattice.masks
        for X in (pg.QUASINILPOTENT, pg.NCA):
            for orbit in lattice.conjugation_orbits:
                mask = masks[orbit[0]]
                if lattice._is_nilpotent(mask):
                    continue
                verdict = MASK_RULES[X](mask.bit_count(), False)
                if verdict is not None:
                    decided += 1
                    assert verdict == X.member(lattice.node(orbit[0])), (G.name, X.name)
    assert decided == 1780


@pytest.mark.parametrize("X", [pg.NILPOTENT, pg.p_groups(2), pg.ALL_GROUPS,
                               pg.QUASINILPOTENT, pg.NCA],
                         ids=lambda x: x.name)
def test_mask_decided_classes_build_no_subgroups(X):
    lattice = pg.SubgroupLattice(pg.symmetric(4))
    lattice.class_membership(X)
    assert lattice._nodes == [None] * lattice.node_count()


@pytest.mark.parametrize("X", [pg.QUASINILPOTENT, pg.NCA], ids=lambda x: x.name)
def test_only_a5_itself_reaches_member_on_a5(X):
    # S3, D10 and A4 are rejected by their order, the rest are nilpotent
    lattice = pg.SubgroupLattice(pg.alternating(5))
    assert lattice.class_membership(X)[-1]
    built = [i for i, sub in enumerate(lattice._nodes) if sub is not None]
    assert built == [lattice.node_count() - 1]


def test_quasi_classes_keep_soluble_non_nilpotent_nodes():
    # the N*/Nca order rule must not reach a general quasi-F class
    lattice = pg.SubgroupLattice(pg.symmetric(4))
    assert all(lattice.class_membership(pg.quasi_class(pg.ALL_GROUPS)))


def test_user_class_membership_called_once_per_orbit():
    # a user class's flags are not trusted: no nilpotent shortcut
    calls = []
    X = pg.GroupClass(name="N", membership=lambda H: calls.append(H) or True,
                      contains_nilpotent=True, hereditary=True)
    lattice = pg.SubgroupLattice(pg.dihedral(8))
    assert all(lattice.class_membership(X))
    assert len(calls) == len(lattice.conjugation_orbits)


def test_quasi_class_shortcut_keeps_input_error():
    # every subgroup of D8 is nilpotent, and quasi-F still needs F to
    # contain the nilpotent groups
    F = pg.GroupClass(name="F", membership=lambda H: True)
    with pytest.raises(pg.InputError):
        pg.intersection_of_class_maximal(pg.dihedral(8), pg.quasi_class(F))
