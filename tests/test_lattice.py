"""Subgroup lattice enumeration, maximal and X-maximal masks."""

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
    found = {lattice.node(i).element_set() for i in range(lattice.node_count())}
    assert found == oracle
    assert len(found) == lattice.node_count()


def test_lattice_contains_trivial_and_ambient():
    for G in [pg.cyclic(1), pg.symmetric(4), pg.quaternion8()]:
        lattice = pg.all_subgroups(G)
        orders = [mask.bit_count() for mask in lattice.masks]
        assert 1 in orders and G.order in orders


def test_lattice_bound_error():
    G = pg.symmetric(5)
    with pg.limits_scope(pg.Limits(lattice=100)), pytest.raises(ResourceLimitError) as err:
        pg.SubgroupLattice(G)
    assert "100" in str(err.value)


def test_lattice_honours_limits():
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


@pytest.mark.parametrize("build", [pg.all_subgroups, pg.nilpotent_subgroups],
                         ids=["all", "nilpotent"])
def test_lattice_refuses_orders_beyond_its_index_range(build):
    # element indexes are 16-bit array entries: S8xC2 (order 80640) is refused
    # within both bounds, before it is enumerated
    G = pg.direct_product(pg.symmetric(8), pg.cyclic(2))
    with pg.limits_scope(pg.Limits(enumeration=100_000, lattice=100_000)):
        with pytest.raises(ResourceLimitError) as err:
            build(G)
    assert "65536" in str(err.value) and "80640" in str(err.value)
    assert "elements" not in G._cache


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
                        lambda self, table, col: joins.append(col) or closure(self, table, col))
    lattice = pg.SubgroupLattice(G)
    assert lattice._masks == masks
    assert lattice._gen_idxs == gen_idxs
    assert lattice.conjugation_orbits == orbits
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
    elems = G.elements()
    index = {e: i for i, e in enumerate(elems)}
    columns: dict[int, array] = {}

    def column(x):  # the index of e * x for each e, from permutation products
        if x not in columns:
            columns[x] = array("H", (index[e * elems[x]] for e in elems))
        return columns[x]

    joins = []  # (H's mask, the generators of H's columns, the seed, <H, seed>)
    prime_index_joins: dict[int, list[int]] = {}  # H's mask -> <H, s> of prime index
    closure = pg.SubgroupLattice._closure_mask

    def checked(self, table, seed_col):
        # the table is H's: coset 0 is H, cols are columns of H's generators
        H = table.cosets[0]
        assert sorted(H) == H and sum(1 << x for x in H) == table.masks[0]
        seed, col_gens = seed_col[self._identity_idx], [c[self._identity_idx] for c in table.cols]
        assert [seed_col, *table.cols] == [column(seed), *map(column, col_gens)]
        # a seed inside a join of prime index over H found before is not joined
        found = prime_index_joins.setdefault(table.masks[0], [])
        assert not any(J >> seed & 1 for J in found)
        mask = closure(self, table, seed_col)
        # the table, shared by H's later joins, holds right cosets H.y only
        labels = {}
        for d, coset in enumerate(table.cosets):
            times_y = column(coset[0])  # h -> h.y
            assert sorted(coset) == sorted(times_y[h] for h in H)
            assert table.masks[d] == sum(1 << x for x in coset)
            labels.update(dict.fromkeys(coset, d))
        assert len(labels) == len(H) * len(table.cosets)
        assert table.label == [labels.get(x, -1) for x in range(self._n)]
        if is_prime(mask.bit_count() // len(H)):
            found.append(mask)
        joins.append((table.masks[0], col_gens, seed, mask))
        return mask

    monkeypatch.setattr(pg.SubgroupLattice, "_closure_mask", checked)
    lattice = pg.SubgroupLattice(G)
    central = {x for x, e in enumerate(elems) if all(e * g == g * e for g in G.generators)}
    for H_mask, col_gens, seed, mask in joins:
        # H is a node; the columns are those of its generators not central in
        # G (a central one fixes every Hy)
        gens = lattice._gen_idxs[lattice._mask_pos[H_mask]]
        assert H_mask == elementwise_closure_mask(lattice, gens)
        assert col_gens == [g for g in gens if g not in central]
        assert mask == elementwise_closure_mask(lattice, gens + (seed,))
    # both the early exit (G itself) and complete proper closures were taken
    results = [mask for *_, mask in joins]
    assert lattice._full_mask in results
    assert any(mask != lattice._full_mask for mask in results)


def test_word_arrays_match_products(monkeypatch):
    # arrays built from image tuples and composed along words, and the
    # cyclic seeds from powers, against Permutation products and closures
    built = {}
    build = pg.SubgroupLattice._build

    def capture(self, index, nilpotent, conj_arrays, column, conj):
        built.update(conj_arrays=conj_arrays, column=column, conj=conj)
        return build(self, index, nilpotent, conj_arrays, column, conj)

    monkeypatch.setattr(pg.SubgroupLattice, "_build", capture)
    for G in (pg.alternating(5), _DP(pg.dihedral(8), pg.symmetric(3))):
        lattice = pg.SubgroupLattice(G)
        elems = G.elements()
        index = {e: i for i, e in enumerate(elems)}
        for g, conj in zip(G.generators, built["conj_arrays"], strict=True):
            assert conj == array("H", (index[g.inverse() * e * g] for e in elems))
        for x, g in enumerate(elems):
            assert built["column"](x) == array("H", (index[e * g] for e in elems))
            g_inv = g.inverse()
            assert built["conj"](x) == array("H", (index[g_inv * e * g] for e in elems))
        cyclic = lattice._cyclic_masks({e.images: i for i, e in enumerate(elems)})
        prime_power = [x for x, e in enumerate(elems) if is_prime_power(e.order())]
        assert sorted(cyclic) == prime_power
        for x in prime_power:
            expected = closure_elements(G.degree, [elems[x]])
            assert cyclic[x] == sum(1 << index[e] for e in expected)


def test_finished_lattice_keeps_only_what_its_queries_read():
    # the word tree, the generators' arrays and the composers go with the build
    lattice = pg.SubgroupLattice(_DP(pg.dihedral(8), pg.symmetric(3)))
    for name in ("_word", "_gen_columns", "_conj_arrays", "_column", "_conj"):
        assert not hasattr(lattice, name), name


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
    maxs = lattice.maximal_masks()
    assert sorted(m.bit_count() for m in maxs) == [6, 6, 6, 6, 8, 8, 8, 12]


def test_maximal_subgroups_small():
    assert [m.bit_count() for m in pg.all_subgroups(pg.cyclic(7)).maximal_masks()] == [1]
    assert sorted(
        m.bit_count() for m in pg.all_subgroups(pg.cyclic(6)).maximal_masks()
    ) == [2, 3]


def _frattini(G):
    # the intersection of the maximal subgroups, read off the lattice
    lattice = pg.all_subgroups(G)
    mask = lattice.masks[-1]
    for m in lattice.maximal_masks():
        mask &= m
    return lattice.subgroup_from_mask(mask)


def test_frattini_subgroups():
    assert _frattini(pg.symmetric(4)).is_trivial()
    assert _frattini(pg.cyclic(4)).order == 2
    q8_frat = _frattini(pg.quaternion8())
    assert q8_frat.order == 2
    assert q8_frat == pg.center(pg.quaternion8())


def test_frattini_is_normal():
    for G in [pg.symmetric(4), pg.dihedral(16), pg.special_linear2(3)]:
        assert is_normal(G, _frattini(G))


def test_class_maximal_nilpotent_s4():
    lattice = pg.all_subgroups(pg.symmetric(4))
    maxs = lattice.class_maximal_masks(pg.NILPOTENT)
    assert sorted(m.bit_count() for m in maxs) == [3, 3, 3, 3, 8, 8, 8]


def test_class_maximal_of_member_is_whole_group():
    for G in [pg.quaternion8(), pg.cyclic(12), pg.dihedral(16)]:
        maxs = pg.all_subgroups(G).class_maximal_masks(pg.NILPOTENT)
        assert len(maxs) == 1 and maxs[0].bit_count() == G.order


def test_class_maximal_quasinilpotent_s5_includes_a5():
    lattice = pg.all_subgroups(pg.symmetric(5))
    maxs = lattice.class_maximal_masks(pg.QUASINILPOTENT)
    a5 = pg.symmetric(5).subgroup(pg.alternating(5).generators)
    assert any(lattice.subgroup_from_mask(m) == a5 for m in maxs)


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
    masks = pg.all_subgroups(pg.dihedral(12)).masks
    for mi in masks:
        for mj in masks:
            if mj & ~mi == 0:
                assert mi.bit_count() % mj.bit_count() == 0


@pytest.mark.parametrize(
    "G", [pg.symmetric(4), pg.special_linear2(3), pg.dihedral(24), pg.quaternion8(),
          pg.symmetric(5)],
    ids=lambda g: g.name,
)
def test_masks_closed_under_intersection(G):
    # subgroup_from_mask relies on it: Int and every other intersection is a node
    masks = pg.all_subgroups(G).masks
    mask_set = set(masks)
    assert all(mi & mj in mask_set for mi in masks for mj in masks)


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
                      contains_nilpotent=True)
    lattice = pg.SubgroupLattice(pg.dihedral(8))
    assert all(lattice.class_membership(X))
    assert len(calls) == len(lattice.conjugation_orbits)


def test_quasi_class_shortcut_keeps_input_error():
    # every subgroup of D8 is nilpotent, and quasi-F still needs F to
    # contain the nilpotent groups
    F = pg.GroupClass(name="F", membership=lambda H: True)
    with pytest.raises(pg.InputError):
        pg.intersection_of_class_maximal(pg.dihedral(8), pg.quasi_class(F))


def _nodes_and_orbits(lattice, keep=lambda mask: True):
    # mask -> generator indices, and the orbits as sets of masks, of the kept nodes
    masks = lattice.masks
    nodes = {m: gens for m, gens in zip(masks, lattice._gen_idxs) if keep(m)}
    orbits = {frozenset(masks[i] for i in o) for o in lattice.conjugation_orbits
              if keep(masks[o[0]])}
    return nodes, orbits


def test_nilpotent_lattice_is_the_nilpotent_part_of_the_full_lattice(standard):
    # the restricted build keeps every nilpotent node's mask and generators
    # (printed as int_generators) and admits nothing else; on the standard
    # corpus and every fourth extended product of order 101..600
    names = {G.name for G in standard}
    pool = [G for G in pg.extended_corpus() if G.name not in names and 100 < G.order <= 600]
    corpus = list(standard) + pool[::4]
    del pool
    nodes = 0
    while corpus:
        G = corpus.pop()  # a product group and its lattices go with the next one
        full = pg.all_subgroups(G)
        nilpotent = pg.nilpotent_subgroups(G)
        assert _nodes_and_orbits(nilpotent) == _nodes_and_orbits(full, full._is_nilpotent), G.name
        nodes += nilpotent.node_count()
    assert nodes == 25533


def test_nilpotent_lattice_honours_limits():
    G = pg.symmetric(4)
    lattice = pg.nilpotent_subgroups(G)
    assert lattice.node_count() == 24 and lattice.masks != pg.all_subgroups(G).masks
    with pg.limits_scope(pg.Limits(lattice=10)), pytest.raises(ResourceLimitError):
        pg.nilpotent_subgroups(G)
    assert pg.nilpotent_subgroups(G).masks == lattice.masks
