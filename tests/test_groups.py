"""Group construction, membership, subgroups, quotients, and products."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import permgroups as pg
from permgroups.chain import StabilizerChain
from permgroups.errors import InputError, PreconditionError, ResourceLimitError
from permgroups.groups import walk_classes
from permgroups.perms import Permutation, parse_permutation

from conftest import WalkedSeries, closure_elements, element_orders


def test_group_from_generators_examples():
    S3 = pg.PermGroup(3, [parse_permutation("(0 1 2)", 3),
                          parse_permutation("(0 1)", 3)])
    assert S3.order == 6
    assert pg.PermGroup(4, []).order == 1
    # oracle: exhaustive closure of the generating set
    gens = [parse_permutation("(0 1 2 3 4)", 5), parse_permutation("(0 1 2)", 5)]
    assert len(closure_elements(5, gens)) == 60
    assert pg.PermGroup(5, gens).order == 60


def test_malformed_generator_rejected():
    with pytest.raises(InputError):
        pg.PermGroup(3, [parse_permutation("(0 1)", 2)])


def test_contains_examples():
    A5 = pg.alternating(5)
    oracle = closure_elements(5, A5.generators)
    even = parse_permutation("(0 1)(2 3)", 5)
    odd = parse_permutation("(0 1)", 5)
    assert even in oracle and A5.contains(even)
    assert odd not in oracle and not A5.contains(odd)
    assert A5.contains(Permutation.identity(5))
    with pytest.raises(InputError):
        A5.contains(Permutation.identity(4))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.permutations(list(range(6))).map(Permutation), max_size=3))
def test_chain_order_matches_closure(gens):
    # spec invariant: chain order equals exhaustive enumeration, |G| <= 5000
    G = pg.PermGroup(6, gens)
    oracle = closure_elements(6, gens)
    assert G.order == len(oracle)
    assert set(G.elements()) == oracle


def _incremental_chains(degree, gens):
    """Chains on gens: built at once, grown by _add, and grown by _add with
    the record of sifted pairs dropped halfway."""
    grown, restarted = StabilizerChain(degree, ()), StabilizerChain(degree, ())
    for k, g in enumerate(gens):
        grown._add(g)
        if k == len(gens) // 2:
            restarted.forget_sifted()
        restarted._add(g)
    return StabilizerChain(degree, gens), grown, restarted


def test_incremental_chains_match_closure(standard):
    # every chain has the closure's order and decides membership like it, on
    # each group's generators and on seeded random subsets of its elements
    rng = random.Random(20161115)
    for G in standard:
        elems = G.elements()
        subsets = [list(G.generators)]
        subsets += [rng.sample(elems, min(k, len(elems))) for k in (1, 2, 3, 4)]
        for gens in subsets:
            closure = closure_elements(G.degree, gens)
            for chain in _incremental_chains(G.degree, gens):
                assert chain.order() == len(closure)
                assert all(chain.contains(e) == (e in closure) for e in elems)


def test_transversal_pairs_compose_to_identity(standard):
    # u^-1 is composed as s^-1 * v^-1 for u = v * s, never inverted; every
    # pair, and every stored strong generator with its inverse, must cancel,
    # on each standard group and on the quotients of its chief series
    for G in standard:
        chains = [G.chain]
        chains += [pg.quotient_group(G, K).group.chain for K in WalkedSeries(G).terms]
        for chain in chains:
            identity = tuple(range(chain.degree))
            for lvl in chain.levels:
                assert len(lvl.inverses) == len(lvl.gens)
                for s, s_inv in zip(lvl.gens, lvl.inverses):
                    assert Permutation(s) * Permutation(s_inv) == Permutation(identity)
                for point, (u, u_inv) in lvl.transversal.items():
                    assert u[lvl.point] == point
                    assert Permutation(u) * Permutation(u_inv) == Permutation(identity)


def test_chain_order_matches_closure_larger():
    # fixed spot checks below the 5000-element enumeration comfort zone
    A7 = pg.alternating(7)
    assert A7.order == 2520
    assert len(closure_elements(7, A7.generators)) == 2520
    G = pg.direct_product(pg.symmetric(4), pg.symmetric(4))
    assert G.order == 576
    assert len(closure_elements(8, G.generators)) == 576


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_membership_closure_properties(data):
    gens = data.draw(st.lists(st.permutations(list(range(5))).map(Permutation),
                              min_size=1, max_size=2))
    G = pg.PermGroup(5, gens)
    elems = G.elements()
    x = data.draw(st.sampled_from(elems))
    y = data.draw(st.sampled_from(elems))
    assert G.contains(x * y)
    assert G.contains(x.inverse())


def test_group_equality_by_mutual_membership():
    A = pg.PermGroup(3, [parse_permutation("(0 1 2)", 3)])
    B = pg.PermGroup(3, [parse_permutation("(0 2 1)", 3)])
    assert A == B
    assert A != pg.symmetric(3)


def test_centralizer_examples():
    S3 = pg.symmetric(3)
    C3 = S3.subgroup([parse_permutation("(0 1 2)", 3)])
    cent = pg.centralizer(S3, C3)
    # oracle: brute force over all 6 elements
    expected = {g for g in closure_elements(3, S3.generators)
                if all(g * s == s * g for s in C3.elements())}
    assert cent.element_set() == frozenset(expected)
    assert cent.order == 3

    assert pg.centralizer(S3, S3.trivial_subgroup()) == S3.self_subgroup()

    Q8 = pg.quaternion8()
    assert pg.centralizer(Q8, Q8).order == 2


def test_centralizer_commutes_elementwise():
    G = pg.symmetric(4)
    S = G.subgroup([parse_permutation("(0 1 2)", 4)])
    cent = pg.centralizer(G, S)
    for c in cent.elements():
        for s in S.elements():
            assert c * s == s * c


def test_center_examples():
    assert pg.center(pg.symmetric(3)).is_trivial()
    C6 = pg.cyclic(6)
    assert pg.center(C6) == C6.self_subgroup()
    assert pg.center(pg.quaternion8()).order == 2


def test_normal_closure_examples():
    S3 = pg.symmetric(3)
    assert pg.normal_closure(S3, S3.subgroup([parse_permutation("(0 1)", 3)])).order == 6
    S4 = pg.symmetric(4)
    A4 = pg.alternating(4)
    n = pg.normal_closure(S4, S4.subgroup(A4.generators))
    assert n.order == 12  # already normal
    v = pg.normal_closure(S4, S4.subgroup([parse_permutation("(0 1)(2 3)", 4)]))
    assert v.order == 4
    assert element_orders(v) == (1, 2, 2, 2)


def test_commutator_examples():
    S3 = pg.symmetric(3)
    S4 = pg.symmetric(4)
    assert pg.commutator_subgroup(S3, S3.self_subgroup(), S3.self_subgroup()).order == 3
    assert pg.commutator_subgroup(S4, S4.self_subgroup(), S4.trivial_subgroup()).order == 1
    derived = pg.commutator_subgroup(S4, S4.self_subgroup(), S4.self_subgroup())
    assert derived == S4.subgroup(pg.alternating(4).generators)


def test_quotient_examples():
    S4 = pg.symmetric(4)
    V4 = pg.normal_closure(S4, S4.subgroup([parse_permutation("(0 1)(2 3)", 4)]))
    Q = pg.quotient_group(S4, V4)
    assert Q.group.order == 6 and not Q.group.is_abelian()
    assert Q.group.order * V4.order == S4.order

    ident = pg.quotient_group(S4, S4.trivial_subgroup())
    assert ident.group == S4

    A4 = S4.subgroup(pg.alternating(4).generators)
    assert pg.quotient_group(S4, A4).group.order == 2


def test_quotient_projection_is_homomorphism():
    S4 = pg.symmetric(4)
    V4 = pg.normal_closure(S4, S4.subgroup([parse_permutation("(0 1)(2 3)", 4)]))
    Q = pg.quotient_group(S4, V4)
    for a in S4.generators:
        for b in S4.generators:
            assert Q.project(a * b) == Q.project(a) * Q.project(b)
    for n in V4.generators:
        assert Q.project(n).is_identity()


def test_quotient_requires_normal():
    S4 = pg.symmetric(4)
    H = S4.subgroup([parse_permutation("(0 1)", 4)])
    with pytest.raises(PreconditionError):
        pg.quotient_group(S4, H)


def test_direct_product_examples():
    A5 = pg.alternating(5)
    triv = pg.cyclic(1)
    assert pg.direct_product(A5, triv).order == 60
    c2c2 = pg.direct_product(pg.cyclic(2), pg.cyclic(2))
    assert c2c2.order == 4
    assert element_orders(c2c2) == (1, 2, 2, 2)
    assert pg.direct_product(A5, A5).order == 3600


def test_semidirect_v4_by_s3_is_s4():
    # reconstruction of V4 x| (S4 / C_S4(V4)) ~ S4
    S4 = pg.symmetric(4)
    cf = pg.chief_series(S4).factors[0]
    sd = pg.factor_semidirect(cf)
    assert sd.order == 24
    assert pg.center(sd).is_trivial()
    assert element_orders(sd) == element_orders(S4)


def test_enumeration_bound():
    S6 = pg.symmetric(6)
    with pg.limits_scope(pg.Limits(enumeration=100)), pytest.raises(ResourceLimitError):
        S6.elements()


def test_upper_central_series():
    D8 = pg.dihedral(8)
    terms = pg.upper_central_series(D8)
    assert [t.order for t in terms] == [1, 2, 8]
    S3 = pg.symmetric(3)
    assert [t.order for t in pg.upper_central_series(S3)] == [1]
    C6 = pg.cyclic(6)
    assert pg.upper_central_series(C6)[-1].order == 6


def _chain_levels(chain):
    return [(lvl.point, lvl.gens, list(lvl.transversal.items())) for lvl in chain.levels]


@pytest.mark.parametrize("G", [pg.symmetric(4), pg.special_linear2(3), pg.dihedral(12),
                               pg.alternating(5)], ids=lambda G: G.name)
def test_chains_grown_in_place_equal_fresh_chains(G, monkeypatch):
    # subgroup_from_elements and normal_closure grow one chain with _add; it
    # must equal the chain built from scratch on the kept generators, and the
    # returned subgroup keeps it
    from permgroups import groups
    from permgroups.chain import StabilizerChain

    built = []

    class Recording(StabilizerChain):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    elems = G.elements()
    S = G.subgroup([G.generators[-1]])
    monkeypatch.setattr(groups, "StabilizerChain", Recording)
    cases = [
        lambda: pg.subgroup_from_elements(G, elems),
        lambda: pg.normal_closure(G, S),
    ]
    for make in cases:
        built.clear()
        H = make()
        # the first chain built inside the call is the one grown in place
        grown = built[0]
        fresh = StabilizerChain(G.degree, H.generators)
        assert _chain_levels(grown) == _chain_levels(fresh)
        assert grown.order() == H.order
        # the subgroup keeps it, so its base and transversals are the fresh
        # chain's, and no second chain is built
        assert H.chain is grown and len(built) == 1


def test_bounded_chains_equal_unbounded_chains(monkeypatch):
    # a chain given an order bound stops sifting once its orbits multiply to
    # it.  On the four suites over a fresh standard corpus, every such chain
    # must hold a bound no smaller than its group's order and equal the
    # chain built without one, level by level.  Lattice nodes take no bound:
    # their order check would pass whatever the bound cut short.
    from permgroups import groups, lattice

    bounded = []
    init = groups.PermGroup.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self.chain._bound:
            bounded.append(self)

    node = lattice.SubgroupLattice.node

    def unbounded_node(self, i):
        sub = node(self, i)
        assert sub.chain._bound == 0
        return sub

    monkeypatch.setattr(groups.PermGroup, "__init__", recording)
    monkeypatch.setattr(lattice.SubgroupLattice, "node", unbounded_node)
    corpus = pg.standard_corpus()
    for suite in (lambda c: pg.verify_theorem1(c, pg.NILPOTENT), pg.verify_baer,
                  pg.verify_remark4, pg.compare_nca):
        assert all(r.error is None for r in suite(corpus))
    assert len(bounded) > 100
    for G in bounded:
        fresh = StabilizerChain(G.degree, G.generators)
        assert G.chain._bound >= fresh.order()
        assert [
            (lvl.point, lvl.gens, lvl.inverses, list(lvl.transversal.items()))
            for lvl in G.chain.levels
        ] == [
            (lvl.point, lvl.gens, lvl.inverses, list(lvl.transversal.items()))
            for lvl in fresh.levels
        ]


# -- the image-tuple kernel against Permutation products ----------------------


def _product_coset_table(G, N):
    """Quotient's coset representatives and table, from Permutation products
    only: breadth first over G's generators, coset of rep = {n * rep}."""
    reps, table = [], {}

    def register(rep):
        reps.append(rep)
        for n in N.elements():
            table[(n * rep).images] = len(reps) - 1

    register(Permutation.identity(G.degree))
    for rep in reps:
        for g in G.generators:
            if (rep * g).images not in table:
                register(rep * g)
    return reps, table


def _product_classes(G):
    """Conjugacy classes by breadth-first search over g^-1 * y * g."""
    classes, seen = [], set()
    for x in G.elements():
        if x in seen:
            continue
        orbit, queue = {x}, [x]
        while queue:
            y = queue.pop()
            for g in G.generators:
                z = g.inverse() * y * g
                if z not in orbit:
                    orbit.add(z)
                    queue.append(z)
        seen |= orbit
        classes.append(tuple(sorted(orbit)))
    return classes


def test_tuple_kernel_matches_permutation_products(standard):
    # the chain, the class walk, the coset tables and the coset action compose
    # image tuples; each must equal its Permutation-product definition
    for G in standard:
        assert set(G.chain.elements()) == closure_elements(G.degree, G.generators)
        walked = list(walk_classes(G, G.elements(), lambda x: True, set()))
        assert walked == _product_classes(G)
        own = {id(e) for e in G.elements()}
        assert all(id(x) in own for cls in walked for x in cls)
        series = WalkedSeries(G)
        for K in series.terms:  # G/G has degree 1
            Q = pg.quotient_group(G, K)
            if K.is_trivial():
                assert Q.group is G and Q._coset_of is None
                continue
            reps, table = _product_coset_table(G, K)
            assert list(Q.reps) == reps and Q._coset_of == table
        for cf in series.factors:
            coset_of = cf._coset_of
            for g in G.generators + G.elements()[:5]:
                gbar = cf.quotient.project(g)
                expected = [coset_of[(gbar.inverse() * rep * gbar).images] for rep in cf.cosets]
                assert list(cf.action_of(g).images) == expected


def test_degree_one_and_two_groups():
    # itemgetter with one index returns a scalar: no degree-1 tuple may reach
    # a composition
    ident1 = Permutation.identity(1)
    T = pg.PermGroup(1, [])
    assert T.order == 1 and T.elements() == (ident1,) and T.contains(ident1)
    assert T.chain.elements() == [ident1] and T.chain.base == ()
    assert T.conjugacy_classes() == ((ident1,),)
    assert pg.minimal_normal_subgroups(T) == [] and pg.chief_series(T).factors == ()
    C2 = pg.cyclic(2)
    Q = pg.quotient_group(C2, C2.self_subgroup())
    assert Q.group.degree == 1 and Q.group.order == 1
    assert Q.group.elements() == (ident1,) and Q.group.conjugacy_classes() == ((ident1,),)
    assert [Q.project(g) for g in C2.elements()] == [ident1, ident1]
    assert Q.lift(ident1) == Permutation.identity(2)
    assert Q.lift_subgroup(Q.group) == C2
    assert pg.upper_central_series(C2)[-1].order == 2
