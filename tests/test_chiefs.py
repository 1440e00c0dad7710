"""Minimal normal subgroups, chief series/factors, inner induction,
the factor semidirect product, and semisimple decomposition."""

import pytest

import permgroups as pg
from permgroups import chiefs
from permgroups.errors import PreconditionError
from permgroups.groups import walk_classes
from permgroups.perms import parse_permutation
from permgroups.primes import is_prime

from conftest import element_orders, naive_factor_centralizer, naive_minimal_normal_subgroups


def _v4_in_s4():
    S4 = pg.symmetric(4)
    V4 = pg.normal_closure(S4, S4.subgroup([parse_permutation("(0 1)(2 3)", 4)]))
    return S4, V4


def test_minimal_normal_subgroups_examples():
    S4, V4 = _v4_in_s4()
    mns = pg.minimal_normal_subgroups(S4)
    assert len(mns) == 1 and mns[0] == V4

    A5 = pg.alternating(5)
    mns = pg.minimal_normal_subgroups(A5)
    assert len(mns) == 1 and mns[0].order == 60

    C2C2 = pg.elementary_abelian(2, 2)
    assert [m.order for m in pg.minimal_normal_subgroups(C2C2)] == [2, 2, 2]

    assert pg.minimal_normal_subgroups(pg.cyclic(1)) == []


def test_chief_series_s4():
    series = pg.chief_series(pg.symmetric(4))
    assert series.factor_orders() == (4, 3, 2)
    assert [t.order for t in series.terms] == [1, 4, 12, 24]


def test_chief_series_simple_and_abelian():
    assert pg.chief_series(pg.alternating(5)).factor_orders() == (60,)
    assert sorted(pg.chief_series(pg.cyclic(6)).factor_orders()) == [2, 3]
    assert pg.chief_series(pg.cyclic(1)).factor_orders() == ()


def test_chief_series_factor_orders_multiply_to_group_order():
    for G in [pg.symmetric(4), pg.special_linear2(3), pg.dihedral(24)]:
        series = pg.chief_series(G)
        total = 1
        for n in series.factor_orders():
            total *= n
        assert total == G.order


def test_chief_factor_s4_v4():
    S4, V4 = _v4_in_s4()
    cf = pg.chief_factor(S4, S4.trivial_subgroup(), V4)
    assert cf.factor.order == 4
    assert cf.centralizer == V4
    Q = pg.quotient_group(S4, cf.centralizer)
    assert Q.group.order == 6 and not Q.group.is_abelian()


def test_chief_factor_central_case():
    Q8 = pg.quaternion8()
    Z = pg.center(Q8)
    cf = pg.chief_factor(Q8, Q8.trivial_subgroup(), Z)
    assert cf.centralizer.order == Q8.order  # central factor


def test_chief_factor_a5_in_s5():
    S5 = pg.symmetric(5)
    A5 = S5.subgroup(pg.alternating(5).generators)
    cf = pg.chief_factor(S5, S5.trivial_subgroup(), A5)
    assert cf.factor.order == 60
    assert cf.centralizer.is_trivial()


def test_chief_factor_rejects_intermediate():
    S4 = pg.symmetric(4)
    A4 = S4.subgroup(pg.alternating(4).generators)
    with pytest.raises(PreconditionError) as err:
        pg.chief_factor(S4, S4.trivial_subgroup(), A4)
    assert "order 4" in str(err.value)  # names the V4 witness


def test_induces_inner_automorphism():
    S5 = pg.symmetric(5)
    cf = pg.chief_series(S5).factors[0]
    assert cf.factor.order == 60

    # member of H: inner, with a witness
    member = parse_permutation("(0 1 2)", 5)
    ok, witness = pg.induces_inner_automorphism(cf, member)
    assert ok and witness is not None

    # transposition induces an outer automorphism of A5 (brute force over
    # all 60 inner automorphisms)
    ok, witness = pg.induces_inner_automorphism(cf, parse_permutation("(0 1)", 5))
    assert not ok and witness is None


def test_induces_inner_on_abelian_eccentric_factor():
    S4 = pg.symmetric(4)
    cf = pg.chief_series(S4).factors[0]  # V4
    # Inn of an abelian group is trivial: non-centralizing elements fail
    ok, _ = pg.induces_inner_automorphism(cf, parse_permutation("(0 1 2)", 4))
    assert not ok
    ok, _ = pg.induces_inner_automorphism(cf, parse_permutation("(0 1)(2 3)", 4))
    assert ok


def test_inner_induction_subgroup_examples():
    Q8 = pg.quaternion8()
    cf_central = pg.chief_factor(Q8, Q8.trivial_subgroup(), pg.center(Q8))
    assert pg.inner_induction_subgroup(cf_central).order == 8  # whole group

    S5 = pg.symmetric(5)
    cf = pg.chief_series(S5).factors[0]
    assert pg.inner_induction_subgroup(cf).order == 60  # A5 exactly

    A5xS3 = pg.direct_product(pg.alternating(5), pg.symmetric(3), name="A5xS3")
    series = pg.chief_series(A5xS3)
    cf60 = next(c for c in series.factors if c.factor.order == 60)
    assert pg.inner_induction_subgroup(cf60).order == 360  # everything


def test_inner_induction_subgroup_is_subgroup_and_consistent():
    S5 = pg.symmetric(5)
    cf = pg.chief_series(S5).factors[0]
    iis = pg.inner_induction_subgroup(cf)
    elems = iis.elements()
    for a in elems[:20]:
        assert iis.contains(a.inverse())
    # brute-force oracle agrees with membership on every group element
    for g in S5.elements():
        ok, _ = pg.induces_inner_automorphism(cf, g)
        assert ok == iis.contains(g)
    # contains H * C
    assert all(iis.contains(h) for h in cf.upper.generators)
    assert all(iis.contains(c) for c in cf.centralizer.generators)


def test_factor_semidirect_central_factor():
    Q8 = pg.quaternion8()
    cf = pg.chief_factor(Q8, Q8.trivial_subgroup(), pg.center(Q8))
    sd = pg.factor_semidirect(cf)
    assert sd.order == 2  # factor x trivial


def test_factor_semidirect_v4_s4():
    S4 = pg.symmetric(4)
    cf = pg.chief_series(S4).factors[0]
    sd = pg.factor_semidirect(cf)
    assert sd.order == 24
    assert pg.center(sd).is_trivial()
    assert element_orders(sd) == element_orders(S4)


def test_factor_semidirect_order_formula():
    for G in [pg.symmetric(4), pg.special_linear2(3), pg.symmetric(5)]:
        for cf in pg.chief_series(G).factors:
            sd = pg.factor_semidirect(cf)
            assert sd.order == cf.factor.order * (G.order // cf.centralizer.order)


def test_factor_semidirect_inner_only_gives_square():
    # simple non-abelian factor with G inducing exactly Inn: H/K x| G/C ~ (H/K)^2
    A5xS3 = pg.direct_product(pg.alternating(5), pg.symmetric(3), name="A5xS3")
    cf = next(c for c in pg.chief_series(A5xS3).factors if c.factor.order == 60)
    sd = pg.factor_semidirect(cf)
    assert sd.order == 3600
    mns = pg.minimal_normal_subgroups(sd)
    assert [m.order for m in mns] == [60, 60]
    assert pg.center(sd).is_trivial()


def test_chief_factors_are_characteristically_simple():
    for G in [pg.symmetric(4), pg.symmetric(5), pg.special_linear2(3),
              pg.dihedral(24), pg.direct_product(pg.alternating(5), pg.symmetric(3))]:
        for cf in pg.chief_series(G).factors:
            F = cf.factor
            if F.is_abelian():
                p = F.elements()[1].order() if F.order > 1 else 1
                assert all(e.order() in (1, p) for e in F.elements())
            else:
                parts = pg.semisimple_decomposition(F, F.self_subgroup())
                assert len({m.order for m in parts}) == 1


def test_semisimple_decomposition_examples():
    A5 = pg.alternating(5)
    assert [m.order for m in pg.semisimple_decomposition(A5, A5.self_subgroup())] == [60]

    A5A5 = pg.direct_product(pg.alternating(5), pg.alternating(5))
    parts = pg.semisimple_decomposition(A5A5, A5A5.self_subgroup())
    assert [m.order for m in parts] == [60, 60]
    j = pg.join_subgroups(A5A5, *parts)
    assert j.order == 3600


def test_semisimple_decomposition_swap_product():
    # (A5 x A5) x| C2 swapping the factors: the socle is one minimal normal
    A5A5 = pg.direct_product(pg.alternating(5), pg.alternating(5))
    swap = parse_permutation("(0 5)(1 6)(2 7)(3 8)(4 9)", 10)
    G = pg.PermGroup(10, list(A5A5.generators) + [swap], name="(A5xA5):2")
    assert G.order == 7200
    socle = G.subgroup(A5A5.generators)
    parts = pg.semisimple_decomposition(G, socle)
    assert [m.order for m in parts] == [3600]


def test_semisimple_decomposition_rejects_bad_input():
    S4 = pg.symmetric(4)
    V4 = pg.normal_closure(S4, S4.subgroup([parse_permutation("(0 1)(2 3)", 4)]))
    with pytest.raises(PreconditionError):
        pg.semisimple_decomposition(S4, V4)  # abelian
    A4 = S4.subgroup(pg.alternating(4).generators)
    with pytest.raises(PreconditionError):
        pg.semisimple_decomposition(S4, A4)  # not semisimple


def test_jordan_hoelder_factor_order_multisets():
    for G in [pg.symmetric(4), pg.cyclic(12), pg.special_linear2(3), pg.dihedral(20)]:
        fwd = pg.chief_series(G)
        rev = pg.chief_series(G, reverse_tiebreak=True)
        assert sorted(fwd.factor_orders()) == sorted(rev.factor_orders())


def test_degenerate_trivial_group():
    triv = pg.cyclic(1)
    assert pg.chief_series(triv).factors == ()
    assert pg.minimal_normal_subgroups(triv) == []
    assert pg.hypercenter(triv, pg.NILPOTENT).subgroup.order == 1


# -- fast paths against their slow oracles --------------------------------------


@pytest.fixture(scope="module")
def remark4_products(standard):
    """Every factor semidirect product verify_remark4 builds on `standard`."""
    products = []
    build = pg.classes.factor_semidirect

    def recording(cf):
        products.append(build(cf))
        return products[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pg.classes, "factor_semidirect", recording)
        reports = pg.verify_remark4(standard)
    assert all(r.equal for r in reports)
    return products


def _assert_centralizer_matches_walk(cf):
    naive, passing = naive_factor_centralizer(cf)
    assert cf.centralizer.element_set() == passing
    assert cf.centralizer.generators == naive.generators


def test_factor_centralizer_matches_element_walk_standard(standard):
    factors = 0
    for G in standard:
        for series in (pg.chief_series(G), pg.chief_series(G, reverse_tiebreak=True)):
            for cf in series.factors:
                _assert_centralizer_matches_walk(cf)
                factors += 1
    assert factors >= 150


def test_factor_centralizer_matches_element_walk_semidirect(remark4_products):
    assert len(remark4_products) == 65
    assert sum(P.order for P in remark4_products) == 21884
    for P in remark4_products:
        for cf in pg.chief_series(P).factors:
            _assert_centralizer_matches_walk(cf)


def test_factor_centralizer_named_cases():
    Q8 = pg.quaternion8()
    central = pg.chief_factor(Q8, Q8.trivial_subgroup(), pg.center(Q8))
    S5 = pg.symmetric(5)
    A5 = S5.subgroup(pg.alternating(5).generators)
    faithful = pg.chief_factor(S5, S5.trivial_subgroup(), A5)
    S4, V4 = _v4_in_s4()
    intermediate = pg.chief_factor(S4, S4.trivial_subgroup(), V4)
    for cf, order in ((central, 8), (faithful, 1), (intermediate, 4)):
        assert cf.centralizer.order == order
        _assert_centralizer_matches_walk(cf)


def _assert_minimal_normals_match(G):
    fast = pg.minimal_normal_subgroups(G)
    slow = naive_minimal_normal_subgroups(G)
    assert [N.generators for N in fast] == [N.generators for N in slow]
    # the walk minimal_normal_subgroups reads: prime-order classes only, in order
    elems = G.elements()
    assert list(map(chiefs._has_prime_order, elems)) == [is_prime(x.order()) for x in elems]
    walk = list(walk_classes(G, G.elements(), lambda x: is_prime(x.order()), set()))
    assert walk == [cls for cls in G.conjugacy_classes() if is_prime(cls[0].order())]


def test_minimal_normal_subgroups_match_element_sets_standard(standard):
    for G in standard:
        _assert_minimal_normals_match(G)
        for K in pg.chief_series(G).terms[1:-1]:
            _assert_minimal_normals_match(pg.quotient_group(G, K).group)


def test_minimal_normal_subgroups_match_element_sets_semidirect(remark4_products):
    for P in remark4_products:
        _assert_minimal_normals_match(P)


_DP = pg.direct_product


@pytest.mark.parametrize(
    "G",
    [_DP(pg.cyclic(2), pg.elementary_abelian(5, 3)),
     _DP(pg.dihedral(18), pg.elementary_abelian(3, 2))],
    ids=lambda G: G.name,
)
def test_minimal_normal_subgroups_skip_classes_in_prime_order_candidates(G, monkeypatch):
    # abelian-heavy groups: most prime-order classes lie in a candidate of
    # prime order, and their normal closures are not built
    closures = []
    build = chiefs.subgroup_from_elements
    monkeypatch.setattr(chiefs, "subgroup_from_elements",
                        lambda H, cls: closures.append(cls) or build(H, cls))
    _assert_minimal_normals_match(G)
    prime_classes = [cls for cls in G.conjugacy_classes() if is_prime(cls[0].order())]
    assert 0 < len(closures) < len(prime_classes)
