"""Minimal normal subgroups, chief series/factors, inner induction,
and the factor semidirect product."""

import gc
import math
import weakref
from collections import Counter

import pytest

import permgroups as pg
from permgroups import chiefs
from permgroups.errors import ResourceLimitError
from permgroups.groups import walk_classes
from permgroups.perms import Permutation, parse_permutation
from permgroups.primes import is_prime, prime_divisors

from conftest import (
    WalkedSeries,
    element_orders,
    element_semidirect,
    factor_element_cosets,
    induces_inner_automorphism,
    member_by_ascent,
    naive_factor_centralizer,
    naive_minimal_normal_subgroups,
    naive_project,
)


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
    assert [cf.upper.order for cf in series.factors] == [4, 12, 24]


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
    cf = pg.ChiefFactor(pg.quotient_group(S4, S4.trivial_subgroup()), V4)
    assert cf.factor.order == 4
    assert cf.centralizer == V4
    Q = pg.quotient_group(S4, cf.centralizer)
    assert Q.group.order == 6 and not Q.group.is_abelian()


def test_chief_factor_central_case():
    Q8 = pg.quaternion8()
    Z = pg.center(Q8)
    cf = pg.ChiefFactor(pg.quotient_group(Q8, Q8.trivial_subgroup()), Z)
    assert cf.centralizer.order == Q8.order  # central factor


def test_chief_factor_a5_in_s5():
    S5 = pg.symmetric(5)
    A5 = S5.subgroup(pg.alternating(5).generators)
    cf = pg.ChiefFactor(pg.quotient_group(S5, S5.trivial_subgroup()), A5)
    assert cf.factor.order == 60
    assert cf.centralizer.is_trivial()


def test_induces_inner_automorphism():
    S5 = pg.symmetric(5)
    cf = pg.chief_series(S5).factors[0]
    assert cf.factor.order == 60

    # member of H: inner, with a witness
    member = parse_permutation("(0 1 2)", 5)
    ok, witness = induces_inner_automorphism(cf, member)
    assert ok and witness is not None

    # transposition induces an outer automorphism of A5 (brute force over
    # all 60 inner automorphisms)
    ok, witness = induces_inner_automorphism(cf, parse_permutation("(0 1)", 5))
    assert not ok and witness is None


def test_induces_inner_on_abelian_eccentric_factor():
    S4 = pg.symmetric(4)
    cf = pg.chief_series(S4).factors[0]  # V4
    # Inn of an abelian group is trivial: non-centralizing elements fail
    ok, _ = induces_inner_automorphism(cf, parse_permutation("(0 1 2)", 4))
    assert not ok
    ok, _ = induces_inner_automorphism(cf, parse_permutation("(0 1)(2 3)", 4))
    assert ok


def test_inner_induction_subgroup_examples():
    Q8 = pg.quaternion8()
    cf_central = pg.ChiefFactor(pg.quotient_group(Q8, Q8.trivial_subgroup()), pg.center(Q8))
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
        ok, _ = induces_inner_automorphism(cf, g)
        assert ok == iis.contains(g)
    # contains H * C
    assert all(iis.contains(h) for h in cf.upper.generators)
    assert all(iis.contains(c) for c in cf.centralizer.generators)


def test_factor_semidirect_central_factor():
    Q8 = pg.quaternion8()
    cf = pg.ChiefFactor(pg.quotient_group(Q8, Q8.trivial_subgroup()), pg.center(Q8))
    sd = pg.factor_semidirect(cf)
    assert sd.order == 2  # factor x trivial


def test_factor_semidirect_v4_s4():
    S4 = pg.symmetric(4)
    cf = pg.chief_series(S4).factors[0]
    sd = pg.factor_semidirect(cf)
    assert sd.order == 24
    assert pg.center(sd).is_trivial()
    assert element_orders(sd) == element_orders(S4)


def test_factor_semidirect_order_formula(standard):
    for G in standard:
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
                # a direct product of isomorphic simple groups: its minimal
                # normal subgroups are simple, of one order, and fill F
                parts = pg.minimal_normal_subgroups(F)
                for m in parts:
                    assert [n.order for n in pg.minimal_normal_subgroups(m)] == [m.order]
                assert len({m.order for m in parts}) == 1
                assert math.prod(m.order for m in parts) == F.order


def test_semisimple_decomposition_examples():
    A5 = pg.alternating(5)
    assert [m.order for m in pg.minimal_normal_subgroups(A5)] == [60]

    A5A5 = pg.direct_product(pg.alternating(5), pg.alternating(5))
    parts = pg.minimal_normal_subgroups(A5A5)
    assert [m.order for m in parts] == [60, 60]
    j = pg.join_subgroups(A5A5, *parts)
    assert j.order == 3600


def test_semisimple_decomposition_swap_product():
    # (A5 x A5) x| C2 swapping the factors: the socle is one minimal normal
    A5A5 = pg.direct_product(pg.alternating(5), pg.alternating(5))
    swap = parse_permutation("(0 5)(1 6)(2 7)(3 8)(4 9)", 10)
    G = pg.PermGroup(10, list(A5A5.generators) + [swap], name="(A5xA5):2")
    assert G.order == 7200
    parts = pg.minimal_normal_subgroups(G)
    assert [m.order for m in parts] == [3600]
    assert parts[0] == G.subgroup(A5A5.generators)


def test_jordan_hoelder_factor_order_multisets():
    for G in [pg.symmetric(4), pg.cyclic(12), pg.special_linear2(3), pg.dihedral(20)]:
        fwd = pg.chief_series(G)
        rev = WalkedSeries(G, reverse=True)
        assert sorted(fwd.factor_orders()) == sorted(rev.factor_orders())


def test_degenerate_trivial_group():
    triv = pg.cyclic(1)
    assert pg.chief_series(triv).factors == ()
    assert pg.minimal_normal_subgroups(triv) == []
    assert pg.hypercenter(triv, pg.NILPOTENT).subgroup.order == 1


def _record_chief_factors(monkeypatch) -> list:
    built = []
    init = chiefs.ChiefFactor.__init__

    def recording(self, *args):
        init(self, *args)
        built.append(self)

    monkeypatch.setattr(chiefs.ChiefFactor, "__init__", recording)
    return built


def _same_series(A, B) -> bool:
    return [(cf.factor.order, cf.upper.element_set()) for cf in A.factors] == [
        (cf.factor.order, cf.upper.element_set()) for cf in B.factors]


def test_quasi_F_walk_stops_at_the_first_failing_factor(monkeypatch):
    # (A5 x A5):2 from S5's A5 factor: S5's transpositions act outer on the
    # first chief factor, so N* membership fails there and builds no other
    cf = pg.chief_series(pg.symmetric(5)).factors[0]
    P = pg.factor_semidirect(cf)
    built = _record_chief_factors(monkeypatch)
    assert pg.QUASINILPOTENT.member(P) is False
    assert len(built) == 1
    # the full series equals a fresh copy's
    fresh = pg.PermGroup(P.degree, P.generators)
    for reverse in (False, True):
        assert _same_series(WalkedSeries(P, reverse), WalkedSeries(fresh, reverse))


def test_nca_walk_stops_at_the_first_failing_factor(monkeypatch):
    # S4's first chief factor V4 is abelian and not central
    S4 = pg.symmetric(4)
    built = _record_chief_factors(monkeypatch)
    assert pg.is_nca_member(S4) is False
    assert len(built) == 1
    assert pg.chief_series(S4).factor_orders() == (4, 3, 2)


def test_chief_walk_records_no_factor_that_raises(monkeypatch):
    # under a tighter enumeration bound the walk raises before its first
    # factor is built, and the next walk under the default bounds finishes
    S5 = pg.symmetric(5)
    tight = pg.Limits(enumeration=10)
    with pg.limits_scope(tight):
        with pytest.raises(ResourceLimitError):
            pg.is_quasinilpotent(S5)
    assert pg.chief_series(S5).factor_orders() == (60, 2)
    assert [cf.upper.order for cf in pg.chief_series(S5).factors] == [60, 120]
    # a factor whose construction raises midway leaves nothing behind either:
    # the next walk finishes the same series as a fresh group's
    S4 = pg.symmetric(4)
    init = chiefs.ChiefFactor.__init__
    calls = []

    def second_raises(self, *args):
        calls.append(1)
        if len(calls) == 2:
            raise ResourceLimitError("raised while building the second factor")
        init(self, *args)

    monkeypatch.setattr(chiefs.ChiefFactor, "__init__", second_raises)
    with pytest.raises(ResourceLimitError):
        pg.chief_series(S4)
    assert _same_series(pg.chief_series(S4), pg.chief_series(pg.symmetric(4)))


@pytest.mark.parametrize("member", [pg.is_quasinilpotent, pg.is_nca_member],
                         ids=["quasinilpotent", "nca"])
@pytest.mark.parametrize("make", [
    lambda: pg.symmetric(5),
    lambda: pg.direct_product(pg.alternating(5), pg.symmetric(3), name="A5xS3"),
], ids=["S5", "A5xS3"])
def test_membership_walk_keeps_no_chief_factor(monkeypatch, member, make):
    # the walk stores nothing on G: once the verdict is out, every factor it
    # built is garbage while G lives on
    refs = []
    init = chiefs.ChiefFactor.__init__

    def recording(self, *args):
        init(self, *args)
        refs.append(weakref.ref(self))

    monkeypatch.setattr(chiefs.ChiefFactor, "__init__", recording)
    G = make()
    member(G)
    gc.collect()
    assert refs and [ref() for ref in refs] == [None] * len(refs)


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
        for series in (pg.chief_series(G), WalkedSeries(G, reverse=True)):
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


def _both_series_factors(groups):
    for G in groups:
        for reverse in (False, True):
            yield from WalkedSeries(G, reverse).factors


# a user class with no local definition: quasi-F centrality of P's own chief
# factors takes the semidirect path again, one level down
_F_DEF = pg.GroupClass(name="N-def", membership=pg.is_nilpotent, contains_nilpotent=True)


def _factor_signature(factors) -> list:
    # by Jordan-Hoelder, the same multiset on every chief series of a group
    return sorted((f.factor.order, chiefs.all_generators_induce_inner(f),
                   pg.is_class_central(f, pg.NILPOTENT)) for f in factors)


def _semidirect_walk_verdicts(factors) -> Counter:
    # the recorded action image A is a complement to every recorded minimal
    # normal subgroup X of P; walking X in P, then A = P/X, meets the factors
    # of P's own chief series, and membership on it equals membership on
    # P's own series
    verdicts: Counter = Counter()
    for cf in factors:
        P = pg.factor_semidirect(cf)
        A = P._cache["action_image"]
        assert A.order == P.order // cf.factor.order
        for X in P._cache["min_normals"]:
            assert not any(A.contains(x) for x in X.elements() if not x.is_identity())
        walked = _factor_signature(chiefs.chief_factors(P))
        assert walked == _factor_signature(chiefs.ascend(P)), cf
        for cls in (pg.QUASINILPOTENT, pg.NCA, pg.quasi_class(_F_DEF)):
            verdict = pg.is_class_central_semidirect(cf, cls)
            assert verdict == member_by_ascent(cls, P), (cf, cls.name)
            verdicts[cls.name, verdict] += 1
    return verdicts


def test_semidirect_walk_matches_ascent_standard(standard):
    verdicts = _semidirect_walk_verdicts(_both_series_factors(standard))
    assert verdicts == {("N*", True): 120, ("N*", False): 30, ("Nca", True): 122,
                        ("Nca", False): 28, ("(N-def)*", True): 120, ("(N-def)*", False): 30}


def test_semidirect_walk_matches_ascent_semidirect(remark4_products):
    verdicts = _semidirect_walk_verdicts(_both_series_factors(remark4_products))
    assert verdicts == {("N*", True): 138, ("N*", False): 40, ("Nca", True): 142,
                        ("Nca", False): 36, ("(N-def)*", True): 138, ("(N-def)*", False): 40}


def _assert_centralizer_is_quotient_centralizer(cf):
    # C_G(H/K)/K = C_{G/K}(H/K), computed in the quotient the factor lives in
    oracle = cf.quotient.lift_subgroup(pg.centralizer(cf.quotient.group, cf.factor))
    assert cf.centralizer.element_set() == oracle.element_set()


def _assert_action_image_matches_enumerated_quotient(cf):
    # the action's image against G/C_G(H/K) as an enumerated coset table
    G, Q = cf.ambient, cf.image
    assert Q.order == G.order // cf.centralizer.order
    oracle = pg.quotient_group(G, cf.centralizer).group
    assert Q.is_abelian() == oracle.is_abelian()
    assert pg.is_nilpotent(Q) == pg.is_nilpotent(oracle)
    for p in prime_divisors(cf.factor.order):
        local = pg.NILPOTENT.local_definition(p)
        assert local.member(Q) == local.member(oracle)


def test_factor_centralizer_matches_quotient_centralizer_standard(standard):
    for cf in _both_series_factors(standard):
        _assert_centralizer_is_quotient_centralizer(cf)


def test_factor_centralizer_matches_quotient_centralizer_semidirect(remark4_products):
    for cf in _both_series_factors(remark4_products):
        _assert_centralizer_is_quotient_centralizer(cf)


def test_action_image_matches_enumerated_quotient_standard(standard):
    for cf in _both_series_factors(standard):
        _assert_action_image_matches_enumerated_quotient(cf)


def test_action_image_matches_enumerated_quotient_semidirect(remark4_products):
    for cf in _both_series_factors(remark4_products):
        _assert_action_image_matches_enumerated_quotient(cf)


def _image_verdicts_checked(factors) -> tuple[int, int]:
    # the verdicts read off the action image, against the per-generator
    # brute-force oracle and the kernel C_G(H/K)
    checked = not_inner = 0
    for cf in factors:
        G = cf.ambient
        inner = all(induces_inner_automorphism(cf, g)[0] for g in G.generators)
        assert chiefs.all_generators_induce_inner(cf) == inner
        assert cf.image.order == G.order // cf.centralizer.order
        assert cf.is_central() == (cf.centralizer.order == G.order)
        checked, not_inner = checked + 1, not_inner + (not inner)
    return checked, not_inner


def test_image_verdicts_match_oracles_standard(standard):
    assert _image_verdicts_checked(_both_series_factors(standard)) == (150, 30)


def test_image_verdicts_match_oracles_semidirect(remark4_products):
    checked, not_inner = _image_verdicts_checked(
        cf for P in remark4_products for cf in pg.chief_series(P).factors
    )
    assert (checked, not_inner) == (89, 20)


def _project_pairs_checked(groups, elements_of) -> int:
    # every G/K, K > 1, of both tie-break series, G/G (one point) included
    pairs = 0
    for G in groups:
        for reverse in (False, True):
            for K in WalkedSeries(G, reverse).terms[1:]:
                Q = pg.quotient_group(G, K)
                for g in elements_of(G, Q):
                    assert Q.project(g) == naive_project(Q, g)
                    pairs += 1
    return pairs


def test_quotient_project_matches_rep_products_standard(standard):
    assert _project_pairs_checked(standard, lambda G, Q: G.elements()) == 6214


def test_quotient_project_matches_rep_products_semidirect(remark4_products):
    # one element of each coset, and the generators (the oracle would take
    # 6 s on every element of every product)
    pairs = _project_pairs_checked(remark4_products, lambda G, Q: Q.reps + G.generators)
    assert pairs == 1294


def test_factor_semidirect_relabels_element_construction(standard):
    # the coset realization is the element-labelled one, point x renamed
    # to the coset element x stands for; the same group when K = 1
    factors = trivial_lower = 0
    for G in standard:
        for cf in pg.chief_series(G).factors:
            reference = element_semidirect(cf).generators
            to_coset = factor_element_cosets(cf)
            relabelled = []
            for g in reference:
                images = [0] * len(to_coset)
                for x, c in enumerate(to_coset):
                    images[c] = to_coset[g.images[x]]
                relabelled.append(Permutation(images))
            assert tuple(relabelled) == pg.factor_semidirect(cf).generators
            if cf.quotient.kernel.is_trivial():
                assert reference == pg.factor_semidirect(cf).generators
                trivial_lower += 1
            factors += 1
    assert factors == 75 and 0 < trivial_lower < factors


def test_factor_centralizer_named_cases():
    Q8 = pg.quaternion8()
    central = pg.ChiefFactor(pg.quotient_group(Q8, Q8.trivial_subgroup()), pg.center(Q8))
    S5 = pg.symmetric(5)
    A5 = S5.subgroup(pg.alternating(5).generators)
    faithful = pg.ChiefFactor(pg.quotient_group(S5, S5.trivial_subgroup()), A5)
    S4, V4 = _v4_in_s4()
    intermediate = pg.ChiefFactor(pg.quotient_group(S4, S4.trivial_subgroup()), V4)
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
        for K in WalkedSeries(G).terms[1:-1]:
            _assert_minimal_normals_match(pg.quotient_group(G, K).group)


def test_minimal_normal_subgroups_match_element_sets_semidirect(remark4_products):
    for P in remark4_products:
        _assert_minimal_normals_match(P)


def _assert_seeded_minimal_normals_match_walk(P):
    # factor_semidirect records P's minimal normal subgroups; the class walk
    # must build the same ones, down to generators and base
    seeded = P._cache.pop("min_normals")
    walked = pg.minimal_normal_subgroups(P)
    assert [(N.generators, N.chain.base, N.order) for N in seeded] == [
        (N.generators, N.chain.base, N.order) for N in walked]


def test_seeded_minimal_normal_subgroups_match_class_walk_standard(standard):
    products = non_abelian = 0
    for cf in _both_series_factors(standard):
        _assert_seeded_minimal_normals_match_walk(pg.factor_semidirect(cf))
        products += 1
        non_abelian += not cf.factor.is_abelian()
    assert products == 150 and non_abelian > 0


def test_seeded_minimal_normal_subgroups_match_class_walk_semidirect(remark4_products):
    for P in remark4_products:
        _assert_seeded_minimal_normals_match_walk(P)


@pytest.mark.parametrize("G, verdict", [
    (pg.symmetric(5), False),  # S5 acts outer on A5: the walk stops at M
    (pg.alternating(5), True),  # M x L: the walk goes on through A = P/M
], ids=["S5", "A5"])
def test_definitional_path_enumerates_no_product(G, verdict):
    cf = pg.chief_series(G).factors[0]
    P = pg.factor_semidirect(cf)
    assert len(pg.minimal_normal_subgroups(P)) == 2
    assert pg.is_quasinilpotent(P) is verdict
    assert "elements" not in P._cache


def test_quotient_checks_the_enumeration_bound_on_the_order():
    S5 = pg.symmetric(5)
    A5 = pg.chief_series(S5).factors[0].upper
    with pg.limits_scope(pg.Limits(enumeration=10)):
        with pytest.raises(ResourceLimitError, match="^group order 120 exceeds enumeration bound 10$"):
            pg.quotient_group(S5, A5)


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
                        lambda H, cls, **kw: closures.append(cls) or build(H, cls, **kw))
    _assert_minimal_normals_match(G)
    prime_classes = [cls for cls in G.conjugacy_classes() if is_prime(cls[0].order())]
    assert 0 < len(closures) < len(prime_classes)
