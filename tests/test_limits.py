"""Resource-bound behavior: errors, fallbacks, and bound plumbing."""

import pytest

import permgroups as pg
from permgroups.classes import is_class_central
from permgroups.errors import ResourceLimitError


def test_semidirect_degree_bound():
    C3, C2 = pg.cyclic(3), pg.cyclic(2)
    tight = pg.Limits(semidirect_degree=2)
    with pytest.raises(ResourceLimitError):
        pg.semidirect_product(C3, C2, pg.trivial_action(C3, C2), limits=tight)


def test_factor_semidirect_bound():
    S4 = pg.symmetric(4)
    cf = pg.chief_series(S4).factors[0]
    tight = pg.Limits(enumeration=10)
    with pytest.raises(ResourceLimitError):
        pg.factor_semidirect(cf, limits=tight)


def test_is_class_central_falls_back_to_local_path():
    # semidirect construction over budget: classes with a local definition
    # or a central test still answer; classes with neither surface the
    # resource error
    S5 = pg.symmetric(5)
    cf = pg.chief_series(S5).factors[0]  # A5, semidirect order 7200
    tight = pg.Limits(enumeration=1000)
    assert is_class_central(cf, pg.NILPOTENT, limits=tight) is False
    # N* decides by the inner-automorphism criterion: transpositions act outer
    assert is_class_central(cf, pg.QUASINILPOTENT, limits=tight) is False
    with pytest.raises(ResourceLimitError):
        is_class_central(cf, pg.NCA, limits=tight)


def test_lattice_bound_names_the_bound():
    with pytest.raises(ResourceLimitError) as err:
        pg.SubgroupLattice(pg.symmetric(5), pg.Limits(lattice=50))
    assert "50" in str(err.value) and "120" in str(err.value)


def test_quotient_respects_enumeration_bound():
    S6 = pg.symmetric(6)
    A6 = S6.subgroup(pg.alternating(6).generators)
    tight = pg.Limits(enumeration=100)
    with pytest.raises(ResourceLimitError):
        pg.quotient_group(S6, A6, limits=tight)


def test_hypercenter_cache_honours_limits():
    # one call under two Limits: the cached answer is not served to the tight one
    S4 = pg.symmetric(4)
    assert pg.hypercenter(S4, pg.NILPOTENT).subgroup.order == 1
    with pytest.raises(ResourceLimitError) as err:
        pg.hypercenter(S4, pg.NILPOTENT, pg.Limits(enumeration=5))
    assert "5" in str(err.value)
    assert pg.hypercenter(S4, pg.NILPOTENT).subgroup.order == 1


def test_class_central_cache_honours_limits():
    # a verdict cached under the default bounds is not served to a tighter one
    cf = pg.chief_series(pg.symmetric(5)).factors[0]  # A5, semidirect order 7200
    assert is_class_central(cf, pg.NCA) is True
    with pytest.raises(ResourceLimitError):
        is_class_central(cf, pg.NCA, pg.Limits(enumeration=1000))
    assert is_class_central(cf, pg.NCA) is True


def test_class_member_cache_honours_limits(monkeypatch):
    # member() reads the process-wide bounds, so its cache is keyed by them
    calls = []
    X = pg.GroupClass(name="counted", membership=lambda G: calls.append(G) or True)
    G = pg.symmetric(3)
    assert X.member(G) and X.member(G)
    assert len(calls) == 1
    monkeypatch.setattr(pg.limits.DEFAULT, "enumeration", 5)
    assert X.member(G)
    assert len(calls) == 2


@pytest.mark.parametrize("call", [
    lambda G, lim: pg.chief_series(G, lim),
    lambda G, lim: pg.chief_series(G, lim, reverse_tiebreak=True),
    pg.minimal_normal_subgroups,
    pg.normal_subgroups,
], ids=["chief_series", "chief_series_rev", "minimal_normal_subgroups", "normal_subgroups"])
def test_normal_structure_caches_honour_limits(call):
    # a result cached under the default bounds is not served to a tighter
    # one, and is served again under the default bounds
    S5 = pg.symmetric(5)
    first = call(S5, None)
    with pytest.raises(ResourceLimitError) as err:
        call(S5, pg.Limits(enumeration=10))
    assert "10" in str(err.value)
    again = call(S5, None)
    if isinstance(first, list):  # a fresh list of the cached subgroups
        assert list(map(id, again)) == list(map(id, first))
    else:
        assert again is first


def test_centralizer_quotient_cache_honours_limits():
    # the local path's quotient G/C_G(H/K), cached under the default bounds,
    # is not served to a tighter one
    G = pg.direct_product(pg.symmetric(4), pg.cyclic(3))
    cf = next(cf for cf in pg.chief_series(G).factors if cf.centralizer.order == 12)
    assert is_class_central(cf, pg.NILPOTENT) is False
    with pytest.raises(ResourceLimitError):
        is_class_central(cf, pg.NILPOTENT, pg.Limits(enumeration=10))
    assert is_class_central(cf, pg.NILPOTENT) is False
