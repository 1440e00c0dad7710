"""Resource-bound behavior: errors, fallbacks, and the one bounds scope."""

import importlib
import inspect
import pkgutil

import pytest

import permgroups as pg
from permgroups.classes import is_class_central
from permgroups.errors import ResourceLimitError
from permgroups.limits import current

from conftest import WalkedSeries


def test_semidirect_degree_bound():
    S4 = pg.symmetric(4)
    cf = pg.chief_series(S4).factors[0]  # V4, realized on 4 points
    with pg.limits_scope(pg.Limits(semidirect_degree=2)), pytest.raises(
            ResourceLimitError, match="^factor semidirect product of order 24 on 4 points "
                                      "exceeds the point bound 2$"):
        pg.factor_semidirect(cf)


def test_factor_semidirect_bound():
    S4 = pg.symmetric(4)
    cf = pg.chief_series(S4).factors[0]
    tight = pg.Limits(enumeration=10)
    with pg.limits_scope(tight), pytest.raises(
            ResourceLimitError, match="^factor semidirect product of order 24 on 4 points "
                                      "exceeds enumeration bound 10$"):
        pg.factor_semidirect(cf)


def test_is_class_central_paths_under_a_tight_bound():
    # semidirect construction over budget: classes with a local definition
    # or a central test still answer; classes with neither surface the
    # resource error
    S5 = pg.symmetric(5)
    cf = pg.chief_series(S5).factors[0]  # A5, semidirect order 7200
    with pg.limits_scope(pg.Limits(enumeration=1000)):
        assert is_class_central(cf, pg.NILPOTENT) is False
        # N* decides by the inner-automorphism criterion: transpositions act outer
        assert is_class_central(cf, pg.QUASINILPOTENT) is False
        with pytest.raises(ResourceLimitError):
            is_class_central(cf, pg.NCA)


def test_lattice_bound_names_the_bound():
    with pg.limits_scope(pg.Limits(lattice=50)), pytest.raises(ResourceLimitError) as err:
        pg.SubgroupLattice(pg.symmetric(5))
    assert "50" in str(err.value) and "120" in str(err.value)


def test_quotient_respects_enumeration_bound():
    S6 = pg.symmetric(6)
    A6 = S6.subgroup(pg.alternating(6).generators)
    with pg.limits_scope(pg.Limits(enumeration=100)), pytest.raises(ResourceLimitError):
        pg.quotient_group(S6, A6)


def test_hypercenter_honours_limits():
    # one call under two Limits: the tight one raises, the default one answers
    S4 = pg.symmetric(4)
    assert pg.hypercenter(S4, pg.NILPOTENT).subgroup.order == 1
    with pg.limits_scope(pg.Limits(enumeration=5)), pytest.raises(ResourceLimitError) as err:
        pg.hypercenter(S4, pg.NILPOTENT)
    assert "5" in str(err.value)
    assert pg.hypercenter(S4, pg.NILPOTENT).subgroup.order == 1


def test_class_central_honours_limits():
    # a verdict got under the default bounds is not served to a tighter one
    cf = pg.chief_series(pg.symmetric(5)).factors[0]  # A5, semidirect order 7200
    assert is_class_central(cf, pg.NCA) is True
    with pg.limits_scope(pg.Limits(enumeration=1000)), pytest.raises(ResourceLimitError):
        is_class_central(cf, pg.NCA)
    assert is_class_central(cf, pg.NCA) is True


def test_class_member_honours_limits():
    # member() keeps no verdict: membership runs on every call, under the
    # bounds in effect
    seen = []
    X = pg.GroupClass(name="counted", membership=lambda G: seen.append(current()) or True)
    G = pg.symmetric(3)
    assert X.member(G) and X.member(G)
    tight = pg.Limits(enumeration=5)
    with pg.limits_scope(tight):
        assert X.member(G)
    assert seen == [pg.DEFAULT_LIMITS, pg.DEFAULT_LIMITS, tight]


@pytest.mark.parametrize("call", [
    pg.chief_series,
    lambda G: WalkedSeries(G, reverse=True),
    pg.minimal_normal_subgroups,
], ids=["chief_series", "chief_series_rev", "minimal_normal_subgroups"])
def test_normal_structure_caches_honour_limits(call):
    # a result got under the default bounds is not served to a tighter one,
    # and is got again under the default bounds (the minimal normal subgroups
    # from G's cache; a chief series is walked anew each call)
    S5 = pg.symmetric(5)
    first = call(S5)
    with pg.limits_scope(pg.Limits(enumeration=10)), pytest.raises(ResourceLimitError) as err:
        call(S5)
    assert "10" in str(err.value)
    again = call(S5)
    if isinstance(first, list):  # a fresh list of the cached subgroups
        assert list(map(id, again)) == list(map(id, first))
    else:  # a chief series is walked again, and the same
        assert again.factor_orders() == first.factor_orders()
        assert [cf.upper.element_set() for cf in again.factors] == [
            cf.upper.element_set() for cf in first.factors]


def test_recorded_minimal_normal_subgroups_read_under_other_bounds():
    # only the enumeration bound on |P| can make them raise, so the ones
    # factor_semidirect records for P (order 7200) are read under a scope with
    # another lattice bound without enumerating P
    P = pg.factor_semidirect(pg.chief_series(pg.symmetric(5)).factors[0])
    recorded = pg.minimal_normal_subgroups(P)
    with pg.limits_scope(pg.Limits(lattice=100)):
        assert list(map(id, pg.minimal_normal_subgroups(P))) == list(map(id, recorded))
    assert P.order == 7200 and "elements" not in P._cache


def test_local_n_verdict_under_enumeration_bound_10():
    # the local path reads G/C_G(H/K) off the factor's action image (order 6)
    # and enumerates nothing, so G of order 72 gets an N verdict inside a
    # scope whose enumeration bound is 10, and the same one outside
    G = pg.direct_product(pg.symmetric(4), pg.cyclic(3))
    cf = next(cf for cf in pg.chief_series(G).factors if cf.centralizer.order == 12)
    with pg.limits_scope(pg.Limits(enumeration=10)):
        with pytest.raises(ResourceLimitError):
            G.elements()
        assert is_class_central(cf, pg.NILPOTENT) is False
    assert cf.image.order == 6
    assert is_class_central(cf, pg.NILPOTENT) is False


def test_scope_sets_and_restores_the_bounds():
    tight = pg.Limits(enumeration=5)
    assert current() is pg.DEFAULT_LIMITS
    with pytest.raises(ResourceLimitError), pg.limits_scope(tight) as active:
        assert active is current() is tight
        with pg.limits_scope(pg.DEFAULT_LIMITS):
            assert current() is pg.DEFAULT_LIMITS
        assert current() is tight
        pg.symmetric(3).elements()
    assert current() is pg.DEFAULT_LIMITS


def test_limits_are_frozen():
    with pytest.raises(AttributeError):
        pg.DEFAULT_LIMITS.enumeration = 5


def test_nested_membership_reads_the_scope(monkeypatch):
    # a user class reached through quasi_class and the semidirect path: every
    # factor product and every membership test, nested ones included, runs
    # under the bounds of the scope
    seen = []

    def member(G):
        seen.append(("member", current()))
        return pg.is_nilpotent(G)

    F = pg.GroupClass(name="counted-N", membership=member, contains_nilpotent=True)
    build = pg.classes.factor_semidirect

    def recording(cf):
        seen.append(("product", current()))
        return build(cf)

    monkeypatch.setattr(pg.classes, "factor_semidirect", recording)
    scoped = pg.Limits(enumeration=9_999, lattice=1_999, semidirect_degree=9_998)
    with pg.limits_scope(scoped):
        z = pg.hypercenter(pg.symmetric(4), pg.quasi_class(F)).subgroup
    assert z.order == 1
    kinds = {kind for kind, _ in seen}
    assert kinds == {"member", "product"}
    assert all(bounds is scoped for _, bounds in seen)


def _public_callables():
    """Every public function, class and method defined in the package."""
    for info in pkgutil.iter_modules(pg.__path__):
        module = importlib.import_module(f"permgroups.{info.name}")
        for name, value in vars(module).items():
            if name.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                continue
            if not inspect.isclass(value):
                yield f"{module.__name__}.{name}", value
                continue
            for attr in vars(value):  # a class: its constructor and methods
                if attr == "__init__" or not attr.startswith("_"):
                    yield f"{module.__name__}.{name}.{attr}", getattr(value, attr)


def test_no_public_callable_takes_a_limits_parameter():
    # bounds come from the one scope (limits_scope), never from a parameter
    # (neither a Limits value nor a single bound)
    found = []
    for qualname, fn in _public_callables():
        if callable(fn) and {"limits", "limit"} & inspect.signature(fn).parameters.keys():
            found.append(qualname)
    assert found == []
