"""Group-class predicates: nilpotency, centrality of chief factors, quasi-F
membership, N_ca membership, and s-critical detection."""

import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import permgroups as pg
from permgroups.classes import is_s_critical
from permgroups.errors import InputError
from permgroups.perms import Permutation

from conftest import WalkedSeries, nilpotent_oracle

BUILTIN_CLASSES = (pg.NILPOTENT, pg.QUASINILPOTENT, pg.NCA, pg.ABELIAN, pg.ALL_GROUPS)

def test_is_nilpotent_examples():
    assert pg.is_nilpotent(pg.quaternion8())
    assert pg.is_nilpotent(pg.dihedral(16))  # 2-group
    assert not pg.is_nilpotent(pg.symmetric(3))
    q8c3 = pg.direct_product(pg.quaternion8(), pg.cyclic(3))
    assert pg.is_nilpotent(q8c3)
    assert not pg.is_nilpotent(pg.dihedral(12))


def test_is_nilpotent_matches_sylow_oracle(smoke):
    for G in smoke + [pg.alternating(4), pg.dihedral(12), pg.special_linear2(3)]:
        assert pg.is_nilpotent(G) == nilpotent_oracle(G), G.name


def test_is_p_group():
    assert pg.p_groups(7).member(pg.cyclic(1))
    assert pg.p_groups(2).member(pg.dihedral(8))
    assert not pg.p_groups(3).member(pg.symmetric(3))
    with pytest.raises(InputError):
        pg.p_groups(6)


def test_p_groups_reject_a_prime_beyond_the_point_bound():
    # a trial-division primality test of this prime would hang, so the calls
    # run in a fresh process under a timeout; each must fail within a second
    p = 1000000000000000003
    script = f"""
import time
import permgroups as pg
for call in (lambda: pg.p_groups({p}), lambda: pg.p_groups({p}).member(pg.cyclic(3))):
    start = time.perf_counter()
    try:
        call()
    except pg.InputError as err:
        print(time.perf_counter() - start, err)
"""
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=30)
    lines = proc.stdout.splitlines()
    assert proc.returncode == 0 and len(lines) == 2, proc.stderr
    for line in lines:
        seconds, message = line.split(" ", 1)
        assert float(seconds) < 1 and "point bound 10000" in message


def test_p_groups_membership_does_not_recheck_the_prime():
    with pg.limits_scope(pg.Limits(semidirect_degree=20000)):
        X = pg.p_groups(10007)
    assert X.member(pg.cyclic(1)) and not X.member(pg.cyclic(3))
    assert not pg.p_groups(10007).member(pg.cyclic(3))
    with pytest.raises(InputError) as err:
        pg.p_groups(10009).member(pg.cyclic(1))
    assert "point bound 10000" in str(err.value)


def test_is_class_central_nilpotent():
    Q8 = pg.quaternion8()
    cf = pg.ChiefFactor(pg.quotient_group(Q8, Q8.trivial_subgroup()), pg.center(Q8))
    assert pg.is_class_central(cf, pg.NILPOTENT)

    S4 = pg.symmetric(4)
    cf_v4 = pg.chief_series(S4).factors[0]
    assert not pg.is_class_central(cf_v4, pg.NILPOTENT)


def test_is_class_central_quasinilpotent():
    A5xS3 = pg.direct_product(pg.alternating(5), pg.symmetric(3), name="A5xS3")
    cf = next(c for c in pg.chief_series(A5xS3).factors if c.factor.order == 60)
    assert pg.is_class_central(cf, pg.QUASINILPOTENT)
    assert not pg.is_class_central(cf, pg.NILPOTENT)


def test_nilpotent_centrality_equals_central(standard):
    # N-central chief factor <=> centralizer is the whole group
    for G in standard:
        for cf in pg.chief_series(G).factors:
            assert pg.is_class_central(cf, pg.NILPOTENT) == cf.is_central()


def test_local_and_semidirect_paths_agree(standard):
    for G in standard:
        for cf in pg.chief_series(G).factors:
            local = pg.is_class_central_local(cf, pg.NILPOTENT)
            definitional = pg.is_class_central_semidirect(cf, pg.NILPOTENT)
            assert local == definitional


def test_local_path_requires_local_definition():
    S4 = pg.symmetric(4)
    cf = pg.chief_series(S4).factors[0]
    with pytest.raises(InputError):
        pg.is_class_central_local(cf, pg.QUASINILPOTENT)


def test_user_class_with_local_definition_takes_local_path(standard, monkeypatch):
    definitional = [[pg.is_class_central_semidirect(cf, pg.NILPOTENT)
                     for cf in pg.chief_series(G).factors] for G in standard]

    def no_product(cf, X):
        raise AssertionError("semidirect path taken")

    monkeypatch.setattr(pg.classes, "is_class_central_semidirect", no_product)
    X = pg.GroupClass(name="N-local", membership=pg.is_nilpotent,
                      local_definition=pg.p_groups, contains_nilpotent=True)
    local = [[pg.is_class_central(cf, X) for cf in pg.chief_series(G).factors]
             for G in standard]
    assert local == definitional


def test_class_without_shortcut_builds_product(standard, monkeypatch):
    built = []
    semidirect = pg.classes.is_class_central_semidirect
    monkeypatch.setattr(pg.classes, "is_class_central_semidirect",
                        lambda cf, X: built.append(cf) or semidirect(cf, X))
    X = pg.GroupClass(name="N-def", membership=pg.is_nilpotent, contains_nilpotent=True)
    factors = [cf for G in standard for cf in pg.chief_series(G).factors]
    verdicts = [pg.is_class_central(cf, X) for cf in factors]
    assert built == factors
    assert verdicts == [cf.is_central() for cf in factors]


def test_is_quasi_F_examples():
    assert pg.is_quasi_F(pg.quaternion8(), pg.NILPOTENT)
    assert pg.is_quasi_F(pg.alternating(5), pg.NILPOTENT)
    assert not pg.is_quasi_F(pg.symmetric(5), pg.NILPOTENT)


def test_is_quasi_F_requires_nilpotent_containment():
    with pytest.raises(InputError):
        pg.is_quasi_F(pg.symmetric(3), pg.ABELIAN)


def test_is_quasinilpotent_examples():
    assert pg.is_quasinilpotent(pg.special_linear2(5))
    assert not pg.is_quasinilpotent(pg.symmetric(4))
    assert pg.is_quasinilpotent(pg.alternating(5))
    assert not pg.is_quasinilpotent(pg.special_linear2(3))
    assert pg.is_quasinilpotent(pg.direct_product(pg.cyclic(2), pg.alternating(5)))


def test_is_nca_member_examples():
    assert pg.is_nca_member(pg.quaternion8())
    assert pg.is_nca_member(pg.symmetric(5))
    assert not pg.is_nca_member(pg.symmetric(4))
    assert pg.is_nca_member(pg.alternating(5))


def test_class_hierarchy_on_corpus(standard):
    # nilpotent => quasinilpotent => Nca-member
    for G in standard:
        if pg.NILPOTENT.member(G):
            assert pg.QUASINILPOTENT.member(G), G.name
        if pg.QUASINILPOTENT.member(G):
            assert pg.NCA.member(G), G.name


def test_trivial_group_in_every_builtin_class():
    triv = pg.cyclic(1)
    for X in BUILTIN_CLASSES:
        assert X.member(triv)


def test_contains_nilpotent_flag_holds_on_corpus(standard):
    nilpotent_groups = [G for G in standard if pg.NILPOTENT.member(G)]
    assert len(nilpotent_groups) >= 15
    for X in BUILTIN_CLASSES:
        if X.contains_nilpotent:
            assert all(X.member(G) for G in nilpotent_groups), X.name


def _padded(G, degree=6):
    key = ("padded", degree)
    cached = G._cache.get(key)
    if cached is None:
        gens = [Permutation(p.images + tuple(range(p.degree, degree)))
                for p in G.generators]
        cached = G._cache[key] = pg.PermGroup(degree, gens, name=G.name)
    return cached


@settings(max_examples=12, deadline=None)
@given(st.permutations(list(range(6))).map(Permutation))
def test_membership_is_relabeling_invariant(relabel):
    # conjugating the generators by a point relabeling preserves verdicts
    pool = [pg.symmetric(3), pg.alternating(4), pg.dihedral(12), pg.cyclic(6)]
    for G in pool:
        padded = _padded(G)
        H = pg.PermGroup(6, [relabel.inverse() * g * relabel for g in padded.generators])
        for X in BUILTIN_CLASSES:
            assert X.member(H) == X.member(padded), (G.name, X.name)


def test_quasi_F_same_under_reversed_tiebreak(standard):
    for G in standard:
        fwd = pg.chief_series(G)
        rev = WalkedSeries(G, reverse=True)

        def verdict(series):
            out = True
            for cf in series.factors:
                iis = pg.inner_induction_subgroup(cf)
                inner = all(iis.contains(g) for g in G.generators)
                if not (inner or pg.is_class_central(cf, pg.NILPOTENT)):
                    out = False
            return out

        assert verdict(fwd) == verdict(rev) == pg.is_quasinilpotent(G), G.name


def test_s_critical_examples(standard):
    small = [G for G in standard if G.order <= 24]
    crit = [G for G in small if is_s_critical(G, pg.NILPOTENT)]
    names = sorted(g.name for g in crit)
    assert "S3" in names

    nilpotent_only = [G for G in standard if pg.NILPOTENT.member(G)]
    assert not any(is_s_critical(G, pg.NILPOTENT) for G in nilpotent_only)

    # S3 is NOT s-critical for 2-groups: its C3 maximal subgroup fails
    assert not is_s_critical(pg.symmetric(3), pg.p_groups(2))


def test_class_by_name():
    assert pg.class_by_name("N") is pg.NILPOTENT
    assert pg.class_by_name("N*") is pg.QUASINILPOTENT
    assert pg.class_by_name("Nca") is pg.NCA
    assert pg.class_by_name("abelian") is pg.ABELIAN
    assert pg.class_by_name("all") is pg.ALL_GROUPS
    assert pg.class_by_name("Np:3").member(pg.elementary_abelian(3, 2))
    assert not pg.class_by_name("Np:3").member(pg.cyclic(6))
    with pytest.raises(InputError):
        pg.class_by_name("Np:4")
    with pytest.raises(InputError):
        pg.class_by_name("bogus")


def test_quasi_class_of_nilpotent_is_quasinilpotent():
    assert pg.quasi_class(pg.NILPOTENT) is pg.QUASINILPOTENT
    star = pg.quasi_class(pg.ALL_GROUPS)
    assert star.member(pg.symmetric(5))


def test_class_caches_keyed_by_class_not_name():
    # a user class sharing a built-in's name must not be served its verdicts
    from permgroups.classes import is_abelian_group

    Q8 = pg.quaternion8()
    assert pg.NILPOTENT.member(Q8)
    assert pg.GroupClass(name="N", membership=is_abelian_group).member(Q8) is False

    A5xS3 = pg.direct_product(pg.alternating(5), pg.symmetric(3), name="A5xS3")
    cf = next(c for c in pg.chief_series(A5xS3).factors if c.factor.order == 60)
    impostor = pg.GroupClass(name="N*", membership=is_abelian_group)
    assert pg.is_class_central(cf, pg.QUASINILPOTENT)
    assert not pg.is_class_central(cf, impostor)
    assert pg.hypercenter(A5xS3, pg.QUASINILPOTENT).subgroup.order == 60
    assert pg.hypercenter(A5xS3, impostor).subgroup.order == 1


def test_derived_classes_one_object_per_argument():
    assert pg.p_groups(3) is pg.p_groups(3)
    assert pg.p_groups(2) is not pg.p_groups(3)
    assert pg.quasi_class(pg.ALL_GROUPS) is pg.quasi_class(pg.ALL_GROUPS)
