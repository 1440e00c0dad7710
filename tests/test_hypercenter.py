"""Hypercenter climbs, the definitional oracle, Int_X, and the suites."""

import pytest

import permgroups as pg
from permgroups.errors import VerificationError

from conftest import hypercenter_oracle, is_normal


def _a5xs3():
    return pg.direct_product(pg.alternating(5), pg.symmetric(3), name="A5xS3")


def test_hypercenter_examples():
    Q8 = pg.quaternion8()
    assert pg.hypercenter(Q8, pg.NILPOTENT).subgroup.order == 8

    S5 = pg.symmetric(5)
    assert pg.hypercenter(S5, pg.QUASINILPOTENT).subgroup.is_trivial()

    G = _a5xs3()
    result = pg.hypercenter(G, pg.QUASINILPOTENT)
    # the N*-hypercenter of A5 x S3 is exactly the A5 factor
    from permgroups.perms import Permutation
    a5_embedded = G.subgroup(
        [Permutation(p.images + (5, 6, 7)) for p in pg.alternating(5).generators]
    )
    assert result.subgroup == a5_embedded


def test_hypercenter_climb_trace():
    result = pg.hypercenter(pg.special_linear2(5), pg.QUASINILPOTENT)
    assert result.subgroup.order == 120
    assert [order for _, order, _ in result.climb_trace] == [2, 60]
    assert all(verdict for _, _, verdict in result.climb_trace)
    assert is_normal(result.subgroup)


def test_hypercenter_stops_when_no_central_factor_remains():
    # at the final Z, no minimal normal subgroup of G/Z is X-central
    for G in [pg.symmetric(5), pg.special_linear2(3), _a5xs3()]:
        Z = pg.hypercenter(G, pg.QUASINILPOTENT).subgroup
        assert Z.order < G.order
        Q = pg.quotient_group(G, Z)
        for mn in pg.minimal_normal_subgroups(Q.group):
            H = Q.lift_subgroup(mn)
            cf = pg.chief_factor(G, Z, H)
            assert not pg.is_class_central(cf, pg.QUASINILPOTENT), G.name


def test_hypercenter_oracle_examples():
    assert hypercenter_oracle(pg.cyclic(1), pg.NILPOTENT).is_trivial()
    assert hypercenter_oracle(pg.symmetric(4), pg.NILPOTENT).is_trivial()
    assert hypercenter_oracle(pg.special_linear2(5), pg.QUASINILPOTENT).order == 120


def test_hypercenter_z_is_normal():
    for G in [pg.symmetric(4), pg.special_linear2(3), pg.dihedral(20)]:
        for X in (pg.NILPOTENT, pg.QUASINILPOTENT):
            assert is_normal(pg.hypercenter(G, X).subgroup)


def test_intersection_examples():
    assert pg.intersection_of_class_maximal(pg.symmetric(4), pg.NILPOTENT).is_trivial()
    D16 = pg.dihedral(16)
    assert pg.intersection_of_class_maximal(D16, pg.NILPOTENT).order == 16
    assert pg.intersection_of_class_maximal(
        pg.symmetric(5), pg.QUASINILPOTENT
    ).is_trivial()


def test_intersection_is_normal():
    for G in [pg.symmetric(4), pg.symmetric(5), pg.special_linear2(3)]:
        Int = pg.intersection_of_class_maximal(G, pg.QUASINILPOTENT)
        assert is_normal(Int)


def test_inner_induction_hypercenter_examples():
    assert pg.inner_induction_hypercenter(pg.alternating(5)).order == 60
    assert pg.inner_induction_hypercenter(pg.symmetric(5)).is_trivial()
    assert pg.inner_induction_hypercenter(pg.symmetric(4)).is_trivial()


def test_z_nilpotent_equals_upper_central_series_top():
    for G in [pg.symmetric(4), pg.dihedral(16), pg.quaternion8(), pg.dihedral(20),
              pg.special_linear2(3)]:
        z = pg.hypercenter(G, pg.NILPOTENT).subgroup
        assert z == pg.upper_central_series(G)[-1]


def test_monotonicity_z_n_below_z_nstar(smoke):
    for G in smoke + [pg.special_linear2(5), pg.symmetric(5)]:
        zn = pg.hypercenter(G, pg.NILPOTENT).subgroup
        znstar = pg.hypercenter(G, pg.QUASINILPOTENT).subgroup
        assert all(znstar.contains(g) for g in zn.generators), G.name


def test_verify_theorem1_spot_values():
    corpus = [pg.symmetric(4), pg.symmetric(5), pg.alternating(5),
              pg.special_linear2(5), _a5xs3(), pg.quaternion8(),
              pg.special_linear2(3)]
    reports = pg.verify_theorem1(corpus, pg.NILPOTENT)
    assert all(r.equal for r in reports)
    assert all(r.error is None for r in reports)
    # NOTE: SL(2,3) is solvable non-nilpotent, hence not quasinilpotent, and
    # both sides equal its center of order 2 (oracle-confirmed below).
    assert [r.z_order for r in reports] == [1, 1, 60, 120, 60, 8, 2]
    oracle = hypercenter_oracle(pg.special_linear2(3), pg.QUASINILPOTENT)
    assert oracle.order == 2


def test_verify_theorem1_empty_corpus():
    assert pg.verify_theorem1([], pg.NILPOTENT) == []


def test_verify_theorem1_nilpotent_corpus():
    corpus = [pg.quaternion8(), pg.cyclic(12), pg.dihedral(16)]
    for r in pg.verify_theorem1(corpus, pg.NILPOTENT):
        assert r.equal and r.z_order == r.order


def test_verify_baer_suite():
    reports = pg.verify_baer([pg.symmetric(4), pg.dihedral(20), pg.quaternion8()])
    assert all(r.equal for r in reports)
    assert [r.z_order for r in reports] == [1, 2, 8]


def test_verify_remark4_suite():
    corpus = [pg.symmetric(5), pg.special_linear2(5), pg.symmetric(4), _a5xs3()]
    reports = pg.verify_remark4(corpus)
    assert all(r.equal for r in reports)
    assert [r.z_order for r in reports] == [1, 120, 1, 60]


def test_compare_nca_reports_fill_without_assertion():
    reports = pg.compare_nca([pg.quaternion8(), pg.symmetric(5), pg.symmetric(4)])
    assert [r.z_order for r in reports] == [8, 120, 1]
    assert all(r.int_order is not None for r in reports)
    nil = reports[0]
    assert nil.equal and nil.z_order == 8


def test_report_serialization_deterministic():
    reports = pg.verify_theorem1([pg.symmetric(4)], pg.NILPOTENT)
    a = reports[0].to_json(include_timing=False)
    b = pg.verify_theorem1([pg.symmetric(4)], pg.NILPOTENT)[0].to_json(include_timing=False)
    assert a == b
    assert '"millis"' not in a
    assert '"equal": true' in a


def test_resource_error_recorded_not_fatal():
    tight = pg.Limits(enumeration=10_000, lattice=10, semidirect_degree=10_000)
    with pg.limits_scope(tight):
        reports = pg.verify_theorem1([pg.symmetric(4)], pg.NILPOTENT)
    assert len(reports) == 1
    assert reports[0].error is not None and "10" in reports[0].error


def test_lemma_a_containment_independent(standard):
    # Z_{N*}(G) <= Int_{N*}(G), checked as a containment, not as equality
    for G in standard:
        z = pg.hypercenter(G, pg.QUASINILPOTENT).subgroup
        Int = pg.intersection_of_class_maximal(G, pg.QUASINILPOTENT)
        assert all(Int.contains(g) for g in z.generators), G.name
