"""Hypercenter climbs, the definitional oracle, Int_X, and the suites."""

import importlib
import json
from pathlib import Path

import pytest

import permgroups as pg
from permgroups.errors import VerificationError
from permgroups.perms import parse_permutation

from conftest import hypercenter_oracle, is_normal

# the module, not the function the package exports under its name
hypercenter_module = importlib.import_module("permgroups.hypercenter")


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
    G = pg.special_linear2(5)
    result = pg.hypercenter(G, pg.QUASINILPOTENT)
    assert result.subgroup.order == 120
    assert [order for _, order in result.climb_trace] == [2, 60]
    assert [Z.order for Z, _ in result.climb_trace] == [2, 120]
    assert is_normal(G, result.subgroup)


def test_hypercenter_stops_when_no_central_factor_remains():
    # at the final Z, no minimal normal subgroup of G/Z is X-central
    for G in [pg.symmetric(5), pg.special_linear2(3), _a5xs3()]:
        Z = pg.hypercenter(G, pg.QUASINILPOTENT).subgroup
        assert Z.order < G.order
        Q = pg.quotient_group(G, Z)
        for mn in pg.minimal_normal_subgroups(Q.group):
            cf = pg.ChiefFactor(Q, mn)
            assert not pg.is_class_central(cf, pg.QUASINILPOTENT), G.name


def test_extended_golden_hypercenters_are_products_of_the_factors():
    """Z_X(A x B) = Z_X(A) x Z_X(B), read off the extended golden files.

    Let G = A x B.  X-centrality of a chief factor depends only on the factor
    and the group G induces on it.  A G-chief factor inside A x 1 is an
    A-chief factor on which B acts trivially, so Z_X(A) x Z_X(B) has only
    X-central G-chief factors, and lies in Z = Z_X(G).  Conversely, as
    G-groups Z/(Z n (1 x B)) is the projection of Z to A, on which G acts
    through A, so by Jordan-Holder for operator groups (Robinson 1996) that
    projection lies in Z_X(A); likewise for B.  The inner-induction
    hypercenter of verify-remark4 is the same climb with another step test.
    """
    # the pairs of extended_corpus's loop, and the standard group C2xA5
    base = pg.standard_corpus()
    pairs = {f"{a.name}x{b.name}": (a, b) for i, a in enumerate(base) for b in base[i:]
             if 1 < a.order and 1 < b.order and a.order * b.order <= pg.DEFAULT_LIMITS.lattice}
    checked = 0
    for path in sorted((Path(__file__).parent / "golden").glob("*-extended.jsonl")):
        records = {r["group_id"]: r for r in map(json.loads, path.read_text().splitlines())}

        def z_side(name, degree):  # the recorded Z of a group, on its points
            gens = [parse_permutation(g, degree) for g in records[name]["z_generators"]]
            return pg.PermGroup(degree, gens)

        for name, (a, b) in pairs.items():
            product = pg.direct_product(z_side(a.name, a.degree), z_side(b.name, b.degree))
            recorded = z_side(name, a.degree + b.degree)
            assert product.order == recorded.order, (path.name, name)
            assert all(recorded.contains(g) for g in product.generators), (path.name, name)
            checked += 1
    assert checked == 4 * 454


def test_hypercenter_oracle_examples():
    assert hypercenter_oracle(pg.cyclic(1), pg.NILPOTENT).is_trivial()
    assert hypercenter_oracle(pg.symmetric(4), pg.NILPOTENT).is_trivial()
    assert hypercenter_oracle(pg.special_linear2(5), pg.QUASINILPOTENT).order == 120


def test_hypercenter_z_is_normal():
    for G in [pg.symmetric(4), pg.special_linear2(3), pg.dihedral(20)]:
        for X in (pg.NILPOTENT, pg.QUASINILPOTENT):
            assert is_normal(G, pg.hypercenter(G, X).subgroup)


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
        assert is_normal(G, Int)


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


def test_n_climb_candidates_are_the_central_minimal_normal_subgroups(monkeypatch):
    # at every step of every N climb, on fresh standard groups and every fourth
    # extended group, against the central members of the full list
    offer = hypercenter_module.central_minimal_normal_subgroups
    sizes = []

    def checked(Q):
        got = offer(Q)
        want = [mn for mn in pg.minimal_normal_subgroups(Q)
                if all(g * h == h * g for g in mn.generators for h in Q.generators)]
        assert [(c.order, c.generators, c.chain.base) for c in got] == [
            (c.order, c.generators, c.chain.base) for c in want]
        sizes.append(len(got))
        return got

    monkeypatch.setattr(hypercenter_module, "central_minimal_normal_subgroups", checked)
    corpus = pg.standard_corpus() + pg.extended_corpus()[::4]
    while corpus:
        pg.hypercenter(corpus.pop(), pg.NILPOTENT)  # no group outlives its climb
    assert (len(sizes), sum(sizes), max(sizes)) == (463, 1425, 121)
