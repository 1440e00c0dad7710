"""Acceptance suite: one test per criterion, each printing a PASS line.

Everything here is exact (no tolerances): the claims under test are
theorems, so the assertions are equalities of element sets, orders, and
multisets, cross-checked against independent brute-force oracles.
"""

from __future__ import annotations

import pytest

import permgroups as pg
from permgroups.classes import is_s_critical
from permgroups.perms import Permutation

from conftest import (
    WalkedSeries,
    brute_subgroups,
    hypercenter_oracle,
    induces_inner_automorphism,
    nilpotent_oracle,
)


CLASSES = (pg.NILPOTENT, pg.QUASINILPOTENT, pg.NCA, pg.ABELIAN, pg.ALL_GROUPS)
JH_CLASSES = CLASSES + (pg.p_groups(2), pg.p_groups(3), pg.p_groups(5))


def _passed(label: str) -> None:
    print(f"PASS {label}")


def _same_elements(A, B) -> bool:
    return A.order == B.order and all(B.contains(g) for g in A.generators)


def test_criterion_1_corollary_suite(standard):
    """Int_{N*}(G) = Z_{N*}(G) exactly, for every standard-corpus group."""
    reports = pg.verify_theorem1(standard, pg.NILPOTENT)
    assert len(reports) == len(standard)
    for r in reports:
        assert r.error is None, f"{r.group_id}: {r.error}"
        assert r.equal, f"{r.group_id}: z={r.z_order} int={r.int_order} {r.witness}"
    _passed("criterion 1: Int_{N*} = Z_{N*} on the standard corpus")


def test_criterion_2_baer_suite(standard):
    """Int_N(G) = Z_N(G) = top of the upper central series, exactly."""
    for G in standard:
        z = pg.hypercenter(G, pg.NILPOTENT).subgroup
        Int = pg.intersection_of_class_maximal(G, pg.NILPOTENT)
        ucs_top = pg.upper_central_series(G)[-1]
        assert _same_elements(z, Int) and _same_elements(Int, z), G.name
        assert _same_elements(z, ucs_top) and _same_elements(ucs_top, z), G.name
    _passed("criterion 2: Int_N = Z_N = upper central series top")


def test_criterion_3_remark4_suite(standard):
    """inner_induction_hypercenter(G) = Z_{N*}(G) exactly, with Z_{N*} climbed
    on the definitional semidirect path (N*'s own central test is Remark 4)."""
    for G in standard:
        inner = pg.inner_induction_hypercenter(G)
        z = pg.semidirect_hypercenter(G, pg.QUASINILPOTENT)
        assert inner == z, G.name
        assert inner.element_set() == z.element_set(), G.name
    _passed("criterion 3: inner-induction hypercenter = Z_{N*}")


def test_criterion_4_containment_suite(standard):
    """Z_{N*}(G) contained in Int_{N*}(G), checked as a containment."""
    for G in standard:
        z = pg.hypercenter(G, pg.QUASINILPOTENT).subgroup
        Int = pg.intersection_of_class_maximal(G, pg.QUASINILPOTENT)
        assert all(Int.contains(x) for x in z.elements()), G.name
    _passed("criterion 4: Z_{N*} contained in Int_{N*}")


def test_criterion_5_greedy_oracle_equivalence(standard):
    """hypercenter = hypercenter_oracle for every built-in class, |G| <= 200."""
    pool = [G for G in standard if G.order <= 200]
    assert len(pool) >= 25
    for G in pool:
        for X in CLASSES:
            greedy = pg.hypercenter(G, X).subgroup
            oracle = hypercenter_oracle(G, X)
            assert greedy == oracle, (G.name, X.name, greedy.order, oracle.order)
    _passed("criterion 5: greedy hypercenter = definitional oracle")


def test_criterion_6_jordan_hoelder_invariance(standard):
    """Opposed tie-breaking gives the same (order, X-centrality) multisets."""
    for G in standard:
        fwd = pg.chief_series(G)
        rev = WalkedSeries(G, reverse=True)
        for X in JH_CLASSES:
            fwd_sig = sorted(
                (cf.factor.order, pg.is_class_central(cf, X)) for cf in fwd.factors
            )
            rev_sig = sorted(
                (cf.factor.order, pg.is_class_central(cf, X)) for cf in rev.factors
            )
            assert fwd_sig == rev_sig, (G.name, X.name)
    _passed("criterion 6: Jordan-Hoelder multiset invariance")


def test_criterion_7_spot_values():
    """Frozen spot values, each cross-checked by its independent oracle."""
    S5 = pg.symmetric(5)
    SL25 = pg.special_linear2(5)
    A5xS3 = pg.direct_product(pg.alternating(5), pg.symmetric(3), name="A5xS3")
    S4 = pg.symmetric(4)

    # |Z_{N*}(S5)| = 1, |Z_{N*}(SL(2,5))| = 120, |Z_{N*}(A5xS3)| = 60:
    # greedy values against the definitional oracle
    for G, expected in ((S5, 1), (SL25, 120), (A5xS3, 60)):
        assert pg.hypercenter(G, pg.QUASINILPOTENT).subgroup.order == expected
        assert hypercenter_oracle(G, pg.QUASINILPOTENT).order == expected

    # |Int_N(S4)| = 1: the lattice path, cross-checked by brute-force
    # subgroup enumeration + the normal-Sylow nilpotency oracle
    assert pg.intersection_of_class_maximal(S4, pg.NILPOTENT).order == 1
    nilpotent_sets = [
        H for H in brute_subgroups(S4)
        if nilpotent_oracle(pg.subgroup_from_elements(S4, H))
    ]
    maximal_nilpotent = [
        H for H in nilpotent_sets
        if not any(H < other for other in nilpotent_sets)
    ]
    brute_int = frozenset.intersection(*maximal_nilpotent)
    assert len(brute_int) == 1

    # subgroup count of S4 = 30, against the add-one-element oracle
    assert pg.all_subgroups(S4).node_count() == 30
    assert len(brute_subgroups(S4)) == 30

    # is_nca_member(S5) = True: A5 is simple, S5/A5 is central
    assert pg.is_nca_member(S5) is True
    series = pg.chief_series(S5)
    assert series.factor_orders() == (60, 2)
    assert not series.factors[0].factor.is_abelian()
    assert series.factors[1].is_central()

    # is_quasinilpotent(S5) = False: a transposition acts outer on the A5
    # factor (brute force over all 60 inner automorphisms)
    assert pg.is_quasinilpotent(S5) is False
    from permgroups.perms import parse_permutation
    ok, _ = induces_inner_automorphism(
        series.factors[0], parse_permutation("(0 1)", 5)
    )
    assert not ok
    _passed("criterion 7: spot values (oracle-confirmed)")


def test_criterion_8_local_path_equals_definitional(standard):
    """Lemma-1 fast path == semidirect path for N, on every corpus factor."""
    checked = 0
    for G in standard:
        for series in (pg.chief_series(G), WalkedSeries(G, reverse=True)):
            for cf in series.factors:
                local = pg.is_class_central_local(cf, pg.NILPOTENT)
                definitional = pg.is_class_central_semidirect(cf, pg.NILPOTENT)
                assert local == definitional, G.name
                checked += 1
    assert checked > 60
    _passed(f"criterion 8: local path = definitional path on {checked} factors")


def test_criterion_8_inner_criterion_equals_definitional(standard):
    """Remark-4 central test == semidirect path for N*, on every corpus factor."""
    checked = 0
    for G in standard:
        for series in (pg.chief_series(G), WalkedSeries(G, reverse=True)):
            for cf in series.factors:
                fast = pg.is_class_central(cf, pg.QUASINILPOTENT)
                definitional = pg.is_class_central_semidirect(cf, pg.QUASINILPOTENT)
                assert fast == definitional, G.name
                checked += 1
    assert checked >= 150
    _passed(f"criterion 8 (N*): inner criterion = definitional path on {checked} factors")


def test_criterion_9_s_critical_detection(standard):
    """Minimal non-nilpotent groups of order <= 24, cross-checked by brute force."""
    pool = [G for G in standard if G.order <= 24]
    found = [G for G in pool if is_s_critical(G, pg.NILPOTENT)]
    found_names = sorted(G.name for G in found)

    expected = []
    for G in pool:
        subs = brute_subgroups(G)
        maximal = [
            H for H in subs
            if len(H) < G.order and not any(H < K and len(K) < G.order for K in subs)
        ]
        if not nilpotent_oracle(G) and all(
            nilpotent_oracle(pg.subgroup_from_elements(G, H)) for H in maximal
        ):
            expected.append(G.name)
    assert found_names == sorted(expected)
    assert "S3" in found_names
    _passed(f"criterion 9: s-critical groups {found_names}")
