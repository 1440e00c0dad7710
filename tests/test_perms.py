from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permgroups.errors import InputError
from permgroups.perms import Permutation, format_permutation, parse_permutation


def perm_strategy(degree):
    return st.permutations(list(range(degree))).map(Permutation)


@given(perm_strategy(6), perm_strategy(6), perm_strategy(6))
def test_associativity(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(perm_strategy(7))
def test_inverse(p):
    assert (p * p.inverse()).is_identity()
    assert (p.inverse() * p).is_identity()


@given(perm_strategy(6), perm_strategy(6))
def test_composition_convention(p, q):
    # (p * q)(x) == q(p(x))
    for x in range(6):
        assert (p * q)(x) == q(p(x))


@given(perm_strategy(8))
def test_cycle_roundtrip(p):
    assert parse_permutation(format_permutation(p), 8) == p


@given(perm_strategy(6))
def test_order_matches_iteration(p):
    n = p.order()
    q = p
    for _ in range(n - 1):
        q = q * p
    assert q.is_identity()
    if n > 1:
        assert not p.is_identity()


def test_rejects_non_bijection():
    with pytest.raises(InputError):
        Permutation((0, 0, 1))
    with pytest.raises(InputError):
        Permutation((0, 3))
    with pytest.raises(InputError):
        Permutation(())


def test_parse_errors():
    with pytest.raises(InputError):
        parse_permutation("(0 3)", 3)  # point out of range
    with pytest.raises(InputError):
        parse_permutation("(0 1)(1 2)", 3)  # repeated point
    with pytest.raises(InputError):
        parse_permutation("(0 1", 3)
    with pytest.raises(InputError):
        parse_permutation("0 1 2", 3)
    with pytest.raises(InputError):
        parse_permutation("(0 ²)", 3)  # a digit, but not a decimal one


def test_parse_examples():
    p = parse_permutation("(0 1 2)(3 4)", 5)
    assert p.images == (1, 2, 0, 4, 3)
    assert parse_permutation("()", 4).is_identity()
    assert format_permutation(Permutation.identity(3)) == "()"


def test_degree_mismatch_product():
    with pytest.raises(InputError):
        Permutation((1, 0)) * Permutation((0, 1, 2))


def test_conjugation():
    p = parse_permutation("(0 1 2)", 4)
    g = parse_permutation("(2 3)", 4)
    assert g.inverse() * p * g == parse_permutation("(0 1 3)", 4)


# The naive tuple formulas the kernel replaced; they are the oracle here.
def _naive_mul(p, q):
    return tuple(q.images[i] for i in p.images)


def _naive_inverse(p):
    inv = [0] * p.degree
    for i, j in enumerate(p.images):
        inv[j] = i
    return tuple(inv)


def _naive_is_identity(p):
    return all(i == j for i, j in enumerate(p.images))


def _naive_conjugate(p, g):
    # g^-1 * p * g sends x to g(p(g^-1(x)))
    g_inv = _naive_inverse(g)
    return tuple(g.images[p.images[g_inv[x]]] for x in range(p.degree))


def _check_kernel(p, q):
    prod = p * q
    assert type(prod.images) is tuple and prod.images == _naive_mul(p, q)
    assert hash(prod) == hash(Permutation(_naive_mul(p, q)))
    assert p.inverse().images == _naive_inverse(p)
    assert p.is_identity() == _naive_is_identity(p)
    # the conjugate q^-1 * p * q, as the conjugation loops form it
    assert (q.inverse() * p * q).images == _naive_conjugate(p, q)


@given(st.integers(min_value=1, max_value=10).flatmap(
    lambda n: st.tuples(perm_strategy(n), perm_strategy(n))
))
def test_kernel_matches_naive_formulas(pair):
    _check_kernel(*pair)


@pytest.mark.parametrize("degree", [1, 2])
def test_kernel_small_degrees_exhaustive(degree):
    # degree 1 is where itemgetter returns a scalar instead of a tuple
    perms = [Permutation(images) for images in permutations(range(degree))]
    for p in perms:
        for q in perms:
            _check_kernel(p, q)
    ident = Permutation.identity(degree)
    assert ident.is_identity() and (ident * ident).images == tuple(range(degree))
