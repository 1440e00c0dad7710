"""Constructors for the standard small groups used throughout the corpus."""

from __future__ import annotations

from .errors import InputError
from .groups import PermGroup, direct_product
from .perms import Permutation
from .primes import is_prime


def cyclic(n: int) -> PermGroup:
    if n < 1:
        raise InputError("cyclic group order must be positive")
    if n == 1:
        return PermGroup(1, (), name="C1")
    gen = Permutation.from_cycles(n, [list(range(n))])
    return PermGroup(n, [gen], name=f"C{n}")


def symmetric(n: int) -> PermGroup:
    if n < 1:
        raise InputError("symmetric group degree must be positive")
    if n == 1:
        return PermGroup(1, (), name="S1")
    gens = [Permutation.from_cycles(n, [[0, 1]])]
    if n > 2:
        gens.append(Permutation.from_cycles(n, [list(range(n))]))
    return PermGroup(n, gens, name=f"S{n}")


def alternating(n: int) -> PermGroup:
    if n < 3:
        return PermGroup(max(n, 1), (), name=f"A{n}")
    gens = [Permutation.from_cycles(n, [[0, 1, 2]])]
    if n > 3:
        if n % 2:
            gens.append(Permutation.from_cycles(n, [list(range(n))]))
        else:
            gens.append(Permutation.from_cycles(n, [list(range(1, n))]))
    return PermGroup(n, gens, name=f"A{n}")


def dihedral(order: int) -> PermGroup:
    """Dihedral group of the given order, acting on the n = order/2 vertices."""
    if order < 6 or order % 2:
        raise InputError("dihedral constructor needs an even order >= 6")
    n = order // 2
    rot = Permutation.from_cycles(n, [list(range(n))])
    ref = Permutation(tuple((n - i) % n for i in range(n)))
    return PermGroup(n, [rot, ref], name=f"D{order}")


_QUATERNION_AXIS = {
    # (axis_a, axis_b) -> (sign, axis) for the quaternion units 1, i, j, k
    (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
    (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
    (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
    (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
}


def quaternion8() -> PermGroup:
    """Q8 as the right-regular action on the eight quaternion units."""
    # element index: axis * 2 + (0 if positive else 1)
    def mul(x: int, y: int) -> int:
        sx, ax = 1 - 2 * (x % 2), x // 2
        sy, ay = 1 - 2 * (y % 2), y // 2
        s, a = _QUATERNION_AXIS[(ax, ay)]
        return a * 2 + (0 if s * sx * sy > 0 else 1)

    gens = []
    for unit in (2, 4):  # right translation by i and by j
        gens.append(Permutation(tuple(mul(x, unit) for x in range(8))))
    return PermGroup(8, gens, name="Q8")


def special_linear2(p: int) -> PermGroup:
    """SL(2, p) acting on the p^2 - 1 nonzero row vectors of F_p^2."""
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    vectors = [(a, b) for a in range(p) for b in range(p) if (a, b) != (0, 0)]
    index = {v: i for i, v in enumerate(vectors)}

    def matrix_perm(m) -> Permutation:
        (m00, m01), (m10, m11) = m
        images = []
        for a, b in vectors:
            images.append(index[((a * m00 + b * m10) % p, (a * m01 + b * m11) % p)])
        return Permutation(images)

    t = matrix_perm(((1, 1), (0, 1)))
    s = matrix_perm(((0, p - 1), (1, 0)))
    return PermGroup(len(vectors), [t, s], name=f"SL(2,{p})")


def elementary_abelian(p: int, rank: int) -> PermGroup:
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    if rank < 1:
        raise InputError("rank must be positive")
    G = cyclic(p)
    for _ in range(rank - 1):
        G = direct_product(G, cyclic(p))
    G.name = f"E({p},{rank})"
    return G


#: Constructor registry for corpus-spec files.
CONSTRUCTORS = {
    "cyclic": cyclic,
    "symmetric": symmetric,
    "alternating": alternating,
    "dihedral": dihedral,
    "quaternion8": quaternion8,
    "special_linear2": special_linear2,
    "elementary_abelian": elementary_abelian,
}
