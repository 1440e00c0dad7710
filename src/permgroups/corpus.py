"""Built-in group corpora for the verification suites."""

from __future__ import annotations

from .errors import InputError
from .groups import PermGroup, direct_product
from .limits import current
from .named import (
    alternating,
    cyclic,
    dihedral,
    elementary_abelian,
    quaternion8,
    special_linear2,
    symmetric,
)


def smoke_corpus() -> list[PermGroup]:
    groups = [cyclic(n) for n in range(1, 9)]
    groups += [symmetric(3), symmetric(4), quaternion8(), dihedral(8)]
    return groups


def standard_corpus() -> list[PermGroup]:
    groups = smoke_corpus()
    groups += [
        alternating(4),
        alternating(5),
        symmetric(5),
        special_linear2(3),
        special_linear2(5),
    ]
    groups += [dihedral(order) for order in range(10, 25, 2)]
    groups.append(direct_product(cyclic(2), alternating(5), name="C2xA5"))
    groups.append(direct_product(alternating(5), symmetric(3), name="A5xS3"))
    # rank-1 elementary abelians are already present as C2, C3, C5
    for p in (2, 3, 5):
        for rank in (2, 3):
            groups.append(elementary_abelian(p, rank))
    return groups


def extended_corpus() -> list[PermGroup]:
    bound = current().lattice
    base = standard_corpus()
    groups = list(base)
    seen = {g.name for g in base}
    for i, a in enumerate(base):
        for b in base[i:]:
            if a.order == 1 or b.order == 1:
                continue
            if a.order * b.order > bound:
                continue
            name = f"{a.name}x{b.name}"
            if name in seen:
                continue
            seen.add(name)
            groups.append(direct_product(a, b, name=name))
    return groups


def builtin_corpus(name: str) -> list[PermGroup]:
    if name == "smoke":
        return smoke_corpus()
    if name == "standard":
        return standard_corpus()
    if name == "extended":
        return extended_corpus()
    raise InputError(f"unknown corpus {name!r} (expected smoke, standard, or extended)")
