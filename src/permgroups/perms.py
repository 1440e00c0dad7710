"""Permutations of {0, ..., n-1} with left-to-right composition.

On image tuples a product is ``(p * q).images == itemgetter(*p.images)(q.images)``;
the hot loops compose raw tuples that way (never of degree 1, where
``itemgetter`` with one index returns a scalar) and wrap only their results.
"""

from __future__ import annotations

import re
from math import lcm
from operator import itemgetter
from typing import Iterable

from .errors import InputError


# degree -> (0, 1, ..., degree-1), shared by every identity test
_IDENTITY_IMAGES: dict[int, tuple[int, ...]] = {}


class Permutation:
    """A bijection on {0, ..., degree-1}, stored as a tuple of images.

    Products compose left to right: ``(p * q)(x) == q(p(x))``, the usual
    right-action convention for permutation groups.  Instances are immutable
    and hashable.
    """

    __slots__ = ("images", "_hash")

    def __init__(self, images: Iterable[int]):
        images = tuple(images)
        n = len(images)
        if n == 0:
            raise InputError("permutation degree must be at least 1")
        seen = [False] * n
        for v in images:
            if not isinstance(v, int) or not 0 <= v < n or seen[v]:
                raise InputError(
                    f"images {images!r} are not a bijection on 0..{n - 1}"
                )
            seen[v] = True
        self.images = images
        self._hash = None

    @classmethod
    def _unchecked(cls, images: tuple) -> "Permutation":
        # Internal fast path; images must already be a valid bijection.
        p = object.__new__(cls)
        p.images = images
        p._hash = None
        return p

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        if degree < 1:
            raise InputError("permutation degree must be at least 1")
        return cls._unchecked(tuple(range(degree)))

    @classmethod
    def from_cycles(cls, degree: int, cycles: Iterable[Iterable[int]]) -> "Permutation":
        """Build a permutation from disjoint cycles; points may not repeat."""
        images = list(range(degree))
        used = set()
        for cycle in cycles:
            cycle = list(cycle)
            for pt in cycle:
                if not isinstance(pt, int) or not 0 <= pt < degree:
                    raise InputError(f"point {pt} out of range for degree {degree}")
                if pt in used:
                    raise InputError(f"point {pt} repeated across cycles")
                used.add(pt)
            for a, b in zip(cycle, cycle[1:]):
                images[a] = b
            if cycle:
                images[cycle[-1]] = cycle[0]
        return cls._unchecked(tuple(images))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Permutation") -> "Permutation":
        a, b = self.images, other.images
        if len(a) != len(b):
            raise InputError("degree mismatch in permutation product")
        if len(a) == 1:
            # itemgetter with one index returns a scalar, not a tuple
            return Permutation._unchecked(b)
        return Permutation._unchecked(itemgetter(*a)(b))

    def inverse(self) -> "Permutation":
        return Permutation._unchecked(inverse_images(self.images))

    def commutator_with(self, other: "Permutation") -> "Permutation":
        """Return self^-1 * other^-1 * self * other."""
        return self.inverse() * other.inverse() * self * other

    def is_identity(self) -> bool:
        images = self.images
        n = len(images)
        ident = _IDENTITY_IMAGES.get(n)
        if ident is None:
            ident = _IDENTITY_IMAGES[n] = tuple(range(n))
        return images == ident

    def cycles(self) -> list[list[int]]:
        """Disjoint cycles, each starting at its least point, sorted by it."""
        images = self.images
        seen = [False] * len(images)
        out = []
        for start in range(len(images)):
            if seen[start]:
                continue
            cycle = [start]
            seen[start] = True
            nxt = images[start]
            while nxt != start:
                cycle.append(nxt)
                seen[nxt] = True
                nxt = images[nxt]
            if len(cycle) > 1:
                out.append(cycle)
        return out

    def order(self) -> int:
        return lcm(*(len(c) for c in self.cycles()), 1)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.images == other.images

    def __lt__(self, other: "Permutation") -> bool:
        return self.images < other.images

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash(self.images)
        return h

    def __repr__(self) -> str:
        return f"Permutation({format_permutation(self)!r}, degree={self.degree})"


def inverse_images(images: tuple) -> tuple:
    """The image tuple of the inverse permutation."""
    inv = [0] * len(images)
    for i, j in enumerate(images):
        inv[j] = i
    return tuple(inv)


def format_permutation(p: Permutation) -> str:
    """Disjoint-cycle text, e.g. ``(0 1 2)(3 4)``; identity becomes ``()``."""
    cycles = p.cycles()
    if not cycles:
        return "()"
    return "".join("(" + " ".join(str(pt) for pt in c) + ")" for c in cycles)


# a cycle: points of Unicode decimal digits, which are what int() reads,
# separated by whitespace or commas, as the cycles are
_CYCLE = re.compile(r"\(([\d\s,]*)\)")
_CYCLES = re.compile(rf"[\s,]*(?:{_CYCLE.pattern}[\s,]*)*")


def parse_permutation(text: str, degree: int) -> Permutation:
    """Parse disjoint-cycle notation such as ``(0 1 2)(3 4)``.

    Whitespace or commas separate points; ``()`` denotes the identity.
    """
    text = text.strip()
    if not text:
        raise InputError("empty permutation text")
    end = _CYCLES.match(text).end()  # of the longest well-formed prefix
    if end < len(text):
        raise InputError(f"malformed cycle notation at {text[end:end + 20]!r}")
    try:
        cycles = [list(map(int, c.replace(",", " ").split())) for c in _CYCLE.findall(text)]
    except ValueError:  # more digits than int() reads
        raise InputError("point with too many digits in cycle notation") from None
    return Permutation.from_cycles(degree, [c for c in cycles if c])
