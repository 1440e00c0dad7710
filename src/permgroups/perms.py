"""Permutations of {0, ..., n-1} with left-to-right composition."""

from __future__ import annotations

from math import lcm
from operator import itemgetter
from typing import Iterable, Iterator

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
        images = self.images
        inv = [0] * len(images)
        for i, j in enumerate(images):
            inv[j] = i
        return Permutation._unchecked(tuple(inv))

    def conjugated_by(self, g: "Permutation") -> "Permutation":
        """Return g^-1 * self * g."""
        return g.inverse() * self * g

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

    def min_moved(self) -> int:
        for i, j in enumerate(self.images):
            if i != j:
                return i
        raise InputError("identity permutation moves no point")

    def cycles(self, include_fixed: bool = False) -> list[list[int]]:
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
            if len(cycle) > 1 or include_fixed:
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


def format_permutation(p: Permutation) -> str:
    """Disjoint-cycle text, e.g. ``(0 1 2)(3 4)``; identity becomes ``()``."""
    cycles = p.cycles()
    if not cycles:
        return "()"
    return "".join("(" + " ".join(str(pt) for pt in c) + ")" for c in cycles)


def _tokenize_cycles(text: str) -> Iterator[list[str]]:
    depth = 0
    current: list[str] = []
    buf = ""
    for ch in text:
        if ch == "(":
            if depth:
                raise InputError("nested '(' in cycle notation")
            depth = 1
            current = []
            buf = ""
        elif ch == ")":
            if not depth:
                raise InputError("unmatched ')' in cycle notation")
            if buf:
                current.append(buf)
                buf = ""
            depth = 0
            yield current
        elif ch.isdigit():
            if not depth:
                raise InputError(f"digit {ch!r} outside of a cycle")
            buf += ch
        elif ch.isspace() or ch == ",":
            if buf:
                current.append(buf)
                buf = ""
        else:
            raise InputError(f"unexpected character {ch!r} in cycle notation")
    if depth:
        raise InputError("unclosed '(' in cycle notation")


def parse_permutation(text: str, degree: int) -> Permutation:
    """Parse disjoint-cycle notation such as ``(0 1 2)(3 4)``.

    Whitespace or commas separate points; ``()`` denotes the identity.
    """
    text = text.strip()
    if not text:
        raise InputError("empty permutation text")
    cycles = [[int(tok) for tok in cyc] for cyc in _tokenize_cycles(text)]
    return Permutation.from_cycles(degree, [c for c in cycles if c])
