"""Deterministic stabilizer chains (incremental Schreier-Sims construction).

Adding a generator extends each level's orbit and transversal in place, and
sifts only the Schreier generators of (orbit point, generator) pairs not yet
sifted: transversal entries never change, so a pair once sifted stays sifted
(Seress, *Permutation Group Algorithms*, §4.2).  Base points are the least
moved points of the residues that fail sifting, orbits are explored
breadth-first with generators in a fixed order, and no randomization is used
anywhere, so the same generator list always yields the same chain.

The chain holds image tuples (strong generators, transversal pairs (u, u^-1),
residues) and composes them as ``p * q == itemgetter(*p)(q)``; only
``elements()`` builds ``Permutation`` objects.  A chain with a level has
degree at least 2, so no composition sees a degree-1 tuple.
"""

from __future__ import annotations

from math import prod
from operator import itemgetter
from typing import Sequence

from .perms import Permutation, inverse_images


class _Level:
    __slots__ = ("point", "gens", "transversal", "sifted")

    def __init__(self, point: int, identity: tuple):
        self.point = point
        self.gens: list[tuple] = []
        # orbit point -> (u, u^-1) with u(self.point) == orbit point
        self.transversal: dict[int, tuple[tuple, tuple]] = {point: (identity, identity)}
        # id of a stored generator s -> k: the Schreier generators of s with the
        # first k orbit points, in transversal order, sift to the identity (stored
        # generators are never dropped, so their ids stay theirs)
        self.sifted: dict[int, int] = {}


class StabilizerChain:
    """Base-and-strong-generators representation of a permutation group."""

    __slots__ = ("degree", "levels", "_identity")

    def __init__(self, degree: int, generators: Sequence[Permutation] = ()):
        self.degree = degree
        self._identity = tuple(range(degree))
        self.levels: list[_Level] = []
        for g in generators:
            if not g.is_identity():
                self._add(g)

    # -- queries ---------------------------------------------------------

    @property
    def base(self) -> tuple[int, ...]:
        return tuple(lvl.point for lvl in self.levels)

    def order(self) -> int:
        return prod(len(lvl.transversal) for lvl in self.levels)

    def contains(self, p: Permutation) -> bool:
        return self._sift(p.images, 0) is None

    def elements(self) -> list[Permutation]:
        """All group elements, as transversal products (deterministic order)."""
        elems = [self._identity]
        for lvl in reversed(self.levels):
            reps = [pair[0] for _, pair in sorted(lvl.transversal.items())]
            elems = [eu for e in elems for eu in map(itemgetter(*e), reps)]
        return [Permutation._unchecked(e) for e in elems]

    # -- construction ------------------------------------------------------

    def _sift(self, p: tuple, start: int):
        """Strip p through levels >= start (p must fix the earlier base points).

        Returns None when p reduces to the identity (membership), otherwise
        the pair (residue, level index at which sifting failed); the index
        equals len(self.levels) when a new base point is required.
        """
        ident = self._identity
        if p == ident:
            return None
        i = start
        for lvl in self.levels[start:]:
            pair = lvl.transversal.get(p[lvl.point])
            if pair is None:
                return p, i
            p = itemgetter(*p)(pair[1])
            if p == ident:
                return None
            i += 1
        return p, len(self.levels)

    def _add(self, g: Permutation) -> None:
        res = self._sift(g.images, 0)
        if res is not None:
            start = self._install(*res)
            self._stabilize(start)

    def _install(self, residue: tuple, level: int) -> int:
        if level == len(self.levels):
            point = next(i for i, j in enumerate(residue) if i != j)
            self.levels.append(_Level(point, self._identity))
        self.levels[level].gens.append(residue)
        return level

    def _stabilize(self, start: int) -> None:
        """Re-close levels start, start-1, ..., 0.

        Generators stored at deeper levels take part in shallower orbits, so
        a new generator at level j invalidates exactly the levels <= j.  When
        closing a level installs a residue at level j, levels deeper than j
        are still fresh and the countdown restarts at j.
        """
        while start >= 0:
            restart = -1
            for i in range(start, -1, -1):
                installed = self._close(i)
                if installed is not None:
                    restart = installed
                    break
            start = restart

    def _close(self, i: int) -> int | None:
        """Extend the orbit at level i in place and sift the Schreier
        generators not sifted before.  One whose sift fails is not sifted
        again: it is the installed residue times deeper transversal elements.

        Returns the level index at which a residue was installed, or None
        when every Schreier generator sifts to the identity.
        """
        lvl = self.levels[i]
        gens = [s for deeper in self.levels[i:] for s in deeper.gens]
        trans = lvl.transversal
        orbit = list(trans)
        for beta in orbit:  # grows while walked: breadth-first
            for s in gens:
                gamma = s[beta]
                if gamma not in trans:
                    v = itemgetter(*trans[beta][0])(s)
                    trans[gamma] = (v, inverse_images(v))
                    orbit.append(gamma)
        sifted = lvl.sifted
        for s in gens:
            times_s = itemgetter(*s)  # s * w for a tuple w
            for k in range(sifted.get(id(s), 0), len(orbit)):
                beta = orbit[k]
                schreier = itemgetter(*trans[beta][0])(times_s(trans[s[beta]][1]))
                res = self._sift(schreier, i + 1)
                if res is not None:
                    sifted[id(s)] = k + 1
                    return self._install(*res)
            sifted[id(s)] = len(orbit)
        return None

    def forget_sifted(self) -> None:
        """Drop the record of sifted pairs; a later _add re-sifts them all."""
        for lvl in self.levels:
            lvl.sifted = {}
