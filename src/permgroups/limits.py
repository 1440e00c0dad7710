"""Resource bounds for enumeration-heavy operations.

All exact algorithms in this package live at desk scale; these bounds make
that explicit and turn runaway inputs into clean errors instead of hangs.
One set of bounds is in effect at a time: ``current()`` reads it, and
``scope(bounds)`` sets it for a ``with`` block, nested calls included.
Outside every scope it is ``DEFAULT``; the CLI opens one scope per run from
its ``--*-bound`` flags.  Only the enumeration bound can make a group's kept
values raise, so a read of one that enumerates G first calls
``check_enumeration(G.order)``: none is served under bounds that refuse it.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Iterator

from .errors import InputError, ResourceLimitError


@dataclass(frozen=True)
class Limits:
    # Largest group order for which full element enumeration is permitted.
    enumeration: int = 10_000
    # Largest group order for which the full subgroup lattice is built.
    lattice: int = 2_000
    # Largest point count the package realizes: semidirect products, group
    # files and constructor arguments.
    semidirect_degree: int = 10_000


#: The bounds in effect outside every scope.
DEFAULT = Limits()

_ACTIVE: ContextVar[Limits] = ContextVar("permgroups_limits", default=DEFAULT)


def current() -> Limits:
    """The bounds in effect."""
    return _ACTIVE.get()


@contextmanager
def scope(bounds: Limits) -> Iterator[Limits]:
    """Put ``bounds`` in effect inside the ``with`` block; the bounds in
    effect before are back when it exits, also on an exception."""
    token = _ACTIVE.set(bounds)
    try:
        yield bounds
    finally:
        _ACTIVE.reset(token)


def check_degree(degree: int, what: str) -> None:
    """Reject ``what`` on ``degree`` points before anything that size is built."""
    bound = current().semidirect_degree
    if degree > bound:
        raise InputError(f"{what} needs {degree} points, exceeding the point bound {bound}")


def check_enumeration(order: int) -> None:
    """Reject enumerating a group of ``order`` elements before it is enumerated."""
    bound = current().enumeration
    if order > bound:
        raise ResourceLimitError(f"group order {order} exceeds enumeration bound {bound}")
