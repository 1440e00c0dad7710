"""Resource bounds for enumeration-heavy operations.

All exact algorithms in this package live at desk scale; these bounds make
that explicit and turn runaway inputs into clean errors instead of hangs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError


@dataclass
class Limits:
    # Largest group order for which full element enumeration is permitted.
    enumeration: int = 10_000
    # Largest group order for which the full subgroup lattice is built.
    lattice: int = 2_000
    # Largest point count the package realizes: semidirect products, group
    # files and constructor arguments.
    semidirect_degree: int = 10_000


#: Process-wide defaults.  The CLI overrides these fields in place so that
#: deeply nested operations observe the same knobs.
DEFAULT = Limits()


def resolve(limits: Limits | None) -> Limits:
    return DEFAULT if limits is None else limits


def check_degree(degree: int, what: str) -> None:
    """Reject ``what`` on ``degree`` points before anything that size is built."""
    bound = DEFAULT.semidirect_degree
    if degree > bound:
        raise InputError(f"{what} needs {degree} points, exceeding the point bound {bound}")
