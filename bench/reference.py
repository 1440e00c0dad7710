"""A short fixed pure-Python task that measures how fast the CPU runs right now.

The benchmark reports its times in reference seconds: a stretch of measured
time ``dt`` counts as ``dt * REFERENCE_S / r``, where ``r`` is what this task
took on the same CPU just before and just after that stretch.  On a shared
virtual machine the speed of Python code changes with the load of the
neighbours, by up to 1.7x for a few seconds at a time on one virtual CPU and
by up to 2x for tens of minutes on all of them (the 2-core machine of
``README.md``), and those changes move this task and the suites alike.  The
task imports nothing from ``permgroups``, so a change to the package cannot
move it.
"""

from __future__ import annotations

import time

# Where reference_s() takes REFERENCE_S, a reference second is a second.
# It is about the task's time on that machine when it runs fastest.
REFERENCE_S = 0.02

LOOP = 200_000
DEGREE = 7  # the closure is the symmetric group on 7 points


def _closure(degree: int) -> int:
    """Elements of the group generated by an n-cycle and a transposition,
    permutations as tuples of images composed the way the suites do it."""
    cycle = tuple(range(1, degree)) + (0,)
    swap = (1, 0) + tuple(range(2, degree))
    seen = {tuple(range(degree))}
    frontier = list(seen)
    while frontier:
        found = []
        for p in frontier:
            for g in (cycle, swap):
                q = tuple(g[i] for i in p)
                if q not in seen:
                    seen.add(q)
                    found.append(q)
        frontier = found
    return len(seen)


def reference_s() -> float:
    """Seconds this process takes for the task: an integer loop and the
    closure of two permutations of degree DEGREE."""
    started = time.perf_counter()
    total = 0
    for i in range(LOOP):
        total += i * i
    if _closure(DEGREE) != 5040:
        raise RuntimeError("reference closure has the wrong size")
    return time.perf_counter() - started
