"""The machine-speed probe: a fixed pure-Python kernel timed between units of work.

The machine this benchmark was built on shares its cores with other work, and
its speed drifts by a third and more over minutes: the same request window
takes 25 ms in one minute and 35 ms in the next.  A run therefore times this
probe after every unit of work it measures (a window, or a window and its
writes) and reports its timings in *reference seconds*: measured seconds
times ``REFERENCE_SECONDS / mean probe seconds``, i.e. what they would have
been on a machine where the probe takes :data:`REFERENCE_SECONDS`.

Both means cover the same moments of the run, so a slower stretch of the
machine stretches both alike and cancels.  The probe never calls the
program: a change to ``src/`` moves the measured work and not the probe.
It does what the program does most -- builds partitions as dicts and
frozensets, closes them under meet and join -- so contention for the core and
its caches slows both by about the same share.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter

#: Mean probe time on the reference box (2-core x86, quiet), in seconds.
REFERENCE_SECONDS = 0.0025

#: Size of the probe's ground set.
_GROUND = 40


def _partition(blocks) -> tuple[frozenset, ...]:
    return tuple(sorted((frozenset(block) for block in blocks if block), key=min))


def _meet(a: tuple, b: tuple) -> tuple:
    where = {element: number for number, block in enumerate(b) for element in block}
    groups: dict[tuple[int, int], set] = {}
    for number, block in enumerate(a):
        for element in block:
            groups.setdefault((number, where[element]), set()).add(element)
    return _partition(groups.values())


def _join(a: tuple, b: tuple) -> tuple:
    parent = list(range(_GROUND))

    def find(element: int) -> int:
        while parent[element] != element:
            parent[element] = parent[parent[element]]
            element = parent[element]
        return element

    for partition in (a, b):
        for block in partition:
            first, *rest = block
            root = find(first)
            for element in rest:
                other = find(element)
                if other != root:
                    parent[other] = root
    groups: dict[int, set] = {}
    for element in range(_GROUND):
        groups.setdefault(find(element), set()).add(element)
    return _partition(groups.values())


_GENERATORS = tuple(
    _partition(range(start, _GROUND, step) for start in range(step)) for step in (2, 3, 5, 7)
)


def probe_kernel() -> int:
    """Close four partitions of a 40-element set under meet and join (a fixed amount of work)."""
    seen = {partition: None for partition in _GENERATORS}
    frontier = list(_GENERATORS)
    for a in list(frontier):
        for b in list(frontier):
            for partition in (_meet(a, b), _join(a, b)):
                if partition not in seen:
                    seen[partition] = None
                    frontier.append(partition)
        if len(frontier) > 20:
            break
    return len(seen)


class Meter:
    """Probe samples of one stretch of a run, and the scale they give its timings."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def probe(self) -> None:
        """Time the probe once, with the collector paused (the program's heap is not the probe's)."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            started = perf_counter()
            probe_kernel()
            self.samples.append(perf_counter() - started)
        finally:
            if enabled:
                gc.enable()

    @property
    def scale(self) -> float:
        """Reference seconds per measured second over this stretch."""
        return REFERENCE_SECONDS / statistics.fmean(self.samples)
