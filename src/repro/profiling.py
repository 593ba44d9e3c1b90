"""Thread-local kernel profiling counters.

The service wants to know *where the time went* inside the four kernel hot
loops (FD chase, implication-closure worklist, consistency backtracking,
NAE3SAT backtracking) without paying for that knowledge when nobody is
looking.  The kernels already touch one shared seam on every hot-loop
iteration — ``repro.deadline.check_deadline()`` — so profiling piggybacks on
those call sites with the same discipline: one thread-local lookup fetched
*once* before the loop, and a plain attribute increment per iteration only
when a profile scope is active.

Usage (instrumented kernel loop)::

    from repro import profiling
    ...
    prof = profiling.active()          # once, before the loop
    while worklist:
        if prof is not None:
            prof.closure_pops += 1
            prof.deadline_checks += 1
        check_deadline()
        ...

Usage (measuring caller)::

    with profiling.profile() as prof:
        run_kernels()
    print(prof.as_dict())

Scopes nest: when an inner ``profile()`` scope exits, its counts are
accumulated into the enclosing scope, so a per-work-unit scope still feeds a
surrounding per-request or per-benchmark scope.  When no scope is active,
``active()`` returns ``None`` and the per-iteration cost in the kernels is a
single identity check.

This module lives at the top level (not under ``repro.service``) so kernels
can import it without pulling in any service machinery.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional

__all__ = ["KernelProfile", "active", "profile", "COUNTER_NAMES"]

#: Counter attributes every :class:`KernelProfile` carries, in export order.
COUNTER_NAMES = (
    "chase_steps",
    "closure_pops",
    "backtrack_nodes",
    "deadline_checks",
    "deadline_exceeded",
)


class KernelProfile:
    """A bundle of kernel-work counters for one profiling scope.

    ``chase_steps``
        Merge events applied by the indexed FD chase (``chase_engine``).
    ``closure_pops``
        Worklist elements popped by the lattice quotient closure.
    ``backtrack_nodes``
        Nodes expanded by the consistency (CAD) and NAE3SAT backtrackers.
    ``deadline_checks``
        Cooperative ``check_deadline()`` polls observed at instrumented
        call sites.
    ``deadline_exceeded``
        Times a poll actually raised :class:`~repro.deadline.DeadlineExceeded`.
    """

    __slots__ = COUNTER_NAMES

    def __init__(self) -> None:
        for name in COUNTER_NAMES:
            setattr(self, name, 0)

    def merge(self, other: "KernelProfile") -> None:
        """Accumulate ``other``'s counts into this profile."""
        for name in COUNTER_NAMES:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def as_dict(self) -> Dict[str, int]:
        """Counter name -> count, in stable export order."""
        return {name: getattr(self, name) for name in COUNTER_NAMES}

    def total_work(self) -> int:
        """Kernel-iteration total (excludes the bookkeeping counters)."""
        return self.chase_steps + self.closure_pops + self.backtrack_nodes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"KernelProfile({inner})"


_LOCAL = threading.local()


def active() -> Optional[KernelProfile]:
    """The innermost active profile for this thread, or ``None``.

    Kernels call this once before a hot loop; the disabled fast path is one
    ``getattr`` with a default plus a truthiness check, mirroring
    ``check_deadline()``.
    """
    stack = getattr(_LOCAL, "scopes", None)
    if not stack:
        return None
    return stack[-1]


class _ProfileScope:
    """Context manager pushing a fresh :class:`KernelProfile` for this thread."""

    __slots__ = ("profile",)

    def __init__(self) -> None:
        self.profile = KernelProfile()

    def __enter__(self) -> KernelProfile:
        stack = getattr(_LOCAL, "scopes", None)
        if stack is None:
            stack = []
            _LOCAL.scopes = stack
        stack.append(self.profile)
        return self.profile

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        stack = _LOCAL.scopes
        stack.pop()
        if stack:
            # Nested scope: fold our counts into the enclosing scope so outer
            # measurements stay complete.
            stack[-1].merge(self.profile)


def profile() -> _ProfileScope:
    """Open a profiling scope; ``with profile() as prof: ...``."""
    return _ProfileScope()
