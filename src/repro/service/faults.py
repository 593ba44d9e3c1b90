"""Deterministic fault injection: seeded chaos for the supervised service.

Fault tolerance that is only exercised by real crashes is fault tolerance
that is never exercised.  This module makes every failure mode the
supervisor handles *injectable on purpose*, deterministically, from pytest:

* a :class:`FaultPlan` is a seeded, ordered tuple of :class:`Fault` records
  with a canonical JSON codec, so a plan travels through
  :class:`~repro.service.config.ServiceConfig` or a CLI flag into
  subprocess workers byte-identically;
* workers call the hook points (:func:`on_unit_start`, :func:`on_request`,
  :func:`corrupt_result_line`) at the exact seams the supervisor defends:
  unit dispatch, request evaluation, and the result wire.

Fault kinds:

``crash_worker``
    SIGKILL the worker process when it starts its Nth work unit (matched on
    ``worker`` index, per-worker ``unit`` ordinal and ``incarnation``).
    Modeling: an OOM kill or segfault mid-stream.
``crash_request``
    SIGKILL the worker process when it begins evaluating the request with
    ``request_id``.  Modeling: a *poison* request that reliably takes down
    whatever worker it lands on — the quarantine scenario.
``delay``
    Sleep ``delay_ms`` before evaluating ``request_id``, in small slices
    that call :func:`repro.deadline.check_deadline` so an active budget
    expires *cooperatively*.  Modeling: a slow query.
``hang``
    Sleep ``delay_ms`` before evaluating ``request_id`` **without** budget
    checks.  Modeling: a stuck kernel that never reaches a check point —
    only the supervisor's hard wall-clock kill can reclaim the worker.
``corrupt``
    Mangle the encoded result line of ``request_id`` on its way out of the
    worker.  Modeling: a torn write / codec bug, caught by the parent's
    response validation.

Crash and corrupt faults are **worker-scoped**: they only fire after
:func:`set_worker_context` has been called (i.e. inside a supervised worker
process), so a plan installed in an in-process server cannot kill the server
itself.  ``delay`` and ``hang`` fire anywhere — they are how the in-process
deadline and window-budget paths are tested.  ``incarnation`` matching makes
one-shot-vs-persistent failures deterministic: a fault pinned to incarnation
0 disappears after the supervisor restarts the worker (the transient crash),
while one with ``incarnation=None`` follows the request wherever it lands
(the poison request).

The state is process-global on purpose: workers receive the plan over the
spawn/fork boundary (a forked worker also inherits a plan installed in
its parent) and the hook points are free
functions the session can call without threading a handle through every
layer.  Tests reset with :func:`clear_fault_plan` (autouse fixture).
"""

from __future__ import annotations

import json
import os
import signal
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.deadline import check_deadline
from repro.errors import ServiceError
from repro.service.wire import canonical_dumps

FAULT_KINDS = ("crash_worker", "crash_request", "delay", "hang", "corrupt")

#: Sleep-slice length for cooperative delays: long enough to be cheap, short
#: enough that a blown budget is noticed within ~5 ms.
_SLICE_SECONDS = 0.005


@dataclass(frozen=True)
class Fault:
    """One injectable failure, matched by kind and its (optional) selectors.

    ``None`` selectors are wildcards: a ``crash_request`` with
    ``incarnation=None`` fires on every incarnation (a poison request), one
    with ``incarnation=0`` fires only before the first restart (a transient
    crash).
    """

    kind: str
    request_id: Optional[str] = None
    worker: Optional[int] = None
    unit: Optional[int] = None
    incarnation: Optional[int] = None
    delay_ms: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ServiceError(
                f"unknown fault kind {self.kind!r}; expected one of {', '.join(FAULT_KINDS)}"
            )
        if self.kind == "crash_worker":
            if self.worker is None or self.unit is None:
                raise ServiceError("a 'crash_worker' fault needs 'worker' and 'unit' selectors")
        elif self.request_id is None:
            raise ServiceError(f"a {self.kind!r} fault needs a 'request_id' selector")
        if self.kind in ("delay", "hang") and self.delay_ms <= 0:
            raise ServiceError(f"a {self.kind!r} fault needs a positive 'delay_ms'")

    def encode(self) -> dict:
        payload: dict = {"kind": self.kind}
        if self.request_id is not None:
            payload["request_id"] = self.request_id
        if self.worker is not None:
            payload["worker"] = self.worker
        if self.unit is not None:
            payload["unit"] = self.unit
        if self.incarnation is not None:
            payload["incarnation"] = self.incarnation
        if self.delay_ms:
            payload["delay_ms"] = self.delay_ms
        return payload

    @classmethod
    def decode(cls, payload: dict) -> "Fault":
        if not isinstance(payload, dict):
            raise ServiceError(f"a fault must be a JSON object, got {type(payload).__name__}")
        known = {"kind", "request_id", "worker", "unit", "incarnation", "delay_ms"}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ServiceError(f"fault payload has unknown fields: {', '.join(unknown)}")
        if "kind" not in payload:
            raise ServiceError("fault payload is missing 'kind'")
        return cls(
            kind=payload["kind"],
            request_id=payload.get("request_id"),
            worker=payload.get("worker"),
            unit=payload.get("unit"),
            incarnation=payload.get("incarnation"),
            delay_ms=float(payload.get("delay_ms", 0.0)),
        )

    def _matches_incarnation(self, incarnation: int) -> bool:
        return self.incarnation is None or self.incarnation == incarnation


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, ordered set of faults with a canonical JSON codec.

    The ``seed`` is carried for provenance (benchmarks and CI artifacts
    record which chaos run produced a number); matching itself is fully
    determined by the fault selectors.
    """

    seed: int = 0
    faults: tuple[Fault, ...] = field(default_factory=tuple)

    def to_json(self) -> str:
        return canonical_dumps(
            {"seed": self.seed, "faults": [fault.encode() for fault in self.faults]}
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ServiceError(f"fault plan is not valid JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise ServiceError("fault plan must be a JSON object")
        unknown = sorted(set(payload) - {"seed", "faults"})
        if unknown:
            raise ServiceError(f"fault plan has unknown fields: {', '.join(unknown)}")
        seed = payload.get("seed", 0)
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ServiceError(f"fault plan 'seed' must be an integer, got {seed!r}")
        raw_faults = payload.get("faults", [])
        if not isinstance(raw_faults, list):
            raise ServiceError("fault plan 'faults' must be a list")
        return cls(seed=seed, faults=tuple(Fault.decode(entry) for entry in raw_faults))

    def __len__(self) -> int:
        return len(self.faults)


# -- process-global injection state ------------------------------------------------

_PLAN: Optional[FaultPlan] = None
_WORKER: Optional[int] = None
_INCARNATION: int = 0
_UNITS_STARTED: int = 0


def install_fault_plan(plan) -> Optional[FaultPlan]:
    """Install a plan (object, JSON text, or ``None`` to clear) process-wide."""
    global _PLAN, _UNITS_STARTED
    if plan is None:
        _PLAN = None
    elif isinstance(plan, FaultPlan):
        _PLAN = plan
    elif isinstance(plan, str):
        _PLAN = FaultPlan.from_json(plan)
    else:
        raise ServiceError(f"cannot install a fault plan from {type(plan).__name__}")
    _UNITS_STARTED = 0
    return _PLAN


def installed_plan() -> Optional[FaultPlan]:
    """The currently installed plan, if any."""
    return _PLAN


def clear_fault_plan() -> None:
    """Remove any installed plan and reset all matching state."""
    global _PLAN, _WORKER, _INCARNATION, _UNITS_STARTED
    _PLAN = None
    _WORKER = None
    _INCARNATION = 0
    _UNITS_STARTED = 0


def set_worker_context(worker: int, incarnation: int) -> None:
    """Mark this process as supervised worker ``worker``, restart ``incarnation``.

    Arms the crash/corrupt fault kinds (which are no-ops outside a worker)
    and resets the per-incarnation unit counter.
    """
    global _WORKER, _INCARNATION, _UNITS_STARTED
    _WORKER = worker
    _INCARNATION = incarnation
    _UNITS_STARTED = 0


def _die() -> None:
    # SIGKILL leaves no chance for cleanup — exactly the failure the
    # supervisor must survive.  (os.kill on self is portable enough here:
    # the service already requires a POSIX multiprocessing environment.)
    os.kill(os.getpid(), signal.SIGKILL)


def on_unit_start() -> None:
    """Worker hook: called once per received work unit, before any evaluation."""
    global _UNITS_STARTED
    unit_ordinal = _UNITS_STARTED
    _UNITS_STARTED += 1
    plan = _PLAN
    if plan is None or _WORKER is None:
        return
    for fault in plan.faults:
        if (
            fault.kind == "crash_worker"
            and fault.worker == _WORKER
            and fault.unit == unit_ordinal
            and fault._matches_incarnation(_INCARNATION)
        ):
            _die()


def on_request(request_id: Optional[str]) -> None:
    """Evaluation hook: called by the session as a request enters ``_evaluate``.

    Runs inside the request's deadline scope, so a ``delay`` fault can blow
    the budget cooperatively while a ``hang`` fault sails past it.
    """
    plan = _PLAN
    if plan is None or request_id is None:
        return
    for fault in plan.faults:
        if fault.request_id != request_id:
            continue
        if fault.kind == "crash_request":
            if _WORKER is not None and fault._matches_incarnation(_INCARNATION):
                _die()
        elif fault.kind == "delay":
            if fault._matches_incarnation(_INCARNATION):
                _sleep_cooperatively(fault.delay_ms)
        elif fault.kind == "hang":
            if fault._matches_incarnation(_INCARNATION):
                time.sleep(fault.delay_ms / 1000.0)


def corrupt_result_line(request_id: Optional[str], line: str) -> str:
    """Wire hook: the (possibly mangled) result line a worker should emit."""
    plan = _PLAN
    if plan is None or request_id is None or _WORKER is None:
        return line
    for fault in plan.faults:
        if (
            fault.kind == "corrupt"
            and fault.request_id == request_id
            and fault._matches_incarnation(_INCARNATION)
        ):
            # Torn write: drop the tail so the line no longer parses as JSON.
            return line[: max(1, len(line) // 2)] + "#corrupt"
    return line


def _sleep_cooperatively(delay_ms: float) -> None:
    """Sleep in short slices, honoring any active deadline between slices."""
    deadline = time.monotonic() + delay_ms / 1000.0
    while True:
        check_deadline()
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            return
        time.sleep(min(_SLICE_SECONDS, remaining))
