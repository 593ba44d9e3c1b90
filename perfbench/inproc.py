"""The in-process workloads: acceptance and gamma_growth.

Both are closed loops: one caller hands the service a window of
requests, waits for every answer, then sends the next window.  A request's
latency is the wall time of its window, and a pass's wall time is the sum of
its window (and write) times.

* acceptance: each window is one
  :func:`repro.service.cli.serve_lines` call with the default config
  (decode, planner, one :class:`~repro.service.session.Session`, encode).
  The reference is :func:`repro.service.planner.naive_dispatch`.
* gamma_growth: one long-lived :class:`Session` whose tenants' Γ grow
  between windows through ``add_dependencies``; windows are answered by
  ``Session.execute_many``.  The reference replays the same windows and
  writes on a fresh ``Session(result_cache_size=0)`` with
  ``execute_many(batch=False)``.

References are computed by a child interpreter (``reference.py``) before any
pass; every pass's answers are compared with them byte for byte after it.

After every window (gamma_growth: every window and its writes) a pass
times the machine-speed probe (:mod:`speed`), and :func:`fold` reports each
window and write in reference seconds: measured seconds times its pass's
probe scale (:attr:`speed.Meter.scale`), the median over the run's passes.  With a
:class:`~tracing.Tracer`, one pass serves every window twice in a row,
untraced then traced (gamma_growth keeps one session per side), so the
tracing overhead is measured on the same work at the same moment.
"""

from __future__ import annotations

import contextlib
import gc
import statistics
from dataclasses import dataclass, field
from time import perf_counter
from typing import Optional

from repro.service.cli import serve_lines
from repro.service.session import Session
from repro.service.wire import dump_request_line, dump_result_line, encode_pd

import streams
from measure import reference
from speed import Meter
from tracing import Tracer


@dataclass
class Pass:
    """One pass over a stream: per-window and per-write seconds, answers checked."""

    sizes: list[int] = field(default_factory=list)
    windows: list[float] = field(default_factory=list)
    writes: list[float] = field(default_factory=list)
    meter: Meter = field(default_factory=Meter)
    answers: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    session: Optional[Session] = None  # gamma_growth's session, kept for layer reads

    @property
    def wall(self) -> float:
        return sum(self.windows) + sum(self.writes)

    def check(self, expected: list[str]) -> None:
        """Count answers that are missing, differ from the reference, or are errors."""
        self.attempted = len(expected)
        missing = max(0, len(expected) - len(self.answers))
        wrong = sum(
            1 for got, want in zip(self.answers, expected) if got != want or '"ok":true' not in want
        )
        self.failed = missing + wrong
        self.answers = []


@dataclass
class Outcome:
    """A run's passes folded together, in reference seconds (see :mod:`speed`)."""

    attempted: int
    failed: int
    wall: float
    windows: int
    latencies: list[float]  # reference seconds, one per request
    writes: list[float]  # reference seconds, one per write
    scales: list[float]  # each pass's reference seconds per measured second


def fold(passes: list[Pass]) -> Outcome:
    """Per window and per write, the median over the passes of its time in reference seconds."""

    def median(times_per_pass):
        return [
            statistics.median(seconds * p.meter.scale for seconds, p in zip(times, passes))
            for times in zip(*times_per_pass)
        ]

    windows = median(p.windows for p in passes)
    writes = median(p.writes for p in passes)
    latencies = [seconds for seconds, size in zip(windows, passes[0].sizes) for _ in range(size)]
    return Outcome(
        attempted=sum(p.attempted for p in passes),
        failed=sum(p.failed for p in passes),
        wall=sum(windows) + sum(writes),
        windows=len(windows),
        latencies=latencies,
        writes=writes,
        scales=[p.meter.scale for p in passes],
    )


def _timed(function, *args):
    started = perf_counter()
    result = function(*args)
    return result, perf_counter() - started


class ReadStream:
    """acceptance: request lines, windows and their reference."""

    def __init__(self, seed: int, seconds: float) -> None:
        self.windows = [
            [dump_request_line(request) for request in window]
            for window in streams.acceptance_windows(seed, seconds)
        ]
        self.expected = reference({"naive": [line for window in self.windows for line in window]})

    def serve(self, tracer: Optional[Tracer] = None) -> tuple[Pass, Optional[Pass]]:
        """One pass; with a tracer each window also runs traced right after."""
        plain = Pass()
        traced = Pass() if tracer is not None else None
        serve_lines(self.windows[0])  # warm-up: first-call imports and lazy set-up
        gc.collect()
        for lines in self.windows:
            (out, _), elapsed = _timed(serve_lines, lines)
            plain.sizes.append(len(lines))
            plain.windows.append(elapsed)
            plain.answers.extend(out)
            plain.meter.probe()
            if traced is not None:
                with tracer.active():
                    (out, _), elapsed = _timed(serve_lines, lines)
                traced.windows.append(elapsed)
                traced.answers.extend(out)
        for side in (plain, traced):
            if side is not None:
                side.check(self.expected)
        return plain, traced


class GammaRun:
    """gamma_growth (and the write probe): reads beside writes on one session."""

    def __init__(self, stream: streams.GammaStream) -> None:
        self.stream = stream
        job = {
            "theories": {tenant: [encode_pd(pd) for pd in theory] for tenant, theory in stream.theories.items()},
            "windows": [[dump_request_line(request) for request in window] for window in stream.windows],
            "writes": [[(tenant, encode_pd(pd)) for tenant, pd in batch] for batch in stream.writes],
        }
        self.expected = reference({"replay": job})

    def boot(self) -> Session:
        """Session construction plus tenant seeding (the workload's set-up)."""
        session = Session()
        for tenant, theory in self.stream.theories.items():
            session.add_dependencies(theory, tenant=tenant)
        return session

    def serve(self, tracer: Optional[Tracer] = None) -> tuple[Pass, Optional[Pass]]:
        """One pass on a fresh session; with a tracer a second session runs traced beside it."""
        plain = Pass(session=self.boot())
        traced = Pass(session=self.boot()) if tracer is not None else None
        results: dict[int, list] = {id(plain): [], id(traced): []}
        gc.collect()
        for window, writes in zip(self.stream.windows, self.stream.writes):
            sides = [(plain, None), (traced, tracer)] if traced is not None else [(plain, None)]
            for side, active in sides:
                with active.active() if active is not None else contextlib.nullcontext():
                    answered, elapsed = _timed(side.session.execute_many, window)
                    side.sizes.append(len(window))
                    side.windows.append(elapsed)
                    results[id(side)].extend(answered)
                    for tenant, pd in writes:
                        _, elapsed = _timed(side.session.add_dependencies, [pd], tenant)
                        side.writes.append(elapsed)
            plain.meter.probe()
        for side in (plain, traced):
            if side is not None:
                side.answers = [dump_result_line(result) for result in results[id(side)]]
                side.check(self.expected)
        plain.session = None  # only the traced side's session is read afterwards
        return plain, traced


def write_probe(seed: int) -> GammaRun:
    """The write path for workloads that send no writes of their own.

    A gamma_growth stream with one read per write (1260 writes in 63
    windows); every read is a quotient, so each tenant's ALG index is warm
    before its first write and every write resumes it.  Only its writes are
    reported.
    """
    return GammaRun(
        streams.gamma_stream(
            seed, streams.WRITE_PROBE_WINDOWS, reads_per_write=1, tag="write_probe", quotient_share=1.0
        )
    )
