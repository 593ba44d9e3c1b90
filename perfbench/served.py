"""tenants_served: an open-loop Zipf multi-tenant stream against a 2-shard server.

The server is a real ``python -m repro.service serve --shards 2`` subprocess
with its default window and cache settings.  This process is the one client:
it sends the seeded stream over :data:`~streams.SERVED_CONNECTIONS`
connections on a Poisson schedule, whatever the server's progress (an open
loop), and times each request from when it was *due* to when its answer
arrived.  The layer numbers come from the server's own ``stats`` and
``health`` control lines after the stream; no code is injected into the
server.
"""

from __future__ import annotations

import asyncio
import gc
import json
import signal
import subprocess
import sys
import threading
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Optional

from repro.service.planner import naive_dispatch
from repro.service.wire import QueryRequest, dump_request_line, dump_result_line, request_cache_key

import streams
from measure import ROOT, child_pids, peak_rss_mb, service_env

SERVER_ARGS = ["-m", "repro.service", "serve", "--shards", "2", "--port", "0"]

#: A run whose generator sent its p99 request later than this after its due
#: time is invalid: its latencies would describe the client, not the server.
#: One server window timer (20 ms): a later send lands in a different window.
LAG_LIMIT_MS = 20.0

#: Seconds the client waits for the last answer after the last send.
ANSWER_GRACE = 60.0

#: Spare seconds before the first due time, so the schedule starts on time.
LEAD = 0.05


class Server:
    """One server subprocess: spawn, wait until it answers ``ping``, stop."""

    def __init__(self) -> None:
        self.started = perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, *SERVER_ARGS],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            env=service_env(),
            cwd=ROOT,
            text=True,
        )
        self.host, self.port = self._announced_address()
        # Keep reading stderr so the server never blocks on a full pipe.
        self._stderr = threading.Thread(target=self.process.stderr.read, daemon=True)
        self._stderr.start()

    def _announced_address(self) -> tuple[str, int]:
        for line in self.process.stderr:
            if "serving on" in line:
                host, _, port = line.rsplit(" ", 1)[1].strip().rpartition(":")
                return host, int(port)
        self.stop()
        raise RuntimeError(f"server exited before listening (exit {self.process.returncode})")

    async def ready_seconds(self) -> float:
        """Spawn-to-first-``pong`` time."""
        reader, writer = await asyncio.open_connection(self.host, self.port)
        writer.write(b'{"control":"ping"}\n')
        await writer.drain()
        line = await reader.readline()
        ready = perf_counter() - self.started
        writer.close()
        await writer.wait_closed()
        if json.loads(line).get("control") != "pong":
            raise RuntimeError(f"unexpected ping answer {line!r}")
        return ready

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the server and its worker processes, summed."""
        pid = self.process.pid
        return peak_rss_mb(pid) + sum(peak_rss_mb(child) for child in child_pids(pid))

    def stop(self) -> None:
        """Graceful drain on SIGTERM; kill if it does not exit in time."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=30)
        if self.process.stderr is not None:
            if hasattr(self, "_stderr"):
                self._stderr.join(timeout=5)
            self.process.stderr.close()


@dataclass
class ServedOutcome:
    attempted: int = 0
    failed: int = 0
    answered: int = 0  # correct answers
    wall: float = 0.0
    latencies: list[float] = field(default_factory=list)  # seconds after due, answered requests
    lags: list[float] = field(default_factory=list)  # seconds the send ran behind its due time
    setup: list[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    stats: dict = field(default_factory=dict)
    health: dict = field(default_factory=dict)


def expected_lines(requests: list[QueryRequest]) -> list[str]:
    """``naive_dispatch`` answers, computed once per distinct request and re-stamped per id."""
    first: dict[str, QueryRequest] = {}
    for request in requests:
        first.setdefault(request_cache_key(request), request)
    distinct = list(first.values())
    by_key = {request_cache_key(r): result for r, result in zip(distinct, naive_dispatch(distinct))}
    return [dump_result_line(replace(by_key[request_cache_key(r)], id=r.id)) for r in requests]


async def _control(reader, writer, operation: str) -> dict:
    writer.write(json.dumps({"control": operation}).encode() + b"\n")
    await writer.drain()
    return json.loads(await reader.readline())[operation]


async def _drive(server: Server, stream: streams.ServedStream, expected: list[str], outcome: ServedOutcome) -> None:
    lines = [dump_request_line(request).encode() + b"\n" for request in stream.requests]
    count = len(lines)
    sent: list[Optional[float]] = [None] * count
    answered: list[Optional[float]] = [None] * count
    answers: list[Optional[str]] = [None] * count
    connections = []
    for _ in range(streams.SERVED_CONNECTIONS):
        connections.append(await asyncio.open_connection(server.host, server.port, limit=1 << 24))
    order: list[list[int]] = [[] for _ in connections]
    for position in range(count):
        order[stream.connection_of(position)].append(position)

    async def receive(reader, positions: list[int]) -> None:
        for position in positions:
            line = await reader.readline()
            if not line:
                return  # connection closed: the rest are missing
            answered[position] = perf_counter()
            answers[position] = line.decode().rstrip("\n")

    receivers = [
        asyncio.ensure_future(receive(reader, positions))
        for (reader, _), positions in zip(connections, order)
    ]
    start = perf_counter() + LEAD
    for position in range(count):
        delay = start + stream.due[position] - perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        writer = connections[stream.connection_of(position)][1]
        try:
            writer.write(lines[position])
        except (ConnectionError, OSError):
            continue  # counted as missing below
        sent[position] = perf_counter()
    done, pending = await asyncio.wait(receivers, timeout=ANSWER_GRACE)
    for task in pending:
        task.cancel()
    for task in done:
        task.result()
    last = max((t for t in answered if t is not None), default=start)
    outcome.wall = last - start - stream.due[0]

    reader, writer = connections[0]
    outcome.stats = await _control(reader, writer, "stats")
    outcome.health = await _control(reader, writer, "health")
    for _, writer in connections:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    outcome.attempted = count
    for position in range(count):
        due = start + stream.due[position]
        if sent[position] is not None:
            outcome.lags.append(sent[position] - due)
        if answered[position] is None or answers[position] != expected[position] or '"ok":true' not in expected[position]:
            outcome.failed += 1
        else:
            outcome.answered += 1
            if position >= stream.scored_from:
                outcome.latencies.append(answered[position] - due)


def run(seed: int, seconds: float, setups_per_replay: int) -> tuple[list[ServedOutcome], streams.ServedStream, list[str]]:
    """Serve the seeded stream once on each of ``streams.PASSES`` (tenants_served) freshly spawned servers.

    Before each serving spawn, ``setups_per_replay - 1`` servers are spawned
    only to time their set-up, so the set-up samples spread over the run.
    """
    stream = streams.served_stream(seed, seconds)
    expected = expected_lines(stream.requests)
    replays = []
    for _ in range(streams.PASSES["tenants_served"]):
        outcome = ServedOutcome()
        for attempt in range(setups_per_replay):
            server = Server()
            try:
                outcome.setup.append(asyncio.run(server.ready_seconds()))
                if attempt == setups_per_replay - 1:
                    # No collector pauses in the client while it keeps the schedule.
                    gc.collect()
                    gc.disable()
                    try:
                        asyncio.run(_drive(server, stream, expected, outcome))
                    finally:
                        gc.enable()
                    outcome.peak_rss_mb = server.peak_rss_mb()
            finally:
                server.stop()
        replays.append(outcome)
    return replays, stream, expected
