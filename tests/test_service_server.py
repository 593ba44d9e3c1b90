"""End-to-end acceptance for continuous serving: the asyncio socket server.

The serving contract, pinned over real sockets:

* the 200-request acceptance stream (the same seeded mix the file-CLI test
  uses) is answered **byte-identically** to the in-process batch pipeline —
  over a single connection, and over 8 concurrent connections with the
  stream split round-robin (per-connection order preserved while the
  micro-batcher windows across connections);
* control lines (``stats``/``ping``) answer in-order with latency
  percentiles, window occupancy and the exact window schema;
* a window closes on an empty backlog: a lone request on an idle server
  rides a window of one, and requests sent from several connections while
  a window executes coalesce into the next one;
* undecodable lines become error results that echo the request ``id`` when
  one parsed, falling back to the connection line number;
* graceful drain answers everything admitted, including requests queued
  behind a window that is still executing;
* the ``shed`` overload policy answers surplus requests with well-formed
  ``Overloaded`` error results while admitted requests still succeed;
* ``python -m repro.service serve`` announces its port, serves, and drains
  cleanly on SIGINT.
"""

import asyncio
import json
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.service.config import ServiceConfig
from repro.service.planner import execute_plan
from repro.service.server import QueryServer, serve_stream
from repro.service.session import Session
from repro.service.wire import (
    dump_request_line,
    dump_result_line,
    load_result_line,
    requests_to_jsonl,
)
from repro.workloads.random_service import random_service_requests

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = str(REPO_ROOT / "src")


def run(coro, timeout=120):
    return asyncio.run(asyncio.wait_for(coro, timeout))


@pytest.fixture(scope="module")
def acceptance_stream():
    """The mixed 200-request stream of the acceptance criterion (same seed as the CLI test)."""
    return random_service_requests(
        200,
        seed=20260730,
        attribute_count=5,
        theory_count=2,
        pds_per_theory=3,
        max_complexity=2,
        kind_weights={"implies": 5, "equivalent": 3, "consistent": 3, "counterexample": 1},
    )


@pytest.fixture(scope="module")
def expected_lines(acceptance_stream):
    """Direct in-process batch-pipeline answers (the byte-identity oracle)."""
    return [dump_result_line(r) for r in execute_plan(Session(), acceptance_stream)]


async def _converse(host, port, lines):
    """Send request lines over one connection; return the same number of answers."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(("".join(line + "\n" for line in lines)).encode("utf-8"))
        await writer.drain()
        writer.write_eof()
        answers = []
        for _ in lines:
            raw = await reader.readline()
            assert raw, "server closed the connection before answering"
            answers.append(raw.decode("utf-8").rstrip("\n"))
        return answers
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def _poll(predicate, timeout=10.0):
    deadline = time.perf_counter() + timeout
    while not predicate():
        assert time.perf_counter() < deadline, "polling timed out"
        await asyncio.sleep(0.002)


class TestByteIdentity:
    def test_single_connection_matches_batch_pipeline(self, acceptance_stream, expected_lines):
        config = ServiceConfig(max_batch=32)
        lines, stats = run(serve_stream(requests_to_jsonl(acceptance_stream), config))
        assert lines == expected_lines
        assert stats["requests"]["answered"] == len(acceptance_stream)
        assert stats["requests"]["shed"] == 0
        assert stats["windows"]["count"] >= 1

    def test_eight_concurrent_connections_preserve_per_connection_order(
        self, acceptance_stream, expected_lines
    ):
        by_id = {req.id: line for req, line in zip(acceptance_stream, expected_lines)}
        slices = [acceptance_stream[i::8] for i in range(8)]

        async def scenario():
            config = ServiceConfig(max_batch=32)
            async with QueryServer(config) as server:
                host, port = server.host, server.port
                answers = await asyncio.gather(
                    *(
                        _converse(host, port, [dump_request_line(r) for r in part])
                        for part in slices
                    )
                )
                return answers, server.stats_snapshot()

        answers, stats = run(scenario())
        for part, got in zip(slices, answers):
            assert got == [by_id[req.id] for req in part]
        assert stats["requests"]["answered"] == len(acceptance_stream)
        assert stats["server"]["connections_served"] == 8
        # Batching across connections is the point: windows must coalesce
        # requests from different sockets, not degrade to one per request.
        assert stats["windows"]["max_size"] > 1

    def test_sharded_backend_serves_byte_identically(self, acceptance_stream, expected_lines):
        prefix = acceptance_stream[:60]
        config = ServiceConfig(shards=2, max_batch=32)
        lines, stats = run(serve_stream(requests_to_jsonl(prefix), config))
        assert lines == expected_lines[:60]
        assert stats["server"]["mode"] == "shards=2"


class TestControlLines:
    def test_stats_ping_and_unknown_control_answer_in_order(self):
        request = '{"v":3,"kind":"implies","id":"r1","query":"A = A"}'
        lines = [
            '{"control":"ping"}',
            request,
            '{"control":"stats"}',
            '{"control":"reboot"}',
        ]

        async def scenario():
            async with QueryServer(ServiceConfig()) as server:
                return await _converse(server.host, server.port, lines)

        pong, answer, stats_line, unknown = run(scenario())
        assert json.loads(pong) == {"control": "pong"}
        assert load_result_line(answer).ok
        stats = json.loads(stats_line)
        assert stats["control"] == "stats"
        latency = stats["stats"]["latency_ms"]["total"]
        assert set(latency) >= {"p50", "p95", "p99", "mean", "max", "samples"}
        assert set(stats["stats"]["windows"]) >= {"count", "mean_size", "occupancy", "closed_by"}
        assert set(stats["stats"]["windows"]["closed_by"]) == {"size", "idle", "drain"}
        assert set(stats["stats"]["server"]["window"]) == {"max_batch", "queue_limit", "overload"}
        assert stats["stats"]["server"]["window"]["overload"] == "block"
        bad = json.loads(unknown)
        assert bad["error"]["type"] == "ServiceError"
        assert "reboot" in bad["error"]["message"]


class TestErrorResults:
    def test_error_results_echo_parseable_ids_and_fall_back_to_line_numbers(self):
        lines = [
            '{"v":3,"kind":"implies","id":"good","query":"A = A"}',
            '{"kind":"implies","id":"no-query"}',  # valid JSON, invalid request
            "utter garbage",  # not JSON at all
        ]

        async def scenario():
            async with QueryServer(ServiceConfig()) as server:
                return await _converse(server.host, server.port, lines)

        good, bad_request, garbage = (load_result_line(line) for line in run(scenario()))
        assert good.ok and good.id == "good"
        assert not bad_request.ok
        assert bad_request.id == "no-query"  # the id parsed, so it is echoed
        assert not garbage.ok
        assert garbage.id == "line3"  # nothing parsed: the connection line number

    def test_old_wire_versions_get_one_in_place_invalid_result(self):
        lines = [
            '{"v":1,"kind":"implies","id":"old1","query":"A = A"}',
            '{"v":3,"kind":"implies","id":"good","query":"A = A"}',
            '{"v":2,"kind":"implies","id":"old2","query":"A = A"}',
        ]

        async def scenario():
            async with QueryServer(ServiceConfig()) as server:
                return await _converse(server.host, server.port, lines)

        old1, good, old2 = (load_result_line(line) for line in run(scenario()))
        assert good.ok and good.id == "good"
        for result, version in ((old1, 1), (old2, 2)):
            assert (result.kind, result.ok, result.id) == ("invalid", False, f"old{version}")
            assert result.error == {
                "type": "ServiceError",
                "message": f"request uses version {version}; this service speaks version 3",
            }


class GatedSession(Session):
    """A session whose window execution blocks until the test releases it."""

    def __init__(self):
        super().__init__()
        self.gate = threading.Event()

    def execute_many(self, requests):
        self.gate.wait(timeout=30)
        return super().execute_many(requests)


class TestIdleWindows:
    def test_lone_request_on_an_idle_server_rides_a_window_of_one(self):
        request = '{"v":3,"kind":"implies","id":"lone","query":"A = A"}'

        async def scenario():
            async with QueryServer(ServiceConfig()) as server:
                answers = await _converse(server.host, server.port, [request])
                return answers, server.stats_snapshot()

        (answer,), stats = run(scenario())
        assert load_result_line(answer).ok
        windows = stats["windows"]
        assert (windows["count"], windows["max_size"]) == (1, 1)
        assert windows["closed_by"] == {"size": 0, "idle": 1, "drain": 0}

    def test_requests_from_several_connections_coalesce_behind_a_running_window(self):
        connections = 4
        per_connection = 3
        slices = [
            [
                f'{{"v":3,"kind":"implies","id":"c{c}r{r}","query":"A = A * B"}}'
                for r in range(per_connection)
            ]
            for c in range(connections)
        ]
        backlog = connections * per_connection
        first_line = '{"v":3,"kind":"implies","id":"w1","query":"A = A"}'

        async def scenario():
            session = GatedSession()
            server = QueryServer(ServiceConfig(max_batch=32), session=session)
            await server.start()
            try:
                # The first request's window blocks on the gate ...
                first = asyncio.ensure_future(_converse(server.host, server.port, [first_line]))
                await _poll(lambda: server.metrics.value("windows.count") >= 1)
                # ... while every connection's requests queue behind it.
                others = [
                    asyncio.ensure_future(_converse(server.host, server.port, lines))
                    for lines in slices
                ]
                await _poll(lambda: server.metrics.value("requests.submitted") >= 1 + backlog)
                session.gate.set()
                answers = await asyncio.gather(first, *others)
                return answers, server.stats_snapshot()
            finally:
                session.gate.set()
                await server.drain()

        answers, stats = run(scenario(), timeout=60)
        assert [load_result_line(line).id for line in answers[0]] == ["w1"]
        for lines, got in zip(slices, answers[1:]):
            decoded = [load_result_line(line) for line in got]
            assert [r.id for r in decoded] == [json.loads(line)["id"] for line in lines]
            assert all(r.ok for r in decoded)
        windows = stats["windows"]
        assert windows["count"] == 2
        assert windows["max_size"] == backlog
        assert windows["closed_by"] == {"size": 0, "idle": 2, "drain": 0}


class TestDrain:
    def test_drain_answers_requests_admitted_behind_a_running_window(self):
        requests = [
            f'{{"v":3,"kind":"implies","id":"d{i}","query":"A = A * B"}}' for i in range(3)
        ]

        async def scenario():
            session = GatedSession()
            server = QueryServer(ServiceConfig(max_batch=100), session=session)
            host, port = await server.start()
            try:
                reader, writer = await asyncio.open_connection(host, port)
                # d0 rides a window that blocks on the gate ...
                writer.write((requests[0] + "\n").encode("utf-8"))
                await writer.drain()
                await _poll(lambda: server.metrics.value("windows.count") >= 1)
                # ... so d1 and d2 are admitted and still unanswered at drain.
                writer.write(("".join(line + "\n" for line in requests[1:])).encode("utf-8"))
                await writer.drain()  # no EOF: the connection stays open
                await _poll(lambda: server.metrics.value("requests.submitted") >= 3)
                draining = asyncio.ensure_future(server.drain())
                # The drain sentinel queues behind d1 and d2 before the gate opens.
                await _poll(lambda: server._batcher._queue.qsize() == 3)
                session.gate.set()
                await draining
                answers = [await reader.readline() for _ in requests]
                trailer = await reader.readline()
                writer.close()
                return answers, trailer, server.metrics
            finally:
                session.gate.set()
                await server.drain()

        answers, trailer, stats = run(scenario(), timeout=30)
        decoded = [load_result_line(a.decode("utf-8").strip()) for a in answers]
        assert [r.id for r in decoded] == ["d0", "d1", "d2"]
        assert all(r.ok for r in decoded)
        assert trailer == b""  # the server closed the connection after draining
        assert stats.value("windows.closed_by.drain") == 1


class TestOverloadShed:
    def test_surplus_requests_are_shed_with_well_formed_errors(self):
        requests = [
            f'{{"v":3,"kind":"implies","id":"s{i}","query":"A = A"}}' for i in range(3)
        ]

        async def scenario():
            session = GatedSession()
            config = ServiceConfig(max_batch=1, queue_limit=1, overload="shed")
            server = QueryServer(config, session=session)
            host, port = await server.start()
            try:
                reader, writer = await asyncio.open_connection(host, port)
                stats = server.metrics

                # s0 is dequeued into a window that blocks on the gate.
                writer.write((requests[0] + "\n").encode("utf-8"))
                await writer.drain()
                await _poll(lambda: stats.value("windows.count") >= 1)
                # s1 fills the admission queue (queue_limit=1).
                writer.write((requests[1] + "\n").encode("utf-8"))
                await writer.drain()
                await _poll(lambda: stats.value("requests.submitted") >= 2)
                # s2 finds the queue full and is shed immediately.
                writer.write((requests[2] + "\n").encode("utf-8"))
                await writer.drain()
                await _poll(lambda: stats.value("requests.shed") >= 1)

                session.gate.set()
                writer.write_eof()
                answers = []
                for _ in requests:
                    raw = await reader.readline()
                    assert raw
                    answers.append(load_result_line(raw.decode("utf-8").strip()))
                writer.close()
                return answers, stats
            finally:
                session.gate.set()
                await server.drain()

        answers, stats = run(scenario(), timeout=60)
        assert [r.id for r in answers] == ["s0", "s1", "s2"]  # per-connection order holds
        assert answers[0].ok and answers[1].ok
        shed = answers[2]
        assert not shed.ok
        assert shed.error["type"] == "Overloaded"
        assert "queue full" in shed.error["message"]
        assert stats.value("requests.shed") == 1


class TestServeCommand:
    def test_serve_mode_announces_port_serves_and_drains_on_sigint(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "serve", "--port", "0", "--stats"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
            cwd=str(REPO_ROOT),
        )
        try:
            banner = proc.stderr.readline()
            assert "repro.service serving on " in banner, banner
            address = banner.rsplit(" ", 1)[-1].strip()
            host, port = address.rsplit(":", 1)

            with socket.create_connection((host, int(port)), timeout=30) as conn:
                conn.sendall(
                    b'{"v":3,"kind":"implies","id":"live","query":"A = A * B","dependencies":["A = A * B"]}\n'
                    b'{"control":"ping"}\n'
                )
                stream = conn.makefile("r", encoding="utf-8")
                answer = load_result_line(stream.readline().strip())
                assert answer.ok and answer.id == "live"
                assert answer.value == {"implied": True}
                assert json.loads(stream.readline()) == {"control": "pong"}

            proc.send_signal(signal.SIGINT)
            _, stderr_rest = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0
        assert "draining" in stderr_rest
        assert "repro.service stats" in stderr_rest
