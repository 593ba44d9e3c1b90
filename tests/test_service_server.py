"""End-to-end acceptance for continuous serving: the asyncio socket server.

The serving contract, pinned over real sockets:

* the 200-request acceptance stream (the same seeded mix the file-CLI test
  uses) is answered **byte-identically** to the in-process batch pipeline —
  over a single connection, and over 8 concurrent connections with the
  stream split round-robin (per-connection order preserved while the
  micro-batcher windows across connections);
* control lines (``stats``/``ping``) answer in-order with latency
  percentiles and window occupancy;
* undecodable lines become error results that echo the request ``id`` when
  one parsed, falling back to the connection line number;
* graceful drain answers everything admitted even when the open window's
  timer is nowhere near firing;
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
        config = ServiceConfig(max_wait_ms=5.0, max_batch=32)
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
            config = ServiceConfig(max_wait_ms=10.0, max_batch=32)
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
        config = ServiceConfig(shards=2, max_wait_ms=10.0, max_batch=32)
        lines, stats = run(serve_stream(requests_to_jsonl(prefix), config))
        assert lines == expected_lines[:60]
        assert stats["server"]["mode"] == "shards=2"


class TestControlLines:
    def test_stats_ping_and_unknown_control_answer_in_order(self):
        request = '{"v":1,"kind":"implies","id":"r1","query":"A = A"}'
        lines = [
            '{"control":"ping"}',
            request,
            '{"control":"stats"}',
            '{"control":"reboot"}',
        ]

        async def scenario():
            async with QueryServer(ServiceConfig(max_wait_ms=5.0)) as server:
                return await _converse(server.host, server.port, lines)

        pong, answer, stats_line, unknown = run(scenario())
        assert json.loads(pong) == {"control": "pong"}
        assert load_result_line(answer).ok
        stats = json.loads(stats_line)
        assert stats["control"] == "stats"
        latency = stats["stats"]["latency_ms"]["total"]
        assert set(latency) >= {"p50", "p95", "p99", "mean", "max", "samples"}
        assert set(stats["stats"]["windows"]) >= {"count", "mean_size", "occupancy", "closed_by"}
        assert stats["stats"]["server"]["window"]["overload"] == "block"
        bad = json.loads(unknown)
        assert bad["error"]["type"] == "ServiceError"
        assert "reboot" in bad["error"]["message"]


class TestErrorResults:
    def test_error_results_echo_parseable_ids_and_fall_back_to_line_numbers(self):
        lines = [
            '{"v":1,"kind":"implies","id":"good","query":"A = A"}',
            '{"kind":"implies","id":"no-query"}',  # valid JSON, invalid request
            "utter garbage",  # not JSON at all
        ]

        async def scenario():
            async with QueryServer(ServiceConfig(max_wait_ms=5.0)) as server:
                return await _converse(server.host, server.port, lines)

        good, bad_request, garbage = (load_result_line(line) for line in run(scenario()))
        assert good.ok and good.id == "good"
        assert not bad_request.ok
        assert bad_request.id == "no-query"  # the id parsed, so it is echoed
        assert not garbage.ok
        assert garbage.id == "line3"  # nothing parsed: the connection line number


class TestDrain:
    def test_drain_answers_admitted_requests_without_waiting_for_the_window_timer(self):
        requests = [
            f'{{"v":1,"kind":"implies","id":"d{i}","query":"A = A * B"}}' for i in range(3)
        ]

        async def scenario():
            # A one-minute window: only drain can close it promptly.
            config = ServiceConfig(max_wait_ms=60_000.0, max_batch=100)
            server = QueryServer(config)
            host, port = await server.start()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(("".join(line + "\n" for line in requests)).encode("utf-8"))
            await writer.drain()  # no EOF: the connection stays open
            await _poll(lambda: server.metrics.value("requests.submitted") >= 3)
            started = time.perf_counter()
            await server.drain()
            elapsed = time.perf_counter() - started
            answers = [await reader.readline() for _ in requests]
            trailer = await reader.readline()
            writer.close()
            return answers, trailer, elapsed, server.metrics

        answers, trailer, elapsed, stats = run(scenario(), timeout=30)
        assert elapsed < 30.0  # nowhere near the 60 s window timer
        decoded = [load_result_line(a.decode("utf-8").strip()) for a in answers]
        assert [r.id for r in decoded] == ["d0", "d1", "d2"]
        assert all(r.ok for r in decoded)
        assert trailer == b""  # the server closed the connection after draining
        assert stats.value("windows.closed_by.drain") == 1


class GatedSession(Session):
    """A session whose window execution blocks until the test releases it."""

    def __init__(self):
        super().__init__()
        self.gate = threading.Event()

    def execute_many(self, requests):
        self.gate.wait(timeout=30)
        return super().execute_many(requests)


class TestOverloadShed:
    def test_surplus_requests_are_shed_with_well_formed_errors(self):
        requests = [
            f'{{"v":1,"kind":"implies","id":"s{i}","query":"A = A"}}' for i in range(3)
        ]

        async def scenario():
            session = GatedSession()
            config = ServiceConfig(
                max_wait_ms=0.0, max_batch=1, queue_limit=1, overload="shed"
            )
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
                    b'{"v":1,"kind":"implies","id":"live","query":"A = A * B","dependencies":["A = A * B"]}\n'
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
