"""``python -m repro.service`` — serve a JSONL request stream, batch or continuous.

Two modes share one wire format and one :class:`~repro.service.config.ServiceConfig`:

* **file mode** (default): ``python -m repro.service [FILE|-]`` answers a
  pre-collected stream from a file or stdin, one wire-encoded
  :class:`~repro.service.wire.QueryRequest` per line, one result line out,
  in input order.  The decoded stream goes to one backend's
  ``execute_many``: the in-process session, or with ``--shards N`` the
  multiprocess executor; both produce byte-identical output
  (``tests/test_service_cli.py`` pins this end-to-end on a 200-request mix).
* **serve mode**: ``python -m repro.service serve`` starts the asyncio
  socket server (:mod:`repro.service.server`) speaking the same JSONL
  protocol continuously, with micro-batch windows that close on an empty
  backlog or at ``--max-batch`` requests, bounded-queue backpressure
  (``--queue-limit``, ``--overload block|shed``) and graceful drain on
  SIGINT/SIGTERM.  The bound address is announced on stderr (``--port 0``
  picks an ephemeral port); ``--stats`` prints the latency/window statistics
  on shutdown.

``--stats`` prints one canonical-JSON line to stderr in either mode.

A malformed line becomes an ``ok=false`` result at its position — the stream
always gets exactly one answer per request.  Error results echo the
request's own ``id`` whenever the line parsed far enough to carry one, and
fall back to the file line number (``"lineN"``) only for unparseable lines.

Session dependencies (the base Γ for requests that do not carry their own)
are given with ``--dependencies "A = A*B; B = B*C"`` in either mode.

``--trace`` (either mode) mints a trace id per request and records per-stage
spans; ``--metrics-dir DIR`` dumps spans, per-work-unit cost records and the
metrics registry as JSONL into ``DIR``.  Result lines are byte-identical
with and without telemetry (see :mod:`repro.service.telemetry`).

``--snapshot-dir DIR`` (either mode, any ``--shards``): when
``DIR/session.snapshot.json`` exists the session is restored from it — each
tenant's Γ and generation, with the result cache that answers the captured
requests without kernel work; every index is rebuilt from Γ — and a fresh
snapshot of the session is saved after the stream (file mode) or on drain
(serve mode).  With ``--shards N`` the session is the executor's
parent-side one, whose Γs boot the workers.  A live server can also be
snapshotted with the ``{"control": "snapshot"}`` line.  See
:mod:`repro.service.snapshot`.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import signal
import sys
import time
from collections.abc import Sequence
from typing import Optional, TextIO

from repro.errors import ServiceError
from repro.service import telemetry
from repro.service.config import ServiceConfig, add_config_arguments, config_from_args
from repro.service.executor import ShardExecutor
from repro.service.planner import plan_summary
from repro.service.wire import (
    canonical_dumps,
    dump_result_line,
    error_result_for_line,
    load_request_line,
)


def _read_numbered_lines(stream: TextIO) -> list[tuple[int, str]]:
    """Non-blank lines paired with their 1-based position in the *file*."""
    return [(number, line.strip()) for number, line in enumerate(stream, 1) if line.strip()]


def serve_lines(
    lines: Sequence,
    config: Optional[ServiceConfig] = None,
) -> tuple[list[str], dict]:
    """Answer request lines; returns (result lines in input order, stats dict).

    ``lines`` holds either bare request strings (numbered from 1) or
    ``(file_line_number, text)`` pairs, so error results name the line of the
    *original file* even when blank lines were skipped.  Each line is decoded
    exactly once: undecodable lines become structured error results in place
    (echoing the request id when one parsed), and the decoded remainder goes
    to ``config``'s backend (the default config when ``None``).  With
    ``config.stats`` an in-process run's stats carry a ``plan`` summary.
    """
    config = config or ServiceConfig()
    numbered = [
        (position + 1, line) if isinstance(line, str) else line
        for position, line in enumerate(lines)
    ]
    out: list[Optional[str]] = [None] * len(numbered)
    positions: list[int] = []
    requests = []
    for position, (line_number, text) in enumerate(numbered):
        try:
            requests.append(load_request_line(text))
        except ServiceError as exc:
            out[position] = dump_result_line(error_result_for_line(text, line_number, exc))
        else:
            positions.append(position)

    config.install_hooks()
    traced = telemetry.enabled()
    if traced:
        # Stamp a trace id on every decoded request (preserving any the wire
        # carried).  With telemetry off the original requests are reused
        # untouched — the traced and untraced paths must not diverge on
        # anything but the trace ids themselves.
        requests = [telemetry.begin_request(request) for request in requests]

    started = time.perf_counter()
    # make_session() restores from --snapshot-dir when a snapshot exists, so
    # a previous run's cached answers answer this one without kernel work.
    session = config.make_session()
    backend = config.make_backend(session=session)
    try:
        results = backend.execute_many(requests)
    finally:
        if isinstance(backend, ShardExecutor):
            backend.close()
    executed_at = time.perf_counter()
    elapsed = executed_at - started

    if len(results) != len(requests):  # loud, not misaligned
        raise ServiceError(f"backend answered {len(results)} of {len(requests)} decoded requests")
    for position, result in zip(positions, results):
        out[position] = dump_result_line(result)
    if traced:
        # One span tree per decoded request — file mode has no micro-batch
        # ticket, so the whole-stream dispatch stamps delimit every stage.
        responded_at = time.perf_counter()
        for request, result in zip(requests, results):
            telemetry.record_request(
                request,
                result,
                enqueued_at=started,
                planned_at=started,
                executed_at=executed_at,
                responded_at=responded_at,
            )
        if config.metrics_dir is not None:
            telemetry.flush()
    stats = {
        "requests": len(numbered),
        "invalid": len(numbered) - len(positions),
        "elapsed_seconds": elapsed,
        "mode": config.backend_name,
    }
    # Re-planning the stream just to describe it is not free; only do it
    # when the caller will actually print the stats.
    if config.stats and requests and config.shards == 1:
        stats["plan"] = plan_summary(requests)
    if config.snapshot_dir is not None:
        from repro.service.snapshot import save_snapshot

        stats["snapshot"] = str(save_snapshot(session, config.snapshot_dir))
    return out, stats


def batch_main(argv: Sequence[str]) -> int:
    """The file/stdin mode (the original CLI surface)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Answer a JSONL stream of partition-semantics queries "
        "(or run 'serve' for the continuous socket server).",
    )
    parser.add_argument(
        "input",
        nargs="?",
        default="-",
        help="request file (JSONL), or '-' for stdin (default)",
    )
    parser.add_argument("-o", "--output", default="-", help="result file, or '-' for stdout")
    add_config_arguments(parser, serve=False)
    args = parser.parse_args(argv)

    try:
        config = config_from_args(args)
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.input == "-":
        lines = _read_numbered_lines(sys.stdin)
    else:
        try:
            with open(args.input, "r", encoding="utf-8") as handle:
                lines = _read_numbered_lines(handle)
        except OSError as exc:
            print(f"error: cannot read {args.input!r}: {exc}", file=sys.stderr)
            return 2

    result_lines, stats = serve_lines(lines, config=config)

    text = "".join(line + "\n" for line in result_lines)
    if args.output == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.output!r}: {exc}", file=sys.stderr)
            return 2

    if config.stats:
        print(f"repro.service stats: {canonical_dumps(stats)}", file=sys.stderr)
    return 0


async def _serve(config: ServiceConfig) -> None:
    """Run the socket server until SIGINT/SIGTERM, then drain gracefully."""
    from repro.service.server import QueryServer

    server = QueryServer(config)
    host, port = await server.start()
    print(f"repro.service serving on {host}:{port}", file=sys.stderr, flush=True)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        with contextlib.suppress(NotImplementedError, ValueError):
            loop.add_signal_handler(signum, stop.set)
    try:
        await stop.wait()
    finally:
        print("repro.service draining...", file=sys.stderr, flush=True)
        await server.drain()
        if config.stats:
            print(
                f"repro.service stats: {canonical_dumps(server.stats_snapshot())}",
                file=sys.stderr,
                flush=True,
            )


def serve_main(argv: Sequence[str]) -> int:
    """The continuous serve mode (``python -m repro.service serve``)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.service serve",
        description="Continuously serve partition-semantics queries over a socket "
        "(JSONL in, JSONL out, micro-batched).",
    )
    add_config_arguments(parser, serve=True)
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        asyncio.run(_serve(config))
    except KeyboardInterrupt:
        pass
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "serve":
        return serve_main(argv[1:])
    return batch_main(argv)
