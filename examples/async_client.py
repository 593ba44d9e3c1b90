"""Continuous serving end to end: an async client driving the socket server.

Starts a :class:`~repro.service.server.QueryServer` in-process on an
ephemeral port, then acts as several concurrent clients against it:

1. a burst of typed requests from three connections at once — the server's
   micro-batcher windows them *across* connections, so the batch planner's
   amortization survives live traffic while each connection still gets its
   answers in its own order;
2. a ``{"control": "stats"}`` line showing the latency percentiles
   (enqueue → respond, per stage) and window occupancy;
3. a graceful drain — every admitted request is answered before shutdown.

The same JSONL protocol works against a standalone server started with
``python -m repro.service serve --port 8765``; point :func:`client` at it.

Run with ``python examples/async_client.py`` (needs ``src`` on the path,
e.g. ``PYTHONPATH=src``).
"""

import asyncio
import json

from repro.service import (
    QueryServer,
    ServiceConfig,
    dump_request_line,
    implies_request,
    load_result_line,
)


async def client(host: str, port: int, name: str, lines: list[str]) -> list[str]:
    """One connection: send every line, collect one answer per line, in order."""
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(("".join(line + "\n" for line in lines)).encode())
    await writer.drain()
    writer.write_eof()
    answers = []
    for _ in lines:
        answers.append((await reader.readline()).decode().rstrip("\n"))
    writer.close()
    await writer.wait_closed()
    print(f"  [{name}] {len(answers)} answers, ids in order:",
          [load_result_line(a).id for a in answers])
    return answers


async def _main() -> None:
    theory = ["A = A*B", "B = B*C"]
    config = ServiceConfig(max_batch=32).with_dependencies("; ".join(theory))

    async with QueryServer(config) as server:
        host, port = server.host, server.port
        print(f"== server listening on {host}:{port} ==")

        print("\n== 1. Three concurrent connections, one shared micro-batcher ==")
        streams = [
            [
                dump_request_line(implies_request("A = A*C", id=f"{who}-transitive")),
                dump_request_line(implies_request("C", "C * A", id=f"{who}-converse")),
            ]
            for who in ("alice", "bob", "carol")
        ]
        answers = await asyncio.gather(
            *(client(host, port, who, lines)
              for who, lines in zip(("alice", "bob", "carol"), streams))
        )
        verdicts = {load_result_line(a).id: load_result_line(a).value["implied"]
                    for conn in answers for a in conn}
        print("  verdicts:", verdicts)

        print("\n== 2. The stats control line ==")
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(b'{"control":"stats"}\n')
        await writer.drain()
        stats = json.loads(await reader.readline())["stats"]
        writer.close()
        await writer.wait_closed()
        print("  windows:   ", stats["windows"])
        print("  total (ms):", stats["latency_ms"]["total"])

        print("\n== 3. Graceful drain ==")
    # Leaving the `async with` drained the server: listener closed, every
    # admitted request answered, batcher and worker stopped.
    print("  drained; answered =", stats["requests"]["answered"])


def main() -> None:
    asyncio.run(_main())


if __name__ == "__main__":
    main()
