"""Run one workload and turn what it measured into named metrics.

End-to-end metrics (``--trace 0``) are defined on every workload:

``setup_s``
    Median start-to-ready time over the run's set-ups: for tenants_served,
    server spawn to its first ``pong``; for the in-process workloads, a fresh
    interpreter importing the service and building (and seeding) its session.
``throughput_rps``
    Requests (gamma_growth: reads) answered per second of stream time.
``latency_p50_ms`` / ``latency_p99_ms``
    Per-request latency.  tenants_served: from the request's due time to its
    answer.  In-process workloads: the time of the window that carried
    the request (a closed-loop caller waits for the window).
``write_p50_ms`` / ``write_p90_ms``
    Latency of ``Session.add_dependencies``.  gamma_growth measures its own
    writes; the other workloads send none, so they report the write probe
    (:func:`inproc.write_probe`), run once before their stream.
``peak_rss_mb``
    Peak resident memory of the serving process(es) while the stream ran.

Window and write timings of work served in this process (the in-process
streams and every write probe) are in reference seconds (:mod:`speed`): a
pass times the machine-speed probe between its units of work and scales its
timings by ``REFERENCE_SECONDS / mean probe time``.  In-process
``setup_s`` is scaled by the mean of the run's pass scales, a run-level
reading of the machine: the set-ups themselves run in other processes.
tenants_served's set-up, latencies and throughput stay on the wall clock:
scaling them by its write probe's scale made them noisier.

Failed answers are reported as the result's ``failed`` / ``attempted`` (the
``failed_share`` of the benchmark's docs); a metric that is 0 on correct code
cannot carry a relative bound.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass, field
from time import perf_counter

from repro.service.planner import plan
from repro.service.wire import (
    dump_request_line,
    dump_result_line,
    encode_pd,
    load_request_line,
    load_result_line,
    request_cache_key,
)

import inproc
import served
import streams
from measure import OUT, peak_rss_mb, percentile, ready_time, reset_peak_rss
from metrics import PER_LAYER_UNITS
from tracing import Tracer


class InvalidRun(Exception):
    """The run cannot be scored (its load generator fell behind its schedule)."""


@dataclass
class Report:
    attempted: int
    failed: int
    metrics: dict[str, float]
    notes: list[str] = field(default_factory=list)


def run(workload: str, seed: int, seconds: float, traced: bool, setup_repeats: int) -> Report:
    if workload == "tenants_served":
        return _tenants_served(seed, seconds, traced, setup_repeats)
    return _in_process(workload, seed, seconds, traced, setup_repeats)


def _latency_metrics(latencies: list[float]) -> dict[str, float]:
    return {
        "latency_p50_ms": percentile(latencies, 50) * 1000.0,
        "latency_p99_ms": percentile(latencies, 99) * 1000.0,
    }


def _write_metrics(writes: list[float]) -> dict[str, float]:
    return {
        "write_p50_ms": percentile(writes, 50) * 1000.0,
        "write_p90_ms": percentile(writes, 90) * 1000.0,
    }


def _zero_layers(*prefixes: str) -> dict[str, float]:
    """Per-layer metrics of layers a workload never reaches (reported as 0)."""
    return {name: 0 for name in PER_LAYER_UNITS if name.startswith(prefixes)}


# -- in-process workloads ----------------------------------------------------------


def _in_process(workload: str, seed: int, seconds: float, traced: bool, setup_repeats: int) -> Report:
    if workload == "gamma_growth":
        stream = streams.gamma_stream(seed, streams.gamma_windows(seconds))
        runner = inproc.GammaRun(stream)
        tenants = stream.theories
    else:
        runner = inproc.ReadStream(seed, seconds)
        tenants = {}
    payload = json.dumps({"tenants": {t: [encode_pd(pd) for pd in theory] for t, theory in tenants.items()}})

    if traced:
        tracer = Tracer()
        plain, outcome = runner.serve(tracer)
        tracer.write(OUT / f"trace-{workload}-{seed}.jsonl")
        metrics = _traced_layers(tracer, outcome)
        metrics["trace.overhead"] = outcome.wall / plain.wall - 1.0
        notes = [f"self time {name}: {seconds * 1000:.1f} ms" for name, seconds in _top_self(tracer)]
        return Report(plain.attempted + outcome.attempted, plain.failed + outcome.failed, metrics, notes)

    # Set-ups come before every pass and after the last, so that their median
    # does not hang on one moment of the machine.
    probe = _write_probe(seed) if workload != "gamma_growth" else None
    setup: list[float] = []
    passes = []
    rss = 0.0
    for _ in range(streams.PASSES[workload]):
        setup += ready_time(payload, setup_repeats)
        reset_peak_rss()
        passes.append(runner.serve()[0])
        rss = max(rss, peak_rss_mb())
    setup += ready_time(payload, setup_repeats)
    outcome = inproc.fold(passes)
    attempted, failed, writes = outcome.attempted, outcome.failed, outcome.writes
    notes = [
        f"samples: {len(outcome.latencies)} request latencies in {outcome.windows} windows, "
        f"median of {len(passes)} pass(es) per window; {len(setup)} set-ups",
        "pass walls s: " + ", ".join(f"{p.wall:.3f}" for p in passes)
        + f"; reference s per s: {', '.join(f'{scale:.3f}' for scale in outcome.scales)}",
    ]
    if probe is None:
        notes.append(f"writes: {len(writes)} beside {len(outcome.latencies)} reads")
    else:
        attempted += probe.attempted
        failed += probe.failed
        writes = probe.writes
        notes.append(f"write probe: {len(writes)} writes beside {len(probe.latencies)} reads")
    metrics = {
        "setup_s": statistics.median(setup) * statistics.fmean(outcome.scales),
        "throughput_rps": len(outcome.latencies) / outcome.wall,
        **_latency_metrics(outcome.latencies),
        **_write_metrics(writes),
        "peak_rss_mb": rss,
    }
    return Report(attempted, failed, metrics, notes)


def _write_probe(seed: int) -> inproc.Outcome:
    """One pass of the write probe (:func:`inproc.write_probe`), for workloads without writes."""
    return inproc.fold([inproc.write_probe(seed).serve()[0]])


def _top_self(tracer: Tracer, count: int = 8) -> list[tuple[str, float]]:
    return sorted(tracer.self_times().items(), key=lambda item: -item[1])[:count]


def _traced_layers(tracer: Tracer, outcome: inproc.Pass) -> dict[str, float]:
    busy = tracer.busy()
    kernel = tracer.kernel

    def ms(name: str) -> float:
        return busy.get(name, (0.0, 0))[0] * 1000.0

    def calls(name: str) -> int:
        return busy.get(name, (0.0, 0))[1]

    def us_per_request(name: str) -> float:
        return busy.get(name, (0.0, 0))[0] * 1e6 / outcome.attempted

    arcs, vertices = tracer.persistent_index_size()
    session_rate = 0.0
    if outcome.session is not None:
        info = outcome.session.cache_info()
        lookups = info["hits"] + info["misses"]
        session_rate = info["hits"] / lookups if lookups else 0.0
    return {
        "quotient.counterexample_ms": ms("quotient.counterexample"),
        "quotient.class_id_ms": ms("quotient.class_id"),
        "quotient.class_id_calls": calls("quotient.class_id"),
        "quotient.fragment_ms": ms("quotient.fragment"),
        "quotient.closure_pops": kernel.closure_pops,
        "implication.word_problems_ms": ms("implication.word_problems"),
        "implication.word_problems_calls": calls("implication.word_problems"),
        "implication.prepare_ms": ms("implication.prepare"),
        "implication.fd_ms": ms("implication.fd"),
        "implication.index_arcs": tracer.index_arcs + arcs,
        "implication.index_vertices": tracer.index_vertices + vertices,
        "implication.add_dependencies_ms": ms("implication.add_dependencies"),
        "consistency.normalize_ms": ms("consistency.normalize"),
        "consistency.normalize_calls": calls("consistency.normalize"),
        "consistency.weak_instance_ms": ms("consistency.weak_instance"),
        "consistency.cad_ms": ms("consistency.cad"),
        "chase.steps": kernel.chase_steps,
        "cad.backtrack_nodes": kernel.backtrack_nodes,
        "wire.decode_us_per_req": us_per_request("wire.decode"),
        "wire.encode_us_per_req": us_per_request("wire.encode"),
        "wire.cache_key_us_per_req": us_per_request("wire.cache_key"),
        "planner.plan_ms": ms("planner.plan"),
        "planner.batches": tracer.batches,
        **_zero_layers("microbatch.", "cache.shared", "cache.worker", "supervisor.", "loadgen."),
        "cache.session_hit_rate": session_rate,
        "trace.unattributed_share": 1.0 - tracer.top_level_seconds() / outcome.wall,
    }


# -- tenants_served ------------------------------------------------------------------


def _tenants_served(seed: int, seconds: float, traced: bool, setup_repeats: int) -> Report:
    probe = _write_probe(seed) if not traced else None
    replays, stream, expected = served.run(seed, seconds, setup_repeats)
    attempted = sum(r.attempted for r in replays)
    failed = sum(r.failed for r in replays)
    setup = [seconds for r in replays for seconds in r.setup]
    # A replay whose generator fell behind is not scored (its answers still
    # count above); the run is invalid only when no replay kept its schedule.
    lags = [percentile(r.lags, 99) * 1000.0 if r.lags else float("inf") for r in replays]
    if min(lags) > served.LAG_LIMIT_MS:
        raise InvalidRun(
            f"load generator ran {min(lags):.1f} ms behind schedule at p99 in every replay "
            f"(limit {served.LAG_LIMIT_MS} ms); latencies would measure the client"
        )
    replays = [r for r, lag in zip(replays, lags) if lag <= served.LAG_LIMIT_MS]
    lag_p99_ms = max(lag for lag in lags if lag <= served.LAG_LIMIT_MS)
    notes = [
        f"samples: {len(replays)} scored replays x {len(stream.requests)} requests, best replay per metric; "
        f"offered {streams.SERVED_RATE:g} req/s over {streams.SERVED_CONNECTIONS} connections; "
        f"generator lag p99 per replay {', '.join(f'{lag:.3f}' for lag in lags)} ms; {len(setup)} set-ups",
        "per replay p50/p99 ms: "
        + ", ".join(
            f"{percentile(r.latencies, 50) * 1000:.1f}/{percentile(r.latencies, 99) * 1000:.1f}"
            for r in replays
            if r.latencies
        ),
    ]
    if not traced:
        notes.append(f"write probe: {len(probe.writes)} writes beside {len(probe.latencies)} reads")
        metrics = {
            "setup_s": statistics.median(setup),
            "throughput_rps": max(r.answered / r.wall for r in replays),
            "latency_p50_ms": min(percentile(r.latencies or [float("inf")], 50) for r in replays) * 1000.0,
            "latency_p99_ms": min(percentile(r.latencies or [float("inf")], 99) for r in replays) * 1000.0,
            **_write_metrics(probe.writes),
            "peak_rss_mb": max(r.peak_rss_mb for r in replays),
        }
        return Report(attempted + probe.attempted, failed + probe.failed, metrics, notes)

    # Layer numbers from the last replay's server (its own stats and health lines).
    stats, health = replays[-1].stats, replays[-1].health
    latency = stats["latency_ms"]
    tiers = stats["result_cache"]["tiers"]
    supervision = health.get("supervision") or {}
    metrics = {
        **_zero_layers("quotient.", "implication.", "consistency.", "chase.", "cad.", "trace."),
        **_wire_costs(stream, expected, stats["windows"]["mean_size"] or 1.0),
        "microbatch.queue_wait_p50_ms": latency["queue_wait"]["p50"],
        "microbatch.queue_wait_p99_ms": latency["queue_wait"]["p99"],
        "microbatch.execute_p99_ms": latency["execute"]["p99"],
        "microbatch.respond_p99_ms": latency["respond"]["p99"],
        "microbatch.window_mean_size": stats["windows"]["mean_size"],
        "cache.shared_hit_rate": tiers.get("shared", {}).get("hit_rate", 0.0),
        "cache.worker_hit_rate": tiers.get("worker", {}).get("hit_rate", 0.0),
        "cache.session_hit_rate": tiers.get("session", {}).get("hit_rate", 0.0),
        "supervisor.units_dispatched": supervision.get("units_dispatched", 0),
        "supervisor.retries": supervision.get("retries", 0),
        "supervisor.crashes": supervision.get("crashes", 0),
        "supervisor.restarts": supervision.get("restarts", 0),
        "loadgen.lag_p99_ms": lag_p99_ms,
    }
    return Report(attempted, failed, metrics, notes)


def _wire_costs(stream: streams.ServedStream, expected: list[str], window: float) -> dict[str, float]:
    """The wire and planner layers' cost on this stream, timed in this process.

    The server runs the same functions on the same lines; timing them here
    keeps the server free of injected code.  Planning uses windows of the
    server's mean window size.
    """
    lines = [dump_request_line(request) for request in stream.requests]
    results = [load_result_line(line) for line in expected]
    count = len(lines)

    started = perf_counter()
    decoded = [load_request_line(line) for line in lines]
    decode = perf_counter() - started
    started = perf_counter()
    for result in results:
        dump_result_line(result)
    encode = perf_counter() - started
    started = perf_counter()
    for request in decoded:
        request_cache_key(request)
    cache_key = perf_counter() - started
    size = max(1, round(window))
    started = perf_counter()
    batches = sum(len(plan(decoded[i : i + size])) for i in range(0, count, size))
    planning = perf_counter() - started
    return {
        "wire.decode_us_per_req": decode * 1e6 / count,
        "wire.encode_us_per_req": encode * 1e6 / count,
        "wire.cache_key_us_per_req": cache_key * 1e6 / count,
        "planner.plan_ms": planning * 1000.0,
        "planner.batches": batches,
    }
