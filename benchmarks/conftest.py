"""Shared configuration for the benchmark harness.

Every benchmark module regenerates one experiment from EXPERIMENTS.md
(a paper figure or a complexity claim).  The modules use ``pytest-benchmark``
groups named after the experiment ids (FIG1..FIG3, EXP-T4..EXP-T12, EXP-FD,
EXP-WI) so that ``pytest benchmarks/ --benchmark-only`` prints one comparison
table per experiment — those tables are the "rows/series" the reproduction
reports.
"""

import pytest


def pytest_benchmark_update_json(config, benchmarks, output_json):
    """Tag the JSON export (if requested) with the experiment grouping."""
    output_json["experiment_map"] = {
        "FIG1": "Figure 1 construction and checks",
        "FIG2": "Figure 2 / Theorem 5 isomorphism",
        "FIG3": "Figure 3 / Theorem 11 reduction instance",
        "EXP-T4": "connectivity PD on path relations",
        "EXP-T9": "ALG implication scaling",
        "EXP-ALG": "incremental implication service vs from-scratch closures",
        "EXP-T10": "identity recognition vs ALG",
        "EXP-T11": "CAD consistency (NP-complete) scaling",
        "EXP-T12": "polynomial PD consistency scaling",
        "EXP-FD": "FD closure vs ALG on FPD translations",
        "EXP-WI": "weak instance chase scaling",
        "EXP-PART": "integer partition kernel vs block oracle; batch PD satisfaction",
        "EXP-LAT": "bitset lattice kernel and class-driven quotient pipeline vs dict-table oracles",
        "EXP-SVC": "query service: planner batching vs naive dispatch; multiprocess shard scaling",
        "EXP-SNAP": "durable Γ snapshots: cold start vs zero-warmup restore (session, shards, server)",
        "EXP-FLT": "fault tolerance: supervised fault-free execution; restart-to-warm latency",
        "EXP-OBS": "observability: end-to-end tracing + kernel profiling overhead vs untraced serving",
    }


@pytest.fixture(scope="session")
def rng_seed() -> int:
    """A fixed seed so every benchmark run sees identical workloads."""
    return 20260617
