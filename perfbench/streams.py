"""Seeded request streams for the benchmark's workloads.

Every stream is a pure function of ``(seed, seconds)``: the same arguments
give byte-identical requests.  The generators are the repository's own
(:func:`repro.workloads.random_service_requests` and
:func:`repro.workloads.zipf_multitenant_requests`); this module only sizes
them, fixes their kind mix and cuts them into the windows a caller sends.

Two choices keep the seed-to-seed spread low without changing what is served:

* **Independent draws.**  The acceptance stream is built from hundreds of
  windows, each drawn from the generator with its own sub-seed, and
  gamma_growth from hundreds of short tenant lives.  A draw carries its own
  theories (and its own Theorem 8 counterexample theory), so one run
  averages over hundreds of theories instead of riding on the difficulty of
  two.
* **Exact kind counts.**  Each draw holds its kind mix in exact proportion
  (the first requests of each kind the generator drew, in stream order), so
  no run serves twice the counterexamples of another by chance.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Optional

from repro.dependencies.pd import PartitionDependency
from repro.relational.database import Database
from repro.service.wire import QueryRequest
from repro.workloads import (
    attribute_names,
    random_expression,
    random_pd,
    random_database,
    random_service_requests,
    zipf_multitenant_requests,
)
from repro.workloads.random_service import poisson_arrival_times

#: Reads per gamma_growth window (an acceptance window holds one mix unit).
WINDOW = 25

#: The generator shape every workload shares: 5 attributes, 2 theories x 3 PDs,
#: expressions of complexity at most 2.
GENERATOR = {"attribute_count": 5, "theory_count": 2, "pds_per_theory": 3, "max_complexity": 2}

#: Exact kind counts of one acceptance window.
ACCEPTANCE_MIX = {"implies": 5, "equivalent": 3, "consistent": 3, "counterexample": 1}
GAMMA_READ_MIX = {"implies": 5, "equivalent": 3, "consistent": 3}
SERVED_KINDS = {"implies": 5, "equivalent": 3, "consistent": 3, "fd_implies": 2}

#: Passes a run makes over its stream (see :func:`inproc.fold`), and replays
#: of tenants_served.  acceptance makes one pass over many distinct windows:
#: its timings are scaled by the speed probe, and the seed-to-seed difference
#: in the drawn theories shrinks with the number of draws.  gamma_growth's
#: p99 is its slowest window or two, so the median of three passes keeps one
#: stall of the machine from setting it.
PASSES = {"acceptance": 1, "gamma_growth": 3, "tenants_served": 3}

#: acceptance windows per second of ``--seconds`` (a window is one mix unit,
#: about 25 ms of serving on today's code on a 2-core x86 box).
ACCEPTANCE_WINDOWS_PER_SECOND = 50

#: gamma_growth shape: windows per second of ``--seconds`` (a window is
#: about 130 ms of serving on today's code), writes per tenant, reads per
#: write, share of quotient reads.
GAMMA_WINDOWS_PER_SECOND = 8
GAMMA_WRITES_PER_TENANT = 4
GAMMA_READS_PER_WRITE = 2
GAMMA_QUOTIENT_SHARE = 0.15
GAMMA_QUOTIENT_POOL = 6

#: Windows of the write probe (one quotient read per write: 20 writes a window).
WRITE_PROBE_WINDOWS = 63

#: tenants_served shape: offered rate and connections of the open-loop client.
SERVED_RATE = 400.0
#: Requests per replay per second of ``--seconds``: 1600 at 8, so each
#: replay's scored part (1280) leaves more than ten samples beyond its p99.
SERVED_REQUESTS_PER_SECOND = 200
SERVED_CONNECTIONS = 2
SERVED_UNSCORED = 0.2


def sub_seed(seed: int, tag: str, index: int = 0) -> int:
    """A 64-bit seed derived from the run seed (string seeding is hash-stable)."""
    return random.Random(f"{seed}/{tag}/{index}").getrandbits(64)


def stratified(seed: int, mix: dict[str, int], **generator) -> list[QueryRequest]:
    """The first ``mix[kind]`` requests of each kind one generator stream drew, in order."""
    count = 2 * sum(mix.values())
    while True:
        pool = random_service_requests(count, seed=seed, kind_weights=mix, **{**GENERATOR, **generator})
        left = dict(mix)
        picked = []
        for request in pool:
            if left.get(request.kind, 0) > 0:
                left[request.kind] -= 1
                picked.append(request)
        if not any(left.values()):
            return picked
        count *= 2


def acceptance_windows(seed: int, seconds: float) -> list[list[QueryRequest]]:
    """The acceptance stream, as the windows a caller sends.

    Every window is drawn fresh from the generator (its own two theories and
    Theorem 8 counterexample theory) and holds the mix exactly.  It also
    carries Theorem 11 CAD requests (about a quarter of its consistency
    requests), over databases whose relations do not span the universe, so
    the CAD search backtracks.
    """
    count = max(1, round(seconds * ACCEPTANCE_WINDOWS_PER_SECOND))
    windows = []
    for number in range(count):
        rng = random.Random(sub_seed(seed, "acceptance.order", number))
        window = stratified(sub_seed(seed, "acceptance", number), ACCEPTANCE_MIX, include_cad=True)
        window = [replace(r, database=_cad_database(rng)) if r.method == "cad" else r for r in window]
        rng.shuffle(window)
        windows.append([replace(r, id=f"w{number}.{i}") for i, r in enumerate(window)])
    return windows


def _cad_database(rng: random.Random) -> Database:
    """Two relations of three of the four CAD attributes: one unknown cell per row."""
    while True:
        database = random_database(
            relation_count=2, universe_size=4, attributes_per_relation=3, tuples_per_relation=3, domain_size=3, seed=rng
        )
        if len(database.universe) == 4:  # CAD refuses FDs over attributes no relation has
            return database


@dataclass
class GammaStream:
    """Reads over per-tenant Γ with writes between windows.

    ``theories`` is each tenant's Γ when the session is built; ``writes[i]``
    lists the ``(tenant, pd)`` writes applied after ``windows[i]`` was
    answered.
    """

    theories: dict[str, tuple[PartitionDependency, ...]]
    windows: list[list[QueryRequest]]
    writes: list[list[tuple[str, PartitionDependency]]]


def gamma_stream(
    seed: int,
    windows: int,
    reads_per_write: int = GAMMA_READS_PER_WRITE,
    tag: str = "gamma_growth",
    writes_per_tenant: int = GAMMA_WRITES_PER_TENANT,
    quotient_share: float = GAMMA_QUOTIENT_SHARE,
) -> GammaStream:
    """gamma_growth in a steady state: every window meets tenants at every stage of growth.

    A tenant's life is ``reads_per_write * (writes_per_tenant + 1)`` reads,
    with one fresh random PD written after every ``reads_per_write``-th of
    them (none after the last).  The stream runs :data:`WINDOW` lanes side by
    side; a window holds one read of each lane, and each lane serves its
    tenants one after another.  Lane ``j`` enters the stream ``j / WINDOW`` of
    the way through its first tenant's life: the writes that tenant made
    before are part of its Γ when the session is built, and the lanes still
    running when the stream ends are cut off.  So every window has the same
    mix of young and grown Γ, instead of the whole stream ageing together
    and its last windows (the largest Γ) setting the tail latency alone.
    """
    universe = attribute_names(GENERATOR["attribute_count"])
    rng = random.Random(sub_seed(seed, tag, -1))
    life = reads_per_write * (writes_per_tenant + 1)
    quotients = round(life * quotient_share)
    generated = life - quotients
    weight = sum(GAMMA_READ_MIX.values())
    mix = {kind: generated * w // weight for kind, w in GAMMA_READ_MIX.items()}
    mix["implies"] += generated - sum(mix.values())
    mix = {kind: count for kind, count in mix.items() if count}

    # Every tenant reads its kinds in one fixed order, spread evenly over its
    # life, so all windows hold the same kinds at the same stages of growth.
    # Quotients come first: a tenant's persistent ALG index exists before its
    # first write, and every write resumes it.
    slots = []
    for kind, count in {"quotient": quotients, **mix}.items():
        offset = 0.0 if kind == "quotient" else 0.5
        slots += [((number + offset) / count, kind) for number in range(count)]
    pattern = [kind for _, kind in sorted(slots)]

    def writes_after(read: int) -> bool:
        return (read + 1) % reads_per_write == 0 and read + 1 < life

    theories: dict[str, tuple[PartitionDependency, ...]] = {}
    # Per lane: (tenant, read, the PD written after it or None).
    lanes: list[list[tuple[str, QueryRequest, Optional[PartitionDependency]]]] = []
    number = 0
    for lane in range(WINDOW):
        entry = lane * life // WINDOW  # reads of the first tenant's life already behind it
        schedule: list[tuple[str, QueryRequest, Optional[PartitionDependency]]] = []
        while len(schedule) < windows:
            tenant = f"g{number}"
            # A one-request draw still carries the tenant's theory when every read is a quotient.
            block = stratified(sub_seed(seed, tag, number), mix or {"implies": 1}, theory_count=1)
            number += 1
            by_kind = {kind: [replace(r, dependencies=None, tenant=tenant) for r in block if r.kind == kind] for kind in mix}
            by_kind["quotient"] = [
                QueryRequest(
                    kind="quotient",
                    id="",
                    tenant=tenant,
                    pool=tuple(random_expression(universe, rng, GENERATOR["max_complexity"]) for _ in range(GAMMA_QUOTIENT_POOL)),
                )
                for _ in range(quotients)
            ]
            reads = [by_kind[kind].pop() for kind in pattern]
            grown = [
                random_pd(universe, rng, GENERATOR["max_complexity"]) if writes_after(read) else None
                for read in range(life)
            ]
            if quotients and entry:
                # A tenant that enters mid-life also reads a quotient first in
                # the stream (see ``pattern``); reads before ``entry`` are never sent.
                first = next(i for i in [*range(entry, life), *range(entry)] if reads[i].kind == "quotient")
                reads[entry], reads[first] = reads[first], reads[entry]
            theories[tenant] = block[0].dependencies + tuple(pd for pd in grown[:entry] if pd is not None)
            schedule.extend((tenant, reads[read], grown[read]) for read in range(entry, life))
            entry = 0
        lanes.append(schedule[:windows])

    stream_windows: list[list[QueryRequest]] = []
    writes: list[list[tuple[str, PartitionDependency]]] = []
    for index in range(windows):
        window = [lane[index] for lane in lanes]
        rng.shuffle(window)
        stream_windows.append([replace(read, id=f"r{index * WINDOW + i}") for i, (_, read, _) in enumerate(window)])
        writes.append([(tenant, pd) for tenant, _, pd in window if pd is not None])
    return GammaStream(theories, stream_windows, writes)


def gamma_windows(seconds: float) -> int:
    return max(1, round(seconds * GAMMA_WINDOWS_PER_SECOND))


@dataclass
class ServedStream:
    """tenants_served: Zipf multi-tenant requests with Poisson due times.

    The first :data:`SERVED_UNSCORED` of the stream is sent on schedule like
    the rest and its answers are checked, but its latencies are not scored:
    it is where a fresh server fills its result cache with the stream's
    distinct requests, and those few slow windows would set the p99 alone.
    """

    requests: list[QueryRequest]
    due: list[float]  # seconds after the stream starts

    @property
    def scored_from(self) -> int:
        return int(len(self.requests) * SERVED_UNSCORED)

    def connection_of(self, position: int) -> int:
        return position % SERVED_CONNECTIONS


def served_stream(seed: int, seconds: float) -> ServedStream:
    count = max(1, round(seconds * SERVED_REQUESTS_PER_SECOND))
    requests = zipf_multitenant_requests(
        count,
        seed=sub_seed(seed, "tenants_served"),
        tenants=50,
        skew=1.0,
        pool_per_tenant=4,
        kind_weights=SERVED_KINDS,
        **GENERATOR,
    )
    due = poisson_arrival_times(count, SERVED_RATE, seed=sub_seed(seed, "tenants_served.arrivals"))
    return ServedStream(requests, due)
