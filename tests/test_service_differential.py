"""Differential property: the cached, planned session answers like an uncached replay.

A served stream mixes 1–4 tenants, reads over each tenant's own Γ and over
an explicit dependency set, ``fd_implies`` reads, repeated requests, and
batches of ``add_dependencies`` between its windows; once, mid-stream, the
cached session may be exported and restored.  Every result line must be
byte-identical to replaying the same windows and writes on a
``Session(result_cache_size=0)`` one request at a time
(``execute_many(batch=False)``).  The cache's only invalidation is the Γ
generation its entries are stamped with, so this is the property that shows
no stale answer survives a write, a restore, or a restore of a snapshot that
still holds stale entries.
"""

from __future__ import annotations

import random
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.session import Session
from repro.service.wire import QueryRequest, dump_result_line
from repro.workloads.random_dependencies import random_pd
from repro.workloads.random_expressions import random_expression
from repro.workloads.random_relations import attribute_names
from repro.workloads.random_service import random_service_requests

TENANTS = (None, "acme", "globex", "initech")
UNIVERSE = attribute_names(5)
KINDS = {"implies": 4, "equivalent": 2, "consistent": 2, "fd_implies": 1}


def _reads(rng: random.Random, tenants) -> list[QueryRequest]:
    """A pool of reads, each re-stamped with one of ``tenants``.

    Half carry no dependencies and so read their tenant's Γ; the other half
    (and every ``fd_implies``) carry their own.  Quotient reads over a small
    random pool join the tenant-Γ half.
    """
    pool = []
    for embed in (False, True):
        pool += random_service_requests(6, seed=rng, kind_weights=KINDS, embed_dependencies=embed)
    pool += [
        QueryRequest(kind="quotient", pool=tuple(random_expression(UNIVERSE, rng, 2) for _ in range(4)))
        for _ in range(2)
    ]
    return [replace(request, id=None, tenant=rng.choice(tenants)) for request in pool]


@st.composite
def served_streams(draw):
    """``(windows, writes, restore_after)``: request windows, the writes before each, a restore point."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    tenants = TENANTS[: draw(st.integers(1, len(TENANTS)))]
    reads = _reads(rng, tenants)
    count = draw(st.integers(2, 5))
    # Drawing with replacement repeats requests within and across windows.
    windows = [
        [rng.choice(reads).with_id(f"w{w}r{r}") for r in range(rng.randint(1, 8))] for w in range(count)
    ]
    writes = [
        [
            (tenant, [random_pd(UNIVERSE, rng, 2) for _ in range(rng.randint(1, 2))])
            for tenant in tenants
            if rng.random() < 0.5
        ]
        for _ in range(count)
    ]
    restore_after = draw(st.none() | st.integers(0, count - 2))
    return windows, writes, restore_after


def _serve(windows, writes, restore_after=None, cached=True):
    session = Session(result_cache_size=1024 if cached else 0)
    lines = []
    for index, (window, batch) in enumerate(zip(windows, writes)):
        for tenant, dependencies in batch:
            session.add_dependencies(dependencies, tenant=tenant)
        lines += [dump_result_line(result) for result in session.execute_many(window, batch=cached)]
        if index == restore_after:
            session = Session.restore(session.export_snapshot())
    return lines


@settings(deadline=None)
@given(stream=served_streams())
def test_cached_planner_session_matches_an_uncached_replay(stream):
    windows, writes, restore_after = stream
    assert _serve(windows, writes, restore_after) == _serve(windows, writes, cached=False)
