"""Multi-tenant keyspaces: wire v3, tenant isolation, and the shared cache tier.

The tenancy invariants PR 9 pins:

* wire version 3 carries an optional ``tenant`` field; older envelopes
  cannot smuggle one in, and pre-v3 payloads decode as the default tenant;
* ``tenant`` stays inside :func:`request_cache_key`, so no cache tier can
  serve one tenant's answer to another;
* per-tenant Γ is isolated — growing tenant A's theory invalidates only A's
  Γ-dependent result entries (pinned by ``cache_info`` counters, not vibes);
* snapshots round-trip the whole tenant keyspace byte-identically;
* the :class:`ResultCache` every tier uses behaves: LRU accounting,
  tenant-scoped invalidation, per-tenant counters that add up to the totals;
* the 2-shard executor answers repeats parent-side, byte-identical to the
  cacheless path, and the server's stats/health expose the tier rates.
"""

import asyncio
import json

import pytest

from repro.dependencies.pd import PartitionDependency
from repro.errors import ServiceError
from repro.service.config import ServiceConfig
from repro.service.executor import ShardExecutor
from repro.service.result_cache import ResultCache as SharedResultCache
from repro.service.result_cache import gamma_dependent
from repro.service.server import QueryServer
from repro.service.session import Session
from repro.service.snapshot import dump_snapshot, restore_session
from repro.service.supervisor import supervision_stats
from repro.service.telemetry import TENANT_STATS_LIMIT
from repro.service.wire import (
    QueryRequest,
    QueryResult,
    decode_request,
    dump_request_line,
    dump_result_line,
    encode_request,
    load_request_line,
    request_cache_key,
)

GAMMA = ["A = A*B", "B = B*C"]


def _pd(text: str) -> PartitionDependency:
    return PartitionDependency.parse(text)


def _implies(text: str, tenant=None, id=None) -> QueryRequest:
    return QueryRequest(kind="implies", id=id, tenant=tenant, query=_pd(text))


class TestWireV3Tenant:
    def test_tenant_round_trips_at_version_3(self):
        request = _implies("A = A*C", tenant="acme", id="q1")
        payload = encode_request(request)
        assert payload["v"] == 3
        assert payload["tenant"] == "acme"
        assert decode_request(payload) == request
        assert load_request_line(dump_request_line(request)) == request

    def test_default_tenant_is_omitted_from_the_envelope(self):
        payload = encode_request(_implies("A = A*C"))
        assert "tenant" not in payload

    def test_pre_v3_payloads_decode_as_the_default_tenant(self):
        for version in (1, 2):
            payload = {"v": version, "kind": "implies", "query": "A = A*C"}
            assert decode_request(payload).tenant is None

    def test_old_envelopes_cannot_carry_a_tenant(self):
        for version in (1, 2):
            payload = {"v": version, "kind": "implies", "query": "A = A*C", "tenant": "t"}
            with pytest.raises(ServiceError, match="wire version 3"):
                decode_request(payload)

    def test_invalid_tenants_are_rejected(self):
        for bad in ("", 7, ["t"]):
            with pytest.raises(ServiceError, match="tenant"):
                encode_request(QueryRequest(kind="implies", tenant=bad, query=_pd("A = A*C")))

    def test_tenant_stays_in_the_cache_key(self):
        default = request_cache_key(_implies("A = A*C", id="x"))
        acme = request_cache_key(_implies("A = A*C", tenant="acme", id="y"))
        globex = request_cache_key(_implies("A = A*C", tenant="globex"))
        assert len({default, acme, globex}) == 3
        # ...while the id never is: same question, same slot.
        assert request_cache_key(_implies("A = A*C", tenant="acme", id="z")) == acme


class TestTenantKeyspaces:
    def test_new_tenants_start_with_an_empty_gamma(self):
        session = Session(GAMMA)
        assert session.execute(_implies("A = A*C")).value == {"implied": True}
        # Tenant "acme" owns its own Γ, which starts empty: nothing non-trivial holds.
        assert session.execute(_implies("A = A*C", tenant="acme")).value == {"implied": False}
        assert session.dependencies_for("acme") == []
        assert session.dependencies_for(None) == [_pd(t) for t in GAMMA]

    def test_tenant_gammas_grow_independently(self):
        session = Session([])
        session.add_dependencies(["A = A*B"], tenant="acme")
        session.add_dependencies(["B = B*C"], tenant="globex")
        assert session.execute(_implies("A = A*B", tenant="acme")).value == {"implied": True}
        assert session.execute(_implies("A = A*B", tenant="globex")).value == {"implied": False}
        assert session.execute(_implies("A = A*B")).value == {"implied": False}
        assert session.tenant_names() == [None, "acme", "globex"]

    def test_growing_one_tenant_invalidates_only_its_entries(self):
        session = Session([])
        a = _implies("A = A*D", tenant="acme")
        b = _implies("A = A*D", tenant="globex")
        for request in (a, b):
            assert session.execute(request).value == {"implied": False}
        # Both answers are warm now; pin that with the per-tenant counters.
        session.execute(a), session.execute(b)
        per_tenant = session.cache_info()["per_tenant"]
        assert per_tenant["acme"]["hits"] == 1 and per_tenant["globex"]["hits"] == 1

        session.add_dependencies(["A = A*D"], tenant="acme")
        assert session.generation_for("acme") == 1
        assert session.generation_for("globex") == 0
        # acme recomputes under its grown Γ; globex still answers from cache.
        assert session.execute(a).value == {"implied": True}
        assert session.execute(b).value == {"implied": False}
        per_tenant = session.cache_info()["per_tenant"]
        assert per_tenant["globex"]["hits"] == 2  # B's entry survived
        assert per_tenant["acme"]["misses"] == 2  # A's entry did not

    def test_explicit_dependency_requests_are_gamma_independent(self):
        session = Session([])
        request = QueryRequest(
            kind="implies", tenant="acme", dependencies=(_pd("A = A*B"),), query=_pd("A = A*B")
        )
        assert session.execute(request).value == {"implied": True}
        session.add_dependencies(["B = B*C"], tenant="acme")
        # Explicit-Γ entries never depend on the tenant's session Γ: still cached.
        session.execute(request)
        assert session.cache_info()["per_tenant"]["acme"]["hits"] == 1


class TestContextCacheCounters:
    def test_foreign_context_hits_misses_and_evictions_are_counted(self):
        session = Session(GAMMA, foreign_context_limit=2)
        deps = [(_pd(f"A = A*{name}"),) for name in ("C", "D", "E")]
        requests = [
            QueryRequest(kind="implies", dependencies=d, query=_pd("A = A*B")) for d in deps
        ]
        for request in requests:  # three distinct foreign theories, limit 2
            session.execute(request)
        # A *different* question over the warm theory (a repeat of the same
        # request would be served by the result cache, never reaching the
        # context LRU).
        session.execute(
            QueryRequest(kind="implies", dependencies=deps[-1], query=_pd("B = B*C"))
        )
        info = session.cache_info()["contexts"]
        assert info["misses"] == 3
        assert info["evictions"] == 1
        assert info["hits"] >= 1
        assert info["size"] <= info["maxsize"] == 2

    def test_create_false_probes_without_inserting_or_evicting(self):
        session = Session(GAMMA, foreign_context_limit=2)
        request = QueryRequest(
            kind="implies", dependencies=(_pd("A = A*Z"),), query=_pd("A = A*Z")
        )
        before = session.cache_info()["contexts"]
        assert session.context_for(request, create=False) is None
        after = session.cache_info()["contexts"]
        assert after["size"] == before["size"] == 0
        assert after["evictions"] == before["evictions"]


class TestSnapshotTenantRoundTrip:
    def _warm_session(self) -> Session:
        session = Session(GAMMA)
        session.add_dependencies(["C = C*D"], tenant="acme")
        session.add_dependencies(["D = D*E"], tenant="globex")
        session.execute(_implies("A = A*C"))
        session.execute(_implies("C = C*D", tenant="acme"))
        session.execute(_implies("C = C*D", tenant="globex"))
        return session

    def test_export_restore_export_is_byte_identical(self):
        text = dump_snapshot(self._warm_session())
        assert dump_snapshot(restore_session(text)) == text

    def test_restored_tenants_answer_like_the_original(self):
        session = self._warm_session()
        restored = restore_session(dump_snapshot(session))
        assert restored.tenant_names() == session.tenant_names()
        for tenant in (None, "acme", "globex"):
            assert restored.dependencies_for(tenant) == session.dependencies_for(tenant)
            assert restored.generation_for(tenant) == session.generation_for(tenant)
            assert (
                restored.execute(_implies("C = C*D", tenant=tenant)).value
                == session.execute(_implies("C = C*D", tenant=tenant)).value
            )

    def test_restored_result_entries_keep_their_tenant(self):
        restored = restore_session(dump_snapshot(self._warm_session()))
        restored.add_dependencies(["E = E*F"], tenant="acme")  # invalidates acme only
        restored.execute(_implies("C = C*D", tenant="globex"))
        assert restored.cache_info()["per_tenant"]["globex"]["hits"] == 1


class TestSharedResultCache:
    def _result(self, value=True) -> QueryResult:
        return QueryResult(kind="implies", ok=True, value={"implied": value})

    def test_hits_restamp_the_caller_id(self):
        cache = SharedResultCache(maxsize=4)
        cache.store("k", self._result(), tenant="acme")
        hit = cache.lookup("k", "q42", tenant="acme")
        assert hit is not None and hit.id == "q42" and hit.cached
        assert cache.lookup("other", None) is None
        info = cache.info()
        assert info["hits"] == 1 and info["misses"] == 1 and info["stores"] == 1
        assert info["per_tenant"]["acme"] == {"hits": 1, "misses": 0}

    def test_lru_eviction_is_counted(self):
        cache = SharedResultCache(maxsize=2)
        for key in ("a", "b", "c"):
            cache.store(key, self._result())
        assert len(cache) == 2
        assert cache.info()["evictions"] == 1
        assert cache.lookup("a", None) is None  # the oldest fell out

    def test_error_results_are_never_stored(self):
        cache = SharedResultCache(maxsize=4)
        cache.store("k", QueryResult(kind="implies", ok=False, error={"type": "X", "message": "m"}))
        assert len(cache) == 0

    def test_invalidate_tenant_scopes_to_gamma_dependent_entries(self):
        cache = SharedResultCache(maxsize=8)
        cache.store("a1", self._result(), tenant="acme", uses_tenant_gamma=True)
        cache.store("a2", self._result(), tenant="acme", uses_tenant_gamma=False)
        cache.store("g1", self._result(), tenant="globex", uses_tenant_gamma=True)
        assert cache.invalidate_tenant("acme") == 1
        assert cache.lookup("a1", None, tenant="acme") is None
        assert cache.lookup("a2", None, tenant="acme") is not None
        assert cache.lookup("g1", None, tenant="globex") is not None

    def test_size_zero_disables_the_tier(self):
        cache = SharedResultCache(maxsize=0)
        assert not cache.enabled
        cache.store("k", self._result())
        assert len(cache) == 0 and cache.lookup("k", None) is None

    def test_seed_entries_keep_the_most_recent_maxsize(self):
        seed = [(key, (False, None, self._result())) for key in ("a", "b", "c")]
        cache = SharedResultCache(maxsize=2, entries=seed)
        assert [key for key, _ in cache.entries()] == ["b", "c"]
        assert cache.lookup("a", None) is None and cache.lookup("c", "q1").id == "q1"
        assert len(SharedResultCache(maxsize=0, entries=seed)) == 0

    def test_only_base_gamma_requests_are_gamma_dependent(self):
        assert gamma_dependent(_implies("A = A*B"))
        assert gamma_dependent(_implies("A = A*B", tenant="acme"))
        assert not gamma_dependent(
            QueryRequest(kind="implies", dependencies=(_pd("A = A*B"),), query=_pd("A = A*B"))
        )
        assert not gamma_dependent(QueryRequest(kind="fd_implies", fds=(), target=None))


def _assert_per_tenant_adds_up(info):
    per_tenant = info["per_tenant"]
    assert list(per_tenant) == sorted(per_tenant)
    assert sum(traffic["hits"] for traffic in per_tenant.values()) == info["hits"]
    assert sum(traffic["misses"] for traffic in per_tenant.values()) == info["misses"]


class TestPerTenantCountersAddUp:
    """A tenant named ``"default"`` shares the default tenant's label; the
    per-tenant breakdown must sum the two, not let one overwrite the other."""

    def test_session_tier(self):
        session = Session(["A = A*B"])
        session.implies("A = A*B")
        session.implies("A = A*B", tenant="default")
        session.implies("A = A*B", tenant="default")
        info = session.cache_info()
        assert (info["hits"], info["misses"]) == (1, 2)
        assert info["per_tenant"] == {"default": {"hits": 1, "misses": 2}}
        _assert_per_tenant_adds_up(info)

    def test_shared_tier(self):
        cache = SharedResultCache(maxsize=8)
        unnamed, named = _implies("A = A*B"), _implies("A = A*B", tenant="default")
        result = QueryResult(kind="implies", ok=True, value={"implied": True})
        cache.lookup(request_cache_key(unnamed), None, tenant=None)
        cache.lookup(request_cache_key(named), None, tenant="default")
        cache.store(request_cache_key(named), result, tenant="default")
        cache.lookup(request_cache_key(named), None, tenant="default")
        for tenant in ("zeta", "alpha"):
            cache.lookup(request_cache_key(_implies("A = A*B", tenant=tenant)), None, tenant=tenant)
        info = cache.info()
        assert (info["hits"], info["misses"]) == (1, 4)
        assert info["per_tenant"]["default"] == {"hits": 1, "misses": 2}
        assert list(info["per_tenant"]) == ["alpha", "default", "zeta"]
        _assert_per_tenant_adds_up(info)


class TestPerTenantLabelsAreCapped:
    """Every cache tier keeps at most TENANT_STATS_LIMIT tenant labels (the
    rest fold into ``"~other"``), and the breakdown still adds up."""

    def test_a_cache_tier_folds_tenants_past_the_cap(self):
        cache = SharedResultCache(maxsize=16)
        for index in range(10_000):
            cache.lookup(f"key{index}", None, tenant=f"tenant{index}")
        info = cache.info()
        assert len(info["per_tenant"]) == TENANT_STATS_LIMIT + 1
        assert info["per_tenant"]["~other"] == {"hits": 0, "misses": 10_000 - TENANT_STATS_LIMIT}
        _assert_per_tenant_adds_up(info)

    def test_the_session_tier_folds_tenants_past_the_cap(self):
        session = Session(["A = A*B"])
        for index in range(3_000):
            session.implies("A = A*B", tenant=f"tenant{index}")
        info = session.cache_info()
        assert len(info["per_tenant"]) == TENANT_STATS_LIMIT + 1
        _assert_per_tenant_adds_up(info)


def _answer_lines(executor, requests):
    return [dump_result_line(r) for r in executor.execute_many(requests)]


class TestExecutorSharedCache:
    @pytest.fixture(scope="class")
    def stream(self):
        return [_implies("A = A*C", tenant=f"t{i % 5}", id=f"q{i}") for i in range(20)]

    def test_repeats_are_answered_parent_side_byte_identically(self, stream):
        with ShardExecutor(shards=2, shared_cache_size=0) as executor:
            expected = _answer_lines(executor, stream)
        with ShardExecutor(shards=2, shared_cache_size=64) as executor:
            first = _answer_lines(executor, stream)
            again = _answer_lines(executor, stream)
            info = executor.shared_cache_info()
        assert first == expected
        assert again == expected
        # Pass 1 probes all miss (the probe runs before any compute), every
        # reassembled line is published; pass 2 is answered entirely tier-0.
        assert info["size"] == 5  # 5 distinct (tenant, question) slots
        assert info["misses"] == len(stream)
        assert info["hits"] == len(stream)
        assert set(info["per_tenant"]) == {f"t{i}" for i in range(5)}

    def test_islands_mode_has_no_ring_and_no_tier0(self, stream):
        # One shard so the second pass deterministically reaches the worker
        # session that answered the first (intra-batch duplicates are
        # amortized by the batch closure, not counted as cache hits).
        with ShardExecutor(shards=1, shared_cache_size=0) as executor:
            executor.execute_many(stream)
            executor.execute_many(stream)
            info = executor.shared_cache_info()
            supervision = supervision_stats(executor.metrics)
        assert info["hits"] == 0 and info["misses"] == 0
        # Repeats still hit somewhere: the per-worker tier-2 sessions.
        assert supervision["worker_cache_hits"] == len(stream)

    def test_invalidate_tenant_reaches_the_shared_tier(self, stream):
        with ShardExecutor(shards=2, shared_cache_size=64) as executor:
            first = _answer_lines(executor, stream)
            assert executor.invalidate_tenant("t0") == 1
            # The dropped tenant recomputes; answers are still byte-identical.
            assert _answer_lines(executor, stream) == first
            assert executor.shared_cache_info()["size"] == 5  # t0 re-published

    def test_result_cache_size_bounds_the_tier2_islands(self, stream):
        with ShardExecutor(shards=2, shared_cache_size=0, result_cache_size=1) as executor:
            expected = _answer_lines(executor, stream)
            assert _answer_lines(executor, stream) == expected


class TestServerTenancyStats:
    def test_stats_and_health_expose_tier_and_tenant_rates(self):
        requests = [
            _implies("A = A*C", tenant="acme", id="a1"),
            _implies("A = A*C", tenant="acme", id="a2"),
            _implies("A = A*C", tenant="globex", id="g1"),
        ]
        lines = [dump_request_line(r) for r in requests]

        async def _converse(host, port, payload):
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(("".join(line + "\n" for line in payload)).encode("utf-8"))
            await writer.drain()
            writer.write_eof()
            answers = [
                (await reader.readline()).decode("utf-8").rstrip("\n") for _ in payload
            ]
            writer.close()
            return answers

        async def scenario():
            # max_batch=1 closes a window per request, so the repeat reaches
            # the session's result cache instead of its window's batch closure.
            # Controls go on a second connection *after* every request is
            # answered — a control line snapshots stats the moment it is read.
            async with QueryServer(ServiceConfig(max_wait_ms=5.0, max_batch=1)) as server:
                await _converse(server.host, server.port, lines)
                return await _converse(
                    server.host, server.port, ['{"control":"stats"}', '{"control":"health"}']
                )

        stats_line, health_line = asyncio.run(asyncio.wait_for(scenario(), 60))
        cache = json.loads(stats_line)["stats"]["result_cache"]
        assert "session" in cache["tiers"]
        tier = cache["tiers"]["session"]
        assert tier["hits"] == 1 and tier["misses"] == 2
        assert tier["hit_rate"] == pytest.approx(1 / 3)
        acme, globex = cache["per_tenant"]["acme"], cache["per_tenant"]["globex"]
        assert acme["hits"] == 1 and acme["misses"] == 1
        assert globex["hits"] == 0 and globex["misses"] == 1
        health_cache = json.loads(health_line)["health"]["cache"]
        assert set(health_cache) >= {"session"}
