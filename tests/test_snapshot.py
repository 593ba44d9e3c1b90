"""Durable Γ snapshots: codec integrity, restore equivalence, zero-warmup deployment.

The contract under test, layer by layer:

* **codec** — ``dump_snapshot → decode_snapshot → dump`` is byte-identical on
  randomized warm sessions; corruption (bit flips, truncation), version skew,
  a missing version field and foreign document kinds are all refused with a
  :class:`~repro.errors.ServiceError` before any artifact is rebuilt;
* **restore semantics** — a restored session is *indistinguishable* from the
  warm session it was captured from: byte-identical answers on mixed query
  streams (embedded-Γ and session-Γ alike), working ``add_dependencies``
  after restore, and a preserved generation counter that refuses stale
  snapshots via ``expected_generation``;
* **deployment** — a snapshot ships to 2-shard executor workers (zero-warmup
  boot, byte-identical output) and seeds the executor's shared tier with its
  result entries, boots the asyncio server warm from
  ``--snapshot-dir``, is written back on drain, and can be exported from a
  *live* server with the ``{"control": "snapshot"}`` line.
"""

import asyncio
import json

import pytest

from repro import profiling
from repro.dependencies.pd import PartitionDependency
from repro.errors import ServiceError
from repro.relational.database import Database
from repro.relational.relations import Relation
from repro.service.config import ServiceConfig
from repro.service.executor import ShardExecutor
from repro.service.planner import execute_plan
from repro.service.server import QueryServer, serve_stream
from repro.service.session import Session
from repro.service.supervisor import supervision_stats
from repro.service.snapshot import (
    SNAPSHOT_VERSION,
    decode_snapshot,
    dump_snapshot,
    read_snapshot,
    restore_session,
    save_snapshot,
    snapshot_path,
)
from repro.service.wire import (
    QueryRequest,
    canonical_dumps,
    canonical_loads,
    dump_result_line,
    requests_to_jsonl,
)
from repro.workloads.random_dependencies import random_pd_set
from repro.workloads.random_service import random_service_requests


def run(coro, timeout=120):
    return asyncio.run(asyncio.wait_for(coro, timeout))


def _mixed_stream(count, seed, embed=True):
    return random_service_requests(
        count,
        seed=seed,
        attribute_count=5,
        theory_count=2,
        pds_per_theory=3,
        max_complexity=2,
        kind_weights={"implies": 5, "equivalent": 3, "consistent": 3, "counterexample": 1},
        embed_dependencies=embed,
    )


def _warm_session(seed, requests=40):
    """A session with a non-trivial Γ that has answered a mixed stream."""
    session = Session(random_pd_set(4, 3, seed=seed, max_complexity=2))
    session.execute_many(_mixed_stream(requests, seed=seed + 1, embed=False))
    return session


def _tampered(text, mutate):
    """Re-serialize a snapshot after ``mutate(payload)``, keeping the digest stale."""
    payload = canonical_loads(text)
    mutate(payload)
    return canonical_dumps(payload)


def _resealed(text, mutate):
    """Like :func:`_tampered` but with the digest honestly recomputed."""
    import hashlib

    payload = canonical_loads(text)
    mutate(payload)
    body = {key: value for key, value in payload.items() if key != "digest"}
    payload["digest"] = hashlib.sha256(canonical_dumps(body).encode("utf-8")).hexdigest()
    return canonical_dumps(payload)


@pytest.fixture(scope="module")
def acceptance_stream():
    """The 200-request acceptance mix (same seed as the CLI and server tests)."""
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
    return [dump_result_line(r) for r in execute_plan(Session(), acceptance_stream)]


class TestCodecRoundTrip:
    @pytest.mark.parametrize("seed", [1, 7, 20260807])
    def test_dump_restore_dump_is_byte_identical(self, seed):
        warm = _warm_session(seed)
        text = dump_snapshot(warm)
        assert dump_snapshot(restore_session(text)) == text

    def test_encode_decode_encode_is_byte_identical(self):
        warm = _warm_session(3)
        text = dump_snapshot(warm)
        assert canonical_dumps(decode_snapshot(text)) == text

    def test_snapshot_carries_explicit_version_and_digest(self):
        payload = decode_snapshot(dump_snapshot(_warm_session(4)))
        assert payload["v"] == SNAPSHOT_VERSION
        assert payload["kind"] == "session_snapshot"
        assert len(payload["digest"]) == 64

    def test_cold_session_snapshots_lazily(self):
        # The snapshot computes nothing just to serialize, and it never
        # carries the Theorem 12 normalization (re-derived from Γ on restore).
        session = Session(["A = A*B"])
        payload = decode_snapshot(dump_snapshot(session))
        assert "normalized" not in payload
        assert payload["results"] == []


class TestCodecRejections:
    def test_truncation_is_refused(self):
        text = dump_snapshot(_warm_session(5))
        with pytest.raises(ServiceError):
            decode_snapshot(text[: len(text) // 2])

    def test_bit_flip_fails_the_digest(self):
        text = dump_snapshot(_warm_session(5))
        flipped = _tampered(text, lambda p: p.__setitem__("generation", p["generation"] + 1))
        with pytest.raises(ServiceError, match="digest mismatch"):
            decode_snapshot(flipped)

    @pytest.mark.parametrize("version", [SNAPSHOT_VERSION + 1, 2, 1, True])
    def test_version_skew_is_refused(self, version):
        # One snapshot version: a newer document, a version-2 or version-1
        # one and a boolean "v" (``True == 1``) are all refused before any
        # shape check.
        text = dump_snapshot(_warm_session(5))
        skewed = _resealed(text, lambda p: p.__setitem__("v", version))
        with pytest.raises(
            ServiceError,
            match=f"snapshot uses version {version!r}; this service speaks version {SNAPSHOT_VERSION}",
        ):
            decode_snapshot(skewed)

    def test_missing_version_is_refused_explicitly(self):
        text = dump_snapshot(_warm_session(5))
        missing = _resealed(text, lambda p: p.pop("v"))
        with pytest.raises(ServiceError, match="missing the 'v' version field"):
            decode_snapshot(missing)

    def test_wrong_kind_is_refused(self):
        text = dump_snapshot(_warm_session(5))
        wrong = _resealed(text, lambda p: p.__setitem__("kind", "request"))
        with pytest.raises(ServiceError, match="kind"):
            decode_snapshot(wrong)

    def test_not_json_and_not_an_object_are_refused(self):
        with pytest.raises(ServiceError):
            decode_snapshot("definitely not json")
        with pytest.raises(ServiceError, match="JSON object"):
            decode_snapshot("[1, 2, 3]")

    def test_structurally_damaged_index_is_refused(self):
        # Honest digest, dishonest class roots: a root pointing forward.
        text = dump_snapshot(_warm_session(6))

        def corrupt(payload):
            parent = payload["index"]["parent"]
            if len(parent) >= 2:
                parent[0] = len(parent) - 1

        with pytest.raises(ServiceError, match="implication index"):
            restore_session(_resealed(text, corrupt))

    def test_root_without_its_self_arc_is_refused(self):
        # Restoring it would answer leq(e, e) = False for the root's members.
        text = dump_snapshot(_warm_session(6))

        def corrupt(payload):
            root, targets = payload["index"]["arcs"][0]
            targets.remove(root)

        with pytest.raises(ServiceError, match="no self-arc"):
            restore_session(_resealed(text, corrupt))

    def test_roots_with_arcs_both_ways_are_refused(self):
        # Two roots that reach each other are one class; parent says two,
        # so equivalent would be False while leq held both ways.
        text = dump_snapshot(_warm_session(6))

        def corrupt(payload):
            arcs = payload["index"]["arcs"]
            (first, first_targets), (second, second_targets) = arcs[0], arcs[1]
            first_targets.append(second)
            second_targets.append(first)

        with pytest.raises(ServiceError, match="arcs both ways"):
            restore_session(_resealed(text, corrupt))

    def test_a_named_tenant_passes_the_default_tenant_shape_check(self):
        # One validator for every tenant: a torn arc entry in a named
        # tenant's index is refused at decode, not met as a crash in restore.
        session = Session(random_pd_set(4, 3, seed=6, max_complexity=2))
        session.add_dependencies(["C = C*D"], tenant="acme")
        session.execute(
            QueryRequest(kind="implies", tenant="acme", query=PartitionDependency.parse("C = C*D"))
        )
        text = dump_snapshot(session)

        def corrupt(payload):
            arcs = payload["tenants"][0][1]["index"]["arcs"]
            arcs[0] = arcs[0][:1]

        with pytest.raises(ServiceError, match="snapshot tenant 'acme' index arc entry"):
            decode_snapshot(_resealed(text, corrupt))


class TestRestoreValidation:
    def test_stale_generation_is_refused(self):
        session = _warm_session(8)
        text = dump_snapshot(session)
        session.add_dependencies(["A = A*B"])
        with pytest.raises(ServiceError, match="stale snapshot"):
            restore_session(text, expected_generation=session.generation)
        # The matching generation restores fine.
        assert restore_session(text, expected_generation=0).generation == 0

    def test_generation_counter_survives_the_round_trip(self):
        session = _warm_session(9)
        session.add_dependencies(["A = A*B"])
        session.add_dependencies(["B = B*C"])
        restored = restore_session(dump_snapshot(session))
        assert restored.generation == session.generation == 2

    def test_mismatched_dependencies_are_refused(self):
        text = dump_snapshot(Session(["A = A*B"]))
        with pytest.raises(ServiceError, match="snapshot Γ mismatch"):
            restore_session(text, expected_dependencies=Session(["B = B*C"]).dependencies)
        restored = restore_session(text, expected_dependencies=Session(["A = A*B"]).dependencies)
        assert [str(pd) for pd in restored.dependencies] == [
            str(pd) for pd in Session(["A = A*B"]).dependencies
        ]


class TestRestoredSessionEquivalence:
    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_byte_identical_on_session_gamma_streams(self, seed):
        """Bare (dependencies=None) requests hit the restored implication index itself."""
        theory = random_pd_set(4, 3, seed=seed, max_complexity=2)
        warm = Session(theory)
        warm.execute_many(_mixed_stream(30, seed=seed, embed=False))
        restored = restore_session(dump_snapshot(warm))
        # A *fresh* stream: these answers cannot come from the shipped cache.
        fresh = _mixed_stream(60, seed=seed + 1000, embed=False)
        warm_lines = [dump_result_line(r) for r in warm.execute_many(fresh)]
        restored_lines = [dump_result_line(r) for r in restored.execute_many(fresh)]
        assert restored_lines == warm_lines

    def test_byte_identical_on_embedded_gamma_streams(self):
        warm = Session(["A = A*B", "B = B*C"])
        stream = _mixed_stream(80, seed=31)
        warm_lines = [dump_result_line(r) for r in warm.execute_many(stream)]
        restored = restore_session(dump_snapshot(warm))
        assert [dump_result_line(r) for r in restored.execute_many(stream)] == warm_lines

    def test_shipped_result_cache_answers_without_recompute(self):
        warm = Session(["A = A*B"])
        stream = _mixed_stream(40, seed=32)
        with profiling.profile() as cold:
            warm.execute_many(stream)
        assert cold.total_work() > 0
        restored = restore_session(dump_snapshot(warm))
        # Why a restore beats a cold start: the captured stream replays
        # without a single chase step, closure pop or backtrack node.
        with profiling.profile() as replay:
            restored.execute_many(stream)
        assert replay.total_work() == 0
        info = restored.cache_info()
        assert info["hits"] == len(stream)
        assert info["misses"] == 0

    def test_stored_normalization_artifacts_cannot_poison_a_restore(self):
        # A = A*B is the FD A -> B, which R(A,B) = {(a,b1),(a,b2)} violates.
        # A snapshot resealed with an empty F must not turn the verdict: the
        # restored session re-derives the normalization from Γ.
        warm = Session(["A = A*B"])
        database = Database([Relation.from_strings("R", "AB", ["a.b1", "a.b2"])])
        verdict = warm.consistent(database)
        assert not verdict.consistent

        def poison(payload):
            payload["normalized"] = {
                "fds": [],
                "sum_constraints": [],
                "fresh_attributes": [],
                "closure_pairs": [],
            }

        text = _resealed(dump_snapshot(warm), poison)
        # No result cache, so the restored session answers from Γ itself.
        restored = restore_session(text, result_cache_size=0)
        answer = restored.consistent(database)
        assert not answer.cached
        assert answer.consistent == verdict.consistent

    def test_restored_context_normalizes_off_the_restored_index(self):
        # The normalization a restored tenant rebuilds equals the warm one,
        # and reading its closure step registers no vertex in the index.
        warm = _warm_session(13)
        restored = restore_session(dump_snapshot(warm))
        request = QueryRequest(kind="implies", query=warm.dependencies[0])
        context = restored.context_for(request)
        vertices = context.peek_engine().index.vertex_count
        rebuilt, original = context.normalized, warm.context_for(request).normalized
        assert context.peek_engine().index.vertex_count == vertices
        assert rebuilt.coded_fds.names == original.coded_fds.names
        assert rebuilt.fds == original.fds
        assert rebuilt.sum_constraints == original.sum_constraints
        assert rebuilt.attribute_closure_pairs == original.attribute_closure_pairs

    def test_restored_session_grows_like_a_warm_one(self):
        theory = random_pd_set(4, 2, seed=41, max_complexity=2)
        extra = random_pd_set(4, 1, seed=42, max_complexity=2)
        restored = restore_session(dump_snapshot(Session(theory)))
        restored.add_dependencies(extra)
        recomputed = Session(list(theory) + list(extra))
        fresh = _mixed_stream(40, seed=43, embed=False)
        assert [dump_result_line(r) for r in restored.execute_many(fresh)] == [
            dump_result_line(r) for r in recomputed.execute_many(fresh)
        ]

    def test_cache_capacity_is_enforced_on_restore(self):
        warm = Session(["A = A*B"])
        warm.execute_many(_mixed_stream(30, seed=51))
        restored = restore_session(dump_snapshot(warm), result_cache_size=5)
        assert restored.cache_info()["size"] == 5
        assert restored.cache_info()["maxsize"] == 5

    def test_restoring_into_a_zero_size_cache_keeps_no_entries(self):
        warm = Session(["A = A*B"])
        stream = _mixed_stream(30, seed=51)
        warm.execute_many(stream)
        snapshot = dump_snapshot(warm)
        assert decode_snapshot(snapshot)["results"]
        restored = restore_session(snapshot, result_cache_size=0)
        assert restored.cache_info()["size"] == 0
        assert decode_snapshot(dump_snapshot(restored))["results"] == []
        assert not any(result.cached for result in restored.execute_many(stream))


class TestShardedRestore:
    def test_two_shard_executor_restores_byte_identically(self, acceptance_stream, expected_lines):
        snapshot = dump_snapshot(Session())
        with ShardExecutor(shards=2, snapshot=snapshot) as executor:
            lines = [dump_result_line(r) for r in executor.execute_many(acceptance_stream)]
        assert lines == expected_lines

    def test_a_warm_snapshot_seeds_the_shared_tier(self):
        warm = Session(["A = A*B"])
        stream = _mixed_stream(40, seed=32)
        expected = [dump_result_line(r) for r in warm.execute_many(stream)]
        with ShardExecutor(shards=2, snapshot=dump_snapshot(warm)) as executor:
            lines = [dump_result_line(r) for r in executor.execute_many(stream)]
            hits = executor.shared_cache_info()["hits"]
            dispatched = supervision_stats(executor.metrics)["units_dispatched"]
        assert lines == expected
        assert hits == len(stream)
        assert dispatched == 0  # every answer came from the parent, no worker ran

    def test_executor_refuses_a_mismatched_snapshot(self):
        snapshot = dump_snapshot(Session(["A = A*B"]))
        with pytest.raises(ServiceError, match="snapshot Γ mismatch"):
            ShardExecutor(shards=2, dependencies=Session(["B = B*C"]).dependencies, snapshot=snapshot)

    def test_executor_adopts_the_snapshot_gamma(self):
        snapshot = dump_snapshot(Session(["A = A*B", "B = B*C"]))
        executor = ShardExecutor(shards=2, snapshot=snapshot)
        assert len(executor._dependencies) == 2


class TestDeployment:
    def test_server_restores_on_boot_and_saves_on_drain(
        self, tmp_path, acceptance_stream, expected_lines
    ):
        warm = Session()
        warm.execute_many(acceptance_stream[:50])
        save_snapshot(warm, tmp_path)
        config = ServiceConfig(max_batch=32, snapshot_dir=str(tmp_path))
        lines, stats = run(serve_stream(requests_to_jsonl(acceptance_stream), config))
        assert lines == expected_lines
        # Satellite: the session's cache diagnostics ride the stats snapshot.
        assert stats["session_cache"]["maxsize"] == config.result_cache_size
        # Save-on-drain rewrote the snapshot with everything this run learned.
        drained = restore_session(read_snapshot(tmp_path))
        drained.execute_many(acceptance_stream)
        assert drained.cache_info()["misses"] == 0

    def test_save_on_drain_creates_the_snapshot_when_none_existed(self, tmp_path):
        config = ServiceConfig(snapshot_dir=str(tmp_path))
        stream = _mixed_stream(20, seed=61)
        run(serve_stream(requests_to_jsonl(stream), config))
        assert snapshot_path(tmp_path).exists()
        restored = restore_session(read_snapshot(tmp_path))
        restored.execute_many(stream)
        assert restored.cache_info()["misses"] == 0

    def test_control_snapshot_line_exports_a_live_server(self, tmp_path):
        stream = _mixed_stream(10, seed=62)
        request_lines = requests_to_jsonl(stream).strip().split("\n")

        async def scenario():
            config = ServiceConfig(snapshot_dir=str(tmp_path))
            async with QueryServer(config) as server:
                reader, writer = await asyncio.open_connection(server.host, server.port)
                payload = "".join(
                    line + "\n" for line in request_lines + ['{"control":"snapshot"}']
                )
                writer.write(payload.encode("utf-8"))
                await writer.drain()
                writer.write_eof()
                answers = [await reader.readline() for _ in range(len(request_lines) + 1)]
                writer.close()
                return [a.decode("utf-8").rstrip("\n") for a in answers]

        answers = run(scenario())
        control = json.loads(answers[-1])
        assert control["control"] == "snapshot"
        assert control["path"] == str(snapshot_path(tmp_path))
        assert control["generation"] == 0
        assert control["bytes"] > 0
        # The live export is a valid, restorable document.
        restored = restore_session(read_snapshot(tmp_path))
        restored.execute_many(stream)
        assert restored.cache_info()["misses"] == 0

    def test_control_snapshot_without_a_directory_answers_an_error(self):
        async def scenario():
            async with QueryServer(ServiceConfig()) as server:
                reader, writer = await asyncio.open_connection(server.host, server.port)
                writer.write(b'{"control":"snapshot"}\n')
                await writer.drain()
                writer.write_eof()
                raw = await reader.readline()
                writer.close()
                return json.loads(raw.decode("utf-8"))

        answer = run(scenario())
        assert answer["control"] == "snapshot"
        assert "snapshot-dir" in answer["error"]["message"]

    def test_file_cli_saves_then_restores(self, tmp_path, acceptance_stream, expected_lines):
        from repro.service.cli import serve_lines

        jsonl = [line for line in requests_to_jsonl(acceptance_stream).split("\n") if line]
        config = ServiceConfig(snapshot_dir=str(tmp_path))
        first, first_stats = serve_lines(jsonl, config=config)
        assert first == expected_lines
        assert first_stats["snapshot"] == str(snapshot_path(tmp_path))
        # Second run boots from the saved snapshot and answers byte-identically.
        second, _ = serve_lines(jsonl, config=config)
        assert second == expected_lines

    def test_config_session_factory_restores_from_directory(self, tmp_path):
        warm = Session(["A = A*B"])
        save_snapshot(warm, tmp_path)
        config = ServiceConfig(snapshot_dir=str(tmp_path))
        assert [str(pd) for pd in config.make_session().dependencies] == [
            str(pd) for pd in warm.dependencies
        ]
        # A configured Γ that contradicts the snapshot is refused.
        mismatched = ServiceConfig(
            dependencies=tuple(Session(["B = B*C"]).dependencies), snapshot_dir=str(tmp_path)
        )
        with pytest.raises(ServiceError, match="snapshot Γ mismatch"):
            mismatched.make_session()
