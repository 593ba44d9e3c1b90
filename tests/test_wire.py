"""Wire codec round-trips: randomized byte-identity and semantic oracles (PR 5 satellite).

Every wire type is pushed through ``encode → decode → encode`` on randomized
inputs and the two encodings must be **byte-identical** (via
:func:`~repro.service.wire.canonical_dumps`).  On top of the syntactic
checks, decoded objects are cross-checked against oracle semantics:

* a decoded Γ yields identical implication verdicts to the original on a
  query stream (fresh engines on both sides, so the check does not lean on
  interning identity);
* decoded relations/databases satisfy exactly the same FDs/PDs.

Malformed payloads must raise :class:`~repro.errors.ServiceError` — the CLI
turns those into structured per-line error results.
"""

import gc
import json
import multiprocessing
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.expressions.parser as parser_module
import repro.expressions.printer as printer_module
from repro.dependencies.pd import PartitionDependency
from repro.errors import ServiceError
from repro.expressions.parser import PARSE_MEMO_SIZE, memoized_parse, parse_memo_info
from repro.implication.alg import ImplicationEngine
from repro.service import wire
from repro.service.cli import serve_lines
from repro.service.executor import ShardExecutor
from repro.service.session import Session
from repro.service.wire import QueryRequest, QueryResult, canonical_dumps
from repro.workloads.random_dependencies import random_fd_set, random_pd_set
from repro.workloads.random_expressions import random_expression
from repro.workloads.random_relations import random_database, random_relation
from repro.workloads.random_service import random_service_requests


def _double_trip(encoder, decoder, value):
    """encode → decode → encode; returns (first, second) canonical strings."""
    first = encoder(value)
    second = encoder(decoder(first))
    return canonical_dumps(first), canonical_dumps(second)


class TestExpressionAndDependencyCodecs:
    def test_expression_round_trip_is_interned_identity(self):
        for seed in range(80):
            expression = random_expression(["A", "B", "C", "D1"], seed=seed, max_complexity=5)
            encoded = wire.encode_expression(expression)
            assert wire.decode_expression(encoded) is expression
            assert wire.encode_expression(wire.decode_expression(encoded)) == encoded

    def test_pd_round_trip_byte_identical(self):
        for pd in random_pd_set(4, 60, seed=11, max_complexity=4):
            first, second = _double_trip(wire.encode_pd, wire.decode_pd, pd)
            assert first == second

    def test_pd_fpd_shorthand_decodes(self):
        pd = wire.decode_pd("A <= B")
        assert wire.encode_pd(pd) == "A = A * B"

    def test_fd_round_trip_byte_identical(self):
        for fd in random_fd_set(6, 40, seed=3, max_side=4):
            first, second = _double_trip(wire.encode_fd, wire.decode_fd, fd)
            assert first == second
            assert wire.decode_fd(wire.encode_fd(fd)) == fd


class TestRelationalCodecs:
    def test_relation_round_trip_byte_identical(self):
        for seed in range(25):
            relation = random_relation(4, 6, domain_size=3, seed=seed)
            first, second = _double_trip(wire.encode_relation, wire.decode_relation, relation)
            assert first == second
            assert wire.decode_relation(wire.encode_relation(relation)) == relation

    def test_database_round_trip_byte_identical_and_semantics(self):
        for seed in range(15):
            database = random_database(3, 5, 3, 4, seed=seed)
            first, second = _double_trip(wire.encode_database, wire.decode_database, database)
            assert first == second
            decoded = wire.decode_database(wire.encode_database(database))
            assert decoded == database
            assert decoded.universe == database.universe
            # Decoded relations satisfy exactly the same FDs as the originals.
            for fd in random_fd_set(5, 10, seed=seed + 1, max_side=2):
                for original, copy in zip(
                    sorted(database.relations, key=lambda r: r.name),
                    sorted(decoded.relations, key=lambda r: r.name),
                ):
                    if fd.attributes <= original.attributes:
                        assert original.satisfies_fd(fd) == copy.satisfies_fd(fd)

class TestGammaOracle:
    """A decoded Γ must answer implication exactly like the original."""

    def test_decoded_gamma_yields_identical_verdicts(self):
        for seed in range(12):
            theory = random_pd_set(4, 5, seed=seed, max_complexity=3)
            decoded_theory = [wire.decode_pd(wire.encode_pd(pd)) for pd in theory]
            queries = random_pd_set(4, 12, seed=seed + 100, max_complexity=3)
            original_engine = ImplicationEngine(theory)
            decoded_engine = ImplicationEngine(decoded_theory)
            for query in queries:
                assert original_engine.implies(query) == decoded_engine.implies(query)


class TestRequestResultCodecs:
    def test_request_stream_round_trip_byte_identical(self):
        requests = random_service_requests(
            60, seed=21, include_cad=True, theory_count=3, pds_per_theory=3
        )
        for request in requests:
            first, second = _double_trip(wire.encode_request, wire.decode_request, request)
            assert first == second

    def test_decoded_request_fields_reintern(self):
        request = QueryRequest(
            kind="implies",
            id="r1",
            dependencies=(PartitionDependency.parse("A = A*B"),),
            query=PartitionDependency.parse("A = A * (B + C)"),
        )
        decoded = wire.decode_request(wire.encode_request(request))
        assert decoded.query.left is request.query.left
        assert decoded.query.right is request.query.right
        assert decoded.dependencies[0].left is request.dependencies[0].left

    def test_request_cache_key_is_id_independent(self):
        base = QueryRequest(kind="implies", query=PartitionDependency.parse("A = A*B"))
        assert wire.request_cache_key(base) == wire.request_cache_key(base.with_id("other"))
        different = QueryRequest(kind="implies", query=PartitionDependency.parse("B = B*A"))
        assert wire.request_cache_key(base) != wire.request_cache_key(different)

    def test_result_round_trip_byte_identical(self):
        results = [
            QueryResult(kind="implies", ok=True, id="a", value={"implied": True}),
            QueryResult(kind="consistent", ok=True, value={"consistent": False, "method": "cad"}),
            QueryResult(kind="quotient", ok=False, id="z", error={"type": "X", "message": "m"}),
        ]
        for result in results:
            first, second = _double_trip(wire.encode_result, wire.decode_result, result)
            assert first == second

    def test_cached_flag_is_transport_only(self):
        plain = QueryResult(kind="implies", ok=True, value={"implied": True})
        cached = QueryResult(kind="implies", ok=True, value={"implied": True}, cached=True)
        assert wire.encode_result(plain) == wire.encode_result(cached)
        assert plain == cached  # compare=False on the flag

    def test_jsonl_helpers_round_trip(self):
        requests = random_service_requests(10, seed=5)
        text = wire.requests_to_jsonl(requests)
        lines = text.strip().split("\n")
        decoded = [wire.load_request_line(line) for line in lines]
        assert [wire.dump_request_line(r) for r in decoded] == lines


#: A one-relation database payload, so a ``consistent`` case fails on its own field.
ONE_RELATION = '{"relations": [{"name": "r", "attributes": ["A"], "rows": [["a"]]}]}'


class TestMalformedPayloads:
    @pytest.mark.parametrize(
        "payload, message",
        [
            ("not json at all", "invalid JSON on the wire"),
            ('{"v": 3, "kind": "implies"}', "implies payload is missing the 'query' field"),
            ('{"v": 3, "kind": "nonsense", "query": "A = B"}', "unknown request kind 'nonsense'"),
            (
                '{"kind": "implies", "query": "A = B", "v": 999}',
                "request uses version 999; this service speaks version 3",
            ),
            (
                '{"kind": "implies", "query": "A = B", "v": true}',
                "request uses version True; this service speaks version 3",
            ),
            (
                '{"kind": "implies", "query": "A = B", "v": 3.0}',
                "request uses version 3.0; this service speaks version 3",
            ),
            (
                '{"v": 3, "kind": "consistent", "database": ' + ONE_RELATION + ', "method": "psychic"}',
                "unknown consistency method 'psychic'",
            ),
            (
                '{"v": 3, "kind": "equivalent", "left": "A +* B", "right": "A"}',
                "cannot decode expression 'A \\+\\* B'",
            ),
            ('{"v": 3, "kind": "quotient", "pool": []}', "needs a non-empty 'pool'"),
            (
                '{"v": 3, "kind": "fd_implies", "fds": [{"lhs": ["A"]}],'
                ' "target": {"lhs": ["A"], "rhs": ["B"]}}',
                "FD payload is missing the 'rhs' field",
            ),
            (
                '{"v": 3, "kind": "counterexample", "query": "A = B", "max_pool": "oops"}',
                "field 'max_pool' must be an integer, got 'oops'",
            ),
            (
                '{"v": 3, "kind": "counterexample", "query": "A = B", "max_pool": [400]}',
                "field 'max_pool' must be an integer, got \\[400\\]",
            ),
            (
                '{"v": 3, "kind": "counterexample", "query": "A = B", "max_pool": null}',
                "field 'max_pool' must be an integer, got null",
            ),
            (
                '{"v": 3, "kind": "consistent", "database": ' + ONE_RELATION + ', "max_nodes": "x"}',
                "field 'max_nodes' must be an integer, got 'x'",
            ),
            (
                '{"v": 3, "kind": "consistent", "database": ' + ONE_RELATION + ', "max_nodes": true}',
                "field 'max_nodes' must be an integer, got True",
            ),
            ('{"v": 3, "kind": "implies", "id": [1], "query": "A = B"}', "'id' must be a string"),
            ('{"v": 3, "kind": "implies", "id": 7, "query": "A = B"}', "'id' must be a string"),
        ],
    )
    def test_bad_request_lines_raise_service_error(self, payload, message):
        with pytest.raises(ServiceError, match=message):
            wire.load_request_line(payload)

    @pytest.mark.parametrize("bad_id", ["[1]", "7", "{}", "true"])
    def test_non_string_ids_are_refused_and_not_echoed(self, bad_id):
        line = f'{{"v": 3, "kind": "implies", "id": {bad_id}, "query": "A = B"}}'
        (answer,), stats = serve_lines([line])
        result = wire.load_result_line(answer)
        assert not result.ok and stats["invalid"] == 1
        assert result.id == "line1"
        assert result.error == {
            "type": "ServiceError",
            "message": f"'id' must be a string, got {json.loads(bad_id)!r}",
        }

    def test_missing_version_is_rejected_explicitly(self):
        # The version is required, never defaulted: an envelope without "v"
        # is refused with a message that names the field.
        with pytest.raises(ServiceError, match="missing the 'v' version field"):
            wire.load_request_line('{"kind": "implies", "query": "A = B"}')
        with pytest.raises(ServiceError, match="missing the 'v' version field"):
            wire.decode_result({"kind": "implies", "ok": True, "value": {}})

    @pytest.mark.parametrize("version", [1, 2])
    @pytest.mark.parametrize(
        "payload",
        [
            {"kind": "implies", "query": "A = A * B"},
            {"kind": "implies", "query": "A = A * B", "deadline_ms": 100},
            {"kind": "implies", "query": "A = A * B", "tenant": "t"},
            {"kind": "implies", "query": "A = A * B", "trace": "t1"},
            {"kind": "implies", "ok": True, "value": {"implied": True}},
        ],
        ids=["request", "deadline", "tenant", "trace", "result"],
    )
    def test_old_envelopes_are_refused_naming_the_version_spoken(self, version, payload):
        # One wire version: a v1/v2 request or result is refused outright,
        # whatever fields it carries, and the error names version 3.
        line = json.dumps({"v": version, "id": "old", **payload})
        message = f"uses version {version}; this service speaks version 3"
        load = wire.load_result_line if "ok" in payload else wire.load_request_line
        with pytest.raises(ServiceError, match=message):
            load(line)
        if "ok" not in payload:
            # The CLI still answers the refused line in place, under its id.
            (answer,), stats = serve_lines([line])
            result = wire.load_result_line(answer)
            assert stats["invalid"] == 1 and result.kind == "invalid" and result.id == "old"
            assert result.error == {"type": "ServiceError", "message": "request " + message}

    def test_explicit_null_max_nodes_means_unbounded(self):
        request = wire.load_request_line(
            '{"v": 3, "kind": "consistent", "database": {"relations": '
            '[{"name": "r", "attributes": ["A"], "rows": [["a"]]}]}, "max_nodes": null}'
        )
        assert request.max_nodes is None

    def test_bad_result_payloads_raise_service_error(self):
        for payload, message in (
            ({"v": 3, "kind": "implies"}, "result payload is missing the 'ok' field"),
            ({"v": 3, "kind": "implies", "ok": "yes"}, "result 'ok' must be a boolean"),
            ({"v": 3, "kind": "implies", "ok": True}, "result payload is missing the 'value' field"),
            (
                {"v": 3, "kind": "implies", "ok": False, "error": "boom"},
                "result 'error' must be a JSON object",
            ),
            ({"kind": "implies", "ok": True, "value": {}, "v": 99}, "result uses version 99"),
            ({"v": 3, "kind": "implies", "ok": True, "id": 7, "value": {}}, "'id' must be a string, got 7"),
        ):
            with pytest.raises(ServiceError, match=message):
                wire.decode_result(payload)
        with pytest.raises(ServiceError, match="'id' must be a string, got 7"):
            wire.load_result_line('{"v":3,"kind":"implies","ok":true,"id":7,"value":{}}')

    def test_validate_request_rejects_missing_fields(self):
        with pytest.raises(ServiceError):
            wire.validate_request(QueryRequest(kind="equivalent"))
        with pytest.raises(ServiceError):
            wire.validate_request(QueryRequest(kind="consistent"))


class TestDeadlineOnTheWire:
    def test_deadline_round_trips_on_the_current_version(self):
        request = QueryRequest(
            kind="implies", id="q1", query=PartitionDependency.parse("A = A*B"), deadline_ms=250
        )
        payload = wire.encode_request(request)
        assert payload["v"] == wire.WIRE_VERSION == 3
        assert payload["deadline_ms"] == 250
        assert wire.decode_request(payload).deadline_ms == 250

    def test_requests_without_deadline_omit_the_field(self):
        request = QueryRequest(kind="implies", query=PartitionDependency.parse("A = A*B"))
        assert "deadline_ms" not in wire.encode_request(request)
        assert wire.decode_request(wire.encode_request(request)).deadline_ms is None

    @pytest.mark.parametrize("value", ["100", True, 0, -5, 1.5])
    def test_invalid_deadline_values_are_rejected(self, value):
        payload = {"v": 3, "kind": "implies", "query": "A = A * B", "deadline_ms": value}
        with pytest.raises(ServiceError, match="'deadline_ms' must be"):
            wire.decode_request(payload)

    def test_cache_key_ignores_deadline(self):
        query = PartitionDependency.parse("A = A*B")
        with_deadline = QueryRequest(kind="implies", id="a", query=query, deadline_ms=100)
        without = QueryRequest(kind="implies", id="b", query=query)
        assert wire.request_cache_key(with_deadline) == wire.request_cache_key(without)


#: The acceptance mix, one window of it.
ACCEPTANCE_MIX = {"implies": 5, "equivalent": 3, "consistent": 3, "counterexample": 1}

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


def _outcome(decode, text):
    try:
        return ("value", decode(text))
    except ServiceError as exc:
        return ("error", str(exc))


class TestParseMemo:
    """Decoding goes through one bounded text memo; errors are never memoized."""

    @given(st.text(alphabet="AB1 *+().=<≤·#", max_size=14))
    @example("A +* B")
    @example("A = ")
    @example("(A = B")
    @example("A <= B)")
    @example("")
    @settings(max_examples=200, deadline=None)
    def test_decoding_a_text_twice_gives_the_same_outcome(self, text):
        for decode in (wire.decode_pd, wire.decode_expression):
            first = _outcome(decode, text)
            second = _outcome(decode, text)
            if first[0] == "value":
                assert second[0] == "value" and second[1] is first[1]
            else:
                assert second == first

    @given(st.integers(min_value=1, max_value=64))
    @settings(max_examples=3, deadline=None)
    def test_memo_never_holds_more_than_its_bound(self, extra):
        memoized_parse.cache_clear()
        texts = [f"M{i} * N" for i in range(PARSE_MEMO_SIZE + extra)]
        for text in texts:
            wire.decode_expression(text)
        assert parse_memo_info() == {"entries": PARSE_MEMO_SIZE, "bound": PARSE_MEMO_SIZE}
        hits = memoized_parse.cache_info().hits
        wire.decode_expression(texts[-1])  # the newest text is still held
        assert memoized_parse.cache_info().hits == hits + 1
        wire.decode_expression(texts[0])  # the oldest was evicted: parsed again
        assert memoized_parse.cache_info().hits == hits + 1
        memoized_parse.cache_clear()

    @pytest.mark.skipif(not HAS_FORK, reason="platform has no fork start method")
    def test_forked_two_shard_executor_answers_byte_identically(self):
        lines = wire.requests_to_jsonl(
            random_service_requests(24, seed=11, kind_weights=ACCEPTANCE_MIX, include_cad=True)
        ).splitlines()
        # Decoding in the parent fills the memo and the rendering slots the
        # forked workers inherit.
        requests = [wire.load_request_line(line) for line in lines]
        reference = [wire.dump_result_line(r) for r in Session().execute_many(requests)]
        with ShardExecutor(shards=2, start_method="fork") as executor:
            answers = executor.execute_many([wire.load_request_line(line) for line in lines])
        assert [wire.dump_result_line(r) for r in answers] == reference


class TestParseOnceRenderOnce:
    """A timing-free guard on the wire's text memo and the cached renderings."""

    def test_a_repeated_window_tokenizes_each_text_once_and_renders_nothing_again(
        self, monkeypatch
    ):
        window = wire.requests_to_jsonl(
            random_service_requests(12, seed=3, kind_weights=ACCEPTANCE_MIX, include_cad=True)
        ).splitlines()
        expected = set()
        for line in window:
            payload = json.loads(line)
            for text in payload.get("dependencies", []) + [payload.get("query", "")]:
                expected.update(side.strip() for side in text.split("=") if side.strip())
            expected.update(payload[key] for key in ("left", "right") if key in payload)

        tokenized = Counter()
        rendered = []
        tokenize, render = parser_module.tokenize, printer_module._render_infix

        def counting_tokenize(text):
            tokenized[text] += 1
            return tokenize(text)

        def counting_render(expression):
            rendered.append(expression)
            return render(expression)

        monkeypatch.setattr(parser_module, "tokenize", counting_tokenize)
        monkeypatch.setattr(printer_module, "_render_infix", counting_render)
        memoized_parse.cache_clear()

        first, _ = serve_lines(window)
        assert set(tokenized) == expected
        assert max(tokenized.values()) == 1
        tokenized_once, rendered_once = sum(tokenized.values()), len(rendered)
        assert rendered_once > 0
        gc.collect()
        second, _ = serve_lines(window)
        assert second == first
        assert sum(tokenized.values()) == tokenized_once
        assert len(rendered) == rendered_once
