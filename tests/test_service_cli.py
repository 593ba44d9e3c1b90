"""End-to-end CLI acceptance: ``python -m repro.service`` on a mixed 200-request stream.

The PR's acceptance bar: the CLI must answer a mixed 200-request JSONL
stream (implication, equivalence, weak-instance consistency, counterexample)
with results **byte-identical** to direct in-process API calls — and both
backends (in-process planner, multiprocess shards) must produce the same
bytes as the naive one-at-a-time reference.  The subprocess runs with a minimal environment so
the test exercises exactly what a deployment would run.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.service.cli import serve_lines
from repro.service.config import ServiceConfig
from repro.service.planner import execute_plan, naive_dispatch
from repro.service.session import Session
from repro.service.wire import (
    MAX_EXPRESSION_OPERATORS,
    canonical_dumps,
    dump_result_line,
    load_result_line,
    requests_to_jsonl,
)
from repro.workloads.random_service import random_service_requests

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = str(REPO_ROOT / "src")


def _run_cli(args, stdin_text=None, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "repro.service", *args],
        input=stdin_text,
        capture_output=True,
        text=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
        cwd=cwd or str(REPO_ROOT),
        timeout=300,
    )


@pytest.fixture(scope="module")
def acceptance_stream():
    """The mixed 200-request stream of the acceptance criterion."""
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
    """Direct in-process API answers, wire-encoded (the byte-identity oracle)."""
    return [dump_result_line(r) for r in execute_plan(Session(), acceptance_stream)]


class TestEndToEnd:
    def test_cli_answers_200_request_stream_byte_identically(
        self, tmp_path, acceptance_stream, expected_lines
    ):
        request_file = tmp_path / "requests.jsonl"
        request_file.write_text(requests_to_jsonl(acceptance_stream), encoding="utf-8")
        output_file = tmp_path / "results.jsonl"

        proc = _run_cli([str(request_file), "-o", str(output_file), "--stats"])
        assert proc.returncode == 0, proc.stderr
        produced = output_file.read_text(encoding="utf-8").strip().split("\n")
        assert len(produced) == 200
        assert produced == expected_lines
        prefix = "repro.service stats: "
        stats_line = next(line for line in proc.stderr.splitlines() if line.startswith(prefix))
        stats = json.loads(stats_line[len(prefix) :])
        assert stats_line[len(prefix) :] == canonical_dumps(stats)
        assert stats["mode"] == "session"
        assert stats["requests"] == 200 and stats["invalid"] == 0

    def test_all_dispatch_modes_agree(self, tmp_path, acceptance_stream, expected_lines):
        request_file = tmp_path / "requests.jsonl"
        # Exercise a prefix in the slower modes to keep the test quick.
        prefix = acceptance_stream[:80]
        request_file.write_text(requests_to_jsonl(prefix), encoding="utf-8")

        planner = _run_cli([str(request_file)])
        sharded = _run_cli([str(request_file), "--shards", "2", "--stats"])
        assert planner.returncode == sharded.returncode == 0, planner.stderr + sharded.stderr
        assert '"mode":"shards=2"' in sharded.stderr
        naive = "".join(dump_result_line(r) + "\n" for r in naive_dispatch(prefix))
        assert planner.stdout == naive == sharded.stdout
        assert planner.stdout.strip().split("\n") == expected_lines[:80]

    def test_sharded_file_mode_saves_a_snapshot(self, tmp_path, acceptance_stream, expected_lines):
        """``--shards 2 --snapshot-dir D`` saves the executor's session after
        the stream; restored in process, it answers the stream from cache."""
        from repro.service.snapshot import read_snapshot, restore_session, snapshot_path

        request_file = tmp_path / "requests.jsonl"
        request_file.write_text(requests_to_jsonl(acceptance_stream), encoding="utf-8")
        directory = tmp_path / "snapshots"
        sharded = _run_cli([str(request_file), "--shards", "2", "--snapshot-dir", str(directory)])
        assert sharded.returncode == 0, sharded.stderr
        assert sharded.stdout.strip().split("\n") == expected_lines
        assert snapshot_path(directory).exists()
        restored = restore_session(read_snapshot(directory))
        assert [dump_result_line(r) for r in restored.execute_many(acceptance_stream)] == expected_lines
        assert restored.cache_info()["misses"] == 0

    def test_every_result_decodes_and_echoes_its_request_id(self, acceptance_stream, expected_lines):
        for request, line in zip(acceptance_stream, expected_lines):
            result = load_result_line(line)
            assert result.id == request.id
            assert result.kind == request.kind


class TestServeLines:
    """``serve_lines`` in process: one decode, then one backend's ``execute_many``."""

    def test_default_config_answers_through_the_session(self, acceptance_stream, expected_lines):
        lines = requests_to_jsonl(acceptance_stream).strip().split("\n")
        out, stats = serve_lines(lines)
        assert out == expected_lines
        assert stats["mode"] == "session"
        assert (stats["requests"], stats["invalid"]) == (200, 0)

    def test_sharded_config_answers_byte_identically(self, acceptance_stream, expected_lines):
        lines = requests_to_jsonl(acceptance_stream[:40]).strip().split("\n")
        out, stats = serve_lines(lines, config=ServiceConfig(shards=2))
        assert out == expected_lines[:40]
        assert stats["mode"] == "shards=2"

    @pytest.mark.parametrize("shards", [1, 2])
    def test_undecodable_lines_are_answered_before_dispatch(
        self, shards, acceptance_stream, expected_lines
    ):
        lines = requests_to_jsonl(acceptance_stream[:12]).strip().split("\n")
        lines.insert(3, '{"v": 3, "kind": "implies"')  # torn mid-object
        out, stats = serve_lines(lines, config=ServiceConfig(shards=shards))
        bad = load_result_line(out[3])
        assert not bad.ok and bad.id == "line4"  # positional fallback id
        assert out[:3] + out[4:] == expected_lines[:12]
        assert (stats["requests"], stats["invalid"]) == (13, 1)

    def test_plan_summary_describes_the_in_process_backend_only(self, acceptance_stream):
        lines = requests_to_jsonl(acceptance_stream[:20]).strip().split("\n")
        _, in_process = serve_lines(lines, config=ServiceConfig(stats=True))
        assert in_process["plan"]
        _, sharded = serve_lines(lines, config=ServiceConfig(shards=2, stats=True))
        assert "plan" not in sharded

    def test_readme_wire_example_replays_byte_for_byte(self):
        # README's ``→`` request lines, served, must print exactly its ``←``
        # result lines: the documented wire example stays the service's own.
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8").splitlines()
        sent = [line[2:] for line in readme if line.startswith("→ ")]
        shown = [line[2:] for line in readme if line.startswith("← ")]
        assert len(sent) == len(shown) >= 3
        out, stats = serve_lines(sent)
        assert out == shown
        assert stats["invalid"] == 1  # the version-2 line, answered in place


def _deep_line(shape: str, operators: int) -> str:
    """A request line whose Γ or query side holds a flat chain of ``operators`` operators."""
    chain = "A*" + "*".join(["B"] * operators)
    database = {"relations": [{"name": "R", "attributes": ["A", "B"], "rows": [["1", "2"]]}]}
    payload = {
        "gamma_implies": {"kind": "implies", "dependencies": [f"A = {chain}"], "query": "A = A*B"},
        "gamma_consistent": {"kind": "consistent", "dependencies": [f"A = {chain}"], "database": database},
        "query_implies": {"kind": "implies", "query": f"A = {chain}"},
        "query_equivalent": {"kind": "equivalent", "left": chain, "right": "A*B"},
        "query_quotient": {"kind": "quotient", "pool": [chain, "A", "B"]},
    }[shape]
    return json.dumps({"v": 3, "id": "deep", **payload})


class TestExpressionBound:
    """A flat ``A*B*…`` chain decodes in a loop, but the printer behind every
    cache and Γ key recurses on it: past the wire's operator bound a line is
    refused at decode, in place, and its neighbours are still answered."""

    SHAPES = ["gamma_implies", "gamma_consistent", "query_implies", "query_equivalent", "query_quotient"]
    GOOD = [
        '{"v":3,"kind":"implies","id":"g1","query":"A = A*B"}',
        '{"v":3,"kind":"implies","id":"g2","query":"B = B*A"}',
    ]

    def _serve(self, line):
        out, stats = serve_lines([self.GOOD[0], line, self.GOOD[1]])
        answers = [load_result_line(text) for text in out]
        assert [answer.id for answer in answers] == ["g1", "deep", "g2"]
        assert answers[0].ok and answers[2].ok
        return answers[1], stats

    @pytest.mark.parametrize("shape", SHAPES)
    def test_a_chain_at_the_bound_is_answered(self, shape):
        answer, stats = self._serve(_deep_line(shape, MAX_EXPRESSION_OPERATORS))
        assert answer.ok, answer.error
        assert stats["invalid"] == 0

    @pytest.mark.parametrize("operators", [MAX_EXPRESSION_OPERATORS + 1, 3_000])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_a_chain_past_the_bound_is_refused_in_place(self, shape, operators):
        answer, stats = self._serve(_deep_line(shape, operators))
        assert not answer.ok and answer.kind == "invalid"
        assert answer.error["type"] == "ServiceError"
        assert f"{operators} operators" in answer.error["message"]
        assert stats["invalid"] == 1


class TestCliSurface:
    def test_stdin_stdout_with_session_dependencies(self):
        stdin = (
            '{"v":3,"kind":"implies","id":"x","query":"A = A * C"}\n'
            "\n"
            '{"v":3,"kind":"implies","id":"y","query":"C = C * A"}\n'
        )
        proc = _run_cli(["-d", "A = A*B; B = B*C", "-"], stdin_text=stdin)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().split("\n")
        assert len(lines) == 2
        assert load_result_line(lines[0]).value == {"implied": True}
        assert load_result_line(lines[1]).value == {"implied": False}

    def test_malformed_lines_become_error_results_in_place(self):
        stdin = (
            '{"v":3,"kind":"implies","id":"ok","query":"A = A"}\n'
            "this is not json\n"
            '{"kind":"implies"}\n'
        )
        proc = _run_cli(["-"], stdin_text=stdin)
        assert proc.returncode == 0
        lines = proc.stdout.strip().split("\n")
        assert len(lines) == 3
        assert load_result_line(lines[0]).ok
        bad = load_result_line(lines[1])
        assert not bad.ok and bad.id == "line2"
        worse = load_result_line(lines[2])
        assert not worse.ok and worse.id == "line3"

    def test_error_results_name_original_file_lines_past_blanks(self):
        stdin = (
            "\n"
            '{"v":3,"kind":"implies","id":"ok","query":"A = A"}\n'
            "\n"
            "\n"
            "not json either\n"
        )
        proc = _run_cli(["-"], stdin_text=stdin)
        assert proc.returncode == 0
        lines = proc.stdout.strip().split("\n")
        assert len(lines) == 2  # blank lines produce no results
        assert load_result_line(lines[0]).ok
        bad = load_result_line(lines[1])
        # Line 5 of the *file*, not line 2 of the non-blank stream.
        assert not bad.ok and bad.id == "line5"

    def test_bad_integer_fields_become_error_results_not_crashes(self):
        stdin = '{"kind":"counterexample","id":"z","query":"A = B","max_pool":"oops"}\n'
        proc = _run_cli(["-"], stdin_text=stdin)
        assert proc.returncode == 0, proc.stderr
        result = load_result_line(proc.stdout.strip())
        assert not result.ok
        assert result.id == "z"  # the id parsed, so the error echoes it
        assert result.error["type"] == "ServiceError"

    def test_error_results_echo_the_request_id_when_one_parses(self):
        stdin = (
            '{"kind":"implies","id":"missing-query"}\n'
            '{"kind":"no-such-kind","id":"weird-kind","query":"A = A"}\n'
            "not json at all\n"
        )
        proc = _run_cli(["-"], stdin_text=stdin)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().split("\n")
        results = [load_result_line(line) for line in lines]
        assert [r.ok for r in results] == [False, False, False]
        # Valid JSON carrying an id: the error result echoes that id, so a
        # client matching answers by id sees its own request fail, instead of
        # an anonymous "lineN" it never sent.
        assert results[0].id == "missing-query"
        assert results[1].id == "weird-kind"
        # Unparseable lines still fall back to the file line number.
        assert results[2].id == "line3"

    def test_missing_input_file_fails_cleanly(self, tmp_path):
        proc = _run_cli([str(tmp_path / "does-not-exist.jsonl")])
        assert proc.returncode == 2
        assert "cannot read" in proc.stderr

    def test_bad_dependencies_fail_cleanly(self):
        proc = _run_cli(["-d", "A = = B", "-"], stdin_text="")
        assert proc.returncode == 2
        assert "cannot parse --dependencies" in proc.stderr

    def test_bad_shard_count_fails_cleanly(self):
        proc = _run_cli(["--shards", "0", "-"], stdin_text="")
        assert proc.returncode == 2

    def test_empty_stream_is_fine(self):
        proc = _run_cli(["-"], stdin_text="")
        assert proc.returncode == 0
        assert proc.stdout == ""
