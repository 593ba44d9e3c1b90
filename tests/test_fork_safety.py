"""Fork/spawn safety of the global intern and memo tables (PR 5 satellite).

The hash-consed AST (:mod:`repro.expressions.ast`) and the Whitman ``≤_id``
memo (:mod:`repro.implication.identities`) are process-global weak tables.
Multiprocessing workers — the service's shard executor — must therefore:

* **re-intern correctly in children**: expressions pickled across the
  process boundary re-intern through their constructors, so inside any
  worker ``decode(pickle) is parse(render)`` — one interned object per
  syntax tree, never a stale alias of the parent's;
* **start forked children with a clean ``≤_id`` memo**: a fork can land
  while another thread is mid-recursion, between the cycle-guard ``False``
  seed and the final verdict — the child would inherit the seed as a
  "memoized" wrong answer.  The ``os.register_at_fork`` hook clears the memo
  in the child (and rebuilds the intern tables from their live items), which
  these tests observe behaviorally: a parent-warmed cache reports **zero**
  pairs inside a fork child.

Everything a child asserts is shipped back as data and re-asserted in the
parent, so a failing child fails the test rather than just a worker.
"""

import multiprocessing
import os
import pickle

import pytest

from repro.expressions.ast import (
    Attr,
    Product,
    Sum,
    _rebuild_intern_tables_after_fork,
    interned_counts,
)
from repro.expressions.parser import parse_expression
from repro.expressions.printer import to_infix
from repro.implication.identities import (
    identically_leq,
    identically_leq_cold,
    identity_cache_info,
)

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

#: Pairs probed on both sides of every process boundary.
PROBE_TEXTS = [
    ("A * B", "A"),
    ("A", "A + B"),
    ("A * (B + C)", "A * B + A * C"),
    ("(A + B) * (A + C)", "A + B * C"),
]


def _child_report(payload: bytes) -> dict:
    """Runs inside a worker: re-intern, probe the memo, return observations."""
    expressions = pickle.loads(payload)  # re-interns via __reduce__
    report = {
        "cache_pairs_at_start": identity_cache_info()["pairs"],
        "reinterned_identity": [],
        "verdicts": [],
        "fresh_interning_ok": Attr("A") is Attr("A")
        and Product(Attr("A"), Attr("B")) is Product(Attr("A"), Attr("B")),
    }
    for expression in expressions:
        rebuilt = parse_expression(to_infix(expression))
        report["reinterned_identity"].append(rebuilt is expression)
    for left_text, right_text in PROBE_TEXTS:
        left = parse_expression(left_text)
        right = parse_expression(right_text)
        report["verdicts"].append(identically_leq(left, right))
    return report


def _run_in_child(start_method: str, payload: bytes) -> dict:
    context = multiprocessing.get_context(start_method)
    with context.Pool(1) as pool:
        return pool.apply(_child_report, (payload,))


def _parent_payload() -> bytes:
    expressions = [
        parse_expression("A * (B + C)"),
        parse_expression("(A + B) * (A + C) * D"),
        Sum(Product(Attr("A"), Attr("B")), Attr("C")),
    ]
    return pickle.dumps(expressions)


def _oracle_verdicts() -> list:
    return [
        identically_leq_cold(parse_expression(left), parse_expression(right))
        for left, right in PROBE_TEXTS
    ]


@pytest.mark.skipif(not HAS_FORK, reason="platform has no fork start method")
class TestForkChildren:
    def test_fork_child_reinterns_and_starts_with_clean_memo(self):
        payload = _parent_payload()
        # Warm the parent memo so a dirty inheritance would be visible.
        for left, right in PROBE_TEXTS:
            identically_leq(parse_expression(left), parse_expression(right))
        assert identity_cache_info()["pairs"] > 0

        parent_pairs_before = identity_cache_info()["pairs"]
        report = _run_in_child("fork", payload)

        # The at-fork hook cleared the child's memo despite the warm parent.
        assert report["cache_pairs_at_start"] == 0
        assert all(report["reinterned_identity"])
        assert report["fresh_interning_ok"]
        assert report["verdicts"] == _oracle_verdicts()
        # The parent's own state is untouched by the child's lifecycle.
        assert identity_cache_info()["pairs"] >= parent_pairs_before

    def test_fork_child_intern_tables_stay_self_consistent(self):
        report = _run_in_child("fork", _parent_payload())
        assert all(report["reinterned_identity"])
        assert report["fresh_interning_ok"]


class TestSpawnChildren:
    def test_spawn_child_reinterns_from_scratch(self):
        report = _run_in_child("spawn", _parent_payload())
        assert report["cache_pairs_at_start"] == 0
        assert all(report["reinterned_identity"])
        assert report["fresh_interning_ok"]
        assert report["verdicts"] == _oracle_verdicts()


def _restored_child_report(snapshot_text: str, encoded_requests: list) -> dict:
    """Runs inside a worker: restore a session from snapshot text, answer a stream.

    Restoring *inside* the child is the sharp case: every snapshot PD
    re-interns through the parser against the child's (rebuilt, post-fork)
    weak tables, and the index rebuilt from Γ must agree with them.
    """
    from repro.service.snapshot import restore_session
    from repro.service.wire import dump_result_line, load_request_line

    session = restore_session(snapshot_text)
    requests = [load_request_line(line) for line in encoded_requests]
    lines = [dump_result_line(r) for r in session.execute_many(requests)]
    probe = parse_expression(to_infix(session.dependencies[0].left))
    return {
        "lines": lines,
        "generation": session.generation,
        "reinterned_identity": probe is session.dependencies[0].left,
    }


def _snapshot_fixture():
    from repro.service.session import Session
    from repro.service.snapshot import dump_snapshot
    from repro.service.wire import dump_request_line, dump_result_line
    from repro.workloads.random_service import random_service_requests

    warm = Session(["A = A*B", "B = B*C"])
    stream = random_service_requests(
        30, seed=77, attribute_count=4, theory_count=1, pds_per_theory=2, max_complexity=2
    )
    expected = [dump_result_line(r) for r in warm.execute_many(stream)]
    return dump_snapshot(warm), [dump_request_line(r) for r in stream], expected


class TestRestoredSessionsInChildren:
    """Snapshot restore composes with the fork/spawn safety story (PR 7)."""

    @pytest.mark.skipif(not HAS_FORK, reason="platform has no fork start method")
    def test_fork_child_restores_byte_identically(self):
        snapshot, encoded, expected = _snapshot_fixture()
        context = multiprocessing.get_context("fork")
        with context.Pool(1) as pool:
            report = pool.apply(_restored_child_report, (snapshot, encoded))
        assert report["lines"] == expected
        assert report["generation"] == 0
        assert report["reinterned_identity"]

    def test_spawn_child_restores_byte_identically(self):
        snapshot, encoded, expected = _snapshot_fixture()
        context = multiprocessing.get_context("spawn")
        with context.Pool(1) as pool:
            report = pool.apply(_restored_child_report, (snapshot, encoded))
        assert report["lines"] == expected
        assert report["reinterned_identity"]

    @pytest.mark.skipif(not HAS_FORK, reason="platform has no fork start method")
    def test_forking_a_restored_session_keeps_children_consistent(self):
        # The other direction: restore in the *parent*, then fork workers that
        # re-intern the same expressions from scratch.
        from repro.service.snapshot import restore_session
        from repro.service.wire import dump_result_line, load_request_line

        snapshot, encoded, expected = _snapshot_fixture()
        restored = restore_session(snapshot)
        requests = [load_request_line(t) for t in encoded]
        assert [dump_result_line(r) for r in restored.execute_many(requests)] == expected
        report = _run_in_child("fork", _parent_payload())
        assert all(report["reinterned_identity"])
        assert report["verdicts"] == _oracle_verdicts()


class TestAtForkHookMechanics:
    def test_register_at_fork_is_available_here(self):
        # The hooks are what the skipif-guarded tests rely on; if this ever
        # fails the fork tests above would be silently meaningless.
        assert hasattr(os, "register_at_fork") == (os.name == "posix")

    def test_rebuild_preserves_live_nodes_and_identity(self):
        before = parse_expression("A * (B + C) * D")
        counts_before = interned_counts()
        _rebuild_intern_tables_after_fork()
        assert interned_counts() == counts_before
        assert parse_expression("A * (B + C) * D") is before
        assert Attr("A") is before.left.left  # type: ignore[attr-defined]

    def test_rebuild_keeps_tables_weak(self):
        probe = parse_expression("Zq1 * Zq2")
        _rebuild_intern_tables_after_fork()
        assert parse_expression("Zq1 * Zq2") is probe
        count_with_probe = interned_counts()["Product"]
        del probe
        import gc

        gc.collect()
        assert interned_counts()["Product"] <= count_with_probe
