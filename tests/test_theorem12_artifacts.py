"""The Theorem 12 pipeline's artifacts: normalization views, the engine check, lazy ``I(w)``.

Normalization emits ``F`` int-coded; its name-level views (``fds``,
``attribute_closure_pairs``) and the surviving sum constraints are pinned to
a digest, which the index-read and the naive-ALG closures must both give.  ``pd_consistency``
accepts an engine built from the caller's own coded ``F`` without comparing
FD sets, still rejects an engine over another set, and builds the witness
interpretation only when it is read.
"""

from __future__ import annotations

import hashlib
import importlib
import random

import pytest

from repro.consistency.normalization import normalize_dependencies
from repro.consistency.pd_consistency import pd_chase_engine, pd_consistency
from repro.errors import ConsistencyError
from repro.relational.chase_engine import ChaseEngine, CodedFds
from repro.relational.database import Database
from repro.relational.relations import Relation
from repro.workloads.random_dependencies import random_pd_set

from tests.conftest import NaiveClosureEngine

# The package re-exports the function under the module's name, so reach the module itself.
pd_consistency_module = importlib.import_module("repro.consistency.pd_consistency")


def _normalization_digest(naive: bool) -> str:
    """SHA-256 over ``fds``, ``attribute_closure_pairs`` and ``sum_constraints`` of 150 seeded PD sets."""
    digest = hashlib.sha256()
    for seed in range(150):
        rng = random.Random(seed)
        pds = random_pd_set(
            rng.randint(2, 6), rng.randint(1, 6), seed=seed, max_complexity=rng.randint(1, 4)
        )
        engine = NaiveClosureEngine(pds) if naive else None
        normalized = normalize_dependencies(pds, engine=engine)
        lines = [str(seed)]
        lines += [
            f"fd {','.join(fd.lhs.sorted())} -> {','.join(fd.rhs.sorted())}" for fd in normalized.fds
        ]
        lines += [f"leq {a} {b}" for a, b in normalized.attribute_closure_pairs]
        lines += [f"sum {constraint}" for constraint in normalized.sum_constraints]
        digest.update("\n".join(lines).encode() + b"\n\n")
    return digest.hexdigest()


#: Computed over the class-named universe (one fresh name per ``=_E`` class of
#: composites); both closure engines must reproduce it exactly.
PINNED_NORMALIZATION_DIGEST = "002a42b69a55cf397cea25f20d6dab347e14be75443fa9e384a71eaa2c762d2f"


class TestNormalizationViewsPinned:
    @pytest.mark.parametrize("naive", [False, True], ids=["index", "naive"])
    def test_views_match_the_pinned_digest(self, naive):
        assert _normalization_digest(naive) == PINNED_NORMALIZATION_DIGEST


class TestEngineCheck:
    def test_engine_from_the_callers_artifact_skips_the_fd_comparison(self, monkeypatch):
        constraints = ["A = A*B", "B = B*C", "D = A + B"]
        normalized = normalize_dependencies(constraints)
        engine = ChaseEngine(normalized.coded_fds)
        decoded = []
        original = CodedFds.fds
        monkeypatch.setattr(CodedFds, "fds", lambda self: decoded.append(self) or original(self))
        database = Database([Relation.from_strings("R", "AB", ["a1.b1", "a1.b2"])])
        result = pd_consistency(database, constraints, engine=engine, normalized=normalized)
        assert not result.consistent
        assert decoded == []  # an identity check: no FD object was built or hashed

    def test_engine_over_another_fd_set_is_rejected(self):
        database = Database([Relation.from_strings("R", "AB", ["a1.b1"])])
        wrong_engine = pd_chase_engine(["B = B*A"])
        with pytest.raises(ConsistencyError):
            pd_consistency(database, ["A = A*B"], engine=wrong_engine)


class TestLazyInterpretation:
    def test_interpretation_is_built_once_on_first_read(self, monkeypatch):
        built = []
        original = pd_consistency_module.canonical_interpretation
        monkeypatch.setattr(
            pd_consistency_module,
            "canonical_interpretation",
            lambda witness: built.append(witness) or original(witness),
        )
        database = Database([Relation.from_strings("R", "AB", ["a1.b1", "a2.b1"])])
        result = pd_consistency(database, ["A = A*B"])
        assert result.consistent and built == []
        interpretation = result.interpretation
        assert built == [result.weak_instance]
        assert result.interpretation is interpretation
        assert interpretation.satisfies_database(database)
        assert interpretation.satisfies_pd("A = A*B")

    def test_inconsistent_result_has_no_interpretation(self):
        database = Database([Relation.from_strings("R", "AB", ["a1.b1", "a1.b2"])])
        result = pd_consistency(database, ["A = A*B"])
        assert not result.consistent
        assert result.weak_instance is None and result.interpretation is None
