"""A committed snapshot pins the snapshot format across implementations.

``data/pinned_session.snapshot.json`` was exported from the session
:func:`pinned_session` builds.  Its ``add_dependencies`` calls merge
congruence classes (``A = A*B`` with ``B = B*A`` collapses ``A`` and ``B``,
``C = C*D`` with ``D = D*C`` collapses ``C`` and ``D``), so the index a
restore rebuilds from Γ is not just the per-vertex identity.  The current
code must restore that document and re-export it byte for byte, and a fresh
session fed the same stream must export the same bytes: the snapshot format
is a contract, not an artifact of one implementation.

A version-5 snapshot holds each tenant's Γ and generation and the result
cache, each entry stamped with the generation it was answered against
(``-1`` when it read no tenant Γ).  Neither the ALG index nor the Theorem 12
normalization is part of the contract: both are rebuilt from Γ.  The
document was re-exported from :func:`pinned_session` when entries gained
their stamps.  Its Γs and generations are those of the version-4 document
before it, and its live entries (stamp ``-1`` or the tenant's generation)
are that document's entries, in the same order and with the same key and
result bytes.  The other entries answered Γs that later writes replaced:
a restore keeps them, and no lookup can reach them.
"""

from pathlib import Path

from repro.service.session import Session
from repro.service.snapshot import dump_snapshot, restore_session
from repro.service.wire import QueryRequest
from repro.workloads.random_service import random_service_requests

PINNED = Path(__file__).parent / "data" / "pinned_session.snapshot.json"


def _stream(seed):
    return random_service_requests(
        30,
        seed=seed,
        attribute_count=5,
        theory_count=1,
        pds_per_theory=2,
        max_complexity=2,
        kind_weights={"implies": 5, "equivalent": 3, "consistent": 3, "counterexample": 1},
        embed_dependencies=False,
    )


def pinned_session():
    """The seeded session behind the pinned snapshot (three streams, two merging writes).

    The first two streams run one request at a time, so their implication
    queries grow the session's own index before each merge.
    """
    session = Session(["A = A*(B+C)", "D = D*(A+E)"])
    for request in _stream(41):
        session.execute(request)
    session.add_dependencies(["A = A*B", "B = B*A"])
    for request in _stream(42):
        session.execute(request)
    session.add_dependencies(["C = C*D", "D = D*C"])
    session.execute_many(_stream(43))
    return session


def test_pinned_snapshot_restores_and_reexports_byte_for_byte():
    text = PINNED.read_text(encoding="utf-8")
    restored = restore_session(text)
    assert dump_snapshot(restored) == text
    index = restored.context_for(QueryRequest(kind="implies", query=restored.dependencies[0])).engine.index
    assert index.vertex_count - index.class_count >= 2  # merged classes
    assert restored.equivalent("A", "B").equivalent and restored.equivalent("C", "D").equivalent


def test_fresh_session_exports_the_pinned_bytes():
    assert dump_snapshot(pinned_session()) == PINNED.read_text(encoding="utf-8")
