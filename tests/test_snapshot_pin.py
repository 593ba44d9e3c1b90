"""A committed snapshot pins the implication index's state format across versions.

``data/pinned_session.snapshot.json`` was exported by an earlier
implementation of :class:`~repro.implication.index.ImplicationIndex` (the
union-find arc worklist) from the session :func:`pinned_session` builds.  Its
``add_dependencies`` calls merge congruence classes (``A = A*B`` with
``B = B*A`` collapses ``A`` and ``B``, ``C = C*D`` with ``D = D*C`` collapses
``C`` and ``D``),
so the stored class roots and class-level arcs are not just the per-vertex
identity.  The current index must restore that document and re-export it
byte for byte, and a fresh session fed the same stream must export the same
bytes: the snapshot format is a contract, not an artifact of one
implementation.
"""

from pathlib import Path

from repro.service.session import Session
from repro.service.snapshot import dump_snapshot, restore_session
from repro.service.wire import canonical_loads
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
    parent = canonical_loads(text)["index"]["parent"]
    assert sum(root != vid for vid, root in enumerate(parent)) >= 2  # merged classes
    assert restored.equivalent("A", "B").equivalent and restored.equivalent("C", "D").equivalent


def test_fresh_session_exports_the_pinned_bytes():
    assert dump_snapshot(pinned_session()) == PINNED.read_text(encoding="utf-8")
