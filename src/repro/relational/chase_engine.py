"""An indexed, delta-driven chase engine (the hot-path replacement for :func:`chase_fds`).

The naive chase in :mod:`repro.relational.chase` restarts from scratch on
every pass: for every FD it rescans all rows, rebuilds the left-hand-side key
map, and repeats until a full pass changes nothing.  That is quadratic-ish in
practice and is the single hottest path in the repository — Honeyman's test
(:mod:`repro.relational.weak_instance`), the Theorem 6a/12 consistency
pipelines and every EXP-WI/EXP-T12 benchmark all sit on top of it.

:class:`ChaseEngine` replaces the restart loop with incremental state built
around one observation: *rows never leave a chase bucket*.  A bucket is the
set of rows currently agreeing on a left-hand side; merges only coarsen
value classes, and they coarsen every row of a bucket identically, so bucket
membership is monotone and a bucket never needs more than a single *witness*
row (each row is equated with the witness on the right-hand side when it
joins, and union-find transitivity keeps the whole bucket equated).

FDs sharing a left-hand side share their buckets: ``X → Y₁, …, X → Yₖ`` is
chased as the one FD ``X → Y₁ ∪ … ∪ Yₖ``, so a row is keyed on ``X`` once,
not once per FD.  The Theorem 12 normalization emits hundreds of unary FDs
over far fewer left-hand sides, which is exactly this shape.  The engine
therefore maintains:

* **per-LHS hash indexes** mapping a left-hand-side key tuple (current
  representatives of the LHS cells) to the bucket's witness row;
* an **occurrence index** from each representative to the ``(lhs, key)``
  buckets whose key mentions it — the only buckets a merge can dirty;
* a **worklist of merge events** fed by the tableau's merge-event hook
  (:meth:`Tableau.add_merge_listener`): when ``loser`` is absorbed into
  ``winner``, exactly the buckets keyed through ``loser`` are re-keyed, and
  two buckets whose keys coarsen together merge by equating their witnesses —
  one equate per bucket pair instead of one per row.

The engine is constructed once per FD set, so the preprocessing (grouping by
left-hand side, sorted LHS/RHS tuples, the extended universe) is amortized
across every chase issued against it —
:func:`repro.consistency.pd_consistency.pd_consistency` and the benchmark
sweeps chase many databases against one normalized FD set, which is exactly
this shape.  :meth:`ChaseEngine.chase_many` batches that pattern.

The engine and the naive chase produce *identical* chased tableaux: the FD
chase is Church–Rosser (the final partition of tableau values is the unique
congruence forced by the FDs, independent of equate order), and representative
election in the union-find is merge-order-independent (constants first, then
the smallest null label).  ``tests/test_chase_engine.py`` cross-checks the two
on randomized workloads, mirroring the ``alg_closure_naive``/``alg_closure``
oracle pattern of :mod:`repro.implication.alg`.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Sequence
from typing import Optional

from repro import profiling
from repro.deadline import check_deadline
from repro.relational.attributes import Attribute, AttributeSet
from repro.relational.chase import ChaseResult, Tableau, TableauValue, representative_instance
from repro.relational.database import Database
from repro.relational.functional_dependencies import FunctionalDependency


class ChaseEngine:
    """A reusable, indexed chase engine for a fixed set of FDs.

    Construction groups the FDs by left-hand side, one bucket index per
    group, equated on the union of the group's right-hand sides;
    :meth:`chase` runs the delta-driven fixpoint on a tableau,
    :meth:`chase_database` builds the representative instance first
    (extending the universe with FD-only attributes, exactly like
    :func:`repro.relational.chase.chase_database`), and :meth:`chase_many`
    amortizes both over a batch of databases.  On a constant clash the
    reported violation is the first FD of the clashing group whose
    right-hand side holds the clashing attribute.
    """

    def __init__(self, fds: Iterable[FunctionalDependency]) -> None:
        self._fds: list[FunctionalDependency] = list(fds)
        group_of: dict[AttributeSet, int] = {}
        self._members: list[list[FunctionalDependency]] = []
        rhs_sets: list[set[Attribute]] = []
        for fd in self._fds:
            group = group_of.get(fd.lhs)
            if group is None:
                group = group_of[fd.lhs] = len(self._members)
                self._members.append([])
                rhs_sets.append(set())
            self._members[group].append(fd)
            rhs_sets[group] |= fd.rhs
        self._lhs: list[tuple[Attribute, ...]] = [tuple(sorted(lhs)) for lhs in group_of]
        self._rhs: list[tuple[Attribute, ...]] = [tuple(sorted(rhs)) for rhs in rhs_sets]
        self._fd_attributes = AttributeSet(frozenset().union(*group_of, *rhs_sets))

    @property
    def fds(self) -> list[FunctionalDependency]:
        """The FD set this engine chases with."""
        return list(self._fds)

    def _violated(self, group: int, attribute: Attribute) -> FunctionalDependency:
        """The first FD of ``group`` whose right-hand side holds ``attribute``."""
        return next(fd for fd in self._members[group] if attribute in fd.rhs)

    def chase(self, tableau: Tableau) -> ChaseResult:
        """Chase ``tableau`` to fixpoint with the engine's FDs.

        Produces the same chased tableau (and verdict) as
        :func:`repro.relational.chase.chase_fds`, via incremental indexes and
        a merge-event worklist instead of restart-from-scratch passes.
        """
        return _ChaseRun(self, tableau).execute()

    def chase_database(self, database: Database) -> ChaseResult:
        """Build the representative instance of ``database`` and chase it."""
        universe = database.universe | self._fd_attributes
        tableau = representative_instance(database, universe)
        return self.chase(tableau)

    def chase_many(self, databases: Iterable[Database]) -> list[ChaseResult]:
        """Chase a batch of databases, amortizing the FD preprocessing."""
        return [self.chase_database(database) for database in databases]


#: A bucket key: the representatives of a row's LHS cells, in LHS-sorted order.
_Key = tuple  # tuple[TableauValue, ...]


class _ChaseRun:
    """State of one delta-driven chase: indexes, occurrence map, merge worklist."""

    def __init__(self, engine: ChaseEngine, tableau: Tableau) -> None:
        self._engine = engine
        self._tableau = tableau
        # Per LHS group: LHS key -> witness row index for that bucket.
        self._buckets: list[dict[_Key, int]] = [{} for _ in engine._lhs]
        # representative -> {(group, key): None} for buckets keyed through it.
        # Inner dicts give insertion-ordered, duplicate-free iteration, keeping
        # the run deterministic without any sorting.  Entries are retired
        # lazily: a (group, key) pair whose bucket has since been re-keyed is
        # skipped when encountered (its key can never be re-filed, since dead
        # representatives never reappear in fresh keys).
        self._occurrences: dict[TableauValue, dict[tuple[int, _Key], None]] = {}
        # FIFO of (winner, loser) merge events, drained iteratively so that
        # cascading equates never recurse through the listener.
        self._merges: deque[tuple[TableauValue, TableauValue]] = deque()
        self._steps = 0

    def _on_merge(self, winner: TableauValue, loser: TableauValue) -> None:
        self._merges.append((winner, loser))

    def _register(self, group: int, key: _Key) -> None:
        """Index a bucket's key under each null representative it mentions.

        Constants are skipped: they always win representative election (and a
        constant-vs-constant merge is a failure, not an event), so a constant
        component can never be the ``loser`` that :meth:`_drain` pops.
        """
        occurrences = self._occurrences
        entry = (group, key)
        for component in key:
            if component.is_constant:
                continue
            bag = occurrences.get(component)
            if bag is None:
                occurrences[component] = {entry: None}
            else:
                bag[entry] = None

    def execute(self) -> ChaseResult:
        tableau = self._tableau
        tableau.add_merge_listener(self._on_merge)
        try:
            raw_rows = [tableau.raw_row(i) for i in range(tableau.row_count)]
            violation = self._build(raw_rows)
            if violation is None:
                violation = self._drain(raw_rows)
        finally:
            tableau.remove_merge_listener(self._on_merge)
        if violation is not None:
            return ChaseResult(False, tableau, self._steps, violation=violation)
        return ChaseResult(True, tableau, self._steps)

    def _build(self, raw_rows: list) -> Optional[FunctionalDependency]:
        """File every row into its bucket once — one tight indexed pass per LHS.

        Joining rows are equated with the bucket witness as they arrive;
        merges fired along the way queue the delta re-keys that
        :meth:`_drain` processes afterwards.
        """
        engine = self._engine
        tableau = self._tableau
        resolve = tableau.resolve
        equate = tableau.equate
        prof = profiling.active()
        for group, lhs in enumerate(engine._lhs):
            if prof is not None:
                prof.deadline_checks += 1
            check_deadline()  # one budget check per LHS pass over the rows
            rhs = engine._rhs[group]
            buckets = self._buckets[group]
            for i, raw in enumerate(raw_rows):
                key = tuple(resolve(raw[a]) for a in lhs)
                witness = buckets.get(key)
                if witness is None:
                    buckets[key] = i
                    self._register(group, key)
                else:
                    other = raw_rows[witness]
                    for b in rhs:
                        left = resolve(raw[b])
                        right = resolve(other[b])
                        if left != right:
                            if not equate(left, right):
                                return engine._violated(group, b)
                            self._steps += 1
                            if prof is not None:
                                prof.chase_steps += 1
        return None

    def _drain(self, raw_rows: list) -> Optional[FunctionalDependency]:
        """Re-key the buckets dirtied by each merge until no events remain.

        A bucket whose key mentions the absorbed representative is re-filed
        under its coarsened key; when that key is already taken the two
        buckets merge by equating their witnesses' RHS cells (which may queue
        further merges).  Returns the violated FD on a constant clash.
        """
        engine = self._engine
        tableau = self._tableau
        resolve = tableau.resolve
        equate = tableau.equate
        merges = self._merges
        occurrences = self._occurrences
        prof = profiling.active()
        while merges:
            if prof is not None:
                prof.chase_steps += 1
                prof.deadline_checks += 1
            check_deadline()  # one budget check per merge event
            _winner, loser = merges.popleft()
            entries = occurrences.pop(loser, None)
            if not entries:
                continue
            for group, key in entries:
                buckets = self._buckets[group]
                witness = buckets.get(key)
                if witness is None:
                    continue  # bucket already re-keyed under an earlier event
                del buckets[key]
                new_key = tuple(resolve(component) for component in key)
                other = buckets.get(new_key)
                if other is None:
                    buckets[new_key] = witness
                    self._register(group, new_key)
                    continue
                # Two buckets coarsened onto one key: their rows now agree on
                # the LHS, so equate the witnesses' RHS cells once.
                raw = raw_rows[witness]
                kept = raw_rows[other]
                for b in engine._rhs[group]:
                    left = resolve(raw[b])
                    right = resolve(kept[b])
                    if left != right:
                        if not equate(left, right):
                            return engine._violated(group, b)
                        self._steps += 1
        return None


def chase_fds_indexed(tableau: Tableau, fds: Sequence[FunctionalDependency]) -> ChaseResult:
    """One-shot indexed chase of a tableau (drop-in for :func:`chase_fds`)."""
    return ChaseEngine(fds).chase(tableau)


def chase_database_indexed(
    database: Database, fds: Sequence[FunctionalDependency]
) -> ChaseResult:
    """One-shot indexed chase of a database (drop-in for :func:`chase_database`)."""
    return ChaseEngine(fds).chase_database(database)


def chase_many(
    databases: Iterable[Database], fds: Sequence[FunctionalDependency]
) -> list[ChaseResult]:
    """Chase several databases with one FD set, amortizing preprocessing."""
    return ChaseEngine(fds).chase_many(databases)
