"""An indexed, delta-driven, integer-coded chase engine (the hot path beside :func:`chase_fds`).

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
over far fewer left-hand sides, which is exactly this shape.

Everything is coded with integers.  The FD set is a :class:`CodedFds`: the
attributes are numbered by sorted name and each FD is a ``(lhs_mask,
rhs_mask)`` pair, grouped by left-hand side in first-appearance order
(:func:`repro.consistency.normalization.normalize_dependencies` emits this
form directly; FD lists are coded on construction), and masks are decoded
through the shared set-bit kernel :func:`repro.bits.bit_positions`.  A chase
codes its tableau per run: every cell is a value id, constants are interned to ids
``0..N-1`` (``N`` the database's cell count) and the labelled nulls get
``N, N+1, …`` in the order :func:`representative_instance` creates them.  The
union-find is one flat parent list in which the smaller id wins — exactly
:meth:`TableauValue.election_key`, constants first and then the oldest null.
On top of it the engine maintains:

* **per-LHS hash indexes** mapping a left-hand-side key (the representative
  id of a unary LHS, a tuple of them otherwise) to the bucket's witness row;
* an **occurrence index** from each null representative to the ``(lhs,
  key)`` buckets whose key mentions it — the only buckets a merge can dirty;
* a **FIFO worklist of merge events**: when ``loser`` is absorbed, exactly the
  buckets keyed through ``loser`` are re-keyed, and two buckets whose keys
  coarsen together merge by equating their witnesses — one equate per bucket
  pair instead of one per row.

The engine is constructed once per FD set, so the grouping is amortized
across every chase issued against it —
:func:`repro.consistency.pd_consistency.pd_consistency` and the benchmark
sweeps chase many databases against one normalized FD set.
:meth:`ChaseEngine.chase_many` batches that pattern.

The result's :attr:`~repro.relational.chase.ChaseResult.tableau` is an
object :class:`Tableau` built only when read; the witness relation is
rendered straight from the int state.  The engine and the naive chase produce
*identical* chased tableaux: the FD chase is Church–Rosser (the final
partition of tableau values is the unique congruence forced by the FDs,
independent of equate order), and representative election is
merge-order-independent.  ``tests/test_chase_engine.py`` and
``tests/test_chase_equivalence.py`` cross-check the two, mirroring the
``alg_closure_naive``/``alg_closure`` oracle pattern of
:mod:`repro.implication.alg`.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import Optional, Union

from repro import profiling
from repro.bits import bit_positions
from repro.deadline import check_deadline
from repro.relational.attributes import Attribute, AttributeSet
from repro.relational.chase import ChaseResult, Tableau, TableauValue, representative_instance
from repro.relational.database import Database
from repro.relational.functional_dependencies import FunctionalDependency
from repro.relational.relations import Relation
from repro.relational.schema import RelationScheme
from repro.relational.tuples import Row


class CodedFds:
    """An FD list over a numbered universe: bit ``i`` of a mask stands for ``names[i]``.

    ``names`` is sorted.  ``masks`` holds the ``(lhs_mask, rhs_mask)`` pairs in
    list order; ``groups`` holds the same pairs grouped by left-hand side in
    first-appearance order, as ``(lhs_mask, rhs_masks)`` — the shape
    :class:`ChaseEngine` indexes.
    """

    __slots__ = ("names", "masks", "groups")

    def __init__(self, names: Sequence[Attribute], masks: Iterable[tuple[int, int]]) -> None:
        self.names: tuple[Attribute, ...] = tuple(names)
        self.masks: tuple[tuple[int, int], ...] = tuple(masks)
        grouped: dict[int, list[int]] = {}
        for lhs, rhs in self.masks:
            members = grouped.get(lhs)
            if members is None:
                grouped[lhs] = [rhs]
            else:
                members.append(rhs)
        self.groups: tuple[tuple[int, tuple[int, ...]], ...] = tuple(
            (lhs, tuple(members)) for lhs, members in grouped.items()
        )

    @classmethod
    def from_fds(cls, fds: Iterable[FunctionalDependency]) -> "CodedFds":
        """Code an FD list over the sorted names of its attributes."""
        fd_list = list(fds)
        names = sorted({a for fd in fd_list for side in (fd.lhs, fd.rhs) for a in side})
        bit = {name: 1 << i for i, name in enumerate(names)}
        return cls(
            names,
            [(sum(bit[a] for a in fd.lhs), sum(bit[a] for a in fd.rhs)) for fd in fd_list],
        )

    def attributes(self, mask: int) -> list[Attribute]:
        """The names of the bits of ``mask``, sorted."""
        return [self.names[i] for i in bit_positions(mask)]

    def fd(self, lhs: int, rhs: int) -> FunctionalDependency:
        """The FD a mask pair stands for."""
        return FunctionalDependency(self.attributes(lhs), self.attributes(rhs))

    def fds(self) -> list[FunctionalDependency]:
        """The FD list, decoded in list order (left-hand sides decoded once each)."""
        sides: dict[int, AttributeSet] = {}
        out = []
        for lhs, rhs in self.masks:
            for mask in (lhs, rhs):
                if mask not in sides:
                    sides[mask] = AttributeSet(self.attributes(mask))
            out.append(FunctionalDependency(sides[lhs], sides[rhs]))
        return out


class ChaseEngine:
    """A reusable, indexed chase engine for a fixed set of FDs.

    Built from a :class:`CodedFds` (the Theorem 12 normalization's output) or
    from an FD list, which is coded here.  One bucket index per LHS group,
    equated on the union of the group's right-hand sides; :meth:`chase` runs
    the delta-driven fixpoint on an object tableau, :meth:`chase_database`
    codes the representative instance directly (extending the universe with
    FD-only attributes, exactly like
    :func:`repro.relational.chase.chase_database`), and :meth:`chase_many`
    amortizes the grouping over a batch of databases.  On a constant clash
    the reported violation is the first FD of the clashing group whose
    right-hand side holds the clashing attribute.
    """

    def __init__(self, fds: Union[CodedFds, Iterable[FunctionalDependency]]) -> None:
        coded = fds if isinstance(fds, CodedFds) else CodedFds.from_fds(fds)
        self._coded = coded
        # Per group: LHS slots, RHS-union slots; a slot is a bit position.
        self._groups: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
        used = 0
        for lhs, members in coded.groups:
            rhs = 0
            for member in members:
                rhs |= member
            used |= lhs | rhs
            self._groups.append((tuple(bit_positions(lhs)), tuple(bit_positions(rhs))))
        self._fd_attributes = AttributeSet(coded.attributes(used))

    @property
    def coded(self) -> CodedFds:
        """The int-coded FD set this engine was built from."""
        return self._coded

    @property
    def fds(self) -> list[FunctionalDependency]:
        """The FD set this engine chases with."""
        return self._coded.fds()

    @property
    def _lhs(self) -> list[tuple[Attribute, ...]]:
        """Each group's left-hand side as sorted names."""
        names = self._coded.names
        return [tuple(names[i] for i in lhs) for lhs, _ in self._groups]

    @property
    def _rhs(self) -> list[tuple[Attribute, ...]]:
        """Each group's right-hand-side union as sorted names."""
        names = self._coded.names
        return [tuple(names[i] for i in rhs) for _, rhs in self._groups]

    def _violated(self, group: int, slot: int) -> FunctionalDependency:
        """The first FD of ``group`` whose right-hand side holds attribute ``slot``."""
        lhs, members = self._coded.groups[group]
        return self._coded.fd(lhs, next(rhs for rhs in members if rhs >> slot & 1))

    def chase(self, tableau: Tableau) -> ChaseResult:
        """Chase an object ``tableau`` to fixpoint with the engine's FDs.

        The tableau is coded (one id per current class, constants first and
        nulls in election order), chased on ints, and every merge is written
        back, so ``tableau`` ends exactly as
        :func:`repro.relational.chase.chase_fds` would leave it.
        """
        names = self._coded.names
        raw_rows = [tableau.raw_row(i) for i in range(tableau.row_count)]
        resolve = tableau.resolve
        slots = sorted({slot for lhs, rhs in self._groups for slot in lhs + rhs})
        classes = {resolve(row[names[slot]]) for row in raw_rows for slot in slots}
        values = sorted((v for v in classes if v.is_constant), key=lambda v: v.label)
        constants = len(values)
        values += sorted((v for v in classes if not v.is_constant), key=TableauValue.election_key)
        ids = {value: i for i, value in enumerate(values)}
        rows = []
        for raw in raw_rows:
            row = [-1] * len(names)
            for slot in slots:
                row[slot] = ids[resolve(raw[names[slot]])]
            rows.append(row)
        run = _Run(self, rows, constants, len(values))
        violation = run.execute()
        equate = tableau.equate
        for value, parent in enumerate(run.parent):
            if parent != value:
                equate(values[value], values[run.find(value)])
        return ChaseResult(violation is None, tableau, run.steps, violation=violation)

    def chase_database(self, database: Database) -> ChaseResult:
        """Code the representative instance of ``database`` and chase it."""
        return _DatabaseChase(self, database).execute()

    def chase_many(self, databases: Iterable[Database]) -> list[ChaseResult]:
        """Chase a batch of databases, amortizing the FD preprocessing."""
        return [self.chase_database(database) for database in databases]


class _Run:
    """One int-coded chase: bucket indexes, occurrence index, union-find, merge worklist.

    ``rows`` hold value ids by slot; ids below ``constants`` are constants.
    """

    def __init__(self, engine: ChaseEngine, rows: list[list[int]], constants: int, size: int) -> None:
        self._engine = engine
        self._rows = rows
        self._constants = constants
        self.parent = list(range(size))
        self.steps = 0

    def find(self, value: int) -> int:
        parent = self.parent
        root = parent[value]
        if root == value or parent[root] == root:
            return root
        while parent[root] != root:
            root = parent[root]
        while parent[value] != root:
            parent[value], value = root, parent[value]
        return root

    def execute(self) -> Optional[FunctionalDependency]:
        """Run the chase to fixpoint; the violated FD on a constant clash, else ``None``.

        The build pass files every row into its bucket once, one indexed pass
        per LHS group; joining rows are equated with the bucket witness as they
        arrive.  The drain loop then re-keys the buckets dirtied by each merge
        event: a bucket whose key mentions the absorbed representative is
        re-filed under its coarsened key, and when that key is already taken the
        two buckets merge by equating their witnesses' RHS cells (which may queue
        further merges).
        """
        engine = self._engine
        groups = engine._groups
        rows = self._rows
        parent = self.parent
        constants = self._constants
        find = self.find
        # Per group: LHS key -> witness row index for that bucket.
        buckets_of: list[dict] = [{} for _ in groups]
        # Null id -> {(group, key): None} for buckets keyed through it.  The
        # inner dicts give insertion-ordered, duplicate-free iteration, keeping
        # the run deterministic without sorting.  Entries are retired lazily:
        # a (group, key) pair whose bucket has since been re-keyed is skipped
        # when met (dead representatives never reappear in fresh keys).
        occurrences: list[Optional[dict]] = [None] * len(parent)
        merges: list[int] = []  # FIFO of absorbed roots, consumed from ``head``
        prof = profiling.active()
        steps = 0

        def register(entry: tuple, components: Iterable[int]) -> None:
            # Constants always win the election (and a constant-vs-constant
            # merge is a clash, not an event), so they never need an entry.
            for component in components:
                if component >= constants:
                    bag = occurrences[component]
                    if bag is None:
                        occurrences[component] = {entry: None}
                    else:
                        bag[entry] = None

        def equate(group: int, raw: list[int], kept: list[int]) -> Optional[int]:
            """Equate two rows on ``group``'s RHS; the clashing slot, if any."""
            nonlocal steps
            for b in groups[group][1]:
                left = raw[b]
                if parent[left] != left:
                    left = find(left)
                right = kept[b]
                if parent[right] != right:
                    right = find(right)
                if left != right:
                    if right < left:
                        left, right = right, left
                    if right < constants:
                        return b
                    parent[right] = left
                    merges.append(right)
                    steps += 1
            return None

        try:
            for group, (lhs, _rhs) in enumerate(groups):
                if prof is not None:
                    prof.deadline_checks += 1
                check_deadline()  # one budget check per LHS pass over the rows
                buckets = buckets_of[group]
                unary = len(lhs) == 1
                slot = lhs[0]
                for i, row in enumerate(rows):
                    if unary:
                        key = row[slot]
                        if parent[key] != key:
                            key = find(key)
                    else:
                        key = tuple([find(row[a]) for a in lhs])
                    witness = buckets.get(key)
                    if witness is None:
                        buckets[key] = i
                        if not unary:
                            register((group, key), key)
                        elif key >= constants:
                            register((group, key), (key,))
                    else:
                        clash = equate(group, row, rows[witness])
                        if clash is not None:
                            return engine._violated(group, clash)
        finally:
            # The profile counts the build's equates, then one step per merge
            # event popped below (the drain's own equates are not counted).
            if prof is not None:
                prof.chase_steps += steps
            self.steps = steps

        head = 0
        try:
            while head < len(merges):
                if prof is not None:
                    prof.chase_steps += 1
                    prof.deadline_checks += 1
                check_deadline()  # one budget check per merge event
                loser = merges[head]
                head += 1
                entries = occurrences[loser]
                if not entries:
                    continue
                occurrences[loser] = None
                for group, key in entries:
                    buckets = buckets_of[group]
                    witness = buckets.pop(key, None)
                    if witness is None:
                        continue  # bucket already re-keyed under an earlier event
                    unary = type(key) is int
                    new_key = find(key) if unary else tuple([find(c) for c in key])
                    other = buckets.get(new_key)
                    if other is None:
                        buckets[new_key] = witness
                        register((group, new_key), (new_key,) if unary else new_key)
                        continue
                    # Two buckets coarsened onto one key: their rows now agree
                    # on the LHS, so equate the witnesses' RHS cells once.
                    clash = equate(group, rows[witness], rows[other])
                    if clash is not None:
                        return engine._violated(group, clash)
        finally:
            self.steps = steps
        return None


class _DatabaseChase:
    """The coded representative instance of one database, chased by one engine.

    The row layout puts attribute ``names[i]`` of the engine's universe in slot
    ``i`` and the database's other columns after them.
    """

    def __init__(self, engine: ChaseEngine, database: Database) -> None:
        self._database = database
        names = engine._coded.names
        self._universe = database.universe | engine._fd_attributes
        slot_of = {name: i for i, name in enumerate(names)}
        for attribute in self._universe:
            if attribute not in slot_of:
                slot_of[attribute] = len(slot_of)
        self._columns = [(attribute, slot_of[attribute]) for attribute in self._universe]
        width = len(slot_of)
        cells = sum(len(relation) * len(relation.attributes) for relation in database.relations)
        self._constants = cells
        symbols: dict[str, int] = {}
        intern = symbols.setdefault
        rows: list[list[int]] = []
        next_null = cells
        for relation in database.relations:
            attributes = relation.attributes
            # Both in sorted attribute order, like each row's sort key.
            present = [slot for attribute, slot in self._columns if attribute in attributes]
            padded = [slot for attribute, slot in self._columns if attribute not in attributes]
            for tuple_ in relation.sorted_rows():
                row = [-1] * width
                for slot, symbol in zip(present, tuple_.sort_key()):
                    row[slot] = intern(symbol, len(symbols))
                for slot in padded:
                    row[slot] = next_null
                    next_null += 1
                rows.append(row)
        self._symbols = list(symbols)
        self._rows = rows
        self._run = _Run(engine, rows, cells, next_null)

    def execute(self) -> ChaseResult:
        violation = self._run.execute()
        return _CodedChaseResult(violation is None, self, self._run.steps, violation)

    def _label(self, value: int) -> str:
        """The rendering of a value id: a constant's symbol or ``⊥n<k>``."""
        if value < self._constants:
            return self._symbols[value]
        return f"⊥n{value - self._constants + 1}"

    def _value(self, value: int) -> TableauValue:
        if value < self._constants:
            return TableauValue.constant(self._symbols[value])
        return TableauValue.null(f"n{value - self._constants + 1}")

    def to_relation(self, name: str) -> Relation:
        """The chased instance as a relation, nulls rendered like :meth:`Tableau.to_relation`."""
        find = self._run.find
        label = self._label
        columns = self._columns
        rows = [Row({attribute: label(find(row[slot])) for attribute, slot in columns}) for row in self._rows]
        return Relation(RelationScheme(name, self._universe), rows)

    def tableau(self) -> Tableau:
        """The chased state as an object tableau (same nulls, same representatives)."""
        tableau = representative_instance(self._database, self._universe)
        find = self._run.find
        for value, parent in enumerate(self._run.parent):
            if parent != value:
                tableau.equate(self._value(value), self._value(find(value)))
        return tableau


class _CodedChaseResult(ChaseResult):
    """A chase result over coded state: the tableau is built on first read."""

    __slots__ = ("_chase",)

    def __init__(
        self,
        consistent: bool,
        chase: _DatabaseChase,
        steps: int,
        violation: Optional[FunctionalDependency],
    ) -> None:
        super().__init__(consistent, None, steps, violation=violation)
        self._chase = chase

    @property
    def tableau(self) -> Tableau:
        if self._tableau is None:
            self._tableau = self._chase.tableau()
        return self._tableau

    def to_relation(self, name: str = "chased") -> Relation:
        return self._chase.to_relation(name)


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
