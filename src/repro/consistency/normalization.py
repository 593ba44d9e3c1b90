"""Normalization of a PD set for the Theorem 12 consistency test (§6.2).

The polynomial consistency test first massages the PD set ``E`` into an
equivalent (for weak-instance existence) set over a possibly larger attribute
universe:

1. **Naming** (``E → E'``): every attribute names itself and every ``=_E``
   class of composite subexpressions gets one fresh attribute ``Z<n>``;
   ``E'`` holds ``C = A·B`` / ``C = A+B`` for each distinct composite over
   the names of it and its operands, and ``X = Y`` for each PD whose sides
   are named apart.  (§6.2 names each composite *occurrence*;
   :func:`normalize_dependencies` argues that both give the same chase.)
2. **Re-expression**: ``C = A·B`` becomes the FPDs ``C ≤ A·B`` and
   ``A·B ≤ C``; ``C = A+B`` becomes ``A ≤ C``, ``B ≤ C`` and the *sum PD*
   ``C ≤ A+B`` (the only non-functional survivor).
3. **Closure** (``E⁺``): add every consequence of the form ``A ≤ B`` between
   attributes of the extended universe, and drop any sum PD ``C ≤ A+B`` for
   which ``A ≤ B`` or ``B ≤ A`` is already a consequence (it is then
   subsumed by ``C ≤ B`` resp. ``C ≤ A``).  The fresh attributes only name
   classes of subexpressions of ``E``, so ``E ∪ E'`` is a definitional
   extension of ``E``: with ``σ`` mapping each fresh attribute to a member
   of the class it names (and every original attribute to itself),
   ``A ≤_{E∪E'} B`` iff ``σ(A) ≤_E σ(B)``.  One ``leq_masks`` read over
   ``E``'s distinct subexpressions — one ``up``-row read each, on an
   :class:`~repro.implication.alg.ImplicationEngine` whose index already
   holds every one as a vertex — therefore answers both the naming of step 1
   and this step, and ``E ∪ E'`` is never closed.  A caller holding a warm
   engine over ``E`` passes it in.

The pipeline works on integers: the extended universe is numbered once, by
sorted name, and every FD is emitted as an ``(lhs_mask, rhs_mask)`` pair,
deduplicated and grouped by left-hand side in first-appearance order — a
:class:`~repro.relational.chase_engine.CodedFds`, the form the chase engine
indexes; closure rows are walked through the shared set-bit kernel
:func:`repro.bits.bit_positions`.  The result is an
:class:`NormalizedDependencies` value carrying that FPD part ``F`` and the
surviving sum PDs; its FD objects and closure pairs are views built on first
read.  Lemma 12.1 then says a weak instance
satisfying ``F`` can be repaired into one satisfying everything, so the
chase on ``F`` alone decides consistency.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional

from repro.bits import bit_positions
from repro.dependencies.pd import PartitionDependency, PartitionDependencyLike, as_partition_dependency
from repro.errors import ConsistencyError
from repro.expressions.ast import Attr, PartitionExpression, Product, Sum
from repro.implication.alg import ImplicationEngine
from repro.relational.attributes import Attribute, AttributeSet
from repro.relational.chase_engine import CodedFds
from repro.relational.functional_dependencies import FunctionalDependency


@dataclass(frozen=True)
class SumConstraint:
    """A surviving non-functional constraint ``C ≤ A + B``."""

    c: Attribute
    a: Attribute
    b: Attribute

    def as_pd(self) -> PartitionDependency:
        """Render as the PD ``C = C·(A+B)``."""
        c = Attr(self.c)
        return PartitionDependency(c, Product(c, Sum(Attr(self.a), Attr(self.b))))

    def __str__(self) -> str:
        return f"{self.c} <= {self.a} + {self.b}"


class NormalizedDependencies:
    """The output of the Theorem 12 normalization pipeline.

    ``fds`` is the FPD part ``F`` of ``E⁺`` rendered as FDs over the extended
    universe; ``sum_constraints`` are the surviving ``C ≤ A+B`` constraints;
    ``fresh_attributes`` are the names invented, one per ``=_E`` class of composites;
    ``attribute_closure_pairs`` are all the ``A ≤ B`` consequences added by
    the closure step (kept for inspection).

    ``F`` is held int-coded, as :attr:`coded_fds` over the sorted extended
    universe (the form the chase engine indexes), and the closure pairs as
    one row mask per name; ``fds`` and ``attribute_closure_pairs`` are
    name-level views of them, built on first read.
    """

    def __init__(
        self,
        original: Sequence[PartitionDependency],
        sum_constraints: Sequence[SumConstraint],
        fresh_attributes: Sequence[Attribute],
        coded_fds: CodedFds,
        closure_rows: Sequence[int],
    ) -> None:
        self.original = list(original)
        self.sum_constraints = list(sum_constraints)
        self.fresh_attributes = list(fresh_attributes)
        self.coded_fds = coded_fds
        self._closure_rows = closure_rows
        self._fds: Optional[list[FunctionalDependency]] = None
        self._closure_pairs: Optional[list[tuple[Attribute, Attribute]]] = None

    @property
    def fds(self) -> list[FunctionalDependency]:
        """``F`` as FD objects, in emission order."""
        if self._fds is None:
            self._fds = self.coded_fds.fds()
        return self._fds

    @property
    def attribute_closure_pairs(self) -> list[tuple[Attribute, Attribute]]:
        """The closure step's ``A ≤ B`` pairs, in row-major order of the sorted universe."""
        if self._closure_pairs is None:
            names = self.coded_fds.names
            self._closure_pairs = [
                (names[i], names[j])
                for i, row in enumerate(self._closure_rows)
                for j in bit_positions(row)
            ]
        return self._closure_pairs

    @property
    def universe(self) -> AttributeSet:
        """All attributes mentioned after normalization (original + fresh)."""
        attrs: set[Attribute] = set(self.fresh_attributes)
        for pd in self.original:
            attrs |= set(pd.attributes)
        attrs.update(self.coded_fds.names)
        for constraint in self.sum_constraints:
            attrs |= {constraint.a, constraint.b, constraint.c}
        return AttributeSet(attrs)


def _subexpressions(pds: Sequence[PartitionDependency]) -> list[PartitionExpression]:
    """The distinct subexpressions of ``pds``' sides, children first, in first-appearance order."""
    order: dict[PartitionExpression, None] = {}

    def visit(node: PartitionExpression) -> None:
        if node not in order:
            if not isinstance(node, Attr):
                visit(node.left)  # type: ignore[attr-defined]
                visit(node.right)  # type: ignore[attr-defined]
            order[node] = None

    for pd in pds:
        visit(pd.left)
        visit(pd.right)
    return list(order)


def normalize_dependencies(
    dependencies: Sequence[PartitionDependencyLike],
    engine: Optional[ImplicationEngine] = None,
) -> NormalizedDependencies:
    """Run the full §6.2 normalization pipeline on a PD set.

    ``engine`` answers the ``≤_E`` questions of steps 1 and 3; it must reason
    over exactly ``dependencies`` (a mismatch raises :class:`ValueError`).
    Passing a warm one — a session's index, kept alive across writes —
    makes the step a handful of row reads.  Without it an engine over ``E``
    is built here.

    One ``leq_masks`` read over ``E``'s distinct subexpressions answers
    both the naming and the closure.  Each attribute names itself; each
    ``=_E`` class of composites gets one fresh name, shared by every member
    (two composites are in one class iff each row holds the other).  The
    result is the per-occurrence binarization of §6.2 with equal columns
    merged, and gives the same chase:

    * every emitted equation is ``E``-valid.  Read each name ``N`` as
      ``σ(N)``, any member of its class.  ``C = A op B`` for a composite
      ``l op r`` of class ``C`` then reads ``σ(C) =_E σ(A) op σ(B)``, since
      ``σ(A) =_E l`` and ``σ(B) =_E r``, and a PD's side equation is that
      PD.  So ``E ∪ E′`` is a definitional extension of ``E``, and the
      closure rows are ``E``'s own rows mapped onto names;
    * the occurrences merged into one name were FD-equivalent columns of the
      old ``F``: their images are ``=_E``, so its closure pairs gave FDs both
      ways between them.  Each old FD maps onto a new one and back, and
      fresh columns hold only nulls (a database column named like one is
      renamed for the chase).  A column determined both ways by another
      neither clashes nor splits rows, so the chase verdict and the number
      of distinct witness rows are unchanged;
    * ``F`` mentions the same attributes of ``E`` as before, so the chase
      has the same columns besides the fresh ones.  An attribute is in an FD
      iff it is an operand of a composite (its equation names it), a PD
      side whose other side has another name, or a closure partner of
      another name; a side or partner that was an occurrence name is now a
      class name, fresh, so never the attribute itself.  Hence ``A*A = A``
      still gives ``Z ↔ A`` and keeps ``A`` a chase column, and only an
      attribute that occurs just in PDs ``A = A`` is in no FD, as before.
    """
    pds = [as_partition_dependency(pd) for pd in dependencies]
    if engine is None:
        engine = ImplicationEngine(pds)
    elif set(engine.dependencies) != set(pds):
        raise ValueError(
            "the implication engine was built over a different PD set than the one being normalized"
        )
    expressions = _subexpressions(pds)
    position = {expression: i for i, expression in enumerate(expressions)}
    rows = engine.leq_masks(expressions)

    # Step 1: name each position.  A composite takes the name of the first
    # earlier composite of its class, else a fresh ``Z<n>`` clear of E's attributes.
    reserved = {expression.name for expression in expressions if isinstance(expression, Attr)}
    fresh = (f"Z{n}" for n in itertools.count(1) if f"Z{n}" not in reserved)
    name_of: list[Attribute] = []
    founder: dict[Attribute, int] = {}  # name -> the first position it names
    composites = 0
    for i, expression in enumerate(expressions):
        if isinstance(expression, Attr):
            name = expression.name
        else:
            known = [name_of[k] for k in bit_positions(rows[i] & composites) if rows[k] >> i & 1]
            name = known[0] if known else next(fresh)
            composites |= 1 << i
        name_of.append(name)
        founder.setdefault(name, i)
    # The sorted names are the bit positions of every mask below.
    names = sorted(founder)
    rank = {name: i for i, name in enumerate(names)}
    name_bit = [1 << rank[name] for name in name_of]

    # Step 2: re-express everything as FPDs (i.e. FDs, as mask pairs) plus
    # sum constraints.
    fds: list[tuple[int, int]] = []
    sum_constraints: list[SumConstraint] = []
    for pd in pds:
        left, right = name_bit[position[pd.left]], name_bit[position[pd.right]]
        if left != right:
            fds += [(left, right), (right, left)]
    for i, expression in enumerate(expressions):
        if isinstance(expression, Attr):
            continue
        a, b = position[expression.left], position[expression.right]  # type: ignore[attr-defined]
        c = name_bit[i]
        if isinstance(expression, Product):
            # C = A·B  ⇔  C ≤ A·B  and  A·B ≤ C.
            fds += [(c, name_bit[a] | name_bit[b]), (name_bit[a] | name_bit[b], c)]
        else:
            # C = A+B  ⇔  A ≤ C, B ≤ C and C ≤ A+B.
            fds += [(name_bit[a], c), (name_bit[b], c)]
            sum_constraints.append(SumConstraint(name_of[i], name_of[a], name_of[b]))

    # Step 3: A ≤_{E∪E'} B iff σ(A) ≤_E σ(B), so row i is the founder's row
    # mapped onto names, less names[i] itself — read in row-major order.
    closure_rows = []
    for i, name in enumerate(names):
        row = 0
        for j in bit_positions(rows[founder[name]]):
            row |= name_bit[j]
        closure_rows.append(row & ~(1 << i))
    for i, row in enumerate(closure_rows):
        fds.extend((1 << i, 1 << j) for j in bit_positions(row))

    # Prune subsumed sum constraints: with A ≤ B, C ≤ A+B reduces to C ≤ B
    # (resp. C ≤ A when B ≤ A), an FD the closure pairs above already hold.
    surviving = [
        constraint
        for constraint in dict.fromkeys(sum_constraints)
        if not closure_rows[rank[constraint.a]] >> rank[constraint.b] & 1
        and not closure_rows[rank[constraint.b]] >> rank[constraint.a] & 1
    ]

    # Deduplicate FDs while preserving order, then drop trivial ones (X -> X).
    unique_fds = [(lhs, rhs) for lhs, rhs in dict.fromkeys(fds) if rhs & ~lhs]

    return NormalizedDependencies(
        original=pds,
        sum_constraints=surviving,
        fresh_attributes=sorted(set(names) - reserved),
        coded_fds=CodedFds(names, unique_fds),
        closure_rows=closure_rows,
    )


def validate_only_fpds(dependencies: Sequence[PartitionDependencyLike]) -> list[FunctionalDependency]:
    """Translate a PD set that is claimed to consist of FPDs only; raise otherwise.

    Used by the Theorem 6 / Theorem 11 code paths, which are specified for
    FPD sets.
    """
    from repro.dependencies.fpd import FunctionalPartitionDependency

    fds: list[FunctionalDependency] = []
    for raw in dependencies:
        pd = as_partition_dependency(raw)
        fpd = FunctionalPartitionDependency.try_from_pd(pd)
        if fpd is None:
            raise ConsistencyError(f"{pd} is not a functional partition dependency")
        if not fpd.is_trivial():
            fds.append(fpd.to_fd())
    return fds
