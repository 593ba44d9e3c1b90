"""Normalization of a PD set for the Theorem 12 consistency test (§6.2).

The polynomial consistency test first massages the PD set ``E`` into an
equivalent (for weak-instance existence) set over a possibly larger attribute
universe:

1. **Binarization** (``E → E'``): repeatedly replace ``X = Y·Z`` / ``X = Y+Z``
   with ``X = C``, ``Y = A``, ``Z = B`` and ``C = A·B`` / ``C = A+B`` where
   ``A, B, C`` are fresh attribute names, until every PD relates single
   attributes.
2. **Re-expression**: ``C = A·B`` becomes the FPDs ``C ≤ A·B`` and
   ``A·B ≤ C``; ``C = A+B`` becomes ``A ≤ C``, ``B ≤ C`` and the *sum PD*
   ``C ≤ A+B`` (the only non-functional survivor).
3. **Closure** (``E⁺``): add every consequence of the form ``A ≤ B`` between
   attributes of the extended universe, and drop any sum PD ``C ≤ A+B`` for
   which ``A ≤ B`` or ``B ≤ A`` is already a consequence (it is then
   subsumed by ``C ≤ B`` resp. ``C ≤ A``).  The fresh attributes only name
   subexpressions of ``E``, so ``E ∪ E'`` is a definitional extension of
   ``E``: with ``σ`` mapping each fresh attribute to the subexpression it
   names (and every original attribute to itself), ``A ≤_{E∪E'} B`` iff
   ``σ(A) ≤_E σ(B)``.  The step therefore asks ALG over ``E`` alone — one
   ``up``-row read per attribute, as a mask, on an
   :class:`~repro.implication.alg.ImplicationEngine` whose index already
   holds every ``σ(A)`` as a vertex — and never closes ``E ∪ E'``.  A caller
   holding a warm engine over ``E`` passes it in.

The pipeline works on integers: the extended universe is numbered once, by
sorted name, and every FD is emitted as an ``(lhs_mask, rhs_mask)`` pair,
deduplicated and grouped by left-hand side in first-appearance order — a
:class:`~repro.relational.chase_engine.CodedFds`, the form the chase engine
indexes.  The result is an :class:`NormalizedDependencies` value carrying
that FPD part ``F`` and the surviving sum PDs; its FD objects and closure
pairs are views built on first read.  Lemma 12.1 then says a weak instance
satisfying ``F`` can be repaired into one satisfying everything, so the
chase on ``F`` alone decides consistency.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import Optional

from repro.dependencies.pd import PartitionDependency, PartitionDependencyLike, as_partition_dependency
from repro.errors import ConsistencyError
from repro.expressions.ast import Attr, PartitionExpression, Product, Sum
from repro.implication.alg import ImplicationEngine
from repro.relational.attributes import Attribute, AttributeSet
from repro.relational.chase_engine import CodedFds, bit_positions
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
    ``fresh_attributes`` are the attribute names invented by binarization;
    ``attribute_closure_pairs`` are all the ``A ≤ B`` consequences added by
    the closure step (kept for inspection and for the EXPERIMENTS write-up).

    ``F`` is held int-coded, as :attr:`coded_fds` over the sorted extended
    universe (the form the chase engine indexes), and the closure pairs as
    one row mask per name; ``fds`` and ``attribute_closure_pairs`` are
    name-level views built on first read.  Restored artifacts arrive the
    other way round, and the coded form is then built on first read.
    """

    def __init__(
        self,
        original: Sequence[PartitionDependency],
        sum_constraints: Sequence[SumConstraint],
        fresh_attributes: Sequence[Attribute],
        coded_fds: Optional[CodedFds] = None,
        closure_rows: Optional[Sequence[int]] = None,
        fds: Optional[Sequence[FunctionalDependency]] = None,
        attribute_closure_pairs: Optional[Sequence[tuple[Attribute, Attribute]]] = None,
    ) -> None:
        self.original = list(original)
        self.sum_constraints = list(sum_constraints)
        self.fresh_attributes = list(fresh_attributes)
        self._coded_fds = coded_fds
        self._closure_rows = closure_rows
        self._fds = None if fds is None else list(fds)
        self._closure_pairs = None if attribute_closure_pairs is None else list(attribute_closure_pairs)

    @classmethod
    def from_artifacts(
        cls,
        original: Sequence[PartitionDependencyLike],
        fds: Sequence[FunctionalDependency],
        sum_constraints: Sequence[SumConstraint],
        fresh_attributes: Sequence[Attribute],
        attribute_closure_pairs: Sequence[tuple[Attribute, Attribute]],
    ) -> "NormalizedDependencies":
        """Rebuild a pipeline output from stored artifacts (the snapshot restore path).

        No normalization runs: the caller asserts the artifacts came from
        :func:`normalize_dependencies` over ``original``.  Shapes are still
        checked — a restored artifact that is not an FD/constraint at all
        raises :class:`ValueError` before it can poison a chase.
        """
        for fd in fds:
            if not isinstance(fd, FunctionalDependency):
                raise ValueError(f"normalized FD artifact {fd!r} is not a FunctionalDependency")
        for constraint in sum_constraints:
            if not isinstance(constraint, SumConstraint):
                raise ValueError(f"sum-constraint artifact {constraint!r} is not a SumConstraint")
        return cls(
            original=[as_partition_dependency(pd) for pd in original],
            sum_constraints=sum_constraints,
            fresh_attributes=fresh_attributes,
            fds=fds,
            attribute_closure_pairs=[(a, b) for a, b in attribute_closure_pairs],
        )

    @property
    def coded_fds(self) -> CodedFds:
        """``F`` int-coded: ``(lhs_mask, rhs_mask)`` pairs grouped by left-hand side."""
        if self._coded_fds is None:
            self._coded_fds = CodedFds.from_fds(self._fds)
        return self._coded_fds

    @property
    def fds(self) -> list[FunctionalDependency]:
        """``F`` as FD objects, in emission order."""
        if self._fds is None:
            self._fds = self._coded_fds.fds()
        return self._fds

    @property
    def attribute_closure_pairs(self) -> list[tuple[Attribute, Attribute]]:
        """The closure step's ``A ≤ B`` pairs, in row-major order of the sorted universe."""
        if self._closure_pairs is None:
            names = self._coded_fds.names
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


class _FreshAttributeFactory:
    """Generates fresh attribute names not colliding with a reserved set."""

    def __init__(self, reserved: Iterable[Attribute], prefix: str = "Z") -> None:
        self._reserved = set(reserved)
        self._prefix = prefix
        self._counter = itertools.count(1)

    def new(self) -> Attribute:
        while True:
            candidate = f"{self._prefix}{next(self._counter)}"
            if candidate not in self._reserved:
                self._reserved.add(candidate)
                return candidate


def _binarize_expression(
    expression: PartitionExpression,
    factory: _FreshAttributeFactory,
    equations: list[tuple[str, str, str, str]],
    aliases: list[tuple[Attribute, Attribute]],
) -> Attribute:
    """Reduce an expression to a single attribute, recording binary equations.

    ``equations`` collects tuples ``(op, C, A, B)`` meaning ``C = A op B``;
    ``aliases`` collects attribute equalities introduced when a PD's side is
    already a single attribute.
    """
    if isinstance(expression, Attr):
        return expression.name
    left = _binarize_expression(expression.left, factory, equations, aliases)  # type: ignore[attr-defined]
    right = _binarize_expression(expression.right, factory, equations, aliases)  # type: ignore[attr-defined]
    fresh = factory.new()
    op = "*" if isinstance(expression, Product) else "+"
    equations.append((op, fresh, left, right))
    return fresh


def binarize(
    dependencies: Sequence[PartitionDependencyLike],
) -> tuple[list[tuple[str, str, str, str]], list[tuple[Attribute, Attribute]], list[Attribute]]:
    """Step 1: replace ``E`` by binary equations over an extended attribute universe.

    Returns ``(equations, aliases, fresh_attributes)`` where ``equations`` are
    ``(op, C, A, B)`` tuples (``C = A op B``) and ``aliases`` are pairs of
    attributes constrained to be equal (arising from PDs whose two sides both
    collapse to single attributes).
    """
    pds = [as_partition_dependency(pd) for pd in dependencies]
    reserved: set[Attribute] = set()
    for pd in pds:
        reserved |= set(pd.attributes)
    factory = _FreshAttributeFactory(reserved)
    equations: list[tuple[str, str, str, str]] = []
    aliases: list[tuple[Attribute, Attribute]] = []
    for pd in pds:
        left = _binarize_expression(pd.left, factory, equations, aliases)
        right = _binarize_expression(pd.right, factory, equations, aliases)
        if left != right:
            aliases.append((left, right))
    fresh = sorted(factory._reserved - reserved)
    return equations, aliases, fresh


def normalize_dependencies(
    dependencies: Sequence[PartitionDependencyLike],
    engine: Optional[ImplicationEngine] = None,
) -> NormalizedDependencies:
    """Run the full §6.2 normalization pipeline on a PD set.

    ``engine`` answers the closure step's ``≤_E`` questions; it must reason
    over exactly ``dependencies`` (a mismatch raises :class:`ValueError`).
    Passing a warm one — a session's index, kept alive across writes —
    makes the step a handful of row reads.  Without it an engine over ``E``
    is built here.
    """
    pds = [as_partition_dependency(pd) for pd in dependencies]
    if engine is None:
        engine = ImplicationEngine(pds)
    elif set(engine.dependencies) != set(pds):
        raise ValueError(
            "the implication engine was built over a different PD set than the one being normalized"
        )
    equations, aliases, fresh = binarize(pds)
    universe: set[Attribute] = set(fresh)
    for pd in pds:
        universe |= set(pd.attributes)
    # The sorted names are the bit positions of every mask below.
    names = sorted(universe)
    bit = {name: 1 << i for i, name in enumerate(names)}

    # Step 2: re-express everything as FPDs (i.e. FDs, as mask pairs) plus
    # sum constraints.
    fds: list[tuple[int, int]] = []
    sum_constraints: list[SumConstraint] = []
    for left, right in aliases:
        fds.append((bit[left], bit[right]))
        fds.append((bit[right], bit[left]))
    # σ: each fresh attribute -> the (hash-consed) subexpression of E it names.
    # Equations come children first, so operands are always resolved already.
    sigma: dict[Attribute, PartitionExpression] = {}
    for op, c, a, b in equations:
        left = sigma[a] if a in sigma else Attr(a)
        right = sigma[b] if b in sigma else Attr(b)
        if op == "*":
            # C = A·B  ⇔  C ≤ A·B  and  A·B ≤ C.
            fds.append((bit[c], bit[a] | bit[b]))
            fds.append((bit[a] | bit[b], bit[c]))
            sigma[c] = Product(left, right)
        else:
            # C = A+B  ⇔  A ≤ C, B ≤ C and C ≤ A+B.
            fds.append((bit[a], bit[c]))
            fds.append((bit[b], bit[c]))
            sum_constraints.append(SumConstraint(c, a, b))
            sigma[c] = Sum(left, right)

    # Step 3: A ≤_{E∪E'} B iff σ(A) ≤_E σ(B).  Row i of E's answer is the
    # mask of the names above names[i] — read in row-major order.
    images = [sigma[name] if name in sigma else Attr(name) for name in names]
    closure_rows = engine.leq_masks(images)
    for i, row in enumerate(closure_rows):
        fds.extend((1 << i, 1 << j) for j in bit_positions(row))

    # Prune subsumed sum constraints: with A ≤ B, C ≤ A+B reduces to C ≤ B
    # (resp. C ≤ A when B ≤ A), an FD the closure pairs above already hold.
    position = {name: i for i, name in enumerate(names)}
    surviving = [
        constraint
        for constraint in sum_constraints
        if not closure_rows[position[constraint.a]] & bit[constraint.b]
        and not closure_rows[position[constraint.b]] & bit[constraint.a]
    ]

    # Deduplicate FDs while preserving order, then drop trivial ones (X -> X).
    unique_fds = [(lhs, rhs) for lhs, rhs in dict.fromkeys(fds) if rhs & ~lhs]

    return NormalizedDependencies(
        original=pds,
        sum_constraints=surviving,
        fresh_attributes=fresh,
        coded_fds=CodedFds(names, unique_fds),
        closure_rows=closure_rows,
    )


def functional_part(dependencies: Sequence[PartitionDependencyLike]) -> list[FunctionalDependency]:
    """Convenience: just the FD set ``F`` produced by the normalization."""
    return normalize_dependencies(dependencies).fds


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
