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
   row read per attribute on an :class:`~repro.implication.alg.ImplicationEngine`
   whose index already holds every ``σ(A)`` as a vertex — and never closes
   ``E ∪ E'``.  A caller holding a warm engine over ``E`` passes it in.

The result is an :class:`NormalizedDependencies` value carrying the FPD part
``F`` (as FDs, ready for the chase) and the surviving sum PDs.  Lemma 12.1
then says a weak instance satisfying ``F`` can be repaired into one
satisfying everything, so the chase on ``F`` alone decides consistency.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from typing import Optional

from repro.dependencies.pd import PartitionDependency, PartitionDependencyLike, as_partition_dependency
from repro.errors import ConsistencyError
from repro.expressions.ast import Attr, PartitionExpression, Product, Sum
from repro.implication.alg import ImplicationEngine
from repro.relational.attributes import Attribute, AttributeSet
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


@dataclass
class NormalizedDependencies:
    """The output of the Theorem 12 normalization pipeline.

    ``fds`` is the FPD part ``F`` of ``E⁺`` rendered as FDs over the extended
    universe; ``sum_constraints`` are the surviving ``C ≤ A+B`` constraints;
    ``fresh_attributes`` are the attribute names invented by binarization;
    ``attribute_closure_pairs`` are all the ``A ≤ B`` consequences added by
    the closure step (kept for inspection and for the EXPERIMENTS write-up).
    """

    original: list[PartitionDependency]
    fds: list[FunctionalDependency] = field(default_factory=list)
    sum_constraints: list[SumConstraint] = field(default_factory=list)
    fresh_attributes: list[Attribute] = field(default_factory=list)
    attribute_closure_pairs: list[tuple[Attribute, Attribute]] = field(default_factory=list)

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
            fds=list(fds),
            sum_constraints=list(sum_constraints),
            fresh_attributes=list(fresh_attributes),
            attribute_closure_pairs=[(a, b) for a, b in attribute_closure_pairs],
        )

    @property
    def universe(self) -> AttributeSet:
        """All attributes mentioned after normalization (original + fresh)."""
        attrs: set[Attribute] = set(self.fresh_attributes)
        for pd in self.original:
            attrs |= set(pd.attributes)
        for fd in self.fds:
            attrs |= set(fd.attributes)
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
    names = sorted(universe)
    # One AttributeSet per name, shared by every unary FD below.
    single = {name: AttributeSet([name]) for name in names}

    # Step 2: re-express everything as FPDs (i.e. FDs) plus sum constraints.
    fds: list[FunctionalDependency] = []
    sum_constraints: list[SumConstraint] = []
    for left, right in aliases:
        fds.append(FunctionalDependency(single[left], single[right]))
        fds.append(FunctionalDependency(single[right], single[left]))
    # σ: each fresh attribute -> the (hash-consed) subexpression of E it names.
    # Equations come children first, so operands are always resolved already.
    sigma: dict[Attribute, PartitionExpression] = {}
    for op, c, a, b in equations:
        left = sigma[a] if a in sigma else Attr(a)
        right = sigma[b] if b in sigma else Attr(b)
        if op == "*":
            # C = A·B  ⇔  C ≤ A·B  and  A·B ≤ C.
            fds.append(FunctionalDependency(single[c], [a, b]))
            fds.append(FunctionalDependency([a, b], single[c]))
            sigma[c] = Product(left, right)
        else:
            # C = A+B  ⇔  A ≤ C, B ≤ C and C ≤ A+B.
            fds.append(FunctionalDependency(single[a], single[c]))
            fds.append(FunctionalDependency(single[b], single[c]))
            sum_constraints.append(SumConstraint(c, a, b))
            sigma[c] = Sum(left, right)

    # Step 3: A ≤_{E∪E'} B iff σ(A) ≤_E σ(B), read off E's rows in the
    # row-major order of the sorted universe.
    images = [sigma[name] if name in sigma else Attr(name) for name in names]
    closure_pairs = [(names[i], names[j]) for i, j in engine.leq_pairs(images)]
    for a, b in closure_pairs:
        fds.append(FunctionalDependency(single[a], single[b]))

    # Prune subsumed sum constraints: with A ≤ B, C ≤ A+B reduces to C ≤ B
    # (resp. C ≤ A when B ≤ A), an FD the closure pairs above already hold.
    order = set(closure_pairs)
    surviving = [
        constraint
        for constraint in sum_constraints
        if (constraint.a, constraint.b) not in order and (constraint.b, constraint.a) not in order
    ]

    # Deduplicate FDs while preserving order, then drop trivial ones (X -> X).
    unique_fds = [fd for fd in dict.fromkeys(fds) if not fd.is_trivial()]

    return NormalizedDependencies(
        original=pds,
        fds=unique_fds,
        sum_constraints=surviving,
        fresh_attributes=list(fresh),
        attribute_closure_pairs=closure_pairs,
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
