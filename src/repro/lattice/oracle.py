"""The dict-table lattice subsystem preserved as a cross-check oracle.

PR 4 re-founded :mod:`repro.lattice.core` on a dense integer/bitset kernel
(interned element ids, big-int down-set/up-set rows, flat id→id meet/join
tables).  Following the PR 1–3 pattern, the previous implementation survives
here *verbatim* so the randomized equivalence suite
(``tests/test_lattice_kernel.py``) and the EXP-LAT benchmarks can prove the
kernel produces identical results:

* :class:`OracleFiniteLattice` — the seed's hashable-element dict-table
  lattice with its O(n²)–O(n³) scans;
* :func:`oracle_is_distributive` / :func:`oracle_is_modular` /
  :func:`oracle_is_homomorphism` — the elementwise triple-loop property
  checks;
* :func:`quotient_fragment_pairwise` — the O(|pool|·|classes|) pairwise
  ``engine.leq`` collapse that :func:`repro.lattice.quotient.quotient_fragment`
  replaced with a single group-by on congruence-class ids;
* :func:`finite_counterexample_oracle` — the ``L_H`` construction whose
  product-closure loop canonicalizes by linear scan over all elements.

Nothing here is exported at the package top level; the production paths all
live in :mod:`repro.lattice.core` and :mod:`repro.lattice.quotient`.
"""

from __future__ import annotations

import itertools
from collections.abc import Hashable, Iterable, Mapping, Sequence
from typing import Callable, Optional

from repro.dependencies.pd import PartitionDependencyLike, as_partition_dependency
from repro.errors import LatticeError
from repro.expressions.ast import Attr, ExpressionLike, PartitionExpression, Product, Sum, as_expression, attr, sum_of
from repro.implication.alg import ImplicationEngine

LatticeElement = Hashable


class OracleFiniteLattice:
    """The seed's explicit finite lattice: dict operation tables, elementwise scans."""

    def __init__(
        self,
        elements: Iterable[LatticeElement],
        meet: Callable[[LatticeElement, LatticeElement], LatticeElement],
        join: Callable[[LatticeElement, LatticeElement], LatticeElement],
        constants: Optional[Mapping[str, LatticeElement]] = None,
        validate: bool = True,
    ) -> None:
        self._elements = list(dict.fromkeys(elements))
        if not self._elements:
            raise LatticeError("a lattice must be non-empty")
        element_set = set(self._elements)
        self._meet_table: dict[tuple[LatticeElement, LatticeElement], LatticeElement] = {}
        self._join_table: dict[tuple[LatticeElement, LatticeElement], LatticeElement] = {}
        for x in self._elements:
            for y in self._elements:
                m = meet(x, y)
                j = join(x, y)
                if m not in element_set or j not in element_set:
                    raise LatticeError(
                        f"meet/join of {x!r}, {y!r} escapes the element set"
                    )
                self._meet_table[(x, y)] = m
                self._join_table[(x, y)] = j
        self._constants = dict(constants or {})
        for name, element in self._constants.items():
            if element not in element_set:
                raise LatticeError(f"constant {name!r} names unknown element {element!r}")
        if validate:
            problems = self.axiom_violations()
            if problems:
                raise LatticeError(f"lattice axioms violated: {problems[:3]} ...")

    # -- constructors ---------------------------------------------------------------
    @classmethod
    def from_tables(
        cls,
        elements: Iterable[LatticeElement],
        meet_table: Mapping[tuple[LatticeElement, LatticeElement], LatticeElement],
        join_table: Mapping[tuple[LatticeElement, LatticeElement], LatticeElement],
        constants: Optional[Mapping[str, LatticeElement]] = None,
        validate: bool = True,
    ) -> "OracleFiniteLattice":
        """Build from explicit operation tables (missing symmetric entries are filled in)."""

        def meet(x: LatticeElement, y: LatticeElement) -> LatticeElement:
            if (x, y) in meet_table:
                return meet_table[(x, y)]
            return meet_table[(y, x)]

        def join(x: LatticeElement, y: LatticeElement) -> LatticeElement:
            if (x, y) in join_table:
                return join_table[(x, y)]
            return join_table[(y, x)]

        return cls(elements, meet, join, constants, validate)

    @classmethod
    def from_partial_order(
        cls,
        elements: Iterable[LatticeElement],
        leq: Callable[[LatticeElement, LatticeElement], bool],
        constants: Optional[Mapping[str, LatticeElement]] = None,
    ) -> "OracleFiniteLattice":
        """Build a lattice from a partial order, checking that meets and joins exist."""
        items = list(dict.fromkeys(elements))

        def glb(x: LatticeElement, y: LatticeElement) -> LatticeElement:
            lower = [z for z in items if leq(z, x) and leq(z, y)]
            greatest = [z for z in lower if all(leq(w, z) for w in lower)]
            if len(greatest) != 1:
                raise LatticeError(f"elements {x!r}, {y!r} have no unique greatest lower bound")
            return greatest[0]

        def lub(x: LatticeElement, y: LatticeElement) -> LatticeElement:
            upper = [z for z in items if leq(x, z) and leq(y, z)]
            least = [z for z in upper if all(leq(z, w) for w in upper)]
            if len(least) != 1:
                raise LatticeError(f"elements {x!r}, {y!r} have no unique least upper bound")
            return least[0]

        return cls(items, glb, lub, constants)

    @classmethod
    def chain(cls, length: int) -> "OracleFiniteLattice":
        """The chain lattice 0 < 1 < ... < length-1 (handy in tests)."""
        if length <= 0:
            raise LatticeError("a chain needs at least one element")
        return cls(range(length), min, max)

    @classmethod
    def boolean(cls, generators: Iterable[str]) -> "OracleFiniteLattice":
        """The Boolean (powerset) lattice over a finite generator set, constants = atoms."""
        names = sorted(set(generators))
        elements = [
            frozenset(combo)
            for size in range(len(names) + 1)
            for combo in itertools.combinations(names, size)
        ]
        constants = {name: frozenset([name]) for name in names}
        return cls(
            elements,
            lambda x, y: x & y,
            lambda x, y: x | y,
            constants,
        )

    # -- basic structure ---------------------------------------------------------------
    @property
    def elements(self) -> list[LatticeElement]:
        """The elements (in construction order)."""
        return list(self._elements)

    @property
    def constants(self) -> dict[str, LatticeElement]:
        """The named constants (attribute name → element)."""
        return dict(self._constants)

    def __len__(self) -> int:
        return len(self._elements)

    def __contains__(self, element: object) -> bool:
        return element in set(self._elements)

    def meet(self, x: LatticeElement, y: LatticeElement) -> LatticeElement:
        """``x * y``."""
        try:
            return self._meet_table[(x, y)]
        except KeyError as exc:
            raise LatticeError(f"{x!r} or {y!r} is not a lattice element") from exc

    def join(self, x: LatticeElement, y: LatticeElement) -> LatticeElement:
        """``x + y``."""
        try:
            return self._join_table[(x, y)]
        except KeyError as exc:
            raise LatticeError(f"{x!r} or {y!r} is not a lattice element") from exc

    def leq(self, x: LatticeElement, y: LatticeElement) -> bool:
        """The natural partial order: ``x ≤ y`` iff ``x = x * y``."""
        return self.meet(x, y) == x

    def top(self) -> LatticeElement:
        """The greatest element (join of everything)."""
        result = self._elements[0]
        for element in self._elements[1:]:
            result = self.join(result, element)
        return result

    def bottom(self) -> LatticeElement:
        """The least element (meet of everything)."""
        result = self._elements[0]
        for element in self._elements[1:]:
            result = self.meet(result, element)
        return result

    def covers(self) -> list[tuple[LatticeElement, LatticeElement]]:
        """The covering pairs (Hasse-diagram edges) ``x ⋖ y``."""
        result = []
        for x in self._elements:
            for y in self._elements:
                if x == y or not self.leq(x, y):
                    continue
                if any(
                    z not in (x, y) and self.leq(x, z) and self.leq(z, y)
                    for z in self._elements
                ):
                    continue
                result.append((x, y))
        return result

    # -- axioms ------------------------------------------------------------------------------
    def axiom_violations(self) -> list[str]:
        """Human-readable descriptions of lattice-axiom violations (empty iff a lattice)."""
        problems: list[str] = []
        elements = self._elements
        for x in elements:
            if self.meet(x, x) != x:
                problems.append(f"meet not idempotent at {x!r}")
            if self.join(x, x) != x:
                problems.append(f"join not idempotent at {x!r}")
        for x, y in itertools.product(elements, repeat=2):
            if self.meet(x, y) != self.meet(y, x):
                problems.append(f"meet not commutative at {x!r}, {y!r}")
            if self.join(x, y) != self.join(y, x):
                problems.append(f"join not commutative at {x!r}, {y!r}")
            if self.join(x, self.meet(x, y)) != x:
                problems.append(f"absorption x+(x*y) fails at {x!r}, {y!r}")
            if self.meet(x, self.join(x, y)) != x:
                problems.append(f"absorption x*(x+y) fails at {x!r}, {y!r}")
        for x, y, z in itertools.product(elements, repeat=3):
            if self.meet(self.meet(x, y), z) != self.meet(x, self.meet(y, z)):
                problems.append(f"meet not associative at {x!r}, {y!r}, {z!r}")
            if self.join(self.join(x, y), z) != self.join(x, self.join(y, z)):
                problems.append(f"join not associative at {x!r}, {y!r}, {z!r}")
        return problems

    # -- constants and expression evaluation -----------------------------------------------------
    def with_constants(self, constants: Mapping[str, LatticeElement]) -> "OracleFiniteLattice":
        """The same lattice with a different constant assignment."""
        return OracleFiniteLattice(
            self._elements,
            self.meet,
            self.join,
            constants,
            validate=False,
        )

    def constant(self, name: str) -> LatticeElement:
        """The element named by an attribute."""
        try:
            return self._constants[name]
        except KeyError as exc:
            raise LatticeError(f"no constant named {name!r} in this lattice") from exc

    def evaluate(self, expression: ExpressionLike) -> LatticeElement:
        """Evaluate a partition expression inside the lattice (attributes via constants)."""
        node = as_expression(expression)
        if isinstance(node, Attr):
            return self.constant(node.name)
        if isinstance(node, Product):
            return self.meet(self.evaluate(node.left), self.evaluate(node.right))
        if isinstance(node, Sum):
            return self.join(self.evaluate(node.left), self.evaluate(node.right))
        raise LatticeError(f"unknown expression node {node!r}")

    def satisfies(self, dependency) -> bool:
        """``L ⊨ e = e'``: the two sides evaluate to the same element (§2.2)."""
        pd = as_partition_dependency(dependency)
        return self.evaluate(pd.left) == self.evaluate(pd.right)

    def satisfies_all(self, dependencies: Iterable) -> bool:
        """Satisfaction of a set of equations."""
        return all(self.satisfies(pd) for pd in dependencies)

    # -- substructures -----------------------------------------------------------------------------
    def sublattice(self, elements: Iterable[LatticeElement]) -> "OracleFiniteLattice":
        """The sublattice generated by ``elements`` (closure under meet and join)."""
        current = set(elements)
        if not current:
            raise LatticeError("a sublattice needs at least one generator")
        unknown = current - set(self._elements)
        if unknown:
            raise LatticeError(f"not lattice elements: {sorted(unknown, key=repr)!r}")
        changed = True
        while changed:
            changed = False
            for x, y in itertools.combinations(sorted(current, key=repr), 2):
                for candidate in (self.meet(x, y), self.join(x, y)):
                    if candidate not in current:
                        current.add(candidate)
                        changed = True
        constants = {
            name: element for name, element in self._constants.items() if element in current
        }
        return OracleFiniteLattice(
            sorted(current, key=repr), self.meet, self.join, constants, validate=False
        )

    def __repr__(self) -> str:
        return (
            f"OracleFiniteLattice({len(self._elements)} elements, "
            f"constants={sorted(self._constants)})"
        )


# -- elementwise property checks (the seed's triple loops) ---------------------------


def oracle_find_distributivity_violation(lattice):
    """A triple witnessing non-distributivity by exhaustive elementwise scan."""
    for x, y, z in itertools.product(lattice.elements, repeat=3):
        left = lattice.meet(x, lattice.join(y, z))
        right = lattice.join(lattice.meet(x, y), lattice.meet(x, z))
        if left != right:
            return (x, y, z)
    return None


def oracle_is_distributive(lattice) -> bool:
    """Elementwise distributivity check (the seed implementation)."""
    return oracle_find_distributivity_violation(lattice) is None


def oracle_is_modular(lattice) -> bool:
    """Elementwise modularity check (the seed implementation)."""
    for x, y, z in itertools.product(lattice.elements, repeat=3):
        if lattice.leq(x, z):
            left = lattice.join(x, lattice.meet(y, z))
            right = lattice.meet(lattice.join(x, y), z)
            if left != right:
                return False
    return True


def oracle_is_homomorphism(source, target, mapping) -> bool:
    """Elementwise meet/join preservation check (the seed implementation)."""
    get = mapping.__getitem__ if isinstance(mapping, Mapping) else mapping
    for x, y in itertools.product(source.elements, repeat=2):
        if get(source.meet(x, y)) != target.meet(get(x), get(y)):
            return False
        if get(source.join(x, y)) != target.join(get(x), get(y)):
            return False
    return True


# -- the pairwise quotient pipeline (the seed's Theorem 8 hot path) ------------------


def quotient_fragment_pairwise(
    dependencies: Iterable[PartitionDependencyLike],
    pool: Sequence[PartitionExpression],
    engine: Optional[ImplicationEngine] = None,
):
    """Collapse ``pool`` into ``=_E`` classes by pairwise ``engine.leq`` scans.

    The seed implementation of :func:`repro.lattice.quotient.quotient_fragment`:
    every candidate is compared (two ``leq`` calls) against every
    representative found so far — O(|pool|·|classes|) engine queries where the
    class-driven production path issues one ``class_id`` per pool member.
    """
    from repro.lattice.quotient import QuotientFragment

    pds = tuple(as_partition_dependency(pd) for pd in dependencies)
    if engine is None:
        engine = ImplicationEngine(pds, query_expressions=pool)
    else:
        if set(engine.dependencies) != set(pds):
            raise LatticeError(
                "the shared engine must reason over exactly the PD set being quotiented"
            )
        engine.prepare(pool)
    representatives: list[PartitionExpression] = []
    for candidate in sorted(pool, key=lambda e: (e.size(), str(e))):
        if not any(
            engine.leq(candidate, seen) and engine.leq(seen, candidate)
            for seen in representatives
        ):
            representatives.append(candidate)
    order = frozenset(
        (i, j)
        for i, left in enumerate(representatives)
        for j, right in enumerate(representatives)
        if engine.leq(left, right)
    )
    return QuotientFragment(pds, tuple(representatives), order)


def finite_counterexample_oracle(
    dependencies: Iterable[PartitionDependencyLike],
    query: PartitionDependencyLike,
    max_pool: int = 4000,
) -> Optional[OracleFiniteLattice]:
    """The seed ``L_H`` construction: pairwise collapse + linear-scan canonicalization.

    Returns an :class:`OracleFiniteLattice`; the equivalence suite checks it
    is isomorphic to the kernel's ``L_H`` and reaches the same verdicts.
    """
    from repro.lattice.quotient import theorem8_pool

    pds = [as_partition_dependency(pd) for pd in dependencies]
    target = as_partition_dependency(query)
    engine = ImplicationEngine(pds)
    if engine.implies(target):
        return None

    pool = theorem8_pool(pds, target, max_pool=max_pool)
    attributes = sorted({a for e in pool for a in e.attributes()})
    top_expression = sum_of([attr(a) for a in attributes])

    fragment = quotient_fragment_pairwise(pds, pool, engine=engine)
    class_representatives = list(fragment.representatives)

    elements: list[PartitionExpression] = list(class_representatives)
    engine.prepare([top_expression])

    def same_class(a: PartitionExpression, b: PartitionExpression) -> bool:
        return engine.leq(a, b) and engine.leq(b, a)

    def canonical(expression: PartitionExpression) -> PartitionExpression:
        for existing in elements:
            if same_class(existing, expression):
                return existing
        elements.append(expression)
        return expression

    changed = True
    while changed:
        changed = False
        snapshot = list(elements)
        for left, right in itertools.combinations(snapshot, 2):
            product = Product(left, right)
            before = len(elements)
            canonical(product)
            if len(elements) != before:
                changed = True
    canonical(top_expression)

    constants = {}
    for attribute in attributes:
        constants[attribute] = canonical(attr(attribute))

    def leq(x: PartitionExpression, y: PartitionExpression) -> bool:
        return engine.leq(x, y)

    return OracleFiniteLattice.from_partial_order(elements, leq, constants=constants)
