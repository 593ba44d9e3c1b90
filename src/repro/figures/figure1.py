"""Figure 1 of the paper: a worked partition interpretation (§3.2).

The figure exhibits, over attributes ``A, B, C`` with common population
``{1, 2, 3, 4}``:

* the atomic partitions
  ``π_A = {{1}, {4}, {2,3}}``, ``π_B = {{1,4}, {2,3}}``, ``π_C = {{1,2}, {3,4}}``;
* the naming functions
  ``f_A: a↦{1}, a1↦{4}, a2↦{2,3}``, ``f_B: b↦{1,4}, b1↦{2,3}``,
  ``f_C: c↦{1,2}, c1↦{3,4}`` (every other symbol ↦ ∅);
* a database ``d`` with the single relation ``R[ABC]`` holding the tuples
  ``a.b.c``, ``a2.b1.c``, ``a2.b1.c1``, ``a1.b.c1``;
* the FPD ``A = A·B`` as (part of) the constraint set ``E``;
* the observations that the interpretation satisfies ``d``, ``E``, CAD and
  EAP, and that the generated lattice ``L(I)`` is **not distributive**, the
  witness being ``B·(A+C) ≠ (B·A) + (B·C)``.

The constraint column of the printed figure also shows a second, partly
illegible item in the source text we reproduce from; only the verifiable
constraint ``A = A·B`` is included here.

:func:`build` returns all of these as one :class:`Figure1` value;
:func:`report` renders the same checks the caption makes, as text.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dependencies.pd import PartitionDependency
from repro.lattice.interpretation_lattice import InterpretationLattice
from repro.partitions.assumptions import satisfies_cad, satisfies_eap
from repro.partitions.interpretation import PartitionInterpretation
from repro.relational.database import Database
from repro.relational.relations import Relation


@dataclass(frozen=True)
class Figure1:
    """The objects drawn in Figure 1."""

    interpretation: PartitionInterpretation
    database: Database
    dependencies: tuple[PartitionDependency, ...]
    lattice: InterpretationLattice
    non_distributivity_witness: PartitionDependency

    def checks(self) -> dict[str, bool]:
        """The claims the figure makes, each evaluated on the constructed objects."""
        relation = self.database.relations[0]
        return {
            "interpretation satisfies d": self.interpretation.satisfies_database(self.database),
            "interpretation satisfies E": self.interpretation.satisfies_all_pds(self.dependencies),
            "interpretation satisfies CAD": satisfies_cad(self.interpretation, self.database),
            "interpretation satisfies EAP": satisfies_eap(self.interpretation),
            "L(I) is NOT distributive": not self.lattice.is_distributive(),
            "B*(A+C) != (B*A)+(B*C) in L(I)": not self.lattice.satisfies(
                self.non_distributivity_witness
            ),
            "relation r satisfies E (Definition 7)": all(
                relation.satisfies_pd(pd) for pd in self.dependencies
            ),
        }


def build() -> Figure1:
    """Construct the Figure 1 interpretation, database, constraints and lattice."""
    interpretation = PartitionInterpretation.from_named_blocks(
        {
            "A": {"a": {1}, "a1": {4}, "a2": {2, 3}},
            "B": {"b": {1, 4}, "b1": {2, 3}},
            "C": {"c": {1, 2}, "c1": {3, 4}},
        }
    )
    relation = Relation.from_strings("R", "ABC", ["a.b.c", "a2.b1.c", "a2.b1.c1", "a1.b.c1"])
    database = Database.single(relation)
    dependencies = (PartitionDependency.parse("A = A*B"),)
    lattice = InterpretationLattice.from_interpretation(interpretation)
    witness = PartitionDependency.parse("B*(A+C) = (B*A)+(B*C)")
    return Figure1(interpretation, database, dependencies, lattice, witness)


def report() -> str:
    """A textual rendition of Figure 1's claims with their evaluated truth values."""
    figure = build()
    lines = ["Figure 1 — partition interpretation over A, B, C with population {1,2,3,4}", ""]
    lines.append(str(figure.database.relations[0]))
    lines.append("")
    lines.append(str(figure.interpretation))
    lines.append("")
    lines.append(f"E = {{ {', '.join(str(pd) for pd in figure.dependencies)} }}")
    lines.append(
        f"|L(I)| = {len(figure.lattice)}, Hasse edges = {len(figure.lattice.covers())}, "
        f"modular: {figure.lattice.is_modular()}"
    )
    lines.append("")
    for claim, value in figure.checks().items():
        lines.append(f"  [{'ok' if value else 'FAIL'}] {claim}")
    return "\n".join(lines)
