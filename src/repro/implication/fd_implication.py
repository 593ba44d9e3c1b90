"""FD implication: Armstrong derivations, closure, and the PD cross-check (§5.3).

Section 5.3 of the paper observes that FD implication is exactly the uniform
word problem for idempotent commutative semigroups, and that it embeds into
PD implication via the FPD translation (``Σ ⊨_rel σ`` iff ``E_Σ ⊨_rel δ_σ``).
This module provides:

* :func:`fd_implies` / :func:`fd_closure` — the classical attribute-closure
  decision procedure (re-exported from the relational substrate);
* :class:`ArmstrongDerivation` and :func:`derive_fd` — an explicit
  proof-producing inference engine for Armstrong's axioms (reflexivity,
  augmentation, transitivity), so tests can exhibit derivations and not just
  yes/no answers;
* :func:`fd_implies_via_pds` / :func:`fd_implies_all_via_pds` — the
  translation route through the PD implication engine (ALG), used to
  validate the §5.3 correspondence and as a benchmark baseline; the batch
  form amortizes one incremental engine across all targets.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from typing import Optional, Union

from repro.dependencies.conversion import fd_to_pd, fds_to_pds
from repro.implication.alg import ImplicationEngine
from repro.relational.attributes import AttributeSet, as_attribute_set
from repro.relational.functional_dependencies import FunctionalDependency, closure, implies

#: Re-exported names so callers can treat this module as the FD implication facade.
fd_closure = closure
fd_implies = implies


@dataclass(frozen=True)
class DerivationStep:
    """One step of an Armstrong derivation.

    ``rule`` is one of ``"given"``, ``"reflexivity"``, ``"augmentation"``,
    ``"transitivity"``; ``premises`` are indexes of earlier steps.
    """

    fd: FunctionalDependency
    rule: str
    premises: tuple[int, ...] = ()


@dataclass
class ArmstrongDerivation:
    """A sequence of derivation steps ending in the target FD."""

    steps: list[DerivationStep] = field(default_factory=list)

    @property
    def conclusion(self) -> Optional[FunctionalDependency]:
        return self.steps[-1].fd if self.steps else None

    def add(self, fd: FunctionalDependency, rule: str, premises: tuple[int, ...] = ()) -> int:
        self.steps.append(DerivationStep(fd, rule, premises))
        return len(self.steps) - 1

    def check(self) -> bool:
        """Verify that every step is a correct application of its rule."""
        for index, step in enumerate(self.steps):
            if any(p >= index for p in step.premises):
                return False
            if step.rule == "given":
                continue
            if step.rule == "reflexivity":
                if not step.fd.rhs <= step.fd.lhs:
                    return False
            elif step.rule == "augmentation":
                if len(step.premises) != 1:
                    return False
                base = self.steps[step.premises[0]].fd
                # Augmentation by some W: lhs = base.lhs ∪ W, rhs = base.rhs ∪ W.
                # Such a W exists iff the four containments below hold (take
                # W = (lhs - base.lhs) ∪ (rhs - base.rhs)).
                if not (
                    base.lhs <= step.fd.lhs
                    and base.rhs <= step.fd.rhs
                    and (step.fd.rhs - base.rhs) <= step.fd.lhs
                    and (step.fd.lhs - base.lhs) <= step.fd.rhs
                ):
                    return False
            elif step.rule == "transitivity":
                if len(step.premises) != 2:
                    return False
                first = self.steps[step.premises[0]].fd
                second = self.steps[step.premises[1]].fd
                if first.rhs != second.lhs:
                    return False
                if step.fd.lhs != first.lhs or step.fd.rhs != second.rhs:
                    return False
            else:
                return False
        return True

    def __len__(self) -> int:
        return len(self.steps)

    def __str__(self) -> str:
        lines = []
        for index, step in enumerate(self.steps):
            premise_text = f" from {list(step.premises)}" if step.premises else ""
            lines.append(f"{index:3d}. {step.fd}   [{step.rule}{premise_text}]")
        return "\n".join(lines)


def derive_fd(
    fds: Sequence[FunctionalDependency], target: FunctionalDependency
) -> Optional[ArmstrongDerivation]:
    """Produce an explicit Armstrong derivation of ``target`` from ``fds`` (or ``None``).

    The derivation mirrors the attribute-closure computation: it derives
    ``X → X⁺`` by chaining augmentation and transitivity steps, then projects
    down to the target with reflexivity and transitivity.  The result always
    passes :meth:`ArmstrongDerivation.check`.
    """
    fd_list = list(fds)
    if not implies(fd_list, target):
        return None

    derivation = ArmstrongDerivation()
    given_index = {fd: derivation.add(fd, "given") for fd in fd_list}

    x = target.lhs
    # current: index of the FD  X -> current_rhs  derived so far.
    current_rhs = x
    current_index = derivation.add(FunctionalDependency(x, x), "reflexivity")

    changed = True
    while changed and not target.rhs <= current_rhs:
        changed = False
        for fd in fd_list:
            if fd.lhs <= current_rhs and not fd.rhs <= current_rhs:
                # Augment fd by current_rhs:  (lhs ∪ current_rhs) -> (rhs ∪ current_rhs),
                # whose lhs equals current_rhs because fd.lhs ⊆ current_rhs.
                augmented = FunctionalDependency(current_rhs, fd.rhs | current_rhs)
                augmented_index = derivation.add(
                    augmented, "augmentation", (given_index[fd],)
                )
                # Transitivity: X -> current_rhs and current_rhs -> rhs ∪ current_rhs.
                new_rhs = fd.rhs | current_rhs
                current_index = derivation.add(
                    FunctionalDependency(x, new_rhs),
                    "transitivity",
                    (current_index, augmented_index),
                )
                current_rhs = new_rhs
                changed = True
    # Project down to the target right-hand side.
    if current_rhs != target.rhs:
        projection_index = derivation.add(
            FunctionalDependency(current_rhs, target.rhs), "reflexivity"
        )
        derivation.add(target, "transitivity", (current_index, projection_index))
    return derivation


def fd_implies_via_pds(
    fds: Iterable[FunctionalDependency], target: FunctionalDependency
) -> bool:
    """Decide FD implication by translating to FPDs and running ALG (§5.3, Theorem 3).

    Slower than attribute closure; exists to validate the correspondence and
    as a benchmark baseline (EXP-FD).
    """
    return fd_implies_all_via_pds(fds, [target])[0]


def fd_implies_all_via_pds(
    fds: Iterable[FunctionalDependency], targets: Iterable[FunctionalDependency]
) -> list[bool]:
    """Batch variant of :func:`fd_implies_via_pds`: one ALG engine for all targets.

    The FPD translation of ``Σ`` is loaded into a single incremental
    :class:`~repro.implication.alg.ImplicationEngine` and every target PD is
    decided against it, so the closure over ``E_Σ`` is propagated once and
    each target only pays for the delta its own subexpressions introduce —
    instead of one full ALG run per FD (the EXP-FD amortization benchmark
    measures the difference).
    """
    target_pds = [fd_to_pd(target) for target in targets]
    engine = ImplicationEngine(
        fds_to_pds(fds),
        query_expressions=[side for pd in target_pds for side in (pd.left, pd.right)],
    )
    return [engine.implies(pd) for pd in target_pds]


def closure_sequence(
    attributes: Union[str, AttributeSet], fds: Sequence[FunctionalDependency]
) -> list[AttributeSet]:
    """The increasing sequence of attribute sets visited by the closure fixpoint.

    Useful for teaching examples; the last element is ``X⁺``.
    """
    current = as_attribute_set(attributes)
    fd_list = list(fds)
    sequence = [current]
    changed = True
    while changed:
        changed = False
        for fd in fd_list:
            if fd.lhs <= current and not fd.rhs <= current:
                current = current | fd.rhs
                sequence.append(current)
                changed = True
    return sequence


def is_superkey(
    attributes: Union[str, AttributeSet],
    universe: Union[str, AttributeSet],
    fds: Sequence[FunctionalDependency],
) -> bool:
    """True iff ``attributes`` functionally determines the whole ``universe`` under ``fds``."""
    return as_attribute_set(universe) <= closure(attributes, fds)
