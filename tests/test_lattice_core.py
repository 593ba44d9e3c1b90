"""Tests for repro.lattice.core and repro.lattice.properties."""

import pytest

from repro.errors import LatticeError
from repro.lattice.core import FiniteLattice
from repro.lattice.properties import (
    are_isomorphic,
    find_distributivity_violation,
    find_isomorphism,
    is_distributive,
    is_homomorphism,
    is_modular,
)


def diamond_m3() -> FiniteLattice:
    """M3: bottom, three incomparable atoms, top — modular but not distributive."""
    elements = ["bot", "x", "y", "z", "top"]

    def leq(a, b):
        return a == b or a == "bot" or b == "top"

    return FiniteLattice.from_partial_order(elements, leq)


def pentagon_n5() -> FiniteLattice:
    """N5: the pentagon — not modular (and hence not distributive)."""
    elements = ["bot", "a", "b", "c", "top"]
    order = {
        ("bot", "a"), ("bot", "b"), ("bot", "c"), ("bot", "top"),
        ("a", "c"), ("a", "top"), ("b", "top"), ("c", "top"),
    }

    def leq(x, y):
        return x == y or (x, y) in order

    return FiniteLattice.from_partial_order(elements, leq)


class TestConstruction:
    def test_chain_and_boolean(self):
        chain = FiniteLattice.chain(4)
        assert chain.bottom() == 0 and chain.top() == 3
        boolean = FiniteLattice.boolean("AB")
        assert len(boolean) == 4
        assert boolean.evaluate("A * B") == frozenset()
        assert boolean.evaluate("A + B") == frozenset({"A", "B"})

    def test_axiom_validation_rejects_non_lattice(self):
        with pytest.raises(LatticeError):
            FiniteLattice([0, 1], meet=lambda x, y: x, join=lambda x, y: y)

    def test_from_partial_order_requires_bounds(self):
        # Two incomparable elements with no common upper bound.
        with pytest.raises(LatticeError):
            FiniteLattice.from_partial_order(["a", "b"], lambda x, y: x == y)

    def test_from_tables(self):
        elements = [0, 1]
        meet = {(0, 0): 0, (0, 1): 0, (1, 1): 1}
        join = {(0, 0): 0, (0, 1): 1, (1, 1): 1}
        lattice = FiniteLattice.from_tables(elements, meet, join)
        assert lattice.leq(0, 1)

    def test_empty_lattice_rejected(self):
        with pytest.raises(LatticeError):
            FiniteLattice([], min, max)

    def test_meet_join_of_unknown_element(self):
        chain = FiniteLattice.chain(2)
        with pytest.raises(LatticeError):
            chain.meet(0, 7)


class TestOrderAndStructure:
    def test_leq_and_covers(self):
        chain = FiniteLattice.chain(3)
        assert chain.leq(0, 2)
        assert set(chain.covers()) == {(0, 1), (1, 2)}

    def test_m3_is_modular_not_distributive(self):
        m3 = diamond_m3()
        assert is_modular(m3)
        assert not is_distributive(m3)
        assert find_distributivity_violation(m3) is not None

    def test_n5_is_not_modular(self):
        n5 = pentagon_n5()
        assert not is_modular(n5)
        assert not is_distributive(n5)

    def test_boolean_lattice_is_distributive(self):
        assert is_distributive(FiniteLattice.boolean("ABC"))

    def test_sublattice_generated(self):
        boolean = FiniteLattice.boolean("ABC")
        sub = boolean.sublattice([frozenset({"A"}), frozenset({"B"})])
        assert len(sub) == 4
        assert frozenset() in sub and frozenset({"A", "B"}) in sub
        # Unknown generators are named in sorted order, not set order.
        with pytest.raises(LatticeError, match=r"not lattice elements: \['w', 'x', 'y', 'z'\]"):
            boolean.sublattice([frozenset({"A"}), "z", "x", "y", "w"])


class TestConstantsAndEvaluation:
    def test_constants_and_satisfies(self):
        boolean = FiniteLattice.boolean("AB")
        assert boolean.satisfies("A * (A + B) = A")
        assert not boolean.satisfies("A = B")
        assert boolean.satisfies_all(["A + A = A", "A*B = B*A"])

    def test_missing_constant(self):
        boolean = FiniteLattice.boolean("AB")
        with pytest.raises(LatticeError):
            boolean.evaluate("Z")

    def test_with_constants_renames(self):
        boolean = FiniteLattice.boolean("AB")
        renamed = boolean.with_constants({"X": frozenset({"A"}), "Y": frozenset({"A"})})
        # Two names for the same element are allowed (§2.2).
        assert renamed.satisfies("X = Y")


class TestMorphisms:
    def test_identity_is_homomorphism(self):
        m3 = diamond_m3()
        assert is_homomorphism(m3, m3, {e: e for e in m3.elements})

    def test_collapse_homomorphism(self):
        chain = FiniteLattice.chain(3)
        target = FiniteLattice.chain(2)
        assert is_homomorphism(chain, target, {0: 0, 1: 1, 2: 1})
        assert not is_homomorphism(chain, target, {0: 1, 1: 0, 2: 1})

    def test_isomorphism_detection(self):
        assert are_isomorphic(diamond_m3(), diamond_m3())
        assert not are_isomorphic(diamond_m3(), pentagon_n5())
        assert not are_isomorphic(FiniteLattice.chain(3), FiniteLattice.chain(4))
        mapping = find_isomorphism(FiniteLattice.chain(3), FiniteLattice.chain(3))
        assert mapping == {0: 0, 1: 1, 2: 2}

    def test_boolean_lattices_isomorphic_regardless_of_generator_names(self):
        assert are_isomorphic(FiniteLattice.boolean("AB"), FiniteLattice.boolean("XY"))
