"""Shared fixtures and hypothesis strategies for the repro test suite."""

from __future__ import annotations

import random

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from repro.dependencies.pd import as_partition_dependency
from repro.expressions.ast import Attr, PartitionExpression, Product, Sum, as_expression
from repro.implication.alg import alg_closure_naive
from repro.partitions.partition import Partition
from repro.relational.relations import Relation
from repro.relational.tuples import Row

# CI runs the suite with ``--hypothesis-profile=ci``: no per-example deadline
# (shared runners stall unpredictably) and a reproduction blob printed with
# every falsifying example, so a failure on any matrix Python can be replayed.
settings.register_profile("ci", deadline=None, print_blob=True)
# ``--hypothesis-profile=thorough`` gives the randomized ALG index properties
# (alias and overlay rollback paths above all) more interleavings than tier-1.
settings.register_profile("thorough", max_examples=500, deadline=None, print_blob=True)

# ---------------------------------------------------------------------------
# Plain fixtures
# ---------------------------------------------------------------------------


@pytest.fixture
def employee_relation() -> Relation:
    """A small relation satisfying A -> B but not B -> A (Example a flavour)."""
    return Relation.from_strings(
        "emp", "ABC", ["e1.m1.d1", "e2.m1.d1", "e3.m2.d2", "e4.m2.d1"]
    )


@pytest.fixture
def figure1_relation() -> Relation:
    """The database relation of Figure 1."""
    return Relation.from_strings("R", "ABC", ["a.b.c", "a2.b1.c", "a2.b1.c1", "a1.b.c1"])


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260617)


# ---------------------------------------------------------------------------
# Oracle stand-ins
# ---------------------------------------------------------------------------


def index_state(index):
    """What an :class:`ImplicationIndex` has committed: E, its vertices, its arcs.

    The vertices come in registration order, aliases included.  The vertex
    order and the full arc relation fix every class root and class-level arc
    as well, so equal states mean indistinguishable indexes.
    """
    return list(index.dependencies), index.vertices(), index.as_expression_pairs()


class NaiveClosureEngine:
    """What ``normalize_dependencies`` reads off an engine, answered by the paper's literal ALG."""

    def __init__(self, dependencies) -> None:
        self.dependencies = [as_partition_dependency(pd) for pd in dependencies]

    def leq_masks(self, expressions) -> list[int]:
        exprs = [as_expression(e) for e in expressions]
        closure = alg_closure_naive(self.dependencies, exprs)
        vids = [closure.index[e] for e in exprs]
        return [
            sum(1 << j for j, q in enumerate(vids) if i != j and closure.has(p, q))
            for i, p in enumerate(vids)
        ]


# ---------------------------------------------------------------------------
# Hypothesis strategies
# ---------------------------------------------------------------------------

ATTRIBUTE_POOL = ["A", "B", "C", "D"]
SYMBOL_POOL = ["s1", "s2", "s3"]


@st.composite
def partitions(draw, min_size: int = 0, max_size: int = 6) -> Partition:
    """A random partition of a subset of {0..max_size-1}."""
    size = draw(st.integers(min_value=min_size, max_value=max_size))
    if size == 0:
        return Partition()
    labels = draw(st.lists(st.integers(min_value=0, max_value=3), min_size=size, max_size=size))
    return Partition.from_function(range(size), lambda i: labels[i])


@st.composite
def partitions_over(draw, population: tuple = (0, 1, 2, 3, 4)) -> Partition:
    """A random partition of a fixed population (for axioms needing shared populations)."""
    labels = draw(
        st.lists(
            st.integers(min_value=0, max_value=len(population) - 1),
            min_size=len(population),
            max_size=len(population),
        )
    )
    return Partition.from_function(population, lambda i: labels[population.index(i)])


@st.composite
def expressions(draw, max_depth: int = 3) -> PartitionExpression:
    """A random partition expression over the ATTRIBUTE_POOL."""
    if max_depth <= 0 or draw(st.booleans()):
        return Attr(draw(st.sampled_from(ATTRIBUTE_POOL)))
    left = draw(expressions(max_depth=max_depth - 1))
    right = draw(expressions(max_depth=max_depth - 1))
    return Product(left, right) if draw(st.booleans()) else Sum(left, right)


@st.composite
def small_relations(draw, attributes: str = "ABC", max_rows: int = 5) -> Relation:
    """A random small relation over the given attributes with a tiny symbol pool."""
    row_count = draw(st.integers(min_value=1, max_value=max_rows))
    rows = []
    for _ in range(row_count):
        rows.append(
            Row({a: draw(st.sampled_from(SYMBOL_POOL)) + a.lower() for a in attributes})
        )
    return Relation.from_rows("r", attributes, rows)
