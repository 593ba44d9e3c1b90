"""Random relations and databases for benchmarks and property-based tests.

All generators take an explicit ``seed`` (or a ``random.Random``) so that
benchmark runs and test failures are reproducible.  Sizes are parameterized
the way the benchmark sweeps need them: number of attributes, number of
tuples, and domain size per attribute (small domains create many "agreeing"
tuple pairs, which is what stresses FD/PD satisfaction and the chase).
"""

from __future__ import annotations

import random
from typing import Union

from repro.relational.attributes import AttributeSet
from repro.relational.database import Database
from repro.relational.relations import Relation
from repro.relational.schema import RelationScheme
from repro.relational.tuples import Row

RandomLike = Union[int, random.Random]


def _rng(seed: RandomLike) -> random.Random:
    return seed if isinstance(seed, random.Random) else random.Random(seed)


def attribute_names(count: int) -> list[str]:
    """``count`` attribute names: A, B, C, ..., A1, B1, ... (deterministic)."""
    base = [chr(ord("A") + i) for i in range(min(count, 26))]
    names = list(base)
    suffix = 1
    while len(names) < count:
        names.extend(f"{letter}{suffix}" for letter in base if len(names) < count)
        suffix += 1
    return names[:count]


def random_relation(
    attribute_count: int,
    tuple_count: int,
    domain_size: int = 4,
    seed: RandomLike = 0,
    name: str = "r",
) -> Relation:
    """A random relation: each cell drawn uniformly from a per-attribute domain."""
    rng = _rng(seed)
    attributes = attribute_names(attribute_count)
    rows = set()
    for _ in range(tuple_count):
        rows.add(
            Row({a: f"{a.lower()}{rng.randint(1, max(1, domain_size))}" for a in attributes})
        )
    return Relation(RelationScheme(name, attributes), rows)


def random_functional_relation(
    attribute_count: int,
    tuple_count: int,
    determinant: str = "A",
    domain_size: int = 4,
    seed: RandomLike = 0,
    name: str = "r",
) -> Relation:
    """A random relation guaranteed to satisfy ``determinant → everything``.

    Each distinct determinant value is assigned one full row of values; the
    other attributes are then functions of the determinant.  Useful when a
    benchmark needs relations that *satisfy* given FDs.
    """
    rng = _rng(seed)
    attributes = attribute_names(attribute_count)
    if determinant not in attributes:
        raise ValueError(f"determinant {determinant!r} is not among the generated attributes")
    row_for_key: dict[str, Row] = {}
    rows = set()
    for _ in range(tuple_count):
        key = f"{determinant.lower()}{rng.randint(1, max(1, domain_size))}"
        if key not in row_for_key:
            cells = {determinant: key}
            for a in attributes:
                if a != determinant:
                    cells[a] = f"{a.lower()}{rng.randint(1, max(1, domain_size))}"
            row_for_key[key] = Row(cells)
        rows.add(row_for_key[key])
    return Relation(RelationScheme(name, attributes), rows)


def random_database(
    relation_count: int,
    universe_size: int,
    attributes_per_relation: int,
    tuples_per_relation: int,
    domain_size: int = 4,
    seed: RandomLike = 0,
) -> Database:
    """A random multi-relation database over a shared attribute universe.

    Every relation picks a random subset of the universe (overlapping
    subsets, so the weak-instance machinery has real work to do).
    """
    rng = _rng(seed)
    universe = attribute_names(universe_size)
    relations = []
    for index in range(relation_count):
        count = min(attributes_per_relation, universe_size)
        attrs = rng.sample(universe, count)
        rows = set()
        for _ in range(tuples_per_relation):
            rows.add(Row({a: f"{a.lower()}{rng.randint(1, max(1, domain_size))}" for a in attrs}))
        relations.append(Relation(RelationScheme(f"R{index}", attrs), rows))
    return Database(relations)


def random_consistent_database(
    relation_count: int,
    universe_size: int,
    attributes_per_relation: int,
    tuples_per_relation: int,
    seed: RandomLike = 0,
) -> tuple[Database, Relation]:
    """A database generated by projecting a single hidden "universal" relation.

    Returns the database together with the hidden relation — which is, by
    construction, a weak instance for it.  Such databases are consistent with
    every FD the hidden relation satisfies, giving benchmarks a supply of
    known-consistent instances.
    """
    rng = _rng(seed)
    universe = attribute_names(universe_size)
    hidden_rows = set()
    for i in range(max(tuples_per_relation * 2, 4)):
        hidden_rows.add(Row({a: f"{a.lower()}{rng.randint(1, 3)}" for a in universe}))
    hidden = Relation(RelationScheme("hidden", universe), hidden_rows)
    relations = []
    for index in range(relation_count):
        count = min(attributes_per_relation, universe_size)
        attrs = AttributeSet(rng.sample(universe, count))
        projected = hidden.project(attrs, name=f"R{index}")
        sampled_rows = rng.sample(sorted(projected.rows, key=str), min(tuples_per_relation, len(projected)))
        relations.append(Relation(RelationScheme(f"R{index}", attrs), sampled_rows))
    return Database(relations), hidden


def chained_consistent_database(
    universe_size: int,
    relation_count: int,
    tuples_per_relation: int,
    domain_size: int = 16,
    seed: RandomLike = 0,
):
    """A deep-chase workload: windows of a hidden bijective attribute chain.

    A hidden chain of random bijections links consecutive attributes
    ``A1 ↔ A2 ↔ ... ↔ An`` (think correlated identifier columns: every value
    of one attribute corresponds 1-1 to a value of the next).  Each relation
    samples tuples from a contiguous 2-3 attribute window of the chain, so
    the representative instance is full of labelled nulls that the chase must
    promote by propagating equalities across overlapping windows — in *both*
    directions, for several hops.  The naive restart chase needs one full
    pass per hop; a delta-driven engine only touches what changed, which is
    what the EXP-WI engine-comparison benchmark measures.

    Returns ``(database, fds)`` where ``fds`` contains ``A_k → A_{k+1}`` and
    ``A_{k+1} → A_k`` for every link; the database is consistent with them by
    construction.
    """
    from repro.relational.functional_dependencies import FunctionalDependency

    rng = _rng(seed)
    if universe_size < 2:
        raise ValueError("a chained database needs at least two attributes")
    attributes = attribute_names(universe_size)
    bijections = []
    for _ in range(universe_size - 1):
        image = list(range(1, domain_size + 1))
        rng.shuffle(image)
        bijections.append({value + 1: image[value] for value in range(domain_size)})
    relations = []
    for index in range(relation_count):
        start = rng.randint(0, universe_size - 2)
        width = rng.randint(2, min(3, universe_size - start))
        window = attributes[start : start + width]
        rows = set()
        for _ in range(tuples_per_relation):
            current = rng.randint(1, domain_size)
            cells = {}
            for k in range(start, start + width):
                cells[attributes[k]] = f"{attributes[k].lower()}{current}"
                if k < universe_size - 1:
                    current = bijections[k][current]
            rows.add(Row(cells))
        relations.append(Relation(RelationScheme(f"R{index}", window), rows))
    fds = []
    for k in range(universe_size - 1):
        fds.append(FunctionalDependency([attributes[k]], [attributes[k + 1]]))
        fds.append(FunctionalDependency([attributes[k + 1]], [attributes[k]]))
    return Database(relations), fds
