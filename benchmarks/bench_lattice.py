"""EXP-LAT: the bitset lattice kernel vs the preserved dict-table oracle.

The lattice layer is the last §2.2/§5.1 subsystem rebuilt on an integer
kernel (PR 4).  Series produced:

* **construction + validation scaling** — ``from_partial_order`` on the
  partition lattices Π_4/Π_5 and the Boolean lattice B_5: the kernel probes
  the order once into bitset rows and reads every GLB/LUB off one mask
  intersection, where the oracle runs the O(n³) bound scans and the O(n³)
  axiom sweep;
* **quotient collapse** — the Theorem 8 pool collapsed into ``=_E`` classes:
  one congruence-class-id group-by (`quotient_fragment`) vs the seed's
  pairwise ``engine.leq`` scan (`quotient_fragment_pairwise`), on one shared
  prepared engine so only the collapse strategies differ;
* **finite counterexample** — the full class-driven ``L_H`` pipeline vs the
  seed's linear-scan canonicalization;
* **identity memoization** — a stream of ``≤_id`` queries over overlapping
  subterms answered by the global weak-table memo (cleared per round, so
  each round is a cold-start service) vs per-call caches.

Every benchmark round asserts the fast path's answers against the oracle's,
so the implementations cannot silently diverge.
"""

import random

import pytest

from repro.implication.alg import ImplicationEngine
from repro.implication.identities import (
    clear_identity_cache,
    identically_leq,
    identically_leq_cold,
)
from repro.lattice.core import FiniteLattice
from repro.lattice.free_lattice import bounded_expressions
from repro.lattice.oracle import (
    OracleFiniteLattice,
    finite_counterexample_oracle,
    quotient_fragment_pairwise,
)
from repro.lattice.partition_lattice import set_partitions
from repro.lattice.quotient import finite_counterexample, quotient_fragment
from repro.workloads.random_dependencies import random_pd_set


def _order_workload(family: str):
    """(elements, leq) for one construction workload."""
    if family == "bell4":
        elements = list(set_partitions(range(4)))
        return elements, lambda x, y: x.refines(y)
    if family == "bell5":
        elements = list(set_partitions(range(5)))
        return elements, lambda x, y: x.refines(y)
    if family == "boolean5":
        names = list("ABCDE")
        elements = [
            frozenset(name for bit, name in enumerate(names) if (mask >> bit) & 1)
            for mask in range(1 << len(names))
        ]
        return elements, lambda x, y: x <= y
    raise ValueError(family)


@pytest.mark.benchmark(group="EXP-LAT construction: kernel vs dict-table oracle")
@pytest.mark.parametrize("family", ["bell4", "bell5", "boolean5"])
@pytest.mark.parametrize("variant", ["kernel", "oracle"])
def test_construction_scaling(benchmark, family, variant):
    elements, leq = _order_workload(family)
    if variant == "kernel":
        result = benchmark(FiniteLattice.from_partial_order, elements, leq)
    else:
        result = benchmark(OracleFiniteLattice.from_partial_order, elements, leq)
    reference = OracleFiniteLattice.from_partial_order(elements, leq)
    assert result.elements == reference.elements
    assert set(result.covers()) == set(reference.covers())


def _quotient_workload(attributes: str, complexity: int, seed: int):
    """A PD set, a bounded expression pool, and one prepared shared engine."""
    pds = tuple(random_pd_set(len(attributes), 2, seed=seed, max_complexity=1))
    pool = bounded_expressions(list(attributes), complexity)
    engine = ImplicationEngine(pds, query_expressions=pool)
    return pds, pool, engine


@pytest.mark.benchmark(group="EXP-LAT quotient collapse: class ids vs pairwise leq")
@pytest.mark.parametrize(
    "attributes,complexity", [("ABC", 1), ("ABC", 2), ("ABCD", 2)], ids=["ABC-1", "ABC-2", "ABCD-2"]
)
@pytest.mark.parametrize("variant", ["classes", "pairwise"])
def test_quotient_collapse_scaling(benchmark, attributes, complexity, variant, rng_seed):
    pds, pool, engine = _quotient_workload(attributes, complexity, rng_seed)
    if variant == "classes":
        result = benchmark(quotient_fragment, pds, pool, engine)
    else:
        result = benchmark(quotient_fragment_pairwise, pds, pool, engine)
    reference = quotient_fragment_pairwise(pds, pool, engine)
    assert result.representatives == reference.representatives
    assert result.order == reference.order


@pytest.mark.benchmark(group="EXP-LAT finite counterexample: worklist vs linear canonicalization")
@pytest.mark.parametrize("variant", ["classes", "oracle"])
def test_finite_counterexample_pipeline(benchmark, variant):
    pds = ["A = A*B"]
    query = "B*(A+C) = B*C"
    if variant == "classes":
        lattice = benchmark(finite_counterexample, pds, query)
    else:
        lattice = benchmark(finite_counterexample_oracle, pds, query)
    assert lattice is not None
    assert lattice.satisfies_all(pds)
    assert not lattice.satisfies(query)


def _identity_queries(count: int, seed: int):
    rng = random.Random(seed)
    pool = bounded_expressions(["A", "B", "C"], 2)
    return [(rng.choice(pool), rng.choice(pool)) for _ in range(count)]


@pytest.mark.benchmark(group="EXP-LAT identity stream: global memo vs per-call caches")
@pytest.mark.parametrize("variant", ["memoized", "cold"])
def test_identity_stream(benchmark, variant, rng_seed):
    queries = _identity_queries(400, rng_seed)
    expected = [identically_leq_cold(left, right) for left, right in queries]

    def memoized():
        clear_identity_cache()
        return [identically_leq(left, right) for left, right in queries]

    def cold():
        return [identically_leq_cold(left, right) for left, right in queries]

    result = benchmark(memoized if variant == "memoized" else cold)
    assert result == expected
