"""Randomized equivalence suite: bitset lattice kernel vs the preserved oracles.

The PR 1–3 pattern: the production path (integer/bitset ``FiniteLattice``,
class-driven quotient pipeline, globally memoized ``≤_id``) must agree with
the preserved seed implementations (:mod:`repro.lattice.oracle`,
``identically_leq_cold``/``identically_leq_iterative``) on randomized
workloads — identical lattices, identical ``L_H`` up to isomorphism,
identical ``≤_id`` verdicts.
"""

import random

import pytest

from repro.errors import LatticeError
from repro.implication.alg import ImplicationEngine
from repro.implication.identities import (
    clear_identity_cache,
    identically_leq,
    identically_leq_cold,
    identically_leq_iterative,
    identity_cache_info,
)
from repro.lattice.core import FiniteLattice
from repro.lattice.free_lattice import bounded_expressions
from repro.lattice.oracle import (
    OracleFiniteLattice,
    finite_counterexample_oracle,
    oracle_is_distributive,
    oracle_is_modular,
    quotient_fragment_pairwise,
)
from repro.lattice.partition_lattice import set_partitions
from repro.lattice.properties import are_isomorphic, is_distributive, is_modular
from repro.lattice.quotient import finite_counterexample, quotient_fragment
from repro.workloads.random_dependencies import random_pd_set
from repro.workloads.random_expressions import random_expression

from tests.conftest import index_state

SEEDS = range(8)


def random_partition_sublattice_elements(seed: int, n: int = 4) -> list:
    """Elements of a random sublattice of Π_n (closure computed by the oracle)."""
    rng = random.Random(seed)
    pool = list(set_partitions(range(n)))
    oracle_full = OracleFiniteLattice(
        pool, lambda x, y: x.product(y), lambda x, y: x.sum(y), validate=False
    )
    generators = rng.sample(pool, rng.randint(2, 5))
    return oracle_full.sublattice(generators).elements


def build_pair(elements, meet, join, constants=None, validate=True):
    """The same lattice on the kernel and on the dict-table oracle."""
    kernel = FiniteLattice(elements, meet, join, constants, validate=validate)
    oracle = OracleFiniteLattice(elements, meet, join, constants, validate=validate)
    return kernel, oracle


def assert_equivalent(kernel: FiniteLattice, oracle: OracleFiniteLattice) -> None:
    """Every public observation of the two lattices must coincide."""
    assert kernel.elements == oracle.elements
    assert kernel.constants == oracle.constants
    for x in kernel.elements:
        for y in kernel.elements:
            assert kernel.meet(x, y) == oracle.meet(x, y)
            assert kernel.join(x, y) == oracle.join(x, y)
            assert kernel.leq(x, y) == oracle.leq(x, y)
    assert kernel.top() == oracle.top()
    assert kernel.bottom() == oracle.bottom()
    assert kernel.covers() == oracle.covers()
    assert (kernel.axiom_violations() == []) == (oracle.axiom_violations() == [])


class TestKernelMatchesOracle:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_partition_sublattices(self, seed):
        elements = random_partition_sublattice_elements(seed)
        kernel, oracle = build_pair(
            elements, lambda x, y: x.product(y), lambda x, y: x.sum(y)
        )
        assert_equivalent(kernel, oracle)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_sublattice_closure_agrees(self, seed):
        rng = random.Random(seed + 1000)
        elements = random_partition_sublattice_elements(seed)
        kernel, oracle = build_pair(
            elements, lambda x, y: x.product(y), lambda x, y: x.sum(y)
        )
        generators = rng.sample(elements, rng.randint(1, min(3, len(elements))))
        kernel_sub = kernel.sublattice(generators)
        oracle_sub = oracle.sublattice(generators)
        assert kernel_sub.elements == oracle_sub.elements
        assert_equivalent(kernel_sub, OracleFiniteLattice(
            oracle_sub.elements, oracle.meet, oracle.join, validate=False
        ))

    def test_boolean_and_chain_families(self):
        assert_equivalent(FiniteLattice.boolean("ABC"), OracleFiniteLattice.boolean("ABC"))
        assert_equivalent(FiniteLattice.chain(7), OracleFiniteLattice.chain(7))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_from_partial_order_agrees(self, seed):
        elements = random_partition_sublattice_elements(seed)
        kernel = FiniteLattice.from_partial_order(elements, lambda x, y: x.refines(y))
        oracle = OracleFiniteLattice.from_partial_order(elements, lambda x, y: x.refines(y))
        assert_equivalent(kernel, oracle)

    def test_from_partial_order_rejects_non_lattice_orders(self):
        # Two incomparable elements with no common bound.
        for cls in (FiniteLattice, OracleFiniteLattice):
            with pytest.raises(LatticeError):
                cls.from_partial_order(["a", "b"], lambda x, y: x == y)
        # A preorder that is not antisymmetric.
        for cls in (FiniteLattice, OracleFiniteLattice):
            with pytest.raises(LatticeError):
                cls.from_partial_order(["a", "b"], lambda x, y: True)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_from_partial_order_agrees_on_every_reflexive_relation(self, n):
        # The kernel's only check is the one inside construction; the oracle
        # re-runs its O(n³) axiom sweep.  They must accept the same relations.
        items = list(range(n))
        pairs = [(x, y) for x in items for y in items if x != y]
        built = 0
        for mask in range(1 << len(pairs)):
            related = {pair for bit, pair in enumerate(pairs) if mask >> bit & 1}

            def leq(x, y, related=related):
                return x == y or (x, y) in related

            results = []
            for cls in (FiniteLattice, OracleFiniteLattice):
                try:
                    results.append(cls.from_partial_order(items, leq))
                except LatticeError:
                    results.append(None)
            kernel, oracle = results
            assert (kernel is None) == (oracle is None), sorted(related)
            if kernel is not None:
                built += 1
                assert are_isomorphic(kernel, oracle)
                assert kernel.axiom_violations() == []
        assert (built > 0) == (n > 0)  # no lattice is empty

    @pytest.mark.parametrize("seed", SEEDS)
    def test_corrupted_tables_detected_identically(self, seed):
        rng = random.Random(seed + 2000)
        elements = random_partition_sublattice_elements(seed)
        if len(elements) < 3:
            pytest.skip("too small to corrupt interestingly")
        kernel = FiniteLattice(
            elements, lambda x, y: x.product(y), lambda x, y: x.sum(y), validate=False
        )
        meet_table = {
            (x, y): kernel.meet(x, y) for x in elements for y in elements
        }
        join_table = {
            (x, y): kernel.join(x, y) for x in elements for y in elements
        }
        # Corrupt one symmetric meet pair to a different element.
        x, y = rng.sample(elements, 2)
        wrong = rng.choice([e for e in elements if e != meet_table[(x, y)]])
        meet_table[(x, y)] = meet_table[(y, x)] = wrong
        corrupted_kernel = FiniteLattice.from_tables(
            elements, meet_table, join_table, validate=False
        )
        corrupted_oracle = OracleFiniteLattice.from_tables(
            elements, meet_table, join_table, validate=False
        )
        assert bool(corrupted_kernel.axiom_violations()) == bool(
            corrupted_oracle.axiom_violations()
        )
        assert corrupted_kernel.axiom_violations()  # the corruption is real

    @pytest.mark.parametrize("seed", SEEDS)
    def test_evaluate_and_satisfies_agree(self, seed):
        rng = random.Random(seed + 3000)
        kernel, oracle = (FiniteLattice.boolean("ABCD"), OracleFiniteLattice.boolean("ABCD"))
        for _ in range(25):
            expression = random_expression(list("ABCD"), rng, max_complexity=4)
            assert kernel.evaluate(expression) == oracle.evaluate(expression)
        for pd in random_pd_set(4, 10, seed=seed, max_complexity=3):
            assert kernel.satisfies(pd) == oracle.satisfies(pd)
        with pytest.raises(LatticeError):
            kernel.evaluate("Z")
        with pytest.raises(LatticeError):
            oracle.evaluate("Z")

    @pytest.mark.parametrize("seed", SEEDS)
    def test_property_checks_agree(self, seed):
        elements = random_partition_sublattice_elements(seed)
        kernel, oracle = build_pair(
            elements, lambda x, y: x.product(y), lambda x, y: x.sum(y), validate=False
        )
        assert is_modular(kernel) == oracle_is_modular(oracle)
        assert is_distributive(kernel) == oracle_is_distributive(oracle)


class TestQuotientPipelineMatchesOracle:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_quotient_fragment_matches_pairwise(self, seed):
        rng = random.Random(seed + 4000)
        pds = random_pd_set(3, rng.randint(0, 3), seed=seed, max_complexity=2)
        pool = bounded_expressions(["A", "B", "C"], 2)
        pool = rng.sample(pool, rng.randint(10, min(80, len(pool))))
        fast = quotient_fragment(pds, pool)
        slow = quotient_fragment_pairwise(pds, pool)
        assert fast.representatives == slow.representatives
        assert fast.order == slow.order

    @pytest.mark.parametrize("seed", SEEDS)
    def test_index_of_matches_pairwise_scan(self, seed):
        rng = random.Random(seed + 5000)
        pds = random_pd_set(3, rng.randint(0, 2), seed=seed, max_complexity=1)
        pool = bounded_expressions(["A", "B", "C"], 1)
        fragment = quotient_fragment(pds, pool)
        probe_engine = ImplicationEngine(pds, query_expressions=fragment.representatives)
        for _ in range(20):
            expression = random_expression(list("ABC"), rng, max_complexity=2)
            pairwise = [
                i
                for i, representative in enumerate(fragment.representatives)
                if probe_engine.leq(representative, expression) and probe_engine.leq(expression, representative)
            ]
            assert fragment.index_of(expression) == (pairwise[0] if pairwise else -1)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_finite_counterexample_matches_oracle(self, seed):
        rng = random.Random(seed + 6000)
        pds = random_pd_set(3, rng.randint(0, 2), seed=seed, max_complexity=1)
        # One seed exercises a complexity-2 pool (237 expressions — the
        # oracle's quadratic path makes larger cross-checks too slow here;
        # EXP-LAT benchmarks the gap instead).
        query = random_pd_set(3, 1, seed=seed + 77, max_complexity=2 if seed == 0 else 1)[0]
        kernel_lattice = finite_counterexample(pds, query)
        oracle_lattice = finite_counterexample_oracle(pds, query)
        # The session's path: a shared engine that has answered another
        # query, read inside an overlay on its index.
        engine = ImplicationEngine(pds)
        engine.implies(random_pd_set(3, 1, seed=seed + 99, max_complexity=2)[0])
        before = index_state(engine.index)
        with engine.index.overlay():
            shared_lattice = finite_counterexample(pds, query, engine=engine)
        assert index_state(engine.index) == before
        assert (kernel_lattice is None) == (oracle_lattice is None) == (shared_lattice is None)
        if kernel_lattice is None:
            return
        assert shared_lattice.elements == kernel_lattice.elements
        assert shared_lattice.constants == kernel_lattice.constants
        assert are_isomorphic(shared_lattice, oracle_lattice)
        assert len(kernel_lattice) == len(oracle_lattice)
        assert kernel_lattice.satisfies_all(pds)
        assert not kernel_lattice.satisfies(query)
        assert oracle_lattice.satisfies_all(pds)
        assert not oracle_lattice.satisfies(query)
        assert are_isomorphic(kernel_lattice, oracle_lattice)


class TestIdentityMemoMatchesOracles:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_leq_verdicts_agree(self, seed):
        rng = random.Random(seed + 7000)
        for _ in range(30):
            left = random_expression(list("ABC"), rng, max_complexity=3)
            right = random_expression(list("ABC"), rng, max_complexity=3)
            verdict = identically_leq(left, right)
            assert verdict == identically_leq_cold(left, right)
            assert verdict == identically_leq_iterative(left, right)

    def test_cache_grows_and_clears(self):
        clear_identity_cache()
        base = identity_cache_info()
        assert base["pairs"] == 0
        left = random_expression(list("AB"), random.Random(1), max_complexity=3)
        right = random_expression(list("AB"), random.Random(2), max_complexity=3)
        identically_leq(left, right)
        warm = identity_cache_info()
        assert warm["pairs"] > 0 and warm["misses"] > 0
        # A repeated query is answered from the shared table.
        identically_leq(left, right)
        assert identity_cache_info()["hits"] > warm["hits"]
        clear_identity_cache()
        assert identity_cache_info() == {"pairs": 0, "hits": 0, "misses": 0}
