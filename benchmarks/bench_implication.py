"""EXP-T9 / EXP-ALG: ALG decides PD implication in polynomial time (Theorem 9).

Series produced:

* scaling of the worklist ALG with the total input size (number of PDs ×
  expression complexity) — the paper's claim is a polynomial (≈ n⁴ for the
  naive formulation) bound, so the measured times should grow smoothly, not
  explode;
* an ablation comparing the worklist implementation against the literal
  "repeat until no change" fixpoint from the paper on a fixed mid-size input;
* **EXP-ALG**: growing query streams against one fixed PD set, comparing
  one-closure-per-query (naive fixpoint and worklist) against the persistent
  incremental :class:`~repro.implication.alg.ImplicationEngine`, which
  resumes propagation delta-wise — the implication-service claim of the
  README is that the incremental engine beats from-scratch recomputation by
  ≥3× on streams of ≥50 queries.  The ``overlay`` variant answers each round
  on one warm engine, each query in an index overlay (the service's
  implication lane), and checks that the rounds leave the index exactly as
  they found it.

Workload: random PD sets plus mixed implied/independent query streams from
:mod:`repro.workloads.random_implication`, generated with a fixed seed.
Every benchmark round asserts the decisions themselves so the
implementations cannot silently diverge.
"""

import pytest

from repro.implication.alg import ImplicationEngine, alg_closure, alg_closure_naive, pd_implies
from repro.implication.word_problems import lattice_word_problems
from repro.workloads.random_dependencies import random_pd_set
from repro.workloads.random_expressions import random_expression
from repro.workloads.random_implication import random_implication_workload

from tests.conftest import index_state

ATTRIBUTES = ["A", "B", "C", "D"]


def _workload(pd_count: int, complexity: int, seed: int):
    dependencies = random_pd_set(len(ATTRIBUTES), pd_count, seed=seed, max_complexity=complexity)
    query_left = random_expression(ATTRIBUTES, seed + 1, complexity)
    query_right = random_expression(ATTRIBUTES, seed + 2, complexity)
    return dependencies, query_left, query_right


@pytest.mark.benchmark(group="EXP-T9 ALG scaling (worklist)")
@pytest.mark.parametrize("pd_count,complexity", [(2, 2), (4, 3), (8, 4), (16, 5), (32, 6)])
def test_alg_scaling(benchmark, pd_count, complexity, rng_seed):
    dependencies, left, right = _workload(pd_count, complexity, rng_seed)

    def run():
        engine = ImplicationEngine(dependencies, query_expressions=[left, right])
        return engine.leq(left, right), engine.leq(right, left)

    result = benchmark(run)
    assert isinstance(result[0], bool) and isinstance(result[1], bool)


@pytest.mark.benchmark(group="EXP-T9 ablation: worklist vs naive fixpoint")
@pytest.mark.parametrize("variant", ["worklist", "naive"])
def test_alg_worklist_vs_naive(benchmark, variant, rng_seed):
    dependencies, left, right = _workload(6, 3, rng_seed)
    closure_fn = alg_closure if variant == "worklist" else alg_closure_naive

    def run():
        return closure_fn(dependencies, [left, right])

    relation = benchmark(run)
    # Both variants must produce the identical arc set (Lemma 9.2).
    reference = alg_closure(dependencies, [left, right])
    assert relation.as_expression_pairs() == reference.as_expression_pairs()


# -- EXP-ALG: the incremental implication service on query streams ---------------


def _stream_workload(query_count: int, seed: int):
    return random_implication_workload(
        6, 12, query_count, seed=seed, max_complexity=4, implied_fraction=0.5
    )


def _decide_scratch(theory, queries, closure_fn):
    """One full closure per query — the pre-service behaviour."""
    verdicts = []
    for query in queries:
        relation = closure_fn(theory, [query.left, query.right])
        i = relation.index[query.left]
        j = relation.index[query.right]
        verdicts.append(relation.has(i, j) and relation.has(j, i))
    return verdicts


def _decide_incremental(theory, queries):
    """One persistent engine; each query extends the closure delta-wise."""
    engine = ImplicationEngine(theory)
    return [engine.implies(query) for query in queries]


@pytest.mark.benchmark(group="EXP-ALG query stream: incremental vs from-scratch")
@pytest.mark.parametrize("query_count", [10, 25, 50])
@pytest.mark.parametrize("variant", ["incremental", "overlay", "scratch-worklist"])
def test_alg_query_stream(benchmark, variant, query_count, rng_seed):
    theory, queries = _stream_workload(query_count, rng_seed)
    if variant == "incremental":
        run = lambda: _decide_incremental(theory, queries)  # noqa: E731
    elif variant == "overlay":
        warm = ImplicationEngine(theory)
        state = index_state(warm.index)
        run = lambda: lattice_word_problems(theory, queries, engine=warm)  # noqa: E731
    else:
        run = lambda: _decide_scratch(theory, queries, alg_closure)  # noqa: E731

    verdicts = benchmark(run)
    assert verdicts == _decide_scratch(theory, queries, alg_closure)
    if variant == "overlay":
        assert index_state(warm.index) == state  # the rounds left no trace


@pytest.mark.benchmark(group="EXP-ALG query stream: naive fixpoint baseline")
def test_alg_query_stream_naive(benchmark, rng_seed):
    # The literal repeat-until-stable fixpoint, once per query; kept to a
    # short stream because it is the slowest of the three by far.
    theory, queries = _stream_workload(10, rng_seed)
    verdicts = benchmark(_decide_scratch, theory, queries, alg_closure_naive)
    assert verdicts == _decide_scratch(theory, queries, alg_closure)
    assert verdicts == _decide_incremental(theory, queries)


@pytest.mark.benchmark(group="EXP-ALG incremental dependency growth")
@pytest.mark.parametrize("pd_count", [4, 8, 16])
def test_alg_incremental_dependency_growth(benchmark, pd_count, rng_seed):
    # Interleave add_dependencies with queries: the service keeps its closure
    # alive while the theory itself grows (the Theorem 12 pipeline shape).
    theory, queries = random_implication_workload(
        6, pd_count, pd_count, seed=rng_seed + pd_count, max_complexity=4
    )

    def run():
        engine = ImplicationEngine()
        verdicts = []
        for pd, query in zip(theory, queries):
            engine.add_dependencies([pd])
            verdicts.append(engine.implies(query))
        return verdicts

    verdicts = benchmark(run)
    assert len(verdicts) == pd_count


@pytest.mark.benchmark(group="EXP-T9 FD-chain transitivity")
@pytest.mark.parametrize("chain_length", [4, 8, 16, 32])
def test_alg_on_fd_chains(benchmark, chain_length):
    # A1 <= A2 <= ... <= An: the query A1 <= An exercises long transitivity chains.
    attributes = [f"A{i}" for i in range(1, chain_length + 1)]
    dependencies = [
        f"{attributes[i]} = {attributes[i]}*{attributes[i + 1]}" for i in range(chain_length - 1)
    ]
    query = f"{attributes[0]} = {attributes[0]}*{attributes[-1]}"

    result = benchmark(pd_implies, dependencies, query)
    assert result is True
