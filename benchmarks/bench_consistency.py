"""EXP-T12: the polynomial-time consistency test for a database and a set of PDs.

The series sweeps the database size (relations × tuples) with a fixed mixed
PD set (FPDs plus one sum PD) and measures the full Theorem 12 pipeline:
normalization (name the composite classes and close with one ALG read,
prune) plus the Honeyman chase.
The expected shape is smooth polynomial growth — in contrast to the
exponential EXP-T11 series on comparable input sizes.

A second series isolates the two pipeline stages (normalization vs chase) as
an ablation of where the time goes.
"""

import pytest

from repro.consistency.normalization import normalize_dependencies
from repro.consistency.pd_consistency import pd_consistency, pd_consistency_many
from repro.relational.chase import chase_database
from repro.relational.chase_engine import ChaseEngine
from repro.relational.weak_instance import weak_instance_consistency
from repro.workloads.random_relations import random_consistent_database

CONSTRAINTS = ["A = A*B", "B = B*C", "D = A + B", "C = C*E"]


def _database(scale: int, seed: int):
    database, _hidden = random_consistent_database(
        relation_count=2 + scale,
        universe_size=5,
        attributes_per_relation=3,
        tuples_per_relation=2 * scale,
        seed=seed,
    )
    return database


@pytest.mark.benchmark(group="EXP-T12 PD consistency (polynomial pipeline)")
@pytest.mark.parametrize("scale", [1, 2, 4, 8])
def test_pd_consistency_scaling(benchmark, scale, rng_seed):
    database = _database(scale, rng_seed + scale)

    def run():
        return pd_consistency(database, CONSTRAINTS)

    result = benchmark(run)
    assert result.consistent in (True, False)
    # The verdict must agree with running the chase on the normalized FD set directly.
    normalized = normalize_dependencies(CONSTRAINTS)
    assert result.consistent == weak_instance_consistency(database, normalized.fds).consistent


@pytest.mark.benchmark(group="EXP-T12 ablation: normalization vs chase")
@pytest.mark.parametrize("stage", ["normalize", "chase", "full"])
def test_pipeline_stage_costs(benchmark, stage, rng_seed):
    database = _database(4, rng_seed)
    normalized = normalize_dependencies(CONSTRAINTS)

    if stage == "normalize":
        benchmark(normalize_dependencies, CONSTRAINTS)
    elif stage == "chase":
        result = benchmark(weak_instance_consistency, database, normalized.fds)
        assert result.consistent in (True, False)
    else:
        result = benchmark(pd_consistency, database, CONSTRAINTS)
        assert result.consistent in (True, False)


@pytest.mark.benchmark(group="EXP-T12 chase stage: naive restart vs indexed engine")
@pytest.mark.parametrize("impl", ["naive", "indexed"])
def test_chase_stage_engine_comparison(benchmark, impl, rng_seed):
    """The Honeyman chase over the (large) normalized FD set, both strategies.

    The normalized set for the mixed PD constraints has dozens of FDs over
    the extended universe; the naive chase rescans every row for every FD on
    every pass, the engine only touches merge deltas.
    """
    database = _database(8, rng_seed + 8)
    normalized = normalize_dependencies(CONSTRAINTS)
    engine = ChaseEngine(normalized.fds)

    def run_naive():
        return chase_database(database, normalized.fds)

    def run_indexed():
        return engine.chase_database(database)

    result = benchmark(run_naive if impl == "naive" else run_indexed)
    assert result.consistent in (True, False)


@pytest.mark.benchmark(group="EXP-T12 batched consistency (normalize once vs per call)")
@pytest.mark.parametrize("mode", ["per_call", "batched"])
def test_batched_consistency(benchmark, mode, rng_seed):
    """Amortizing step 1 (normalization + engine build) across many databases."""
    databases = [_database(2, rng_seed + 400 + i) for i in range(6)]

    def per_call():
        return [pd_consistency(database, CONSTRAINTS) for database in databases]

    def batched():
        return pd_consistency_many(databases, CONSTRAINTS)

    results = benchmark(per_call if mode == "per_call" else batched)
    assert len(results) == len(databases)
    verdicts = [r.consistent for r in results]
    assert all(v in (True, False) for v in verdicts)
