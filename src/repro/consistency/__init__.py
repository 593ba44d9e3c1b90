"""Consistency tests: weak-instance (Theorem 6/7), polynomial PD test (Theorem 12), CAD (Theorem 11)."""

from repro.consistency.cad import (
    CadConsistencyResult,
    cad_consistency,
    cad_consistency_for_fpds,
    verify_cad_witness,
)
from repro.consistency.normalization import (
    NormalizedDependencies,
    SumConstraint,
    normalize_dependencies,
    validate_only_fpds,
)
from repro.consistency.pd_consistency import (
    PdConsistencyResult,
    consistency_with_explicit_weak_instance,
    is_pd_consistent,
    pd_chase_engine,
    pd_consistency,
    pd_consistency_many,
    repair_sum_constraints_once,
    sum_constraint_violations,
)
from repro.consistency.reduction import (
    ReductionInstance,
    decode_assignment,
    ensure_missing_variable_clause,
    reduce_nae3sat_to_cad_consistency,
    solve_nae3sat_via_reduction,
)
from repro.consistency.weak_instance_fd import (
    FpdConsistencyResult,
    fd_consistency,
    fpd_consistency,
    is_fpd_consistent,
)

__all__ = [
    "NormalizedDependencies",
    "SumConstraint",
    "normalize_dependencies",
    "validate_only_fpds",
    "PdConsistencyResult",
    "pd_consistency",
    "pd_consistency_many",
    "pd_chase_engine",
    "is_pd_consistent",
    "sum_constraint_violations",
    "repair_sum_constraints_once",
    "consistency_with_explicit_weak_instance",
    "FpdConsistencyResult",
    "fpd_consistency",
    "fd_consistency",
    "is_fpd_consistent",
    "CadConsistencyResult",
    "cad_consistency",
    "cad_consistency_for_fpds",
    "verify_cad_witness",
    "ReductionInstance",
    "reduce_nae3sat_to_cad_consistency",
    "ensure_missing_variable_clause",
    "decode_assignment",
    "solve_nae3sat_via_reduction",
]
