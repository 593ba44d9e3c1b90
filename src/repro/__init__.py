"""repro — Partition Semantics for Relations.

A library-scale reproduction of

    S. S. Cosmadakis, P. C. Kanellakis, N. Spyratos,
    "Partition Semantics for Relations", PODS 1985
    (JCSS 33:203–233, 1986).

The package assigns set-theoretic partition semantics to relation schemes,
relations and dependencies, implements **partition dependencies (PDs)** — the
lattice-equation generalization of functional dependencies — and provides:

* the polynomial-time PD implication engine **ALG** (the uniform word
  problem for lattices, Theorem 9);
* the free-lattice identity checker ``≤_id`` (Theorem 10);
* the weak-instance connection (Theorems 6–7) and the polynomial consistency
  test for databases with PDs (Theorem 12);
* the NP-complete CAD+EAP consistency variant with its NOT-ALL-EQUAL-3SAT
  reduction (Theorem 11, Figure 3);
* the expressiveness artifacts: graph connectivity via ``C = A + B``
  (Example e / Theorem 4) and the MVD inexpressibility construction
  (Theorem 5 / Figure 2);
* full relational, partition, lattice and SAT substrates, workload
  generators, the paper's figures as executable constructions, examples and
  a benchmark harness.

Quickstart::

    from repro import Relation, PartitionDependency, pd_implies, relation_satisfies_pd

    r = Relation.from_strings("r", "ABC", ["a.b.c", "a.b.c2"])
    relation_satisfies_pd(r, "A = A*B")        # FD-style constraint
    pd_implies(["A = A*B", "B = B*C"], "A = A*C")   # implication via ALG

See ``examples/`` for complete programs and ``README.md`` for the
reproduction map.
"""

from repro.consistency import (
    cad_consistency,
    cad_consistency_for_fpds,
    fpd_consistency,
    is_fpd_consistent,
    is_pd_consistent,
    normalize_dependencies,
    pd_chase_engine,
    pd_consistency,
    pd_consistency_many,
    reduce_nae3sat_to_cad_consistency,
    solve_nae3sat_via_reduction,
)
from repro.dependencies import (
    FunctionalPartitionDependency,
    PartitionDependency,
    as_partition_dependency,
    fd_to_pd,
    fds_to_pds,
    fpds_to_fds,
    relation_satisfies_all_pds,
    relation_satisfies_pd,
)
from repro.errors import (
    ConsistencyError,
    DependencyError,
    ExpressionError,
    LatticeError,
    PartitionError,
    ReproError,
    SchemaError,
)
from repro.expressions import (
    Attr,
    PartitionExpression,
    Product,
    Sum,
    attr,
    attrs,
    parse_expression,
    to_infix,
)
from repro.figures import figure1, figure2, figure3
from repro.graphs import (
    connectivity_pd,
    graph_to_relation,
    satisfies_connectivity_pd,
    theorem4_path_relation,
)
from repro.implication import (
    ImplicationEngine,
    ImplicationIndex,
    fd_implies,
    fd_implies_all_via_pds,
    fd_implies_via_pds,
    identically_equal,
    identically_leq,
    is_pd_identity,
    lattice_identity,
    lattice_word_problem,
    lattice_word_problems,
    pd_implies,
    pd_leq,
    semigroup_word_problem,
)
from repro.lattice import FiniteLattice, InterpretationLattice, finite_counterexample, partition_lattice
from repro.partitions import (
    Partition,
    PartitionInterpretation,
    canonical_interpretation,
    canonical_relation,
    satisfies_cad,
    satisfies_eap,
)
from repro.relational import (
    ChaseEngine,
    Database,
    FunctionalDependency,
    MultivaluedDependency,
    Relation,
    RelationScheme,
    Row,
    chase_many,
    weak_instance_consistency,
)
from repro.sat import CnfFormula, nae_backtracking, nae_brute_force
from repro.service import (
    QueryRequest,
    QueryResult,
    Session,
    ShardExecutor,
    execute_plan,
    naive_dispatch,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # errors
    "ReproError",
    "SchemaError",
    "DependencyError",
    "PartitionError",
    "ExpressionError",
    "LatticeError",
    "ConsistencyError",
    # relational substrate
    "Row",
    "RelationScheme",
    "Relation",
    "Database",
    "FunctionalDependency",
    "MultivaluedDependency",
    "weak_instance_consistency",
    "ChaseEngine",
    "chase_many",
    # partitions
    "Partition",
    "PartitionInterpretation",
    "canonical_interpretation",
    "canonical_relation",
    "satisfies_cad",
    "satisfies_eap",
    # expressions
    "PartitionExpression",
    "Attr",
    "Product",
    "Sum",
    "attr",
    "attrs",
    "parse_expression",
    "to_infix",
    # dependencies
    "PartitionDependency",
    "FunctionalPartitionDependency",
    "as_partition_dependency",
    "fd_to_pd",
    "fds_to_pds",
    "fpds_to_fds",
    "relation_satisfies_pd",
    "relation_satisfies_all_pds",
    # implication
    "ImplicationEngine",
    "ImplicationIndex",
    "pd_implies",
    "pd_leq",
    "identically_leq",
    "identically_equal",
    "is_pd_identity",
    "fd_implies",
    "fd_implies_via_pds",
    "fd_implies_all_via_pds",
    "lattice_word_problem",
    "lattice_word_problems",
    "lattice_identity",
    "semigroup_word_problem",
    # lattices
    "FiniteLattice",
    "InterpretationLattice",
    "partition_lattice",
    "finite_counterexample",
    # consistency
    "pd_consistency",
    "pd_consistency_many",
    "pd_chase_engine",
    "is_pd_consistent",
    "fpd_consistency",
    "is_fpd_consistent",
    "normalize_dependencies",
    "cad_consistency",
    "cad_consistency_for_fpds",
    "reduce_nae3sat_to_cad_consistency",
    "solve_nae3sat_via_reduction",
    # graphs
    "graph_to_relation",
    "connectivity_pd",
    "satisfies_connectivity_pd",
    "theorem4_path_relation",
    # SAT
    "CnfFormula",
    "nae_brute_force",
    "nae_backtracking",
    # figures
    "figure1",
    "figure2",
    "figure3",
    # query service
    "QueryRequest",
    "QueryResult",
    "Session",
    "ShardExecutor",
    "execute_plan",
    "naive_dispatch",
]
