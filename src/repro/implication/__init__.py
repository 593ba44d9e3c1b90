"""Implication engines: PD implication (ALG), PD identities, FD implication, word problems (§5)."""

from repro.implication.alg import (
    ImplicationEngine,
    alg_closure,
    alg_closure_naive,
    pd_equivalent,
    pd_implies,
    pd_implies_all,
    pd_leq,
)
from repro.implication.fd_implication import (
    ArmstrongDerivation,
    DerivationStep,
    closure_sequence,
    derive_fd,
    fd_closure,
    fd_implies,
    fd_implies_all_via_pds,
    fd_implies_via_pds,
    is_superkey,
)
from repro.implication.index import ImplicationIndex
from repro.implication.identities import (
    clear_identity_cache,
    identically_equal,
    identically_leq,
    identically_leq_cold,
    identically_leq_iterative,
    identity_cache_info,
    is_pd_identity,
)
from repro.implication.rewrite import (
    default_pool,
    find_rewrite_sequence,
    one_step_rewrites,
    rewrite_reachable,
)
from repro.implication.word_problems import (
    fd_implication_as_semigroup_problem,
    lattice_identity,
    lattice_word_problem,
    lattice_word_problems,
    semigroup_word_problem,
)

__all__ = [
    "ImplicationEngine",
    "ImplicationIndex",
    "alg_closure",
    "alg_closure_naive",
    "pd_leq",
    "pd_implies",
    "pd_implies_all",
    "pd_equivalent",
    "identically_leq",
    "identically_leq_cold",
    "identically_leq_iterative",
    "identically_equal",
    "identity_cache_info",
    "clear_identity_cache",
    "is_pd_identity",
    "one_step_rewrites",
    "rewrite_reachable",
    "find_rewrite_sequence",
    "default_pool",
    "fd_closure",
    "fd_implies",
    "fd_implies_via_pds",
    "fd_implies_all_via_pds",
    "derive_fd",
    "ArmstrongDerivation",
    "DerivationStep",
    "closure_sequence",
    "is_superkey",
    "lattice_word_problem",
    "lattice_word_problems",
    "lattice_identity",
    "semigroup_word_problem",
    "fd_implication_as_semigroup_problem",
]
