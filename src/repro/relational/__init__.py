"""Relational substrate: attributes, tuples, relations, databases, FDs, MVDs, chase.

This package implements §2.1 of the paper (the conventional relational
vocabulary) plus the classical machinery the paper builds on: relational
algebra, FD closure/implication, the chase with labelled nulls, and
Honeyman's weak-instance consistency test.
"""

from repro.relational.attributes import Attribute, AttributeSet, Symbol, as_attribute_set
from repro.relational.chase import (
    ChaseResult,
    Tableau,
    TableauValue,
    chase_database,
    chase_fds,
    representative_instance,
)
from repro.relational.chase_engine import (
    ChaseEngine,
    CodedFds,
    chase_database_indexed,
    chase_fds_indexed,
    chase_many,
)
from repro.relational.database import Database
from repro.relational.functional_dependencies import (
    FunctionalDependency,
    candidate_keys,
    closure,
    equivalent,
    implies,
    minimal_cover,
    parse_fd_set,
    project_fds,
)
from repro.relational.multivalued_dependencies import MultivaluedDependency, theorem5_mvd
from repro.relational.relations import Relation
from repro.relational.schema import DatabaseScheme, RelationScheme
from repro.relational.tuples import Row, row_from_string
from repro.relational.weak_instance import (
    WeakInstanceResult,
    is_consistent_with_fds,
    is_weak_instance,
    weak_instance_consistency,
    weak_instance_with_fixed_domains,
)

__all__ = [
    "Attribute",
    "AttributeSet",
    "Symbol",
    "as_attribute_set",
    "Row",
    "row_from_string",
    "RelationScheme",
    "DatabaseScheme",
    "Relation",
    "Database",
    "FunctionalDependency",
    "closure",
    "implies",
    "equivalent",
    "minimal_cover",
    "candidate_keys",
    "project_fds",
    "parse_fd_set",
    "MultivaluedDependency",
    "theorem5_mvd",
    "Tableau",
    "TableauValue",
    "ChaseResult",
    "chase_fds",
    "chase_database",
    "representative_instance",
    "ChaseEngine",
    "CodedFds",
    "chase_fds_indexed",
    "chase_database_indexed",
    "chase_many",
    "WeakInstanceResult",
    "is_weak_instance",
    "weak_instance_consistency",
    "is_consistent_with_fds",
    "weak_instance_with_fixed_domains",
]
