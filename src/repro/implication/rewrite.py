"""The rewrite system RR of Lemma 9.1 (§5.2).

The soundness/completeness proof of ALG goes through a rewrite system RR on
partition expressions.  Reading each rule left-to-right as "the left-hand
side rewrites to the right-hand side", the rules are (x, y arbitrary
expressions; the last family comes from the equations of E):

    1.  x + x   →  x
    2.  x · y   →  x
    3.  y · x   →  x
    4.  x       →  x · x
    5.  x       →  x + y
    6.  x       →  y + x
    7.  z       →  v        whenever z = v or v = z is in E

and rewriting may happen at any subexpression position.  Lemma 9.1 states
that ``p ≤_E q`` implies ``p →→_RR q`` (and every RR step is a sound ``≤_E``
inference, so the converse holds too).

Rules 4–6 introduce a fresh, arbitrary expression ``y``, so the one-step
rewrite relation is infinitely branching.  For executable purposes we bound
the search: the fresh operands are drawn from a caller-supplied *pool* of
expressions (by default the subexpressions of the source, the target and the
equations of E — which is exactly what the shortest proofs constructed in
Lemma 9.2 use).  :func:`rewrite_reachable` then performs a bounded
breadth-first search, and :func:`find_rewrite_sequence` returns an explicit
rewrite proof when one exists within the bound.

This module is primarily proof-replay machinery for the test suite and the
EXP-T9 ablation benchmark (ALG vs explicit rewrite search); production
callers should use :mod:`repro.implication.alg`.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Sequence
from typing import Optional

from repro.dependencies.pd import PartitionDependency, PartitionDependencyLike, as_partition_dependency
from repro.expressions.ast import (
    ExpressionLike,
    PartitionExpression,
    Product,
    Sum,
    all_subexpressions,
    as_expression,
)


def _replace_at(
    expression: PartitionExpression,
    target: PartitionExpression,
    replacement: PartitionExpression,
    once_only: bool = True,
) -> list[PartitionExpression]:
    """All expressions obtained by replacing one occurrence of ``target`` inside ``expression``."""
    results: list[PartitionExpression] = []
    if expression == target:
        results.append(replacement)
    if isinstance(expression, (Product, Sum)):
        constructor = Product if isinstance(expression, Product) else Sum
        for left_variant in _replace_at(expression.left, target, replacement, once_only):
            results.append(constructor(left_variant, expression.right))
        for right_variant in _replace_at(expression.right, target, replacement, once_only):
            results.append(constructor(expression.left, right_variant))
    return results


def one_step_rewrites(
    expression: PartitionExpression,
    dependencies: Sequence[PartitionDependency],
    pool: Sequence[PartitionExpression],
) -> set[PartitionExpression]:
    """All expressions reachable from ``expression`` by a single RR step.

    The fresh operand of rules 4–6 ranges over ``pool``.
    """
    results: set[PartitionExpression] = set()
    subs = list(expression.subexpressions())
    for sub in subs:
        candidates: list[PartitionExpression] = []
        # Rule 1: x + x -> x
        if isinstance(sub, Sum) and sub.left == sub.right:
            candidates.append(sub.left)
        # Rules 2, 3: x * y -> x, y * x -> x
        if isinstance(sub, Product):
            candidates.append(sub.left)
            candidates.append(sub.right)
        # Rule 4: x -> x * x
        candidates.append(Product(sub, sub))
        # Rules 5, 6: x -> x + y, x -> y + x  (y from the pool)
        for fresh in pool:
            candidates.append(Sum(sub, fresh))
            candidates.append(Sum(fresh, sub))
        # Rule 7: z -> v and v -> z for equations z = v of E
        for pd in dependencies:
            if sub == pd.left:
                candidates.append(pd.right)
            if sub == pd.right:
                candidates.append(pd.left)
        for candidate in candidates:
            if candidate == sub:
                continue
            results.update(_replace_at(expression, sub, candidate))
    results.discard(expression)
    return results


def default_pool(
    source: ExpressionLike,
    target: ExpressionLike,
    dependencies: Iterable[PartitionDependencyLike],
) -> list[PartitionExpression]:
    """The default fresh-operand pool: every subexpression of source, target and E."""
    pds = [as_partition_dependency(pd) for pd in dependencies]
    roots = [as_expression(source), as_expression(target)]
    for pd in pds:
        roots.extend([pd.left, pd.right])
    return sorted(all_subexpressions(roots), key=lambda e: (e.size(), str(e)))


def rewrite_reachable(
    source: ExpressionLike,
    target: ExpressionLike,
    dependencies: Iterable[PartitionDependencyLike] = (),
    max_steps: int = 6,
    max_size: Optional[int] = None,
    pool: Optional[Sequence[PartitionExpression]] = None,
) -> bool:
    """Bounded test of ``source →→_RR target``.

    ``max_steps`` bounds the rewrite-sequence length and ``max_size`` bounds
    the size of intermediate expressions (default: a small multiple of the
    endpoints' sizes).  A ``True`` answer is a genuine RR derivation; a
    ``False`` answer only means no derivation was found within the bounds.
    """
    return find_rewrite_sequence(source, target, dependencies, max_steps, max_size, pool) is not None


def find_rewrite_sequence(
    source: ExpressionLike,
    target: ExpressionLike,
    dependencies: Iterable[PartitionDependencyLike] = (),
    max_steps: int = 6,
    max_size: Optional[int] = None,
    pool: Optional[Sequence[PartitionExpression]] = None,
) -> Optional[list[PartitionExpression]]:
    """Search (BFS) for an explicit RR rewrite sequence from ``source`` to ``target``."""
    pds = [as_partition_dependency(pd) for pd in dependencies]
    start = as_expression(source)
    goal = as_expression(target)
    if pool is None:
        pool = default_pool(start, goal, pds)
    if max_size is None:
        max_size = 2 * max(start.size(), goal.size()) + max((pd.size() for pd in pds), default=0)

    if start == goal:
        return [start]
    frontier: deque[PartitionExpression] = deque([start])
    parents: dict[PartitionExpression, PartitionExpression] = {start: start}
    depth: dict[PartitionExpression, int] = {start: 0}
    while frontier:
        current = frontier.popleft()
        if depth[current] >= max_steps:
            continue
        # Expand in (size, str) order, not set order, so the sequence found
        # does not depend on the nodes' identity hashes.
        for nxt in sorted(one_step_rewrites(current, pds, pool), key=lambda e: (e.size(), str(e))):
            if nxt.size() > max_size or nxt in parents:
                continue
            parents[nxt] = current
            depth[nxt] = depth[current] + 1
            if nxt == goal:
                chain = [nxt]
                while chain[-1] != start:
                    chain.append(parents[chain[-1]])
                return list(reversed(chain))
            frontier.append(nxt)
    return None
