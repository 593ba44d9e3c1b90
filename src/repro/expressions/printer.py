"""Pretty-printers for partition expressions.

Three styles are provided:

* :func:`to_infix` — minimal-parenthesis infix form using the standard
  precedence (``*`` over ``+``); round-trips through the parser.
* :func:`to_paper` — the paper's fully spaced style (``(A * B) + C``) with
  ``·`` available for products.
* :func:`to_prefix` — LISP-like prefix form, convenient in test failure
  messages because associativity is explicit.
"""

from __future__ import annotations

from repro.errors import ExpressionError
from repro.expressions.ast import Attr, PartitionExpression, Product, Sum


def to_infix(expression: PartitionExpression) -> str:
    """Minimal-parenthesis infix rendering; ``parse_expression`` inverts it exactly.

    Parentheses are emitted only where the parser's precedence (``*`` over
    ``+``) or left-associativity would otherwise rebuild a different tree:
    sums nested under products, and right operands that repeat their parent's
    operator.  The rendering is cached on the interned node (its ``_infix``
    slot), so each node is rendered once however often it is printed.
    """
    try:
        rendered = expression._infix
    except AttributeError:
        raise ExpressionError(f"unknown expression node {expression!r}") from None
    if rendered is None:
        rendered = _render_infix(expression)
    return rendered


def _render_infix(expression: PartitionExpression) -> str:
    """Render a binary node from its children's cached renderings and cache it."""
    operator = "*" if isinstance(expression, Product) else "+"
    left = _infix_child(expression.left, type(expression), is_right=False)
    right = _infix_child(expression.right, type(expression), is_right=True)
    rendered = f"{left} {operator} {right}"
    expression._infix = rendered
    return rendered


def _infix_child(child: PartitionExpression, parent_type: type, is_right: bool) -> str:
    rendered = to_infix(child)
    needs_parentheses = (parent_type is Product and isinstance(child, Sum)) or (
        is_right and type(child) is parent_type
    )
    return f"({rendered})" if needs_parentheses else rendered


def to_paper(expression: PartitionExpression, product_symbol: str = "*") -> str:
    """Fully parenthesized rendering in the paper's style."""
    if isinstance(expression, Attr):
        return expression.name
    if isinstance(expression, Product):
        return (
            f"({to_paper(expression.left, product_symbol)} {product_symbol} "
            f"{to_paper(expression.right, product_symbol)})"
        )
    if isinstance(expression, Sum):
        return (
            f"({to_paper(expression.left, product_symbol)} + "
            f"{to_paper(expression.right, product_symbol)})"
        )
    raise ExpressionError(f"unknown expression node {expression!r}")


def to_prefix(expression: PartitionExpression) -> str:
    """LISP-like prefix rendering, e.g. ``(+ (* A B) C)``."""
    if isinstance(expression, Attr):
        return expression.name
    if isinstance(expression, Product):
        return f"(* {to_prefix(expression.left)} {to_prefix(expression.right)})"
    if isinstance(expression, Sum):
        return f"(+ {to_prefix(expression.left)} {to_prefix(expression.right)})"
    raise ExpressionError(f"unknown expression node {expression!r}")
