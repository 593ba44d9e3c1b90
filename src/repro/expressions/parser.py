"""A small parser for partition expressions written as strings.

The grammar mirrors the paper's notation, with the usual convention that
``*`` binds tighter than ``+`` and explicit parentheses override precedence::

    expression := term ('+' term)*
    term       := factor ('*' factor)*
    factor     := ATTRIBUTE | '(' expression ')'

Attribute names are maximal runs of letters, digits and underscores
(``A``, ``B1``, ``employee_nr`` are all fine).  Whitespace is ignored.  The
equation forms ``e = e'`` and the FPD shorthand ``X <= Y`` are parsed by
:func:`parse_dependency` in :mod:`repro.dependencies.pd`; this module only
deals with single expressions.

Operators associate to the left, matching :func:`repro.expressions.ast.product_of`.
Because ``*`` and ``+`` are associative in every lattice this choice never
affects the semantics, only the concrete syntax tree.

Parsing is a pure function of the text: expressions are hash-consed and
dependencies immutable.  :func:`memoized_parse` therefore keeps the last
:data:`PARSE_MEMO_SIZE` results, keyed by ``(parser, text)``, and both
:func:`parse_expression` and :meth:`PartitionDependency.parse
<repro.dependencies.pd.PartitionDependency.parse>` go through it, so a text
the service receives again (a tenant re-sending its Γ with every request) is
tokenized once.  Errors are not memoized: a malformed text is parsed again
and raises the same error every time.  The memo holds strong references to
interned nodes, which stay valid across ``fork``.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache
from typing import TypeVar

from repro.errors import ExpressionError
from repro.expressions.ast import Attr, PartitionExpression, Product, Sum

#: How many distinct texts :func:`memoized_parse` keeps (least recently used go first).
PARSE_MEMO_SIZE = 4096

_Parsed = TypeVar("_Parsed")

_TOKEN_PATTERN = re.compile(
    r"\s*(?:(?P<attr>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[*+().]))"
)


@dataclass(frozen=True)
class _Token:
    kind: str  # "attr", "*", "+", "(", ")"
    text: str
    position: int


def tokenize(text: str) -> list[_Token]:
    """Split an expression string into tokens, validating every character.

    The paper occasionally writes products with ``.`` or ``·``; both are
    accepted as synonyms of ``*``.
    """
    normalized = text.replace("·", "*").replace("⋅", "*")
    tokens: list[_Token] = []
    position = 0
    while position < len(normalized):
        match = _TOKEN_PATTERN.match(normalized, position)
        if match is None:
            remaining = normalized[position:].strip()
            if not remaining:
                break
            raise ExpressionError(
                f"cannot tokenize partition expression at position {position}: {remaining[:10]!r}"
            )
        if match.group("attr"):
            tokens.append(_Token("attr", match.group("attr"), match.start("attr")))
        else:
            op = match.group("op")
            op = "*" if op == "." else op
            tokens.append(_Token(op, op, match.start("op")))
        position = match.end()
    return tokens


class _Parser:
    """Recursive-descent parser over the token list."""

    def __init__(self, tokens: list[_Token], source: str) -> None:
        self._tokens = tokens
        self._source = source
        self._index = 0

    def _peek(self) -> _Token | None:
        return self._tokens[self._index] if self._index < len(self._tokens) else None

    def _advance(self) -> _Token:
        token = self._peek()
        if token is None:
            raise ExpressionError(f"unexpected end of expression in {self._source!r}")
        self._index += 1
        return token

    def _expect(self, kind: str) -> _Token:
        token = self._advance()
        if token.kind != kind:
            raise ExpressionError(
                f"expected {kind!r} at position {token.position} in {self._source!r}, "
                f"got {token.text!r}"
            )
        return token

    def parse(self) -> PartitionExpression:
        expression = self._parse_sum()
        leftover = self._peek()
        if leftover is not None:
            raise ExpressionError(
                f"unexpected token {leftover.text!r} at position {leftover.position} "
                f"in {self._source!r}"
            )
        return expression

    def _parse_sum(self) -> PartitionExpression:
        expression = self._parse_product()
        while True:
            token = self._peek()
            if token is None or token.kind != "+":
                return expression
            self._advance()
            expression = Sum(expression, self._parse_product())

    def _parse_product(self) -> PartitionExpression:
        expression = self._parse_factor()
        while True:
            token = self._peek()
            if token is None or token.kind != "*":
                return expression
            self._advance()
            expression = Product(expression, self._parse_factor())

    def _parse_factor(self) -> PartitionExpression:
        token = self._advance()
        if token.kind == "attr":
            return Attr(token.text)
        if token.kind == "(":
            inner = self._parse_sum()
            self._expect(")")
            return inner
        raise ExpressionError(
            f"unexpected token {token.text!r} at position {token.position} in {self._source!r}"
        )


@lru_cache(maxsize=PARSE_MEMO_SIZE)
def memoized_parse(parser: Callable[[str], _Parsed], text: str) -> _Parsed:
    """``parser(text)``, remembered for the last :data:`PARSE_MEMO_SIZE` texts.

    ``parser`` must be a pure function of the text (returning hash-consed or
    immutable objects).  Exceptions propagate and are not remembered.
    """
    return parser(text)


def parse_memo_info() -> dict[str, int]:
    """The parse memo's current entry count and its bound (a resource gauge)."""
    info = memoized_parse.cache_info()
    return {"entries": info.currsize, "bound": info.maxsize}


def parse_expression(text: str) -> PartitionExpression:
    """Parse a partition expression such as ``"A * (B + C)"`` (memoized by text).

    Raises :class:`~repro.errors.ExpressionError` on malformed input.
    """
    return memoized_parse(_parse_expression_text, text)


def _parse_expression_text(text: str) -> PartitionExpression:
    tokens = tokenize(text)
    if not tokens:
        raise ExpressionError("cannot parse an empty partition expression")
    return _Parser(tokens, text).parse()
