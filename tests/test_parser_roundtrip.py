"""Parser/printer round-trip properties: ``parse(render(e)) is e`` (hash-consed identity).

The printer contract (``to_infix`` emits the minimal-parenthesis form the
parser inverts exactly) had no direct test; the wire codecs now lean on it
for every expression crossing a process boundary, so it is pinned here:

* randomized round-trips through every rendering style (``to_infix``,
  ``to_paper``, ``str``) come back as the *same interned object*;
* precedence and associativity edge cases build exactly the expected trees;
* minimality: ``to_infix`` output never contains a redundant paren pair
  (checked by re-parsing with each paren pair removed — the result must
  differ or fail);
* the ``to_infix`` text cached on each interned node equals a slot-free
  reference render, before and after a pickle round trip.
"""

import pickle

import pytest
from hypothesis import given, settings

from repro.dependencies.pd import PartitionDependency
from repro.expressions.ast import Attr, PartitionExpression, Product, Sum, attrs
from repro.expressions.parser import parse_expression
from repro.expressions.printer import to_infix, to_paper, to_prefix
from repro.workloads.random_expressions import random_expression
from tests.conftest import expressions

A, B, C, D = attrs("A", "B", "C", "D")

UNIVERSES = [
    ["A", "B", "C"],
    ["A", "B", "C", "D", "E"],
    # Multi-character names exercise the tokenizer's maximal-munch rule.
    ["A1", "B2", "employee_nr", "dept"],
]


class TestRandomizedRoundTrip:
    @pytest.mark.parametrize("universe", UNIVERSES, ids=["abc", "abcde", "long-names"])
    def test_parse_inverts_to_infix_on_random_expressions(self, universe):
        for seed in range(150):
            expression = random_expression(universe, seed=seed, max_complexity=6)
            assert parse_expression(to_infix(expression)) is expression

    def test_parse_inverts_paper_style(self):
        for seed in range(100):
            expression = random_expression(["A", "B", "C", "D"], seed=seed, max_complexity=5)
            assert parse_expression(to_paper(expression)) is expression
            # The paper's ``·`` product notation parses too.
            assert parse_expression(to_paper(expression, product_symbol="·")) is expression

    def test_parse_inverts_str(self):
        for seed in range(100):
            expression = random_expression(["A", "B", "C", "D"], seed=seed, max_complexity=5)
            assert parse_expression(str(expression)) is expression

    def test_product_bias_extremes_round_trip(self):
        for seed in range(40):
            for bias in (0.0, 1.0):
                expression = random_expression(
                    ["A", "B", "C"], seed=seed, max_complexity=5, product_bias=bias
                )
                assert parse_expression(to_infix(expression)) is expression


class TestPrecedenceEdgeCases:
    def test_product_binds_tighter_than_sum(self):
        assert parse_expression("A + B * C") is Sum(A, Product(B, C))
        assert parse_expression("A * B + C") is Sum(Product(A, B), C)

    def test_parentheses_override_precedence(self):
        assert parse_expression("(A + B) * C") is Product(Sum(A, B), C)
        assert parse_expression("A * (B + C)") is Product(A, Sum(B, C))

    def test_left_associativity(self):
        assert parse_expression("A + B + C") is Sum(Sum(A, B), C)
        assert parse_expression("A * B * C") is Product(Product(A, B), C)
        assert parse_expression("A + B + C + D") is Sum(Sum(Sum(A, B), C), D)

    def test_right_nested_operands_need_parens(self):
        right_nested = Sum(A, Sum(B, C))
        rendered = to_infix(right_nested)
        assert rendered == "A + (B + C)"
        assert parse_expression(rendered) is right_nested
        assert parse_expression(rendered) is not parse_expression("A + B + C")

    def test_nested_parens_collapse_to_same_node(self):
        assert parse_expression("((A))") is A
        assert parse_expression("(((A + B)))") is Sum(A, B)
        assert parse_expression("( (A) * ((B)) )") is Product(A, B)

    def test_mixed_depth_example(self):
        expression = Product(Sum(Product(A, B), C), Sum(A, D))
        assert to_infix(expression) == "(A * B + C) * (A + D)"
        assert parse_expression(to_infix(expression)) is expression

    def test_to_prefix_is_explicit_about_associativity(self):
        assert to_prefix(parse_expression("A + B + C")) == "(+ (+ A B) C)"
        assert to_prefix(parse_expression("A + (B + C)")) == "(+ A (+ B C))"


class TestMinimality:
    """``to_infix`` never emits parentheses the grammar does not require."""

    def _paren_spans(self, text: str):
        stack = []
        for position, char in enumerate(text):
            if char == "(":
                stack.append(position)
            elif char == ")":
                yield stack.pop(), position

    @pytest.mark.parametrize("seed", range(60))
    def test_every_paren_pair_is_load_bearing(self, seed):
        expression = random_expression(["A", "B", "C", "D"], seed=seed, max_complexity=6)
        rendered = to_infix(expression)
        for open_at, close_at in self._paren_spans(rendered):
            stripped = (
                rendered[:open_at] + rendered[open_at + 1 : close_at] + rendered[close_at + 1 :]
            )
            try:
                reparsed = parse_expression(stripped)
            except Exception:
                continue  # removing the pair broke the syntax: load-bearing
            assert reparsed is not expression, (
                f"redundant parens in {rendered!r}: {stripped!r} parses identically"
            )


def _reference_infix(expression: PartitionExpression) -> str:
    """The minimal-parenthesis render computed from scratch, reading no cached slot."""
    if isinstance(expression, Attr):
        return expression.name
    parent = type(expression)

    def child(node: PartitionExpression, is_right: bool) -> str:
        text = _reference_infix(node)
        wrap = (parent is Product and isinstance(node, Sum)) or (is_right and type(node) is parent)
        return f"({text})" if wrap else text

    operator = "*" if parent is Product else "+"
    return f"{child(expression.left, False)} {operator} {child(expression.right, True)}"


class TestCachedInfix:
    """``to_infix`` reads the node's ``_infix`` slot after the first render."""

    @given(expressions(max_depth=4))
    @settings(max_examples=200, deadline=None)
    def test_cached_render_matches_reference_and_reparses_to_the_node(self, expression):
        expected = _reference_infix(expression)
        assert to_infix(expression) == expected
        assert to_infix(expression) == expected  # the cached read
        assert parse_expression(expected) is expression

    @given(expressions(max_depth=4))
    @settings(max_examples=100, deadline=None)
    def test_pickling_keeps_identity_and_rendering(self, expression):
        to_infix(expression)  # fill the slot before pickling
        clone = pickle.loads(pickle.dumps(expression))
        assert clone is expression
        assert to_infix(clone) == _reference_infix(expression)
        assert parse_expression(to_infix(clone)) is expression

    @given(expressions(max_depth=3), expressions(max_depth=3))
    @settings(max_examples=100, deadline=None)
    def test_pd_text_is_cached_and_survives_pickling(self, left, right):
        pd = PartitionDependency(left, right)
        text = f"{_reference_infix(left)} = {_reference_infix(right)}"
        assert str(pd) == text
        assert str(pd) is str(pd)
        clone = pickle.loads(pickle.dumps(pd))
        assert clone == pd and str(clone) == text
        assert PartitionDependency.parse(text) == pd
