"""Interning invariants of the hash-consed expression AST.

Structural equality must coincide with object identity for every way of
building an expression — constructors, operator sugar, the parser, pickling,
copying — because the nodes use ``object``'s identity equality and hash.
The per-node caches (attributes, complexity, size, dual) must agree with
recomputation from the structure.  Identity hashes vary with the hash seed
and with the allocation history, so the service's result lines must not
depend on them: two processes that differ in both answer one seeded stream
byte for byte.
"""

import copy
import hashlib
import os
import pickle
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings

from repro.expressions.ast import (
    Attr,
    Product,
    Sum,
    attr,
    attribute_set_expression,
    attrs,
    interned_counts,
    product_of,
    sum_of,
)
from repro.expressions.parser import parse_expression

from tests.conftest import expressions


class TestIdentityInterning:
    def test_attrs_intern_by_name(self):
        assert Attr("A") is Attr("A")
        assert attr("A") is Attr("A")
        assert Attr("A") is not Attr("B")

    def test_composites_intern_by_operands(self):
        a, b = attrs("A", "B")
        assert Product(a, b) is Product(a, b)
        assert Sum(a, b) is Sum(a, b)
        assert Product(a, b) is not Product(b, a)  # syntax, not semantics
        assert Product(a, b) is not Sum(a, b)

    def test_operator_sugar_interns(self):
        a, b, c = attrs("A", "B", "C")
        assert a * (b + c) is Product(a, Sum(b, c))
        assert (a * b) + c is Sum(Product(a, b), c)

    def test_parser_returns_interned_nodes(self):
        a, b, c = attrs("A", "B", "C")
        assert parse_expression("A * (B + C)") is a * (b + c)
        assert parse_expression("A*B*C") is product_of("ABC")
        assert parse_expression("A+B+C") is sum_of("ABC")
        assert attribute_set_expression("CAB") is product_of("ABC")

    def test_structural_equality_is_identity(self):
        left = parse_expression("(A + B) * (A + C)")
        right = Product(Sum(Attr("A"), Attr("B")), Sum(Attr("A"), Attr("C")))
        assert left == right
        assert left is right

    @given(expressions(max_depth=3), expressions(max_depth=3))
    @settings(max_examples=100, deadline=None)
    def test_equal_iff_identical(self, first, second):
        assert (first == second) == (first is second)
        assert (hash(first) == hash(second)) == (first is second)
        rebuilt = parse_expression(str(first))
        assert rebuilt is first and hash(rebuilt) == hash(first)

    def test_interned_counts_reports_live_nodes(self):
        expr = parse_expression("A * (B + C)")
        counts = interned_counts()
        assert counts["Attr"] >= 3
        assert counts["Product"] >= 1
        assert counts["Sum"] >= 1
        assert expr is not None  # keep the tree alive through the assertions


class TestRoundTrips:
    def test_pickle_reinterns(self):
        expr = parse_expression("(A*B) + (C * (A + D))")
        clone = pickle.loads(pickle.dumps(expr))
        assert clone is expr

    def test_pickle_attr(self):
        assert pickle.loads(pickle.dumps(Attr("Account"))) is Attr("Account")

    def test_deepcopy_and_copy_preserve_identity(self):
        expr = parse_expression("A * (B + C)")
        assert copy.copy(expr) is expr
        assert copy.deepcopy(expr) is expr

    @given(expressions(max_depth=3))
    @settings(max_examples=50, deadline=None)
    def test_pickle_round_trip_random(self, expr):
        assert pickle.loads(pickle.dumps(expr)) is expr


class TestCachedMetadata:
    @given(expressions(max_depth=3))
    @settings(max_examples=100, deadline=None)
    def test_attributes_cached_and_shared(self, expr):
        names = {node.name for node in expr.subexpressions() if isinstance(node, Attr)}
        assert set(expr.attributes()) == names
        assert expr.attributes() is expr.attributes()

    def test_complexity_and_size_match_structure(self):
        expr = parse_expression("(A*B) + (C*D)")
        assert expr.complexity() == 3
        assert expr.size() == 7
        assert Attr("A").complexity() == 0
        assert Attr("A").size() == 1

    def test_dual_is_cached_involution(self):
        expr = parse_expression("A * (B + C)")
        dual = expr.dual()
        assert dual is parse_expression("A + B*C")
        assert dual.dual() is expr
        assert expr.dual() is dual  # cached, not recomputed
        assert Attr("A").dual() is Attr("A")

    def test_is_product_of_attributes_cached(self):
        assert parse_expression("A*B*C").is_product_of_attributes()
        assert not parse_expression("A*(B+C)").is_product_of_attributes()


REPO_ROOT = Path(__file__).resolve().parent.parent

# One seeded stream through ``serve_lines`` in three chunks, with writes to
# the default tenant's and two named tenants' Γ between chunks (through the
# snapshot directory, which also carries the result cache from chunk to
# chunk).  argv[1] is the number of throwaway expressions kept alive first,
# which moves every later node's address and so its identity hash.
_STREAM_SCRIPT = r"""
import hashlib, random, sys, tempfile
from dataclasses import replace

from repro.expressions.ast import Attr, Sum
from repro.service.cli import serve_lines
from repro.service.config import ServiceConfig
from repro.service.snapshot import save_snapshot
from repro.service.wire import QueryRequest, dump_request_line
from repro.workloads.random_dependencies import random_pd
from repro.workloads.random_expressions import random_expression
from repro.workloads.random_service import random_service_requests

throwaway = [Sum(Attr(f"X{i}"), Attr(f"Y{i}")) for i in range(int(sys.argv[1]))]
rng = random.Random(20261020)
universe = list("ABCDE")
tenants = [None, "t0", "t1"]
digest = hashlib.sha256()
with tempfile.TemporaryDirectory() as directory:
    config = ServiceConfig(snapshot_dir=directory)
    for chunk in range(3):
        explicit = random_service_requests(36, seed=rng, include_cad=True)
        bare = random_service_requests(18, seed=rng, include_cad=True, embed_dependencies=False)
        stream = explicit + [replace(r, tenant=tenants[i % 3]) for i, r in enumerate(bare)]
        stream += [
            QueryRequest(
                kind="quotient",
                tenant=tenant,
                dependencies=gamma,
                pool=tuple(random_expression(universe, rng, 2) for _ in range(4)),
            )
            for tenant in tenants
            for gamma in (None, tuple(random_pd(universe, rng, 2) for _ in range(3)))
        ]
        rng.shuffle(stream)
        lines = [dump_request_line(replace(r, id=f"c{chunk}.{i}")) for i, r in enumerate(stream)]
        results, _ = serve_lines(lines, config)
        for line in results:
            digest.update(line.encode() + b"\n")
        session = config.make_session()
        for tenant in tenants:
            session.add_dependencies([random_pd(universe, rng, 2)], tenant=tenant)
        save_snapshot(session, directory)
print(digest.hexdigest())
"""


def test_result_lines_do_not_depend_on_hash_seed_or_allocation_history():
    runs = [("0", "0"), ("12345", "5000")]
    processes = [
        subprocess.Popen(
            [sys.executable, "-c", _STREAM_SCRIPT, throwaway],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env={
                "PYTHONPATH": str(REPO_ROOT / "src"),
                "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
                "PYTHONHASHSEED": hash_seed,
            },
        )
        for hash_seed, throwaway in runs
    ]
    digests = []
    for process in processes:
        out, err = process.communicate(timeout=300)
        assert process.returncode == 0, err
        digests.append(out.strip())
    assert len(digests[0]) == len(hashlib.sha256().hexdigest())
    assert digests[0] == digests[1]
