"""Span tracing from outside the program: wrappers around each layer's public functions.

:class:`Tracer` replaces a function at the name its caller resolves (a module
global such as ``repro.service.planner.lattice_word_problems``, or a class
attribute such as ``ImplicationIndex.class_id``) with a wrapper that records
one span ``(name, start, end, parent)`` per call in memory.  Nothing under
``src/`` changes: the patches are in place only inside
:meth:`Tracer.active`.

From the spans the tracer derives each layer's busy time and call count, and
how much of the traced wall time the top-level spans (those with no traced
parent) cover.  A layer the tracer does not wrap shows up as unattributed
time instead of disappearing.
"""

from __future__ import annotations

import contextlib
import json
import weakref
from collections.abc import Callable, Iterator
from pathlib import Path
from time import perf_counter
from typing import Any, Optional

import repro.lattice.quotient as quotient_module
from repro import profiling
import repro.service.cli as cli_module
import repro.service.planner as planner_module
import repro.service.session as session_module
from repro.implication.alg import ImplicationEngine
from repro.implication.index import ImplicationIndex

#: (owner, attribute, span name): every call site the traced run wraps.
#: ``quotient_fragment`` is wrapped twice because the session and
#: ``finite_counterexample`` each resolve it in their own module.
SPAN_SITES: tuple[tuple[Any, str, str], ...] = (
    (cli_module, "load_request_line", "wire.decode"),
    (cli_module, "dump_result_line", "wire.encode"),
    (planner_module, "request_cache_key", "wire.cache_key"),
    (session_module, "request_cache_key", "wire.cache_key"),
    (planner_module, "plan", "planner.plan"),
    (planner_module, "lattice_word_problems", "implication.word_problems"),
    (planner_module, "fd_implies_all_via_pds", "implication.fd"),
    (session_module, "finite_counterexample", "quotient.counterexample"),
    (session_module, "quotient_fragment", "quotient.fragment"),
    (quotient_module, "quotient_fragment", "quotient.fragment"),
    (ImplicationIndex, "class_id", "quotient.class_id"),
    (ImplicationEngine, "prepare", "implication.prepare"),
    (ImplicationEngine, "add_dependencies", "implication.add_dependencies"),
    (session_module, "normalize_dependencies", "consistency.normalize"),
    (session_module, "ChaseEngine", "chase.build"),
    (session_module, "pd_consistency", "consistency.weak_instance"),
    (session_module, "cad_consistency_for_fpds", "consistency.cad"),
)

Span = tuple[str, float, float, int]


class Tracer:
    """In-memory span recorder plus the patches that feed it.

    ``with tracer.active(): ...`` patches every site for the duration of the
    block and opens a :func:`repro.profiling.profile` scope whose kernel
    counts accumulate into :attr:`kernel`; outside such a block the program
    runs unpatched.
    """

    def __init__(self) -> None:
        self.spans: list[Optional[Span]] = []
        self.batches = 0  # planner batches, read off plan()'s return value
        self.kernel = profiling.KernelProfile()
        self._stack: list[int] = []
        # ALG index sizes: engines built inside a traced call are throwaway
        # and counted when the outermost span ends; engines built outside one
        # belong to a session and are counted by :meth:`persistent_index_size`.
        self._throwaway: list[ImplicationEngine] = []
        self._persistent: "weakref.WeakSet[ImplicationEngine]" = weakref.WeakSet()
        self.index_arcs = 0
        self.index_vertices = 0
        self._sites: list[tuple[Any, str, Any, Any]] = []  # (owner, attribute, original, wrapper)
        for owner, attribute, name in SPAN_SITES:
            original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
            wrapper = self._wrap(name, original, count_batches=name == "planner.plan")
            self._sites.append((owner, attribute, original, wrapper))
        self._sites.append((ImplicationEngine, "__init__", ImplicationEngine.__init__, self._engine_init()))

    def _engine_init(self) -> Callable:
        engine_init = ImplicationEngine.__init__
        tracer = self

        def init(engine, *args, **kwargs):
            engine_init(engine, *args, **kwargs)
            if engine.index is not None:
                (tracer._throwaway.append if tracer._stack else tracer._persistent.add)(engine)

        return init

    @contextlib.contextmanager
    def active(self) -> Iterator[None]:
        for owner, attribute, _, wrapper in self._sites:
            setattr(owner, attribute, wrapper)
        try:
            with profiling.profile() as counts:
                yield
        finally:
            for owner, attribute, original, _ in self._sites:
                setattr(owner, attribute, original)
            self.kernel.merge(counts)

    def _wrap(self, name: str, function: Callable, count_batches: bool = False) -> Callable:
        spans = self.spans
        stack = self._stack
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            slot = len(spans)
            spans.append(None)
            stack.append(slot)
            start = perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[slot] = (name, start, end, parent)
                if not stack and tracer._throwaway:
                    tracer._count_throwaway()
            if count_batches:
                tracer.batches += len(result)
            return result

        return wrapper

    def _count_throwaway(self) -> None:
        for engine in self._throwaway:
            self.index_arcs += engine.index.arc_count()
            self.index_vertices += engine.index.vertex_count
        self._throwaway.clear()

    def persistent_index_size(self) -> tuple[int, int]:
        """(arcs, vertices) over the session-held ALG indexes still alive."""
        engines = list(self._persistent)
        return (
            sum(engine.index.arc_count() for engine in engines),
            sum(engine.index.vertex_count for engine in engines),
        )

    # -- derived numbers -----------------------------------------------------------

    def busy(self) -> dict[str, tuple[float, int]]:
        """Span name -> (inclusive seconds, calls)."""
        totals: dict[str, list] = {}
        for span in self.spans:
            if span is None:
                continue
            entry = totals.setdefault(span[0], [0.0, 0])
            entry[0] += span[2] - span[1]
            entry[1] += 1
        return {name: (seconds, calls) for name, (seconds, calls) in totals.items()}

    def self_times(self) -> dict[str, float]:
        """Span name -> seconds not covered by its child spans."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        totals: dict[str, float] = {}
        for slot, span in enumerate(self.spans):
            if span is not None:
                totals[span[0]] = totals.get(span[0], 0.0) + (span[2] - span[1]) - child_time[slot]
        return totals

    def top_level_seconds(self) -> float:
        """Time covered by spans with no traced parent (they never overlap: one thread)."""
        return sum(span[2] - span[1] for span in self.spans if span is not None and span[3] < 0)

    def write(self, path: Path) -> None:
        """Spans as JSON lines: one ``[name, start, end, parent]`` per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                if span is not None:
                    handle.write(json.dumps(span) + "\n")
