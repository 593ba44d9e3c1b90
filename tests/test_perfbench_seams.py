"""The benchmark's span seams exist in the program.

``perfbench/tracing.py`` wraps functions at the names their callers resolve
(``SPAN_SITES``).  A refactor that renames or drops one of those names
would only surface when the benchmark runs; this test loads the tracer by
path and checks every site, so it fails with the rest of the suite.
"""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing_seams", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPAN_SITES = _load_tracing().SPAN_SITES


@pytest.mark.parametrize(
    "owner, attribute, span",
    SPAN_SITES,
    ids=[f"{span}:{attribute}" for _, attribute, span in SPAN_SITES],
)
def test_every_span_site_resolves_to_a_callable(owner, attribute, span):
    # The tracer reads class attributes off the class dict (no inherited names).
    target = owner.__dict__.get(attribute) if isinstance(owner, type) else getattr(owner, attribute, None)
    assert callable(target), f"{span} wraps {owner.__name__}.{attribute}, which is gone"
