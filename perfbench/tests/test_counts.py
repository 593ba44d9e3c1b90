"""The traced run's exact counts repeat for a seed and move with it.

Runs the benchmark command itself (short streams) and compares the work
counts of its per-layer report:

    python -m pytest perfbench/tests -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]

EXACT = (
    "quotient.closure_pops",
    "quotient.class_id_calls",
    "chase.steps",
    "cad.backtrack_nodes",
    "implication.word_problems_calls",
    "consistency.normalize_calls",
    "planner.batches",
)


def traced_counts(workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", "0.5", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["correct"] and report["failed"] == 0
    return {name: report["metrics"][name]["value"] for name in EXACT}


@pytest.mark.parametrize("workload", ["acceptance", "gamma_growth"])
def test_counts_repeat_per_seed_and_move_with_it(workload):
    first = traced_counts(workload, 1)
    assert first == traced_counts(workload, 1)
    other = traced_counts(workload, 2)
    moved = {name for name in EXACT if first[name] != other[name]}
    if workload == "acceptance":
        # acceptance runs every counted kernel, so every count is live.
        assert all(first[name] > 0 for name in EXACT), first
        assert moved == set(EXACT), (first, other)
    else:
        # gamma_growth's normalize and class_id counts follow its fixed shape
        # (tenants x writes x read kinds); the chase work follows its content.
        assert "chase.steps" in moved, (first, other)
