"""Small measurement helpers: percentiles, peak resident memory, set-up probes."""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
OUT = ROOT / "perfbench" / "out"


def percentile(samples: list[float], point: float) -> float:
    """Linear-interpolated percentile (``point`` in 0..100) of a non-empty sample."""
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * point / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def reset_peak_rss() -> None:
    """Restart this process's peak-RSS mark (Linux ``clear_refs``), so the peak
    read later covers only what ran after this call.  A no-op elsewhere."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident memory of a process in MiB (``VmHWM``; ``ru_maxrss`` fallback)."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    if pid == "self":
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return 0.0


def child_pids(pid: int) -> list[int]:
    """Direct children of a process (Linux ``/proc``; empty elsewhere)."""
    children: list[int] = []
    try:
        for task in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{task}/children") as handle:
                children.extend(int(child) for child in handle.read().split())
    except OSError:
        pass
    return children


def service_env() -> dict:
    """Environment for a child interpreter that imports the checkout's ``repro``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SOURCE) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("REPRO_FAULT_PLAN", None)
    return env


def ready_time(payload: str, repeats: int) -> list[float]:
    """Seconds from spawning a fresh interpreter to its service being ready.

    The child (``ready.py``) imports the service, builds the session the
    workload serves from (seeding any tenants named in ``payload``), and
    prints ``ready``.
    """
    script = Path(__file__).resolve().parent / "ready.py"
    samples = []
    for _ in range(repeats):
        started = perf_counter()
        with subprocess.Popen(
            [sys.executable, str(script)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=service_env(),
            cwd=ROOT,
            text=True,
        ) as child:
            child.stdin.write(payload)
            child.stdin.close()
            line = child.stdout.readline()
            samples.append(perf_counter() - started)
            child.stdout.read()
            code = child.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code}, said {line.strip()!r})")
    return samples


def reference(job: dict) -> list[str]:
    """Expected result lines, computed by ``reference.py`` in a child interpreter."""
    script = Path(__file__).resolve().parent / "reference.py"
    done = subprocess.run(
        [sys.executable, str(script)],
        input=json.dumps(job),
        capture_output=True,
        env=service_env(),
        cwd=ROOT,
        text=True,
        timeout=170,
    )
    if done.returncode != 0:
        raise RuntimeError(f"reference computation failed: {done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout)
