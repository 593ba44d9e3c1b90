"""One configuration surface for every deployment shape of the query service.

:class:`ServiceConfig` is the single dataclass every entry point consumes:

* the **batch CLI** (``python -m repro.service FILE``) reads ``dependencies``,
  ``shards`` and the result-cache size;
* the **async server** (``python -m repro.service serve``) additionally reads
  the micro-batch window size bound (``max_batch``), the admission-queue
  depth (``queue_limit``), the ``overload`` policy and the listen address;
* :meth:`ServiceConfig.install_hooks` arms the process-wide fault plan and
  telemetry, :meth:`ServiceConfig.make_session` builds (or restores from
  ``snapshot_dir``) the one session every backend has, and
  :meth:`ServiceConfig.make_backend` picks the stream backend both entry
  points call ``execute_many`` on — that
  :class:`~repro.service.session.Session` itself for ``shards == 1``, else a
  :class:`~repro.service.executor.ShardExecutor` sharding it — so the
  consumers cannot drift apart on defaults, on dispatch or on snapshots.

:func:`add_config_arguments` / :func:`config_from_args` translate the shared
dataclass to and from ``argparse`` flags; both CLI modes use them, which is
what keeps ``--dependencies``/``--shards``/``--cache-size`` spelled and
validated identically in file mode and serve mode.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, replace
from typing import Optional

from repro.dependencies.pd import PartitionDependency, parse_pd_set
from repro.errors import ServiceError

#: Admission behaviours when the bounded queue is full: ``block`` delays the
#: reader (TCP-level pushback), ``shed`` answers immediately with a
#: well-formed ``ok=false`` result.
OVERLOAD_POLICIES = ("block", "shed")


def parse_dependency_text(text: Optional[str]) -> tuple[PartitionDependency, ...]:
    """Parse the CLI's ``"A = A*B; B = B*C"`` dependency syntax (``None``/empty → ())."""
    if not text:
        return ()
    try:
        return tuple(parse_pd_set(part for part in text.split(";") if part.strip()))
    except ServiceError:
        raise
    except Exception as exc:
        raise ServiceError(f"cannot parse dependencies {text!r}: {exc}") from None


@dataclass(frozen=True)
class ServiceConfig:
    """Every tunable of the query service, in one validated place.

    ``shards == 1`` means in-process dispatch.  ``result_cache_size`` sizes
    the session's result cache, the backend's only one (for a sharded
    backend it is the executor's parent-side shared tier).
    ``max_batch`` bounds the micro-batch window's size (a window also closes
    as soon as the backlog is empty, so it has no time bound);
    ``queue_limit`` bounds admission; ``port = 0`` asks the OS for an
    ephemeral port.
    """

    dependencies: tuple[PartitionDependency, ...] = ()
    shards: int = 1
    result_cache_size: int = 1024
    max_batch: int = 32
    queue_limit: int = 256
    overload: str = "block"
    host: str = "127.0.0.1"
    port: int = 0
    stats: bool = False
    snapshot_dir: Optional[str] = None
    window_budget_ms: Optional[float] = None
    breaker_threshold: int = 4
    fault_plan: Optional[str] = None
    trace: bool = False
    metrics_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ServiceError(f"shards must be at least 1, got {self.shards}")
        if self.result_cache_size < 0:
            raise ServiceError(f"result_cache_size must be >= 0, got {self.result_cache_size}")
        if self.max_batch < 1:
            raise ServiceError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.queue_limit < 1:
            raise ServiceError(f"queue_limit must be >= 1, got {self.queue_limit}")
        if self.overload not in OVERLOAD_POLICIES:
            raise ServiceError(
                f"unknown overload policy {self.overload!r}; expected one of {OVERLOAD_POLICIES}"
            )
        if not (0 <= self.port <= 65535):
            raise ServiceError(f"port must be in [0, 65535], got {self.port}")
        if self.window_budget_ms is not None and self.window_budget_ms <= 0:
            raise ServiceError(
                f"window_budget_ms must be positive, got {self.window_budget_ms}"
            )
        if self.breaker_threshold < 0:
            raise ServiceError(
                f"breaker_threshold must be >= 0 (0 disables), got {self.breaker_threshold}"
            )
        if self.fault_plan is not None:
            from repro.service.faults import FaultPlan

            FaultPlan.from_json(self.fault_plan)  # fail loudly at config time

    # -- factories -------------------------------------------------------------

    def with_dependencies(self, text: Optional[str]) -> "ServiceConfig":
        """This config over the parsed ``--dependencies`` string."""
        return replace(self, dependencies=parse_dependency_text(text))

    def read_boot_snapshot(self) -> Optional[str]:
        """The snapshot text in ``snapshot_dir``, if both are present.

        The text is unverified — the restore path refuses corruption and
        version skew with a :class:`~repro.errors.ServiceError`, which the
        entry points surface instead of silently booting cold.
        """
        if self.snapshot_dir is None:
            return None
        from repro.service.snapshot import read_snapshot

        return read_snapshot(self.snapshot_dir)

    def make_session(self):
        """An in-process :class:`~repro.service.session.Session` per this config.

        With ``snapshot_dir`` set and a snapshot on disk, the session is
        *restored* from it (its Γs, generations and result cache; every index
        is rebuilt from Γ) instead of built empty.  A configured non-empty Γ
        must match the snapshot's; an empty configured Γ adopts the
        snapshot's.  This is the only place either backend's session is made.
        """
        from repro.service.session import Session

        snapshot = self.read_boot_snapshot()
        if snapshot is not None:
            return Session.restore(
                snapshot,
                result_cache_size=self.result_cache_size,
                expected_dependencies=self.dependencies or None,
            )
        return Session(self.dependencies, result_cache_size=self.result_cache_size)

    def make_executor(self, metrics=None, session=None):
        """A :class:`~repro.service.executor.ShardExecutor` sharding ``session``.

        ``session`` defaults to :meth:`make_session`'s; its Γs boot the
        workers and its result cache is the shared tier.  ``metrics`` is the
        registry the pool counts into.
        """
        from repro.service.executor import ShardExecutor

        return ShardExecutor(
            shards=self.shards,
            session=self.make_session() if session is None else session,
            fault_plan=self.fault_plan,
            metrics=metrics,
        )

    @property
    def backend_name(self) -> str:
        """``session`` for in-process dispatch, else ``shards=N``."""
        return "session" if self.shards == 1 else f"shards={self.shards}"

    def make_backend(self, metrics=None, session=None):
        """The stream backend over ``session`` (default: :meth:`make_session`'s).

        The session itself for ``shards == 1``, else a :meth:`make_executor`
        sharding it; both answer ``execute_many(requests) ->
        list[QueryResult]``, and the shard count is the only thing that picks
        between them.  ``metrics`` goes to the executor.  Call
        :meth:`install_hooks` first, so workers inherit the telemetry switch.
        """
        if session is None:
            session = self.make_session()
        return session if self.shards == 1 else self.make_executor(metrics, session)

    def install_hooks(self, metrics=None) -> None:
        """Arm this process's fault plan and telemetry per this config.

        A ``fault_plan`` is installed process-wide; without one, whatever
        plan the process already holds stays.  ``metrics``, when given,
        becomes the registry telemetry's opt-in counters go to.
        """
        from repro.service import faults, telemetry

        if self.fault_plan is not None:
            faults.install_fault_plan(self.fault_plan)
        telemetry.configure(trace=self.trace, metrics_dir=self.metrics_dir, registry=metrics)


def add_config_arguments(parser: argparse.ArgumentParser, serve: bool = False) -> None:
    """Install the shared service flags (plus the serve-only window/listen flags)."""
    defaults = ServiceConfig()
    parser.add_argument(
        "-d",
        "--dependencies",
        default="",
        help="base Γ for the session: semicolon-separated PDs, e.g. 'A = A*B; C = A + B'",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=defaults.shards,
        help="number of worker processes (1 = in-process; default 1)",
    )
    parser.add_argument(
        "--cache-size",
        type=int,
        default=defaults.result_cache_size,
        help=(
            "result-cache entries: the in-process session's, or with --shards N the "
            f"parent-side shared tier's (0 disables; default {defaults.result_cache_size})"
        ),
    )
    parser.add_argument("--stats", action="store_true", help="print a summary line to stderr")
    parser.add_argument(
        "--fault-plan",
        default=None,
        help="a FaultPlan JSON document for deterministic chaos testing (see repro.service.faults)",
    )
    parser.add_argument(
        "--snapshot-dir",
        default=None,
        help=(
            "directory for durable session snapshots: restore the session (Γs, "
            "generations and result cache; indexes are rebuilt from Γ) from "
            "session.snapshot.json on boot when present, and save one on drain "
            "(serve mode) or after the stream (file mode), with --shards N too"
        ),
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help=(
            "mint a trace id per request (unless the request carries one) and "
            "record per-stage spans; result lines stay byte-identical"
        ),
    )
    parser.add_argument(
        "--metrics-dir",
        default=None,
        help=(
            "directory for telemetry dumps: trace.jsonl (spans), costlog.jsonl "
            "(per-work-unit kernel cost records) and metrics.jsonl (registry "
            "exports); implies telemetry collection"
        ),
    )
    if not serve:
        return
    parser.add_argument("--host", default=defaults.host, help=f"listen address (default {defaults.host})")
    parser.add_argument(
        "--port",
        type=int,
        default=defaults.port,
        help="listen port (0 = ephemeral; the bound port is announced on stderr)",
    )
    parser.add_argument(
        "--max-batch",
        type=int,
        default=defaults.max_batch,
        help=f"micro-batch window size bound (default {defaults.max_batch})",
    )
    parser.add_argument(
        "--queue-limit",
        type=int,
        default=defaults.queue_limit,
        help=f"bounded admission-queue depth (default {defaults.queue_limit})",
    )
    parser.add_argument(
        "--overload",
        choices=OVERLOAD_POLICIES,
        default=defaults.overload,
        help="policy when the admission queue is full: delay reads or shed with an error result",
    )
    parser.add_argument(
        "--window-budget-ms",
        type=float,
        default=defaults.window_budget_ms,
        help=(
            "execution budget per micro-batch window in milliseconds; an over-budget "
            "window degrades to a per-request retry lane (default: none)"
        ),
    )
    parser.add_argument(
        "--breaker-threshold",
        type=int,
        default=defaults.breaker_threshold,
        help=(
            "worker crashes before the circuit breaker trips sharded execution down "
            f"to in-process (0 disables; default {defaults.breaker_threshold})"
        ),
    )


def config_from_args(args: argparse.Namespace) -> ServiceConfig:
    """The :class:`ServiceConfig` an ``argparse`` namespace describes.

    Raises :class:`~repro.errors.ServiceError` on invalid values (the CLI
    turns that into exit code 2), so both modes validate identically.
    """
    try:
        dependencies = parse_dependency_text(args.dependencies)
    except ServiceError as exc:
        raise ServiceError(f"cannot parse --dependencies: {exc}") from None
    return ServiceConfig(
        dependencies=dependencies,
        shards=args.shards,
        result_cache_size=args.cache_size,
        max_batch=getattr(args, "max_batch", ServiceConfig.max_batch),
        queue_limit=getattr(args, "queue_limit", ServiceConfig.queue_limit),
        overload=getattr(args, "overload", ServiceConfig.overload),
        host=getattr(args, "host", ServiceConfig.host),
        port=getattr(args, "port", ServiceConfig.port),
        stats=args.stats,
        snapshot_dir=getattr(args, "snapshot_dir", None),
        window_budget_ms=getattr(args, "window_budget_ms", None),
        breaker_threshold=getattr(args, "breaker_threshold", ServiceConfig.breaker_threshold),
        fault_plan=getattr(args, "fault_plan", None),
        trace=getattr(args, "trace", False),
        metrics_dir=getattr(args, "metrics_dir", None),
    )
