"""ServiceConfig: the one validated configuration surface of the query service.

Both CLI modes, the socket server and the factories all consume the same
frozen dataclass, so these tests pin (a) validation of every tunable, (b) the
argparse round-trip for file mode and serve mode, and (c) the session /
executor factories honouring the config.
"""

import argparse

import pytest

from repro.errors import ServiceError
from repro.service import faults, telemetry
from repro.service.config import (
    OVERLOAD_POLICIES,
    ServiceConfig,
    add_config_arguments,
    config_from_args,
    parse_dependency_text,
)
from repro.service.executor import ShardExecutor
from repro.service.session import Session


class TestValidation:
    def test_defaults_are_valid(self):
        config = ServiceConfig()
        assert config.shards == 1
        assert config.overload in OVERLOAD_POLICIES
        assert config.port == 0

    @pytest.mark.parametrize(
        "kwargs,needle",
        [
            ({"shards": 0}, "shards"),
            ({"result_cache_size": -1}, "result_cache_size"),
            ({"max_batch": 0}, "max_batch"),
            ({"queue_limit": 0}, "queue_limit"),
            ({"overload": "explode"}, "overload"),
            ({"port": 70000}, "port"),
        ],
    )
    def test_invalid_values_are_rejected_with_named_errors(self, kwargs, needle):
        with pytest.raises(ServiceError, match=needle):
            ServiceConfig(**kwargs)

    def test_dependency_text_parsing(self):
        deps = parse_dependency_text("A = A*B; B = B*C")
        assert [str(pd) for pd in deps] == ["A = A * B", "B = B * C"]
        assert parse_dependency_text("") == ()
        assert parse_dependency_text(None) == ()
        with pytest.raises(ServiceError):
            parse_dependency_text("A = = B")

    def test_with_dependencies_returns_a_new_config(self):
        base = ServiceConfig(max_batch=8)
        derived = base.with_dependencies("A = A*B")
        assert base.dependencies == ()
        assert [str(pd) for pd in derived.dependencies] == ["A = A * B"]
        assert derived.max_batch == 8  # other fields carried over


class TestArgparseRoundTrip:
    def _parse(self, argv, serve):
        parser = argparse.ArgumentParser()
        add_config_arguments(parser, serve=serve)
        return config_from_args(parser.parse_args(argv))

    def test_file_mode_flags(self):
        config = self._parse(
            ["-d", "A = A*B", "--shards", "3", "--cache-size", "64", "--stats"], serve=False
        )
        assert [str(pd) for pd in config.dependencies] == ["A = A * B"]
        assert config.shards == 3
        assert config.result_cache_size == 64
        assert config.stats
        # Serve-only knobs keep their defaults in file mode.
        assert config.max_batch == ServiceConfig.max_batch
        assert config.overload == ServiceConfig.overload

    def test_serve_mode_flags(self):
        config = self._parse(
            [
                "--host", "0.0.0.0",
                "--port", "4321",
                "--max-batch", "16",
                "--queue-limit", "9",
                "--overload", "shed",
            ],
            serve=True,
        )
        assert (config.host, config.port) == ("0.0.0.0", 4321)
        assert config.max_batch == 16
        assert config.queue_limit == 9
        assert config.overload == "shed"

    def test_bad_dependency_flag_names_the_flag(self):
        parser = argparse.ArgumentParser()
        add_config_arguments(parser, serve=False)
        with pytest.raises(ServiceError, match="cannot parse --dependencies"):
            config_from_args(parser.parse_args(["-d", "A = = B"]))

    def test_invalid_values_surface_as_service_errors(self):
        parser = argparse.ArgumentParser()
        add_config_arguments(parser, serve=True)
        with pytest.raises(ServiceError):
            config_from_args(parser.parse_args(["--queue-limit", "0"]))

    def test_the_metrics_dump_period_is_not_a_flag(self, capsys):
        # serve mode dumps --metrics-dir every second and on drain; there is no knob
        parser = argparse.ArgumentParser()
        add_config_arguments(parser, serve=True)
        with pytest.raises(SystemExit) as exit_info:
            parser.parse_args(["--metrics-dir", "out", "--metrics-interval-ms", "250"])
        assert exit_info.value.code == 2
        assert "--metrics-interval-ms" in capsys.readouterr().err

    def test_the_window_has_no_timer_flag(self, capsys):
        # a window closes on an empty backlog, at --max-batch or at drain
        parser = argparse.ArgumentParser()
        add_config_arguments(parser, serve=True)
        with pytest.raises(SystemExit) as exit_info:
            parser.parse_args(["--max-wait-ms", "5"])
        assert exit_info.value.code == 2
        assert "--max-wait-ms" in capsys.readouterr().err
        with pytest.raises(TypeError):
            ServiceConfig(max_wait_ms=5.0)


class TestFactories:
    def test_make_session_applies_dependencies_and_tuning(self):
        config = ServiceConfig(result_cache_size=7).with_dependencies("A = A*B; B = B*C")
        session = config.make_session()
        assert isinstance(session, Session)
        assert session.implies("A = A * C").implied  # transitively, via the config's Γ

    def test_make_executor_carries_the_shard_count(self):
        config = ServiceConfig(shards=2)
        executor = config.make_executor()
        assert isinstance(executor, ShardExecutor)
        assert executor.shards == 2

    def test_make_backend_picks_by_shard_count(self):
        in_process = ServiceConfig()
        assert isinstance(in_process.make_backend(), Session)
        assert in_process.backend_name == "session"
        sharded = ServiceConfig(shards=3)
        assert isinstance(sharded.make_backend(), ShardExecutor)
        assert sharded.backend_name == "shards=3"


class TestInstallHooks:
    """``install_hooks`` is the one copy of the process-wide hook arming."""

    @pytest.fixture(autouse=True)
    def _pristine_hooks(self):
        faults.clear_fault_plan()
        telemetry.reset()
        yield
        faults.clear_fault_plan()
        telemetry.reset()

    def test_an_explicit_fault_plan_is_armed(self):
        plan = faults.FaultPlan(seed=4, faults=(faults.Fault(kind="crash_request", request_id="q1"),))
        ServiceConfig(fault_plan=plan.to_json()).install_hooks()
        assert faults.installed_plan() == plan

    def test_an_installed_plan_stays_without_an_explicit_one(self):
        plan = faults.FaultPlan(seed=6, faults=(faults.Fault(kind="crash_request", request_id="q2"),))
        faults.install_fault_plan(plan)
        ServiceConfig().install_hooks()
        assert faults.installed_plan() == plan

    def test_an_explicit_fault_plan_replaces_an_installed_one(self):
        explicit = faults.FaultPlan(seed=1, faults=(faults.Fault(kind="crash_request", request_id="a"),))
        ambient = faults.FaultPlan(seed=2, faults=(faults.Fault(kind="crash_request", request_id="b"),))
        faults.install_fault_plan(ambient)
        ServiceConfig(fault_plan=explicit.to_json()).install_hooks()
        assert faults.installed_plan() == explicit

    def test_no_plan_anywhere_leaves_injection_off(self):
        ServiceConfig().install_hooks()
        assert faults.installed_plan() is None

    def test_telemetry_follows_the_trace_flag(self):
        ServiceConfig(trace=True).install_hooks()
        assert telemetry.enabled()
        ServiceConfig().install_hooks()
        assert not telemetry.enabled()

    def test_a_metrics_dir_turns_telemetry_on(self, tmp_path):
        ServiceConfig(metrics_dir=str(tmp_path)).install_hooks()
        assert telemetry.enabled()
        assert telemetry.metrics_dir() == tmp_path
