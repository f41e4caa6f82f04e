"""Tests for the host-side run supervisor (deadlines, watchdogs, events)."""

import pytest

from repro.analysis.envvars import ENV_DEADLINE
from repro.errors import ConfigurationError, DeadlineExceededError
from repro.runtime.supervisor import (
    HostEvent,
    RunSupervisor,
    resolve_supervisor,
)


class FakeClock:
    """Monotonic clock the tests advance by hand."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


class TestHostEvent:
    def test_describe(self):
        e = HostEvent(3, "task_retry", "task 7 attempt 1", 0.5)
        line = e.describe()
        assert "iter 3" in line
        assert "task_retry" in line
        assert "task 7 attempt 1" in line
        assert "0.500s" in line

    def test_describe_minimal(self):
        assert HostEvent(0, "resume").describe() == "iter 0 resume"


class TestRunSupervisor:
    def test_validation(self):
        with pytest.raises(ConfigurationError, match="deadline_s"):
            RunSupervisor(deadline_s=0)
        with pytest.raises(ConfigurationError, match="deadline_s"):
            RunSupervisor(deadline_s=-1.0)
        with pytest.raises(ConfigurationError, match="watchdog_s"):
            RunSupervisor(watchdog_s=0)

    def test_no_deadline_never_raises(self):
        clock = FakeClock()
        sup = RunSupervisor(clock=clock)
        sup.start()
        clock.advance(1e9)
        sup.begin_iteration(1)  # no deadline configured: fine

    def test_deadline_enforced_at_iteration_boundary(self):
        clock = FakeClock()
        sup = RunSupervisor(deadline_s=10.0, clock=clock)
        sup.start()
        clock.advance(9.9)
        sup.begin_iteration(1)
        clock.advance(0.2)  # now past the deadline
        with pytest.raises(DeadlineExceededError, match="10"):
            sup.begin_iteration(2)
        # The abort left an audit trail.
        kinds = [e.kind for e in sup.events]
        assert "deadline_exceeded" in kinds

    def test_elapsed_before_start_is_zero(self):
        sup = RunSupervisor(clock=FakeClock())
        assert sup.elapsed() == 0.0

    def test_begin_iteration_auto_starts(self):
        clock = FakeClock()
        sup = RunSupervisor(deadline_s=5.0, clock=clock)
        sup.begin_iteration(1)  # never explicitly started
        clock.advance(6.0)
        with pytest.raises(DeadlineExceededError):
            sup.begin_iteration(2)

    def test_watchdog_flags_slow_iterations(self):
        clock = FakeClock()
        sup = RunSupervisor(watchdog_s=1.0, clock=clock)
        sup.start()
        sup.begin_iteration(1)
        clock.advance(0.5)
        sup.end_iteration(1)  # fast: no event
        sup.begin_iteration(2)
        clock.advance(2.5)
        sup.end_iteration(2)  # slow: flagged
        slow = [e for e in sup.events if e.kind == "slow_iteration"]
        assert len(slow) == 1
        assert slow[0].iteration == 2
        assert slow[0].seconds == pytest.approx(2.5)

    def test_record_stamps_current_iteration(self):
        sup = RunSupervisor(clock=FakeClock())
        sup.begin_iteration(7)
        event = sup.record("rollback", "restored checkpoint")
        assert event.iteration == 7
        assert sup.events == [event]

    def test_absorb_drains_engine_events(self):
        class StubEngine:
            def drain_events(self):
                return [("task_retry", "task 3 attempt 1", 0.01)]

        sup = RunSupervisor(clock=FakeClock())
        sup.begin_iteration(4)
        sup.absorb(StubEngine())
        assert sup.events == [HostEvent(4, "task_retry",
                                        "task 3 attempt 1", 0.01)]

    def test_absorb_tolerates_engines_without_events(self):
        sup = RunSupervisor(clock=FakeClock())
        sup.absorb(object())  # no drain_events: a no-op
        assert sup.events == []


class TestResolveSupervisor:
    @pytest.fixture(autouse=True)
    def _clean_env(self, monkeypatch):
        monkeypatch.delenv(ENV_DEADLINE.name, raising=False)

    def test_default_build(self):
        sup = resolve_supervisor()
        assert isinstance(sup, RunSupervisor)
        assert sup.deadline_s is None
        assert sup.watchdog_s is None

    def test_explicit_knobs(self):
        sup = resolve_supervisor(deadline_s=30.0, watchdog_s=2.0)
        assert sup.deadline_s == 30.0
        assert sup.watchdog_s == 2.0

    def test_instance_passthrough(self):
        sup = RunSupervisor(deadline_s=5.0)
        assert resolve_supervisor(sup) is sup
        assert resolve_supervisor(sup, deadline_s=5.0) is sup

    def test_instance_conflict_rejected(self):
        with pytest.raises(ConfigurationError, match="conflicts"):
            resolve_supervisor(RunSupervisor(deadline_s=5.0), deadline_s=9.0)

    def test_env_deadline(self, monkeypatch):
        monkeypatch.setenv(ENV_DEADLINE.name, "120.5")
        assert resolve_supervisor().deadline_s == 120.5

    def test_env_ignored_when_explicit(self, monkeypatch):
        monkeypatch.setenv(ENV_DEADLINE.name, "120.5")
        assert resolve_supervisor(deadline_s=7.0).deadline_s == 7.0

    @pytest.mark.parametrize("value", ["", "  "])
    def test_env_empty_is_unset(self, monkeypatch, value):
        monkeypatch.setenv(ENV_DEADLINE.name, value)
        assert resolve_supervisor().deadline_s is None

    def test_env_bad_value_rejected(self, monkeypatch):
        monkeypatch.setenv(ENV_DEADLINE.name, "soon")
        with pytest.raises(ConfigurationError, match=ENV_DEADLINE.name):
            resolve_supervisor()
