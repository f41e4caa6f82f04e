"""Tests for the engine's host-robustness layer.

Retry/backoff/quarantine/degradation are pure *scheduling* changes: every
re-run executes the identical block function, so the determinism contract
of ``test_engine.py`` survives them.  These tests exercise the failure
paths themselves.
"""

import subprocess
import sys
import threading
import time

from typing import List

import pytest

from repro.analysis.envvars import ENV_TASK_RETRIES, ENV_TASK_TIMEOUT
from repro.errors import (
    ChaosError,
    ConfigurationError,
    TaskTimeoutError,
    TransientDMAError,
)
from repro.runtime import engine as engine_mod
from repro.runtime.chaos import resolve_chaos
from repro.runtime.engine import (
    ExecutionEngine,
    SerialEngine,
    TaskPolicy,
    ThreadEngine,
    resolve_task_policy,
    shutdown_pools,
)
from repro.runtime.process_engine import ProcessEngine


class TestTaskPolicy:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TaskPolicy(max_retries=-1)
        with pytest.raises(ConfigurationError):
            TaskPolicy(backoff_factor=0.5)
        with pytest.raises(ConfigurationError):
            TaskPolicy(jitter=2.0)
        with pytest.raises(ConfigurationError):
            TaskPolicy(timeout_s=0.0)
        with pytest.raises(ConfigurationError):
            TaskPolicy(quarantine_after=0)

    def test_backoff_is_exponential_and_jittered(self):
        policy = TaskPolicy(backoff_s=0.01, backoff_factor=2.0, jitter=0.25)
        d1 = policy.backoff_delay(7, 1)
        d2 = policy.backoff_delay(7, 2)
        assert 0.01 <= d1 <= 0.01 * 1.25
        assert 0.02 <= d2 <= 0.02 * 1.25
        # Deterministic: a pure function of (task_id, attempt), so replays
        # (and other engines) compute the identical delay.
        assert policy.backoff_delay(7, 1) == d1
        assert policy.backoff_delay(8, 1) != d1

    def test_zero_jitter(self):
        policy = TaskPolicy(backoff_s=0.5, backoff_factor=3.0, jitter=0.0)
        assert policy.backoff_delay(0, 1) == 0.5
        assert policy.backoff_delay(0, 2) == 1.5


class TestResolveTaskPolicy:
    @pytest.fixture(autouse=True)
    def _clean_env(self, monkeypatch):
        monkeypatch.delenv(ENV_TASK_RETRIES.name, raising=False)
        monkeypatch.delenv(ENV_TASK_TIMEOUT.name, raising=False)

    def test_defaults(self):
        policy = resolve_task_policy()
        assert policy.max_retries == 2
        assert policy.timeout_s is None

    def test_explicit_passthrough(self):
        policy = TaskPolicy(max_retries=9)
        assert resolve_task_policy(policy) is policy

    def test_env_overrides(self, monkeypatch):
        monkeypatch.setenv(ENV_TASK_RETRIES.name, "5")
        monkeypatch.setenv(ENV_TASK_TIMEOUT.name, "2.5")
        policy = resolve_task_policy()
        assert policy.max_retries == 5
        assert policy.timeout_s == 2.5

    def test_env_bad_values_rejected(self, monkeypatch):
        monkeypatch.setenv(ENV_TASK_RETRIES.name, "many")
        with pytest.raises(ConfigurationError, match=ENV_TASK_RETRIES.name):
            resolve_task_policy()


class FlakyFn:
    """Fails the first ``failures`` calls per item, then succeeds."""

    def __init__(self, failures=1, exc=RuntimeError):
        self.failures = failures
        self.exc = exc
        self.calls = {}
        self._lock = threading.Lock()

    def __call__(self, item):
        with self._lock:
            n = self.calls.get(item, 0)
            self.calls[item] = n + 1
        if n < self.failures:
            raise self.exc(f"flaky item {item} call {n}")
        return item * 10


@pytest.mark.parametrize("engine_factory", [
    lambda p: SerialEngine(policy=p),
    lambda p: ThreadEngine(2, policy=p),
])
class TestRetryLadder:
    def test_transient_failures_absorbed(self, engine_factory):
        fn = FlakyFn(failures=2)
        engine = engine_factory(TaskPolicy(max_retries=2, backoff_s=0.0))
        assert engine.map(fn, range(4)) == [0, 10, 20, 30]
        events = engine.drain_events()
        assert sum(1 for k, _, _ in events if k == "task_retry") == 8

    def test_retry_exhaustion_reraises_original(self, engine_factory):
        fn = FlakyFn(failures=99)
        engine = engine_factory(TaskPolicy(max_retries=1, backoff_s=0.0))
        with pytest.raises(RuntimeError, match="flaky item"):
            engine.map(fn, range(4))

    def test_fault_errors_exempt_from_retries(self, engine_factory):
        # Modelled machine faults belong to the recovery policies, not to
        # host retries: one attempt, straight through.
        fn = FlakyFn(failures=99, exc=TransientDMAError)
        engine = engine_factory(TaskPolicy(max_retries=3, backoff_s=0.0))
        with pytest.raises(TransientDMAError):
            engine.map(fn, range(4))
        assert max(fn.calls.values()) == 1


def _times_ten(item: int) -> int:
    """Module-level task body, so the process engine can ship it."""
    return item * 10


def _chaos_ladder_engines(max_retries: int) -> List[ExecutionEngine]:
    """Serial, thread(2) and process(2) engines failing task 2 once.

    ``FlakyFn`` cannot drive the process engine (its call counter would
    live in the worker), but a chaos decision is a pure function of the
    task id and attempt, so the same failure reaches every ladder.
    """
    policy = TaskPolicy(max_retries=max_retries, backoff_s=0.0)
    plan = "task_exception@2;seed=1"
    return [SerialEngine(policy=policy, chaos=resolve_chaos(plan)),
            ThreadEngine(2, policy=policy, chaos=resolve_chaos(plan)),
            ProcessEngine(2, policy=policy, chaos=resolve_chaos(plan))]


class TestRetryLadderAcrossEngines:
    def test_one_retry_is_identical_on_every_engine(self) -> None:
        outcomes = []
        for engine in _chaos_ladder_engines(max_retries=2):
            result = engine.map(_times_ten, range(4))
            events = [(kind, detail)
                      for kind, detail, _ in engine.drain_events()]
            outcomes.append((result, events))
        result, events = outcomes[0]
        assert result == [0, 10, 20, 30]
        assert [kind for kind, _ in events] == ["chaos", "task_retry"]
        assert outcomes[1] == outcomes[0]
        assert outcomes[2] == outcomes[0]

    def test_zero_retries_reraise_on_every_engine(self) -> None:
        for engine in _chaos_ladder_engines(max_retries=0):
            with pytest.raises(ChaosError):
                engine.map(_times_ten, range(4))


class TestTimeouts:
    def test_straggler_speculatively_rerun(self):
        calls = {}
        lock = threading.Lock()

        def straggler(item):
            with lock:
                n = calls.get(item, 0)
                calls[item] = n + 1
            if item == 0 and n == 0:  # only item 0's first run is slow
                time.sleep(0.4)
            return item + 1

        engine = ThreadEngine(2, policy=TaskPolicy(timeout_s=0.05,
                                                   backoff_s=0.0))
        assert engine.map(straggler, range(4)) == [1, 2, 3, 4]
        kinds = [k for k, _, _ in engine.drain_events()]
        assert "task_timeout" in kinds
        # The straggler's slot is written off as hung.
        assert engine.healthy_slots < engine.workers

    def test_timeout_exhaustion_raises(self):
        def sleepy(item):
            time.sleep(0.3)
            return item

        # max_retries=0: the first timeout is already one attempt too many,
        # so the engine gives up instead of speculating.
        engine = ThreadEngine(2, policy=TaskPolicy(timeout_s=0.05,
                                                   max_retries=0))
        with pytest.raises(TaskTimeoutError):
            engine.map(sleepy, range(4))


def _slot_killer(workers=2):
    """Fail exactly once on each pool worker thread, never inline.

    A barrier holds each pool thread at its first task until every slot
    has picked one up, so all ``workers`` slots deterministically record a
    failure (no race where one fast thread drains the whole queue).
    Inline re-runs happen on the collecting thread and succeed.
    """
    main = threading.get_ident()
    barrier = threading.Barrier(workers, timeout=10)
    failed = set()
    lock = threading.Lock()

    def fn(item):
        ident = threading.get_ident()
        if ident != main:
            with lock:
                fresh = ident not in failed
                if fresh:
                    failed.add(ident)
            if fresh:
                barrier.wait()
                raise RuntimeError(f"slot {ident} failure")
        return item * 10

    return fn


class TestQuarantineAndDegradation:
    def test_failing_slots_quarantined_then_degraded(self):
        engine = ThreadEngine(2, policy=TaskPolicy(max_retries=2,
                                                   backoff_s=0.0,
                                                   quarantine_after=1))
        # One failure per slot quarantines both slots; with zero healthy
        # slots left the engine falls back to inline serial execution —
        # results unchanged.
        assert engine.map(_slot_killer(), range(8)) \
            == [i * 10 for i in range(8)]
        events = engine.drain_events()
        kinds = [k for k, _, _ in events]
        assert kinds.count("quarantine") == 2
        assert "degraded_serial" in kinds
        assert engine.degraded
        assert engine.healthy_slots < 1

    def test_degraded_engine_still_maps_correctly(self):
        engine = ThreadEngine(2, policy=TaskPolicy(max_retries=2,
                                                   backoff_s=0.0,
                                                   quarantine_after=1))
        engine.map(_slot_killer(), range(8))
        assert engine.degraded
        # Sticky degradation: later maps run inline and still work.
        assert engine.map(lambda i: i - 1, range(5)) == list(range(-1, 4))
        assert engine.degraded


class TestPoolLifecycle:
    def test_shutdown_pools_clears_cache(self):
        engine = ThreadEngine(3)
        engine.map(lambda i: i, range(8))
        assert 3 in engine_mod._POOLS
        shutdown_pools()
        assert engine_mod._POOLS == {}
        # The engine transparently builds a fresh pool afterwards.
        assert engine.map(lambda i: i * 2, range(4)) == [0, 2, 4, 6]
        shutdown_pools()

    def test_interpreter_exit_not_blocked_by_pools(self):
        # Regression for the atexit hook: a process that used the thread
        # engine (and never called shutdown_pools) must exit promptly.
        script = (
            "from repro.runtime.engine import ThreadEngine\n"
            "engine = ThreadEngine(4)\n"
            "assert engine.map(lambda i: i * i, range(32)) \\\n"
            "    == [i * i for i in range(32)]\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], timeout=60,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
