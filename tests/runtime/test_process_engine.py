"""Process-engine contract: parity, supervision, respawn, quarantine.

The crash-tolerance story only counts if the numbers stay exact: every
test here that kills, wedges, or poisons workers also asserts the results
are bit-identical to the fault-free serial engine.  Worker chaos kinds
fire *inside* the forked workers (the parent only observes the deaths),
so the parent-side numerics never see a difference.
"""

import numpy as np
import pytest

from repro.analysis.envvars import ENV_ENGINE, ENV_WORKERS
from repro.core.init import init_centroids
from repro.core.lloyd import lloyd
from repro.data.synthetic import gaussian_blobs
from repro.errors import ConfigurationError
from repro.runtime.chaos import ChaosInjector, parse_chaos_plan
from repro.runtime.engine import (
    SerialEngine,
    TaskPolicy,
    resolve_engine,
    shutdown_pools,
)
from repro.runtime.process_engine import ProcessEngine
from repro.runtime.shm import ArrayRef, as_ndarray


@pytest.fixture(scope="module", autouse=True)
def _teardown_pools():
    yield
    shutdown_pools()


# Module-level task bodies: the process engine requires picklable
# callables (reprolint W604), which is itself under test below.

def _square(x):
    return x * x


def _boom(x):
    raise ValueError(f"boom {x}")


def _sum_ref(args):
    ref, lo, hi = args
    return float(as_ndarray(ref)[lo:hi].sum())


def _events(engine, kind):
    return [e for e in engine.drain_events() if e[0] == kind]


# ---------------------------------------------------------------------------
# map semantics
# ---------------------------------------------------------------------------

class TestMapSemantics:
    def test_submission_order_preserved(self):
        engine = ProcessEngine(workers=2)
        assert engine.map(_square, range(16)) == [i * i for i in range(16)]

    def test_empty_and_singleton_run_inline(self):
        engine = ProcessEngine(workers=2)
        assert engine.map(_square, []) == []
        assert engine.map(_square, [3]) == [9]

    def test_workers_one_runs_inline(self):
        engine = ProcessEngine(workers=1)
        assert engine.map(_square, range(5)) == [i * i for i in range(5)]

    def test_worker_exceptions_propagate_after_retries(self):
        engine = ProcessEngine(
            workers=2, policy=TaskPolicy(max_retries=1, backoff_s=0.0))
        with pytest.raises(ValueError, match="boom"):
            engine.map(_boom, range(4))

    def test_lambda_rejected_with_w604_pointer(self) -> None:
        engine = ProcessEngine(workers=2)
        with pytest.raises(ConfigurationError, match="W604"):
            engine.map(lambda x: x, range(4))

    def test_nested_def_rejected(self):
        engine = ProcessEngine(workers=2)

        def local(x):
            return x

        with pytest.raises(ConfigurationError, match="module-level"):
            engine.map(local, range(4))


# ---------------------------------------------------------------------------
# shared-memory operand publishing
# ---------------------------------------------------------------------------

class TestShare:
    def test_share_returns_resolvable_ref(self):
        engine = ProcessEngine(workers=2)
        X = np.arange(24, dtype=np.float64).reshape(6, 4)
        ref = engine.share("X", X)
        assert isinstance(ref, ArrayRef)
        np.testing.assert_array_equal(as_ndarray(ref), X)

    def test_share_passthrough_when_inline(self):
        engine = ProcessEngine(workers=1)
        X = np.ones(4)
        assert engine.share("X", X) is X

    def test_workers_read_shared_segment(self):
        engine = ProcessEngine(workers=2)
        X = np.arange(100, dtype=np.float64)
        ref = engine.share("X", X)
        got = engine.map(_sum_ref, [(ref, i * 25, (i + 1) * 25)
                                    for i in range(4)])
        want = [float(X[i * 25:(i + 1) * 25].sum()) for i in range(4)]
        assert got == want

    def test_republish_rewrites_in_place(self):
        engine = ProcessEngine(workers=2)
        a = np.arange(10, dtype=np.float64)
        ref_a = engine.share("C", a)
        ref_b = engine.share("C", a * 2)
        assert ref_a.name == ref_b.name  # same segment, rewritten
        np.testing.assert_array_equal(as_ndarray(ref_b), a * 2)


# ---------------------------------------------------------------------------
# numerical parity with the serial engine
# ---------------------------------------------------------------------------

def _run_lloyd(engine, chunk_elements=512):
    X, _ = gaussian_blobs(n=400, k=3, d=4, seed=5)
    rng = np.random.default_rng(2)
    C0 = X[rng.choice(400, 3, replace=False)].copy()
    return lloyd(X, C0, max_iter=6, engine=engine,
                 chunk_elements=chunk_elements)


def _assert_bit_identical(a, b):
    np.testing.assert_array_equal(a.centroids, b.centroids)
    np.testing.assert_array_equal(a.assignments, b.assignments)
    assert a.inertia == b.inertia
    assert [s.inertia for s in a.history] == [s.inertia for s in b.history]


def test_lloyd_process_parity():
    serial = _run_lloyd(SerialEngine())
    process = _run_lloyd(ProcessEngine(workers=2))
    _assert_bit_identical(serial, process)


def test_lloyd_process_matches_serial_lloyd() -> None:
    # A converging run on a larger workload: the process engine must
    # reproduce serial Lloyd's trajectory, stopping point included.
    X, _ = gaussian_blobs(n=2000, k=10, d=12, seed=41)
    C0 = init_centroids(X, 10, method="first")
    ref = lloyd(X, C0, max_iter=30)
    par = lloyd(X, C0, max_iter=30, engine=ProcessEngine(workers=2))
    _assert_bit_identical(ref, par)
    assert par.n_iter == ref.n_iter
    assert par.converged == ref.converged


def test_lloyd_process_worker_count_invariant() -> None:
    # The shards and their merge schedule depend on the problem shape
    # only, so widening the pool past the CPU count moves no bit.
    serial = _run_lloyd(SerialEngine())
    for workers in (2, 3):
        result = _run_lloyd(ProcessEngine(workers=workers))
        _assert_bit_identical(serial, result)
        assert result.history == serial.history


# ---------------------------------------------------------------------------
# worker chaos: kill, hang, poison
# ---------------------------------------------------------------------------

class TestWorkerChaos:
    def test_worker_kill_bit_identical(self):
        # Probabilistic kills across many tasks: every death is one failed
        # attempt, the re-run (attempt >= kills) is clean, and the merge
        # order is canonical — so the numbers cannot move.
        plan = parse_chaos_plan("worker_kill:p=0.4;seed=11")
        engine = ProcessEngine(workers=2, chaos=ChaosInjector(plan))
        serial = _run_lloyd(SerialEngine(), chunk_elements=64)
        chaotic = _run_lloyd(engine, chunk_elements=64)
        _assert_bit_identical(serial, chaotic)
        # lloyd's supervisor absorbs the engine's events into the result.
        lost = [e for e in chaotic.host_events if e.kind == "worker_lost"]
        assert lost, "expected at least one injected worker death"

    def test_worker_kill_records_respawn(self):
        plan = parse_chaos_plan("worker_kill@1;seed=7")
        engine = ProcessEngine(workers=2, chaos=ChaosInjector(plan))
        assert engine.map(_square, range(6)) == [i * i for i in range(6)]
        events = engine.drain_events()
        kinds = [k for k, _, _ in events]
        assert "worker_lost" in kinds
        assert "worker_respawn" in kinds

    def test_worker_hang_detected_and_killed(self):
        plan = parse_chaos_plan("worker_hang@2;seed=3")
        engine = ProcessEngine(workers=2, chaos=ChaosInjector(plan),
                               heartbeat_s=0.5)
        assert engine.map(_square, range(6)) == [i * i for i in range(6)]
        kinds = [k for k, _, _ in engine.drain_events()]
        assert "worker_hung" in kinds
        assert "worker_respawn" in kinds

    def test_poison_task_quarantined_inline(self):
        # One task kills every worker that touches it (kills=5 exceeds the
        # quarantine threshold); the engine must quarantine it to the
        # inline serial path and still return exact results.
        plan = parse_chaos_plan("worker_kill@2:kills=5;seed=1")
        engine = ProcessEngine(
            workers=2, chaos=ChaosInjector(plan),
            policy=TaskPolicy(backoff_s=0.0, quarantine_after=3))
        assert engine.map(_square, range(6)) == [i * i for i in range(6)]
        kinds = [k for k, _, _ in engine.drain_events()]
        assert "poison_quarantine" in kinds

    def test_worker_chaos_inert_on_serial_engine(self):
        # The worker kinds only fire inside process-engine workers; a
        # serial engine given the same plan must run untouched.
        plan = parse_chaos_plan("worker_kill:p=1.0;seed=5")
        engine = SerialEngine(chaos=ChaosInjector(plan))
        assert engine.map(_square, range(4)) == [i * i for i in range(4)]
        assert not engine.drain_events()


# ---------------------------------------------------------------------------
# resolve_engine: graceful degradation
# ---------------------------------------------------------------------------

class TestResolveProcess:
    @pytest.fixture(autouse=True)
    def _clean_env(self, monkeypatch):
        monkeypatch.delenv(ENV_ENGINE.name, raising=False)
        monkeypatch.delenv(ENV_WORKERS.name, raising=False)

    def test_name_resolves_to_process_engine(self):
        engine = resolve_engine("process", workers=2)
        assert isinstance(engine, ProcessEngine)
        assert engine.workers == 2

    def test_env_selects_process(self, monkeypatch):
        monkeypatch.setenv(ENV_ENGINE.name, "process")
        monkeypatch.setenv(ENV_WORKERS.name, "2")
        assert isinstance(resolve_engine(), ProcessEngine)

    def test_no_fork_degrades_to_serial_with_event(self, monkeypatch):
        monkeypatch.setattr("repro.runtime.process_engine._fork_available",
                            lambda: False)
        engine = resolve_engine("process", workers=2)
        assert isinstance(engine, SerialEngine)
        assert _events(engine, "engine_fallback")

    def test_env_process_without_fork_never_crashes(self, monkeypatch):
        monkeypatch.setenv(ENV_ENGINE.name, "process")
        monkeypatch.setattr("repro.runtime.process_engine._fork_available",
                            lambda: False)
        engine = resolve_engine()
        assert isinstance(engine, SerialEngine)
        assert engine.map(_square, range(4)) == [i * i for i in range(4)]

    def test_single_cpu_degrades_to_serial_with_event(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 1)
        engine = resolve_engine("process")
        assert isinstance(engine, SerialEngine)
        assert _events(engine, "engine_fallback")

    def test_explicit_single_worker_degrades(self):
        engine = resolve_engine("process", workers=1)
        assert isinstance(engine, SerialEngine)
        assert _events(engine, "engine_fallback")

    def test_constructor_rejects_missing_fork(self, monkeypatch):
        monkeypatch.setattr("repro.runtime.process_engine._fork_available",
                            lambda: False)
        with pytest.raises(ConfigurationError, match="fork"):
            ProcessEngine(workers=2)
