"""Tests for seeded host-chaos injection at the engine seam.

The harness property pinned here is the tentpole claim of the robustness
layer: under injected host faults a *supervised* run (bounded retries,
numerical guards, rollback recovery) finishes bit-identical to the
fault-free serial baseline, while an *unsupervised* run (retries disabled,
fail-fast) visibly fails.
"""

import numpy as np
import pytest

from repro.analysis.envvars import ENV_CHAOS
from repro.core.init import init_centroids
from repro.core.kmeans import HierarchicalKMeans
from repro.core.lloyd import lloyd
from repro.data.synthetic import gaussian_blobs
from repro.errors import ChaosError, ConfigurationError, NumericalFaultError
from repro.machine.machine import toy_machine
from repro.runtime.chaos import (
    ChaosInjector,
    ChaosPlan,
    ChaosSpec,
    _poison_first_array,
    parse_chaos_plan,
    resolve_chaos,
)
from repro.runtime.engine import SerialEngine, TaskPolicy, ThreadEngine


# ---------------------------------------------------------------------------
# specs + plan grammar
# ---------------------------------------------------------------------------

class TestChaosSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown chaos kind"):
            ChaosSpec("meteor_strike", task_id=0)

    def test_stochastic_needs_probability(self):
        with pytest.raises(ConfigurationError, match="probability"):
            ChaosSpec("task_exception")

    def test_bad_probability_rejected(self):
        with pytest.raises(ConfigurationError):
            ChaosSpec("task_exception", probability=1.5)

    def test_negative_task_id_rejected(self):
        with pytest.raises(ConfigurationError):
            ChaosSpec("task_exception", task_id=-1)


class TestParseChaosPlan:
    def test_exact_and_stochastic(self):
        plan = parse_chaos_plan(
            "task_exception@7;slow_task:p=0.01,delay=0.2;seed=42")
        assert plan.seed == 42
        assert plan.specs[0] == ChaosSpec("task_exception", task_id=7)
        assert plan.specs[1] == ChaosSpec("slow_task", probability=0.01,
                                          delay=0.2)

    def test_json_round_trip(self, tmp_path):
        plan = parse_chaos_plan("nan_result@3;seed=9")
        path = tmp_path / "chaos.json"
        path.write_text(plan.to_json())
        assert parse_chaos_plan(f"@{path}") == plan


class TestResolveChaos:
    @pytest.fixture(autouse=True)
    def _clean_env(self, monkeypatch):
        monkeypatch.delenv(ENV_CHAOS.name, raising=False)

    def test_default_is_none(self):
        assert resolve_chaos() is None

    def test_injector_passthrough(self):
        inj = ChaosInjector(ChaosPlan([ChaosSpec("nan_result", task_id=0)]))
        assert resolve_chaos(inj) is inj

    def test_empty_plan_is_none(self):
        assert resolve_chaos(ChaosPlan()) is None

    def test_env_string(self, monkeypatch):
        monkeypatch.setenv(ENV_CHAOS.name, "task_exception@2")
        inj = resolve_chaos()
        assert isinstance(inj, ChaosInjector)
        assert inj.plan.specs[0].task_id == 2

    @pytest.mark.parametrize("value", ["", "  "])
    def test_env_empty_is_unset(self, monkeypatch, value):
        monkeypatch.setenv(ENV_CHAOS.name, value)
        assert resolve_chaos() is None


# ---------------------------------------------------------------------------
# firing determinism + corruption mechanics
# ---------------------------------------------------------------------------

def test_stochastic_decisions_are_pure_functions_of_ids():
    plan = ChaosPlan([ChaosSpec("task_exception", probability=0.3)], seed=5)
    a = ChaosInjector(plan)
    b = ChaosInjector(plan)
    decisions_a = [a._fires(0, plan.specs[0], t) for t in range(200)]
    decisions_b = [b._fires(0, plan.specs[0], t) for t in range(200)]
    assert decisions_a == decisions_b
    assert any(decisions_a) and not all(decisions_a)


def test_poison_first_array_copies():
    sums = np.ones((3, 2))
    counts = np.ones(3, dtype=np.int64)
    poisoned = _poison_first_array((sums, counts))
    assert np.isnan(poisoned[0]).any()
    assert np.isfinite(sums).all()  # original untouched
    assert poisoned[1] is counts  # int array skipped, not copied


def test_chaos_only_fires_on_attempt_zero():
    plan = ChaosPlan([ChaosSpec("task_exception", task_id=0)])
    inj = ChaosInjector(plan)
    events = []
    with pytest.raises(ChaosError):
        inj.before_task(0, 0, lambda *a: events.append(a))
    # The retry (attempt 1) of the same task is clean.
    inj.before_task(0, 1, lambda *a: events.append(a))
    assert len(events) == 1


def test_slow_task_sleeps_via_injected_sleeper():
    naps = []
    plan = ChaosPlan([ChaosSpec("slow_task", task_id=1, delay=0.25)])
    inj = ChaosInjector(plan, sleeper=naps.append)
    inj.before_task(0, 0, lambda *a: None)
    inj.before_task(1, 0, lambda *a: None)
    assert naps == [0.25]


# ---------------------------------------------------------------------------
# engine integration
# ---------------------------------------------------------------------------

def _square(i):
    return i * i


class TestEngineIntegration:
    def test_serial_engine_retries_through_exception(self):
        inj = ChaosInjector(
            ChaosPlan([ChaosSpec("task_exception", task_id=2)]))
        engine = SerialEngine(policy=TaskPolicy(max_retries=2, backoff_s=0.0),
                              chaos=inj)
        assert engine.map(_square, range(6)) == [i * i for i in range(6)]
        kinds = [k for k, _, _ in engine.drain_events()]
        assert "chaos" in kinds and "task_retry" in kinds

    def test_thread_engine_retries_through_exception(self):
        inj = ChaosInjector(
            ChaosPlan([ChaosSpec("task_exception", task_id=1)]))
        engine = ThreadEngine(2, policy=TaskPolicy(max_retries=2,
                                                   backoff_s=0.0),
                              chaos=inj)
        assert engine.map(_square, range(6)) == [i * i for i in range(6)]

    def test_unsupervised_engine_fails(self):
        inj = ChaosInjector(
            ChaosPlan([ChaosSpec("task_exception", task_id=0)]))
        engine = SerialEngine(policy=TaskPolicy(max_retries=0), chaos=inj)
        with pytest.raises(ChaosError):
            engine.map(_square, range(4))


# ---------------------------------------------------------------------------
# end-to-end: supervised bit-identical, unsupervised fails
# ---------------------------------------------------------------------------

# Overlapping blobs + small shards: the run takes ~5 iterations of ~5
# shard tasks each, so a p=0.2 stochastic chaos spec fires several times
# before convergence.
_CHUNK = 4096


@pytest.fixture(scope="module")
def workload():
    X, _ = gaussian_blobs(n=400, k=8, d=6, seed=3)
    C0 = init_centroids(X, 8, method="first")
    return X, C0


def test_lloyd_supervised_chaos_bit_identical(workload):
    X, C0 = workload
    clean = lloyd(X, C0, max_iter=30, chunk_elements=_CHUNK)
    chaotic_engine = SerialEngine(
        policy=TaskPolicy(max_retries=3, backoff_s=0.0),
        chaos=ChaosInjector(ChaosPlan([
            ChaosSpec("task_exception", probability=0.2),
        ], seed=7)),
    )
    survived = lloyd(X, C0, max_iter=30, chunk_elements=_CHUNK,
                     engine=chaotic_engine)
    np.testing.assert_array_equal(clean.centroids, survived.centroids)
    np.testing.assert_array_equal(clean.assignments, survived.assignments)
    assert survived.inertia == clean.inertia
    # The scars are visible in the host-event record, not in the numbers.
    assert any(e.kind == "chaos" for e in survived.host_events)
    assert any(e.kind == "task_retry" for e in survived.host_events)


def test_lloyd_unsupervised_chaos_fails(workload):
    X, C0 = workload
    engine = SerialEngine(
        policy=TaskPolicy(max_retries=0),
        chaos=ChaosInjector(ChaosPlan([
            ChaosSpec("task_exception", probability=0.2),
        ], seed=7)),
    )
    with pytest.raises(ChaosError):
        lloyd(X, C0, max_iter=30, chunk_elements=_CHUNK, engine=engine)


def test_lloyd_nan_chaos_caught_by_numerical_guard(workload):
    # Level 0 has no recovery loop: the guard must fail loudly instead of
    # letting the poisoned centroids converge to garbage.
    X, C0 = workload
    engine = SerialEngine(
        chaos=ChaosInjector(ChaosPlan([ChaosSpec("nan_result", task_id=0)])))
    with pytest.raises(NumericalFaultError, match="non-finite"):
        lloyd(X, C0, max_iter=30, chunk_elements=_CHUNK, engine=engine)


#: The poisoned task: Level 0 runs one task per iteration, so its task 1
#: is in the second (and last) iteration; Level 1's task 2 is in its first.
_NAN_TASK = {0: 1, 1: 2}


def _nan_engine(level):
    return SerialEngine(chaos=ChaosInjector(ChaosPlan(
        [ChaosSpec("nan_result", task_id=_NAN_TASK[level])])))


def _fit_level(level, engine=None, **kwargs):
    X, _ = gaussian_blobs(n=300, k=3, d=5, seed=4)
    model = HierarchicalKMeans(
        3, machine=toy_machine(n_nodes=2), level=level, seed=11,
        max_iter=60, engine=engine, **kwargs)
    return model.fit(X)


@pytest.mark.parametrize("level", [0, 1])
def test_executor_nan_chaos_rolled_back_bit_identical(level):
    clean = _fit_level(level)
    survived = _fit_level(level, engine=_nan_engine(level),
                          recovery="replan", checkpoint_every=1)
    # The poisoned partial cost one rollback; the deterministic trajectory
    # then re-walks the same path to the identical fixed point.
    assert any(e.kind == "rollback" for e in survived.host_events)
    np.testing.assert_array_equal(clean.centroids, survived.centroids)
    np.testing.assert_array_equal(clean.assignments, survived.assignments)


@pytest.mark.parametrize("level", [0, 1])
def test_executor_nan_chaos_fail_fast_fails(level):
    with pytest.raises(NumericalFaultError):
        _fit_level(level, engine=_nan_engine(level))  # fail_fast default
