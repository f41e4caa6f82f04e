"""The reduction seam: topologies, combines, and engine invariance.

The contract under test (docs/architecture.md "Reduction seam"):

* a topology's schedule is a pure function of the slot count — never of
  thread timing — so any topology is bit-identical across engines and
  worker counts;
* ``reduce="serial"`` reproduces the historical hand-rolled left fold
  bit-for-bit (it *is* that loop, behind the seam);
* combines never mutate their operands;
* every topology folds inline: a reduce issues no task id, so the task-id
  stream (and with it every chaos plan) counts map tasks only.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.envvars import ENV_REDUCE
from repro.core.init import init_centroids
from repro.core.kmeans import HierarchicalKMeans
from repro.core.lloyd import lloyd
from repro.data.synthetic import gaussian_blobs
from repro.errors import ConfigurationError
from repro.machine.machine import toy_machine
from repro.runtime.chaos import resolve_chaos
from repro.runtime.engine import SerialEngine, TaskPolicy, ThreadEngine
from repro.runtime.faults import FaultPlan, FaultSpec
from repro.runtime.reduce import (
    BlockPartial,
    GroupedTopology,
    SerialTopology,
    TreeTopology,
    combine_partials,
    resolve_reduce,
    serial_fold,
    validate_schedule,
)


# ---------------------------------------------------------------------------
# schedules: purity and invariants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("topology", [SerialTopology(), TreeTopology()])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8, 13, 16, 31, 64])
def test_schedules_are_valid_and_pure(topology, n):
    schedule = topology.schedule(n)
    assert schedule == topology.schedule(n)  # pure function of n
    if n > 1:
        assert validate_schedule(schedule, n) == 0


def test_serial_schedule_is_the_left_fold_chain():
    assert SerialTopology().schedule(4) == ((0, 1), (0, 2), (0, 3))


def test_tree_schedule_is_recursive_halving():
    assert TreeTopology().schedule(5) == ((0, 1), (2, 3), (0, 2), (0, 4))


@pytest.mark.parametrize("bad, n", [
    (((0, 1), (1, 2)), 3),             # merges a consumed slot
    (((0, 1),), 3),                    # too few merges
    (((1, 1), (0, 1), (0, 2)), 3),     # merges a slot into itself
])
def test_validate_schedule_rejects_malformed_plans(bad, n):
    with pytest.raises(ConfigurationError):
        validate_schedule(bad, n)


def test_grouped_schedule_reduces_group_by_group_then_winners():
    topo = SerialTopology().for_groups([[0, 1, 2], [3, 4]])
    # Each group folds in turn; then winners [0, 3] fold serially.
    assert topo.schedule(5) == ((0, 1), (0, 2), (3, 4), (0, 3))
    assert validate_schedule(topo.schedule(5), 5) == 0


def test_grouped_schedule_requires_a_partition():
    topo = SerialTopology().for_groups([[0, 1], [3]])
    with pytest.raises(ConfigurationError):
        topo.schedule(4)  # slot 2 missing, slot 3 out of nowhere


def test_grouped_rejects_empty_groups():
    with pytest.raises(ConfigurationError):
        GroupedTopology([[0, 1], []], SerialTopology())


def test_grouped_cannot_be_regrouped():
    topo = TreeTopology().for_groups([[0], [1]])
    with pytest.raises(ConfigurationError):
        topo.for_groups([[0, 1]])


# ---------------------------------------------------------------------------
# combine_partials and the typed partial classes
# ---------------------------------------------------------------------------

def test_combine_adds_arrays_tuples_and_numbers():
    a = (np.arange(4.0), 2)
    b = (np.ones(4), 3)
    sums, n = combine_partials(a, b)
    np.testing.assert_array_equal(sums, np.arange(4.0) + 1)
    assert n == 5
    assert combine_partials(1.5, 2.5) == 4.0


def test_combine_returns_fresh_arrays():
    a, b = np.ones(3), np.ones(3)
    out = combine_partials(a, b)
    assert not np.shares_memory(out, a) and not np.shares_memory(out, b)
    np.testing.assert_array_equal(a, np.ones(3))  # operands untouched


def test_combine_rejects_mismatched_tuples_and_unknown_types():
    with pytest.raises(ConfigurationError):
        combine_partials((1, 2), (1, 2, 3))
    with pytest.raises(ConfigurationError):
        combine_partials(object(), object())


def test_sum_count_partial_combines_without_mutation():
    a = BlockPartial(np.ones((2, 3)), np.array([1, 2]), 0, 4)
    b = BlockPartial(np.full((2, 3), 2.0), np.array([3, 4]), 4, 9)
    merged = combine_partials(a, b)
    np.testing.assert_array_equal(merged.sums, np.full((2, 3), 3.0))
    np.testing.assert_array_equal(merged.counts, np.array([4, 6]))
    assert (merged.lo, merged.hi) == (0, 9)
    np.testing.assert_array_equal(a.sums, np.ones((2, 3)))


# ---------------------------------------------------------------------------
# resolve_reduce and the REPRO_REDUCE knob
# ---------------------------------------------------------------------------

def test_resolve_reduce_names_instances_and_errors(monkeypatch):
    monkeypatch.delenv(ENV_REDUCE.name, raising=False)
    assert isinstance(resolve_reduce(None), SerialTopology)
    assert isinstance(resolve_reduce("tree"), TreeTopology)
    topo = TreeTopology()
    assert resolve_reduce(topo) is topo
    with pytest.raises(ConfigurationError):
        resolve_reduce("fancy")


def test_resolve_reduce_env_round_trip(monkeypatch):
    monkeypatch.setenv(ENV_REDUCE.name, "tree")
    assert isinstance(resolve_reduce(None), TreeTopology)
    # Explicit beats the environment.
    assert isinstance(resolve_reduce("serial"), SerialTopology)


@pytest.mark.parametrize("value", ["", "   ", "\t"])
def test_resolve_reduce_blank_env_counts_as_unset(monkeypatch, value):
    monkeypatch.setenv(ENV_REDUCE.name, value)
    assert isinstance(resolve_reduce(None), SerialTopology)


# ---------------------------------------------------------------------------
# engine.reduce_partials / map_reduce semantics
# ---------------------------------------------------------------------------

def _random_partials(n, seed=0):
    rng = np.random.default_rng(seed)
    return [(rng.normal(size=(3, 4)), rng.integers(0, 9, size=3))
            for _ in range(n)]


def test_serial_reduce_matches_the_historical_fold():
    partials = _random_partials(9)
    engine = SerialEngine()
    reduced = engine.reduce_partials(partials, topology=SerialTopology())
    # The loop every call site used to hand-roll.
    sums = partials[0][0].copy()
    counts = partials[0][1].copy()
    for s, c in partials[1:]:
        sums += s
        counts += c
    np.testing.assert_array_equal(reduced[0], sums)
    np.testing.assert_array_equal(reduced[1], counts)
    assert serial_fold(partials)[0].tobytes() == sums.tobytes()


def test_reduce_zero_partials_is_an_error():
    with pytest.raises(ConfigurationError):
        SerialEngine().reduce_partials([])


def test_reduce_single_partial_is_identity():
    partials = _random_partials(1)
    assert SerialEngine().reduce_partials(partials) is partials[0]


def test_reduce_does_not_mutate_partials():
    for topology in (SerialTopology(), TreeTopology()):
        partials = _random_partials(7, seed=3)
        snapshot = copy.deepcopy(partials)
        reduced = SerialEngine().reduce_partials(partials, topology=topology)
        for (s, c), (s0, c0) in zip(partials, snapshot):
            np.testing.assert_array_equal(s, s0)
            np.testing.assert_array_equal(c, c0)
        for before in partials:
            assert not np.shares_memory(reduced[0], before[0])
            assert not np.shares_memory(reduced[1], before[1])


def test_map_reduce_returns_partials_on_request():
    engine = SerialEngine()
    total, partials = engine.map_reduce(
        lambda i: float(i), range(5), topology="serial",
        return_partials=True)
    assert total == 10.0
    assert partials == [0.0, 1.0, 2.0, 3.0, 4.0]


TOPOLOGIES = [
    pytest.param("serial", id="serial"),
    pytest.param("tree", id="tree"),
    pytest.param(TreeTopology().for_groups([[0, 1, 2], [3, 4, 5]]),
                 id="grouped-tree"),
]


@pytest.mark.parametrize("topology", TOPOLOGIES)
@pytest.mark.parametrize("workers", [1, 2])
def test_map_reduce_issues_one_task_id_per_item(topology, workers):
    # A chaos plan aimed at id 6 stays silent through a 6-item map_reduce,
    # whatever the topology, and fires on the first task of the next map.
    engine = ThreadEngine(workers, policy=TaskPolicy(backoff_s=0.0),
                          chaos=resolve_chaos("task_exception@6"))
    assert engine.map_reduce(int, range(6), topology=topology) == 15
    assert engine.drain_events() == []
    assert engine.map(int, range(3)) == [0, 1, 2]
    events = [(kind, detail.split(":")[0])
              for kind, detail, _ in engine.drain_events()]
    assert events == [("chaos", "task_exception"),
                      ("task_retry", "task 6 attempt 1 after ChaosError")]


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=1, max_value=33),
       workers=st.integers(min_value=2, max_value=6),
       seed=st.integers(min_value=0, max_value=2**16))
def test_tree_reduction_bit_invariant_across_engines(n, workers, seed):
    partials = _random_partials(n, seed=seed)
    serial = SerialEngine().reduce_partials(partials, topology="tree")
    threaded = ThreadEngine(workers).reduce_partials(partials,
                                                     topology="tree")
    assert serial[0].tobytes() == threaded[0].tobytes()
    assert serial[1].tobytes() == threaded[1].tobytes()


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=2, max_value=33),
       seed=st.integers(min_value=0, max_value=2**16))
def test_tree_matches_serial_numerically(n, seed):
    partials = _random_partials(n, seed=seed)
    engine = SerialEngine()
    tree = engine.reduce_partials(partials, topology="tree")
    serial = engine.reduce_partials(partials, topology="serial")
    # atol floors the comparison for near-zero sums, where catastrophic
    # cancellation makes a ~1e-15 absolute reordering difference blow
    # past any purely relative tolerance.
    np.testing.assert_allclose(tree[0], serial[0], rtol=1e-12, atol=1e-13)
    np.testing.assert_array_equal(tree[1], serial[1])  # int64: exact


# ---------------------------------------------------------------------------
# end-to-end: executors and lloyd under reduce=tree
# ---------------------------------------------------------------------------

def _fit(level, engine, workers=None, **kwargs):
    X, _ = gaussian_blobs(n=420, k=4, d=6, seed=8)
    model = HierarchicalKMeans(
        4, machine=toy_machine(n_nodes=2), level=level, seed=13,
        max_iter=25, engine=engine, workers=workers, **kwargs)
    return model.fit(X)


@pytest.mark.parametrize("level", [1, 2, 3])
def test_tree_reduce_bit_identical_across_engines(level):
    serial = _fit(level, "serial", reduce="tree")
    for workers in (2, 5):
        threaded = _fit(level, "thread", workers=workers, reduce="tree")
        np.testing.assert_array_equal(serial.centroids, threaded.centroids)
        np.testing.assert_array_equal(serial.assignments,
                                      threaded.assignments)
        assert serial.ledger.records == threaded.ledger.records


@pytest.mark.parametrize("level", [1, 2, 3])
def test_serial_reduce_is_the_default_and_bit_identical(level, monkeypatch):
    monkeypatch.delenv(ENV_REDUCE.name, raising=False)
    default = _fit(level, "serial")
    explicit = _fit(level, "serial", reduce="serial")
    np.testing.assert_array_equal(default.centroids, explicit.centroids)
    assert default.ledger.records == explicit.ledger.records


@pytest.mark.parametrize("level", [1, 2, 3])
def test_fault_replay_engine_independent_under_tree(level):
    plan = FaultPlan([
        FaultSpec("transient_dma", iteration=2),
        FaultSpec("collective_timeout", probability=0.05),
    ], seed=99)
    serial = _fit(level, "serial", reduce="tree", faults=plan,
                  recovery="retry")
    threaded = _fit(level, "thread", workers=4, reduce="tree", faults=plan,
                    recovery="retry")
    np.testing.assert_array_equal(serial.centroids, threaded.centroids)
    assert serial.fault_events == threaded.fault_events
    assert serial.ledger.records == threaded.ledger.records


class _MapSizes(SerialEngine):
    """Records the item count of every map() call."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.sizes = []

    def map(self, fn, items):
        work = list(items)
        self.sizes.append(len(work))
        return super().map(fn, work)


def test_chaos_task_id_names_the_same_block_under_every_topology():
    # Task ids count Assign blocks only: with 4 blocks an iteration, id 5
    # is block 1 of the second iteration whether the merges run as a left
    # fold or as a tree.
    fits = {}
    for reduce in ("serial", "tree"):
        engine = _MapSizes(policy=TaskPolicy(backoff_s=0.0),
                           chaos=resolve_chaos("task_exception@5"))
        chaotic = _fit(3, engine, reduce=reduce)
        clean = _fit(3, "serial", reduce=reduce)
        assert engine.sizes and set(engine.sizes) == {4}
        np.testing.assert_array_equal(chaotic.centroids, clean.centroids)
        assert chaotic.ledger.records == clean.ledger.records
        fits[reduce] = chaotic.host_events
    assert fits["serial"] == fits["tree"]
    assert [(e.iteration, e.kind) for e in fits["tree"]] == [
        (2, "chaos"), (2, "task_retry")]
    assert "task 5 " in fits["tree"][0].detail


def test_lloyd_tree_reduce_parity():
    X, _ = gaussian_blobs(n=640, k=5, d=8, seed=17)
    C0 = init_centroids(X, 5, method="first")
    serial = lloyd(X, C0, max_iter=20, chunk_elements=4096, reduce="tree")
    threaded = lloyd(X, C0, max_iter=20, chunk_elements=4096, reduce="tree",
                     engine="thread", workers=3)
    np.testing.assert_array_equal(serial.centroids, threaded.centroids)
    np.testing.assert_array_equal(serial.assignments, threaded.assignments)
    assert serial.inertia == threaded.inertia


def test_reduce_env_selects_topology_end_to_end(monkeypatch):
    X, _ = gaussian_blobs(n=200, k=3, d=5, seed=4)
    C0 = init_centroids(X, 3, method="first")
    baseline = lloyd(X, C0, max_iter=5)
    monkeypatch.setenv(ENV_REDUCE.name, "tree")
    via_env = lloyd(X, C0, max_iter=5)
    np.testing.assert_allclose(baseline.centroids, via_env.centroids,
                               rtol=1e-12)


class _RecordingEngine(SerialEngine):
    """Snapshots every map() result so mutation can be detected later."""

    def __init__(self):
        super().__init__()
        self.snapshots = []
        self.live = []

    def map(self, fn, items):
        results = super().map(fn, items)
        self.snapshots.append(copy.deepcopy(results))
        self.live.append(results)
        return results


def test_lloyd_merge_no_longer_mutates_the_first_partial():
    # Regression: the historical fold seeded the accumulator with
    # partials[0] and += into it; the reduce seam must leave every map()
    # result pristine.
    X, _ = gaussian_blobs(n=300, k=3, d=4, seed=21)
    C0 = init_centroids(X, 3, method="first")
    engine = _RecordingEngine()
    lloyd(X, C0, max_iter=3, engine=engine, chunk_elements=512)
    assert engine.snapshots  # the workload actually sharded
    for live, snap in zip(engine.live, engine.snapshots):
        for live_partial, snap_partial in zip(live, snap):
            if not isinstance(live_partial, tuple):
                continue
            for a, b in zip(live_partial, snap_partial):
                if isinstance(a, np.ndarray):
                    np.testing.assert_array_equal(a, b)
