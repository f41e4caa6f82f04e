"""Tests for the fault-injection subsystem (specs, plans, injector)."""

import pytest

from repro.errors import (
    CGFailedError,
    CollectiveTimeoutError,
    ConfigurationError,
    FaultError,
    TransientDMAError,
)
from repro.machine.machine import toy_machine
from repro.machine.specs import toy_spec
from repro.runtime.dma import DMAEngine
from repro.runtime.faults import (
    FAULT_KINDS,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    parse_fault_plan,
    resolve_fault_plan,
)
from repro.runtime.ledger import TimeLedger
from repro.runtime.mpi import SimComm
from repro.runtime.regcomm import RegisterComm


class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fault kind"):
            FaultSpec("disk_on_fire", iteration=1)

    def test_iteration_must_be_positive(self):
        with pytest.raises(ConfigurationError, match=">= 1"):
            FaultSpec("transient_dma", iteration=0)

    def test_cg_failure_needs_iteration(self):
        with pytest.raises(ConfigurationError, match="iteration"):
            FaultSpec("cg_failure")

    def test_cg_failure_defaults_cg_zero(self):
        assert FaultSpec("cg_failure", iteration=2).cg_index == 0

    def test_stochastic_transient_needs_probability(self):
        with pytest.raises(ConfigurationError, match="probability"):
            FaultSpec("transient_dma")

    def test_probability_range_checked(self):
        with pytest.raises(ConfigurationError):
            FaultSpec("transient_dma", probability=1.5)

    def test_bandwidth_factor_range(self):
        with pytest.raises(ConfigurationError, match="bandwidth_factor"):
            FaultSpec("degraded_link", iteration=1, bandwidth_factor=0.0)

    def test_degraded_link_window(self):
        spec = FaultSpec("degraded_link", iteration=2, bandwidth_factor=0.5,
                         duration=3)
        assert not spec.active_at(1)
        assert spec.active_at(2)
        assert spec.active_at(4)
        assert not spec.active_at(5)

    def test_degraded_link_open_ended(self):
        spec = FaultSpec("degraded_link", iteration=3, bandwidth_factor=0.5)
        assert spec.active_at(1000)

    def test_all_kinds_constructible(self):
        for kind in FAULT_KINDS:
            FaultSpec(kind, iteration=1)


class TestFaultPlan:
    def test_empty_plan_is_falsy(self):
        assert not FaultPlan()
        assert FaultPlan([FaultSpec("transient_dma", iteration=1)])

    def test_json_roundtrip(self):
        plan = FaultPlan([
            FaultSpec("cg_failure", iteration=3, cg_index=1),
            FaultSpec("transient_dma", probability=0.25),
            FaultSpec("degraded_link", iteration=2, bandwidth_factor=0.5,
                      duration=2),
        ], seed=42)
        assert FaultPlan.from_json(plan.to_json()) == plan


class TestParseFaultPlan:
    def test_compact_grammar(self):
        plan = parse_fault_plan(
            "cg_failure@3:cg=1; transient_dma:p=0.01; "
            "degraded_link@2:factor=0.5,duration=3; seed=9"
        )
        assert plan.seed == 9
        kinds = [s.kind for s in plan.specs]
        assert kinds == ["cg_failure", "transient_dma", "degraded_link"]
        assert plan.specs[0].cg_index == 1
        assert plan.specs[1].probability == pytest.approx(0.01)
        assert plan.specs[2].bandwidth_factor == pytest.approx(0.5)
        assert plan.specs[2].duration == 3

    def test_file_reference(self, tmp_path):
        plan = FaultPlan([FaultSpec("collective_timeout", iteration=2)],
                         seed=5)
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json())
        assert parse_fault_plan(f"@{path}") == plan

    def test_resolve_accepts_plan_string_none(self):
        plan = FaultPlan([FaultSpec("transient_dma", iteration=1)])
        assert resolve_fault_plan(plan) is plan
        assert resolve_fault_plan(None) is None
        assert resolve_fault_plan("transient_dma@1").specs[0].iteration == 1
        with pytest.raises(ConfigurationError):
            resolve_fault_plan(123)


@pytest.fixture
def cg_spec():
    return toy_spec(1, 2, 2, 8 * 1024).processor.cg


class TestInjectorHooks:
    def test_setup_epoch_is_protected(self, cg_spec):
        plan = FaultPlan([FaultSpec("transient_dma", probability=1.0)])
        inj = FaultInjector(plan)
        inj.on_dma("setup.load", 1024)  # iteration 0: must not raise
        inj.begin_iteration(1)
        with pytest.raises(TransientDMAError):
            inj.on_dma("assign.stream", 1024)

    def test_scheduled_transient_fires_once(self):
        plan = FaultPlan([FaultSpec("transient_dma", iteration=2)])
        inj = FaultInjector(plan)
        inj.begin_iteration(1)
        inj.on_dma("x", 8)
        inj.begin_iteration(2)
        with pytest.raises(TransientDMAError) as exc_info:
            inj.on_dma("x", 8)
        assert exc_info.value.iteration == 2
        inj.on_dma("x", 8)  # one-shot: second op sails through
        assert len(inj.events) == 1

    def test_cg_failure_fires_at_iteration_boundary(self):
        plan = FaultPlan([FaultSpec("cg_failure", iteration=3, cg_index=1)])
        inj = FaultInjector(plan)
        inj.begin_iteration(1)
        inj.begin_iteration(2)
        with pytest.raises(CGFailedError) as exc_info:
            inj.begin_iteration(3)
        assert exc_info.value.cg_index == 1
        assert not exc_info.value.transient
        # the raised error carries its event record
        assert exc_info.value.event is inj.events[-1]
        inj.begin_iteration(4)  # permanent but one-shot raise

    def test_collective_timeout_is_transient(self):
        plan = FaultPlan([FaultSpec("collective_timeout", iteration=1)])
        inj = FaultInjector(plan)
        inj.begin_iteration(1)
        with pytest.raises(CollectiveTimeoutError) as exc_info:
            inj.on_collective("mpi.allreduce", 64)
        assert exc_info.value.transient
        assert isinstance(exc_info.value, FaultError)

    def test_probabilistic_draws_are_seeded(self):
        plan = FaultPlan([FaultSpec("transient_dma", probability=0.3)],
                         seed=123)

        def trace(plan):
            inj = FaultInjector(plan)
            inj.begin_iteration(1)
            fired = []
            for op in range(50):
                try:
                    inj.on_dma(f"op{op}", 8)
                except TransientDMAError:
                    fired.append(op)
            return fired

        a, b = trace(plan), trace(plan)
        assert a == b and len(a) > 0

    def test_link_bandwidth_factor_composes(self):
        plan = FaultPlan([
            FaultSpec("degraded_link", iteration=1, bandwidth_factor=0.5),
            FaultSpec("degraded_link", iteration=2, bandwidth_factor=0.5,
                      duration=1),
        ])
        inj = FaultInjector(plan)
        inj.begin_iteration(1)
        assert inj.link_bandwidth_factor() == pytest.approx(0.5)
        inj.begin_iteration(2)
        assert inj.link_bandwidth_factor() == pytest.approx(0.25)
        inj.begin_iteration(3)
        assert inj.link_bandwidth_factor() == pytest.approx(0.5)

    def test_degraded_link_records_applied_event(self):
        plan = FaultPlan([FaultSpec("degraded_link", iteration=2,
                                    bandwidth_factor=0.5)])
        inj = FaultInjector(plan)
        inj.begin_iteration(1)
        assert inj.events == []
        inj.begin_iteration(2)
        assert [e.action for e in inj.events] == ["applied"]
        inj.begin_iteration(3)  # announced once, not per iteration
        assert len(inj.events) == 1


class TestTransportIntegration:
    def test_dma_engine_hook(self, cg_spec):
        plan = FaultPlan([FaultSpec("transient_dma", iteration=1)])
        inj = FaultInjector(plan)
        engine = DMAEngine(cg_spec, TimeLedger(), injector=inj)
        inj.begin_iteration(1)
        with pytest.raises(TransientDMAError):
            engine.read(1024, label="stream")

    def test_regcomm_hook(self, cg_spec):
        plan = FaultPlan([FaultSpec("collective_timeout", iteration=1)])
        inj = FaultInjector(plan)
        comm = RegisterComm(cg_spec, injector=inj)
        inj.begin_iteration(1)
        with pytest.raises(CollectiveTimeoutError):
            comm.allreduce_time(256)

    @pytest.mark.parametrize("owner, method, label", [
        ("SimComm", "allreduce_time", "mpi.allreduce"),
        ("SimComm", "bcast_time", "mpi.bcast"),
        ("SimComm", "allgather_time", "mpi.allgather"),
        ("RegisterComm", "allreduce_time", "regcomm.allreduce"),
    ])
    def test_priced_collective_fires_one_fault(self, owner, method, label):
        machine = toy_machine(n_nodes=2)
        plan = FaultPlan([FaultSpec("collective_timeout", probability=1.0)])
        inj = FaultInjector(plan)
        comm = (SimComm(machine, range(machine.n_cgs), injector=inj)
                if owner == "SimComm"
                else RegisterComm(machine.spec.processor.cg, injector=inj))
        inj.begin_iteration(1)
        with pytest.raises(CollectiveTimeoutError):
            getattr(comm, method)(4096)
        assert [(e.kind, e.label) for e in inj.events] == [
            ("collective_timeout", label)]

    def test_degraded_link_slows_collectives(self):
        machine = toy_machine(n_nodes=2)
        plan = FaultPlan([FaultSpec("degraded_link", iteration=1,
                                    bandwidth_factor=0.5)])
        inj = FaultInjector(plan)
        healthy = SimComm(machine, range(4))
        faulty = SimComm(machine, range(4), injector=inj)
        t0 = healthy.allreduce_time(1 << 20)
        inj.begin_iteration(1)
        t1 = faulty.allreduce_time(1 << 20)
        assert t1 > t0

    def test_no_injector_means_no_overhead(self, cg_spec):
        ledger = TimeLedger()
        engine = DMAEngine(cg_spec, ledger)
        assert engine.injector is None
        engine.read(1024, label="x")  # no hook, no draws, just the charge
        assert len(ledger.records) == 1
