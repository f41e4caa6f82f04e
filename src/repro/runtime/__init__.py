"""Simulated parallel runtime: time ledger, DMA, register comm, MPI.

The runtime prices the three transports the paper's implementation uses
with the machine's published parameters:

* :mod:`repro.runtime.dma` — main-memory <-> LDM staging at 32 GB/s,
* :mod:`repro.runtime.regcomm` — intra-CG mesh collectives at 46.4 GB/s,
* :mod:`repro.runtime.mpi` — inter-CG/inter-node collectives over the fat
  tree at 16 GB/s (derated across supernodes),
* :mod:`repro.runtime.compute` — CPE arithmetic,
* :mod:`repro.runtime.ledger` — where every modelled second is recorded.
"""

from .chaos import (
    CHAOS_KINDS,
    ChaosInjector,
    ChaosPlan,
    ChaosSpec,
    parse_chaos_plan,
    resolve_chaos,
)
from .compute import ComputeModel, DEFAULT_EFFICIENCY, distance_flops, update_flops
from .dma import DMAEngine
from .engine import (
    ENGINES,
    ExecutionEngine,
    SerialEngine,
    TaskPolicy,
    ThreadEngine,
    resolve_engine,
    resolve_task_policy,
    shutdown_pools,
)
from .faults import (
    FAULT_KINDS,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    parse_fault_plan,
    resolve_fault_plan,
)
from .ledger import (
    CATEGORIES,
    IterationBreakdown,
    LedgerProtocol,
    NullLedger,
    PhaseRecord,
    TimeLedger,
)
from .mpi import ALGORITHMS, SimComm
from .regcomm import RegisterComm
from .supervisor import (
    HostEvent,
    RunSupervisor,
    resolve_supervisor,
)

__all__ = [
    "ALGORITHMS",
    "CATEGORIES",
    "CHAOS_KINDS",
    "ChaosInjector",
    "ChaosPlan",
    "ChaosSpec",
    "ComputeModel",
    "DEFAULT_EFFICIENCY",
    "DMAEngine",
    "ENGINES",
    "ExecutionEngine",
    "FAULT_KINDS",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "HostEvent",
    "IterationBreakdown",
    "LedgerProtocol",
    "NullLedger",
    "PhaseRecord",
    "RegisterComm",
    "RunSupervisor",
    "SerialEngine",
    "SimComm",
    "TaskPolicy",
    "ThreadEngine",
    "TimeLedger",
    "distance_flops",
    "parse_chaos_plan",
    "parse_fault_plan",
    "resolve_chaos",
    "resolve_fault_plan",
    "resolve_engine",
    "resolve_supervisor",
    "resolve_task_policy",
    "shutdown_pools",
    "update_flops",
]
