"""Core k-means algorithms: serial baseline + the three partition levels."""

from .checkpoint import (
    Checkpoint,
    CheckpointConfig,
    CheckpointStore,
    load_checkpoint,
)
from ._common import (
    EMPTY_ACTIONS,
    accumulate,
    assign_chunked,
    even_slices,
    inertia,
    max_centroid_shift,
    squared_distances,
    squared_distances_expanded,
    update_centroids,
)
from .constraints import (
    ConstraintCheck,
    FeasibilityReport,
    bender_window,
    ldm_elements,
    level1_feasibility,
    level2_feasibility,
    level3_feasibility,
    max_feasible_k_level1,
    min_mgroup_level2,
    min_mprime_group_level3,
)
from .init import METHODS as INIT_METHODS
from .init import init_centroids, spread_centroids
from .kernels import (
    KERNELS,
    GemmKernel,
    KernelBackend,
    NaiveKernel,
    resolve_kernel,
)
from .kmeans import LEVELS, HierarchicalKMeans, select_level
from .level1 import Level1Executor, run_level1
from .level2 import Level2Executor, run_level2
from .level3 import Level3Executor, run_level3
from .lloyd import lloyd, lloyd_single_iteration
from .recovery import (
    RECOVERY_POLICIES,
    FailFastPolicy,
    RecoveryAction,
    RecoveryPolicy,
    ReplanPolicy,
    RetryPolicy,
    resolve_recovery,
)
from .partition import (
    Level1Plan,
    Level2Plan,
    Level3Plan,
    plan_level1,
    plan_level2,
    plan_level3,
    stage_level1,
    stage_level2,
    stage_level3,
)
from .result import IterationStats, KMeansResult

__all__ = [
    "Checkpoint",
    "CheckpointConfig",
    "CheckpointStore",
    "ConstraintCheck",
    "EMPTY_ACTIONS",
    "FailFastPolicy",
    "FeasibilityReport",
    "GemmKernel",
    "HierarchicalKMeans",
    "INIT_METHODS",
    "IterationStats",
    "KERNELS",
    "KMeansResult",
    "KernelBackend",
    "LEVELS",
    "NaiveKernel",
    "Level1Executor",
    "Level1Plan",
    "Level2Executor",
    "Level2Plan",
    "Level3Executor",
    "Level3Plan",
    "RECOVERY_POLICIES",
    "RecoveryAction",
    "RecoveryPolicy",
    "ReplanPolicy",
    "RetryPolicy",
    "accumulate",
    "assign_chunked",
    "bender_window",
    "even_slices",
    "inertia",
    "init_centroids",
    "ldm_elements",
    "level1_feasibility",
    "level2_feasibility",
    "level3_feasibility",
    "lloyd",
    "load_checkpoint",
    "lloyd_single_iteration",
    "max_centroid_shift",
    "max_feasible_k_level1",
    "min_mgroup_level2",
    "min_mprime_group_level3",
    "plan_level1",
    "plan_level2",
    "plan_level3",
    "resolve_kernel",
    "resolve_recovery",
    "run_level1",
    "run_level2",
    "run_level3",
    "select_level",
    "spread_centroids",
    "squared_distances",
    "squared_distances_expanded",
    "stage_level1",
    "stage_level2",
    "stage_level3",
    "update_centroids",
]
