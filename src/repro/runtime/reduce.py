"""Deterministic map/combine/reduce contract for the execution engine.

Every partition level used to follow ``engine.map(...)`` with a hand-rolled
*serial* fold of ``(sums, counts)`` partials — five copies of the same loop,
and the Amdahl bottleneck a process-pool engine would expose.  This module
replaces the idiom with an explicit contract:

``combine``
    A pure, associative, **non-mutating** binary merge of two partials.
    :func:`combine_partials` handles the shapes the executors produce
    (tuples of ndarrays, bare ndarrays, numbers) and defers to a partial's
    own ``combine`` method when it has one (see :class:`Reducible`).

``topology``
    *Which* pairs merge, and in what order — a :class:`ReduceTopology`
    whose :meth:`~ReduceTopology.schedule` is a **pure function of the
    block count**.  Thread timing never picks the merge order, so a
    reduction is bit-reproducible by construction: the same partials under
    the same topology give the same bits on any engine, at any worker
    count.

Two reduction shapes ship (mirroring the two engines):

``serial``
    The left fold ``(((p0 + p1) + p2) + ...)`` — exactly the loop the call
    sites used to hand-roll, so it is the bit-identical default.  Combines
    run inline in the caller; no engine tasks are issued.

``tree``
    A balanced binary tree over the block slots: round r merges slot
    ``i + 2^r`` into slot ``i`` for every ``i`` divisible by ``2^(r+1)``.
    Each round's merges are independent, so
    :meth:`~repro.runtime.engine.ExecutionEngine.map_reduce` runs them as
    real engine tasks — on the pool, under the full
    :class:`~repro.runtime.engine.TaskPolicy` retry/quarantine ladder and
    the chaos hooks.  Task ids are issued per round in canonical slot
    order, so chaos plans and retry jitter replay bit-identically across
    engines and worker counts (the same invariant the map phase has).

:class:`GroupedTopology` composes an inner per-group reduction with an
outer reduction over the group winners — the shape Level 1/2 use so the
within-CG merge and the cross-CG allreduce keep today's exact operation
order.

Ledger note: combines charge **nothing** here.  Modelled reduction costs
(register-communication and MPI allreduce seconds) stay with the
executors, which charge them in canonical order outside engine tasks —
reprolint rule W602 forbids charging from inside a mapped task, and the
tree seam keeps that contract.

Selection: ``reduce="tree"`` on the facade/executors/:func:`lloyd`/CLI, or
the ``REPRO_REDUCE`` environment variable (consulted only when no explicit
``reduce=`` is given; empty/whitespace counts as unset).
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
    runtime_checkable,
)

import numpy as np

from ..analysis.envvars import ENV_REDUCE, read_str
from ..errors import ConfigurationError

#: Names accepted by :func:`resolve_reduce`.
REDUCTIONS = ("serial", "tree")

#: Environment override, consulted only when ``reduce=None`` is passed
#: (declared in :mod:`repro.analysis.envvars`; string alias for callers).
REDUCE_ENV = ENV_REDUCE.name

#: One pairwise merge: (destination slot, source slot).  The source is
#: consumed; the destination holds the combined partial afterwards.
Merge = Tuple[int, int]

#: One round of independent merges (disjoint slots — safe to run
#: concurrently as engine tasks).
Round = Tuple[Merge, ...]

#: A full reduction plan: rounds run in order, merges within a round are
#: unordered (independent).
Schedule = Tuple[Round, ...]

#: A binary combine over partials.
CombineFn = Callable[[Any, Any], Any]


@runtime_checkable
class Reducible(Protocol):
    """A partial that knows how to merge with a peer.

    ``combine`` must be pure and non-mutating: it returns a *new* partial
    and leaves both operands untouched, so a partial can safely feed
    several speculative merges (engine retries re-run combines).
    Associativity is required for tree topologies to be well-defined;
    bitwise commutativity is **not** required — schedules only ever merge
    ``(dst, src)`` with ``dst < src``, preserving block order.
    """

    def combine(self, other: Any) -> Any:
        """Return the merge of ``self`` and ``other`` (a new object)."""
        ...


class BlockPartial:
    """The full Assign+Accumulate payload of one contiguous sample block.

    What a block task returns: the accumulator half — ``sums``, the (k, d)
    per-centroid vector sum over the block, and ``counts``, the (k,)
    member tally — plus the block's half-open sample range and its
    ``labels`` (and optionally the winning squared distances).  The whole
    object stays compact — labels are ``(hi - lo,)`` int32 — so it is
    cheap to ship back from a worker process.

    ``combine`` merges only the accumulator half (sums and counts add, the
    covered range widens) and **drops the labels**: concatenating labels
    inside a reduction would copy them once per tree level for no
    consumer.  Callers recover the assignment vector from the *unreduced*
    partials list instead, via :func:`scatter_labels` — a fixed-order
    scatter into preallocated arrays.

    ABFT fields: ``crc`` is a CRC32 over the payload bytes stamped by
    :func:`~repro.runtime.integrity.seal_partial` when the integrity layer
    is on (None = unsealed, verification passes vacuously), and
    ``check_row`` is the additive checksum row ``sums.sum(axis=0)`` whose
    preservation every combine is checked against.  ``combine`` returns
    *unsealed* objects; the verifying combine wrapper re-seals them.
    """

    __slots__ = ("sums", "counts", "lo", "hi", "labels", "best_d2",
                 "crc", "check_row")

    def __init__(self, sums: np.ndarray, counts: np.ndarray, lo: int,
                 hi: int, labels: Optional[np.ndarray] = None,
                 best_d2: Optional[np.ndarray] = None) -> None:
        self.sums = sums
        self.counts = counts
        self.lo = int(lo)
        self.hi = int(hi)
        self.labels = labels
        self.best_d2 = best_d2
        self.crc: Optional[int] = None
        self.check_row: Optional[np.ndarray] = None

    def _integrity_payload(self) -> Tuple[Any, ...]:
        return (self.sums, self.counts, self.lo, self.hi,
                self.labels, self.best_d2)

    def combine(self, other: "BlockPartial") -> "BlockPartial":
        return BlockPartial(
            self.sums + other.sums,
            self.counts + other.counts,
            min(self.lo, other.lo),
            max(self.hi, other.hi),
        )

    def __repr__(self) -> str:
        return (f"BlockPartial([{self.lo}, {self.hi}), "
                f"sums={self.sums.shape}, counts={self.counts.shape})")


class PrunedPartial(BlockPartial):
    """A :class:`BlockPartial` extended with the pruned kernel's extras.

    Adds the block's fresh lower bounds ``lb`` (scattered back to the
    full-length array by :func:`scatter_bounds`, exactly like labels) and
    ``n_dist`` — the actual number of point-centroid distance evaluations
    the block performed, which survives the reduction as a plain sum so
    the executors can charge the ledger for work *done* under pruning.
    ``combine`` inherits the label-dropping contract of the base class and
    drops ``lb`` for the same reason: per-sample payloads are recovered
    from the unreduced partials list, never concatenated up the tree.
    """

    __slots__ = ("lb", "n_dist")

    def __init__(self, sums: np.ndarray, counts: np.ndarray, lo: int,
                 hi: int, labels: Optional[np.ndarray] = None,
                 best_d2: Optional[np.ndarray] = None,
                 lb: Optional[np.ndarray] = None,
                 n_dist: int = 0) -> None:
        super().__init__(sums, counts, lo, hi, labels, best_d2)
        self.lb = lb
        self.n_dist = int(n_dist)

    def _integrity_payload(self) -> Tuple[Any, ...]:
        return super()._integrity_payload() + (self.lb, self.n_dist)

    def combine(self, other: "BlockPartial") -> "PrunedPartial":
        return PrunedPartial(
            self.sums + other.sums,
            self.counts + other.counts,
            min(self.lo, other.lo),
            max(self.hi, other.hi),
            n_dist=self.n_dist + getattr(other, "n_dist", 0),
        )

    def __repr__(self) -> str:
        return (f"PrunedPartial([{self.lo}, {self.hi}), "
                f"n_dist={self.n_dist})")


def scatter_bounds(partials: Sequence["PrunedPartial"],
                   lb: np.ndarray) -> None:
    """Write each pruned partial's lower bounds into the full-length array.

    The bounds counterpart of :func:`scatter_labels`: fixed submission
    order, disjoint slice assignment, engine- and worker-count-independent.
    """
    for p in partials:
        if p.lb is not None:
            lb[p.lo:p.hi] = p.lb


def scatter_labels(partials: Sequence["BlockPartial"],
                   assignments: np.ndarray,
                   best_d2: Optional[np.ndarray] = None) -> None:
    """Write each block partial's labels back into the full-length arrays.

    Iterates the partials in their given (submission) order and slice-
    assigns disjoint ranges, so the result is independent of engine and
    worker count.  ``best_d2`` is filled only where both sides carry it.
    """
    for p in partials:
        if p.labels is not None:
            assignments[p.lo:p.hi] = p.labels
        if best_d2 is not None and p.best_d2 is not None:
            best_d2[p.lo:p.hi] = p.best_d2


def combine_partials(a: Any, b: Any) -> Any:
    """The default combine: merge two partials without mutating either.

    * objects with a ``combine`` method delegate to it (:class:`Reducible`),
    * tuples combine elementwise (the executors' ``(sums, counts)`` shape),
    * ndarrays and plain numbers add.

    Always returns fresh objects — the operands stay pristine, so a
    retried combine task recomputes from unpoisoned inputs.
    """
    if hasattr(a, "combine"):
        return a.combine(b)
    if isinstance(a, tuple):
        if not isinstance(b, tuple) or len(a) != len(b):
            raise ConfigurationError(
                f"cannot combine tuple partial of length {len(a)} with "
                f"{type(b).__name__}"
            )
        return tuple(combine_partials(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return a + b
    if isinstance(a, (int, float, complex, np.number)):
        return a + b
    raise ConfigurationError(
        f"no default combine for partials of type {type(a).__name__}; "
        f"give the partial a combine() method or pass combine= explicitly"
    )


def serial_fold(partials: Sequence[Any],
                combine: CombineFn = combine_partials) -> Any:
    """Plain left fold — the reference reduction (and the serial schedule)."""
    if len(partials) == 0:
        raise ConfigurationError("cannot reduce zero partials")
    acc = partials[0]
    for p in partials[1:]:
        acc = combine(acc, p)
    return acc


class ReduceTopology:
    """Which pairs of partial slots merge, and in what order.

    A topology is stateless: :meth:`schedule` is a pure function of the
    slot count ``n``, so the merge order can never depend on thread
    timing.  ``pooled`` says whether the engine should run each round's
    combines as real engine tasks (tree) or fold inline (serial).
    """

    #: Registry name ("serial", "tree", or a composed description).
    name: str = ""
    #: True when combines should run as engine tasks (on the pool).
    pooled: bool = False

    def schedule(self, n: int) -> Schedule:
        """The merge plan for ``n`` slots: rounds of independent merges.

        Exactly ``n - 1`` merges in total; every slot except the final
        winner is consumed exactly once, and a consumed slot never
        appears again.  :func:`validate_schedule` checks these invariants.
        """
        raise NotImplementedError

    def for_groups(self, groups: Sequence[Sequence[int]]) -> "ReduceTopology":
        """This topology lifted to a grouped (two-stage) reduction.

        Used by the Level 1/2 executors: partials reduce within each group
        (a CG) first, then the group winners reduce across groups — both
        stages under this topology's shape.
        """
        return GroupedTopology(groups, inner=self, outer=self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class SerialTopology(ReduceTopology):
    """Left-fold chain: slot i merges into slot 0, in index order.

    This is exactly the loop the call sites used to hand-roll, so it is
    the bit-identical default.  ``pooled`` is False: the engine folds
    inline, issuing no task ids — the pre-refactor task-id stream (and so
    every existing chaos/fault replay) is preserved.
    """

    name = "serial"
    pooled = False

    def schedule(self, n: int) -> Schedule:
        return tuple(((0, i),) for i in range(1, n))


class TreeTopology(ReduceTopology):
    """Balanced binary reduction tree over the slot indices.

    Round r merges slot ``i + 2^r`` into slot ``i`` for every surviving
    ``i`` with ``i % 2^(r+1) == 0`` — the textbook recursive-halving
    shape.  ``ceil(log2 n)`` rounds; merges within a round touch disjoint
    slots, so they run concurrently as engine tasks without changing the
    result: the *shape* fixes the merge order, not the thread schedule.
    """

    name = "tree"
    pooled = True

    def schedule(self, n: int) -> Schedule:
        rounds: List[Round] = []
        stride = 1
        while stride < n:
            merges = tuple(
                (dst, dst + stride)
                for dst in range(0, n - stride, 2 * stride)
            )
            if merges:
                rounds.append(merges)
            stride *= 2
        return tuple(rounds)


class GroupedTopology(ReduceTopology):
    """Two-stage reduction: within each group, then across group winners.

    ``groups`` lists the slot indices of each group, in the order the
    outer stage should see them; together the groups must partition
    ``range(n)``.  The inner topology reduces each group to its first
    slot; the outer topology then reduces those winners.  Inner rounds of
    different groups are independent, so round i of every group fuses
    into one global round (they run concurrently when pooled).

    ``GroupedTopology(groups, SerialTopology(), SerialTopology())``
    reproduces the Level 1/2 pre-refactor order exactly: per-CG left
    folds, then a left fold across CGs — the same operation sequence as
    the old per-CG ``np.sum`` + cross-CG allreduce.
    """

    def __init__(self, groups: Sequence[Sequence[int]],
                 inner: Optional[ReduceTopology] = None,
                 outer: Optional[ReduceTopology] = None) -> None:
        self.groups: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(int(s) for s in group) for group in groups
        )
        if not self.groups or any(not g for g in self.groups):
            raise ConfigurationError(
                "GroupedTopology needs at least one group and no empty "
                "groups"
            )
        self.inner = inner if inner is not None else SerialTopology()
        self.outer = outer if outer is not None else self.inner
        self.pooled = self.inner.pooled or self.outer.pooled
        self.name = f"grouped({self.inner.name}/{self.outer.name})"

    def schedule(self, n: int) -> Schedule:
        members = sorted(s for g in self.groups for s in g)
        if members != list(range(n)):
            raise ConfigurationError(
                f"GroupedTopology groups must partition range({n}); "
                f"got slots {members}"
            )
        # Stage 1: each group's inner schedule, slot-translated; round i
        # of every group fuses into one global round.
        inner_rounds: List[List[Merge]] = []
        for group in self.groups:
            for i, round_ in enumerate(self.inner.schedule(len(group))):
                while len(inner_rounds) <= i:
                    inner_rounds.append([])
                inner_rounds[i].extend(
                    (group[dst], group[src]) for dst, src in round_
                )
        # Stage 2: the group winners (each group's first slot) reduce
        # under the outer topology.
        winners = [group[0] for group in self.groups]
        outer_rounds = [
            [(winners[dst], winners[src]) for dst, src in round_]
            for round_ in self.outer.schedule(len(winners))
        ]
        return tuple(tuple(r) for r in inner_rounds + outer_rounds if r)

    def for_groups(self, groups: Sequence[Sequence[int]]) -> "ReduceTopology":
        raise ConfigurationError(
            "GroupedTopology is already grouped; build a fresh one from "
            "the base topology instead"
        )

    def __repr__(self) -> str:
        return (f"GroupedTopology({len(self.groups)} groups, "
                f"inner={self.inner.name!r}, outer={self.outer.name!r})")


def validate_schedule(schedule: Schedule, n: int) -> int:
    """Check a schedule's invariants; returns the winning slot index.

    Exactly ``n - 1`` merges; each source consumed once and never reused;
    destinations always alive.  The winner is the destination of the last
    merge (with ``n == 1``, slot 0 wins by default).
    """
    alive = set(range(n))
    merges = 0
    winner = 0
    for round_ in schedule:
        seen: set = set()
        for dst, src in round_:
            if dst not in alive or src not in alive:
                raise ConfigurationError(
                    f"schedule merges dead slot: ({dst}, {src}) with "
                    f"alive={sorted(alive)}"
                )
            if dst == src or dst in seen or src in seen:
                raise ConfigurationError(
                    f"schedule round reuses a slot: ({dst}, {src})"
                )
            seen.update((dst, src))
            merges += 1
            winner = dst
        for dst, src in round_:
            alive.discard(src)
    if merges != n - 1 or len(alive) != 1:
        raise ConfigurationError(
            f"schedule for {n} slots must have exactly {n - 1} merges "
            f"leaving one winner; got {merges} merges, "
            f"{len(alive)} survivors"
        )
    return winner


#: Anything :func:`resolve_reduce` accepts.
ReduceLike = Union[str, ReduceTopology, None]


def resolve_reduce(reduce: ReduceLike = None) -> ReduceTopology:
    """Turn a reduction name (or ready topology) into a :class:`ReduceTopology`.

    ``reduce=None`` consults ``REPRO_REDUCE`` (default ``"serial"``);
    empty or whitespace-only values count as unset, so CI matrices can
    export empty strings on the legs that don't use the knob.
    """
    if isinstance(reduce, ReduceTopology):
        return reduce
    if reduce is None:
        reduce = read_str(ENV_REDUCE) or "serial"
    if reduce == "serial":
        return SerialTopology()
    if reduce == "tree":
        return TreeTopology()
    raise ConfigurationError(
        f"reduce must be a ReduceTopology instance or one of "
        f"{REDUCTIONS}, got {reduce!r}"
    )
