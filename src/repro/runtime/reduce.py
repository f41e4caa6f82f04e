"""Deterministic map/combine/reduce contract for the execution engine.

Every partition level used to follow ``engine.map(...)`` with a hand-rolled
*serial* fold of ``(sums, counts)`` partials — five copies of the same loop,
and the Amdahl bottleneck a process-pool engine would expose.  This module
replaces the idiom with an explicit contract:

``combine``
    A pure, associative, **non-mutating** binary merge of two partials.
    :func:`combine_partials` handles the shapes the executors produce
    (tuples of ndarrays, bare ndarrays, numbers) and defers to a partial's
    own ``combine`` method when it has one.

``topology``
    *Which* pairs merge, and in what order — a :class:`ReduceTopology`
    whose :meth:`~ReduceTopology.schedule` is a **pure function of the
    block count**.  Thread timing never picks the merge order, so a
    reduction is bit-reproducible by construction: the same partials under
    the same topology give the same bits on any engine, at any worker
    count.

Two reduction shapes ship:

``serial``
    The left fold ``(((p0 + p1) + p2) + ...)`` — exactly the loop the call
    sites used to hand-roll, so it is the bit-identical default.

``tree``
    A balanced binary tree over the block slots: pass r merges slot
    ``i + 2^r`` into slot ``i`` for every ``i`` divisible by ``2^(r+1)``.
    It adds the same partials in a different order, so it rounds
    differently from ``serial``.

Either way the engine folds **inline** in the caller
(:meth:`~repro.runtime.engine.ExecutionEngine.reduce_partials`): a
schedule is a flat sequence of ``(dst, src)`` merges run in order, and a
reduction issues no engine task and no task id.  The topology only fixes
the merge order, and so the bits.

:class:`GroupedTopology` reduces each group under a base topology, then
the group winners under the same topology — the shape Level 1/2 use so
the within-CG merge and the cross-CG allreduce keep today's exact
operation order.

Ledger note: combines charge **nothing** here.  Modelled reduction costs
(register-communication and MPI allreduce seconds) stay with the
executors, which charge them in canonical order outside engine tasks —
reprolint rule W602 forbids charging from inside a mapped task or a
combine.

Selection: ``reduce="tree"`` on the facade/executors/:func:`lloyd`/CLI, or
the ``REPRO_REDUCE`` environment variable (consulted only when no explicit
``reduce=`` is given; empty/whitespace counts as unset).
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..analysis.envvars import ENV_REDUCE, read_str
from ..errors import ConfigurationError

#: Names accepted by :func:`resolve_reduce`.
REDUCTIONS = ("serial", "tree")

#: One pairwise merge: (destination slot, source slot).  The source is
#: consumed; the destination holds the combined partial afterwards.
Merge = Tuple[int, int]

#: A full reduction plan: merges run in order.
Schedule = Tuple[Merge, ...]

#: A binary combine over partials.
CombineFn = Callable[[Any, Any], Any]


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

    * objects with a ``combine`` method delegate to it,
    * tuples combine elementwise (the executors' ``(sums, counts)`` shape),
    * ndarrays and plain numbers add.

    Always returns fresh objects — the operands stay pristine, so the
    engine's map results can be reduced and still scattered afterwards.
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
    timing.
    """

    #: Registry name ("serial", "tree", or a composed description).
    name: str = ""

    def schedule(self, n: int) -> Schedule:
        """The merge plan for ``n`` slots, in the order the merges run.

        Exactly ``n - 1`` merges; every slot except the final winner is
        consumed exactly once, and a consumed slot never appears again.
        :func:`validate_schedule` checks these invariants.
        """
        raise NotImplementedError

    def for_groups(self, groups: Sequence[Sequence[int]]) -> "ReduceTopology":
        """This topology lifted to a grouped (two-stage) reduction.

        Used by the Level 1/2 executors: partials reduce within each group
        (a CG) first, then the group winners reduce across groups — both
        stages under this topology's shape.
        """
        return GroupedTopology(groups, self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class SerialTopology(ReduceTopology):
    """Left-fold chain: slot i merges into slot 0, in index order.

    This is exactly the loop the call sites used to hand-roll, so it is
    the bit-identical default.
    """

    name = "serial"

    def schedule(self, n: int) -> Schedule:
        return tuple((0, i) for i in range(1, n))


class TreeTopology(ReduceTopology):
    """Balanced binary reduction tree over the slot indices.

    Pass r merges slot ``i + 2^r`` into slot ``i`` for every surviving
    ``i`` with ``i % 2^(r+1) == 0`` — the textbook recursive-halving
    shape, ``ceil(log2 n)`` passes deep.  The passes run one after the
    other; the *shape* fixes the merge order, and so the bits.
    """

    name = "tree"

    def schedule(self, n: int) -> Schedule:
        merges: List[Merge] = []
        stride = 1
        while stride < n:
            merges.extend((dst, dst + stride)
                          for dst in range(0, n - stride, 2 * stride))
            stride *= 2
        return tuple(merges)


class GroupedTopology(ReduceTopology):
    """Two-stage reduction: within each group, then across group winners.

    ``groups`` lists the slot indices of each group, in the order the
    outer stage should see them; together the groups must partition
    ``range(n)``.  The ``base`` topology reduces each group to its first
    slot, group by group; the same topology then reduces those winners.

    ``GroupedTopology(groups, SerialTopology())`` reproduces the Level 1/2
    pre-refactor order exactly: per-CG left folds, then a left fold across
    CGs — the same operation sequence as the old per-CG ``np.sum`` +
    cross-CG allreduce.
    """

    def __init__(self, groups: Sequence[Sequence[int]],
                 base: ReduceTopology) -> None:
        self.groups: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(int(s) for s in group) for group in groups
        )
        if not self.groups or any(not g for g in self.groups):
            raise ConfigurationError(
                "GroupedTopology needs at least one group and no empty "
                "groups"
            )
        self.base = base
        self.name = f"grouped({base.name})"

    def schedule(self, n: int) -> Schedule:
        members = sorted(s for g in self.groups for s in g)
        if members != list(range(n)):
            raise ConfigurationError(
                f"GroupedTopology groups must partition range({n}); "
                f"got slots {members}"
            )
        # Stage 1: each group's schedule, slot-translated.  Groups touch
        # disjoint slots, so running them one after another gives the
        # same bits as interleaving them.
        merges: List[Merge] = [
            (group[dst], group[src])
            for group in self.groups
            for dst, src in self.base.schedule(len(group))
        ]
        # Stage 2: the group winners (each group's first slot) reduce
        # under the same topology.
        winners = [group[0] for group in self.groups]
        merges.extend((winners[dst], winners[src])
                      for dst, src in self.base.schedule(len(winners)))
        return tuple(merges)

    def for_groups(self, groups: Sequence[Sequence[int]]) -> "ReduceTopology":
        raise ConfigurationError(
            "GroupedTopology is already grouped; build a fresh one from "
            "the base topology instead"
        )

    def __repr__(self) -> str:
        return (f"GroupedTopology({len(self.groups)} groups, "
                f"base={self.base.name!r})")


def validate_schedule(schedule: Schedule, n: int) -> int:
    """Check a schedule's invariants; returns the winning slot index.

    Exactly ``n - 1`` merges; each source consumed once and never reused;
    destinations always alive.  The winner is the destination of the last
    merge (with ``n == 1``, slot 0 wins by default).
    """
    alive = set(range(n))
    winner = 0
    for dst, src in schedule:
        if dst == src or dst not in alive or src not in alive:
            raise ConfigurationError(
                f"schedule merges a dead or repeated slot: ({dst}, {src}) "
                f"with alive={sorted(alive)}"
            )
        alive.discard(src)
        winner = dst
    if len(alive) != 1:
        raise ConfigurationError(
            f"schedule for {n} slots must have exactly {n - 1} merges "
            f"leaving one winner; got {len(schedule)} merges, "
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
