"""D-series rules: bit-identical numerics.

The determinism contract (docs/architecture.md "Determinism",
``tests/runtime/test_engine.py``) says centroids, modelled ledger seconds,
and fault replays are bit-identical across engines, worker counts, fault
replays, and checkpoint resumes.  These rules catch the coding patterns
that historically break that contract in parallel k-means codes: hidden
entropy sources, order-sensitive float reductions, and float equality.
"""

from __future__ import annotations

import ast
from typing import Iterator, Tuple

from .reprolint import Finding, LintContext, Rule, dotted_name, register_rule

#: Samplers on numpy's *global* stream — unseeded, shared, mutable state.
_GLOBAL_SAMPLERS = frozenset({
    "rand", "randn", "random", "random_sample", "randint", "choice",
    "shuffle", "permutation", "seed", "normal", "uniform", "standard_normal",
})

#: Wall-clock reads that must not feed modelled numerics.
_CLOCK_CALLS = frozenset({
    "time.time", "time.perf_counter", "time.monotonic", "time.process_time",
    "time.time_ns", "time.perf_counter_ns", "time.monotonic_ns",
    "datetime.now", "datetime.utcnow",
    "datetime.datetime.now", "datetime.datetime.utcnow",
})

_NUMERIC_SCOPES: Tuple[str, ...] = ("core", "runtime")


@register_rule
class UnseededRandomness(Rule):
    """D101: no hidden entropy in the numeric packages."""

    id = "D101"
    name = "unseeded-randomness"
    summary = ("numerics must draw from explicitly seeded generators: no "
               "`import random`, no `np.random.default_rng()` without a "
               "seed, no global-stream `np.random.*` samplers")
    scopes = ("core", "runtime", "machine")

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "random":
                        yield ctx.finding(
                            self, node,
                            "stdlib `random` is process-global state; use "
                            "np.random.default_rng(seed) instead")
            elif isinstance(node, ast.ImportFrom):
                if node.module is not None \
                        and node.module.split(".")[0] == "random":
                    yield ctx.finding(
                        self, node,
                        "stdlib `random` is process-global state; use "
                        "np.random.default_rng(seed) instead")
            elif isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name.endswith("random.default_rng") \
                        and not node.args and not node.keywords:
                    yield ctx.finding(
                        self, node,
                        "np.random.default_rng() without a seed is fresh OS "
                        "entropy per call; pass an explicit seed sequence")
                elif name.startswith(("np.random.", "numpy.random.")) \
                        and name.rsplit(".", 1)[-1] in _GLOBAL_SAMPLERS:
                    yield ctx.finding(
                        self, node,
                        f"`{name}` uses numpy's shared global stream; "
                        f"draw from np.random.default_rng(seed)")


@register_rule
class WallClockInNumerics(Rule):
    """D102: `core/` charges modelled seconds, never the host clock."""

    id = "D102"
    name = "wall-clock-in-core"
    summary = ("repro.core must not read the host clock; host timing "
               "belongs to runtime/supervisor.py")
    scopes = ("core",)

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call) \
                    and dotted_name(node.func) in _CLOCK_CALLS:
                yield ctx.finding(
                    self, node,
                    f"`{dotted_name(node.func)}` reads the host wall clock "
                    f"inside core numerics; modelled time comes from the "
                    f"ledger, host time from RunSupervisor")


def _is_dict_view_call(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("items", "values", "keys")
            and not node.args and not node.keywords)


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset"))


@register_rule
class UnorderedIteration(Rule):
    """D103: merges and charges iterate in a *stated* fixed order."""

    id = "D103"
    name = "unordered-iteration"
    summary = ("loops and reductions in core/runtime must not consume "
               "dict-view or set iteration order directly; wrap the "
               "iterable in sorted(...) or iterate a list with fixed order")
    scopes = _NUMERIC_SCOPES

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            iters = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            elif isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Name) \
                    and node.func.id in ("sum", "max", "min") and node.args:
                iters.append(node.args[0])
            for it in iters:
                if _is_dict_view_call(it):
                    yield ctx.finding(
                        self, it,
                        f"iterating `.{it.func.attr}()` consumes dict "  # type: ignore[attr-defined]
                        f"insertion order; make the order explicit "
                        f"(sorted(...) or a fixed key list)")
                elif _is_set_expr(it):
                    yield ctx.finding(
                        self, it,
                        "iterating a set consumes hash order; sort it or "
                        "use an ordered container")


@register_rule
class FloatEquality(Rule):
    """D104: centroid/inertia floats never compare with == / !=."""

    id = "D104"
    name = "float-equality"
    summary = ("no float == / != on centroid or inertia values (exact-zero "
               "sentinels are exempt); compare shifts against a tolerance")
    scopes = _NUMERIC_SCOPES

    _NAMES = ("inertia", "centroid", "distance")
    #: Non-float attributes of arrays named like centroid/distance buffers.
    _METADATA_ATTRS = ("shape", "dtype", "ndim", "size", "nbytes")

    def _suspicious(self, node: ast.AST) -> str:
        if isinstance(node, ast.Constant) and isinstance(node.value, float) \
                and node.value != 0.0:
            return f"float literal {node.value!r}"
        name = dotted_name(node)
        if not name or name.rsplit(".", 1)[-1] in self._METADATA_ATTRS:
            return ""
        low = name.lower()
        for needle in self._NAMES:
            if needle in low:
                return f"`{name}`"
        return ""

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            for operand in [node.left, *node.comparators]:
                what = self._suspicious(operand)
                if what:
                    yield ctx.finding(
                        self, node,
                        f"exact float comparison on {what}; equality on "
                        f"accumulated floats is order- and platform-"
                        f"sensitive — compare a shift against a tolerance")
                    break


@register_rule
class CompletionOrderCollection(Rule):
    """D105: engine results merge in submission order, never completion."""

    id = "D105"
    name = "completion-order-collection"
    summary = ("core/runtime must not collect futures in completion order "
               "(`as_completed`, FIRST_COMPLETED); partials merge in "
               "submission order")
    scopes = _NUMERIC_SCOPES

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            names = []
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            elif isinstance(node, (ast.Name, ast.Attribute)):
                dotted = dotted_name(node)
                names = [dotted.rsplit(".", 1)[-1]] if dotted else []
            for name in names:
                if name in ("as_completed", "FIRST_COMPLETED"):
                    yield ctx.finding(
                        self, node,
                        f"`{name}` yields completion order, which varies "
                        f"run to run; collect futures in submission order "
                        f"so float partials merge deterministically")
                    break


#: Calls that adopt previously persisted state (checkpoint restores and
#: the durable-snapshot resume of ``CheckpointStore.resume``).
_RESTORE_CALLS = frozenset({"restore", "load_checkpoint", "from_checkpoint",
                            "resume"})

#: Calls that make carried bound state safe again after a restore: the
#: executors' shared reset hook (besides the in-place ``invalidate()``).
_BOUNDS_RESET_CALLS = frozenset({"_reset_state_after_replan"})


def _bounds_like(name: str) -> bool:
    """True for dotted names that mention a bounds carrier."""
    return any("bounds" in part for part in name.lower().split("."))


@register_rule
class StaleBoundsAfterRestore(Rule):
    """D107: restored centroids never meet carried pruning bounds."""

    id = "D107"
    name = "stale-bounds-after-restore"
    summary = ("after a checkpoint restore (`*.restore()`, `*.resume()`, "
               "`load_checkpoint(...)`) bound state must be invalidated or "
               "rebuilt before it is read; drifting bounds anchored to "
               "pre-restore centroids is unsound and silently breaks "
               "bit-identity of resumed runs")
    scopes = _NUMERIC_SCOPES

    def _statements(self, func: ast.AST) -> Iterator[ast.AST]:
        """Nodes of the function body in source order, own scope only."""
        stack = list(getattr(func, "body", []))
        while stack:
            node = stack.pop(0)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef, ast.Lambda)):
                continue
            yield node
            stack.extend(ast.iter_child_nodes(node))

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for func in ast.walk(ctx.tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(ctx, func)

    def _check_function(self, ctx: LintContext,
                        func: ast.AST) -> Iterator[Finding]:
        # (position, kind, node) event stream in source order.  Kinds:
        # "restore" opens a hazard window, "reset" closes it, "read" inside
        # an open window is the violation.
        events = []
        func_chain_ids = set()
        for node in self._statements(func):
            if isinstance(node, ast.Call):
                # Everything in callee position is exempt from "read":
                # `bounds.invalidate()` and `BlockBounds()` mention the
                # carrier without consuming its state.
                callee = node.func
                while isinstance(callee, ast.Attribute):
                    func_chain_ids.add(id(callee))
                    callee = callee.value
                func_chain_ids.add(id(callee))
        for node in self._statements(func):
            pos = (getattr(node, "lineno", 0), getattr(node, "col_offset", 0))
            if isinstance(node, ast.Call):
                name = dotted_name(node.func)
                last = name.rsplit(".", 1)[-1]
                if last in _BOUNDS_RESET_CALLS \
                        or (last == "invalidate"
                            and _bounds_like(name.rsplit(".", 1)[0])):
                    events.append((pos, "reset", node))
                elif last in _RESTORE_CALLS:
                    events.append((pos, "restore", node))
            elif isinstance(node, ast.Assign):
                if any(_bounds_like(dotted_name(t)) for t in node.targets):
                    events.append((pos, "reset", node))
            elif isinstance(node, (ast.Name, ast.Attribute)) \
                    and isinstance(getattr(node, "ctx", None), ast.Load) \
                    and id(node) not in func_chain_ids \
                    and _bounds_like(dotted_name(node)):
                events.append((pos, "read", node))
        events.sort(key=lambda e: e[0])
        pending = None
        for _, kind, node in events:
            if kind == "restore":
                pending = node
            elif kind == "reset":
                pending = None
            elif kind == "read" and pending is not None:
                pending = None
                yield ctx.finding(
                    self, node,
                    f"`{dotted_name(node)}` is read after a checkpoint "
                    f"restore without invalidation; bounds anchored to "
                    f"pre-restore centroids are unsound — call "
                    f"`.invalidate()` (or rebuild the carrier) first")
