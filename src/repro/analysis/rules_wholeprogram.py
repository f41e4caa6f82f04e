"""W-series rules: whole-program (interprocedural) invariants.

A rule that walks one file's AST goes blind at a function boundary: an
``engine.map`` result passed through a helper, a ledger charge two calls
deep inside a task body, an ``os.environ`` reached through an alias or a
wrapper's return.  The W rules state these invariants over
:mod:`repro.analysis.project` (module/call graph) and
:mod:`repro.analysis.dataflow` (forward taint), so one rule covers the
direct case and every laundered one:

* ``W601`` — ``engine.map`` partials reaching a manual accumulation in
  the mapping function or *any* function downstream,
* ``W602`` — a ledger charge in, or *reachable along call edges* from, a
  task or combine callable handed to the engine seam (lambdas included),
* ``W603`` — ``os.environ``/``os.getenv`` reads outside ``envvars.py``,
  direct or through aliases and wrapper-returned mappings,
* ``W604`` — unpicklable callables reaching the engine seam directly or
  through variables, partials, factories, or wrapper parameters,
* ``W605`` — dict/set iteration order flowing into committed centroid or
  ledger state (D103, flow-sensitive).

The project (and its call graph) is built **once per invocation** by the
runner; each rule runs one taint fixpoint over it, memoised on the
project so ``--rules`` subsets pay only for what they use.
"""

from __future__ import annotations

from typing import Iterator, List, Set, Tuple

from .dataflow import TaintEngine, TaintSpec
from .project import CallRec, FuncSummary, Op, Project, Value
from .reprolint import Finding, ProjectRule, register_rule

#: Methods that mutate the modelled ledger.
_CHARGE_METHODS = frozenset({"charge", "charge_parallel",
                             "charge_stream_phases"})

#: ``sum``-style reductions W601 bans over raw partials.
_SUM_CALLS = frozenset({"sum", "np.sum", "numpy.sum"})

#: Environment objects whose escape W603 tracks.
_ENV_SEEDS = frozenset({"os.environ", "os.getenv"})

#: Mapping methods that read the environment when the receiver is tainted.
_ENV_READ_METHODS = frozenset({"get", "setdefault", "pop", "items",
                               "keys", "values"})


def _engine_for(project: Project, name: str,
                spec: TaintSpec) -> TaintEngine:
    """One taint fixpoint per (project, rule), memoised on the project."""
    cached = project.analysis_cache.get(name)
    if isinstance(cached, TaintEngine):
        return cached
    engine = TaintEngine(project, spec)
    engine.run()
    project.analysis_cache[name] = engine
    return engine


def _finding(rule: ProjectRule, path: str, line: int, col: int,
             message: str) -> Finding:
    return Finding(rule=rule.id, path=path, line=line, col=col + 1,
                   message=message)


# ---------------------------------------------------------------------------
# W601 — engine.map partials reaching manual accumulation anywhere
# ---------------------------------------------------------------------------

def _seed_engine_map(project: Project, func: FuncSummary,
                     call: CallRec) -> bool:
    return call.attr == "map" \
        and project.is_engine_receiver(func, call.receiver)


@register_rule
class InterproceduralPartialAccumulation(ProjectRule):
    """W601: engine.map partials merge only through the reduction seam."""

    id = "W601"
    name = "interprocedural-partial-accumulation"
    summary = ("engine.map partials must reduce through map_reduce / "
               "runtime/reduce.py, in the mapping function or after they "
               "travel through helper functions, returns, derived "
               "containers, or carrier attributes; a hand-rolled "
               "accumulation anywhere downstream re-opens the serial-merge "
               "bottleneck")
    scopes = ("core", "runtime")
    exempt = ("reduce", "engine")

    def check_project(self, project: Project) -> Iterator[Finding]:
        # ``unit_sums[u].sum()`` still carries the partials it reduces.
        engine = _engine_for(project, self.id, TaintSpec(
            name=self.id, seed_call=_seed_engine_map,
            transparent_methods=frozenset({"copy", "sum"})))
        for summary in project.files.values():
            if not self.scope_ok(summary.parts):
                continue
            for func in summary.functions:
                seen: Set[Tuple[int, int]] = set()
                for op in func.ops:
                    if op.kind == "assign" and op.accum \
                            and engine.value_tainted(func, op.value) \
                            and (op.line, op.col) not in seen:
                        seen.add((op.line, op.col))
                        yield _finding(
                            self, summary.path, op.line, op.col,
                            "manual accumulation over engine.map partials; "
                            "merge them with engine.map_reduce(fn, items, "
                            "topology=...) so the reduction topology owns "
                            "the merge order")
                for call in func.calls:
                    if call.callee in _SUM_CALLS and call.args \
                            and engine.value_tainted(func, call.args[0]) \
                            and (call.line, call.col) not in seen:
                        seen.add((call.line, call.col))
                        yield _finding(
                            self, summary.path, call.line, call.col,
                            "sum(...) over engine.map partials bypasses "
                            "the reduction seam; merge them with "
                            "engine.map_reduce")


# ---------------------------------------------------------------------------
# W602 — ledger charges reachable from engine task bodies
# ---------------------------------------------------------------------------

@register_rule
class ReachableChargeInTask(ProjectRule):
    """W602: engine tasks never charge the ledger, at any call depth."""

    id = "W602"
    name = "reachable-charge-in-engine-task"
    summary = ("no ledger charge may sit in, or be *reachable along call "
               "edges* from, a task or combine callable (a def, partial, "
               "or lambda) handed to engine.map / map_reduce / "
               "reduce_partials — host retries would re-apply it in pool "
               "order no matter how many helpers deep it hides")
    scopes = ("core", "runtime")

    def _roots(self, project: Project) -> List[Tuple[str, str, str]]:
        """(task qualname, site path, site pos) for every seam call site."""
        roots: List[Tuple[str, str, str]] = []
        for site in project.graph.engine_sites:
            caller = project.functions.get(site.caller)
            if caller is None:
                continue
            candidates: List[Value] = []
            if site.method in ("map", "map_reduce") and site.call.args:
                candidates.append(site.call.args[0])
            combine_slot = {"map_reduce": 2, "reduce_partials": 1}
            slot = combine_slot.get(site.method)
            if slot is not None and len(site.call.args) > slot:
                candidates.append(site.call.args[slot])
            for name, value in site.call.kwargs:
                if name == "combine":
                    candidates.append(value)
            for value in candidates:
                for qual in project.resolve_callable_value(caller, value):
                    roots.append((qual, site.path, f"{site.line}"))
        return roots

    def check_project(self, project: Project) -> Iterator[Finding]:
        seen: Set[Tuple[str, int, int]] = set()
        for root, site_path, site_line in self._roots(project):
            for reached in sorted(project.graph.reachable_from([root])):
                func = project.functions.get(reached)
                if func is None:
                    continue
            # findings reported at the charge, in the charge's file
                summary = project.files.get(func.path)
                if summary is None or not self.scope_ok(summary.parts):
                    continue
                for call in func.calls:
                    if call.attr not in _CHARGE_METHODS:
                        continue
                    key = (func.path, call.line, call.col)
                    if key in seen:
                        continue
                    seen.add(key)
                    hop = "" if reached == root else \
                        f" (reached from task `{_short(root)}` through " \
                        f"the call graph)"
                    yield _finding(
                        self, func.path, call.line, call.col,
                        f"`.{call.attr}(...)` is reachable from engine "
                        f"task `{_short(root)}` submitted at "
                        f"{site_path}:{site_line}{hop}; host retries "
                        f"would re-charge it and pool threads would "
                        f"charge out of order — charging stays in the "
                        f"serial loop over the returned partials")


def _short(qualname: str) -> str:
    return qualname.split(":", 1)[-1]


# ---------------------------------------------------------------------------
# W603 — environment reads outside envvars.py, direct or laundered
# ---------------------------------------------------------------------------

def _seed_env_ref(project: Project, func: FuncSummary, ref: str) -> bool:
    return ref in _ENV_SEEDS


@register_rule
class LaunderedEnvironRead(ProjectRule):
    """W603: only envvars.py reads the environment, however it is reached."""

    id = "W603"
    name = "laundered-environ-read"
    summary = ("only repro.analysis.envvars may read os.environ / "
               "os.getenv, directly or through `from os import environ` "
               "aliases, rebound getters, or accessor-returned mappings; "
               "knobs go through the typed read_str/read_int/read_float "
               "accessors")
    scopes = ("repro",)
    exempt = ("envvars",)

    def check_project(self, project: Project) -> Iterator[Finding]:
        engine = _engine_for(project, self.id, TaintSpec(
            name=self.id, seed_ref=_seed_env_ref,
            constructors_transparent=False))
        for summary in project.files.values():
            if not self.scope_ok(summary.parts):
                continue
            for func in summary.functions:
                yield from self._check_function(engine, summary.path, func)

    def _check_function(self, engine: TaintEngine, path: str,
                        func: FuncSummary) -> Iterator[Finding]:
        seen: Set[Tuple[int, int]] = set()

        def flag(line: int, col: int, what: str) -> Iterator[Finding]:
            if (line, col) not in seen:
                seen.add((line, col))
                yield _finding(
                    self, path, line, col,
                    f"{what} reads the environment outside "
                    f"repro.analysis.envvars; read knobs through its "
                    f"typed accessors (read_str/read_int/read_float) so "
                    f"empty-as-unset semantics and the registry hold")

        for op in func.ops:
            if op.kind == "subscript" \
                    and engine.ref_tainted(func, op.targets[0]):
                yield from flag(op.line, op.col, f"`{op.targets[0]}[...]`")
        for call in func.calls:
            if call.receiver and engine.ref_tainted(func, call.receiver):
                # A method of an environment mapping: only reads count.
                hit = call.attr in _ENV_READ_METHODS
            else:
                # The callee itself is a getter (os.getenv or an alias).
                hit = bool(call.callee) \
                    and engine.ref_tainted(func, call.callee)
            if hit:
                yield from flag(call.line, call.col, f"`{call.callee}(...)`")


# ---------------------------------------------------------------------------
# W604 — unpicklable callables flowing into the engine seam
# ---------------------------------------------------------------------------

def _seed_unpicklable_value(project: Project, func: FuncSummary,
                            value: Value) -> bool:
    if value.lambdas:
        return True
    return any("." not in ref and ref in func.nested_defs
               for ref in value.refs)


@register_rule
class FlowingUnpicklableCallable(ProjectRule):
    """W604: engine task callables must pickle, however they arrive."""

    id = "W604"
    name = "flowing-unpicklable-callable"
    summary = ("lambdas and nested defs must not reach engine.map / "
               "map_reduce / reduce_partials, directly or through "
               "variables, functools.partial chains, factory returns, or "
               "wrapper-function parameters; they cannot pickle to "
               "process-engine workers")
    scopes = ("core", "runtime")

    def check_project(self, project: Project) -> Iterator[Finding]:
        engine = _engine_for(project, self.id, TaintSpec(
            name=self.id, seed_value=_seed_unpicklable_value,
            transparent=frozenset(),
            transparent_methods=frozenset(),
            constructors_transparent=False))
        seen: Set[Tuple[str, int, int]] = set()
        for site in project.graph.engine_sites:
            summary = project.files.get(site.path)
            caller = project.functions.get(site.caller)
            if summary is None or caller is None \
                    or not self.scope_ok(summary.parts):
                continue
            values: List[Tuple[Value, str]] = []
            if site.method in ("map", "map_reduce") and site.call.args:
                values.append((site.call.args[0], "task"))
            combine_slot = {"map_reduce": 2, "reduce_partials": 1}
            slot = combine_slot.get(site.method)
            if slot is not None and len(site.call.args) > slot:
                values.append((site.call.args[slot], "combine"))
            for name, value in site.call.kwargs:
                if name == "combine":
                    values.append((value, "combine"))
            for value, role in values:
                key = (site.path, site.call.line, site.call.col)
                if key in seen:
                    continue
                if engine.value_tainted(caller, value):
                    seen.add(key)
                    yield _finding(
                        self, site.path, site.call.line, site.call.col,
                        f"the {role} callable handed to "
                        f"engine.{site.method} carries a lambda or nested "
                        f"def (possibly created in another function); it "
                        f"cannot pickle to process-engine workers — hoist "
                        f"it to module level and bind state via "
                        f"functools.partial")


# ---------------------------------------------------------------------------
# W605 — dict/set iteration order flowing into committed state
# ---------------------------------------------------------------------------

def _seed_ordered_call(project: Project, func: FuncSummary,
                       call: CallRec) -> bool:
    if call.attr in ("items", "values", "keys") and not call.args \
            and call.receiver:
        return True
    return call.callee in ("set", "frozenset")


def _seed_ordered_value(project: Project, func: FuncSummary,
                        value: Value) -> bool:
    return value.ordered


def _seed_ordered_loop(project: Project, func: FuncSummary,
                       op: Op) -> bool:
    return op.ordered_kind is not None


_STATE_NAMES = ("centroid", "inertia")


def _commits_state(path: str) -> bool:
    low = path.lower()
    return any(needle in low for needle in _STATE_NAMES)


@register_rule
class OrderedIterationIntoState(ProjectRule):
    """W605: D103 made flow-sensitive."""

    id = "W605"
    name = "ordered-iteration-into-state"
    summary = ("values carrying dict-view or set iteration order must not "
               "flow — directly or through helpers — into committed "
               "centroid/inertia state or modelled ledger charges; "
               "sort the iteration (or a fixed key list) at the source "
               "(flow-sensitive D103)")
    scopes = ("repro",)
    exempt = ("reduce",)

    def check_project(self, project: Project) -> Iterator[Finding]:
        engine = _engine_for(project, self.id, TaintSpec(
            name=self.id,
            seed_call=_seed_ordered_call,
            seed_value=_seed_ordered_value,
            seed_loop=_seed_ordered_loop,
            # sorted() is deliberately absent: it cancels order-taint.
            transparent=frozenset({"list", "tuple", "enumerate", "zip",
                                   "reversed", "iter", "next", "dict",
                                   "sum", "array", "asarray", "stack",
                                   "concatenate"}),
        ))
        for summary in project.files.values():
            if not self.scope_ok(summary.parts):
                continue
            for func in summary.functions:
                seen: Set[Tuple[int, int]] = set()
                for op in func.ops:
                    if op.kind != "assign":
                        continue
                    committed = [t for t in op.targets if _commits_state(t)]
                    if committed and engine.value_tainted(func, op.value) \
                            and (op.line, op.col) not in seen:
                        seen.add((op.line, op.col))
                        yield _finding(
                            self, summary.path, op.line, op.col,
                            f"`{committed[0]}` is committed from a value "
                            f"that consumed dict/set iteration order "
                            f"(possibly through helper calls); the bits "
                            f"then depend on insertion/hash order — sort "
                            f"at the iteration site")
                for call in func.calls:
                    if call.attr in _CHARGE_METHODS \
                            and (call.line, call.col) not in seen \
                            and (any(engine.value_tainted(func, a)
                                     for a in call.args)
                                 or any(engine.value_tainted(func, v)
                                        for _, v in call.kwargs)):
                        seen.add((call.line, call.col))
                        yield _finding(
                            self, summary.path, call.line, call.col,
                            f"`.{call.attr}(...)` charges the modelled "
                            f"ledger with a value that consumed dict/set "
                            f"iteration order (possibly through helper "
                            f"calls); modelled seconds would depend on "
                            f"insertion/hash order — sort at the "
                            f"iteration site")
