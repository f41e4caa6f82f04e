"""Whole-program project model: file summaries, imports, and the call graph.

An AST walk of one file goes blind at a function boundary: an
``engine.map`` result laundered through a helper, or a ledger charge
buried two calls deep inside a task body, is out of its sight.  The W
rules need *whole-program* reasoning, and this module is its foundation:

* :class:`FileSummary` — a compact, **picklable** intermediate
  representation of one source file (functions and lambdas, imports,
  classes, and an abstracted statement stream).  The summary carries
  everything the interprocedural engine needs, so the incremental lint cache
  (:mod:`repro.analysis.cache`) can store it keyed by content hash and a
  warm run never re-parses an unchanged file.
* :class:`Project` — every summary of one lint invocation, with import
  resolution, a class/method index, simple receiver-type inference
  (annotated parameters and single-assignment constructor locals), and
* :class:`CallGraph` — one edge per call site whose callee resolves to a
  function defined in the project, built **once per invocation** and
  shared by every whole-program rule
  (:mod:`repro.analysis.rules_wholeprogram`).

Known approximations (documented in ``docs/architecture.md``): dynamic
dispatch through ``getattr``/dicts-of-functions is invisible, decorators
are assumed name-preserving, and positional dataclass constructor
arguments do not map to carrier attributes (keyword arguments do).  The
graph over-approximates receivers named ``engine`` as execution engines.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import PurePosixPath
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

__all__ = [
    "CallGraph",
    "CallRec",
    "ClassInfo",
    "Edge",
    "EngineSite",
    "FileSummary",
    "FuncSummary",
    "Op",
    "Project",
    "Value",
    "extract_summary",
    "module_name_for",
]

#: ``ExecutionEngine`` methods forming the map/combine/reduce seam.
ENGINE_SEAM_METHODS = ("map", "map_reduce", "reduce_partials")

#: Builtins through which data taint flows from arguments to result.
TRANSPARENT_CALLS = frozenset({
    "list", "tuple", "sorted", "reversed", "enumerate", "zip", "iter",
    "next", "dict",
})

#: Callables whose *first argument's* callable-ness survives the call.
WRAPPER_CALLS = frozenset({"partial", "wraps"})


# ---------------------------------------------------------------------------
# the abstract-value / operation IR
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Value:
    """Abstraction of one expression: what could its result carry?

    ``refs`` are the dotted paths read in value position (subscripts are
    elided, so ``partials[i].sums`` contributes ``"partials.sums"``);
    ``calls`` are the calls whose results feed the value; ``lambdas``
    marks inline ``lambda`` expressions (inherently unpicklable);
    ``consts`` keeps string literals (environment-variable names);
    ``ordered`` is True when the expression consumes dict-view or set
    iteration order (a comprehension over ``d.items()``; ``sorted(...)``
    cancels it).
    """

    refs: Tuple[str, ...] = ()
    calls: Tuple["CallRec", ...] = ()
    lambdas: Tuple[Tuple[int, int], ...] = ()
    consts: Tuple[str, ...] = ()
    ordered: bool = False


_EMPTY_VALUE = Value()


@dataclass(frozen=True)
class CallRec:
    """One call site, abstracted: ``callee(args, **kwargs)`` at line:col."""

    callee: str                                # dotted path; "" if dynamic
    args: Tuple[Value, ...]
    kwargs: Tuple[Tuple[str, Value], ...]
    line: int
    col: int

    @property
    def attr(self) -> str:
        """The final path segment (method/function name)."""
        return self.callee.rsplit(".", 1)[-1]

    @property
    def receiver(self) -> str:
        """The dotted path before the final segment ('' for bare names)."""
        head, _, _ = self.callee.rpartition(".")
        return head


@dataclass(frozen=True)
class Op:
    """One abstracted statement inside a function body.

    kind:
        * ``"assign"`` — targets bound to ``value`` (augmented assignments
          set ``accum`` so accumulation sinks can tell ``x = v`` from
          ``x += v``),
        * ``"return"`` — function returns ``value``,
        * ``"loop"`` — a for loop: ``value`` is the iterable, ``targets``
          the loop variables, ``accum_targets`` the names augmented inside
          the body, ``ordered_kind`` ``"dict-view"``/``"set"`` when the
          iterable consumes hash/insertion order,
        * ``"subscript"`` — a Load-context ``base[...]`` read (environment
          mapping reads),
        * ``"call"`` — a bare call statement (also present in ``value``).
    """

    kind: str
    line: int
    col: int
    targets: Tuple[str, ...] = ()
    value: Value = _EMPTY_VALUE
    accum: bool = False
    accum_targets: Tuple[str, ...] = ()
    ordered_kind: Optional[str] = None


@dataclass(frozen=True)
class FuncSummary:
    """One function, method, lambda, or the synthetic ``<module>`` body.

    A lambda is named ``<lambda@line:col>`` after its position, nested
    under the scope it appears in, and its body is one ``return`` op.
    """

    module: str                    # dotted module name
    qualname: str                  # "<module>:<dotted func path>"
    name: str
    cls: Optional[str]             # owning class name, if a method
    params: Tuple[str, ...]
    annotations: Tuple[Optional[str], ...]
    line: int
    col: int
    path: str                      # display path of the defining file
    calls: Tuple[CallRec, ...]     # every call site, source order
    ops: Tuple[Op, ...]            # abstracted statements, source order
    nested_defs: Tuple[str, ...]   # names of defs nested inside this one


@dataclass(frozen=True)
class ClassInfo:
    """One class definition: its methods and (dotted, as-written) bases."""

    module: str
    name: str
    methods: Tuple[str, ...]
    bases: Tuple[str, ...]

    @property
    def qual(self) -> str:
        return f"{self.module}:{self.name}"


@dataclass(frozen=True)
class FileSummary:
    """Everything the whole-program engine needs from one file."""

    path: str
    module: str
    parts: Tuple[str, ...]          # posix path components, stem last
    imports: Tuple[Tuple[str, str], ...]   # local alias -> dotted target
    functions: Tuple[FuncSummary, ...]
    classes: Tuple[ClassInfo, ...]

    def import_map(self) -> Dict[str, str]:
        return dict(self.imports)


# ---------------------------------------------------------------------------
# module naming
# ---------------------------------------------------------------------------

_ROOT_PACKAGES = ("repro", "tests")


def module_name_for(path: str) -> str:
    """Dotted module name for a display path, without touching the disk.

    The repo has exactly two package roots (``src/repro`` and ``tests``);
    files under either get their dotted name from that root on, everything
    else (benchmarks, examples, fixtures in temp dirs) is a top-level
    module named by its stem.  Being a pure function of the path keeps
    summaries cacheable and lets rule fixtures fabricate project layouts.
    """
    posix = PurePosixPath(str(path).replace("\\", "/"))
    parts = list(posix.parts)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    for root in _ROOT_PACKAGES:
        if root in parts[:-1] or (parts and parts[-1] == root):
            start = parts.index(root)
            dotted = [p for p in parts[start:] if p != "__init__"]
            return ".".join(dotted) if dotted else root
    return parts[-1] if parts else "<unknown>"


# ---------------------------------------------------------------------------
# expression abstraction
# ---------------------------------------------------------------------------

def _dotted_path(node: ast.AST) -> str:
    """``a.b.c`` for Name/Attribute chains; subscripts are elided
    (``a[i].b`` -> ``a.b``), anything else yields ''."""
    parts: List[str] = []
    while True:
        if isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        elif isinstance(node, ast.Subscript):
            node = node.value
        elif isinstance(node, ast.Name):
            parts.append(node.id)
            return ".".join(reversed(parts))
        else:
            return ""


def _is_dict_view(node: ast.AST) -> bool:
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


class _ValueBuilder:
    """Folds one expression tree into a :class:`Value`."""

    def __init__(self) -> None:
        self.refs: List[str] = []
        self.calls: List[CallRec] = []
        self.lambdas: List[Tuple[int, int]] = []
        self.consts: List[str] = []
        self.ordered = False

    def build(self, node: Optional[ast.AST]) -> Value:
        if node is not None:
            self._fold(node)
        return Value(refs=tuple(self.refs), calls=tuple(self.calls),
                     lambdas=tuple(self.lambdas), consts=tuple(self.consts),
                     ordered=self.ordered)

    def _fold(self, node: ast.AST) -> None:
        if isinstance(node, (ast.Name, ast.Attribute)):
            path = _dotted_path(node)
            if path:
                self.refs.append(path)
            elif isinstance(node, ast.Attribute):
                self._fold(node.value)
            return
        if isinstance(node, ast.Subscript):
            path = _dotted_path(node)
            if path:
                self.refs.append(path)
            else:
                self._fold(node.value)
            self._fold(node.slice)
            return
        if isinstance(node, ast.Call):
            self.calls.append(_call_rec(node))
            if _dotted_path(node.func) == "":
                # Dynamic callee (call-on-call): keep its operand refs.
                self._fold(node.func)
            return
        if isinstance(node, ast.Lambda):
            self.lambdas.append((node.lineno, node.col_offset))
            return
        if isinstance(node, ast.Constant):
            if isinstance(node.value, str):
                self.consts.append(node.value)
            return
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                             ast.DictComp)):
            for gen in node.generators:
                if _is_dict_view(gen.iter) or _is_set_expr(gen.iter):
                    self.ordered = True
                self._fold(gen.iter)
            if isinstance(node, ast.DictComp):
                self._fold(node.key)
                self._fold(node.value)
            else:
                self._fold(node.elt)
            return
        for child in ast.iter_child_nodes(node):
            self._fold(child)


def _abstract(node: Optional[ast.AST]) -> Value:
    return _ValueBuilder().build(node)


def _call_rec(node: ast.Call) -> CallRec:
    callee = _dotted_path(node.func)
    args = tuple(_abstract(a) for a in node.args)
    kwargs = tuple((kw.arg, _abstract(kw.value))
                   for kw in node.keywords if kw.arg is not None)
    return CallRec(callee=callee, args=args, kwargs=kwargs,
                   line=node.lineno, col=node.col_offset)


# ---------------------------------------------------------------------------
# function-body extraction
# ---------------------------------------------------------------------------

def _target_paths(target: ast.AST) -> Iterator[str]:
    if isinstance(target, (ast.Name, ast.Attribute, ast.Subscript)):
        path = _dotted_path(target)
        if path:
            yield path
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _target_paths(element)
    elif isinstance(target, ast.Starred):
        yield from _target_paths(target.value)


_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
                ast.Lambda)


def _own_scope_nodes(body: Sequence[ast.stmt]) -> Iterator[ast.AST]:
    """All AST nodes of ``body`` excluding nested def/class/lambda scopes
    (the nested defs and lambdas get their own summaries)."""
    stack: List[ast.AST] = list(body)
    while stack:
        node = stack.pop(0)
        if isinstance(node, _SCOPE_NODES):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _own_lambdas(body: Sequence[ast.stmt]) -> List[ast.Lambda]:
    """The lambdas of ``body``'s own scope, in source-walk order."""
    return [child for node in _own_scope_nodes(body)
            for child in ast.iter_child_nodes(node)
            if isinstance(child, ast.Lambda)]


def _lambda_name(line: int, col: int) -> str:
    return f"<lambda@{line}:{col}>"


def _loop_op(node: ast.For) -> Op:
    targets = tuple(_target_paths(node.target))
    accum: List[str] = []
    for sub in _own_scope_nodes(node.body):
        if isinstance(sub, ast.AugAssign) \
                and isinstance(sub.op, (ast.Add, ast.Sub)):
            accum.extend(_target_paths(sub.target))
    ordered_kind: Optional[str] = None
    if _is_dict_view(node.iter):
        ordered_kind = "dict-view"
    elif _is_set_expr(node.iter):
        ordered_kind = "set"
    return Op(kind="loop", line=node.lineno, col=node.col_offset,
              targets=targets, value=_abstract(node.iter),
              accum_targets=tuple(accum), ordered_kind=ordered_kind)


def _annotation_text(node: Optional[ast.expr]) -> Optional[str]:
    """Best-effort dotted string for a parameter annotation.

    Handles plain names/attributes, string annotations, and unwraps a
    single ``Optional[...]``; anything fancier is left unresolved (the
    analysis then simply has no receiver type, never a wrong one).
    """
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        text = node.value.strip().strip("'\"")
        return text or None
    if isinstance(node, ast.Subscript):
        head = _dotted_path(node.value)
        if head.rsplit(".", 1)[-1] == "Optional":
            return _annotation_text(
                node.slice if isinstance(node.slice, ast.expr) else None)
        return None
    path = _dotted_path(node)
    return path or None


def _extract_ops(body: Sequence[ast.stmt]) -> Tuple[Tuple[Op, ...],
                                                    Tuple[CallRec, ...]]:
    ops: List[Op] = []
    calls: List[CallRec] = []
    for node in _own_scope_nodes(body):
        if isinstance(node, ast.Call):
            calls.append(_call_rec(node))
        if isinstance(node, ast.Assign):
            targets = tuple(p for t in node.targets
                            for p in _target_paths(t))
            ops.append(Op(kind="assign", line=node.lineno,
                          col=node.col_offset, targets=targets,
                          value=_abstract(node.value)))
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            ops.append(Op(kind="assign", line=node.lineno,
                          col=node.col_offset,
                          targets=tuple(_target_paths(node.target)),
                          value=_abstract(node.value)))
        elif isinstance(node, ast.AugAssign):
            ops.append(Op(kind="assign", line=node.lineno,
                          col=node.col_offset,
                          targets=tuple(_target_paths(node.target)),
                          value=_abstract(node.value), accum=True))
        elif isinstance(node, ast.Return):
            ops.append(Op(kind="return", line=node.lineno,
                          col=node.col_offset,
                          value=_abstract(node.value)))
        elif isinstance(node, ast.For):
            ops.append(_loop_op(node))
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                               ast.DictComp)):
            pass  # folded into the enclosing statement's Value
        elif isinstance(node, ast.Subscript) \
                and isinstance(node.ctx, ast.Load):
            base = _dotted_path(node.value)
            if base:
                ops.append(Op(kind="subscript", line=node.lineno,
                              col=node.col_offset, targets=(base,)))
        elif isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
            ops.append(Op(kind="call", line=node.lineno,
                          col=node.col_offset,
                          value=_abstract(node.value)))
    # Deterministic source order for the fixpoint and the findings.
    ops.sort(key=lambda op: (op.line, op.col))
    calls.sort(key=lambda c: (c.line, c.col))
    return tuple(ops), tuple(calls)


def _func_summary(
        node: "ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda",
        module: str, path: str, prefix: str,
        cls: Optional[str]) -> List[FuncSummary]:
    """Summaries for one def or lambda and (recursively) the defs and
    lambdas nested in it."""
    body: Sequence[ast.stmt]
    if isinstance(node, ast.Lambda):
        name = _lambda_name(node.lineno, node.col_offset)
        body = [ast.Return(value=node.body, lineno=node.lineno,
                           col_offset=node.col_offset)]
    else:
        name, body = node.name, node.body
    func_path = f"{prefix}.{name}" if prefix else name
    all_args = list(node.args.posonlyargs) + list(node.args.args)
    params = tuple(a.arg for a in all_args)
    annotations = tuple(_annotation_text(a.annotation) for a in all_args)
    ops, calls = _extract_ops(body)
    nested: List[FuncSummary] = []
    nested_names: List[str] = []
    for sub in body:
        for inner in ast.walk(sub):
            if isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and inner is not node \
                    and _directly_inside(node, inner):
                nested_names.append(inner.name)
                nested.extend(_func_summary(inner, module, path,
                                            func_path, cls))
    for lam in _own_lambdas(body):
        nested.extend(_func_summary(lam, module, path, func_path, cls))
    summary = FuncSummary(
        module=module, qualname=f"{module}:{func_path}", name=name,
        cls=cls, params=params, annotations=annotations,
        line=node.lineno, col=node.col_offset, path=path,
        calls=calls, ops=ops, nested_defs=tuple(nested_names),
    )
    return [summary] + nested


def _directly_inside(outer: ast.AST, inner: ast.AST) -> bool:
    """True when ``inner`` is nested in ``outer`` with no def/class between.

    ``ast.walk`` from a statement crosses scope boundaries; this check
    keeps each nested def attached to its *immediate* parent so qualnames
    nest correctly.
    """
    for node in ast.walk(outer):
        if node is inner:
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)) and node is not outer:
            if any(sub is inner for sub in ast.walk(node)):
                return False
    return True


def _imports_of(tree: ast.Module, module: str) -> Tuple[Tuple[str, str], ...]:
    package = module.rsplit(".", 1)[0] if "." in module else ""
    table: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    table[alias.asname] = alias.name
                else:
                    table[alias.name.split(".")[0]] = alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = module.split(".")
                # level 1 = current package (the module's own parent).
                anchor = anchor[: len(anchor) - node.level] \
                    if len(anchor) >= node.level else []
                parts = [p for p in (".".join(anchor), base) if p]
                base = ".".join(parts)
            elif not base:
                base = package
            for alias in node.names:
                local = alias.asname or alias.name
                table[local] = f"{base}.{alias.name}" if base else alias.name
    return tuple(sorted(table.items()))


def extract_summary(tree: ast.Module, path: str,
                    parts: Tuple[str, ...]) -> FileSummary:
    """Fold one parsed file into its :class:`FileSummary` IR."""
    module = module_name_for(path)
    functions: List[FuncSummary] = []
    classes: List[ClassInfo] = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions.extend(_func_summary(node, module, path, "", None))
        elif isinstance(node, ast.ClassDef):
            methods: List[str] = []
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    methods.append(item.name)
                    functions.extend(_func_summary(
                        item, module, path, node.name, node.name))
            classes.append(ClassInfo(
                module=module, name=node.name, methods=tuple(methods),
                bases=tuple(filter(None, (_dotted_path(b)
                                          for b in node.bases)))))
    for lam in _own_lambdas(tree.body):
        functions.extend(_func_summary(lam, module, path, "", None))
    module_ops, module_calls = _extract_ops(tree.body)
    functions.append(FuncSummary(
        module=module, qualname=f"{module}:<module>", name="<module>",
        cls=None, params=(), annotations=(), line=1, col=0, path=path,
        calls=module_calls, ops=module_ops, nested_defs=()))
    return FileSummary(path=path, module=module, parts=parts,
                       imports=_imports_of(tree, module),
                       functions=tuple(functions), classes=tuple(classes))


# ---------------------------------------------------------------------------
# the project: resolution + call graph
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Edge:
    """One resolved call edge: ``caller``'s call site targeting ``target``."""

    caller: str                       # FuncSummary.qualname
    call: CallRec
    target: Optional[str]             # resolved function qualname
    target_class: Optional[str]       # "mod:Class" for constructor calls


@dataclass(frozen=True)
class EngineSite:
    """One ``engine.map``/``map_reduce``/``reduce_partials`` call site."""

    caller: str
    call: CallRec
    method: str
    path: str
    line: int


@dataclass
class CallGraph:
    """Edges of the whole project, indexed both ways."""

    edges: List[Edge] = field(default_factory=list)
    by_caller: Dict[str, List[Edge]] = field(default_factory=dict)
    by_target: Dict[str, List[Edge]] = field(default_factory=dict)
    engine_sites: List[EngineSite] = field(default_factory=list)

    def add(self, edge: Edge) -> None:
        self.edges.append(edge)
        self.by_caller.setdefault(edge.caller, []).append(edge)
        if edge.target is not None:
            self.by_target.setdefault(edge.target, []).append(edge)

    def callees(self, qualname: str) -> List[str]:
        return [e.target for e in self.by_caller.get(qualname, [])
                if e.target is not None]

    def callers(self, qualname: str) -> List[Edge]:
        return self.by_target.get(qualname, [])

    def reachable_from(self, roots: Iterable[str]) -> Set[str]:
        """Function qualnames reachable along call edges from ``roots``."""
        seen: Set[str] = set()
        frontier = [r for r in roots]
        while frontier:
            current = frontier.pop()
            if current in seen:
                continue
            seen.add(current)
            frontier.extend(self.callees(current))
        return seen


class Project:
    """All summaries of one lint invocation, resolved into a call graph."""

    def __init__(self, summaries: Sequence[FileSummary]) -> None:
        self.files: Dict[str, FileSummary] = {s.path: s for s in summaries}
        self.modules: Dict[str, FileSummary] = {}
        for summary in summaries:
            # First summary wins on module-name collisions (distinct temp
            # trees in tests may fabricate the same stem).
            self.modules.setdefault(summary.module, summary)
        self.functions: Dict[str, FuncSummary] = {}
        self.classes: Dict[str, ClassInfo] = {}
        for summary in summaries:
            for func in summary.functions:
                self.functions.setdefault(func.qualname, func)
            for cls in summary.classes:
                self.classes.setdefault(cls.qual, cls)
        self._local_types: Dict[str, Dict[str, str]] = {}
        #: Scratch space for analyses memoised per invocation (e.g. one
        #: taint fixpoint per whole-program rule).
        self.analysis_cache: Dict[str, object] = {}
        self.graph = self._build_graph()

    # -- construction ---------------------------------------------------

    @classmethod
    def from_summaries(cls, summaries: Sequence[FileSummary]) -> "Project":
        return cls(summaries)

    def _build_graph(self) -> CallGraph:
        graph = CallGraph()
        for summary in self.files.values():
            for func in summary.functions:
                for call in func.calls:
                    target, target_class = self.resolve_call(func, call)
                    graph.add(Edge(caller=func.qualname, call=call,
                                   target=target,
                                   target_class=target_class))
                    if call.attr in ENGINE_SEAM_METHODS \
                            and self.is_engine_receiver(func, call.receiver):
                        graph.engine_sites.append(EngineSite(
                            caller=func.qualname, call=call,
                            method=call.attr, path=summary.path,
                            line=call.line))
        return graph

    # -- name/type resolution --------------------------------------------

    def resolve_module_symbol(self, module: str,
                              name: str) -> Optional[str]:
        """Resolve ``name`` inside ``module`` to a dotted project symbol."""
        summary = self.modules.get(module)
        if summary is None:
            return None
        imports = summary.import_map()
        if name in imports:
            return imports[name]
        return None

    def _class_of(self, module: str, name: str) -> Optional[ClassInfo]:
        """A class named ``name`` as visible from ``module``."""
        summary = self.modules.get(module)
        if summary is not None:
            for cls in summary.classes:
                if cls.name == name:
                    return cls
            imports = summary.import_map()
            if name in imports:
                dotted = imports[name]
                mod, _, last = dotted.rpartition(".")
                candidate = self.classes.get(f"{mod}:{last}")
                if candidate is not None:
                    return candidate
        return None

    def _class_by_dotted(self, module: str,
                         dotted: str) -> Optional[ClassInfo]:
        """Resolve a dotted annotation/base string to a project class."""
        if "." not in dotted:
            return self._class_of(module, dotted)
        head, _, rest = dotted.partition(".")
        target = self.resolve_module_symbol(module, head)
        if target is None:
            return None
        full = f"{target}.{rest}"
        mod, _, last = full.rpartition(".")
        return self.classes.get(f"{mod}:{last}")

    def _method_on(self, cls: Optional[ClassInfo],
                   name: str, depth: int = 0) -> Optional[str]:
        """Qualname of ``name`` on ``cls`` or its project-visible bases."""
        if cls is None or depth > 8:
            return None
        if name in cls.methods:
            return f"{cls.module}:{cls.name}.{name}"
        for base in cls.bases:
            found = self._method_on(
                self._class_by_dotted(cls.module, base), name, depth + 1)
            if found is not None:
                return found
        return None

    def local_types(self, func: FuncSummary) -> Dict[str, str]:
        """var -> "mod:Class" from annotations and constructor assigns."""
        cached = self._local_types.get(func.qualname)
        if cached is not None:
            return cached
        types: Dict[str, str] = {}
        for param, ann in zip(func.params, func.annotations):
            if ann is None:
                continue
            cls = self._class_by_dotted(func.module, ann)
            if cls is not None:
                types[param] = cls.qual
        for op in func.ops:
            if op.kind != "assign" or len(op.targets) != 1 or op.accum:
                continue
            if len(op.value.calls) == 1 and not op.value.refs:
                rec = op.value.calls[0]
                cls = self._resolve_class_callee(func, rec.callee)
                if cls is not None:
                    types[op.targets[0]] = cls.qual
        self._local_types[func.qualname] = types
        return types

    def _resolve_class_callee(self, func: FuncSummary,
                              callee: str) -> Optional[ClassInfo]:
        if not callee:
            return None
        return self._class_by_dotted(func.module, callee)

    def type_of(self, func: FuncSummary, path: str) -> Optional[str]:
        """"mod:Class" of a dotted receiver path, when inferable."""
        if not path:
            return None
        head = path.split(".")[0]
        if head == "self" and func.cls is not None:
            if path == "self":
                return f"{func.module}:{func.cls}"
            return None
        if "." not in path:
            return self.local_types(func).get(path)
        return None

    def is_engine_receiver(self, func: FuncSummary, receiver: str) -> bool:
        """Heuristic + typed: is this receiver an ExecutionEngine?

        A receiver whose last segment is ``engine`` counts, and so does
        one typed by inference: an annotated or constructor-typed
        variable whose class name ends with ``Engine``, and ``self``
        inside an ``*Engine`` class.
        """
        if not receiver:
            return False
        if receiver.split(".")[-1] == "engine":
            return True
        typed = self.type_of(func, receiver)
        if typed is not None and typed.rsplit(":", 1)[-1].endswith("Engine"):
            return True
        return False

    def resolve_call(self, func: FuncSummary,
                     call: CallRec) -> Tuple[Optional[str], Optional[str]]:
        """(function qualname, class qual) the call resolves to, if any."""
        callee = call.callee
        if not callee:
            return None, None
        return self.resolve_ref(func, callee)

    def resolve_ref(self, func: FuncSummary,
                    path: str) -> Tuple[Optional[str], Optional[str]]:
        """Resolve a dotted *reference* to a project function or class.

        Returns ``(function_qualname, class_qual)``; at most one is set.
        Handles bare names (nested defs, same-module defs, imported
        symbols), ``self.method``, typed-receiver methods, and
        module-attribute chains (``lloyd.lloyd_single``).
        """
        segments = path.split(".")
        head, rest = segments[0], segments[1:]
        module = func.module

        if not rest:
            if head in func.nested_defs:
                nested = f"{module}:{_strip_module(func.qualname)}.{head}"
                if nested in self.functions:
                    return nested, None
            if f"{module}:{head}" in self.functions:
                return f"{module}:{head}", None
            local_cls = self._class_of(module, head)
            if local_cls is not None:
                return None, local_cls.qual
            imported = self.resolve_module_symbol(module, head)
            if imported is not None:
                return self._resolve_dotted_symbol(imported)
            return None, None

        # Method on a typed or self receiver: one trailing attribute hop.
        receiver = ".".join(segments[:-1])
        method = segments[-1]
        typed = self.type_of(func, receiver)
        if typed is not None:
            found = self._method_on(self.classes.get(typed), method)
            if found is not None:
                return found, None
        # Module attribute chain through the import table.
        imported = self.resolve_module_symbol(module, head)
        if imported is not None:
            return self._resolve_dotted_symbol(".".join([imported] + rest))
        # A class defined/imported in this module: ClassName.method.
        if len(rest) == 1:
            cls = self._class_of(module, head)
            if cls is not None:
                found = self._method_on(cls, method)
                return found, None
        return None, None

    def _resolve_dotted_symbol(
            self, dotted: str) -> Tuple[Optional[str], Optional[str]]:
        """Resolve a fully-dotted symbol against the project's modules."""
        if dotted in self.modules:
            return None, None
        mod, _, last = dotted.rpartition(".")
        if not mod:
            return None, None
        if mod in self.modules:
            qual = f"{mod}:{last}"
            if qual in self.functions:
                return qual, None
            if qual in self.classes:
                return None, qual
            return None, None
        # One more hop: "pkg.mod.Class.method" / "pkg.mod.Class".
        mod2, _, cls_name = mod.rpartition(".")
        if mod2 and mod2 in self.modules:
            cls = self.classes.get(f"{mod2}:{cls_name}")
            if cls is not None:
                found = self._method_on(cls, last)
                return found, None
        return None, None

    # -- convenience for rules -------------------------------------------

    def functions_of(self, path: str) -> Tuple[FuncSummary, ...]:
        summary = self.files.get(path)
        return summary.functions if summary is not None else ()

    def resolve_callable_value(self, func: FuncSummary, value: Value,
                               depth: int = 0) -> List[str]:
        """Function qualnames a callable-carrying value may refer to.

        Follows direct references, inline lambdas, ``functools.partial``
        wrappers, and bounded local assignment chains (``fn = helper``
        then ``engine.map(fn, ...)``).  Factory-returned callables are out
        of scope (documented approximation).
        """
        if depth > 6:
            return []
        found: List[str] = []
        scope = "" if func.name == "<module>" \
            else f"{_strip_module(func.qualname)}."
        for line, col in value.lambdas:
            qual = f"{func.module}:{scope}{_lambda_name(line, col)}"
            if qual in self.functions:
                found.append(qual)
        for ref in value.refs:
            target, _ = self.resolve_ref(func, ref)
            if target is not None:
                found.append(target)
            elif "." not in ref:
                for op in func.ops:
                    if op.kind == "assign" and op.targets == (ref,) \
                            and not op.accum:
                        found.extend(self.resolve_callable_value(
                            func, op.value, depth + 1))
        for rec in value.calls:
            if rec.attr in WRAPPER_CALLS and rec.args:
                found.extend(self.resolve_callable_value(
                    func, rec.args[0], depth + 1))
        return found


def _strip_module(qualname: str) -> str:
    return qualname.split(":", 1)[1]
