"""T-series rule: the locally-enforceable slice of the strict-typing gate.

CI runs ``mypy --strict`` and ``ruff`` over the package (see
``pyproject.toml``); this rule enforces the foundation those tools build
on — every *public* function in the numeric packages declares its
parameter and return types — from within reprolint, so the gate also runs
where mypy is not installed and on every ``python -m repro.analysis``
invocation.
"""

from __future__ import annotations

import ast
from typing import Iterator, List

from .reprolint import Finding, LintContext, Rule, register_rule


@register_rule
class MissingAnnotations(Rule):
    """T501: public functions declare parameter and return types."""

    id = "T501"
    name = "missing-annotations"
    summary = ("public functions/methods in the numeric packages must "
               "annotate every parameter and the return type")
    scopes = ("core", "runtime", "machine", "analysis", "errors", "io")
    #: Scopes match any path component, so ``tests/core`` would count as
    #: a numeric package without this.
    exempt = ("tests",)

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name.startswith("_"):
                continue
            missing: List[str] = []
            args = node.args
            positional = args.posonlyargs + args.args
            for index, arg in enumerate(positional):
                if index == 0 and arg.arg in ("self", "cls"):
                    continue
                if arg.annotation is None:
                    missing.append(arg.arg)
            for arg in args.kwonlyargs:
                if arg.annotation is None:
                    missing.append(arg.arg)
            for arg in (args.vararg, args.kwarg):
                if arg is not None and arg.annotation is None:
                    missing.append("*" + arg.arg)
            if node.returns is None:
                missing.append("return")
            if missing:
                yield ctx.finding(
                    self, node,
                    f"public function `{node.name}` is missing annotations "
                    f"for: {', '.join(missing)}")
