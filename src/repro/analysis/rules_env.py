"""E-series rules: environment hygiene and fault-path integrity.

Every ``REPRO_*`` knob is declared once in
:mod:`repro.analysis.envvars` and read through its typed accessors, so the
empty/whitespace-as-unset semantics live in exactly one place and the docs
table cannot drift from the code.  E402 checks the declarations; that only
``envvars.py`` reads the environment is whole-program rule W603's job.
The fault-path rule guards the fault contract: modelled
:class:`~repro.errors.FaultError` faults belong to the recovery policies
and must never be swallowed by a broad host-side ``except``.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, List

from .reprolint import Finding, LintContext, Rule, dotted_name, register_rule

_REPRO_NAME = re.compile(r"^REPRO_[A-Z0-9_]+$")


@register_rule
class UndeclaredEnvVar(Rule):
    """E402: every REPRO_* literal is declared in the central registry."""

    id = "E402"
    name = "undeclared-env-var"
    summary = ("string literals naming a REPRO_* variable must be declared "
               "in repro.analysis.envvars.REGISTRY")
    scopes = ("repro",)
    exempt = ("envvars",)

    def _registered(self) -> frozenset:
        from .envvars import REGISTRY
        return frozenset(REGISTRY)

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        registered = self._registered()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Constant) \
                    and isinstance(node.value, str) \
                    and _REPRO_NAME.match(node.value) \
                    and node.value not in registered:
                yield ctx.finding(
                    self, node,
                    f"{node.value} is not declared in "
                    f"repro.analysis.envvars.REGISTRY; add an EnvVar entry "
                    f"(and its docs/api.md row) before reading it")


def _catches_fault_error(handler: ast.ExceptHandler) -> bool:
    """True when the handler's type names FaultError or a subclass of it."""
    names: List[str] = []
    node = handler.type
    if node is None:
        return False
    for sub in ast.walk(node):
        dotted = dotted_name(sub)
        if dotted:
            names.append(dotted.rsplit(".", 1)[-1])
    return any(name == "FaultError" or name.endswith("FaultError")
               or name in ("CGFailedError", "TransientDMAError",
                           "CollectiveTimeoutError")
               for name in names)


def _is_broad(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    for sub in ast.walk(handler.type):
        dotted = dotted_name(sub)
        if dotted.rsplit(".", 1)[-1] in ("Exception", "BaseException"):
            return True
    return False


def _reraises(handler: ast.ExceptHandler) -> bool:
    """The handler re-raises (a bare ``raise`` or raising the bound name)."""
    bound = handler.name
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            if node.exc is None:
                return True
            if bound is not None and isinstance(node.exc, ast.Name) \
                    and node.exc.id == bound:
                return True
            if node.cause is not None or node.exc is not None:
                # Raising *something* (possibly wrapping) still propagates.
                return True
    return False


@register_rule
class SwallowedFaultError(Rule):
    """E403: broad excepts must let modelled FaultErrors propagate."""

    id = "E403"
    name = "swallowed-fault-error"
    summary = ("an `except Exception`/bare except in core/runtime must be "
               "preceded by an `except FaultError: raise` arm or itself "
               "re-raise — modelled faults belong to the recovery policies")
    scopes = ("core", "runtime")

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Try):
                continue
            fault_handled = False
            for handler in node.handlers:
                if _catches_fault_error(handler):
                    fault_handled = True
                    continue
                if _is_broad(handler) and not fault_handled \
                        and not _reraises(handler):
                    yield ctx.finding(
                        self, handler,
                        "broad except swallows FaultError: add an earlier "
                        "`except FaultError: raise` arm (or re-raise) so "
                        "modelled faults reach the recovery policies")


_NPZ_IO_CALLS = frozenset({"np.load", "np.savez", "np.savez_compressed",
                           "numpy.load", "numpy.savez",
                           "numpy.savez_compressed"})
_CHECKPOINT_HINTS = ("checkpoint", "registry")


def _mentions_checkpoint(node: ast.AST) -> bool:
    """True when an argument subtree names a checkpoint/registry path.

    Heuristic by necessity (the path is a runtime value): a variable,
    attribute, or string literal containing ``checkpoint``/``registry``
    marks the call as touching durable run state.
    """
    for sub in ast.walk(node):
        text = ""
        if isinstance(sub, ast.Name):
            text = sub.id
        elif isinstance(sub, ast.Attribute):
            text = sub.attr
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            text = sub.value
        if any(hint in text.lower() for hint in _CHECKPOINT_HINTS):
            return True
    return False


@register_rule
class RawCheckpointIO(Rule):
    """E405: checkpoint npz files go through core/checkpoint.py only."""

    id = "E405"
    name = "raw-checkpoint-io"
    summary = ("np.load / np.savez* on checkpoint or registry paths outside "
               "repro.core.checkpoint bypasses the schema version, the "
               "SHA-256 integrity manifest, and the typed IntegrityError "
               "mapping — use CheckpointStore / load_checkpoint")
    exempt = ("checkpoint",)

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            callee = dotted_name(node.func)
            if callee not in _NPZ_IO_CALLS:
                continue
            operands: List[ast.AST] = list(node.args)
            operands.extend(kw.value for kw in node.keywords
                            if kw.arg in (None, "file"))
            if any(_mentions_checkpoint(arg) for arg in operands):
                yield ctx.finding(
                    self, node,
                    f"raw {callee}() on a checkpoint/registry path; durable "
                    f"snapshots must round-trip through "
                    f"repro.core.checkpoint (CheckpointStore._persist / "
                    f"load_checkpoint) so the schema version and SHA-256 "
                    f"manifest are written and verified")
