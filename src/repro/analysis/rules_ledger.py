"""L-series rules: ledger/cost-model discipline.

Charging is an observer of the numerics: every modelled second lands in
one of the ledger's fixed categories, in a serial fixed-order loop after
the engine's partials return.  That charges stay out of engine tasks is
a whole-program property (W602, :mod:`repro.analysis.rules_wholeprogram`);
this module checks the categories a charge names.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .reprolint import Finding, LintContext, Rule, register_rule


@register_rule
class UnknownChargeCategory(Rule):
    """L202: literal charge categories come from the ledger's CATEGORIES."""

    id = "L202"
    name = "unknown-charge-category"
    summary = ("string-literal categories passed to ledger.charge* must be "
               "one of repro.runtime.ledger.CATEGORIES")

    def _categories(self) -> tuple:
        from ..runtime.ledger import CATEGORIES
        return CATEGORIES

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        categories = self._categories()
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("charge", "charge_parallel")
                    and node.args):
                continue
            first = node.args[0]
            if isinstance(first, ast.Constant) \
                    and isinstance(first.value, str) \
                    and first.value not in categories:
                yield ctx.finding(
                    self, first,
                    f"charge category {first.value!r} is not one of "
                    f"{categories}; typo'd categories silently split "
                    f"the time accounting")
