"""float-budget: ε accounting stays exact (``fractions.Fraction``).

Budget accounting is the one place this repository does arithmetic whose
*accumulated* result carries a guarantee: "the cluster spent exactly
k·ε".  Accumulating IEEE-754 floats drifts — ``0.1`` charged ten times
is not ``1.0`` — and a drifted ledger either over-reports (harmless) or
under-reports (a privacy violation) the spend.  The ledgers therefore
count draws as integers and make their totals as
:class:`fractions.Fraction`: floats may *enter* a total only through an
explicit ``Fraction(...)`` conversion (exact for every float) and
*leave* only through an explicit ``float(...)`` at the reporting
boundary.

The rule flags float literals in executable statements of the budget
modules (``repro.analysis.ledger``, ``repro.analysis.composition``,
``repro.cluster.ledger``).  A float literal seeding an accumulator
(``total = 0.0``) or padding a comparison (``<= cap + 1e-12``) is how
drift and slack sneak in.  Parameter *defaults* are exempt — they are
API surface, converted on entry — as are docstrings and f-string text.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.context import ModuleContext
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register_rule

#: Modules whose arithmetic carries the ε-accounting guarantee.
_BUDGET_MODULES = (
    "repro.analysis.ledger",
    "repro.analysis.composition",
    "repro.cluster.ledger",
)


@register_rule
class FloatBudgetRule(Rule):
    name = "float-budget"
    summary = (
        "float literals in the ε-accounting modules — budget totals must "
        "accumulate as Fraction, with float()/Fraction() only at the "
        "boundaries"
    )
    hint = (
        "use integer literals or Fraction(...) in accounting code; "
        "convert with float(...) only when reporting"
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if not module.is_module(*_BUDGET_MODULES):
            return
        banned_spans = _default_spans(module.tree)
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, float)
                and not _inside(node, banned_spans)
            ):
                yield self.finding(
                    module,
                    node,
                    f"float literal {node.value!r} in budget-accounting "
                    "code can drift the ε totals",
                )


def _default_spans(tree: ast.Module) -> list[tuple[int, int, int, int]]:
    """Source spans of parameter defaults (exempt: converted on entry)."""
    spans: list[tuple[int, int, int, int]] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defaults = [*node.args.defaults, *node.args.kw_defaults]
            for default in defaults:
                if default is None or default.end_lineno is None:
                    continue
                spans.append(
                    (
                        default.lineno,
                        default.col_offset,
                        default.end_lineno,
                        default.end_col_offset or 0,
                    )
                )
    return spans


def _inside(
    node: ast.Constant, spans: list[tuple[int, int, int, int]]
) -> bool:
    for start_line, start_col, end_line, end_col in spans:
        after_start = (node.lineno, node.col_offset) >= (start_line, start_col)
        before_end = (node.lineno, node.col_offset) <= (end_line, end_col)
        if after_start and before_end:
            return True
    return False
