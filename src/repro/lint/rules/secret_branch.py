"""secret-dependent-branch: hot-path control flow must not read secrets.

The access pattern a server observes must depend only on public
parameters and the scheme's own coins — never on *which* record the
client wants.  Path ORAM and CAOS both show obliviousness being
destroyed by exactly this leak: an ``if`` on the query index that skips
a storage round-trip, a loop whose bound is the requested address.

This is a taint-lite check: inside the hot-path entry points (``query``,
``read``, ``get``, ``write``, ``put``, their ``*_many`` batch variants)
of the scheme packages, a branch or loop whose condition/bound directly
references a secret parameter is flagged when it can change the
server-visible access sequence, i.e. when the conditioned code performs
storage calls or exits early (``return``/``break``/``continue``).

Two shapes stay legal without pragmas:

* validation branches that only ``raise`` (rejecting malformed input is
  out of the privacy model — the query never happens);
* pure client-side selection (e.g. keeping the one real block out of a
  downloaded pad set): assignments that touch no storage and skip
  nothing.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.context import ModuleContext
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register_rule
from repro.lint.rules._ast_util import names_in, raises_only, walk_functions

#: Packages hosting scheme hot paths.
_SCOPED_PACKAGES = ("repro.core", "repro.baselines", "repro.cluster")

#: Entry points whose parameters are client secrets.
_HOT_FUNCTIONS = frozenset(
    {
        "query",
        "query_many",
        "read",
        "read_many",
        "write",
        "write_many",
        "get",
        "get_many",
        "put",
        "put_many",
        "delete",
    }
)

#: Method names that reach (or stand for) server-visible accesses.
_STORAGE_CALLS = frozenset(
    {
        "read",
        "write",
        "read_many",
        "write_many",
        "request",
        "request_all",
        "query",
        "query_many",
        "get",
        "get_many",
        "put",
        "put_many",
        "delete",
        "batch",
        "begin_query",
        "finish_query",
        "fan_out",
    }
)


@register_rule
class SecretDependentBranchRule(Rule):
    name = "secret-dependent-branch"
    summary = (
        "hot-path branches/loop bounds conditioned on the query's secret "
        "parameters (index/key) leak through the access pattern"
    )
    hint = (
        "make the storage access sequence identical on every branch; "
        "do secret-dependent selection client-side on already-fetched "
        "data, or pragma with a written obliviousness argument"
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if not module.in_package(*_SCOPED_PACKAGES):
            return
        for function in walk_functions(module.tree):
            if function.name not in _HOT_FUNCTIONS:
                continue
            secrets = _secret_parameters(function)
            if not secrets:
                continue
            for node in ast.walk(function):
                if isinstance(node, ast.If):
                    if _is_cardinality_test(node.test, secrets):
                        # Batch-size checks (`if not keys: return []`)
                        # are public: the server counts accesses anyway,
                        # only *which* records are touched is secret.
                        continue
                    if secrets & names_in(node.test) and _changes_accesses(
                        node
                    ):
                        yield self.finding(
                            module,
                            node,
                            "branch conditioned on secret parameter(s) "
                            f"{_fmt(secrets & names_in(node.test))} can "
                            "change the server-visible access sequence",
                        )
                elif isinstance(node, ast.While):
                    if secrets & names_in(node.test):
                        yield self.finding(
                            module,
                            node,
                            "loop bound conditioned on secret parameter(s) "
                            f"{_fmt(secrets & names_in(node.test))} leaks "
                            "through the number of iterations",
                        )
                elif isinstance(node, (ast.For, ast.AsyncFor)):
                    bound = node.iter
                    if (
                        isinstance(bound, ast.Call)
                        and isinstance(bound.func, ast.Name)
                        and bound.func.id == "range"
                        and secrets & names_in(bound)
                    ):
                        yield self.finding(
                            module,
                            node,
                            "loop bound conditioned on secret parameter(s) "
                            f"{_fmt(secrets & names_in(bound))} leaks "
                            "through the number of iterations",
                        )


def _secret_parameters(
    function: ast.FunctionDef | ast.AsyncFunctionDef,
) -> frozenset[str]:
    """Every data parameter of a hot-path entry point is a secret."""
    args = function.args
    names = [arg.arg for arg in args.posonlyargs + args.args + args.kwonlyargs]
    return frozenset(name for name in names if name not in ("self", "cls"))


def _changes_accesses(node: ast.If) -> bool:
    """Whether an ``if`` can alter the server-visible access sequence.

    ``False`` for raise-only validation and for pure client-side
    selection (no storage calls, no early exits in either arm).
    """
    if raises_only(node.body) and not node.orelse:
        return False
    for arm in (node.body, node.orelse):
        for statement in arm:
            for child in ast.walk(statement):
                if isinstance(
                    child, (ast.Return, ast.Break, ast.Continue)
                ):
                    return True
                if isinstance(child, ast.Call) and isinstance(
                    child.func, ast.Attribute
                ):
                    if child.func.attr in _STORAGE_CALLS:
                        return True
    return False


def _is_cardinality_test(test: ast.expr, secrets: frozenset[str]) -> bool:
    """Whether ``test`` only reads the *size* of a secret collection.

    ``if not keys``, ``if keys``, ``if len(keys) == 0`` and boolean
    combinations thereof reveal nothing beyond the batch cardinality,
    which the server observes anyway.
    """
    if isinstance(test, ast.Name):
        return test.id in secrets
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        return _is_cardinality_test(test.operand, secrets)
    if isinstance(test, ast.BoolOp):
        return all(
            _is_cardinality_test(value, secrets) for value in test.values
        )
    if isinstance(test, ast.Call):
        return (
            isinstance(test.func, ast.Name)
            and test.func.id == "len"
            and len(test.args) == 1
            and isinstance(test.args[0], ast.Name)
            and test.args[0].id in secrets
        )
    if isinstance(test, ast.Compare):
        # Comparisons only count when the secret enters via len(...);
        # a bare `index == 0` compares *content* and is not exempt.
        operands = [test.left, *test.comparators]
        sized = False
        for operand in operands:
            if isinstance(operand, ast.Constant):
                continue
            if isinstance(operand, ast.Call) and _is_cardinality_test(
                operand, secrets
            ):
                sized = True
                continue
            return False
        return sized
    return False


def _fmt(names: frozenset[str] | set[str]) -> str:
    return ", ".join(sorted(names))
