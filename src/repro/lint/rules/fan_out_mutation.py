"""fan-out-mutation: closures handed to executors must not mutate
enclosing state.

A concurrent executor prices the legs of one ``Executor.fan_out`` stage
as racing, which is only honest if they are independent — as they would
be on separate servers.  A closure that mutates enclosing-scope state —
appending to a shared list, bumping a counter on ``self``, writing
through a closed-over dict — couples its leg to its siblings: the
result then depends on the order the legs run in, which racing servers
would not keep.  Results must flow back through the task's *return
value*; shared-state updates happen in the caller, after ``fan_out``
returns.

The rule inspects every ``lambda`` and nested ``def`` inside a function
that calls ``.fan_out(...)`` and flags: ``nonlocal`` declarations,
assignments/augmented assignments to closed-over names (including
``self.x += 1`` and subscript stores), and calls to known mutator
methods (``append``, ``add``, ``update``, ...) on closed-over names.
State reached through the closure's own parameters — the
``lambda group=group: ...`` default-binding idiom — is considered owned
by the task and stays legal.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.context import ModuleContext
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register_rule
from repro.lint.rules._ast_util import walk_functions

#: Packages that dispatch through executors.
_SCOPED_PACKAGES = ("repro",)

#: Method names that mutate their receiver in place.
_MUTATORS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "add",
        "update",
        "setdefault",
        "pop",
        "popitem",
        "remove",
        "discard",
        "clear",
        "sort",
        "reverse",
        "write",
    }
)


@register_rule
class FanOutMutationRule(Rule):
    name = "fan-out-mutation"
    summary = (
        "closures in functions that call Executor.fan_out mutate "
        "enclosing-scope state — legs priced as racing must be independent"
    )
    hint = (
        "return the result from the task and apply shared-state updates "
        "in the caller after fan_out; bind per-task state via default "
        "arguments (lambda group=group: ...)"
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if not module.in_package(*_SCOPED_PACKAGES):
            return
        for function in walk_functions(module.tree):
            if not _calls_fan_out(function):
                continue
            for closure in _closures_of(function):
                yield from self._check_closure(module, closure)

    def _check_closure(
        self,
        module: ModuleContext,
        closure: ast.Lambda | ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> Iterator[Finding]:
        owned = _bound_names(closure)
        body = (
            closure.body
            if isinstance(closure, (ast.FunctionDef, ast.AsyncFunctionDef))
            else [ast.Expr(value=closure.body)]
        )
        for statement in body:
            for node in ast.walk(statement):
                if isinstance(node, ast.Nonlocal):
                    yield self.finding(
                        module,
                        node,
                        "nonlocal write inside a fan-out closure couples "
                        "legs priced as racing",
                    )
                elif isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = (
                        node.targets
                        if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    for target in targets:
                        # Bare-name assignment in a nested def binds a
                        # *local* (harmless); only stores through an
                        # attribute or subscript whose root is
                        # closed-over reach enclosing state.
                        if not isinstance(
                            target, (ast.Attribute, ast.Subscript)
                        ):
                            continue
                        root = _root_name(target)
                        if root is not None and root not in owned:
                            yield self.finding(
                                module,
                                node,
                                f"store through closed-over {root!r} "
                                "inside a fan-out closure couples legs "
                                "priced as racing",
                            )
                elif isinstance(node, ast.Call) and isinstance(
                    node.func, ast.Attribute
                ):
                    if node.func.attr in _MUTATORS:
                        root = _root_name(node.func.value)
                        if root is not None and root not in owned:
                            yield self.finding(
                                module,
                                node,
                                f"call to {root}.{node.func.attr}() "
                                "mutates closed-over state inside a "
                                "fan-out closure",
                            )


def _root_name(node: ast.expr) -> str | None:
    """The base ``Name`` of an attribute/subscript chain (else ``None``)."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def _calls_fan_out(
    function: ast.FunctionDef | ast.AsyncFunctionDef,
) -> bool:
    for node in ast.walk(function):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "fan_out"
        ):
            return True
    return False


def _closures_of(
    function: ast.FunctionDef | ast.AsyncFunctionDef,
) -> list[ast.Lambda | ast.FunctionDef | ast.AsyncFunctionDef]:
    """Lambdas and nested defs declared inside ``function``."""
    closures: list[ast.Lambda | ast.FunctionDef | ast.AsyncFunctionDef] = []
    for node in ast.walk(function):
        if isinstance(node, ast.Lambda):
            closures.append(node)
        elif (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node is not function
        ):
            closures.append(node)
    return closures


def _bound_names(
    closure: ast.Lambda | ast.FunctionDef | ast.AsyncFunctionDef,
) -> set[str]:
    """Names the closure owns: parameters plus its own local bindings."""
    args = closure.args
    owned = {
        arg.arg
        for arg in (
            *args.posonlyargs,
            *args.args,
            *args.kwonlyargs,
            *([args.vararg] if args.vararg else []),
            *([args.kwarg] if args.kwarg else []),
        )
    }
    if isinstance(closure, (ast.FunctionDef, ast.AsyncFunctionDef)):
        for node in ast.walk(closure):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    owned.update(_name_targets(target))
            elif isinstance(node, ast.AnnAssign):
                owned.update(_name_targets(node.target))
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                owned.update(_name_targets(node.target))
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if item.optional_vars is not None:
                        owned.update(_name_targets(item.optional_vars))
    for node in ast.walk(closure):
        if isinstance(node, ast.comprehension):
            owned.update(_name_targets(node.target))
    return owned


def _name_targets(target: ast.expr) -> set[str]:
    """Bare names bound by an assignment/loop target (tuples unpacked)."""
    if isinstance(target, ast.Name):
        return {target.id}
    if isinstance(target, (ast.Tuple, ast.List)):
        names: set[str] = set()
        for element in target.elts:
            names.update(_name_targets(element))
        return names
    return set()
