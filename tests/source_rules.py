"""The source rules: what ``src/repro`` must never do, as AST checks.

The privacy and determinism claims rest on coding disciplines no runtime
test fully covers: every coin comes from the seeded ``RandomSource``,
storage is touched only through ``StorageServer`` (so the transcript is
the adversary's whole view), budgets never add up in floats, hot-path
control flow never reads the query's secrets, executor legs stay
independent, observability labels carry no secrets, and an argument
gate runs before the first coin or server call.  Path ORAM and CAOS both
show how an implementation-level bypass of such a rule leaks what the
proof hides.  ``tests/unit/test_source_rules.py`` runs every rule in
:data:`RULES` over each module of ``src/repro`` and fails on any finding.

A rule is a plain function ``rule(tree, module)``: ``tree`` is the parsed
:class:`ast.Module` and ``module`` its dotted name (``"repro.core.dp_ir"``;
:func:`module_name` derives it from a path).  It yields
``(node, message)`` pairs: the node the finding sits on and one sentence
saying why it leaks or drifts.  The rule's docstring says what to do
instead.  Writing one:

- **Scope it first.**  Return early unless :func:`in_package` (or an
  exact module match) puts the module where the invariant is stated; a
  rule that fires elsewhere is noise.
- **Prefer a missed violation to a false one.**  When inference is
  uncertain, bail out.
- **Carve out the legal idioms by name**, as the secret-branch rule does
  for raise-only validation and the fan-out rule for default-bound
  parameters (``lambda group=group: ...``).
- Add it to :data:`RULES`, plus a fixture that flags and one that does
  not to ``FIXTURES`` in the test, and plant one violation in a real
  module in the test's ``PLANTED`` table.
"""

from __future__ import annotations

import ast
from pathlib import PurePosixPath
from typing import Callable, Iterator

Finding = tuple[ast.AST, str]
Rule = Callable[[ast.Module, str], Iterator[Finding]]
FunctionNode = ast.FunctionDef | ast.AsyncFunctionDef
Closure = ast.Lambda | ast.FunctionDef | ast.AsyncFunctionDef


def module_name(path: str) -> str:
    """The dotted module name of a file path.

    The name starts at the last path component named ``repro`` (the
    package root under ``src/``), so ``src/repro/core/dp_ir.py`` and an
    absolute path to it both map to ``repro.core.dp_ir``.  A file outside
    a ``repro`` tree maps to its stem.
    """
    parts = PurePosixPath(path).parts
    anchor = None
    for position, part in enumerate(parts):
        if part == "repro":
            anchor = position
    if anchor is None:
        return PurePosixPath(path).stem
    tail = list(parts[anchor:])
    tail[-1] = PurePosixPath(tail[-1]).stem
    if tail[-1] == "__init__":
        tail.pop()
    return ".".join(tail)


def in_package(module: str, *packages: str) -> bool:
    """Whether ``module`` is one of ``packages`` or lives under one."""
    return any(
        module == package or module.startswith(package + ".")
        for package in packages
    )


def walk_functions(tree: ast.AST) -> Iterator[FunctionNode]:
    """Every function definition in ``tree``, nested ones included."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _dotted_name(node: ast.AST) -> str | None:
    """Collapse ``a.b.c`` attribute chains into ``"a.b.c"`` (else None)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _names_in(node: ast.AST) -> set[str]:
    """Every bare ``Name`` identifier read anywhere inside ``node``."""
    return {child.id for child in ast.walk(node) if isinstance(child, ast.Name)}


def _fmt(names: set[str] | frozenset[str]) -> str:
    return ", ".join(sorted(names))


# -- rng-discipline ---------------------------------------------------------

_BANNED_MODULES = ("random", "secrets", "numpy.random")
#: Attribute chains whose *use* is a finding even without an import
#: (``os`` is imported legitimately all over the repository).
_BANNED_ATTRIBUTES = ("os.urandom", "numpy.random", "np.random")


def _banned(name: str, banned: tuple[str, ...]) -> bool:
    return any(name == item or name.startswith(item + ".") for item in banned)


def rng_discipline(tree: ast.Module, module: str) -> Iterator[Finding]:
    """Ambient randomness only inside ``repro.crypto.rng``.

    Executor equivalence and transcript invariance are proofs about
    seeded runs; one stray ``import random`` breaks bit-identical replay
    and silently invalidates the Monte-Carlo audits.  Take a
    ``RandomSource`` parameter and draw from it (``rng.randbelow``,
    ``rng.sample_distinct``, ``rng.spawn`` for substreams).
    """
    if module == "repro.crypto.rng":
        return
    bypass = "bypasses the seeded RandomSource discipline"
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if _banned(alias.name, _BANNED_MODULES):
                    yield node, (
                        f"import of {alias.name!r} outside repro.crypto.rng "
                        f"{bypass}"
                    )
        elif isinstance(node, ast.ImportFrom):
            source = node.module or ""
            if _banned(source, _BANNED_MODULES):
                yield node, (
                    f"import from {source!r} outside repro.crypto.rng {bypass}"
                )
            elif source in ("numpy", "np"):
                for alias in node.names:
                    if alias.name == "random":
                        yield node, (
                            f"import of numpy.random outside repro.crypto.rng "
                            f"{bypass}"
                        )
        elif isinstance(node, ast.Attribute):
            chain = _dotted_name(node)
            if chain is not None and _banned(chain, _BANNED_ATTRIBUTES):
                yield node, f"use of {chain!r} outside repro.crypto.rng {bypass}"


# -- backend-bypass ---------------------------------------------------------

#: The raw-backend entry points (slot granularity, no accounting), and
#: the bracket that prices several of them as one request.
_BACKEND_METHODS = ("read_slots", "write_slots", "begin_round", "end_round")


def backend_bypass(tree: ast.Module, module: str) -> Iterator[Finding]:
    """Backends are called only from ``repro.storage``.

    A scheme that calls ``read_slots`` / ``write_slots`` directly performs
    accesses no counter or transcript records, undercounting the
    adversary's view.  Go through ``StorageServer.read`` / ``write`` /
    ``read_many`` / ``write_many`` / ``exchange``.
    """
    if in_package(module, "repro.storage"):
        return
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _BACKEND_METHODS
        ):
            yield node, (
                f"direct backend call .{node.func.attr}() outside "
                "repro.storage skips StorageServer counting and transcript "
                "recording"
            )


# -- nondeterministic-iteration ---------------------------------------------

#: Materializing calls that freeze an iteration order.
_ORDER_FREEZERS = ("list", "tuple", "enumerate")
_SET_TYPES = ("set", "frozenset", "Set", "FrozenSet")


def _is_set_expression(node: ast.AST) -> bool:
    """Whether ``node`` syntactically builds a ``set``/``frozenset``."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


def _is_set_annotation(node: ast.expr | None) -> bool:
    """Whether an annotation expression names a set type."""
    if isinstance(node, ast.Name):
        return node.id in _SET_TYPES
    if isinstance(node, ast.Subscript):
        return _is_set_annotation(node.value)
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.split("[", 1)[0].strip() in _SET_TYPES
    return False


def _is_self_attribute(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


def _set_typed_locals(function: FunctionNode) -> set[str]:
    """Local names the function visibly binds to set values."""
    names: set[str] = set()
    for node in ast.walk(function):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    if _is_set_expression(node.value):
                        names.add(target.id)
                    else:
                        names.discard(target.id)
        elif isinstance(node, ast.AnnAssign):
            if isinstance(node.target, ast.Name) and _is_set_annotation(
                node.annotation
            ):
                names.add(node.target.id)
    return names


def _set_typed_attributes(tree: ast.Module) -> set[str]:
    """``self.<attr>`` names assigned or annotated as sets anywhere."""
    attrs: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and _is_set_expression(node.value):
            for target in node.targets:
                if isinstance(target, ast.Attribute) and _is_self_attribute(target):
                    attrs.add(target.attr)
        elif isinstance(node, ast.AnnAssign):
            target = node.target
            if (
                isinstance(target, ast.Attribute)
                and _is_self_attribute(target)
                and _is_set_annotation(node.annotation)
            ):
                attrs.add(target.attr)
    return attrs


def nondeterministic_iteration(tree: ast.Module, module: str) -> Iterator[Finding]:
    """No unordered set iteration in ``repro.core`` / ``cluster`` / ``parallel``.

    Set order depends on insertion history and hash seeding; where it
    feeds draws, transcripts or dispatch it breaks bit-identical replay.
    Iterate over ``sorted(<set>)``.  The inference is one-pass and local:
    set literals, ``set()`` calls and comprehensions, local names bound
    to them, and ``self.<attr>`` the module assigns or annotates as a set.
    """
    if not in_package(module, "repro.core", "repro.cluster", "repro.parallel"):
        return
    set_attrs = _set_typed_attributes(tree)
    message = (
        "iteration over a set has nondeterministic order here; wrap it in "
        "sorted(...) so replay stays bit-identical"
    )
    for function in walk_functions(tree):
        set_locals = _set_typed_locals(function)

        def is_set_valued(expr: ast.expr) -> bool:
            if _is_set_expression(expr):
                return True
            if isinstance(expr, ast.Name) and expr.id in set_locals:
                return True
            return (
                isinstance(expr, ast.Attribute)
                and _is_self_attribute(expr)
                and expr.attr in set_attrs
            )

        for node in ast.walk(function):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                if is_set_valued(node.iter):
                    yield node.iter, message
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
            ):
                for generator in node.generators:
                    if is_set_valued(generator.iter):
                        yield generator.iter, message
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in _ORDER_FREEZERS
                and node.args
                and is_set_valued(node.args[0])
            ):
                yield node.args[0], message


# -- secret-dependent-branch ------------------------------------------------

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


def _raises_only(body: list[ast.stmt]) -> bool:
    """Whether a branch body does nothing but raise (validation shape).

    Message-building assignments before the ``raise`` are tolerated.
    """
    if not body:
        return False
    for statement in body[:-1]:
        if not isinstance(statement, (ast.Assign, ast.Expr)):
            return False
    return isinstance(body[-1], ast.Raise)


def _changes_accesses(node: ast.If) -> bool:
    """Whether an ``if`` can alter the server-visible access sequence.

    ``False`` for raise-only validation and for pure client-side
    selection (no storage calls, no early exits in either arm).
    """
    if _raises_only(node.body) and not node.orelse:
        return False
    for arm in (node.body, node.orelse):
        for statement in arm:
            for child in ast.walk(statement):
                if isinstance(child, (ast.Return, ast.Break, ast.Continue)):
                    return True
                if (
                    isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Attribute)
                    and child.func.attr in _STORAGE_CALLS
                ):
                    return True
    return False


def _is_cardinality_test(test: ast.expr, secrets: frozenset[str]) -> bool:
    """Whether ``test`` only reads the *size* of a secret collection.

    ``if not keys``, ``if keys``, ``if len(keys) == 0`` and boolean
    combinations of them reveal only the batch cardinality, which the
    server observes anyway.  A bare ``index == 0`` compares *content*.
    """
    if isinstance(test, ast.Name):
        return test.id in secrets
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        return _is_cardinality_test(test.operand, secrets)
    if isinstance(test, ast.BoolOp):
        return all(_is_cardinality_test(value, secrets) for value in test.values)
    if isinstance(test, ast.Call):
        return (
            isinstance(test.func, ast.Name)
            and test.func.id == "len"
            and len(test.args) == 1
            and isinstance(test.args[0], ast.Name)
            and test.args[0].id in secrets
        )
    if isinstance(test, ast.Compare):
        sized = False
        for operand in (test.left, *test.comparators):
            if isinstance(operand, ast.Constant):
                continue
            if isinstance(operand, ast.Call) and _is_cardinality_test(operand, secrets):
                sized = True
                continue
            return False
        return sized
    return False


def secret_dependent_branch(tree: ast.Module, module: str) -> Iterator[Finding]:
    """Hot-path control flow does not read the query's secrets.

    In ``query`` / ``read`` / ``get`` / ``write`` / ``put`` / ``delete``
    and their ``*_many`` forms under ``repro.core``, ``repro.baselines``
    and ``repro.cluster``, every data parameter is a secret.  A branch on
    one that calls storage or exits early, a ``while`` on one, or a
    ``range`` bound by one changes the server-visible access sequence.
    Raise-only validation and client-side selection among fetched blocks
    stay legal.  Make the access sequence identical on every branch.
    """
    if not in_package(module, "repro.core", "repro.baselines", "repro.cluster"):
        return
    for function in walk_functions(tree):
        if function.name not in _HOT_FUNCTIONS:
            continue
        args = function.args
        secrets = frozenset(
            arg.arg
            for arg in args.posonlyargs + args.args + args.kwonlyargs
            if arg.arg not in ("self", "cls")
        )
        if not secrets:
            continue
        for node in ast.walk(function):
            if isinstance(node, ast.If):
                if _is_cardinality_test(node.test, secrets):
                    continue
                read = secrets & _names_in(node.test)
                if read and _changes_accesses(node):
                    yield node, (
                        f"branch conditioned on secret parameter(s) "
                        f"{_fmt(read)} can change the server-visible access "
                        "sequence"
                    )
            elif isinstance(node, ast.While):
                read = secrets & _names_in(node.test)
                if read:
                    yield node, (
                        f"loop bound conditioned on secret parameter(s) "
                        f"{_fmt(read)} leaks through the number of iterations"
                    )
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                bound = node.iter
                read = secrets & _names_in(bound)
                if (
                    isinstance(bound, ast.Call)
                    and isinstance(bound.func, ast.Name)
                    and bound.func.id == "range"
                    and read
                ):
                    yield node, (
                        f"loop bound conditioned on secret parameter(s) "
                        f"{_fmt(read)} leaks through the number of iterations"
                    )


# -- float-budget -----------------------------------------------------------

#: Modules whose arithmetic carries the ε-accounting guarantee.
BUDGET_MODULES = (
    "repro.analysis.ledger",
    "repro.analysis.composition",
    "repro.cluster.ledger",
)


def _default_spans(tree: ast.Module) -> list[tuple[int, int, int, int]]:
    """Source spans of parameter defaults (exempt: converted on entry)."""
    spans: list[tuple[int, int, int, int]] = []
    for function in walk_functions(tree):
        for default in (*function.args.defaults, *function.args.kw_defaults):
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


def float_budget(tree: ast.Module, module: str) -> Iterator[Finding]:
    """No float literal in the ε-accounting modules' statements.

    Accumulated floats drift (``0.1`` charged ten times is not ``1.0``),
    and a drifted ledger can under-report the spend.  The ledgers count
    draws as integers and total them as ``Fraction``; floats enter only
    through ``Fraction(...)`` and leave only through ``float(...)`` at the
    report.  Parameter defaults (API surface, converted on entry),
    docstrings and f-string text are exempt.
    """
    if module not in BUDGET_MODULES:
        return
    spans = _default_spans(tree)
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Constant) and isinstance(node.value, float)):
            continue
        position = (node.lineno, node.col_offset)
        if any(
            (line, col) <= position <= (end_line, end_col)
            for line, col, end_line, end_col in spans
        ):
            continue
        yield node, (
            f"float literal {node.value!r} in budget-accounting code can "
            "drift the ε totals"
        )


# -- fan-out-mutation -------------------------------------------------------

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


def _root_name(node: ast.expr) -> str | None:
    """The base ``Name`` of an attribute/subscript chain (else ``None``)."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


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


def _bound_names(closure: Closure) -> set[str]:
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
            elif isinstance(node, (ast.AnnAssign, ast.For, ast.AsyncFor)):
                owned.update(_name_targets(node.target))
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if item.optional_vars is not None:
                        owned.update(_name_targets(item.optional_vars))
    for node in ast.walk(closure):
        if isinstance(node, ast.comprehension):
            owned.update(_name_targets(node.target))
    return owned


def _closure_findings(closure: Closure) -> Iterator[Finding]:
    owned = _bound_names(closure)
    body = (
        closure.body
        if isinstance(closure, (ast.FunctionDef, ast.AsyncFunctionDef))
        else [ast.Expr(value=closure.body)]
    )
    for statement in body:
        for node in ast.walk(statement):
            if isinstance(node, ast.Nonlocal):
                yield node, (
                    "nonlocal write inside a fan-out closure couples legs "
                    "priced as racing"
                )
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    # A bare-name store binds a local of the closure; only a
                    # store through a closed-over root reaches shared state.
                    if not isinstance(target, (ast.Attribute, ast.Subscript)):
                        continue
                    root = _root_name(target)
                    if root is not None and root not in owned:
                        yield node, (
                            f"store through closed-over {root!r} inside a "
                            "fan-out closure couples legs priced as racing"
                        )
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _MUTATORS
            ):
                root = _root_name(node.func.value)
                if root is not None and root not in owned:
                    yield node, (
                        f"call to {root}.{node.func.attr}() mutates "
                        "closed-over state inside a fan-out closure"
                    )


def fan_out_mutation(tree: ast.Module, module: str) -> Iterator[Finding]:
    """Closures in a function that calls ``.fan_out`` mutate no shared state.

    An executor prices one stage's legs as racing, which is honest only
    if they are independent.  A lambda or nested def that writes
    ``nonlocal``, stores through a closed-over name, or calls a mutator
    on one couples its leg to its siblings.  Return results from the
    task and apply shared updates after ``fan_out``; bind per-task state
    through default arguments (``lambda group=group: ...``).
    """
    if not in_package(module, "repro"):
        return
    for function in walk_functions(tree):
        if not any(
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "fan_out"
            for node in ast.walk(function)
        ):
            continue
        for node in ast.walk(function):
            if isinstance(node, ast.Lambda) or (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node is not function
            ):
                yield from _closure_findings(node)


# -- trace-hygiene ----------------------------------------------------------

#: Methods that emit labels/values onto the observability channel.
_OBSERVED_ATTRS = frozenset({"span", "start_span", "annotate", "inc", "observe", "set"})
#: Identifiers whose *contents* are client secrets, matched by exact name
#: (of a variable or an attribute tail): ``shard_index`` is deliberately
#: not caught, so name the public thing ``shard`` and the secret ``index``.
_SECRET_NAMES = frozenset(
    {
        "index",
        "indices",
        "key",
        "keys",
        "pad",
        "pads",
        "pad_set",
        "pad_sets",
        "value",
        "values",
        "item",
        "items",
        "plaintext",
        "block",
        "blocks",
        "answer",
        "answers",
    }
)


def _secret_reads(node: ast.AST, tainted: set[str]) -> set[str]:
    """Secret-named identifiers ``node`` reads outside ``len(...)``."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "len"
    ):
        return tainted
    if isinstance(node, ast.Name) and node.id in _SECRET_NAMES:
        tainted.add(node.id)
    elif isinstance(node, ast.Attribute) and node.attr in _SECRET_NAMES:
        tainted.add(node.attr)
    for child in ast.iter_child_nodes(node):
        _secret_reads(child, tainted)
    return tainted


def trace_hygiene(tree: ast.Module, module: str) -> Iterator[Finding]:
    """Span and metric labels carry no secret values.

    A trace or a metrics scrape leaves the trust boundary.  A keyword
    passed to ``span`` / ``start_span`` / ``annotate`` / ``inc`` /
    ``observe`` / ``set`` that reads a secret-named value (``index``,
    ``key``, ``pads``, ``value`` …) other than through ``len(...)``
    re-creates the leak the schemes pay to hide.  Label with sizes,
    shard and server ids and timing only.
    """
    if not in_package(module, "repro"):
        return
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _OBSERVED_ATTRS
        ):
            continue
        for keyword in node.keywords:
            if keyword.arg is None:
                continue
            tainted = _secret_reads(keyword.value, set())
            if tainted:
                yield keyword.value, (
                    f"label {keyword.arg!r} on {node.func.attr}(...) is "
                    f"derived from secret-named value(s) {_fmt(tainted)}"
                )


# -- gate-order -------------------------------------------------------------

#: Methods of a server or link that reach storage.
_SERVER_CALLS = ("exchange", "send", "begin_query")


def _receiver(node: ast.expr) -> str | None:
    """The last name of a call's receiver: ``self._rng`` → ``"rng"``."""
    while isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute):
        return node.attr.lstrip("_")
    if isinstance(node, ast.Name):
        return node.id.lstrip("_")
    return None


def _is_gate(node: ast.Call) -> bool:
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
    return name.startswith("check_")


def _spends(node: ast.Call) -> bool:
    """Whether a call draws a coin, evaluates a PRF or reaches storage."""
    if not isinstance(node.func, ast.Attribute):
        return False
    receiver = _receiver(node.func.value)
    if receiver is None:
        return False
    if receiver.endswith("rng") or receiver.endswith("prf"):
        return True
    method = node.func.attr
    return ("server" in receiver or "link" in receiver) and (
        method.startswith(("read", "write")) or method in _SERVER_CALLS
    )


def gate_order(tree: ast.Module, module: str) -> Iterator[Finding]:
    """A public entry point checks its arguments before it spends.

    In a function without a leading ``_`` under ``repro.core``,
    ``repro.baselines`` or ``repro.cluster`` that calls a ``check_*``
    function, no call on an ``rng``, a PRF, or a ``server`` / ``link``
    (``read*``, ``write*``, ``exchange``, ``send``, ``begin_query``) comes
    before the first ``check_*`` call in source order.  A refused call
    must leave no coin drawn and no request sent.  Move the check up.
    """
    if not in_package(module, "repro.core", "repro.baselines", "repro.cluster"):
        return
    for function in walk_functions(tree):
        if function.name.startswith("_"):
            continue
        calls = [node for node in ast.walk(function) if isinstance(node, ast.Call)]
        gates = [(call.lineno, call.col_offset) for call in calls if _is_gate(call)]
        if not gates:
            continue
        first = min(gates)
        for call in calls:
            if (call.lineno, call.col_offset) < first and _spends(call):
                yield call, (
                    f"{function.name}() calls {_dotted_name(call.func)}() "
                    "before its first check_* gate"
                )


#: Every rule, by name.
RULES: dict[str, Rule] = {
    "rng-discipline": rng_discipline,
    "backend-bypass": backend_bypass,
    "nondeterministic-iteration": nondeterministic_iteration,
    "secret-dependent-branch": secret_dependent_branch,
    "float-budget": float_budget,
    "fan-out-mutation": fan_out_mutation,
    "trace-hygiene": trace_hygiene,
    "gate-order": gate_order,
}


def rules_hit(source: str, path: str) -> set[str]:
    """The names of the rules that flag ``source`` placed at ``path``."""
    tree = ast.parse(source, filename=path)
    module = module_name(path)
    return {name for name, rule in RULES.items() if any(rule(tree, module))}
