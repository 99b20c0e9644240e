"""backend-bypass: storage is only touched through ``StorageServer``.

Every privacy statement this repository makes about what a server
*observes* — operation counters, per-query transcripts, the batched
wire-protocol accounting — is implemented in
:class:`repro.storage.server.StorageServer`.  A scheme or cluster that
calls ``StorageBackend.read_slots`` / ``write_slots`` directly performs
accesses the transcript never records, which undercounts the adversary's
view: exactly the implementation-level leak CAOS and Path ORAM warn
about.  Only the storage layer itself (server, fault wrappers, backends)
may speak to backends.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.context import ModuleContext
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register_rule

#: The raw-backend entry points (slot granularity, no accounting), and
#: the bracket that prices several of them as one request.
_BACKEND_METHODS = ("read_slots", "write_slots", "begin_round", "end_round")

#: The one package allowed to dispatch to backends.
_ALLOWED_PACKAGES = ("repro.storage",)


@register_rule
class BackendBypassRule(Rule):
    name = "backend-bypass"
    summary = (
        "StorageBackend.read_slots/write_slots may only be called from "
        "repro.storage — anywhere else bypasses counters and transcripts"
    )
    hint = (
        "go through StorageServer.read/write/read_many/write_many/exchange "
        "so the access is counted and recorded in the transcript"
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if module.in_package(*_ALLOWED_PACKAGES):
            return
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _BACKEND_METHODS
            ):
                yield self.finding(
                    module,
                    node,
                    f"direct backend call .{node.func.attr}() outside "
                    "repro.storage skips StorageServer counting and "
                    "transcript recording",
                )
