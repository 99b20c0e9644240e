"""rng-discipline: every draw flows through ``RandomSource``.

Executor equivalence (PR 4) and transcript invariance (PR 5) are proofs
about *seeded* runs: they hold because every coin any scheme flips comes
from the explicit :class:`repro.crypto.rng.RandomSource` threaded through
the constructors.  One stray ``import random`` — module-level global
state — breaks bit-identical replay across serial/parallel executors and
silently invalidates the Monte-Carlo privacy audits.

The only module allowed to touch ambient randomness (``random``,
``secrets``, ``os.urandom``, ``numpy.random``) is
``repro/crypto/rng.py`` itself, where the sources are defined.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.context import ModuleContext
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register_rule
from repro.lint.rules._ast_util import dotted_name

#: Modules whose import anywhere else is a finding.
_BANNED_MODULES = ("random", "secrets", "numpy.random")

#: Attribute chains whose *use* is a finding even without an import
#: (``os`` is imported legitimately all over the repository).
_BANNED_ATTRIBUTES = ("os.urandom", "numpy.random", "np.random")

#: The one module where ambient entropy is the point.
_ALLOWED_MODULES = ("repro.crypto.rng",)


@register_rule
class RngDisciplineRule(Rule):
    name = "rng-discipline"
    summary = (
        "ambient randomness (random/secrets/os.urandom/numpy.random) is "
        "only allowed inside repro.crypto.rng"
    )
    hint = (
        "take a RandomSource parameter and draw from it (rng.randbelow, "
        "rng.sample_distinct, rng.spawn for substreams)"
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if module.is_module(*_ALLOWED_MODULES):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if _banned_module(alias.name):
                        yield self.finding(
                            module,
                            node,
                            f"import of {alias.name!r} outside "
                            "repro.crypto.rng bypasses the seeded "
                            "RandomSource discipline",
                        )
            elif isinstance(node, ast.ImportFrom):
                source = node.module or ""
                if _banned_module(source):
                    yield self.finding(
                        module,
                        node,
                        f"import from {source!r} outside repro.crypto.rng "
                        "bypasses the seeded RandomSource discipline",
                    )
                elif source in ("numpy", "np"):
                    for alias in node.names:
                        if alias.name == "random":
                            yield self.finding(
                                module,
                                node,
                                "import of numpy.random outside "
                                "repro.crypto.rng bypasses the seeded "
                                "RandomSource discipline",
                            )
            elif isinstance(node, ast.Attribute):
                chain = dotted_name(node)
                if chain is not None and _banned_attribute(chain):
                    yield self.finding(
                        module,
                        node,
                        f"use of {chain!r} outside repro.crypto.rng "
                        "bypasses the seeded RandomSource discipline",
                    )


def _banned_module(name: str) -> bool:
    return any(
        name == banned or name.startswith(banned + ".")
        for banned in _BANNED_MODULES
    )


def _banned_attribute(chain: str) -> bool:
    return any(
        chain == banned or chain.startswith(banned + ".")
        for banned in _BANNED_ATTRIBUTES
    )
