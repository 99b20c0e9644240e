"""The source rules hold over ``src/repro``, and each one still fires.

``tests/source_rules.py`` defines the rules.  The tree is parsed once a
session and every rule must find nothing in it.  ``FIXTURES`` pins what
each rule flags on small snippets placed under virtual paths, and
``PLANTED`` plants one violation per rule in a real module's source, so a
rule that stops firing fails here rather than passing vacuously.
"""

import ast
import textwrap
from pathlib import Path

import pytest
from source_rules import BUDGET_MODULES, RULES, in_package, module_name, rules_hit

import repro

SRC = Path(repro.__file__).parent

CORE = "src/repro/core/fixture.py"
ANALYSIS_LEDGER = "src/repro/analysis/ledger.py"
OUTSIDE = "src/repro/metrics/fixture.py"
RNG_MODULE = "src/repro/crypto/rng.py"


@pytest.fixture(scope="session")
def source_tree():
    """``(path, module, tree)`` for every module under ``src/repro``."""
    return [
        (
            path.relative_to(SRC.parent),
            module_name(path.as_posix()),
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path)),
        )
        for path in sorted(SRC.rglob("*.py"))
    ]


def test_every_scoped_module_is_parsed(source_tree):
    # A rule scoped to one module by name goes quiet if the module moves.
    modules = {module for _, module, _ in source_tree}
    assert len(modules) > 50
    assert {"repro.crypto.rng", *BUDGET_MODULES} <= modules


@pytest.mark.parametrize("path, module", [
    ("src/repro/core/dp_ir.py", "repro.core.dp_ir"),
    ((SRC / "core" / "dp_ir.py").as_posix(), "repro.core.dp_ir"),
    ("src/repro/cluster/__init__.py", "repro.cluster"),
    ("checkout/repro/src/repro/crypto/rng.py", "repro.crypto.rng"),
    ("examples/fixture.py", "fixture"),
])
def test_module_name(path, module):
    # Every rule's scope is a test on this name.
    assert module_name(path) == module


@pytest.mark.parametrize("module, inside", [
    ("repro.core", True),
    ("repro.core.dp_ir", True),
    ("repro.cluster.router", True),
    ("repro.corex", False),
    ("repro", False),
    ("repro.obs.core", False),
])
def test_in_package_matches_whole_components(module, inside):
    assert in_package(module, "repro.core", "repro.cluster") is inside


@pytest.mark.parametrize("rule", sorted(RULES))
def test_source_tree_keeps_the_rule(source_tree, rule):
    found = [
        f"{path}:{getattr(node, 'lineno', 1)}: {message}"
        for path, module, tree in source_tree
        for node, message in RULES[rule](tree, module)
    ]
    assert found == []


def _case(name, source, expected, path=CORE):
    return pytest.param(path, source, expected, id=name)


RNG = {"rng-discipline"}
BACKEND = {"backend-bypass"}
ORDER = {"nondeterministic-iteration"}
BRANCH = {"secret-dependent-branch"}
FLOAT = {"float-budget"}
FAN_OUT = {"fan-out-mutation"}
TRACE = {"trace-hygiene"}
GATE = {"gate-order"}

#: Snippets at virtual paths and the exact rule set each one trips.
FIXTURES = [
    # rng-discipline
    _case("flags_import_random", "import random\n", RNG),
    _case("flags_from_random_import", "from random import shuffle\n", RNG),
    _case("flags_secrets_and_numpy_random_0", "import secrets\n", RNG),
    _case("flags_secrets_and_numpy_random_1", "from numpy import random\n", RNG),
    _case("flags_os_urandom_use", """
        import os

        def fresh_key():
            return os.urandom(16)
    """, RNG),
    _case("allows_inside_crypto_rng",
          "import random\nimport os\nkey = os.urandom(16)\n", set(),
          path=RNG_MODULE),
    _case("allows_seeded_random_source", """
        def sample(rng, n):
            return rng.sample_distinct(n, 4)
    """, set()),
    _case("plain_os_import_is_fine", "import os\npath = os.getcwd()\n", set()),
    # backend-bypass
    _case("flags_read_slots_outside_storage", """
        def peek(backend):
            return backend.read_slots([0, 1])
    """, BACKEND),
    _case("flags_write_slots", """
        def poke(backend, blocks):
            backend.write_slots([0], blocks)
    """, BACKEND),
    # A scheme that opens its own bracket re-prices its requests.
    _case("flags_the_round_bracket", """
        def cheap(server, slots):
            server.backend.begin_round()
            try:
                return [server.read(slot) for slot in slots]
            finally:
                server.backend.end_round()
    """, BACKEND),
    _case("allows_inside_repro_storage", """
        def read(self, slot):
            return self._backend.read_slots([slot])[0]
    """, set(), path="src/repro/storage/server.py"),
    _case("allows_server_level_calls", """
        def query(self, server):
            return server.read_many([1, 2, 3])
    """, set()),
    # nondeterministic-iteration
    _case("flags_for_over_set_literal", """
        def dispatch(self):
            for shard in {2, 0, 1}:
                self.visit(shard)
    """, ORDER),
    _case("flags_iteration_over_set_local", """
        def drain(self, keys):
            pending = set(keys)
            return [self.pull(key) for key in pending]
    """, ORDER),
    _case("flags_list_of_set_attribute", """
        class Directory:
            def __init__(self):
                self._keys = set()

            def snapshot(self):
                return list(self._keys)
    """, ORDER),
    _case("sorted_iteration_is_clean", """
        def drain(self, keys):
            pending = set(keys)
            return [self.pull(key) for key in sorted(pending)]
    """, set()),
    _case("reassignment_to_non_set_clears_inference", """
        def drain(self, keys):
            pending = set(keys)
            pending = sorted(pending)
            return [self.pull(key) for key in pending]
    """, set()),
    _case("out_of_scope_package_not_flagged", """
        def tally(events):
            return [hash(event) for event in set(events)]
    """, set(), path=OUTSIDE),
    # secret-dependent-branch
    _case("flags_branch_skipping_storage", """
        class Scheme:
            def query(self, index):
                if index == 0:
                    return self._cache
                return self._server.read(index)
    """, BRANCH),
    _case("flags_branch_around_a_bucket_batch", """
        class Store:
            def get(self, key):
                if key == self._cached_key:
                    value = self._cached_value
                else:
                    value = self._ram.batch(self._buckets(key))
                return value
    """, BRANCH),
    _case("flags_secret_loop_bound", """
        class Scheme:
            def read(self, address):
                out = []
                for i in range(address):
                    out.append(self._server.read(i))
                return out
    """, BRANCH),
    _case("flags_secret_while_bound", """
        class Scheme:
            def get(self, key):
                while key > 0:
                    key -= 1
                return None
    """, BRANCH),
    _case("raise_only_validation_is_legal", """
        class Scheme:
            def query(self, index):
                if index < 0 or index >= self.n:
                    raise IndexError(index)
                return self._server.read_many(self._pad(index))
    """, set()),
    _case("client_side_selection_is_legal", """
        class Scheme:
            def query(self, index):
                blocks = self._server.read_many(self._pad(index))
                answer = None
                for position, block in enumerate(blocks):
                    if position == index:
                        answer = block
                return answer
    """, set()),
    _case("batch_cardinality_check_is_legal", """
        class Scheme:
            def get_many(self, keys):
                if not keys:
                    return []
                return self._server.read_many(self._pads(keys))
    """, set()),
    _case("cold_function_not_scoped", """
        class Scheme:
            def rebuild(self, index):
                if index == 0:
                    return self._server.read(0)
                return None
    """, set()),
    # float-budget
    _case("flags_float_accumulator_seed", """
        class Ledger:
            def __init__(self):
                self._total = 0.0
    """, FLOAT, path=ANALYSIS_LEDGER),
    _case("flags_float_slack_literal", """
        def can_afford(spend, cap):
            return spend <= cap + 1e-12
    """, FLOAT, path=ANALYSIS_LEDGER),
    _case("parameter_defaults_are_exempt", """
        def __init__(self, delta_slack: float = 1e-9) -> None:
            self._delta_slack = delta_slack
    """, set(), path=ANALYSIS_LEDGER),
    _case("fraction_arithmetic_is_clean", """
        from fractions import Fraction

        def charge(total, epsilon):
            return total + Fraction(epsilon)
    """, set(), path=ANALYSIS_LEDGER),
    _case("rule_is_scoped_to_budget_modules_outside", "x = 0.0\n", set(), path=OUTSIDE),
    _case("rule_is_scoped_to_budget_modules_core", "x = 0.0\n", set()),
    # fan-out-mutation
    _case("flags_append_to_closed_over_list", """
        def drain(self, shards):
            results = []
            self._executor.fan_out([
                lambda shard=shard: results.append(shard.pull())
                for shard in shards
            ])
            return results
    """, FAN_OUT),
    _case("flags_nonlocal_counter", """
        def count(self, shards):
            done = 0

            def task():
                nonlocal done
                done += 1

            self._executor.fan_out([task for _ in shards])
            return done
    """, FAN_OUT),
    _case("flags_self_attribute_store", """
        def drain(self):
            def task():
                self._count += 1

            self._executor.fan_out([task])
    """, FAN_OUT),
    _case("default_bound_state_is_owned", """
        def drain(self, groups):
            return self._executor.fan_out([
                (lambda group=group: group.get_many(group.keys))
                for group in groups
            ])
    """, set()),
    _case("locals_inside_nested_def_are_fine", """
        def drain(self, shards):
            def task(shard):
                out = []
                out.append(shard.pull())
                return out

            return self._executor.fan_out(
                [lambda shard=shard: task(shard) for shard in shards]
            )
    """, set()),
    _case("closures_without_fan_out_not_scoped", """
        def collect(self, shards):
            results = []
            tasks = [lambda shard=shard: results.append(shard) for shard in shards]
            for task in tasks:
                task()
            return results
    """, set()),
    # trace-hygiene
    _case("flags_secret_index_span_label", """
        def query(self, index):
            with self._tracer.span("cluster.query", index=index):
                pass
    """, TRACE),
    *(
        _case(f"flags_key_in_annotate_and_metric_labels_{number}", f"""
            def touch(self, span, key, keys, pad_set):
                {call}
        """, TRACE)
        for number, call in enumerate((
            'span.annotate(key=key)',
            'self._counter.inc(key=str(key))',
            'self._histogram.observe(1.0, first=keys[0])',
            'self._gauge.set(1.0, pad=pad_set[0])',
        ))
    ),
    _case("flags_secret_attribute_tail", """
        def emit(self, request):
            with self._tracer.span("serve.round", what=request.index):
                pass
    """, TRACE),
    _case("len_of_secret_collection_is_public", """
        def emit(self, indices, pads):
            with self._tracer.span(
                "storage.read_many", batch=len(indices)
            ) as span:
                span.annotate(pads=len(pads))
    """, set()),
    _case("public_labels_pass", """
        def emit(self, shard, server_id, elapsed_ms):
            with self._tracer.span(
                "cluster.shard_leg", shard=shard, server=server_id
            ) as span:
                span.annotate(service_ms=elapsed_ms)
    """, set()),
    *(
        _case(f"scoped_to_the_repro_tree_{where}", """
            def emit(self, tracer, index):
                with tracer.span("demo", index=index):
                    pass
        """, expected, path=path)
        for where, path, expected in (
            ("outside", "examples/fixture.py", set()),
            ("inside", CORE, TRACE),
        )
    ),
    # gate-order
    _case("flags_a_coin_before_the_gate", """
        class Scheme:
            def read(self, i):
                pad = self._rng.randbelow(self.n)
                check_index(i, self.n)
                return self._server.read_many([i, pad])
    """, GATE),
    _case("flags_a_server_call_before_the_gate", """
        class Scheme:
            def write(self, i, value):
                self._link.send([i])
                check_value(value, self.block_size)
    """, GATE),
    _case("gate_first_is_clean", """
        class Scheme:
            def read(self, i):
                check_index(i, self.n)
                pad = self._rng.randbelow(self.n)
                return self._server.read_many([i, pad])
    """, set()),
    # A staging helper may check what its transform returned.
    _case("private_helpers_are_not_gated", """
        class Scheme:
            def _stage(self, i, transform):
                result = self._server.read_many([i])
                check_value(transform(result), self.block_size)
    """, set()),
    _case("gate_order_outside_the_scheme_packages", """
        def read(self, i):
            pad = self._rng.randbelow(self.n)
            check_index(i, self.n)
    """, set(), path=OUTSIDE),
]


@pytest.mark.parametrize("path, source, expected", FIXTURES)
def test_fixture_flags_exactly(path, source, expected):
    assert rules_hit(textwrap.dedent(source), path) == expected


def _append(snippet):
    return lambda source: source + textwrap.dedent(snippet)


#: One violation per rule, planted in a real module: (rule, module, plant).
PLANTED = [
    ("rng-discipline", "core/dp_ir.py", _append("""
        import random
    """)),
    ("backend-bypass", "core/dp_ram.py", _append("""
        def _peek(backend):
            return backend.read_slots([0])
    """)),
    ("nondeterministic-iteration", "cluster/router.py", _append("""
        def _shards_of(keys):
            return [key % 4 for key in set(keys)]
    """)),
    ("secret-dependent-branch", "core/dp_ir.py", _append("""
        class _Cached:
            def query(self, index):
                if index == 0:
                    return self._cache
                return self._server.read(index)
    """)),
    ("float-budget", "analysis/ledger.py", _append("""
        _SLACK = 1e-12
    """)),
    ("fan-out-mutation", "cluster/scheme.py", _append("""
        def _drain(executor, shards):
            results = []
            executor.fan_out([lambda s=s: results.append(s) for s in shards])
            return results
    """)),
    ("trace-hygiene", "obs/tracer.py", _append("""
        def _label(tracer, key):
            return tracer.span("kvs.get", key=key)
    """)),
    ("gate-order", "core/dp_ram.py", _append("""
        class _Eager:
            def read(self, index):
                pad = self._rng.randbelow(self.n)
                check_index(index, self.n)
                return pad
    """)),
]


def test_every_rule_is_planted():
    assert sorted(rule for rule, _, _ in PLANTED) == sorted(RULES)


@pytest.mark.parametrize(
    "rule, relative, plant", PLANTED, ids=[rule for rule, _, _ in PLANTED]
)
def test_a_planted_violation_fires(rule, relative, plant):
    path = SRC / relative
    source = path.read_text(encoding="utf-8")
    assert rules_hit(source, path.as_posix()) == set()
    assert rules_hit(plant(source), path.as_posix()) == {rule}
