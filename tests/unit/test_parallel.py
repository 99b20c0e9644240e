"""Tests for the executor abstraction and its accounting contract."""

import ast
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.parallel import (
    Executor,
    ParallelExecutor,
    SerialExecutor,
    resolve_executor,
)
from repro.storage.faults import ServerFault
from repro.storage.server import ServerPool


class TestFanOutContract:
    @pytest.mark.parametrize("executor", [
        SerialExecutor(), ParallelExecutor(),
    ])
    def test_results_preserve_submission_order(self, executor):
        tasks = [lambda value=value: value * 2 for value in range(16)]
        results = executor.fan_out(tasks)
        assert [result.value for result in results] == [
            value * 2 for value in range(16)
        ]
        assert [result.index for result in results] == list(range(16))
        assert all(result.ok for result in results)

    @pytest.mark.parametrize("executor", [
        SerialExecutor(), ParallelExecutor(),
    ])
    def test_faulted_task_does_not_poison_siblings(self, executor):
        def boom():
            raise ServerFault("injected")

        results = executor.fan_out([lambda: "a", boom, lambda: "c"])
        assert results[0].value == "a"
        assert results[2].value == "c"
        assert isinstance(results[1].error, ServerFault)
        assert not results[1].ok
        with pytest.raises(ServerFault):
            results[1].unwrap()

    def test_per_task_timing_recorded(self):
        executor = SerialExecutor()
        results = executor.fan_out([lambda: time.sleep(0.002)])
        assert results[0].elapsed_ms > 0.0

    def test_empty_stage(self):
        assert SerialExecutor().fan_out([]) == []
        assert ParallelExecutor().fan_out([]) == []

    def test_parallel_stage_runs_in_order_and_is_priced_as_racing(self):
        executor = ParallelExecutor(dispatch_overhead_ms=0.5)
        caller = threading.get_ident()
        ran = []

        def leg(slot):
            ran.append((slot, threading.get_ident()))
            return slot

        results = executor.fan_out(
            [lambda slot=slot: leg(slot) for slot in range(8)]
        )
        assert ran == [(slot, caller) for slot in range(8)]
        assert [result.value for result in results] == list(range(8))
        assert executor.stage_cost([3.0, 5.0, 2.0]) == 5.5


#: Modules that start threads or processes, or lock against them.
_CONCURRENCY_MODULES = (
    "threading", "_thread", "concurrent.futures", "multiprocessing",
)


def _imported_names(node: ast.AST) -> list[str]:
    """Dotted names an import statement binds (``[]`` for other nodes)."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module] + [
            f"{node.module}.{alias.name}" for alias in node.names
        ]
    return []


class TestNoConcurrencyMachinery:
    def test_no_library_module_imports_threads_or_processes(self):
        # Legs run on the caller's thread, so nothing in the library has
        # concurrency to guard: a lock or a pool coming back is a design
        # change, not a detail.
        root = Path(repro.__file__).parent
        found = []
        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                for name in _imported_names(node):
                    if any(
                        name == module or name.startswith(module + ".")
                        for module in _CONCURRENCY_MODULES
                    ):
                        found.append(
                            f"{path.relative_to(root)}:{node.lineno} {name}"
                        )
        assert found == []


class TestStageCost:
    def test_serial_is_the_sum(self):
        assert SerialExecutor().stage_cost([3.0, 5.0, 2.0]) == 10.0

    def test_concurrent_is_the_max(self):
        assert ParallelExecutor().stage_cost([3.0, 5.0, 2.0]) == 5.0

    def test_dispatch_overhead_added_once(self):
        executor = ParallelExecutor(dispatch_overhead_ms=0.5)
        assert executor.stage_cost([3.0, 5.0]) == 5.5

    def test_single_leg_costs_the_leg(self):
        # One leg has nothing to overlap — no overhead, no discount.
        assert ParallelExecutor(
            dispatch_overhead_ms=0.5
        ).stage_cost([4.0]) == 4.0

    def test_empty_stage_is_free(self):
        assert ParallelExecutor().stage_cost([]) == 0.0

    def test_negative_leg_rejected(self):
        with pytest.raises(ValueError):
            SerialExecutor().stage_cost([-1.0])


class TestResolveExecutor:
    def test_names(self):
        assert isinstance(resolve_executor("serial"), SerialExecutor)
        assert isinstance(resolve_executor("parallel"), ParallelExecutor)

    def test_simulated_is_gone(self):
        with pytest.raises(ValueError, match="parallel, serial"):
            resolve_executor("simulated")

    def test_none_is_serial(self):
        assert isinstance(resolve_executor(None), SerialExecutor)

    def test_instance_passes_through(self):
        executor = ParallelExecutor()
        assert resolve_executor(executor) is executor

    def test_unknown_name_lists_choices(self):
        with pytest.raises(ValueError, match="serial"):
            resolve_executor("warp")

    def test_subclass_counts_as_executor(self):
        class Custom(Executor):
            def fan_out(self, tasks):
                return SerialExecutor().fan_out(tasks)

        custom = Custom()
        assert resolve_executor(custom) is custom


class _StubKVSReplica:
    """Minimal KVS replica double for fan-out error-path tests."""

    def __init__(self, error: Exception | None = None):
        self._error = error
        self.puts = 0

    def put(self, key, value):
        if self._error is not None:
            raise self._error
        self.puts += 1

    def servers(self):
        return ()


class TestKVWriteFanOutErrorHandling:
    def test_sibling_server_fault_marks_dead_before_other_error_raises(self):
        from repro.cluster.group import KVShardGroup

        group = KVShardGroup(0, [
            _StubKVSReplica(ValueError("capacity")),
            _StubKVSReplica(ServerFault("mid-write crash")),
            _StubKVSReplica(),
        ])
        with pytest.raises(ValueError, match="capacity"):
            group.put(b"k", b"v")
        # The faulted sibling went fail-stop dead even though another
        # replica's non-fault error is what propagated.
        assert group.live_replicas == 2
        assert group.fault_counters()["dead_replicas"] == 1
        # And the healthy replica's write landed before the raise.
        assert group.replicas[2].puts == 1


class TestServerPoolRequestAll:
    def test_serial_default_hits_every_server_in_order(self):
        pool = ServerPool(3, capacity=4, block_size=8)
        pool.load_replicas([bytes(8)] * 4)
        results = pool.request_all(lambda server: server.read(0))
        assert [result.value for result in results] == [bytes(8)] * 3
        assert all(server.reads == 1 for server in pool)

    def test_parallel_executor_reaches_every_server(self):
        pool = ServerPool(4, capacity=4, block_size=8)
        pool.load_replicas([bytes(8)] * 4)
        results = pool.request_all(
            lambda server: [server.read(slot) for slot in range(4)],
            executor=ParallelExecutor(),
        )
        assert all(result.ok for result in results)
        assert all(server.reads == 4 for server in pool)

    def test_per_server_fault_does_not_poison_siblings(self):
        pool = ServerPool(3, capacity=2, block_size=8)
        pool.load_replicas([bytes(8)] * 2)

        def read_or_die(server):
            if server.server_id == 1:
                raise ServerFault("server 1 is down")
            return server.read(0)

        results = pool.request_all(read_or_die, executor="parallel")
        assert results[0].ok and results[2].ok
        assert isinstance(results[1].error, ServerFault)
