"""The traced pass's span recorder, owned by the benchmark.

Nothing under ``src/`` knows about this file.  A span is opened around
each layer's public entry point in one of two ways:

* *injected proxies* where the scheme takes the collaborator as an
  argument — :class:`SpanRng` for ``rng=`` and :class:`SpanBackend` for
  ``backend=``;
* *attribute wrapping* for everything else (:data:`POINTS`): the
  function or method is replaced for the duration of :func:`tracing`
  and restored afterwards.  Module-level functions are re-bound in every
  ``repro`` module that imported them by name, and the wrappers are
  installed *before* the scheme is built, because ``DPRAM`` captures
  ``encrypt``/``decrypt`` at construction.

Self time is aggregated as spans close (a span's duration minus its
children's), so layer self times telescope to the op root's duration
exactly.  A layer's ``calls`` counts entries from *another* layer:
``encrypt_authenticated`` calling ``encrypt`` is one call into
``crypto.encryption``, not two.  Spans themselves are kept only for
the first ops of the pass (:data:`SPAN_BUDGET`) — every op is
aggregated, the file is a readable sample.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time

from repro.crypto.rng import RandomSource
from repro.storage.backends import InMemoryBackend, StorageBackend

SPAN_BUDGET = 40_000
"""Stop keeping spans for new ops once this many are stored."""

_now = time.perf_counter_ns


class LayerStats:
    """Totals of one layer over the traced ops."""

    __slots__ = ("self_ns", "calls", "units", "bytes")

    def __init__(self) -> None:
        self.self_ns = 0
        self.calls = 0
        self.units = 0
        self.bytes = 0


class Recorder:
    """In-memory spans plus running per-layer totals.

    ``spans`` rows are ``(layer, start_ns, end_ns, parent, op)`` where
    ``parent`` indexes ``spans`` (``-1`` for an op root).
    """

    def __init__(self) -> None:
        self.layers: dict[str, LayerStats] = {}
        self.spans: list[tuple[str, int, int, int, int] | None] = []
        self.ops = 0
        self.root_ns = 0
        self.marks: list[tuple[int, dict[str, int]]] = []
        self._layer: str | None = None
        self._child_ns = 0
        self._index = -1
        self._keep = False

    def reset(self) -> None:
        """Forget set-up and warm-up; what follows is the measurement."""
        for name in self.layers:
            self.layers[name] = LayerStats()
        self.spans.clear()
        self.ops = 0
        self.root_ns = 0
        self.marks = []
        self.mark()

    def mark(self) -> None:
        """Note the running totals; called at every segment boundary."""
        self.marks.append((
            self.root_ns,
            {name: stats.self_ns for name, stats in self.layers.items()},
        ))

    def quietest_segment(self) -> tuple[int, dict[str, int]]:
        """``(root_ns, {layer: self_ns})`` of the fastest marked segment."""
        deltas = [
            (root - before_root,
             {name: ns - before.get(name, 0) for name, ns in layers.items()})
            for (before_root, before), (root, layers)
            in zip(self.marks, self.marks[1:])
        ]
        return min(deltas, key=lambda delta: delta[0])

    def wrap(self, layer, fn, weigh=None, counted=True, root=False):
        """``fn`` with a ``layer`` span around every call.

        ``weigh(args) -> (units, bytes)`` sizes a call (slots moved,
        blocks and bytes enciphered); ``counted=False`` keeps a helper
        such as ``begin_query`` out of the layer's call count; ``root``
        marks the workload's public operation, whose spans delimit ops.
        """
        self.layers.setdefault(layer, LayerStats())
        rec = self
        spans = self.spans

        def traced(*args, **kwargs):
            outer_layer, outer_child, outer_index = (
                rec._layer, rec._child_ns, rec._index
            )
            if outer_layer is None and not root:
                # Outside any op (set-up, the plaintext model): no span.
                return fn(*args, **kwargs)
            # Looked up per call: reset() swaps the stats objects.
            stats = rec.layers[layer]
            if root:
                rec._keep = len(spans) < SPAN_BUDGET
            if counted and outer_layer != layer:
                stats.calls += 1
                if weigh is not None:
                    units, size = weigh(args)
                    stats.units += units
                    stats.bytes += size
            keep = rec._keep
            if keep:
                index = len(spans)
                spans.append(None)
                rec._index = index
            rec._layer = layer
            rec._child_ns = 0
            start = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                end = _now()
                duration = end - start
                stats.self_ns += duration - rec._child_ns
                rec._layer = outer_layer
                rec._child_ns = outer_child + duration
                rec._index = outer_index
                if keep:
                    spans[index] = (layer, start, end, outer_index, rec.ops)
                if root:
                    rec.ops += 1
                    rec.root_ns += duration
                    rec._keep = False

        return traced


# -- injected proxies ------------------------------------------------------


class SpanRng(RandomSource):
    """A randomness source whose draws are ``crypto.rng`` spans."""

    def __init__(self, inner: RandomSource, recorder: Recorder) -> None:
        self._inner = inner
        self._recorder = recorder
        wrap = recorder.wrap
        self._random = wrap("crypto.rng", inner.random)
        self._randbelow = wrap("crypto.rng", inner.randbelow)
        self._bytes = wrap("crypto.rng", inner.bytes)
        self._sample_distinct = wrap("crypto.rng", inner.sample_distinct)

    def random(self) -> float:
        return self._random()

    def randbelow(self, bound: int) -> int:
        return self._randbelow(bound)

    def bytes(self, length: int) -> bytes:
        return self._bytes(length)

    def sample_distinct(self, universe: int, count: int) -> list[int]:
        return self._sample_distinct(universe, count)

    def spawn(self, label: str) -> "SpanRng":
        return SpanRng(self._inner.spawn(label), self._recorder)


class SpanBackend(StorageBackend):
    """An in-memory backend whose slot accesses are ``storage.backends`` spans."""

    __slots__ = ("_inner", "_read_slot", "_write_slot", "_read_slots",
                 "_write_slots")

    def __init__(self, capacity: int, recorder: Recorder) -> None:
        inner = InMemoryBackend(capacity)
        self._inner = inner
        wrap = recorder.wrap
        self._read_slot = wrap("storage.backends", inner.read_slot)
        self._write_slot = wrap("storage.backends", inner.write_slot)
        self._read_slots = wrap("storage.backends", inner.read_slots)
        self._write_slots = wrap("storage.backends", inner.write_slots)

    @property
    def capacity(self) -> int:
        return self._inner.capacity

    @property
    def missing_slots(self) -> int:
        return self._inner.missing_slots

    def read_slot(self, index):
        return self._read_slot(index)

    def write_slot(self, index, block):
        self._write_slot(index, block)

    def read_slots(self, indices):
        return self._read_slots(indices)

    def write_slots(self, items):
        self._write_slots(items)

    def load(self, blocks):
        self._inner.load(blocks)

    def peek_slot(self, index):
        return self._inner.peek_slot(index)


# -- attribute wrapping ------------------------------------------------------


def _one_block(args):
    return 1, len(args[1])


def _many_blocks(args):
    return len(args[1]), sum(map(len, args[1]))


def _one_slot(args):
    return 1, 0


def _many_slots(args):
    return len(args[1]), 0


POINTS = (
    # (layer, "module[:Class]", names, weigh, counted)
    ("core.sampling", "repro.core.sampling", ("draw_pad_set",), None, True),
    ("crypto.encryption", "repro.crypto.encryption",
     ("encrypt", "decrypt", "encrypt_authenticated", "decrypt_authenticated"),
     _one_block, True),
    ("crypto.encryption", "repro.crypto.encryption",
     ("encrypt_many", "decrypt_many", "encrypt_authenticated_many",
      "decrypt_authenticated_many"), _many_blocks, True),
    ("crypto.prf", "repro.crypto.prf:PRF", ("choices", "choices_many"),
     None, True),
    ("hashing.node_codec", "repro.hashing.node_codec:NodeCodec",
     ("pack", "unpack"), None, True),
    ("hashing.node_codec", "repro.hashing.node_codec:SizedValueCodec",
     ("encode", "decode"), None, True),
    ("core.bucket_ram", "repro.core.bucket_ram:BucketDPRAM",
     ("begin_query", "finish_query"), None, True),
    ("storage.server", "repro.storage.server:StorageServer",
     ("read", "write"), _one_slot, True),
    ("storage.server", "repro.storage.server:StorageServer",
     ("read_many", "write_many"), _many_slots, True),
    ("storage.server", "repro.storage.server:StorageServer",
     ("begin_query",), None, False),
    ("core.batch_ir", "repro.core.batch_ir:BatchDPIR",
     ("query", "query_many"), None, True),
    ("serving.simulator", "repro.serving.simulator:ServingSimulator",
     ("run",), None, True),
    ("serving.schedulers", "repro.serving.schedulers:RequestScheduler",
     ("pending",), None, True),
    ("serving.schedulers",
     "repro.serving.schedulers:ContinuousBatchScheduler",
     ("try_admit", "enqueue", "next_batch", "notify_complete"), None, True),
    ("serving.load", "repro.serving.load:OpenLoopLoad", ("plan",), None, True),
    ("cluster.scheme", "repro.cluster.scheme:ClusterIR",
     ("query", "query_many"), None, True),
    ("cluster.router", "repro.cluster.router:ShardRouter",
     ("assignment",), None, True),
    ("cluster.router", "repro.cluster.router:RangeRouter",
     ("shard_of",), None, True),
    ("cluster.group", "repro.cluster.group:ShardGroup",
     ("query", "query_many"), None, True),
    ("cluster.ledger", "repro.cluster.ledger:ClusterLedger",
     ("charge",), None, True),
    ("analysis.ledger", "repro.analysis.ledger:PrivacyLedger",
     ("charge",), None, True),
    ("parallel.executor", "repro.parallel.executor:SerialExecutor",
     ("fan_out",), None, True),
)


@contextlib.contextmanager
def tracing(recorder: Recorder):
    """Install the :data:`POINTS` wrappers; restore the originals on exit."""
    undo: list[tuple[object, str, object]] = []

    def patch(owner, name, replacement):
        undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, replacement)

    try:
        for layer, target, names, weigh, counted in POINTS:
            module_name, _, class_name = target.partition(":")
            module = importlib.import_module(module_name)
            for name in names:
                if class_name:
                    owner = getattr(module, class_name)
                    patch(owner, name, recorder.wrap(
                        layer, vars(owner)[name], weigh, counted))
                    continue
                original = getattr(module, name)
                wrapped = recorder.wrap(layer, original, weigh, counted)
                for other in list(sys.modules.values()):
                    if (
                        getattr(other, "__name__", "").startswith("repro")
                        and vars(other).get(name) is original
                    ):
                        patch(other, name, wrapped)
        yield recorder
    finally:
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)
