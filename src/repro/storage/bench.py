"""Client-side hot-path benchmarks: ``read_many`` versus the per-slot loop.

Every other benchmark in this repository prices *modeled* milliseconds
(operation counts under a :class:`~repro.storage.network.NetworkModel`);
this module times the *actual Python hot path* — real wall-clock
ops/sec on the client — before and after the batched wire protocol.
``benchmarks/bench_hotpath.py`` asserts on these rows and
``scripts/run_benchmarks.py`` writes them to ``BENCH_hotpath.json``, so
the numbers cannot drift apart.

Three claims under test:

* **Read path**: serving a DP-IR pad set through one
  :meth:`~repro.storage.server.StorageServer.read_many` round is at
  least 3x the slot-ops/sec of ``K`` per-slot ``read()`` calls — the
  pad sets are drawn by the scheme's own sampler, so this is the
  retrieval hot path of every Algorithm-1 query, not a synthetic
  access pattern.
* **End-to-end**: a full ``DPIR.query`` (sampling included) is
  measurably faster batched than per-slot.
* **Invariance**: the two execution modes are *observationally
  identical* under a shared seed — same answers, same ``reads`` /
  ``writes`` counters, same per-query transcript multiset, same exact
  ε and storage.  Timing is the only thing the wire protocol is
  allowed to change.

Timings use best-of-``repeats`` over a fixed seeded workload, which is
as machine-independent as pure-Python timing gets; the CI gate
therefore checks the *ratios* (plus a conservative absolute ops/sec
floor), never raw cross-machine throughput.
"""

from __future__ import annotations

import time

from repro.core.dp_ir import DPIR
from repro.core.dp_ram import DPRAM
from repro.crypto.encryption import decrypt_reference, encrypt_reference
from repro.crypto.rng import SeededRandomSource
from repro.storage.blocks import integer_database
from repro.storage.transcript import Transcript

DEFAULT_N = 4096
DEFAULT_PAD = 64
DEFAULT_ALPHA = 0.05


class _PerSlotDPIR(DPIR):
    """Oracle: Algorithm 1 with the pad set fetched by ``K`` per-slot
    ``read()`` calls instead of one ``read_many`` round.

    Consumes the same randomness, touches the same slots in the same
    sorted order and leaves identical counters and transcripts as
    :class:`~repro.core.dp_ir.DPIR` — the baseline the read-path
    timings and the invariance witnesses compare against.
    """

    def query(self, index: int) -> bytes | None:
        download_set, include_real = self._draw_set(index)
        self._server.begin_query(self._queries)
        self._queries += 1
        result: bytes | None = None
        for slot in sorted(download_set):
            block = self._server.read(slot)
            if include_real and slot == index:
                result = block
        if not include_real:
            self._errors += 1
        return result


class _ReferenceCipherDPRAM(DPRAM):
    """Oracle: DP-RAM on the frozen per-block reference cipher
    (:func:`~repro.crypto.encryption.encrypt_reference`), setup
    included — slower, bit-identical, the baseline the bulk-crypto
    invariance witnesses compare against."""

    def _cipher(self):
        def encrypt_all(key, blocks, rng):
            return [encrypt_reference(key, block, rng) for block in blocks]

        return encrypt_reference, decrypt_reference, encrypt_all


def _build(
    blocks, pad_size: int, alpha: float, seed: int, batched: bool
) -> DPIR:
    return (DPIR if batched else _PerSlotDPIR)(
        blocks,
        pad_size=pad_size,
        alpha=alpha,
        rng=SeededRandomSource(seed),
    )


def _best_of(measure, repeats: int) -> float:
    """Smallest elapsed seconds over ``repeats`` runs (noise floor)."""
    return min(measure() for _ in range(repeats))


def _per_query_multisets(transcript: Transcript) -> list[tuple]:
    """The per-query event multiset, with queries in ordinal order."""
    by_query: dict[int, list[tuple]] = {}
    for event in transcript:
        by_query.setdefault(event.query, []).append(
            (event.kind.value, event.server, event.index)
        )
    return [tuple(sorted(by_query[query])) for query in sorted(by_query)]


def read_path_comparison(
    *,
    n: int = DEFAULT_N,
    pad_size: int = DEFAULT_PAD,
    alpha: float = DEFAULT_ALPHA,
    queries: int = 1000,
    repeats: int = 5,
    seed: int = 0x407,
) -> dict:
    """Time the pure retrieval path on scheme-drawn pad sets.

    The pad sets come from a real ``DPIR``'s sampler (sorted access
    order, exactly as ``query`` issues them); the measured region is
    only the server retrieval — ``K`` per-slot ``read()`` calls versus
    one ``read_many`` round — so the ratio isolates what the batched
    wire protocol buys.
    """
    scheme = _build(integer_database(n), pad_size, alpha, seed, True)
    server = scheme.server
    workload = SeededRandomSource(seed + 1)
    pads = [
        sorted(scheme._draw_set(workload.randbelow(n))[0])
        for _ in range(queries)
    ]
    slot_ops = queries * pad_size

    def per_slot() -> float:
        started = time.perf_counter()
        for pad in pads:
            for slot in pad:
                server.read(slot)
        return time.perf_counter() - started

    def batched() -> float:
        started = time.perf_counter()
        for pad in pads:
            server.read_many(pad)
        return time.perf_counter() - started

    per_slot()  # warm-up
    batched()
    loop_s = _best_of(per_slot, repeats)
    batch_s = _best_of(batched, repeats)
    return {
        "n": n,
        "pad_size": pad_size,
        "queries": queries,
        "per_slot_ops_per_sec": slot_ops / loop_s,
        "batched_ops_per_sec": slot_ops / batch_s,
        "speedup": loop_s / batch_s,
    }


def query_comparison(
    *,
    n: int = DEFAULT_N,
    pad_size: int = DEFAULT_PAD,
    alpha: float = DEFAULT_ALPHA,
    queries: int = 600,
    repeats: int = 5,
    seed: int = 0x407,
) -> dict:
    """Time full ``DPIR.query`` calls, batched versus per-slot.

    Sampling, sorting and bookkeeping are identical in both modes (same
    seed, same draws), so this is the end-to-end figure a serving
    deployment sees.  Each timed run rebuilds the scheme from the same
    seed so both modes replay the identical query plans.
    """
    blocks = integer_database(n)
    workload = SeededRandomSource(seed + 2)
    indices = [workload.randbelow(n) for _ in range(queries)]

    def run(batched: bool) -> float:
        scheme = _build(blocks, pad_size, alpha, seed, batched)
        started = time.perf_counter()
        for index in indices:
            scheme.query(index)
        return time.perf_counter() - started

    run(True)  # warm-up
    run(False)
    loop_s = _best_of(lambda: run(False), repeats)
    batch_s = _best_of(lambda: run(True), repeats)
    return {
        "n": n,
        "pad_size": pad_size,
        "queries": queries,
        "per_slot_queries_per_sec": queries / loop_s,
        "batched_queries_per_sec": queries / batch_s,
        "speedup": loop_s / batch_s,
    }


def mode_invariance(
    *,
    n: int = 512,
    pad_size: int = 16,
    alpha: float = 0.1,
    queries: int = 200,
    seed: int = 0x1A7,
) -> dict:
    """Witness that batched and per-slot execution are observationally
    identical: answers, counters, per-query transcript multisets, exact
    ε, ops/request and storage all match under a shared seed."""
    blocks = integer_database(n)
    workload = SeededRandomSource(seed + 3)
    indices = [workload.randbelow(n) for _ in range(queries)]
    witnesses = {}
    for label, batched in (("per_slot", False), ("batched", True)):
        scheme = _build(blocks, pad_size, alpha, seed, batched)
        transcript = Transcript()
        scheme.attach_transcript(transcript)
        answers = [scheme.query(index) for index in indices]
        witnesses[label] = {
            "answers": answers,
            "reads": scheme.server.reads,
            "writes": scheme.server.writes,
            "multisets": _per_query_multisets(transcript),
            "epsilon": scheme.epsilon,
            "ops_per_request": scheme.server.operations / queries,
            "storage_blocks": scheme.server.capacity,
            "errors": scheme.error_count,
        }
    per_slot, batched = witnesses["per_slot"], witnesses["batched"]
    return {
        "n": n,
        "pad_size": pad_size,
        "queries": queries,
        "identical_answers": per_slot["answers"] == batched["answers"],
        "identical_counters": (
            per_slot["reads"] == batched["reads"]
            and per_slot["writes"] == batched["writes"]
        ),
        "identical_transcript_multisets": (
            per_slot["multisets"] == batched["multisets"]
        ),
        "epsilon": {k: witnesses[k]["epsilon"] for k in witnesses},
        "ops_per_request": {
            k: witnesses[k]["ops_per_request"] for k in witnesses
        },
        "storage_blocks": {
            k: witnesses[k]["storage_blocks"] for k in witnesses
        },
        "errors": {k: witnesses[k]["errors"] for k in witnesses},
    }


def tracer_overhead(
    *,
    n: int = DEFAULT_N,
    pad_size: int = DEFAULT_PAD,
    alpha: float = DEFAULT_ALPHA,
    queries: int = 600,
    repeats: int = 7,
    seed: int = 0x407,
) -> dict:
    """Price the observability hook on the batched read path.

    Three timings of the same scheme-drawn pad-set retrieval through
    ``read_many``:

    * **base** — a plain server, no observer ever attached;
    * **disabled** — a :class:`~repro.obs.tracer.NullTracer` observer is
      *offered*, which ``attach_observer`` refuses, leaving the hot path
      paying exactly one ``is not None`` check (the production default);
    * **enabled** — a live tracer + registry record every round.

    The CI gate holds ``disabled_overhead_ratio`` at ≤ 2%: switching the
    subsystem off must cost nothing.  The enabled ratio is reported for
    information only — a span per round is real work, priced here so
    regressions are visible, but not gated.
    """
    from repro.obs.instrument import StorageObserver
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.tracer import NULL_TRACER, Tracer

    scheme = _build(integer_database(n), pad_size, alpha, seed, True)
    server = scheme.server
    workload = SeededRandomSource(seed + 4)
    pads = [
        sorted(scheme._draw_set(workload.randbelow(n))[0])
        for _ in range(queries)
    ]
    slot_ops = queries * pad_size

    def retrieval() -> float:
        started = time.perf_counter()
        for pad in pads:
            server.read_many(pad)
        return time.perf_counter() - started

    def timed() -> float:
        retrieval()  # warm-up
        return _best_of(retrieval, repeats)

    server.detach_observer()
    base_s = timed()

    server.attach_observer(StorageObserver(NULL_TRACER, None))
    disabled_s = timed()

    server.attach_observer(StorageObserver(Tracer("bench"), MetricsRegistry()))
    enabled_s = timed()
    server.detach_observer()

    base_ops = slot_ops / base_s
    disabled_ops = slot_ops / disabled_s
    enabled_ops = slot_ops / enabled_s
    return {
        "n": n,
        "pad_size": pad_size,
        "queries": queries,
        "base_ops_per_sec": base_ops,
        "disabled_ops_per_sec": disabled_ops,
        "enabled_ops_per_sec": enabled_ops,
        "disabled_overhead_ratio": base_ops / disabled_ops,
        "enabled_overhead_ratio": base_ops / enabled_ops,
    }


def crypto_comparison(
    *,
    block_size: int = 330,
    batch: int = 32,
    batches: int = 200,
    repeats: int = 7,
    seed: int = 0x407,
) -> dict:
    """Time bulk encryption against the frozen per-block reference loop.

    Shaped like a bucket DP-RAM re-encryption round: ``batch`` same-key
    blocks encrypted back to back and then decrypted (both directions of
    the hot path).  The default ``block_size`` of 330 bytes is the
    serialized node blob of a DP-KVS with 64-byte values at the default
    ``node_capacity`` — the unit every bucket query transports.  The
    baseline is the seed implementation (fresh HMAC keying per block,
    stateful counter PRG, per-byte generator XOR), kept verbatim as
    ``encrypt_reference`` / ``decrypt_reference``; the contender is one
    ``encrypt_many`` / ``decrypt_many`` call per round.

    The two sides are timed in interleaved pairs and the *median* paired
    ratio is reported: under noisy schedulers (CPU quota throttling) the
    two one-sided bests can land in different throttle regimes, while a
    paired ratio sees the same machine state on both sides.
    """
    from repro.crypto.encryption import (
        decrypt_many,
        decrypt_reference,
        encrypt_many,
        encrypt_reference,
        generate_key,
    )

    key_rng = SeededRandomSource(seed + 5)
    key = generate_key(key_rng)
    payload_rng = SeededRandomSource(seed + 6)
    rounds = [
        [payload_rng.bytes(block_size) for _ in range(batch)]
        for _ in range(batches)
    ]
    block_ops = batches * batch

    def reference() -> float:
        rng = SeededRandomSource(seed + 7)
        started = time.perf_counter()
        for blocks in rounds:
            ciphertexts = [
                encrypt_reference(key, block, rng) for block in blocks
            ]
            for ciphertext in ciphertexts:
                decrypt_reference(key, ciphertext)
        return time.perf_counter() - started

    def bulk() -> float:
        rng = SeededRandomSource(seed + 7)
        started = time.perf_counter()
        for blocks in rounds:
            decrypt_many(key, encrypt_many(key, blocks, rng))
        return time.perf_counter() - started

    reference()  # warm-up
    bulk()
    reference_times: list[float] = []
    bulk_times: list[float] = []
    ratios: list[float] = []
    for _ in range(repeats):
        reference_s = reference()
        bulk_s = bulk()
        reference_times.append(reference_s)
        bulk_times.append(bulk_s)
        ratios.append(reference_s / bulk_s)
    ratios.sort()
    return {
        "block_size": block_size,
        "batch": batch,
        "batches": batches,
        "per_block_blocks_per_sec": block_ops / min(reference_times),
        "bulk_blocks_per_sec": block_ops / min(bulk_times),
        "speedup": ratios[len(ratios) // 2],
    }


def crypto_invariance(
    *,
    n: int = 256,
    queries: int = 200,
    seed: int = 0x2B5,
) -> dict:
    """Witness that bulk crypto + slab storage change nothing observable.

    One DP-RAM runs the optimized stack (bulk encryption over a
    :class:`~repro.storage.backends.SlabBackend`), the other the
    per-block baseline (:class:`_ReferenceCipherDPRAM` over the list
    backend).
    Under a shared seed, answers, the ``(d_j, o_j)`` transcript pairs,
    the read/write counters, the analytic ε bound and every stored
    ciphertext byte must be identical.
    """
    from repro.storage.backends import SlabBackend

    blocks = integer_database(n)
    workload = SeededRandomSource(seed + 1)
    plan = [
        (workload.randbelow(n), workload.random() < 0.25)
        for _ in range(queries)
    ]
    witnesses = {}
    for label, scheme_type, backend_factory in (
        ("per_block", _ReferenceCipherDPRAM, None),
        ("bulk_slab", DPRAM, SlabBackend),
    ):
        scheme = scheme_type(
            blocks,
            rng=SeededRandomSource(seed),
            backend_factory=backend_factory,
        )
        answers = []
        for index, write in plan:
            if write:
                scheme.write(index, bytes(scheme.block_size))
                answers.append(None)
            else:
                answers.append(scheme.read(index))
        witnesses[label] = {
            "answers": answers,
            "pairs": scheme.transcript_pairs,
            "reads": scheme.server.reads,
            "writes": scheme.server.writes,
            "epsilon": scheme.params.epsilon_bound,
            "storage": [
                scheme.server.peek(slot) for slot in range(n)
            ],
        }
    per_block, bulk_slab = witnesses["per_block"], witnesses["bulk_slab"]
    return {
        "n": n,
        "queries": queries,
        "identical_answers": per_block["answers"] == bulk_slab["answers"],
        "identical_transcripts": per_block["pairs"] == bulk_slab["pairs"],
        "identical_counters": (
            per_block["reads"] == bulk_slab["reads"]
            and per_block["writes"] == bulk_slab["writes"]
        ),
        "identical_storage_bytes": (
            per_block["storage"] == bulk_slab["storage"]
        ),
        "epsilon": {k: witnesses[k]["epsilon"] for k in witnesses},
    }


def hotpath_comparison(
    *,
    n: int = DEFAULT_N,
    pad_size: int = DEFAULT_PAD,
    alpha: float = DEFAULT_ALPHA,
    queries: int = 1000,
    repeats: int = 5,
    seed: int = 0x407,
) -> dict:
    """The full hot-path bundle the JSON artifact and CI gate consume."""
    return {
        "read_path": read_path_comparison(
            n=n, pad_size=pad_size, alpha=alpha,
            queries=queries, repeats=repeats, seed=seed,
        ),
        "query": query_comparison(
            n=n, pad_size=pad_size, alpha=alpha,
            queries=max(1, queries * 3 // 5), repeats=repeats, seed=seed,
        ),
        "invariance": mode_invariance(),
        "tracing": tracer_overhead(
            n=n, pad_size=pad_size, alpha=alpha,
            queries=max(1, queries * 3 // 5), repeats=repeats, seed=seed,
        ),
        "crypto": {
            "comparison": crypto_comparison(repeats=repeats + 2),
            "invariance": crypto_invariance(),
        },
    }
