"""Scenario: a private key-value cache under YCSB-style load.

Runs DP-KVS (Section 7) against the ORAM-backed oblivious KVS and the
plaintext store on the three classic YCSB mixes, reporting block overhead,
client memory and correctness.  The point of Theorem 7.5 in one table:
DP-KVS pays Θ(log log n) where the ORAM route pays Θ(log n).

Run with::

    python examples/kv_store_workload.py
"""

import repro
from repro import SeededRandomSource
from repro.simulation.harness import run_trace
from repro.simulation.reporting import format_table
from repro.workloads.kv_traces import ycsb_trace

CAPACITY = 2048
KEYS = 256
OPERATIONS = 300

rng = SeededRandomSource(42)

rows = []
for profile in ("A", "B", "C"):
    trace = ycsb_trace(KEYS, OPERATIONS, rng.spawn(f"trace-{profile}"),
                       profile=profile)
    # Every store comes out of the same registry-driven factory the CLI
    # and conformance tests use (repro.available_schemes("kvs")).
    for name, store in (
        ("plaintext", repro.build("plaintext_kvs", n=CAPACITY)),
        ("DP-KVS", repro.build("dp_kvs", n=CAPACITY,
                               rng=rng.spawn(f"dpkvs-{profile}"))),
        ("ORAM-KVS", repro.build("oram_kvs", n=CAPACITY,
                                 rng=rng.spawn(f"okvs-{profile}"))),
    ):
        metrics = run_trace(store, trace)
        client = metrics.client_peak_blocks
        rows.append([
            f"YCSB-{profile}", name,
            round(metrics.blocks_per_operation, 1),
            client if client is not None else "-",
            metrics.mismatches,
        ])

print(format_table(
    ["workload", "scheme", "blocks/op", "client peak blocks", "mismatches"],
    rows,
    title=f"{OPERATIONS} ops over {KEYS} keys (capacity {CAPACITY})",
))

store = repro.build("dp_kvs", n=CAPACITY, rng=rng.spawn("shape"))
shape = store.params.shape
print()
print(f"DP-KVS geometry at n={CAPACITY}: {shape.tree_count} trees, "
      f"{shape.leaves_per_tree} leaves each, path length "
      f"{shape.path_length} -> {store.blocks_per_operation()} node blocks "
      f"per op; super-root budget phi = {store.params.phi}.")
print("ORAM-KVS moves 2*Z*(log n + 1) bucket blocks per op, each bucket "
      "sized for the one-choice max load Theta(log n / log log n).")
