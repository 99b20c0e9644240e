"""Quickstart: differentially private storage in five minutes.

Builds each of the paper's three primitives, performs a few operations,
and prints what the adversary pays for / learns.  Run with::

    python examples/quickstart.py
"""

import math

import repro
from repro import SeededRandomSource
from repro.storage.blocks import encode_int

rng = SeededRandomSource(2024)


def dp_ram_demo() -> None:
    print("== DP-RAM (Theorem 6.1): errorless, 3 blocks per query ==")
    n = 1024
    ram = repro.build("dp_ram", n=n, rng=rng.spawn("ram"))
    value = ram.read(7)
    print(f"read(7)  -> record {int.from_bytes(value[:8], 'big')}")
    ram.write(7, encode_int(70_707))
    print(f"write(7) -> done; read back: "
          f"{int.from_bytes(ram.read(7)[:8], 'big')}")
    ram.flush()  # the last upload was waiting to ride in a next request
    print(f"server blocks moved per query: "
          f"{ram.server.operations / ram.query_count:.1f}")
    print(f"client stash: {ram.stash_size} records "
          f"(expected ~{ram.params.expected_stash:.0f})")
    print(f"analytic privacy budget: eps <= {ram.params.epsilon_bound:.1f} "
          f"(= {ram.params.epsilon_bound / math.log(n):.1f} * ln n)\n")


def dp_ir_demo() -> None:
    print("== DP-IR (Theorem 5.1): stateless, errs with probability alpha ==")
    n, alpha = 1024, 0.05
    ir = repro.build("dp_ir", n=n, epsilon=math.log(n), alpha=alpha,
                     rng=rng.spawn("ir"))
    print(f"target eps = ln(n) = {math.log(n):.2f}; "
          f"achieved exact eps = {ir.epsilon:.2f}")
    print(f"pad size K = {ir.pad_size} blocks per query "
          f"(vs n = {n} for PIR)")
    answers = [ir.query(3) for _ in range(200)]
    failures = sum(1 for a in answers if a is None)
    print(f"200 queries: {failures} erred "
          f"(alpha = {alpha}; errors are data-independent)\n")


def dp_kvs_demo() -> None:
    print("== DP-KVS (Theorem 7.5): large key universe, O(log log n) cost ==")
    store = repro.build("dp_kvs", n=1024, rng=rng.spawn("kvs"))
    store.put(b"alice", b"ciphertext-a")
    store.put(b"bob", b"ciphertext-b")
    # get returns the exact bytes that were put — no padding to strip.
    print(f"get(alice)   -> {store.get(b'alice')!r}")
    print(f"get(missing) -> {store.get(b'carol')}  (the paper's ⊥)")
    shape = store.params.shape
    print(f"tree layout: {shape.tree_count} trees x "
          f"{shape.leaves_per_tree} leaves, depth {shape.depth}")
    print(f"node blocks per operation: {store.blocks_per_operation()} "
          f"(= 6 x path length {shape.path_length})")
    print(f"server nodes: {store.server_node_count} "
          f"(~{store.server_node_count / 1024:.2f} n)\n")


if __name__ == "__main__":
    dp_ram_demo()
    dp_ir_demo()
    dp_kvs_demo()
    print("Done. See examples/oram_comparison.py for the overhead gap and")
    print("examples/privacy_audit.py for the empirical privacy measurements.")
