"""E10 — Theorem 7.5: DP-KVS O(log log n) overhead, O(n) server storage."""

from conftest import write_report

from repro.core.dp_kvs import DPKVS
from repro.simulation.experiments import experiment_e10_dpkvs


def test_e10_table():
    table = experiment_e10_dpkvs(sizes=(256, 1024, 4096, 16384),
                                 operations=250)
    write_report(table)
    print("\n" + table.to_text())
    for row in table.rows:
        (n, path_len, measured, expected, at_most,
         nodes_per_n, padded_per_n, mism) = row
        assert at_most == 6 * path_len        # the declared worst case
        assert 4 * path_len < measured <= at_most
        assert measured <= expected + 0.5     # 250 ops around the estimate
        assert nodes_per_n < 3                # tree sharing keeps O(n)
        assert padded_per_n > nodes_per_n     # the padded-bins blow-up
        assert mism == 0
    # Overhead grows like log log n: doubling n four times moves the cost
    # by at most one path-node step.
    costs = [row[2] for row in table.rows]
    assert costs[-1] - costs[0] <= 12


def test_e10_storage_ablation_padded_vs_tree():
    from repro.crypto.prf import PRF
    from repro.hashing.padded import PaddedTwoChoiceStore
    from repro.hashing.tree_buckets import TreeBucketLayout

    for n in (2**10, 2**14, 2**18):
        tree_nodes = TreeBucketLayout.for_capacity(n).node_count
        padded_slots = PaddedTwoChoiceStore(n, PRF(b"ablate")).server_slots
        assert padded_slots / tree_nodes > 3  # the gap the paper closes


def test_e10_get_throughput(benchmark, rng):
    store = DPKVS(4096, rng=rng.spawn("store"))
    for i in range(64):
        store.put(f"key-{i}".encode(), f"value-{i}".encode())
    source = rng.spawn("queries")
    benchmark(lambda: store.get(f"key-{source.randbelow(64)}".encode()))


def test_e10_put_throughput(benchmark, rng):
    store = DPKVS(4096, rng=rng.spawn("store"))
    for i in range(64):
        store.put(f"key-{i}".encode(), b"seed")
    source = rng.spawn("queries")
    benchmark(
        lambda: store.put(f"key-{source.randbelow(64)}".encode(), b"fresh")
    )
