"""Cluster deployment: shard groups, replica failover, online reshard.

The ROADMAP north star is serving millions of users; this example walks
the deployment layer that gets the paper's schemes there.  It builds a
4-shard x 2-replica cluster of DP-IR instances, kills one replica per
group, shows every read failing over (correct answers, measured
overhead), then reshards the cluster online from 4 to 8 groups and
proves retrieval is preserved.  Run with::

    python examples/cluster_deployment.py
"""

import repro
from repro.analysis.dp_ir_exact import dpir_epsilon
from repro.cluster import ClusterIR
from repro.storage.blocks import integer_database

N = 512
PAD = 32
SHARDS = 4
REPLICAS = 2
SEED = 2026


def main() -> None:
    print(f"== Deploying DP-IR as {SHARDS} shard groups x {REPLICAS} "
          f"replicas (n={N}, global pad K={PAD}) ==\n")

    blocks = integer_database(N)
    ir = ClusterIR(
        blocks,
        shard_count=SHARDS,
        replica_count=REPLICAS,
        pad_size=PAD,
        alpha=0.02,
        failure_rate=(1.0, 0.0),    # replica 0 of every group is down
        rng=repro.SeededRandomSource(SEED),
    )
    print(f"per-server storage: {ir.per_server_storage_blocks()} blocks "
          f"(= n/D = {N // SHARDS})")
    print(f"per-query epsilon:  {ir.epsilon:.4f} "
          f"(single-server exact budget: "
          f"{dpir_epsilon(N, PAD, 0.02):.4f})\n")

    answered = 0
    for i in range(N):
        answer = ir.query(i)
        if answer is not None:
            assert answer == blocks[i]
            answered += 1
    counters = ir.fault_counters()
    print(f"read every record once with replica 0 dead everywhere:")
    print(f"  answered correctly : {answered}/{N} "
          f"(rest were alpha-error events)")
    print(f"  failover reads     : {counters['failovers']}")
    print(f"  shard loads        : {ir.shard_loads()} "
          f"(Jain {ir.load_balance_index():.3f})")
    report = ir.ledger.report()
    print(f"  budget so far      : worst shard eps "
          f"{report.worst_shard_epsilon:.1f} over {report.queries} queries "
          f"(colluding bound {report.colluding_epsilon:.1f})\n")

    print(f"resharding online: {SHARDS} -> {2 * SHARDS} groups ...")
    migration = ir.reshard(2 * SHARDS)
    print(f"  moved {migration.moved_records} records at a cost of "
          f"{migration.migration_operations} server operations")
    print(f"  per-server storage now {ir.per_server_storage_blocks()} "
          f"blocks, per-query epsilon still {ir.epsilon:.4f}\n")

    spot_checks = [0, N // 3, N - 1]
    for i in spot_checks:
        answer = None
        while answer is None:
            answer = ir.query(i)
        assert answer == blocks[i]
    print(f"retrieval preserved after reshard (spot-checked "
          f"{spot_checks}; the ledger opened a fresh epoch for the new "
          "shard set)")
    print("\nDone.")


if __name__ == "__main__":
    main()
