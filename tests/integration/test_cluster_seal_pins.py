"""Pinned cluster installs: stored bytes, answers and migrations, by digest.

For two fixed seeds × {range, hash} placement × authenticated or
plaintext storage, one :class:`~repro.cluster.scheme.ClusterIR` (4 shard
groups × 2 replicas of ``dp_ir``, n = 96) goes through three stages:
fresh, after ``reshard(8)`` and after ``rebalance()`` (hash placement
has no boundaries to recut, so its third stage pins the refusal).  Each
stage is recorded as three SHA-256 digests:

* ``slots`` — every shard's replica-0 slots, read with
  :meth:`~repro.storage.server.StorageServer.peek`;
* ``answers`` — the answers to a fixed query list (single queries and
  one ``query_many`` round);
* ``counters`` — per-shard draws and queries, and every
  :class:`~repro.cluster.scheme.MigrationReport` field.

How a shard's records are sealed, which coins the install draws and
what a migration moves can then be changed and held to "same bytes,
same answers, same charges" bit for bit.

Regenerate the table (only for an intended behaviour change) with::

    PYTHONPATH=src python tests/integration/test_cluster_seal_pins.py
"""

import dataclasses
import hashlib
import json

import pytest

from repro.cluster.scheme import ClusterIR
from repro.crypto.rng import SeededRandomSource
from repro.storage.blocks import integer_database

SEEDS = (3, 17)
PLACEMENTS = ("range", "hash")
STORAGE = {"auth": True, "plain": False}
STAGES = ("fresh", "reshard8", "rebalance")

N = 96
SINGLE_QUERIES = (0, 5, 47, 48, 95, 5)
BATCH_QUERY = (1, 2, 30, 60, 61, 90, 94, 2)


def _digest(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()


def _hex(block):
    return None if block is None else block.hex()


def _slots(cluster: ClusterIR) -> list[list[str | None]]:
    shards = []
    for group in cluster.groups:
        server = group.replicas[0].servers()[0]
        shards.append(
            [_hex(server.peek(slot)) for slot in range(server.capacity)]
        )
    return shards


def _answers(cluster: ClusterIR) -> list:
    answers = [_hex(cluster.query(index)) for index in SINGLE_QUERIES]
    answers.append([_hex(block) for block in cluster.query_many(BATCH_QUERY)])
    return answers


def _counters(cluster: ClusterIR, migration) -> dict:
    return {
        "draws": [group.draws for group in cluster.groups],
        "queries": cluster.shard_query_counts(),
        "migration": migration,
    }


def _migration(step) -> dict | str:
    try:
        return dataclasses.asdict(step())
    except ValueError as error:
        return f"ValueError: {error}"


def _run(seed: int, placement: str, storage: str) -> dict[str, str]:
    cluster = ClusterIR(
        integer_database(N, 16),
        shard_count=4,
        replica_count=2,
        placement=placement,
        authenticated=STORAGE[storage],
        rng=SeededRandomSource(seed),
    )
    digests: dict[str, str] = {}
    steps = {
        "fresh": lambda: None,
        "reshard8": lambda: _migration(lambda: cluster.reshard(8)),
        "rebalance": lambda: _migration(cluster.rebalance),
    }
    for stage in STAGES:
        migration = steps[stage]()
        digests[f"{stage}/slots"] = _digest(_slots(cluster))
        digests[f"{stage}/answers"] = _digest(_answers(cluster))
        digests[f"{stage}/counters"] = _digest(_counters(cluster, migration))
    return digests


CASES = [
    f"{seed}/{placement}/{storage}"
    for seed in SEEDS for placement in PLACEMENTS for storage in STORAGE
]


def _case(case: str) -> dict[str, str]:
    seed, placement, storage = case.split("/")
    return _run(int(seed), placement, storage)


#: ``seed/placement/storage`` → ``stage/part`` → digest.
#: The migrations' ``counters`` moved when ``MigrationReport`` traded its
#: ``serial_ms`` / ``wall_clock_ms`` for ``wall_operations``; rebuilt
#: under LAN (each figure × the per-op price) they hash to the old pins.
PINS: dict[str, dict[str, str]] = {
    "3/range/auth": {
        "fresh/slots":
            "5d14790acc3b284a2f78eed646017ae1eac34f973f591c101ae1f1271e6d027c",
        "fresh/answers":
            "53a011ebf8ce1ed57739a71b2c4d4c052c0bd055fabefca2a485468a90ac665b",
        "fresh/counters":
            "2919baa76093313e551fd618e5870d6bc33646a2c1628c638dc3bbbcac91815a",
        "reshard8/slots":
            "c3147bec47876b3d69c3ab83053222c1e989431f211f8c7213a457d647d0c5a6",
        "reshard8/answers":
            "1c3c888f7f0cc9a2529b5347f5a3d3602e594021184004b2f93d626c8108534b",
        "reshard8/counters":
            "3543585c08c418d108720940e0be3040ae2f50c9aa9fbb96e70afddaed8734e6",
        "rebalance/slots":
            "0ab4b597c61b7996d63f5e2578b23e05b970a289ebeda1bb703399c48af43ec6",
        "rebalance/answers":
            "1c3c888f7f0cc9a2529b5347f5a3d3602e594021184004b2f93d626c8108534b",
        "rebalance/counters":
            "cce3841a4880413740e5fb405cbe1fe5d83318a55035947fd9b4b31f1ef465b3",
    },
    "3/range/plain": {
        "fresh/slots":
            "9f4b8d78190eac7899d5b6db08e38bb0d8751ff2dbdf84624f02f2b0dedff934",
        "fresh/answers":
            "53a011ebf8ce1ed57739a71b2c4d4c052c0bd055fabefca2a485468a90ac665b",
        "fresh/counters":
            "2919baa76093313e551fd618e5870d6bc33646a2c1628c638dc3bbbcac91815a",
        "reshard8/slots":
            "f1550599b63d11cddb6bd1a322f071dce6a79800c1ac8f7f37f813f4ab6b244a",
        "reshard8/answers":
            "1c3c888f7f0cc9a2529b5347f5a3d3602e594021184004b2f93d626c8108534b",
        "reshard8/counters":
            "3543585c08c418d108720940e0be3040ae2f50c9aa9fbb96e70afddaed8734e6",
        "rebalance/slots":
            "31e5fc71c788910ea0650e2c608e8e98eb41e488943a9bc41a71c537e085248b",
        "rebalance/answers":
            "1c3c888f7f0cc9a2529b5347f5a3d3602e594021184004b2f93d626c8108534b",
        "rebalance/counters":
            "cce3841a4880413740e5fb405cbe1fe5d83318a55035947fd9b4b31f1ef465b3",
    },
    "3/hash/auth": {
        "fresh/slots":
            "e4811dfad78dffe044a1158015384985750966b92bc00ae638bfbf6298047d68",
        "fresh/answers":
            "e165adf98d64d6d3a575e829986539387cb15f2d20f4362093b5f3ab16e13214",
        "fresh/counters":
            "a0f1332bcda8ab331dd0ce527bc6523a777b521a7b83d25ad183a281fd366d1e",
        "reshard8/slots":
            "d11534ec60c858871aaf55b8f92e3c70db5122e36704c0dfeb86d42ac233ec0b",
        "reshard8/answers":
            "f76cf72edf82968ce91f99fdd12d6a0bbaf64dd95e2cb3e8aa0c96647e95daa0",
        "reshard8/counters":
            "8169ca0dd00a8e9c8732f5f0ebb11d3feab8706bcef29baaaa05660c2d8e0ffa",
        "rebalance/slots":
            "d11534ec60c858871aaf55b8f92e3c70db5122e36704c0dfeb86d42ac233ec0b",
        "rebalance/answers":
            "8bd641bb8f892cea1ee5d2b0d41960cbc751665901235f4d61bca5f58dcc5b0e",
        "rebalance/counters":
            "87e95fc58f45796e1ad86642afa82dfdea5288a0e9b4bedcff8e6722dfd5d8ae",
    },
    "3/hash/plain": {
        "fresh/slots":
            "3d12a0dc2ed0069f1ef213cf49a1dbb8351e174e1ba7f15e44238ca1cb86eb04",
        "fresh/answers":
            "e165adf98d64d6d3a575e829986539387cb15f2d20f4362093b5f3ab16e13214",
        "fresh/counters":
            "a0f1332bcda8ab331dd0ce527bc6523a777b521a7b83d25ad183a281fd366d1e",
        "reshard8/slots":
            "2791c309b56befa066eccfa04b2ff4287775cdeb4c93f79ce646208dc26266da",
        "reshard8/answers":
            "f76cf72edf82968ce91f99fdd12d6a0bbaf64dd95e2cb3e8aa0c96647e95daa0",
        "reshard8/counters":
            "8169ca0dd00a8e9c8732f5f0ebb11d3feab8706bcef29baaaa05660c2d8e0ffa",
        "rebalance/slots":
            "2791c309b56befa066eccfa04b2ff4287775cdeb4c93f79ce646208dc26266da",
        "rebalance/answers":
            "8bd641bb8f892cea1ee5d2b0d41960cbc751665901235f4d61bca5f58dcc5b0e",
        "rebalance/counters":
            "87e95fc58f45796e1ad86642afa82dfdea5288a0e9b4bedcff8e6722dfd5d8ae",
    },
    "17/range/auth": {
        "fresh/slots":
            "9ae039ed97d42324ea9b01d09fb014d1994597e93eaddea03ef6358e18f8a2de",
        "fresh/answers":
            "7c1f701c99fce803d76eb7f100420e62bcef0d3f9533018bfa90f0966a07675d",
        "fresh/counters":
            "2919baa76093313e551fd618e5870d6bc33646a2c1628c638dc3bbbcac91815a",
        "reshard8/slots":
            "7f9f9f48718e37f38ebe87ca2fb2d6fc8d4e4f8cf16bbb4f152f84529ea440c4",
        "reshard8/answers":
            "1c3c888f7f0cc9a2529b5347f5a3d3602e594021184004b2f93d626c8108534b",
        "reshard8/counters":
            "bb703349a0af82844caa70e85a53c025bdb3279696fb1aec94720f136ee959b4",
        "rebalance/slots":
            "8f74d8c9bb174d5d642aa01a1875438e5b408b702ce731fb88cd3301dce68f5b",
        "rebalance/answers":
            "9e81d41fe73ed115cc14d7b078f17abb175b7f908fed204d7fd3e0eb5b174a9d",
        "rebalance/counters":
            "4e91140f250edca38e463dced1d3161aa506c72aef93fd19cf9f22cdd43a2627",
    },
    "17/range/plain": {
        "fresh/slots":
            "9f4b8d78190eac7899d5b6db08e38bb0d8751ff2dbdf84624f02f2b0dedff934",
        "fresh/answers":
            "7c1f701c99fce803d76eb7f100420e62bcef0d3f9533018bfa90f0966a07675d",
        "fresh/counters":
            "2919baa76093313e551fd618e5870d6bc33646a2c1628c638dc3bbbcac91815a",
        "reshard8/slots":
            "f1550599b63d11cddb6bd1a322f071dce6a79800c1ac8f7f37f813f4ab6b244a",
        "reshard8/answers":
            "1c3c888f7f0cc9a2529b5347f5a3d3602e594021184004b2f93d626c8108534b",
        "reshard8/counters":
            "bb703349a0af82844caa70e85a53c025bdb3279696fb1aec94720f136ee959b4",
        "rebalance/slots":
            "31e5fc71c788910ea0650e2c608e8e98eb41e488943a9bc41a71c537e085248b",
        "rebalance/answers":
            "9e81d41fe73ed115cc14d7b078f17abb175b7f908fed204d7fd3e0eb5b174a9d",
        "rebalance/counters":
            "4e91140f250edca38e463dced1d3161aa506c72aef93fd19cf9f22cdd43a2627",
    },
    "17/hash/auth": {
        "fresh/slots":
            "1e79b45a165a13e2b96a58d09ba9b645af31185027352e85f1029ef6cfff539b",
        "fresh/answers":
            "adfc9bcd00ca394f52028fed6eec764b5c836d2b7f227a2506bc1b1ecd8c2013",
        "fresh/counters":
            "a0f1332bcda8ab331dd0ce527bc6523a777b521a7b83d25ad183a281fd366d1e",
        "reshard8/slots":
            "eb1b401e6e371a82f156a60b7615a9a6d1ce19c60245e3b7b5af202e1d8fc519",
        "reshard8/answers":
            "1c3c888f7f0cc9a2529b5347f5a3d3602e594021184004b2f93d626c8108534b",
        "reshard8/counters":
            "8f7e45aa41a4426b2d4ef7ecdb6927f44707d7a3eb21e3724215fcbbef07e657",
        "rebalance/slots":
            "eb1b401e6e371a82f156a60b7615a9a6d1ce19c60245e3b7b5af202e1d8fc519",
        "rebalance/answers":
            "53a011ebf8ce1ed57739a71b2c4d4c052c0bd055fabefca2a485468a90ac665b",
        "rebalance/counters":
            "87e95fc58f45796e1ad86642afa82dfdea5288a0e9b4bedcff8e6722dfd5d8ae",
    },
    "17/hash/plain": {
        "fresh/slots":
            "3d12a0dc2ed0069f1ef213cf49a1dbb8351e174e1ba7f15e44238ca1cb86eb04",
        "fresh/answers":
            "adfc9bcd00ca394f52028fed6eec764b5c836d2b7f227a2506bc1b1ecd8c2013",
        "fresh/counters":
            "a0f1332bcda8ab331dd0ce527bc6523a777b521a7b83d25ad183a281fd366d1e",
        "reshard8/slots":
            "2791c309b56befa066eccfa04b2ff4287775cdeb4c93f79ce646208dc26266da",
        "reshard8/answers":
            "1c3c888f7f0cc9a2529b5347f5a3d3602e594021184004b2f93d626c8108534b",
        "reshard8/counters":
            "8f7e45aa41a4426b2d4ef7ecdb6927f44707d7a3eb21e3724215fcbbef07e657",
        "rebalance/slots":
            "2791c309b56befa066eccfa04b2ff4287775cdeb4c93f79ce646208dc26266da",
        "rebalance/answers":
            "53a011ebf8ce1ed57739a71b2c4d4c052c0bd055fabefca2a485468a90ac665b",
        "rebalance/counters":
            "87e95fc58f45796e1ad86642afa82dfdea5288a0e9b4bedcff8e6722dfd5d8ae",
    },
}


@pytest.mark.parametrize("case", CASES)
def test_cluster_install_matches_its_pin(case):
    assert _case(case) == PINS[case]


# -- beyond the pins: what every install must do ---------------------------
#
# Seal each shard once for all its replicas, and give every replica of a
# shard replica 0's stored bytes.


def _count_seals(monkeypatch) -> list[int]:
    """Record the batch size of every ``encrypt_authenticated_many`` call
    the cluster makes."""
    import repro.cluster.scheme as scheme_module

    sizes: list[int] = []
    seal = scheme_module.encrypt_authenticated_many

    def counting(key, plaintexts, rng):
        sizes.append(len(plaintexts))
        return seal(key, plaintexts, rng)

    monkeypatch.setattr(
        scheme_module, "encrypt_authenticated_many", counting
    )
    return sizes


def _assert_replicas_store_replica_0s_bytes(cluster: ClusterIR) -> None:
    for group in cluster.groups:
        servers = [replica.servers()[0] for replica in group.replicas]
        first = [servers[0].peek(slot) for slot in range(servers[0].capacity)]
        for server in servers[1:]:
            assert [
                server.peek(slot) for slot in range(server.capacity)
            ] == first


@pytest.mark.parametrize("placement", PLACEMENTS)
def test_each_install_seals_every_shard_once_for_all_replicas(
    monkeypatch, placement
):
    seals = _count_seals(monkeypatch)
    cluster = ClusterIR(
        integer_database(N, 16),
        shard_count=4,
        replica_count=3,
        placement=placement,
        rng=SeededRandomSource(5),
    )

    def assert_sealed_once_per_shard():
        assert len(seals) == cluster.shard_count
        assert sum(seals) == N
        _assert_replicas_store_replica_0s_bytes(cluster)
        seals.clear()

    assert_sealed_once_per_shard()
    cluster.reshard(8)
    assert_sealed_once_per_shard()
    if placement == "range":
        _answers(cluster)  # load for the recut to even out
        cluster.rebalance()
        assert_sealed_once_per_shard()


def test_plaintext_storage_seals_nothing(monkeypatch):
    seals = _count_seals(monkeypatch)
    cluster = ClusterIR(
        integer_database(N, 16), shard_count=4, replica_count=2,
        authenticated=False, rng=SeededRandomSource(5),
    )
    cluster.reshard(8)
    assert seals == []
    _assert_replicas_store_replica_0s_bytes(cluster)


if __name__ == "__main__":
    for case in CASES:
        print(f'    "{case}": {{')
        for part, digest in _case(case).items():
            print(f'        "{part}":\n            "{digest}",')
        print("    },")
