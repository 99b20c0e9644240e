"""Pinned trace runs: cluster run records and ``run_trace`` results.

Two tables hold the trace driver to its behaviour bit for bit:

* ``CLUSTER_PINS`` — the SHA-256 of a seeded cluster run's record
  (``RunMetrics.to_dict()`` less its wall time, JSON with sorted keys)
  for memory-backed ``cluster_dp_ir`` and ``cluster_dp_kvs`` priced
  under LAN: read batches of 1, 4 and 8, the serial and parallel
  executors, flaky replicas under per-round fault coins, corrupting
  replicas under per-slot coins, and the leakage monitor.  Which reads
  share a round, which answers are checked and what each round costs all
  move a digest.
* ``TRACE_PINS`` — for every registered scheme at ``n = 64``, seed 7,
  over the in-memory and the ``network`` backend: the run's operation
  and block counts, errors, mismatches and client peak, plus the
  SHA-256 of its per-operation latency stream (empty in memory).

Regenerate both tables (only for an intended behaviour change) with::

    PYTHONPATH=src python tests/integration/test_driver_pins.py
"""

import hashlib
import json

import pytest

import repro
from cluster_run import cluster_run, record
from repro.api import scheme_spec
from repro.crypto.rng import default_rng
from repro.simulation.harness import run_trace
from repro.storage.blocks import integer_database
from repro.workloads import catalogue

CLUSTER_COMMON = dict(shard_count=2, replica_count=2, n=128, requests=48,
                      seed=7)

CLUSTERS = {
    "ir/batch1/serial": ("cluster_dp_ir", dict(batch=1)),
    "ir/batch4/parallel": ("cluster_dp_ir", dict(
        batch=4, executor="parallel")),
    "ir/batch8/flaky-per-round": ("cluster_dp_ir", dict(
        batch=8, failure_rate=(0.0, 0.3), fault_coin_mode="per_round")),
    "ir/batch4/corrupt-per-slot": ("cluster_dp_ir", dict(
        batch=4, corruption_rate=0.05, fault_coin_mode="per_slot")),
    "ir/batch4/monitor": ("cluster_dp_ir", dict(batch=4, monitor=True)),
    "kvs/batch1/serial": ("cluster_dp_kvs", dict(batch=1)),
    "kvs/batch4/parallel": ("cluster_dp_kvs", dict(
        batch=4, executor="parallel")),
    "kvs/batch8/flaky-per-round": ("cluster_dp_kvs", dict(
        batch=8, failure_rate=(0.0, 0.3), fault_coin_mode="per_round")),
}

BACKENDS = ("memory", "network")
TRACE_OPS = 48


def _digest(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()


def _cluster(case: str) -> str:
    scheme, settings = CLUSTERS[case]
    return _digest(record(cluster_run(scheme, **CLUSTER_COMMON, **settings)))


def _trace(name: str, backend: str) -> list:
    rng = default_rng(7)
    kind = scheme_spec(name).kind
    build_kwargs = dict(n=64, rng=rng.spawn("scheme"), backend=backend)
    if kind == "kvs":
        build_kwargs["value_size"] = 16
    scheme = repro.build(name, **build_kwargs)
    if kind == "kvs":
        trace = catalogue.kv_trace("ycsb-a", 64, TRACE_OPS, rng.spawn("trace"),
                                   value_size=16)
        metrics = run_trace(scheme, trace)
    elif kind == "ir" or not scheme.writable:
        trace = catalogue.index_trace("zipf", 64, TRACE_OPS, rng.spawn("trace"))
        metrics = run_trace(scheme, trace, initial=integer_database(64))
    else:
        trace = catalogue.index_trace("readwrite", 64, TRACE_OPS,
                                      rng.spawn("trace"))
        metrics = run_trace(scheme, trace, initial=integer_database(64))
    return [
        metrics.operations, metrics.blocks_downloaded, metrics.blocks_uploaded,
        metrics.errors, metrics.mismatches, metrics.client_peak_blocks,
        len(metrics.latencies_ms), _digest(metrics.latencies_ms),
    ]


TRACES = [
    f"{name}/{backend}"
    for name in repro.available_schemes() for backend in BACKENDS
]

#: config → SHA-256 of the run record's JSON.  They moved when the
#: cluster report became the run record: mapped back onto the old
#: report's keys (requests and completed from ``operations``, the run's
#: ``network`` and ``batch``, ``overlap_speedup`` and ``ops_per_request``
#: from the record's figures, ``percentiles`` from ``latency_ms``,
#: ``deployment``'s fields at the top level), each record hashes to the
#: old pin.
CLUSTER_PINS: dict[str, str] = {
    "ir/batch1/serial": (
        "4f6f162d246229a22eac31e4242cadf93b173ebb2a1ed32218aad639f1623e6e"
    ),
    "ir/batch4/parallel": (
        "bd2e333fb68fa7231a94bcafca347a565bd5ec84dbd6f8ce0ba7fa7469daa9fa"
    ),
    "ir/batch8/flaky-per-round": (
        "98596fb251892f8bd07734614b79da94d5e9dbc60fde30aa401ea4fbba813633"
    ),
    "ir/batch4/corrupt-per-slot": (
        "716fc4e803475f1460dc5de42a49db87c271409634cac4127b7adeaaf6cb23b3"
    ),
    "ir/batch4/monitor": (
        "351456578cee48b9af4a356bca7c92d1702bed2eeb65985c9beb393234247523"
    ),
    "kvs/batch1/serial": (
        "0b345a938520ffc6a40050a6aff9d97c5fe90fa9c6db024ee2904fa9db084b70"
    ),
    "kvs/batch4/parallel": (
        "71aa3513054bf747ac464786e29a82e819b8f31dd055b7e3326080bc1321834b"
    ),
    "kvs/batch8/flaky-per-round": (
        "2129d9bee90c8f34e1a452ab92ebbe9f0b836fdc711b65e2c293b927c5be2110"
    ),
}

#: ``scheme/backend`` → [operations, blocks down, blocks up, errors,
#: mismatches, client peak, latency count, latency digest].  The
#: ``oram_kvs`` rows moved when each ORAM-KVS operation became one Path
#: ORAM access (blocks 1656 → 936 each way, stash peak 8 → 9).
TRACE_PINS: dict[str, list] = {
    "batch_dp_ir/memory": [48, 960, 0, 2, 0, None, 0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'],
    "batch_dp_ir/network": [48, 960, 0, 2, 0, None, 48, '9eeb901c2531fbe41fc490cfc3229a17bcf0a412228cd67d7edb34c085e0b00f'],
    "bucket_dp_ram/memory": [48, 51, 48, 0, 0, 7, 0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'],
    "bucket_dp_ram/network": [48, 51, 48, 0, 0, 7, 48, 'd2b6a706140704892f899bf891d488ec1f132643fe971ae02b953fe97a1e2682'],
    "cluster_batch_dp_ir/memory": [48, 480, 0, 2, 0, None, 0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'],
    "cluster_batch_dp_ir/network": [48, 480, 0, 2, 0, None, 48, '3f43b54e83745e6ae5cbf37ca252a536050f5993c92041d4f927cbea5d9314b5'],
    "cluster_dp_ir/memory": [48, 480, 0, 2, 0, None, 0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'],
    "cluster_dp_ir/network": [48, 480, 0, 2, 0, None, 48, '3f43b54e83745e6ae5cbf37ca252a536050f5993c92041d4f927cbea5d9314b5'],
    "cluster_dp_kvs/memory": [48, 915, 643, 0, 0, None, 0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'],
    "cluster_dp_kvs/network": [48, 915, 643, 0, 0, None, 48, 'cf95de215126016b4d2d51ef1fefa8dd0928f4b7bf8943f7785db9cde037f12a'],
    "dp_ir/memory": [48, 960, 0, 2, 0, None, 0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'],
    "dp_ir/network": [48, 960, 0, 2, 0, None, 48, '9eeb901c2531fbe41fc490cfc3229a17bcf0a412228cd67d7edb34c085e0b00f'],
    "dp_kvs/memory": [48, 506, 383, 0, 0, 62, 0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'],
    "dp_kvs/network": [48, 506, 383, 0, 0, 62, 48, '8c81ecd3c43a7836035a9d2a8d0014eba2bd5d78fbdf6fd3d5a640a97d720cab'],
    "dp_ram/memory": [48, 66, 48, 0, 0, 21, 0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'],
    "dp_ram/network": [48, 66, 48, 0, 0, 21, 48, '1e4dc874364345129c35b4972a67c6adb16e11e558c13606c97447240ae990e4'],
    "linear_pir/memory": [48, 3072, 0, 0, 0, None, 0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'],
    "linear_pir/network": [48, 3072, 0, 0, 0, None, 48, 'b770694aae84463f87cce480345ce0b2ac75e64e2d2881f5e4d044d6cb721a56'],
    "multi_server_dp_ir/memory": [48, 960, 0, 1, 0, None, 0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'],
    "multi_server_dp_ir/network": [48, 960, 0, 1, 0, None, 48, 'b91224936fde1e496b5b99fb712b3c74a617fea858438fe01d80a66d5cbc55a2'],
    "oram_kvs/memory": [48, 936, 936, 0, 0, 9, 0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'],
    "oram_kvs/network": [48, 936, 936, 0, 0, 9, 48, '08b4ca413e4b6d6f6d78b49cc4319e144609c11754ae23ef4873b62314bc2c34'],
    "path_oram/memory": [48, 972, 972, 0, 0, 8, 0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'],
    "path_oram/network": [48, 972, 972, 0, 0, 8, 48, '38fb999f167aea3e9916009989e3237befd4d36fc1e4cedcafdd6d840865bad4'],
    "plaintext_kvs/memory": [48, 12, 36, 0, 0, None, 0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'],
    "plaintext_kvs/network": [48, 12, 36, 0, 0, None, 48, 'eabe6d3e88315b5fce50708f0bbdf1e49248a21aacbf99ff1425df654b045fd1'],
    "plaintext_ram/memory": [48, 27, 21, 0, 0, None, 0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'],
    "plaintext_ram/network": [48, 27, 21, 0, 0, None, 48, '7ec8ff2f4c2a1016c4937880fb64ef40536009137ad58ad1a4a9a754633a393a'],
    "read_only_dp_ram/memory": [48, 64, 0, 0, 0, 21, 0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'],
    "read_only_dp_ram/network": [48, 64, 0, 0, 0, 21, 48, 'badeb7e93a41cfb81712fb14c7bd7df610c296b0fa19201a6adbdb2b6204060c'],
    "recursive_path_oram/memory": [48, 936, 936, 0, 0, 72, 0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'],
    "recursive_path_oram/network": [48, 936, 936, 0, 0, 72, 48, '9725dbd91d24fb8947d773f715f0b74a3472026513a5d604e2da6042ecf9f55e'],
    "sharded_dp_ir/memory": [48, 960, 0, 2, 0, None, 0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'],
    "sharded_dp_ir/network": [48, 960, 0, 2, 0, None, 48, 'f8d65924c288422341d7f295e14bd22889cb55d4112e28a401d03de36415db37'],
    "strawman_ir/memory": [48, 102, 0, 0, 0, None, 0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'],
    "strawman_ir/network": [48, 102, 0, 0, 0, None, 48, '95666a057920662164670ee505c13317c43bcaaaf9a4b2671e84ca42deac3c7e'],
}


@pytest.mark.parametrize("case", list(CLUSTERS))
def test_cluster_report_pinned(case):
    assert _cluster(case) == CLUSTER_PINS[case]


@pytest.mark.parametrize("case", TRACES)
def test_run_trace_pinned(case):
    name, backend = case.split("/")
    assert _trace(name, backend) == TRACE_PINS[case]


def test_pins_cover_every_registered_scheme():
    assert sorted(TRACE_PINS) == sorted(TRACES)


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    print("CLUSTER_PINS: dict[str, str] = {")
    for case in CLUSTERS:
        print(f'    "{case}": (\n        "{_cluster(case)}"\n    ),')
    print("}")
    print()
    print("TRACE_PINS: dict[str, list] = {")
    for case in TRACES:
        print(f'    "{case}": {_trace(*case.split("/"))!r},')
    print("}")
