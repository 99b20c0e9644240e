"""E11 — the headline gap: DP-RAM/DP-KVS vs Path ORAM/ORAM-KVS."""

from conftest import write_report

from repro.baselines.path_oram import PathORAM
from repro.simulation.experiments import (
    experiment_e11_vs_oram,
    experiment_e11b_kvs_vs_oram,
)
from repro.storage.blocks import integer_database


def test_e11_ram_table():
    table = experiment_e11_vs_oram(sizes=(256, 1024, 4096), queries=300)
    write_report(table)
    print("\n" + table.to_text())
    factors = [row[-1] for row in table.rows]
    # The factor grows with n (Theta(log n) vs O(1)) and is large already.
    assert factors == sorted(factors)
    assert factors[0] > 10
    dpram = [row[2] for row in table.rows]
    assert max(dpram) - min(dpram) < 0.5   # flat in n
    for row in table.rows:
        assert row[1] == 1.0   # plaintext baseline
        assert 2.0 <= row[2] <= 3.0   # DP-RAM: at most 3, 2 + O(p) expected


def test_e11b_kvs_table():
    table = experiment_e11b_kvs_vs_oram(sizes=(256, 1024), operations=150)
    write_report(table)
    print("\n" + table.to_text())
    factors = [row[-1] for row in table.rows]
    assert factors == sorted(factors)
    assert all(factor > 2 for factor in factors)


def test_e11_path_oram_throughput(benchmark, rng):
    n = 4096
    oram = PathORAM(integer_database(n), rng=rng.spawn("oram"))
    source = rng.spawn("queries")
    benchmark(lambda: oram.read(source.randbelow(n)))
