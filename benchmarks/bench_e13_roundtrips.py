"""E13 — [50] comparison: recursive-ORAM roundtrips vs DP-RAM's two."""

from conftest import write_report

from repro.baselines.recursive_oram import RecursivePathORAM
from repro.simulation.experiments import experiment_e13_roundtrips
from repro.storage.blocks import integer_database


def test_e13_table():
    table = experiment_e13_roundtrips(sizes=(256, 1024, 4096), queries=60)
    write_report(table)
    print("\n" + table.to_text())
    roundtrips = [row[2] for row in table.rows]
    # Recursion depth grows with n while DP-RAM stays at 2.
    assert roundtrips == sorted(roundtrips)
    assert roundtrips[-1] > 2
    for row in table.rows:
        assert row[4] == 2          # DP-RAM roundtrips
        assert 2.0 <= row[6] <= 3.0  # DP-RAM blocks/op: <= 3, 2 + O(p) expected
        assert row[-1] == 0         # no mismatches anywhere


def test_e13_client_map_shrinks_with_depth(rng):
    oram = RecursivePathORAM(integer_database(4096), positions_per_block=8,
                             client_map_limit=32, rng=rng.spawn("o"))
    assert oram.client_position_entries <= 32
    assert oram.levels >= 3


def test_e13_recursive_access_throughput(benchmark, rng):
    n = 1024
    oram = RecursivePathORAM(integer_database(n), rng=rng.spawn("oram"))
    source = rng.spawn("queries")
    benchmark(lambda: oram.read(source.randbelow(n)))
