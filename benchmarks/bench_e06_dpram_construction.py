"""E6 — Theorem 6.1 + Lemma D.1: DP-RAM O(1) bandwidth, bounded stash."""

import math

from conftest import write_report

from repro.analysis.tails import stash_overflow_bound
from repro.core.dp_ram import DPRAM, ReadOnlyDPRAM
from repro.simulation.experiments import experiment_e06_dpram_construction
from repro.storage.blocks import encode_int, integer_database


def test_e06_table():
    table = experiment_e06_dpram_construction(
        sizes=(256, 1024, 4096, 16384), queries=600
    )
    write_report(table)
    print("\n" + table.to_text())
    for row in table.rows:
        _, phi, blocks, expected, stash_peak, cap, eps_bound, ratio, mismatches = row
        # At most 3, flat in n, expected 2 + O(p): 600 queries stay
        # within 0.1 of the closed form at every size.
        assert 2.0 <= blocks <= 3.0
        assert abs(blocks - expected) < 0.1
        assert stash_peak <= cap + 5
        assert mismatches == 0
        assert ratio < 16  # eps bound = O(log n)


def test_e06_stash_probability_ablation(rng):
    # Larger p buys nothing in bandwidth (3 at most, 2 + O(p) expected) but
    # costs client memory.
    n = 2048
    peaks = []
    for p in (0.005, 0.02, 0.08):
        ram = DPRAM(integer_database(n), stash_probability=p,
                    rng=rng.spawn(f"p{p}"))
        source = rng.spawn(f"load{p}")
        for _ in range(300):
            ram.read(source.randbelow(n))
        peaks.append(ram.stash_peak)
    assert peaks == sorted(peaks)


def test_e06_lemma_d1_bound_holds_empirically(rng):
    # Pr[stash > (1+slack)c] across many fresh schemes vs the Chernoff cap.
    n, p, slack = 512, 0.05, 1.0
    expected = p * n  # c = 25.6
    cap = (1 + slack) * expected
    trials = 60
    overflows = 0
    for trial in range(trials):
        ram = DPRAM(integer_database(n), stash_probability=p,
                    rng=rng.spawn(f"t{trial}"))
        if ram.stash_size > cap:
            overflows += 1
    bound = stash_overflow_bound(expected, slack)
    assert overflows / trials <= max(bound * 5, 0.05)


def test_e06_read_throughput(benchmark, rng):
    n = 16384
    ram = DPRAM(integer_database(n), rng=rng.spawn("scheme"))
    source = rng.spawn("queries")
    benchmark(lambda: ram.read(source.randbelow(n)))


def test_e06_write_throughput(benchmark, rng):
    n = 16384
    ram = DPRAM(integer_database(n), rng=rng.spawn("scheme"))
    source = rng.spawn("queries")
    payload = encode_int(7)
    benchmark(lambda: ram.write(source.randbelow(n), payload))


def test_e06_read_only_variant_throughput(benchmark, rng):
    n = 16384
    ram = ReadOnlyDPRAM(integer_database(n), rng=rng.spawn("scheme"))
    source = rng.spawn("queries")
    benchmark(lambda: ram.read(source.randbelow(n)))
