"""The overhead gap: DP-RAM vs Path ORAM as the database grows.

The paper's core trade: obliviousness costs Ω(log n) per query (and Path
ORAM pays up to 2·Z·(log n + 1), about 2·Z·(log n − 1) once it leaves out
the nodes consecutive paths share), while ε = Θ(log n) differential
privacy costs a flat 3 blocks.  This example sweeps n and prints the
widening factor, plus client-memory figures for both schemes.

Run with::

    python examples/oram_comparison.py
"""

from repro import DPRAM, PathORAM, SeededRandomSource
from repro.simulation.harness import run_trace
from repro.simulation.reporting import format_table
from repro.storage.blocks import integer_database
from repro.workloads.generators import read_write_trace

QUERIES = 200

rng = SeededRandomSource(5)
rows = []
for exponent in (8, 10, 12, 14):
    n = 2**exponent
    database = integer_database(n)
    trace = read_write_trace(n, QUERIES, rng.spawn(f"trace-{n}"),
                             write_fraction=0.3)

    dpram = DPRAM(database, rng=rng.spawn(f"dpram-{n}"))
    oram = PathORAM(database, rng=rng.spawn(f"oram-{n}"))

    dpram_metrics = run_trace(dpram, trace, initial=database)
    oram_metrics = run_trace(oram, trace, initial=database)
    assert dpram_metrics.mismatches == 0
    assert oram_metrics.mismatches == 0

    rows.append([
        f"2^{exponent}",
        dpram_metrics.blocks_per_operation,
        round(oram_metrics.blocks_per_operation, 1),
        round(oram_metrics.blocks_per_operation
              / dpram_metrics.blocks_per_operation, 1),
        dpram.stash_peak,
        oram.stash_peak,
        round(dpram.params.epsilon_bound, 1),
    ])

print(format_table(
    ["n", "DP-RAM blk/op", "ORAM blk/op", "factor",
     "DP-RAM stash", "ORAM stash", "DP-RAM eps bound"],
    rows,
    title=f"{QUERIES} mixed reads/writes per scheme",
))
print()
print("DP-RAM's column never moves: 1 download + 1 download + 1 upload,")
print("independent of n (Theorem 6.1). Path ORAM's grows with log n, so")
print("the factor keeps widening — the price of hiding *everything*")
print("rather than each individual query (epsilon = Theta(log n)).")
