"""Experiment harness: run schemes over traces, collect metrics, report.

* :mod:`repro.simulation.metrics` — the per-run measurement bundle.
* :mod:`repro.simulation.harness` — drive RAM/IR/KVS schemes over
  workload traces with reference-model correctness checking.
* :mod:`repro.simulation.reporting` — ascii/markdown tables for the
  experiment outputs.
* :mod:`repro.simulation.experiments` — the E1..E14 experiment drivers,
  one per claim of the paper (``python -m repro experiments``).
"""

from repro.simulation.harness import (
    run_ir_trace,
    run_kv_trace,
    run_ram_trace,
    run_trace,
    simulated_network_ms,
)
from repro.simulation.metrics import LatencySummary, RunMetrics, percentile
from repro.simulation.reporting import (
    ExperimentTable,
    format_table,
    latency_rows,
)

__all__ = [
    "ExperimentTable",
    "LatencySummary",
    "RunMetrics",
    "format_table",
    "latency_rows",
    "percentile",
    "run_ir_trace",
    "run_kv_trace",
    "run_ram_trace",
    "run_trace",
    "simulated_network_ms",
]
