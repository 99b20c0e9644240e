"""Experiment harness: run schemes over traces, collect metrics, report.

* :mod:`repro.simulation.metrics` — the per-run measurement bundle,
  latency tails and :class:`CostMeter`, the one rule pricing server
  work as simulated time.
* :mod:`repro.simulation.harness` — :func:`run_trace`, the one driver
  of IR/RAM/KVS schemes over workload traces (reads batched into
  rounds, reference-model correctness checking, per-round latency).
* :mod:`repro.simulation.reporting` — ascii/markdown tables for the
  experiment outputs.
* :mod:`repro.simulation.experiments` — the E1..E14 experiment drivers,
  one per claim of the paper (``python -m repro experiments``).
"""

from repro.simulation.harness import run_trace
from repro.simulation.metrics import CostMeter, LatencySummary, RunMetrics, percentile
from repro.simulation.reporting import (
    ExperimentTable,
    format_table,
    latency_rows,
)

__all__ = [
    "CostMeter",
    "ExperimentTable",
    "LatencySummary",
    "RunMetrics",
    "format_table",
    "latency_rows",
    "percentile",
    "run_trace",
]
