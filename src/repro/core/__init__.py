"""The paper's constructions.

* :class:`~repro.core.dp_ir.DPIR` — Algorithm 1: ε-DP information retrieval
  with error probability α and pad size ``K = ⌈(1−α)n/(e^ε−1)⌉`` (Thm 5.1).
* :class:`~repro.core.strawman.StrawmanIR` — the tempting-but-insecure
  Section 4 scheme (δ → (n−1)/n), kept as a cautionary baseline.
* :class:`~repro.core.dp_ram.DPRAM` — Algorithms 2–3: errorless DP-RAM with
  a probability-``p`` client stash, O(1) blocks per query and ε = O(log n)
  (Thm 6.1).
* :class:`~repro.core.dp_ram.ReadOnlyDPRAM` — the encryption-free,
  retrieval-only variant discussed after Thm 6.1: ``DPRAM`` without the
  upload (a subclass, not a second implementation).
* :class:`~repro.core.bucket_ram.BucketDPRAM` — the Appendix E
  generalization to overlapping buckets, the engine under DP-KVS.
* :class:`~repro.core.dp_kvs.DPKVS` — Section 7: DP key-value storage via
  oblivious two-choice hashing with tree-shared buckets (Thm 7.5).
* :class:`~repro.core.multi_server.MultiServerDPIR` — the Appendix C
  multi-server DP-IR setting.
"""

from repro.core.batch_ir import BatchDPIR
from repro.core.bucket_ram import BucketDPRAM
from repro.core.dp_ir import DPIR
from repro.core.dp_kvs import DPKVS
from repro.core.dp_ram import DPRAM, ReadOnlyDPRAM
from repro.core.multi_server import MultiServerDPIR
from repro.core.sharded_ir import ShardedDPIR
from repro.core.params import (
    DPIRParams,
    DPKVSParams,
    DPRAMParams,
    default_phi,
    dp_ir_exact_epsilon,
    dp_ir_pad_size,
)
from repro.core.strawman import StrawmanIR

__all__ = [
    "BatchDPIR",
    "BucketDPRAM",
    "DPIR",
    "DPIRParams",
    "DPKVS",
    "DPKVSParams",
    "DPRAM",
    "DPRAMParams",
    "MultiServerDPIR",
    "ReadOnlyDPRAM",
    "ShardedDPIR",
    "StrawmanIR",
    "default_phi",
    "dp_ir_exact_epsilon",
    "dp_ir_pad_size",
]
