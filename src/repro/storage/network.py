"""Network cost model: turn block counts into simulated response times.

The paper's motivation is operational — "the degradation in response time
and the exorbitant increase in resource costs ... prevent their usage" —
so the experiments need a way to express the block/roundtrip counts the
schemes produce as wall-clock response times under a parameterized link.

The model is deliberately simple and standard::

    time = roundtrips · rtt + total_bytes / bandwidth

Schemes differ in both factors: DP-RAM moves at most 3 blocks (2 + O(p)
expected) in 1 roundtrip — an operation's upload rides in the next
operation's request — Path ORAM moves Θ(log n) blocks in 1 roundtrip
(its write-back rides the same way), and recursive Path ORAM pays
Θ(log n) *roundtrips*, one a level — which is what dominates on real
WAN links (experiment E13).

A :class:`~repro.storage.backends.NetworkBackend` accrues its own link
time per request; :class:`~repro.simulation.metrics.CostMeter`, the one
place server operations become milliseconds, reads it.  No scheme
prices itself.

A sharded deployment sends sub-requests to several shard groups at
once; :meth:`repro.parallel.executor.Executor.stage_cost` is the one
rule for how those legs overlap (in operations), and the meter scales
the backends' link time by it.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class NetworkModel:
    """A client-server link.

    Attributes:
        rtt_ms: round-trip latency in milliseconds.
        bandwidth_mbps: link bandwidth in megabits per second.
    """

    rtt_ms: float
    bandwidth_mbps: float

    def __post_init__(self) -> None:
        if self.rtt_ms < 0:
            raise ValueError(f"rtt must be non-negative, got {self.rtt_ms}")
        if self.bandwidth_mbps <= 0:
            raise ValueError(
                f"bandwidth must be positive, got {self.bandwidth_mbps}"
            )

    def transfer_ms(self, total_bytes: int) -> float:
        """Serialization time for ``total_bytes`` on this link."""
        if total_bytes < 0:
            raise ValueError(f"bytes must be non-negative, got {total_bytes}")
        bits = total_bytes * 8
        return bits / (self.bandwidth_mbps * 1000.0)

    def response_time_ms(
        self, roundtrips: int, blocks: float, block_bytes: int
    ) -> float:
        """Simulated time for one query.

        Args:
            roundtrips: sequential client-server exchanges.
            blocks: blocks moved (may be a per-query average).
            block_bytes: size of one block in bytes.
        """
        if roundtrips < 0:
            raise ValueError(
                f"roundtrips must be non-negative, got {roundtrips}"
            )
        if blocks < 0:
            raise ValueError(f"blocks must be non-negative, got {blocks}")
        return roundtrips * self.rtt_ms + self.transfer_ms(
            round(blocks * block_bytes)
        )


LAN = NetworkModel(rtt_ms=0.5, bandwidth_mbps=10_000.0)
"""Datacenter-internal link: 0.5 ms RTT, 10 Gbps."""

WAN = NetworkModel(rtt_ms=40.0, bandwidth_mbps=100.0)
"""Cross-region link: 40 ms RTT, 100 Mbps."""

MOBILE = NetworkModel(rtt_ms=80.0, bandwidth_mbps=20.0)
"""Mobile client: 80 ms RTT, 20 Mbps."""
