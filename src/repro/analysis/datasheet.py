"""Privacy datasheets: one-stop scheme summaries.

A *datasheet* collects, for a configured scheme instance, everything a
deployment review would ask: what moves per query, how many roundtrips,
what the privacy parameters are (exact, bounded, or perfect), the error
probability, and where the client/server storage goes.  The figures come
from the schemes' own parameter objects — no measurements, no sampling —
so a datasheet is cheap enough to print in a CLI or a log line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.simulation.reporting import format_table


@dataclass(frozen=True)
class PrivacyDatasheet:
    """Summary of one configured scheme.

    Attributes:
        scheme: class name.
        n: database / key capacity.
        epsilon: privacy budget (exact or analytic upper bound; 0 means
            perfectly oblivious).
        epsilon_kind: "exact", "upper bound" or "perfect".
        delta: the δ of the guarantee (0 unless stated).
        error_probability: α, the data-independent failure rate.
        blocks_per_query: block transfers per logical operation — the
            declared worst case; no operation moves more.
        expected_blocks_per_query: what an operation moves on average,
            where that is less (a round lists a slot once, so blocks
            that coincide travel once; a Path ORAM access sends neither
            way the nodes its path shares with the held write-back);
            ``None`` when every operation moves exactly
            ``blocks_per_query``.
        roundtrips: sequential client-server exchanges per operation.
            DP-RAM, DP-KVS and Path ORAM declare 1: the upload an
            operation seals rides in the next operation's request, so a
            run of ``k`` operations is ``k`` exchanges plus one for the
            last upload — less, for Path ORAM, the accesses whose whole
            path is held, which have nothing to send (probability
            ``2^-L`` each).
        client_blocks: expected client storage in blocks (``None`` for
            stateless clients); counts the upload held between requests.
        server_blocks: server storage in blocks.
    """

    scheme: str
    n: int
    epsilon: float
    epsilon_kind: str
    delta: float
    error_probability: float
    blocks_per_query: float
    roundtrips: int
    client_blocks: float | None
    server_blocks: int
    expected_blocks_per_query: float | None = None

    def to_text(self) -> str:
        """Render as an aligned two-column table."""
        epsilon_cell = (
            "0 (oblivious)" if self.epsilon_kind == "perfect"
            else f"{self.epsilon:.3f} ({self.epsilon_kind})"
        )
        rows = [
            ["n", self.n],
            ["epsilon", epsilon_cell],
            ["delta", self.delta],
            ["error probability", self.error_probability],
            ["blocks per query (at most)", self.blocks_per_query],
            ["blocks per query (expected)",
             self.blocks_per_query if self.expected_blocks_per_query is None
             else f"{self.expected_blocks_per_query:.3f}"],
            ["roundtrips per query", self.roundtrips],
            ["client blocks (expected)",
             "stateless" if self.client_blocks is None else self.client_blocks],
            ["server blocks", self.server_blocks],
        ]
        return format_table(["property", "value"], rows,
                            title=f"Datasheet: {self.scheme}")


def datasheet_for(scheme: object) -> PrivacyDatasheet:
    """Build a datasheet for any scheme in this library.

    Supported: ``DPIR``, ``BatchDPIR``, ``StrawmanIR``, ``DPRAM``,
    ``ReadOnlyDPRAM``, ``DPKVS``, ``LinearScanPIR``, ``PathORAM``,
    ``MultiServerDPIR``, ``ShardedDPIR``.

    Raises:
        TypeError: for unrecognized scheme types.
    """
    from repro.baselines.linear_pir import LinearScanPIR
    from repro.baselines.path_oram import PathORAM
    from repro.core.dp_ir import _Algorithm1Client
    from repro.core.dp_kvs import DPKVS
    from repro.core.dp_ram import DPRAM
    from repro.core.strawman import StrawmanIR

    name = type(scheme).__name__
    if isinstance(scheme, _Algorithm1Client):
        return PrivacyDatasheet(
            scheme=name, n=scheme.n,
            epsilon=scheme.epsilon, epsilon_kind="exact", delta=0.0,
            error_probability=scheme.alpha,
            blocks_per_query=float(scheme.pad_size), roundtrips=1,
            client_blocks=None, server_blocks=scheme.n,
        )
    if isinstance(scheme, StrawmanIR):
        return PrivacyDatasheet(
            scheme=name, n=scheme.n,
            epsilon=math.inf, epsilon_kind="exact",
            delta=1.0 - 1.0 / scheme.n,   # Section 4: no privacy
            error_probability=0.0,
            blocks_per_query=1.0 + (scheme.n - 1) / scheme.n, roundtrips=1,
            client_blocks=None, server_blocks=scheme.n,
        )
    if isinstance(scheme, DPRAM):
        params = scheme.params
        # DP-RAM downloads d_j and o_j in one round — one slot when they
        # coincide — and holds the upload of o_j for the next query's
        # request; the read-only variant has no upload.
        blocks, held = (3.0, 1) if scheme.writable else (2.0, 0)
        return PrivacyDatasheet(
            scheme=name, n=params.n,
            epsilon=params.epsilon_bound, epsilon_kind="upper bound",
            delta=0.0, error_probability=0.0,
            blocks_per_query=blocks, roundtrips=1,
            client_blocks=params.expected_stash + held, server_blocks=params.n,
            expected_blocks_per_query=(
                params.expected_blocks_per_query - (3.0 - blocks)  # no upload
            ),
        )
    if isinstance(scheme, DPKVS):
        params = scheme.params
        # Theorem 7.1: eps = O(k * log n); report the bucket DP-RAM bound
        # scaled by the two bucket queries each operation performs.
        bucket_bound = 3.0 * math.log(
            params.shape.leaf_count**3 / params.stash_probability**2
        )
        return PrivacyDatasheet(
            scheme=name, n=params.n,
            epsilon=params.choices * bucket_bound, epsilon_kind="upper bound",
            delta=0.0, error_probability=0.0,
            blocks_per_query=float(scheme.blocks_per_operation()),
            roundtrips=1,  # the held upload, then the fused download round
            client_blocks=float(
                params.phi * params.shape.path_length + params.phi
                + params.choices * params.shape.path_length  # the held upload
            ),
            server_blocks=scheme.server_node_count,
            # An upper estimate: nodes shared by two paths come off too.
            expected_blocks_per_query=params.expected_blocks_per_operation(),
        )
    if isinstance(scheme, LinearScanPIR):
        return PrivacyDatasheet(
            scheme=name, n=scheme.n,
            epsilon=0.0, epsilon_kind="perfect", delta=0.0,
            error_probability=0.0,
            blocks_per_query=float(scheme.n), roundtrips=1,
            client_blocks=None, server_blocks=scheme.n,
        )
    if isinstance(scheme, PathORAM):
        z, height = scheme.bucket_size, scheme.height
        return PrivacyDatasheet(
            scheme=name, n=scheme.n,
            epsilon=0.0, epsilon_kind="perfect", delta=0.0,
            error_probability=0.0,
            # The path's write-back rides in the next access's request;
            # its blocks left the stash, so it adds no client storage.
            # A request carries neither way the 2 - 2^-L nodes two uniform
            # paths share on average; with nothing held (the first access,
            # or the first after a flush) an access moves them all.
            blocks_per_query=float(scheme.blocks_per_access()), roundtrips=1,
            client_blocks=float(scheme.n),  # position map + stash
            server_blocks=scheme.server.capacity,
            expected_blocks_per_query=2 * z * (height - 1 + 2.0**-height),
        )
    raise TypeError(f"no datasheet support for {name}")
