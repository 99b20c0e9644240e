"""Privacy datasheets: one-stop scheme summaries.

A *datasheet* collects, for a configured scheme instance, everything a
deployment review would ask: what moves per query, how many roundtrips,
what the privacy parameters are (exact, bounded, or perfect), the error
probability, and where the client/server storage goes.  Each scheme
answers its own (:meth:`repro.api.protocols.Scheme.datasheet`) from its
own parameters — no measurements, no sampling — so a datasheet is cheap
enough to print in a CLI or a log line.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api.protocols import Scheme
from repro.simulation.reporting import format_table


@dataclass(frozen=True)
class PrivacyDatasheet:
    """Summary of one configured scheme.

    Attributes:
        scheme: class name.
        n: database / key capacity.
        epsilon: privacy budget (exact or analytic upper bound; 0 means
            perfectly oblivious).
        epsilon_kind: "exact", "upper bound" or "perfect"; a cluster's
            adds ", per operator" (e.g. "exact, per operator"): its ε
            bounds what one shard operator sees, while the shard a
            query goes to is visible to a network observer.
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
    """The datasheet of any scheme: :meth:`Scheme.datasheet
    <repro.api.protocols.Scheme.datasheet>`.

    Raises:
        TypeError: for an object that is not a
            :class:`~repro.api.protocols.Scheme`.
    """
    if not isinstance(scheme, Scheme):
        raise TypeError(f"no datasheet for {type(scheme).__name__}: not a Scheme")
    return scheme.datasheet()
