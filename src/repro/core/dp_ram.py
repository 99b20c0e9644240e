"""Errorless DP-RAM (Section 6, Algorithms 2–3).

The scheme keeps a small client *stash*: at setup every record is placed in
the stash independently with probability ``p`` (``p = Φ(n)/n`` for some
``Φ(n) = ω(log n)``); the server holds ``A[i] = Enc(K, B_i)``.

A query for record ``i`` has two phases:

* **Download phase** — if ``B_i`` is stashed, download a uniformly random
  slot (and discard it), answering from the stash; otherwise download
  ``A[i]``.  A write fetches that download and does not decrypt it: the
  new value replaces whatever it holds.
* **Overwrite phase** — with probability ``p`` the current version of
  ``B_i`` re-enters the stash and a uniformly random *other* slot is
  downloaded, re-encrypted with fresh randomness and uploaded (a cover
  write); otherwise ``A[i]`` is downloaded (and discarded) and a fresh
  ciphertext of the current version is uploaded to ``A[i]``.

Every query therefore moves at most three blocks (two downloads and one
upload) regardless of ``n`` — the O(1) overhead of Theorem 6.1 — and the
transcript per query is the pair ``(d_j, o_j)`` the privacy proof analyzes.
The client keeps no record of it: the pairs are the server's view, read
off an attached :class:`~repro.storage.transcript.Transcript`
(:meth:`~repro.storage.transcript.Transcript.dp_ram_pairs`).
Correctness is perfect: the stash entry, when present, is always the
current version, and otherwise the server ciphertext is.

**One roundtrip.**  A query's request downloads ``d_j`` and ``o_j`` and
carries the previous query's upload in front of them; its own upload —
``o_j``'s fresh ciphertext, sealed from this query's point of the coin
stream — is held for the next request (:mod:`repro.storage.held` states
the protocol).  The request comes before the stash is touched, and the
held ciphertext counts as client storage.

**Three is the worst case.**  Both downloads go in one ``read_many``
round, and the round lists a slot once: when ``d_j = o_j`` — no stash hit
and no restash, probability ``(1−p)²``, plus a ``1/n`` chance meeting
otherwise — the second download would be a byte-identical copy of a
ciphertext the client already holds, so it is not sent.  The expected
cost is ``3 − (1−p)² − p(2−p)/n = 2 + O(p)`` blocks
(:attr:`~repro.core.params.DPRAMParams.expected_blocks_per_query`).
Privacy is untouched: the server's view is a deterministic function of
the paper-shaped one (drop the repeated download), so ε cannot grow, and
the function is injective — ``(D i, U i)`` still reads as ``(i, i)``
(:meth:`~repro.storage.transcript.Transcript.dp_ram_pairs`) — so ε is
exactly that of Theorem 6.1.

:class:`ReadOnlyDPRAM`, the encryption-free variant discussed after
Theorem 6.1 for public, read-only data, is this algorithm without the
upload: the same coin plan (:meth:`DPRAM._plan`), request and commit, over
an identity cipher, holding nothing.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.analysis.datasheet import PrivacyDatasheet
from repro.api.protocols import PrivateRAM, check_index, check_value
from repro.core.params import DPRAMParams
from repro.crypto.encryption import (
    SecretKey,
    decrypt,
    encrypt,
    encrypt_many,
    generate_key,
)
from repro.crypto.rng import RandomSource, SystemRandomSource
from repro.storage.backends import BackendFactory
from repro.storage.blocks import uniform_block_size
from repro.storage.client import ClientStash
from repro.storage.errors import StorageError
from repro.storage.held import HeldRequest
from repro.storage.server import StorageServer


class DPRAM(PrivateRAM):
    """Errorless DP-RAM with a probability-``p`` stash (Algorithms 2–3).

    Args:
        blocks: initial database ``B_1..B_n``.
        stash_probability: the per-record stash probability ``p``; mutually
            exclusive with ``phi``.
        phi: stash budget ``Φ(n)`` from which ``p = Φ(n)/n`` is derived
            (defaults to :func:`repro.core.params.default_phi`).
        rng: randomness source (defaults to system entropy).
        key: symmetric key; a fresh one is sampled when omitted.
        backend_factory: optional slot-storage backend for the server.

    Raises:
        BlockSizeError: if the blocks are not all of one size — the server
            would hold an odd-sized ciphertext, and the first write to
            that slot would change its length in plain view.  Checked
            before the key or any coin is drawn.
    """

    def __init__(
        self,
        blocks: Sequence[bytes],
        stash_probability: float | None = None,
        phi: int | None = None,
        rng: RandomSource | None = None,
        key: SecretKey | None = None,
        backend_factory: BackendFactory | None = None,
    ) -> None:
        if not blocks:
            raise ValueError("the database must contain at least one block")
        if stash_probability is not None and phi is not None:
            raise ValueError("provide at most one of stash_probability and phi")
        n = len(blocks)
        if stash_probability is not None:
            self._params = DPRAMParams.from_probability(n, stash_probability)
        else:
            self._params = DPRAMParams.from_phi(n, phi)
        self._block_size = uniform_block_size(blocks)
        self._rng = rng if rng is not None else SystemRandomSource()
        self._key = self._new_key(key)
        self._encrypt, self._decrypt, encrypt_all = self._cipher()

        # Setup (Algorithm 2): encrypted array on the server, independent
        # p-Bernoulli stash on the client.  The stash copy and the server
        # ciphertext start out equal, so both are fresh.
        server = StorageServer(
            n, backend=backend_factory(n) if backend_factory else None
        )
        server.load(encrypt_all(self._key, blocks, self._rng))
        self._link = HeldRequest(server)
        self._stash = ClientStash()
        p = self._params.stash_probability
        for index, block in enumerate(blocks):
            if self._rng.random() < p:
                self._stash.put(index, bytes(block))

        self._queries = 0

    def _new_key(self, key: SecretKey | None) -> SecretKey | None:
        """The given key, or a fresh one from the scheme's coins."""
        return key if key is not None else generate_key(self._rng)

    def _cipher(self) -> tuple[Callable, Callable, Callable]:
        """``(encrypt, decrypt, encrypt_many)`` as of construction.

        The one seam the reference-cipher oracle overrides
        (``_ReferenceCipherDPRAM`` in ``tests/property/test_prop_crypto.py``,
        which holds this class to it byte for stored byte).
        """
        return encrypt, decrypt, encrypt_many

    # -- parameters & accounting ---------------------------------------------

    @property
    def n(self) -> int:
        """Database size."""
        return self._params.n

    @property
    def stash_probability(self) -> float:
        """The per-record stash probability ``p``."""
        return self._params.stash_probability

    @property
    def params(self) -> DPRAMParams:
        """The resolved parameter bundle (includes the analytic ε bound)."""
        return self._params

    @property
    def block_size(self) -> int:
        """Bytes per plaintext record."""
        return self._block_size

    @property
    def server(self) -> StorageServer:
        """The passive server (exposes operation counters)."""
        return self._link.server

    def servers(self) -> tuple[StorageServer, ...]:
        """The single passive server."""
        return (self._link.server,)

    @property
    def stash_size(self) -> int:
        """Current number of stashed records."""
        return len(self._stash)

    @property
    def stash_peak(self) -> int:
        """Largest stash occupancy observed (Lemma D.1 check)."""
        return self._stash.peak

    @property
    def client_peak_blocks(self) -> int:
        """Peak client storage in blocks: the stash peak, plus the one
        sealed upload held between requests once a query has been made
        (a read-only scheme holds none)."""
        return self._stash.peak + (self.writable and self._queries > 0)

    @property
    def query_count(self) -> int:
        """Number of queries issued so far."""
        return self._queries

    def datasheet(self) -> PrivacyDatasheet:
        """Theorem 6.1's ε bound for ``p``, errorless, one request a query.

        A query downloads ``d_j`` and ``o_j`` in one round — one slot when
        they coincide — and holds the upload of ``o_j`` for the next
        query's request; the read-only variant has no upload.
        """
        params = self._params
        blocks, held = (3.0, 1) if self.writable else (2.0, 0)
        return PrivacyDatasheet(
            scheme=type(self).__name__, n=params.n,
            epsilon=params.epsilon_bound, epsilon_kind="upper bound",
            delta=0.0, error_probability=0.0,
            blocks_per_query=blocks, roundtrips=1,
            client_blocks=params.expected_stash + held,
            server_blocks=self._link.server.capacity,
            expected_blocks_per_query=(
                params.expected_blocks_per_query - (3.0 - blocks)  # no upload
            ),
        )

    # -- the RAM interface ----------------------------------------------------

    def read(self, index: int) -> bytes:
        """Retrieve the current version of record ``index``."""
        return self._query(check_index(index, self._params.n), None)

    def write(self, index: int, value: bytes) -> None:
        """Overwrite record ``index`` with ``value``."""
        index = check_index(index, self._params.n)
        self._query(index, check_value(value, self._block_size))

    # -- Algorithm 3 ------------------------------------------------------------

    def _query(self, index: int, new_value: bytes | None) -> bytes:
        # ``read`` / ``write`` gate the arguments before this first coin:
        # a float would be found in the stash, or reach the server after
        # the held upload landed, and so tell whether it was stashed.
        stashed, download_slot, restash, overwrite_slot = self._plan(index)
        # The operation's one request, and its one point of failure:
        # nothing of the client's has moved yet.  It lists d_j and o_j
        # once: when they are one slot — no stash hit and no restash,
        # probability (1−p)² — a second download would be a byte-identical
        # copy of the first.
        fetched = self._link.send(
            self._queries,
            [download_slot] if download_slot == overwrite_slot
            else [download_slot, overwrite_slot],
        )

        # Commit.  Download phase: only a read opens the record's download;
        # a write's was fetched for the server's view and is replaced.
        if stashed:
            current = self._stash.pop(index)  # cover download discarded
        elif new_value is None:
            current = self._decrypt(self._key, fetched[0])
        if new_value is not None:
            current = new_value

        # Overwrite phase.
        if restash:
            self._stash.put(index, current)
            upload = self._decrypt(self._key, fetched[-1])
        else:
            # The overwrite download was discarded; upload a fresh
            # ciphertext of the current version.
            upload = current
        self._hold(overwrite_slot, upload)
        self._queries += 1
        return current

    def _plan(self, index: int) -> tuple[bool, int, bool, int]:
        """A query's coins, ``(stashed, d_j, restash, o_j)``.

        Reads the stash and draws the three coins in the per-slot
        formulation's order — a cover download if ``index`` is stashed,
        the restash coin, a cover overwrite if it restashes — and changes
        nothing else.  The slots depend on the stash and the scheme's own
        randomness, never on block contents, so both downloads can go out
        as one request before the client's state moves.
        """
        rng, params = self._rng, self._params
        stashed = index in self._stash
        download_slot = rng.randbelow(params.n) if stashed else index
        restash = rng.random() < params.stash_probability
        overwrite_slot = rng.randbelow(params.n) if restash else index
        return stashed, download_slot, restash, overwrite_slot

    def _hold(self, slot: int, block: bytes) -> None:
        """Seal the upload — this query's nonce, from this point of the
        coin stream — and hold it for the next request."""
        self._link.hold(
            self._queries, [(slot, self._encrypt(self._key, block, self._rng))]
        )


class ReadOnlyDPRAM(DPRAM):
    """Encryption-free DP-RAM for public, read-only data: :class:`DPRAM`
    without the upload.

    Section 6 ("Discussion about encryption") observes that when only
    retrievals are permitted the scheme needs no encryption and provides
    differentially private access against computationally *unbounded*
    adversaries.  This is Algorithm 3 itself — the same stash, the same
    coin plan, the same request — so the ``(d_j, o_j)`` distribution, and
    therefore the privacy analysis, is exactly that of :class:`DPRAM`.  It
    differs in four overrides: no key, an identity cipher (the server
    stores plaintext), no writes, and no upload.  The adversary view is a
    strict projection of the proven scheme's view, so privacy can only
    improve.  A query downloads ``d_j`` and ``o_j`` — one slot when they
    coincide, so two blocks at most and ``1 + O(p)`` expected.
    """

    writable = False

    def _new_key(self, key: SecretKey | None) -> None:
        """No key, and no coin drawn for one; a given key is refused."""
        if key is not None:
            raise ValueError("ReadOnlyDPRAM stores plaintext and takes no key")

    def _cipher(self) -> tuple[Callable, Callable, Callable]:
        """The identity: the server stores plaintext."""
        def identity(key, block, rng=None):
            return block

        def encrypt_all(key, blocks, rng):
            return [bytes(block) for block in blocks]

        return identity, identity, encrypt_all

    def write(self, index: int, value: bytes) -> None:
        """Reject the write: this variant serves public, read-only data."""
        raise StorageError("ReadOnlyDPRAM does not support writes")

    def write_many(self, items) -> None:
        """Reject the writes, whatever they are, as :meth:`write` does."""
        raise StorageError("ReadOnlyDPRAM does not support writes")

    def _hold(self, slot: int, block: bytes) -> None:
        """Hold nothing: the overwrite download is pure cover traffic."""
