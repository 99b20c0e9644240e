"""Balls-and-bins storage substrate.

The paper's lower bounds and constructions are stated in the balls-and-bins
model (Definition 3.1): an untrusted *passive* server stores an array of
opaque blocks, the client has a small private memory, and the only
interactions are downloading a server slot into client memory and uploading
a client block into a server slot.  The adversary's view — the *transcript*
— is the sequence of touched server slots (plus the opaque ciphertexts).

This package implements that model directly:

* :class:`~repro.storage.server.StorageServer` — the passive block array
  with operation counters and an access log, including the batched
  ``read_many``/``write_many`` wire protocol (validate once, count once,
  one backend dispatch per pad set; held to the per-slot loop by
  ``tests/property/test_prop_hotpath.py``).
* :class:`~repro.storage.backends.StorageBackend` — pluggable slot
  persistence behind every server (in-memory by default, simulated
  network links via :class:`~repro.storage.backends.NetworkBackend`).
* :class:`~repro.storage.server.ServerPool` — multiple non-colluding
  servers for the Appendix C setting.
* :class:`~repro.storage.transcript.Transcript` — the adversary view; the
  privacy auditors in :mod:`repro.analysis` consume these.
* :class:`~repro.storage.client.ClientStash` — bounded client memory with
  peak-usage accounting, used to check the paper's client-storage claims.
"""

from repro.storage.backends import (
    BackendFactory,
    InMemoryBackend,
    NetworkBackend,
    NetworkBackendFactory,
    StorageBackend,
)
from repro.storage.blocks import (
    DEFAULT_BLOCK_SIZE,
    decode_int,
    encode_int,
    make_block,
    zero_block,
)
from repro.storage.client import ClientStash
from repro.storage.errors import (
    BlockSizeError,
    CapacityError,
    MappingOverflowError,
    ReproError,
    RetrievalError,
    StorageError,
)
from repro.storage.server import ServerPool, StorageServer
from repro.storage.transcript import AccessEvent, AccessKind, Transcript

__all__ = [
    "AccessEvent",
    "AccessKind",
    "BackendFactory",
    "BlockSizeError",
    "CapacityError",
    "ClientStash",
    "DEFAULT_BLOCK_SIZE",
    "InMemoryBackend",
    "MappingOverflowError",
    "NetworkBackend",
    "NetworkBackendFactory",
    "ReproError",
    "RetrievalError",
    "ServerPool",
    "StorageBackend",
    "StorageError",
    "StorageServer",
    "Transcript",
    "decode_int",
    "encode_int",
    "make_block",
    "zero_block",
]
