"""Minimal cryptographic substrate used by the storage schemes.

The paper's constructions require three primitives:

* a source of randomness for the client (``rng``),
* a pseudorandom function ``F`` used by the two-choice hashing scheme
  (``prf``), and
* an IND-CPA symmetric encryption scheme ``(Enc, Dec)`` used by DP-RAM and
  DP-KVS to make ciphertexts independent of record contents
  (``encryption``, a keyed SHAKE-256 stream cipher).

Everything here is implemented on top of the standard library
(``hashlib``/``hmac``) so the repository has no third-party runtime
dependencies.  The privacy analysis in the paper treats ciphertexts as
opaque, so a PRF-based stream cipher with fresh random nonces is the right
level of fidelity for reproducing the transcript distributions.
"""

from repro.crypto.encryption import (
    CIPHERTEXT_OVERHEAD,
    NONCE_SIZE,
    SecretKey,
    decrypt,
    encrypt,
    generate_key,
)
from repro.crypto.prf import PRF
from repro.crypto.rng import RandomSource, SeededRandomSource, SystemRandomSource

__all__ = [
    "CIPHERTEXT_OVERHEAD",
    "NONCE_SIZE",
    "PRF",
    "RandomSource",
    "SecretKey",
    "SeededRandomSource",
    "SystemRandomSource",
    "decrypt",
    "encrypt",
    "generate_key",
]
