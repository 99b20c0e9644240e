"""Pinned DP-RAM histories: stored bytes, server view, answers and coins.

For three seeds, one :class:`~repro.core.dp_ram.DPRAM` and one
:class:`~repro.core.dp_ram.ReadOnlyDPRAM` (n = 16, p = 0.5) run a fixed
history — 70 % writes for the writable scheme, reads only for the other
— and end with one flush.  p = 0.5 makes every branch of Algorithm 3
frequent: a write to a stashed record (its download is cover), a write
to an unstashed one (its download is the record it replaces), a restash
(its overwrite download is re-encrypted as a cover upload) and a read.
Each history is one SHA-256 digest over

* every stored slot (:meth:`~repro.storage.server.StorageServer.peek`),
* the server's transcript (:meth:`~repro.storage.transcript.Transcript.signature`),
* the answers,
* ``query_count`` and the next coin the scheme's source draws,

so what the client computes between its request and its upload can be
changed and held to "same bytes, same view, same coins" bit for bit.

Regenerate the table (only for an intended behaviour change) with::

    PYTHONPATH=src python tests/integration/test_dp_ram_pins.py
"""

import hashlib
import json
import random
from collections import Counter

import pytest

from repro.core.dp_ram import DPRAM, ReadOnlyDPRAM
from repro.crypto.rng import SeededRandomSource
from repro.storage.blocks import integer_database
from repro.storage.transcript import Transcript

SEEDS = (1, 2, 3)
SCHEMES = {"dp_ram": DPRAM, "read_only_dp_ram": ReadOnlyDPRAM}
N, P, STEPS, WRITES = 16, 0.5, 160, 0.7


def _history(name: str, seed: int) -> tuple[str, Counter]:
    """``(digest, branches taken)`` of one seeded history."""
    source = SeededRandomSource(seed)
    ram = SCHEMES[name](
        integer_database(N, 8), stash_probability=P, rng=source
    )
    log = Transcript()
    ram.attach_transcript(log)
    plan = random.Random(seed)
    answers, branches = [], Counter()
    for step in range(STEPS):
        index = plan.randrange(N)
        stashed = index in ram._stash
        if ram.writable and plan.random() < WRITES:
            ram.write(index, bytes([step, index]) * 4)
            answers.append(None)
            branches["write stashed" if stashed else "write unstashed"] += 1
        else:
            answers.append(ram.read(index).hex())
            branches["read stashed" if stashed else "read unstashed"] += 1
        # Only a restash leaves the record in the stash.
        branches["restash"] += index in ram._stash
    ram.flush()
    digest = hashlib.sha256(json.dumps({
        "slots": [ram.server.peek(slot).hex() for slot in range(N)],
        "view": log.signature(),
        "answers": answers,
        "queries": ram.query_count,
        "next coin": source.random(),
    }).encode()).hexdigest()
    return digest, branches


CASES = [f"{name}/{seed}" for name in SCHEMES for seed in SEEDS]

#: ``scheme/seed`` → digest.
PINS = {
    "dp_ram/1":
        "f874b4dd82ab3e1d9a18cc8563dddfefe7c9a898725702c21d647aa0803e6dd2",
    "dp_ram/2":
        "c355b1268615a6e4714f4681b310fedbbcf75a593cbfaeb46b9a97cfb3fbba01",
    "dp_ram/3":
        "d8e7b695e6766c498069df4dca00fb3902eaa1e7bd7a002dfdea6814ebc4310f",
    "read_only_dp_ram/1":
        "ca9d7b2e31b2506021f19322388361e6b13b4dad50970df96d6c0f01a7a3a514",
    "read_only_dp_ram/2":
        "1b30111987c2ac66f17f4460569b8104f79b4fbc2fa0423f07d1c5941c8476a9",
    "read_only_dp_ram/3":
        "8e2e34c6c508b5adee7367cad14c2b82481003c3f55a0e39d2ce287fd1d7a09a",
}


@pytest.mark.parametrize("case", CASES)
def test_history_is_pinned(case):
    name, seed = case.split("/")
    digest, branches = _history(name, int(seed))
    assert digest == PINS[case]
    # Every branch the pin is meant to hold was taken, many times over.
    expected = {"read stashed", "read unstashed", "restash"}
    if SCHEMES[name].writable:
        expected |= {"write stashed", "write unstashed"}
    assert {branch for branch, count in branches.items() if count >= 8} == (
        expected
    )


if __name__ == "__main__":
    for case in CASES:
        name, seed = case.split("/")
        print(f'    "{case}":\n        "{_history(name, int(seed))[0]}",')
