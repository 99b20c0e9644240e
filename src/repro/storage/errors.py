"""Exception hierarchy for the repro library.

Every exception raised deliberately by this library derives from
:class:`ReproError`, so callers can catch library failures without also
swallowing programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class StorageError(ReproError):
    """A storage operation addressed an invalid slot or server."""


class BlockSizeError(ReproError):
    """A block had the wrong size for the array it was written to."""


class CapacityError(ReproError):
    """A bounded client-side container exceeded its configured capacity."""


class MappingOverflowError(CapacityError):
    """The mapping scheme could not place a key (super root overflow).

    Theorem 7.2 shows this happens with probability negligible in ``n`` when
    the super root capacity is ``ω(log n)``; the experiments count these
    events and expect zero.
    """


class RetrievalError(ReproError):
    """A query failed to produce the requested record.

    DP-IR queries fail *by design* with probability ``α`` (the scheme
    returns ``None`` rather than raising); this error marks genuine misuse,
    above all an index outside ``range(n)`` at an entry point (refused by
    :func:`repro.api.protocols.check_index` before the first coin).
    """
