"""Shard groups: R replicas of one scheme instance, with read failover.

A :class:`ShardGroup` owns one shard's records and hosts ``R``
independently-built replica instances of the base scheme.  Reads rotate
across replicas for load spreading and *fail over*: a replica that
raises :class:`~repro.storage.faults.ServerFault` (flaky node) — or
whose answer fails authenticated decryption
(:class:`~repro.crypto.encryption.IntegrityError`, a tampering node) —
is skipped and the read retries on the next replica.

Failure semantics differ by protocol, deliberately:

* **IR replicas** are client-stateless, so a faulted query is safely
  retryable on the *same* replica later — faults are treated as
  transient and attempts cycle through all replicas up to a cap.
* **KVS replicas** mutate client *and* server state on every operation
  (DP-KVS reads evict), so a fault mid-operation can leave the replica
  internally inconsistent.  A faulted KVS replica is marked dead and
  never used again (fail-stop), and reads continue on the survivors.

Executors and wall-clock accounting (:mod:`repro.parallel`): a group
accepts an :class:`~repro.parallel.executor.Executor` and is where a
cluster counts a server operation, once.  Every leg an entry point runs
— a serial failover read or ``query_many`` batch, or one racing leg of
a stage (fallback reads, ``get_many`` keys, a KVS write or flush fan-out)
— sums the group's server counters before and after it and adds the
difference to two counters: :meth:`ShardGroup.operations` (the serial
cost) and :meth:`ShardGroup.wall_operations` (overlap-accounted
op-units).  The cluster above reads only those two.
Every executor runs a stage's legs in submission order; a concurrent
one prices the stage as racing legs (KVS write fan-out to ``R``
replicas, one failover read per batched item).
Failover retries are never priced as racing: a retry is causally
dependent on the previous attempt's failure, and racing it would
multiply the privacy charge — the executor must never change what the
ledger sees.
"""

from __future__ import annotations

from functools import cached_property, partial
from typing import Any, Callable, Generic, Sequence, TypeVar

from repro.api.protocols import PrivateIR, PrivateKVS, Scheme
from repro.crypto.encryption import (
    IntegrityError,
    SecretKey,
    decrypt_authenticated,
)
from repro.parallel.executor import Executor, SerialExecutor, TaskResult
from repro.storage.faults import ServerFault
from repro.storage.server import StorageServer

#: Attempt cap for transient-fault retries on IR reads.  Generous on
#: purpose: a flaky node fails each *slot* access independently, so a
#: pad-set query against a 10 %-flaky server fails much more often than
#: 10 % — the cap bounds pathological runs, not the common case.
DEFAULT_MAX_ATTEMPTS = 32


def check_max_attempts(max_attempts: int) -> int:
    """Return ``max_attempts`` if it allows at least one attempt."""
    if max_attempts < 1:
        raise ValueError(
            f"max_attempts must be at least 1, got {max_attempts}"
        )
    return max_attempts


class GroupExhaustedError(ServerFault):
    """Every replica of a shard group failed to serve an operation."""


_R = TypeVar("_R", bound=Scheme)


def _served(servers: tuple[StorageServer, ...]) -> int:
    """Operations ``servers`` have performed: Σ(reads + writes)."""
    return sum([server.reads + server.writes for server in servers])


class _ReplicaGroup(Generic[_R]):
    """``R`` replicas of one shard: the replica list, rotation pointer,
    draw count, failover counters and operation counters both group
    flavours share; they add only their failover policies on top.  The
    servers counted are fixed at construction: a fault wrapper installed
    later reads its counters off the server it wraps."""

    def __init__(
        self,
        shard_id: int,
        replicas: Sequence[_R],
        executor: Executor | None,
    ) -> None:
        if not replicas:
            raise ValueError("a shard group needs at least one replica")
        self.shard_id = shard_id
        self._replicas = list(replicas)
        self._servers = self.servers()
        self._executor = executor if executor is not None else SerialExecutor()
        self._next_primary = 0
        self._failovers = 0
        self._detected_corruptions = 0
        self._faulted_reads = 0
        self._draws = 0
        self._ops = 0
        self._wall_ops = 0.0

    # -- introspection -----------------------------------------------------

    @property
    def replica_count(self) -> int:
        """Number of replicas ``R`` (dead ones included)."""
        return len(self._replicas)

    @property
    def replicas(self) -> list[_R]:
        """The replica instances (exposed for tests and reports)."""
        return list(self._replicas)

    @property
    def draws(self) -> int:
        """Replica operations attempted — retries, failovers and write
        fan-out included.

        Every attempt, even one a flaky node aborts partway, is an
        independent mechanism invocation (for IR, an at least partial
        pad set) visible to that replica's operator, so the privacy
        ledger charges each draw.
        """
        return self._draws

    @cached_property
    def epsilon(self) -> float:
        """The per-operation ε the replicas' datasheet declares (0.0 for
        perfectly oblivious bases): every replica runs one configuration."""
        return self._replicas[0].datasheet().epsilon

    @property
    def failovers(self) -> int:
        """Reads that had to move to another replica (or retry)."""
        return self._failovers

    def fault_counters(self) -> dict[str, int]:
        """Failover totals in the uniform fault-counter vocabulary."""
        counters = {
            "failovers": self._failovers,
            "detected_corruptions": self._detected_corruptions,
            "faulted_reads": self._faulted_reads,
        }
        return {key: value for key, value in counters.items() if value}

    def servers(self) -> tuple[StorageServer, ...]:
        """Every server behind every replica (dead ones included)."""
        return tuple(
            server for replica in self._replicas for server in replica.servers()
        )

    def operations(self) -> int:
        """Server operations served through the group's entry points,
        priced serially."""
        return self._ops

    def wall_operations(self) -> float:
        """Overlap-accounted op-units served through the group's entry
        points; equals :meth:`operations` under the serial executor."""
        return self._wall_ops

    # -- internals ---------------------------------------------------------

    def _rotate(self) -> int:
        start = self._next_primary
        self._next_primary = (start + 1) % len(self._replicas)
        return start

    def _serial_leg(self, serve: Callable[[Any], Any], item: Any) -> Any:
        """One failover read; its attempts are causally dependent (each
        retry exists only because the previous one failed), so they cost
        serial wall-clock under every executor."""
        before = _served(self._servers)
        try:
            return serve(item)
        finally:
            ops = _served(self._servers) - before
            self._ops += ops
            self._wall_ops += ops

    def _racing_legs(self, legs: Sequence[Callable[[], Any]]) -> list[TaskResult]:
        """``legs`` as one overlap-accounted stage.

        Independent legs are priced as racing under a concurrent executor
        (they still run in order — rotation pointer, draw count and
        liveness marks are shared); the stage costs its slowest leg.
        """
        leg_ops = [0.0] * len(legs)
        results = self._executor.fan_out(
            [self._timed_leg(leg, leg_ops, slot) for slot, leg in enumerate(legs)]
        )
        self._wall_ops += self._executor.stage_cost(leg_ops)
        return results

    def _timed_leg(
        self, leg: Callable[[], Any], leg_ops: list[float], slot: int
    ) -> Callable[[], Any]:
        """``leg``, adding the server operations it caused to
        :meth:`operations` and to ``leg_ops[slot]`` (safe: legs run in
        order on the caller's thread, so the group's servers moved for
        this leg alone)."""

        def run() -> Any:
            before = _served(self._servers)
            try:
                return leg()
            finally:
                ops = _served(self._servers) - before
                self._ops += ops
                leg_ops[slot] = float(ops)

        return run


class ShardGroup(_ReplicaGroup[PrivateIR]):
    """One shard's records behind ``R`` IR replicas with read failover.

    Args:
        shard_id: position in the cluster (for reports).
        replicas: independently built base-scheme instances, each
            loaded with the same copy of this shard's (possibly
            encrypted) records.
        key: authenticated-encryption key when the cluster stores
            ciphertexts; ``None`` stores plaintext (corruption is then
            silent, exactly as in the single-node fault tests).
        max_attempts: transient-fault retry cap per logical query.
        executor: fan-out policy for integrity-fallback re-reads and
            the group's wall-clock accounting; defaults to serial.
    """

    def __init__(
        self,
        shard_id: int,
        replicas: Sequence[PrivateIR],
        key: SecretKey | None = None,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        executor: Executor | None = None,
    ) -> None:
        super().__init__(shard_id, replicas, executor)
        self._key = key
        self._max_attempts = check_max_attempts(max_attempts)

    @property
    def local_n(self) -> int:
        """Records owned by this shard."""
        return self._replicas[0].n

    @property
    def detected_corruptions(self) -> int:
        """Answers rejected by authenticated decryption."""
        return self._detected_corruptions

    # -- reads -------------------------------------------------------------

    def query(self, local_index: int) -> bytes | None:
        """Serve one read with failover; ``None`` only on the α event."""
        return self._serial_leg(self._query_with_failover, local_index)

    def _query_with_failover(self, local_index: int) -> bytes | None:
        start = self._rotate()
        for attempt in range(self._max_attempts):
            replica = self._replicas[(start + attempt) % len(self._replicas)]
            self._draws += 1
            try:
                answer = replica.query(local_index)
            except ServerFault:
                self._faulted_reads += 1
                self._failovers += 1
                continue
            if answer is None:
                # The α-error event is a *scheme* coin, not a fault —
                # retrying would distort the error distribution.
                return None
            try:
                return self._decode(answer)
            except IntegrityError:
                self._detected_corruptions += 1
                self._failovers += 1
        raise GroupExhaustedError(
            f"shard {self.shard_id}: all {self._max_attempts} attempts "
            f"across {len(self._replicas)} replicas failed"
        )

    def query_many(self, local_indices: Sequence[int]) -> list[bytes | None]:
        """Serve a batch through one replica's ``query_many``, failing over.

        A :class:`ServerFault` mid-batch retries the whole batch on the
        next replica (IR batches are stateless, so redrawing pad sets is
        safe); per-answer integrity failures fall back to single-read
        failover for just the affected indices, as one racing stage.
        """
        if not local_indices:
            return []
        answers = self._serial_leg(self._batch_with_failover, local_indices)
        decoded: list[bytes | None] = []
        fallbacks: list[tuple[int, int]] = []
        for local_index, answer in zip(local_indices, answers):
            if answer is None:
                decoded.append(None)
                continue
            try:
                decoded.append(self._decode(answer))
            except IntegrityError:
                self._detected_corruptions += 1
                self._failovers += 1
                fallbacks.append((len(decoded), local_index))
                decoded.append(None)
        if fallbacks:
            results = self._racing_legs(
                [
                    partial(self._query_with_failover, local_index)
                    for _, local_index in fallbacks
                ]
            )
            for (position, _), result in zip(fallbacks, results):
                decoded[position] = result.unwrap()
        return decoded

    def _batch_with_failover(self, local_indices: Sequence[int]) -> list[bytes | None]:
        start = self._rotate()
        for attempt in range(self._max_attempts):
            replica = self._replicas[(start + attempt) % len(self._replicas)]
            self._draws += len(local_indices)
            try:
                return replica.query_many(list(local_indices))
            except ServerFault:
                self._faulted_reads += 1
                self._failovers += 1
        raise GroupExhaustedError(
            f"shard {self.shard_id}: batched read failed on every attempt"
        )

    def _decode(self, block: bytes) -> bytes:
        if self._key is None:
            return block
        return decrypt_authenticated(self._key, block)


class KVShardGroup(_ReplicaGroup[PrivateKVS]):
    """One shard's key range behind ``R`` KVS replicas (fail-stop).

    Writes go to every live replica so reads can be served by any of
    them; a replica that faults mid-operation is marked dead (its
    client-side state may be inconsistent — see the module docstring)
    and the group continues on the survivors.
    """

    def __init__(
        self,
        shard_id: int,
        replicas: Sequence[PrivateKVS],
        executor: Executor | None = None,
    ) -> None:
        super().__init__(shard_id, replicas, executor)
        self._alive = [True] * len(replicas)

    @property
    def live_replicas(self) -> int:
        """Replicas still serving."""
        return sum(self._alive)

    @property
    def value_size(self) -> int:
        """The replicas' value budget."""
        return self._replicas[0].value_size

    def fault_counters(self) -> dict[str, int]:
        """Failover totals plus the fail-stop ``dead_replicas`` count."""
        counters = super().fault_counters()
        dead = len(self._replicas) - self.live_replicas
        if dead:
            counters["dead_replicas"] = dead
        return counters

    # -- operations --------------------------------------------------------

    def get(self, key: bytes) -> bytes | None:
        """Read ``key`` from the first live replica that serves it."""
        return self._serial_leg(self._get_with_failover, key)

    def _get_with_failover(self, key: bytes) -> bytes | None:
        start = self._rotate()
        count = len(self._replicas)
        for offset in range(count):
            position = (start + offset) % count
            if not self._alive[position]:
                continue
            self._draws += 1
            try:
                return self._replicas[position].get(key)
            except ServerFault:
                self._mark_dead(position)
        raise GroupExhaustedError(
            f"shard {self.shard_id}: no live replicas left for get"
        )

    def get_many(self, keys: Sequence[bytes]) -> list[bytes | None]:
        """Per-key reads with failover (KVS bases do not batch), as one
        racing stage: distinct keys are independent requests."""
        if not keys:
            return []
        results = self._racing_legs(
            [partial(self._get_with_failover, key) for key in keys]
        )
        return [result.unwrap() for result in results]

    def put(self, key: bytes, value: bytes) -> None:
        """Write to every live replica; dead ones are skipped."""
        self._fan_out("put", key, value)

    def delete(self, key: bytes) -> bool:
        """Delete from every live replica; result from the first survivor."""
        return bool(self._fan_out("delete", key))

    def flush(self) -> None:
        """Send what each live replica holds back for its next request.

        Not an operation of its own — the upload was drawn, sealed and
        charged by the one that produced it — so no draw is counted.  A
        replica that faults goes fail-stop dead, as on any other leg.
        """
        for position, outcome in self._race_live("flush"):
            if isinstance(outcome.error, ServerFault):
                self._mark_dead(position)
            elif outcome.error is not None:
                raise outcome.error

    # -- internals ---------------------------------------------------------

    def _race_live(
        self, operation: str, *args: bytes
    ) -> list[tuple[int, TaskResult]]:
        """``(position, outcome)`` of ``operation`` on every live replica.

        Replicas are disjoint object graphs, so a concurrent executor
        prices their legs as racing; the stage is accounted here,
        liveness marks are the caller's to apply afterwards.
        """
        live = [
            (position, replica)
            for position, replica in enumerate(self._replicas)
            if self._alive[position]
        ]
        results = self._racing_legs(
            [partial(getattr(replica, operation), *args) for _, replica in live]
        )
        return [
            (position, result) for (position, _), result in zip(live, results)
        ]

    def _fan_out(self, operation: str, *args: bytes) -> object:
        """Apply one write to every live replica, racing when possible.

        Liveness marks and draw charges are applied after the legs ran.
        The ledger draw count (one per live replica attempted) and the
        first-survivor result are executor-independent.
        """
        self._draws += self.live_replicas
        result = None
        any_succeeded = False
        failure: BaseException | None = None
        # Every leg ran (capture-all contract), so process every
        # outcome before raising: a non-fault error from one replica
        # must not leave a sibling's ServerFault unrecorded — the
        # faulted sibling is inconsistent and has to go fail-stop dead.
        for position, outcome in self._race_live(operation, *args):
            if outcome.error is not None:
                if isinstance(outcome.error, ServerFault):
                    self._mark_dead(position)
                elif failure is None:
                    failure = outcome.error
                continue
            if not any_succeeded:
                result = outcome.value
            any_succeeded = True
        if failure is not None:
            raise failure
        if not any_succeeded:    # every leg faulted, or none was live
            raise GroupExhaustedError(
                f"shard {self.shard_id}: no live replicas left for "
                f"{operation}"
            )
        return result

    def _mark_dead(self, position: int) -> None:
        self._faulted_reads += 1
        self._failovers += 1
        self._alive[position] = False
