"""Cluster schemes: N shard groups × R replicas behind the protocols.

:class:`ClusterIR` and :class:`ClusterKVS` implement the ordinary
:class:`~repro.api.protocols.PrivateIR` / ``PrivateKVS`` protocols, so
the harness, conformance suite and serving simulator drive a whole
cluster exactly like a single-node scheme.  Internally a
:class:`~repro.cluster.router.ShardRouter` maps each logical index (or
key) to one shard group; the group hosts ``R`` independently built
instances of any registered base scheme over that shard's records and
fails reads over between them (see :mod:`repro.cluster.group`).  An IR
shard is sealed once and its replicas are built over that one sealed
copy; a KVS replica is a stateful store of its own.

Privacy model — stated honestly: within a shard, the base instance's
exact per-query ε (over its ``n/D`` records, with a ``K/D`` pad) equals
the single-server budget over all ``n`` records with pad ``K``, because
``ε = ln((1−α)·n/(α·K) + 1)`` is invariant under scaling ``n`` and ``K``
together.  *Across* shards, the routing of a query to its owner group is
visible to whoever can observe all groups — the cluster accounting
therefore assumes non-colluding shard operators (each sees only its own
traffic) and reports the colluding basic-composition bound separately
via the :class:`~repro.cluster.ledger.ClusterLedger`.

Both classes stand on :class:`_ClusterBase`, which writes the route →
charge → account skeleton once: admit the operation against the
per-operator cap, dispatch it, charge one ε per server-visible draw
(failover retries and write fan-out included), account the round.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Generic, Iterable, Sequence, TypeVar

from repro.analysis.datasheet import PrivacyDatasheet
from repro.analysis.ledger import BudgetExceededError
from repro.api.protocols import (
    PrivateIR, PrivateKVS, Scheme, check_index, check_indices, check_value,
)
from repro.api.registry import scheme_spec
from repro.cluster.group import (
    DEFAULT_MAX_ATTEMPTS,
    KVShardGroup,
    ShardGroup,
    check_max_attempts,
)
from repro.cluster.ledger import ClusterLedger
from repro.cluster.router import (
    RangeRouter,
    ShardRouter,
    hash_shard_of_key,
    make_router,
)
from repro.core.params import DPIRParams
from repro.crypto.encryption import encrypt_authenticated_many, generate_key
from repro.crypto.rng import RandomSource, SystemRandomSource
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.parallel.executor import Executor, TaskResult, resolve_executor
from repro.storage.faults import (
    CorruptingServer,
    FlakyServer,
    check_coin_mode,
    wrap_scheme_servers,
)
from repro.storage.backends import BackendFactory
from repro.storage.blocks import uniform_block_size
from repro.storage.server import StorageServer


@dataclass(frozen=True)
class MigrationReport:
    """What one :meth:`ClusterIR.reshard` / ``rebalance`` call did.

    Counts only; :class:`~repro.simulation.metrics.CostMeter` prices.

    Attributes:
        shards_before: shard-group count before the migration.
        shards_after: shard-group count after.
        moved_records: records whose owning shard changed.
        migration_operations: server operations spent reading the data
            out of the old layout and writing it into the new one, one
            shard after another (the measurable cost of going online; an
            IR cluster's new layout is sealed at build time and writes
            nothing through it).
        wall_operations: the same work in overlapped op-units under the
            cluster's executor — per-shard legs are independent, so a
            concurrent executor pays the slowest shard of each stage, not
            the sum.
    """

    shards_before: int
    shards_after: int
    moved_records: int
    migration_operations: int
    wall_operations: float = 0.0


def _rate_per_replica(
    rate: float | Sequence[float], replica_count: int, label: str
) -> list[float]:
    """Broadcast a scalar fault rate, or validate a per-replica list."""
    if isinstance(rate, (int, float)):
        rates = [float(rate)] * replica_count
    else:
        rates = [float(value) for value in rate]
        if len(rates) != replica_count:
            raise ValueError(
                f"expected {replica_count} per-replica {label}s, "
                f"got {len(rates)}"
            )
    for value in rates:
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{label} must be in [0, 1], got {value}")
    return rates


def _check_chargeable(base: str, epsilon: float) -> None:
    """Refuse a base whose replicas declare no finite ε: no ledger could
    charge its operations."""
    if not math.isfinite(epsilon):
        raise ValueError(
            f"{base} declares no finite epsilon, so no ledger "
            f"can charge its operations"
        )


def jain_index(values: Sequence[float]) -> float:
    """Jain's fairness index over per-shard loads.

    1.0 means perfectly even load; ``1/D`` means one of ``D`` shards
    absorbed everything — the quantitative form of the load-hiding gap
    the sharded construction gives up versus replication.  An all-zero
    load vector is trivially even (1.0).
    """
    if not values:
        return 1.0
    if any(value < 0 for value in values):
        raise ValueError("loads must be non-negative")
    sum_of_squares = sum(value * value for value in values)
    if sum_of_squares == 0.0:
        return 1.0
    return sum(values) ** 2 / (len(values) * sum_of_squares)


def _build_base(base: str, **kwargs: Any) -> Any:
    """Build the base scheme, dropping kwargs its builder cannot take.

    Only the *cluster-supplied* tuning kwargs (pad size, error rate) are
    filtered — bases like ``linear_pir`` take neither and should simply
    be built without them.  Caller-supplied ``base_kwargs`` pass through
    unfiltered so typos still fail loudly.
    """
    spec = scheme_spec(base)
    parameters = inspect.signature(spec.builder).parameters
    takes_any = any(
        parameter.kind is inspect.Parameter.VAR_KEYWORD
        for parameter in parameters.values()
    )
    filtered = {
        key: value
        for key, value in kwargs.items()
        if takes_any
        or key in parameters
        or key not in ("pad_size", "alpha", "epsilon")
    }
    return spec.builder(**filtered)


def _inject_faults(
    replica: Any,
    failure_rate: float,
    corruption_rate: float,
    rng: RandomSource,
    coin_mode: str = "per_slot",
) -> None:
    """Wrap every server of a built replica in the requested fault layers."""
    if failure_rate <= 0.0 and corruption_rate <= 0.0:
        return

    def wrap(server: StorageServer) -> StorageServer:
        wrapped = server
        if failure_rate > 0.0:
            wrapped = FlakyServer(
                wrapped, failure_rate, rng.spawn("flaky"),
                coin_mode=coin_mode,
            )
        if corruption_rate > 0.0:
            wrapped = CorruptingServer(
                wrapped, corruption_rate, rng.spawn("corrupt"),
                coin_mode=coin_mode,
            )
        return wrapped

    wrap_scheme_servers(replica, wrap)


_G = TypeVar("_G", ShardGroup, KVShardGroup)


class _ClusterBase(Scheme, Generic[_G]):
    """The route → charge → account skeleton of both cluster schemes.

    Owns the shared deployment state, the replica-building loop, every
    accessor and the three ways an operation reaches the shard groups:
    one shard (:meth:`_single_shard`), one fan-out round
    (:meth:`_fan_out_round`), one migration (:meth:`_migrate`).
    Subclasses keep routing, placement and their protocol's entry points.
    """

    def __init__(
        self,
        n: int,
        base: str,
        replica_count: int,
        failure_rate: float | Sequence[float],
        corruption_rate: float | Sequence[float],
        epsilon_cap: float | None,
        rng: RandomSource | None,
        backend_factory: BackendFactory | str | None,
        executor: Executor | str | None,
        tracer: Tracer | None,
        fault_coin_mode: str,
        base_kwargs: dict[str, Any],
    ) -> None:
        if replica_count <= 0:
            raise ValueError(
                f"replica count must be positive, got {replica_count}"
            )
        check_coin_mode(fault_coin_mode)
        spec = scheme_spec(base)
        if spec.kind != self.kind:
            raise ValueError(
                f"{type(self).__name__} needs {self.kind.upper()} base "
                f"schemes, got {base!r} ({spec.kind})"
            )
        self._n = n
        self._base = spec.name
        self._replica_count = replica_count
        self._epsilon_cap = epsilon_cap
        self._rng = rng if rng is not None else SystemRandomSource()
        self._executor = resolve_executor(executor)
        self.attach_tracer(tracer)
        self._backend_factory = backend_factory
        self._base_kwargs = dict(base_kwargs)
        self._fault_coin_mode = fault_coin_mode
        self._failure_rates = _rate_per_replica(
            failure_rate, replica_count, "failure rate"
        )
        self._corruption_rates = _rate_per_replica(
            corruption_rate, replica_count, "corruption rate"
        )
        self._generation = 0
        self._groups: list[_G] = []
        self._operations = 0
        self._reshard_count = 0
        # Cumulative op-unit accounting across generations (reshard
        # rebuilds the groups and their server counters, these survive).
        self._server_ops = 0
        self._wall_ops = 0.0

    # -- layout ------------------------------------------------------------

    def _install_groups(
        self,
        shard_count: int,
        shard_kwargs: Callable[[int, str], dict[str, Any]],
        make_group: Callable[[int, list[Any]], _G],
    ) -> None:
        """(Re)build ``shard_count`` groups of ``R`` replicas each.

        ``shard_kwargs(shard, label)`` is what the base builder needs
        beyond ``rng``/``backend``; it is called once per shard (``label``
        is ``g{generation}/s{shard}``) and every replica of the shard is
        built from the same kwargs, each with its own scheme and fault
        coins.  The live layout is swapped only once everything is built:
        a failed build changes nothing.
        """
        generation = self._generation
        self._generation += 1
        groups: list[_G] = []
        for shard in range(shard_count):
            shard_label = f"g{generation}/s{shard}"
            kwargs = shard_kwargs(shard, shard_label)
            replicas = []
            for replica in range(self._replica_count):
                label = f"{shard_label}/r{replica}"
                instance = _build_base(
                    self._base,
                    **kwargs,
                    rng=self._rng.spawn(f"scheme/{label}"),
                    backend=self._backend_factory,
                    **self._base_kwargs,
                )
                _inject_faults(
                    instance,
                    self._failure_rates[replica],
                    self._corruption_rates[replica],
                    self._rng.spawn(f"faults/{label}"),
                    coin_mode=self._fault_coin_mode,
                )
                replicas.append(instance)
            groups.append(make_group(shard, replicas))
        _check_chargeable(self._base, groups[0].epsilon)
        # Resharding must not launder spent budget: the drained epoch's
        # ledger seeds the new one so lifetime accounting stays honest.
        ledger = ClusterLedger(
            shard_count,
            epsilon_cap=self._epsilon_cap,
            carried_from=getattr(self, "_ledger", None),
        )
        self._groups = groups
        self._ledger = ledger
        self._shard_queries = [0] * shard_count

    # -- scheme info -------------------------------------------------------

    @property
    def n(self) -> int:
        """Logical database size (IR) or cluster-wide key capacity (KVS)."""
        return self._n

    @property
    def base(self) -> str:
        """Registry name of the per-shard base scheme."""
        return self._base

    @property
    def shard_count(self) -> int:
        """Number of shard groups ``D``."""
        return len(self._groups)

    @property
    def replica_count(self) -> int:
        """Replicas per shard group ``R``."""
        return self._replica_count

    @property
    def groups(self) -> list[_G]:
        """The shard groups (exposed for tests and reports)."""
        return list(self._groups)

    @property
    def ledger(self) -> ClusterLedger:
        """The cluster-wide privacy account."""
        return self._ledger

    @property
    def reshard_count(self) -> int:
        """Completed reshard/rebalance migrations."""
        return self._reshard_count

    def servers(self) -> tuple[StorageServer, ...]:
        """Every server behind every replica of every group."""
        return tuple(server for group in self._groups for server in group.servers())

    def server_operations(self) -> int:
        """Every server operation the cluster has made, as its groups
        counted them at their entry points (no server is walked).

        Cumulative across reshard migrations, drain and re-insertion
        included, so a delta over any span — a reshard too — is what the
        servers did in it.
        """
        return self._server_ops

    def fault_counters(self) -> dict[str, int]:
        """Cluster-level failover totals, merged across shard groups."""
        totals: dict[str, int] = {}
        for group in self._groups:
            for key, value in group.fault_counters().items():
                totals[key] = totals.get(key, 0) + value
        return totals

    # -- load and storage figures ------------------------------------------

    def shard_loads(self) -> list[int]:
        """Per-shard server operations (the measurable hot-spot signal)."""
        return [group.operations() for group in self._groups]

    def shard_query_counts(self) -> list[int]:
        """Logical operations routed to each shard."""
        return list(self._shard_queries)

    def load_balance_index(self) -> float:
        """Jain index over per-shard server operations."""
        return jain_index(self.shard_loads())

    def per_server_storage_blocks(self) -> int:
        """Largest single server, in stored blocks — the ≈ n/D figure."""
        return max(server.capacity for server in self.servers())

    def total_storage_blocks(self) -> int:
        """Total stored blocks across the cluster — ``R·n`` for IR."""
        return sum(server.capacity for server in self.servers())

    @property
    def placement(self) -> str:
        """How an operand finds its shard group: keys hash to one."""
        return "hash"

    def deployment(self) -> dict[str, Any]:
        """The cluster section of a run record: layout, stored blocks,
        load balance, the ledger's budget and one row a shard group."""
        budget = self._ledger.report()
        loads = self.shard_loads()
        queries = self.shard_query_counts()
        return {
            "base": self._base,
            "placement": self.placement,
            "shards": self.shard_count,
            "replicas": self._replica_count,
            "n": self._n,
            "executor": self._executor.name,
            "per_server_storage_blocks": self.per_server_storage_blocks(),
            "total_storage_blocks": self.total_storage_blocks(),
            "load_jain_index": self.load_balance_index(),
            "budget": {
                "queries": budget.queries,
                "per_query_epsilon": budget.per_query_epsilon,
                "worst_shard_epsilon": budget.worst_shard_epsilon,
                "colluding_epsilon": budget.colluding_epsilon,
                "epochs": budget.epochs,
            },
            "per_shard": [
                {
                    "shard": shard,
                    "records": group.replicas[0].n,
                    "queries": queries[shard],
                    "server_operations": loads[shard],
                    "failovers": group.failovers,
                    "epsilon_spent": budget.per_shard[shard].basic_epsilon,
                }
                for shard, group in enumerate(self._groups)
            ],
        }

    def _datasheet(self, copies: int) -> PrivacyDatasheet:
        """The cluster's sheet from its replicas': a fault-free operation
        is one base operation on ``copies`` replicas of one shard, run
        concurrently.  ε, δ and α are the worst shard's (the ledger
        charges each draw its shard's ε), and the client and the servers
        hold every replica's share.  The ε is per operator: it bounds
        what one shard operator sees, while the shard a query goes to is
        visible to a network observer (see :mod:`repro.cluster.ledger`)."""
        sheets = [
            replica.datasheet()
            for group in self._groups for replica in group.replicas
        ]
        worst = max(sheets, key=lambda sheet: sheet.epsilon)
        widest = max(sheets, key=lambda sheet: sheet.blocks_per_query)
        clients = [sheet.client_blocks for sheet in sheets]
        expected = widest.expected_blocks_per_query
        return PrivacyDatasheet(
            scheme=type(self).__name__, n=self._n,
            epsilon=worst.epsilon,
            epsilon_kind=f"{worst.epsilon_kind}, per operator",
            delta=max(sheet.delta for sheet in sheets),
            error_probability=max(sheet.error_probability for sheet in sheets),
            blocks_per_query=copies * widest.blocks_per_query,
            roundtrips=max(sheet.roundtrips for sheet in sheets),
            client_blocks=None if None in clients else sum(clients),
            server_blocks=sum(sheet.server_blocks for sheet in sheets),
            expected_blocks_per_query=(
                None if expected is None else copies * expected
            ),
        )

    # -- overlap accounting ------------------------------------------------

    @property
    def executor(self) -> Executor:
        """The cross-shard fan-out policy."""
        return self._executor

    @property
    def tracer(self) -> Tracer:
        """The attached tracer (the shared no-op one by default)."""
        return self._tracer

    def attach_tracer(self, tracer: Tracer | None) -> None:
        """Emit spans to ``tracer`` (``None`` restores the no-op default).

        Tracing never touches answers, draw sequences or ledger
        charges; legs run in submission order under every executor, so
        the serial and parallel executors emit identical span trees.
        """
        self._tracer = tracer if tracer is not None else NULL_TRACER

    def wall_operations(self) -> float:
        """Overlap-accounted op-units: each cross-shard stage costs what
        its executor says (max over concurrent legs under a parallel
        executor, the plain sum under the serial one).  Cumulative, like
        :meth:`server_operations`."""
        return self._wall_ops

    def _open_stage(
        self, groups: Sequence[_G]
    ) -> Callable[[], tuple[int, float]]:
        """Snapshot ``groups``' operation counters before a stage runs.

        The counters are the ones each group keeps at its entry points
        (see :mod:`repro.cluster.group`), where an operation is counted
        once; no server is walked here.  Calling the result closes the
        stage: each group's delta is one leg, counted as their sum
        (serial) and as the executor's overlap of them; returns those
        ``(serial, overlapped)`` op-units.
        """
        ops_before = [group.operations() for group in groups]
        wall_before = [group.wall_operations() for group in groups]

        def close_stage() -> tuple[int, float]:
            serial = sum(
                group.operations() - before
                for group, before in zip(groups, ops_before)
            )
            wall = self._executor.stage_cost([
                group.wall_operations() - before
                for group, before in zip(groups, wall_before)
            ])
            self._server_ops += serial
            self._wall_ops += wall
            return serial, wall

        return close_stage

    # -- route → charge → account ------------------------------------------

    def _admit(self, touched: Iterable[tuple[int, int]]) -> None:
        """Refuse an operation the per-operator cap cannot cover.

        ``touched`` pairs each shard with the draws the operation is
        certain to expose there.  Runs before any rng draw, server
        operation or counter change: a refusal leaves no trace.
        """
        if self._epsilon_cap is None:
            return
        for shard, draws in touched:
            epsilon = self._groups[shard].epsilon
            if not self._ledger.can_afford(shard, epsilon, draws):
                raise BudgetExceededError(
                    f"{draws} draw(s) at eps={epsilon:.4f} on shard {shard} "
                    f"would exceed the per-operator cap {self._epsilon_cap:.4f}"
                )

    def _charge(self, shard: int, count: int, draws: int) -> None:
        """Count ``count`` logical operations and spend one ε per draw
        the group reported (retries, failovers and write fan-out each
        expose an independent mechanism invocation to an operator)."""
        self._operations += count
        self._shard_queries[shard] += count
        ledger = self._ledger
        epsilon = self._groups[shard].epsilon
        # Draws admission vouched for go through the checked ``charge``;
        # ones a failover retry pushed past the cap were still served,
        # so they are recorded rather than raised.
        affordable = ledger.can_afford(shard, epsilon, draws)
        spend = ledger.charge if affordable else ledger.record
        for _ in range(draws):
            spend(shard, epsilon)

    def _single_shard(
        self,
        name: str,
        shard: int,
        leg: Callable[..., Any],
        *args: Any,
        certain_draws: int = 1,
    ) -> Any:
        """Run one operation on its owner group under a ``name`` span;
        its draws are charged and the round accounted even if it raises."""
        self._admit([(shard, certain_draws)])
        group = self._groups[shard]
        draws_before = group.draws
        close_stage = self._open_stage([group])
        with self._tracer.span(name, shard=shard):
            try:
                return leg(*args)
            finally:
                self._charge(shard, 1, group.draws - draws_before)
                close_stage()

    def _fan_out_round(
        self,
        name: str,
        batch: Sequence[Any],
        route: Callable[[Any], tuple[int, Any]],
        leg: Callable[[_G, list[Any]], list[Any]],
    ) -> list[Any]:
        """Serve ``batch`` in one round of independent per-shard legs.

        ``route(entry)`` names the owner shard and the item to hand it;
        each shard's items go through ``leg(group, items)``.  The legs
        touch disjoint groups: a concurrent executor counts the round as
        the slowest leg plus dispatch overhead, not the sum.  Answers,
        draw sequences and charges are executor-invariant, and an
        exhausted leg does not poison its siblings — every shard is
        charged before the fault propagates.
        """
        if not batch:
            return []
        per_shard: dict[int, list[tuple[int, Any]]] = {}
        for position, entry in enumerate(batch):
            shard, item = route(entry)
            per_shard.setdefault(shard, []).append((position, item))
        shards = sorted(per_shard)
        self._admit((shard, len(per_shard[shard])) for shard in shards)
        groups = [self._groups[shard] for shard in shards]
        draws_before = [group.draws for group in groups]
        close_stage = self._open_stage(groups)
        tasks = [
            partial(leg, group, [item for _, item in per_shard[shard]])
            for shard, group in zip(shards, groups)
        ]
        with self._tracer.span(name, batch=len(batch), shards=len(shards)):
            results = self._run_legs("cluster.shard_leg", shards, tasks)
            answers: list[Any] = [None] * len(batch)
            failure: BaseException | None = None
            for shard, group, before, result in zip(
                shards, groups, draws_before, results
            ):
                entries = per_shard[shard]
                self._charge(shard, len(entries), group.draws - before)
                if result.error is None:
                    self._deliver(answers, entries, result.value)
                elif failure is None:
                    failure = result.error
            close_stage()
        if failure is not None:
            raise failure
        return answers

    def _run_legs(
        self,
        leg_name: str,
        shards: Sequence[int],
        tasks: Sequence[Callable[[], Any]],
    ) -> list[TaskResult]:
        """Run one stage's per-shard ``tasks`` through the executor.

        A traced cluster opens a ``leg_name`` span labelled with the
        shard around each leg; legs run in submission order on the
        caller's thread, so leg span ids follow shard order and a leg's
        storage events nest beneath it.  Untraced, the tasks pass
        through unwrapped.
        """
        if self._tracer.enabled:
            tasks = [
                partial(self._traced_leg, leg_name, shard, task)
                for shard, task in zip(shards, tasks)
            ]
        return self._executor.fan_out(tasks)

    def _traced_leg(
        self, leg_name: str, shard: int, task: Callable[[], Any]
    ) -> Any:
        with self._tracer.span(leg_name, shard=shard):
            return task()

    def _deliver(
        self,
        answers: list[Any],
        entries: list[tuple[int, Any]],
        values: list[Any],
    ) -> None:
        """Place one healthy leg's values at their batch positions."""
        for (position, _), value in zip(entries, values):
            answers[position] = value

    def _migrate(
        self,
        shards_after: int,
        drain_legs: dict[int, Callable[[], list[Any]]],
        reinstall: Callable[[list[Any]], int],
    ) -> MigrationReport:
        """Drain the live layout, rebuild it, report what that cost.

        ``drain_legs[shard]`` reads one group out through the failover
        path (migration works over faulty replicas); a concurrent executor
        counts the legs as overlapping, so migration pays the slowest
        shard.  ``reinstall(drained)`` rebuilds the groups, writes the
        records into them where the base scheme needs that, and returns
        how many records changed shard; those writes are accounted as one
        more stage, one leg per new group.  Drain reads and re-insertion
        writes are data-independent maintenance, not client queries: they
        are not charged, and the ledger's epoch carry keeps earlier spend.
        """
        if shards_after <= 0:
            raise ValueError(
                f"shard count must be positive, got {shards_after}"
            )
        shards_before = self.shard_count
        shards = sorted(drain_legs)
        # An upload held for a next request belongs to the traffic before
        # the migration, not to its drain.
        self.flush()
        close_stage = self._open_stage(
            [self._groups[shard] for shard in shards]
        )
        with self._tracer.span(
            "cluster.reshard",
            shards_before=shards_before,
            shards_after=shards_after,
        ):
            results = self._run_legs(
                "cluster.drain_leg", shards,
                [drain_legs[shard] for shard in shards],
            )
        migration_ops, wall_units = close_stage()
        moved = reinstall(
            [item for result in results for item in result.unwrap()]
        )
        # The new groups were built counting from zero, so their counters
        # hold the re-insertion and nothing else.
        refill_ops = sum(group.operations() for group in self._groups)
        refill_wall = self._executor.stage_cost(
            [group.wall_operations() for group in self._groups]
        )
        self._server_ops += refill_ops
        self._wall_ops += refill_wall
        self._reshard_count += 1
        return MigrationReport(
            shards_before=shards_before,
            shards_after=shards_after,
            moved_records=moved,
            migration_operations=migration_ops + refill_ops,
            wall_operations=wall_units + refill_wall,
        )


class ClusterIR(_ClusterBase[ShardGroup], PrivateIR):
    """Sharded + replicated deployment of any registered IR base scheme.

    Args:
        blocks: the logical database ``B_1..B_n``.
        base: registry name of the per-shard scheme (``dp_ir``,
            ``batch_dp_ir``, ``linear_pir``, …).
        shard_count: number of shard groups ``D``.
        replica_count: replicas per group ``R``.
        placement: ``"range"`` (contiguous, rebalance-capable) or
            ``"hash"``; a :class:`~repro.cluster.router.ShardRouter`
            instance is also accepted.
        epsilon: cluster-wide target budget, resolved to a global pad
            size exactly like the single-server scheme and split as
            ``K/D`` per shard (keeping the exact budget invariant).
            Mutually exclusive with ``pad_size``.
        pad_size: explicit global pad size ``K``.
        alpha: error probability of the per-shard base instances.
        authenticated: store authenticated ciphertexts so tampered
            answers are *detected* and fail over; ``False`` stores
            plaintext (corruption is silent).
        failure_rate: flaky-node rate — a scalar for every replica or a
            per-replica sequence (``(1.0, 0.0)`` kills replica 0).
        corruption_rate: bit-flip rate, scalar or per-replica.
        max_attempts: transient-fault retry cap per logical read.
        epsilon_cap: optional per-operator lifetime budget, an
            *admission* check: an operation whose certain draws would
            push a touched shard past it raises
            :class:`~repro.analysis.ledger.BudgetExceededError` before
            any draw, server operation or counter change.  Draws that
            failover retries add are always recorded (the ledger never
            reads below what operators saw) and close the shard.
        rng: randomness source.
        backend_factory: slot-storage backend for every replica server,
            handed to each replica's builder as its ``backend``.
        executor: cross-shard fan-out accounting (``"serial"``,
            ``"parallel"`` or an
            :class:`~repro.parallel.executor.Executor`).  Changes
            :meth:`wall_operations` only — answers, draw sequences and
            privacy budgets are executor-invariant.
        tracer: optional :class:`~repro.obs.tracer.Tracer`; entry
            points and shard legs emit spans (answers, draws and
            budgets stay bit-identical to an untraced run).  The
            default :data:`~repro.obs.tracer.NULL_TRACER` costs one
            ``enabled`` check per entry point.
        fault_coin_mode: ``"per_slot"`` (slot-exact fault coins) or
            ``"per_round"`` (one coin per batched round — chaos at
            batched speed).
        **base_kwargs: forwarded verbatim to the base scheme's builder
            (a ``network=`` reaches the replicas' backends like any other
            builder keyword).

    The cluster counts server operations and prices none of them;
    :class:`~repro.simulation.metrics.CostMeter` does.
    """

    def __init__(
        self,
        blocks: Sequence[bytes],
        *,
        base: str = "dp_ir",
        shard_count: int = 2,
        replica_count: int = 2,
        placement: str | ShardRouter = "range",
        epsilon: float | None = None,
        pad_size: int | None = None,
        alpha: float = 0.05,
        authenticated: bool = True,
        failure_rate: float | Sequence[float] = 0.0,
        corruption_rate: float | Sequence[float] = 0.0,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        epsilon_cap: float | None = None,
        rng: RandomSource | None = None,
        backend_factory: BackendFactory | str | None = None,
        executor: Executor | str | None = None,
        tracer: Tracer | None = None,
        fault_coin_mode: str = "per_slot",
        **base_kwargs: Any,
    ) -> None:
        if not blocks:
            raise ValueError("the database must contain at least one block")
        data = [bytes(block) for block in blocks]
        n = len(data)
        check_max_attempts(max_attempts)
        # Before the key is spawned or a replica sealed: the cipher hides a
        # block's content, not its length.
        self._block_size = uniform_block_size(data)
        super().__init__(
            n, base, replica_count, failure_rate, corruption_rate,
            epsilon_cap, rng, backend_factory, executor, tracer,
            fault_coin_mode, base_kwargs,
        )
        self._alpha = alpha
        self._max_attempts = max_attempts
        self._errors = 0
        self._key = (
            generate_key(self._rng.spawn("cluster-key"))
            if authenticated
            else None
        )

        # Resolve the *global* pad budget once; every (re)sharding splits
        # it as K/D so the exact per-shard budget stays put.
        if epsilon is not None and pad_size is not None:
            raise ValueError("provide at most one of epsilon or pad_size")
        if pad_size is not None:
            self._global_params = DPIRParams.from_pad_size(n, pad_size, alpha)
        else:
            self._global_params = DPIRParams.from_epsilon(
                n, epsilon if epsilon is not None else math.log(max(n, 2)),
                alpha,
            )
        router = make_router(placement, n, shard_count)
        self._install(router, router.assignment(), data)

    # -- layout ------------------------------------------------------------

    def _install(
        self,
        router: ShardRouter,
        assignment: list[list[int]],
        blocks: list[bytes],
    ) -> None:
        """(Re)build every shard group for ``router``'s ``assignment``.

        Each shard is sealed once, from its replica 0's stream
        (``enc/g{generation}/s{shard}/r0``), and all ``R`` replicas are
        built over that one sealed list.  Replicas share the
        cluster key, hold the same records at the same local slots and
        never write, so separate seals would only cost ``R`` times the
        crypto; identical ciphertexts at identical slots show an operator
        nothing the public layout does not.
        """
        shard_pad = max(
            1, math.ceil(self._global_params.pad_size / router.shard_count)
        )

        def shard_kwargs(shard: int, label: str) -> dict[str, Any]:
            owned = assignment[shard]
            return {
                "blocks": self._stored_blocks(blocks, owned, f"{label}/r0"),
                "pad_size": min(len(owned), shard_pad),
                "alpha": self._alpha,
            }

        self._install_groups(
            router.shard_count,
            shard_kwargs,
            partial(
                ShardGroup, key=self._key, max_attempts=self._max_attempts,
                executor=self._executor,
            ),
        )
        self._router = router
        self._locate = {
            global_index: (shard, local)
            for shard, owned in enumerate(assignment)
            for local, global_index in enumerate(owned)
        }

    def _stored_blocks(
        self, blocks: list[bytes], owned: Sequence[int], label: str
    ) -> list[bytes]:
        if self._key is None:
            return [blocks[index] for index in owned]
        enc_rng = self._rng.spawn(f"enc/{label}")
        return encrypt_authenticated_many(
            self._key, [blocks[index] for index in owned], enc_rng
        )

    # -- scheme info -------------------------------------------------------

    @property
    def block_size(self) -> int:
        """Bytes per *logical* record (before any storage encryption)."""
        return self._block_size

    @property
    def placement(self) -> str:
        """The router's placement policy (``range`` or ``hash``)."""
        return self._router.policy

    @property
    def router(self) -> ShardRouter:
        """The active placement policy."""
        return self._router

    @property
    def authenticated(self) -> bool:
        """Whether stored blocks carry authentication tags."""
        return self._key is not None

    @property
    def epsilon(self) -> float:
        """Worst per-shard exact budget — the cluster's per-query ε."""
        return max(group.epsilon for group in self._groups)

    def datasheet(self) -> PrivacyDatasheet:
        """A query reads one replica of its shard."""
        return self._datasheet(copies=1)

    @property
    def query_count(self) -> int:
        """Logical queries issued so far."""
        return self._operations

    @property
    def error_count(self) -> int:
        """Queries that hit the α-error event."""
        return self._errors

    # -- querying ----------------------------------------------------------

    def query(self, index: int) -> bytes | None:
        """Retrieve block ``index``; ``None`` on the α-error event."""
        shard, local = self._locate[check_index(index, self._n)]
        answer = self._single_shard(
            "cluster.query", shard, self._groups[shard].query, local
        )
        if answer is None:
            self._errors += 1
        return answer

    def query_many(self, indices: Sequence[int]) -> list[bytes | None]:
        """Serve ``indices`` in one round, batching per shard group.

        Indices owned by the same group go through its ``query_many``
        (a ``batch_dp_ir`` base downloads one pad-set union per shard
        per round — batching and sharding compound); the sub-batches
        are the legs of one :meth:`_ClusterBase._fan_out_round`.
        """
        return self._fan_out_round(
            "cluster.query_many", check_indices(indices, self._n),
            self._locate.__getitem__, ShardGroup.query_many,
        )

    def _deliver(
        self,
        answers: list[Any],
        entries: list[tuple[int, Any]],
        values: list[Any],
    ) -> None:
        super()._deliver(answers, entries, values)
        self._errors += values.count(None)

    def locate(self, index: int) -> tuple[int, int]:
        """Public ``(shard, local_slot)`` image of a global index.

        The placement a colluding observer can reconstruct anyway —
        routing is deterministic — exposed so the leakage monitors
        (``repro.obs.monitor``) can address candidates in the same
        per-shard namespace the transcripts record.

        Raises:
            ValueError: if ``index`` is out of range.
        """
        try:
            return self._locate[index]
        except KeyError:
            raise ValueError(
                f"index {index} out of range for n={self.n}"
            ) from None

    # -- online migration --------------------------------------------------

    def reshard(
        self,
        shard_count: int | None = None,
        placement: str | ShardRouter | None = None,
    ) -> MigrationReport:
        """Migrate to a new shard count and/or placement, online.

        Reads every record out of the old layout through the normal
        failover path (so migration works over faulty replicas too),
        rebuilds the groups under the new router with a ``K/D′`` pad
        split, and reports the measured migration cost.  The privacy
        ledger carries the drained epoch's per-operator spend into the
        new shard set (budgets compose over the cluster's lifetime —
        they never reset); migration reads touch *every* record in
        index order, so they are not charged.

        Resharding to the *same* shard count reuses the active router
        (custom boundaries included) and just rebuilds the groups; a
        custom :class:`~repro.cluster.router.ShardRouter` subclass must
        pass ``placement`` explicitly to change its shard count.
        """
        new_count = shard_count if shard_count is not None else self.shard_count
        if placement is not None:
            router = make_router(placement, self.n, new_count)
        elif new_count == self.shard_count:
            router = self._router
        elif self._router.policy in ("range", "hash"):
            router = make_router(self._router.policy, self.n, new_count)
        else:
            raise ValueError(
                f"cannot re-derive a {type(self._router).__name__} for "
                f"{new_count} shards; pass placement= explicitly"
            )
        return self._migrate_to(router)

    def rebalance(self) -> MigrationReport:
        """Recut range boundaries so observed per-shard load evens out.

        Only meaningful for range placement (hash placement has no
        boundaries to move).
        """
        if not isinstance(self._router, RangeRouter):
            raise ValueError(
                "rebalance() needs range placement; "
                f"active policy is {self._router.policy!r}"
            )
        loads = [float(load) for load in self.shard_loads()]
        return self._migrate_to(self._router.rebalanced(loads))

    def _migrate_to(self, router: ShardRouter) -> MigrationReport:
        assignment = router.assignment()
        locate = self._locate
        moved = sum(
            locate[index][0] != shard
            for shard, owned in enumerate(assignment)
            for index in owned
        )

        def reinstall(drained: list[tuple[int, bytes]]) -> int:
            # Every index was drained exactly once: sorting restores
            # database order.
            self._install(
                router, assignment, [block for _, block in sorted(drained)]
            )
            return moved

        return self._migrate(
            router.shard_count,
            {
                shard: partial(self._drain_shard, shard, owned)
                for shard, owned in enumerate(self._router.assignment())
            },
            reinstall,
        )

    def _drain_shard(
        self, shard: int, indices: Sequence[int]
    ) -> list[tuple[int, bytes]]:
        """Read one shard's records out through the failover path,
        retrying the α-error coin until each record is read."""
        group = self._groups[shard]
        drained: list[tuple[int, bytes]] = []
        for index in indices:
            _, local = self._locate[index]
            answer = None
            for _ in range(self._max_attempts * 8):
                answer = group.query(local)
                if answer is not None:
                    break
            if answer is None:
                raise RuntimeError(
                    f"migration could not read record {index} "
                    "(persistent alpha errors)"
                )
            drained.append((index, answer))
        return drained


class ClusterKVS(_ClusterBase[KVShardGroup], PrivateKVS):
    """Sharded + replicated deployment of any registered KVS base scheme.

    Keys hash to shard groups; each group hosts ``R`` replicas of the
    base KVS over a slice of the key-capacity budget (with head-room for
    hash skew).  Writes fan out to every live replica, reads fail over
    (fail-stop — see :mod:`repro.cluster.group`).  The cluster keeps a
    client-side key *directory* (keys only, no values) so
    :meth:`reshard` can enumerate what to migrate.  Routing, the
    directory and :attr:`size` all work on the base scheme's
    :meth:`~repro.api.protocols.PrivateKVS.canonical_key`, so the cluster
    identifies exactly the keys a single base store would.

    Args:
        n: cluster-wide key capacity.
        base: registry name of the per-shard KVS scheme.
        shard_count: number of shard groups ``D``.
        replica_count: replicas per group ``R``.
        value_size: maximum value bytes accepted by :meth:`put`.
        capacity_slack: per-shard over-provisioning factor absorbing
            hash skew (shard capacity ``≈ slack · n/D``).
        failure_rate: flaky-node rate, scalar or per-replica sequence.
        corruption_rate: bit-flip rate, scalar or per-replica (KVS
            corruption is *silent* — the base schemes authenticate
            nothing at the cluster boundary; the IR cluster's
            ``authenticated`` mode is the contrast).
        epsilon_cap: optional per-operator lifetime budget, an admission
            check exactly as for :class:`ClusterIR` (a write is certain
            to expose one draw per live replica).
        rng, backend_factory, executor, tracer, fault_coin_mode,
        **base_kwargs: as for :class:`ClusterIR`, which also says how the
            cluster's operations are priced.
    """

    def __init__(
        self,
        n: int = 1024,
        *,
        base: str = "dp_kvs",
        shard_count: int = 2,
        replica_count: int = 2,
        value_size: int = 32,
        capacity_slack: float = 1.5,
        failure_rate: float | Sequence[float] = 0.0,
        corruption_rate: float | Sequence[float] = 0.0,
        epsilon_cap: float | None = None,
        rng: RandomSource | None = None,
        backend_factory: BackendFactory | str | None = None,
        executor: Executor | str | None = None,
        tracer: Tracer | None = None,
        fault_coin_mode: str = "per_slot",
        **base_kwargs: Any,
    ) -> None:
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        if shard_count <= 0:
            raise ValueError(
                f"shard count must be positive, got {shard_count}"
            )
        if capacity_slack < 1.0:
            raise ValueError(
                f"capacity slack must be at least 1.0, got {capacity_slack}"
            )
        super().__init__(
            n, base, replica_count, failure_rate, corruption_rate,
            epsilon_cap, rng, backend_factory, executor, tracer,
            fault_coin_mode, base_kwargs,
        )
        self._value_size = value_size
        self._capacity_slack = capacity_slack
        self._keys: set[bytes] = set()
        self._install(shard_count)

    def _install(self, shard_count: int) -> None:
        local_n = math.ceil(self._capacity_slack * self._n / shard_count)
        shard_kwargs = {"n": max(4, local_n), "value_size": self._value_size}
        self._install_groups(
            shard_count,
            lambda shard, label: shard_kwargs,
            partial(KVShardGroup, executor=self._executor),
        )

    # -- scheme info -------------------------------------------------------

    @property
    def value_size(self) -> int:
        """Maximum value length accepted by :meth:`put`."""
        return self._value_size

    @property
    def block_size(self) -> int:
        """Bytes per transferred block (the base scheme's node size)."""
        return self._groups[0].replicas[0].block_size

    @property
    def size(self) -> int:
        """Keys currently stored (from the client-side directory)."""
        return len(self._keys)

    @property
    def operation_count(self) -> int:
        """Logical KVS operations issued so far."""
        return self._operations

    def datasheet(self) -> PrivacyDatasheet:
        """A write reaches every replica of its shard (a read, one), so
        the expected figure, a write's, is an upper estimate."""
        return self._datasheet(copies=self._replica_count)

    # -- operations --------------------------------------------------------

    def canonical_key(self, key: bytes) -> bytes:
        """The base scheme's canonical form of ``key``.

        Every operation routes, counts and forwards this form — never the
        raw key — so two spellings the shards store as one key (``b"k"``
        and ``b"k\x00"`` under ``dp_kvs``) reach one shard and count once,
        and a key no shard could hold is refused before anything is
        charged.
        """
        return self._groups[0].replicas[0].canonical_key(key)

    def _route(self, key: bytes) -> tuple[int, bytes]:
        """Owner shard and canonical form of a user key."""
        key = self.canonical_key(key)
        return self._shard_of(key), key

    def get(self, key: bytes) -> bytes | None:
        """Retrieve the exact value for ``key``; ``None`` if absent."""
        shard, key = self._route(key)
        return self._single_shard(
            "cluster.get", shard, self._groups[shard].get, key
        )

    def get_many(self, keys: Sequence[bytes]) -> list[bytes | None]:
        """Retrieve ``keys`` in order, batching per shard group — one
        fan-out round (see :meth:`_ClusterBase._fan_out_round`) whose
        legs are the per-shard ``get_many`` calls."""
        return self._fan_out_round(
            "cluster.get_many", keys, self._route, KVShardGroup.get_many
        )

    def put(self, key: bytes, value: bytes) -> None:
        """Insert or update ``key`` on every live replica of its shard."""
        shard, key = self._route(key)
        value = check_value(value, self._value_size, exact=False)
        group = self._groups[shard]
        self._single_shard(
            "cluster.put", shard, group.put, key, value,
            certain_draws=group.live_replicas,
        )
        self._keys.add(key)

    def delete(self, key: bytes) -> bool:
        """Remove ``key``; returns whether it existed."""
        shard, key = self._route(key)
        group = self._groups[shard]
        existed = self._single_shard(
            "cluster.delete", shard, group.delete, key,
            certain_draws=group.live_replicas,
        )
        self._keys.discard(key)
        return existed

    def flush(self) -> None:
        """Send what every live replica holds back for its next request;
        accounted as one stage, charged to no one (see
        :meth:`KVShardGroup.flush`)."""
        close_stage = self._open_stage(self._groups)
        for group in self._groups:
            group.flush()
        close_stage()

    def _shard_of(self, key: bytes) -> int:
        return hash_shard_of_key(key, self.shard_count)

    # -- online migration --------------------------------------------------

    def reshard(self, shard_count: int | None = None) -> MigrationReport:
        """Migrate every stored key to a new shard count, online.

        Values are read out through the failover path using the
        client-side key directory (one drain leg per shard group), the
        groups are rebuilt, and every pair is re-inserted under the new
        hash placement.  The ledger carries the drained epoch's spend
        forward; re-insertion writes are maintenance traffic, counted in
        the report and the cluster's operation totals but not charged.
        A non-positive ``shard_count`` is a :class:`ValueError` before
        anything is drained.
        """
        new_count = shard_count if shard_count is not None else self.shard_count
        shards_before = self.shard_count
        per_shard_keys: dict[int, list[bytes]] = {}
        for key in sorted(self._keys):
            per_shard_keys.setdefault(self._shard_of(key), []).append(key)

        def drain(group: KVShardGroup, keys: list[bytes]) -> list[Any]:
            drained = list(zip(keys, group.get_many(keys)))
            # The generation is dropped after this leg: the upload it
            # holds for a next request goes now, as part of the drain.
            group.flush()
            return drained

        def reinstall(drained: list[tuple[bytes, bytes | None]]) -> int:
            snapshot = sorted(
                (key, value) for key, value in drained if value is not None
            )
            self._install(new_count)
            self._keys = set()
            for key, value in snapshot:
                self._groups[self._shard_of(key)].put(key, value)
                self._keys.add(key)
            for group in self._groups:
                group.flush()  # re-insertion is complete when this returns
            return sum(
                1
                for key, _ in snapshot
                if hash_shard_of_key(key, shards_before)
                != hash_shard_of_key(key, new_count)
            )

        return self._migrate(
            new_count,
            {
                shard: partial(drain, self._groups[shard], keys)
                for shard, keys in per_shard_keys.items()
            },
            reinstall,
        )
