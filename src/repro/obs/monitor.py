"""Online leakage monitors: live tripwires for the (ε, δ) guarantee.

PR 7's observability *records* what a run spends; this module checks
what an observer actually *sees* against what the theory promises.  A
:class:`LeakageMonitor` plays the hypothesis-testing game of
Definition 2.1 incrementally, one entry-point round at a time: every
``query``/``read``/``get`` round the watched scheme serves becomes one
trial of a distinguishing experiment — the true operand against a
fresh decoy the adversary *could* have asked — scored with the same
decision rule as :func:`repro.analysis.attacks.membership_attack`.

The monitor reports the empirical success rate next to the ε-implied
ceiling ``max_success_probability(ε, δ)`` and **trips** when the
empirical rate exceeds the ceiling by more than a one-sided Hoeffding
confidence slack (so finite-sample noise cannot fire a false alarm).
The claimed ε is the one the scheme's datasheet declares, when finite
and positive.  Schemes that claim no ε (the Section 4 strawman,
plaintext baselines, full ORAMs) are monitored report-only against the
trivial ceiling 1.0.

Two attackers ship:

* :class:`MembershipMonitor` — is the true operand's block in the
  observed download/upload set?  The natural test for set-shaped IR
  transcripts; sound (success ≈ ½) for schemes whose server index
  space hides the logical one (buckets, tree ORAMs, keyed KVS).
* :class:`RoutingMonitor` — does the observed *shard set* reveal which
  shard served the query?  The colluding-observer routing leak the
  ROADMAP's decoy-traffic item wants quantified; report-only by
  default because deterministic routing carries no DP claim.

:func:`watch_scheme` installs instance-level wrappers on a built
scheme's entry points; the wrappers attach fresh transcripts around
each call (per shard group on clusters, so routing is observable) and
feed every monitor.  A re-entrancy guard keeps protocol-default
``*_many`` loops from double-counting nested single-op calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.analysis.attacks import (
    distinguishing_guess,
    hoeffding_slack,
    max_success_probability,
)
from repro.crypto.rng import RandomSource, SeededRandomSource
from repro.storage.transcript import Transcript

__all__ = [
    "DEFAULT_CONFIDENCE",
    "DEFAULT_MIN_TRIALS",
    "LeakageMonitor",
    "LeakageReport",
    "MembershipMonitor",
    "Observation",
    "RoutingMonitor",
    "SchemeWatch",
    "default_monitors",
    "watch_scheme",
]

#: Trials before a monitor is allowed to trip at all.
DEFAULT_MIN_TRIALS = 64

#: One-sided false-trip probability budget for the Hoeffding slack.
DEFAULT_CONFIDENCE = 1e-4

#: Bounded redraws when sampling a decoy outside the round's operands.
_DECOY_REDRAWS = 16


@dataclass(frozen=True)
class Observation:
    """What the adversary saw during one entry-point round.

    Attributes:
        touched: the observed access set — slot indices for flat
            schemes, ``(shard, local_slot)`` pairs for clusters.
        shards: shard groups that served any access this round
            (``{0}`` for single-deployment schemes).
    """

    touched: frozenset
    shards: frozenset


@dataclass(frozen=True)
class LeakageReport:
    """One monitor's verdict after a run.

    Attributes:
        attack: monitor name (``"membership"``, ``"routing"``).
        trials: distinguishing games played.
        correct: games the adversary won.
        empirical_success: ``correct / trials`` (½ with no trials).
        advantage: ``empirical_success − ½``.
        epsilon: the scheme's claimed ε, or ``None`` when it claims
            none (the monitor then runs report-only against 1.0).
        delta: the δ used for the ceiling.
        bound: the theoretical success ceiling
            ``max_success_probability(ε, δ)`` (1.0 with no claim).
        slack: the Hoeffding confidence slack at ``trials``.
        min_trials: trials required before tripping is allowed.
        tripped: whether empirical success ever exceeded
            ``bound + slack`` with at least ``min_trials`` games.
        tripped_at: the 1-based trial at which the trip latched.
    """

    attack: str
    trials: int
    correct: int
    empirical_success: float
    advantage: float
    epsilon: float | None
    delta: float
    bound: float
    slack: float
    min_trials: int
    tripped: bool
    tripped_at: int | None

    def to_dict(self) -> dict[str, Any]:
        return {
            "attack": self.attack,
            "trials": self.trials,
            "correct": self.correct,
            "empirical_success": self.empirical_success,
            "advantage": self.advantage,
            "epsilon": self.epsilon,
            "delta": self.delta,
            "bound": self.bound,
            "slack": self.slack,
            "min_trials": self.min_trials,
            "tripped": self.tripped,
            "tripped_at": self.tripped_at,
        }

    def to_text(self) -> str:
        claim = (
            f"eps={self.epsilon:.4f}" if self.epsilon is not None
            else "no ε claim"
        )
        status = "TRIPPED" if self.tripped else "within bound"
        return (
            f"{self.attack}: empirical {self.empirical_success:.4f} "
            f"vs bound {self.bound:.4f} (+slack {self.slack:.4f}) "
            f"over {self.trials} trials [{claim}] -- {status}"
        )


class LeakageMonitor:
    """Shared scoring + trip latch for the streaming attackers.

    Subclasses implement :meth:`observe`, calling :meth:`_score` once
    per distinguishing game.  The trip condition is evaluated after
    every game and latches: ``trials >= min_trials`` and
    ``empirical_success > bound + hoeffding_slack(trials)``.
    """

    name = "leakage"

    def __init__(
        self,
        *,
        epsilon: float | None = None,
        delta: float = 0.0,
        rng: RandomSource | None = None,
        min_trials: int = DEFAULT_MIN_TRIALS,
        confidence: float = DEFAULT_CONFIDENCE,
    ) -> None:
        if min_trials < 1:
            raise ValueError(f"min_trials must be >= 1, got {min_trials}")
        self._epsilon = float(epsilon) if epsilon is not None else None
        self._delta = float(delta)
        self._rng = rng if rng is not None else SeededRandomSource("monitor")
        self._min_trials = min_trials
        self._confidence = confidence
        self._trials = 0
        self._correct = 0
        self._tripped_at: int | None = None

    # -- read-side -------------------------------------------------------

    @property
    def epsilon(self) -> float | None:
        return self._epsilon

    @property
    def trials(self) -> int:
        return self._trials

    @property
    def empirical_success(self) -> float:
        if self._trials == 0:
            return 0.5
        return self._correct / self._trials

    @property
    def bound(self) -> float:
        """The theoretical success ceiling (1.0 without an ε claim)."""
        if self._epsilon is None:
            return 1.0
        return max_success_probability(self._epsilon, self._delta)

    @property
    def slack(self) -> float:
        return hoeffding_slack(self._trials, self._confidence)

    @property
    def tripped(self) -> bool:
        return self._tripped_at is not None

    def report(self) -> LeakageReport:
        return LeakageReport(
            attack=self.name,
            trials=self._trials,
            correct=self._correct,
            empirical_success=self.empirical_success,
            advantage=self.empirical_success - 0.5,
            epsilon=self._epsilon,
            delta=self._delta,
            bound=self.bound,
            slack=self.slack,
            min_trials=self._min_trials,
            tripped=self.tripped,
            tripped_at=self._tripped_at,
        )

    # -- scoring ---------------------------------------------------------

    def _score(self, won: bool) -> None:
        self._trials += 1
        if won:
            self._correct += 1
        if (
            self._tripped_at is None
            and self._trials >= self._min_trials
            and self.empirical_success > self.bound + self.slack
        ):
            self._tripped_at = self._trials

    def observe(
        self, candidates: Sequence[Any], observation: Observation
    ) -> None:
        """Score one entry-point round (implemented by subclasses)."""
        raise NotImplementedError


class MembershipMonitor(LeakageMonitor):
    """Streaming membership attacker over live transcripts.

    Each observed round plays one game: a true operand drawn from the
    round's actual operands against a decoy drawn uniformly outside
    them, guessed by set membership in the observed access set.  With a
    ``locate`` hook (clusters) candidates are mapped to their
    ``(shard, local_slot)`` image first so the test addresses the same
    namespace the per-shard transcripts record.
    """

    name = "membership"

    def __init__(
        self,
        *,
        universe: int,
        locate: Callable[[int], tuple[int, int]] | None = None,
        **kwargs: Any,
    ) -> None:
        super().__init__(**kwargs)
        if universe < 0:
            raise ValueError(f"universe must be >= 0, got {universe}")
        self._universe = universe
        self._locate = locate

    def _draw_decoy(self, excluded: set) -> int | None:
        if self._universe <= len(excluded):
            return None
        for _ in range(_DECOY_REDRAWS):
            decoy = self._rng.randbelow(self._universe)
            if decoy not in excluded:
                return decoy
        return None

    def _present(self, candidate: Any, observation: Observation) -> bool:
        if self._locate is not None and isinstance(candidate, int):
            return self._locate(candidate) in observation.touched
        return candidate in observation.touched

    def observe(
        self, candidates: Sequence[Any], observation: Observation
    ) -> None:
        if not candidates:
            return
        truth = candidates[self._rng.randbelow(len(candidates))]
        if not isinstance(truth, int) or self._universe < 2:
            # Keyed operand spaces (KVS) hide behind a secret PRF: the
            # transcript carries derived node indices the adversary
            # cannot invert, so the game degenerates to a fair coin.
            self._score(self._rng.random() < 0.5)
            return
        excluded = {c for c in candidates if isinstance(c, int)}
        decoy = self._draw_decoy(excluded)
        if decoy is None:
            return
        self._score(distinguishing_guess(
            self._present(truth, observation),
            self._present(decoy, observation),
            self._rng,
        ))


class RoutingMonitor(LeakageMonitor):
    """Shard-routing inference: does the shard set reveal the operand?

    Guesses by whether each candidate's *home shard* appears in the
    round's touched-shard set.  Deterministic routing makes this attack
    strong (success ``≈ 1 − (1/D)·½`` at batch 1) — exactly the leak
    the ROADMAP's decoy-traffic item wants measured before/after, so
    the default is report-only (no ε claim, ceiling 1.0).
    """

    name = "routing"

    def __init__(
        self,
        *,
        universe: int,
        shard_of: Callable[[int], int],
        **kwargs: Any,
    ) -> None:
        super().__init__(**kwargs)
        if universe < 0:
            raise ValueError(f"universe must be >= 0, got {universe}")
        self._universe = universe
        self._shard_of = shard_of

    def observe(
        self, candidates: Sequence[Any], observation: Observation
    ) -> None:
        operands = [c for c in candidates if isinstance(c, int)]
        if not operands or self._universe < 2:
            return
        truth = operands[self._rng.randbelow(len(operands))]
        excluded = set(operands)
        if self._universe <= len(excluded):
            return
        decoy: int | None = None
        for _ in range(_DECOY_REDRAWS):
            draw = self._rng.randbelow(self._universe)
            if draw not in excluded:
                decoy = draw
                break
        if decoy is None:
            return
        self._score(distinguishing_guess(
            self._shard_of(truth) in observation.shards,
            self._shard_of(decoy) in observation.shards,
            self._rng,
        ))


#: Entry points a watch intercepts, with the operands each one exposes.
_ENTRY_POINTS = (
    "query", "query_many",
    "read", "read_many",
    "write", "write_many",
    "get", "get_many", "put",
)


def _round_candidates(name: str, args: tuple) -> list:
    """The operands of one entry-point call (empty = skip the round)."""
    if not args:
        return []
    first = args[0]
    if name in ("query", "read", "get", "write", "put"):
        return [first]
    if name == "write_many":
        return [item[0] for item in first]
    return list(first)


class SchemeWatch:
    """Instance-level entry-point wrappers feeding the monitors.

    Attaches fresh transcripts around every outermost entry-point call
    — one per shard group when the scheme exposes ``groups`` (so the
    routing monitor can see which shards served), one shared otherwise
    — scores each monitor on the observed round, then restores
    whatever transcript the servers carried before.  The round is the
    call's own: an upload the scheme would hold for its next request
    (:meth:`~repro.api.protocols.Scheme.flush`) is sent before the
    transcripts come off, so a watched DP-RAM pays the second roundtrip
    an unwatched one saves.  Wrapping is
    per-instance (plain attribute shadowing), so :meth:`unwatch`
    restores the pristine scheme.
    """

    def __init__(
        self, scheme: Any, monitors: Sequence[LeakageMonitor]
    ) -> None:
        self._scheme = scheme
        self._monitors = list(monitors)
        self._wrapped: list[str] = []
        self._active = False
        groups = getattr(scheme, "groups", None)
        self._groups = list(groups) if groups else None
        for name in _ENTRY_POINTS:
            inner = getattr(scheme, name, None)
            if not callable(inner):
                continue
            setattr(scheme, name, self._wrap(name, inner))
            self._wrapped.append(name)

    @property
    def monitors(self) -> list[LeakageMonitor]:
        return list(self._monitors)

    @property
    def tripped(self) -> bool:
        return any(monitor.tripped for monitor in self._monitors)

    def reports(self) -> list[LeakageReport]:
        return [monitor.report() for monitor in self._monitors]

    def unwatch(self) -> None:
        """Remove the instance-level wrappers (idempotent)."""
        for name in self._wrapped:
            try:
                delattr(self._scheme, name)
            except AttributeError:
                pass
        self._wrapped = []

    # -- capture plumbing ------------------------------------------------

    def _server_groups(self) -> list[tuple[int, list]]:
        if self._groups is not None:
            return [
                (shard, list(group.servers()))
                for shard, group in enumerate(self._groups)
            ]
        servers_fn = getattr(self._scheme, "servers", None)
        servers = list(servers_fn()) if callable(servers_fn) else []
        return [(0, servers)]

    def _attach(self) -> list[tuple[int, Transcript, list]]:
        captured = []
        for shard, servers in self._server_groups():
            transcript = Transcript()
            saved = []
            for server in servers:
                saved.append(server.detach_transcript())
                server.attach_transcript(transcript)
            captured.append((shard, transcript, list(zip(servers, saved))))
        return captured

    @staticmethod
    def _detach(captured: list[tuple[int, Transcript, list]]) -> None:
        for _, _, pairs in captured:
            for server, saved in pairs:
                server.detach_transcript()
                if saved is not None:
                    server.attach_transcript(saved)

    def _observation(
        self, captured: list[tuple[int, Transcript, list]]
    ) -> Observation:
        sharded = self._groups is not None
        touched = set()
        shards = set()
        for shard, transcript, _ in captured:
            if not transcript.events:
                continue
            shards.add(shard)
            for event in transcript.events:
                touched.add((shard, event.index) if sharded else event.index)
        return Observation(
            touched=frozenset(touched), shards=frozenset(shards)
        )

    def _wrap(self, name: str, inner: Callable) -> Callable:
        def watched(*args: Any, **kwargs: Any) -> Any:
            if self._active:
                return inner(*args, **kwargs)
            candidates = _round_candidates(name, args)
            if not candidates:
                return inner(*args, **kwargs)
            self._active = True
            captured = self._attach()
            try:
                result = inner(*args, **kwargs)
                flush = getattr(self._scheme, "flush", None)
                if callable(flush):
                    flush()
            finally:
                self._detach(captured)
                self._active = False
            observation = self._observation(captured)
            if observation.touched:
                for monitor in self._monitors:
                    monitor.observe(candidates, observation)
            return result

        watched.__name__ = f"watched_{name}"
        return watched


def _claimed_epsilon(scheme: Any) -> float | None:
    """The scheme's datasheet ε when it is finite and positive; else an
    ``epsilon`` attribute (``linear_pir``'s 0.0), else no claim."""
    datasheet = getattr(scheme, "datasheet", None)
    epsilon = datasheet().epsilon if callable(datasheet) else math.nan
    if 0.0 < epsilon < math.inf:
        return float(epsilon)
    value = getattr(scheme, "epsilon", None)
    try:
        return float(value) if value is not None else None
    except (TypeError, ValueError):  # pragma: no cover - exotic claims
        return None


def default_monitors(
    scheme: Any,
    *,
    rng: RandomSource | None = None,
    delta: float = 0.0,
    min_trials: int = DEFAULT_MIN_TRIALS,
    confidence: float = DEFAULT_CONFIDENCE,
) -> list[LeakageMonitor]:
    """The standard monitor set for a built scheme (duck-typed).

    Every scheme gets a :class:`MembershipMonitor` against its claimed
    ε (report-only ceiling 1.0 when it claims none).  Cluster schemes
    with a public ``locate``/``router`` surface additionally get a
    report-only :class:`RoutingMonitor`.
    """
    root = rng if rng is not None else SeededRandomSource("monitor")
    universe = int(getattr(scheme, "n", 0))
    locate = getattr(scheme, "locate", None)
    monitors: list[LeakageMonitor] = [
        MembershipMonitor(
            universe=universe,
            locate=locate if callable(locate) else None,
            epsilon=_claimed_epsilon(scheme),
            delta=delta,
            rng=root.spawn("membership"),
            min_trials=min_trials,
            confidence=confidence,
        )
    ]
    router = getattr(scheme, "router", None)
    shard_of = getattr(router, "shard_of", None)
    if callable(shard_of) and callable(locate):
        monitors.append(RoutingMonitor(
            universe=universe,
            shard_of=shard_of,
            rng=root.spawn("routing"),
            min_trials=min_trials,
            confidence=confidence,
        ))
    return monitors


def watch_scheme(
    scheme: Any, monitors: Sequence[LeakageMonitor]
) -> SchemeWatch:
    """Install entry-point watches feeding ``monitors`` on ``scheme``."""
    return SchemeWatch(scheme, monitors)
