"""Request schedulers: how queued requests become dispatches.

The scheduler owns the pending queue and decides, whenever a dispatch
lane is free, which requests to hand over next.  Schedulers are
deliberately passive: they never execute anything and keep no clock of
their own.  ``enqueue`` may return a wake-up time (a batching window's
deadline) which the simulator turns into an event; ``try_admit`` lets a
scheduler refuse a request *before* it queues (admission control), and
``notify_complete`` returns the credits a dispatch group held.

There is one dispatch policy, :class:`ContinuousBatchScheduler`.  The
names ``fifo`` (one request per dispatch), ``window`` (legacy alias
``batch``: one lane, groups gathered over ``batch_window_ms``) and
``continuous`` (no window, ``max_in_flight`` lanes, admission caps) are
three settings of it: rows of one table that read their knobs off a
:class:`~repro.serving.config.ServingConfig`.  :func:`build_scheduler`
resolves a name (the ``--scheduler`` CLI flag and ``ServingConfig``
both go through it) and :func:`scheduler_listings` lists them,
re-exported as ``repro.schedulers()``.  A policy of one's own is a
:class:`RequestScheduler` subclass whose instance goes in
``ServingConfig(scheduler=...)``.
"""

from __future__ import annotations

import abc
import math
from collections import deque
from typing import TYPE_CHECKING, Callable

from repro.serving.requests import Request

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.serving.config import ServingConfig


def check_at_least_one(**knobs: int | None) -> None:
    """Raise ``ValueError`` for a knob below 1 (``None`` means off)."""
    for knob, value in knobs.items():
        if value is not None and value < 1:
            raise ValueError(f"{knob} must be at least 1, got {value}")


class RequestScheduler(abc.ABC):
    """Queueing policy between arriving requests and the scheme worker.

    The scheduler protocol the simulator drives:

    * :meth:`try_admit` — may this request enter the queue at all?
      Refusals are *shed* (counted per tenant, never served).
    * :meth:`enqueue` — accept an admitted request; optionally return a
      wake-up time the simulator must revisit the scheduler at.
    * :meth:`next_batch` — the next dispatch group, empty if nothing is
      ready.  Called whenever a dispatch lane is idle.
    * :meth:`notify_complete` — a previously dispatched group finished;
      credit-tracking schedulers release its tokens here.

    :attr:`pipeline_depth` is how many dispatch groups the simulator
    may keep in flight concurrently; ``1`` reproduces the historical
    lock-step round behaviour.  :attr:`name` is what the serving report
    calls the scheduler.
    """

    name: str = "scheduler"
    pipeline_depth: int = 1

    def __init__(self) -> None:
        self._queue: deque[Request] = deque()

    def try_admit(self, request: Request, now_ms: float) -> bool:
        """Whether ``request`` may enter the queue at ``now_ms``.

        Returning ``False`` sheds the request: it is never enqueued,
        never served, and is counted in the report's per-tenant ``shed``
        column.  The default admits everything.
        """
        del request, now_ms
        return True

    def enqueue(self, request: Request, now_ms: float) -> float | None:
        """Admit ``request`` at ``now_ms``.

        Returns a wake-up time when the scheduler needs the simulator to
        revisit it even if no other event fires (a batch window closing),
        or ``None``.
        """
        del now_ms
        self._queue.append(request)
        return None

    @abc.abstractmethod
    def next_batch(self, now_ms: float) -> list[Request]:
        """Requests to dispatch now; empty if nothing is ready.

        Called by the simulator whenever a dispatch lane is idle.
        """

    def notify_complete(self, batch: list[Request], now_ms: float) -> None:
        """A dispatched group completed; release any credits it held."""
        del batch, now_ms

    def pending(self) -> int:
        """Requests currently queued."""
        return len(self._queue)


class ContinuousBatchScheduler(RequestScheduler):
    """Batched dispatch with an optional window and admission control.

    Whenever a dispatch lane frees, whatever is queued (up to
    ``max_batch``) goes out as one group, and up to ``max_in_flight``
    groups occupy lanes concurrently — the pipelined regime where round
    N+1 starts while round N's slowest leg is still outstanding.

    With ``window_ms`` set, a window opens when a request joins an empty
    queue and closes ``window_ms`` later; until then nothing dispatches
    unless ``max_batch`` requests are waiting.  Requests left over after
    a dispatch already waited a full window and go out the next time a
    lane frees.  A zero window still coalesces the requests that arrive
    while every lane is busy.

    Admission control is token-based: a tenant holds one credit per
    request from admission until its dispatch group completes.  A tenant
    at its ``tenant_credits`` cap — or any arrival while the whole queue
    is at ``queue_cap`` — is shed rather than queued, which is the
    backpressure that keeps queue depth and p99 bounded under an
    open-loop flood.

    Args:
        max_batch: dispatch group size cap.
        max_in_flight: concurrent dispatch groups (pipeline depth).
        tenant_credits: outstanding-request cap per tenant (``None``
            disables per-tenant admission control).
        queue_cap: global pending-queue cap (``None`` disables).
        window_ms: how long the first request into an empty queue may
            wait for company (``None``: no window).
        name: what the serving report calls this setting.
    """

    def __init__(
        self,
        max_batch: int = 16,
        max_in_flight: int = 4,
        tenant_credits: int | None = None,
        queue_cap: int | None = None,
        window_ms: float | None = None,
        name: str = "continuous",
    ) -> None:
        super().__init__()
        check_at_least_one(
            max_batch=max_batch, max_in_flight=max_in_flight,
            tenant_credits=tenant_credits, queue_cap=queue_cap,
        )
        if window_ms is not None and window_ms < 0:
            raise ValueError(f"window must be non-negative, got {window_ms}")
        self.max_batch = max_batch
        self.pipeline_depth = max_in_flight
        self.tenant_credits = tenant_credits
        self.queue_cap = queue_cap
        self.window_ms = window_ms
        self.name = name
        #: When the open window closes; ``-inf`` while none is open.
        self._deadline = -math.inf
        #: Credits held per tenant: queued + in-flight requests.
        self._outstanding: dict[str, int] = {}

    def try_admit(self, request: Request, now_ms: float) -> bool:
        del now_ms
        if self.queue_cap is not None and len(self._queue) >= self.queue_cap:
            return False
        return (
            self.tenant_credits is None
            or self._outstanding.get(request.tenant, 0) < self.tenant_credits
        )

    def enqueue(self, request: Request, now_ms: float) -> float | None:
        tenant = request.tenant
        self._outstanding[tenant] = self._outstanding.get(tenant, 0) + 1
        opened = not self._queue
        self._queue.append(request)
        if self.window_ms is None or not opened:
            return None
        self._deadline = now_ms + self.window_ms
        return self._deadline

    def next_batch(self, now_ms: float) -> list[Request]:
        if not self._queue:
            return []
        if len(self._queue) < self.max_batch and now_ms < self._deadline:
            return []
        self._deadline = -math.inf
        return [
            self._queue.popleft()
            for _ in range(min(self.max_batch, len(self._queue)))
        ]

    def notify_complete(self, batch: list[Request], now_ms: float) -> None:
        del now_ms
        for request in batch:
            self._outstanding[request.tenant] -= 1


#: The named settings: name → (summary, build from a ``ServingConfig``).
_SCHEDULERS: dict[
    str, tuple[str, Callable[["ServingConfig"], RequestScheduler]]
] = {
    "fifo": (
        "per-request dispatch in strict arrival order (the unbatched "
        "baseline)",
        lambda config: ContinuousBatchScheduler(
            max_batch=1, max_in_flight=1, name="fifo",
        ),
    ),
    "window": (
        "dispatch groups gathered over a fixed batching window "
        "(lock-step rounds)",
        lambda config: ContinuousBatchScheduler(
            max_batch=config.max_batch, max_in_flight=1,
            window_ms=config.batch_window_ms, name="window",
        ),
    ),
    "continuous": (
        "continuous batching: admit into in-flight dispatch windows, "
        "per-tenant credit caps shed overload",
        lambda config: ContinuousBatchScheduler(
            max_batch=config.max_batch, max_in_flight=config.max_in_flight,
            tenant_credits=config.tenant_credits, queue_cap=config.queue_cap,
        ),
    ),
}
_ALIASES = {"batch": "window"}


def resolve_scheduler_name(name: str) -> str:
    """Normalize a user-facing scheduler spelling to its table key."""
    key = name.strip().lower().replace("-", "_")
    return _ALIASES.get(key, key)


def available_schedulers() -> tuple[str, ...]:
    """Scheduler names, sorted."""
    return tuple(sorted(_SCHEDULERS))


def scheduler_listings() -> tuple[tuple[str, str], ...]:
    """``(name, summary)`` per scheduler: ``repro.schedulers()``."""
    return tuple(
        (name, _SCHEDULERS[name][0]) for name in available_schedulers()
    )


def build_scheduler(
    scheduler: "RequestScheduler | str", config: "ServingConfig"
) -> RequestScheduler:
    """The named setting built from ``config``, or ``scheduler`` itself.

    ``scheduler`` is a name (``fifo`` / ``window`` / ``continuous``;
    legacy alias ``batch``) or an already-built :class:`RequestScheduler`.
    An unknown name raises ``ValueError`` listing the known ones.
    """
    if isinstance(scheduler, RequestScheduler):
        return scheduler
    try:
        _, build = _SCHEDULERS[resolve_scheduler_name(scheduler)]
    except KeyError:
        known = ", ".join(available_schedulers())
        raise ValueError(
            f"unknown scheduler {scheduler!r}; schedulers: {known}"
        ) from None
    return build(config)
