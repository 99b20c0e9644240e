"""Tests for the redesigned config/scheduler API surface.

Covers the frozen :class:`ServingConfig` dataclass, the named scheduler
settings, and that ``serve()`` takes the config and no keywords.
"""

import pytest

import repro
from repro.serving import (
    ContinuousBatchScheduler,
    RequestScheduler,
    ServingConfig,
    available_schedulers,
    build_scheduler,
    resolve_scheduler_name,
    scheduler_listings,
    serve,
)
from repro.serving.requests import Request
from repro.workloads.trace import Operation


class TestServingConfig:
    def test_defaults_are_the_documented_ones(self):
        config = ServingConfig()
        assert config.clients == 8
        assert config.scheduler == "window"
        assert config.max_in_flight == 4
        assert config.tenant_credits is None
        assert config.build_kwargs == {}

    def test_frozen(self):
        config = ServingConfig()
        with pytest.raises(AttributeError):
            config.clients = 4

    def test_replace_returns_a_modified_copy(self):
        config = ServingConfig(seed=7)
        tightened = config.replace(tenant_credits=2)
        assert tightened.tenant_credits == 2
        assert tightened.seed == 7
        assert config.tenant_credits is None

    @pytest.mark.parametrize("bad", [
        {"clients": 0}, {"requests_per_client": 0},
        {"max_batch": 0}, {"batch_window_ms": -1.0}, {"max_in_flight": 0},
        {"tenant_credits": 0}, {"queue_cap": 0}, {"rate_rps": -5.0},
        {"rate_rps": 0.0}, {"think_ms": -1.0},
    ])
    def test_validates_counts_at_construction(self, bad):
        with pytest.raises(ValueError):
            ServingConfig(**bad)


class TestKeywordsAreRejected:
    """The config is the only calling convention: the keyword shim (and
    its DeprecationWarning) is gone, so a keyword is a plain TypeError."""

    @pytest.mark.parametrize("entry_point,keywords", [
        (serve, {"clients": 2}),
        (serve, {"config": ServingConfig()}),
        (serve, {"bogus_knob": 1}),
    ], ids=["serve-field", "serve-config", "serve-unknown"])
    def test_entry_points_take_no_keywords(self, entry_point, keywords):
        with pytest.raises(TypeError):
            entry_point("dp_ir", **keywords)

    def test_omitted_config_means_the_defaults(self):
        assert serve("dp_ir").requests == (
            ServingConfig().clients * ServingConfig().requests_per_client
        )

    def test_legacy_batch_alias_still_names_the_window_scheduler(self):
        report = serve("dp_ir", ServingConfig(
            clients=2, requests_per_client=3, n=64, seed=1,
            scheduler="batch",
        ))
        assert report.scheduler == "window"


class TestSchedulerRegistry:
    def test_canonical_names_registered(self):
        assert set(available_schedulers()) >= {
            "fifo", "window", "continuous",
        }

    def test_batch_is_an_alias_of_window(self):
        assert resolve_scheduler_name("batch") == "window"
        assert build_scheduler("batch", ServingConfig()).name == "window"

    def test_unknown_name_lists_the_registered_ones(self):
        with pytest.raises(ValueError, match="continuous, fifo, window"):
            build_scheduler("nope", ServingConfig())

    def test_listings_carry_summaries(self):
        listings = dict(scheduler_listings())
        assert "continuous" in listings
        assert listings["continuous"]

    def test_public_schedulers_helper(self):
        names = [name for name, _ in repro.schedulers()]
        assert "fifo" in names and "continuous" in names

    def test_build_from_config_respects_fields(self):
        config = ServingConfig(
            scheduler="continuous", max_batch=8, max_in_flight=2,
            tenant_credits=3, queue_cap=10,
        )
        scheduler = build_scheduler(config.scheduler, config)
        assert isinstance(scheduler, ContinuousBatchScheduler)
        assert scheduler.pipeline_depth == 2
        assert scheduler.max_batch == 8

    def test_instance_passes_through(self):
        instance = ContinuousBatchScheduler(max_batch=1, max_in_flight=1)
        assert build_scheduler(instance, ServingConfig()) is instance

    # Every named setting is ContinuousBatchScheduler with the knobs its
    # name reads off the config; the ones it does not read are ignored.
    KNOBS = ServingConfig(batch_window_ms=5.0, max_batch=8, max_in_flight=3,
                          tenant_credits=2, queue_cap=9)

    @pytest.mark.parametrize("name,expected", [
        ("fifo", dict(name="fifo", max_batch=1, pipeline_depth=1,
                      window_ms=None, tenant_credits=None, queue_cap=None)),
        ("window", dict(name="window", max_batch=8, pipeline_depth=1,
                        window_ms=5.0, tenant_credits=None, queue_cap=None)),
        ("continuous", dict(name="continuous", max_batch=8, pipeline_depth=3,
                            window_ms=None, tenant_credits=2, queue_cap=9)),
    ])
    def test_named_settings_read_their_knobs(self, name, expected):
        scheduler = build_scheduler(name, self.KNOBS)
        assert type(scheduler) is ContinuousBatchScheduler
        assert {key: getattr(scheduler, key) for key in expected} == expected

    def test_a_custom_policy_is_served_by_instance(self):
        class NewestFirst(RequestScheduler):
            name = "newest-first"

            def next_batch(self, now_ms):
                return [self._queue.pop()] if self._queue else []

        report = serve("dp_ir", ServingConfig(
            clients=2, requests_per_client=3, n=64, seed=1,
            scheduler=NewestFirst(),
        ))
        assert report.scheduler == "newest-first"
        assert report.completed == report.requests == 6


def _request(sequence: int, tenant: str = "t0") -> Request:
    return Request(
        tenant=tenant, operation=Operation.read(0), arrival_ms=0.0,
        sequence=sequence, session_index=0, op_index=sequence,
    )


class TestContinuousAdmission:
    def test_tenant_credits_cap_outstanding_requests(self):
        scheduler = ContinuousBatchScheduler(tenant_credits=2)
        first, second, third = (_request(i) for i in range(3))
        assert scheduler.try_admit(first, 0.0)
        scheduler.enqueue(first, 0.0)
        assert scheduler.try_admit(second, 0.0)
        scheduler.enqueue(second, 0.0)
        assert not scheduler.try_admit(third, 0.0)
        # Credits are held until the dispatch group completes, not
        # merely until dispatch.
        batch = scheduler.next_batch(0.0)
        assert not scheduler.try_admit(third, 0.0)
        scheduler.notify_complete(batch, 1.0)
        assert scheduler.try_admit(third, 1.0)

    def test_queue_cap_sheds_regardless_of_tenant(self):
        scheduler = ContinuousBatchScheduler(queue_cap=1)
        first = _request(0, tenant="a")
        assert scheduler.try_admit(first, 0.0)
        scheduler.enqueue(first, 0.0)
        assert not scheduler.try_admit(_request(1, tenant="b"), 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ContinuousBatchScheduler(max_batch=0)
        with pytest.raises(ValueError):
            ContinuousBatchScheduler(max_in_flight=0)
        with pytest.raises(ValueError):
            ContinuousBatchScheduler(tenant_credits=0)
        with pytest.raises(ValueError):
            ContinuousBatchScheduler(queue_cap=0)
