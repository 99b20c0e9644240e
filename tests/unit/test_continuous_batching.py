"""Properties of the continuous-batching scheduler end to end.

Four claims pinned here:

* **Degeneration**: at pipeline depth 1 with admission caps disabled,
  continuous batching is the *same algorithm* as the windowed scheduler
  with a zero window — the full report must be bit-identical, not
  merely statistically close.
* **Backpressure**: under an open-loop Poisson flood far past the
  service rate, tightening per-tenant credits monotonically improves
  (never worsens) p99 and bounds queue depth, with every refused
  request accounted for in the shed counters.
* **Pipelining pays**: under the same flood, with more than one group
  in flight, continuous dispatch sustains strictly more simulated
  throughput than the lock-step zero-window scheduler.
* **Determinism**: floods with caps replay bit-for-bit per seed, also
  on a cluster under the parallel executor, where admission decisions
  depend on overlap-priced simulated time.
"""

import pytest

from repro.serving import ServingConfig, serve

FLOOD = dict(
    clients=8,
    requests_per_client=32,
    load="open",
    rate_rps=2000.0,
    n=128,
    network="lan",
)


def _modulo_scheduler(report) -> dict:
    payload = report.to_dict()
    assert payload.pop("scheduler") in ("window", "continuous")
    return payload


class TestDegeneratesToWindowedScheduler:
    @pytest.mark.parametrize("scheme", ["dp_ir", "batch_dp_ir"])
    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_depth_one_no_caps_is_bit_identical_to_zero_window(
        self, scheme, seed
    ):
        common = dict(
            clients=4, requests_per_client=8, load="open",
            rate_rps=400.0, n=128, seed=seed,
        )
        windowed = serve(scheme, ServingConfig(
            scheduler="window", batch_window_ms=0.0, **common
        ))
        continuous = serve(scheme, ServingConfig(
            scheduler="continuous", max_in_flight=1, **common
        ))
        assert _modulo_scheduler(continuous) == _modulo_scheduler(windowed)


class TestFloodBackpressure:
    @pytest.fixture(scope="class")
    def reports(self):
        credit_ladder = (None, 8, 4, 2)
        return {
            credits: serve("batch_dp_ir", ServingConfig(
                scheduler="continuous", tenant_credits=credits,
                seed=3, **FLOOD
            ))
            for credits in credit_ladder
        }

    @pytest.fixture(scope="class")
    def window(self):
        return serve("batch_dp_ir", ServingConfig(
            scheduler="window", batch_window_ms=0.0, seed=3, **FLOOD
        ))

    def test_tightening_credits_never_worsens_p99(self, reports):
        ladder = [reports[c] for c in (None, 8, 4, 2)]
        p99s = [report.latency.p99_ms for report in ladder]
        # Non-increasing down the ladder, modulo percentile
        # quantization (different caps complete different request
        # subsets, so adjacent rungs can differ by one sample).
        assert all(
            tighter <= looser * 1.01
            for looser, tighter in zip(p99s, p99s[1:])
        )
        # Every capped rung beats the uncapped flood outright.
        assert all(capped < p99s[0] for capped in p99s[1:])

    def test_caps_bound_queue_depth(self, reports):
        uncapped = reports[None]
        tightest = reports[2]
        assert tightest.max_queue_depth < uncapped.max_queue_depth
        # With credits c per tenant, at most clients*c requests can be
        # queued or in flight at once.
        assert tightest.max_queue_depth <= FLOOD["clients"] * 2

    def test_shed_accounting_is_exact(self, reports):
        for credits, report in reports.items():
            assert report.completed + report.shed == report.requests
            if credits is None:
                assert report.shed == 0
            else:
                assert report.shed > 0
            fairness = report.fairness
            assert fairness["shed_total"] == report.shed
            assert sum(
                tenant["shed"] for tenant in fairness["tenants"]
            ) == report.shed

    def test_uncapped_flood_still_serves_everything(self, reports):
        uncapped = reports[None]
        assert uncapped.completed == uncapped.requests
        assert uncapped.max_in_flight > 1

    def test_continuous_outruns_the_lock_step_window(self, reports, window):
        # Round N+1 no longer waits on round N: the same 256 requests
        # drain in less simulated time.
        uncapped = reports[None]
        assert window.completed == uncapped.completed == window.requests
        assert window.max_in_flight == 1 < uncapped.max_in_flight
        assert uncapped.throughput_rps > window.throughput_rps

    def test_flood_replays_bit_for_bit(self, reports):
        again = serve("batch_dp_ir", ServingConfig(
            scheduler="continuous", tenant_credits=2, seed=3, **FLOOD
        ))
        assert again.to_dict() == reports[2].to_dict()


class TestExecutorStability:
    def test_parallel_replays_bit_for_bit_under_caps(self):
        # Cluster schemes fan out across shards through the executor,
        # which prices a stage as max + overhead; admission decisions
        # depend on that simulated time, and still replay exactly —
        # the full report is the witness.
        reports = [
            serve("cluster_batch_dp_ir", ServingConfig(
                scheduler="continuous", tenant_credits=4, seed=9,
                executor="parallel",
                build_kwargs={"shard_count": 2},
                **FLOOD,
            ))
            for _ in range(2)
        ]
        assert reports[0].to_dict() == reports[1].to_dict()
