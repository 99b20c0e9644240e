"""Unit tests for the deterministic span tracer."""

import json

import pytest

from repro.obs import NULL_TRACER, NullTracer, Tracer, canonical_trace
from repro.obs.tracer import _NULL_SPAN


class TestSpanIds:
    def test_roots_count_up_from_zero(self):
        tracer = Tracer("t")
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        assert [s.span_id for s in tracer.spans()] == ["0", "1"]

    def test_children_nest_under_the_active_span(self):
        tracer = Tracer("t")
        with tracer.span("round"):
            with tracer.span("leg"):
                with tracer.span("batch"):
                    pass
            with tracer.span("leg"):
                pass
        ids = [s.span_id for s in tracer.spans()]
        assert ids == ["0", "0.0", "0.0.0", "0.1"]
        parents = {s.span_id: s.parent_id for s in tracer.spans()}
        assert parents == {"0": None, "0.0": "0", "0.0.0": "0.0",
                           "0.1": "0"}

    def test_start_span_allocates_under_the_active_span_without_activating(self):
        tracer = Tracer("t")
        with tracer.span("round"):
            event = tracer.start_span("batch")
            with tracer.span("leg"):
                pass
        parents = {s.span_id: s.parent_id for s in tracer.spans()}
        assert event.span_id == "0.0"
        assert parents == {"0": None, "0.0": "0", "0.1": "0"}

    def test_a_raising_span_leaves_the_stack_as_it_found_it(self):
        tracer = Tracer("t")
        with tracer.span("round"):
            with pytest.raises(ValueError):
                with tracer.span("leg"):
                    with tracer.span("batch"):
                        raise ValueError("boom")
            with tracer.span("leg"):
                pass
        with tracer.span("next"):
            pass
        parents = {s.span_id: s.parent_id for s in tracer.spans()}
        assert parents == {"0": None, "0.0": "0", "0.0.0": "0.0",
                           "0.1": "0", "1": None}
        assert tracer._stack == []

    def test_ids_never_come_from_clocks(self):
        tracer = Tracer("t")
        with tracer.span("a"):
            pass
        tracer2 = Tracer("t")
        with tracer2.span("a"):
            pass
        assert (
            [s.span_id for s in tracer.spans()]
            == [s.span_id for s in tracer2.spans()]
        )


class TestLabels:
    def test_scalar_labels_accepted(self):
        tracer = Tracer("t")
        with tracer.span("a", shard=3, mode="fast", ok=True,
                         ms=1.5, note=None) as span:
            span.annotate(batch=7)
        labels = tracer.spans()[0].labels
        assert labels == {"shard": 3, "mode": "fast", "ok": True,
                          "ms": 1.5, "note": None, "batch": 7}

    def test_non_scalar_label_rejected(self):
        tracer = Tracer("t")
        with pytest.raises(TypeError, match="scalar"):
            tracer.start_span("a", contents=[1, 2, 3])

    def test_annotate_rejects_non_scalars_too(self):
        tracer = Tracer("t")
        span = tracer.start_span("a")
        with pytest.raises(TypeError):
            span.annotate(payload={"x": 1})


class TestErrorsAndTiming:
    def test_exception_is_recorded_and_propagates(self):
        tracer = Tracer("t")
        with pytest.raises(ValueError):
            with tracer.span("a"):
                raise ValueError("boom")
        span = tracer.spans()[0]
        assert span.error == "ValueError"
        assert span.wall_ms is not None and span.wall_ms >= 0.0

    def test_set_sim_records_the_deterministic_clock(self):
        tracer = Tracer("t")
        with tracer.span("a") as span:
            span.set_sim(10.0, 12.5)
        exported = tracer.export()["spans"][0]
        assert exported["sim_start_ms"] == 10.0
        assert exported["sim_end_ms"] == 12.5


class TestExport:
    def test_export_shape_and_sorted_labels(self):
        tracer = Tracer("run")
        with tracer.span("a", z=1, b=2):
            pass
        payload = tracer.export()
        assert payload["version"] == 1
        assert payload["name"] == "run"
        assert list(payload["spans"][0]["labels"]) == ["b", "z"]

    def test_spans_sorted_by_parsed_path_not_lexically(self):
        # "0.10" must sort after "0.9", which string order gets wrong.
        tracer = Tracer("t")
        with tracer.span("round"):
            for i in range(11):
                tracer.start_span("leg", leg=i)
        ids = [s["id"] for s in tracer.export()["spans"]]
        assert ids == ["0"] + [f"0.{i}" for i in range(11)]

    def test_export_is_json_serializable(self):
        tracer = Tracer("t")
        with tracer.span("a", shard=0):
            pass
        json.dumps(tracer.export())

    def test_canonical_trace_strips_only_wall_clock(self):
        tracer = Tracer("t")
        with tracer.span("a") as span:
            span.set_sim(0.0, 1.0)
        canon = canonical_trace(tracer.export())
        assert "wall_ms" not in canon["spans"][0]
        assert canon["spans"][0]["sim_end_ms"] == 1.0
        # The original payload is not mutated.
        assert "wall_ms" in tracer.export()["spans"][0]


class TestNullTracer:
    def test_disabled_span_is_shared_noop(self):
        tracer = NullTracer()
        assert not tracer.enabled
        context = tracer.span("a", shard=1)
        assert tracer.span("b") is context  # one shared singleton
        with context as span:
            span.annotate(anything=1)
            span.set_sim(0.0, 1.0)
        assert len(tracer) == 0
        assert tracer.export()["spans"] == []

    def test_null_singleton_collects_nothing(self):
        with NULL_TRACER.span("a") as span:
            assert span is _NULL_SPAN
        assert len(NULL_TRACER) == 0

    def test_disabled_start_span_returns_null_span(self):
        assert NULL_TRACER.start_span("a") is _NULL_SPAN
