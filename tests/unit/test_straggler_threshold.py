"""The configurable straggler threshold in ``trace_summary`` (S4)."""

import pytest

from repro import serve
from repro.serving import ServingConfig
from repro.api import build
from repro.obs import (
    DEFAULT_STRAGGLER_THRESHOLD,
    Tracer,
    summary_to_text,
    trace_summary,
)


def _payload():
    # One round with legs at 1/1/1/5 ms: mean 2ms, straggler ratio 2.5.
    spans = [{
        "id": "1", "name": "round", "parent": None, "error": None,
        "wall_ms": 5.0, "labels": {},
    }]
    for i, wall in enumerate((1.0, 1.0, 1.0, 5.0)):
        spans.append({
            "id": f"1.{i + 1}", "name": "leg", "parent": "1",
            "error": None, "wall_ms": wall, "labels": {"shard": i},
        })
    return {"name": "t", "spans": spans}


class TestStragglerThreshold:
    def test_default_threshold_flags_the_skewed_round(self):
        summary = trace_summary(_payload())
        assert summary["straggler_threshold"] == DEFAULT_STRAGGLER_THRESHOLD
        assert summary["flagged_rounds"] == 1
        round_entry = summary["rounds"][0]
        assert round_entry["straggler_ratio"] == pytest.approx(2.5)
        assert round_entry["straggler_flagged"]

    def test_raising_the_threshold_unflags_it(self):
        summary = trace_summary(_payload(), straggler_threshold=3.0)
        assert summary["flagged_rounds"] == 0
        assert not summary["rounds"][0]["straggler_flagged"]

    def test_threshold_comparison_is_inclusive(self):
        summary = trace_summary(_payload(), straggler_threshold=2.5)
        assert summary["rounds"][0]["straggler_flagged"]

    def test_uniform_legs_are_never_flagged(self):
        payload = _payload()
        for span in payload["spans"][1:]:
            span["wall_ms"] = 2.0
        # Even at the permissive minimum: some leg is always the max,
        # but ratio 1.0 is only "flagged" if the threshold is 1.0.
        assert trace_summary(payload)["flagged_rounds"] == 0
        assert trace_summary(
            payload, straggler_threshold=1.0
        )["flagged_rounds"] == 1

    def test_single_leg_rounds_are_never_flagged(self):
        payload = _payload()
        payload["spans"] = payload["spans"][:2]
        summary = trace_summary(payload, straggler_threshold=1.0)
        assert summary["flagged_rounds"] == 0

    def test_threshold_below_one_raises(self):
        with pytest.raises(ValueError):
            trace_summary(_payload(), straggler_threshold=0.5)

    def test_text_rendering_still_works_with_custom_threshold(self):
        text = summary_to_text(
            trace_summary(_payload(), straggler_threshold=2.0)
        )
        assert "fan-out rounds" in text

    def test_serving_rounds_carry_the_flag(self):
        tracer = Tracer("serving")
        scheme = build("dp_ir", n=128, seed=11)
        serve(scheme, ServingConfig(
            clients=4, requests_per_client=8, scheduler="batch", seed=11,
            tracer=tracer,
        ))
        summary = trace_summary(tracer.export(), straggler_threshold=1.0)
        assert summary["rounds"], "serving must produce fan-out rounds"
        for entry in summary["rounds"]:
            assert "straggler_ratio" in entry
            assert "straggler_flagged" in entry
        # At ratio >= 1.0 every multi-leg round flags: the knob reaches
        # the serving path, not just synthetic payloads.
        multi = [e for e in summary["rounds"] if e["legs"] > 1]
        if multi:
            assert summary["flagged_rounds"] >= sum(
                1 for e in multi if e["straggler_flagged"]
            )
