"""Span tracer, flight recorder and the engine's tick instrumentation.

The tentpole invariants under test:

* disabled tracing is a null object (``NULL_TRACER``/``NULL_SPAN``), not a
  flag check — spans cost nothing and record nothing;
* an instrumented inline tick emits the full stage taxonomy
  (plan → assemble → kernel → verdict, lifecycle on detection) parented
  under one ``engine.tick`` root;
* the ``engine.tick`` span duration is the *same sample* the
  ``tick_duration_s`` histogram observes, so ``trace_analysis.py``
  reproduces the histogram's nearest-rank p99 exactly.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import RadarConfig, VerificationEngine
from repro.errors import ProtectionError
from repro.models.small import MLP
from repro.quant.layers import quantize_model, quantized_layers
from repro.telemetry.monitor import FleetTelemetry
from repro.telemetry.trace import (
    NULL_SPAN,
    NULL_TRACER,
    FlightRecorder,
    SpanTracer,
    assert_no_orphans,
)


def _small_model(seed: int, hidden=(24,), input_dim=48) -> MLP:
    model = MLP(input_dim=input_dim, num_classes=4, hidden_dims=hidden, seed=seed)
    quantize_model(model)
    return model


def _flip_weight(model) -> None:
    _, layer = quantized_layers(model)[0]
    flat = layer.qweight.reshape(-1)
    flat[0] = np.int8(int(flat[0]) ^ -128)


def _by_id(spans):
    return {span["span_id"]: span for span in spans}


class TestSpanPrimitives:
    def test_span_records_on_finish_with_parent_links(self):
        recorder = FlightRecorder()
        tracer = SpanTracer(recorder=recorder)
        root = tracer.span("root", attrs={"tick": 3})
        child = tracer.span("child", parent=root.context)
        child.finish()
        root.finish()
        spans = recorder.spans()
        assert [span["name"] for span in spans] == ["child", "root"]
        child_dict, root_dict = spans
        assert child_dict["trace_id"] == root_dict["trace_id"]
        assert child_dict["parent_id"] == root_dict["span_id"]
        assert root_dict["parent_id"] is None
        assert root_dict["attrs"] == {"tick": 3}
        assert root_dict["duration_s"] >= 0

    def test_finish_is_idempotent_and_duration_override_wins(self):
        recorder = FlightRecorder()
        tracer = SpanTracer(recorder=recorder)
        span = tracer.span("op")
        span.finish(duration_s=1.25)
        span.finish(duration_s=99.0)
        (recorded,) = recorder.spans()
        assert recorded["duration_s"] == 1.25

    def test_context_manager_finishes(self):
        tracer = SpanTracer(recorder=FlightRecorder())
        with tracer.span("op") as span:
            span.set_attr("key", "value")
        (recorded,) = tracer.recorder.spans()
        assert recorded["attrs"] == {"key": "value"}

    def test_null_tracer_is_inert(self):
        assert NULL_TRACER.span("anything", attrs={"a": 1}) is NULL_SPAN
        assert NULL_SPAN.context is None
        assert not NULL_SPAN.enabled
        NULL_SPAN.set_attr("k", 1)
        NULL_SPAN.finish()

    def test_span_ids_are_unique(self):
        tracer = SpanTracer(recorder=FlightRecorder())
        ids = {tracer.span("op").span_id for _ in range(100)}
        assert len(ids) == 100


class TestFlightRecorder:
    def test_capacity_rotates_oldest_first(self):
        recorder = FlightRecorder(capacity=3)
        tracer = SpanTracer(recorder=recorder)
        for index in range(5):
            tracer.span(f"op-{index}").finish()
        assert [span["name"] for span in recorder.spans()] == [
            "op-2",
            "op-3",
            "op-4",
        ]
        assert recorder.dropped == 2

    def test_capacity_must_be_positive(self):
        with pytest.raises(ProtectionError):
            FlightRecorder(capacity=0)

    def test_dump_jsonl_round_trips(self, tmp_path):
        recorder = FlightRecorder()
        tracer = SpanTracer(recorder=recorder)
        tracer.span("op", attrs={"n": 1}).finish()
        path = recorder.dump_jsonl(tmp_path / "nested" / "trace.jsonl")
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        span = json.loads(lines[0])
        assert span["name"] == "op" and span["attrs"] == {"n": 1}

    def test_assert_no_orphans(self):
        tracer = SpanTracer(recorder=FlightRecorder())
        root = tracer.span("root")
        child = tracer.span("child", parent=root.context)
        child.finish()
        root.finish()
        spans = tracer.recorder.spans()
        assert_no_orphans(spans)  # complete trace: fine
        with pytest.raises(ProtectionError, match="orphaned"):
            assert_no_orphans([span for span in spans if span["name"] == "child"])


class TestEngineInlineInstrumentation:
    def test_tick_emits_stage_taxonomy_under_one_root(self):
        recorder = FlightRecorder()
        engine = VerificationEngine(RadarConfig(group_size=8), num_shards=4)
        engine.tracer = SpanTracer(recorder=recorder)
        engine.register("m0", _small_model(1))
        engine.register("m1", _small_model(2))
        engine.tick()
        spans = recorder.spans()
        names = [span["name"] for span in spans]
        assert names.count("engine.tick") == 1
        for stage in ("tick.plan", "tick.assemble", "scan.kernel", "tick.verdict"):
            assert stage in names, f"missing {stage} in {names}"
        assert_no_orphans(spans)
        by_id = _by_id(spans)
        (root,) = [span for span in spans if span["name"] == "engine.tick"]
        for span in spans:
            if span is root:
                continue
            assert by_id[span["parent_id"]] is root
        assert root["attrs"]["models"] == 2

    def test_detection_emits_lifecycle_span(self):
        recorder = FlightRecorder()
        engine = VerificationEngine(
            RadarConfig(group_size=8), num_shards=1, auto_reprotect=True
        )
        engine.tracer = SpanTracer(recorder=recorder)
        engine.register("victim", _small_model(3), keep_golden_weights=True)
        _flip_weight(engine.get("victim").model)
        engine.tick()
        lifecycle = [
            span
            for span in recorder.spans()
            if span["name"] == "lifecycle.transition"
        ]
        assert lifecycle, "a detected flip must leave a lifecycle span"
        assert lifecycle[0]["attrs"]["model"] == "victim"
        assert "flagged" in lifecycle[0]["attrs"]["transitions"]
        assert_no_orphans(recorder.spans())

    def test_untraced_engine_records_nothing(self):
        engine = VerificationEngine(RadarConfig(group_size=8), num_shards=4)
        engine.register("m0", _small_model(1))
        engine.tick()
        assert engine.tracer is NULL_TRACER
        assert engine.last_tick_duration_s is not None


class TestP99Parity:
    def test_trace_p99_matches_histogram_p99(self):
        recorder = FlightRecorder()
        engine = VerificationEngine(RadarConfig(group_size=8), num_shards=4)
        engine.tracer = SpanTracer(recorder=recorder)
        telemetry = FleetTelemetry().attach(engine)
        engine.register("m0", _small_model(5))
        for _ in range(17):
            engine.tick()
        tick_durations = [
            span["duration_s"]
            for span in recorder.spans()
            if span["name"] == "engine.tick"
        ]
        histogram = telemetry.registry.histogram("tick_duration_s")
        assert len(tick_durations) == len(histogram) == 17
        # Identical samples and an identical nearest-rank formula mean the
        # p99 (and every other quantile) agree exactly, not approximately.
        for q in (50, 95, 99):
            ordered = sorted(tick_durations)
            rank = max(int(np.ceil(q / 100.0 * len(ordered))), 1)
            assert histogram.percentile(q) == ordered[rank - 1]
