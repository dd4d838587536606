"""The benchmark's traced run still finds the kernel entry points it wraps.

``radarbench/spans.py`` times layers from outside ``src/`` by wrapping
entry points by name (``FusedSignatures.mismatched_rows``,
``StackedVerifier.verify``, ``batched_mismatched_rows`` in
``repro.core.signature`` and ``repro.core.fleet``).  A rename or a reroute
that bypasses them would silently zero the per-layer kernel metrics; this
test drives one protected forward and one engine tick under the tracer
and requires the kernel spans to appear.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np

from repro.core import ProtectedInference, RadarConfig, VerificationEngine
from repro.models.small import MLP
from repro.quant.layers import quantize_model

SPANS_PATH = Path(__file__).resolve().parent.parent / "radarbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("radarbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    # Registered before execution: its dataclasses resolve their module.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _model(seed: int) -> MLP:
    model = MLP(input_dim=48, num_classes=4, hidden_dims=(24,), seed=seed)
    quantize_model(model)
    return model


def test_traced_forward_and_tick_record_kernel_spans():
    spans = _load_spans()
    config = RadarConfig(group_size=8)
    runtime = ProtectedInference(_model(0), config, check_every=1, num_shards=2)
    engine = VerificationEngine(config, num_shards=4)
    for index in range(3):
        engine.register(f"m{index}", _model(1 + index))
    inputs = np.random.default_rng(0).standard_normal((2, 48)).astype(np.float32)
    originals = {
        "forward": ProtectedInference.__dict__["forward"],
        "tick": VerificationEngine.__dict__["tick"],
    }

    tracer = spans.SpanTracer().install()
    try:
        tracer.recording = True
        with tracer.call("call"):
            runtime.forward(inputs)
        with tracer.call("call"):
            engine.tick()
    finally:
        tracer.restore()

    recorded = {span.name for span in tracer.spans}
    assert {"runtime.forward", "fleet.tick"} <= recorded
    assert "signature.mismatched_rows" in recorded
    assert "signature.stacked_verify" in recorded
    kernel = [span for span in tracer.spans if span.name in spans.KERNEL_SPANS]
    assert all(span.groups > 0 for span in kernel)
    assert ProtectedInference.__dict__["forward"] is originals["forward"]
    assert VerificationEngine.__dict__["tick"] is originals["tick"]
