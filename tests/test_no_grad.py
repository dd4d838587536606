"""The cache-free inference forward: :func:`repro.nn.module.no_grad`.

Under ``no_grad`` every layer computes only its output.  These tests pin
that the logits are byte-for-byte those of the cached eval forward, that
no layer keeps (or leaves behind) backward state, and that the mode is
per thread.
"""

from __future__ import annotations

import functools
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ProtectedInference, RadarConfig
from repro.data.synthetic import Dataset
from repro.models.resnet_cifar import resnet20
from repro.models.resnet_imagenet import resnet18
from repro.models.small import MLP, LeNet5
from repro.models.training import evaluate_accuracy
from repro.nn import CrossEntropyLoss, MaxPool2d, is_grad_enabled, no_grad
from repro.nn.layers import BatchNorm2d
from repro.quant.layers import quantize_model
from repro.tensor import functional as F

#: ``kind -> (builder, per-sample input shape)``; ResNet-18 in both stems.
MODELS = {
    "lenet": (lambda: LeNet5(num_classes=4, seed=1), (3, 32, 32)),
    "mlp": (lambda: MLP(input_dim=48, num_classes=4, hidden_dims=(37, 24), seed=1), (48,)),
    "resnet20": (lambda: resnet20(seed=1), (3, 32, 32)),
    "resnet18": (lambda: resnet18(num_classes=5, small_input=False, seed=1), (3, 32, 32)),
    "resnet18-small-input": (lambda: resnet18(num_classes=5, small_input=True, seed=1), (3, 8, 8)),
}


@functools.lru_cache(maxsize=None)
def _model(kind: str):
    """A quantized eval-mode model whose batch norms have non-trivial statistics."""
    builder, _ = MODELS[kind]
    model = quantize_model(builder())
    rng = np.random.default_rng(7)
    for _, module in model.named_modules():
        if isinstance(module, BatchNorm2d):
            channels = module.num_features
            module.set_buffer("running_mean", rng.normal(0.0, 0.2, channels))
            module.set_buffer("running_var", rng.uniform(0.5, 2.0, channels))
            module.weight.data = rng.uniform(0.5, 1.5, channels).astype(np.float32)
            module.bias.data = rng.normal(0.0, 0.2, channels).astype(np.float32)
    return model.eval()


def _images(kind: str, batch: int, seed: int) -> np.ndarray:
    _, shape = MODELS[kind]
    return np.random.default_rng(seed).standard_normal((batch, *shape)).astype(np.float32)


def _backward_state(model):
    """Every cache a backward pass would read, by module name."""
    return {
        name: getattr(module, attribute)
        for name, module in model.named_modules()
        for attribute in ("_cache", "_input_shape")
        if getattr(module, attribute, None) is not None
    }


class TestNoGradForward:
    @settings(max_examples=12, deadline=None)
    @given(
        st.sampled_from(sorted(MODELS)),
        st.integers(1, 4),
        st.integers(0, 2**16),
    )
    def test_logits_are_bytes_equal_to_the_cached_forward(self, kind, batch, seed):
        model = _model(kind)
        images = _images(kind, batch, seed)
        cached = model(images)
        with no_grad():
            logits = model(images)
        assert logits.dtype == cached.dtype
        assert logits.tobytes() == cached.tobytes()

    @pytest.mark.parametrize("kind", sorted(MODELS))
    def test_keeps_no_backward_state(self, kind):
        model = _model(kind)
        model(_images(kind, 2, 0))
        assert _backward_state(model)
        with no_grad():
            model(_images(kind, 2, 1))
        assert _backward_state(model) == {}

    @pytest.mark.parametrize("kind", ["lenet", "resnet18"])
    def test_backward_after_a_no_grad_forward_raises(self, kind):
        model = _model(kind)
        model(_images(kind, 2, 0))
        with no_grad():
            logits = model(_images(kind, 2, 1))
        with pytest.raises(RuntimeError, match="backward called before forward"):
            model.backward(np.ones_like(logits))

    def test_restores_the_mode_on_exit_and_on_error(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
            with no_grad():
                assert not is_grad_enabled()
            assert not is_grad_enabled()
        assert is_grad_enabled()
        with pytest.raises(ValueError):
            with no_grad():
                raise ValueError("inside the scope")
        assert is_grad_enabled()

    def test_scope_on_one_thread_keeps_another_threads_caches(self):
        # A no_grad scope stays open on one thread while another thread runs
        # a forward and backward, as a gradient attack beside a runtime would.
        entered, release = threading.Event(), threading.Event()

        def hold_scope():
            with no_grad():
                entered.set()
                release.wait(timeout=30)

        holder = threading.Thread(target=hold_scope)
        holder.start()
        try:
            assert entered.wait(timeout=30)
            model = LeNet5(num_classes=4, seed=3)
            images = _images("lenet", 2, 3)
            criterion = CrossEntropyLoss()
            criterion(model(images), np.array([0, 1]))
            model.backward(criterion.backward())
            assert all(param.grad is not None for param in model.parameters())
        finally:
            release.set()
            holder.join(timeout=30)
        assert not holder.is_alive()


class TestInferenceCallers:
    @pytest.mark.parametrize("num_shards", [None, 4])
    def test_protected_forward_keeps_no_backward_state(self, num_shards):
        model = quantize_model(LeNet5(num_classes=4, seed=5))
        runtime = ProtectedInference(model, RadarConfig(group_size=16), num_shards=num_shards)
        images = _images("lenet", 2, 5)
        model(images)
        logits = runtime(images).logits
        assert _backward_state(model) == {}
        assert logits.tobytes() == model(images).tobytes()

    def test_evaluate_accuracy_keeps_no_backward_state(self):
        model = quantize_model(LeNet5(num_classes=4, seed=6))
        images = _images("lenet", 6, 6)
        labels = np.arange(6) % 4
        model(images)
        accuracy = evaluate_accuracy(model, Dataset(images, labels), batch_size=4)
        assert accuracy == float((model(images).argmax(axis=1) == labels).mean())
        with no_grad():
            evaluate_accuracy(model, Dataset(images, labels), batch_size=4)
        assert _backward_state(model) == {}


class TestMaxPool:
    """``max_pool2d`` against ``max_pool2d_forward``: the argmax's first maximum."""

    @staticmethod
    def _assert_same(inputs, kernel, stride, padding):
        expected, _ = F.max_pool2d_forward(inputs, kernel, stride, padding)
        output = F.max_pool2d(inputs, kernel, stride, padding)
        assert output.shape == expected.shape
        assert output.tobytes() == expected.tobytes()
        return output

    def test_signed_zero_ties_keep_the_first_in_kernel_order(self):
        for first, second in ((0.0, -0.0), (-0.0, 0.0)):
            inputs = np.full((1, 1, 4, 4), -1.0, dtype=np.float32)
            inputs[0, 0, 0, 1] = first
            inputs[0, 0, 1, 0] = second
            output = self._assert_same(inputs, 2, 2, 0)
            assert np.signbit(output[0, 0, 0, 0]) == np.signbit(first)

    def test_nan_windows_take_the_first_nan(self):
        inputs = np.arange(36, dtype=np.float32).reshape(1, 1, 6, 6)
        inputs[0, 0, 0, 1] = np.nan
        inputs[0, 0, 4, 5] = np.nan
        output = self._assert_same(inputs, 3, 2, 1)
        assert np.isnan(output).sum() == 3

    def test_padding_never_wins(self):
        inputs = -np.ones((2, 3, 5, 5), dtype=np.float32)
        inputs[:, :, ::2, ::2] = -0.0
        output = self._assert_same(inputs, 3, 2, 1)
        assert np.isfinite(output).all()

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from([(2, 2, 0), (3, 2, 1), (3, 1, 1), (2, 1, 0)]),
        st.integers(1, 3),
        st.integers(2, 7),
        st.booleans(),
        st.integers(0, 2**16),
    )
    def test_matches_the_argmax_kernel(self, pool, batch, size, relu, seed):
        kernel, stride, padding = pool
        size = max(size, kernel - 2 * padding)
        rng = np.random.default_rng(seed)
        # Few distinct values, so ties (and after the ReLU, +-0 ties) are common.
        inputs = rng.integers(-2, 3, size=(batch, 3, size, size)).astype(np.float32)
        if relu:
            inputs, _ = F.relu_forward(inputs)
        self._assert_same(inputs, kernel, stride, padding)

    def test_layer_uses_it_under_no_grad(self):
        inputs = np.random.default_rng(0).standard_normal((2, 3, 7, 7)).astype(np.float32)
        layer = MaxPool2d(3, stride=2, padding=1)
        cached = layer(inputs)
        with no_grad():
            output = layer(inputs)
        assert layer._cache is None
        assert output.tobytes() == cached.tobytes()
