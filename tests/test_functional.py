"""Tests for the forward/backward compute kernels (numerical gradient checks)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from repro.errors import ShapeError
from repro.models.resnet_cifar import resnet20
from repro.nn.layers import Conv2d
from repro.quant.layers import quantize_model
from repro.quant.quantizer import QuantParams, dequantize
from repro.tensor import functional as F


def numerical_gradient(function, array, epsilon=1e-5):
    """Central-difference gradient of a scalar function w.r.t. ``array``."""
    gradient = np.zeros_like(array, dtype=np.float64)
    flat = array.reshape(-1)
    grad_flat = gradient.reshape(-1)
    for index in range(flat.size):
        original = flat[index]
        flat[index] = original + epsilon
        upper = function()
        flat[index] = original - epsilon
        lower = function()
        flat[index] = original
        grad_flat[index] = (upper - lower) / (2 * epsilon)
    return gradient


class TestConv2d:
    def test_forward_shape_and_bias(self, rng):
        inputs = rng.normal(size=(2, 3, 8, 8))
        weight = rng.normal(size=(4, 3, 3, 3))
        bias = rng.normal(size=(4,))
        output, _ = F.conv2d_forward(inputs, weight, bias, stride=1, padding=1)
        assert output.shape == (2, 4, 8, 8)
        output_no_bias, _ = F.conv2d_forward(inputs, weight, None, stride=1, padding=1)
        np.testing.assert_allclose(output - output_no_bias, np.broadcast_to(
            bias.reshape(1, 4, 1, 1), output.shape), atol=1e-10)

    def test_channel_mismatch_raises(self, rng):
        with pytest.raises(ShapeError):
            F.conv2d_forward(rng.normal(size=(1, 2, 4, 4)), rng.normal(size=(3, 5, 3, 3)))

    def test_gradients_match_numerical(self, rng):
        inputs = rng.normal(size=(2, 2, 5, 5))
        weight = rng.normal(size=(3, 2, 3, 3))
        bias = rng.normal(size=(3,))
        cotangent = rng.normal(size=(2, 3, 3, 3))

        def loss():
            out, _ = F.conv2d_forward(inputs, weight, bias, stride=2, padding=1)
            return float((out * cotangent).sum())

        output, cache = F.conv2d_forward(inputs, weight, bias, stride=2, padding=1)
        assert output.shape == cotangent.shape
        grad_input, grad_weight, grad_bias = F.conv2d_backward(cotangent, weight, cache)
        np.testing.assert_allclose(grad_input, numerical_gradient(loss, inputs), atol=1e-6)
        np.testing.assert_allclose(grad_weight, numerical_gradient(loss, weight), atol=1e-6)
        np.testing.assert_allclose(grad_bias, numerical_gradient(loss, bias), atol=1e-6)


def reference_conv2d(inputs, weight, bias=None, stride=1, padding=0):
    """Direct float64 convolution: an einsum over the padded input's windows."""
    padded = np.pad(
        np.asarray(inputs, dtype=np.float64),
        ((0, 0), (0, 0), (padding, padding), (padding, padding)),
    )
    kernel_h, kernel_w = weight.shape[2:]
    windows = sliding_window_view(padded, (kernel_h, kernel_w), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride]
    output = np.einsum("nchwij,ocij->nohw", windows, np.asarray(weight, dtype=np.float64))
    if bias is not None:
        output = output + np.asarray(bias, dtype=np.float64)[None, :, None, None]
    return output


def channel_major(images):
    """``images`` with the memory order a conv output has: a transposed view
    of a contiguous ``(C, N, H, W)`` array."""
    return np.ascontiguousarray(images.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)


@st.composite
def conv_cases(draw):
    kernel = draw(st.sampled_from([1, 3, 7]))
    padding = draw(st.sampled_from([0, 1, 3]))
    smallest = max(1, kernel - 2 * padding)
    return {
        "batch": draw(st.sampled_from([1, 3, 8])),
        "kernel": kernel,
        "stride": draw(st.sampled_from([1, 2])),
        "padding": padding,
        "height": draw(st.integers(smallest, smallest + 6)),
        "width": draw(st.integers(smallest, smallest + 6)),
        "in_channels": draw(st.integers(1, 4)),
        "out_channels": draw(st.integers(1, 5)),
        "with_bias": draw(st.booleans()),
        "channel_major": draw(st.booleans()),
        "seed": draw(st.integers(0, 2**16)),
    }


class TestConv2dAgainstReference:
    """``conv2d_forward`` / ``conv2d_backward`` against a direct float64 reference."""

    @settings(max_examples=80, deadline=None)
    @given(conv_cases())
    def test_forward_matches_float64_reference(self, case):
        rng = np.random.default_rng(case["seed"])
        inputs = rng.normal(
            size=(case["batch"], case["in_channels"], case["height"], case["width"])
        ).astype(np.float32)
        if case["channel_major"]:
            inputs = channel_major(inputs)
        kernel = case["kernel"]
        weight = rng.normal(
            size=(case["out_channels"], case["in_channels"], kernel, kernel)
        ).astype(np.float32)
        bias = rng.normal(size=case["out_channels"]).astype(np.float32) if case["with_bias"] else None

        output, _ = F.conv2d_forward(inputs, weight, bias, case["stride"], case["padding"])
        expected = reference_conv2d(inputs, weight, bias, case["stride"], case["padding"])
        assert output.dtype == np.float32
        assert output.shape == expected.shape
        np.testing.assert_allclose(output, expected, rtol=1e-4, atol=1e-4)

    def test_output_memory_is_channel_major(self, rng):
        inputs = rng.normal(size=(3, 2, 6, 6)).astype(np.float32)
        weight = rng.normal(size=(4, 2, 3, 3)).astype(np.float32)
        output, _ = F.conv2d_forward(inputs, weight, None, stride=1, padding=1)
        assert output.transpose(1, 0, 2, 3).flags.c_contiguous

    def test_gradients_match_numerical_on_channel_major_input(self, rng):
        # Perturb the contiguous (C, N, H, W) base; the conv reads its view.
        base = rng.normal(size=(2, 3, 5, 5))
        inputs = base.transpose(1, 0, 2, 3)
        weight = rng.normal(size=(3, 2, 3, 3))
        bias = rng.normal(size=(3,))
        cotangent = rng.normal(size=(3, 3, 3, 3))

        def loss():
            out, _ = F.conv2d_forward(inputs, weight, bias, stride=2, padding=1)
            return float((out * cotangent).sum())

        output, cache = F.conv2d_forward(inputs, weight, bias, stride=2, padding=1)
        assert output.shape == cotangent.shape
        grad_input, grad_weight, grad_bias = F.conv2d_backward(cotangent, weight, cache)
        np.testing.assert_allclose(
            grad_input, numerical_gradient(loss, base).transpose(1, 0, 2, 3), atol=1e-6
        )
        np.testing.assert_allclose(grad_weight, numerical_gradient(loss, weight), atol=1e-6)
        np.testing.assert_allclose(grad_bias, numerical_gradient(loss, bias), atol=1e-6)

    def test_resnet20_logits_match_float64_reference(self, monkeypatch):
        model = resnet20(seed=3)
        quantize_model(model)
        model.eval()
        inputs = np.random.default_rng(0).normal(size=(8, 3, 32, 32)).astype(np.float32)
        logits = model(inputs)

        # Same model, float64 activations, every conv replaced by the reference.
        monkeypatch.setattr(
            Conv2d,
            "forward",
            lambda self, inputs: reference_conv2d(
                inputs, self.effective_weight(), None, self.stride, self.padding
            ),
        )
        expected = model(inputs.astype(np.float64))
        assert logits.dtype == np.float32 and expected.dtype == np.float64
        np.testing.assert_allclose(logits, expected, rtol=1e-5)
        np.testing.assert_array_equal(logits.argmax(axis=1), expected.argmax(axis=1))


class TestDequantize:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(-128, 127), min_size=1, max_size=64),
        st.floats(min_value=1e-8, max_value=1e3, allow_nan=False, allow_infinity=False),
    )
    def test_bit_identical_to_cast_then_scale(self, values, scale):
        values = np.array(values + [-128, 127, 0], dtype=np.int8)
        restored = dequantize(values, QuantParams(scale=scale))
        expected = values.astype(np.float32) * scale
        assert restored.dtype == expected.dtype == np.float32
        np.testing.assert_array_equal(restored.view(np.uint32), expected.view(np.uint32))


class TestLinear:
    def test_forward_matches_matmul(self, rng):
        inputs = rng.normal(size=(4, 6))
        weight = rng.normal(size=(3, 6))
        bias = rng.normal(size=(3,))
        output, _ = F.linear_forward(inputs, weight, bias)
        np.testing.assert_allclose(output, inputs @ weight.T + bias, atol=1e-12)

    def test_rejects_bad_shapes(self, rng):
        with pytest.raises(ShapeError):
            F.linear_forward(rng.normal(size=(4, 5)), rng.normal(size=(3, 6)))
        with pytest.raises(ShapeError):
            F.linear_forward(rng.normal(size=(4, 5, 2)), rng.normal(size=(3, 10)))

    def test_gradients_match_numerical(self, rng):
        inputs = rng.normal(size=(3, 5))
        weight = rng.normal(size=(4, 5))
        bias = rng.normal(size=(4,))
        cotangent = rng.normal(size=(3, 4))

        def loss():
            out, _ = F.linear_forward(inputs, weight, bias)
            return float((out * cotangent).sum())

        _, cache = F.linear_forward(inputs, weight, bias)
        grad_input, grad_weight, grad_bias = F.linear_backward(cotangent, weight, cache)
        np.testing.assert_allclose(grad_input, numerical_gradient(loss, inputs), atol=1e-6)
        np.testing.assert_allclose(grad_weight, numerical_gradient(loss, weight), atol=1e-6)
        np.testing.assert_allclose(grad_bias, numerical_gradient(loss, bias), atol=1e-6)


class TestReLU:
    def test_forward_zeroes_negatives(self):
        values = np.array([[-1.0, 0.0, 2.0]])
        output, _ = F.relu_forward(values)
        np.testing.assert_array_equal(output, [[0.0, 0.0, 2.0]])

    def test_backward_masks_gradient(self):
        values = np.array([[-1.0, 0.5, 2.0]])
        _, cache = F.relu_forward(values)
        grad = F.relu_backward(np.ones_like(values), cache)
        np.testing.assert_array_equal(grad, [[0.0, 1.0, 1.0]])


class TestBatchNorm:
    def test_train_mode_normalizes(self, rng):
        inputs = rng.normal(loc=3.0, scale=2.0, size=(8, 4, 5, 5))
        gamma, beta = np.ones(4), np.zeros(4)
        output, _, new_mean, new_var = F.batchnorm_forward(
            inputs, gamma, beta, np.zeros(4), np.ones(4), training=True
        )
        assert abs(float(output.mean())) < 1e-6
        assert float(output.var()) == pytest.approx(1.0, abs=1e-3)
        # Running statistics move toward the batch statistics.
        assert np.all(new_mean > 0)

    def test_eval_mode_uses_running_stats(self, rng):
        inputs = rng.normal(size=(4, 2, 3, 3))
        running_mean, running_var = np.array([1.0, -1.0]), np.array([4.0, 0.25])
        output, _, mean_out, var_out = F.batchnorm_forward(
            inputs, np.ones(2), np.zeros(2), running_mean, running_var, training=False
        )
        expected = (inputs - running_mean.reshape(1, 2, 1, 1)) / np.sqrt(
            running_var.reshape(1, 2, 1, 1) + 1e-5
        )
        np.testing.assert_allclose(output, expected, atol=1e-10)
        np.testing.assert_array_equal(mean_out, running_mean)
        np.testing.assert_array_equal(var_out, running_var)

    def test_gradients_match_numerical_train_mode(self, rng):
        inputs = rng.normal(size=(3, 2, 4, 4))
        gamma = rng.normal(size=(2,)) + 1.5
        beta = rng.normal(size=(2,))
        cotangent = rng.normal(size=inputs.shape)

        def loss():
            out, _, _, _ = F.batchnorm_forward(
                inputs, gamma, beta, np.zeros(2), np.ones(2), training=True
            )
            return float((out * cotangent).sum())

        _, cache, _, _ = F.batchnorm_forward(
            inputs, gamma, beta, np.zeros(2), np.ones(2), training=True
        )
        grad_input, grad_gamma, grad_beta = F.batchnorm_backward(cotangent, cache)
        np.testing.assert_allclose(grad_input, numerical_gradient(loss, inputs), atol=1e-5)
        np.testing.assert_allclose(grad_gamma, numerical_gradient(loss, gamma), atol=1e-5)
        np.testing.assert_allclose(grad_beta, numerical_gradient(loss, beta), atol=1e-5)

    def test_rejects_non_4d(self):
        with pytest.raises(ShapeError):
            F.batchnorm_forward(
                np.zeros((2, 3)), np.ones(3), np.zeros(3), np.zeros(3), np.ones(3), True
            )


class TestPooling:
    def test_max_pool_forward(self):
        inputs = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        output, _ = F.max_pool2d_forward(inputs, kernel_size=2, stride=2)
        np.testing.assert_array_equal(output.reshape(-1), [5, 7, 13, 15])

    def test_max_pool_negative_inputs_with_padding(self):
        inputs = -np.ones((1, 1, 2, 2))
        output, _ = F.max_pool2d_forward(inputs, kernel_size=3, stride=2, padding=1)
        # Padded -inf never wins; the result must be the real maximum (-1), not 0.
        assert float(output.max()) == -1.0

    def test_max_pool_gradient_routes_to_argmax(self, rng):
        inputs = rng.normal(size=(2, 3, 4, 4))
        output, cache = F.max_pool2d_forward(inputs, 2, 2)
        grad = F.max_pool2d_backward(np.ones_like(output), cache)
        assert grad.shape == inputs.shape
        # Each 2x2 window contributes exactly one unit of gradient.
        assert float(grad.sum()) == pytest.approx(output.size)
        assert set(np.unique(grad)).issubset({0.0, 1.0})

    def test_avg_pool_forward_and_backward(self, rng):
        inputs = rng.normal(size=(1, 2, 4, 4))
        output, cache = F.avg_pool2d_forward(inputs, 2, 2)
        np.testing.assert_allclose(output[0, 0, 0, 0], inputs[0, 0, :2, :2].mean())
        grad = F.avg_pool2d_backward(np.ones_like(output), cache)
        np.testing.assert_allclose(grad, np.full_like(inputs, 0.25))

    def test_global_avg_pool(self, rng):
        inputs = rng.normal(size=(2, 5, 3, 3))
        output, cache = F.global_avg_pool_forward(inputs)
        np.testing.assert_allclose(output, inputs.mean(axis=(2, 3)))
        grad = F.global_avg_pool_backward(np.ones_like(output), cache)
        np.testing.assert_allclose(grad, np.full_like(inputs, 1 / 9))


class TestSoftmaxCrossEntropy:
    def test_softmax_sums_to_one(self, rng):
        logits = rng.normal(size=(5, 7)) * 10
        probabilities = F.softmax(logits)
        np.testing.assert_allclose(probabilities.sum(axis=1), np.ones(5), atol=1e-12)

    def test_softmax_is_shift_invariant(self, rng):
        logits = rng.normal(size=(3, 4))
        np.testing.assert_allclose(F.softmax(logits), F.softmax(logits + 100.0), atol=1e-12)

    def test_log_softmax_matches_log_of_softmax(self, rng):
        logits = rng.normal(size=(3, 6))
        np.testing.assert_allclose(F.log_softmax(logits), np.log(F.softmax(logits)), atol=1e-10)

    def test_cross_entropy_perfect_prediction(self):
        logits = np.array([[100.0, 0.0, 0.0], [0.0, 100.0, 0.0]])
        loss, _ = F.cross_entropy_forward(logits, np.array([0, 1]))
        assert loss == pytest.approx(0.0, abs=1e-6)

    def test_cross_entropy_uniform_prediction(self):
        logits = np.zeros((4, 10))
        loss, _ = F.cross_entropy_forward(logits, np.zeros(4, dtype=int))
        assert loss == pytest.approx(np.log(10), rel=1e-6)

    def test_cross_entropy_gradient_matches_numerical(self, rng):
        logits = rng.normal(size=(3, 5))
        targets = np.array([1, 4, 0])

        def loss():
            value, _ = F.cross_entropy_forward(logits, targets)
            return value

        _, cache = F.cross_entropy_forward(logits, targets)
        gradient = F.cross_entropy_backward(cache)
        np.testing.assert_allclose(gradient, numerical_gradient(loss, logits), atol=1e-6)

    def test_cross_entropy_shape_validation(self):
        with pytest.raises(ShapeError):
            F.cross_entropy_forward(np.zeros((2, 3, 4)), np.zeros(2, dtype=int))
        with pytest.raises(ShapeError):
            F.cross_entropy_forward(np.zeros((2, 3)), np.zeros(3, dtype=int))
