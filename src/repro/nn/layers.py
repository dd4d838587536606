"""Standard floating-point layers (Conv2d, Linear, BatchNorm2d, pooling, ...).

Quantized variants used by the RADAR experiments live in
:mod:`repro.quant.layers`; they subclass the layers defined here.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.errors import ShapeError
from repro.nn import init
from repro.nn.module import Module, Parameter, is_grad_enabled
from repro.tensor import functional as F
from repro.utils.rng import new_rng


def _kept(cache):
    """``cache`` outside :func:`~repro.nn.module.no_grad`, ``None`` inside it."""
    return cache if is_grad_enabled() else None


class Conv2d(Module):
    """2-D convolution layer in NCHW layout (no bias by default, as in ResNet)."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = False,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        rng = rng if rng is not None else new_rng("conv2d-init")
        weight_shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.weight = Parameter(init.kaiming_normal(weight_shape, rng))
        self.bias = Parameter(init.zeros((out_channels,))) if bias else None
        self._cache = None

    def effective_weight(self) -> np.ndarray:
        """Weight actually used by the forward pass.

        Overridden by the quantized subclass to return the dequantized
        (possibly attacked) integer weights.
        """
        return self.weight.data

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        """Convolve ``(N, C_in, H, W)`` inputs to ``(N, C_out, out_h, out_w)``.

        The output's memory is channel-major (see
        :func:`repro.tensor.functional.conv2d_forward`).  The columns are
        built before the weight is read, so a streamed protected forward's
        wait for this layer's verdict overlaps the unfold.
        """
        columns = F.conv2d_columns(inputs, self.weight.shape, self.stride, self.padding)
        bias = self.bias.data if self.bias is not None else None
        output, cache = F.conv2d_multiply(
            columns, self.effective_weight(), bias, inputs.shape, self.stride, self.padding
        )
        self._cache = _kept(cache)
        return output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward on Conv2d")
        weight = self.effective_weight()
        grad_input, grad_weight, grad_bias = F.conv2d_backward(
            grad_output, weight, self._cache
        )
        self.weight.accumulate_grad(grad_weight)
        if self.bias is not None and grad_bias is not None:
            self.bias.accumulate_grad(grad_bias)
        return grad_input


class Linear(Module):
    """Fully connected layer ``y = x W^T + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        rng = rng if rng is not None else new_rng("linear-init")
        self.weight = Parameter(init.kaiming_uniform((out_features, in_features), rng))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None
        self._cache = None

    def effective_weight(self) -> np.ndarray:
        """Weight used by the forward pass (see :meth:`Conv2d.effective_weight`)."""
        return self.weight.data

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        weight = self.effective_weight()
        bias = self.bias.data if self.bias is not None else None
        output, cache = F.linear_forward(inputs, weight, bias)
        self._cache = _kept(cache)
        return output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward on Linear")
        weight = self.effective_weight()
        grad_input, grad_weight, grad_bias = F.linear_backward(
            grad_output, weight, self._cache
        )
        self.weight.accumulate_grad(grad_weight)
        if self.bias is not None and grad_bias is not None:
            self.bias.accumulate_grad(grad_bias)
        return grad_input


class BatchNorm2d(Module):
    """Per-channel batch normalization for NCHW tensors."""

    def __init__(self, num_features: int, momentum: float = 0.1, eps: float = 1e-5) -> None:
        super().__init__()
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.weight = Parameter(init.ones((num_features,)))
        self.bias = Parameter(init.zeros((num_features,)))
        self.register_buffer("running_mean", init.zeros((num_features,)))
        self.register_buffer("running_var", init.ones((num_features,)))
        self._cache = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        if inputs.shape[1] != self.num_features:
            raise ShapeError(
                f"BatchNorm2d expected {self.num_features} channels, got {inputs.shape[1]}"
            )
        if not (self.training or is_grad_enabled()):
            self._cache = None
            return F.batchnorm_inference(
                inputs,
                self.weight.data,
                self.bias.data,
                self.running_mean,
                self.running_var,
                eps=self.eps,
            )
        output, cache, new_mean, new_var = F.batchnorm_forward(
            inputs,
            self.weight.data,
            self.bias.data,
            self.running_mean,
            self.running_var,
            training=self.training,
            momentum=self.momentum,
            eps=self.eps,
        )
        self._cache = _kept(cache)
        if self.training:
            self.set_buffer("running_mean", new_mean)
            self.set_buffer("running_var", new_var)
        return output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward on BatchNorm2d")
        grad_input, grad_gamma, grad_beta = F.batchnorm_backward(grad_output, self._cache)
        self.weight.accumulate_grad(grad_gamma)
        self.bias.accumulate_grad(grad_beta)
        return grad_input


class ReLU(Module):
    """Rectified linear unit."""

    def __init__(self) -> None:
        super().__init__()
        self._cache = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        output, cache = F.relu_forward(inputs)
        self._cache = _kept(cache)
        return output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward on ReLU")
        return F.relu_backward(grad_output, self._cache)


class MaxPool2d(Module):
    """Max pooling over square windows."""

    def __init__(self, kernel_size: int, stride: Optional[int] = None, padding: int = 0) -> None:
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride or kernel_size
        self.padding = padding
        self._cache = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        if not is_grad_enabled():
            self._cache = None
            return F.max_pool2d(inputs, self.kernel_size, self.stride, self.padding)
        output, self._cache = F.max_pool2d_forward(
            inputs, self.kernel_size, self.stride, self.padding
        )
        return output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward on MaxPool2d")
        return F.max_pool2d_backward(grad_output, self._cache)


class AvgPool2d(Module):
    """Average pooling over square windows."""

    def __init__(self, kernel_size: int, stride: Optional[int] = None, padding: int = 0) -> None:
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride or kernel_size
        self.padding = padding
        self._cache = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        output, cache = F.avg_pool2d_forward(
            inputs, self.kernel_size, self.stride, self.padding
        )
        self._cache = _kept(cache)
        return output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward on AvgPool2d")
        return F.avg_pool2d_backward(grad_output, self._cache)


class GlobalAvgPool2d(Module):
    """Global average pooling ``(N, C, H, W) -> (N, C)``."""

    def __init__(self) -> None:
        super().__init__()
        self._cache = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        output, cache = F.global_avg_pool_forward(inputs)
        self._cache = _kept(cache)
        return output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward on GlobalAvgPool2d")
        return F.global_avg_pool_backward(grad_output, self._cache)


class Flatten(Module):
    """Flatten all dimensions except the batch dimension."""

    def __init__(self) -> None:
        super().__init__()
        self._input_shape = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        self._input_shape = _kept(inputs.shape)
        return inputs.reshape(inputs.shape[0], -1)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input_shape is None:
            raise RuntimeError("backward called before forward on Flatten")
        return grad_output.reshape(self._input_shape)


class Identity(Module):
    """Pass-through layer (used for residual shortcuts without projection)."""

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        return inputs

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return grad_output


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self._layers: List[Module] = []
        for index, module in enumerate(modules):
            setattr(self, f"layer{index}", module)
            self._layers.append(module)

    def append(self, module: Module) -> "Sequential":
        index = len(self._layers)
        setattr(self, f"layer{index}", module)
        self._layers.append(module)
        return self

    def __len__(self) -> int:
        return len(self._layers)

    def __getitem__(self, index: int) -> Module:
        return self._layers[index]

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        output = inputs
        for layer in self._layers:
            output = layer(output)
        return output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad = grad_output
        for layer in reversed(self._layers):
            grad = layer.backward(grad)
        return grad
