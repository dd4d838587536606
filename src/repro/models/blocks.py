"""Residual building blocks shared by the CIFAR and ImageNet ResNets."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.layers import BatchNorm2d, Identity, ReLU, Sequential
from repro.nn.module import Module
from repro.quant.layers import QuantConv2d
from repro.utils.rng import new_rng


def conv3x3(
    in_channels: int,
    out_channels: int,
    stride: int = 1,
    rng: Optional[np.random.Generator] = None,
) -> QuantConv2d:
    """3x3 quantized convolution with padding 1 and no bias."""
    return QuantConv2d(
        in_channels, out_channels, kernel_size=3, stride=stride, padding=1, bias=False, rng=rng
    )


def conv1x1(
    in_channels: int,
    out_channels: int,
    stride: int = 1,
    rng: Optional[np.random.Generator] = None,
) -> QuantConv2d:
    """1x1 quantized convolution (projection shortcut)."""
    return QuantConv2d(
        in_channels, out_channels, kernel_size=1, stride=stride, padding=0, bias=False, rng=rng
    )


class BasicBlock(Module):
    """Standard two-convolution residual block with identity or projection shortcut."""

    expansion = 1

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        stride: int = 1,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else new_rng("basic-block")
        self.conv1 = conv3x3(in_channels, out_channels, stride, rng)
        self.bn1 = BatchNorm2d(out_channels)
        self.relu1 = ReLU()
        self.conv2 = conv3x3(out_channels, out_channels, 1, rng)
        self.bn2 = BatchNorm2d(out_channels)
        self.relu2 = ReLU()

        if stride != 1 or in_channels != out_channels * self.expansion:
            self.downsample = Sequential(
                conv1x1(in_channels, out_channels * self.expansion, stride, rng),
                BatchNorm2d(out_channels * self.expansion),
            )
        else:
            self.downsample = Identity()

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        out = self.conv1(inputs)
        out = self.bn1(out)
        out = self.relu1(out)
        out = self.conv2(out)
        out = self.bn2(out)
        out += self.downsample(inputs)
        return self.relu2(out)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad = self.relu2.backward(grad_output)
        # The addition fans the gradient out to both branches unchanged.
        grad_main = self.bn2.backward(grad)
        grad_main = self.conv2.backward(grad_main)
        grad_main = self.relu1.backward(grad_main)
        grad_main = self.bn1.backward(grad_main)
        grad_main = self.conv1.backward(grad_main)
        grad_shortcut = self.downsample.backward(grad)
        return grad_main + grad_shortcut
