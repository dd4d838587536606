"""A small layer-graph neural-network framework on top of :mod:`repro.tensor`.

The framework intentionally mirrors a subset of the ``torch.nn`` API
(``Module``, ``Parameter``, ``state_dict`` / ``load_state_dict``,
``train`` / ``eval``) so the attack and defense code reads like the
original PyTorch reference implementations, while everything runs on
NumPy.
"""

from repro.nn.module import Module, Parameter, is_grad_enabled, no_grad
from repro.nn.layers import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Flatten,
    GlobalAvgPool2d,
    Identity,
    Linear,
    MaxPool2d,
    ReLU,
    Sequential,
)
from repro.nn.loss import CrossEntropyLoss
from repro.nn.optim import SGD, Adam, Optimizer
from repro.nn.scheduler import CosineAnnealingLR, MultiStepLR, StepLR
from repro.nn import init

__all__ = [
    "Module",
    "Parameter",
    "no_grad",
    "is_grad_enabled",
    "Conv2d",
    "Linear",
    "BatchNorm2d",
    "ReLU",
    "MaxPool2d",
    "AvgPool2d",
    "GlobalAvgPool2d",
    "Flatten",
    "Identity",
    "Sequential",
    "CrossEntropyLoss",
    "Optimizer",
    "SGD",
    "Adam",
    "StepLR",
    "MultiStepLR",
    "CosineAnnealingLR",
    "init",
]
