"""``Module`` and ``Parameter`` base classes.

A :class:`Module` owns named :class:`Parameter` objects and named child
modules.  The forward pass is explicit (``forward(x)``) and each module
implements ``backward(grad_output)`` that consumes the cache saved during
the last forward call and accumulates parameter gradients in
``Parameter.grad``.  This explicit-graph design (rather than a taped
autograd) keeps the framework small and the computation costs easy to
model for the timing simulator.

Caches are kept only outside :func:`no_grad`.  Inside it, a forward
computes its output and nothing else: every layer it runs sets its cache
to ``None``, so a later ``backward`` raises instead of reusing the cache
of an earlier forward.  Protected inference and accuracy evaluation run
under it; training and the gradient-based attacks do not.
"""

from __future__ import annotations

import contextlib
import threading
from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.tensor.dtypes import FLOAT_DTYPE

from repro.errors import ShapeError

_grad_mode = threading.local()


def is_grad_enabled() -> bool:
    """Whether forwards on this thread keep the caches ``backward`` needs."""
    return getattr(_grad_mode, "enabled", True)


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Run forwards on this thread without keeping backward caches.

    The mode is per thread, as in ``torch.no_grad``: a scope on one thread
    leaves the caches of a forward and backward on another thread alone.
    """
    previous = is_grad_enabled()
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = previous


class Parameter:
    """A trainable tensor with an associated gradient buffer.

    Attributes
    ----------
    data:
        The parameter value (ndarray of ``repro.tensor.dtypes.FLOAT_DTYPE``).
    grad:
        Accumulated gradient of the loss w.r.t. ``data``; ``None`` until the
        first backward pass (or after :meth:`zero_grad`).
    requires_grad:
        When ``False`` the optimizers skip this parameter and modules do not
        accumulate its gradient.
    """

    def __init__(self, data: np.ndarray, requires_grad: bool = True) -> None:
        self.data = np.asarray(data, dtype=FLOAT_DTYPE)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return int(self.data.size)

    def zero_grad(self) -> None:
        self.grad = None

    def accumulate_grad(self, grad: np.ndarray) -> None:
        """Add ``grad`` into the gradient buffer (creating it if needed)."""
        if not self.requires_grad:
            return
        if grad.shape != self.data.shape:
            raise ShapeError(
                f"Gradient shape {grad.shape} does not match parameter shape {self.data.shape}"
            )
        if self.grad is None:
            self.grad = grad.astype(FLOAT_DTYPE, copy=True)
        else:
            self.grad += grad

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Parameter(shape={self.data.shape}, requires_grad={self.requires_grad})"


class Module:
    """Base class for all layers and models."""

    def __init__(self) -> None:
        self._parameters: "OrderedDict[str, Parameter]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()
        self._buffers: "OrderedDict[str, np.ndarray]" = OrderedDict()
        self.training = True

    # -- attribute plumbing -------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", OrderedDict())[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", OrderedDict())[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register a non-trainable persistent tensor (e.g. running stats)."""
        self._buffers[name] = np.asarray(value, dtype=FLOAT_DTYPE)
        object.__setattr__(self, name, self._buffers[name])

    def set_buffer(self, name: str, value: np.ndarray) -> None:
        """Overwrite a previously registered buffer."""
        if name not in self._buffers:
            raise KeyError(f"No buffer named {name!r} registered on {type(self).__name__}")
        self._buffers[name] = np.asarray(value, dtype=FLOAT_DTYPE)
        object.__setattr__(self, name, self._buffers[name])

    # -- traversal ----------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for child_name, child in self._modules.items():
            yield from child.named_parameters(prefix=f"{prefix}{child_name}.")

    def parameters(self) -> List[Parameter]:
        return [param for _, param in self.named_parameters()]

    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        yield (prefix.rstrip("."), self)
        for child_name, child in self._modules.items():
            yield from child.named_modules(prefix=f"{prefix}{child_name}.")

    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        for name in self._buffers:
            yield (f"{prefix}{name}", self._buffers[name])
        for child_name, child in self._modules.items():
            yield from child.named_buffers(prefix=f"{prefix}{child_name}.")

    def children(self) -> List["Module"]:
        return list(self._modules.values())

    # -- mode ---------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        self.training = mode
        for child in self._modules.values():
            child.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    # -- gradients ----------------------------------------------------------
    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    # -- forward / backward -------------------------------------------------
    def forward(self, inputs: np.ndarray) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, inputs: np.ndarray) -> np.ndarray:
        return self.forward(inputs)

    # -- state dict ---------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Flat mapping of parameter and buffer names to arrays (copies)."""
        state: Dict[str, np.ndarray] = {}
        for name, param in self.named_parameters():
            state[name] = param.data.copy()
        for name, buffer in self.named_buffers():
            state[name] = np.asarray(buffer).copy()
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray], strict: bool = True) -> None:
        """Load parameters and buffers from a flat mapping."""
        own_params = dict(self.named_parameters())
        own_buffer_names = {name for name, _ in self.named_buffers()}
        missing = (set(own_params) | own_buffer_names) - set(state)
        unexpected = set(state) - (set(own_params) | own_buffer_names)
        if strict and (missing or unexpected):
            raise KeyError(
                f"state_dict mismatch: missing={sorted(missing)}, unexpected={sorted(unexpected)}"
            )
        for name, param in own_params.items():
            if name in state:
                value = np.asarray(state[name], dtype=FLOAT_DTYPE)
                if value.shape != param.data.shape:
                    raise ShapeError(
                        f"Parameter {name!r}: cannot load shape {value.shape} into {param.data.shape}"
                    )
                param.data = value.copy()
        # Buffers live on (possibly nested) modules; walk and set them.
        for module_name, module in self.named_modules():
            for buffer_name in list(module._buffers):
                full_name = f"{module_name}.{buffer_name}" if module_name else buffer_name
                if full_name in state:
                    module.set_buffer(buffer_name, state[full_name])

    # -- introspection ------------------------------------------------------
    def num_parameters(self, trainable_only: bool = False) -> int:
        """Total number of scalar parameters."""
        return sum(
            param.size
            for param in self.parameters()
            if (param.requires_grad or not trainable_only)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        child_repr = ", ".join(self._modules)
        return f"{type(self).__name__}({child_repr})"
