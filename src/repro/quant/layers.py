"""Quantized convolution and linear layers.

A quantized layer keeps its weights as an int8 tensor plus a per-layer
scale.  The int8 tensor is exactly the payload that would be stored in
DRAM, so it is what the attacks corrupt and what RADAR computes its
checksums over.  The forward/backward math is inherited from the float
layers: the effective weight used for compute is ``int8 * scale``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import QuantizationError
from repro.nn.layers import Conv2d, Linear
from repro.nn.module import Module
from repro.quant.quantizer import QuantParams, dequantize, quantize_symmetric


class _QuantizedWeightMixin:
    """Shared quantized-weight behaviour for conv and linear layers."""

    def _init_quant_state(self) -> None:
        self.qweight: Optional[np.ndarray] = None
        self.quant_params: Optional[QuantParams] = None
        #: Per-call override of where :meth:`effective_weight` gets its
        #: weights; ``None`` outside a streamed protected forward.
        self.weight_source: Optional[Callable[[], np.ndarray]] = None

    # -- quantization lifecycle --------------------------------------------
    @property
    def is_quantized(self) -> bool:
        return self.qweight is not None

    def quantize(self) -> None:
        """Freeze the current float weight into the int8 + scale representation."""
        quantized, params = quantize_symmetric(self.weight.data)
        self.qweight = quantized
        self.quant_params = params

    def set_qweight(self, qweight: np.ndarray) -> None:
        """Replace the stored int8 weights (used by attacks and recovery)."""
        self._require_quantized()
        qweight = np.asarray(qweight)
        if qweight.dtype != np.int8:
            raise QuantizationError(f"qweight must be int8, got {qweight.dtype}")
        if qweight.shape != self.weight.data.shape:
            raise QuantizationError(
                f"qweight shape {qweight.shape} does not match weight shape {self.weight.data.shape}"
            )
        self.qweight = qweight.copy()

    def effective_weight(self) -> np.ndarray:
        """Dequantized weight used by forward/backward once quantized.

        While a :class:`~repro.core.runtime.ProtectedInference` forward runs
        its streamed check, ``weight_source`` is that call's gate for this
        layer: it blocks until the layer's verdict is in, recovers the
        layer's flagged groups, and returns the weights dequantized after
        verification (or from the recovered int8 weights) — so no weight is
        computed with before its layer is verified.
        """
        if self.qweight is None:
            return self.weight.data
        if self.weight_source is not None:
            return self.weight_source()
        return dequantize(self.qweight, self.quant_params)

    def weight_gradient_int(self) -> np.ndarray:
        """Gradient of the loss w.r.t. the *integer* weight values.

        The chain rule through ``w_eff = q * scale`` gives
        ``dL/dq = dL/dw_eff * scale``.  Requires a backward pass to have
        populated ``weight.grad``.
        """
        self._require_quantized()
        if self.weight.grad is None:
            raise QuantizationError("weight gradient not available; run backward first")
        return self.weight.grad * self.quant_params.scale

    def _require_quantized(self) -> None:
        if self.qweight is None:
            raise QuantizationError(
                f"{type(self).__name__} is not quantized yet; call quantize() first"
            )


class QuantConv2d(_QuantizedWeightMixin, Conv2d):
    """8-bit weight-quantized 2-D convolution."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._init_quant_state()


class QuantLinear(_QuantizedWeightMixin, Linear):
    """8-bit weight-quantized fully connected layer."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._init_quant_state()


def quantized_layers(model: Module) -> List[Tuple[str, Module]]:
    """All quantizable (conv / linear) layers of ``model`` in definition order.

    Returns ``(name, layer)`` pairs for every :class:`QuantConv2d` and
    :class:`QuantLinear` in the module tree.  The ordering is stable and is
    the canonical layer indexing used by attack profiles and signature
    stores.
    """
    layers = []
    for name, module in model.named_modules():
        if isinstance(module, (QuantConv2d, QuantLinear)):
            layers.append((name, module))
    return layers


def quantize_model(model: Module) -> Module:
    """Quantize every quantizable layer of ``model`` in place and return it."""
    layers = quantized_layers(model)
    if not layers:
        raise QuantizationError(
            "Model contains no QuantConv2d/QuantLinear layers; build it with quantized layers"
        )
    for _, layer in layers:
        layer.quantize()
    return model


def model_qweight_state(model: Module) -> Dict[str, np.ndarray]:
    """Snapshot of all int8 weight tensors, keyed by layer name (copies)."""
    return {name: layer.qweight.copy() for name, layer in quantized_layers(model) if layer.is_quantized}


def restore_qweight_state(model: Module, state: Dict[str, np.ndarray]) -> None:
    """Restore int8 weight tensors previously captured by :func:`model_qweight_state`."""
    layer_map = dict(quantized_layers(model))
    for name, qweight in state.items():
        if name not in layer_map:
            raise QuantizationError(f"Layer {name!r} not found in model")
        layer_map[name].set_qweight(qweight)
