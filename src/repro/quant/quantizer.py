"""Symmetric per-layer int8 weight quantization.

Follows the quantizer used by the Bit-Flip Attack reference implementation
(Rakin et al., ICCV 2019): weights of a layer are mapped to signed 8-bit
integers with a single power-free scale ``s = max(|w|) / 127`` so that

``w_int = clip(round(w / s), -127, 127)`` and ``w ≈ w_int * s``.

The value ``-128`` is representable by the storage format (and can be
*produced by an attack* flipping the sign bit of ``0``), but the quantizer
itself never emits it, matching the symmetric-range convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.tensor.dtypes import FLOAT_DTYPE

from repro.errors import QuantizationError

QMAX = 127
QMIN = -127


@dataclass(frozen=True)
class QuantParams:
    """Quantization parameters for one tensor (per-layer symmetric)."""

    scale: float
    num_bits: int = 8

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise QuantizationError(f"Quantization scale must be positive, got {self.scale}")
        if self.num_bits != 8:
            raise QuantizationError("Only 8-bit quantization is supported")


def quantize_symmetric(weights: np.ndarray) -> Tuple[np.ndarray, QuantParams]:
    """Quantize a float tensor to int8 with a symmetric per-tensor scale.

    Returns ``(int8_values, params)``.  An all-zero tensor gets scale 1.0.
    """
    weights = np.asarray(weights, dtype=FLOAT_DTYPE)
    max_abs = float(np.abs(weights).max()) if weights.size else 0.0
    scale = max_abs / QMAX if max_abs > 0 else 1.0
    params = QuantParams(scale=scale)
    quantized = np.clip(np.round(weights / scale), QMIN, QMAX).astype(np.int8)
    return quantized, params


def dequantize(values: np.ndarray, params: QuantParams) -> np.ndarray:
    """Map int8 values back to floats using the stored scale.

    One pass: the multiply casts to :data:`FLOAT_DTYPE` as it goes, which is
    bit-identical to ``values.astype(FLOAT_DTYPE) * params.scale`` without
    the intermediate float copy.
    """
    values = np.asarray(values)
    if values.dtype != np.int8:
        raise QuantizationError(f"dequantize expects int8 values, got dtype {values.dtype}")
    return np.multiply(values, params.scale, dtype=FLOAT_DTYPE)


def quantization_error(weights: np.ndarray) -> float:
    """Root-mean-square error introduced by quantizing ``weights``."""
    quantized, params = quantize_symmetric(weights)
    restored = dequantize(quantized, params)
    weights = np.asarray(weights, dtype=FLOAT_DTYPE)
    if weights.size == 0:
        return 0.0
    return float(np.sqrt(np.mean((weights - restored) ** 2)))
