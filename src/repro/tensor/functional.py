"""Forward / backward compute kernels for the layers used by the models.

Every ``*_forward`` function returns ``(output, cache)`` where ``cache``
holds whatever the matching ``*_backward`` function needs.  The caches are
plain tuples so they stay cheap and picklable.  :func:`batchnorm_inference`
and :func:`max_pool2d` compute only the output, bit-identical to their
``*_forward`` counterparts, for forwards run under
:func:`repro.nn.module.no_grad`.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import ShapeError
from repro.tensor.im2col import col2im, conv_output_size, im2col

Cache = Tuple


# ---------------------------------------------------------------------------
# Convolution
# ---------------------------------------------------------------------------

def conv2d_forward(
    inputs: np.ndarray,
    weight: np.ndarray,
    bias: Optional[np.ndarray] = None,
    stride: int = 1,
    padding: int = 0,
) -> Tuple[np.ndarray, Cache]:
    """2-D convolution (cross-correlation) in NCHW layout.

    Parameters
    ----------
    inputs:
        ``(N, C_in, H, W)``.
    weight:
        ``(C_out, C_in, kernel_h, kernel_w)``.
    bias:
        Optional ``(C_out,)``.

    Returns ``(output, cache)`` with ``output`` of shape
    ``(N, C_out, out_h, out_w)``.  Its memory is channel-major: it is the
    ``(1, 0, 2, 3)`` transposed view of a contiguous ``(C_out, N, out_h,
    out_w)`` array, which is what the next conv's :func:`im2col` reads in
    long runs.  Element-wise layers (batch norm, ReLU, residual adds)
    keep that order.  This is :func:`conv2d_columns` followed by
    :func:`conv2d_multiply`.
    """
    columns = conv2d_columns(inputs, weight.shape, stride, padding)
    return conv2d_multiply(columns, weight, bias, inputs.shape, stride, padding)


def conv2d_columns(
    inputs: np.ndarray, weight_shape: Tuple[int, ...], stride: int = 1, padding: int = 0
) -> np.ndarray:
    """Check ``inputs`` against a conv weight's shape and unfold them with :func:`im2col`.

    Only the weight's shape is needed, so a layer can build its columns
    before it reads its weights.
    """
    if inputs.ndim != 4 or len(weight_shape) != 4:
        raise ShapeError(
            f"conv2d expects 4-D input and weight, got {inputs.shape} and {tuple(weight_shape)}"
        )
    if inputs.shape[1] != weight_shape[1]:
        raise ShapeError(
            f"conv2d channel mismatch: input has {inputs.shape[1]} channels, "
            f"weight expects {weight_shape[1]}"
        )
    return im2col(inputs, tuple(weight_shape[2:]), stride, padding)


def conv2d_multiply(
    columns: np.ndarray,
    weight: np.ndarray,
    bias: Optional[np.ndarray],
    input_shape: Tuple[int, ...],
    stride: int = 1,
    padding: int = 0,
) -> Tuple[np.ndarray, Cache]:
    """The conv's matrix multiply over :func:`conv2d_columns` of an ``input_shape`` input.

    Returns ``(output, cache)`` as :func:`conv2d_forward` does.
    """
    batch, _, height, width = input_shape
    out_channels, _, kernel_h, kernel_w = weight.shape
    out_h = conv_output_size(height, kernel_h, stride, padding)
    out_w = conv_output_size(width, kernel_w, stride, padding)
    weight_matrix = weight.reshape(out_channels, -1)
    output = weight_matrix @ columns.T
    if bias is not None:
        output += bias[:, None]
    output = output.reshape(out_channels, batch, out_h, out_w).transpose(1, 0, 2, 3)
    cache = (columns, weight.shape, input_shape, stride, padding, bias is not None)
    return output, cache


def conv2d_backward(
    grad_output: np.ndarray, weight: np.ndarray, cache: Cache
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Gradients of conv2d w.r.t. input, weight and bias.

    The weight tensor is passed explicitly (it is not kept in the cache to
    avoid holding a second copy for large models).  Returns
    ``(grad_input, grad_weight, grad_bias)``; ``grad_bias`` is ``None`` when
    the forward pass had no bias.
    """
    columns, weight_shape, input_shape, stride, padding, has_bias = cache
    out_channels, _, kernel_h, kernel_w = weight_shape

    grad_matrix = grad_output.transpose(0, 2, 3, 1).reshape(-1, out_channels)
    grad_weight = (grad_matrix.T @ columns).reshape(weight_shape)
    grad_bias = grad_matrix.sum(axis=0) if has_bias else None

    weight_matrix = weight.reshape(out_channels, -1)
    grad_columns = grad_matrix @ weight_matrix
    grad_input = col2im(grad_columns, input_shape, (kernel_h, kernel_w), stride, padding)
    return grad_input, grad_weight, grad_bias


# ---------------------------------------------------------------------------
# Fully connected
# ---------------------------------------------------------------------------

def linear_forward(
    inputs: np.ndarray, weight: np.ndarray, bias: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, Cache]:
    """Affine transform ``y = x @ W.T + b``.

    ``inputs`` is ``(N, in_features)``; ``weight`` is ``(out_features, in_features)``.
    """
    if inputs.ndim != 2:
        raise ShapeError(f"linear expects a 2-D input, got shape {inputs.shape}")
    if inputs.shape[1] != weight.shape[1]:
        raise ShapeError(
            f"linear feature mismatch: input has {inputs.shape[1]}, weight expects {weight.shape[1]}"
        )
    output = inputs @ weight.T
    if bias is not None:
        output += bias
    cache = (inputs, bias is not None)
    return output, cache


def linear_backward(
    grad_output: np.ndarray, weight: np.ndarray, cache: Cache
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Gradients of the affine transform w.r.t. input, weight, bias."""
    inputs, has_bias = cache
    grad_input = grad_output @ weight
    grad_weight = grad_output.T @ inputs
    grad_bias = grad_output.sum(axis=0) if has_bias else None
    return grad_input, grad_weight, grad_bias


# ---------------------------------------------------------------------------
# Activations
# ---------------------------------------------------------------------------

def relu_forward(inputs: np.ndarray) -> Tuple[np.ndarray, Cache]:
    """Rectified linear unit."""
    mask = inputs > 0
    return inputs * mask, (mask,)


def relu_backward(grad_output: np.ndarray, cache: Cache) -> np.ndarray:
    (mask,) = cache
    return grad_output * mask


# ---------------------------------------------------------------------------
# Batch normalization (2-D, per channel)
# ---------------------------------------------------------------------------

def batchnorm_forward(
    inputs: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    momentum: float = 0.1,
    eps: float = 1e-5,
) -> Tuple[np.ndarray, Cache, np.ndarray, np.ndarray]:
    """Channel-wise batch normalization for NCHW tensors.

    Returns ``(output, cache, new_running_mean, new_running_var)``.  The
    running statistics are returned rather than mutated in place so the
    caller (the nn layer) decides when to commit them.
    """
    if inputs.ndim != 4:
        raise ShapeError(f"batchnorm expects a 4-D NCHW tensor, got {inputs.shape}")
    axes = (0, 2, 3)
    if training:
        mean = inputs.mean(axis=axes)
        var = inputs.var(axis=axes)
        count = inputs.shape[0] * inputs.shape[2] * inputs.shape[3]
        # Unbiased variance for the running estimate, as in torch.nn.BatchNorm2d.
        unbiased_var = var * count / max(count - 1, 1)
        new_running_mean = (1 - momentum) * running_mean + momentum * mean
        new_running_var = (1 - momentum) * running_var + momentum * unbiased_var
    else:
        mean = running_mean
        var = running_var
        new_running_mean = running_mean
        new_running_var = running_var

    mean_b = mean.reshape(1, -1, 1, 1)
    inv_std = _inv_std(var, eps)
    normalized = (inputs - mean_b) * inv_std
    output = gamma.reshape(1, -1, 1, 1) * normalized + beta.reshape(1, -1, 1, 1)
    cache = (normalized, inv_std, gamma, training)
    return output, cache, new_running_mean, new_running_var


def batchnorm_inference(
    inputs: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    eps: float = 1e-5,
) -> np.ndarray:
    """Eval-mode batch normalization into one output buffer, keeping nothing.

    The same IEEE operations in the same order as the eval branch of
    :func:`batchnorm_forward` — ``x - mean``, ``* inv_std``, ``* gamma``,
    ``+ beta`` — so the output is bit-identical to it.
    """
    if inputs.ndim != 4:
        raise ShapeError(f"batchnorm expects a 4-D NCHW tensor, got {inputs.shape}")
    output = np.subtract(inputs, running_mean.reshape(1, -1, 1, 1))
    output *= _inv_std(running_var, eps)
    output *= gamma.reshape(1, -1, 1, 1)
    output += beta.reshape(1, -1, 1, 1)
    return output


def _inv_std(var: np.ndarray, eps: float) -> np.ndarray:
    return 1.0 / np.sqrt(var.reshape(1, -1, 1, 1) + eps)


def batchnorm_backward(
    grad_output: np.ndarray, cache: Cache
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of batchnorm w.r.t. input, gamma and beta."""
    normalized, inv_std, gamma, training = cache
    axes = (0, 2, 3)
    grad_gamma = (grad_output * normalized).sum(axis=axes)
    grad_beta = grad_output.sum(axis=axes)

    gamma_b = gamma.reshape(1, -1, 1, 1)
    if not training:
        # In eval mode the statistics are constants.
        grad_input = grad_output * gamma_b * inv_std
        return grad_input, grad_gamma, grad_beta

    count = grad_output.shape[0] * grad_output.shape[2] * grad_output.shape[3]
    grad_norm = grad_output * gamma_b
    grad_input = (
        inv_std
        / count
        * (
            count * grad_norm
            - grad_norm.sum(axis=axes, keepdims=True)
            - normalized * (grad_norm * normalized).sum(axis=axes, keepdims=True)
        )
    )
    return grad_input, grad_gamma, grad_beta


# ---------------------------------------------------------------------------
# Pooling
# ---------------------------------------------------------------------------

def max_pool2d_forward(
    inputs: np.ndarray, kernel_size: int, stride: Optional[int] = None, padding: int = 0
) -> Tuple[np.ndarray, Cache]:
    """Max pooling over square windows.

    Padding positions are filled with ``-inf`` so that they never win the
    maximum, matching the semantics of ``torch.nn.MaxPool2d``.
    """
    stride = stride or kernel_size
    batch, channels, height, width = inputs.shape
    out_h = conv_output_size(height, kernel_size, stride, padding)
    out_w = conv_output_size(width, kernel_size, stride, padding)

    padded = inputs
    if padding > 0:
        padded = np.pad(
            inputs,
            ((0, 0), (0, 0), (padding, padding), (padding, padding)),
            mode="constant",
            constant_values=-np.inf,
        )
    padded_shape = padded.shape
    reshaped = padded.reshape(batch * channels, 1, padded_shape[2], padded_shape[3])
    columns = im2col(reshaped, (kernel_size, kernel_size), stride, padding=0)
    argmax = columns.argmax(axis=1)
    output = columns[np.arange(columns.shape[0]), argmax]
    output = output.reshape(batch, channels, out_h, out_w)
    cache = (argmax, columns.shape, inputs.shape, padded_shape, kernel_size, stride, padding)
    return output, cache


def max_pool2d(
    inputs: np.ndarray, kernel_size: int, stride: Optional[int] = None, padding: int = 0
) -> np.ndarray:
    """Max pooling without the argmax cache, bit-identical to :func:`max_pool2d_forward`.

    Takes the element-wise maximum over the ``kernel_size**2`` strided
    views of the ``-inf``-padded channel-major planes.  A maximum that is
    nonzero and not NaN has one bit pattern, whichever window element it
    came from.  Zero maxima (``0.0`` and ``-0.0`` compare equal) and NaN
    windows are settled by ``argmax`` over their gathered windows in
    kernel order, as :func:`max_pool2d_forward` does: its first maximum,
    or its first NaN, wins.  The output is channel-major, like a conv's.
    """
    stride = stride or kernel_size
    batch, channels, height, width = inputs.shape
    out_h = conv_output_size(height, kernel_size, stride, padding)
    out_w = conv_output_size(width, kernel_size, stride, padding)
    planes = inputs.transpose(1, 0, 2, 3)
    if padding > 0:
        padded = np.full(
            (channels, batch, height + 2 * padding, width + 2 * padding),
            -np.inf,
            dtype=inputs.dtype,
        )
        padded[:, :, padding:padding + height, padding:padding + width] = planes
        planes = padded
    row_span = stride * (out_h - 1) + 1
    col_span = stride * (out_w - 1) + 1
    views = [
        planes[:, :, row:row + row_span:stride, col:col + col_span:stride]
        for row in range(kernel_size)
        for col in range(kernel_size)
    ]
    output = views[0].copy()
    for view in views[1:]:
        np.maximum(output, view, out=output)
    tied = output == 0
    tied |= output != output
    if tied.any():
        windows = np.stack([view[tied] for view in views], axis=1)
        output[tied] = windows[np.arange(windows.shape[0]), windows.argmax(axis=1)]
    return output.transpose(1, 0, 2, 3)


def max_pool2d_backward(grad_output: np.ndarray, cache: Cache) -> np.ndarray:
    argmax, columns_shape, input_shape, padded_shape, kernel_size, stride, padding = cache
    batch, channels, height, width = input_shape
    grad_columns = np.zeros(columns_shape, dtype=grad_output.dtype)
    grad_flat = grad_output.reshape(-1)
    grad_columns[np.arange(columns_shape[0]), argmax] = grad_flat
    grad_padded = col2im(
        grad_columns,
        (batch * channels, 1, padded_shape[2], padded_shape[3]),
        (kernel_size, kernel_size),
        stride,
        padding=0,
    ).reshape(padded_shape)
    if padding > 0:
        grad_padded = grad_padded[:, :, padding:padding + height, padding:padding + width]
    return grad_padded


def avg_pool2d_forward(
    inputs: np.ndarray, kernel_size: int, stride: Optional[int] = None, padding: int = 0
) -> Tuple[np.ndarray, Cache]:
    """Average pooling over square windows."""
    stride = stride or kernel_size
    batch, channels, height, width = inputs.shape
    out_h = conv_output_size(height, kernel_size, stride, padding)
    out_w = conv_output_size(width, kernel_size, stride, padding)
    reshaped = inputs.reshape(batch * channels, 1, height, width)
    columns = im2col(reshaped, (kernel_size, kernel_size), stride, padding)
    output = columns.mean(axis=1).reshape(batch, channels, out_h, out_w)
    cache = (columns.shape, inputs.shape, kernel_size, stride, padding)
    return output, cache


def avg_pool2d_backward(grad_output: np.ndarray, cache: Cache) -> np.ndarray:
    columns_shape, input_shape, kernel_size, stride, padding = cache
    batch, channels, height, width = input_shape
    window = kernel_size * kernel_size
    grad_columns = np.repeat(
        grad_output.reshape(-1, 1) / window, window, axis=1
    ).astype(grad_output.dtype)
    grad_reshaped = col2im(
        grad_columns,
        (batch * channels, 1, height, width),
        (kernel_size, kernel_size),
        stride,
        padding,
    )
    return grad_reshaped.reshape(input_shape)


def global_avg_pool_forward(inputs: np.ndarray) -> Tuple[np.ndarray, Cache]:
    """Global average pooling: ``(N, C, H, W) -> (N, C)``."""
    batch, channels, height, width = inputs.shape
    output = inputs.mean(axis=(2, 3))
    return output, (inputs.shape,)


def global_avg_pool_backward(grad_output: np.ndarray, cache: Cache) -> np.ndarray:
    (input_shape,) = cache
    _, _, height, width = input_shape
    scale = 1.0 / (height * width)
    return np.broadcast_to(
        grad_output[:, :, None, None] * scale, input_shape
    ).astype(grad_output.dtype, copy=True)


# ---------------------------------------------------------------------------
# Softmax / cross entropy
# ---------------------------------------------------------------------------

def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last dimension."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable log-softmax over the last dimension."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def cross_entropy_forward(
    logits: np.ndarray, targets: np.ndarray
) -> Tuple[float, Cache]:
    """Mean cross-entropy loss for integer class targets."""
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy expects 2-D logits, got {logits.shape}")
    if targets.ndim != 1 or targets.shape[0] != logits.shape[0]:
        raise ShapeError(
            f"targets shape {targets.shape} does not match logits batch {logits.shape[0]}"
        )
    log_probs = log_softmax(logits)
    batch = logits.shape[0]
    loss = -log_probs[np.arange(batch), targets].mean()
    cache = (log_probs, targets)
    return float(loss), cache


def cross_entropy_backward(cache: Cache) -> np.ndarray:
    """Gradient of mean cross-entropy w.r.t. the logits."""
    log_probs, targets = cache
    batch = log_probs.shape[0]
    grad = np.exp(log_probs)
    grad[np.arange(batch), targets] -= 1.0
    return grad / batch
