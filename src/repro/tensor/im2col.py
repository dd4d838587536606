"""im2col / col2im transforms used to express convolution as matrix multiply.

Layout conventions (NCHW throughout the library):

* images: ``(batch, channels, height, width)``
* im2col output: ``(batch * out_h * out_w, channels * kernel_h * kernel_w)``

The column matrix rows are ordered batch-major, then output row, then
output column; its columns are ordered channel, then kernel row, then
kernel column.  In memory it is the *transposed view* of a contiguous
channel-major ``(channels * kernel_h * kernel_w, batch * out_h * out_w)``
buffer: the copy that builds it runs along whole output rows instead of
single kernel rows, and :func:`repro.tensor.functional.conv2d_forward`
multiplies that buffer directly (``weight_matrix @ columns.T``).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import ShapeError


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution along one dimension."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ShapeError(
            f"Convolution output size is non-positive: input={size}, "
            f"kernel={kernel}, stride={stride}, padding={padding}"
        )
    return out


def _check_image(images: np.ndarray) -> None:
    if images.ndim != 4:
        raise ShapeError(f"Expected a 4-D NCHW tensor, got shape {images.shape}")


def im2col(
    images: np.ndarray,
    kernel_size: Tuple[int, int],
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """Unfold image patches into a 2-D column matrix.

    Parameters
    ----------
    images:
        Input of shape ``(N, C, H, W)``.
    kernel_size:
        ``(kernel_h, kernel_w)``.
    stride, padding:
        Convolution stride and symmetric zero padding.

    Returns
    -------
    ndarray of shape ``(N * out_h * out_w, C * kernel_h * kernel_w)``: the
    transposed view of a contiguous channel-major buffer (see the module
    docstring).
    """
    _check_image(images)
    batch, channels, height, width = images.shape
    kernel_h, kernel_w = kernel_size
    out_h = conv_output_size(height, kernel_h, stride, padding)
    out_w = conv_output_size(width, kernel_w, stride, padding)

    # Channel-major (C, N, H + 2p, W + 2p) source.  A channel-major input
    # (the transposed view a previous conv returns) is read in long runs.
    planes = images.transpose(1, 0, 2, 3)
    if padding > 0:
        padded = np.zeros(
            (channels, batch, height + 2 * padding, width + 2 * padding), dtype=images.dtype
        )
        padded[:, :, padding:padding + height, padding:padding + width] = planes
        planes = padded

    # (C, N, out_h, out_w, kernel_h, kernel_w) -> contiguous
    # (C, kernel_h, kernel_w, N, out_h, out_w): the innermost run is an output row.
    windows = np.lib.stride_tricks.sliding_window_view(planes, (kernel_h, kernel_w), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride]
    columns = np.ascontiguousarray(windows.transpose(0, 4, 5, 1, 2, 3))
    return columns.reshape(channels * kernel_h * kernel_w, batch * out_h * out_w).T


def col2im(
    columns: np.ndarray,
    image_shape: Tuple[int, int, int, int],
    kernel_size: Tuple[int, int],
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """Fold a column matrix back into an image, summing overlapping patches.

    This is the adjoint of :func:`im2col` and is used for the gradient with
    respect to the convolution input.
    """
    batch, channels, height, width = image_shape
    kernel_h, kernel_w = kernel_size
    out_h = conv_output_size(height, kernel_h, stride, padding)
    out_w = conv_output_size(width, kernel_w, stride, padding)

    expected_rows = batch * out_h * out_w
    expected_cols = channels * kernel_h * kernel_w
    if columns.shape != (expected_rows, expected_cols):
        raise ShapeError(
            f"col2im expected columns of shape {(expected_rows, expected_cols)}, "
            f"got {columns.shape}"
        )

    padded_h = height + 2 * padding
    padded_w = width + 2 * padding
    images = np.zeros((batch, channels, padded_h, padded_w), dtype=columns.dtype)

    patches = columns.reshape(batch, out_h, out_w, channels, kernel_h, kernel_w)
    patches = patches.transpose(0, 3, 1, 2, 4, 5)  # (N, C, out_h, out_w, kh, kw)

    for row in range(kernel_h):
        row_end = row + stride * out_h
        for col in range(kernel_w):
            col_end = col + stride * out_w
            images[:, :, row:row_end:stride, col:col_end:stride] += patches[:, :, :, :, row, col]

    if padding > 0:
        images = images[:, :, padding:padding + height, padding:padding + width]
    return images
