"""Addition checksum and signature binarization (Section IV.A).

For a group of ``G`` (masked) int8 weights the checksum is their integer
sum ``M``.  The 2-bit signature is

``S_A = floor(M / 256) mod 2`` and ``S_B = floor(M / 128) mod 2``

which in two's complement are simply bits 8 and 7 of ``M`` — i.e. the
binarization is a bit truncation, as the paper notes.  ``S_B`` acts as a
parity over the MSBs of the group (any single MSB flip moves ``M`` by
±128 and toggles it); ``S_A`` additionally catches same-direction double
flips.  A 3-bit signature appends ``S_C = floor(M / 64) mod 2`` to also
cover MSB-1 flips (Section VIII).
"""

from __future__ import annotations

import functools
from typing import Optional

import numpy as np

from repro.core.interleave import GroupLayout
from repro.core.masking import SecretKey
from repro.errors import ProtectionError

#: Divisors whose quotient parity forms the signature bits, most significant first.
_SIGNATURE_DIVISORS = (256, 128, 64)


def signature_from_sums(sums: np.ndarray, signature_bits: int = 2) -> np.ndarray:
    """Binarize checksums into packed signatures.

    Parameters
    ----------
    sums:
        Integer array of per-group checksums ``M``.
    signature_bits:
        Which bits make up the signature: 1 → ``(S_B,)`` (parity only),
        2 → ``(S_A, S_B)`` (the paper's default), 3 → ``(S_A, S_B, S_C)``.

    Returns
    -------
    ``uint8`` array of the same shape as ``sums`` with the signature bits
    packed MSB-first (e.g. for 2 bits the value is ``2*S_A + S_B``).

    Notes
    -----
    ``floor(M / 2**k) mod 2`` is bit ``k`` of the two's-complement sum
    (floor division by a power of two is an arithmetic right shift, for
    negative ``M`` too), so the packed signature is a single shift-and-mask
    over the whole array: bits ``[8, 7]`` for the 2-bit default, bit ``7``
    alone for 1 bit, bits ``[8, 7, 6]`` for 3 bits.  Any signed integer
    dtype is accepted and shifted natively — the scan kernel feeds int32
    checksums through without a promotion to int64.
    """
    if signature_bits not in (1, 2, 3):
        raise ProtectionError(f"signature_bits must be 1, 2 or 3, got {signature_bits}")
    sums = np.asarray(sums)
    if sums.dtype.kind != "i":
        sums = sums.astype(np.int64)
    shift, mask = signature_shift_mask(signature_bits)
    return ((sums >> shift) & mask).astype(np.uint8)


def signature_shift_mask(signature_bits: int) -> tuple:
    """The ``(shift, mask)`` pair that extracts a packed signature from ``M``.

    Derived from :data:`_SIGNATURE_DIVISORS`: the least-significant
    signature bit is the parity of ``M`` divided by the smallest selected
    divisor, so the shift is that divisor's bit position and the mask keeps
    ``signature_bits`` bits.  Exposed so the scan kernel can binarize *in
    place* on its sums scratch (``sums >>= shift; sums &= mask``) without
    the intermediate arrays :func:`signature_from_sums` allocates.
    """
    if signature_bits not in (1, 2, 3):
        raise ProtectionError(f"signature_bits must be 1, 2 or 3, got {signature_bits}")
    lowest = _SIGNATURE_DIVISORS[1 if signature_bits == 1 else signature_bits - 1]
    return lowest.bit_length() - 1, (1 << signature_bits) - 1


def compute_group_sums(
    qweight_flat: np.ndarray,
    layout: GroupLayout,
    key: Optional[SecretKey] = None,
    groups: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Per-group masked addition checksums ``M`` for one layer.

    ``qweight_flat`` is the layer's int8 weight tensor flattened in memory
    order; ``layout`` supplies the (possibly interleaved) grouping and
    ``key`` the masking signs (``None`` disables masking).  ``groups``
    restricts the computation to the listed group indices (in the given
    order); ``None`` computes every group.
    """
    qweight_flat = np.asarray(qweight_flat)
    if qweight_flat.dtype != np.int8:
        raise ProtectionError(f"Expected int8 weights, got dtype {qweight_flat.dtype}")
    # Narrow accumulation: gather the int8 weights without promoting them and
    # let einsum accumulate the ±1-masked sum directly in the accumulator
    # dtype — no int64 weight copy and no materialized product matrix.  int32
    # always suffices at paper scales (|M| <= group_size * 128); the int64
    # fallback keeps pathological group sizes exact.
    accum = accumulator_dtype(layout.group_size)
    if groups is None:
        gathered = layout.gather(qweight_flat, dtype=np.int8)
    else:
        gathered = layout.gather_rows(qweight_flat, groups, dtype=np.int8)
    if key is not None:
        signs = key.signs(layout.group_size, dtype=np.int8)
        sums = np.einsum("ij,j->i", gathered, signs, dtype=accum)
    else:
        sums = gathered.sum(axis=1, dtype=accum)
    return sums.astype(np.int64)


@functools.lru_cache(maxsize=None)
def accumulator_dtype(group_size: int) -> np.dtype:
    """Narrowest dtype that holds any masked group sum exactly.

    A group of ``group_size`` int8 weights, each contributing at most
    ``|±128|`` after masking, bounds the checksum by ``group_size * 128`` —
    int32 covers every realistic configuration; int64 is the guard rail.
    """
    if group_size * 128 <= np.iinfo(np.int32).max:
        return np.dtype(np.int32)
    return np.dtype(np.int64)


def compute_signatures(
    qweight_flat: np.ndarray,
    layout: GroupLayout,
    key: Optional[SecretKey] = None,
    signature_bits: int = 2,
    groups: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Convenience wrapper: checksums then binarization."""
    sums = compute_group_sums(qweight_flat, layout, key, groups=groups)
    return signature_from_sums(sums, signature_bits)
